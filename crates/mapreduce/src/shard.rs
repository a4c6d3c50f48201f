//! Shards: exclusive ownership of one simulated machine's resources.
//!
//! In the paper's model each of the `M` machines owns `O(n^{1+µ})` words
//! of memory and its private random coins; nothing is shared except what
//! moves through a metered communication round. A [`Shard`] makes that
//! ownership structural: it holds one machine's resident state, its
//! machine-local [`DetRng`] stream, and its space accounting
//! ([`Shard::words`]) — and hands out exclusive access one superstep at a
//! time through the [`crate::superstep::Scheduler`]. The cluster facade
//! ([`crate::cluster::Cluster`]) is a `Vec<Shard<S>>` plus a router and a
//! scheduler.
//!
//! The shard RNG is derived from `(cluster seed, shard id)`, so its
//! stream is a pure function of the configuration — independent of the
//! executor schedule, thread count and runtime, like every other
//! observable. Drivers that need per-entity, partition-stable coins keep
//! using the stateless [`crate::rng::coin`] hashes — those survive
//! re-partitioning and keep the committed goldens stable — while the
//! shard stream ([`Shard::rng_mut`]) serves machine-local decisions
//! where per-entity stability is not required (e.g. local sampling
//! without entity ids, synthetic benchmark workloads).
//!
//! # Shards and the routing plane
//!
//! Shards never see the router, but their exchange traffic flows through
//! it: the cluster stages each shard's sends in an
//! [`Outbox`](crate::router::Outbox) whose columns (messages +
//! destinations) are drawn from a pooled
//! [`RouterScratch`](crate::router::RouterScratch), and the router
//! counting-sorts them into one flat inbox arena. Steady-state supersteps therefore
//! allocate nothing on the routing path — buffers cycle
//! outbox → arena → scratch → outbox across rounds. Pooling is purely a
//! memory-reuse concern: delivery order stays `(sender id, send order)`
//! whatever the buffers held before. Fault-tolerant replay in `Backend::Dist` is likewise
//! unaffected — recovery re-reads retained serialized batch bytes, never
//! pooled buffers (see [`crate::router`] module docs).

use crate::rng::DetRng;
use crate::words::WordSized;

/// Identifier of a simulated machine: `0..machines`.
pub type MachineId = usize;

/// Resident per-machine state.
pub trait MachineState: Send + Sync {
    /// Words of simulated memory this state occupies.
    fn words(&self) -> usize;
}

impl<T: WordSized + Send + Sync> MachineState for T {
    fn words(&self) -> usize {
        WordSized::words(self)
    }
}

/// Domain-separation tag of the shard RNG streams.
const SHARD_RNG_TAG: u64 = 0x7368_6172_6421;

/// One simulated machine: exclusive owner of its resident state, its
/// machine-local RNG stream, and its space accounting.
#[derive(Debug)]
pub struct Shard<S> {
    id: MachineId,
    state: S,
    rng: DetRng,
}

impl<S: MachineState> Shard<S> {
    /// A shard for machine `id`, seeding the machine-local RNG from
    /// `(cluster_seed, id)`.
    pub fn new(id: MachineId, state: S, cluster_seed: u64) -> Self {
        Shard {
            id,
            state,
            rng: DetRng::derive(cluster_seed, &[SHARD_RNG_TAG, id as u64]),
        }
    }

    /// This shard's machine id.
    pub fn id(&self) -> MachineId {
        self.id
    }

    /// Immutable view of the resident state.
    pub fn state(&self) -> &S {
        &self.state
    }

    /// Exclusive access to the resident state.
    pub fn state_mut(&mut self) -> &mut S {
        &mut self.state
    }

    /// The machine-local deterministic RNG stream (a pure function of
    /// `(cluster seed, shard id)` and the number of draws so far).
    pub fn rng_mut(&mut self) -> &mut DetRng {
        &mut self.rng
    }

    /// Words of simulated memory currently resident on this shard.
    pub fn words(&self) -> usize {
        self.state.words()
    }

    /// Consumes the shard, returning the resident state.
    pub fn into_state(self) -> S {
        self.state
    }
}

/// Builds one shard per machine from the per-machine states, in id order.
pub fn shards_from_states<S: MachineState>(states: Vec<S>, cluster_seed: u64) -> Vec<Shard<S>> {
    states
        .into_iter()
        .enumerate()
        .map(|(id, state)| Shard::new(id, state, cluster_seed))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_owns_state_and_accounts_words() {
        let mut shard = Shard::new(3, vec![1u64, 2, 3], 7);
        assert_eq!(shard.id(), 3);
        assert_eq!(shard.words(), 4); // length word + payload
        shard.state_mut().push(9);
        assert_eq!(shard.state(), &vec![1, 2, 3, 9]);
        assert_eq!(shard.into_state(), vec![1, 2, 3, 9]);
    }

    #[test]
    fn shard_rngs_are_deterministic_and_distinct() {
        let mut a = Shard::new(0, vec![0u64], 42);
        let mut b = Shard::new(0, vec![0u64], 42);
        let mut c = Shard::new(1, vec![0u64], 42);
        let mut d = Shard::new(0, vec![0u64], 43);
        let draw =
            |s: &mut Shard<Vec<u64>>| (0..8).map(|_| s.rng_mut().next_u64()).collect::<Vec<_>>();
        let xa = draw(&mut a);
        assert_eq!(xa, draw(&mut b), "same (seed, id) must replay");
        assert_ne!(xa, draw(&mut c), "shards must have distinct streams");
        assert_ne!(xa, draw(&mut d), "seeds must separate streams");
    }

    #[test]
    fn shards_from_states_assigns_ids_in_order() {
        let shards = shards_from_states(vec![vec![1u64], vec![2u64]], 5);
        assert_eq!(shards.len(), 2);
        assert_eq!(shards[0].id(), 0);
        assert_eq!(shards[1].id(), 1);
        assert_eq!(shards[1].state(), &vec![2]);
    }
}
