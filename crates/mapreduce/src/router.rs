//! The routing plane: how staged messages travel between shards.
//!
//! A superstep's `exchange` has two halves — per-shard *staging* (each
//! machine fills an [`Outbox`]) and *delivery* (every message lands in
//! its destination's inbox, a `&mut [M]` slice of one shared arena).
//! Exchanged messages are `Copy` fixed-size records, so delivery copies
//! them; variable-size traffic rides
//! [`Cluster::gather_payload`](crate::cluster::Cluster::gather_payload)'s
//! flat payload plane instead. The model charges one round; the router is
//! how the host performs the shuffle, and it is exactly the sort +
//! prefix-sum every MRC round reduces to. Outboxes are *columnar* (one
//! flat message column plus a parallel destination column; see
//! [`Outbox`]), and delivery is a counting sort: count messages per
//! destination, prefix-sum the counts into per-machine `(offset, len)`
//! ranges, then scatter every message into a single flat inbox **arena**
//! at its destination's cursor. Senders are processed in id order and
//! the scatter is stable, so each destination's range reads back in
//! exactly `(sender id, send order)` — at every thread count. With
//! enough traffic the count and scatter passes run concurrently over
//! senders (each sender owns a disjoint row of the count matrix and a
//! disjoint set of arena cursors); sparse rounds take a sequential
//! two-pass counting sort, which is already `O(messages + machines)`
//! with no nested buffers.
//!
//! The unit tests check both paths against `route_merge`, a test-only
//! oracle that appends message by message into one `Vec` per destination
//! and shares none of the counting-sort machinery.
//!
//! ## Buffer reuse: [`RouterScratch`]
//!
//! The router's buffers — outbox columns, the inbox arena, and the
//! `usize` count/cursor/range scratch — are pooled in a
//! [`RouterScratch`] owned by the cluster and threaded through every
//! exchange. After the consume pass, the arena's capacity (and every
//! outbox column's) goes back to the pool, so steady-state
//! supersteps perform no message-buffer allocation at all: the per-type
//! pool is keyed by `TypeId`, which is why exchanged messages are
//! `'static`. Word accounting rides the same passes: an [`Outbox`]
//! tracks its staged words incrementally (O(1) [`Outbox::len`]-style
//! queries) and per-destination `in_words` are accumulated during the
//! counting pass, not by a separate walk over delivered messages.
//!
//! The `Backend::Dist` shuffle builds the same shape: it serializes the
//! outboxes to per-worker batches, and decodes the returned regions —
//! which arrive in destination order — straight into a pooled arena with
//! one `(offset, len)` range per shard. It retains the encoded batch
//! bytes for fault-tolerant replay (a respawned worker is re-sent the
//! batches the dead one had ingested), so replay correctness never
//! depends on pooled memory: the retained bytes, not the buffers, are
//! the recovery source.

use std::any::{Any, TypeId};
use std::collections::HashMap;

use crate::executor::RawSlots;
use crate::shard::MachineId;
use crate::superstep::Scheduler;
use crate::words::WordSized;

/// Outgoing messages staged by one machine during a superstep, stored
/// columnar: a flat message column plus a parallel destination column.
/// Staged word volume is tracked incrementally at [`Outbox::send`], so
/// metering reads it in O(1) instead of re-walking the messages.
#[derive(Debug)]
pub struct Outbox<M> {
    machines: usize,
    pub(crate) msgs: Vec<M>,
    pub(crate) dsts: Vec<MachineId>,
    staged_words: usize,
}

impl<M> Outbox<M> {
    /// An empty outbox addressing `machines` destinations (tests stage
    /// outboxes directly; the cluster always supplies pooled buffers).
    #[cfg(test)]
    pub(crate) fn new(machines: usize) -> Self {
        Outbox::with_buffers(machines, Vec::new(), Vec::new())
    }

    /// An empty outbox reusing pooled column buffers (capacity kept from
    /// an earlier superstep).
    pub(crate) fn with_buffers(machines: usize, msgs: Vec<M>, dsts: Vec<MachineId>) -> Self {
        debug_assert!(msgs.is_empty() && dsts.is_empty());
        Outbox {
            machines,
            msgs,
            dsts,
            staged_words: 0,
        }
    }

    /// Stages `msg` for delivery to `dst` at the start of the next round.
    pub fn send(&mut self, dst: MachineId, msg: M)
    where
        M: WordSized,
    {
        assert!(dst < self.machines, "destination {dst} out of range");
        self.staged_words += msg.words();
        self.msgs.push(msg);
        self.dsts.push(dst);
    }

    /// Number of staged messages.
    pub fn len(&self) -> usize {
        self.msgs.len()
    }

    /// True if nothing has been staged.
    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }

    /// Total staged words (the sender's metered outgoing volume),
    /// accumulated at [`Outbox::send`] time.
    pub(crate) fn staged_words(&self) -> usize {
        self.staged_words
    }

    /// Consumes the outbox, returning its (emptied) column buffers to be
    /// pooled.
    pub(crate) fn into_buffers(mut self) -> (Vec<M>, Vec<MachineId>) {
        self.msgs.clear();
        self.dsts.clear();
        (self.msgs, self.dsts)
    }
}

/// Delivered messages for one exchange round: one flat arena in which
/// destination `d` owns `arena[ranges[d].0 ..][.. ranges[d].1]`, plus the
/// per-destination word volume the cluster budgets against machine
/// memory. Built by [`route`] (a counting sort) or by the dist shuffle
/// (regions decoded in destination order); each machine reads its range
/// as a borrowed slice ([`Delivery::inboxes_mut`]).
pub(crate) struct Delivery<M> {
    arena: Vec<M>,
    ranges: Vec<(usize, usize)>,
    in_words: Vec<usize>,
}

impl<M> Delivery<M> {
    /// Wraps a filled arena whose ranges tile `0..arena.len()` in
    /// destination order, checked here once per round.
    pub(crate) fn from_flat(
        arena: Vec<M>,
        ranges: Vec<(usize, usize)>,
        in_words: Vec<usize>,
    ) -> Self {
        debug_assert_eq!(ranges.len(), in_words.len());
        let mut end = 0usize;
        for &(off, len) in &ranges {
            assert_eq!(off, end, "delivery ranges must tile the arena");
            end += len;
        }
        assert_eq!(end, arena.len(), "delivery ranges must tile the arena");
        Delivery {
            arena,
            ranges,
            in_words,
        }
    }

    /// Words received per destination.
    pub(crate) fn in_words(&self) -> &[usize] {
        &self.in_words
    }

    /// One inbox per destination, in destination order: the arena split
    /// along its ranges.
    pub(crate) fn inboxes_mut(&mut self) -> impl Iterator<Item = &mut [M]> + '_ {
        let mut rest = self.arena.as_mut_slice();
        self.ranges.iter().map(move |&(_, len)| {
            let (inbox, tail) = std::mem::take(&mut rest).split_at_mut(len);
            rest = tail;
            inbox
        })
    }

    /// Returns the arena's capacity and the range and word vectors to
    /// the pool.
    pub(crate) fn recycle(mut self, scratch: &mut RouterScratch)
    where
        M: Send + 'static,
    {
        self.arena.clear();
        scratch.put_arena(self.arena);
        scratch.put_ranges(self.ranges);
        scratch.put_usizes(self.in_words);
    }

    /// Materializes every inbox as an owned `Vec` — test-only view for
    /// comparing against the oracle.
    #[cfg(test)]
    pub(crate) fn nested(&self) -> Vec<Vec<M>>
    where
        M: Clone,
    {
        self.ranges
            .iter()
            .map(|&(off, len)| self.arena[off..off + len].to_vec())
            .collect()
    }
}

/// Pooled buffers reused across exchange rounds (owned by the cluster,
/// threaded through the crate-internal `route`): outbox columns and inbox arenas per
/// message type, plus the type-independent `usize` count/cursor/range
/// scratch. Steady-state supersteps draw
/// everything from here and return it after the consume pass, so they
/// allocate no message buffers at all.
#[derive(Default)]
pub struct RouterScratch {
    usizes: Vec<Vec<usize>>,
    ranges: Vec<Vec<(usize, usize)>>,
    typed: HashMap<TypeId, Box<dyn AnyPool>>,
}

struct TypedPool<M> {
    arenas: Vec<Vec<M>>,
    columns: Vec<(Vec<M>, Vec<MachineId>)>,
}

impl<M> Default for TypedPool<M> {
    fn default() -> Self {
        TypedPool {
            arenas: Vec::new(),
            columns: Vec::new(),
        }
    }
}

/// Type-erased view of a [`TypedPool`] that still answers "how many
/// buffers do you hold" — the hook behind
/// [`RouterScratch::pooled_buffers`], which the cluster uses to assert
/// that exchange rounds return every buffer they take (the leak class
/// where an early `?` exit dropped taken scratch on the floor).
trait AnyPool: Any + Send {
    // Referenced from debug assertions (and tests) only.
    #[cfg_attr(not(any(debug_assertions, test)), allow(dead_code))]
    fn buffers(&self) -> usize;
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<M: Send + 'static> AnyPool for TypedPool<M> {
    fn buffers(&self) -> usize {
        self.arenas.len() + self.columns.len()
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl RouterScratch {
    fn typed<M: Send + 'static>(&mut self) -> &mut TypedPool<M> {
        self.typed
            .entry(TypeId::of::<M>())
            .or_insert_with(|| Box::new(TypedPool::<M>::default()))
            .as_any_mut()
            .downcast_mut::<TypedPool<M>>()
            .expect("pool entry matches its TypeId")
    }

    /// Total buffers currently resting in the pool, across every type.
    /// Steady-state supersteps must leave this non-decreasing: whatever a
    /// round takes it must put back once the consume pass finishes, even
    /// on budget-violation exits. The cluster debug-asserts exactly that
    /// after each exchange.
    #[cfg_attr(not(any(debug_assertions, test)), allow(dead_code))]
    pub(crate) fn pooled_buffers(&self) -> usize {
        self.usizes.len()
            + self.ranges.len()
            + self.typed.values().map(|p| p.buffers()).sum::<usize>()
    }

    /// A zeroed `usize` buffer of length `n`.
    pub(crate) fn take_usizes(&mut self, n: usize) -> Vec<usize> {
        let mut v = self.usizes.pop().unwrap_or_default();
        v.clear();
        v.resize(n, 0);
        v
    }

    pub(crate) fn put_usizes(&mut self, v: Vec<usize>) {
        self.usizes.push(v);
    }

    /// An empty `usize` buffer (capacity retained) for push-style use —
    /// a payload sink's `lens` column.
    pub(crate) fn take_usizes_empty(&mut self) -> Vec<usize> {
        let mut v = self.usizes.pop().unwrap_or_default();
        v.clear();
        v
    }

    pub(crate) fn take_ranges(&mut self, n: usize) -> Vec<(usize, usize)> {
        let mut v = self.ranges.pop().unwrap_or_default();
        v.clear();
        v.resize(n, (0, 0));
        v
    }

    pub(crate) fn put_ranges(&mut self, v: Vec<(usize, usize)>) {
        self.ranges.push(v);
    }

    /// Pooled outbox column buffers (empty, capacity retained).
    pub(crate) fn take_columns<M: Send + 'static>(&mut self) -> (Vec<M>, Vec<MachineId>) {
        self.typed::<M>().columns.pop().unwrap_or_default()
    }

    pub(crate) fn put_columns<M: Send + 'static>(&mut self, columns: (Vec<M>, Vec<MachineId>)) {
        self.typed::<M>().columns.push(columns);
    }

    pub(crate) fn take_arena<M: Send + 'static>(&mut self) -> Vec<M> {
        let arena = self.typed::<M>().arenas.pop().unwrap_or_default();
        debug_assert!(arena.is_empty());
        arena
    }

    pub(crate) fn put_arena<M: Send + 'static>(&mut self, arena: Vec<M>) {
        debug_assert!(arena.is_empty());
        self.typed::<M>().arenas.push(arena);
    }
}

/// Test-only reference oracle: one sequential pass appending into
/// freshly allocated per-destination buffers, stable by construction.
/// Deliberately independent of [`route`]'s machinery (no arena, no
/// counting sort, no scratch) so the equivalence tests compare two
/// genuinely different implementations. Returns the inboxes and the
/// words received per destination.
#[cfg(test)]
pub(crate) fn route_merge<M: WordSized>(
    machines: usize,
    outboxes: Vec<Outbox<M>>,
) -> (Vec<Vec<M>>, Vec<usize>) {
    let mut inboxes: Vec<Vec<M>> = (0..machines).map(|_| Vec::new()).collect();
    let mut in_words = vec![0usize; machines];
    for outbox in outboxes {
        for (dst, msg) in outbox.dsts.into_iter().zip(outbox.msgs) {
            in_words[dst] += msg.words();
            inboxes[dst].push(msg);
        }
    }
    (inboxes, in_words)
}

/// True when a round is dense enough for the concurrent counting sort:
/// cell occupancy of the sender × machine count matrix at least 1/4.
fn dense(total: usize, senders: usize, machines: usize) -> bool {
    total.saturating_mul(4) >= senders.saturating_mul(machines)
}

/// Routes all staged outboxes (one per machine, in sender-id order) to
/// their destinations: a counting sort into one flat arena. Emptied
/// outbox columns and the count scratch are recycled into `scratch`.
///
/// Counting and word accounting happen in a single pass over the
/// destination columns; the stable scatter processes senders in id
/// order, so destination `d`'s range reads back in `(sender id, send
/// order)`. [`dense`] rounds run both passes concurrently over senders;
/// sparse rounds and single-threaded schedulers use the sequential
/// two-pass sort, which allocates nothing beyond the pooled scratch
/// either.
pub(crate) fn route<M: Copy + WordSized + Send + 'static>(
    sched: &Scheduler,
    machines: usize,
    mut outboxes: Vec<Outbox<M>>,
    scratch: &mut RouterScratch,
) -> Delivery<M> {
    let senders = outboxes.len();
    let total: usize = outboxes.iter().map(Outbox::len).sum();
    let mut arena: Vec<M> = scratch.take_arena();
    arena.reserve(total);
    let mut in_words = scratch.take_usizes(machines);
    let mut ranges = scratch.take_ranges(machines);

    if sched.threads() > 1 && dense(total, senders, machines) {
        // Concurrent counting sort. Stage 1: sender `s` fills row `s` of
        // the count and word matrices (disjoint rows, so the pass
        // parallelizes over senders with no synchronization).
        let mut counts = scratch.take_usizes(senders * machines);
        let mut words = scratch.take_usizes(senders * machines);
        let mut rows: Vec<_> = outboxes
            .iter_mut()
            .zip(counts.chunks_mut(machines).zip(words.chunks_mut(machines)))
            .collect();
        sched.map_mut(&mut rows, |_, (outbox, (crow, wrow))| {
            for (&dst, msg) in outbox.dsts.iter().zip(&outbox.msgs) {
                crow[dst] += 1;
                wrow[dst] += msg.words();
            }
        });
        drop(rows);
        // Column-major prefix sum: destination ranges in machine order,
        // sender order within a destination. `counts[s][d]` becomes the
        // arena cursor where sender `s`'s block for `d` starts.
        let mut offset = 0usize;
        for (d, range) in ranges.iter_mut().enumerate() {
            let start = offset;
            let mut dwords = 0usize;
            for s in 0..senders {
                let cell = s * machines + d;
                let c = counts[cell];
                counts[cell] = offset;
                offset += c;
                dwords += words[cell];
            }
            *range = (start, offset - start);
            in_words[d] = dwords;
        }
        assert_eq!(offset, total, "counted messages must fill the arena");
        // Stage 2: stable scatter, concurrent over senders. Each sender
        // copies its messages to its own cursor block per destination;
        // blocks are disjoint by construction of the prefix sums.
        let arena_base = RawSlots::new(arena.as_mut_ptr());
        let mut rows: Vec<_> = outboxes
            .iter_mut()
            .zip(counts.chunks_mut(machines))
            .collect();
        sched.map_mut(&mut rows, |_, (outbox, cursors)| {
            for (&dst, &msg) in outbox.dsts.iter().zip(&outbox.msgs) {
                // SAFETY: the prefix sums give every (sender, destination)
                // pair its own block of `0..total`, which the arena
                // reserved, and only this sender advances its cursors, so
                // each write stays in its block and no two writes alias.
                // The `Executor` contract runs each sender once and
                // finishes every write before `map_mut` returns.
                unsafe { arena_base.slot(cursors[dst]).write(msg) };
                cursors[dst] += 1;
            }
        });
        drop(rows);
        scratch.put_usizes(counts);
        scratch.put_usizes(words);
    } else {
        // Sequential counting sort: count + account words in one pass,
        // prefix, then a stable scatter in sender order.
        let mut cursors = scratch.take_usizes(machines);
        for outbox in &outboxes {
            for (&dst, msg) in outbox.dsts.iter().zip(&outbox.msgs) {
                cursors[dst] += 1;
                in_words[dst] += msg.words();
            }
        }
        let mut offset = 0usize;
        for (d, range) in ranges.iter_mut().enumerate() {
            let count = cursors[d];
            *range = (offset, count);
            cursors[d] = offset;
            offset += count;
        }
        assert_eq!(offset, total, "counted messages must fill the arena");
        let slots = &mut arena.spare_capacity_mut()[..total];
        for outbox in &outboxes {
            for (&dst, &msg) in outbox.dsts.iter().zip(&outbox.msgs) {
                slots[cursors[dst]].write(msg);
                cursors[dst] += 1;
            }
        }
        scratch.put_usizes(cursors);
    }
    // SAFETY: `total` slots were reserved, and whichever scatter ran
    // wrote each slot of `0..total` exactly once: its per-destination
    // blocks tile `0..offset`, and `offset == total` was asserted.
    unsafe { arena.set_len(total) };
    for outbox in outboxes {
        scratch.put_columns(outbox.into_buffers());
    }
    Delivery::from_flat(arena, ranges, in_words)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::ThreadPoolExecutor;
    use crate::rng::DetRng;
    use crate::words::Payload;
    use std::sync::Arc;

    fn sched(threads: usize) -> Scheduler {
        Scheduler::new(Arc::new(ThreadPoolExecutor::new(threads)))
    }

    /// Random all-to-all traffic: the router must deliver the oracle's
    /// inboxes and word counts at every thread count.
    #[test]
    fn planes_are_bit_identical() {
        for (machines, volume, seed) in [(1usize, 5usize, 1u64), (4, 40, 2), (9, 200, 3)] {
            let staged: Vec<Vec<(MachineId, u64)>> = (0..machines)
                .map(|s| {
                    let mut rng = DetRng::derive(seed, &[s as u64]);
                    (0..volume)
                        .map(|k| ((rng.range(machines as u64)) as usize, (s * 1000 + k) as u64))
                        .collect()
                })
                .collect();
            let outboxes = || -> Vec<Outbox<u64>> {
                staged
                    .iter()
                    .map(|msgs| {
                        let mut out = Outbox::new(machines);
                        for &(dst, m) in msgs {
                            out.send(dst, m);
                        }
                        out
                    })
                    .collect()
            };
            let mut scratch = RouterScratch::default();
            let (want, want_words) = route_merge(machines, outboxes());
            for threads in [1usize, 2, 4] {
                let got = route(&sched(threads), machines, outboxes(), &mut scratch);
                assert_eq!(got.nested(), want, "threads {threads}");
                assert_eq!(got.in_words(), want_words, "threads {threads}");
            }
        }
    }

    /// Buffer pooling across rounds must not perturb delivery: run many
    /// supersteps of varying volume through one scratch and compare each
    /// against the oracle.
    #[test]
    fn pooled_scratch_is_invisible_across_rounds() {
        let machines = 6;
        let s4 = sched(4);
        let mut scratch = RouterScratch::default();
        for round in 0..12u64 {
            let volume = [0usize, 3, 77, 5, 200][round as usize % 5];
            let outboxes = || -> Vec<Outbox<u64>> {
                (0..machines)
                    .map(|s| {
                        let mut rng = DetRng::derive(round, &[s as u64]);
                        let mut out = Outbox::new(machines);
                        for _ in 0..volume {
                            out.send(rng.range(machines as u64) as usize, rng.next_u64());
                        }
                        out
                    })
                    .collect()
            };
            let (want, want_words) = route_merge(machines, outboxes());
            let got = route(&s4, machines, outboxes(), &mut scratch);
            assert_eq!(got.nested(), want, "round {round}");
            assert_eq!(got.in_words(), want_words, "round {round}");
        }
    }

    #[test]
    fn delivery_is_sender_then_send_order() {
        let s = sched(4);
        let mut scratch = RouterScratch::default();
        let mut outboxes: Vec<Outbox<u64>> = (0..3).map(|_| Outbox::new(3)).collect();
        outboxes[2].send(0, 20);
        outboxes[2].send(0, 21);
        outboxes[0].send(0, 1);
        outboxes[1].send(2, 12);
        let d = route(&s, 3, outboxes, &mut scratch);
        let inboxes = d.nested();
        assert_eq!(inboxes[0], vec![1, 20, 21]);
        assert!(inboxes[1].is_empty());
        assert_eq!(inboxes[2], vec![12]);
        assert_eq!(d.in_words(), &[3, 0, 1]);
    }

    #[test]
    fn sparse_rounds_take_the_sequential_path_and_still_agree() {
        // Below the density cutoff (cell occupancy under 1/4) the router
        // uses the sequential counting sort; delivery and word counts
        // must be indistinguishable from the oracle's.
        let s = sched(4);
        for volume in [0usize, 1, 5] {
            let outboxes = || -> Vec<Outbox<u64>> {
                let mut obs: Vec<Outbox<u64>> = (0..8).map(|_| Outbox::new(8)).collect();
                for k in 0..volume {
                    obs[k % 8].send((k * 3) % 8, k as u64);
                }
                obs
            };
            let mut scratch = RouterScratch::default();
            let (want, want_words) = route_merge(8, outboxes());
            let got = route(&s, 8, outboxes(), &mut scratch);
            assert_eq!(got.nested(), want, "volume {volume}");
            assert_eq!(got.in_words(), want_words, "volume {volume}");
        }
    }

    /// Satellite regression: `in_words`, now folded into the delivery
    /// pass, must match the old definition — a separate walk summing
    /// `words()` over each delivered inbox — on a mixed-size workload.
    #[test]
    fn in_words_matches_recomputation_on_mixed_workload() {
        let machines = 5;
        let outboxes = || -> Vec<Outbox<Payload>> {
            (0..machines)
                .map(|s| {
                    let mut rng = DetRng::derive(99, &[s as u64]);
                    let mut out = Outbox::new(machines);
                    for _ in 0..60 {
                        let len = rng.range(7) as usize; // includes empty payloads
                        out.send(rng.range(machines as u64) as usize, Payload(len));
                    }
                    out
                })
                .collect()
        };
        let recount = |inboxes: &[Vec<Payload>]| -> Vec<usize> {
            inboxes
                .iter()
                .map(|inbox| inbox.iter().map(WordSized::words).sum())
                .collect()
        };
        let (oracle, oracle_words) = route_merge(machines, outboxes());
        assert_eq!(oracle_words, recount(&oracle), "oracle");
        let mut scratch = RouterScratch::default();
        for threads in [1usize, 4] {
            let d = route(&sched(threads), machines, outboxes(), &mut scratch);
            assert_eq!(d.in_words(), recount(&d.nested()), "threads {threads}");
        }
    }

    /// The concurrent scatter's raw writes at their boundary: skewed
    /// rounds of exactly the density cutoff (`total * 4 == senders *
    /// machines`, the threaded path) and one message fewer (the
    /// sequential path) must match the oracle, and `inboxes_mut` must
    /// split the arena along the ranges — empty ranges at both ends
    /// included.
    #[test]
    fn skewed_rounds_at_the_density_cutoff_match_the_oracle() {
        const MACHINES: usize = 8;
        let cutoff = MACHINES * MACHINES / 4;
        // Message `k` goes from `place(k).0` to `place(k).1`; the flag
        // says whether the first and last machines receive nothing.
        type Place = fn(usize) -> (usize, usize);
        let patterns: [(&str, Place, bool); 4] = [
            ("every sender to one machine", |k| (k % MACHINES, 3), true),
            ("one sender to every machine", |k| (5, k % MACHINES), false),
            ("self-sends only", |k| (1 + k % 6, 1 + k % 6), true),
            ("empty senders", |k| (3 + k % 2, 1 + k % 6), true),
        ];
        let scheds = [sched(2), sched(4)];
        for (name, place, empty_ends) in patterns {
            for total in [cutoff, cutoff - 1] {
                assert_eq!(dense(total, MACHINES, MACHINES), total == cutoff);
                let outboxes = || -> Vec<Outbox<u64>> {
                    let mut obs: Vec<Outbox<u64>> =
                        (0..MACHINES).map(|_| Outbox::new(MACHINES)).collect();
                    for k in 0..total {
                        let (s, dst) = place(k);
                        obs[s].send(dst, (s * 1000 + k) as u64);
                    }
                    obs
                };
                let (want, want_words) = route_merge(MACHINES, outboxes());
                for s in &scheds {
                    let what = format!("{name}: {total} messages, {} threads", s.threads());
                    let mut scratch = RouterScratch::default();
                    let mut got = route(s, MACHINES, outboxes(), &mut scratch);
                    assert_eq!(got.in_words(), want_words, "{what}");
                    let ranges: Vec<usize> = got.ranges.iter().map(|&(_, len)| len).collect();
                    let inboxes: Vec<Vec<u64>> = got.inboxes_mut().map(|i| i.to_vec()).collect();
                    assert_eq!(inboxes, want, "{what}");
                    let lens: Vec<usize> = inboxes.iter().map(Vec::len).collect();
                    assert_eq!(lens, ranges, "{what}");
                    if empty_ends {
                        assert!(lens[0] == 0 && lens[MACHINES - 1] == 0, "{what}: {lens:?}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn outbox_rejects_bad_destination() {
        Outbox::new(2).send(2, 7u64);
    }

    #[test]
    fn outbox_accounting() {
        let mut out = Outbox::new(4);
        assert!(out.is_empty());
        out.send(3, vec![1u64, 2, 3]);
        assert_eq!(out.len(), 1);
        assert_eq!(out.staged_words(), 4); // 1 length word + 3 payload
        out.send(0, vec![9u64]);
        assert_eq!(out.staged_words(), 6); // incremental, still exact
    }
}
