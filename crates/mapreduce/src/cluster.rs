//! The MPC/MapReduce cluster simulator — a thin facade over the three
//! runtime layers:
//!
//! * [`crate::shard`] — each machine's state, RNG and space accounting
//!   live in a [`Shard`] that owns them exclusively;
//! * [`crate::router`] — the routing plane that delivers exchanged
//!   messages (a counting sort into one pooled flat arena), and
//!   [`crate::payload`] — the flat staging sink of variable-size gathers;
//! * [`crate::superstep`] — the scheduler that runs one task per shard,
//!   each claimed by whichever OS thread is idle.
//!
//! [`ClusterConfig::runtime`] picks where the shuffle happens — in
//! process, or through the [`crate::dist`] master/worker transport; both
//! [`RuntimeKind`]s are bit-identical in every model-level observable.
//! What this facade itself owns is the *model*: the communication
//! primitives and their metering —
//!
//! * [`Cluster::local`] — machine-local computation (fused with the adjacent
//!   communication round; costs no round of its own),
//! * [`Cluster::exchange`] — one round of arbitrary point-to-point messages,
//! * [`Cluster::gather`] / [`Cluster::gather_payload`] — one round of
//!   all-machines-to-one (owned messages, or flat `(head, [T])` payloads),
//! * [`Cluster::broadcast`] / [`Cluster::broadcast_words`] — central machine
//!   to everyone through a fan-out-`t` tree (`⌈log_t M⌉` rounds, exactly the
//!   broadcast tree of Section 2.2 / 4.1 of the paper),
//! * [`Cluster::aggregate`] — the reverse tree, combining one value per
//!   machine into a single value delivered to the central machine.
//!
//! Every primitive meters words moved and enforces the per-machine word
//! budget. Driver control flow lives in ordinary Rust; any value a driver
//! reads from the cluster went through a metered `gather`/`aggregate`, and
//! any value it pushes into closures after a `broadcast` was metered there.

use std::sync::Arc;

use crate::dist::{DistConfig, DistSession, Wire};
use crate::error::{CapacityKind, MrError, MrResult};
use crate::executor::{self, ThreadPoolExecutor};
use crate::metrics::{Metrics, RoundKind, Violation};
use crate::payload::{PayloadBatch, PayloadSink};
use crate::router::{self, RouterScratch};
use crate::shard::{shards_from_states, Shard};
use crate::superstep::{self, RuntimeKind, Scheduler};
use crate::words::WordSized;

pub use crate::router::Outbox;
pub use crate::shard::{MachineId, MachineState};

/// What to do when a word budget is exceeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Enforcement {
    /// Return [`MrError::CapacityExceeded`] immediately (the model's rule).
    #[default]
    Strict,
    /// Record a [`Violation`] in the metrics and continue. Useful for
    /// measuring how much memory an algorithm *would* need.
    Record,
}

/// Cluster shape and budgets.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Number of machines, `M`.
    pub machines: usize,
    /// Memory budget per machine in words (the paper's `O(n^{1+µ})`).
    pub capacity: usize,
    /// Budget enforcement mode.
    pub enforcement: Enforcement,
    /// Fan-out of broadcast/aggregation trees (the paper's `n^µ`).
    pub tree_fanout: usize,
    /// The designated central machine.
    pub central: MachineId,
    /// OS threads for machine supersteps: the shared `t`-thread pool
    /// (see [`crate::executor`]), where `0` or `1` is the 1-thread pool
    /// that runs every task inline, in machine order. Outputs and metrics
    /// are bit-identical either way; only wall-clock changes.
    pub threads: usize,
    /// Which runtime executes the supersteps (in process, or over the
    /// dist transport). Bit-identical either way; defaults to the
    /// `MRLR_BACKEND` environment variable
    /// ([`superstep::default_runtime`]).
    pub runtime: RuntimeKind,
    /// Seed of the machine-local shard RNG streams
    /// ([`Shard::rng_mut`](crate::shard::Shard::rng_mut)).
    pub seed: u64,
    /// Distributed-session shape (workers, spawn mode, fault injections).
    /// Only consulted when [`ClusterConfig::runtime`] is
    /// [`RuntimeKind::Dist`].
    pub dist: DistConfig,
}

impl ClusterConfig {
    /// A strict cluster with `machines` machines of `capacity` words and
    /// tree fan-out chosen so a broadcast takes one hop when it fits. The
    /// thread count defaults to the `MRLR_THREADS` environment variable
    /// ([`executor::default_threads`]) and the runtime to `MRLR_BACKEND`
    /// ([`superstep::default_runtime`]).
    pub fn new(machines: usize, capacity: usize) -> Self {
        ClusterConfig {
            machines,
            capacity,
            enforcement: Enforcement::Strict,
            tree_fanout: machines.max(2),
            central: 0,
            threads: executor::default_threads(),
            runtime: superstep::default_runtime(),
            seed: 0,
            dist: DistConfig::default(),
        }
    }

    /// Sets the broadcast/aggregation tree fan-out (the paper's `n^µ`).
    pub fn with_fanout(mut self, fanout: usize) -> Self {
        self.tree_fanout = fanout.max(2);
        self
    }

    /// Sets the executor thread count (see [`ClusterConfig::threads`]).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the runtime (see [`ClusterConfig::runtime`]).
    pub fn with_runtime(mut self, runtime: RuntimeKind) -> Self {
        self.runtime = runtime;
        self
    }

    /// Sets the shard-RNG seed (see [`ClusterConfig::seed`]).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the enforcement mode.
    pub fn with_enforcement(mut self, e: Enforcement) -> Self {
        self.enforcement = e;
        self
    }

    /// Sets the distributed-session shape (see [`ClusterConfig::dist`]).
    pub fn with_dist(mut self, dist: DistConfig) -> Self {
        self.dist = dist;
        self
    }

    /// Validates the configuration.
    pub fn validate(&self) -> MrResult<()> {
        if self.machines == 0 {
            return Err(MrError::BadConfig(
                "cluster needs at least one machine".into(),
            ));
        }
        if self.capacity == 0 {
            return Err(MrError::BadConfig("capacity must be positive".into()));
        }
        if self.tree_fanout < 2 {
            return Err(MrError::BadConfig("tree fan-out must be at least 2".into()));
        }
        if self.central >= self.machines {
            return Err(MrError::BadConfig(format!(
                "central machine {} out of range (M = {})",
                self.central, self.machines
            )));
        }
        Ok(())
    }
}

/// Depth of a fan-out-`t` tree over `machines` nodes: the number of hops for
/// a broadcast from the root to reach everyone. 0 when there is one machine.
pub fn tree_depth(machines: usize, fanout: usize) -> usize {
    debug_assert!(fanout >= 2);
    let mut depth = 0;
    let mut reach = 1usize;
    while reach < machines {
        reach = reach.saturating_mul(fanout + 1).min(machines);
        // Each hop, every machine that already has the value sends to
        // `fanout` new machines, so coverage multiplies by (fanout + 1).
        depth += 1;
    }
    depth
}

/// The simulated cluster. `S` is the resident per-machine state.
pub struct Cluster<S> {
    cfg: ClusterConfig,
    shards: Vec<Shard<S>>,
    metrics: Metrics,
    central_extra: usize,
    sched: Scheduler,
    /// Pooled routing buffers, reused across exchange supersteps.
    scratch: RouterScratch,
    /// Live master/worker session when the runtime is [`RuntimeKind::Dist`].
    dist: Option<DistSession>,
}

impl<S: MachineState> Cluster<S> {
    /// Creates a cluster with one state per machine, executing supersteps
    /// on the executor selected by [`ClusterConfig::threads`] under the
    /// runtime selected by [`ClusterConfig::runtime`].
    pub fn new(cfg: ClusterConfig, states: Vec<S>) -> MrResult<Self> {
        let exec = executor::executor_for(cfg.threads);
        Cluster::with_executor(cfg, states, exec)
    }

    /// Creates a cluster running machine supersteps on an explicit pool
    /// (overriding [`ClusterConfig::threads`]). Outputs and [`Metrics`]
    /// are bit-identical across pools and runtimes; only the wall-clock
    /// [`crate::metrics::SuperstepTiming`]s differ.
    pub fn with_executor(
        cfg: ClusterConfig,
        states: Vec<S>,
        exec: Arc<ThreadPoolExecutor>,
    ) -> MrResult<Self> {
        cfg.validate()?;
        if states.len() != cfg.machines {
            return Err(MrError::BadConfig(format!(
                "{} states supplied for {} machines",
                states.len(),
                cfg.machines
            )));
        }
        let metrics = Metrics::new(cfg.machines, cfg.capacity);
        let sched = Scheduler::new(exec);
        let shards = shards_from_states(states, cfg.seed);
        let dist = match cfg.runtime {
            RuntimeKind::Dist => Some(DistSession::launch(cfg.machines, cfg.seed, &cfg.dist)?),
            RuntimeKind::Shard => None,
        };
        let mut cluster = Cluster {
            cfg,
            shards,
            metrics,
            central_extra: 0,
            sched,
            scratch: RouterScratch::default(),
            dist,
        };
        cluster.check_states()?;
        Ok(cluster)
    }

    /// The configuration this cluster runs under.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Number of machines.
    pub fn machines(&self) -> usize {
        self.cfg.machines
    }

    /// Communication rounds elapsed so far.
    pub fn rounds(&self) -> usize {
        self.metrics.rounds
    }

    /// Metrics so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Immutable view of a machine's state.
    pub fn state(&self, id: MachineId) -> &S {
        self.shards[id].state()
    }

    /// Immutable view of all shards (machine id order).
    pub fn shards(&self) -> &[Shard<S>] {
        &self.shards
    }

    /// Exclusive access to one shard — the seam for machine-local RNG
    /// draws ([`Shard::rng_mut`]) outside the metered passes. Mutating
    /// resident state here bypasses no budget for long: every primitive
    /// re-checks state budgets on its next pass.
    pub fn shard_mut(&mut self, id: MachineId) -> &mut Shard<S> {
        &mut self.shards[id]
    }

    /// Consumes the cluster, returning states and metrics.
    pub fn into_parts(self) -> (Vec<S>, Metrics) {
        (
            self.shards.into_iter().map(Shard::into_state).collect(),
            self.metrics,
        )
    }

    /// Constructs the paper's `fail` error at the current round.
    pub fn fail(&self, reason: impl Into<String>) -> MrError {
        MrError::AlgorithmFailed {
            round: self.metrics.rounds,
            reason: reason.into(),
        }
    }

    /// Charges `words` of resident driver-held state to the central machine
    /// (e.g. the local-ratio stack). Replaces any previous charge.
    pub fn charge_central(&mut self, words: usize) -> MrResult<()> {
        self.central_extra = words;
        let used = self.shards[self.cfg.central].words() + words;
        self.metrics.peak_central_words = self.metrics.peak_central_words.max(used);
        self.budget(self.cfg.central, CapacityKind::CentralGather, used)
    }

    fn budget(&mut self, machine: MachineId, kind: CapacityKind, used: usize) -> MrResult<()> {
        if used <= self.cfg.capacity {
            return Ok(());
        }
        match self.cfg.enforcement {
            Enforcement::Strict => Err(MrError::CapacityExceeded {
                round: self.metrics.rounds,
                machine,
                kind,
                used,
                capacity: self.cfg.capacity,
            }),
            Enforcement::Record => {
                self.metrics.violations.push(Violation {
                    round: self.metrics.rounds,
                    machine,
                    kind,
                    used,
                    capacity: self.cfg.capacity,
                });
                Ok(())
            }
        }
    }

    /// Budgets one exchange round: every machine's staged volume, then
    /// every machine's delivered volume, stopping at the first violation.
    fn budget_exchange(&mut self, out_words: &[usize], in_words: &[usize]) -> MrResult<()> {
        for (id, &used) in out_words.iter().enumerate() {
            self.budget(id, CapacityKind::Outbox, used)?;
        }
        for (id, &used) in in_words.iter().enumerate() {
            self.budget(id, CapacityKind::Inbox, used)?;
        }
        Ok(())
    }

    /// Budgets one gather round: every machine's staged volume, then the
    /// central machine's resident state plus everything gathered.
    fn budget_gather(&mut self, out_words: &[usize]) -> MrResult<()> {
        for (id, &used) in out_words.iter().enumerate() {
            self.budget(id, CapacityKind::Outbox, used)?;
        }
        let central = self.cfg.central;
        let total: usize = out_words.iter().sum();
        let central_used = self.shards[central].words() + self.central_extra + total;
        self.metrics.peak_central_words = self.metrics.peak_central_words.max(central_used);
        self.budget(central, CapacityKind::CentralGather, central_used)
    }

    /// Drives the dist control plane (when active) through the barrier of
    /// the superstep just counted: every primitive passes through here, so
    /// the open/ack round-trip doubles as the worker heartbeat — and the
    /// place where a dead worker is detected and recovered. Refreshes the
    /// transport summary in [`Metrics::dist`] afterwards.
    fn dist_sync(&mut self) -> MrResult<()> {
        if let Some(session) = self.dist.as_mut() {
            session.open(self.metrics.supersteps)?;
            self.metrics.dist = Some(session.summary());
        }
        Ok(())
    }

    /// Every pooled buffer a primitive takes must come back, on every
    /// exit: the pool may warm up (grow) but never shrink across a
    /// superstep.
    #[cfg(debug_assertions)]
    fn assert_pool_not_shrunk(&self, pooled_before: usize, primitive: &str) {
        assert!(
            self.scratch.pooled_buffers() >= pooled_before,
            "router scratch leaked pooled buffers across a {primitive}"
        );
    }

    fn check_states(&mut self) -> MrResult<()> {
        let sizes: Vec<usize> = self.sched.map_ref(&self.shards, |_, shard| shard.words());
        let peak = sizes.iter().copied().max().unwrap_or(0);
        self.metrics.peak_machine_words = self.metrics.peak_machine_words.max(peak);
        let central_used = sizes[self.cfg.central] + self.central_extra;
        self.metrics.peak_central_words = self.metrics.peak_central_words.max(central_used);
        for (id, used) in sizes.into_iter().enumerate() {
            self.budget(id, CapacityKind::State, used)?;
        }
        Ok(())
    }

    /// Machine-local computation on every machine in parallel. Costs no
    /// round (local work fuses with the surrounding communication rounds in
    /// the MRC model); state budgets are re-checked afterwards.
    pub fn local<F>(&mut self, f: F) -> MrResult<()>
    where
        F: Fn(MachineId, &mut S) + Sync,
    {
        self.metrics.supersteps += 1;
        self.dist_sync()?;
        let pass = self
            .sched
            .timed_mut(&mut self.shards, |id, shard| f(id, shard.state_mut()));
        self.metrics
            .record_timing(pass.wall_nanos, &pass.task_nanos);
        self.check_states()
    }

    /// One round of point-to-point communication. `produce` runs on every
    /// machine and stages messages; `consume` runs on every machine with
    /// its inbox: a `&mut [M]` slice of the round's delivery arena
    /// holding the messages addressed to it (ordered by sender id, then
    /// send order), which it may read, sort or copy in place. Delivery
    /// goes through the configured runtime ([`ClusterConfig::runtime`]) —
    /// the in-process router, or for [`RuntimeKind::Dist`] the
    /// master/worker shuffle over real transport; the inboxes are
    /// identical either way. Outbox columns and inbox arenas are pooled
    /// ([`RouterScratch`]), so steady-state exchanges reuse the previous
    /// superstep's buffers instead of allocating.
    ///
    /// Messages are `Copy` fixed-size records; variable-size traffic
    /// rides [`Cluster::gather_payload`]'s flat payload plane instead.
    pub fn exchange<M, P, C>(&mut self, produce: P, consume: C) -> MrResult<()>
    where
        M: Copy + WordSized + Send + Wire + 'static,
        P: Fn(MachineId, &mut S, &mut Outbox<M>) + Sync,
        C: Fn(MachineId, &mut S, &mut [M]) + Sync,
    {
        self.metrics.supersteps += 1;
        self.dist_sync()?;
        let machines = self.cfg.machines;
        #[cfg(debug_assertions)]
        let pooled_before = self.scratch.pooled_buffers();
        // Meter outgoing volume per machine while producing. Machines run
        // concurrently on the scheduler; results come back in machine-id
        // order regardless of schedule. Each machine stages into pooled
        // column buffers recycled from an earlier superstep.
        let boxes: Vec<Outbox<M>> = (0..machines)
            .map(|_| {
                let (msgs, dsts) = self.scratch.take_columns::<M>();
                Outbox::with_buffers(machines, msgs, dsts)
            })
            .collect();
        let mut staging: Vec<(&mut Shard<S>, Outbox<M>)> =
            self.shards.iter_mut().zip(boxes).collect();
        let pass = self.sched.timed_mut(&mut staging, |id, (shard, out)| {
            produce(id, shard.state_mut(), out);
            out.staged_words()
        });
        let out_words: Vec<usize> = pass.results;
        let outboxes: Vec<Outbox<M>> = staging.into_iter().map(|(_, out)| out).collect();
        self.metrics
            .record_timing(pass.wall_nanos, &pass.task_nanos);

        // Deliver: stable order (sender id, then send order within sender)
        // into one pooled arena, identical across runtimes — the dist
        // workers bucket the serialized batches in arrival order.
        let mut delivery = match self.dist.as_mut() {
            Some(session) => {
                let d = session.exchange(self.metrics.supersteps, outboxes, &mut self.scratch)?;
                self.metrics.dist = Some(session.summary());
                d
            }
            None => router::route(&self.sched, machines, outboxes, &mut self.scratch),
        };

        let max_out = out_words.iter().copied().max().unwrap_or(0);
        let max_in = delivery.in_words().iter().copied().max().unwrap_or(0);
        let total: usize = out_words.iter().sum();
        self.metrics
            .record_round(RoundKind::Exchange, max_out, max_in, total);

        if let Err(e) = self.budget_exchange(&out_words, delivery.in_words()) {
            // A budget violation skips the consume pass but must still
            // return the delivery's pooled buffers — the leak class where
            // an early `?` exit dropped taken scratch on the floor.
            delivery.recycle(&mut self.scratch);
            #[cfg(debug_assertions)]
            self.assert_pool_not_shrunk(pooled_before, "exchange");
            return Err(e);
        }

        // Consume concurrently: each machine owns its shard and its slice
        // of the arena (delivery order above was fixed in sender-id
        // order, so the schedule cannot leak into observables).
        let mut pairs: Vec<(&mut Shard<S>, &mut [M])> =
            self.shards.iter_mut().zip(delivery.inboxes_mut()).collect();
        let pass = self.sched.timed_mut(&mut pairs, |id, (shard, inbox)| {
            consume(id, shard.state_mut(), inbox);
        });
        drop(pairs);
        delivery.recycle(&mut self.scratch);
        self.metrics
            .record_timing(pass.wall_nanos, &pass.task_nanos);
        #[cfg(debug_assertions)]
        self.assert_pool_not_shrunk(pooled_before, "exchange");
        self.check_states()
    }

    /// One round of all-machines-to-central. Returns the gathered messages
    /// (ordered by sender id) to the driver, which stands in for the central
    /// machine; the volume is budgeted against the central machine's memory
    /// on top of its resident state.
    pub fn gather<M, P>(&mut self, produce: P) -> MrResult<Vec<M>>
    where
        M: WordSized + Send,
        P: Fn(MachineId, &mut S) -> Vec<M> + Sync,
    {
        self.metrics.supersteps += 1;
        self.dist_sync()?;
        let pass = self.sched.timed_mut(&mut self.shards, |id, shard| {
            let batch = produce(id, shard.state_mut());
            let words = batch.iter().map(WordSized::words).sum::<usize>();
            (batch, words)
        });
        self.metrics
            .record_timing(pass.wall_nanos, &pass.task_nanos);
        let (batches, out_words): (Vec<Vec<M>>, Vec<usize>) = pass.results.into_iter().unzip();
        let total: usize = out_words.iter().sum();
        let max_out = out_words.iter().copied().max().unwrap_or(0);
        self.metrics
            .record_round(RoundKind::Gather, max_out, total, total);

        self.budget_gather(&out_words)?;

        Ok(batches.into_iter().flatten().collect())
    }

    /// One round of all-machines-to-central with **variable-size**
    /// messages: every machine stages `(head, payload)` pairs into a
    /// pooled flat [`PayloadSink`] (no `Vec` per message), and the driver
    /// receives one [`PayloadBatch`] — all messages flattened in machine
    /// order, payloads readable as `&[T]` slices. Metering and budgets
    /// are identical to [`Cluster::gather`] shipping `(head, Vec<T>)`
    /// tuples: a message costs `head.words() + 1 + Σ element words`.
    pub fn gather_payload<H, T, P>(&mut self, produce: P) -> MrResult<PayloadBatch<H, T>>
    where
        H: Copy + WordSized + Send + 'static,
        T: Copy + WordSized + Send + 'static,
        P: Fn(MachineId, &mut S, &mut PayloadSink<H, T>) + Sync,
    {
        self.metrics.supersteps += 1;
        self.dist_sync()?;
        let machines = self.cfg.machines;
        #[cfg(debug_assertions)]
        let pooled_before = self.scratch.pooled_buffers();
        let sinks: Vec<PayloadSink<H, T>> = (0..machines)
            .map(|_| {
                let heads = self.scratch.take_arena::<H>();
                let lens = self.scratch.take_usizes_empty();
                let elems = self.scratch.take_arena::<T>();
                PayloadSink::with_buffers(heads, lens, elems)
            })
            .collect();
        let mut staging: Vec<(&mut Shard<S>, PayloadSink<H, T>)> =
            self.shards.iter_mut().zip(sinks).collect();
        let pass = self.sched.timed_mut(&mut staging, |id, (shard, sink)| {
            produce(id, shard.state_mut(), sink);
            sink.words()
        });
        let out_words: Vec<usize> = pass.results;
        let sinks: Vec<PayloadSink<H, T>> = staging.into_iter().map(|(_, sink)| sink).collect();
        self.metrics
            .record_timing(pass.wall_nanos, &pass.task_nanos);
        let total: usize = out_words.iter().sum();
        let max_out = out_words.iter().copied().max().unwrap_or(0);
        self.metrics
            .record_round(RoundKind::Gather, max_out, total, total);

        let budget = self.budget_gather(&out_words);
        // Flatten in machine order; the sinks' pooled buffers go back
        // even when a budget violation aborts the gather.
        let mut batch = PayloadBatch::default();
        for mut sink in sinks {
            if budget.is_ok() {
                batch.append_sink(&mut sink);
            }
            sink.recycle_into(&mut self.scratch);
        }
        #[cfg(debug_assertions)]
        self.assert_pool_not_shrunk(pooled_before, "payload gather");
        budget.map(|()| batch)
    }

    /// Metered broadcast of a `words`-word payload from the central machine
    /// to all machines through the fan-out tree. Returns the number of
    /// rounds charged. The driver retains the actual value and may use it in
    /// subsequent closures; this call accounts for its movement.
    pub fn broadcast_words(&mut self, words: usize) -> MrResult<usize> {
        self.metrics.supersteps += 1;
        self.dist_sync()?;
        let depth = tree_depth(self.cfg.machines, self.cfg.tree_fanout);
        let hop_out = words.saturating_mul(self.cfg.tree_fanout);
        for _ in 0..depth {
            self.metrics
                .record_round(RoundKind::Broadcast, hop_out, words, hop_out);
            self.budget(self.cfg.central, CapacityKind::BroadcastHop, hop_out)?;
        }
        self.metrics.total_message_words = self
            .metrics
            .total_message_words
            // record_round already added hop volumes; adjust to the true
            // total of `words * (M - 1)` delivered across the whole tree.
            .saturating_sub(depth * hop_out)
            + words * self.cfg.machines.saturating_sub(1);
        Ok(depth)
    }

    /// Metered broadcast of `value` (see [`Cluster::broadcast_words`]).
    pub fn broadcast<T: WordSized>(&mut self, value: &T) -> MrResult<usize> {
        self.broadcast_words(value.words())
    }

    /// Aggregates one value per machine into a single value delivered to the
    /// central machine (and returned to the driver), through the reverse
    /// fan-out tree. `extract` runs in parallel; `combine` must be
    /// associative and is applied in machine-id order, so non-commutative
    /// folds are still deterministic.
    pub fn aggregate<T, P, C>(&mut self, extract: P, combine: C) -> MrResult<T>
    where
        T: WordSized + Send,
        P: Fn(MachineId, &S) -> T + Sync,
        C: Fn(T, T) -> T,
    {
        self.metrics.supersteps += 1;
        self.dist_sync()?;
        let pass = self
            .sched
            .timed_ref(&self.shards, |id, shard| extract(id, shard.state()));
        self.metrics
            .record_timing(pass.wall_nanos, &pass.task_nanos);
        let mut values: Vec<T> = pass.results;

        let max_words = values.iter().map(WordSized::words).max().unwrap_or(0);
        let total: usize = values.iter().map(WordSized::words).sum();
        let depth = tree_depth(self.cfg.machines, self.cfg.tree_fanout);
        // In each hop an internal node receives up to `fanout` child values.
        let hop_in = max_words.saturating_mul(self.cfg.tree_fanout);
        for _ in 0..depth {
            self.metrics
                .record_round(RoundKind::Aggregate, max_words, hop_in, hop_in);
            self.budget(self.cfg.central, CapacityKind::AggregateHop, hop_in)?;
        }
        self.metrics.total_message_words = self
            .metrics
            .total_message_words
            .saturating_sub(depth * hop_in)
            + total.saturating_sub(max_words);

        let mut acc: Option<T> = None;
        for v in values.drain(..) {
            acc = Some(match acc {
                None => v,
                Some(a) => combine(a, v),
            });
        }
        Ok(acc.expect("cluster has at least one machine"))
    }

    /// Convenience: sums a per-machine `usize` via [`Cluster::aggregate`].
    pub fn aggregate_sum<P>(&mut self, extract: P) -> MrResult<usize>
    where
        P: Fn(MachineId, &S) -> usize + Sync,
    {
        self.aggregate(extract, |a, b| a + b)
    }

    /// Convenience: maximum of a per-machine `f64` via [`Cluster::aggregate`].
    pub fn aggregate_max_f64<P>(&mut self, extract: P) -> MrResult<f64>
    where
        P: Fn(MachineId, &S) -> f64 + Sync,
    {
        self.aggregate(extract, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The behavioural suite of the cluster primitives lives in
    // `tests/cluster_api.rs` (it exercises only public API); here we
    // keep the facade-level pieces.

    #[test]
    fn tree_depth_examples() {
        assert_eq!(tree_depth(1, 2), 0);
        assert_eq!(tree_depth(2, 2), 1);
        assert_eq!(tree_depth(3, 2), 1);
        assert_eq!(tree_depth(4, 2), 2);
        assert_eq!(tree_depth(9, 2), 2);
        assert_eq!(tree_depth(10, 2), 3);
        assert_eq!(tree_depth(100, 99), 1);
        // fanout 9: coverage 1 -> 10 -> 100 -> 1000
        assert_eq!(tree_depth(100, 9), 2);
        assert_eq!(tree_depth(101, 9), 3);
        assert_eq!(tree_depth(1000, 9), 3);
    }

    #[test]
    fn config_validation() {
        assert!(ClusterConfig::new(0, 10).validate().is_err());
        assert!(ClusterConfig::new(2, 0).validate().is_err());
        let mut cfg = ClusterConfig::new(2, 10);
        cfg.central = 5;
        assert!(cfg.validate().is_err());
        assert!(ClusterConfig::new(2, 10).validate().is_ok());
    }

    #[test]
    fn config_builders_set_runtime_and_seed() {
        let cfg = ClusterConfig::new(4, 100)
            .with_runtime(RuntimeKind::Dist)
            .with_seed(7)
            .with_threads(3);
        assert_eq!(cfg.runtime, RuntimeKind::Dist);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.threads, 3);
        assert!(cfg.validate().is_ok());
    }

    /// A `Strict` inbox-budget violation exits `exchange` before the
    /// consume pass; the arena, ranges and word buffers it drew must be
    /// back in the pool, and the cluster must keep working — on both
    /// runtimes, which share the delivery shape.
    #[test]
    fn budget_violation_returns_pooled_buffers_on_both_runtimes() {
        for runtime in [RuntimeKind::Shard, RuntimeKind::Dist] {
            let machines = 4;
            let cfg = ClusterConfig::new(machines, 6).with_runtime(runtime);
            let states: Vec<Vec<u64>> = vec![Vec::new(); machines];
            let mut c = Cluster::new(cfg, states).unwrap();
            // `per_sender` words from every machine to machine 0.
            let flood = |c: &mut Cluster<Vec<u64>>, per_sender: usize| {
                c.exchange::<u64, _, _>(
                    |id, _, out| (0..per_sender).for_each(|k| out.send(0, (id + k) as u64)),
                    |_, s, inbox| s.extend(inbox.iter().take(1)),
                )
            };
            flood(&mut c, 1).unwrap();
            let warm = c.scratch.pooled_buffers();
            assert!(warm > 0, "{runtime:?}");
            // 3 words out per machine fit; 12 words into machine 0 do not.
            let err = flood(&mut c, 3).unwrap_err();
            assert!(
                matches!(
                    err,
                    MrError::CapacityExceeded {
                        kind: CapacityKind::Inbox,
                        machine: 0,
                        used: 12,
                        ..
                    }
                ),
                "{runtime:?}: {err:?}"
            );
            assert!(c.scratch.pooled_buffers() >= warm, "{runtime:?}");
            flood(&mut c, 1).unwrap();
            assert!(c.scratch.pooled_buffers() >= warm, "{runtime:?}");
            assert_eq!(c.state(0), &[0, 0], "{runtime:?}");
        }
    }

    #[test]
    fn wrong_state_count_rejected() {
        let cfg = ClusterConfig::new(3, 10);
        let states = vec![vec![0u64]];
        assert!(Cluster::new(cfg, states).is_err());
    }
}
