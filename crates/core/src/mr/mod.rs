//! MapReduce implementations of the paper's algorithms, running on the
//! [`mrlr_mapreduce`] cluster simulator.
//!
//! Every module here mirrors a driver from [`crate::rlr`], [`crate::hungry`]
//! or [`crate::colouring`] — same hash-derived coins, same central-machine
//! subroutines — so for identical seeds the MapReduce run returns
//! *bit-identical* solutions while additionally producing honest
//! round/space/communication [`mrlr_mapreduce::Metrics`]. The equivalence
//! is asserted by the integration tests.
//!
//! Machine supersteps execute on the simulator's pluggable executor
//! ([`mrlr_mapreduce::executor`]); [`MrConfig::exec`] selects the thread
//! count. This is wall-clock only — solutions and metrics are identical
//! at every setting, a guarantee `tests/executor_determinism.rs` asserts
//! for every registry key.

pub mod bmatching;
pub mod clique;
pub mod colouring;
pub mod matching;
pub mod mis;
pub mod set_cover;
pub mod set_cover_greedy;
pub mod vertex_cover;

use mrlr_graph::{Graph, VertexId};
use mrlr_mapreduce::{
    ClusterConfig, Csr, CsrBuilder, CsrOverflow, DistParams, Enforcement, MrResult, RuntimeKind,
    SpawnKind, WorkerKill,
};

/// Execution-substrate parameters of a cluster run: how many OS threads
/// the simulator may use for machine supersteps, and which runtime
/// shuffles their exchanges. Neither knob ever affects
/// results — the runtime contract guarantees bit-identical solutions and
/// [`mrlr_mapreduce::Metrics`] at every setting — only wall-clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Executor threads: `0`/`1` = sequential, `t > 1` = a shared
    /// `t`-thread pool ([`mrlr_mapreduce::executor`]).
    pub threads: usize,
    /// Cluster runtime: `Shard` (the in-process engine — what
    /// `Backend::Shard` forces) or `Dist` (the master/worker control
    /// plane over real transport — what `Backend::Dist` forces).
    /// Defaults to the `MRLR_BACKEND` environment variable, else
    /// `Shard`.
    pub runtime: RuntimeKind,
    /// Distributed-session parameters (worker count, spawn mode, fault
    /// injection). Only consulted when [`ExecConfig::runtime`] is
    /// [`RuntimeKind::Dist`].
    pub dist: DistParams,
}

impl ExecConfig {
    /// Sequential execution on the in-process runtime (the reference
    /// schedule).
    pub const SEQ: ExecConfig = ExecConfig {
        threads: 1,
        runtime: RuntimeKind::Shard,
        dist: DistParams::DEFAULT,
    };

    /// A `threads`-thread pool on the process-default runtime.
    pub fn threads(threads: usize) -> Self {
        ExecConfig {
            threads,
            runtime: mrlr_mapreduce::default_runtime(),
            dist: DistParams::DEFAULT,
        }
    }

    /// The process default: `MRLR_THREADS` / `MRLR_BACKEND` when set,
    /// else sequential on the in-process runtime.
    pub fn from_env() -> Self {
        ExecConfig {
            threads: mrlr_mapreduce::default_threads(),
            runtime: mrlr_mapreduce::default_runtime(),
            dist: DistParams::DEFAULT,
        }
    }
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig::from_env()
    }
}

/// Sampling slack of the local-ratio set-cover drivers: Algorithm 1 (and
/// its `f = 2` vertex-cover fast path) declares `fail` when a gathered
/// sample exceeds `SET_COVER_SAMPLE_SLACK · η`. Chernoff gives
/// `|U'| ≤ 2η` w.h.p. at `p = 2η/|U_r|`; the 3× cushion keeps the failure
/// probability negligible at experiment scale.
pub const SET_COVER_SAMPLE_SLACK: usize = 6;

/// Gather slack of the matching drivers (Algorithm 4): per-vertex sampling
/// draws `O(η)` edge halves in expectation; the driver fails past
/// `MATCHING_GATHER_SLACK · η` gathered words.
pub const MATCHING_GATHER_SLACK: usize = 8;

/// Central-finish threshold: once fewer than `CENTRAL_FINISH_SLACK · η`
/// alive items remain, the matching/b-matching drivers ship the residual
/// instance to the central machine and finish sequentially.
pub const CENTRAL_FINISH_SLACK: usize = 4;

/// Per-machine capacity charged per word of `η` by [`MrConfig::auto`]:
/// `MATCHING_GATHER_SLACK · η` gathered halves, `SET_COVER_SAMPLE_SLACK·η`
/// samples, doubled incidence lists plus their index mirror, and broadcast
/// hop buffers — a constant multiple of `η` that 64 covers with room to
/// spare. The theorems' `O(n^{1+µ})` hides exactly this constant.
pub const CAPACITY_ETA_FACTOR: usize = 64;

/// Capacity charged per unit of `scale` (`n` or `m`) by [`MrConfig::auto`]:
/// replicated `ϕ`-potential vectors and resident bitmaps are `O(n)` words
/// each; 8 covers the handful of such structures any driver keeps.
pub const CAPACITY_SCALE_FACTOR: usize = 8;

/// Flat capacity slack added by [`MrConfig::auto`] so that degenerate
/// shapes (tiny `η`, tiny `n`) still fit control messages and per-round
/// bookkeeping.
pub const CAPACITY_BASE_SLACK: usize = 1024;

/// Cluster-shape parameters shared by the MapReduce algorithms.
///
/// The paper's regime: machine memory `η = n^{1+µ}` words, `M = n^{c-µ}`
/// machines for an input of `n^{1+c}` records, broadcast trees of fan-out
/// `n^µ`.
#[derive(Debug, Clone, Copy)]
pub struct MrConfig {
    /// Number of machines `M`.
    pub machines: usize,
    /// Word budget per machine.
    pub capacity: usize,
    /// Broadcast/aggregation tree fan-out (the paper's `n^µ`).
    pub fanout: usize,
    /// Sampling budget `η = n^{1+µ}`.
    pub eta: usize,
    /// The memory exponent `µ` this shape was derived from. Drivers use it
    /// to derive the paper's per-algorithm parameters (phase granularity
    /// `α`, group sizes `n^{µ/2}`, colour-group counts `κ`).
    pub mu: f64,
    /// Seed for all hash-derived randomness.
    pub seed: u64,
    /// Capacity enforcement mode.
    pub enforcement: Enforcement,
    /// Execution substrate (thread count). Never affects outputs or
    /// metrics, only wall-clock.
    pub exec: ExecConfig,
}

impl MrConfig {
    /// The paper's parameterization: `scale` plays the role of `n` (the
    /// number of vertices, or of sets/elements as appropriate),
    /// `input_records` the number of distributed records, and `mu` the
    /// memory exponent. Capacity is set with a constant-factor slack above
    /// `η` — the theorems' `O(·)` hides exactly such constants (see
    /// [`CAPACITY_ETA_FACTOR`], [`CAPACITY_SCALE_FACTOR`],
    /// [`CAPACITY_BASE_SLACK`]), and the *measured* peak words are what
    /// the experiments report.
    pub fn auto(scale: usize, input_records: usize, mu: f64, seed: u64) -> Self {
        let nf = scale.max(2) as f64;
        let eta = nf.powf(1.0 + mu).ceil() as usize;
        let machines = input_records.div_ceil(eta).max(1);
        let fanout = (nf.powf(mu).ceil() as usize).max(2);
        let capacity =
            CAPACITY_ETA_FACTOR * eta + CAPACITY_SCALE_FACTOR * scale + CAPACITY_BASE_SLACK;
        MrConfig {
            machines,
            capacity,
            fanout,
            eta,
            mu,
            seed,
            enforcement: Enforcement::Strict,
            exec: ExecConfig::from_env(),
        }
    }

    /// Overrides the machine count.
    pub fn with_machines(mut self, machines: usize) -> Self {
        self.machines = machines.max(1);
        self
    }

    /// Overrides the executor thread count (see [`ExecConfig`]),
    /// keeping the configured runtime.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.exec.threads = threads;
        self
    }

    /// Overrides the cluster runtime (see [`ExecConfig::runtime`]). The
    /// `Backend::Shard` and `Backend::Dist` drivers apply this with
    /// their runtime; outputs and metrics are bit-identical either way.
    pub fn with_runtime(mut self, runtime: RuntimeKind) -> Self {
        self.exec.runtime = runtime;
        self
    }

    /// Overrides the capacity.
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Overrides the distributed worker count (see
    /// [`mrlr_mapreduce::DistParams::workers`]; only consulted under
    /// [`RuntimeKind::Dist`]).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.exec.dist.workers = workers;
        self
    }

    /// Overrides the distributed spawn mode (thread- vs process-backed
    /// workers; only consulted under [`RuntimeKind::Dist`]).
    pub fn with_spawn(mut self, spawn: SpawnKind) -> Self {
        self.exec.dist.spawn = spawn;
        self
    }

    /// Injects a worker kill at a chosen superstep (fault-tolerance
    /// testing; only consulted under [`RuntimeKind::Dist`]). The master
    /// recovers the worker and the run's outputs stay bit-identical.
    pub fn with_worker_kill(mut self, kill: WorkerKill) -> Self {
        self.exec.dist.kill = Some(kill);
        self
    }

    /// Switches to record-only enforcement (measure, don't fail).
    pub fn recording(mut self) -> Self {
        self.enforcement = Enforcement::Record;
        self
    }

    /// The [`ClusterConfig`] for this shape.
    pub fn cluster(&self) -> ClusterConfig {
        ClusterConfig {
            machines: self.machines,
            capacity: self.capacity,
            enforcement: self.enforcement,
            tree_fanout: self.fanout,
            central: 0,
            threads: self.exec.threads,
            runtime: self.exec.runtime,
            seed: self.seed,
            dist: self.exec.dist.into(),
        }
    }

    /// Deterministic machine assignment for record `id`.
    #[inline]
    pub fn place(&self, id: u64) -> usize {
        (mrlr_mapreduce::mix2(self.seed ^ 0x706c_6163, id) % self.machines as u64) as usize
    }
}

/// Count and prefix-sum passes of a distribution (see [`place_rows`]):
/// where every record went, and each machine's arena awaiting the scatter.
pub(crate) struct PlacedRows<T> {
    /// `(machine, row)` of every record, by record id.
    pub at: Vec<(u32, u32)>,
    /// Per machine: the ids of its records in row order (ascending).
    pub ids: Vec<Vec<u32>>,
    /// Per machine: one laid-out, still empty row per record.
    pub arenas: Vec<CsrBuilder<T>>,
}

/// The count pass of a distribution (see [`place_records`]): where every
/// record went.
pub(crate) struct Placement {
    /// `(machine, row)` of every record, by record id.
    pub at: Vec<(u32, u32)>,
    /// Per machine: the ids of its records in row order (ascending).
    pub ids: Vec<Vec<u32>>,
}

/// Refuses a record count that a machine's `u32` row numbers cannot
/// cover — the check every distribution makes (see [`place_records`]),
/// callable before any `O(records)` table is sized.
pub(crate) fn check_rows(records: usize) -> MrResult<()> {
    u32::try_from(records).map_err(|_| CsrOverflow)?;
    Ok(())
}

/// Hashes `records` records onto `machines` machines, numbering each
/// machine's records in arrival (= ascending id) order.
pub(crate) fn place_records(
    machines: usize,
    records: usize,
    machine_of: impl Fn(usize) -> usize,
) -> MrResult<Placement> {
    check_rows(records)?;
    let mut at = Vec::with_capacity(records);
    let mut ids: Vec<Vec<u32>> = vec![Vec::new(); machines];
    for r in 0..records {
        let dst = machine_of(r);
        at.push((dst as u32, ids[dst].len() as u32));
        ids[dst].push(r as u32);
    }
    Ok(Placement { at, ids })
}

/// Hash-partitions `records` records, each owning a list of
/// `row_len(record)` items, onto `machines` flat per-machine arenas
/// ([`Csr`]). The caller then scatters the items in one pass over its
/// instance — `arenas[machine].push(row, item)` in whatever order the
/// instance yields them — so a driver distributes in three passes and
/// O(machines) allocations, however many records there are.
pub(crate) fn place_rows<T: Copy>(
    machines: usize,
    records: usize,
    machine_of: impl Fn(usize) -> usize,
    row_len: impl Fn(usize) -> usize,
    fill: T,
) -> MrResult<PlacedRows<T>> {
    let Placement { at, ids } = place_records(machines, records, machine_of)?;
    let arenas = ids
        .iter()
        .map(|ids| Csr::builder(ids.iter().map(|&r| row_len(r as usize)), fill))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(PlacedRows { at, ids, arenas })
}

/// The vertex partition of the hungry-greedy drivers (`mis`, `clique`):
/// per machine, its vertex ids ascending and one arena whose row `slot`
/// lists vertex `ids[slot]`'s neighbours ascending. The rows are filled by
/// a transposing scatter over the graph's adjacency — walk `u` ascending,
/// push `u` into each neighbour's row — so they come out sorted without a
/// comparison sort or a copy of any list.
pub(crate) fn place_neighbours(
    g: &Graph,
    cfg: &MrConfig,
) -> MrResult<impl Iterator<Item = (Vec<VertexId>, Csr<VertexId>)>> {
    let adj = g.adjacency();
    let mut placed = place_rows(
        cfg.machines,
        g.n(),
        |v| cfg.place(v as u64),
        |v| adj[v].len(),
        0,
    )?;
    for (u, nbrs) in adj.iter().enumerate() {
        for &(w, _) in nbrs {
            let (dst, row) = placed.at[w as usize];
            placed.arenas[dst as usize].push(row as usize, u as VertexId);
        }
    }
    let arenas = placed.arenas.into_iter().map(CsrBuilder::finish);
    Ok(placed.ids.into_iter().zip(arenas))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_shapes_cluster() {
        let cfg = MrConfig::auto(100, 10_000, 0.2, 7);
        // eta = 100^1.2 ≈ 251
        assert!((240..=260).contains(&cfg.eta), "eta {}", cfg.eta);
        assert_eq!(cfg.machines, 10_000usize.div_ceil(cfg.eta));
        assert!(cfg.fanout >= 2);
        assert!(cfg.capacity > SET_COVER_SAMPLE_SLACK * cfg.eta);
        assert!(cfg.cluster().validate().is_ok());
    }

    #[test]
    fn exec_config_threads_reach_the_cluster() {
        let cfg = MrConfig::auto(50, 1000, 0.3, 1).with_threads(4);
        assert_eq!(cfg.exec, ExecConfig::threads(4));
        assert_eq!(cfg.cluster().threads, 4);
        assert_eq!(ExecConfig::SEQ.threads, 1);
    }

    #[test]
    fn exec_config_runtime_reaches_the_cluster() {
        let cfg = MrConfig::auto(50, 1000, 0.3, 9).with_runtime(RuntimeKind::Dist);
        assert_eq!(cfg.exec.runtime, RuntimeKind::Dist);
        assert_eq!(cfg.cluster().runtime, RuntimeKind::Dist);
        // The shard RNG seed travels with the paper seed…
        assert_eq!(cfg.cluster().seed, 9);
        // …and thread overrides keep the chosen runtime.
        assert_eq!(cfg.with_threads(4).exec.runtime, RuntimeKind::Dist);
    }

    #[test]
    fn place_is_deterministic_and_bounded() {
        let cfg = MrConfig::auto(50, 1000, 0.3, 1);
        for id in 0..100 {
            let a = cfg.place(id);
            assert_eq!(a, cfg.place(id));
            assert!(a < cfg.machines);
        }
    }
}
