//! Per-run metrics: the observables behind every claim in Figure 1.

use std::fmt;

use crate::cluster::MachineId;
use crate::error::CapacityKind;

/// The communication primitive a round belonged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundKind {
    /// Arbitrary point-to-point exchange.
    Exchange,
    /// All machines send to one (usually the central machine).
    Gather,
    /// One hop of a broadcast tree.
    Broadcast,
    /// One hop of an aggregation tree.
    Aggregate,
}

impl fmt::Display for RoundKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RoundKind::Exchange => "exchange",
            RoundKind::Gather => "gather",
            RoundKind::Broadcast => "broadcast",
            RoundKind::Aggregate => "aggregate",
        };
        f.write_str(s)
    }
}

/// Record of one communication round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundRecord {
    /// 1-based round index.
    pub round: usize,
    /// 1-based superstep (primitive invocation) this round belonged to —
    /// the join key between per-round records and the wall-clock
    /// [`SuperstepTiming`]s (a multi-hop broadcast charges several rounds
    /// under one superstep). 0 for synthetic records built before any
    /// superstep ran.
    pub superstep: usize,
    /// Primitive that produced the round.
    pub kind: RoundKind,
    /// Maximum words sent by any machine this round.
    pub max_out: usize,
    /// Maximum words received by any machine this round.
    pub max_in: usize,
    /// Total words moved this round.
    pub total: usize,
}

/// Wall-clock timing of one superstep (one primitive invocation's worth of
/// machine-local work), recorded by the cluster around each executor pass.
///
/// Timing is an *observation of the host machine*, not of the simulated
/// model — it varies run to run and across thread counts, so it is
/// **excluded from [`Metrics`] equality** (the determinism suites compare
/// threaded and sequential runs with `==`). What it buys: the trace can show real
/// straggler skew (`max_machine_nanos` vs the per-machine mean) under the
/// threaded executor, and the experiments can report wall-clock speedup
/// vs thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuperstepTiming {
    /// 1-based superstep index this pass belonged to (an `exchange`
    /// records two passes — produce and consume — under one superstep).
    pub superstep: usize,
    /// Wall-clock nanoseconds for the whole executor pass.
    pub wall_nanos: u64,
    /// Nanoseconds spent by the slowest machine's task — the straggler.
    pub max_machine_nanos: u64,
    /// Total nanoseconds summed over all machine tasks.
    pub sum_machine_nanos: u64,
    /// Number of machine tasks in the pass.
    pub tasks: usize,
}

impl SuperstepTiming {
    /// Straggler skew: slowest machine over mean machine time (1.0 =
    /// perfectly balanced). 0.0 when the pass had no tasks or no
    /// measurable work.
    pub fn skew(&self) -> f64 {
        if self.tasks == 0 || self.sum_machine_nanos == 0 {
            0.0
        } else {
            self.max_machine_nanos as f64 / (self.sum_machine_nanos as f64 / self.tasks as f64)
        }
    }
}

/// Per-worker shuffle traffic of a [`crate::dist`] run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerShuffle {
    /// Worker index.
    pub worker: usize,
    /// Transport bytes the master sent this worker (batch + flush frames).
    pub bytes_out: u64,
    /// Transport bytes received back from this worker (inbox frames).
    pub bytes_in: u64,
    /// Number of batch frames sent.
    pub batches: u64,
}

/// One fault recovery performed by the dist master: a worker died and its
/// shard block was re-established from the deterministic `(cluster seed,
/// shard id)` streams plus replayed shuffle traffic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryEvent {
    /// The worker that died and was respawned.
    pub worker: usize,
    /// The superstep at which the death was detected.
    pub superstep: usize,
    /// Host wall-clock nanoseconds the recovery took (nondeterministic).
    pub wall_nanos: u64,
    /// Retained batch bytes replayed to the respawned worker (0 when the
    /// death was detected at a barrier, outside an exchange).
    pub replayed_bytes: u64,
}

/// Transport-level summary of a [`crate::dist`] run. Like
/// [`Metrics::superstep_timings`] this is an observation of the *host*
/// (byte counts depend on worker count; recovery times on the scheduler),
/// so it is excluded from [`Metrics`] equality — a dist run's `Metrics`
/// stay bit-identical to the in-process runtimes'.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DistSummary {
    /// Number of workers the session ran with.
    pub workers: usize,
    /// Per-worker shuffle traffic, indexed by worker.
    pub shuffle: Vec<WorkerShuffle>,
    /// Every fault recovery the master performed, in detection order.
    pub recoveries: Vec<RecoveryEvent>,
    /// Host wall-clock nanoseconds spent inside distributed exchanges.
    pub shuffle_nanos: u64,
}

/// A recorded (non-fatal, in `Record` mode) capacity violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Round of the violation.
    pub round: usize,
    /// Offending machine.
    pub machine: MachineId,
    /// Budget violated.
    pub kind: CapacityKind,
    /// Words used.
    pub used: usize,
    /// Words allowed.
    pub capacity: usize,
}

/// Aggregated metrics for one cluster run.
///
/// Equality compares every *model-level* observable (rounds, words,
/// peaks, per-round detail, violations) and deliberately ignores
/// [`Metrics::superstep_timings`] — host wall-clock is nondeterministic,
/// and the executor-determinism suites assert `Metrics` equality between
/// sequential and threaded runs.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// Number of machines in the cluster.
    pub machines: usize,
    /// Word capacity per machine.
    pub capacity: usize,
    /// Total communication rounds (tree hops count individually).
    pub rounds: usize,
    /// Number of primitive invocations (an `O(1)`-round unit of the driver).
    pub supersteps: usize,
    /// Total words moved across the network over the whole run.
    pub total_message_words: usize,
    /// Peak resident words on any machine at any check point.
    pub peak_machine_words: usize,
    /// Peak words sent by a machine in one round.
    pub peak_out_words: usize,
    /// Peak words received by a machine in one round.
    pub peak_in_words: usize,
    /// Peak resident + gathered words on the central machine.
    pub peak_central_words: usize,
    /// Per-round detail.
    pub per_round: Vec<RoundRecord>,
    /// Violations observed (only populated in `Record` enforcement mode).
    pub violations: Vec<Violation>,
    /// Host wall-clock timings, one per executor pass (excluded from
    /// `PartialEq`; see the type-level docs).
    pub superstep_timings: Vec<SuperstepTiming>,
    /// Transport summary of a distributed run; `None` for the in-process
    /// runtimes (excluded from `PartialEq`; see [`DistSummary`]).
    pub dist: Option<DistSummary>,
}

impl PartialEq for Metrics {
    fn eq(&self, other: &Self) -> bool {
        // Exhaustive destructuring (no `..`): adding a field to `Metrics`
        // must fail to compile here, forcing an explicit decision about
        // whether it joins the bit-identical determinism contract.
        let Metrics {
            machines,
            capacity,
            rounds,
            supersteps,
            total_message_words,
            peak_machine_words,
            peak_out_words,
            peak_in_words,
            peak_central_words,
            per_round,
            violations,
            superstep_timings: _, // host wall-clock: excluded from equality
            dist: _,              // host transport detail: excluded too
        } = self;
        *machines == other.machines
            && *capacity == other.capacity
            && *rounds == other.rounds
            && *supersteps == other.supersteps
            && *total_message_words == other.total_message_words
            && *peak_machine_words == other.peak_machine_words
            && *peak_out_words == other.peak_out_words
            && *peak_in_words == other.peak_in_words
            && *peak_central_words == other.peak_central_words
            && *per_round == other.per_round
            && *violations == other.violations
    }
}

impl Metrics {
    /// Creates empty metrics for a cluster of `machines` machines with the
    /// given per-machine `capacity`.
    pub fn new(machines: usize, capacity: usize) -> Self {
        Metrics {
            machines,
            capacity,
            ..Metrics::default()
        }
    }

    /// Records one communication round. Called by the cluster primitives;
    /// public so tests and benches can construct synthetic run records.
    pub fn record_round(&mut self, kind: RoundKind, max_out: usize, max_in: usize, total: usize) {
        self.rounds += 1;
        self.total_message_words += total;
        self.peak_out_words = self.peak_out_words.max(max_out);
        self.peak_in_words = self.peak_in_words.max(max_in);
        self.per_round.push(RoundRecord {
            round: self.rounds,
            superstep: self.supersteps,
            kind,
            max_out,
            max_in,
            total,
        });
    }

    /// Records the wall-clock timing of one executor pass over machine
    /// tasks, attributed to the current superstep. `machine_nanos` holds
    /// one entry per machine task; empty passes record zeroes.
    pub fn record_timing(&mut self, wall_nanos: u64, machine_nanos: &[u64]) {
        self.superstep_timings.push(SuperstepTiming {
            superstep: self.supersteps,
            wall_nanos,
            max_machine_nanos: machine_nanos.iter().copied().max().unwrap_or(0),
            sum_machine_nanos: machine_nanos.iter().sum(),
            tasks: machine_nanos.len(),
        });
    }

    /// Total host wall-clock nanoseconds across all executor passes (the
    /// simulated run's compute time, excluding driver-side work).
    pub fn total_wall_nanos(&self) -> u64 {
        self.superstep_timings.iter().map(|t| t.wall_nanos).sum()
    }

    /// The worst straggler skew observed in any pass (see
    /// [`SuperstepTiming::skew`]); 0.0 when nothing was timed.
    pub fn max_straggler_skew(&self) -> f64 {
        self.superstep_timings
            .iter()
            .map(SuperstepTiming::skew)
            .fold(0.0, f64::max)
    }

    /// Host-event lines for operators, one per dist [`RecoveryEvent`], in
    /// detection order; empty for a clean or in-process run. The CLI and
    /// the daemon print each as a `note:` line.
    pub fn notes(&self) -> Vec<String> {
        self.dist
            .iter()
            .flat_map(|d| &d.recoveries)
            .map(|r| {
                format!(
                    "recovery: worker {} respawned at superstep {} (replayed {} bytes, {} ns)",
                    r.worker, r.superstep, r.replayed_bytes, r.wall_nanos
                )
            })
            .collect()
    }

    /// Peak space on any machine as a multiple of capacity (1.0 = at budget).
    pub fn space_utilization(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            self.peak_machine_words.max(self.peak_central_words) as f64 / self.capacity as f64
        }
    }

    /// Number of rounds of each kind, in `(exchange, gather, broadcast,
    /// aggregate)` order. Useful for checking tree-depth accounting.
    pub fn rounds_by_kind(&self) -> (usize, usize, usize, usize) {
        let mut counts = (0, 0, 0, 0);
        for r in &self.per_round {
            match r.kind {
                RoundKind::Exchange => counts.0 += 1,
                RoundKind::Gather => counts.1 += 1,
                RoundKind::Broadcast => counts.2 += 1,
                RoundKind::Aggregate => counts.3 += 1,
            }
        }
        counts
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "cluster: {} machines x {} words; rounds: {} ({} supersteps)",
            self.machines, self.capacity, self.rounds, self.supersteps
        )?;
        writeln!(
            f,
            "peak words: machine {}, central {}, out {}, in {}",
            self.peak_machine_words,
            self.peak_central_words,
            self.peak_out_words,
            self.peak_in_words
        )?;
        write!(
            f,
            "total communication: {} words; space utilization {:.3}",
            self.total_message_words,
            self.space_utilization()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_accumulates() {
        let mut m = Metrics::new(4, 100);
        m.record_round(RoundKind::Exchange, 10, 20, 30);
        m.record_round(RoundKind::Broadcast, 5, 25, 40);
        assert_eq!(m.rounds, 2);
        assert_eq!(m.total_message_words, 70);
        assert_eq!(m.peak_out_words, 10);
        assert_eq!(m.peak_in_words, 25);
        assert_eq!(m.per_round.len(), 2);
        assert_eq!(m.rounds_by_kind(), (1, 0, 1, 0));
    }

    #[test]
    fn utilization() {
        let mut m = Metrics::new(2, 100);
        m.peak_machine_words = 50;
        assert!((m.space_utilization() - 0.5).abs() < 1e-12);
        m.peak_central_words = 150;
        assert!((m.space_utilization() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn timings_record_and_are_ignored_by_equality() {
        let mut a = Metrics::new(4, 100);
        a.record_round(RoundKind::Exchange, 1, 2, 3);
        let mut b = a.clone();
        a.record_timing(1_000, &[400, 100, 100, 100]);
        b.record_timing(9_999, &[1, 1, 1, 1]);
        assert_eq!(a, b, "wall-clock must not affect metrics equality");
        assert_eq!(a.total_wall_nanos(), 1_000);
        let t = a.superstep_timings[0];
        assert_eq!(t.max_machine_nanos, 400);
        assert_eq!(t.sum_machine_nanos, 700);
        assert_eq!(t.tasks, 4);
        // Slowest machine took 400ns against a 175ns mean.
        assert!((t.skew() - 400.0 / 175.0).abs() < 1e-12);
        assert!((a.max_straggler_skew() - t.skew()).abs() < 1e-12);
        // Model-level differences still break equality.
        b.record_round(RoundKind::Gather, 1, 1, 1);
        assert_ne!(a, b);
    }

    #[test]
    fn record_round_attributes_the_current_superstep() {
        let mut m = Metrics::new(4, 100);
        m.supersteps = 1;
        m.record_round(RoundKind::Exchange, 1, 1, 1);
        m.record_timing(1_000, &[400, 100, 100, 100]);
        assert_eq!(m.per_round[0].superstep, 1);
        assert_eq!(m.superstep_timings[0].superstep, 1);
    }

    #[test]
    fn notes_pin_the_recovery_line() {
        let clean = Metrics::new(4, 100);
        assert!(clean.notes().is_empty());
        let mut healed = clean.clone();
        healed.dist = Some(DistSummary {
            recoveries: vec![RecoveryEvent {
                worker: 1,
                superstep: 3,
                wall_nanos: 1234,
                replayed_bytes: 456,
            }],
            ..DistSummary::default()
        });
        // `scripts/fault_smoke.sh` parses this line: the text is a contract.
        assert_eq!(
            healed.notes(),
            ["recovery: worker 1 respawned at superstep 3 (replayed 456 bytes, 1234 ns)"]
        );
    }

    #[test]
    fn dist_summary_is_ignored_by_equality() {
        let a = Metrics::new(4, 100);
        let mut b = a.clone();
        b.dist = Some(DistSummary {
            workers: 2,
            shuffle: vec![WorkerShuffle::default()],
            recoveries: vec![RecoveryEvent {
                worker: 0,
                superstep: 1,
                wall_nanos: 123,
                replayed_bytes: 456,
            }],
            shuffle_nanos: 789,
        });
        assert_eq!(a, b, "transport detail must not affect metrics equality");
    }

    #[test]
    fn empty_timing_is_zero() {
        let mut m = Metrics::new(1, 10);
        m.record_timing(5, &[]);
        assert_eq!(m.superstep_timings[0].max_machine_nanos, 0);
        assert_eq!(m.superstep_timings[0].skew(), 0.0);
        assert_eq!(m.max_straggler_skew(), 0.0);
    }

    #[test]
    fn display_mentions_rounds() {
        let m = Metrics::new(2, 10);
        let s = m.to_string();
        assert!(s.contains("rounds"));
    }
}
