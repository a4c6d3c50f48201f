//! Round-by-round execution traces derived from [`Metrics`].
//!
//! The experiments binary and the benches render what a run *did*: one row
//! per communication round with volumes and cumulative totals, exportable as
//! CSV (for the plots behind EXPERIMENTS.md) or as an ASCII bar chart (for
//! terminal inspection). A [`Timeline`] is a pure function of the metrics —
//! it never affects the simulation.
//!
//! Alongside the model-level rounds, a timeline carries the host-level
//! [`SuperstepTiming`]s the cluster records around every executor pass:
//! per-pass wall-clock, the slowest machine's time, and the straggler
//! skew (max/mean). Under the threaded executor these show where real
//! time goes and which supersteps are skew-bound; they are rendered by
//! [`Timeline::timing_csv`] and [`Timeline::render_timing_ascii`] and —
//! like the metrics they come from — excluded from timeline equality.
//!
//! ```
//! use mrlr_mapreduce::metrics::{Metrics, RoundKind};
//! use mrlr_mapreduce::trace::Timeline;
//!
//! let mut m = Metrics::new(4, 1000);
//! m.record_round(RoundKind::Exchange, 10, 20, 100);
//! m.record_round(RoundKind::Gather, 5, 50, 50);
//! let t = Timeline::from_metrics(&m);
//! assert_eq!(t.len(), 2);
//! assert_eq!(t.total_words(), 150);
//! assert!(t.to_csv().starts_with("round,kind"));
//! ```

use std::fmt;

use crate::metrics::{Metrics, RoundKind, SuperstepTiming};

/// One row of a [`Timeline`]: a communication round plus running totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineRow {
    /// 1-based round index.
    pub round: usize,
    /// Primitive that produced the round.
    pub kind: RoundKind,
    /// Maximum words sent by any machine this round.
    pub max_out: usize,
    /// Maximum words received by any machine this round.
    pub max_in: usize,
    /// Total words moved this round.
    pub total: usize,
    /// Words moved in rounds `1..=round`.
    pub cumulative: usize,
}

/// Volume totals for one [`RoundKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KindSummary {
    /// The primitive.
    pub kind: RoundKind,
    /// Number of rounds of this kind.
    pub rounds: usize,
    /// Total words moved by rounds of this kind.
    pub words: usize,
}

/// A per-round view of one cluster run.
///
/// Equality compares the model-level rows only; the wall-clock
/// [`SuperstepTiming`]s are host observations and vary run to run.
#[derive(Debug, Clone)]
pub struct Timeline {
    rows: Vec<TimelineRow>,
    timings: Vec<SuperstepTiming>,
    annotations: Vec<String>,
}

impl PartialEq for Timeline {
    fn eq(&self, other: &Self) -> bool {
        // Exhaustive destructuring: a new field must be explicitly
        // classified as model-level (compared) or host-level (ignored).
        // Annotations describe host events (recoveries) —
        // never model observables — so they are ignored.
        let Timeline {
            rows,
            timings: _,
            annotations: _,
        } = self;
        *rows == other.rows
    }
}

impl Eq for Timeline {}

impl Timeline {
    /// Builds the timeline for `metrics`.
    pub fn from_metrics(metrics: &Metrics) -> Self {
        let mut cumulative = 0usize;
        let rows = metrics
            .per_round
            .iter()
            .map(|r| {
                cumulative += r.total;
                TimelineRow {
                    round: r.round,
                    kind: r.kind,
                    max_out: r.max_out,
                    max_in: r.max_in,
                    total: r.total,
                    cumulative,
                }
            })
            .collect();
        let mut annotations = Vec::new();
        if let Some(dist) = &metrics.dist {
            for r in &dist.recoveries {
                annotations.push(format!(
                    "recovery: worker {} respawned at superstep {} (replayed {} bytes, {} ns)",
                    r.worker, r.superstep, r.replayed_bytes, r.wall_nanos
                ));
            }
        }
        Timeline {
            rows,
            timings: metrics.superstep_timings.clone(),
            annotations,
        }
    }

    /// Host-event annotations: distributed-runtime recoveries (one line
    /// per [`crate::metrics::RecoveryEvent`]), added by
    /// [`Timeline::from_metrics`]. Excluded from equality, like the
    /// timings.
    pub fn annotations(&self) -> &[String] {
        &self.annotations
    }

    /// All rows, in round order.
    pub fn rows(&self) -> &[TimelineRow] {
        &self.rows
    }

    /// Number of rounds.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rounds were recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Total words moved over the whole run.
    pub fn total_words(&self) -> usize {
        self.rows.last().map_or(0, |r| r.cumulative)
    }

    /// The round that moved the most words, if any.
    pub fn busiest_round(&self) -> Option<&TimelineRow> {
        self.rows.iter().max_by_key(|r| r.total)
    }

    /// Round and word totals per primitive kind, in
    /// exchange/gather/broadcast/aggregate order (kinds with zero rounds are
    /// included, so the output shape is stable).
    pub fn summary_by_kind(&self) -> Vec<KindSummary> {
        let kinds = [
            RoundKind::Exchange,
            RoundKind::Gather,
            RoundKind::Broadcast,
            RoundKind::Aggregate,
        ];
        kinds
            .into_iter()
            .map(|kind| {
                let mut rounds = 0;
                let mut words = 0;
                for r in &self.rows {
                    if r.kind == kind {
                        rounds += 1;
                        words += r.total;
                    }
                }
                KindSummary {
                    kind,
                    rounds,
                    words,
                }
            })
            .collect()
    }

    /// Histogram of per-round volumes over `buckets` equal-width buckets
    /// spanning `0..=max_total`. Returns `(lo, hi, count)` triples with
    /// inclusive bounds. Empty when there are no rounds or `buckets == 0`.
    pub fn volume_histogram(&self, buckets: usize) -> Vec<(usize, usize, usize)> {
        if self.rows.is_empty() || buckets == 0 {
            return Vec::new();
        }
        let max = self.rows.iter().map(|r| r.total).max().unwrap_or(0);
        let width = (max / buckets).max(1) + 1;
        let mut out: Vec<(usize, usize, usize)> = (0..buckets)
            .map(|b| (b * width, (b + 1) * width - 1, 0))
            .collect();
        for r in &self.rows {
            let b = (r.total / width).min(buckets - 1);
            out[b].2 += 1;
        }
        out
    }

    /// Serializes the timeline as CSV with a header row. Stable column
    /// order: `round,kind,max_out,max_in,total,cumulative`.
    pub fn to_csv(&self) -> String {
        let mut s = String::from("round,kind,max_out,max_in,total,cumulative\n");
        for r in &self.rows {
            s.push_str(&format!(
                "{},{},{},{},{},{}\n",
                r.round, r.kind, r.max_out, r.max_in, r.total, r.cumulative
            ));
        }
        s
    }

    /// The wall-clock timings of every executor pass, in execution order.
    pub fn timings(&self) -> &[SuperstepTiming] {
        &self.timings
    }

    /// Total host wall-clock nanoseconds across all executor passes.
    pub fn total_wall_nanos(&self) -> u64 {
        self.timings.iter().map(|t| t.wall_nanos).sum()
    }

    /// Worst straggler skew (slowest machine over mean machine time) of
    /// any pass; 0.0 when nothing was timed.
    pub fn max_straggler_skew(&self) -> f64 {
        self.timings
            .iter()
            .map(SuperstepTiming::skew)
            .fold(0.0, f64::max)
    }

    /// Serializes the executor-pass timings as CSV with a header row.
    /// Stable column order:
    /// `pass,superstep,wall_nanos,max_machine_nanos,sum_machine_nanos,tasks,skew`.
    pub fn timing_csv(&self) -> String {
        let mut s = String::from(
            "pass,superstep,wall_nanos,max_machine_nanos,sum_machine_nanos,tasks,skew\n",
        );
        for (i, t) in self.timings.iter().enumerate() {
            s.push_str(&format!(
                "{},{},{},{},{},{},{:.3}\n",
                i + 1,
                t.superstep,
                t.wall_nanos,
                t.max_machine_nanos,
                t.sum_machine_nanos,
                t.tasks,
                t.skew()
            ));
        }
        s
    }

    /// Renders an ASCII bar chart of per-pass wall-clock, one line per
    /// executor pass, bars scaled to `width` characters and annotated
    /// with the straggler skew — the terminal view of where real time
    /// goes under the threaded executor.
    pub fn render_timing_ascii(&self, width: usize) -> String {
        let width = width.max(1);
        let max = self
            .timings
            .iter()
            .map(|t| t.wall_nanos)
            .max()
            .unwrap_or(0)
            .max(1);
        let mut out = String::new();
        for (i, t) in self.timings.iter().enumerate() {
            let bar_len = ((t.wall_nanos as usize) * width).div_ceil(max as usize);
            let bar: String = std::iter::repeat_n('#', bar_len).collect();
            out.push_str(&format!(
                "{:>4} s{:<4} {:>10}ns skew {:>5.2} |{}\n",
                i + 1,
                t.superstep,
                t.wall_nanos,
                t.skew(),
                bar
            ));
        }
        out
    }

    /// Renders an ASCII bar chart of per-round volumes, one line per round,
    /// bars scaled to `width` characters. Intended for terminal output from
    /// the experiments binary.
    pub fn render_ascii(&self, width: usize) -> String {
        let width = width.max(1);
        let max = self.rows.iter().map(|r| r.total).max().unwrap_or(0).max(1);
        let mut out = String::new();
        for r in &self.rows {
            let bar_len = (r.total * width).div_ceil(max);
            let bar: String = std::iter::repeat_n('#', bar_len).collect();
            out.push_str(&format!(
                "{:>4} {:<9} {:>10}w |{}\n",
                r.round,
                r.kind.to_string(),
                r.total,
                bar
            ));
        }
        out
    }
}

impl fmt::Display for Timeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} rounds, {} words total",
            self.len(),
            self.total_words()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;

    fn sample_metrics() -> Metrics {
        let mut m = Metrics::new(4, 1000);
        m.record_round(RoundKind::Exchange, 10, 20, 100);
        m.record_round(RoundKind::Gather, 5, 50, 50);
        m.record_round(RoundKind::Broadcast, 40, 10, 40);
        m.record_round(RoundKind::Broadcast, 40, 10, 40);
        m
    }

    #[test]
    fn rows_track_cumulative_volume() {
        let t = Timeline::from_metrics(&sample_metrics());
        assert_eq!(t.len(), 4);
        assert_eq!(t.rows()[0].cumulative, 100);
        assert_eq!(t.rows()[1].cumulative, 150);
        assert_eq!(t.rows()[3].cumulative, 230);
        assert_eq!(t.total_words(), 230);
        assert!(!t.is_empty());
    }

    #[test]
    fn busiest_round_found() {
        let t = Timeline::from_metrics(&sample_metrics());
        let b = t.busiest_round().unwrap();
        assert_eq!(b.round, 1);
        assert_eq!(b.total, 100);
    }

    #[test]
    fn empty_metrics_empty_timeline() {
        let t = Timeline::from_metrics(&Metrics::new(2, 10));
        assert!(t.is_empty());
        assert_eq!(t.total_words(), 0);
        assert!(t.busiest_round().is_none());
        assert_eq!(t.to_csv().lines().count(), 1); // header only
    }

    #[test]
    fn summary_by_kind_is_stable_shape() {
        let t = Timeline::from_metrics(&sample_metrics());
        let s = t.summary_by_kind();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].kind, RoundKind::Exchange);
        assert_eq!(s[0].rounds, 1);
        assert_eq!(s[0].words, 100);
        assert_eq!(s[2].kind, RoundKind::Broadcast);
        assert_eq!(s[2].rounds, 2);
        assert_eq!(s[2].words, 80);
        assert_eq!(s[3].rounds, 0);
        assert_eq!(s[3].words, 0);
    }

    #[test]
    fn csv_round_trips_columns() {
        let t = Timeline::from_metrics(&sample_metrics());
        let csv = t.to_csv();
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "round,kind,max_out,max_in,total,cumulative"
        );
        let first: Vec<&str> = lines.next().unwrap().split(',').collect();
        assert_eq!(first, vec!["1", "exchange", "10", "20", "100", "100"]);
        assert_eq!(csv.lines().count(), 5);
    }

    #[test]
    fn histogram_covers_all_rounds() {
        let t = Timeline::from_metrics(&sample_metrics());
        let h = t.volume_histogram(4);
        assert_eq!(h.len(), 4);
        let total: usize = h.iter().map(|&(_, _, c)| c).sum();
        assert_eq!(total, 4);
        // Bounds are contiguous.
        for w in h.windows(2) {
            assert_eq!(w[0].1 + 1, w[1].0);
        }
        assert!(t.volume_histogram(0).is_empty());
    }

    #[test]
    fn ascii_render_scales_bars() {
        let t = Timeline::from_metrics(&sample_metrics());
        let art = t.render_ascii(20);
        assert_eq!(art.lines().count(), 4);
        let first = art.lines().next().unwrap();
        // The busiest round gets the full-width bar.
        assert!(first.contains(&"#".repeat(20)), "got: {first}");
    }

    #[test]
    fn timings_flow_into_the_timeline() {
        let mut m = sample_metrics();
        m.supersteps = 2;
        m.record_timing(1_000, &[100, 900]);
        m.record_timing(500, &[250, 250]);
        let t = Timeline::from_metrics(&m);
        assert_eq!(t.timings().len(), 2);
        assert_eq!(t.total_wall_nanos(), 1_500);
        // Pass 1: max 900 vs mean 500.
        assert!((t.max_straggler_skew() - 1.8).abs() < 1e-12);
        let csv = t.timing_csv();
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "pass,superstep,wall_nanos,max_machine_nanos,sum_machine_nanos,tasks,skew"
        );
        let first: Vec<&str> = lines.next().unwrap().split(',').collect();
        assert_eq!(first, vec!["1", "2", "1000", "900", "1000", "2", "1.800"]);
        let art = t.render_timing_ascii(10);
        assert_eq!(art.lines().count(), 2);
        assert!(art.lines().next().unwrap().contains(&"#".repeat(10)));
    }

    #[test]
    fn timeline_equality_ignores_wall_clock() {
        let m = sample_metrics();
        let mut fast = m.clone();
        let mut slow = m;
        fast.record_timing(10, &[5, 5]);
        slow.record_timing(99_999, &[99_999]);
        assert_eq!(Timeline::from_metrics(&fast), Timeline::from_metrics(&slow));
        assert_eq!(
            Timeline::from_metrics(&fast).timing_csv().lines().count(),
            2
        );
    }

    #[test]
    fn recoveries_surface_as_annotations_but_not_equality() {
        use crate::metrics::{DistSummary, RecoveryEvent};
        let clean = sample_metrics();
        let mut healed = clean.clone();
        healed.dist = Some(DistSummary {
            workers: 2,
            recoveries: vec![RecoveryEvent {
                worker: 1,
                superstep: 3,
                wall_nanos: 1234,
                replayed_bytes: 456,
            }],
            ..DistSummary::default()
        });
        let t_clean = Timeline::from_metrics(&clean);
        let t_healed = Timeline::from_metrics(&healed);
        assert!(t_clean.annotations().is_empty());
        assert_eq!(t_healed.annotations().len(), 1);
        assert!(
            t_healed.annotations()[0].contains("worker 1 respawned at superstep 3"),
            "got: {}",
            t_healed.annotations()[0]
        );
        assert!(t_healed.annotations()[0].contains("replayed 456 bytes"));
        // Recovery is a host event: the timelines still compare equal.
        assert_eq!(t_clean, t_healed);
    }

    #[test]
    fn display_mentions_totals() {
        let t = Timeline::from_metrics(&sample_metrics());
        let s = t.to_string();
        assert!(s.contains("4 rounds"));
        assert!(s.contains("230"));
    }
}
