//! Machine-readable serialization of [`Report`]s: JSON, CSV and text.
//!
//! The JSON tree is deterministic — field order is fixed, floats use the
//! exact `{:?}` representation — so two bit-identical reports serialize to
//! byte-identical documents. Host wall-clock is the one nondeterministic
//! ingredient; [`TimingMode::Masked`] zeroes every wall-clock field
//! (`Report::wall`, the nanosecond fields of each
//! [`SuperstepTiming`]) while keeping the
//! deterministic structure (pass/superstep indices, task counts), which is
//! what the CLI smoke tests pin against golden files across
//! `MRLR_THREADS` settings.

use mrlr_mapreduce::{Metrics, SuperstepTiming};

use super::certificate::{witness_json, CertificateMode};
use super::json::Json;
use crate::api::{Report, Solution};

/// Whether serialized reports carry real host wall-clock or zeroes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimingMode {
    /// Real nanosecond timings (nondeterministic across runs).
    Real,
    /// Wall-clock fields forced to 0: output is a pure function of the
    /// model-level run, bit-identical at every thread count.
    Masked,
}

impl TimingMode {
    fn nanos(self, real: u64) -> u64 {
        match self {
            TimingMode::Real => real,
            TimingMode::Masked => 0,
        }
    }
}

/// The typed solution as a JSON object with a `type` tag.
pub fn solution_json(solution: &Solution) -> Json {
    match solution {
        Solution::Cover(c) => Json::Obj(vec![
            ("type", Json::str("cover")),
            (
                "sets",
                Json::Arr(c.cover.iter().map(|&s| Json::U64(s as u64)).collect()),
            ),
            ("weight", Json::F64(c.weight)),
            ("lower_bound", Json::F64(c.lower_bound)),
            ("iterations", Json::count(c.iterations)),
        ]),
        Solution::Matching(m) => Json::Obj(vec![
            ("type", Json::str("matching")),
            (
                "edges",
                Json::Arr(m.matching.iter().map(|&e| Json::U64(e as u64)).collect()),
            ),
            ("weight", Json::F64(m.weight)),
            ("stack_gain", Json::F64(m.stack_gain)),
            ("iterations", Json::count(m.iterations)),
        ]),
        Solution::Selection(s) => Json::Obj(vec![
            ("type", Json::str("selection")),
            (
                "vertices",
                Json::Arr(s.vertices.iter().map(|&v| Json::U64(v as u64)).collect()),
            ),
            ("phases", Json::count(s.phases)),
            ("iterations", Json::count(s.iterations)),
        ]),
        Solution::Colouring(c) => Json::Obj(vec![
            ("type", Json::str("colouring")),
            (
                "colours",
                Json::Arr(c.colours.iter().map(|&x| Json::U64(x as u64)).collect()),
            ),
            ("num_colours", Json::count(c.num_colours)),
            ("groups", Json::count(c.groups)),
        ]),
    }
}

fn timing_json(t: &SuperstepTiming, timing: TimingMode) -> Json {
    Json::Obj(vec![
        ("superstep", Json::count(t.superstep)),
        ("wall_nanos", Json::U64(timing.nanos(t.wall_nanos))),
        (
            "max_machine_nanos",
            Json::U64(timing.nanos(t.max_machine_nanos)),
        ),
        (
            "sum_machine_nanos",
            Json::U64(timing.nanos(t.sum_machine_nanos)),
        ),
        ("tasks", Json::count(t.tasks)),
    ])
}

/// Cluster [`Metrics`] as JSON, including per-round detail and the
/// executor-pass timings (masked per `timing`).
pub fn metrics_json(m: &Metrics, timing: TimingMode) -> Json {
    Json::Obj(vec![
        ("machines", Json::count(m.machines)),
        ("capacity", Json::count(m.capacity)),
        ("rounds", Json::count(m.rounds)),
        ("supersteps", Json::count(m.supersteps)),
        ("total_message_words", Json::count(m.total_message_words)),
        ("peak_machine_words", Json::count(m.peak_machine_words)),
        ("peak_out_words", Json::count(m.peak_out_words)),
        ("peak_in_words", Json::count(m.peak_in_words)),
        ("peak_central_words", Json::count(m.peak_central_words)),
        (
            "per_round",
            Json::Arr(
                m.per_round
                    .iter()
                    .map(|r| {
                        Json::Obj(vec![
                            ("round", Json::count(r.round)),
                            ("kind", Json::str(r.kind.to_string())),
                            ("max_out", Json::count(r.max_out)),
                            ("max_in", Json::count(r.max_in)),
                            ("total", Json::count(r.total)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "violations",
            Json::Arr(
                m.violations
                    .iter()
                    .map(|v| {
                        Json::Obj(vec![
                            ("round", Json::count(v.round)),
                            ("machine", Json::count(v.machine)),
                            ("kind", Json::str(v.kind.to_string())),
                            ("used", Json::count(v.used)),
                            ("capacity", Json::count(v.capacity)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "superstep_timings",
            Json::Arr(
                m.superstep_timings
                    .iter()
                    .map(|t| timing_json(t, timing))
                    .collect(),
            ),
        ),
        (
            "total_wall_nanos",
            Json::U64(timing.nanos(m.total_wall_nanos())),
        ),
    ])
}

/// The executor-pass timings as CSV (the CLI's `--timings-csv` file): a
/// header row, then one row per pass in execution order with its
/// straggler skew. Host wall-clock is written as measured, never masked.
pub fn timings_csv(timings: &[SuperstepTiming]) -> String {
    use std::fmt::Write as _;
    let mut s =
        String::from("pass,superstep,wall_nanos,max_machine_nanos,sum_machine_nanos,tasks,skew\n");
    for (i, t) in timings.iter().enumerate() {
        let _ = writeln!(
            s,
            "{},{},{},{},{},{},{:.3}",
            i + 1,
            t.superstep,
            t.wall_nanos,
            t.max_machine_nanos,
            t.sum_machine_nanos,
            t.tasks,
            t.skew()
        );
    }
    s
}

/// One solved [`Report`] as a JSON object with a full (re-verifiable)
/// certificate — shorthand for [`report_json_with`] at
/// [`CertificateMode::Full`].
pub fn report_json(report: &Report<Solution>, timing: TimingMode) -> Json {
    report_json_with(report, timing, CertificateMode::Full)
}

/// One solved [`Report`] as a JSON object. With
/// [`CertificateMode::Full`] the certificate embeds its
/// [`Witness`](crate::api::Witness), making the document independently
/// re-verifiable by `mrlr verify` ([`crate::api::witness::audit`]); with
/// [`CertificateMode::Summary`] only the scalar summary is written.
pub fn report_json_with(
    report: &Report<Solution>,
    timing: TimingMode,
    certificates: CertificateMode,
) -> Json {
    let mut cert_fields = vec![
        ("feasible", Json::Bool(report.certificate.feasible)),
        ("objective", Json::F64(report.certificate.objective)),
        (
            "certified_ratio",
            Json::opt_f64(report.certificate.certified_ratio),
        ),
        ("detail", Json::str(&*report.certificate.detail)),
    ];
    if certificates == CertificateMode::Full {
        cert_fields.push(("witness", witness_json(&report.certificate.witness)));
    }
    Json::Obj(vec![
        ("algorithm", Json::str(report.algorithm)),
        ("backend", Json::str(report.backend.to_string())),
        ("solution", solution_json(&report.solution)),
        ("certificate", Json::Obj(cert_fields)),
        (
            "metrics",
            report
                .metrics
                .as_ref()
                .map_or(Json::Null, |m| metrics_json(m, timing)),
        ),
        (
            "wall_nanos",
            Json::U64(timing.nanos(report.wall.as_nanos() as u64)),
        ),
    ])
}

/// Header row of the flat CSV emitted by [`report_csv_row`].
pub const REPORT_CSV_HEADER: &str = "algorithm,backend,feasible,objective,certified_ratio,\
iterations,rounds,supersteps,total_message_words,peak_machine_words,peak_central_words,wall_nanos";

/// One report as a CSV data row matching [`REPORT_CSV_HEADER`].
pub fn report_csv_row(report: &Report<Solution>, timing: TimingMode) -> String {
    let m = report.metrics.as_ref();
    format!(
        "{},{},{},{:?},{},{},{},{},{},{},{},{}",
        report.algorithm,
        report.backend,
        report.certificate.feasible,
        report.certificate.objective,
        report
            .certificate
            .certified_ratio
            .map_or(String::new(), |r| format!("{r:?}")),
        report.solution.iterations(),
        report.rounds(),
        m.map_or(0, |m| m.supersteps),
        m.map_or(0, |m| m.total_message_words),
        report.peak_words(),
        m.map_or(0, |m| m.peak_central_words),
        timing.nanos(report.wall.as_nanos() as u64),
    )
}

/// Human-readable report summary (the CLI's default `text` format).
pub fn report_text(report: &Report<Solution>, timing: TimingMode) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "algorithm: {} ({})", report.algorithm, report.backend);
    let _ = writeln!(out, "feasible:  {}", report.certificate.feasible);
    let _ = writeln!(out, "objective: {:?}", report.certificate.objective);
    match report.certificate.certified_ratio {
        Some(r) => {
            let _ = writeln!(out, "certified ratio: {r:.4}");
        }
        None => {
            let _ = writeln!(out, "certified ratio: none (structural guarantee)");
        }
    }
    let _ = writeln!(out, "detail:    {}", report.certificate.detail);
    if let Some(m) = &report.metrics {
        let _ = writeln!(out, "{m}");
    }
    match timing {
        TimingMode::Real => {
            let _ = writeln!(out, "wall: {:?}", report.wall);
        }
        TimingMode::Masked => {
            let _ = writeln!(out, "wall: masked");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Instance, Registry};
    use crate::mr::MrConfig;
    use mrlr_graph::generators;

    fn sample_report() -> Report<Solution> {
        let g = generators::with_uniform_weights(&generators::densified(25, 0.4, 2), 1.0, 9.0, 2);
        let cfg = MrConfig::auto(25, g.m(), 0.3, 2);
        Registry::with_defaults()
            .solve("matching", &Instance::Graph(g), &cfg)
            .unwrap()
    }

    #[test]
    fn masked_json_is_deterministic_and_wall_free() {
        let r = sample_report();
        let text = report_json(&r, TimingMode::Masked).render();
        assert_eq!(text, report_json(&r, TimingMode::Masked).render());
        assert!(text.contains("\"algorithm\": \"matching\""));
        assert!(text.contains("\"wall_nanos\": 0"));
        assert!(text.contains("\"total_wall_nanos\": 0"));
        assert!(!text.contains("\"wall_nanos\": 1"), "unmasked nanos leaked");
        // Structure is kept: every executor pass still appears.
        let m = r.metrics.as_ref().unwrap();
        assert_eq!(
            text.matches("\"superstep\":").count(),
            m.superstep_timings.len()
        );
    }

    #[test]
    fn real_json_carries_wall_clock() {
        let r = sample_report();
        let text = report_json(&r, TimingMode::Real).render();
        assert!(r.metrics.as_ref().unwrap().total_wall_nanos() > 0);
        assert!(!text.contains("\"total_wall_nanos\": 0"));
    }

    #[test]
    fn timings_csv_has_a_row_per_pass() {
        let mut m = Metrics::new(2, 100);
        m.supersteps = 2;
        m.record_timing(1_000, &[100, 900]);
        m.record_timing(500, &[250, 250]);
        // Pass 1: the slowest machine took 900 ns against a 500 ns mean.
        assert_eq!(
            timings_csv(&m.superstep_timings),
            "pass,superstep,wall_nanos,max_machine_nanos,sum_machine_nanos,tasks,skew\n\
             1,2,1000,900,1000,2,1.800\n2,2,500,250,500,2,1.000\n"
        );
    }

    #[test]
    fn csv_row_matches_header_arity() {
        let r = sample_report();
        let header_cols = REPORT_CSV_HEADER.split(',').count();
        let row = report_csv_row(&r, TimingMode::Masked);
        assert_eq!(row.split(',').count(), header_cols, "{row}");
        assert!(row.ends_with(",0"), "masked wall must be 0: {row}");
        assert!(row.starts_with("matching,mr,true,"));
    }

    #[test]
    fn text_mentions_the_essentials() {
        let r = sample_report();
        let t = report_text(&r, TimingMode::Masked);
        assert!(t.contains("algorithm: matching (mr)"));
        assert!(t.contains("feasible:  true"));
        assert!(t.contains("wall: masked"));
        assert!(report_text(&r, TimingMode::Real).contains("wall: "));
    }
}
