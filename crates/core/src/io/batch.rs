//! Batch documents: one manifest's `instances × jobs` grid, rendered as
//! JSON or CSV.
//!
//! [`run_batch`] is the production path behind `mrlr batch` and the
//! serve daemon's batch handler. It walks the grid instance by instance,
//! asks its caller for each instance just before that instance's jobs,
//! and renders every slot into the document text as soon as the slot is
//! solved. So at most one instance and one [`Report`] are alive at a
//! time: a batch's central memory is bounded by its largest job, not by
//! the manifest — the model gives the central machine the same
//! sublinear budget as every other machine, and a MapReduce reducer
//! appends its output as each key finishes.
//!
//! [`batch_json`] and [`batch_csv`] render a whole [`BatchResults`] grid
//! held in memory. They are the whole-grid oracle `run_batch` is tested
//! against byte for byte, and what the traced benchmark replay renders.

use std::fmt::Write as _;

use super::certificate::CertificateMode;
use super::json::{pad, Json};
use super::manifest::JobSpec;
use super::report::{report_csv_row, report_json_with, TimingMode, REPORT_CSV_HEADER};
use crate::api::{Report, Solution};

/// The result grid of one batch run held whole: per instance, per job, a
/// report or the solver's error text. Only the oracle renderers
/// [`batch_json`] and [`batch_csv`] take it; [`run_batch`] never builds
/// one.
pub type BatchResults = Vec<Vec<Result<Report<Solution>, String>>>;

/// How [`run_batch`] renders its document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchFormat {
    /// [`batch_json`]'s document, with certificates in the given mode.
    Json(CertificateMode),
    /// [`batch_csv`]'s document.
    Csv,
}

/// Runs a batch and returns its rendered document, byte-identical to
/// [`batch_json`] (then [`Json::render`]) or [`batch_csv`] over the same
/// grid.
///
/// For each instance `i` in order, `load(i)` supplies it, `solve(&it,
/// j)` solves job `j` on it (an `Err` is that slot's recorded error),
/// and `done(i)` runs after its last job, once it has been dropped. Each
/// slot is rendered into the text and dropped before the next job
/// starts. An `Err` from `load` or `done` stops the batch and is
/// returned; the partial text is discarded, so a failing batch renders
/// nothing.
pub fn run_batch<P, E>(
    instances: &[String],
    jobs: &[JobSpec],
    format: BatchFormat,
    timing: TimingMode,
    mut load: impl FnMut(usize) -> Result<P, E>,
    mut solve: impl FnMut(&P, usize) -> Result<Report<Solution>, String>,
    mut done: impl FnMut(usize) -> Result<(), E>,
) -> Result<String, E> {
    let mut out = String::new();
    match format {
        BatchFormat::Json(_) => {
            // `batch_json`'s object, written field by field at indent 1.
            out.push_str("{\n");
            pad(&mut out, 1);
            out.push_str("\"instances\": ");
            instances_json(instances).write(&mut out, 1);
            out.push_str(",\n");
            pad(&mut out, 1);
            out.push_str("\"jobs\": ");
            jobs_json(jobs).write(&mut out, 1);
            out.push_str(",\n");
            pad(&mut out, 1);
            out.push_str("\"results\": ");
            out.push_str(if instances.is_empty() { "[]" } else { "[" });
        }
        BatchFormat::Csv => out.push_str(&csv_header()),
    }
    for (i, path) in instances.iter().enumerate() {
        let instance = load(i)?;
        if let BatchFormat::Json(_) = format {
            open_item(&mut out, i, 2);
            out.push_str(if jobs.is_empty() { "[]" } else { "[" });
        }
        for (j, job) in jobs.iter().enumerate() {
            let slot = solve(&instance, j);
            match format {
                BatchFormat::Json(certificates) => {
                    open_item(&mut out, j, 3);
                    slot_json(&slot, timing, certificates).write(&mut out, 3);
                }
                BatchFormat::Csv => push_csv_slot(&mut out, path, job, &slot, timing),
            }
        }
        if matches!(format, BatchFormat::Json(_)) && !jobs.is_empty() {
            close_array(&mut out, 2);
        }
        drop(instance);
        done(i)?;
    }
    if let BatchFormat::Json(_) = format {
        if !instances.is_empty() {
            close_array(&mut out, 1);
        }
        out.push_str("\n}\n");
    }
    Ok(out)
}

/// Opens item `index` of an array whose items sit at `indent`.
fn open_item(out: &mut String, index: usize, indent: usize) {
    if index > 0 {
        out.push(',');
    }
    out.push('\n');
    pad(out, indent);
}

/// Closes a non-empty array that opened at `indent`.
fn close_array(out: &mut String, indent: usize) {
    out.push('\n');
    pad(out, indent);
    out.push(']');
}

fn instances_json(instances: &[String]) -> Json {
    Json::Arr(instances.iter().map(Json::str).collect())
}

fn jobs_json(jobs: &[JobSpec]) -> Json {
    Json::Arr(
        jobs.iter()
            .map(|j| {
                Json::Obj(vec![
                    ("algorithm", Json::str(&*j.algorithm)),
                    ("mu", Json::F64(j.mu)),
                    ("seed", Json::U64(j.seed)),
                    (
                        "threads",
                        j.threads.map_or(Json::Null, |t| Json::U64(t as u64)),
                    ),
                ])
            })
            .collect(),
    )
}

/// One grid slot: its report, or `{"error": ...}`.
fn slot_json(
    slot: &Result<Report<Solution>, String>,
    timing: TimingMode,
    certificates: CertificateMode,
) -> Json {
    match slot {
        Ok(report) => report_json_with(report, timing, certificates),
        Err(e) => Json::Obj(vec![("error", Json::str(&**e))]),
    }
}

fn csv_header() -> String {
    format!("instance,{REPORT_CSV_HEADER},error\n")
}

/// One grid slot as a CSV row: its report's columns, or empty report
/// columns plus the error text.
fn push_csv_slot(
    csv: &mut String,
    path: &str,
    job: &JobSpec,
    slot: &Result<Report<Solution>, String>,
    timing: TimingMode,
) {
    match slot {
        Ok(report) => {
            let _ = writeln!(csv, "{path},{},", report_csv_row(report, timing));
        }
        Err(e) => {
            let empty = REPORT_CSV_HEADER.split(',').count() - 1;
            let _ = writeln!(
                csv,
                "{path},{}{},{}",
                job.algorithm,
                ",".repeat(empty),
                e.replace([',', '\n'], ";")
            );
        }
    }
}

/// Renders a whole batch grid as JSON: the instance paths, the job grid,
/// and one report (or `{"error": ...}`) per `instances × jobs` slot —
/// the document `mrlr verify` re-audits offline. The whole-grid oracle
/// for [`run_batch`].
pub fn batch_json(
    instances: &[String],
    jobs: &[JobSpec],
    results: &BatchResults,
    timing: TimingMode,
    certificates: CertificateMode,
) -> Json {
    let results_json = results
        .iter()
        .map(|row| {
            Json::Arr(
                row.iter()
                    .map(|slot| slot_json(slot, timing, certificates))
                    .collect(),
            )
        })
        .collect();
    Json::Obj(vec![
        ("instances", instances_json(instances)),
        ("jobs", jobs_json(jobs)),
        ("results", Json::Arr(results_json)),
    ])
}

/// Renders a whole batch grid as CSV: one row per `instance × job` slot,
/// error slots carrying empty report columns plus the error text. The
/// whole-grid oracle for [`run_batch`].
pub fn batch_csv(
    instances: &[String],
    jobs: &[JobSpec],
    results: &BatchResults,
    timing: TimingMode,
) -> String {
    let mut csv = csv_header();
    for (path, row) in instances.iter().zip(results) {
        for (job, slot) in jobs.iter().zip(row) {
            push_csv_slot(&mut csv, path, job, slot, timing);
        }
    }
    csv
}
