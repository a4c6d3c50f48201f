//! `compare A.json B.json`: two sets of runs, metric by metric.
//!
//! A is the reference (the parent commit, or the first of two sets of the
//! same code), B the candidate. For every (workload, end-to-end metric)
//! it prints both medians and quartiles and the change in the *worse*
//! direction as a share of A's median, judged against the metric's bound
//! from `BENCHMARK.json`; where either set's own spread exceeds the bound
//! the pair is `unresolved`, not `ok`. Model counters (`cluster.*`) and
//! report digests must be exactly equal.

use std::collections::BTreeMap;

use mrlr_core::io::{parse_json, JsonValue};

use crate::spec::Spec;
use crate::stats::{median, quartiles};

struct Run {
    workload: String,
    seed: u64,
    trace: bool,
    failed: u64,
    digest: String,
    metrics: BTreeMap<String, f64>,
}

fn load(path: &str) -> Result<Vec<Run>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let root = parse_json(&text).map_err(|e| format!("{path}: {e}"))?;
    if root.get("quick").and_then(JsonValue::as_bool) != Some(false) {
        return Err(format!(
            "{path}: a --quick set (or not a set document) is not comparable"
        ));
    }
    let field = |run: &JsonValue, key: &str| {
        run.get(key)
            .cloned()
            .ok_or_else(|| format!("{path}: run lacks `{key}`"))
    };
    root.get("runs")
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| format!("{path}: no `runs`"))?
        .iter()
        .map(|run| {
            let metrics = match field(run, "metrics")? {
                JsonValue::Obj(fields) => fields
                    .into_iter()
                    .filter_map(|(name, m)| Some((name, m.get("value")?.as_f64()?)))
                    .collect(),
                _ => BTreeMap::new(),
            };
            Ok(Run {
                workload: field(run, "workload")?
                    .as_str()
                    .unwrap_or_default()
                    .to_string(),
                seed: field(run, "seed")?.as_u64().unwrap_or(0),
                trace: field(run, "trace")?.as_u64() == Some(1),
                failed: field(run, "failed")?.as_u64().unwrap_or(1),
                digest: field(run, "digest")?
                    .as_str()
                    .unwrap_or_default()
                    .to_string(),
                metrics,
            })
        })
        .collect()
}

/// The values of `metric` over the runs of `workload` in one set.
fn values(runs: &[Run], workload: &str, trace: bool, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload && r.trace == trace)
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect()
}

/// Compares two set documents; `Ok(true)` when B agrees with A: nothing
/// failed, nothing regressed past its bound, counters and digests equal.
pub fn run(spec: &Spec, a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut agree = true;
    for (name, runs) in [(a_path, &a), (b_path, &b)] {
        let failed: u64 = runs.iter().map(|r| r.failed).sum();
        if failed > 0 {
            println!("FAILED  {name}: {failed} failed operations");
            agree = false;
        }
    }

    println!(
        "{:<16} {:<16} {:>12} {:>22} {:>12} {:>22} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "A median",
        "A quartiles",
        "B median",
        "B quartiles",
        "worse",
        "bound"
    );
    for workload in &spec.workloads {
        for m in &spec.end_to_end {
            let (va, vb) = (
                values(&a, workload, false, &m.name),
                values(&b, workload, false, &m.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let ((a1, a3), (b1, b3)) = (quartiles(&va), quartiles(&vb));
            let worse = if m.lower_is_better { mb - ma } else { ma - mb } / ma;
            let spread = ((a3 - a1) / ma).max((b3 - b1) / mb);
            let bound = m.bound.unwrap_or(f64::INFINITY);
            let b_always_better = va.iter().all(|&x| {
                vb.iter()
                    .all(|&y| if m.lower_is_better { y < x } else { y > x })
            });
            let verdict = if spread > bound && !b_always_better {
                "unresolved"
            } else if worse > bound {
                agree = false;
                "REGRESSED"
            } else {
                "ok"
            };
            println!(
                "{:<16} {:<16} {:>12.5} {:>10.5}..{:<10.5} {:>12.5} {:>10.5}..{:<10.5} {:>+7.1}% {:>5.0}%  {verdict}",
                workload, m.name, ma, a1, a3, mb, b1, b3, 100.0 * worse, 100.0 * bound
            );
        }
    }

    // Per-layer metrics carry no bound: the change is printed for the
    // reader, and only the model counters are held to equality.
    for workload in &spec.workloads {
        for m in &spec.per_layer {
            let (va, vb) = (
                values(&a, workload, true, &m.name),
                values(&b, workload, true, &m.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            if ma == 0.0 && mb == 0.0 {
                continue;
            }
            println!(
                "{:<16} {:<34} {:>14.6} {:>14.6} {:>+8.1}% {}",
                workload,
                m.name,
                ma,
                mb,
                100.0 * (mb - ma) / ma,
                m.unit
            );
        }
    }

    for ra in &a {
        for rb in b
            .iter()
            .filter(|rb| (&rb.workload, rb.seed, rb.trace) == (&ra.workload, ra.seed, ra.trace))
        {
            let mut differs: Vec<&str> = ra
                .metrics
                .iter()
                .filter(|(name, value)| {
                    name.starts_with("cluster.") && rb.metrics.get(*name) != Some(value)
                })
                .map(|(name, _)| name.as_str())
                .collect();
            if ra.digest != rb.digest {
                differs.push("report digest");
            }
            if !differs.is_empty() {
                agree = false;
                println!(
                    "DIFFERS {} seed {}: {}",
                    ra.workload,
                    ra.seed,
                    differs.join(", ")
                );
            }
        }
    }
    println!(
        "{}",
        if agree {
            "sets agree: no failure, every end-to-end metric within its bound, counters and digests equal"
        } else {
            "sets DISAGREE"
        }
    );
    Ok(agree)
}
