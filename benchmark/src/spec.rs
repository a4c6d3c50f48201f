//! `BENCHMARK.json`, embedded: the one list of workloads, metric names,
//! units, directions and regression bounds. The harness reports exactly
//! the metrics this file names, in its order, and `compare` judges with
//! its bounds.

use mrlr_core::io::{parse_json, JsonValue};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

pub struct Metric {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the reference median by which the metric may worsen;
    /// `None` for per-layer metrics.
    pub bound: Option<f64>,
}

pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

fn metrics(root: &JsonValue, key: &str) -> Vec<Metric> {
    let text = |m: &JsonValue, field: &str| {
        m.get(field)
            .and_then(JsonValue::as_str)
            .unwrap_or_else(|| panic!("BENCHMARK.json: {key} entry lacks `{field}`"))
            .to_string()
    };
    root.get(key)
        .and_then(JsonValue::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{key}`"))
        .iter()
        .map(|m| Metric {
            name: text(m, "name"),
            unit: text(m, "unit"),
            lower_is_better: text(m, "better") == "lower",
            bound: m.get("bound").and_then(JsonValue::as_f64),
        })
        .collect()
}

impl Spec {
    /// Parses the embedded file; a malformed `BENCHMARK.json` is a bug in
    /// this repository, so it panics with the reason.
    pub fn load() -> Spec {
        let root = parse_json(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        Spec {
            run_seconds: root
                .get("run_seconds")
                .and_then(JsonValue::as_u64)
                .expect("BENCHMARK.json has run_seconds"),
            workloads: root
                .get("workloads")
                .and_then(JsonValue::as_arr)
                .expect("BENCHMARK.json has workloads")
                .iter()
                .filter_map(|w| w.get("name").and_then(JsonValue::as_str))
                .map(str::to_string)
                .collect(),
            end_to_end: metrics(&root, "end_to_end"),
            per_layer: metrics(&root, "per_layer"),
        }
    }

    /// The metric list a run with `trace` reports.
    pub fn metrics(&self, trace: bool) -> &[Metric] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}
