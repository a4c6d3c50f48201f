//! Smoke test: `run.sh --quick` over all six workloads, end to end and
//! traced, must report exactly what `BENCHMARK.json` names — every
//! workload, every metric with its unit — within the contract's limits,
//! with no failed operation; and `compare` must refuse a quick set.

use std::path::{Path, PathBuf};
use std::process::Command;

use mrlr_core::io::{parse_json, JsonValue};

fn run_sh() -> Command {
    let mut cmd = Command::new("bash");
    cmd.arg(Path::new(env!("CARGO_MANIFEST_DIR")).join("run.sh"));
    cmd
}

fn text<'a>(v: &'a JsonValue, key: &str) -> &'a str {
    v.get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("missing `{key}`"))
}

fn array<'a>(v: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    v.get(key)
        .and_then(JsonValue::as_arr)
        .unwrap_or_else(|| panic!("missing `{key}`"))
}

fn well_named(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

/// Runs one quick set and checks it against the metric list `key` of
/// `BENCHMARK.json`.
fn check_quick_set(benchmark: &JsonValue, trace: &str, key: &str) -> PathBuf {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-trace{trace}.json"));
    let status = run_sh()
        .args(["--quick", "--trace", trace, "--out"])
        .arg(&out)
        .status()
        .expect("bash runs");
    assert!(status.success(), "run.sh --quick --trace {trace} failed");

    let set = parse_json(&std::fs::read_to_string(&out).expect("set document written"))
        .expect("set document parses");
    assert_eq!(set.get("quick").and_then(JsonValue::as_bool), Some(true));
    let runs = array(&set, "runs");
    let workloads = array(benchmark, "workloads");
    assert_eq!(runs.len(), workloads.len(), "one run per workload");
    for (run, workload) in runs.iter().zip(workloads) {
        let name = text(workload, "name");
        assert_eq!(text(run, "workload"), name);
        assert_eq!(
            run.get("failed").and_then(JsonValue::as_u64),
            Some(0),
            "{name}: failed operations"
        );
        assert!(run.get("attempted").and_then(JsonValue::as_u64) >= Some(1));
        assert_eq!(text(run, "digest").len(), 64, "{name}: report digest");
        let metrics = run.get("metrics").expect("metrics");
        let JsonValue::Obj(reported) = metrics else {
            panic!("{name}: metrics is not an object")
        };
        let expected = array(benchmark, key);
        assert_eq!(reported.len(), expected.len(), "{name}: metric count");
        for metric in expected {
            let m = metrics
                .get(text(metric, "name"))
                .unwrap_or_else(|| panic!("{name}: no `{}`", text(metric, "name")));
            assert_eq!(text(m, "unit"), text(metric, "unit"));
            let value = m.get("value").and_then(JsonValue::as_f64).expect("value");
            assert!(value.is_finite());
            if key == "end_to_end" {
                assert!(value > 0.0, "{name}: {} is never 0", text(metric, "name"));
            }
        }
    }
    out
}

#[test]
fn quick_sets_report_what_benchmark_json_names() {
    let benchmark = parse_json(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");

    let workloads = array(&benchmark, "workloads");
    assert!((2..=8).contains(&workloads.len()));
    let end_to_end = array(&benchmark, "end_to_end");
    assert!((1..=16).contains(&end_to_end.len()));
    let per_layer = array(&benchmark, "per_layer");
    assert!((1..=128).contains(&per_layer.len()));
    let mut names: Vec<&str> = workloads
        .iter()
        .chain(end_to_end)
        .chain(per_layer)
        .map(|entry| text(entry, "name"))
        .collect();
    assert!(
        names.iter().all(|n| well_named(n)),
        "a name breaks the charset"
    );
    names.sort_unstable();
    names.dedup();
    assert_eq!(
        names.len(),
        workloads.len() + end_to_end.len() + per_layer.len(),
        "a name is used twice"
    );
    assert!(end_to_end.iter().any(|m| text(m, "name") == "setup_s"));

    let quick = check_quick_set(&benchmark, "0", "end_to_end");
    check_quick_set(&benchmark, "1", "per_layer");

    let compared = run_sh()
        .arg("compare")
        .args([&quick, &quick])
        .status()
        .expect("bash runs");
    assert!(!compared.success(), "compare must refuse a --quick set");
}
