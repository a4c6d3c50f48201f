//! Out-of-core scaling bench: maintains the committed `BENCH_scale.json`
//! artifact.
//!
//! For every rung of a sweep-spec size ladder (default
//! `scripts/scale_ladder.spec`: `densified` with `m = n^{1.4}` edges,
//! topping out at ~10^7), the instance is rendered to a temp file once
//! and then solved in a *subprocess* leg, so the leg's peak RSS (`VmHWM`
//! from `/proc/self/status`) is its own. The leg takes the path `mrlr
//! solve` takes: `read_instance` through the parser's fixed window, then
//! a registry solve. Rows record wall clock, peak RSS, distributed
//! edges/sec and the report sizes with a full vs committed (Merkle)
//! witness.
//!
//! Usage:
//!   `bench_scale [--quick] [--spec PATH] [out.json]`  measure and rewrite
//!   `bench_scale --check [out.json]`   CI mode: round-trip a committed
//!       witness through the audit on a small instance, then validate the
//!       committed artifact's schema and rung ladder without touching it.
//!   `bench_scale --leg --file PATH`  internal subprocess entry; prints
//!       one JSON object.

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::time::Instant;

use mrlr_bench::sweep::SweepSpec;
use mrlr_core::api::{self, Registry, Solution};
use mrlr_core::io::{self, parse_json, CertificateMode, JsonValue, TimingMode};

const MU: f64 = 0.25;
const SEED: u64 = 42;
const COMMIT_CHUNK_LEN: usize = 4096;

const DEFAULT_SPEC_PATH: &str = "scripts/scale_ladder.spec";
const DEFAULT_OUT: &str = "BENCH_scale.json";

/// Peak resident set size of this process in KiB (`VmHWM`), when the
/// platform exposes it.
fn peak_rss_kb() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        line.split_whitespace().nth(1)?.parse().ok()
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Renders the report twice — full witness and committed witness — and
/// returns `(full_bytes, committed_bytes, transcript_bytes)`.
fn report_sizes(report: &api::Report<Solution>) -> (usize, usize, usize) {
    let full = io::report_json_with(report, TimingMode::Masked, CertificateMode::Full).render();
    let commitment = api::commit_witness(&report.certificate.witness, COMMIT_CHUNK_LEN)
        .expect("matching reports carry a committable stack witness");
    let mut committed_report = report.clone();
    committed_report.certificate.witness = commitment.witness;
    let committed =
        io::report_json_with(&committed_report, TimingMode::Masked, CertificateMode::Full).render();
    (full.len(), committed.len(), commitment.transcript.len())
}

/// One subprocess leg: load + solve, then print a JSON object with the
/// leg's wall clock, peak RSS and report sizes.
fn run_leg(file: &str) {
    let started = Instant::now();
    let reader = std::fs::File::open(file).expect("open instance file");
    let instance = io::read_instance(reader, io::DEFAULT_BUF_LEN).expect("parse instance");
    let cfg = instance.auto_config(MU, SEED);
    let report = Registry::with_defaults()
        .solve("matching", &instance, &cfg)
        .expect("matching solve");
    let wall_nanos = started.elapsed().as_nanos() as u64;
    assert!(report.certificate.feasible, "infeasible matching report");
    let (full_bytes, committed_bytes, transcript_bytes) = report_sizes(&report);
    println!(
        "{{\"objective\": {:?}, \"feasible\": {}, \"rounds\": {}, \
         \"wall_nanos\": {wall_nanos}, \"peak_rss_kb\": {}, \"report_full_bytes\": {full_bytes}, \
         \"report_committed_bytes\": {committed_bytes}, \"transcript_bytes\": {transcript_bytes}}}",
        report.certificate.objective,
        report.certificate.feasible,
        report.rounds(),
        peak_rss_kb().unwrap_or(0),
    );
}

/// Spawns this binary as a leg subprocess and parses its JSON line.
fn spawn_leg(file: &std::path::Path) -> JsonValue {
    let exe = std::env::current_exe().expect("current exe");
    let output = std::process::Command::new(exe)
        .args(["--leg", "--file", file.to_str().unwrap()])
        .output()
        .expect("spawn leg");
    assert!(
        output.status.success(),
        "leg failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("leg stdout");
    parse_json(stdout.trim()).expect("leg JSON parses")
}

fn num(v: &JsonValue, field: &str) -> f64 {
    v.get(field)
        .and_then(JsonValue::as_f64)
        .unwrap_or_else(|| panic!("leg output lacks numeric `{field}`"))
}

/// Reads `n` and `m` from the instance file's problem line without
/// loading the body.
fn header_counts(path: &std::path::Path) -> (usize, usize) {
    use std::io::BufRead as _;
    let file = std::fs::File::open(path).expect("open instance");
    let mut first = String::new();
    std::io::BufReader::new(file)
        .read_line(&mut first)
        .expect("read header");
    let tok: Vec<&str> = first.split_whitespace().collect();
    assert_eq!(tok[..2], ["p", "graph"], "ladder instances are graphs");
    (tok[2].parse().unwrap(), tok[3].parse().unwrap())
}

fn measure(spec: &SweepSpec, quick: bool) -> Vec<String> {
    let tmp = std::env::temp_dir().join(format!("mrlr-bench-scale-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("temp dir");
    let mut rows = Vec::new();
    let points = spec.points();
    let points = if quick { &points[..1] } else { &points[..] };
    for point in points {
        let path = tmp.join(&point.out);
        {
            // Generate and stream to disk; the graph drops before the
            // leg runs, so the parent's footprint never skews it.
            let instance = spec.build(point).expect("ladder point builds");
            let file = std::fs::File::create(&path).expect("create instance file");
            let mut w = std::io::BufWriter::new(file);
            io::write_instance(&mut w, &instance).expect("write instance");
            std::io::Write::flush(&mut w).expect("flush instance");
        }
        let (n, m) = header_counts(&path);
        eprintln!("rung n={n} m={m}: generated {}", path.display());

        let leg = spawn_leg(&path);
        std::fs::remove_file(&path).ok();

        let edges_per_sec = m as f64 / (num(&leg, "wall_nanos") / 1e9);
        let mut row = String::new();
        let _ = write!(
            row,
            "{{\"n\": {n}, \"m\": {m}, \"wall_nanos\": {}, \"peak_rss_kb\": {}, \
             \"edges_per_sec\": {edges_per_sec:.0}, \"report_full_bytes\": {}, \
             \"report_committed_bytes\": {}, \"transcript_bytes\": {}}}",
            num(&leg, "wall_nanos") as u64,
            num(&leg, "peak_rss_kb") as u64,
            num(&leg, "report_full_bytes") as u64,
            num(&leg, "report_committed_bytes") as u64,
            num(&leg, "transcript_bytes") as u64,
        );
        eprintln!(
            "rung n={n} m={m}: {edges_per_sec:.0} edges/s at {} KiB peak",
            num(&leg, "peak_rss_kb") as u64,
        );
        rows.push(row);
    }
    std::fs::remove_dir_all(&tmp).ok();
    rows
}

// ---------------------------------------------------------------------------
// --check mode

/// Witness gate: on a small ladder instance, the committed witness of a
/// matching report round-trips through the audit.
fn check_committed_witness() {
    let spec = SweepSpec::parse(
        "family = \"densified\"\nc = 0.4\nseed = 7\nsweep = \"n\"\nvalues = [120]\n",
    )
    .expect("check spec");
    let point = &spec.points()[0];
    let instance = spec.build(point).expect("check instance builds");
    let cfg = instance.auto_config(MU, SEED);
    let direct = Registry::with_defaults()
        .solve("matching", &instance, &cfg)
        .expect("matching solve");
    let commitment = api::commit_witness(&direct.certificate.witness, 8).expect("committable");
    let claims = api::Claims::from(&direct.certificate);
    let checks = api::audit_committed(
        &instance,
        direct.algorithm,
        &direct.solution,
        &claims,
        &commitment.witness,
        &commitment.transcript,
    )
    .expect("committed witness audits");
    assert!(checks[0].starts_with("commitment:"));
    println!("ok: committed witness round-trips through audit_committed");
}

/// Schema gate: the committed artifact's rows are well-formed and reach
/// the 10^7-edge rung, where the committed report is the smaller one.
fn check_artifact(path: &str) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("--check: cannot read {path}: {e}"));
    let doc = parse_json(&text).expect("artifact parses");
    assert_eq!(
        doc.get("bench").and_then(JsonValue::as_str),
        Some("scale"),
        "--check: {path} is not a scale artifact"
    );
    let rows = doc
        .get("rows")
        .and_then(JsonValue::as_arr)
        .expect("artifact has a rows array");
    assert!(!rows.is_empty(), "--check: {path} has no rows");
    let fields = [
        "n",
        "m",
        "wall_nanos",
        "peak_rss_kb",
        "edges_per_sec",
        "report_full_bytes",
        "report_committed_bytes",
        "transcript_bytes",
    ];
    for row in rows {
        for field in fields {
            assert!(
                row.get(field).and_then(JsonValue::as_f64).is_some(),
                "--check: row lacks numeric field `{field}`"
            );
        }
    }
    println!("ok: all rows carry all fields");
    let top = rows
        .iter()
        .max_by(|a, b| num(a, "m").total_cmp(&num(b, "m")))
        .unwrap();
    assert!(
        num(top, "m") >= 1e7,
        "--check: ladder top rung has only {} edges, want >= 10^7",
        num(top, "m")
    );
    assert!(
        num(top, "report_committed_bytes") < num(top, "report_full_bytes"),
        "--check: committed report not smaller than the full-witness report"
    );
    println!("ok: committed report smaller than full-witness report at the top rung");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Internal subprocess entry.
    if args.iter().any(|a| a == "--leg") {
        let file_at = args.iter().position(|a| a == "--file").expect("--file");
        run_leg(&args[file_at + 1]);
        return;
    }

    let mut quick = false;
    let mut check = false;
    let mut spec_path = DEFAULT_SPEC_PATH.to_string();
    let mut out_path: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--check" => check = true,
            "--spec" => spec_path = it.next().expect("--spec needs a path"),
            other if !other.starts_with('-') => out_path = Some(other.to_string()),
            other => panic!("unknown flag {other}"),
        }
    }
    let out_path = out_path.unwrap_or_else(|| DEFAULT_OUT.into());

    if check {
        check_committed_witness();
        check_artifact(&out_path);
        println!("check passed");
        return;
    }

    let spec_text = std::fs::read_to_string(&spec_path)
        .unwrap_or_else(|e| panic!("cannot read sweep spec {spec_path}: {e}"));
    let spec = SweepSpec::parse(&spec_text).unwrap_or_else(|e| panic!("{spec_path}: {e}"));
    let rows = measure(&spec, quick);
    let mut out = String::from("{\n  \"bench\": \"scale\",\n  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(out, "    {row}{sep}");
    }
    out.push_str("  ]\n}\n");
    std::fs::write(&out_path, &out).expect("write artifact");
    println!("wrote {out_path} ({} rows)", rows.len());
}
