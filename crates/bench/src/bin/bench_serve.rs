//! Load generator for the `mrlr serve` daemon: maintains the committed
//! `BENCH_serve.json` artifact.
//!
//! Three scenarios run against an in-process daemon (real Unix socket,
//! real client connections — only the process boundary is elided):
//!
//! * `latency` — sequential solve requests with distinct seeds (no
//!   coalescing possible): per-request p50/p99 latency and throughput
//!   with the pools warm, i.e. the steady-state cost of a served solve.
//! * `coalesce` — bursts of concurrent *identical* requests against a
//!   daemon with a publish hold: the admitted runner computes once and
//!   every other request in the burst attaches to that run. The row
//!   records solver runs vs. requests — the coalesce-hit rate is the
//!   artifact's evidence that coalescing reduces solver executions.
//! * `overload` — bursts against a `max_inflight=1, queue=0` daemon:
//!   everything beyond the admitted runner is rejected with an explicit
//!   `Busy` frame. The row records the rejected-request count and the
//!   p99 of the *rejection* latency (overload answers must be fast).
//!
//! Usage:
//!   `bench_serve [--quick] [out.json]`   measure and rewrite the artifact
//!   `bench_serve --check [out.json]`     CI mode: assert a served report
//!       is byte-identical to the direct `Registry` solve before any row
//!       is emitted, then validate the committed artifact's schema
//!       without touching it.

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use mrlr_bench::weighted_graph;
use mrlr_core::api::{Backend, Instance, Registry};
use mrlr_core::io::{self, parse_json, CertificateMode, JsonValue, TimingMode};
use mrlr_serve::{
    serve, Client, ClientError, RenderOpts, ReportFormat, Request, ServeConfig, SolveSpec,
    StatsSnapshot,
};

const GRAPH_N: usize = 300;
const GRAPH_QUICK_N: usize = 120;
const GRAPH_C: f64 = 0.5;
const MU: f64 = 0.25;
const SEED: u64 = 42;

fn instance_text(quick: bool) -> String {
    let n = if quick { GRAPH_QUICK_N } else { GRAPH_N };
    io::render_instance(&Instance::Graph(weighted_graph(n, GRAPH_C, SEED)))
}

fn solve_request(text: &str, seed: u64) -> Request {
    Request::Solve {
        spec: SolveSpec {
            algorithm: "matching".into(),
            backend: "mr".into(),
            instance_text: text.into(),
            mu_bits: MU.to_bits(),
            seed,
            threads: None,
            machines: None,
            workers: None,
        },
        render: RenderOpts {
            format: ReportFormat::Json,
            mask_timings: true,
            certificates_full: true,
        },
        timeout_millis: 30_000,
    }
}

/// Runs a daemon for the duration of `body`, returning the body's value
/// and the daemon's final counters.
fn with_daemon<T>(mut cfg: ServeConfig, body: impl FnOnce(&PathBuf) -> T) -> (T, StatsSnapshot) {
    static DAEMONS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    cfg.socket = std::env::temp_dir().join(format!(
        "mrlr-bench-serve-{}-{}.sock",
        std::process::id(),
        DAEMONS.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    let socket = cfg.socket.clone();
    let daemon = std::thread::spawn(move || serve(cfg));
    for _ in 0..200 {
        if Client::connect(&socket).is_ok() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let value = body(&socket);
    Client::connect(&socket)
        .expect("daemon alive")
        .shutdown()
        .expect("clean shutdown");
    let stats = daemon.join().expect("daemon thread").expect("daemon exit");
    (value, stats)
}

fn percentile(sorted_micros: &[u64], p: f64) -> u64 {
    assert!(!sorted_micros.is_empty());
    let idx = ((sorted_micros.len() - 1) as f64 * p).round() as usize;
    sorted_micros[idx]
}

struct Scenario {
    name: &'static str,
    requests: u64,
    wall: Duration,
    latencies_micros: Vec<u64>,
    stats: StatsSnapshot,
}

impl Scenario {
    fn row(&self) -> String {
        let mut sorted = self.latencies_micros.clone();
        sorted.sort_unstable();
        let throughput = self.requests as f64 / self.wall.as_secs_f64();
        let mut row = String::new();
        let _ = write!(
            row,
            "{{\"scenario\": \"{}\", \"requests\": {}, \"p50_micros\": {}, \
             \"p99_micros\": {}, \"throughput_rps\": {:.2}, \"solver_runs\": {}, \
             \"coalesce_hits\": {}, \"busy_rejects\": {}, \"timeouts\": {}}}",
            self.name,
            self.requests,
            percentile(&sorted, 0.50),
            percentile(&sorted, 0.99),
            throughput,
            self.stats.solver_runs,
            self.stats.coalesce_hits,
            self.stats.busy_rejects,
            self.stats.timeouts,
        );
        eprintln!(
            "{}: {} requests, p50 {}us, p99 {}us, {} solver runs, \
             {} coalesce hits, {} busy rejects",
            self.name,
            self.requests,
            percentile(&sorted, 0.50),
            percentile(&sorted, 0.99),
            self.stats.solver_runs,
            self.stats.coalesce_hits,
            self.stats.busy_rejects,
        );
        row
    }
}

/// Sequential distinct-seed solves: steady-state served latency.
fn latency_scenario(quick: bool) -> Scenario {
    let text = instance_text(quick);
    let requests = if quick { 8 } else { 32 };
    let (latencies, stats) = with_daemon(ServeConfig::new("unused"), |socket| {
        let mut latencies = Vec::new();
        let mut client = Client::connect(socket).expect("connect");
        // One unmeasured request warms the executor pools.
        client
            .solve(&solve_request(&text, 1_000), &mut |_| {})
            .expect("warmup solve");
        for seed in 0..requests {
            let start = Instant::now();
            client
                .solve(&solve_request(&text, seed), &mut |_| {})
                .expect("solve");
            latencies.push(start.elapsed().as_micros() as u64);
        }
        latencies
    });
    let wall_micros: u64 = latencies.iter().sum();
    Scenario {
        name: "latency",
        requests,
        wall: Duration::from_micros(wall_micros.max(1)),
        latencies_micros: latencies,
        stats,
    }
}

/// Concurrent identical bursts: the publish hold keeps each burst's
/// runner open long enough that the rest of the burst provably attaches.
fn coalesce_scenario(quick: bool) -> Scenario {
    let text = instance_text(quick);
    let bursts = if quick { 2 } else { 6 };
    let burst_size = 4u64;
    let mut cfg = ServeConfig::new("unused");
    cfg.max_inflight = burst_size as usize;
    cfg.queue = burst_size as usize;
    cfg.hold = Duration::from_millis(150);
    let start = Instant::now();
    let (latencies, stats) = with_daemon(cfg, |socket| {
        let mut latencies = Vec::new();
        for burst in 0..bursts {
            // The whole burst shares one coalescing key (same seed);
            // distinct bursts use distinct seeds so runs never leak
            // across bursts.
            let joins: Vec<_> = (0..burst_size)
                .map(|_| {
                    let socket = socket.clone();
                    let request = solve_request(&text, 10_000 + burst);
                    std::thread::spawn(move || {
                        let mut client = Client::connect(&socket).expect("connect");
                        let start = Instant::now();
                        let served = client.solve(&request, &mut |_| {}).expect("solve");
                        (start.elapsed().as_micros() as u64, served.coalesced)
                    })
                })
                .collect();
            for j in joins {
                let (micros, _) = j.join().expect("burst thread");
                latencies.push(micros);
            }
        }
        latencies
    });
    let wall = start.elapsed();
    assert!(
        stats.solver_runs < stats.requests,
        "coalescing must reduce solver runs ({} runs for {} requests)",
        stats.solver_runs,
        stats.requests,
    );
    Scenario {
        name: "coalesce",
        requests: bursts * burst_size,
        wall,
        latencies_micros: latencies,
        stats,
    }
}

/// Distinct-spec bursts against a single slot and no queue: one request
/// per burst is admitted, the rest bounce with `Busy`.
fn overload_scenario(quick: bool) -> Scenario {
    let text = instance_text(quick);
    let bursts = if quick { 2 } else { 6 };
    let burst_size = 4u64;
    let mut cfg = ServeConfig::new("unused");
    cfg.max_inflight = 1;
    cfg.queue = 0;
    cfg.hold = Duration::from_millis(150);
    let start = Instant::now();
    let (latencies, stats) = with_daemon(cfg, |socket| {
        let mut latencies = Vec::new();
        for burst in 0..bursts {
            let joins: Vec<_> = (0..burst_size)
                .map(|i| {
                    let socket = socket.clone();
                    // Distinct seeds: no coalescing, so the burst
                    // genuinely contends for the single slot.
                    let request = solve_request(&text, 20_000 + burst * burst_size + i);
                    std::thread::spawn(move || {
                        let mut client = Client::connect(&socket).expect("connect");
                        let start = Instant::now();
                        let outcome = client.solve(&request, &mut |_| {});
                        let micros = start.elapsed().as_micros() as u64;
                        match outcome {
                            Ok(_) => (micros, false),
                            Err(ClientError::Busy { .. }) => (micros, true),
                            Err(e) => panic!("unexpected outcome: {e}"),
                        }
                    })
                })
                .collect();
            for j in joins {
                let (micros, _rejected) = j.join().expect("burst thread");
                latencies.push(micros);
            }
        }
        latencies
    });
    let wall = start.elapsed();
    assert!(
        stats.busy_rejects > 0,
        "overload bursts must provoke Busy rejections"
    );
    Scenario {
        name: "overload",
        requests: bursts * burst_size,
        wall,
        latencies_micros: latencies,
        stats,
    }
}

// ---------------------------------------------------------------------------
// --check mode

/// Differential gate: a served report must be byte-identical to the
/// direct registry solve rendered with the same options.
fn check_served_equals_direct() {
    let text = instance_text(true);
    let (served, _) = with_daemon(ServeConfig::new("unused"), |socket| {
        Client::connect(socket)
            .expect("connect")
            .solve(&solve_request(&text, SEED), &mut |_| {})
            .expect("served solve")
    });
    let instance = io::parse_instance(&text).expect("instance parses");
    let cfg = instance.auto_config(MU, SEED);
    let report = Registry::with_defaults()
        .solve_with("matching", Backend::Mr, &instance, &cfg)
        .expect("direct solve");
    let direct = io::report_json_with(&report, TimingMode::Masked, CertificateMode::Full).render();
    assert_eq!(
        served.content, direct,
        "served report diverges from the direct registry solve"
    );
    println!("ok: served report byte-identical to direct Registry::solve");
}

/// Schema gate: the committed artifact has every scenario with every
/// required field, and its coalesce row shows fewer solver runs than
/// requests.
fn check_artifact(path: &str) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("--check: cannot read {path}: {e}"));
    let doc = parse_json(&text).expect("artifact parses");
    assert_eq!(
        doc.get("bench").and_then(JsonValue::as_str),
        Some("serve"),
        "--check: {path} is not a serve artifact"
    );
    let rows = doc
        .get("rows")
        .and_then(JsonValue::as_arr)
        .expect("artifact has a rows array");
    let fields = [
        "requests",
        "p50_micros",
        "p99_micros",
        "throughput_rps",
        "solver_runs",
        "coalesce_hits",
        "busy_rejects",
        "timeouts",
    ];
    for scenario in ["latency", "coalesce", "overload"] {
        let row = rows
            .iter()
            .find(|r| r.get("scenario").and_then(JsonValue::as_str) == Some(scenario))
            .unwrap_or_else(|| panic!("--check: {path} has no `{scenario}` row"));
        for field in fields {
            assert!(
                row.get(field).and_then(JsonValue::as_f64).is_some(),
                "--check: {scenario} row lacks numeric field `{field}`"
            );
        }
        println!("ok: {scenario} row present with all fields");
    }
    let coalesce = rows
        .iter()
        .find(|r| r.get("scenario").and_then(JsonValue::as_str) == Some("coalesce"))
        .expect("coalesce row");
    let runs = coalesce.get("solver_runs").and_then(JsonValue::as_f64);
    let requests = coalesce.get("requests").and_then(JsonValue::as_f64);
    assert!(
        runs < requests,
        "--check: committed coalesce row does not show coalescing \
         (solver_runs {runs:?} vs requests {requests:?})"
    );
    println!("ok: committed coalesce row shows solver_runs < requests");
    let overload = rows
        .iter()
        .find(|r| r.get("scenario").and_then(JsonValue::as_str) == Some("overload"))
        .expect("overload row");
    let rejects = overload.get("busy_rejects").and_then(JsonValue::as_f64);
    assert!(
        rejects > Some(0.0),
        "--check: committed overload row records no Busy rejections"
    );
    println!("ok: committed overload row records Busy rejections");
}

fn main() {
    let mut quick = false;
    let mut check = false;
    let mut out_path: Option<String> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => quick = true,
            "--check" => check = true,
            other if !other.starts_with('-') => out_path = Some(other.to_string()),
            other => panic!("unknown flag {other}"),
        }
    }
    let out_path = out_path.unwrap_or_else(|| "BENCH_serve.json".into());

    if check {
        check_served_equals_direct();
        check_artifact(&out_path);
        println!("check passed");
        return;
    }

    let rows = [
        latency_scenario(quick).row(),
        coalesce_scenario(quick).row(),
        overload_scenario(quick).row(),
    ];
    let mut out = String::from("{\n  \"bench\": \"serve\",\n  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(out, "    {row}{sep}");
    }
    out.push_str("  ]\n}\n");
    std::fs::write(&out_path, &out).expect("write artifact");
    println!("wrote {out_path} ({} rows)", rows.len());
}
