//! Routing hot-path benchmark: maintains the committed `BENCH_exec.json`.
//!
//! Two sections feed the artifact, both on the in-process engine
//! (backend `shard`) at 1 and 4 threads:
//!
//! * `router` — synthetic all-to-all exchange supersteps driven straight
//!   through [`Cluster::exchange`], for a one-word (`u64`) and a
//!   four-field (`tuple4`, the colourings' `(u64, u32, u32, u32)`)
//!   message shape. Destinations are drawn
//!   from the machine-local shard RNG stream
//!   ([`mrlr_mapreduce::Shard::rng_mut`]); final state checksums and
//!   `Metrics` are asserted bit-identical across thread counts before
//!   anything is reported.
//! * `registry` — the nine keys whose resident state is a flat
//!   per-machine arena, solved through the registry with each leg
//!   asserted bit-identical (solution and `Metrics`) to the 1-thread
//!   run: the cover family (`vertex-cover`, `set-cover-greedy`,
//!   `set-cover-f`, `b-matching`) and the graph family (`matching`,
//!   `mis2`, `clique`, `vertex-colouring`, `edge-colouring`), each on one
//!   instance large enough that a 1-thread solve takes at least 50 ms.
//!
//! Each row records wall-time, peak inbox bytes and allocator traffic
//! per superstep, counted by a `#[global_allocator]` shim compiled into
//! this bin only.
//!
//! Usage:
//!   `bench_exec [--quick] [out.json]`
//!     measure and rewrite the artifact (default path `BENCH_exec.json`);
//!     `--quick` shrinks the router section only.
//!   `bench_exec --check [out.json]`
//!     CI mode: run the quick thread-count equivalence assertions
//!     without touching the file, then fail unless the committed
//!     artifact has rows for both sections, and fail if any freshly
//!     measured router, cover-family or graph-family row allocates more
//!     than 25% (plus a +16 absolute grace) over its committed baseline.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use mrlr_bench::workloads::build_spec;
use mrlr_core::api::{Backend, Instance, Registry};
use mrlr_core::io::{parse_json, JsonValue};
use mrlr_core::mr::MrConfig;
use mrlr_mapreduce::cluster::{Cluster, ClusterConfig, Outbox};
use mrlr_mapreduce::{DetRng, Metrics, RuntimeKind, Wire, WordSized};

// ---------------------------------------------------------------------------
// Counting allocator (this bin only): every heap allocation and
// reallocation bumps a counter, so a superstep loop's allocator traffic
// is the counter delta around it. Deallocations are uncounted — the
// metric is "new memory requests per superstep", the thing the router's
// buffer reuse is meant to eliminate.

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: defers to the system allocator; the counters are simple
// relaxed atomics with no allocation of their own.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_snapshot() -> (u64, u64) {
    (
        ALLOC_CALLS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

// ---------------------------------------------------------------------------
// Router section: synthetic exchange supersteps.

#[derive(Clone, Copy)]
struct RouterParams {
    machines: usize,
    /// Messages staged per machine per superstep.
    volume: usize,
    /// Measured supersteps (after warm-up).
    supersteps: usize,
    /// Unmeasured supersteps that warm buffer pools first.
    warmup: usize,
}

const ROUTER_FULL: RouterParams = RouterParams {
    machines: 32,
    volume: 256,
    supersteps: 48,
    warmup: 2,
};
const ROUTER_QUICK: RouterParams = RouterParams {
    machines: 8,
    volume: 64,
    supersteps: 8,
    warmup: 2,
};
const ROUTER_SEED: u64 = 42;

/// Per-machine resident state of the synthetic workload: a machine-local
/// RNG stream (seeded once from `Shard::rng_mut`) plus an order-sensitive
/// checksum over everything received.
struct RouterState {
    rng: DetRng,
    checksum: u64,
    received: u64,
}

impl WordSized for RouterState {
    fn words(&self) -> usize {
        4
    }
}

struct RouterMeasurement {
    checksums: Vec<u64>,
    metrics: Metrics,
    wall_nanos: u128,
    allocs_per_superstep: u64,
    alloc_bytes_per_superstep: u64,
}

/// Builds the synthetic-workload cluster for one thread count, with
/// each machine's destination stream seeded from its own shard RNG
/// (machine-local coins, not a stateless hash of the message id).
fn router_cluster(threads: usize, p: RouterParams) -> Cluster<RouterState> {
    let capacity = (p.volume + 2) * 64 * p.machines;
    let cfg = ClusterConfig::new(p.machines, capacity)
        .with_runtime(RuntimeKind::Shard)
        .with_threads(threads)
        .with_seed(ROUTER_SEED);
    let states: Vec<RouterState> = (0..p.machines)
        .map(|_| RouterState {
            rng: DetRng::new(0),
            checksum: 0,
            received: 0,
        })
        .collect();
    let mut cluster = Cluster::new(cfg, states).expect("cluster");
    for id in 0..p.machines {
        let shard = cluster.shard_mut(id);
        let seed = shard.rng_mut().next_u64();
        shard.state_mut().rng = DetRng::new(seed);
    }
    cluster
}

/// Runs the synthetic workload at one thread count: warm-up, then
/// measured supersteps around the allocator snapshot. `build` turns a
/// destination-selecting RNG draw into the message payload and `digest`
/// folds a received message into the checksum; both are pure, so every
/// leg sees identical traffic.
fn run_router<M, B, D>(threads: usize, p: RouterParams, build: B, digest: D) -> RouterMeasurement
where
    M: Copy + WordSized + Send + Wire + 'static,
    B: Fn(u64) -> M + Sync,
    D: Fn(&M) -> u64 + Sync,
{
    let mut cluster = router_cluster(threads, p);
    let machines = p.machines;
    let volume = p.volume;
    let superstep = |cluster: &mut Cluster<RouterState>| {
        cluster
            .exchange(
                |_, st: &mut RouterState, out: &mut Outbox<M>| {
                    for _ in 0..volume {
                        let draw = st.rng.next_u64();
                        out.send((draw % machines as u64) as usize, build(draw));
                    }
                },
                |_, st: &mut RouterState, inbox| {
                    for msg in inbox.iter() {
                        st.checksum = st
                            .checksum
                            .wrapping_mul(0x100_0000_01b3)
                            .wrapping_add(digest(msg));
                        st.received += 1;
                    }
                },
            )
            .expect("exchange");
    };
    for _ in 0..p.warmup {
        superstep(&mut cluster);
    }
    let (calls0, bytes0) = alloc_snapshot();
    let start = Instant::now();
    for _ in 0..p.supersteps {
        superstep(&mut cluster);
    }
    let wall_nanos = start.elapsed().as_nanos();
    let (calls1, bytes1) = alloc_snapshot();
    let (states, metrics) = cluster.into_parts();
    RouterMeasurement {
        checksums: states.iter().map(|s| s.checksum).collect(),
        metrics,
        wall_nanos,
        allocs_per_superstep: (calls1 - calls0) / p.supersteps as u64,
        alloc_bytes_per_superstep: (bytes1 - bytes0) / p.supersteps as u64,
    }
}

/// Renders one router measurement as an artifact row.
fn router_row(workload: &str, threads: usize, p: RouterParams, m: &RouterMeasurement) -> String {
    let mut row = String::new();
    let _ = write!(
        row,
        "{{\"section\": \"router\", \"workload\": \"{workload}\", \
         \"backend\": \"shard\", \"threads\": {threads}, \
         \"machines\": {}, \"volume\": {}, \"supersteps\": {}, \
         \"wall_nanos\": {}, \"wall_nanos_per_superstep\": {}, \
         \"allocs_per_superstep\": {}, \"alloc_bytes_per_superstep\": {}, \
         \"peak_inbox_bytes\": {}}}",
        p.machines,
        p.volume,
        p.supersteps,
        m.wall_nanos,
        m.wall_nanos / p.supersteps as u128,
        m.allocs_per_superstep,
        m.alloc_bytes_per_superstep,
        m.metrics.peak_in_words * 8,
    );
    row
}

/// Both thread-count legs for one message shape; asserts the 4-thread
/// leg bit-identical to the 1-thread one before reporting.
fn router_rows<M, B, D>(
    rows: &mut Vec<String>,
    workload: &str,
    p: RouterParams,
    build: B,
    digest: D,
) where
    M: Copy + WordSized + Send + Wire + 'static,
    B: Fn(u64) -> M + Sync + Copy,
    D: Fn(&M) -> u64 + Sync + Copy,
{
    let reference = run_router::<M, _, _>(1, p, build, digest);
    for threads in [1usize, 4] {
        let m = run_router::<M, _, _>(threads, p, build, digest);
        assert_eq!(
            m.checksums, reference.checksums,
            "{workload}: threads={threads} diverged from reference"
        );
        assert_eq!(
            m.metrics, reference.metrics,
            "{workload}: threads={threads} metrics diverged"
        );
        rows.push(router_row(workload, threads, p, &m));
        eprintln!(
            "router/{workload} t{threads}: {} allocs/superstep, {} ns/superstep",
            m.allocs_per_superstep,
            m.wall_nanos / p.supersteps as u128
        );
    }
}

/// The colourings' message shape: `(group, edge, u, v)`.
type Tuple4 = (u64, u32, u32, u32);

fn tuple4_build(draw: u64) -> Tuple4 {
    (draw, draw as u32, (draw >> 32) as u32, (draw >> 7) as u32)
}

fn tuple4_digest(&(a, b, c, d): &Tuple4) -> u64 {
    a.wrapping_add(b as u64)
        .wrapping_add((c as u64) << 16)
        .wrapping_add((d as u64) << 32)
}

fn router_section(rows: &mut Vec<String>, quick: bool) {
    let p = if quick { ROUTER_QUICK } else { ROUTER_FULL };
    // One-word messages: the hot shape, where per-message overhead is
    // everything.
    router_rows::<u64, _, _>(rows, "u64", p, |draw| draw, |m| *m);
    // Four-field records, the colourings' exchange shape: multi-word
    // accounting and wider copies through the delivery pass.
    router_rows::<Tuple4, _, _>(rows, "tuple4", p, tuple4_build, tuple4_digest);
}

// ---------------------------------------------------------------------------
// Registry section: whole solves through the public API.

/// The keys whose resident state is a flat per-machine arena — the cover
/// family and the graph family — each on an instance where one 1-thread
/// solve takes at least 50 ms (so the row reads the driver, not the
/// harness). One size only: `--check` re-measures these rows at the size
/// the committed baseline was taken at, because a driver's allocations
/// per superstep are not monotone in instance size the way the router's
/// are.
const FLAT_STATE_WORKLOADS: [(&str, &str); 9] = [
    ("vertex-cover", "vertex-weighted:n=10000,c=0.5,seed=42"),
    (
        "set-cover-greedy",
        "set-frequency:n=6000,m=300000,f=4,seed=42",
    ),
    ("set-cover-f", "set-frequency:n=8000,m=600000,f=4,seed=42"),
    ("b-matching", "b-matching:n=6000,c=0.5,seed=42"),
    ("matching", "densified:n=10000,c=0.5,seed=42"),
    ("mis2", "densified:n=16000,c=0.5,seed=42"),
    ("clique", "densified:n=18000,c=0.5,seed=42"),
    ("vertex-colouring", "densified:n=12000,c=0.5,seed=42"),
    ("edge-colouring", "densified:n=2500,c=0.5,seed=42"),
];

/// Solves `key` on `Backend::Shard` at 1 and 4 threads, asserting the
/// 4-thread report bit-identical (solution and `Metrics`) to the
/// 1-thread one, and renders one row per leg.
fn registry_rows(rows: &mut Vec<String>, key: &str, instance: &Instance, cfg: MrConfig) {
    let registry = Registry::with_defaults();
    let reference = registry
        .solve_with(key, Backend::Shard, instance, &cfg.with_threads(1))
        .expect("reference run");
    for threads in [1usize, 4] {
        let leg_cfg = cfg.with_threads(threads);
        let (calls0, bytes0) = alloc_snapshot();
        let report = registry
            .solve_with(key, Backend::Shard, instance, &leg_cfg)
            .expect("solve");
        let (calls1, bytes1) = alloc_snapshot();
        assert_eq!(
            report.solution, reference.solution,
            "{key}: threads={threads} diverged"
        );
        assert_eq!(
            report.metrics, reference.metrics,
            "{key}: threads={threads} metrics diverged"
        );
        let metrics = report.metrics.as_ref().expect("cluster metrics");
        let supersteps = metrics.supersteps.max(1) as u64;
        let mut row = String::new();
        let _ = write!(
            row,
            "{{\"section\": \"registry\", \"algorithm\": \"{key}\", \"backend\": \"shard\", \
             \"threads\": {threads}, \"supersteps\": {}, \"rounds\": {}, \
             \"wall_nanos\": {}, \"allocs_per_superstep\": {}, \
             \"alloc_bytes_per_superstep\": {}, \"peak_inbox_bytes\": {}}}",
            metrics.supersteps,
            metrics.rounds,
            report.wall.as_nanos(),
            (calls1 - calls0) / supersteps,
            (bytes1 - bytes0) / supersteps,
            metrics.peak_in_words * 8,
        );
        rows.push(row);
    }
    eprintln!("{key}: shard at threads {{1,4}}");
}

fn registry_section(rows: &mut Vec<String>) {
    for (key, spec) in FLAT_STATE_WORKLOADS {
        let instance = build_spec(spec).expect("flat-state workload spec");
        let cfg = instance.auto_config(0.15, 42);
        registry_rows(rows, key, &instance, cfg);
    }
}

// ---------------------------------------------------------------------------
// Artifact assembly and the CI gates.

fn write_artifact(path: &str, rows: &[String]) {
    let mut out = String::from("{\n  \"bench\": \"exec\",\n  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(out, "    {row}{sep}");
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, &out).expect("write artifact");
    println!("wrote {path} ({} rows)", rows.len());
}

/// CI gate: the committed artifact must carry rows for both sections.
fn check_artifact(path: &str, rows: &[JsonValue]) {
    for section in ["router", "registry"] {
        let count = rows
            .iter()
            .filter(|r| r.get("section").and_then(JsonValue::as_str) == Some(section))
            .count();
        assert!(
            count > 0,
            "--check: {path} has no rows for section={section}"
        );
        println!("ok: {section}: {count} rows");
    }
}

/// CI alloc-regression gate: every freshly measured row must stay
/// within `max(base * 5/4, base + 16)` of the allocs-per-superstep its
/// committed baseline records (25% slack, with an absolute +16 grace so
/// single-digit baselines don't flake on allocator noise). The fresh
/// router rows run at QUICK sizes, which are never larger than the
/// committed full-size run, so a failure there means the routing path
/// regressed for certain; the flat-state registry rows run at their one
/// size.
fn alloc_gate(committed: &[JsonValue], measured: &[String]) {
    let key_of = |row: &JsonValue| -> Option<(String, String, u64)> {
        let name = row.get("workload").or_else(|| row.get("algorithm"));
        Some((
            row.get("section").and_then(JsonValue::as_str)?.to_string(),
            name.and_then(JsonValue::as_str)?.to_string(),
            row.get("threads").and_then(JsonValue::as_u64)?,
        ))
    };
    let baselines: Vec<_> = committed
        .iter()
        .filter_map(|r| {
            let key = key_of(r)?;
            let base = r.get("allocs_per_superstep").and_then(JsonValue::as_u64)?;
            Some((key, base))
        })
        .collect();
    let mut gated = 0usize;
    for row in measured {
        let row = parse_json(row).expect("measured row renders as JSON");
        let key = key_of(&row).expect("rows name their workload or algorithm");
        let Some(&(_, base)) = baselines.iter().find(|(k, _)| *k == key) else {
            panic!("--check: no committed baseline for {key:?}");
        };
        let got = row
            .get("allocs_per_superstep")
            .and_then(JsonValue::as_u64)
            .expect("measured row has allocs_per_superstep");
        let allowed = (base * 5 / 4).max(base + 16);
        assert!(
            got <= allowed,
            "--check: alloc regression on {key:?}: measured {got} allocs/superstep \
             exceeds allowed {allowed} (committed baseline {base})"
        );
        println!(
            "ok: allocs {}/{} t{}: {got} <= {allowed} (baseline {base})",
            key.0, key.1, key.2
        );
        gated += 1;
    }
    assert!(gated > 0, "--check: no rows were measured");
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
    let out_path = out_path.unwrap_or_else(|| "BENCH_exec.json".into());

    if check {
        // Fast equivalence gate first: any thread-count divergence
        // panics inside the section runner before the file is judged.
        let mut measured = Vec::new();
        router_section(&mut measured, true);
        registry_section(&mut measured);
        let text = std::fs::read_to_string(&out_path)
            .unwrap_or_else(|e| panic!("--check: cannot read {out_path}: {e}"));
        let doc = parse_json(&text).expect("artifact parses");
        let rows = doc
            .get("rows")
            .and_then(JsonValue::as_arr)
            .expect("artifact has a rows array");
        check_artifact(&out_path, rows);
        alloc_gate(rows, &measured);
        println!("check passed");
        return;
    }

    let mut rows = Vec::new();
    router_section(&mut rows, quick);
    registry_section(&mut rows);
    write_artifact(&out_path, &rows);
}
