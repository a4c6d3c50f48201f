//! Benchmarks the distributed runtime against the sharded one and
//! writes the committed `BENCH_dist.json` artifact.
//!
//! For a fixed workload set, each registry key is solved as
//! `Backend::Shard` (the in-process baseline) and as `Backend::Dist` at
//! 1, 2 and 4 workers; bit-identity of the solutions is asserted before
//! anything is reported, so the numbers always describe equivalent
//! runs. Per dist run the artifact records the wall-clock, the
//! per-worker shuffle traffic (bytes out/in, batches) and the transport
//! time; one additional run per key injects a worker kill and records
//! the recovery wall-time, with the report again asserted identical.
//!
//! The two keys whose exchanges cross the wire (`vertex-cover`,
//! `vertex-colouring`) are sized so their largest exchange is over 1 MB
//! and are killed inside it, so their kill rows replay real batch bytes;
//! `set-cover-f` moves everything by gather/broadcast and is the
//! barrier-recovery row.
//!
//! Usage: `cargo run --release -p mrlr-bench --bin bench_dist [out.json]`
//! (default output path: `BENCH_dist.json` in the current directory).

use std::fmt::Write as _;

use mrlr_bench::{vertex_weights, weighted_graph};
use mrlr_core::api::{Backend, Instance, Registry, VertexWeightedGraph};
use mrlr_core::mr::MrConfig;
use mrlr_mapreduce::{DistSummary, WorkerKill};
use mrlr_setsys::generators as setgen;

const N: usize = 1500;
const C: f64 = 0.5;
const MU: f64 = 0.25;
const SEED: u64 = 42;
const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

/// `(key, instance, config, kill superstep)`: worker 0 dies after acking
/// that superstep's barrier. For the two shuffling keys it is the
/// superstep of their largest exchange, so the worker dies holding the
/// batch frames; every driver reaches the barrier after it.
fn workloads() -> Vec<(&'static str, Instance, MrConfig, usize)> {
    let g = weighted_graph(N, C, SEED);
    let m = g.m();
    let cfg = MrConfig::auto(N, m, MU, SEED);
    let vw = VertexWeightedGraph::new(g.clone(), vertex_weights(N, SEED));
    let sys =
        setgen::with_uniform_weights(setgen::bounded_frequency(N, m, 3, SEED), 1.0, 10.0, SEED);
    vec![
        ("vertex-cover", Instance::VertexWeighted(vw), cfg, 5),
        ("vertex-colouring", Instance::Graph(g), cfg, 1),
        ("set-cover-f", Instance::SetSystem(sys), cfg, 1),
    ]
}

fn json_dist(out: &mut String, summary: &DistSummary) {
    let _ = write!(out, "\"workers\": {}, \"shuffle\": [", summary.workers);
    for (i, w) in summary.shuffle.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}{{\"worker\": {}, \"bytes_out\": {}, \"bytes_in\": {}, \"batches\": {}}}",
            w.worker, w.bytes_out, w.bytes_in, w.batches
        );
    }
    let _ = write!(
        out,
        "], \"shuffle_nanos\": {}, \"recoveries\": [",
        summary.shuffle_nanos
    );
    for (i, r) in summary.recoveries.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}{{\"worker\": {}, \"superstep\": {}, \"recovery_wall_nanos\": {}, \"replayed_bytes\": {}}}",
            r.worker, r.superstep, r.wall_nanos, r.replayed_bytes
        );
    }
    let _ = write!(out, "]");
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_dist.json".into());
    let registry = Registry::with_defaults();
    let mut out = String::from("{\n  \"bench\": \"dist-vs-shard\",\n");
    let _ = writeln!(
        out,
        "  \"workload\": {{\"n\": {N}, \"c\": {C}, \"mu\": {MU}, \"seed\": {SEED}}},"
    );
    out.push_str("  \"entries\": [\n");

    let workloads = workloads();
    let mut first = true;
    for (key, instance, cfg, kill_at) in &workloads {
        let shard = registry
            .solve_with(key, Backend::Shard, instance, cfg)
            .expect("shard run");
        let mut shuffles = false;
        for &workers in &WORKER_COUNTS {
            let dcfg = cfg.with_workers(workers);
            let dist = registry
                .solve_with(key, Backend::Dist, instance, &dcfg)
                .expect("dist run");
            assert_eq!(
                dist.solution, shard.solution,
                "{key}: dist diverged from shard at {workers} workers"
            );
            assert_eq!(dist.metrics, shard.metrics, "{key}: metrics diverged");
            let summary = dist
                .metrics
                .as_ref()
                .and_then(|m| m.dist.as_ref())
                .expect("dist summary");
            shuffles |= summary.shuffle.iter().any(|w| w.bytes_out > 0);
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = write!(
                out,
                "    {{\"algorithm\": \"{key}\", \"requested_workers\": {workers}, \
                 \"shard_wall_nanos\": {}, \"dist_wall_nanos\": {}, ",
                shard.wall.as_nanos(),
                dist.wall.as_nanos()
            );
            json_dist(&mut out, summary);
            let _ = write!(out, "}}");
        }
        // One faulted run per key: kill worker 0 after its kill
        // superstep's barrier and record what the healing cost.
        let kcfg = cfg.with_workers(2).with_worker_kill(WorkerKill {
            worker: 0,
            superstep: *kill_at,
        });
        let healed = registry
            .solve_with(key, Backend::Dist, instance, &kcfg)
            .expect("faulted dist run");
        assert_eq!(
            healed.solution, shard.solution,
            "{key}: faulted dist run diverged"
        );
        let summary = healed
            .metrics
            .as_ref()
            .and_then(|m| m.dist.as_ref())
            .expect("dist summary");
        assert!(
            !summary.recoveries.is_empty(),
            "{key}: injected kill never fired"
        );
        assert_eq!(
            summary.recoveries[0].replayed_bytes > 0,
            shuffles,
            "{key}: a kill inside an exchange replays its batch bytes, one at a barrier none"
        );
        out.push_str(",\n");
        let _ = write!(
            out,
            "    {{\"algorithm\": \"{key}\", \"requested_workers\": 2, \"kill\": \"0@{kill_at}\", \
             \"shard_wall_nanos\": {}, \"dist_wall_nanos\": {}, ",
            shard.wall.as_nanos(),
            healed.wall.as_nanos()
        );
        json_dist(&mut out, summary);
        let _ = write!(out, "}}");
        eprintln!("measured {key}: shard + dist x{WORKER_COUNTS:?} + kill");
    }
    out.push_str("\n  ]\n}\n");
    std::fs::write(&out_path, &out).expect("write artifact");
    println!("wrote {out_path}");
}
