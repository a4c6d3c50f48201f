//! Cluster observability: per-round metrics and model audits.
//!
//! Runs the weighted-matching algorithm, then reads the simulator's one
//! run record, [`Metrics`](mrlr::mapreduce::Metrics): the per-round
//! volumes, the per-superstep wall-clock and straggler skew recorded by
//! the executor, and the MRC/MPC model audit of the cluster shape.
//!
//! Run with: `cargo run --release --example cluster_observability`
//! (set `MRLR_THREADS=4` to watch the same run under the thread pool —
//! identical model metrics, different wall-clock).

use mrlr::core::api::{Instance, Registry};
use mrlr::core::mr::MrConfig;
use mrlr::graph::generators;
use mrlr::mapreduce::ComputeModel;

fn main() {
    // Large enough that machine memory (η = n^{1+µ} with a small µ) is
    // genuinely sublinear in the input — the audit below checks exactly
    // that — and the sampling loop runs for several real iterations.
    let n = 2000usize;
    let g = generators::with_uniform_weights(&generators::densified(n, 0.5, 3), 1.0, 10.0, 4);
    let cfg = MrConfig::auto(n, g.m(), 0.05, 42);
    let report = Registry::with_defaults()
        .solve("matching", &Instance::Graph(g.clone()), &cfg)
        .expect("matching");
    let result = report.solution.as_matching().expect("matching");
    let metrics = report.metrics.expect("Mr backend meters");
    println!(
        "matching: {} edges, weight {:.1}, {} iterations\n",
        result.matching.len(),
        result.weight,
        result.iterations
    );

    // --- Per-round volumes ---
    println!(
        "{} rounds, {} words moved",
        metrics.rounds, metrics.total_message_words
    );
    if let Some(busy) = metrics.per_round.iter().max_by_key(|r| r.total) {
        println!(
            "busiest: round {} ({}, {} words)",
            busy.round, busy.kind, busy.total
        );
    }
    let (exchange, gather, broadcast, aggregate) = metrics.rounds_by_kind();
    println!(
        "rounds by kind: {exchange} exchange, {gather} gather, \
         {broadcast} broadcast, {aggregate} aggregate"
    );

    // --- Wall-clock / straggler skew (host time, not model rounds) ---
    println!(
        "\nexecutor wall-clock: {} passes, {:.2} ms total, worst straggler skew {:.2}",
        metrics.superstep_timings.len(),
        metrics.total_wall_nanos() as f64 / 1e6,
        metrics.max_straggler_skew()
    );
    println!("slowest executor passes (superstep, wall, skew):");
    let mut slowest = metrics.superstep_timings.clone();
    slowest.sort_by_key(|t| std::cmp::Reverse(t.wall_nanos));
    for t in slowest.iter().take(3) {
        println!(
            "  superstep {:>3}: {:>9}ns over {} machines, skew {:.2}",
            t.superstep,
            t.wall_nanos,
            t.tasks,
            t.skew()
        );
    }

    // --- Model audit ---
    let input_words = 3 * g.m() + g.n();
    for (name, model) in [
        ("MPC (slack 64)", ComputeModel::Mpc { slack: 64.0 }),
        (
            "MRC (delta 0.2, slack 64)",
            ComputeModel::Mrc {
                delta: 0.2,
                slack: 64.0,
            },
        ),
    ] {
        let check = model.check(input_words, &cfg.cluster());
        println!(
            "\n{name} audit: {} (allowed capacity {} words, cluster uses {})",
            if check.ok { "conformant" } else { "VIOLATIONS" },
            check.allowed_capacity,
            cfg.capacity
        );
        for v in &check.violations {
            println!("  - {v}");
        }
    }
}
