//! Quickstart: run the paper's two headline algorithms — 2-approximate
//! weighted vertex cover (Theorem 2.4) and 2-approximate weighted matching
//! (Theorem 5.6) — through the unified [`Registry`] API, and inspect the
//! uniform [`Report`] the theorems bound.
//!
//! Run with: `cargo run --release --example quickstart`

use mrlr::core::api::{Instance, Registry, VertexWeightedGraph};
use mrlr::core::mr::MrConfig;
use mrlr::graph::generators;
use mrlr::mapreduce::DetRng;

fn main() {
    // A graph with n = 200 vertices and m = n^{1+c} edges (c = 0.5), the
    // paper's standing density assumption, with random edge weights.
    let n = 200;
    let g = generators::with_uniform_weights(&generators::densified(n, 0.5, 1), 1.0, 10.0, 2);
    println!(
        "graph: n = {}, m = {} (density exponent c = {:.2}), Delta = {}",
        g.n(),
        g.m(),
        g.density_exponent(),
        g.max_degree()
    );

    // Cluster regime: machine memory eta = n^{1+mu} words, mu = 0.25.
    let cfg = MrConfig::auto(n, g.m(), 0.25, 42);
    println!(
        "cluster: {} machines x {} words (eta = {}), broadcast fan-out {}\n",
        cfg.machines, cfg.capacity, cfg.eta, cfg.fanout
    );

    // Every algorithm is one registry key; `solve` returns a uniform
    // report: solution + verification certificate + metrics + timing.
    let registry = Registry::with_defaults();

    // --- Weighted vertex cover (randomized local ratio, f = 2) ---
    let mut rng = DetRng::new(7);
    let weights: Vec<f64> = (0..n).map(|_| rng.f64_range(1.0, 10.0)).collect();
    let instance = Instance::VertexWeighted(VertexWeightedGraph::new(g.clone(), weights));
    let report = registry
        .solve("vertex-cover", &instance, &cfg)
        .expect("vertex cover");
    let cover = report.solution.as_cover().expect("cover solution");
    assert!(
        report.certificate.feasible,
        "independently verified by the report"
    );
    println!("vertex cover (Thm 2.4, registry key \"vertex-cover\"):");
    println!(
        "  cover size {} of {} vertices, weight {:.1}",
        cover.cover.len(),
        n,
        cover.weight
    );
    println!(
        "  certified ratio {:.3} (theory: 2), {} sampling iterations, {} MapReduce rounds",
        report.certificate.certified_ratio.unwrap_or(f64::NAN),
        cover.iterations,
        report.rounds()
    );
    println!(
        "  peak machine load {} words = {:.2} x eta, solved in {:.1?}\n",
        report.peak_words(),
        report.peak_words() as f64 / cfg.eta as f64,
        report.wall
    );

    // --- Weighted matching (randomized local ratio) ---
    let report = registry
        .solve("matching", &Instance::Graph(g), &cfg)
        .expect("matching");
    let matching = report.solution.as_matching().expect("matching solution");
    assert!(report.certificate.feasible);
    let metrics = report.metrics.as_ref().expect("Mr backend meters");
    println!("maximum weight matching (Thm 5.6, registry key \"matching\"):");
    println!(
        "  {} edges, weight {:.1}, certified ratio {:.3} (theory: 2)",
        matching.matching.len(),
        matching.weight,
        report.certificate.certified_ratio.unwrap_or(f64::NAN)
    );
    println!(
        "  {} sampling iterations, {} MapReduce rounds, {} words communicated",
        matching.iterations, metrics.rounds, metrics.total_message_words
    );

    // The same driver also runs as `Backend::Rlr` (one unmetered machine:
    // bit-identical solution, no metrics), and `Backend::Seq` runs the
    // deterministic sequential reference. See `Registry::solve_with`.
    println!("\nregistered algorithms: {:?}", registry.algorithms());
}
