//! Determinism guarantees beyond the equivalence suite: identical output
//! across repeated runs, across rayon thread-pool sizes (the simulator runs
//! machines in parallel threads), and across machine counts for the drivers
//! the equivalence suite does not cover (vertex cover, b-matching, clique,
//! colouring).

use mrlr::core::hungry::MisParams;
use mrlr::core::mr::{bmatching, clique, colouring, matching, vertex_cover, MrConfig};
use mrlr::core::rlr::BMatchingParams;
use mrlr::graph::generators;

#[test]
fn vertex_cover_equivalent_across_machine_counts() {
    let g = generators::densified(60, 0.5, 5);
    let weights: Vec<f64> = (0..g.n()).map(|i| 1.0 + (i % 5) as f64).collect();
    let base = MrConfig::auto(60, g.m(), 0.3, 7);
    let reference = vertex_cover::run(&g, &weights, base).unwrap().0;
    for machines in [1usize, 4, 9] {
        let cfg = base.with_machines(machines);
        let (r, _) = vertex_cover::run(&g, &weights, cfg).unwrap();
        assert_eq!(r.cover, reference.cover, "machines = {machines}");
        assert_eq!(r.iterations, reference.iterations);
    }
}

#[test]
fn b_matching_equivalent_across_machine_counts() {
    let g = generators::with_uniform_weights(&generators::densified(50, 0.5, 2), 1.0, 7.0, 3);
    let b: Vec<u32> = (0..g.n() as u32).map(|v| 1 + v % 3).collect();
    let params = BMatchingParams {
        eps: 0.25,
        n_mu: 3.0,
        eta: 400,
        seed: 11,
    };
    let base = MrConfig::auto(50, g.m(), 0.3, 11);
    let reference = bmatching::run(&g, &b, params, base).unwrap().0;
    for machines in [1usize, 3, 8] {
        let cfg = base.with_machines(machines);
        let (r, _) = bmatching::run(&g, &b, params, cfg).unwrap();
        assert_eq!(r.matching, reference.matching, "machines = {machines}");
    }
}

#[test]
fn clique_equivalent_across_machine_counts() {
    let g = generators::gnp(60, 0.5, 9);
    let params = MisParams::mis1(60, 0.35, 13);
    let base = MrConfig::auto(60, g.m().max(1), 0.35, 13);
    let reference = clique::run(&g, params, base).unwrap().0;
    for machines in [1usize, 5] {
        let cfg = base.with_machines(machines);
        let (r, _) = clique::run(&g, params, cfg).unwrap();
        assert_eq!(r.vertices, reference.vertices, "machines = {machines}");
    }
}

#[test]
fn colouring_equivalent_across_machine_counts() {
    let g = generators::densified(70, 0.45, 4);
    let base = MrConfig::auto(70, g.m(), 0.3, 17);
    let reference = colouring::run_vertex(&g, 4, usize::MAX, base).unwrap().0;
    for machines in [1usize, 6] {
        let cfg = base.with_machines(machines);
        let (r, _) = colouring::run_vertex(&g, 4, usize::MAX, cfg).unwrap();
        assert_eq!(r.colours, reference.colours, "machines = {machines}");
        assert_eq!(r.num_colours, reference.num_colours);
    }
}

#[test]
fn identical_runs_are_bit_identical_including_metrics() {
    let g = generators::with_uniform_weights(&generators::densified(60, 0.5, 8), 1.0, 9.0, 2);
    let cfg = MrConfig::auto(60, g.m(), 0.3, 23);
    let (a, ma) = matching::run(&g, cfg).unwrap();
    let (b, mb) = matching::run(&g, cfg).unwrap();
    assert_eq!(a, b);
    assert_eq!(ma.rounds, mb.rounds);
    assert_eq!(ma.total_message_words, mb.total_message_words);
    assert_eq!(ma.peak_machine_words, mb.peak_machine_words);
    assert_eq!(ma.per_round.len(), mb.per_round.len());
}

#[test]
fn output_independent_of_execution_schedule() {
    // The same job on the 1-thread pool and 2/4-thread pools
    // (genuinely concurrent machine supersteps) must be bit-identical:
    // solution, rounds, volumes, per-round detail. Repeated runs additionally catch per-process nondeterminism
    // leaking into observables — e.g. a driver iterating a `HashMap`
    // (whose hasher is randomly seeded per instance) in arbitrary order.
    let g = generators::with_uniform_weights(&generators::densified(60, 0.5, 8), 1.0, 9.0, 2);
    let cfg = MrConfig::auto(60, g.m(), 0.3, 29);
    let run = |threads: usize| {
        let (r, m) = matching::run(&g, cfg.with_threads(threads)).unwrap();
        (r, m.rounds, m.total_message_words, m.per_round)
    };
    let reference = run(1);
    assert_eq!(run(1), reference, "repeated sequential run diverged");
    for threads in [2usize, 4] {
        assert_eq!(run(threads), reference, "{threads}-thread run diverged");
    }
}

#[test]
fn seed_changes_propagate() {
    // A different seed must (on this instance) change the run — guards
    // against a driver accidentally ignoring cfg.seed. The instance must be
    // large relative to η so the sampling path actually runs.
    let g = generators::with_uniform_weights(&generators::densified(100, 0.5, 8), 1.0, 9.0, 2);
    let a = matching::run(&g, MrConfig::auto(100, g.m(), 0.1, 1))
        .unwrap()
        .0;
    let b = matching::run(&g, MrConfig::auto(100, g.m(), 0.1, 2))
        .unwrap()
        .0;
    assert!(
        a.matching != b.matching || a.iterations != b.iterations,
        "two seeds produced identical matchings — suspicious"
    );
}
