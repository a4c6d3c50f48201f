//! Round-complexity assertions: the paper's headline claims, as tests.
//!
//! Figure 1 promises `O(c/µ)` rounds for the randomized local ratio
//! algorithms, `O(c/µ)` for hungry-greedy MIS (Algorithm 6), `O(log n)`
//! iterations for matching at `µ = 0` (Theorem C.2) and `O(1)` rounds for
//! colouring (Theorems 6.4/6.6). These tests run parameter sweeps and
//! assert the measured iteration/round counts against the theory formulas
//! with generous constants — the point is the *growth shape*, not the
//! constant. The `cluster_*` tests hold the cluster drivers themselves
//! to their theorems, on a `densified` ladder, with every constant
//! written out as a named item.

use mrlr::core::api::{Backend, Instance, Registry};
use mrlr::core::colouring::{colour_budget, group_count};
use mrlr::core::hungry::MisParams;
use mrlr::core::mr::{self, colouring, matching, set_cover, MrConfig};
use mrlr::core::rlr::predicted_rounds;
use mrlr::graph::generators;
use mrlr::mapreduce::RuntimeKind;
use mrlr::setsys::generators as setgen;

/// The shape the registry's `Rlr` backend runs a driver on: one machine
/// on the in-process runtime whose capacity is recorded rather than
/// enforced, with sample budget `eta` and coins from `seed`.
fn one_machine(eta: usize, seed: u64) -> MrConfig {
    MrConfig {
        eta,
        ..MrConfig::auto(2, 1, 0.0, seed)
    }
    .with_machines(1)
    .with_runtime(RuntimeKind::Shard)
    .recording()
}

/// Density exponent of a generated graph (measured, not nominal).
fn measured_c(n: usize, m: usize) -> f64 {
    (m as f64).ln() / (n as f64).ln() - 1.0
}

#[test]
fn set_cover_iterations_scale_as_c_over_mu() {
    // Theorem 2.3: with η = n^{1+µ} and m ≤ n^{1+c}, Algorithm 1 finishes
    // within ⌈c/µ⌉ (+1 for the final p = 1 pass) iterations w.h.p.
    for &(n_sets, c) in &[(50usize, 0.4f64), (80, 0.5)] {
        let m = (n_sets as f64).powf(1.0 + c).round() as usize;
        for &mu in &[0.2f64, 0.35] {
            let sys = setgen::bounded_frequency(n_sets, m, 3, 11);
            let eta = (n_sets as f64).powf(1.0 + mu).ceil() as usize;
            let r = set_cover::run(&sys, one_machine(eta, 11)).unwrap().0;
            let bound = (c / mu).ceil() as usize + 2;
            assert!(
                r.iterations <= bound,
                "n={n_sets} c={c} mu={mu}: {} iterations > bound {bound}",
                r.iterations
            );
            // The paper's own prediction formula should agree.
            assert!(r.iterations <= predicted_rounds(n_sets, m, eta) + 2);
        }
    }
}

#[test]
fn matching_iterations_scale_as_c_over_mu() {
    // Theorem 5.5: O(c/µ) iterations with η = n^{1+µ}.
    for &n in &[60usize, 120] {
        let g = generators::with_uniform_weights(&generators::densified(n, 0.5, 3), 1.0, 9.0, 5);
        let c = measured_c(g.n(), g.m());
        for &mu in &[0.2f64, 0.35] {
            let eta = (n as f64).powf(1.0 + mu).ceil() as usize;
            let r = matching::run(&g, one_machine(eta, 7)).unwrap().0;
            let bound = (4.0 * c / mu).ceil() as usize + 6;
            assert!(
                r.iterations <= bound,
                "n={n} mu={mu}: {} iterations > bound {bound}",
                r.iterations
            );
        }
    }
}

#[test]
fn matching_mu_zero_iterations_logarithmic() {
    // Theorem C.2: with η = n the iteration count is O(log n). Measure at
    // two sizes and check both the absolute bound and that growth is far
    // slower than linear.
    let mut iters = Vec::new();
    for &n in &[50usize, 200] {
        let g = generators::with_uniform_weights(&generators::densified(n, 0.45, 9), 1.0, 5.0, 2);
        let r = matching::run(&g, one_machine(n, 13)).unwrap().0;
        let bound = (20.0 * (n as f64).ln()).ceil() as usize + 10;
        assert!(r.iterations <= bound, "n={n}: {} > {bound}", r.iterations);
        iters.push(r.iterations);
    }
    // 4x the vertices must not cost anywhere near 4x the iterations.
    assert!(
        iters[1] <= iters[0].max(1) * 3,
        "iterations grew too fast: {iters:?}"
    );
}

#[test]
fn mis_fast_phases_scale_as_c_over_mu() {
    // Theorem A.3: Algorithm 6 runs O(c/µ) central iterations.
    for &n in &[80usize, 140] {
        let g = generators::densified(n, 0.45, 17);
        let c = measured_c(g.n(), g.m());
        for &mu in &[0.25f64, 0.4] {
            let params = MisParams::mis2(n, mu, 3);
            let (r, _) = mr::mis::run_fast(&g, params, one_machine(params.eta, 3)).unwrap();
            let bound = (16.0 * c / mu).ceil() as usize + 6;
            assert!(
                r.iterations <= bound,
                "n={n} mu={mu}: {} iterations > bound {bound}",
                r.iterations
            );
        }
    }
}

#[test]
fn colouring_rounds_are_constant_in_n() {
    // Theorems 6.4/6.6: O(1) MapReduce rounds. Measure the full round count
    // (including broadcast-tree hops) at two sizes; it must stay under a
    // fixed constant and not grow with n.
    let mut vertex_rounds = Vec::new();
    let mut edge_rounds = Vec::new();
    for &n in &[70usize, 140] {
        let g = generators::densified(n, 0.5, 21);
        let mu = 0.3;
        let kappa = group_count(g.n(), g.m(), mu).max(1);
        let cfg = MrConfig::auto(n, g.m(), mu, 9);
        let (res, metrics) = colouring::run_vertex(&g, kappa, usize::MAX, cfg).unwrap();
        assert!(res.num_colours >= 1);
        vertex_rounds.push(metrics.rounds);
        let cfg = MrConfig::auto(n, g.m(), mu, 9);
        let (_, metrics) = colouring::run_edge(&g, kappa, usize::MAX, cfg).unwrap();
        edge_rounds.push(metrics.rounds);
    }
    for &r in vertex_rounds.iter().chain(&edge_rounds) {
        assert!(r <= 24, "colouring took {r} rounds; expected O(1)");
    }
    // Doubling n must not double the rounds.
    assert!(
        vertex_rounds[1] <= vertex_rounds[0] + 6,
        "{vertex_rounds:?}"
    );
    assert!(edge_rounds[1] <= edge_rounds[0] + 6, "{edge_rounds:?}");
}

#[test]
fn smaller_mu_means_more_iterations() {
    // The c/µ shape from the other side: shrinking µ (less memory) must not
    // shrink the iteration count, and should typically grow it.
    let n = 100usize;
    let g = generators::with_uniform_weights(&generators::densified(n, 0.5, 31), 1.0, 9.0, 8);
    let eta_hi = (n as f64).powf(1.35).ceil() as usize;
    let eta_lo = (n as f64).powf(1.05).ceil() as usize;
    let hi = matching::run(&g, one_machine(eta_hi, 3)).unwrap().0;
    let lo = matching::run(&g, one_machine(eta_lo, 3)).unwrap().0;
    assert!(
        lo.iterations >= hi.iterations,
        "eta {eta_lo} gave {} iterations, eta {eta_hi} gave {}",
        lo.iterations,
        hi.iterations
    );
}

/// Theorem A.3's `O(c/µ)` for Algorithm 6, as `MIS2_C_OVER_MU · c/µ +
/// MIS2_SLACK` central iterations: `α = µ/8` gives `1/α = 8/µ` degree
/// classes, and each class empties within two rounds of its threshold,
/// hence 16; the slack covers the central finish and tiny `n`.
const MIS2_C_OVER_MU: f64 = 16.0;
const MIS2_SLACK: usize = 6;

/// The `(n, c)` rungs of the cluster ladder: `densified(n, c)` has
/// `m = n^{1+c}` edges.
const LADDER: [(usize, f64); 3] = [(80, 0.45), (140, 0.45), (200, 0.6)];

#[test]
fn cluster_mis2_iterations_scale_as_c_over_mu() {
    for &(n, c_nominal) in &LADDER {
        let g = generators::densified(n, c_nominal, 17);
        let c = measured_c(g.n(), g.m());
        for &mu in &[0.25f64, 0.4] {
            let cfg = MrConfig::auto(n, g.m(), mu, 3);
            let (r, _) = mr::mis::run_fast(&g, MisParams::mis2(n, mu, 3), cfg).unwrap();
            let bound = (MIS2_C_OVER_MU * c / mu).ceil() as usize + MIS2_SLACK;
            assert!(
                r.iterations <= bound,
                "n={n} mu={mu}: {} iterations > bound {bound}",
                r.iterations
            );
        }
    }
}

#[test]
fn cluster_clique_iterations_scale_as_complement_c_over_mu() {
    // Corollary B.1: the clique driver is Algorithm 6 on the complement,
    // so its density exponent is the complement's, `m̄ = C(n,2) − m`.
    for &(n, c_nominal) in &LADDER {
        let g = generators::densified(n, c_nominal, 23);
        let complement = n * (n - 1) / 2 - g.m();
        let c = measured_c(n, complement);
        for &mu in &[0.25f64, 0.4] {
            let cfg = MrConfig::auto(n, g.m().max(1), mu, 5);
            let (r, _) = mr::clique::run(&g, MisParams::mis2(n, mu, 5), cfg).unwrap();
            let bound = (MIS2_C_OVER_MU * c / mu).ceil() as usize + MIS2_SLACK;
            assert!(
                r.iterations <= bound,
                "n={n} mu={mu}: {} iterations > bound {bound}",
                r.iterations
            );
        }
    }
}

#[test]
fn cluster_colouring_keeps_corollary_6_3_budget_at_three_or_more_groups() {
    // Corollary 6.3: `(1 + n^{-µ/2}√(6 ln n) + n^{-µ})Δ` colours, for
    // vertex groups (Algorithm 5) and edge groups (Remark 6.5) alike.
    let registry = Registry::with_defaults();
    // κ = n^{(c−µ)/2} ≥ 3 here, and the final gather of all `m` edge
    // colours still fits the central machine.
    let mu = 0.3;
    for &(n, c) in &[(150usize, 0.8f64), (300, 0.75)] {
        let g = generators::densified(n, c, 29);
        let budget = colour_budget(n, g.max_degree(), mu);
        let instance = Instance::Graph(g);
        let cfg = MrConfig::auto(n, instance.graph().unwrap().m(), mu, 29);
        for key in ["vertex-colouring", "edge-colouring"] {
            let report = registry
                .solve_with(key, Backend::Shard, &instance, &cfg)
                .unwrap();
            let c = report.solution.as_colouring().unwrap();
            assert!(c.groups >= 3, "{key} n={n}: only {} groups", c.groups);
            assert!(
                c.num_colours as f64 <= budget,
                "{key} n={n}: {} colours > budget {budget}",
                c.num_colours
            );
        }
    }
}
