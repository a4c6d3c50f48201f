//! Adversarial-instance tests: families constructed to sit at the *edge* of
//! each guarantee — the tight instance where the f-approximation pays
//! exactly `f`, the greedy trap where H_Δ is real, hub graphs where
//! degree-oblivious sampling struggles, planted cliques, and the
//! cross-checks between independent code paths (vertex cover vs the f = 2
//! set-cover view; edge colouring vs vertex-colouring the line graph).

use mrlr::core::hungry::MisParams;
use mrlr::core::mr::{clique, matching, set_cover, vertex_cover, MrConfig};
use mrlr::core::seq::{
    greedy_colouring, greedy_set_cover, local_ratio_set_cover, misra_gries_edge_colouring,
};
use mrlr::core::verify;
use mrlr::graph::{generators, line_graph};
use mrlr::mapreduce::RuntimeKind;
use mrlr::setsys::generators as setgen;
use mrlr::setsys::SetSystem;

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

/// On the tight-f instance the local ratio method takes *every* copy of the
/// universe: the certified ratio meets its bound with equality.
#[test]
fn tight_f_instance_realizes_the_f_ratio() {
    for f in [2usize, 3, 5] {
        let sys = setgen::tight_f_instance(12, f);
        let r = local_ratio_set_cover(&sys).unwrap();
        assert_eq!(r.cover.len(), f, "all {f} copies taken");
        assert!((r.weight - f as f64).abs() < 1e-9);
        // OPT = 1 (any single copy), so the realized ratio is exactly f.
        assert!((r.certified_ratio() - f as f64).abs() < 1e-9);
        // The randomized variant inherits the same behaviour.
        let rr = set_cover::run(&sys, one_machine(4, 7)).unwrap().0;
        assert_eq!(rr.cover.len(), f);
    }
}

/// The greedy trap: greedy pays ~H_m while local ratio pays ≤ f·OPT = 2·OPT;
/// the gap must grow with m (it is Θ(log m)).
#[test]
fn greedy_trap_gap_grows_logarithmically() {
    let mut gaps = Vec::new();
    for m in [16usize, 64, 256] {
        let sys = setgen::greedy_trap(m, 0.1);
        let greedy = greedy_set_cover(&sys).unwrap();
        let lr = local_ratio_set_cover(&sys).unwrap();
        assert!(sys.covers(&greedy.cover));
        assert!(sys.covers(&lr.cover));
        gaps.push(greedy.weight / lr.weight);
    }
    assert!(gaps[0] > 1.2, "trap did not trap: {gaps:?}");
    assert!(
        gaps[2] > gaps[1] && gaps[1] > gaps[0],
        "gap not growing: {gaps:?}"
    );
}

/// The two vertex-cover code paths (the dedicated f = 2 fast path and the
/// general dual-representation driver on the set-cover view) must both be
/// feasible, 2-approximate, and of comparable quality on the same graph.
#[test]
fn vertex_cover_paths_cross_validate() {
    for seed in 0..4 {
        let g = generators::densified(50, 0.5, seed);
        let weights: Vec<f64> = (0..g.n()).map(|i| 1.0 + (i % 7) as f64).collect();
        let cfg = MrConfig::auto(50, g.m(), 0.3, seed);
        let (fast, _) = vertex_cover::run(&g, &weights, cfg).unwrap();
        assert!(verify::is_vertex_cover(&g, &fast.cover));

        let sys = SetSystem::vertex_cover_of(&g, weights.clone());
        let cfg_sc = MrConfig::auto(50, sys.total_size(), 0.3, seed);
        let (general, _) = set_cover::run(&sys, cfg_sc).unwrap();
        assert!(sys.covers(&general.cover));
        let general_weight: f64 = {
            let mut picked = vec![false; g.n()];
            let mut w = 0.0;
            for &i in &general.cover {
                if !picked[i as usize] {
                    picked[i as usize] = true;
                    w += weights[i as usize];
                }
            }
            w
        };
        // Both are 2-approximations of the same optimum, so they are within
        // a factor 2 of each other.
        assert!(
            fast.weight <= 2.0 * general_weight + 1e-9
                && general_weight <= 2.0 * fast.weight + 1e-9,
            "seed {seed}: fast {} vs general {general_weight}",
            fast.weight
        );
    }
}

/// Edge colouring G is vertex colouring L(G): Misra–Gries on G must use no
/// more colours than greedy on the explicit line graph, and both must be
/// proper under their respective views.
#[test]
fn edge_colouring_agrees_with_line_graph_view() {
    for seed in 0..4 {
        let g = generators::gnm(30, 90, seed);
        let mg = misra_gries_edge_colouring(&g);
        assert!(verify::is_proper_edge_colouring(&g, &mg.colours));
        let lg = line_graph(&g);
        let lv = greedy_colouring(&lg);
        assert!(verify::is_proper_colouring(&lg, &lv.colours));
        // An edge colouring of G *is* a vertex colouring of L(G).
        assert!(verify::is_proper_colouring(&lg, &mg.colours));
        // Vizing (≤ Δ+1) beats the line-graph greedy bound (≤ 2Δ−1).
        assert!(mg.num_colours <= g.max_degree() + 1);
        assert!(lv.num_colours <= 2 * g.max_degree());
    }
}

/// Planted cliques: the hungry-greedy maximal clique must be at least as
/// large as a planted clique when noise is low (any maximal clique that
/// intersects a planted block extends to the whole block unless noise edges
/// interfere — at 2% noise the planted blocks dominate).
#[test]
fn planted_cliques_are_found_at_low_noise() {
    for seed in 0..3 {
        let size = 10usize;
        let g = generators::planted_cliques(4, size, 0.02, seed);
        let params = MisParams::mis2(g.n(), 0.4, seed);
        let (r, _) = clique::run(&g, params, one_machine(params.eta, seed)).unwrap();
        assert!(verify::is_maximal_clique(&g, &r.vertices));
        assert!(
            r.vertices.len() >= size - 2,
            "seed {seed}: found clique of {} << planted {size}",
            r.vertices.len()
        );
    }
}

/// Hub graphs with degree-correlated weights: the heavy edges all touch the
/// hub, so a matching can take at most one of them — an adversarial shape
/// for samplers. Validity and the 2-approximation must survive.
#[test]
fn hub_graphs_do_not_break_matching() {
    for seed in 0..4 {
        // Star of stars: one global hub plus local hubs.
        let star = generators::star(40);
        let extra = generators::gnm(40, 100, seed);
        // Merge: star edges (hub structure) + random edges, dedup via map.
        let mut pairs: Vec<(u32, u32)> = star.edges().iter().map(|e| e.key()).collect();
        for e in extra.edges() {
            let k = e.key();
            if !pairs.contains(&k) {
                pairs.push(k);
            }
        }
        let g0 = mrlr::graph::Graph::from_pairs(40, &pairs);
        let g = generators::with_degree_weights(&g0, 1.0);
        let r = matching::run(&g, one_machine(20, seed)).unwrap().0;
        assert!(verify::is_matching(&g, &r.matching));
        assert!(r.certified_ratio(2.0) <= 2.0 + 1e-9);
        // The hub can be matched at most once.
        let hub_edges = r.matching.iter().filter(|&&e| g.edge(e).touches(0)).count();
        assert!(hub_edges <= 1);
    }
}

/// Interval covers: strong locality (f grows with overlap). The randomized
/// f-approximation must stay within its certified bound and the realized
/// frequency bound of the instance.
#[test]
fn interval_covers_respect_frequency_bound() {
    for seed in 0..4 {
        let sys = setgen::interval_cover(40, 200, 15, seed);
        let f = sys.max_frequency() as f64;
        let r = set_cover::run(&sys, one_machine(60, seed)).unwrap().0;
        assert!(sys.covers(&r.cover));
        assert!(r.certified_ratio() <= f + 1e-9, "seed {seed}");
    }
}
