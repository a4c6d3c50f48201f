//! Property-based tests of the core algorithmic invariants on arbitrary
//! random instances: feasibility, certificates, maximality, properness,
//! and agreement with exact optima at small scale.

use proptest::prelude::*;

use mrlr_core::exact;
use mrlr_core::hungry::MisParams;
use mrlr_core::mr::{bmatching, clique, colouring, matching, mis, set_cover, MrConfig};
use mrlr_core::rlr::BMatchingParams;
use mrlr_core::seq::{
    eps_greedy_set_cover, greedy_set_cover, harmonic, local_ratio_b_matching, local_ratio_matching,
    local_ratio_set_cover, misra_gries_edge_colouring,
};
use mrlr_core::verify;
use mrlr_graph::{Edge, Graph};
use mrlr_mapreduce::RuntimeKind;
use mrlr_setsys::SetSystem;

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

/// Strategy: an arbitrary weighted simple graph with up to `nmax` vertices.
fn arb_graph(nmax: usize, mmax: usize) -> impl Strategy<Value = Graph> {
    (2usize..=nmax).prop_flat_map(move |n| {
        proptest::collection::vec(((0..n as u32), (0..n as u32), 1u32..100), 0..=mmax).prop_map(
            move |raw| {
                let mut seen = std::collections::HashSet::new();
                let mut edges = Vec::new();
                for (a, b, w) in raw {
                    if a == b {
                        continue;
                    }
                    let key = (a.min(b), a.max(b));
                    if seen.insert(key) {
                        edges.push(Edge::new(key.0, key.1, w as f64));
                    }
                }
                Graph::new(n, edges)
            },
        )
    })
}

/// Strategy: an arbitrary coverable weighted set system.
fn arb_system(nmax: usize, mmax: usize) -> impl Strategy<Value = SetSystem> {
    (1usize..=nmax, 1usize..=mmax).prop_flat_map(|(n, m)| {
        (
            proptest::collection::vec(proptest::collection::vec(0u32..m as u32, 0..=m), n),
            proptest::collection::vec(1u32..50, n),
        )
            .prop_map(move |(mut sets, weights)| {
                let n_sets = sets.len();
                for j in 0..m {
                    // Guarantee coverage: element j forced into some set.
                    sets[j % n_sets].push(j as u32);
                }
                let sets: Vec<Vec<u32>> = sets
                    .into_iter()
                    .map(|mut s| {
                        s.sort_unstable();
                        s.dedup();
                        s
                    })
                    .collect();
                SetSystem::new(m, sets, weights.into_iter().map(|w| w as f64).collect())
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn local_ratio_matching_invariants(g in arb_graph(16, 40)) {
        let r = local_ratio_matching(&g);
        prop_assert!(verify::is_matching(&g, &r.matching));
        prop_assert!(r.weight + 1e-6 >= r.stack_gain);
        if g.n() <= 14 {
            let (opt, _) = exact::max_weight_matching(&g);
            prop_assert!(2.0 * r.weight + 1e-6 >= opt, "{} vs {}", r.weight, opt);
            // The stack certificate really upper-bounds OPT.
            prop_assert!(2.0 * r.stack_gain + 1e-6 >= opt);
        }
    }

    #[test]
    fn randomized_matching_invariants(g in arb_graph(14, 30), eta in 1usize..20, seed in any::<u64>()) {
        let r = matching::run(&g, one_machine(eta, seed)).unwrap().0;
        prop_assert!(verify::is_matching(&g, &r.matching));
        prop_assert!(r.certified_ratio(2.0) <= 2.0 + 1e-6);
    }

    #[test]
    fn local_ratio_cover_invariants(sys in arb_system(8, 14)) {
        let r = local_ratio_set_cover(&sys).unwrap();
        prop_assert!(sys.covers(&r.cover));
        let f = sys.max_frequency() as f64;
        prop_assert!(r.weight <= f * r.lower_bound + 1e-6);
        let (opt, _) = exact::min_weight_set_cover(&sys).unwrap();
        prop_assert!(r.lower_bound <= opt + 1e-6);
        prop_assert!(r.weight <= f * opt + 1e-6);
    }

    #[test]
    fn randomized_cover_invariants(sys in arb_system(8, 14), eta in 1usize..10, seed in any::<u64>()) {
        let r = set_cover::run(&sys, one_machine(eta, seed)).unwrap().0;
        prop_assert!(sys.covers(&r.cover));
        let (opt, _) = exact::min_weight_set_cover(&sys).unwrap();
        prop_assert!(r.weight <= sys.max_frequency() as f64 * opt + 1e-6);
    }

    #[test]
    fn greedy_cover_invariants(sys in arb_system(8, 12)) {
        let r = greedy_set_cover(&sys).unwrap();
        prop_assert!(sys.covers(&r.cover));
        let (opt, _) = exact::min_weight_set_cover(&sys).unwrap();
        let h = harmonic(sys.max_set_size());
        prop_assert!(r.weight <= h * opt + 1e-6, "{} > {} * {}", r.weight, h, opt);
    }

    #[test]
    fn misra_gries_always_proper(g in arb_graph(18, 60)) {
        let r = misra_gries_edge_colouring(&g);
        prop_assert!(verify::is_proper_edge_colouring(&g, &r.colours));
        prop_assert!(r.num_colours <= g.max_degree() + 1);
    }

    #[test]
    fn hungry_mis_always_maximal(g in arb_graph(20, 60), seed in any::<u64>()) {
        let params = MisParams::mis2(g.n(), 0.4, seed);
        let (r, _) = mis::run_fast(&g, params, one_machine(params.eta, seed)).unwrap();
        prop_assert!(verify::is_maximal_independent_set(&g, &r.vertices));
    }

    #[test]
    fn hungry_clique_always_maximal(g in arb_graph(18, 60), seed in any::<u64>()) {
        let params = MisParams::mis2(g.n(), 0.4, seed);
        let (r, _) = clique::run(&g, params, one_machine(params.eta, seed)).unwrap();
        prop_assert!(verify::is_maximal_clique(&g, &r.vertices));
    }

    #[test]
    fn exact_matching_dominates_greedy(g in arb_graph(12, 24)) {
        let (opt, edges) = exact::max_weight_matching(&g);
        prop_assert!(verify::is_matching(&g, &edges));
        let greedy = local_ratio_matching(&g);
        prop_assert!(opt + 1e-9 >= greedy.weight);
    }

    #[test]
    fn vertex_colouring_always_proper(g in arb_graph(24, 80), kappa in 1usize..6, seed in any::<u64>()) {
        let (r, _) = colouring::run_vertex(&g, kappa, usize::MAX, one_machine(1, seed)).unwrap();
        prop_assert!(verify::is_proper_colouring(&g, &r.colours));
        prop_assert_eq!(r.groups, kappa);
        // κ groups each need at most Δ+1 colours.
        prop_assert!(r.num_colours <= kappa * (g.max_degree() + 1));
    }

    #[test]
    fn edge_colouring_always_proper(g in arb_graph(20, 60), kappa in 1usize..5, seed in any::<u64>()) {
        let (r, _) = colouring::run_edge(&g, kappa, usize::MAX, one_machine(1, seed)).unwrap();
        prop_assert!(verify::is_proper_edge_colouring(&g, &r.colours));
        // Misra–Gries per group: ≤ Δ+1 each.
        prop_assert!(r.num_colours <= kappa * (g.max_degree() + 1));
    }

    #[test]
    fn seq_b_matching_invariants(g in arb_graph(12, 26), bmax in 1u32..4) {
        let b: Vec<u32> = (0..g.n() as u32).map(|v| 1 + (v % bmax)).collect();
        let r = local_ratio_b_matching(&g, &b, 0.25);
        prop_assert!(verify::is_b_matching(&g, &b, &r.matching));
        if g.m() <= 20 {
            let (opt, _) = exact::max_weight_b_matching(&g, &b);
            let mult = mrlr_core::seq::b_matching_multiplier(&b, 0.25);
            prop_assert!(mult * r.weight + 1e-6 >= opt, "{} * {} < {}", mult, r.weight, opt);
        }
    }

    #[test]
    fn randomized_b_matching_invariants(g in arb_graph(12, 26), seed in any::<u64>()) {
        let b: Vec<u32> = (0..g.n() as u32).map(|v| 1 + (v % 3)).collect();
        let params = BMatchingParams { eps: 0.25, n_mu: 2.0, eta: 24, seed };
        let (r, _) = bmatching::run(&g, &b, params, one_machine(params.eta, seed)).unwrap();
        prop_assert!(verify::is_b_matching(&g, &b, &r.matching));
        if g.m() <= 20 {
            let (opt, _) = exact::max_weight_b_matching(&g, &b);
            let mult = mrlr_core::seq::b_matching_multiplier(&b, 0.25);
            prop_assert!(mult * r.weight + 1e-6 >= opt);
        }
    }

    #[test]
    fn eps_greedy_within_relaxed_bound(sys in arb_system(8, 12), seed in any::<u64>()) {
        let r = eps_greedy_set_cover(&sys, 0.2, seed).unwrap();
        prop_assert!(sys.covers(&r.cover));
        let (opt, _) = exact::min_weight_set_cover(&sys).unwrap();
        let bound = (1.0 + 0.2) * harmonic(sys.max_set_size());
        prop_assert!(r.weight <= bound * opt + 1e-6, "{} > {} * {}", r.weight, bound, opt);
    }

    #[test]
    fn mis_simple_and_fast_both_maximal(g in arb_graph(18, 50), seed in any::<u64>()) {
        let p1 = MisParams::mis1(g.n(), 0.4, seed);
        let (r1, _) = mis::run_simple(&g, p1, one_machine(p1.eta, seed)).unwrap();
        prop_assert!(verify::is_maximal_independent_set(&g, &r1.vertices));
        let p2 = MisParams::mis2(g.n(), 0.4, seed);
        let (r2, _) = mis::run_fast(&g, p2, one_machine(p2.eta, seed)).unwrap();
        prop_assert!(verify::is_maximal_independent_set(&g, &r2.vertices));
    }

    #[test]
    fn matching_seed_invariance_of_validity_under_extreme_eta(g in arb_graph(14, 30), seed in any::<u64>()) {
        // η = 1 (pathologically small sample) must still be correct, only slow.
        let tiny = matching::run(&g, one_machine(1, seed)).unwrap().0;
        prop_assert!(verify::is_matching(&g, &tiny.matching));
        prop_assert!(tiny.certified_ratio(2.0) <= 2.0 + 1e-6);
        // η ≥ m (everything sampled) degenerates to one central pass.
        let (big, _) = matching::run(&g, one_machine(g.m().max(1) * 4, seed)).unwrap();
        prop_assert!(verify::is_matching(&g, &big.matching));
        prop_assert!(big.iterations <= 2);
    }

    #[test]
    fn exact_vertex_cover_sandwich(g in arb_graph(12, 24)) {
        // LP-style sandwich: max-matching weight ≤ min vertex cover weight
        // ≤ 2 × min fractional ≤ 2 × matching bound, with unit weights.
        let w = vec![1.0; g.n()];
        let (vc, cover) = exact::min_weight_vertex_cover(&g, &w);
        prop_assert!(verify::is_vertex_cover(&g, &cover));
        let (mw, _) = exact::max_weight_matching(&g.unweighted());
        prop_assert!(mw <= vc + 1e-9, "matching {} > cover {}", mw, vc);
        prop_assert!(vc <= 2.0 * mw + 1e-9, "cover {} > 2x matching {}", vc, mw);
    }
}
