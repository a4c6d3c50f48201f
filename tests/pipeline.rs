//! End-to-end pipelines: generator → MapReduce algorithm → verifier →
//! metrics, for every algorithm in the paper, through the facade crate.

use mrlr::core::colouring::group_count;
use mrlr::core::hungry::{HungryScParams, MisParams};
use mrlr::core::mr::{
    bmatching, clique, colouring, matching, mis, set_cover, set_cover_greedy, vertex_cover,
    MrConfig,
};
use mrlr::core::rlr::BMatchingParams;
use mrlr::core::seq::{b_matching_multiplier, harmonic};
use mrlr::core::verify;
use mrlr::graph::generators;
use mrlr::mapreduce::DetRng;
use mrlr::setsys::generators as setgen;

const N: usize = 120;
const C: f64 = 0.45;
const MU: f64 = 0.3;
const SEED: u64 = 2024;

fn workload() -> mrlr::graph::Graph {
    generators::with_uniform_weights(&generators::densified(N, C, SEED), 1.0, 10.0, SEED)
}

#[test]
fn vertex_cover_pipeline() {
    let g = workload();
    let mut rng = DetRng::new(SEED);
    let w: Vec<f64> = (0..N).map(|_| rng.f64_range(1.0, 10.0)).collect();
    let cfg = MrConfig::auto(N, g.m(), MU, SEED);
    let (r, metrics) = vertex_cover::run(&g, &w, cfg).unwrap();
    assert!(verify::is_vertex_cover(&g, &r.cover));
    assert!(r.certified_ratio() <= 2.0 + 1e-9);
    assert!(metrics.rounds >= 1);
    assert!(metrics.peak_machine_words <= cfg.capacity);
    assert!(metrics.violations.is_empty());
}

#[test]
fn set_cover_f_pipeline() {
    let sys =
        setgen::with_uniform_weights(setgen::bounded_frequency(N, 1500, 4, SEED), 1.0, 8.0, SEED);
    let cfg = MrConfig::auto(N, 1500, MU, SEED);
    let (r, metrics) = set_cover::run(&sys, cfg).unwrap();
    assert!(sys.covers(&r.cover));
    assert!(r.certified_ratio() <= sys.max_frequency() as f64 + 1e-9);
    assert!(metrics.total_message_words > 0);
}

#[test]
fn hungry_set_cover_pipeline() {
    let sys =
        setgen::with_uniform_weights(setgen::bounded_set_size(600, 150, 12, SEED), 1.0, 8.0, SEED);
    let params = HungryScParams::new(150, 0.4, 0.25, SEED);
    let cfg = MrConfig::auto(150, sys.total_size(), 0.4, SEED);
    let (r, trace, metrics) = set_cover_greedy::run(&sys, params, cfg).unwrap();
    assert!(sys.covers(&r.cover));
    let bound = (1.0 + 0.25) * harmonic(sys.max_set_size());
    assert!(r.weight <= bound * r.lower_bound * (1.0 + 1e-9) + 1e-9);
    assert!(!trace.potentials.is_empty());
    // Lemma 4.3 direction: the potential ends below where it started.
    assert!(trace.potentials.last().unwrap() <= &trace.potentials[0]);
    assert!(metrics.rounds >= trace.potentials.len());
}

#[test]
fn matching_pipeline() {
    let g = workload();
    let cfg = MrConfig::auto(N, g.m(), MU, SEED);
    let (r, metrics) = matching::run(&g, cfg).unwrap();
    assert!(verify::is_matching(&g, &r.matching));
    assert!(r.weight + 1e-6 >= r.stack_gain);
    assert!(r.certified_ratio(2.0) <= 2.0 + 1e-6);
    assert!(metrics.peak_central_words <= cfg.capacity);
}

#[test]
fn b_matching_pipeline() {
    let g = workload();
    let b: Vec<u32> = (0..N).map(|v| 1 + (v % 4) as u32).collect();
    let params = BMatchingParams {
        eps: 0.3,
        n_mu: 2.0,
        eta: 40,
        seed: SEED,
    };
    let mut cfg = MrConfig::auto(N, g.m(), MU, SEED);
    cfg.eta = params.eta;
    let (r, _) = bmatching::run(&g, &b, params, cfg).unwrap();
    assert!(verify::is_b_matching(&g, &b, &r.matching));
    let mult = b_matching_multiplier(&b, params.eps);
    assert!(r.certified_ratio(mult) <= mult + 1e-6);
}

#[test]
fn mis_pipelines() {
    let g = workload().unweighted();
    let cfg = MrConfig::auto(N, g.m(), MU, SEED);
    let (r1, m1) = mis::run_simple(&g, MisParams::mis1(N, MU, SEED), cfg).unwrap();
    assert!(verify::is_maximal_independent_set(&g, &r1.vertices));
    let (r2, m2) = mis::run_fast(&g, MisParams::mis2(N, MU, SEED), cfg).unwrap();
    assert!(verify::is_maximal_independent_set(&g, &r2.vertices));
    // The Alg 6 schedule should not be slower than Alg 2 in rounds here.
    assert!(m2.rounds <= m1.rounds + 2, "{} vs {}", m2.rounds, m1.rounds);
}

#[test]
fn clique_pipeline() {
    let g = generators::gnp(80, 0.6, SEED);
    let cfg = MrConfig::auto(80, g.m(), MU, SEED);
    let (r, _) = clique::run(&g, MisParams::mis2(80, MU, SEED), cfg).unwrap();
    assert!(verify::is_maximal_clique(&g, &r.vertices));
    assert!(r.vertices.len() >= 2);
}

#[test]
fn colouring_pipelines() {
    let g = workload();
    let kappa = group_count(N, g.m(), MU).max(2);
    let cfg = MrConfig::auto(N, g.m(), MU, SEED);
    let (rv, mv) = colouring::run_vertex(&g, kappa, usize::MAX, cfg).unwrap();
    assert!(verify::is_proper_colouring(&g, &rv.colours));
    assert!(mv.rounds <= 3, "vertex colouring took {} rounds", mv.rounds);
    let (re, me) = colouring::run_edge(&g, kappa, usize::MAX, cfg).unwrap();
    assert!(verify::is_proper_edge_colouring(&g, &re.colours));
    assert!(me.rounds <= 3);
    // Colour budget: far below the trivial kappa * (Delta + 1).
    assert!(rv.num_colours <= kappa * (g.max_degree() + 1));
}
