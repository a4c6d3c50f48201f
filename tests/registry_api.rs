//! Registry round-trip guarantees: every registry key's `Mr` run returns
//! bit-identical solutions and identical `Metrics` to its direct
//! `mr::*::run` entry point on fixed seeds, and the `Rlr`/`Mr` backends of
//! the same key agree wherever the paper guarantees equivalence (they
//! share the same hash-derived coin streams).

use mrlr::core::api::{
    paper_edge_limit, BMatchingInstance, Backend, Instance, Registry, VertexWeightedGraph,
    DEFAULT_GREEDY_SC_EPS,
};
use mrlr::core::colouring::group_count;
use mrlr::core::hungry::{HungryScParams, MisParams};
use mrlr::core::mr::{
    bmatching, clique, colouring, matching, mis, set_cover, set_cover_greedy, vertex_cover,
    MrConfig,
};
use mrlr::core::rlr::BMatchingParams;
use mrlr::graph::{generators, Graph};
use mrlr::mapreduce::{DetRng, RuntimeKind};
use mrlr::setsys::generators as setgen;
use mrlr::setsys::SetSystem;

const SEED: u64 = 42;
const MU: f64 = 0.3;

fn graph(n: usize) -> Graph {
    generators::with_uniform_weights(&generators::densified(n, 0.45, SEED), 1.0, 9.0, SEED ^ 0x77)
}

fn vertex_weights(n: usize) -> Vec<f64> {
    let mut rng = DetRng::derive(SEED, &[0x0076_7773]);
    (0..n).map(|_| rng.f64_range(1.0, 10.0)).collect()
}

fn set_system() -> SetSystem {
    setgen::with_uniform_weights(setgen::bounded_frequency(40, 600, 3, SEED), 1.0, 8.0, SEED)
}

/// Every `(algorithm, instance, cfg)` triple the default registry covers,
/// with instances sized so each Mr run takes milliseconds.
fn workloads() -> Vec<(&'static str, Instance, MrConfig)> {
    let g = graph(60);
    let gcfg = MrConfig::auto(60, g.m(), MU, SEED);
    let gu = g.unweighted();
    let sys = set_system();
    let scfg = MrConfig::auto(40, 600, 0.5, SEED);
    let dense = generators::gnp(50, 0.5, SEED);
    let dcfg = MrConfig::auto(50, dense.m(), 0.35, SEED);
    vec![
        ("set-cover-f", Instance::SetSystem(sys.clone()), scfg),
        ("set-cover-greedy", Instance::SetSystem(sys), scfg),
        (
            "vertex-cover",
            Instance::VertexWeighted(VertexWeightedGraph::new(g.clone(), vertex_weights(60))),
            gcfg,
        ),
        ("matching", Instance::Graph(g.clone()), gcfg),
        (
            "b-matching",
            Instance::BMatching(BMatchingInstance::new(
                g.clone(),
                (0..60u32).map(|v| 1 + v % 3).collect(),
                0.25,
            )),
            gcfg,
        ),
        ("mis1", Instance::Graph(gu.clone()), gcfg),
        ("mis2", Instance::Graph(gu), gcfg),
        ("clique", Instance::Graph(dense), dcfg),
        ("vertex-colouring", Instance::Graph(g.clone()), gcfg),
        ("edge-colouring", Instance::Graph(g), gcfg),
    ]
}

#[test]
fn every_mr_driver_is_bit_identical_to_its_legacy_entry_point() {
    let registry = Registry::with_defaults();
    for (name, instance, cfg) in workloads() {
        let report = registry
            .solve(name, &instance, &cfg)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(report.backend, Backend::Mr);
        let metrics = report.metrics.as_ref().expect("Mr backend reports metrics");

        // Invoke the direct entry point with the identically-derived
        // parameters and demand bit-identical output.
        match name {
            "set-cover-f" => {
                let sys = match &instance {
                    Instance::SetSystem(s) => s,
                    _ => unreachable!(),
                };
                let (direct, lm) = set_cover::run(sys, cfg).unwrap();
                assert_eq!(report.solution.as_cover().unwrap(), &direct, "{name}");
                assert_eq!(metrics, &lm, "{name} metrics");
            }
            "set-cover-greedy" => {
                let sys = match &instance {
                    Instance::SetSystem(s) => s,
                    _ => unreachable!(),
                };
                let params =
                    HungryScParams::new(sys.universe(), cfg.mu, DEFAULT_GREEDY_SC_EPS, cfg.seed);
                let (direct, _trace, lm) = set_cover_greedy::run(sys, params, cfg).unwrap();
                assert_eq!(report.solution.as_cover().unwrap(), &direct, "{name}");
                assert_eq!(metrics, &lm, "{name} metrics");
            }
            "vertex-cover" => {
                let vw = match &instance {
                    Instance::VertexWeighted(vw) => vw,
                    _ => unreachable!(),
                };
                let (direct, lm) = vertex_cover::run(&vw.graph, &vw.weights, cfg).unwrap();
                assert_eq!(report.solution.as_cover().unwrap(), &direct, "{name}");
                assert_eq!(metrics, &lm, "{name} metrics");
            }
            "matching" => {
                let g = instance.graph().unwrap();
                let (direct, lm) = matching::run(g, cfg).unwrap();
                assert_eq!(report.solution.as_matching().unwrap(), &direct, "{name}");
                assert_eq!(metrics, &lm, "{name} metrics");
            }
            "b-matching" => {
                let bm = match &instance {
                    Instance::BMatching(bm) => bm,
                    _ => unreachable!(),
                };
                let params = BMatchingParams {
                    eps: bm.eps,
                    n_mu: (bm.graph.n() as f64).powf(cfg.mu),
                    eta: cfg.eta,
                    seed: cfg.seed,
                };
                let (direct, lm) = bmatching::run(&bm.graph, &bm.b, params, cfg).unwrap();
                assert_eq!(report.solution.as_matching().unwrap(), &direct, "{name}");
                assert_eq!(metrics, &lm, "{name} metrics");
            }
            "mis1" => {
                let g = instance.graph().unwrap();
                let params = MisParams::mis1(g.n(), cfg.mu, cfg.seed);
                let (direct, lm) = mis::run_simple(g, params, cfg).unwrap();
                assert_eq!(report.solution.as_selection().unwrap(), &direct, "{name}");
                assert_eq!(metrics, &lm, "{name} metrics");
            }
            "mis2" => {
                let g = instance.graph().unwrap();
                let params = MisParams::mis2(g.n(), cfg.mu, cfg.seed);
                let (direct, lm) = mis::run_fast(g, params, cfg).unwrap();
                assert_eq!(report.solution.as_selection().unwrap(), &direct, "{name}");
                assert_eq!(metrics, &lm, "{name} metrics");
            }
            "clique" => {
                let g = instance.graph().unwrap();
                let params = MisParams::mis2(g.n(), cfg.mu, cfg.seed);
                let (direct, lm) = clique::run(g, params, cfg).unwrap();
                assert_eq!(report.solution.as_selection().unwrap(), &direct, "{name}");
                assert_eq!(metrics, &lm, "{name} metrics");
            }
            "vertex-colouring" => {
                let g = instance.graph().unwrap();
                let kappa = group_count(g.n(), g.m(), cfg.mu);
                let limit = paper_edge_limit(g.n(), cfg.mu);
                let (direct, lm) = colouring::run_vertex(g, kappa, limit, cfg).unwrap();
                assert_eq!(report.solution.as_colouring().unwrap(), &direct, "{name}");
                assert_eq!(metrics, &lm, "{name} metrics");
            }
            "edge-colouring" => {
                let g = instance.graph().unwrap();
                let kappa = group_count(g.n(), g.m(), cfg.mu);
                let limit = paper_edge_limit(g.n(), cfg.mu);
                let (direct, lm) = colouring::run_edge(g, kappa, limit, cfg).unwrap();
                assert_eq!(report.solution.as_colouring().unwrap(), &direct, "{name}");
                assert_eq!(metrics, &lm, "{name} metrics");
            }
            other => panic!("workload for unknown algorithm {other}"),
        }
    }
}

#[test]
fn rlr_and_mr_backends_of_the_same_driver_agree() {
    // Rlr runs the same driver on one unmetered machine, and a driver's
    // coins do not depend on the machine count, so for identical seeds
    // the solutions are bit-identical (only the Mr report carries
    // metrics).
    let registry = Registry::with_defaults();
    for (name, instance, cfg) in workloads() {
        let rlr = registry
            .solve_with(name, Backend::Rlr, &instance, &cfg)
            .unwrap_or_else(|e| panic!("{name} rlr: {e}"));
        let mr = registry
            .solve_with(name, Backend::Mr, &instance, &cfg)
            .unwrap_or_else(|e| panic!("{name} mr: {e}"));
        assert_eq!(rlr.solution, mr.solution, "{name}: rlr vs mr diverged");
        assert!(rlr.metrics.is_none(), "{name}: rlr backend has no cluster");
        assert!(mr.metrics.is_some(), "{name}: mr backend must meter");
    }
}

#[test]
fn shard_backend_matches_mr_bit_for_bit() {
    // The label contract: `Backend::Mr` is the cluster run on the
    // config's runtime, which with `MRLR_BACKEND` unset is the in-process
    // engine `Backend::Shard` pins — so per key the two Reports are equal
    // in everything but the `backend` tag (and host wall-clock). The
    // equivalence test above then ties both to the direct `run` entry
    // points.
    let registry = Registry::with_defaults();
    for (name, instance, cfg) in workloads() {
        if std::env::var_os("MRLR_BACKEND").is_none() {
            assert_eq!(cfg.exec.runtime, RuntimeKind::Shard, "{name}");
        }
        let mr = registry
            .solve_with(name, Backend::Mr, &instance, &cfg)
            .unwrap_or_else(|e| panic!("{name} mr: {e}"));
        let shard = registry
            .solve_with(name, Backend::Shard, &instance, &cfg)
            .unwrap_or_else(|e| panic!("{name} shard: {e}"));
        assert_eq!((mr.backend, shard.backend), (Backend::Mr, Backend::Shard));
        assert_eq!(shard.algorithm, mr.algorithm);
        assert_eq!(shard.solution, mr.solution, "{name}: shard vs mr diverged");
        assert_eq!(
            shard.certificate, mr.certificate,
            "{name}: certificates diverged"
        );
        assert_eq!(shard.metrics, mr.metrics, "{name}: metrics diverged");
    }
}

#[test]
fn seq_backend_is_feasible_everywhere() {
    // Seq twins run different (deterministic reference) algorithms, so no
    // bit-equivalence — but every solution must pass the same validator.
    let registry = Registry::with_defaults();
    for (name, instance, cfg) in workloads() {
        let seq = registry
            .solve_with(name, Backend::Seq, &instance, &cfg)
            .unwrap_or_else(|e| panic!("{name} seq: {e}"));
        assert!(seq.certificate.feasible, "{name}: seq solution infeasible");
    }
}

#[test]
fn reports_are_uniform_across_the_registry() {
    let registry = Registry::with_defaults();
    for (name, instance, cfg) in workloads() {
        let report = registry.solve(name, &instance, &cfg).unwrap();
        assert_eq!(report.algorithm, name);
        assert!(report.certificate.feasible, "{name}");
        assert!(report.certificate.objective >= 0.0, "{name}");
        if let Some(ratio) = report.certificate.certified_ratio {
            // Every certified ratio upper-bounds an approximation factor;
            // structural-guarantee problems (MIS, clique, colourings)
            // report None instead.
            assert!(ratio.is_finite() && ratio >= 1.0 - 1e-9, "{name}: {ratio}");
        }
        assert!(report.rounds() > 0, "{name}: cluster run took no rounds");
        assert!(!report.certificate.detail.is_empty(), "{name}");
    }
}
