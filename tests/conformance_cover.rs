//! Figure 1's approximation ratios for the cover family and b-matching,
//! asserted through the registry on every backend it lists for each key
//! — `dist` included, with in-process workers — against `core::exact`
//! optima on instances small enough to solve exactly. The three cluster
//! backends must also return identical reports.

use mrlr::core::api::{
    BMatchingInstance, Backend, Instance, Registry, Report, Solution, VertexWeightedGraph,
    DEFAULT_GREEDY_SC_EPS,
};
use mrlr::core::exact;
use mrlr::core::seq::{b_matching_multiplier, harmonic};
use mrlr::graph::generators;
use mrlr::mapreduce::DetRng;
use mrlr::setsys::generators as setgen;

const SEEDS: u64 = 12;

/// How a key's objective compares with the optimum.
enum Bound {
    /// Minimisation: `objective ≤ ratio · OPT`.
    AtMost(f64),
    /// Maximisation: `ratio · objective ≥ OPT`.
    AtLeastOver(f64),
}

/// One small instance of `key` per seed, its exact optimum, and the
/// ratio Figure 1 states for it.
fn case(key: &str, seed: u64) -> (Instance, f64, Bound) {
    match key {
        "vertex-cover" => {
            let g = generators::with_uniform_weights(
                &generators::gnm(12, 24, seed),
                1.0,
                9.0,
                seed ^ 0xab,
            );
            let mut rng = DetRng::new(seed);
            let w: Vec<f64> = (0..g.n()).map(|_| rng.f64_range(1.0, 9.0)).collect();
            let (opt, _) = exact::min_weight_vertex_cover(&g, &w);
            let instance = Instance::VertexWeighted(VertexWeightedGraph::new(g, w));
            (instance, opt, Bound::AtMost(2.0))
        }
        "set-cover-f" => {
            let sys = setgen::with_uniform_weights(
                setgen::bounded_frequency(10, 18, 3, seed),
                1.0,
                5.0,
                seed,
            );
            let (opt, _) = exact::min_weight_set_cover(&sys).unwrap();
            let f = sys.max_frequency() as f64;
            (Instance::SetSystem(sys), opt, Bound::AtMost(f))
        }
        "set-cover-greedy" => {
            let sys = setgen::with_uniform_weights(
                setgen::bounded_set_size(14, 16, 6, seed),
                1.0,
                4.0,
                seed,
            );
            let (opt, _) = exact::min_weight_set_cover(&sys).unwrap();
            let ratio = (1.0 + DEFAULT_GREEDY_SC_EPS) * harmonic(sys.max_set_size());
            (Instance::SetSystem(sys), opt, Bound::AtMost(ratio))
        }
        "b-matching" => {
            let g = generators::with_uniform_weights(&generators::gnm(9, 16, seed), 1.0, 7.0, seed);
            let b: Vec<u32> = (0..g.n()).map(|v| 1 + (v % 2) as u32).collect();
            let (opt, _) = exact::max_weight_b_matching(&g, &b);
            let eps = 0.25;
            let ratio = b_matching_multiplier(&b, eps);
            let instance = Instance::BMatching(BMatchingInstance::new(g, b, eps));
            (instance, opt, Bound::AtLeastOver(ratio))
        }
        other => panic!("no conformance case for {other}"),
    }
}

fn is_cluster(backend: Backend) -> bool {
    matches!(backend, Backend::Mr | Backend::Shard | Backend::Dist)
}

/// Everything but the backend label and the host wall-clock.
fn assert_same_report(a: &Report<Solution>, b: &Report<Solution>, what: &str) {
    assert_eq!(a.solution, b.solution, "{what}: solutions differ");
    assert_eq!(a.certificate, b.certificate, "{what}: certificates differ");
    assert_eq!(a.metrics, b.metrics, "{what}: metrics differ");
}

#[test]
fn cover_family_meets_figure_1_ratios_on_every_backend() {
    let registry = Registry::with_defaults();
    for key in [
        "vertex-cover",
        "set-cover-f",
        "set-cover-greedy",
        "b-matching",
    ] {
        let backends = registry.backends(key);
        assert!(backends.contains(&Backend::Dist), "{key}: no dist backend");
        for seed in 0..SEEDS {
            let (instance, opt, bound) = case(key, seed);
            // Four machines, so the cluster backends really exchange and
            // `dist` ships bytes between its workers.
            let cfg = instance.auto_config(0.4, seed).with_machines(4);
            let mut cluster: Option<Report<Solution>> = None;
            for &backend in &backends {
                let what = format!("{key} on {backend}, seed {seed}");
                let report = registry
                    .solve_with(key, backend, &instance, &cfg)
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                assert!(report.certificate.feasible, "{what}: infeasible");
                let objective = report.certificate.objective;
                match bound {
                    Bound::AtMost(ratio) => assert!(
                        objective <= ratio * opt + 1e-9,
                        "{what}: {objective} > {ratio} x OPT {opt}"
                    ),
                    Bound::AtLeastOver(ratio) => assert!(
                        ratio * objective + 1e-9 >= opt,
                        "{what}: {ratio} x {objective} < OPT {opt}"
                    ),
                }
                if is_cluster(backend) {
                    match &cluster {
                        Some(first) => assert_same_report(first, &report, &what),
                        None => cluster = Some(report),
                    }
                }
            }
            assert!(cluster.is_some(), "{key}: no cluster backend ran");
        }
    }
}
