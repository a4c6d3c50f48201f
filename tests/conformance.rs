//! Figure 1's guarantees for every registry key, asserted through the
//! registry on every backend it lists for each key — `dist` included,
//! with in-process workers — on instances small enough to check against
//! an independent oracle: `core::exact` optima for the cover family and
//! the matchings, `core::verify` for maximality and proper colourings.
//! The three cluster backends must also return identical reports.
//! Matching is also run on generated `m = n^{1+c}` families, where its
//! iteration count and space are held to Theorem 5.6's bounds.

use mrlr::core::api::{
    BMatchingInstance, Backend, Instance, Registry, Report, Solution, VertexWeightedGraph,
    DEFAULT_GREEDY_SC_EPS,
};
use mrlr::core::colouring::{edge_group, vertex_group};
use mrlr::core::mr::MrConfig;
use mrlr::core::seq::{b_matching_multiplier, harmonic};
use mrlr::core::{exact, verify};
use mrlr::graph::{generators, EdgeId, Graph, VertexId};
use mrlr::mapreduce::DetRng;
use mrlr::setsys::generators as setgen;

const SEEDS: u64 = 12;

/// What Figure 1 promises for a key's solution.
enum Bound {
    /// Minimisation: `objective ≤ ratio · opt`.
    AtMost { ratio: f64, opt: f64 },
    /// Maximisation: `ratio · objective ≥ opt`.
    AtLeastOver { ratio: f64, opt: f64 },
    /// A maximal independent set of the graph.
    MaximalIndependentSet(Graph),
    /// A maximal clique of the graph.
    MaximalClique(Graph),
    /// A proper vertex (or, with `edges`, edge) colouring with at most
    /// `Σ_g (Δ_g + 1)` colours over the solution's groups.
    Colouring { g: Graph, edges: bool },
}

/// A small weighted `G(n, m)` graph for the graph-family keys.
fn small_graph(n: usize, m: usize, seed: u64) -> Graph {
    generators::with_uniform_weights(&generators::gnm(n, m, seed), 1.0, 9.0, seed ^ 0xab)
}

/// One small instance of `key` per seed and the bound Figure 1 states
/// for it, with its oracle's answer folded in.
fn case(key: &str, seed: u64) -> (Instance, Bound) {
    match key {
        "vertex-cover" => {
            let g = small_graph(12, 24, seed);
            let mut rng = DetRng::new(seed);
            let w: Vec<f64> = (0..g.n()).map(|_| rng.f64_range(1.0, 9.0)).collect();
            let (opt, _) = exact::min_weight_vertex_cover(&g, &w);
            let instance = Instance::VertexWeighted(VertexWeightedGraph::new(g, w));
            (instance, Bound::AtMost { ratio: 2.0, opt })
        }
        "set-cover-f" => {
            let sys = setgen::with_uniform_weights(
                setgen::bounded_frequency(10, 18, 3, seed),
                1.0,
                5.0,
                seed,
            );
            let (opt, _) = exact::min_weight_set_cover(&sys).unwrap();
            let ratio = sys.max_frequency() as f64;
            (Instance::SetSystem(sys), Bound::AtMost { ratio, opt })
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
            (Instance::SetSystem(sys), Bound::AtMost { ratio, opt })
        }
        "b-matching" => {
            let g = generators::with_uniform_weights(&generators::gnm(9, 16, seed), 1.0, 7.0, seed);
            let b: Vec<u32> = (0..g.n()).map(|v| 1 + (v % 2) as u32).collect();
            let (opt, _) = exact::max_weight_b_matching(&g, &b);
            let eps = 0.25;
            let ratio = b_matching_multiplier(&b, eps);
            let instance = Instance::BMatching(BMatchingInstance::new(g, b, eps));
            (instance, Bound::AtLeastOver { ratio, opt })
        }
        "matching" => {
            let g = small_graph(12, 24, seed);
            let (opt, _) = exact::max_weight_matching(&g);
            (Instance::Graph(g), Bound::AtLeastOver { ratio: 2.0, opt })
        }
        "mis1" | "mis2" => {
            let g = small_graph(14, 24, seed);
            (Instance::Graph(g.clone()), Bound::MaximalIndependentSet(g))
        }
        "clique" => {
            let g = small_graph(10, 30, seed);
            (Instance::Graph(g.clone()), Bound::MaximalClique(g))
        }
        "vertex-colouring" | "edge-colouring" => {
            // Dense enough for κ = 2 groups at µ = 0.4.
            let g = small_graph(24, 200, seed);
            let edges = key == "edge-colouring";
            (Instance::Graph(g.clone()), Bound::Colouring { g, edges })
        }
        other => panic!("no conformance case for {other}"),
    }
}

/// `Σ_g (Δ_g + 1)` over `groups` groups, where `group_of(e)` names the
/// group edge `e` counts in (`None`: in none) and `Δ_g` is the largest
/// number of group-`g` edges at one vertex.
fn colour_budget(g: &Graph, groups: usize, group_of: impl Fn(EdgeId) -> Option<usize>) -> usize {
    let mut degree = vec![0usize; g.n() * groups];
    for (e, edge) in g.edges().iter().enumerate() {
        if let Some(grp) = group_of(e as EdgeId) {
            degree[edge.u as usize * groups + grp] += 1;
            degree[edge.v as usize * groups + grp] += 1;
        }
    }
    (0..groups)
        .map(|grp| {
            let delta = (0..g.n()).map(|v| degree[v * groups + grp]).max();
            delta.unwrap_or(0) + 1
        })
        .sum()
}

/// Asserts `report` keeps the promise `bound` makes.
fn check(bound: &Bound, report: &Report<Solution>, cfg: &MrConfig, what: &str) {
    let objective = report.certificate.objective;
    let selection = || &report.solution.as_selection().expect(what).vertices;
    match bound {
        Bound::AtMost { ratio, opt } => assert!(
            objective <= ratio * opt + 1e-9,
            "{what}: {objective} > {ratio} x OPT {opt}"
        ),
        Bound::AtLeastOver { ratio, opt } => assert!(
            ratio * objective + 1e-9 >= *opt,
            "{what}: {ratio} x {objective} < OPT {opt}"
        ),
        Bound::MaximalIndependentSet(g) => assert!(
            verify::is_maximal_independent_set(g, selection()),
            "{what}: not a maximal independent set"
        ),
        Bound::MaximalClique(g) => assert!(
            verify::is_maximal_clique(g, selection()),
            "{what}: not a maximal clique"
        ),
        Bound::Colouring { g, edges } => {
            let c = report.solution.as_colouring().expect(what);
            let proper = if *edges {
                verify::is_proper_edge_colouring(g, &c.colours)
            } else {
                verify::is_proper_colouring(g, &c.colours)
            };
            assert!(proper, "{what}: improper");
            let budget = colour_budget(g, c.groups, |e| {
                if *edges {
                    return Some(edge_group(cfg.seed, e, c.groups));
                }
                let group = |v: VertexId| vertex_group(cfg.seed, v, c.groups);
                let (gu, gv) = (group(g.edge(e).u), group(g.edge(e).v));
                (gu == gv).then_some(gu)
            });
            let used = c.num_colours;
            assert!(used <= budget, "{what}: {used} > {budget} colours");
        }
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

/// Solves every seed's case of each key on every backend the registry
/// lists for it, checking each report against its bound.
fn conforms(keys: &[&str]) {
    let registry = Registry::with_defaults();
    for &key in keys {
        let backends = registry.backends(key);
        assert!(backends.contains(&Backend::Dist), "{key}: no dist backend");
        for seed in 0..SEEDS {
            let (instance, bound) = case(key, seed);
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
                check(&bound, &report, &cfg, &what);
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

#[test]
fn cover_family_meets_figure_1_ratios_on_every_backend() {
    conforms(&[
        "vertex-cover",
        "set-cover-f",
        "set-cover-greedy",
        "b-matching",
    ]);
}

#[test]
fn graph_family_meets_figure_1_bounds_on_every_backend() {
    conforms(&[
        "matching",
        "mis1",
        "mis2",
        "clique",
        "vertex-colouring",
        "edge-colouring",
    ]);
}

/// Density exponent `c` of a generated graph, from `m = n^{1+c}`
/// (measured: the generator clamps at the complete graph).
fn measured_c(g: &Graph) -> f64 {
    (g.m() as f64).ln() / (g.n() as f64).ln() - 1.0
}

/// Algorithm 4 on `densified(n, c)` families at three `µ`, through the
/// cluster driver and its in-memory mirror. The two must agree, the
/// iteration count must respect Theorem 5.6's `O(c/µ)` with the proof's
/// constant, per-machine and central space must fit the capacity, and on
/// families small enough for `exact` the matching must be within 2. The
/// small dense families sample before their central finish, so the
/// compacted rows are what those checks see.
#[test]
fn matching_meets_theorem_5_6_on_densified_families() {
    let registry = Registry::with_defaults();
    let mut sampled_and_exact = 0;
    for (n, c) in [
        (16, 0.9),
        (18, 0.9),
        (200, 0.3),
        (200, 0.5),
        (400, 0.3),
        (400, 0.5),
    ] {
        for seed in 0..2 {
            let g = generators::with_uniform_weights(
                &generators::densified(n, c, seed),
                1.0,
                9.0,
                seed ^ 0x5a,
            );
            let opt = (n <= exact::EXACT_N_LIMIT).then(|| exact::max_weight_matching(&g).0);
            let c = measured_c(&g);
            let instance = Instance::Graph(g);
            for mu in [0.1, 0.2, 0.3] {
                let what = format!("matching on densified({n}), c {c:.2}, µ {mu}, seed {seed}");
                let cfg = instance.auto_config(mu, seed);
                let solve = |backend| {
                    registry
                        .solve_with("matching", backend, &instance, &cfg)
                        .unwrap_or_else(|e| panic!("{what} on {backend}: {e}"))
                };
                let mr = solve(Backend::Mr);
                assert!(mr.certificate.feasible, "{what}: infeasible");
                // Rlr runs the same driver on one machine: the whole
                // solution, every stacked reduction included, is equal.
                let rlr = solve(Backend::Rlr);
                assert_eq!(rlr.solution, mr.solution, "{what}: Rlr != Mr");
                let got = mr.solution.as_matching().expect(&what);

                // Theorem 5.6's proof (Lemma 5.4) shrinks the alive edges
                // by a factor `n^{µ/4}` per sampled iteration w.h.p., the
                // constant `round_bounds.rs` uses too. From `m = n^{1+c}`
                // the count is below the central-finish threshold
                // `4η = 4n^{1+µ}` after at most `4(c − µ)/µ` cuts: that many
                // sampled iterations plus one, then the central finish.
                let iterations = got.iterations;
                let bound = 2 + (4.0 * (c - mu).max(0.0) / mu).floor() as usize;
                assert!(
                    iterations <= bound,
                    "{what}: {iterations} > {bound} iterations"
                );

                let metrics = mr.metrics.as_ref().expect("cluster metrics");
                let capacity = cfg.capacity;
                let (machine, central) = (metrics.peak_machine_words, metrics.peak_central_words);
                assert!(
                    machine <= capacity,
                    "{what}: machine {machine} > {capacity}"
                );
                assert!(
                    central <= capacity,
                    "{what}: central {central} > {capacity}"
                );

                if let Some(opt) = opt {
                    let objective = mr.certificate.objective;
                    assert!(
                        2.0 * objective + 1e-9 >= opt,
                        "{what}: 2 x {objective} < {opt}"
                    );
                    sampled_and_exact += usize::from(iterations >= 2);
                }
            }
        }
    }
    assert!(
        sampled_and_exact > 0,
        "no exactly solved case ran a sampled iteration"
    );
}
