//! The headline property of the implementation: a key's solution does not
//! depend on how many machines its cluster driver runs on. All randomness
//! is hash-derived from the seed and record ids, never from placement, so
//! distributing the data changes *where* work happens but not *what* is
//! computed. Each key is run through the registry's `Rlr` backend (its
//! one driver on one unmetered machine) and on `Shard` at 1, 3 and the
//! auto machine count, and the whole `Solution` must match: covers and
//! their duals, matchings and their local-ratio stacks, selections and
//! colourings.

use mrlr::core::api::{BMatchingInstance, Backend, Instance, Registry, VertexWeightedGraph};
use mrlr::core::mr::{matching, MrConfig};
use mrlr::graph::{generators, Graph};
use mrlr::mapreduce::DetRng;
use mrlr::setsys::generators as setgen;
use mrlr::setsys::SetSystem;

/// Asserts that `key` returns the same `Solution` on `Rlr` and on `Shard`
/// at 1, 3 and `cfg.machines` machines. One or three machines cannot hold
/// these instances within the model's capacities, so those runs record
/// capacity rather than enforce it; the auto machine count enforces it.
fn assert_machine_count_independent(key: &str, instance: &Instance, cfg: &MrConfig) {
    let registry = Registry::with_defaults();
    let reference = registry
        .solve_with(key, Backend::Rlr, instance, cfg)
        .unwrap_or_else(|e| panic!("{key} on rlr: {e}"))
        .solution;
    let shapes = [
        cfg.with_machines(1).recording(),
        cfg.with_machines(3).recording(),
        *cfg,
    ];
    for shape in shapes {
        let machines = shape.machines;
        let report = registry
            .solve_with(key, Backend::Shard, instance, &shape)
            .unwrap_or_else(|e| panic!("{key} on {machines} machines: {e}"));
        assert_eq!(
            report.solution, reference,
            "{key} on {machines} machines differs from rlr"
        );
    }
}

/// `densified(300, 0.7, seed)` with weights in `[1, 9)`.
fn dense_graph(seed: u64) -> Graph {
    generators::with_uniform_weights(&generators::densified(300, 0.7, seed), 1.0, 9.0, seed)
}

fn b_matching_instance(g: Graph) -> Instance {
    let b = (0..g.n()).map(|v| 1 + (v % 3) as u32).collect();
    Instance::BMatching(BMatchingInstance::new(g, b, 0.25))
}

/// Both set-system families: bounded frequency (Algorithm 1's regime) and
/// bounded set size (Algorithm 3's).
fn cover_families() -> [SetSystem; 2] {
    [
        setgen::with_uniform_weights(setgen::bounded_frequency(50, 900, 3, 1), 1.0, 6.0, 2),
        setgen::with_uniform_weights(setgen::bounded_set_size(300, 80, 10, 3), 1.0, 5.0, 3),
    ]
}

/// The local-ratio stack is part of the solution: it must not depend on
/// the machine count either. At µ = 0.1 the central pass pushes hundreds
/// of edges, each recording `m_e = w_e − ϕ(u) − ϕ(v)`, so an endpoint
/// order that varied between drivers would show in the last bit of some
/// `m_e`.
#[test]
fn matching_equivalence_across_machine_counts() {
    let g = dense_graph(1);
    let cfg = Instance::Graph(g.clone()).auto_config(0.1, 1);
    assert_machine_count_independent("matching", &Instance::Graph(g.clone()), &cfg);
    let instance = b_matching_instance(g);
    assert_machine_count_independent("b-matching", &instance, &instance.auto_config(0.1, 1));
}

#[test]
fn set_cover_equivalence_across_machine_counts() {
    for sys in cover_families() {
        let instance = Instance::SetSystem(sys);
        let cfg = instance.auto_config(0.35, 9);
        assert_machine_count_independent("set-cover-f", &instance, &cfg);
    }
    let g = dense_graph(2);
    let mut rng = DetRng::new(2);
    let weights = (0..g.n()).map(|_| rng.f64_range(1.0, 10.0)).collect();
    let instance = Instance::VertexWeighted(VertexWeightedGraph::new(g, weights));
    assert_machine_count_independent("vertex-cover", &instance, &instance.auto_config(0.3, 2));
}

#[test]
fn mis_equivalence_across_machine_counts() {
    let instance = Instance::Graph(dense_graph(7));
    let cfg = instance.auto_config(0.3, 7);
    for key in ["mis1", "mis2", "clique"] {
        assert_machine_count_independent(key, &instance, &cfg);
    }
}

#[test]
fn hungry_set_cover_equivalence() {
    for sys in cover_families() {
        let instance = Instance::SetSystem(sys);
        let cfg = instance.auto_config(0.45, 31);
        assert_machine_count_independent("set-cover-greedy", &instance, &cfg);
    }
}

/// All ten keys on one graph and both cover families, at the µ where
/// every key fits the model's capacities at the auto machine count.
#[test]
fn every_key_is_independent_of_the_machine_count() {
    let g = dense_graph(3);
    let graph = Instance::Graph(g.clone());
    let cfg = graph.auto_config(0.3, 3);
    for key in [
        "matching",
        "mis1",
        "mis2",
        "clique",
        "vertex-colouring",
        "edge-colouring",
    ] {
        assert_machine_count_independent(key, &graph, &cfg);
    }
    let weights = g.degrees().iter().map(|&d| 1.0 + d as f64).collect();
    let vertex_weighted = Instance::VertexWeighted(VertexWeightedGraph::new(g.clone(), weights));
    assert_machine_count_independent("vertex-cover", &vertex_weighted, &cfg);
    assert_machine_count_independent("b-matching", &b_matching_instance(g), &cfg);
    for sys in cover_families() {
        let instance = Instance::SetSystem(sys);
        let cfg = instance.auto_config(0.3, 3);
        for key in ["set-cover-f", "set-cover-greedy"] {
            assert_machine_count_independent(key, &instance, &cfg);
        }
    }
}

#[test]
fn different_seeds_usually_differ() {
    let g = generators::with_uniform_weights(&generators::densified(70, 0.45, 3), 1.0, 9.0, 4);
    // eta small enough that the sampling path runs (m = 474 >> 4*eta).
    let base = MrConfig::auto(70, g.m(), 0.3, 1);
    let (a, _) = matching::run(&g, MrConfig { eta: 30, ..base }).unwrap();
    let (b, _) = matching::run(
        &g,
        MrConfig {
            eta: 30,
            seed: 2,
            ..base
        },
    )
    .unwrap();
    // Not a hard guarantee, but over this instance the samples diverge.
    assert!(
        a.matching != b.matching || a.iterations != b.iterations,
        "two seeds produced identical runs — suspicious"
    );
}
