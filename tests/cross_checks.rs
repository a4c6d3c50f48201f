//! Cross-algorithm consistency checks and failure-injection tests.

use mrlr::core::hungry::MisParams;
use mrlr::core::mr::{colouring, matching, mis, set_cover, MrConfig};
use mrlr::core::verify;
use mrlr::graph::{generators, Graph, VertexId};
use mrlr::mapreduce::MrError;
use mrlr::setsys::generators as setgen;

/// Appendix B's premise, checked directly: our maximal clique is a maximal
/// independent set of the explicitly complemented graph (which we *can*
/// build at test scale).
#[test]
fn clique_is_mis_of_complement() {
    for seed in 0..6 {
        let g = generators::gnp(30, 0.5, seed);
        let params = MisParams::mis2(30, 0.4, seed);
        let cfg = MrConfig::auto(30, g.m().max(1), 0.4, seed);
        let (clique, _) = mrlr::core::mr::clique::run(&g, params, cfg).unwrap();
        assert!(verify::is_maximal_clique(&g, &clique.vertices));

        // Build the complement explicitly.
        let mut pairs = Vec::new();
        let adj = g.adjacency();
        for u in 0..30u32 {
            for v in (u + 1)..30u32 {
                if !adj[u as usize].iter().any(|&(w, _)| w == v) {
                    pairs.push((u, v));
                }
            }
        }
        let complement = Graph::from_pairs(30, &pairs);
        assert!(
            verify::is_maximal_independent_set(&complement, &clique.vertices),
            "seed {seed}"
        );
    }
}

/// Weak LP duality on the same unweighted graph: any matching size is a
/// lower bound for any vertex cover size.
#[test]
fn matching_lower_bounds_vertex_cover() {
    for seed in 0..6 {
        let g = generators::densified(60, 0.4, seed);
        let cfg = MrConfig::auto(60, g.m(), 0.3, seed);
        let (matching, _) = matching::run(&g.unweighted(), cfg).unwrap();
        let w = vec![1.0; 60];
        let (cover, _) = mrlr::core::mr::vertex_cover::run(&g, &w, cfg).unwrap();
        assert!(
            matching.matching.len() <= cover.cover.len(),
            "seed {seed}: matching {} > cover {}",
            matching.matching.len(),
            cover.cover.len()
        );
    }
}

/// An independent set never collides with a colour class boundary: all
/// vertices of a colour class form an independent set, and the MIS must be
/// at least as large as n / num_colours for some class.
#[test]
fn colour_classes_are_independent_sets() {
    let g = generators::densified(80, 0.4, 3);
    let cfg = MrConfig::auto(80, g.m(), 0.3, 3);
    let (colouring, _) = colouring::run_vertex(&g, 4, usize::MAX, cfg).unwrap();
    let max_colour = *colouring.colours.iter().max().unwrap();
    for colour in 0..=max_colour {
        let class: Vec<VertexId> = (0..80u32)
            .filter(|&v| colouring.colours[v as usize] == colour)
            .collect();
        assert!(verify::is_independent_set(&g, &class), "colour {colour}");
    }
    let (mis, _) = mis::run_fast(&g, MisParams::mis2(80, 0.3, 3), cfg).unwrap();
    // A maximal IS is at least as large as the biggest class-lower-bound
    // argument requires at least one vertex; sanity-check non-triviality.
    assert!(!mis.vertices.is_empty());
}

#[test]
fn capacity_failures_are_typed_not_wrong() {
    let g = generators::densified(60, 0.5, 1);
    let cramped = MrConfig::auto(60, g.m(), 0.3, 1).with_capacity(25);
    match matching::run(&g, cramped) {
        Err(MrError::CapacityExceeded { capacity, used, .. }) => {
            assert_eq!(capacity, 25);
            assert!(used > 25);
        }
        other => panic!("expected capacity failure, got {other:?}"),
    }

    let sys = setgen::bounded_frequency(40, 700, 2, 2);
    let cramped = MrConfig::auto(40, 700, 0.3, 2).with_capacity(10);
    assert!(matches!(
        set_cover::run(&sys, cramped),
        Err(MrError::CapacityExceeded { .. })
    ));
}

#[test]
fn infeasible_instances_are_rejected_before_any_rounds() {
    let sys = mrlr::setsys::SetSystem::unit(5, vec![vec![0, 1], vec![2]]);
    let cfg = MrConfig::auto(5, 5, 0.3, 1);
    assert!(matches!(
        set_cover::run(&sys, cfg),
        Err(MrError::Infeasible(_))
    ));
}

/// Record-mode lets the same run continue and report violations instead of
/// failing — used by the space-measurement experiments.
#[test]
fn record_mode_measures_instead_of_failing() {
    let g = generators::densified(60, 0.5, 1);
    let cramped = MrConfig::auto(60, g.m(), 0.3, 1)
        .with_capacity(25)
        .recording();
    let (r, metrics) = matching::run(&g, cramped).unwrap();
    assert!(verify::is_matching(&g, &r.matching));
    assert!(!metrics.violations.is_empty());
    assert!(metrics.peak_machine_words > 25);
}
