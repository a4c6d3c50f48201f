//! Driver-level detail tests for every MapReduce implementation: metrics
//! structure invariants, degenerate instances, per-driver capacity
//! failures, single-machine behaviour and the paper's explicit guard
//! branches (the Lemma 6.2 `|E_i| > 13n^{1+µ}` edge limit, `η = 0`
//! rejection, infeasibility).

use mrlr::core::hungry::{HungryScParams, MisParams};
use mrlr::core::mr::{
    bmatching, clique, colouring, matching, mis, set_cover, set_cover_greedy, vertex_cover,
    MrConfig,
};
use mrlr::core::rlr::BMatchingParams;
use mrlr::graph::{generators, Graph};
use mrlr::mapreduce::{Metrics, MrError};
use mrlr::setsys::generators as setgen;
use mrlr::setsys::SetSystem;

fn structural_invariants(m: &Metrics, cfg: &MrConfig) {
    // Per-round records agree with the aggregates.
    assert_eq!(m.per_round.len(), m.rounds);
    let (ex, ga, br, ag) = m.rounds_by_kind();
    assert_eq!(ex + ga + br + ag, m.rounds);
    // Tree rounds record per-hop volume upper bounds; the aggregate total
    // is corrected to the true delivered volume, so it never exceeds the
    // per-round sum.
    let total: usize = m.per_round.iter().map(|r| r.total).sum();
    assert!(m.total_message_words <= total);
    for (i, r) in m.per_round.iter().enumerate() {
        assert_eq!(r.round, i + 1);
        assert!(r.max_out <= r.total || r.total == 0);
    }
    // Strict-mode runs never exceed capacity anywhere.
    assert!(m.peak_machine_words <= cfg.capacity);
    assert!(m.peak_central_words <= cfg.capacity);
    assert!(m.peak_out_words <= cfg.capacity);
    assert!(m.peak_in_words <= cfg.capacity);
    assert!(m.violations.is_empty(), "strict mode recorded violations");
    assert_eq!(m.machines, cfg.machines);
    assert_eq!(m.capacity, cfg.capacity);
    assert!(m.supersteps >= 1);
}

#[test]
fn metrics_invariants_hold_for_every_driver() {
    let n = 80usize;
    let g = generators::with_uniform_weights(&generators::densified(n, 0.5, 3), 1.0, 9.0, 4);
    let w: Vec<f64> = (0..n).map(|i| 1.0 + (i % 4) as f64).collect();
    let cfg = MrConfig::auto(n, g.m(), 0.3, 7);

    let (_, m) = matching::run(&g, cfg).unwrap();
    structural_invariants(&m, &cfg);
    let (_, m) = vertex_cover::run(&g, &w, cfg).unwrap();
    structural_invariants(&m, &cfg);
    let (_, m) = mis::run_simple(&g, MisParams::mis1(n, 0.3, 7), cfg).unwrap();
    structural_invariants(&m, &cfg);
    let (_, m) = mis::run_fast(&g, MisParams::mis2(n, 0.3, 7), cfg).unwrap();
    structural_invariants(&m, &cfg);
    let (_, m) = clique::run(&g, MisParams::mis2(n, 0.3, 7), cfg).unwrap();
    structural_invariants(&m, &cfg);
    let (_, m) = colouring::run_vertex(&g, 3, usize::MAX, cfg).unwrap();
    structural_invariants(&m, &cfg);
    let (_, m) = colouring::run_edge(&g, 3, usize::MAX, cfg).unwrap();
    structural_invariants(&m, &cfg);
    let b: Vec<u32> = vec![2; n];
    let params = BMatchingParams {
        eps: 0.25,
        n_mu: 2.0,
        eta: 300,
        seed: 7,
    };
    let (_, m) = bmatching::run(&g, &b, params, cfg).unwrap();
    structural_invariants(&m, &cfg);

    let sys = setgen::bounded_frequency(n, 600, 3, 5);
    let cfg_sc = MrConfig::auto(n, 600, 0.3, 7);
    let (_, m) = set_cover::run(&sys, cfg_sc).unwrap();
    structural_invariants(&m, &cfg_sc);

    let sys2 = setgen::bounded_set_size(300, 60, 8, 5);
    let hs = HungryScParams::new(60, 0.4, 0.2, 7);
    let cfg_h = MrConfig::auto(60, sys2.total_size(), 0.4, 7);
    let (_, _, m) = set_cover_greedy::run(&sys2, hs, cfg_h).unwrap();
    structural_invariants(&m, &cfg_h);
}

#[test]
fn single_machine_runs_have_no_tree_hops() {
    // With one machine, broadcast/aggregation trees have depth 0: those
    // primitives cost no rounds at all.
    let n = 50usize;
    let g = generators::with_uniform_weights(&generators::densified(n, 0.5, 1), 1.0, 5.0, 2);
    let cfg = MrConfig::auto(n, g.m(), 0.3, 3).with_machines(1);
    let (_, m) = matching::run(&g, cfg).unwrap();
    let (_, _, br, ag) = m.rounds_by_kind();
    assert_eq!(
        br + ag,
        0,
        "1-machine cluster charged {} tree rounds",
        br + ag
    );
}

#[test]
fn degenerate_instances_run_cleanly() {
    // Edgeless graph: matching/cover/MIS/colouring are all trivial.
    let g = Graph::new(10, vec![]);
    let cfg = MrConfig::auto(10, 1, 0.3, 1);
    let (r, _) = matching::run(&g, cfg).unwrap();
    assert!(r.matching.is_empty());
    let (r, _) = vertex_cover::run(&g, &[1.0; 10], cfg).unwrap();
    assert!(r.cover.is_empty());
    let (r, _) = mis::run_fast(&g, MisParams::mis2(10, 0.3, 1), cfg).unwrap();
    assert_eq!(
        r.vertices.len(),
        10,
        "all isolated vertices are independent"
    );
    // Colours are (group, within-group colour) pairs, so κ groups use up
    // to κ colours even on an edgeless graph.
    let (r, _) = colouring::run_vertex(&g, 2, usize::MAX, cfg).unwrap();
    assert!(r.num_colours <= 2);
    let (r, _) = colouring::run_edge(&g, 2, usize::MAX, cfg).unwrap();
    assert_eq!(r.num_colours, 0);

    // One-edge graph.
    let g1 = Graph::from_pairs(2, &[(0, 1)]);
    let (r, _) = matching::run(&g1, MrConfig::auto(2, 1, 0.3, 1)).unwrap();
    assert_eq!(r.matching.len(), 1);

    // Single-set cover.
    let sys = SetSystem::unit(3, vec![vec![0, 1, 2]]);
    let (r, _) = set_cover::run(&sys, MrConfig::auto(1, 3, 0.3, 1)).unwrap();
    assert_eq!(r.cover, vec![0]);
}

#[test]
fn every_driver_rejects_zero_eta() {
    let g = generators::densified(20, 0.4, 1);
    let mut cfg = MrConfig::auto(20, g.m(), 0.3, 1);
    cfg.eta = 0;
    assert!(matches!(matching::run(&g, cfg), Err(MrError::BadConfig(_))));
    assert!(matches!(
        vertex_cover::run(&g, &[1.0; 20], cfg),
        Err(MrError::BadConfig(_))
    ));
    let sys = setgen::bounded_frequency(20, 100, 2, 1);
    assert!(matches!(
        set_cover::run(&sys, cfg),
        Err(MrError::BadConfig(_))
    ));
}

#[test]
fn infeasible_cover_rejected_as_infeasible() {
    let sys = SetSystem::unit(4, vec![vec![0], vec![1]]);
    let cfg = MrConfig::auto(2, 4, 0.3, 1);
    assert!(matches!(
        set_cover::run(&sys, cfg),
        Err(MrError::Infeasible(_))
    ));
}

#[test]
fn colouring_edge_limit_guard_fires() {
    // Lemma 6.2's guard: if some group receives more than the limit of
    // edges, the algorithm fails (w.h.p. it never happens at the paper's
    // parameters; with an adversarially tiny limit it must).
    let g = generators::densified(60, 0.5, 9);
    let cfg = MrConfig::auto(60, g.m(), 0.3, 9);
    let err = colouring::run_vertex(&g, 2, 3, cfg).unwrap_err();
    assert!(
        matches!(err, MrError::AlgorithmFailed { .. }),
        "expected the Lemma 6.2 guard, got {err:?}"
    );
    let err = colouring::run_edge(&g, 2, 3, cfg).unwrap_err();
    assert!(matches!(err, MrError::AlgorithmFailed { .. }));
    // With the paper's 13 n^{1+mu} limit the guard never fires.
    let limit = (13.0 * (60f64).powf(1.3)).ceil() as usize;
    assert!(colouring::run_vertex(&g, 2, limit, cfg).is_ok());
}

#[test]
fn capacity_failures_name_the_offending_budget() {
    let n = 70usize;
    let g = generators::with_uniform_weights(&generators::densified(n, 0.5, 5), 1.0, 9.0, 6);
    let good = MrConfig::auto(n, g.m(), 0.3, 5);
    for cap in [10usize, 100, 400] {
        let tiny = good.with_capacity(cap);
        match matching::run(&g, tiny) {
            Err(MrError::CapacityExceeded { used, capacity, .. }) => {
                assert_eq!(capacity, cap);
                assert!(used > cap);
            }
            other => panic!("capacity {cap}: expected CapacityExceeded, got {other:?}"),
        }
    }
}

#[test]
fn more_machines_never_changes_iteration_count() {
    // Iterations are a property of the algorithm + seed, not the layout.
    let n = 90usize;
    let g = generators::with_uniform_weights(&generators::densified(n, 0.5, 2), 1.0, 9.0, 3);
    let base = MrConfig::auto(n, g.m(), 0.2, 11);
    let reference = matching::run(&g, base).unwrap().0.iterations;
    for machines in [2usize, 5, 13] {
        let (r, _) = matching::run(&g, base.with_machines(machines)).unwrap();
        assert_eq!(r.iterations, reference);
    }
}

#[test]
fn communication_grows_with_machines_but_rounds_stay_put() {
    // More machines = deeper broadcast trees (more rounds is allowed to a
    // point) but per-machine peaks drop; the iteration count is fixed. This
    // pins the direction of each trade-off.
    let n = 90usize;
    let g = generators::with_uniform_weights(&generators::densified(n, 0.5, 2), 1.0, 9.0, 3);
    let base = MrConfig::auto(n, g.m(), 0.2, 11);
    let (_, few) = matching::run(&g, base.with_machines(2)).unwrap();
    let (_, many) = matching::run(&g, base.with_machines(13)).unwrap();
    assert!(
        many.peak_machine_words <= few.peak_machine_words,
        "{} machines should lower per-machine load: {} vs {}",
        13,
        many.peak_machine_words,
        few.peak_machine_words
    );
}
