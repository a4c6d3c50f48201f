//! Model-conformance and observability integration: every algorithm's
//! cluster shape is audited against the MRC/MPC side conditions of §1.3
//! and the per-round detail agrees with the run's totals.

use mrlr::core::mr::{matching, set_cover, MrConfig};
use mrlr::graph::generators;
use mrlr::mapreduce::{ComputeModel, Enforcement};
use mrlr::setsys::generators as setgen;

/// The matching driver's auto-configuration must satisfy the MPC space
/// regime (`S = O(N/M)` with constant slack, sublinear per-machine memory).
/// Sublinearity is asymptotic — `MrConfig::auto`'s constant slack dominates
/// toy inputs — so the audit runs at production scale (counts only; no
/// graph is materialized) and the execution check runs at test scale.
#[test]
fn matching_cluster_shape_is_mpc_conformant() {
    // Audit at scale: n = 200k vertices, c = 0.5, µ = 0.1.
    let n = 200_000usize;
    let m = (n as f64).powf(1.5) as usize;
    let cfg = MrConfig::auto(n, m, 0.1, 5);
    let input_words = 3 * m + n;
    let model = ComputeModel::Mpc { slack: 80.0 };
    let check = model.check(input_words, &cfg.cluster());
    assert!(check.ok, "violations: {:?}", check.violations);

    // Execute at test scale: the run must fit its Strict capacity.
    let n = 90usize;
    let g = generators::with_uniform_weights(&generators::densified(n, 0.5, 7), 1.0, 9.0, 1);
    let cfg = MrConfig::auto(n, g.m(), 0.3, 5);
    let (r, metrics) = matching::run(&g, cfg).unwrap();
    assert!(!r.matching.is_empty());
    assert!(metrics.peak_machine_words <= cfg.capacity);
    assert!(metrics.peak_central_words <= cfg.capacity);
}

/// The MRC audit (machines ≤ slack·N^δ, capacity ≤ slack·N^{1−δ}) holds
/// for the paper's standing graph regime across a (c, µ) sweep.
#[test]
fn paper_regime_is_mrc_conformant_across_sweep() {
    use mrlr::mapreduce::paper_graph_regime;
    for &(n, c, mu) in &[
        (500usize, 0.5f64, 0.2f64),
        (1000, 0.4, 0.15),
        (2000, 0.3, 0.1),
    ] {
        let (machines, capacity, fanout) = paper_graph_regime(n, c, mu);
        let records = (n as f64).powf(1.0 + c) as usize;
        let delta = (c - mu) / (1.0 + c);
        let cfg = mrlr::mapreduce::ClusterConfig::new(machines, capacity).with_fanout(fanout);
        let check = ComputeModel::Mrc { delta, slack: 4.0 }.check(records, &cfg);
        assert!(
            check.ok,
            "n={n} c={c} mu={mu}: violations {:?}",
            check.violations
        );
    }
}

/// The per-round records itemise the run's totals, and each round is
/// attributed to a superstep that ran.
#[test]
fn per_round_detail_agrees_with_metrics() {
    let sys = setgen::bounded_frequency(50, 700, 3, 3);
    let cfg = MrConfig::auto(50, 700, 0.3, 9);
    let (_, metrics) = set_cover::run(&sys, cfg).unwrap();
    let rounds = &metrics.per_round;
    assert_eq!(rounds.len(), metrics.rounds);
    let words: usize = rounds.iter().map(|r| r.total).sum();
    assert_eq!(words, metrics.total_message_words);
    let ran = 1..=metrics.supersteps;
    assert!(rounds.iter().all(|r| ran.contains(&r.superstep)));
}

/// Record-enforcement runs of a deliberately undersized cluster must report
/// violations while still computing the correct answer (the simulator's
/// measurement mode), and the violation count must appear in the metrics.
#[test]
fn record_mode_reports_but_does_not_corrupt() {
    let g = generators::with_uniform_weights(&generators::densified(60, 0.5, 12), 1.0, 9.0, 3);
    let good = MrConfig::auto(60, g.m(), 0.3, 7);
    let (reference, _) = matching::run(&g, good).unwrap();
    let tiny = good.with_capacity(50).recording();
    let (r, metrics) = matching::run(&g, tiny).unwrap();
    assert_eq!(
        r.matching, reference.matching,
        "record mode changed the answer"
    );
    assert!(
        !metrics.violations.is_empty(),
        "50-word machines must violate"
    );
    assert_eq!(metrics.capacity, 50);
    assert!(metrics.space_utilization() > 1.0);
    // Strict mode on the same shape fails instead.
    let strict = good.with_capacity(50);
    assert_eq!(strict.enforcement, Enforcement::Strict);
    assert!(matching::run(&g, strict).is_err());
}
