//! Head-to-head comparisons against the Figure 1 baseline rows: the paper's
//! claims about *who wins and by roughly what factor* (the shape of the
//! table), asserted on concrete instances.

use mrlr::baselines::{
    coreset_matching, crouch_stubbs_matching, filtering_vertex_cover, greedy_weighted_matching,
    layered_weighted_matching, luby_mis,
};
use mrlr::core::hungry::MisParams;
use mrlr::core::mr::{matching, mis, set_cover, MrConfig};
use mrlr::core::seq::greedy_set_cover;
use mrlr::core::verify::{is_matching, matching_weight};
use mrlr::graph::generators;
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

/// Our 2-approximate weighted matching should dominate the 8-approximate
/// layered filtering of [27] on weight-spread instances (Figure 1: row
/// "Theorem 5.6" vs row "[26] Y 8").
#[test]
fn randomized_local_ratio_beats_layered_filtering_on_weight() {
    let mut wins = 0usize;
    let trials = 6u64;
    for seed in 0..trials {
        let g = generators::with_log_uniform_weights(
            &generators::densified(80, 0.5, seed),
            0.5,
            256.0,
            seed + 40,
        );
        let ours = matching::run(&g, one_machine(700, seed)).unwrap().0;
        let layered = layered_weighted_matching(&g, 700, seed).unwrap();
        let lw = matching_weight(&g, &layered.matching);
        if ours.weight >= lw {
            wins += 1;
        }
        // Even when losing a coin flip, never by the 4x the guarantees
        // would allow.
        assert!(
            ours.weight * 4.0 >= lw,
            "seed {seed}: ours {} vs layered {lw}",
            ours.weight
        );
    }
    assert!(
        (wins as u64) * 2 >= trials,
        "won only {wins}/{trials} against an 8-approximation"
    );
}

/// Crouch–Stubbs (4+ε) sits between layered filtering (8) and us (2) in
/// guarantee; verify the three are all valid and our certified quality is
/// the best of the trio on average.
#[test]
fn weighted_matching_quality_ordering() {
    let mut ours_total = 0.0;
    let mut cs_total = 0.0;
    let mut layered_total = 0.0;
    for seed in 0..6 {
        let g = generators::with_log_uniform_weights(
            &generators::densified(70, 0.5, seed + 100),
            0.5,
            128.0,
            seed + 7,
        );
        let ours = matching::run(&g, one_machine(600, seed)).unwrap().0;
        let cs = crouch_stubbs_matching(&g, 0.5, 600, seed).unwrap();
        let layered = layered_weighted_matching(&g, 600, seed).unwrap();
        assert!(is_matching(&g, &ours.matching));
        assert!(is_matching(&g, &cs.matching));
        assert!(is_matching(&g, &layered.matching));
        ours_total += ours.weight;
        cs_total += cs.weight;
        layered_total += matching_weight(&g, &layered.matching);
    }
    assert!(
        ours_total >= 0.95 * cs_total,
        "ours {ours_total} vs crouch-stubbs {cs_total}"
    );
    assert!(
        ours_total >= 0.95 * layered_total,
        "ours {ours_total} vs layered {layered_total}"
    );
}

/// The 2-round coreset baseline uses few rounds but more central space and a
/// weaker guarantee; our algorithm should match or beat its weight while
/// keeping per-iteration space at η.
#[test]
fn coreset_trades_rounds_for_quality() {
    let mut ours_wins = 0usize;
    for seed in 0..5 {
        let g = generators::with_uniform_weights(
            &generators::densified(60, 0.5, seed + 200),
            1.0,
            9.0,
            seed,
        );
        let ours = matching::run(&g, one_machine(500, seed)).unwrap().0;
        let coreset = coreset_matching(&g, 6, seed).unwrap();
        assert!(is_matching(&g, &coreset.matching));
        if ours.weight >= coreset.weight {
            ours_wins += 1;
        }
        // Sanity: the coreset union really was bigger than one matching.
        assert!(coreset.union_size >= coreset.matching.len());
    }
    assert!(
        ours_wins >= 3,
        "ours won only {ours_wins}/5 vs 2-round coreset"
    );
}

/// Luby's MIS takes Θ(log n) rounds; hungry-greedy (Algorithm 6) takes
/// O(c/µ). Both must be valid; for dense-ish graphs and constant µ the
/// hungry-greedy iteration count should not exceed Luby's by more than a
/// constant, and both sides must produce maximal independent sets.
#[test]
fn mis_iteration_comparison() {
    use mrlr::core::verify::is_maximal_independent_set;
    for seed in 0..4 {
        let g = generators::densified(100, 0.5, seed + 300);
        let luby = luby_mis(&g, seed);
        let params = MisParams::mis2(100, 0.35, seed);
        let (ours, _) = mis::run_fast(&g, params, one_machine(params.eta, seed)).unwrap();
        assert!(
            is_maximal_independent_set(&g, &luby.vertices),
            "luby seed {seed}"
        );
        assert!(
            is_maximal_independent_set(&g, &ours.vertices),
            "ours seed {seed}"
        );
        // O(c/µ) with c = 0.5, µ = 0.35 ⇒ a handful of iterations.
        assert!(
            ours.iterations <= 30,
            "hungry-greedy took {}",
            ours.iterations
        );
    }
}

/// Weighted vertex cover: our f-approximation handles weights; the
/// filtering baseline is unweighted-only, so on skew-weighted instances our
/// cover should be substantially cheaper.
#[test]
fn weighted_vertex_cover_beats_unweighted_baseline_on_skew() {
    use mrlr::core::mr::{vertex_cover, MrConfig};
    let mut ours_total = 0.0;
    let mut baseline_total = 0.0;
    for seed in 0..4 {
        // Bipartite with a cheap left side and a costly right side: the
        // weighted optimum is (close to) the left side alone, which an
        // unweighted maximal-matching cover cannot see.
        let g = generators::bipartite(30, 30, 220, seed + 400);
        let weights: Vec<f64> = (0..g.n())
            .map(|i| if i < 30 { 0.1 } else { 10.0 })
            .collect();
        let cfg = MrConfig::auto(60, g.m(), 0.3, seed);
        let (ours, _) = vertex_cover::run(&g, &weights, cfg).unwrap();
        let (baseline_cover, _) = filtering_vertex_cover(&g, 500, seed).unwrap();
        let baseline_w: f64 = baseline_cover.iter().map(|&v| weights[v as usize]).sum();
        ours_total += ours.weight;
        baseline_total += baseline_w;
    }
    assert!(
        ours_total < 0.5 * baseline_total,
        "weighted LR {ours_total} vs unweighted filtering {baseline_total}"
    );
}

/// Set cover: the f-approximation (Algorithm 1) and the greedy H_Δ bound
/// behave as Figure 1 predicts on the greedy trap — greedy pays ~ln m,
/// local ratio pays ≤ f.
#[test]
fn greedy_trap_separates_the_two_set_cover_algorithms() {
    let m = 64usize;
    let sys = setgen::greedy_trap(m, 0.05);
    let opt = 1.05;
    let greedy = greedy_set_cover(&sys).unwrap();
    // Greedy falls into the trap: pays Θ(H_m) ≈ ln 64 ≈ 4.16.
    assert!(
        greedy.weight > 3.0,
        "greedy escaped the trap: {}",
        greedy.weight
    );
    // The local-ratio f-approximation: f = 2 here (big set + singleton per
    // element), so its cover costs at most 2·OPT ≈ 2.1.
    let f = sys.max_frequency() as f64;
    let lr = set_cover::run(&sys, one_machine(32, 3)).unwrap().0;
    assert!(
        lr.weight <= f * opt + 1e-9,
        "local ratio paid {} > f·OPT = {}",
        lr.weight,
        f * opt
    );
    assert!(lr.weight < greedy.weight);
}

/// Sequential greedy matching is the quality reference: our randomized
/// algorithm's *certified* ratio must be ≤ 2 while staying within a factor
/// of greedy's realized weight.
#[test]
fn certified_ratios_hold_against_greedy_reference() {
    for seed in 0..5 {
        let g = generators::with_uniform_weights(
            &generators::densified(70, 0.45, seed + 500),
            1.0,
            9.0,
            seed,
        );
        let ours = matching::run(&g, one_machine(600, seed)).unwrap().0;
        assert!(
            ours.certified_ratio(2.0) <= 2.0 + 1e-9,
            "seed {seed}: certified ratio {}",
            ours.certified_ratio(2.0)
        );
        let greedy = greedy_weighted_matching(&g);
        let gw = matching_weight(&g, &greedy);
        assert!(2.0 * ours.weight + 1e-9 >= gw, "seed {seed}");
    }
}

/// The f = 1 extreme: on a partition system the f-approximation is exact.
#[test]
fn partition_systems_are_solved_exactly() {
    let sys: SetSystem = setgen::partition_system(40, 8, 9);
    let r = set_cover::run(&sys, one_machine(16, 1)).unwrap().0;
    // Every set must be taken (each is the sole cover of its elements), and
    // the certified ratio collapses to 1.
    assert_eq!(r.cover.len(), 8);
    assert!((r.certified_ratio() - 1.0).abs() < 1e-9);
}
