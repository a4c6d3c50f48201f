//! The headline property of the implementation: for identical seeds, the
//! MapReduce implementations and the in-memory randomized drivers produce
//! bit-identical solutions — all randomness is hash-derived and
//! partition-stable, so distributing the data changes *where* work happens
//! but not *what* is computed.

use mrlr::core::hungry::{hungry_set_cover, mis_fast, HungryScParams, MisParams};
use mrlr::core::mr::{matching, mis, set_cover, set_cover_greedy, MrConfig};
use mrlr::core::rlr::{approx_max_matching, approx_set_cover_f};
use mrlr::graph::generators;
use mrlr::setsys::generators as setgen;

#[test]
fn matching_equivalence_across_machine_counts() {
    // The same instance distributed over 1, 3 and 7 machines must give the
    // same matching as the in-memory driver.
    let g = generators::with_uniform_weights(&generators::densified(70, 0.45, 3), 1.0, 9.0, 4);
    let base = MrConfig::auto(70, g.m(), 0.3, 5);
    let seq = approx_max_matching(&g, base.eta, 5).unwrap();
    for machines in [1usize, 3, 7] {
        let cfg = base.with_machines(machines);
        let (mr, _) = matching::run(&g, cfg).unwrap();
        assert_eq!(mr.matching, seq.matching, "machines = {machines}");
        assert_eq!(mr.iterations, seq.iterations);
    }
}

#[test]
fn set_cover_equivalence_across_machine_counts() {
    let sys = setgen::with_uniform_weights(setgen::bounded_frequency(50, 900, 3, 1), 1.0, 6.0, 2);
    let base = MrConfig::auto(50, 900, 0.35, 9);
    let seq = approx_set_cover_f(&sys, base.eta, 9).unwrap();
    for machines in [1usize, 4, 9] {
        let cfg = base.with_machines(machines);
        let (mr, _) = set_cover::run(&sys, cfg).unwrap();
        assert_eq!(mr.cover, seq.cover, "machines = {machines}");
    }
}

#[test]
fn mis_equivalence_across_machine_counts() {
    let g = generators::densified(80, 0.4, 7);
    let params = MisParams::mis2(80, 0.3, 7);
    let seq = mis_fast(&g, params).unwrap();
    for machines in [1usize, 2, 5] {
        let cfg = MrConfig::auto(80, g.m(), 0.3, 7).with_machines(machines);
        let (mr, _) = mis::run_fast(&g, params, cfg).unwrap();
        assert_eq!(mr.vertices, seq.vertices, "machines = {machines}");
    }
}

#[test]
fn hungry_set_cover_equivalence() {
    let sys = setgen::with_uniform_weights(setgen::bounded_set_size(300, 80, 10, 3), 1.0, 5.0, 3);
    let params = HungryScParams::new(80, 0.45, 0.2, 31);
    let (seq, _) = hungry_set_cover(&sys, params).unwrap();
    for machines in [1usize, 6] {
        let cfg = MrConfig::auto(80, sys.total_size(), 0.45, 31).with_machines(machines);
        let (mr, _, _) = set_cover_greedy::run(&sys, params, cfg).unwrap();
        assert_eq!(mr.cover, seq.cover, "machines = {machines}");
    }
}

#[test]
fn different_seeds_usually_differ() {
    let g = generators::with_uniform_weights(&generators::densified(70, 0.45, 3), 1.0, 9.0, 4);
    // eta small enough that the sampling path runs (m = 474 >> 4*eta).
    let a = approx_max_matching(&g, 30, 1).unwrap();
    let b = approx_max_matching(&g, 30, 2).unwrap();
    // Not a hard guarantee, but over this instance the samples diverge.
    assert!(
        a.matching != b.matching || a.iterations != b.iterations,
        "two seeds produced identical runs — suspicious"
    );
}
