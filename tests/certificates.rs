//! Approximation guarantees against *exact* optima on small instances —
//! every guarantee in Figure 1's "our results" rows, measured.

use mrlr::core::exact;
use mrlr::core::hungry::HungryScParams;
use mrlr::core::mr::{bmatching, matching, set_cover, set_cover_greedy, MrConfig};
use mrlr::core::rlr::BMatchingParams;
use mrlr::core::seq::{
    b_matching_multiplier, harmonic, local_ratio_matching, local_ratio_set_cover,
};
use mrlr::core::verify;
use mrlr::graph::generators;
use mrlr::mapreduce::{DetRng, RuntimeKind};
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

fn small_graph(seed: u64) -> mrlr::graph::Graph {
    generators::with_uniform_weights(&generators::gnm(12, 24, seed), 1.0, 9.0, seed ^ 0xab)
}

#[test]
fn matching_within_two_of_optimum() {
    for seed in 0..25 {
        let g = small_graph(seed);
        let (opt, _) = exact::max_weight_matching(&g);
        let seq = local_ratio_matching(&g);
        assert!(2.0 * seq.weight + 1e-9 >= opt, "seq seed {seed}");
        let rand = matching::run(&g, one_machine(8, seed)).unwrap().0;
        assert!(2.0 * rand.weight + 1e-9 >= opt, "rand seed {seed}");
    }
}

#[test]
fn vertex_cover_within_two_of_optimum() {
    for seed in 0..25 {
        let g = small_graph(seed);
        let mut rng = DetRng::new(seed);
        let w: Vec<f64> = (0..g.n()).map(|_| rng.f64_range(1.0, 9.0)).collect();
        let (opt, _) = exact::min_weight_vertex_cover(&g, &w);
        let sys = SetSystem::vertex_cover_of(&g, w.clone());
        let r = set_cover::run(&sys, one_machine(6, seed)).unwrap().0;
        assert!(sys.covers(&r.cover));
        assert!(
            r.weight <= 2.0 * opt + 1e-9,
            "seed {seed}: {} > 2x{}",
            r.weight,
            opt
        );
    }
}

#[test]
fn set_cover_within_f_of_optimum() {
    for seed in 0..15 {
        let sys = mrlr::setsys::generators::with_uniform_weights(
            mrlr::setsys::generators::bounded_frequency(10, 18, 3, seed),
            1.0,
            5.0,
            seed,
        );
        let (opt, _) = exact::min_weight_set_cover(&sys).unwrap();
        let f = sys.max_frequency() as f64;
        let lr = local_ratio_set_cover(&sys).unwrap();
        assert!(lr.weight <= f * opt + 1e-9, "seq seed {seed}");
        let r = set_cover::run(&sys, one_machine(4, seed)).unwrap().0;
        assert!(r.weight <= f * opt + 1e-9, "rand seed {seed}");
    }
}

#[test]
fn hungry_set_cover_within_ln_delta() {
    for seed in 0..15 {
        let sys = mrlr::setsys::generators::with_uniform_weights(
            mrlr::setsys::generators::bounded_set_size(14, 16, 6, seed),
            1.0,
            4.0,
            seed,
        );
        let (opt, _) = exact::min_weight_set_cover(&sys).unwrap();
        let eps = 0.2;
        let params = HungryScParams::new(16, 0.5, eps, seed);
        let (r, _, _) = set_cover_greedy::run(&sys, params, one_machine(1, seed)).unwrap();
        let bound = (1.0 + eps) * harmonic(sys.max_set_size());
        assert!(
            r.weight <= bound * opt + 1e-9,
            "seed {seed}: {} > {:.3} x {}",
            r.weight,
            bound,
            opt
        );
    }
}

#[test]
fn b_matching_within_bound_of_optimum() {
    for seed in 0..15 {
        let g = generators::with_uniform_weights(&generators::gnm(9, 16, seed), 1.0, 7.0, seed);
        let b: Vec<u32> = (0..g.n()).map(|v| 1 + (v % 2) as u32).collect();
        let (opt, _) = exact::max_weight_b_matching(&g, &b);
        let params = BMatchingParams {
            eps: 0.25,
            n_mu: 2.0,
            eta: 4,
            seed,
        };
        let (r, _) = bmatching::run(&g, &b, params, one_machine(params.eta, seed)).unwrap();
        assert!(verify::is_b_matching(&g, &b, &r.matching));
        let mult = b_matching_multiplier(&b, params.eps);
        assert!(mult * r.weight + 1e-9 >= opt, "seed {seed}");
    }
}

#[test]
fn lower_bound_certificates_are_sound() {
    // The duals we report really are lower bounds on OPT.
    for seed in 0..10 {
        let sys = mrlr::setsys::generators::with_uniform_weights(
            mrlr::setsys::generators::bounded_frequency(10, 18, 2, seed),
            1.0,
            5.0,
            seed,
        );
        let (opt, _) = exact::min_weight_set_cover(&sys).unwrap();
        let lr = local_ratio_set_cover(&sys).unwrap();
        assert!(
            lr.lower_bound <= opt + 1e-9,
            "dual exceeded OPT, seed {seed}"
        );
        let g = small_graph(seed);
        let (opt_m, _) = exact::max_weight_matching(&g);
        let m = local_ratio_matching(&g);
        assert!(
            2.0 * m.stack_gain + 1e-9 >= opt_m,
            "stack bound violated, seed {seed}"
        );
    }
}
