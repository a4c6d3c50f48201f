//! Property-based tests for set systems, generators and stats.

use proptest::collection::vec;
use proptest::prelude::*;

use mrlr_setsys::generators::{
    bounded_frequency, bounded_set_size, greedy_trap, interval_cover, partition_system,
    tight_f_instance,
};
use mrlr_setsys::{frequency_histogram, set_size_histogram, system_stats, SetSystem};

/// Any unit-weight system over up to 23 elements, empty sets and
/// uncovered elements included: each set is a membership mask.
fn any_system() -> impl Strategy<Value = SetSystem> {
    (0usize..24).prop_flat_map(|m| {
        vec(vec(any::<bool>(), m), 0..10).prop_map(move |masks| {
            let sets: Vec<Vec<u32>> = masks
                .iter()
                .map(|mask| (0..m as u32).filter(|&j| mask[j as usize]).collect())
                .collect();
            SetSystem::unit(m, sets)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bounded_frequency_invariants(n in 2usize..30, m in 1usize..200, f in 1usize..5, seed in any::<u64>()) {
        let f = f.min(n);
        let sys = bounded_frequency(n, m, f, seed);
        prop_assert!(sys.is_coverable());
        prop_assert!(sys.max_frequency() <= f);
        prop_assert_eq!(sys.n_sets(), n);
        prop_assert_eq!(sys.universe(), m);
        // The histogram agrees with max_frequency and covers all m elements.
        let hist = frequency_histogram(&sys);
        prop_assert_eq!(hist.len(), sys.max_frequency() + 1);
        prop_assert_eq!(hist.iter().sum::<usize>(), m);
        prop_assert_eq!(hist[0], 0, "coverable system has no frequency-0 elements");
    }

    #[test]
    fn bounded_set_size_invariants(n in 2usize..40, m in 1usize..60, delta in 1usize..10, seed in any::<u64>()) {
        let delta = delta.min(m);
        let sys = bounded_set_size(n, m, delta, seed);
        prop_assert!(sys.is_coverable());
        // The repair path only exceeds delta when every set is saturated,
        // and then inserts into a current-minimum set — so the overflow is
        // balanced: at most ceil(m/n) repairs land on any one set.
        prop_assert!(
            sys.max_set_size() <= delta + m.div_ceil(n),
            "max {} > delta {} + ceil(m/n) {}",
            sys.max_set_size(), delta, m.div_ceil(n)
        );
        let hist = set_size_histogram(&sys);
        prop_assert_eq!(hist.iter().sum::<usize>(), sys.n_sets());
    }

    #[test]
    fn partition_and_tight_f_shapes(m in 2usize..60, k in 1usize..8) {
        let parts = k.min(m);
        let p = partition_system(m, parts, 3);
        prop_assert_eq!(p.total_size(), m);
        prop_assert_eq!(p.max_frequency(), 1);
        let f = k;
        let t = tight_f_instance(m, f);
        prop_assert_eq!(t.max_frequency(), f);
        prop_assert_eq!(t.n_sets(), f);
        prop_assert!(t.covers(&[0]));
    }

    #[test]
    fn interval_cover_contiguity(n in 1usize..20, m in 1usize..120, len in 1usize..15, seed in any::<u64>()) {
        let sys = interval_cover(n, m, len, seed);
        prop_assert!(sys.is_coverable());
        prop_assert!(sys.max_set_size() <= len);
        for set in sys.sets().iter() {
            for w in set.windows(2) {
                prop_assert_eq!(w[0] + 1, w[1]);
            }
        }
    }

    #[test]
    fn stats_are_internally_consistent(n in 1usize..25, m in 1usize..100, f in 1usize..4, seed in any::<u64>()) {
        let f = f.min(n);
        let sys = bounded_frequency(n, m, f, seed);
        let s = system_stats(&sys);
        prop_assert_eq!(s.total_size, sys.total_size());
        prop_assert!(s.mean_set_size <= s.max_set_size as f64 + 1e-9);
        prop_assert!(s.mean_frequency <= s.max_frequency as f64 + 1e-9);
        prop_assert!(s.weight_spread >= 1.0 - 1e-12);
        prop_assert!(s.coverable);
        // Double-counting identity: Σ|S_i| = Σ_j freq(j).
        let hist = frequency_histogram(&sys);
        let by_freq: usize = hist.iter().enumerate().map(|(k, c)| k * c).sum();
        prop_assert_eq!(by_freq, s.total_size);
    }

    #[test]
    fn greedy_trap_always_has_cheap_optimum(m in 2usize..64) {
        let sys = greedy_trap(m, 0.25);
        prop_assert!(sys.covers(&[0]));
        prop_assert!((sys.cover_weight(&[0]) - 1.25).abs() < 1e-9);
        // The singletons alone also cover, at harmonic cost.
        let singles: Vec<u32> = (1..=m as u32).collect();
        prop_assert!(sys.covers(&singles));
        let h: f64 = (1..=m).map(|k| 1.0 / k as f64).sum();
        prop_assert!((sys.cover_weight(&singles) - h).abs() < 1e-6);
    }

    #[test]
    fn dual_and_frequency_facts_agree_with_a_recount(sys in any_system()) {
        let dual = sys.dual();
        prop_assert!(std::ptr::eq(dual, sys.dual()), "the dual is built once");
        prop_assert_eq!(dual.rows(), sys.universe());
        let mut freq = Vec::new();
        for j in 0..sys.universe() as u32 {
            let holders: Vec<u32> = (0..sys.n_sets() as u32)
                .filter(|&i| sys.set(i).contains(&j))
                .collect();
            prop_assert_eq!(&dual[j as usize], holders.as_slice());
            freq.push(holders.len());
        }
        prop_assert_eq!(sys.max_frequency(), freq.iter().copied().max().unwrap_or(0));
        prop_assert_eq!(sys.is_coverable(), freq.iter().all(|&k| k > 0));
        let mut hist = vec![0usize; sys.max_frequency() + 1];
        for k in freq {
            hist[k] += 1;
        }
        prop_assert_eq!(frequency_histogram(&sys), hist);
    }

    #[test]
    fn a_built_dual_is_not_part_of_the_value(sys in any_system()) {
        let unbuilt = sys.clone();
        sys.dual();
        prop_assert_eq!(&sys, &unbuilt);
        prop_assert_eq!(&unbuilt, &sys);
    }
}
