//! Property-based tests of the simulator substrate: RNG laws, bitset
//! equivalence to a model, tree-depth monotonicity, and conservation of
//! messages through `exchange`.

use proptest::prelude::*;

use mrlr_mapreduce::bitset::Bitset;
use mrlr_mapreduce::cluster::{tree_depth, Cluster, ClusterConfig};
use mrlr_mapreduce::rng::{coin, mix_tags, DetRng};

proptest! {
    #[test]
    fn range_is_bounded_and_deterministic(seed in any::<u64>(), n in 1u64..1_000_000) {
        let mut a = DetRng::new(seed);
        let mut b = DetRng::new(seed);
        for _ in 0..16 {
            let x = a.range(n);
            prop_assert!(x < n);
            prop_assert_eq!(x, b.range(n));
        }
    }

    #[test]
    fn shuffle_is_permutation(seed in any::<u64>(), len in 0usize..200) {
        let mut xs: Vec<usize> = (0..len).collect();
        DetRng::new(seed).shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..len).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_distinct(seed in any::<u64>(), n in 0usize..100, k in 0usize..120) {
        let s = DetRng::new(seed).sample_indices(n, k);
        prop_assert_eq!(s.len(), k.min(n));
        let mut t = s.clone();
        t.sort_unstable();
        t.dedup();
        prop_assert_eq!(t.len(), k.min(n));
        prop_assert!(s.iter().all(|&i| i < n));
    }

    #[test]
    fn coin_is_stable_and_monotone_in_p(seed in any::<u64>(), tag in any::<u64>()) {
        // Same inputs, same answer.
        prop_assert_eq!(coin(seed, &[tag], 0.5), coin(seed, &[tag], 0.5));
        // p = 0 never, p = 1 always.
        prop_assert!(!coin(seed, &[tag], 0.0));
        prop_assert!(coin(seed, &[tag], 1.0));
        // Monotone: if it fires at p, it fires at any p' >= p.
        if coin(seed, &[tag], 0.3) {
            prop_assert!(coin(seed, &[tag], 0.7));
        }
    }

    #[test]
    fn mix_tags_injective_in_practice(a in any::<u64>(), b in any::<u64>()) {
        prop_assume!(a != b);
        prop_assert_ne!(mix_tags(1, &[a]), mix_tags(1, &[b]));
    }

    #[test]
    fn bitset_matches_model(ops in proptest::collection::vec((0usize..200, any::<bool>()), 0..100)) {
        let mut bs = Bitset::new(200);
        let mut model = [false; 200];
        for (i, set) in ops {
            if set {
                bs.set(i);
                model[i] = true;
            } else {
                bs.clear(i);
                model[i] = false;
            }
        }
        prop_assert_eq!(bs.count(), model.iter().filter(|&&b| b).count());
        let ones: Vec<usize> = bs.iter_ones().collect();
        let expect: Vec<usize> = (0..200).filter(|&i| model[i]).collect();
        prop_assert_eq!(ones, expect);
    }

    #[test]
    fn tree_depth_monotone(machines in 1usize..10_000, fanout in 2usize..64) {
        let d = tree_depth(machines, fanout);
        // More machines never need fewer hops.
        prop_assert!(tree_depth(machines + 1, fanout) >= d);
        // Bigger fan-out never needs more hops.
        prop_assert!(tree_depth(machines, fanout + 1) <= d);
        // Coverage really is achieved: (fanout+1)^d >= machines.
        let mut reach = 1usize;
        for _ in 0..d {
            reach = reach.saturating_mul(fanout + 1);
        }
        prop_assert!(reach >= machines);
    }

    #[test]
    fn exchange_conserves_messages(
        machines in 1usize..8,
        sends in proptest::collection::vec((0usize..8, 0usize..8, any::<u32>()), 0..50),
    ) {
        let sends: Vec<(usize, usize, u32)> = sends
            .into_iter()
            .map(|(s, d, v)| (s % machines, d % machines, v))
            .collect();
        let states: Vec<Vec<u64>> = (0..machines).map(|_| Vec::new()).collect();
        let mut cluster = Cluster::new(ClusterConfig::new(machines, 1 << 20), states).unwrap();
        let sends2 = sends.clone();
        cluster
            .exchange::<u32, _, _>(
                move |id, _s, out| {
                    for &(src, dst, v) in &sends2 {
                        if src == id {
                            out.send(dst, v);
                        }
                    }
                },
                |_, s, inbox| {
                    for &v in inbox.iter() {
                        s.push(v as u64);
                    }
                },
            )
            .unwrap();
        let received: usize = (0..machines).map(|i| cluster.state(i).len()).sum();
        prop_assert_eq!(received, sends.len());
        prop_assert_eq!(cluster.metrics().total_message_words, sends.len());
        prop_assert_eq!(cluster.rounds(), 1);
    }
}
