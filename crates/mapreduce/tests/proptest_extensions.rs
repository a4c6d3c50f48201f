//! Property-based tests for the trace and model extensions of the
//! simulator substrate.

use proptest::prelude::*;

use mrlr_mapreduce::metrics::{Metrics, RoundKind};
use mrlr_mapreduce::trace::Timeline;
use mrlr_mapreduce::{ClusterConfig, ComputeModel};

fn arb_metrics() -> impl Strategy<Value = Metrics> {
    proptest::collection::vec((0usize..4, 0usize..1000, 0usize..1000, 0usize..3000), 0..40)
        .prop_map(|rounds| {
            let mut m = Metrics::new(8, 10_000);
            for (k, max_out, max_in, total) in rounds {
                let kind = match k {
                    0 => RoundKind::Exchange,
                    1 => RoundKind::Gather,
                    2 => RoundKind::Broadcast,
                    _ => RoundKind::Aggregate,
                };
                m.record_round(kind, max_out, max_in, total.max(max_out).max(max_in));
            }
            m
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn timeline_is_consistent_with_any_metrics(m in arb_metrics()) {
        let t = Timeline::from_metrics(&m);
        prop_assert_eq!(t.len(), m.rounds);
        prop_assert_eq!(t.total_words(), m.total_message_words);
        // Cumulative is nondecreasing.
        let mut last = 0usize;
        for row in t.rows() {
            prop_assert!(row.cumulative >= last);
            last = row.cumulative;
        }
        // Kind summary partitions the rounds.
        prop_assert_eq!(t.summary_by_kind().iter().map(|k| k.rounds).sum::<usize>(), m.rounds);
        // CSV has exactly one line per round plus header.
        prop_assert_eq!(t.to_csv().lines().count(), m.rounds + 1);
        // Histogram covers all rounds.
        if m.rounds > 0 {
            let h = t.volume_histogram(5);
            prop_assert_eq!(h.iter().map(|&(_, _, c)| c).sum::<usize>(), m.rounds);
        }
    }

    #[test]
    fn mpc_shapes_always_pass_their_check(input in 100usize..1_000_000, machines in 1usize..64, slack_i in 10u32..50) {
        let slack = slack_i as f64 / 10.0;
        let model = ComputeModel::Mpc { slack };
        let cfg = model.shape(input, machines);
        let check = model.check(input, &cfg);
        // Sublinearity is enforced by construction; when slack ≥ machines no
        // sublinear shape can hold the input, and the only acceptable
        // violation is the total-memory one.
        for v in &check.violations {
            prop_assert!(v.contains("total memory"), "unexpected violation {v}");
        }
        if (machines as f64) > slack {
            prop_assert!(check.ok, "violations: {:?}", check.violations);
        }
    }

    #[test]
    fn mrc_shapes_always_pass_their_check(input in 100usize..1_000_000, delta_i in 1u32..9, slack_i in 10u32..50) {
        let delta = delta_i as f64 / 10.0;
        let slack = slack_i as f64 / 10.0;
        let model = ComputeModel::Mrc { delta, slack };
        let cfg = model.shape(input, 0);
        let check = model.check(input, &cfg);
        // Total memory may legitimately fall short for tiny slack·δ combos;
        // every other constraint must hold.
        for v in &check.violations {
            prop_assert!(v.contains("total memory"), "unexpected violation {v}");
        }
        let _ = cfg;
    }

    #[test]
    fn cluster_config_validation_is_total(machines in 0usize..10, capacity in 0usize..100, fanout in 0usize..10) {
        let mut cfg = ClusterConfig::new(machines.max(1), capacity.max(1));
        cfg.machines = machines;
        cfg.capacity = capacity;
        cfg.tree_fanout = fanout;
        // validate() never panics; it errs exactly when a field is degenerate.
        let ok = cfg.validate().is_ok();
        prop_assert_eq!(ok, machines >= 1 && capacity >= 1 && fanout >= 2 && cfg.central < machines);
    }
}
