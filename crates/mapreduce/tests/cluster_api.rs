//! Behavioural suite of the cluster primitives on the in-process
//! runtime ([`RuntimeKind::Shard`]; `tests/dist_engine.rs` holds `Dist`
//! to the same observables): the facade's metering, delivery-order,
//! budget-enforcement and determinism contracts. The bit-identity of
//! every executor and thread count over a mixed workload is asserted at
//! the end.

use std::sync::Arc;

use mrlr_mapreduce::cluster::{Cluster, ClusterConfig, Enforcement, MachineState};
use mrlr_mapreduce::error::{CapacityKind, MrError};
use mrlr_mapreduce::executor::{executor_for, ThreadPoolExecutor};
use mrlr_mapreduce::metrics::Metrics;
use mrlr_mapreduce::superstep::RuntimeKind;

#[derive(Debug)]
struct VecState(Vec<u64>);
impl MachineState for VecState {
    fn words(&self) -> usize {
        self.0.len()
    }
}

/// A cluster shape pinned to the in-process runtime, whatever
/// `MRLR_BACKEND` says.
fn config(machines: usize, cap: usize) -> ClusterConfig {
    ClusterConfig::new(machines, cap).with_runtime(RuntimeKind::Shard)
}

fn cluster_with(machines: usize, cap: usize) -> Cluster<VecState> {
    let states = (0..machines).map(|i| VecState(vec![i as u64])).collect();
    Cluster::new(config(machines, cap), states).unwrap()
}

#[test]
fn local_costs_no_round() {
    let mut c = cluster_with(4, 100);
    c.local(|id, s| s.0.push(id as u64)).unwrap();
    assert_eq!(c.rounds(), 0);
    assert_eq!(c.state(2).0, vec![2, 2]);
}

#[test]
fn exchange_delivers_in_sender_order() {
    let mut c = cluster_with(3, 100);
    c.exchange::<(u64, u64), _, _>(
        |id, _s, out| {
            // everyone sends (id, id*10) to machine 0
            out.send(0, (id as u64, id as u64 * 10));
        },
        |id, s, inbox| {
            if id == 0 {
                for &(src, val) in inbox.iter() {
                    s.0.push(src);
                    s.0.push(val);
                }
            }
        },
    )
    .unwrap();
    assert_eq!(c.rounds(), 1);
    assert_eq!(c.state(0).0, vec![0, 0, 0, 1, 10, 2, 20]);
}

#[test]
fn exchange_meters_words() {
    let mut c = cluster_with(2, 100);
    c.exchange::<u64, _, _>(
        |id, _s, out| {
            if id == 1 {
                for _ in 0..5 {
                    out.send(0, 7);
                }
            }
        },
        |_, _, _| {},
    )
    .unwrap();
    let m = c.metrics();
    assert_eq!(m.total_message_words, 5);
    assert_eq!(m.peak_out_words, 5);
    assert_eq!(m.peak_in_words, 5);
}

#[test]
fn outbox_capacity_enforced() {
    let mut c = cluster_with(2, 4);
    let err = c
        .exchange::<u64, _, _>(
            |id, _s, out| {
                if id == 0 {
                    for _ in 0..10 {
                        out.send(1, 1);
                    }
                }
            },
            |_, _, _| {},
        )
        .unwrap_err();
    match err {
        MrError::CapacityExceeded { kind, used, .. } => {
            assert_eq!(kind, CapacityKind::Outbox);
            assert_eq!(used, 10);
        }
        other => panic!("unexpected error {other:?}"),
    }
}

#[test]
fn state_capacity_enforced_after_local() {
    let mut c = cluster_with(2, 3);
    let err = c
        .local(|_, s| s.0.extend_from_slice(&[1, 2, 3, 4]))
        .unwrap_err();
    assert!(matches!(
        err,
        MrError::CapacityExceeded {
            kind: CapacityKind::State,
            ..
        }
    ));
}

#[test]
fn record_mode_logs_instead_of_failing() {
    let cfg = config(2, 3).with_enforcement(Enforcement::Record);
    let states = (0..2).map(|i| VecState(vec![i as u64])).collect();
    let mut c = Cluster::new(cfg, states).unwrap();
    c.local(|_, s| s.0.extend_from_slice(&[1, 2, 3, 4]))
        .unwrap();
    assert!(!c.metrics().violations.is_empty());
    assert!(c.metrics().peak_machine_words >= 5);
}

#[test]
fn gather_returns_in_machine_order() {
    let mut c = cluster_with(4, 100);
    let got = c.gather(|id, _s| vec![id as u64, 100 + id as u64]).unwrap();
    assert_eq!(got, vec![0, 100, 1, 101, 2, 102, 3, 103]);
    assert_eq!(c.rounds(), 1);
    assert!(c.metrics().peak_central_words >= 8);
}

#[test]
fn gather_overflow_detected() {
    let mut c = cluster_with(4, 5);
    let err = c.gather(|_, _| vec![0u64, 0, 0]).unwrap_err();
    assert!(matches!(
        err,
        MrError::CapacityExceeded {
            kind: CapacityKind::CentralGather,
            ..
        }
    ));
}

#[test]
fn broadcast_counts_tree_rounds() {
    let cfg = config(100, 1000).with_fanout(9);
    let states = (0..100).map(|i| VecState(vec![i as u64])).collect();
    let mut c = Cluster::new(cfg, states).unwrap();
    let rounds = c.broadcast_words(10).unwrap();
    // coverage: 1 -> 10 -> 100, two hops
    assert_eq!(rounds, 2);
    assert_eq!(c.rounds(), 2);
    assert_eq!(c.metrics().total_message_words, 10 * 99);
}

#[test]
fn broadcast_hop_capacity() {
    let cfg = ClusterConfig::new(100, 50).with_fanout(9);
    let states = (0..100).map(|_| VecState(vec![])).collect();
    let mut c = Cluster::new(cfg, states).unwrap();
    // 10 words * fanout 9 = 90 > 50
    let err = c.broadcast_words(10).unwrap_err();
    assert!(matches!(
        err,
        MrError::CapacityExceeded {
            kind: CapacityKind::BroadcastHop,
            ..
        }
    ));
}

#[test]
fn aggregate_combines_deterministically() {
    let mut c = cluster_with(8, 100);
    let total = c.aggregate_sum(|id, _| id).unwrap();
    assert_eq!(total, 28);
    // one value per machine, tree fanout = machines => 1 hop
    assert_eq!(c.rounds(), 1);
    // Non-commutative combine is applied in machine order.
    let concat = c
        .aggregate(
            |id, _| vec![id as u64],
            |mut a, b| {
                a.extend(b);
                a
            },
        )
        .unwrap();
    assert_eq!(concat, vec![0, 1, 2, 3, 4, 5, 6, 7]);
}

#[test]
fn charge_central_is_budgeted() {
    let mut c = cluster_with(2, 10);
    c.charge_central(5).unwrap();
    assert!(c.charge_central(50).is_err());
}

#[test]
fn single_machine_broadcast_free() {
    let mut c = cluster_with(1, 100);
    assert_eq!(c.broadcast_words(5).unwrap(), 0);
    assert_eq!(c.rounds(), 0);
}

#[test]
fn supersteps_record_wall_clock_timings() {
    let mut c = cluster_with(4, 1000);
    c.local(|_, s| s.0.push(1)).unwrap();
    c.exchange::<u64, _, _>(|id, _, out| out.send(0, id as u64), |_, _, _| {})
        .unwrap();
    // local = 1 pass, exchange = produce + consume = 2 passes.
    assert_eq!(c.metrics().superstep_timings.len(), 3);
    for t in &c.metrics().superstep_timings {
        assert_eq!(t.tasks, 4);
        assert!(t.wall_nanos > 0);
    }
    assert!(c.metrics().total_wall_nanos() > 0);
    // Rounds carry their superstep join key (exchange was superstep 2).
    assert_eq!(c.metrics().per_round[0].superstep, 2);
}

#[test]
fn shard_rng_streams_are_schedule_independent() {
    // The shard-owned RNG is a pure function of (cluster seed, shard id):
    // identical across thread counts and draw interleavings.
    let draws = |threads: usize| -> Vec<u64> {
        let cfg = config(4, 100).with_threads(threads).with_seed(99);
        let states = (0..4).map(|i| VecState(vec![i as u64])).collect();
        let mut c: Cluster<VecState> = Cluster::new(cfg, states).unwrap();
        (0..4)
            .map(|id| c.shard_mut(id).rng_mut().next_u64())
            .collect()
    };
    let reference = draws(1);
    assert_eq!(reference.len(), 4);
    let mut distinct = reference.clone();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(distinct.len(), 4, "shard streams must differ");
    assert_eq!(draws(4), reference);
}

/// The runtime contract end-to-end: a mixed workload (local, skewed
/// exchange, gather, broadcast, aggregate) is bit-identical — states
/// and `Metrics` — across the shared 1-thread pool and fresh pools of
/// several sizes.
#[test]
fn runtimes_and_thread_counts_are_bit_identical() {
    fn workload(exec: Arc<ThreadPoolExecutor>) -> (Vec<Vec<u64>>, Metrics) {
        let machines = 16;
        let states: Vec<VecState> = (0..machines).map(|i| VecState(vec![i as u64])).collect();
        let mut c = Cluster::with_executor(config(machines, 100_000), states, exec).unwrap();
        // Skewed local work: machine i does O(i^2) pushes/pops.
        c.local(|id, s| {
            for k in 0..(id * id) as u64 {
                s.0.push(k);
            }
            s.0.truncate(id + 1);
        })
        .unwrap();
        // All-to-all exchange with value-dependent destinations.
        c.exchange::<(u64, u64), _, _>(
            |id, s, out| {
                for (j, &v) in s.0.iter().enumerate() {
                    out.send((id + j) % machines, (id as u64, v));
                }
            },
            |_, s, inbox| {
                for &(src, v) in inbox.iter() {
                    s.0.push(src * 1000 + v);
                }
            },
        )
        .unwrap();
        let gathered = c.gather(|id, s| vec![id as u64, s.0.len() as u64]).unwrap();
        c.broadcast_words(gathered.len()).unwrap();
        let sum = c.aggregate_sum(|_, s| s.0.len()).unwrap();
        c.local(move |_, s| s.0.push(sum as u64)).unwrap();
        let (states, metrics) = c.into_parts();
        (states.into_iter().map(|s| s.0).collect(), metrics)
    }

    let (seq_states, seq_metrics) = workload(executor_for(1));
    for threads in [1usize, 2, 8] {
        let (states, metrics) = workload(Arc::new(ThreadPoolExecutor::new(threads)));
        assert_eq!(states, seq_states, "states diverged ({threads} threads)");
        assert_eq!(metrics, seq_metrics, "metrics diverged ({threads} threads)");
    }
}
