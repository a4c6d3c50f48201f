//! Property-based tests of the flat payload plane: model-based
//! round-trips against nested `Vec<Vec<T>>` traffic, staged through
//! both the slice and the writer-handle APIs, with empty payloads in
//! the mix — delivered messages and delivery order checked against the
//! model across threads {1, 4}, and `Metrics` word accounting against
//! an equivalent run of `(H, Vec<T>)` tuple messages through
//! `exchange` on the same runtime.

use proptest::prelude::*;

use mrlr_mapreduce::cluster::{Cluster, ClusterConfig, Outbox};
use mrlr_mapreduce::{Metrics, PayloadOutbox, RuntimeKind};

/// One staged message: (source machine, destination machine, head,
/// variable-size payload).
type Send = (usize, usize, u64, Vec<u64>);

type Received = Vec<Vec<(u64, Vec<u64>)>>;

/// The specification: every machine receives the messages addressed to
/// it grouped by sender machine id ascending, preserving each sender's
/// send order — repeated identically every superstep.
fn model(machines: usize, sends: &[Send], supersteps: usize) -> Received {
    let mut out: Received = vec![Vec::new(); machines];
    for _ in 0..supersteps {
        for src in 0..machines {
            for (s, d, h, p) in sends {
                if *s == src {
                    out[*d].push((*h, p.clone()));
                }
            }
        }
    }
    out
}

fn cluster(threads: usize, machines: usize) -> Cluster<Vec<(u64, Vec<u64>)>> {
    let cfg = ClusterConfig::new(machines, 1 << 20)
        .with_runtime(RuntimeKind::Shard)
        .with_threads(threads);
    Cluster::new(cfg, vec![Vec::new(); machines]).unwrap()
}

/// Runs the traffic on the payload plane, alternating the slice and the
/// writer-handle staging APIs so both paths see every shape (including
/// empty payloads).
fn run_payload(
    threads: usize,
    machines: usize,
    sends: &[Send],
    supersteps: usize,
) -> (Received, Metrics) {
    let mut cluster = cluster(threads, machines);
    for _ in 0..supersteps {
        cluster
            .exchange_payload::<u64, u64, _, _>(
                |id, _s, out: &mut PayloadOutbox<u64, u64>| {
                    for (i, (src, dst, head, payload)) in sends.iter().enumerate() {
                        if *src != id {
                            continue;
                        }
                        if i % 2 == 0 {
                            out.send(*dst, *head, payload);
                        } else {
                            let mut w = out.push_payload(*dst, *head);
                            for &e in payload {
                                w.push(e);
                            }
                        }
                    }
                },
                |_, s, mut inbox| {
                    while let Some((h, p)) = inbox.next_msg() {
                        s.push((h, p.to_vec()));
                    }
                },
            )
            .unwrap();
    }
    cluster.into_parts()
}

/// The same traffic as owned `(head, Vec<T>)` tuple messages through
/// the fixed-size `exchange`: the reference whose word accounting the
/// payload plane must reproduce exactly.
fn run_nested(machines: usize, sends: &[Send], supersteps: usize) -> (Received, Metrics) {
    let mut cluster = cluster(1, machines);
    for _ in 0..supersteps {
        cluster
            .exchange::<(u64, Vec<u64>), _, _>(
                |id, _s, out: &mut Outbox<(u64, Vec<u64>)>| {
                    for (src, dst, head, payload) in sends {
                        if *src == id {
                            out.send(*dst, (*head, payload.clone()));
                        }
                    }
                },
                |_, s, inbox| {
                    for (h, p) in inbox {
                        s.push((h, p));
                    }
                },
            )
            .unwrap();
    }
    cluster.into_parts()
}

fn normalized(machines: usize, sends: Vec<Send>) -> Vec<Send> {
    sends
        .into_iter()
        .map(|(s, d, h, p)| (s % machines, d % machines, h, p))
        .collect()
}

proptest! {
    /// Round-trip vs the nested model: the payload plane at 1 and 4
    /// threads delivers exactly the modelled messages in the modelled
    /// order, and its `Metrics` match the `(H, Vec<T>)` tuple reference
    /// run word for word — a payload message meters head + 1 +
    /// elements, the same as the tuple shape it replaces.
    #[test]
    fn payload_plane_matches_the_nested_model(
        machines in 1usize..6,
        sends in proptest::collection::vec(
            (
                0usize..6,
                0usize..6,
                any::<u64>(),
                proptest::collection::vec(any::<u64>(), 0..5),
            ),
            0..40,
        ),
    ) {
        let sends = normalized(machines, sends);
        // Two supersteps so the second one runs entirely on recycled
        // pooled buffers.
        let want = model(machines, &sends, 2);
        let (nested, nested_metrics) = run_nested(machines, &sends, 2);
        prop_assert_eq!(&nested, &want, "nested plane diverged from model");
        for threads in [1usize, 4] {
            let (got, metrics) = run_payload(threads, machines, &sends, 2);
            prop_assert_eq!(&got, &want, "payload plane diverged from model at t{}", threads);
            prop_assert_eq!(
                &metrics, &nested_metrics,
                "payload metrics diverged from tuple reference at t{}", threads
            );
        }
    }

    /// All-empty payloads are a legal degenerate shape: heads arrive in
    /// order, every slice view is empty, and each message still meters
    /// its one length word.
    #[test]
    fn empty_payloads_round_trip(
        machines in 1usize..5,
        pairs in proptest::collection::vec((0usize..5, 0usize..5, any::<u64>()), 0..30),
    ) {
        let sends: Vec<Send> = pairs
            .into_iter()
            .map(|(s, d, h)| (s % machines, d % machines, h, Vec::new()))
            .collect();
        let want = model(machines, &sends, 1);
        let (nested, nested_metrics) = run_nested(machines, &sends, 1);
        prop_assert_eq!(&nested, &want);
        let (got, metrics) = run_payload(4, machines, &sends, 1);
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(&metrics, &nested_metrics);
    }
}
