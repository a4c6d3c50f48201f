//! Property-based tests of `Cluster::gather_payload`: model-based
//! round-trips against nested `Vec<(H, Vec<T>)>` traffic, staged through
//! both the slice and the writer-handle APIs, with empty payloads in
//! the mix — gathered messages and their order checked against the
//! model across threads {1, 4}, and `Metrics` word accounting against
//! an equivalent `gather` of `(H, Vec<T>)` tuple messages on the same
//! runtime.

use proptest::prelude::*;

use mrlr_mapreduce::cluster::{Cluster, ClusterConfig};
use mrlr_mapreduce::{Metrics, PayloadSink, RuntimeKind};

/// One staged message: (source machine, head, variable-size payload).
type Staged = (usize, u64, Vec<u64>);

type Gathered = Vec<(u64, Vec<u64>)>;

/// The specification: the central machine receives every message
/// grouped by sender machine id ascending, preserving each sender's
/// send order — repeated identically every superstep.
fn model(machines: usize, staged: &[Staged], supersteps: usize) -> Vec<Gathered> {
    let round: Gathered = (0..machines)
        .flat_map(|src| staged.iter().filter(move |m| m.0 == src))
        .map(|(_, h, p)| (*h, p.clone()))
        .collect();
    vec![round; supersteps]
}

fn cluster(threads: usize, machines: usize) -> Cluster<Vec<u64>> {
    let cfg = ClusterConfig::new(machines, 1 << 20)
        .with_runtime(RuntimeKind::Shard)
        .with_threads(threads);
    Cluster::new(cfg, vec![Vec::new(); machines]).unwrap()
}

/// Gathers the traffic through pooled payload sinks, alternating the
/// slice and the writer-handle staging APIs so both paths see every
/// shape (including empty payloads).
fn run_payload(
    threads: usize,
    machines: usize,
    staged: &[Staged],
    supersteps: usize,
) -> (Vec<Gathered>, Metrics) {
    let mut cluster = cluster(threads, machines);
    let rounds = (0..supersteps)
        .map(|_| {
            let batch = cluster
                .gather_payload(|id, _s, sink: &mut PayloadSink<u64, u64>| {
                    for (i, (src, head, payload)) in staged.iter().enumerate() {
                        if *src != id {
                            continue;
                        }
                        if i % 2 == 0 {
                            sink.push_slice(*head, payload);
                        } else {
                            let mut w = sink.begin(*head);
                            for &e in payload {
                                w.push(e);
                            }
                        }
                    }
                })
                .unwrap();
            batch.iter().map(|(h, p)| (h, p.to_vec())).collect()
        })
        .collect();
    (rounds, cluster.into_parts().1)
}

/// The same traffic as owned `(head, Vec<T>)` tuple messages through
/// `gather`: the reference whose word accounting the payload gather
/// must reproduce exactly.
fn run_nested(machines: usize, staged: &[Staged], supersteps: usize) -> (Vec<Gathered>, Metrics) {
    let mut cluster = cluster(1, machines);
    let rounds = (0..supersteps)
        .map(|_| {
            cluster
                .gather(|id, _s| {
                    staged
                        .iter()
                        .filter(|m| m.0 == id)
                        .map(|(_, h, p)| (*h, p.clone()))
                        .collect()
                })
                .unwrap()
        })
        .collect();
    (rounds, cluster.into_parts().1)
}

proptest! {
    /// Round-trip vs the nested model: the payload gather at 1 and 4
    /// threads returns exactly the modelled messages in the modelled
    /// order, and its `Metrics` match the `(H, Vec<T>)` tuple reference
    /// run word for word — a payload message meters head + 1 +
    /// elements, the same as the tuple shape it stands for.
    #[test]
    fn gather_payload_matches_the_nested_model(
        machines in 1usize..6,
        staged in proptest::collection::vec(
            (
                0usize..6,
                any::<u64>(),
                proptest::collection::vec(any::<u64>(), 0..5),
            ),
            0..40,
        ),
    ) {
        let staged: Vec<Staged> = staged
            .into_iter()
            .map(|(s, h, p)| (s % machines, h, p))
            .collect();
        // Two supersteps so the second one runs entirely on recycled
        // pooled sink buffers.
        let want = model(machines, &staged, 2);
        let (nested, nested_metrics) = run_nested(machines, &staged, 2);
        prop_assert_eq!(&nested, &want, "tuple gather diverged from model");
        for threads in [1usize, 4] {
            let (got, metrics) = run_payload(threads, machines, &staged, 2);
            prop_assert_eq!(&got, &want, "payload gather diverged from model at t{}", threads);
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
        pairs in proptest::collection::vec((0usize..5, any::<u64>()), 0..30),
    ) {
        let staged: Vec<Staged> = pairs
            .into_iter()
            .map(|(s, h)| (s % machines, h, Vec::new()))
            .collect();
        let want = model(machines, &staged, 1);
        let (nested, nested_metrics) = run_nested(machines, &staged, 1);
        prop_assert_eq!(&nested, &want);
        let (got, metrics) = run_payload(4, machines, &staged, 1);
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(&metrics, &nested_metrics);
    }
}
