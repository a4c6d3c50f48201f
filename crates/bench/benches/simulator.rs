//! Micro-benchmarks of the cluster simulator substrate itself: exchange
//! and broadcast-tree.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

use mrlr_mapreduce::cluster::{Cluster, ClusterConfig};

fn bench_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for machines in [8usize, 32] {
        group.bench_with_input(
            BenchmarkId::new("exchange_allpairs", machines),
            &machines,
            |b, &mm| {
                b.iter(|| {
                    let states: Vec<Vec<u64>> = (0..mm).map(|i| vec![i as u64; 64]).collect();
                    let mut cluster =
                        Cluster::new(ClusterConfig::new(mm, 1 << 20), states).unwrap();
                    cluster
                        .exchange::<u64, _, _>(
                            |id, _s, out| {
                                for dst in 0..mm {
                                    out.send(dst, id as u64);
                                }
                            },
                            |_, s, inbox| {
                                s.push(inbox.len() as u64);
                            },
                        )
                        .unwrap();
                    cluster.rounds()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("broadcast_tree", machines),
            &machines,
            |b, &mm| {
                b.iter(|| {
                    let states: Vec<Vec<u64>> = (0..mm).map(|_| vec![0u64]).collect();
                    let cfg = ClusterConfig::new(mm, 1 << 20).with_fanout(4);
                    let mut cluster = Cluster::new(cfg, states).unwrap();
                    cluster.broadcast_words(1024).unwrap()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_primitives);
criterion_main!(benches);
