//! End-to-end contract of the distributed runtime
//! ([`RuntimeKind::Dist`]): the same mixed workload as the in-process
//! runtime suite must produce bit-identical states and model `Metrics`
//! whether the shuffle runs in-process, through thread-backed dist
//! workers at any worker count, through real worker *processes*, or
//! across an injected worker kill that forces the master down its
//! recovery path.

use std::sync::Arc;

use mrlr_mapreduce::cluster::{Cluster, ClusterConfig, MachineState};
use mrlr_mapreduce::dist::{DistConfig, SpawnKind, WorkerKill};
use mrlr_mapreduce::executor::{executor_for, ThreadPoolExecutor};
use mrlr_mapreduce::metrics::Metrics;
use mrlr_mapreduce::superstep::RuntimeKind;
use mrlr_mapreduce::trace::Timeline;

#[derive(Debug)]
struct VecState(Vec<u64>);
impl MachineState for VecState {
    fn words(&self) -> usize {
        self.0.len()
    }
}

/// The same mixed workload as `cluster_api.rs`: skewed local work, a
/// value-dependent all-to-all exchange, gather, broadcast, aggregate.
fn workload(
    exec: Arc<ThreadPoolExecutor>,
    runtime: RuntimeKind,
    dist: DistConfig,
) -> (Vec<Vec<u64>>, Metrics) {
    let machines = 16;
    let states: Vec<VecState> = (0..machines).map(|i| VecState(vec![i as u64])).collect();
    let cfg = ClusterConfig::new(machines, 100_000)
        .with_runtime(runtime)
        .with_seed(7)
        .with_dist(dist);
    let mut c = Cluster::with_executor(cfg, states, exec).unwrap();
    c.local(|id, s| {
        for k in 0..(id * id) as u64 {
            s.0.push(k);
        }
        s.0.truncate(id + 1);
    })
    .unwrap();
    // Two exchanges so a mid-run kill lands inside live shuffle traffic.
    for round in 0..2u64 {
        c.exchange::<(u64, u64), _, _>(
            move |id, s, out| {
                for (j, &v) in s.0.iter().enumerate() {
                    out.send((id + j + round as usize) % machines, (id as u64, v));
                }
            },
            |_, s, inbox| {
                for &(src, v) in inbox.iter() {
                    s.0.push(src * 1000 + v);
                }
            },
        )
        .unwrap();
    }
    let gathered = c.gather(|id, s| vec![id as u64, s.0.len() as u64]).unwrap();
    c.broadcast_words(gathered.len()).unwrap();
    let sum = c.aggregate_sum(|_, s| s.0.len()).unwrap();
    c.local(move |_, s| s.0.push(sum as u64)).unwrap();
    let (states, metrics) = c.into_parts();
    (states.into_iter().map(|s| s.0).collect(), metrics)
}

fn dist_cfg(workers: usize) -> DistConfig {
    DistConfig {
        workers,
        spawn: SpawnKind::Thread,
        kills: Vec::new(),
    }
}

/// Reference run: the in-process runtime on the 1-thread pool.
fn reference() -> (Vec<Vec<u64>>, Metrics) {
    workload(executor_for(1), RuntimeKind::Shard, DistConfig::default())
}

#[test]
fn dist_runtime_is_bit_identical_to_shard_at_every_worker_count() {
    let (ref_states, ref_metrics) = reference();
    assert!(ref_metrics.dist.is_none());
    for workers in [1usize, 2, 4] {
        for threads in [1usize, 4] {
            let (states, metrics) = workload(
                Arc::new(ThreadPoolExecutor::new(threads)),
                RuntimeKind::Dist,
                dist_cfg(workers),
            );
            assert_eq!(
                states, ref_states,
                "states diverged ({workers} workers, {threads} threads)"
            );
            // `Metrics` equality ignores host-level observables (timings,
            // the dist summary), so this is the model-observable contract.
            assert_eq!(
                metrics, ref_metrics,
                "metrics diverged ({workers} workers, {threads} threads)"
            );
            let dist = metrics.dist.expect("dist runtime must attach a summary");
            assert_eq!(dist.workers, workers);
            assert_eq!(dist.shuffle.len(), workers);
            assert!(dist.recoveries.is_empty());
            // Both exchanges moved real bytes through the transport.
            assert!(dist.shuffle.iter().any(|w| w.bytes_out > 0));
            assert!(dist.shuffle.iter().all(|w| w.bytes_in > 0));
        }
    }
}

#[test]
fn killed_worker_recovers_bit_identically() {
    let (ref_states, ref_metrics) = reference();
    // Superstep 2 is the produce half of the first exchange: the worker
    // dies holding live batch traffic, exercising the replay path.
    for kill_superstep in [1usize, 2] {
        let dist = DistConfig {
            workers: 2,
            spawn: SpawnKind::Thread,
            kills: vec![WorkerKill {
                worker: 1,
                superstep: kill_superstep,
            }],
        };
        let (states, metrics) = workload(executor_for(1), RuntimeKind::Dist, dist);
        assert_eq!(states, ref_states, "kill@{kill_superstep}: states diverged");
        assert_eq!(
            metrics, ref_metrics,
            "kill@{kill_superstep}: metrics diverged"
        );
        let summary = metrics.dist.as_ref().expect("dist summary");
        assert_eq!(summary.recoveries.len(), 1, "kill@{kill_superstep}");
        let rec = &summary.recoveries[0];
        assert_eq!(rec.worker, 1);
        assert!(rec.wall_nanos > 0);
        // The recovery surfaces in the timeline narrative without
        // perturbing timeline equality against the clean run.
        let t = Timeline::from_metrics(&metrics);
        assert!(
            t.annotations().iter().any(|a| a.contains("recovery")),
            "kill@{kill_superstep}: no recovery annotation in {:?}",
            t.annotations()
        );
        assert_eq!(t, Timeline::from_metrics(&ref_metrics));
    }
}

#[test]
fn process_workers_match_thread_workers() {
    // Real OS processes: the dedicated worker binary is built by cargo
    // alongside this test and resolved through the env override.
    std::env::set_var(
        mrlr_mapreduce::dist::worker::WORKER_BIN_ENV,
        env!("CARGO_BIN_EXE_mrlr-dist-worker"),
    );
    let (ref_states, ref_metrics) = reference();
    let dist = DistConfig {
        workers: 2,
        spawn: SpawnKind::Process,
        kills: Vec::new(),
    };
    let (states, metrics) = workload(executor_for(1), RuntimeKind::Dist, dist);
    assert_eq!(states, ref_states, "process-mode states diverged");
    assert_eq!(metrics, ref_metrics, "process-mode metrics diverged");
    let summary = metrics.dist.expect("dist summary");
    assert_eq!(summary.workers, 2);
    assert!(summary.recoveries.is_empty());
}

#[test]
fn killed_process_worker_recovers() {
    std::env::set_var(
        mrlr_mapreduce::dist::worker::WORKER_BIN_ENV,
        env!("CARGO_BIN_EXE_mrlr-dist-worker"),
    );
    let (ref_states, ref_metrics) = reference();
    let dist = DistConfig {
        workers: 2,
        spawn: SpawnKind::Process,
        kills: vec![WorkerKill {
            worker: 0,
            superstep: 2,
        }],
    };
    let (states, metrics) = workload(executor_for(1), RuntimeKind::Dist, dist);
    assert_eq!(states, ref_states, "killed-process states diverged");
    assert_eq!(metrics, ref_metrics, "killed-process metrics diverged");
    let summary = metrics.dist.expect("dist summary");
    assert_eq!(summary.recoveries.len(), 1);
    assert_eq!(summary.recoveries[0].worker, 0);
}

/// One all-to-all exchange of 3 200 two-word messages per machine:
/// ~0.9 MB of batch bytes to each of two workers, so the master sends
/// each stream as at least three chunk frames before the flush.
fn heavy_exchange(runtime: RuntimeKind, dist: DistConfig) -> (Vec<Vec<u64>>, Metrics) {
    let machines = 16;
    let states: Vec<VecState> = (0..machines).map(|i| VecState(vec![i as u64])).collect();
    let cfg = ClusterConfig::new(machines, 100_000)
        .with_runtime(runtime)
        .with_seed(11)
        .with_dist(dist);
    let mut c = Cluster::with_executor(cfg, states, executor_for(1)).unwrap();
    c.exchange::<(u64, u64), _, _>(
        move |id, _, out| {
            for k in 0..3_200u64 {
                out.send((id + k as usize) % machines, (id as u64, k));
            }
        },
        |_, s, inbox| {
            for &(src, k) in inbox.iter() {
                s.0.push(src * 10_000 + k);
            }
        },
    )
    .unwrap();
    let (states, metrics) = c.into_parts();
    (states.into_iter().map(|s| s.0).collect(), metrics)
}

#[test]
fn kill_mid_exchange_replays_every_chunk_frame() {
    std::env::set_var(
        mrlr_mapreduce::dist::worker::WORKER_BIN_ENV,
        env!("CARGO_BIN_EXE_mrlr-dist-worker"),
    );
    let (ref_states, ref_metrics) = heavy_exchange(RuntimeKind::Shard, DistConfig::default());
    for spawn in [SpawnKind::Thread, SpawnKind::Process] {
        let run = |kills| {
            let dist = DistConfig {
                workers: 2,
                spawn,
                kills,
            };
            let (states, metrics) = heavy_exchange(RuntimeKind::Dist, dist);
            assert_eq!(states, ref_states, "{spawn:?}: states diverged");
            assert_eq!(metrics, ref_metrics, "{spawn:?}: metrics diverged");
            metrics.dist.expect("dist summary")
        };
        let clean = run(Vec::new());
        assert!(clean.recoveries.is_empty());
        for worker in 0..2 {
            // The exchange opens superstep 1: the worker acks the barrier,
            // arms, ingests every chunk frame and dies at the flush.
            let healed = run(vec![WorkerKill {
                worker,
                superstep: 1,
            }]);
            assert_eq!(healed.recoveries.len(), 1, "{spawn:?} worker {worker}");
            let rec = &healed.recoveries[0];
            assert_eq!((rec.worker, rec.superstep), (worker, 1));
            // The whole retained stream went out again — every chunk frame
            // and the flush, not just what was unwritten at the death.
            let retained = clean.shuffle[worker].bytes_out;
            assert!(
                retained >= 3 * (256 << 10),
                "{retained} bytes is under three chunks"
            );
            assert_eq!(rec.replayed_bytes, retained, "{spawn:?} worker {worker}");
            assert_eq!(healed.shuffle[worker].bytes_out, retained);
        }
    }
}
