//! The executor contract, asserted end-to-end over the whole registry:
//! for every algorithm key, `Backend::Mr` on 2- and 8-thread pools
//! returns **bit-identical** solutions, certificates and
//! model-level `Metrics` to the 1-thread pool on fixed seeds. Only
//! host wall-clock (`superstep_timings`, `Report::wall`) may differ —
//! and `Metrics` equality deliberately excludes it.
//!
//! `MrConfig::with_threads(1)` resolves to the shared 1-thread pool;
//! pools of 1..=8 threads driving a raw `Cluster` are covered by the
//! substrate's own tests (`mrlr_mapreduce::cluster`), so here the
//! interesting legs are the multi-thread pools behind the full drivers.

use mrlr::core::api::{BMatchingInstance, Backend, Instance, Registry, VertexWeightedGraph};
use mrlr::core::mr::{colouring, MrConfig};
use mrlr::graph::{generators, Graph};
use mrlr::mapreduce::{executor_for, DetRng, Scheduler, ThreadPoolExecutor};
use mrlr::setsys::generators as setgen;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

const SEED: u64 = 42;
const MU: f64 = 0.3;

fn graph(n: usize) -> Graph {
    generators::with_uniform_weights(&generators::densified(n, 0.45, SEED), 1.0, 9.0, SEED ^ 0x77)
}

fn vertex_weights(n: usize) -> Vec<f64> {
    let mut rng = DetRng::derive(SEED, &[0x0076_7773]);
    (0..n).map(|_| rng.f64_range(1.0, 10.0)).collect()
}

/// One workload per registry key, sized so every run takes milliseconds.
fn workloads() -> Vec<(&'static str, Instance, MrConfig)> {
    let g = graph(60);
    let gcfg = MrConfig::auto(60, g.m(), MU, SEED);
    let gu = g.unweighted();
    let sys =
        setgen::with_uniform_weights(setgen::bounded_frequency(40, 600, 3, SEED), 1.0, 8.0, SEED);
    let scfg = MrConfig::auto(40, 600, 0.5, SEED);
    let dense = generators::gnp(50, 0.5, SEED);
    let dcfg = MrConfig::auto(50, dense.m(), 0.35, SEED);
    vec![
        ("set-cover-f", Instance::SetSystem(sys.clone()), scfg),
        ("set-cover-greedy", Instance::SetSystem(sys), scfg),
        (
            "vertex-cover",
            Instance::VertexWeighted(VertexWeightedGraph::new(g.clone(), vertex_weights(60))),
            gcfg,
        ),
        ("matching", Instance::Graph(g.clone()), gcfg),
        (
            "b-matching",
            Instance::BMatching(BMatchingInstance::new(
                g.clone(),
                (0..60u32).map(|v| 1 + v % 3).collect(),
                0.25,
            )),
            gcfg,
        ),
        ("mis1", Instance::Graph(gu.clone()), gcfg),
        ("mis2", Instance::Graph(gu), gcfg),
        ("clique", Instance::Graph(dense), dcfg),
        ("vertex-colouring", Instance::Graph(g.clone()), gcfg),
        ("edge-colouring", Instance::Graph(g), gcfg),
    ]
}

#[test]
fn every_registry_key_is_bit_identical_across_thread_counts() {
    let registry = Registry::with_defaults();
    let mut keys_checked = 0usize;
    for (name, instance, cfg) in workloads() {
        let reference = registry
            .solve(name, &instance, &cfg.with_threads(1))
            .unwrap_or_else(|e| panic!("{name} seq: {e}"));
        let ref_metrics = reference.metrics.as_ref().expect("Mr backend meters");
        for threads in [2usize, 8] {
            let threaded = registry
                .solve(name, &instance, &cfg.with_threads(threads))
                .unwrap_or_else(|e| panic!("{name} x{threads}: {e}"));
            assert_eq!(
                threaded.solution, reference.solution,
                "{name}: solution diverged at {threads} threads"
            );
            assert_eq!(
                threaded.certificate, reference.certificate,
                "{name}: certificate diverged at {threads} threads"
            );
            let tm = threaded.metrics.as_ref().expect("Mr backend meters");
            assert_eq!(
                tm, ref_metrics,
                "{name}: metrics diverged at {threads} threads"
            );
            // The threaded run really did execute on a pool and recorded
            // host timings for every executor pass.
            assert_eq!(
                tm.superstep_timings.len(),
                ref_metrics.superstep_timings.len(),
                "{name}: pass count diverged at {threads} threads"
            );
            assert!(tm.total_wall_nanos() > 0, "{name}: nothing was timed");
        }
        keys_checked += 1;
    }
    // All ten registry keys must have been exercised.
    assert_eq!(keys_checked, Registry::with_defaults().algorithms().len());
}

#[test]
fn shard_backend_is_bit_identical_to_mr_for_every_key() {
    // `Backend::Shard` (the in-process runtime, pinned) returns
    // bit-identical Reports — solution, certificate (witness included)
    // and model-level Metrics — to `Backend::Mr` (whichever runtime
    // `MRLR_BACKEND` names), per registry key, at 1 and 4 executor
    // threads.
    let registry = Registry::with_defaults();
    let mut keys_checked = 0usize;
    for (name, instance, cfg) in workloads() {
        for threads in [1usize, 4] {
            let cfg = cfg.with_threads(threads);
            let mr = registry
                .solve_with(name, Backend::Mr, &instance, &cfg)
                .unwrap_or_else(|e| panic!("{name} mr x{threads}: {e}"));
            let shard = registry
                .solve_with(name, Backend::Shard, &instance, &cfg)
                .unwrap_or_else(|e| panic!("{name} shard x{threads}: {e}"));
            assert_eq!(shard.backend, Backend::Shard, "{name}");
            assert_eq!(
                shard.solution, mr.solution,
                "{name}: solution diverged on the shard runtime x{threads}"
            );
            assert_eq!(
                shard.certificate, mr.certificate,
                "{name}: certificate/witness diverged on the shard runtime x{threads}"
            );
            assert_eq!(
                shard.metrics, mr.metrics,
                "{name}: metrics diverged on the shard runtime x{threads}"
            );
        }
        keys_checked += 1;
    }
    assert_eq!(keys_checked, Registry::with_defaults().algorithms().len());
}

#[test]
fn repeated_threaded_runs_are_bit_identical_to_each_other() {
    // Beyond seq-vs-threaded: two runs on the same 4-thread pool (whose
    // schedules certainly differ) must also agree exactly.
    let registry = Registry::with_defaults();
    let g = graph(80);
    let cfg = MrConfig::auto(80, g.m(), 0.2, 7).with_threads(4);
    let inst = Instance::Graph(g);
    let a = registry.solve("matching", &inst, &cfg).unwrap();
    let b = registry.solve("matching", &inst, &cfg).unwrap();
    assert_eq!(a.solution, b.solution);
    assert_eq!(a.metrics, b.metrics);
}

#[test]
fn rlr_mr_equivalence_survives_the_thread_pool() {
    // Rlr (one machine, one thread) and Mr (the auto machine count on an
    // 8-thread pool) agree bit for bit; the executor must not perturb it.
    let registry = Registry::with_defaults();
    for (name, instance, cfg) in workloads() {
        let rlr = registry
            .solve_with(name, Backend::Rlr, &instance, &cfg)
            .unwrap_or_else(|e| panic!("{name} rlr: {e}"));
        let mr = registry
            .solve(name, &instance, &cfg.with_threads(8))
            .unwrap_or_else(|e| panic!("{name} mr x8: {e}"));
        assert_eq!(rlr.solution, mr.solution, "{name}");
    }
}

#[test]
fn idle_threads_claim_adjacent_shards() {
    // Shards 0 and 1 can only pass a rendezvous if two threads run them
    // at once — as when the colourings' busy groups sit on machines 0
    // and 1. Were they laid in one block on one thread, shard 0 would
    // give up after the timeout instead of meeting.
    let sched = Scheduler::new(Arc::new(ThreadPoolExecutor::new(2)));
    let arrived = Mutex::new(0usize);
    let signal = Condvar::new();
    let met = sched.map_ref(&[(); 8], |i, _| {
        if i > 1 {
            return true;
        }
        let mut count = arrived.lock().unwrap();
        *count += 1;
        signal.notify_all();
        let (count, _) = signal
            .wait_timeout_while(count, Duration::from_secs(5), |c| *c < 2)
            .unwrap();
        *count >= 2
    });
    assert_eq!(met, vec![true; 8]);
}

#[test]
fn colourings_with_fewer_groups_than_machines_are_thread_count_invariant() {
    // Group `g` lives on machine `g mod M`, so with `κ < M` all the
    // colouring work sits on the adjacent machines `0..κ` — the pass in
    // which idle threads claiming the next shard matters. The result and
    // the model-level `Metrics` must not notice.
    let g = generators::densified(400, 0.5, SEED);
    let cfg = MrConfig::auto(400, g.m(), 0.05, SEED);
    for kappa in [2usize, 5] {
        assert!(kappa < cfg.machines, "κ {kappa} vs M {}", cfg.machines);
        let vertex = colouring::run_vertex(&g, kappa, usize::MAX, cfg.with_threads(1)).unwrap();
        let edge = colouring::run_edge(&g, kappa, usize::MAX, cfg.with_threads(1)).unwrap();
        for threads in [2usize, 4] {
            let cfg = cfg.with_threads(threads);
            assert_eq!(
                colouring::run_vertex(&g, kappa, usize::MAX, cfg).unwrap(),
                vertex,
                "vertex colouring, κ {kappa}, {threads} threads"
            );
            assert_eq!(
                colouring::run_edge(&g, kappa, usize::MAX, cfg).unwrap(),
                edge,
                "edge colouring, κ {kappa}, {threads} threads"
            );
        }
    }
}

#[test]
fn executor_selection_resolves_threads() {
    assert_eq!(executor_for(1).name(), "threads(1)");
    assert_eq!(executor_for(4).name(), "threads(4)");
    let cfg = MrConfig::auto(20, 100, 0.3, 1);
    // Unset MRLR_THREADS (the test environment default) = sequential.
    assert!(cfg.exec.threads >= 1);
}
