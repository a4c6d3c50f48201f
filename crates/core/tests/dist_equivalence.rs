//! The acceptance contract of `Backend::Dist`: for **every** registry
//! key, the distributed runtime produces reports — solution,
//! certificate (including the re-checkable witness) and model
//! `Metrics` — bit-identical to `Backend::Shard`, at one worker and at
//! four, and still after an injected worker kill forces the master
//! through its recovery path. The recovered run's certificate audits
//! clean, exactly as `mrlr verify` would prove offline.

use mrlr_core::api::{audit_report, Backend, Instance, Registry};
use mrlr_graph::generators;
use mrlr_mapreduce::WorkerKill;

/// One instance per registry key, matching the witness-suite shapes.
fn cases() -> Vec<(&'static str, Instance)> {
    let seed = 11;
    let g = generators::with_uniform_weights(&generators::densified(30, 0.4, seed), 1.0, 9.0, seed);
    let unweighted = g.unweighted();
    let sys = mrlr_setsys::generators::with_uniform_weights(
        mrlr_setsys::generators::bounded_frequency(20, 150, 3, seed),
        1.0,
        8.0,
        seed,
    );
    let vw = mrlr_core::api::VertexWeightedGraph::new(
        g.clone(),
        (0..30).map(|v| 1.0 + v as f64).collect(),
    );
    let bm = mrlr_core::api::BMatchingInstance::new(
        g.clone(),
        (0..30).map(|v| 1 + (v % 3) as u32).collect(),
        0.25,
    );
    vec![
        ("set-cover-f", Instance::SetSystem(sys.clone())),
        ("set-cover-greedy", Instance::SetSystem(sys)),
        ("vertex-cover", Instance::VertexWeighted(vw)),
        ("matching", Instance::Graph(g.clone())),
        ("b-matching", Instance::BMatching(bm)),
        ("mis1", Instance::Graph(unweighted.clone())),
        ("mis2", Instance::Graph(unweighted.clone())),
        ("clique", Instance::Graph(unweighted)),
        ("vertex-colouring", Instance::Graph(g.clone())),
        ("edge-colouring", Instance::Graph(g)),
    ]
}

#[test]
fn every_algorithm_is_bit_identical_between_shard_and_dist() {
    let registry = Registry::with_defaults();
    let cases = cases();
    assert_eq!(cases.len(), registry.algorithms().len());
    for (key, instance) in &cases {
        // Force a multi-machine cluster: the auto regime packs these
        // small instances onto one machine, which would leave the dist
        // transport with nothing to shuffle.
        let cfg = instance.auto_config(0.4, 11).with_machines(4);
        let shard = registry
            .solve_with(key, Backend::Shard, instance, &cfg)
            .unwrap();
        for workers in [1usize, 4] {
            let dcfg = cfg.with_workers(workers);
            let dist = registry
                .solve_with(key, Backend::Dist, instance, &dcfg)
                .unwrap();
            assert_eq!(dist.backend, Backend::Dist);
            assert_eq!(
                dist.solution, shard.solution,
                "{key}: solution diverged at {workers} workers"
            );
            assert_eq!(
                dist.certificate, shard.certificate,
                "{key}: certificate diverged at {workers} workers"
            );
            assert_eq!(
                dist.metrics, shard.metrics,
                "{key}: metrics diverged at {workers} workers"
            );
            let summary = dist
                .metrics
                .as_ref()
                .and_then(|m| m.dist.as_ref())
                .expect("dist backend must attach a transport summary");
            // Requested workers are clamped so no worker owns an empty
            // shard block.
            assert_eq!(summary.workers, workers.min(cfg.machines), "{key}");
            assert!(summary.recoveries.is_empty(), "{key}: clean run recovered");
        }
    }
}

#[test]
fn killed_worker_runs_stay_bit_identical_and_audit_clean() {
    let registry = Registry::with_defaults();
    for (key, instance) in &cases() {
        let cfg = instance
            .auto_config(0.4, 11)
            .with_machines(4)
            .with_workers(2);
        let clean = registry
            .solve_with(key, Backend::Dist, instance, &cfg)
            .unwrap();
        // Arm the kill at superstep 1: the worker dies at the next
        // barrier, which every driver reaches — several of the small
        // instances degenerate to short central runs whose later
        // supersteps never come. The mid-exchange replay path is
        // exercised by the engine-level suite (`dist_engine.rs`).
        let kcfg = cfg.with_worker_kill(WorkerKill {
            worker: 1,
            superstep: 1,
        });
        let healed = registry
            .solve_with(key, Backend::Dist, instance, &kcfg)
            .unwrap();
        assert_eq!(
            healed.solution, clean.solution,
            "{key}: kill changed the solution"
        );
        assert_eq!(
            healed.certificate, clean.certificate,
            "{key}: kill changed the certificate"
        );
        assert_eq!(
            healed.metrics, clean.metrics,
            "{key}: kill changed the model metrics"
        );
        let metrics = healed.metrics.as_ref().unwrap();
        let summary = metrics.dist.as_ref().unwrap();
        assert_eq!(summary.recoveries.len(), 1, "{key}: expected one recovery");
        assert_eq!(summary.recoveries[0].worker, 1, "{key}");
        // The recovery is narrated as a note...
        assert!(
            metrics.notes().iter().any(|a| a.contains("recovery")),
            "{key}: no recovery note"
        );
        // ...and the recovered certificate re-verifies offline.
        let checks = audit_report(instance, &healed)
            .unwrap_or_else(|e| panic!("{key}: recovered report failed audit: {e}"));
        assert!(checks.len() >= 3, "{key}: too few audit checks");
    }
}
