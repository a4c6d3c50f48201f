//! Executor scaling: the same cluster run under the sequential executor
//! and 2/4/8-thread pools, on the matching and set-cover drivers.
//! Outputs and round counts are bit-identical across every row (asserted
//! before timing); what the bench measures is pure wall-clock — the
//! speedup of running machine supersteps concurrently.
//!
//! The rounds of each workload are printed alongside so the timing rows
//! can be read against the model-level cost they cover, as is the host's
//! available parallelism: on a single-CPU host the thread rows read flat
//! (concurrency without parallel hardware cannot cut wall-clock — the
//! substrate's rendezvous test proves the overlap structurally); on a
//! multi-core host the threads2/4/8 rows drop below threads1.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

use mrlr_bench::weighted_graph;
use mrlr_core::api::{Instance, Registry};
use mrlr_core::mr::MrConfig;
use mrlr_setsys::generators as setgen;

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Times `algorithm` on `instance` across thread counts, first asserting
/// the runs are bit-identical so the numbers compare equal work.
fn scale(
    c: &mut Criterion,
    registry: &Registry,
    group_name: &str,
    label: &str,
    algorithm: &str,
    instance: &Instance,
    cfg: &MrConfig,
) {
    let reference = registry
        .solve(algorithm, instance, &cfg.with_threads(1))
        .unwrap_or_else(|e| panic!("{algorithm}: {e}"));
    eprintln!(
        "# executor_scaling/{group_name}/{label}: {} rounds, {} supersteps \
         (identical at every thread count); host parallelism {}",
        reference.rounds(),
        reference.metrics.as_ref().map_or(0, |m| m.supersteps),
        std::thread::available_parallelism().map_or(1, |p| p.get()),
    );
    let mut group = c.benchmark_group(format!("executor_scaling/{group_name}"));
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for threads in THREADS {
        let cfg = cfg.with_threads(threads);
        let check = registry.solve(algorithm, instance, &cfg).unwrap();
        assert_eq!(check.solution, reference.solution, "threads = {threads}");
        assert_eq!(check.metrics, reference.metrics, "threads = {threads}");
        group.bench_with_input(
            BenchmarkId::new(format!("threads{threads}"), label),
            &threads,
            |b, _| b.iter(|| registry.solve(algorithm, instance, &cfg).unwrap()),
        );
    }
    group.finish();
}

fn bench_matching_scaling(c: &mut Criterion) {
    let registry = Registry::with_defaults();
    for n in [1000usize, 4000] {
        let g = weighted_graph(n, 0.5, 9);
        // Small µ = many machines with η-sized work each — the regime
        // where concurrent supersteps pay.
        let cfg = MrConfig::auto(n, g.m(), 0.05, 9);
        let label = format!("n{n}");
        let inst = Instance::Graph(g);
        scale(c, &registry, "matching", &label, "matching", &inst, &cfg);
    }
}

fn bench_set_cover_scaling(c: &mut Criterion) {
    let registry = Registry::with_defaults();
    for n_sets in [2000usize, 6000] {
        let elements = n_sets * 12;
        let sys = setgen::with_uniform_weights(
            setgen::bounded_frequency(n_sets, elements, 4, 9),
            1.0,
            9.0,
            9,
        );
        let cfg = MrConfig::auto(n_sets, elements, 0.05, 9);
        let label = format!("n{n_sets}");
        let inst = Instance::SetSystem(sys);
        scale(
            c,
            &registry,
            "set_cover",
            &label,
            "set-cover-f",
            &inst,
            &cfg,
        );
    }
}

criterion_group!(benches, bench_matching_scaling, bench_set_cover_scaling);
criterion_main!(benches);
