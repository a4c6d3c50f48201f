//! The traced run: each workload replayed in-process, step by step,
//! through the layers' public functions, with a span around every call.
//!
//! A *step* span covers exactly what the matching `mrlr` command does
//! (read, parse, solve, commit, render, write); an *extra* span covers
//! measurements the command does not perform (the validator re-run alone,
//! the audit, a routing replay, a second backend for comparison), so the
//! sum of a pass's step spans is the in-process counterpart of `wall_s`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use mrlr_core::api::commit::chunk_count;
use mrlr_core::api::{
    self, BMatching, Backend, Claims, Commitment, EdgeColouring, Instance, Matching, MaximalClique,
    Mis, Problem, Registry, Report, SetCover, Solution, VertexColouring, VertexCover, Witness,
};
use mrlr_core::io::{self, CertificateMode, IoError, Record, RecordSink, StreamHeader, TimingMode};
use mrlr_core::mr::MrConfig;
use mrlr_mapreduce::dist::wire::encode_value;
use mrlr_mapreduce::{Cluster, ClusterConfig, Ingest, MrResult, RoundKind, RuntimeKind, SpawnKind};
use mrlr_serve::Client;

use crate::proc::{self, Bins, WorkDir};
use crate::result::RunResult;
use crate::spans::{alloc_snapshot, Recorder, Totals};
use crate::stats::{median, percentile};
use crate::untraced::{self, generate};
use crate::workloads::{Batch, Kind, Req, Solve, Step, Workload, CHUNK_LEN, SOLVE_MU};
use crate::Opts;

/// Traced repeats per workload (fewer when `--seconds` runs out first).
const REPEATS: usize = 3;

type Slot = MrResult<Report<Solution>>;

fn backend_of(name: &str) -> Backend {
    Backend::ALL
        .into_iter()
        .find(|b| b.to_string() == name)
        .expect("workloads name real backends")
}

/// The cluster regime `mrlr batch`/`mrlr solve` derive for one job.
fn job_cfg(instance: &Instance, mu: f64, seed: u64, threads: usize, backend: Backend) -> MrConfig {
    let cfg = instance.auto_config(mu, seed).with_threads(threads);
    if backend == Backend::Dist {
        cfg.with_spawn(SpawnKind::Process)
    } else {
        cfg
    }
}

/// Adds what one report says about the layers below the API to the
/// innermost open span.
fn attribute(rec: &mut Recorder, key: &str, report: &Report<Solution>) {
    let wall = report.wall.as_secs_f64();
    rec.count("api.solve_s", wall);
    rec.count(format!("api.{key}.solve_s"), wall);
    let Some(m) = &report.metrics else { return };
    let nanos = |f: fn(&mrlr_mapreduce::SuperstepTiming) -> u64| {
        m.superstep_timings.iter().map(f).sum::<u64>() as f64 / 1e9
    };
    rec.count("mr.pass_wall_s", nanos(|t| t.wall_nanos));
    rec.count("mr.pass_busy_s", nanos(|t| t.sum_machine_nanos));
    rec.count_max("mr.pass_skew_max", m.max_straggler_skew());
    rec.count("cluster.machines", m.machines as f64);
    rec.count("cluster.rounds", m.rounds as f64);
    rec.count("cluster.supersteps", m.supersteps as f64);
    rec.count("cluster.total_message_words", m.total_message_words as f64);
    rec.count_max("cluster.peak_machine_words", m.peak_machine_words as f64);
    rec.count_max("cluster.peak_central_words", m.peak_central_words as f64);
    rec.count_max("cluster.space_utilization", m.space_utilization());
    rec.count("cluster.violations", m.violations.len() as f64);
    if let Some(d) = &m.dist {
        let bytes: Vec<f64> = d
            .shuffle
            .iter()
            .map(|w| (w.bytes_out + w.bytes_in) as f64)
            .collect();
        let total: f64 = bytes.iter().sum();
        rec.count("dist.solve_s", wall);
        rec.count("dist.shuffle_s", d.shuffle_nanos as f64 / 1e9);
        rec.count("dist.shuffle_bytes", total);
        rec.count(
            "dist.batches",
            d.shuffle.iter().map(|w| w.batches).sum::<u64>() as f64,
        );
        rec.count("dist.recoveries", d.recoveries.len() as f64);
        if total > 0.0 {
            let max = bytes.iter().copied().fold(0.0, f64::max);
            rec.count_max("dist.worker_byte_skew", max * bytes.len() as f64 / total);
        }
    }
}

/// Dispatches `jobs` on `instance` the way the CLI does — `solve_with`
/// for a single `solve`, one `solve_batch_with` per instance for a
/// `batch` — inside an `api.dispatch` span that also carries the
/// allocation counts of the whole call.
fn dispatch(
    rec: &mut Recorder,
    registry: &Registry,
    backend: Backend,
    instance: &Instance,
    jobs: &[(&str, MrConfig)],
    batch: bool,
) -> Vec<Slot> {
    rec.span("api.dispatch", |rec| {
        let before = alloc_snapshot();
        let slots = if batch {
            registry
                .solve_batch_with(backend, std::slice::from_ref(instance), jobs)
                .remove(0)
        } else {
            let (key, cfg) = &jobs[0];
            vec![registry.solve_with(key, backend, instance, cfg)]
        };
        let after = alloc_snapshot();
        rec.count("mr.solve_allocs", (after.0 - before.0) as f64);
        rec.count("mr.solve_alloc_bytes", (after.1 - before.1) as f64);
        for ((key, _), slot) in jobs.iter().zip(&slots) {
            if let Ok(report) = slot {
                attribute(rec, key, report);
            }
        }
        slots
    })
}

/// The independent validator of `key`'s problem family, run alone.
fn certify_alone(key: &str, instance: &Instance, solution: &Solution) {
    match (key, instance, solution) {
        ("set-cover-f" | "set-cover-greedy", Instance::SetSystem(s), Solution::Cover(c)) => {
            black_box(SetCover::certify(s, c));
        }
        ("vertex-cover", Instance::VertexWeighted(v), Solution::Cover(c)) => {
            black_box(VertexCover::certify(v, c));
        }
        ("matching", Instance::Graph(g), Solution::Matching(m)) => {
            black_box(Matching::certify(g, m));
        }
        ("b-matching", Instance::BMatching(b), Solution::Matching(m)) => {
            black_box(BMatching::certify(b, m));
        }
        ("mis1" | "mis2", Instance::Graph(g), Solution::Selection(s)) => {
            black_box(Mis::certify(g, s));
        }
        ("clique", Instance::Graph(g), Solution::Selection(s)) => {
            black_box(MaximalClique::certify(g, s));
        }
        ("vertex-colouring", Instance::Graph(g), Solution::Colouring(c)) => {
            black_box(VertexColouring::certify(g, c));
        }
        ("edge-colouring", Instance::Graph(g), Solution::Colouring(c)) => {
            black_box(EdgeColouring::certify(g, c));
        }
        _ => panic!("registry key `{key}` does not fit its instance and solution kinds"),
    }
}

/// Replays the `Exchange` rounds a run recorded through the routing
/// plane alone: the same machine count, each round's `total` words sent
/// as uniformly addressed one-word messages, empty consumers.
/// Shape-faithful, not destination-faithful.
fn replay_router(rec: &mut Recorder, report: &Report<Solution>) {
    let Some(m) = &report.metrics else { return };
    let totals: Vec<usize> = m
        .per_round
        .iter()
        .filter(|r| r.kind == RoundKind::Exchange)
        .map(|r| r.total)
        .collect();
    if totals.is_empty() {
        return;
    }
    let machines = m.machines;
    let cfg = ClusterConfig::new(machines, usize::MAX / 4)
        .with_threads(1)
        .with_runtime(RuntimeKind::Shard);
    let mut cluster = Cluster::new(cfg, vec![(); machines]).expect("replay cluster is well formed");
    let before = alloc_snapshot().0;
    for &total in &totals {
        cluster
            .exchange::<u64, _, _>(
                |id, _, out| {
                    // Machine `id` sends its share, round-robin from itself.
                    let share = total / machines + usize::from(id < total % machines);
                    for k in 0..share {
                        out.send((id + k) % machines, k as u64);
                    }
                },
                |_, _, inbox| {
                    black_box(inbox.len());
                },
            )
            .expect("replay stays within its budget");
    }
    rec.count("router.replay_allocs", (alloc_snapshot().0 - before) as f64);
    rec.count("router.replay_rounds", totals.len() as f64);
    rec.count("router.replay_words", totals.iter().sum::<usize>() as f64);
}

/// The measurements no CLI command performs, for one solved job.
fn extras_for_report(
    rec: &mut Recorder,
    key: &str,
    instance: &Instance,
    report: &Report<Solution>,
) {
    rec.span("api.certify", |_| {
        certify_alone(key, instance, &report.solution)
    });
    rec.span("api.audit", |_| {
        black_box(api::audit_report(instance, report).is_ok())
    });
    rec.span("router.replay", |rec| replay_router(rec, report));
}

/// A sink that accepts every record and keeps nothing: `stream_records`
/// into it is the chunked tokenizer and validator alone.
struct NullSink;

impl RecordSink for NullSink {
    type Out = ();
    fn header(&mut self, _: &StreamHeader) -> Result<(), IoError> {
        Ok(())
    }
    fn record(&mut self, record: Record) -> Result<(), IoError> {
        black_box(record);
        Ok(())
    }
    fn finish(self, _: &StreamHeader) -> Result<(), IoError> {
        Ok(())
    }
}

fn stream_parse_alone(rec: &mut Recorder, input: &str) {
    rec.span("io.stream_parse", |_| {
        let file = std::fs::File::open(input).expect("instance file exists");
        black_box(io::stream_records(file, io::DEFAULT_BUF_LEN, NullSink).is_ok())
    });
}

/// `io.read` + `io.parse` of one instance file, as `mrlr` loads it.
fn load_instance(rec: &mut Recorder, path: &str) -> Result<Instance, String> {
    let text = rec
        .span("io.read", |_| std::fs::read_to_string(path))
        .map_err(|e| format!("{path}: {e}"))?;
    parse_instance(rec, &text).map_err(|e| format!("{path}: {e}"))
}

fn parse_instance(rec: &mut Recorder, text: &str) -> Result<Instance, IoError> {
    rec.span("io.parse", |rec| {
        let before = alloc_snapshot().0;
        let parsed = io::parse_instance(text);
        rec.count("io.parse_allocs", (alloc_snapshot().0 - before) as f64);
        rec.count("io.parse_bytes", text.len() as f64);
        parsed
    })
}

/// `io.render` of a document.
fn render(rec: &mut Recorder, json: impl FnOnce() -> io::Json) -> String {
    rec.span("io.render", |rec| {
        let text = json().render();
        rec.count("io.render_bytes", text.len() as f64);
        text
    })
}

fn write(rec: &mut Recorder, path: String, content: &str) -> Result<(), String> {
    rec.span("io.write", |_| std::fs::write(&path, content))
        .map_err(|e| format!("{path}: {e}"))
}

/// What a replayed step hands to the gate: the document it rendered and
/// whether every job was feasible.
struct Replayed {
    document: String,
    feasible: bool,
}

/// `mrlr solve matching --input … --format json`, full certificates.
fn replay_solve(
    rec: &mut Recorder,
    registry: &Registry,
    s: &Solve,
    idx: usize,
    seed: u64,
) -> Result<Replayed, String> {
    let (instance, report, document) = rec.span("step", |rec| {
        let instance = load_instance(rec, s.input)?;
        let cfg = job_cfg(&instance, SOLVE_MU, seed, 1, Backend::Shard);
        let report = dispatch(
            rec,
            registry,
            Backend::Shard,
            &instance,
            &[("matching", cfg)],
            false,
        )
        .remove(0)
        .map_err(|e| e.to_string())?;
        let document = render(rec, || {
            io::report_json_with(&report, TimingMode::Masked, CertificateMode::Full)
        });
        write(rec, format!("replay-{}", Step::out(idx)), &document)?;
        Ok::<_, String>((instance, report, document))
    })?;
    if rec.enabled() {
        rec.span("extra", |rec| {
            extras_for_report(rec, "matching", &instance, &report);
            rec.span("io.report_parse", |_| {
                black_box(io::parse_report(&document).is_ok())
            });
            stream_parse_alone(rec, s.input);
        });
    }
    Ok(Replayed {
        feasible: report.certificate.feasible,
        document,
    })
}

/// `mrlr solve matching --stream --certificates committed`: no text, no
/// central graph, and the witness leaves as a transcript sidecar.
fn replay_stream(rec: &mut Recorder, s: &Solve, idx: usize, seed: u64) -> Result<Replayed, String> {
    let configure =
        move |n: usize, m: usize| MrConfig::auto(n, m.max(1), SOLVE_MU, seed).with_threads(1);
    let (report, transcript, document) = rec.span("step", |rec| {
        let mut report = rec.span("ingest.stream", |rec| {
            let file = std::fs::File::open(s.input).map_err(|e| e.to_string())?;
            let before = alloc_snapshot();
            let report =
                api::solve_matching_stream(file, io::DEFAULT_BUF_LEN, Backend::Shard, configure)
                    .map_err(|e| e.to_string())?
                    .map(Solution::Matching);
            let after = alloc_snapshot();
            rec.count("mr.solve_allocs", (after.0 - before.0) as f64);
            rec.count("mr.solve_alloc_bytes", (after.1 - before.1) as f64);
            attribute(rec, "matching", &report);
            Ok::<_, String>(report)
        })?;
        let Commitment {
            witness,
            transcript,
        } = rec
            .span("api.commit", |_| {
                api::commit_witness(&report.certificate.witness, CHUNK_LEN)
            })
            .map_err(|e| e.to_string())?;
        if let Witness::Committed {
            entries, chunk_len, ..
        } = &witness
        {
            rec.count(
                "api.commit_chunks",
                chunk_count(*entries, *chunk_len) as f64,
            );
        }
        write(
            rec,
            format!("replay-{}", Step::transcript(idx)),
            &transcript,
        )?;
        report.certificate.witness = witness;
        let document = render(rec, || {
            io::report_json_with(&report, TimingMode::Masked, CertificateMode::Full)
        });
        write(rec, format!("replay-{}", Step::out(idx)), &document)?;
        Ok::<_, String>((report, transcript, document))
    })?;
    if rec.enabled() {
        rec.span("extra", |rec| {
            stream_parse_alone(rec, s.input);
            rec.span("io.report_parse", |_| {
                black_box(io::parse_report(&document).is_ok())
            });
            // The audit needs the instance the streamed path never built.
            let file = std::fs::File::open(s.input).expect("instance file exists");
            let instance =
                io::read_instance(file, io::DEFAULT_BUF_LEN).expect("generated instance parses");
            rec.span("api.audit", |_| {
                let claims = Claims::from(&report.certificate);
                let witness = &report.certificate.witness;
                black_box(
                    api::audit_committed(
                        &instance,
                        "matching",
                        &report.solution,
                        &claims,
                        witness,
                        &transcript,
                    )
                    .is_ok(),
                )
            });
            rec.span("api.certify", |_| {
                certify_alone("matching", &instance, &report.solution)
            });
            rec.span("router.replay", |rec| replay_router(rec, &report));
            // The scatter the streamed path performs, replayed on the
            // public accumulator: both halves of every edge to the
            // machine that owns the endpoint.
            if let Instance::Graph(g) = &instance {
                let cfg = configure(g.n(), g.m());
                let mut ingest = Ingest::new(cfg.machines);
                for (e, edge) in g.edges().iter().enumerate() {
                    let _ =
                        ingest.push(cfg.place(edge.u as u64), (edge.u, e as u32, edge.v, edge.w));
                    let _ =
                        ingest.push(cfg.place(edge.v as u64), (edge.v, e as u32, edge.u, edge.w));
                }
                rec.count_max("ingest.max_block_words", ingest.max_block_words() as f64);
            }
        });
    }
    Ok(Replayed {
        feasible: report.certificate.feasible,
        document,
    })
}

/// The manifest's jobs on `instance`, shaped as `mrlr batch` shapes them.
fn jobs_for(
    manifest: &io::Manifest,
    instance: &Instance,
    threads: usize,
    backend: Backend,
) -> Vec<(String, MrConfig)> {
    manifest
        .jobs
        .iter()
        .map(|j| {
            (
                j.algorithm.clone(),
                job_cfg(instance, j.mu, j.seed, threads, backend),
            )
        })
        .collect()
}

fn borrowed(jobs: &[(String, MrConfig)]) -> Vec<(&str, MrConfig)> {
    jobs.iter().map(|(key, cfg)| (key.as_str(), *cfg)).collect()
}

/// `mrlr batch <manifest> --backend … --certificates summary`.
fn replay_batch(
    rec: &mut Recorder,
    registry: &Registry,
    b: &Batch,
    idx: usize,
) -> Result<Replayed, String> {
    let backend = backend_of(b.backend);
    let (manifest, instances, results, document) = rec.span("step", |rec| {
        let manifest = rec
            .span("io.read", |_| std::fs::read_to_string(b.manifest))
            .map_err(|e| e.to_string())
            .and_then(|text| io::parse_manifest(&text).map_err(|e| e.to_string()))?;
        let mut instances = Vec::new();
        for path in &manifest.instances {
            instances.push(load_instance(rec, path)?);
        }
        let results: io::BatchResults = instances
            .iter()
            .map(|instance| {
                let jobs = jobs_for(&manifest, instance, b.threads, backend);
                dispatch(rec, registry, backend, instance, &borrowed(&jobs), true)
                    .into_iter()
                    .map(|slot| slot.map_err(|e| e.to_string()))
                    .collect()
            })
            .collect();
        let document = render(rec, || {
            io::batch_json(
                &manifest.instances,
                &manifest.jobs,
                &results,
                TimingMode::Masked,
                CertificateMode::Summary,
            )
        });
        write(rec, format!("replay-{}", Step::out(idx)), &document)?;
        Ok::<_, String>((manifest, instances, results, document))
    })?;
    if rec.enabled() {
        rec.span("extra", |rec| {
            for (instance, row) in instances.iter().zip(&results) {
                for (job, slot) in manifest.jobs.iter().zip(row) {
                    if let Ok(report) = slot {
                        extras_for_report(rec, &job.algorithm, instance, report);
                    }
                }
                // The same jobs on the comparison substrate: one thread
                // for a threaded batch, the in-process runtime for dist.
                let mut rerun = |span, key: &str, threads| {
                    let jobs = jobs_for(&manifest, instance, threads, Backend::Shard);
                    rec.span(span, |rec| {
                        let slots = registry
                            .solve_batch_with(
                                Backend::Shard,
                                std::slice::from_ref(instance),
                                &borrowed(&jobs),
                            )
                            .remove(0);
                        let wall: f64 = slots.iter().flatten().map(|r| r.wall.as_secs_f64()).sum();
                        rec.count(key, wall);
                    });
                };
                if b.threads > 1 {
                    rerun("executor.t1", "executor.t1_solve_s", 1);
                }
                if backend == Backend::Dist {
                    rerun("dist.shard", "dist.shard_solve_s", b.threads);
                }
            }
            rec.span("io.report_parse", |_| {
                black_box(io::parse_batch(&document).is_ok())
            });
        });
    }
    Ok(Replayed {
        feasible: results
            .iter()
            .flatten()
            .all(|slot| slot.as_ref().is_ok_and(|r| r.certificate.feasible)),
        document,
    })
}

/// One in-process pass over a CLI workload's commands: the documents it
/// rendered, or why a step failed or was infeasible.
fn replay_pass(
    rec: &mut Recorder,
    registry: &Registry,
    steps: &[Step],
    seed: u64,
) -> Result<Vec<String>, String> {
    let mut documents = Vec::new();
    for (idx, step) in steps.iter().enumerate() {
        let replayed = match step {
            Step::Solve(s) if s.stream => replay_stream(rec, s, idx, seed)?,
            Step::Solve(s) => replay_solve(rec, registry, s, idx, seed)?,
            Step::Batch(b) => replay_batch(rec, registry, b, idx)?,
        };
        if !replayed.feasible {
            return Err(format!("step {idx}: a replayed job is not feasible"));
        }
        documents.push(replayed.document);
    }
    Ok(documents)
}

/// The per-layer values of one replayed operation: every span name gives
/// `<name>_s`, every count its own key, and the derived metrics follow.
fn op_values(t: &Totals) -> BTreeMap<String, f64> {
    let mut v: BTreeMap<String, f64> = t.counts.clone();
    for (name, secs) in &t.seconds {
        v.insert(format!("{name}_s"), *secs);
    }
    let get = |v: &BTreeMap<String, f64>, key: &str| v.get(key).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let derived = [
        (
            "io.parse_mb_per_s",
            ratio(get(&v, "io.parse_bytes") / 1e6, get(&v, "io.parse_s")),
        ),
        (
            "mr.outside_pass_s",
            get(&v, "api.solve_s") - get(&v, "mr.pass_wall_s") - get(&v, "api.certify_s"),
        ),
        (
            "mr.allocs_per_superstep",
            ratio(get(&v, "mr.solve_allocs"), get(&v, "cluster.supersteps")),
        ),
        (
            "mr.alloc_bytes_per_superstep",
            ratio(
                get(&v, "mr.solve_alloc_bytes"),
                get(&v, "cluster.supersteps"),
            ),
        ),
        (
            "router.replay_words_per_s",
            ratio(get(&v, "router.replay_words"), get(&v, "router.replay_s")),
        ),
        (
            "router.replay_allocs_per_superstep",
            ratio(
                get(&v, "router.replay_allocs"),
                get(&v, "router.replay_rounds"),
            ),
        ),
        ("ingest.stream_total_s", get(&v, "ingest.stream_s")),
        (
            "ingest.minus_parse_s",
            if t.seconds.contains_key("ingest.stream") {
                get(&v, "ingest.stream_s") - get(&v, "io.stream_parse_s")
            } else {
                0.0
            },
        ),
        (
            "executor.speedup_t2",
            ratio(get(&v, "executor.t1_solve_s"), get(&v, "api.solve_s")),
        ),
        (
            "dist.overhead_s",
            if v.contains_key("dist.shard_solve_s") {
                get(&v, "dist.solve_s") - get(&v, "dist.shard_solve_s")
            } else {
                0.0
            },
        ),
    ];
    for (name, value) in derived {
        v.insert(name.to_string(), value);
    }
    v
}

/// Key-wise median over operations.
fn median_values(ops: &[BTreeMap<String, f64>]) -> BTreeMap<String, f64> {
    let mut keys: Vec<&String> = ops.iter().flat_map(BTreeMap::keys).collect();
    keys.sort();
    keys.dedup();
    keys.into_iter()
        .map(|key| {
            let values: Vec<f64> = ops
                .iter()
                .map(|op| op.get(key).copied().unwrap_or(0.0))
                .collect();
            (key.clone(), median(&values))
        })
        .collect()
}

/// `mrlr list` from spawn to exit: the fixed cost of starting the CLI.
fn cli_startup(bins: &Bins) -> f64 {
    let walls: Vec<f64> = (0..5)
        .filter_map(|_| proc::run(bins.mrlr().arg("list")).ok())
        .map(|u| u.wall_s)
        .collect();
    median(&walls)
}

fn run_cli(
    bins: &Bins,
    steps: &[Step],
    opts: &Opts,
    rec: &mut Recorder,
    result: &mut RunResult,
) -> Result<(), String> {
    // The real commands first: they give the wall the spans must account
    // for and the documents the replay must reproduce byte for byte.
    let warm = untraced::run_pass(bins, steps, opts.seed, false);
    result.digest = warm.digest.clone().unwrap_or_default();
    result.attempt(warm.digest.map(|_| ()));
    let cli_walls: Vec<f64> = (0..2)
        .map(|_| untraced::run_pass(bins, steps, opts.seed, false).wall_s())
        .collect();
    let cli_documents: Vec<String> = (0..steps.len())
        .map(|idx| std::fs::read_to_string(Step::out(idx)).unwrap_or_default())
        .collect();

    let registry = Registry::with_defaults();
    let started = Instant::now();
    for op in 0..REPEATS {
        rec.begin_op(op);
        let replayed = replay_pass(rec, &registry, steps, opts.seed);
        result.attempt(replayed.and_then(|documents| {
            if documents == cli_documents {
                Ok(())
            } else {
                Err("replayed document differs from the one `mrlr` wrote".to_string())
            }
        }));
        if opts.quick || started.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    // The same replay with the recorder off: the difference is what
    // tracing costs.
    let mut plain = Recorder::new(false);
    let plain_started = Instant::now();
    result.attempt(replay_pass(&mut plain, &registry, steps, opts.seed).map(|_| ()));
    let plain_wall = plain_started.elapsed().as_secs_f64();

    let ops: Vec<BTreeMap<String, f64>> = rec.totals().values().map(op_values).collect();
    result.samples = ops.len() as u64;
    result.values = median_values(&ops);
    let step_s = result.values.get("step_s").copied().unwrap_or(0.0);
    result.values.extend([
        ("cli.overhead_s".to_string(), median(&cli_walls) - step_s),
        ("trace.overhead_s".to_string(), step_s - plain_wall),
    ]);
    Ok(())
}

/// Share of draws that hit pool entry `idx` (see `untraced::draw`).
fn draw_share(idx: usize, pool: usize) -> f64 {
    0.75 / pool as f64 + if idx == 0 { 0.25 } else { 0.0 }
}

fn run_serve(
    bins: &Bins,
    pool: &[Req],
    opts: &Opts,
    rec: &mut Recorder,
    result: &mut RunResult,
) -> Result<(), String> {
    let primed = untraced::start_primed(bins, pool, opts.seed)?;
    primed.gate(result);

    let connects: Vec<f64> = (0..20)
        .filter_map(|_| {
            let started = Instant::now();
            Client::connect(primed.daemon.socket).ok()?;
            Some(started.elapsed().as_secs_f64())
        })
        .collect();

    // The served load, each request a span of its own operation.
    let load_op = REPEATS * pool.len();
    let seconds = if opts.quick { 0.5 } else { opts.seconds / 2.0 };
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let samples = primed.load(opts.seed, deadline, result);
    rec.begin_op(load_op);
    for s in &samples {
        rec.record(
            "serve.request",
            s.sent,
            s.latency_s,
            &[("pool", s.idx as f64)],
        );
    }
    let stats = Client::connect(primed.daemon.socket)
        .map_err(|e| e.to_string())
        .and_then(|mut c| c.stats().map_err(|e| e.to_string()))?;
    let untraced::Primed {
        daemon,
        requests,
        references,
    } = primed;
    daemon.shutdown().map_err(|e| e.to_string())?;

    // Each pool request in-process, the way the daemon runs it: parse,
    // single-job batch dispatch, render.
    let registry = Registry::with_defaults();
    for repeat in 0..REPEATS {
        for (idx, req) in pool.iter().enumerate() {
            rec.begin_op(repeat * pool.len() + idx);
            let text = std::fs::read_to_string(req.input).map_err(|e| e.to_string())?;
            let replayed = rec.span("step", |rec| {
                let instance = parse_instance(rec, &text).map_err(|e| e.to_string())?;
                let cfg = job_cfg(&instance, req.mu, opts.seed, 1, Backend::Shard);
                let report = dispatch(
                    rec,
                    &registry,
                    Backend::Shard,
                    &instance,
                    &[(req.key, cfg)],
                    true,
                )
                .remove(0)
                .map_err(|e| e.to_string())?;
                let content = render(rec, || {
                    io::report_json_with(&report, TimingMode::Masked, CertificateMode::Full)
                });
                Ok::<_, String>((instance, report, content))
            });
            result.attempt(replayed.and_then(|(instance, report, content)| {
                rec.span("extra", |rec| {
                    extras_for_report(rec, req.key, &instance, &report)
                });
                if content == references[idx] {
                    Ok(())
                } else {
                    Err(format!(
                        "replayed pool request {idx} differs from the served report"
                    ))
                }
            }));
        }
    }

    // Expected value per request under the draw distribution.
    let totals = rec.totals();
    let mut expected: BTreeMap<String, f64> = BTreeMap::new();
    let mut overhead = 0.0;
    for idx in 0..pool.len() {
        let ops: Vec<BTreeMap<String, f64>> = (0..REPEATS)
            .map(|repeat| op_values(&totals[&(repeat * pool.len() + idx)]))
            .collect();
        let values = median_values(&ops);
        let share = draw_share(idx, pool.len());
        let inproc = values.get("step_s").copied().unwrap_or(0.0);
        let served: Vec<f64> = samples
            .iter()
            .filter(|s| s.idx == idx)
            .map(|s| s.latency_s)
            .collect();
        overhead += share * (median(&served) - inproc);
        for (key, value) in values {
            *expected.entry(key).or_default() += share * value;
        }
    }
    let latencies: Vec<f64> = samples.iter().map(|s| s.latency_s).collect();
    result.samples = samples.len() as u64;
    result.values = expected;
    let bytes = |sizes: Vec<usize>| {
        sizes
            .iter()
            .enumerate()
            .map(|(i, &b)| draw_share(i, pool.len()) * b as f64)
            .sum::<f64>()
    };
    result.values.extend(
        [
            ("serve.connect_s", median(&connects)),
            ("serve.latency_p50_s", median(&latencies)),
            ("serve.latency_p95_s", percentile(&latencies, 0.95)),
            ("serve.latency_p99_s", percentile(&latencies, 0.99)),
            ("serve.overhead_s", overhead),
            (
                "serve.request_bytes",
                bytes(requests.iter().map(|r| encode_value(r).len()).collect()),
            ),
            (
                "serve.response_bytes",
                bytes(references.iter().map(String::len).collect()),
            ),
            ("serve.requests", stats.requests as f64),
            ("serve.solver_runs", stats.solver_runs as f64),
            ("serve.coalesce_hits", stats.coalesce_hits as f64),
            ("serve.busy_rejects", stats.busy_rejects as f64),
            ("serve.timeouts", stats.timeouts as f64),
            (
                "serve.inflight_high_water",
                stats.inflight_high_water as f64,
            ),
            (
                "serve.queue_depth_high_water",
                stats.queue_depth_high_water as f64,
            ),
        ]
        .map(|(k, v)| (k.to_string(), v)),
    );
    Ok(())
}

/// One traced run of `workload`; writes the span file next to the other
/// benchmark output.
pub fn run(bins: &Bins, workload: &'static Workload, opts: &Opts) -> RunResult {
    let mut result = RunResult::new(workload.name, opts.seed, true);
    let mut rec = Recorder::new(true);
    let outcome = (|| {
        let _dir = WorkDir::enter(bins).map_err(|e| e.to_string())?;
        let started = Instant::now();
        let written = generate(bins, workload, opts)?;
        let gen_s = started.elapsed().as_secs_f64();
        let startup = cli_startup(bins);
        match &workload.kind {
            Kind::Cli(steps) => run_cli(bins, steps, opts, &mut rec, &mut result)?,
            Kind::Serve(pool) => run_serve(bins, pool, opts, &mut rec, &mut result)?,
        }
        result.values.extend([
            ("workloads.gen_s".to_string(), gen_s),
            ("workloads.write_bytes".to_string(), written as f64),
            ("cli.startup_s".to_string(), startup),
        ]);
        Ok::<(), String>(())
    })();
    if outcome.is_err() {
        result.attempt(outcome);
    }
    let path = bins
        .scratch
        .join(format!("spans-{}-{}.jsonl", workload.name, opts.seed));
    let written = std::fs::File::create(&path).and_then(|f| {
        let mut w = std::io::BufWriter::new(f);
        rec.write_json_lines(&mut w)?;
        std::io::Write::flush(&mut w)
    });
    match written {
        Ok(()) => eprintln!("spans: {} ({} spans)", path.display(), rec.spans.len()),
        Err(e) => result.attempt(Err(format!("span file {}: {e}", path.display()))),
    }
    result
}
