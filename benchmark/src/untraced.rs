//! The end-to-end run (tracing off): real `mrlr` processes — and a real
//! `mrlr serve` daemon — from instance files to verified reports.
//!
//! The harness stays small here on purpose: it generates instances with
//! `mrlr gen` and never holds one in memory, because a child's
//! `ru_maxrss` cannot read below the harness's own peak.

use std::io::{self, BufRead};
use std::process::Command;
use std::time::{Duration, Instant};

use mrlr_core::io::{parse_json, JsonValue};
use mrlr_mapreduce::DetRng;
use mrlr_serve::{Client, RenderOpts, ReportFormat, Request, SolveSpec};

use crate::proc::{self, Bins, Daemon, Usage, WorkDir};
use crate::result::{digest_of, RunResult};
use crate::stats::median;
use crate::workloads::{Inst, Kind, Req, Step, Workload};
use crate::Opts;

/// Set-ups per run; `setup_s` is the fastest. They are spread over the
/// run so that they do not all land in the same machine state: a CLI
/// workload sets up once before the timed phase and again each time
/// another fifth of it has passed; `serve-mix`, whose timed phase is one
/// uninterrupted closed loop, sets up twice before it and three times
/// after.
const SETUPS: usize = 5;
const SERVE_SETUPS_BEFORE: usize = 2;

/// Closed-loop `serve-mix` clients (callers that wait for a reply).
pub const CLIENTS: usize = 2;

/// Slices of the `serve-mix` timed phase.
const SLICES: usize = 12;

fn fail<T>(what: &str, e: impl std::fmt::Display) -> Result<T, String> {
    Err(format!("{what}: {e}"))
}

/// Writes every instance file of `workload` with `mrlr gen`, and every
/// manifest. Returns the bytes written.
pub fn generate(bins: &Bins, workload: &Workload, opts: &Opts) -> Result<u64, String> {
    let mut bytes = 0;
    for Inst { file, .. } in workload.instances {
        let _ = std::fs::remove_file(file);
    }
    for inst in workload.instances {
        let args = inst.gen_args(opts.quick, opts.seed);
        match proc::run(bins.mrlr().args(&args)) {
            Ok(u) if u.ok => {}
            Ok(_) => return fail("mrlr gen", format!("`{}` failed", args.join(" "))),
            Err(e) => return fail("mrlr gen", e),
        }
        bytes += std::fs::metadata(inst.file).map_or(0, |m| m.len());
    }
    if let Kind::Cli(steps) = &workload.kind {
        for step in *steps {
            if let Step::Batch(b) = step {
                let text = b.manifest_text(opts.seed);
                bytes += text.len() as u64;
                std::fs::write(b.manifest, text).or_else(|e| fail(b.manifest, e))?;
            }
        }
    }
    Ok(bytes)
}

/// Instance items in a file: edges, or set-element incidences.
fn count_items(file: &str) -> io::Result<u64> {
    let mut items = 0u64;
    for line in io::BufReader::new(std::fs::File::open(file)?).lines() {
        let line = line?;
        match line.as_bytes().first() {
            Some(b'e') => items += 1,
            Some(b's') => items += line.split_ascii_whitespace().count().saturating_sub(2) as u64,
            _ => {}
        }
    }
    Ok(items)
}

/// Items one operation of `step` processes: a batch reads each instance
/// once per job.
fn step_items(step: &Step) -> io::Result<u64> {
    match step {
        Step::Solve(s) => count_items(s.input),
        Step::Batch(b) => {
            let mut items = 0;
            for instance in b.instances {
                items += count_items(instance)? * (b.keys.len() * b.mus.len()) as u64;
            }
            Ok(items)
        }
    }
}

/// The correctness gate on one report document (a single report or a
/// batch): it parses, and every slot is a report with `feasible: true`.
pub fn check_document(text: &str) -> Result<(), String> {
    let root = parse_json(text).or_else(|e| fail("report does not parse", e))?;
    let feasible = |report: &JsonValue| {
        if let Some(e) = report.get("error").and_then(JsonValue::as_str) {
            return fail("job failed", e);
        }
        match report
            .get("certificate")
            .and_then(|c| c.get("feasible"))
            .and_then(JsonValue::as_bool)
        {
            Some(true) => Ok(()),
            _ => Err("report is not `feasible: true`".to_string()),
        }
    };
    match root.get("results").and_then(JsonValue::as_arr) {
        None => feasible(&root),
        Some(rows) => rows
            .iter()
            .flat_map(|row| row.as_arr().unwrap_or(&[]))
            .try_for_each(feasible),
    }
}

/// What one pass over a CLI workload's commands cost and produced.
pub struct Pass {
    /// Per command, in order.
    pub steps: Vec<Usage>,
    /// Digest of the reports, or why the pass missed the gate.
    pub digest: Result<String, String>,
}

impl Pass {
    pub fn wall_s(&self) -> f64 {
        self.steps.iter().map(|u| u.wall_s).sum()
    }
}

/// Runs every command of one operation, then (outside the timed
/// intervals) gates and digests the reports it wrote.
pub fn run_pass(bins: &Bins, steps: &[Step], seed: u64, checked: bool) -> Pass {
    let mut pass = Pass {
        steps: Vec::new(),
        digest: Ok(String::new()),
    };
    for (idx, step) in steps.iter().enumerate() {
        let _ = std::fs::remove_file(Step::out(idx));
        match proc::run(bins.mrlr().args(step.args(idx, seed, checked))) {
            Ok(u) if u.ok => pass.steps.push(u),
            Ok(u) => {
                pass.steps.push(u);
                pass.digest = fail("command", format!("step {idx} exited non-zero"));
            }
            Err(e) => {
                pass.steps.push(Usage::default());
                pass.digest = fail("spawn", e);
            }
        }
    }
    if pass.digest.is_ok() {
        let files: Vec<String> = (0..steps.len()).map(Step::out).collect();
        pass.digest = gate(bins, &files);
    }
    pass
}

/// Gates and digests report files in a short-lived child (the harness
/// re-entered as `check-documents`): parsing a multi-megabyte document
/// would otherwise raise the harness's own peak RSS above the solver's,
/// and every later child's `ru_maxrss` with it.
fn gate(bins: &Bins, files: &[String]) -> Result<String, String> {
    let out = Command::new(&bins.harness)
        .arg("check-documents")
        .args(files)
        .output()
        .or_else(|e| fail("check-documents", e))?;
    let text = String::from_utf8_lossy(&out.stdout).trim().to_string();
    if out.status.success() {
        Ok(text)
    } else {
        Err(text)
    }
}

/// The `check-documents` entry: every file passes [`check_document`];
/// prints the digest of their contents, or the first reason one did not.
pub fn check_documents(files: &[String]) -> Result<String, String> {
    let mut documents = Vec::new();
    for file in files {
        let text = std::fs::read_to_string(file).or_else(|e| fail(file, e))?;
        check_document(&text).or_else(|e| fail(file, e))?;
        documents.push(text);
    }
    let parts: Vec<&[u8]> = documents.iter().map(String::as_bytes).collect();
    Ok(digest_of(&parts))
}

/// The least value each command reached over `passes`, summed: the cost
/// of one operation with every command at its fastest. The sandbox's CPU
/// alternates between a fast and a ~35% slower state that lasts tens of
/// seconds; a median lands in whichever state the run caught, the fastest
/// repeat of each command does not (README, "Steadiness").
fn fastest(passes: &[Pass], of: fn(&Usage) -> f64) -> f64 {
    let commands = passes.first().map_or(0, |p| p.steps.len());
    (0..commands)
        .map(|c| least(passes.iter().map(|p| of(&p.steps[c]))))
        .sum()
}

fn least(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(f64::INFINITY, f64::min)
}

/// One CLI set-up from nothing: fresh work directory, every instance
/// file and manifest written. Returns the directory and what it took.
fn set_up_cli(bins: &Bins, workload: &Workload, opts: &Opts) -> Result<(WorkDir, f64), String> {
    let started = Instant::now();
    let dir = WorkDir::enter(bins).or_else(|e| fail("work dir", e))?;
    generate(bins, workload, opts)?;
    Ok((dir, started.elapsed().as_secs_f64()))
}

fn run_cli(
    bins: &Bins,
    workload: &Workload,
    steps: &[Step],
    opts: &Opts,
    result: &mut RunResult,
) -> Result<(), String> {
    let (_dir, took) = set_up_cli(bins, workload, opts)?;
    let mut setups = vec![took];
    let mut items = 0;
    for step in steps {
        items += step_items(step).or_else(|e| fail("count items", e))?;
    }

    // Untimed warm-up, in the checked form: the one operation whose
    // reports `mrlr verify` audits.
    let warm = run_pass(bins, steps, opts.seed, true);
    result.attempt(warm.digest.and_then(|_| {
        for (idx, step) in steps.iter().enumerate() {
            let args = step.verify_args(idx);
            match proc::run(bins.mrlr().args(&args)) {
                Ok(u) if u.ok => {}
                _ => return Err(format!("`mrlr {}` rejected the report", args.join(" "))),
            }
        }
        Ok(())
    }));

    let mut passes: Vec<Pass> = Vec::new();
    let started = Instant::now();
    let mut paused = 0.0;
    loop {
        let pass = run_pass(bins, steps, opts.seed, false);
        // The first repeat's digest is the reference for the others.
        result.attempt(match (&pass.digest, passes.first().map(|p| &p.digest)) {
            (Err(e), _) => Err(e.clone()),
            (Ok(d), Some(Ok(first))) if d != first => {
                Err(format!("report digest {d} differs from the first repeat"))
            }
            _ => Ok(()),
        });
        passes.push(pass);
        let elapsed = started.elapsed().as_secs_f64() - paused;
        if elapsed >= opts.seconds || (opts.quick && passes.len() >= 3) {
            break;
        }
        // The next set-up (in a directory of its own, off the clock).
        if elapsed >= opts.seconds * setups.len() as f64 / SETUPS as f64 {
            let pause = Instant::now();
            setups.push(set_up_cli(bins, workload, opts)?.1);
            paused += pause.elapsed().as_secs_f64();
        }
    }

    result.digest = passes[0].digest.clone().unwrap_or_default();
    result.samples = passes.len() as u64;
    let wall_s = fastest(&passes, |u| u.wall_s);
    let rss = passes
        .iter()
        .flat_map(|p| &p.steps)
        .map(|u| u.max_rss_kib)
        .max();
    result.values.extend(
        [
            ("setup_s", least(setups.into_iter())),
            ("wall_s", wall_s),
            ("cpu_s", fastest(&passes, |u| u.cpu_s)),
            ("items_per_s", items as f64 / wall_s),
            ("peak_rss_mb", rss.unwrap_or(0) as f64 / 1024.0),
        ]
        .map(|(k, v)| (k.to_string(), v)),
    );
    Ok(())
}

/// The wire request for pool entry `req` (instance text read from its
/// file). Full certificates, masked timings: a response is byte-identical
/// to `mrlr solve --format json --mask-timings`.
pub fn serve_request(req: &Req, seed: u64) -> io::Result<Request> {
    Ok(Request::Solve {
        spec: SolveSpec {
            algorithm: req.key.into(),
            backend: "shard".into(),
            instance_text: std::fs::read_to_string(req.input)?,
            mu_bits: req.mu.to_bits(),
            seed,
            threads: Some(1),
            machines: None,
            workers: None,
        },
        render: RenderOpts {
            format: ReportFormat::Json,
            mask_timings: true,
            certificates_full: true,
        },
        timeout_millis: 30_000,
    })
}

/// The seeded request sequence of one client: a quarter of the draws hit
/// the hot entry 0, the rest are uniform over the pool.
pub fn draw(rng: &mut DetRng, pool: usize) -> usize {
    let r = rng.next_u64();
    if r.is_multiple_of(4) {
        0
    } else {
        ((r >> 8) % pool as u64) as usize
    }
}

/// One served request as its client saw it.
pub struct Sample {
    /// Pool entry drawn.
    pub idx: usize,
    pub sent: Instant,
    /// Request sent → report received.
    pub latency_s: f64,
    /// A report frame arrived and equals the primed reference.
    pub ok: bool,
}

/// One closed-loop client: draws, sends, waits, checks the response
/// against the primed reference, until `deadline`.
pub fn client_loop(
    socket: &std::path::Path,
    requests: &[Request],
    references: &[String],
    mut rng: DetRng,
    deadline: Instant,
) -> Vec<Sample> {
    let mut out = Vec::new();
    let mut client = Client::connect(socket);
    while Instant::now() < deadline {
        let idx = draw(&mut rng, requests.len());
        let sent = Instant::now();
        let served = match &mut client {
            Ok(c) => c.solve(&requests[idx], &mut |_| {}).ok(),
            Err(_) => None,
        };
        out.push(Sample {
            idx,
            sent,
            latency_s: sent.elapsed().as_secs_f64(),
            ok: served.is_some_and(|s| s.content == references[idx]),
        });
        if client.is_err() {
            break;
        }
    }
    out
}

/// A started daemon, primed with each pool request once.
pub struct Primed {
    pub daemon: Daemon,
    pub requests: Vec<Request>,
    /// The primed responses: the reference every later response of the
    /// same pool entry must equal byte for byte.
    pub references: Vec<String>,
}

pub fn start_primed(bins: &Bins, pool: &[Req], seed: u64) -> Result<Primed, String> {
    let daemon = Daemon::start(bins).or_else(|e| fail("mrlr serve", e))?;
    let mut client = Client::connect(daemon.socket).or_else(|e| fail("connect", e))?;
    let mut requests = Vec::new();
    let mut references = Vec::new();
    for req in pool {
        let request = serve_request(req, seed).or_else(|e| fail(req.input, e))?;
        let served = client
            .solve(&request, &mut |_| {})
            .or_else(|e| fail("prime request", e))?;
        requests.push(request);
        references.push(served.content);
    }
    Ok(Primed {
        daemon,
        requests,
        references,
    })
}

impl Primed {
    /// The primed responses are the warm-up operations: gates each and
    /// sets the run's digest.
    pub fn gate(&self, result: &mut RunResult) {
        for text in &self.references {
            result.attempt(check_document(text));
        }
        let parts: Vec<&[u8]> = self.references.iter().map(String::as_bytes).collect();
        result.digest = digest_of(&parts);
    }

    /// Drives the daemon with [`CLIENTS`] closed-loop clients until
    /// `deadline`, and counts every request as an attempted operation.
    pub fn load(&self, seed: u64, deadline: Instant, result: &mut RunResult) -> Vec<Sample> {
        let samples: Vec<Sample> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let rng = DetRng::derive(seed, &[c as u64]);
                    scope.spawn(move || {
                        client_loop(
                            self.daemon.socket,
                            &self.requests,
                            &self.references,
                            rng,
                            deadline,
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        for s in &samples {
            result.attempt(if s.ok {
                Ok(())
            } else {
                Err(format!(
                    "pool request {}: error frame or differing report",
                    s.idx
                ))
            });
        }
        samples
    }
}

fn run_serve(
    bins: &Bins,
    workload: &Workload,
    pool: &[Req],
    opts: &Opts,
    result: &mut RunResult,
) -> Result<(), String> {
    // A set-up from nothing: fresh files, a fresh daemon, primed.
    let set_up = || {
        let started = Instant::now();
        let dir = WorkDir::enter(bins).or_else(|e| fail("work dir", e))?;
        generate(bins, workload, opts)?;
        let primed = start_primed(bins, pool, opts.seed)?;
        Ok::<_, String>((dir, primed, started.elapsed().as_secs_f64()))
    };
    let mut setups = Vec::new();
    let (_dir, primed) = loop {
        let (dir, primed, took) = set_up()?;
        setups.push(took);
        if setups.len() == SERVE_SETUPS_BEFORE {
            break (dir, primed);
        }
        primed.daemon.shutdown().or_else(|e| fail("shutdown", e))?;
    };
    primed.gate(result);
    let mut items = Vec::new();
    for req in pool {
        items.push(count_items(req.input).or_else(|e| fail("count items", e))?);
    }

    let seconds = if opts.quick {
        opts.seconds.min(1.0)
    } else {
        opts.seconds
    };
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let samples = primed.load(opts.seed, deadline, result);

    let Primed {
        daemon, references, ..
    } = primed;
    let stats = Client::connect(daemon.socket)
        .map_err(|e| e.to_string())
        .and_then(|mut c| c.stats().map_err(|e| e.to_string()));
    let usage = daemon.shutdown().or_else(|e| fail("shutdown", e))?;
    result.attempt(match stats {
        Ok(s) if s.busy_rejects + s.timeouts == 0 && usage.ok => Ok(()),
        Ok(s) => Err(format!("daemon: {s:?}, clean exit {}", usage.ok)),
        Err(e) => Err(format!("daemon stats: {e}")),
    });

    // One untimed `mrlr verify` per pool entry, on the primed response.
    let mut verified = Ok(());
    for (idx, (req, text)) in pool.iter().zip(&references).enumerate() {
        let report = format!("served{idx}.json");
        std::fs::write(&report, text).or_else(|e| fail(&report, e))?;
        match proc::run(bins.mrlr().args(["verify", req.input, &report, "--quiet"])) {
            Ok(u) if u.ok => {}
            _ => verified = Err(format!("`mrlr verify {} {report}` rejected", req.input)),
        }
    }
    result.attempt(verified);

    while setups.len() < SETUPS {
        let (_dir, primed, took) = set_up()?;
        setups.push(took);
        primed.daemon.shutdown().or_else(|e| fail("shutdown", e))?;
    }

    // Twelve slices of the timed phase; the fastest slice's median
    // latency and throughput (see `fastest`).
    let mut slices: Vec<(Vec<f64>, u64)> = vec![(Vec::new(), 0); SLICES];
    for s in &samples {
        let at = s.sent.duration_since(started).as_secs_f64() / seconds;
        let slice = &mut slices[((at * SLICES as f64) as usize).min(SLICES - 1)];
        slice.0.push(s.latency_s);
        slice.1 += items[s.idx];
    }
    let slice_s = seconds / SLICES as f64;
    result.samples = samples.len() as u64;
    let all_requests = (samples.len() + pool.len()) as f64;
    result.values.extend(
        [
            ("setup_s", least(setups.into_iter())),
            (
                "wall_s",
                least(slices.iter().filter(|s| s.1 > 0).map(|s| median(&s.0))),
            ),
            ("cpu_s", usage.cpu_s / all_requests),
            (
                "items_per_s",
                slices
                    .iter()
                    .map(|s| s.1 as f64 / slice_s)
                    .fold(0.0, f64::max),
            ),
            ("peak_rss_mb", usage.max_rss_kib as f64 / 1024.0),
        ]
        .map(|(k, v)| (k.to_string(), v)),
    );
    Ok(())
}

/// One untraced run of `workload`. An error that stops the run early is
/// one more failed operation, never a panic.
pub fn run(bins: &Bins, workload: &'static Workload, opts: &Opts) -> RunResult {
    let mut result = RunResult::new(workload.name, opts.seed, false);
    let outcome = match &workload.kind {
        Kind::Cli(steps) => run_cli(bins, workload, steps, opts, &mut result),
        Kind::Serve(pool) => run_serve(bins, workload, pool, opts, &mut result),
    };
    if outcome.is_err() {
        result.attempt(outcome);
    }
    result
}
