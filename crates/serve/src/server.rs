//! The `mrlr serve` daemon: a Unix-socket listener in front of one
//! long-lived registry.
//!
//! Three mechanisms sit between `accept()` and the registry:
//!
//! * **Admission control** (`Gate`): at most `max_inflight` requests
//!   hold solver slots concurrently; up to `queue` more wait (bounded,
//!   with a per-request deadline). When both are full the daemon
//!   answers [`Response::Busy`] *immediately* — overload is an explicit
//!   frame, never a hang.
//! * **Request coalescing** (`Coalescer`): concurrent solves with equal
//!   [`SolveSpec`]s share one solver run. The first arrival becomes the
//!   *runner* (and pays admission); later arrivals attach as *waiters*,
//!   consume no slot, and receive the same bit-identical `Report` the
//!   runner produced — each waiter renders its own view of the shared
//!   run.
//! * **Warm execution**: every solve is a `Registry::solve_with` call in
//!   a process that stays up, so thread pools come from the
//!   process-wide executor cache already spawned and a hot instance's
//!   text is parsed once (`ParseCache`). Each job still distributes its
//!   own input, exactly as `mrlr solve` and `mrlr batch` do offline.
//!   Memory stays warm too: before binding, [`serve`] sets
//!   [`retain_freed_memory`], so what a request frees stays in the
//!   process for the next one instead of going back to the kernel and
//!   being faulted in again (on Linux with glibc; a no-op elsewhere).
//!   Two bounds keep that from growing without limit: a block of
//!   32 MiB or more is still unmapped when freed, and each allocator
//!   arena keeps at most its own high-water mark. The one-shot `mrlr
//!   solve` and `mrlr batch` leave glibc's default policy alone.
//!
//! Both tables are keyed digest-then-compare: a solve's instance text is
//! digested once ([`text_digest`], inside [`CoalesceKey::new`]), that
//! digest picks the bucket in the coalescer and in the parse cache, and a
//! match counts only after the whole spec (coalescer) or the whole text
//! (parse cache) compares equal. A digest collision therefore costs a
//! comparison and, in the parse cache, a re-parse — never a shared run or
//! a wrong instance. The digest is unkeyed, so a client can craft
//! colliding texts; that buys it no more than it has already: the
//! coalescer holds one entry per run being admitted or solved (at most
//! `max_inflight + queue` live ones), and a client that sends distinct
//! texts forces the same re-parses.
//!
//! Shutdown is graceful: a [`Request::Shutdown`] flips the drain flag
//! (queued and future requests are rejected with an error frame),
//! in-flight work completes, every connection thread is joined, and the
//! socket file is removed — no orphan connections, and under
//! `SpawnKind::Process` no orphan dist workers (worker children are
//! killed and reaped by `DistSession`'s `Drop` when each solve ends).

use std::collections::HashMap;
use std::io;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use mrlr_core::api::{witness, Backend, Instance, Registry, Report, Solution};
use mrlr_core::io::{self as core_io, CertificateMode, TimingMode};
use mrlr_core::mr::MrConfig;
use mrlr_mapreduce::dist::transport::{frame_len, read_body, write_wire_frame};
use mrlr_mapreduce::dist::wire::decode_value;
use mrlr_mapreduce::{retain_freed_memory, SpawnKind};

use crate::protocol::{
    text_digest, BatchJob, CoalesceKey, RenderOpts, ReportFormat, Request, Response, SolveSpec,
    StatsSnapshot,
};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Path of the Unix socket to listen on (a stale file is replaced).
    pub socket: PathBuf,
    /// Admission slots: requests solving concurrently.
    pub max_inflight: usize,
    /// Bounded admission wait queue; a request arriving when both the
    /// slots and the queue are full is rejected with `Busy`.
    pub queue: usize,
    /// Default per-request wait budget (admission + shared-run wait)
    /// for requests that do not set their own `timeout_millis`.
    pub timeout: Duration,
    /// Test/bench hook: after computing a result the runner holds its
    /// admission slot (and its coalescing entry) for this long before
    /// publishing — makes coalesced pairs and `Busy` rejections
    /// deterministic to provoke. Zero in production.
    pub hold: Duration,
    /// How dist-backend solves spawn workers. The CLI daemon uses
    /// `Process` (real worker processes, reaped per solve); in-process
    /// embeddings and tests keep the default `Thread`.
    pub dist_spawn: SpawnKind,
}

impl ServeConfig {
    /// A daemon on `socket` with production defaults: 2 slots, 4 queue
    /// entries, 30 s budget, no hold, thread-spawned dist workers.
    pub fn new(socket: impl Into<PathBuf>) -> Self {
        ServeConfig {
            socket: socket.into(),
            max_inflight: 2,
            queue: 4,
            timeout: Duration::from_secs(30),
            hold: Duration::ZERO,
            dist_spawn: SpawnKind::Thread,
        }
    }
}

// ------------------------------------------------------------- counters --

#[derive(Default)]
struct Stats {
    requests: AtomicU64,
    solver_runs: AtomicU64,
    coalesce_hits: AtomicU64,
    busy_rejects: AtomicU64,
    timeouts: AtomicU64,
    inflight_high_water: AtomicU64,
    queue_depth_high_water: AtomicU64,
}

impl Stats {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn high_water(counter: &AtomicU64, depth: usize) {
        counter.fetch_max(depth as u64, Ordering::Relaxed);
    }

    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            solver_runs: self.solver_runs.load(Ordering::Relaxed),
            coalesce_hits: self.coalesce_hits.load(Ordering::Relaxed),
            busy_rejects: self.busy_rejects.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            inflight_high_water: self.inflight_high_water.load(Ordering::Relaxed),
            queue_depth_high_water: self.queue_depth_high_water.load(Ordering::Relaxed),
        }
    }
}

// ------------------------------------------------------ admission gate --

struct GateState {
    active: usize,
    queued: usize,
    draining: bool,
}

/// Bounded in-flight slots plus a bounded wait queue over a condvar.
struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
    max_inflight: usize,
    queue: usize,
}

enum Admission<'a> {
    Admitted(Slot<'a>),
    Busy { in_flight: usize, queued: usize },
    TimedOut,
    Draining,
}

/// One held admission slot, given back when it drops — so an early `?`
/// on a dead connection, or a panicking solve, cannot leak it.
struct Slot<'a>(&'a Gate);

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        // A drop must not panic; every gate update is a single counter
        // step, so the state behind a poisoned lock is still valid.
        let mut s = self.0.state.lock().unwrap_or_else(PoisonError::into_inner);
        s.active -= 1;
        drop(s);
        self.0.cv.notify_all();
    }
}

impl Gate {
    fn new(max_inflight: usize, queue: usize) -> Self {
        Gate {
            state: Mutex::new(GateState {
                active: 0,
                queued: 0,
                draining: false,
            }),
            cv: Condvar::new(),
            max_inflight: max_inflight.max(1),
            queue,
        }
    }

    fn acquire(&self, timeout: Duration, stats: &Stats) -> Admission<'_> {
        let mut s = self.state.lock().expect("gate poisoned");
        if s.draining {
            return Admission::Draining;
        }
        if s.active < self.max_inflight {
            s.active += 1;
            Stats::high_water(&stats.inflight_high_water, s.active);
            return Admission::Admitted(Slot(self));
        }
        if s.queued >= self.queue {
            return Admission::Busy {
                in_flight: s.active,
                queued: s.queued,
            };
        }
        s.queued += 1;
        Stats::high_water(&stats.queue_depth_high_water, s.queued);
        let deadline = Instant::now() + timeout;
        loop {
            if s.draining {
                s.queued -= 1;
                return Admission::Draining;
            }
            if s.active < self.max_inflight {
                s.queued -= 1;
                s.active += 1;
                Stats::high_water(&stats.inflight_high_water, s.active);
                return Admission::Admitted(Slot(self));
            }
            let now = Instant::now();
            if now >= deadline {
                s.queued -= 1;
                return Admission::TimedOut;
            }
            let (guard, _) = self
                .cv
                .wait_timeout(s, deadline - now)
                .expect("gate poisoned");
            s = guard;
        }
    }

    fn drain(&self) {
        let mut s = self.state.lock().expect("gate poisoned");
        s.draining = true;
        drop(s);
        self.cv.notify_all();
    }
}

// ---------------------------------------------------------- coalescing --

/// Outcome of one (possibly shared) solver run.
#[derive(Clone)]
enum RunOutcome {
    /// The run completed; the report fans out to every attached waiter.
    Done(Arc<Report<Solution>>),
    /// The run failed (admission rejection, parse or solver error); the
    /// message fans out instead.
    Failed(String),
}

/// One in-flight coalesced run: the runner publishes here, waiters park
/// on the condvar.
struct Job {
    slot: Mutex<Option<RunOutcome>>,
    cv: Condvar,
}

impl Job {
    fn new() -> Self {
        Job {
            slot: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    /// The first outcome published stands; later ones are dropped.
    fn publish(&self, outcome: RunOutcome) {
        // Also runs from `Runner::drop`, which must not panic; the slot
        // is written in one step, so a poisoned lock guards valid state.
        let mut slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        slot.get_or_insert(outcome);
        drop(slot);
        self.cv.notify_all();
    }

    fn wait(&self, timeout: Duration) -> Option<RunOutcome> {
        let deadline = Instant::now() + timeout;
        let mut slot = self.slot.lock().expect("job poisoned");
        loop {
            if let Some(outcome) = slot.as_ref() {
                return Some(outcome.clone());
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self
                .cv
                .wait_timeout(slot, deadline - now)
                .expect("job poisoned");
            slot = guard;
        }
    }
}

enum Ticket<'a> {
    /// First arrival for this key: run the solver and publish.
    Runner(Runner<'a>),
    /// An identical run is in flight: park and share its outcome.
    Waiter(Arc<Job>),
}

/// The runner's side of a coalesced run. Dropping it retires the key —
/// later identical requests start a fresh run — and, if nothing was
/// published (the runner's connection died, or its solve panicked),
/// tells the waiters so instead of leaving them parked.
struct Runner<'a> {
    coalescer: &'a Coalescer,
    key: CoalesceKey,
    job: Arc<Job>,
}

impl Runner<'_> {
    fn publish(self, outcome: RunOutcome) {
        self.job.publish(outcome);
    }
}

impl Drop for Runner<'_> {
    fn drop(&mut self) {
        self.job
            .publish(RunOutcome::Failed("runner connection lost".to_string()));
        self.coalescer
            .jobs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&self.key);
    }
}

/// The in-flight run table, keyed by [`CoalesceKey`]: bucketed by the
/// instance text's digest, matched on the whole spec.
struct Coalescer {
    jobs: Mutex<HashMap<CoalesceKey, Arc<Job>>>,
}

impl Coalescer {
    fn new() -> Self {
        Coalescer {
            jobs: Mutex::new(HashMap::new()),
        }
    }

    fn join(&self, key: CoalesceKey) -> Ticket<'_> {
        let mut jobs = self.jobs.lock().expect("coalescer poisoned");
        if let Some(job) = jobs.get(&key) {
            Ticket::Waiter(Arc::clone(job))
        } else {
            let job = Arc::new(Job::new());
            jobs.insert(key.clone(), Arc::clone(&job));
            Ticket::Runner(Runner {
                coalescer: self,
                key,
                job,
            })
        }
    }
}

// -------------------------------------------------------------- engine --

/// Bounded cache of parsed instances keyed by their text's
/// [`text_digest`], so a hot instance is parsed once across requests.
/// Each entry keeps its text, and a hit counts only when that text equals
/// the requested one; a digest collision is a miss, re-parsed and
/// replacing the entry. Cleared wholesale when it outgrows its cap —
/// correctness never depends on a hit.
struct ParseCache {
    map: Mutex<HashMap<u64, (String, Arc<Instance>)>>,
}

const PARSE_CACHE_CAP: usize = 64;

impl ParseCache {
    fn new() -> Self {
        ParseCache {
            map: Mutex::new(HashMap::new()),
        }
    }

    /// The parsed instance of `text`, whose [`text_digest`] is `digest`.
    fn get_or_parse(&self, digest: u64, text: &str) -> Result<Arc<Instance>, String> {
        if let Some((cached, hit)) = self.map.lock().expect("cache poisoned").get(&digest) {
            if cached == text {
                return Ok(Arc::clone(hit));
            }
        }
        let parsed = Arc::new(core_io::parse_instance(text).map_err(|e| e.to_string())?);
        let mut map = self.map.lock().expect("cache poisoned");
        if map.len() >= PARSE_CACHE_CAP {
            map.clear();
        }
        map.insert(digest, (text.to_string(), Arc::clone(&parsed)));
        Ok(parsed)
    }
}

struct Engine {
    cfg: ServeConfig,
    registry: Registry,
    gate: Gate,
    coalescer: Coalescer,
    parse_cache: ParseCache,
    stats: Stats,
    shutdown: AtomicBool,
}

/// Why a served batch ended without a document.
enum BatchStop {
    /// The request failed; its client gets this error frame.
    Failed(String),
    /// The connection broke mid-stream.
    Transport(io::Error),
}

/// A request refused at admission: the terminal frame for its client,
/// and what waiters coalesced onto it are told.
struct Rejection {
    frame: Response,
    why: &'static str,
}

/// What a connection thread tells the accept loop after each request.
enum Flow {
    Continue,
    Hangup,
}

impl Engine {
    fn new(cfg: ServeConfig) -> Self {
        let gate = Gate::new(cfg.max_inflight, cfg.queue);
        Engine {
            registry: Registry::with_defaults(),
            gate,
            coalescer: Coalescer::new(),
            parse_cache: ParseCache::new(),
            stats: Stats::default(),
            shutdown: AtomicBool::new(false),
            cfg,
        }
    }

    fn budget(&self, timeout_millis: u64) -> Duration {
        if timeout_millis == 0 {
            self.cfg.timeout
        } else {
            Duration::from_millis(timeout_millis)
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn job_cfg(
        &self,
        instance: &Instance,
        backend: Backend,
        mu: f64,
        seed: u64,
        threads: Option<u64>,
        machines: Option<u64>,
        workers: Option<u64>,
    ) -> Result<MrConfig, String> {
        if !(mu.is_finite() && mu > 0.0) {
            return Err(format!("mu must be positive and finite (got {mu})"));
        }
        let mut cfg = instance.auto_config(mu, seed);
        if let Some(t) = threads {
            cfg = cfg.with_threads(t as usize);
        }
        if let Some(m) = machines {
            cfg = cfg.with_machines(m as usize);
        }
        if backend == Backend::Dist {
            cfg = cfg.with_spawn(self.cfg.dist_spawn);
            if let Some(w) = workers {
                cfg = cfg.with_workers(w as usize);
            }
        }
        Ok(cfg)
    }

    /// Runs one solve: the registry call `mrlr solve` makes offline, on
    /// this process's cached instance and already-spawned pools. The
    /// parse cache is looked up with the digest `key` already carries.
    fn run_solve(&self, key: &CoalesceKey) -> RunOutcome {
        let spec = &key.spec;
        let backend = match spec.backend.parse::<Backend>() {
            Ok(b) => b,
            Err(e) => return RunOutcome::Failed(e),
        };
        let instance = match self
            .parse_cache
            .get_or_parse(key.digest, &spec.instance_text)
        {
            Ok(i) => i,
            Err(e) => return RunOutcome::Failed(format!("instance: {e}")),
        };
        let cfg = match self.job_cfg(
            &instance,
            backend,
            spec.mu(),
            spec.seed,
            spec.threads,
            spec.machines,
            spec.workers,
        ) {
            Ok(c) => c,
            Err(e) => return RunOutcome::Failed(e),
        };
        Stats::bump(&self.stats.solver_runs);
        match self
            .registry
            .solve_with(&spec.algorithm, backend, &instance, &cfg)
        {
            Ok(report) => RunOutcome::Done(Arc::new(report)),
            Err(e) => RunOutcome::Failed(e.to_string()),
        }
    }

    fn render_report(&self, report: &Report<Solution>, render: RenderOpts) -> String {
        let timing = if render.mask_timings {
            TimingMode::Masked
        } else {
            TimingMode::Real
        };
        let certificates = if render.certificates_full {
            CertificateMode::Full
        } else {
            CertificateMode::Summary
        };
        match render.format {
            ReportFormat::Json => core_io::report_json_with(report, timing, certificates).render(),
            ReportFormat::Csv => format!(
                "{}\n{}\n",
                core_io::REPORT_CSV_HEADER,
                core_io::report_csv_row(report, timing)
            ),
            ReportFormat::Text => core_io::report_text(report, timing),
        }
    }

    /// Host-event lines for a served report: the offline notes (dist
    /// recoveries) plus the serve counters. They travel as `note:`
    /// frames and stay out of the rendered document.
    fn notes_for(&self, report: &Report<Solution>) -> Vec<String> {
        let Some(metrics) = report.metrics.as_ref() else {
            return Vec::new();
        };
        let mut notes = metrics.notes();
        notes.push(self.stats.snapshot().note_line());
        notes
    }

    /// Admission for one request: the held slot, or the rejection to
    /// answer with (counted in the stats).
    fn admit(&self, budget: Duration) -> Result<Slot<'_>, Rejection> {
        match self.gate.acquire(budget, &self.stats) {
            Admission::Admitted(slot) => Ok(slot),
            Admission::Busy { in_flight, queued } => {
                Stats::bump(&self.stats.busy_rejects);
                Err(Rejection {
                    frame: Response::Busy {
                        in_flight: in_flight as u64,
                        queued: queued as u64,
                        limit: self.gate.max_inflight as u64,
                    },
                    why: "rejected: daemon busy",
                })
            }
            Admission::TimedOut => {
                Stats::bump(&self.stats.timeouts);
                Err(Rejection {
                    frame: Response::Error {
                        message: format!("timed out after {budget:?} waiting for admission"),
                    },
                    why: "rejected: admission timed out",
                })
            }
            Admission::Draining => Err(Rejection {
                frame: Response::Error {
                    message: "daemon is shutting down".to_string(),
                },
                why: "rejected: daemon shutting down",
            }),
        }
    }

    fn handle_solve(
        &self,
        stream: &mut UnixStream,
        spec: SolveSpec,
        render: RenderOpts,
        timeout_millis: u64,
    ) -> io::Result<()> {
        Stats::bump(&self.stats.requests);
        let budget = self.budget(timeout_millis);
        let (outcome, coalesced) = match self.coalescer.join(CoalesceKey::new(spec)) {
            Ticket::Waiter(job) => {
                Stats::bump(&self.stats.coalesce_hits);
                let Some(outcome) = job.wait(budget) else {
                    Stats::bump(&self.stats.timeouts);
                    return write_wire_frame(
                        stream,
                        &Response::Error {
                            message: format!(
                                "timed out after {budget:?} waiting for the shared run"
                            ),
                        },
                    );
                };
                (outcome, true)
            }
            Ticket::Runner(runner) => {
                let slot = match self.admit(budget) {
                    Ok(slot) => slot,
                    Err(rejection) => {
                        runner.publish(RunOutcome::Failed(rejection.why.to_string()));
                        return write_wire_frame(stream, &rejection.frame);
                    }
                };
                write_wire_frame(stream, &Response::Admitted)?;
                let outcome = self.run_solve(&runner.key);
                if !self.cfg.hold.is_zero() {
                    // Keep the slot and the coalescing entry alive so
                    // tests can provoke Busy/coalesced paths on cue.
                    std::thread::sleep(self.cfg.hold);
                }
                runner.publish(outcome.clone());
                drop(slot);
                (outcome, false)
            }
        };
        match outcome {
            RunOutcome::Done(report) => {
                for line in self.notes_for(&report) {
                    write_wire_frame(stream, &Response::Note { line })?;
                }
                let content = self.render_report(&report, render);
                write_wire_frame(stream, &Response::Report { content, coalesced })
            }
            RunOutcome::Failed(message) => write_wire_frame(stream, &Response::Error { message }),
        }
    }

    fn handle_batch(
        &self,
        stream: &mut UnixStream,
        instances: &[(String, String)],
        jobs: &[BatchJob],
        backend_name: &str,
        render: RenderOpts,
        timeout_millis: u64,
    ) -> io::Result<()> {
        Stats::bump(&self.stats.requests);
        let budget = self.budget(timeout_millis);
        let slot = match self.admit(budget) {
            Ok(slot) => slot,
            Err(rejection) => return write_wire_frame(stream, &rejection.frame),
        };
        write_wire_frame(stream, &Response::Admitted)?;
        let result = self.run_batch(stream, instances, jobs, backend_name, render);
        drop(slot);
        match result {
            Ok(content) => write_wire_frame(
                stream,
                &Response::Report {
                    content,
                    coalesced: false,
                },
            ),
            Err(BatchStop::Failed(message)) => {
                write_wire_frame(stream, &Response::Error { message })
            }
            Err(BatchStop::Transport(io_err)) => Err(io_err),
        }
    }

    /// The grid run behind a batch request: every instance text parsed
    /// up front, then [`core_io::run_batch`] — the runner `mrlr batch`
    /// uses — with a `note:` frame after each instance's jobs.
    fn run_batch(
        &self,
        stream: &mut UnixStream,
        instances: &[(String, String)],
        jobs: &[BatchJob],
        backend_name: &str,
        render: RenderOpts,
    ) -> Result<String, BatchStop> {
        let backend = backend_name.parse::<Backend>().map_err(BatchStop::Failed)?;
        let format = match render.format {
            ReportFormat::Json if render.certificates_full => {
                core_io::BatchFormat::Json(CertificateMode::Full)
            }
            ReportFormat::Json => core_io::BatchFormat::Json(CertificateMode::Summary),
            ReportFormat::Csv => core_io::BatchFormat::Csv,
            ReportFormat::Text => {
                return Err(BatchStop::Failed(
                    "batch documents render as json or csv, not text".to_string(),
                ))
            }
        };
        let timing = if render.mask_timings {
            TimingMode::Masked
        } else {
            TimingMode::Real
        };
        let mut parsed: Vec<Arc<Instance>> = Vec::with_capacity(instances.len());
        for (path, text) in instances {
            let instance = self
                .parse_cache
                .get_or_parse(text_digest(text), text)
                .map_err(|e| BatchStop::Failed(format!("{path}: {e}")))?;
            parsed.push(instance);
        }
        let specs: Vec<core_io::JobSpec> = jobs
            .iter()
            .map(|j| core_io::JobSpec {
                algorithm: j.algorithm.clone(),
                mu: f64::from_bits(j.mu_bits),
                seed: j.seed,
                threads: j.threads.map(|t| t as usize),
            })
            .collect();
        let paths: Vec<String> = instances.iter().map(|(p, _)| p.clone()).collect();
        // Like the offline CLI: shapes are auto-derived per instance.
        core_io::run_batch(
            &paths,
            &specs,
            format,
            timing,
            |idx| {
                let instance = Arc::clone(&parsed[idx]);
                let cfgs = specs
                    .iter()
                    .map(|spec| {
                        self.job_cfg(
                            &instance,
                            backend,
                            spec.mu,
                            spec.seed,
                            spec.threads.map(|t| t as u64),
                            None,
                            None,
                        )
                    })
                    .collect::<Result<Vec<MrConfig>, String>>()
                    .map_err(|e| BatchStop::Failed(format!("{}: {e}", paths[idx])))?;
                Stats::bump(&self.stats.solver_runs);
                Ok((instance, cfgs))
            },
            |(instance, cfgs), j| {
                self.registry
                    .solve_with(&specs[j].algorithm, backend, instance, &cfgs[j])
                    .map_err(|e| e.to_string())
            },
            |idx| {
                write_wire_frame(
                    stream,
                    &Response::Note {
                        line: format!(
                            "batch: instance {}/{} ({}) done",
                            idx + 1,
                            paths.len(),
                            paths[idx]
                        ),
                    },
                )
                .map_err(BatchStop::Transport)
            },
        )
    }

    fn handle_verify(
        &self,
        stream: &mut UnixStream,
        instance_text: &str,
        report_json: &str,
    ) -> io::Result<()> {
        Stats::bump(&self.stats.requests);
        let slot = match self.admit(self.cfg.timeout) {
            Ok(slot) => slot,
            Err(rejection) => return write_wire_frame(stream, &rejection.frame),
        };
        let outcome = self.run_verify(instance_text, report_json);
        drop(slot);
        match outcome {
            Ok((algorithm, backend, checks)) => write_wire_frame(
                stream,
                &Response::VerifyOk {
                    algorithm,
                    backend,
                    checks,
                },
            ),
            Err(message) => write_wire_frame(stream, &Response::Error { message }),
        }
    }

    fn run_verify(
        &self,
        instance_text: &str,
        report_json: &str,
    ) -> Result<(String, String, Vec<String>), String> {
        let instance = self
            .parse_cache
            .get_or_parse(text_digest(instance_text), instance_text)
            .map_err(|e| format!("instance: {e}"))?;
        let stored = core_io::parse_report(report_json).map_err(|e| format!("report: {e}"))?;
        let witness = stored.witness.as_ref().ok_or_else(|| {
            "certificate has no witness — re-solve with full certificates to produce a \
             re-verifiable report"
                .to_string()
        })?;
        let checks = witness::audit(
            &instance,
            &stored.algorithm,
            &stored.solution,
            &stored.claims,
            witness,
        )
        .map_err(|e| e.to_string())?;
        Ok((stored.algorithm, stored.backend, checks))
    }

    fn handle_request(&self, stream: &mut UnixStream, request: Request) -> io::Result<Flow> {
        match request {
            Request::Solve {
                spec,
                render,
                timeout_millis,
            } => {
                self.handle_solve(stream, spec, render, timeout_millis)?;
                Ok(Flow::Continue)
            }
            Request::Batch {
                instances,
                jobs,
                backend,
                render,
                timeout_millis,
            } => {
                self.handle_batch(stream, &instances, &jobs, &backend, render, timeout_millis)?;
                Ok(Flow::Continue)
            }
            Request::Verify {
                instance_text,
                report_json,
            } => {
                self.handle_verify(stream, &instance_text, &report_json)?;
                Ok(Flow::Continue)
            }
            Request::Ping { nonce } => {
                write_wire_frame(stream, &Response::Pong { nonce })?;
                Ok(Flow::Continue)
            }
            Request::Stats => {
                write_wire_frame(
                    stream,
                    &Response::Stats {
                        stats: self.stats.snapshot(),
                    },
                )?;
                Ok(Flow::Continue)
            }
            Request::Shutdown => {
                self.shutdown.store(true, Ordering::SeqCst);
                self.gate.drain();
                write_wire_frame(stream, &Response::Bye)?;
                // Unblock the accept loop so it can observe the flag.
                let _ = UnixStream::connect(&self.cfg.socket);
                Ok(Flow::Hangup)
            }
        }
    }

    /// Reads the next request frame. The socket's read timeout is a poll
    /// tick: a tick with no byte ends an idle connection once the daemon
    /// drains, and ends one stalled inside a frame once the daemon drains
    /// or the frame is older than [`ServeConfig::timeout`] — a peer that
    /// stops mid-frame cannot pin its thread, or hold up shutdown's join.
    /// Returns `None` on hangup, on a malformed frame, and on either of
    /// those endings.
    fn read_request(&self, stream: &mut UnixStream) -> Option<Request> {
        use std::io::Read;
        const POLL: Duration = Duration::from_millis(100);
        stream.set_read_timeout(Some(POLL)).ok()?;
        let is_tick = |e: &io::Error| {
            matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
            )
        };
        // When the frame's first byte arrived; `None` between frames.
        let mut started: Option<Instant> = None;
        let give_up = |started: Option<Instant>| {
            self.shutdown.load(Ordering::SeqCst)
                || started.is_some_and(|t| t.elapsed() >= self.cfg.timeout)
        };
        let mut prefix = [0u8; 4];
        let mut have = 0usize;
        while have < prefix.len() {
            match stream.read(&mut prefix[have..]) {
                Ok(0) => return None, // peer hung up
                Ok(n) => {
                    have += n;
                    started.get_or_insert_with(Instant::now);
                }
                Err(e) if is_tick(&e) && !give_up(started) => {}
                Err(_) => return None,
            }
        }
        let len = frame_len(prefix).ok()?;
        let mut body = Vec::new();
        // `read_body` resumes where a tick interrupted it.
        while let Err(e) = read_body(stream, len, &mut body) {
            if !is_tick(&e) || give_up(started) {
                return None;
            }
        }
        decode_value::<Request>(&body).ok()
    }

    /// Serves one connection until the peer hangs up, shuts the daemon
    /// down, or the daemon drains while the connection is idle.
    /// Transport errors just end the connection — the daemon never dies
    /// because one client misbehaved.
    fn serve_connection(&self, mut stream: UnixStream) {
        while let Some(request) = self.read_request(&mut stream) {
            match self.handle_request(&mut stream, request) {
                Ok(Flow::Continue) => {}
                Ok(Flow::Hangup) | Err(_) => return,
            }
        }
    }
}

/// Runs the daemon on `cfg.socket` until a client sends
/// [`Request::Shutdown`]. Blocks the calling thread; connections are
/// served on one thread each. Returns the final counter snapshot after
/// every in-flight connection has drained and the socket file is gone.
///
/// First sets [`retain_freed_memory`] for the whole process, so call it
/// in a process that exists to serve.
pub fn serve(cfg: ServeConfig) -> io::Result<StatsSnapshot> {
    retain_freed_memory();
    // Replace a stale socket file (e.g. from a killed daemon) so
    // restarts are idempotent.
    let _ = std::fs::remove_file(&cfg.socket);
    let listener = UnixListener::bind(&cfg.socket)?;
    let socket = cfg.socket.clone();
    let engine = Arc::new(Engine::new(cfg));
    print_stderr(format_args!(
        "mrlr serve: listening on {}\n",
        socket.display()
    ));
    let mut handles: Vec<std::thread::JoinHandle<()>> = Vec::new();
    loop {
        let (stream, _) = listener.accept()?;
        if engine.shutdown.load(Ordering::SeqCst) {
            // The drain wake-up (or a client racing shutdown): refuse by
            // closing immediately; queued/in-flight work still completes.
            drop(stream);
            break;
        }
        let engine = Arc::clone(&engine);
        handles.retain(|h| !h.is_finished());
        handles.push(std::thread::spawn(move || engine.serve_connection(stream)));
    }
    for handle in handles {
        let _ = handle.join();
    }
    let _ = std::fs::remove_file(&socket);
    let snapshot = engine.stats.snapshot();
    print_stderr(format_args!("note: {}\n", snapshot.note_line()));
    Ok(snapshot)
}

/// Writes to stderr, ignoring the error when its reader has gone
/// (`mrlr serve … 2>&1 | true`): the daemon's narration must not end the
/// daemon, as `eprintln!`'s panic on a closed pipe would.
fn print_stderr(args: std::fmt::Arguments<'_>) {
    let _ = io::Write::write_fmt(&mut io::stderr().lock(), args);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(text: &str, seed: u64) -> SolveSpec {
        SolveSpec {
            algorithm: "matching".into(),
            backend: "shard".into(),
            instance_text: text.into(),
            mu_bits: 0.3f64.to_bits(),
            seed,
            threads: None,
            machines: None,
            workers: None,
        }
    }

    /// A key whose digest is forced, so two different specs can share it.
    fn key_with_digest(digest: u64, spec: SolveSpec) -> CoalesceKey {
        CoalesceKey {
            digest,
            spec: Arc::new(spec),
        }
    }

    const A: &str = "p graph 3 1\ne 0 1 1.0\n";
    const B: &str = "p graph 3 1\ne 1 2 2.0\n";

    #[test]
    fn specs_sharing_a_digest_never_coalesce() {
        let coalescer = Coalescer::new();
        let (a, b) = (
            key_with_digest(7, spec(A, 1)),
            key_with_digest(7, spec(B, 1)),
        );
        assert_ne!(a, b);
        let Ticket::Runner(first) = coalescer.join(a.clone()) else {
            panic!("the first arrival runs");
        };
        let Ticket::Runner(second) = coalescer.join(b) else {
            panic!("a different spec under the same digest joined a run");
        };
        // An equal spec under that digest still finds its run.
        let Ticket::Waiter(job) = coalescer.join(key_with_digest(7, spec(A, 1))) else {
            panic!("an equal spec did not coalesce");
        };
        assert!(Arc::ptr_eq(&job, &first.job));
        assert!(!Arc::ptr_eq(&first.job, &second.job));
        drop((first, second));
        assert!(coalescer.jobs.lock().unwrap().is_empty(), "runners retire");
    }

    #[test]
    fn texts_sharing_a_digest_never_share_a_parsed_instance() {
        let cache = ParseCache::new();
        let parse = |text| Arc::new(core_io::parse_instance(text).unwrap());
        let a = cache.get_or_parse(7, A).unwrap();
        let b = cache.get_or_parse(7, B).unwrap();
        assert_eq!(*a, *parse(A));
        assert_eq!(*b, *parse(B));
        assert_ne!(*a, *b);
        // The collision replaced the entry; `A` is parsed afresh.
        let again = cache.get_or_parse(7, A).unwrap();
        assert_eq!(*again, *parse(A));
        assert!(!Arc::ptr_eq(&again, &a));
        // A hit hands out the cached parse itself.
        assert!(Arc::ptr_eq(&cache.get_or_parse(7, A).unwrap(), &again));
    }
}
