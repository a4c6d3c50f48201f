//! `mrlr` — the file-based front end over the algorithm registry.
//!
//! Every run in the workspace used to be compiled in; this binary drives
//! the whole system through [`mrlr_core::api::Registry`] from files on
//! disk instead:
//!
//! ```text
//! mrlr list                         # algorithms × backends, gen families
//! mrlr gen densified --n 80 --out g.inst
//! mrlr solve matching --input g.inst --format json --out r.json
//! mrlr solve matching --input g.inst --backend shard   # bit-identical
//! mrlr verify g.inst r.json         # re-check the stored certificate
//! mrlr batch runs.manifest --format json --out b.json
//! mrlr verify b.json                # audit every slot of the batch
//! ```
//!
//! Instance files use the unified format of [`mrlr_core::io::instance`];
//! manifests the format of [`mrlr_core::io::manifest`]; reports serialize
//! via [`mrlr_core::io::report`] (`--mask-timings` zeroes host wall-clock
//! so outputs are bit-identical across `MRLR_THREADS` settings — the CI
//! smoke matrix diffs them against golden files). JSON reports embed the
//! certificate witness by default (`--certificates full`); `mrlr verify`
//! replays it offline via [`mrlr_core::api::witness::audit`] — no solver
//! re-run.
//!
//! Exit codes: 0 success, 1 runtime failure (unreadable file, infeasible
//! instance, solver error, failed verification), 2 usage error.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use mrlr_bench::sweep::SweepSpec;
use mrlr_bench::workloads::{self, GenParams};
use mrlr_core::api::{self, witness, Backend, Instance, Registry, Witness};
use mrlr_core::io::{self, CertificateMode, Json, TimingMode};
use mrlr_core::mr::MrConfig;
use mrlr_mapreduce::{SpawnKind, Timeline, WorkerKill};
use mrlr_serve::ReportFormat;

const USAGE: &str = "mrlr — greedy and local ratio algorithms in the MapReduce model

USAGE:
    mrlr list  [--format text|json]
    mrlr gen   <family> [--n N] [--m M] [--c C] [--gamma G] [--f F]
               [--delta D] [--max-len L] [--left L] [--w-min W] [--w-max W]
               [--unweighted] [--eps E] [--b-max B] [--seed S]
               [--out PATH | --pipe]
    mrlr gen   --sweep SPEC [--out-dir DIR]
    mrlr solve <algorithm> (--input PATH|- | --gen FAMILY[:knob=v,...])
               [--backend seq|rlr|mr|shard|dist]
               [--mu MU] [--seed S] [--threads N] [--machines M]
               [--workers N] [--kill W@S]
               [--format text|json|csv]
               [--certificates full|summary|committed]
               [--chunk-len N] [--witness-out PATH]
               [--mask-timings] [--timings-csv PATH] [--out PATH]
    mrlr verify <instance> <report.json> [--witness TRANSCRIPT [--chunk K]]
               [--quiet]
    mrlr verify <batch.json> [--instances-dir DIR] [--quiet]
    mrlr batch <manifest> [--backend seq|rlr|mr|shard|dist] [--format json|csv]
               [--certificates full|summary] [--mask-timings] [--out PATH]
    mrlr serve --socket PATH [--max-inflight N] [--queue N]
               [--timeout-millis T] [--hold-millis H]
    mrlr client solve <algorithm> --socket PATH --input PATH
               [--backend seq|rlr|mr|shard|dist] [--mu MU] [--seed S]
               [--threads N] [--machines M] [--workers N]
               [--format text|json|csv] [--certificates full|summary]
               [--mask-timings] [--timeout-millis T] [--out PATH]
    mrlr client batch <manifest> --socket PATH [--backend seq|rlr|mr|shard|dist]
               [--format json|csv] [--certificates full|summary]
               [--mask-timings] [--timeout-millis T] [--out PATH]
    mrlr client verify <instance> <report.json> --socket PATH [--quiet]
    mrlr client ping|stats|shutdown --socket PATH

Run `mrlr list` for the algorithm keys and generator families (with the
backends each key supports). The cluster shape is auto-derived from the
instance and `--mu` exactly as the paper parameterizes it; `--threads`
(default: MRLR_THREADS, else sequential) changes wall-clock only, and the
three cluster backends (`shard` on the in-process runtime, `dist` on the
master/worker control plane over real processes, `mr` on whichever of the
two MRLR_BACKEND=shard|dist names, `shard` when unset) return
bit-identical solutions, metrics and witnesses. Under `--backend dist`,
`--workers` sets the worker-process count (default: MRLR_DIST_WORKERS,
else 2) and `--kill W@S` kills worker W at superstep S to demonstrate
fault-tolerant recovery — the report is bit-identical anyway.

Instances load one way: `--input` files and stdin (`--input -`) are
read through a fixed window (the text is never held whole), and `--gen
FAMILY:knob=v,...` solves straight from the generator; `mrlr gen
--pipe` streams a generated instance to stdout line by line. `--stream`
is accepted and ignored. `gen --sweep SPEC` expands a
TOML-ish sweep file (one swept knob over a value list) into one
instance file per point. `--certificates committed` replaces a large
witness with a chunked Merkle commitment in the report and writes the
full transcript to `--witness-out`; `mrlr verify --witness TRANSCRIPT`
re-authenticates every chunk and replays the opened witness, and
`--chunk K` audits one chunk alone against its authentication path.

JSON reports embed a re-checkable certificate witness (dual vectors,
local-ratio stack transcripts, maximality blockers) unless
`--certificates summary` trims it. `mrlr verify` replays a stored report
against its instance — feasibility, witness, lower bound and ratio,
and the ratio against its theorem's bound (`f` for set-cover-f, 2 for
vertex-cover and matching) — without re-running the solver, exiting 1
with a located error on any mismatch. Given a batch document it audits every report slot against the
instances the document names (manifest-relative paths, resolved against
the document's directory — or --instances-dir when the document was
written away from its manifest), skips slots that recorded an error
(they claim nothing, matching `batch`'s exit-code semantics), and exits
1 if any audited slot fails. `mrlr batch` holds one instance and one
report at a time: each instance loads just before its jobs, and each
slot is rendered as it finishes; the document is written once, at the
end, so a batch that fails writes nothing.

`mrlr serve` runs the solver as a persistent daemon on a Unix socket:
thread pools and parsed instances stay warm across requests, at
most --max-inflight requests solve concurrently (--queue more may wait,
further arrivals are rejected with a `busy` error, exit 1), every wait
is bounded by --timeout-millis, and identical concurrent solves are
coalesced onto one solver run. `mrlr client` is the matching front end:
`client solve`/`client batch` read local files, solve on the daemon, and
print documents byte-identical to the offline commands; `client verify`
audits a stored report on the daemon; `ping`/`stats`/`shutdown` manage
it. Progress and serve statistics arrive as `note:` lines on stderr.
";

fn main() -> ExitCode {
    // Dist-worker re-entry: when a master spawned this process as a
    // worker, the rendezvous socket variable is set and the process
    // serves the shuffle-region protocol instead of parsing a command.
    if std::env::var_os(mrlr_mapreduce::dist::worker::SOCKET_ENV).is_some() {
        std::process::exit(mrlr_mapreduce::dist::worker::worker_main());
    }
    // The env defaults are read lazily, deep inside the first cluster
    // run; a mistyped value is a usage error here, not a panic there.
    if let Err(e) = mrlr_mapreduce::env_threads().and_then(|_| mrlr_mapreduce::env_runtime()) {
        eprintln!("mrlr: {e}");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => {
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match command {
        "list" => cmd_list(rest),
        "gen" => cmd_gen(rest),
        "solve" => cmd_solve(rest),
        "verify" => cmd_verify(rest),
        "batch" => cmd_batch(rest),
        "serve" => cmd_serve(rest),
        "client" => cmd_client(rest),
        "--help" | "-h" | "help" => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(CliError::usage(format!("unknown command `{other}`"))),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mrlr {command}: {}", e.message);
            if e.usage {
                eprint!("\n{USAGE}");
            }
            ExitCode::from(if e.usage { 2 } else { 1 })
        }
    }
}

struct CliError {
    message: String,
    usage: bool,
}

impl CliError {
    fn usage(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            usage: true,
        }
    }

    fn runtime(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            usage: false,
        }
    }
}

/// Parsed `--flag value` / `--switch` arguments plus positionals.
struct Flags {
    positional: Vec<String>,
    named: Vec<(String, String)>,
}

impl Flags {
    /// `switches` are value-less flags; every other `--flag` consumes the
    /// next token as its value.
    fn parse(args: &[String], switches: &[&str]) -> Result<Flags, CliError> {
        let mut positional = Vec::new();
        let mut named = Vec::new();
        let mut it = args.iter();
        while let Some(tok) = it.next() {
            if let Some(name) = tok.strip_prefix("--") {
                if switches.contains(&name) {
                    named.push((name.to_string(), "true".to_string()));
                } else {
                    let value = it
                        .next()
                        .ok_or_else(|| CliError::usage(format!("flag --{name} needs a value")))?;
                    named.push((name.to_string(), value.clone()));
                }
            } else {
                positional.push(tok.clone());
            }
        }
        Ok(Flags { positional, named })
    }

    fn take(&mut self, name: &str) -> Option<String> {
        let idx = self.named.iter().position(|(n, _)| n == name)?;
        Some(self.named.remove(idx).1)
    }

    fn take_parsed<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, CliError> {
        match self.take(name) {
            None => Ok(None),
            Some(raw) => raw
                .parse()
                .map(Some)
                .map_err(|_| CliError::usage(format!("bad value `{raw}` for --{name}"))),
        }
    }

    fn finish(self) -> Result<Vec<String>, CliError> {
        if let Some((name, _)) = self.named.first() {
            return Err(CliError::usage(format!("unknown flag --{name}")));
        }
        Ok(self.positional)
    }
}

fn write_output(out: Option<String>, content: &str) -> Result<(), CliError> {
    match out {
        None => {
            print!("{content}");
            Ok(())
        }
        Some(path) => std::fs::write(&path, content)
            .map_err(|e| CliError::runtime(format!("cannot write {path}: {e}"))),
    }
}

fn timing_mode(flags: &mut Flags) -> TimingMode {
    if flags.take("mask-timings").is_some() {
        TimingMode::Masked
    } else {
        TimingMode::Real
    }
}

/// `--backend` for `solve` and `batch`, parsed against [`Backend::ALL`]
/// (the single source of truth for backend names — `mrlr list` and the
/// README table derive from the same slice); `mr` is the default, and
/// the cluster backends (`mr`/`shard`/`dist`) are bit-identical.
fn parse_backend(flags: &mut Flags) -> Result<Backend, CliError> {
    match flags.take("backend") {
        None => Ok(Backend::Mr),
        Some(raw) => Backend::ALL
            .into_iter()
            .find(|b| b.to_string() == raw)
            .ok_or_else(|| {
                let names: Vec<String> = Backend::ALL.iter().map(Backend::to_string).collect();
                CliError::usage(format!(
                    "unknown backend `{raw}` (expected one of: {})",
                    names.join(", ")
                ))
            }),
    }
}

/// `--kill W@S`: kill worker `W` when it acknowledges superstep `S`
/// (dist backend only — the master recovers it and the run completes
/// bit-identically).
fn parse_kill(flags: &mut Flags) -> Result<Option<WorkerKill>, CliError> {
    let Some(raw) = flags.take("kill") else {
        return Ok(None);
    };
    let parsed = raw.split_once('@').and_then(|(w, s)| {
        Some(WorkerKill {
            worker: w.parse().ok()?,
            superstep: s.parse().ok()?,
        })
    });
    parsed.map(Some).ok_or_else(|| {
        CliError::usage(format!(
            "bad value `{raw}` for --kill (expected <worker>@<superstep>, e.g. 1@3)"
        ))
    })
}

fn certificate_mode(flags: &mut Flags) -> Result<CertificateMode, CliError> {
    match flags.take("certificates").as_deref() {
        None | Some("full") => Ok(CertificateMode::Full),
        Some("summary") => Ok(CertificateMode::Summary),
        Some(other) => Err(CliError::usage(format!(
            "unknown certificate mode `{other}` (expected full or summary)"
        ))),
    }
}

/// `--format` of one rendered document, checked before any work starts.
fn report_format(raw: &str) -> Result<ReportFormat, CliError> {
    match raw {
        "text" => Ok(ReportFormat::Text),
        "json" => Ok(ReportFormat::Json),
        "csv" => Ok(ReportFormat::Csv),
        other => Err(CliError::usage(format!("unknown format `{other}`"))),
    }
}

/// Default chunk length for `--certificates committed`.
const DEFAULT_CHUNK_LEN: usize = 256;

/// `--certificates committed`: replace the report's witness with a
/// chunked Merkle commitment and write the openable transcript sidecar
/// to `witness_out`.
struct CommitRequest {
    chunk_len: usize,
    witness_out: String,
}

/// `--certificates full|summary|committed` plus the commitment knobs
/// (`solve` only — `batch` and the client keep the two-mode
/// [`certificate_mode`]).
fn solve_certificate_flags(
    flags: &mut Flags,
) -> Result<(CertificateMode, Option<CommitRequest>), CliError> {
    let chunk_len = flags.take_parsed::<usize>("chunk-len")?;
    let witness_out = flags.take("witness-out");
    let mode = flags.take("certificates");
    match mode.as_deref() {
        Some("committed") => {
            let witness_out = witness_out.ok_or_else(|| {
                CliError::usage(
                    "--certificates committed needs --witness-out <path> for the \
                     transcript sidecar (without it the commitment could never be opened)",
                )
            })?;
            let chunk_len = chunk_len.unwrap_or(DEFAULT_CHUNK_LEN);
            if chunk_len == 0 {
                return Err(CliError::usage("--chunk-len must be at least 1"));
            }
            Ok((
                CertificateMode::Full,
                Some(CommitRequest {
                    chunk_len,
                    witness_out,
                }),
            ))
        }
        None | Some("full") | Some("summary") => {
            if chunk_len.is_some() || witness_out.is_some() {
                return Err(CliError::usage(
                    "--chunk-len/--witness-out require --certificates committed",
                ));
            }
            match mode.as_deref() {
                Some("summary") => Ok((CertificateMode::Summary, None)),
                _ => Ok((CertificateMode::Full, None)),
            }
        }
        Some(other) => Err(CliError::usage(format!(
            "unknown certificate mode `{other}` (expected full, summary or committed)"
        ))),
    }
}

// ---------------------------------------------------------------- list --

fn cmd_list(args: &[String]) -> Result<(), CliError> {
    let mut flags = Flags::parse(args, &[])?;
    let format = flags.take("format").unwrap_or_else(|| "text".into());
    if !flags.finish()?.is_empty() {
        return Err(CliError::usage("list takes no positional arguments"));
    }
    let registry = Registry::with_defaults();
    match format.as_str() {
        "text" => {
            println!("algorithms (mrlr solve <key>):");
            for name in registry.algorithms() {
                let driver = registry.get(name).expect("Mr driver registered");
                let backends: Vec<String> = registry
                    .backends(name)
                    .into_iter()
                    .map(|b| b.to_string())
                    .collect();
                let info = registry.info(name).expect("paper key has an info row");
                println!(
                    "  {name:<18} {:<22} backends: {:<10} {} (ratio {}, rounds {})",
                    driver.instance_kind().to_string(),
                    backends.join(","),
                    info.theorem,
                    info.ratio,
                    info.rounds,
                );
            }
            println!("\ngenerator families (mrlr gen <family>):");
            for spec in workloads::FAMILIES {
                println!(
                    "  {:<18} {:<22} {}",
                    spec.name,
                    spec.kind.to_string(),
                    spec.description
                );
            }
            Ok(())
        }
        "json" => {
            let algorithms = registry
                .algorithms()
                .into_iter()
                .map(|name| {
                    let driver = registry.get(name).expect("Mr driver registered");
                    let info = registry.info(name).expect("paper key has an info row");
                    Json::Obj(vec![
                        ("key", Json::str(name)),
                        (
                            "instance_kind",
                            Json::str(driver.instance_kind().to_string()),
                        ),
                        (
                            "backends",
                            Json::Arr(
                                registry
                                    .backends(name)
                                    .into_iter()
                                    .map(|b| Json::str(b.to_string()))
                                    .collect(),
                            ),
                        ),
                        ("theorem", Json::str(info.theorem)),
                        ("rounds", Json::str(info.rounds)),
                        ("space", Json::str(info.space)),
                        ("ratio", Json::str(info.ratio)),
                        ("witness", Json::str(info.witness)),
                    ])
                })
                .collect();
            let families = workloads::FAMILIES
                .iter()
                .map(|spec| {
                    Json::Obj(vec![
                        ("name", Json::str(spec.name)),
                        ("kind", Json::str(spec.kind.to_string())),
                        ("description", Json::str(spec.description)),
                    ])
                })
                .collect();
            print!(
                "{}",
                Json::Obj(vec![
                    ("algorithms", Json::Arr(algorithms)),
                    ("families", Json::Arr(families)),
                ])
                .render()
            );
            Ok(())
        }
        other => Err(CliError::usage(format!("unknown format `{other}`"))),
    }
}

// ----------------------------------------------------------------- gen --

fn cmd_gen(args: &[String]) -> Result<(), CliError> {
    let mut flags = Flags::parse(args, &["unweighted", "pipe"])?;
    let pipe = flags.take("pipe").is_some();
    if let Some(spec_path) = flags.take("sweep") {
        if pipe {
            return Err(CliError::usage(
                "--sweep writes one file per point; it cannot combine with --pipe",
            ));
        }
        let out_dir = flags.take("out-dir").unwrap_or_else(|| ".".into());
        if !flags.finish()?.is_empty() {
            return Err(CliError::usage(
                "gen --sweep takes no positional arguments (family and knobs live in the spec)",
            ));
        }
        return gen_sweep(&spec_path, &out_dir);
    }
    let mut params = GenParams::default();
    if let Some(n) = flags.take_parsed("n")? {
        params.n = n;
    }
    params.m = flags.take_parsed("m")?;
    if let Some(c) = flags.take_parsed("c")? {
        params.c = c;
    }
    if let Some(g) = flags.take_parsed("gamma")? {
        params.gamma = g;
    }
    if let Some(f) = flags.take_parsed("f")? {
        params.f = f;
    }
    if let Some(d) = flags.take_parsed("delta")? {
        params.delta = d;
    }
    if let Some(l) = flags.take_parsed("max-len")? {
        params.max_len = l;
    }
    params.left = flags.take_parsed("left")?;
    if let Some(w) = flags.take_parsed("w-min")? {
        params.w_min = w;
    }
    if let Some(w) = flags.take_parsed("w-max")? {
        params.w_max = w;
    }
    params.unweighted = flags.take("unweighted").is_some();
    if let Some(e) = flags.take_parsed("eps")? {
        params.eps = e;
    }
    if let Some(b) = flags.take_parsed("b-max")? {
        params.b_max = b;
    }
    if let Some(s) = flags.take_parsed("seed")? {
        params.seed = s;
    }
    let out = flags.take("out");
    if pipe && out.is_some() {
        return Err(CliError::usage("--pipe streams to stdout; drop --out"));
    }
    let positional = flags.finish()?;
    let [family] = positional.as_slice() else {
        return Err(CliError::usage("gen needs exactly one <family> argument"));
    };
    let instance = workloads::build(family, &params).map_err(CliError::usage)?;
    match out {
        Some(path) => write_instance_file(std::path::Path::new(&path), &instance),
        None => {
            let stdout = std::io::stdout();
            write_instance_to(stdout.lock(), &instance)
                .map_err(|e| CliError::runtime(format!("cannot write to stdout: {e}")))
        }
    }
}

/// Streams `instance` into `sink` line by line through one buffer — the
/// document is never held whole, so it may be far larger than memory.
fn write_instance_to(sink: impl std::io::Write, instance: &Instance) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(sink);
    io::write_instance(&mut w, instance)?;
    std::io::Write::flush(&mut w)
}

fn write_instance_file(path: &std::path::Path, instance: &Instance) -> Result<(), CliError> {
    std::fs::File::create(path)
        .and_then(|file| write_instance_to(file, instance))
        .map_err(|e| CliError::runtime(format!("cannot write {}: {e}", path.display())))
}

/// `gen --sweep`: expands a sweep-spec file into one instance file per
/// swept value, streamed straight to disk.
fn gen_sweep(spec_path: &str, out_dir: &str) -> Result<(), CliError> {
    let text = std::fs::read_to_string(spec_path)
        .map_err(|e| CliError::runtime(format!("cannot read {spec_path}: {e}")))?;
    let spec =
        SweepSpec::parse(&text).map_err(|e| CliError::runtime(format!("{spec_path}: {e}")))?;
    std::fs::create_dir_all(out_dir)
        .map_err(|e| CliError::runtime(format!("cannot create {out_dir}: {e}")))?;
    for point in spec.points() {
        let instance = spec.build(&point).map_err(CliError::runtime)?;
        let path = std::path::Path::new(out_dir).join(&point.out);
        write_instance_file(&path, &instance)?;
        println!("wrote {} ({} = {})", path.display(), spec.knob, point.value);
    }
    Ok(())
}

// --------------------------------------------------------------- solve --

fn open_input(path: &str) -> Result<std::fs::File, CliError> {
    std::fs::File::open(path).map_err(|e| CliError::runtime(format!("cannot read {path}: {e}")))
}

/// Materializes the instance `input` holds, read through the parser's
/// fixed window — the text is never held whole. `name` labels errors.
fn load_instance(input: impl std::io::Read, name: &str) -> Result<Instance, CliError> {
    io::read_instance(input, io::DEFAULT_BUF_LEN)
        .map_err(|e| CliError::runtime(format!("{name}: {e}")))
}

fn load_instance_file(path: &str) -> Result<Instance, CliError> {
    load_instance(open_input(path)?, path)
}

fn configure(
    instance: &Instance,
    mu: f64,
    seed: u64,
    threads: Option<usize>,
    machines: Option<usize>,
) -> MrConfig {
    let mut cfg = instance.auto_config(mu, seed);
    if let Some(t) = threads {
        cfg = cfg.with_threads(t);
    }
    if let Some(m) = machines {
        cfg = cfg.with_machines(m);
    }
    cfg
}

/// Where `solve` takes its instance from.
enum Source {
    /// `--input <path>`.
    File(String),
    /// `--input -`.
    Stdin,
    /// `--gen FAMILY[:knob=v,...]` — built in memory, never on disk.
    Gen(String),
}

fn cmd_solve(args: &[String]) -> Result<(), CliError> {
    let mut flags = Flags::parse(args, &["mask-timings", "stream"])?;
    let timing = timing_mode(&mut flags);
    let (certificates, commit_request) = solve_certificate_flags(&mut flags)?;
    let source = match (flags.take("input"), flags.take("gen")) {
        (Some(_), Some(_)) => {
            return Err(CliError::usage("--input and --gen are mutually exclusive"))
        }
        (Some(path), None) if path == "-" => Source::Stdin,
        (Some(path), None) => Source::File(path),
        (None, Some(spec)) => Source::Gen(spec),
        (None, None) => {
            return Err(CliError::usage(
                "solve needs --input <path|-> or --gen <family[:knob=v,...]>",
            ))
        }
    };
    // `--stream` is accepted and ignored: every instance loads one way.
    let _ = flags.take("stream");
    let backend = parse_backend(&mut flags)?;
    let mu = flags.take_parsed("mu")?.unwrap_or(io::manifest::DEFAULT_MU);
    if !(mu.is_finite() && mu > 0.0) {
        return Err(CliError::usage(format!(
            "--mu must be positive and finite (got {mu})"
        )));
    }
    let seed = flags
        .take_parsed("seed")?
        .unwrap_or(io::manifest::DEFAULT_SEED);
    let threads = flags.take_parsed("threads")?;
    let machines = flags.take_parsed("machines")?;
    let workers = flags.take_parsed("workers")?;
    let kill = parse_kill(&mut flags)?;
    let format = report_format(flags.take("format").as_deref().unwrap_or("text"))?;
    let timings_csv = flags.take("timings-csv");
    let out = flags.take("out");
    let positional = flags.finish()?;
    let [algorithm] = positional.as_slice() else {
        return Err(CliError::usage(
            "solve needs exactly one <algorithm> argument",
        ));
    };

    let instance = match source {
        Source::File(path) => load_instance_file(&path)?,
        Source::Stdin => load_instance(std::io::stdin().lock(), "<stdin>")?,
        Source::Gen(spec) => workloads::build_spec(&spec).map_err(CliError::usage)?,
    };
    let mut cfg = configure(&instance, mu, seed, threads, machines);
    if backend == Backend::Dist {
        // An explicit dist solve exercises the real thing: worker
        // processes over Unix sockets (this binary re-enters as the
        // worker; see the hook at the top of `main`).
        cfg = cfg.with_spawn(SpawnKind::Process);
    }
    if let Some(w) = workers {
        cfg = cfg.with_workers(w);
    }
    if let Some(k) = kill {
        cfg = cfg.with_worker_kill(k);
    }
    let mut report = Registry::with_defaults()
        .solve_with(algorithm, backend, &instance, &cfg)
        .map_err(|e| CliError::runtime(e.to_string()))?;

    if let Some(request) = &commit_request {
        let commitment = api::commit_witness(&report.certificate.witness, request.chunk_len)
            .map_err(|e| CliError::runtime(format!("cannot commit witness: {e}")))?;
        std::fs::write(&request.witness_out, &commitment.transcript)
            .map_err(|e| CliError::runtime(format!("cannot write {}: {e}", request.witness_out)))?;
        report.certificate.witness = commitment.witness;
    }

    // Fault recoveries are host-level observables (never serialized into
    // the report, which stays bit-identical to a clean run): narrate
    // them on stderr so operators — and the fault-injection smoke — can
    // see the kill actually fired.
    if let Some(metrics) = report.metrics.as_ref() {
        for line in Timeline::from_metrics(metrics).annotations() {
            eprintln!("note: {line}");
        }
    }

    if let Some(path) = timings_csv {
        let csv = report
            .metrics
            .as_ref()
            .map(|m| Timeline::from_metrics(m).timing_csv())
            .unwrap_or_else(|| {
                "pass,superstep,wall_nanos,max_machine_nanos,sum_machine_nanos,tasks,skew\n"
                    .to_string()
            });
        std::fs::write(&path, csv)
            .map_err(|e| CliError::runtime(format!("cannot write {path}: {e}")))?;
    }

    let content = match format {
        ReportFormat::Json => io::report_json_with(&report, timing, certificates).render(),
        ReportFormat::Csv => format!(
            "{}\n{}\n",
            io::REPORT_CSV_HEADER,
            io::report_csv_row(&report, timing)
        ),
        ReportFormat::Text => io::report_text(&report, timing),
    };
    write_output(out, &content)
}

// -------------------------------------------------------------- verify --

/// Audits one stored report against its instance, returning the check
/// descriptions. `location` prefixes every error (a path, or a batch
/// grid position).
fn audit_stored(
    instance: &Instance,
    stored: &io::StoredReport,
    location: &str,
) -> Result<Vec<String>, CliError> {
    let Some(witness) = &stored.witness else {
        return Err(CliError::runtime(format!(
            "{location}: certificate has no witness — re-solve with --certificates full \
             to produce a re-verifiable report"
        )));
    };
    witness::audit(
        instance,
        &stored.algorithm,
        &stored.solution,
        &stored.claims,
        witness,
    )
    .map_err(|e| CliError::runtime(format!("{location}: {e}")))
}

fn cmd_verify(args: &[String]) -> Result<(), CliError> {
    let mut flags = Flags::parse(args, &["quiet"])?;
    let quiet = flags.take("quiet").is_some();
    let instances_dir = flags.take("instances-dir");
    let witness_path = flags.take("witness");
    let chunk = flags.take_parsed::<usize>("chunk")?;
    if chunk.is_some() && witness_path.is_none() {
        return Err(CliError::usage("--chunk needs --witness <transcript>"));
    }
    let positional = flags.finish()?;
    match positional.as_slice() {
        [instance_path, report_path] => {
            if instances_dir.is_some() {
                return Err(CliError::usage(
                    "--instances-dir only applies to batch documents",
                ));
            }
            let instance = load_instance_file(instance_path)?;
            let text = std::fs::read_to_string(report_path)
                .map_err(|e| CliError::runtime(format!("cannot read {report_path}: {e}")))?;
            let stored = io::parse_report(&text)
                .map_err(|e| CliError::runtime(format!("{report_path}: {e}")))?;
            let checks = match &witness_path {
                Some(transcript_path) => {
                    audit_committed_stored(&instance, &stored, report_path, transcript_path, chunk)?
                }
                None => audit_stored(&instance, &stored, report_path)?,
            };
            if !quiet {
                for check in &checks {
                    println!("ok: {check}");
                }
                println!(
                    "verified: {} ({}) report against {}",
                    stored.algorithm, stored.backend, instance_path
                );
            }
            Ok(())
        }
        [batch_path] => {
            if witness_path.is_some() {
                return Err(CliError::usage(
                    "--witness applies to single-report verification, not batch documents",
                ));
            }
            verify_batch(batch_path, instances_dir.as_deref(), quiet)
        }
        _ => Err(CliError::usage(
            "verify needs <instance> and <report.json> arguments (or one <batch.json>)",
        )),
    }
}

/// `verify --witness`: audits a committed-witness report against its
/// transcript sidecar — the full open-and-replay audit, or (with
/// `--chunk K`) a single chunk against its authentication path.
fn audit_committed_stored(
    instance: &Instance,
    stored: &io::StoredReport,
    report_path: &str,
    transcript_path: &str,
    chunk: Option<usize>,
) -> Result<Vec<String>, CliError> {
    let Some(witness @ Witness::Committed { .. }) = &stored.witness else {
        return Err(CliError::runtime(format!(
            "{report_path}: --witness only applies to a committed-witness report \
             (this report stores a plain witness — verify it without --witness)"
        )));
    };
    let transcript = std::fs::read_to_string(transcript_path)
        .map_err(|e| CliError::runtime(format!("cannot read {transcript_path}: {e}")))?;
    match chunk {
        Some(index) => api::audit_chunk(witness, &transcript, index)
            .map(|check| vec![check])
            .map_err(|e| CliError::runtime(format!("{transcript_path}: {e}"))),
        None => api::audit_committed(
            instance,
            &stored.algorithm,
            &stored.solution,
            &stored.claims,
            witness,
            &transcript,
        )
        .map_err(|e| CliError::runtime(format!("{transcript_path}: {e}"))),
    }
}

/// Audits every report slot of a batch document against the instances it
/// names. The document records manifest-relative paths, so they resolve
/// relative to the document's directory by default (the natural layout:
/// the document written next to its manifest); when the document was
/// written elsewhere (`batch --out` into another directory),
/// `--instances-dir` points resolution at the manifest's directory
/// instead. Error slots are skipped — the batch already isolated them
/// and they make no claims — mirroring `batch`'s exit-code semantics;
/// any *failing* audit exits 1 with its grid location.
fn verify_batch(
    batch_path: &str,
    instances_dir: Option<&str>,
    quiet: bool,
) -> Result<(), CliError> {
    let batch = {
        let text = std::fs::read_to_string(batch_path)
            .map_err(|e| CliError::runtime(format!("cannot read {batch_path}: {e}")))?;
        let root =
            io::parse_json(&text).map_err(|e| CliError::runtime(format!("{batch_path}: {e}")))?;
        if !io::is_batch_document(&root) {
            return Err(CliError::runtime(format!(
                "{batch_path} is a single report, not a batch document — pass its instance: \
                 mrlr verify <instance> {batch_path}"
            )));
        }
        // Built from the one tree; the tree and the text go before any
        // instance loads.
        io::parse_batch_value(&root).map_err(|e| CliError::runtime(format!("{batch_path}: {e}")))?
    };
    let base = match instances_dir {
        Some(dir) => std::path::Path::new(dir),
        None => std::path::Path::new(batch_path)
            .parent()
            .unwrap_or_else(|| std::path::Path::new(".")),
    };
    let instances: Vec<Instance> = batch
        .instances
        .iter()
        .map(|rel| load_instance_file(&base.join(rel).to_string_lossy()))
        .collect::<Result<_, _>>()?;

    let mut audited = 0usize;
    let mut skipped = 0usize;
    let mut failures: Vec<String> = Vec::new();
    for (i, per_instance) in batch.results.iter().enumerate() {
        for (j, slot) in per_instance.iter().enumerate() {
            let location = format!("{batch_path}: results[{i}][{j}]");
            match slot {
                io::BatchSlot::Error(e) => {
                    skipped += 1;
                    if !quiet {
                        println!("skip: results[{i}][{j}] recorded error: {e}");
                    }
                }
                io::BatchSlot::Report(stored) => {
                    match audit_stored(&instances[i], stored, &location) {
                        Ok(checks) => {
                            audited += 1;
                            if !quiet {
                                for check in &checks {
                                    println!("ok: results[{i}][{j}] {check}");
                                }
                            }
                        }
                        Err(e) => {
                            eprintln!("mrlr verify: {}", e.message);
                            failures.push(format!("results[{i}][{j}] ({})", stored.algorithm));
                        }
                    }
                }
            }
        }
    }
    if !failures.is_empty() {
        return Err(CliError::runtime(format!(
            "{} of {} report slots failed verification: {}",
            failures.len(),
            audited + failures.len(),
            failures.join(", ")
        )));
    }
    if !quiet {
        println!(
            "verified: {audited} report slots against {} instances ({skipped} error slots skipped)",
            batch.instances.len()
        );
    }
    Ok(())
}

// --------------------------------------------------------------- batch --

fn job_cfg(instance: &Instance, job: &io::JobSpec, backend: Backend) -> MrConfig {
    let cfg = configure(instance, job.mu, job.seed, job.threads, None);
    if backend == Backend::Dist {
        cfg.with_spawn(SpawnKind::Process)
    } else {
        cfg
    }
}

fn cmd_batch(args: &[String]) -> Result<(), CliError> {
    let mut flags = Flags::parse(args, &["mask-timings"])?;
    let timing = timing_mode(&mut flags);
    let certificates = certificate_mode(&mut flags)?;
    let backend = parse_backend(&mut flags)?;
    let format = match flags.take("format").as_deref() {
        None | Some("json") => io::BatchFormat::Json(certificates),
        Some("csv") => io::BatchFormat::Csv,
        Some(other) => return Err(CliError::usage(format!("unknown format `{other}`"))),
    };
    let out = flags.take("out");
    let positional = flags.finish()?;
    let [manifest_path] = positional.as_slice() else {
        return Err(CliError::usage(
            "batch needs exactly one <manifest> argument",
        ));
    };

    let text = std::fs::read_to_string(manifest_path)
        .map_err(|e| CliError::runtime(format!("cannot read {manifest_path}: {e}")))?;
    let manifest = io::parse_manifest(&text)
        .map_err(|e| CliError::runtime(format!("{manifest_path}: {e}")))?;

    // Instance paths resolve relative to the manifest's directory, so a
    // manifest and its workload files travel together. Each instance
    // loads just before its jobs, so a missing file is caught here,
    // before the first solve.
    let base = std::path::Path::new(manifest_path)
        .parent()
        .unwrap_or_else(|| std::path::Path::new("."));
    let paths: Vec<String> = manifest
        .instances
        .iter()
        .map(|rel| base.join(rel).to_string_lossy().into_owned())
        .collect();
    for path in &paths {
        std::fs::metadata(path)
            .map_err(|e| CliError::runtime(format!("cannot read {path}: {e}")))?;
    }

    let registry = Registry::with_defaults();
    // The runner is shared with `mrlr serve`, which is what keeps served
    // batch documents byte-identical to these offline ones. Job cluster
    // shapes are auto-derived from each instance.
    let content = io::run_batch(
        &manifest.instances,
        &manifest.jobs,
        format,
        timing,
        |i| load_instance_file(&paths[i]),
        |instance, j| {
            let job = &manifest.jobs[j];
            let cfg = job_cfg(instance, job, backend);
            registry
                .solve_with(&job.algorithm, backend, instance, &cfg)
                .map_err(|e| e.to_string())
        },
        |_| Ok(()),
    )?;
    write_output(out, &content)
}

// --------------------------------------------------------------- serve --

fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    let mut flags = Flags::parse(args, &[])?;
    let socket = flags
        .take("socket")
        .ok_or_else(|| CliError::usage("serve needs --socket <path>"))?;
    let mut cfg = mrlr_serve::ServeConfig::new(socket);
    if let Some(n) = flags.take_parsed("max-inflight")? {
        if n == 0 {
            return Err(CliError::usage("--max-inflight must be at least 1"));
        }
        cfg.max_inflight = n;
    }
    if let Some(n) = flags.take_parsed("queue")? {
        cfg.queue = n;
    }
    if let Some(t) = flags.take_parsed::<u64>("timeout-millis")? {
        cfg.timeout = std::time::Duration::from_millis(t);
    }
    if let Some(h) = flags.take_parsed::<u64>("hold-millis")? {
        cfg.hold = std::time::Duration::from_millis(h);
    }
    // The daemon is this binary, so dist solves get real worker
    // processes via the same re-entry hook `mrlr solve --backend dist`
    // uses (workers are spawned and reaped per solve).
    cfg.dist_spawn = SpawnKind::Process;
    if !flags.finish()?.is_empty() {
        return Err(CliError::usage("serve takes no positional arguments"));
    }
    mrlr_serve::serve(cfg)
        .map(|_| ())
        .map_err(|e| CliError::runtime(e.to_string()))
}

// -------------------------------------------------------------- client --

/// `--format`/`--mask-timings`/`--certificates` for the remote
/// commands, translated into the wire-level rendering options the
/// daemon applies server-side.
fn render_opts(
    flags: &mut Flags,
    default_format: &str,
) -> Result<mrlr_serve::RenderOpts, CliError> {
    let mask = flags.take("mask-timings").is_some();
    let certificates = certificate_mode(&mut *flags)?;
    let format = report_format(flags.take("format").as_deref().unwrap_or(default_format))?;
    Ok(mrlr_serve::RenderOpts {
        format,
        mask_timings: mask,
        certificates_full: certificates == CertificateMode::Full,
    })
}

fn connect(flags: &mut Flags) -> Result<mrlr_serve::Client, CliError> {
    let socket = flags
        .take("socket")
        .ok_or_else(|| CliError::usage("client needs --socket <path>"))?;
    mrlr_serve::Client::connect(&socket)
        .map_err(|e| CliError::runtime(format!("cannot connect to {socket}: {e}")))
}

/// Runs a remote solve/batch conversation to its document, narrating
/// `note:` frames on stderr exactly like the offline commands narrate
/// their Timeline annotations.
fn run_served(
    client: &mut mrlr_serve::Client,
    request: &mrlr_serve::Request,
    out: Option<String>,
) -> Result<(), CliError> {
    let served = client
        .solve(request, &mut |line| eprintln!("note: {line}"))
        .map_err(|e| CliError::runtime(e.to_string()))?;
    if served.coalesced {
        eprintln!("note: coalesced onto a concurrent identical request");
    }
    write_output(out, &served.content)
}

fn client_solve(args: &[String]) -> Result<(), CliError> {
    let mut flags = Flags::parse(args, &["mask-timings"])?;
    let render = render_opts(&mut flags, "text")?;
    let mut client = connect(&mut flags)?;
    let input = flags
        .take("input")
        .ok_or_else(|| CliError::usage("client solve needs --input <path>"))?;
    let backend = parse_backend(&mut flags)?;
    let mu = flags.take_parsed("mu")?.unwrap_or(io::manifest::DEFAULT_MU);
    if !(mu.is_finite() && mu > 0.0) {
        return Err(CliError::usage(format!(
            "--mu must be positive and finite (got {mu})"
        )));
    }
    let seed = flags
        .take_parsed("seed")?
        .unwrap_or(io::manifest::DEFAULT_SEED);
    let threads = flags.take_parsed::<u64>("threads")?;
    let machines = flags.take_parsed::<u64>("machines")?;
    let workers = flags.take_parsed::<u64>("workers")?;
    let timeout_millis = flags.take_parsed::<u64>("timeout-millis")?.unwrap_or(0);
    let out = flags.take("out");
    let positional = flags.finish()?;
    let [algorithm] = positional.as_slice() else {
        return Err(CliError::usage(
            "client solve needs exactly one <algorithm> argument",
        ));
    };
    let instance_text = std::fs::read_to_string(&input)
        .map_err(|e| CliError::runtime(format!("cannot read {input}: {e}")))?;
    let request = mrlr_serve::Request::Solve {
        spec: mrlr_serve::SolveSpec {
            algorithm: algorithm.clone(),
            backend: backend.to_string(),
            instance_text,
            mu_bits: mu.to_bits(),
            seed,
            threads,
            machines,
            workers,
        },
        render,
        timeout_millis,
    };
    run_served(&mut client, &request, out)
}

fn client_batch(args: &[String]) -> Result<(), CliError> {
    let mut flags = Flags::parse(args, &["mask-timings"])?;
    let render = render_opts(&mut flags, "json")?;
    let mut client = connect(&mut flags)?;
    let backend = parse_backend(&mut flags)?;
    let timeout_millis = flags.take_parsed::<u64>("timeout-millis")?.unwrap_or(0);
    let out = flags.take("out");
    let positional = flags.finish()?;
    let [manifest_path] = positional.as_slice() else {
        return Err(CliError::usage(
            "client batch needs exactly one <manifest> argument",
        ));
    };
    let text = std::fs::read_to_string(manifest_path)
        .map_err(|e| CliError::runtime(format!("cannot read {manifest_path}: {e}")))?;
    let manifest = io::parse_manifest(&text)
        .map_err(|e| CliError::runtime(format!("{manifest_path}: {e}")))?;
    // The client reads the instance files (manifest-relative, like
    // `mrlr batch`) and ships their text; the daemon never touches the
    // local filesystem.
    let base = std::path::Path::new(manifest_path)
        .parent()
        .unwrap_or_else(|| std::path::Path::new("."));
    let instances = manifest
        .instances
        .iter()
        .map(|rel| {
            let path = base.join(rel);
            std::fs::read_to_string(&path)
                .map(|text| (rel.clone(), text))
                .map_err(|e| CliError::runtime(format!("cannot read {}: {e}", path.display())))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let jobs = manifest
        .jobs
        .iter()
        .map(|j| mrlr_serve::BatchJob {
            algorithm: j.algorithm.clone(),
            mu_bits: j.mu.to_bits(),
            seed: j.seed,
            threads: j.threads.map(|t| t as u64),
        })
        .collect();
    let request = mrlr_serve::Request::Batch {
        instances,
        jobs,
        backend: backend.to_string(),
        render,
        timeout_millis,
    };
    run_served(&mut client, &request, out)
}

fn client_verify(args: &[String]) -> Result<(), CliError> {
    let mut flags = Flags::parse(args, &["quiet"])?;
    let quiet = flags.take("quiet").is_some();
    let mut client = connect(&mut flags)?;
    let positional = flags.finish()?;
    let [instance_path, report_path] = positional.as_slice() else {
        return Err(CliError::usage(
            "client verify needs <instance> and <report.json> arguments",
        ));
    };
    let instance_text = std::fs::read_to_string(instance_path)
        .map_err(|e| CliError::runtime(format!("cannot read {instance_path}: {e}")))?;
    let report_json = std::fs::read_to_string(report_path)
        .map_err(|e| CliError::runtime(format!("cannot read {report_path}: {e}")))?;
    let (algorithm, backend, checks) = client
        .verify(instance_text, report_json)
        .map_err(|e| CliError::runtime(e.to_string()))?;
    if !quiet {
        for check in &checks {
            println!("ok: {check}");
        }
        println!("verified: {algorithm} ({backend}) report against {instance_path}");
    }
    Ok(())
}

fn cmd_client(args: &[String]) -> Result<(), CliError> {
    let (action, rest) = match args.split_first() {
        Some((a, rest)) => (a.as_str(), rest),
        None => {
            return Err(CliError::usage(
                "client needs an action: solve, batch, verify, ping, stats or shutdown",
            ))
        }
    };
    match action {
        "solve" => client_solve(rest),
        "batch" => client_batch(rest),
        "verify" => client_verify(rest),
        "ping" => {
            let mut flags = Flags::parse(rest, &[])?;
            let mut client = connect(&mut flags)?;
            let nonce = flags.take_parsed::<u64>("nonce")?.unwrap_or(0);
            flags.finish()?;
            let echoed = client
                .ping(nonce)
                .map_err(|e| CliError::runtime(e.to_string()))?;
            if echoed != nonce {
                return Err(CliError::runtime(format!(
                    "daemon echoed nonce {echoed}, expected {nonce}"
                )));
            }
            println!("pong {echoed}");
            Ok(())
        }
        "stats" => {
            let mut flags = Flags::parse(rest, &[])?;
            let mut client = connect(&mut flags)?;
            flags.finish()?;
            let stats = client
                .stats()
                .map_err(|e| CliError::runtime(e.to_string()))?;
            print!(
                "{}",
                Json::Obj(vec![
                    ("requests", Json::U64(stats.requests)),
                    ("solver_runs", Json::U64(stats.solver_runs)),
                    ("coalesce_hits", Json::U64(stats.coalesce_hits)),
                    ("busy_rejects", Json::U64(stats.busy_rejects)),
                    ("timeouts", Json::U64(stats.timeouts)),
                    ("inflight_high_water", Json::U64(stats.inflight_high_water)),
                    (
                        "queue_depth_high_water",
                        Json::U64(stats.queue_depth_high_water),
                    ),
                ])
                .render()
            );
            Ok(())
        }
        "shutdown" => {
            let mut flags = Flags::parse(rest, &[])?;
            let mut client = connect(&mut flags)?;
            flags.finish()?;
            client
                .shutdown()
                .map_err(|e| CliError::runtime(e.to_string()))?;
            println!("daemon drained and exited");
            Ok(())
        }
        other => Err(CliError::usage(format!("unknown client action `{other}`"))),
    }
}
