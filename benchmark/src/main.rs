//! `mrlr-benchmark` — the repo's one benchmark. See README.md for the
//! metric and workload glossary; `benchmark/run.sh` builds and starts it.
//!
//! ```text
//! run.sh --workload W --seed N --seconds S --trace 0|1   one run; last line = result object
//! run.sh [--trace 1] [--seed N] [--runs R] [--out F]     a set: every workload, R runs each
//! run.sh --twice                                         two sets, then `compare`
//! run.sh --quick                                         small instances, 3 passes (smoke)
//! run.sh compare A.json B.json                           judge B against A
//! ```

mod compare;
mod proc;
mod result;
mod spans;
mod spec;
mod stats;
mod traced;
mod untraced;
mod workloads;

use std::fmt::Write as _;
use std::process::{Command, ExitCode};
use std::time::Instant;

use proc::Bins;
use result::{quoted, RunResult};
use spec::Spec;

#[global_allocator]
static GLOBAL: spans::CountingAlloc = spans::CountingAlloc;

/// What every run is told.
pub struct Opts {
    /// Generator seeds, manifest `seed=` values, solver seeds and the
    /// `serve-mix` request sequence all derive from it.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Instances about a twentieth the size, three passes.
    pub quick: bool,
}

struct Args {
    workload: Option<String>,
    trace: bool,
    twice: bool,
    runs: u64,
    out: Option<String>,
    opts: Opts,
}

fn usage() -> String {
    "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick]\n\
     \x20             [--runs R] [--out FILE] [--twice]\n\
     \x20      run.sh compare A.json B.json"
        .to_string()
}

fn parse_args(args: &[String], spec: &Spec) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        trace: false,
        twice: false,
        runs: 1,
        out: None,
        opts: Opts {
            seed: 42,
            seconds: spec.run_seconds as f64,
            quick: false,
        },
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        let bad = |v: &str| format!("bad value `{v}` for {flag}");
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => parsed.opts.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                parsed.opts.seconds = value().and_then(|v| v.parse().map_err(|_| bad(v)))?
            }
            "--runs" => parsed.runs = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--out" => parsed.out = Some(value()?.clone()),
            "--quick" => parsed.opts.quick = true,
            "--twice" => parsed.twice = true,
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    Ok(parsed)
}

fn run_one(
    bins: &Bins,
    workload: &'static workloads::Workload,
    trace: bool,
    opts: &Opts,
) -> RunResult {
    if trace {
        traced::run(bins, workload, opts)
    } else {
        untraced::run(bins, workload, opts)
    }
}

fn first_line(cmd: &mut Command) -> String {
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Runs every workload `runs` times (seeds `seed`, `seed + 1`, …), prints
/// each result, and writes the set document `compare` reads.
fn run_set(bins: &Bins, spec: &Spec, args: &Args, out: &str) -> Result<bool, String> {
    let started = Instant::now();
    let mut entries = Vec::new();
    let mut correct = true;
    for name in &spec.workloads {
        let workload = workloads::find(name)
            .ok_or_else(|| format!("BENCHMARK.json names unknown workload `{name}`"))?;
        for run in 0..args.runs {
            let opts = Opts {
                seed: args.opts.seed + run,
                ..args.opts
            };
            let result = run_one(bins, workload, args.trace, &opts);
            print!("{}", result.table(spec));
            correct &= result.failed == 0;
            entries.push(result.set_entry(spec));
        }
    }
    let mut doc = String::from("{\n");
    let _ = writeln!(doc, "  \"benchmark\": \"mrlr\",");
    let _ = writeln!(doc, "  \"quick\": {},", args.opts.quick);
    let _ = writeln!(
        doc,
        "  \"header\": {{\"commit\": {}, \"rustc\": {}, \"nproc\": {}, \"seed\": {}, \"runs\": {}, \
         \"seconds\": {:?}, \"trace\": {}, \"wall_s\": {:?}}},",
        quoted(&first_line(Command::new("git").args(["rev-parse", "--short", "HEAD"]))),
        quoted(&first_line(Command::new("rustc").arg("-V"))),
        std::thread::available_parallelism().map_or(0, usize::from),
        args.opts.seed,
        args.runs,
        args.opts.seconds,
        u8::from(args.trace),
        started.elapsed().as_secs_f64(),
    );
    let _ = writeln!(
        doc,
        "  \"runs\": [\n    {}\n  ]\n}}",
        entries.join(",\n    ")
    );
    std::fs::write(out, doc).map_err(|e| format!("{out}: {e}"))?;
    println!(
        "set written to {out} ({} runs, {:.1} s)",
        entries.len(),
        started.elapsed().as_secs_f64()
    );
    Ok(correct)
}

/// `VmHWM` of this process: a child's `peak_rss_mb` cannot read below it.
fn harness_peak_rss() -> String {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            Some(line["VmHWM:".len()..].trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn real_main() -> Result<bool, String> {
    let spec = Spec::load();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("compare") => {
            let [_, a, b] = argv.as_slice() else {
                return Err(usage());
            };
            return compare::run(&spec, a, b);
        }
        // Internal: the harness re-enters itself to gate report files
        // without growing its own memory (see `untraced::gate`).
        Some("check-documents") => {
            return Ok(match untraced::check_documents(&argv[1..]) {
                Ok(digest) => {
                    println!("{digest}");
                    true
                }
                Err(why) => {
                    println!("{why}");
                    false
                }
            });
        }
        _ => {}
    }
    let args = parse_args(&argv, &spec)?;
    let bins = Bins::locate().map_err(|e| e.to_string())?;

    if let Some(name) = &args.workload {
        let workload = workloads::find(name).ok_or_else(|| {
            format!(
                "unknown workload `{name}` (expected one of: {})",
                spec.workloads.join(", ")
            )
        })?;
        let result = run_one(&bins, workload, args.trace, &args.opts);
        eprint!("{}", result.table(&spec));
        eprintln!("harness peak RSS: {}", harness_peak_rss());
        println!("{}", result.contract_line(&spec));
        // A run that measured is a result, even with failed operations:
        // the result object says so.
        return Ok(true);
    }

    let default_out = |tag: &str| {
        bins.scratch
            .join(format!("set-{tag}.json"))
            .to_string_lossy()
            .into_owned()
    };
    if args.twice {
        let (a, b) = (default_out("A"), default_out("B"));
        let ok_a = run_set(&bins, &spec, &args, &a)?;
        let ok_b = run_set(&bins, &spec, &args, &b)?;
        return Ok(compare::run(&spec, &a, &b)? && ok_a && ok_b);
    }
    let out = args.out.clone().unwrap_or_else(|| default_out("last"));
    run_set(&bins, &spec, &args, &out)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("mrlr-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
