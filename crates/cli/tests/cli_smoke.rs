//! End-to-end smoke tests of the `mrlr` binary: `gen → solve → verify →
//! batch` for every registry key, with masked JSON reports (full,
//! re-verifiable certificates) diffed against golden files and asserted
//! bit-identical across `MRLR_THREADS={1,4}` — the same contract the CI
//! smoke job enforces via `scripts/cli_smoke.sh`. Every golden report is
//! additionally re-verified offline by `mrlr verify`, so the checked-in
//! artifacts stay independently auditable.
//!
//! Regenerate the golden files after an intentional format change with
//! `MRLR_UPDATE_GOLDEN=1 cargo test -p mrlr-cli`.

use std::path::{Path, PathBuf};
use std::process::Command;

const MATRIX: &str = include_str!("smoke_matrix.txt");

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn workdir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mrlr-cli-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `mrlr args…` with `MRLR_THREADS=threads`, asserting success.
fn mrlr(dir: &Path, threads: &str, args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_mrlr"))
        .args(args)
        .current_dir(dir)
        .env("MRLR_THREADS", threads)
        .output()
        .expect("spawn mrlr");
    assert!(
        output.status.success(),
        "mrlr {args:?} failed (threads={threads}):\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("utf-8 stdout")
}

/// Compares `actual` against the checked-in golden file, or rewrites it
/// when `MRLR_UPDATE_GOLDEN` is set.
fn assert_golden(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("MRLR_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {name} ({e}); run with MRLR_UPDATE_GOLDEN=1"));
    assert_eq!(
        actual, expected,
        "{name} drifted from its golden file; if intentional, regenerate \
         with MRLR_UPDATE_GOLDEN=1 cargo test -p mrlr-cli"
    );
}

struct MatrixRow {
    key: String,
    family: String,
    gen_args: Vec<String>,
    solve_args: Vec<String>,
}

fn matrix() -> Vec<MatrixRow> {
    let rows: Vec<MatrixRow> = MATRIX
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|line| {
            let parts: Vec<&str> = line.split('|').collect();
            assert_eq!(parts.len(), 4, "bad matrix line: {line}");
            MatrixRow {
                key: parts[0].trim().to_string(),
                family: parts[1].trim().to_string(),
                gen_args: parts[2].split_whitespace().map(String::from).collect(),
                solve_args: parts[3].split_whitespace().map(String::from).collect(),
            }
        })
        .collect();
    assert_eq!(rows.len(), 10, "one matrix row per registry key");
    rows
}

/// Generates every matrix instance into `dir` as `<key>.inst`.
fn gen_all(dir: &Path) {
    for row in matrix() {
        let out = format!("{}.inst", row.key);
        let mut args: Vec<&str> = vec!["gen", &row.family];
        args.extend(row.gen_args.iter().map(String::as_str));
        args.extend(["--out", &out]);
        mrlr(dir, "1", &args);
    }
}

#[test]
fn gen_solve_matches_golden_and_is_thread_deterministic() {
    let dir = workdir("solve");
    gen_all(&dir);
    for row in matrix() {
        let input = format!("{}.inst", row.key);
        let mut args: Vec<&str> = vec!["solve", &row.key, "--input", &input];
        args.extend(row.solve_args.iter().map(String::as_str));
        args.extend(["--format", "json", "--mask-timings"]);
        let seq = mrlr(&dir, "1", &args);
        let threaded = mrlr(&dir, "4", &args);
        assert_eq!(
            seq, threaded,
            "{}: masked report diverged between MRLR_THREADS=1 and 4",
            row.key
        );
        assert_golden(&format!("{}.json", row.key), &seq);
    }
}

#[test]
fn every_golden_report_verifies_offline_at_both_thread_counts() {
    // The acceptance contract of the re-verifiable-certificate work:
    // `mrlr verify` passes on every checked-in golden report, for every
    // registry key, at MRLR_THREADS=1 and 4 (verification is read-only
    // but must be thread-agnostic like everything else).
    if std::env::var_os("MRLR_UPDATE_GOLDEN").is_some() {
        return; // regeneration pass: goldens are being rewritten in parallel
    }
    let dir = workdir("verify");
    gen_all(&dir);
    for row in matrix() {
        let golden = golden_dir().join(format!("{}.json", row.key));
        let report = format!("{}.report.json", row.key);
        std::fs::copy(&golden, dir.join(&report)).unwrap();
        let input = format!("{}.inst", row.key);
        for threads in ["1", "4"] {
            let out = mrlr(&dir, threads, &["verify", &input, &report]);
            assert!(
                out.lines().last().unwrap_or("").starts_with("verified: "),
                "{}: unexpected verify output:\n{out}",
                row.key
            );
            assert!(
                out.contains("ok: "),
                "{}: verify printed no checks:\n{out}",
                row.key
            );
        }
    }
}

/// Doubles the value of the first `[id, value]` pair in the named witness
/// array of a pretty-printed report, returning the tampered document.
fn double_first_pair_value(text: &str, key: &str) -> String {
    let arr_at = text
        .find(&format!("\"{key}\": ["))
        .unwrap_or_else(|| panic!("no `{key}` array in report"));
    // Pair layout: `[\n  <pad>id,\n  <pad>value\n<pad>],` — the value is
    // the line after the id's trailing comma.
    let val_start = text[arr_at..].find(",\n").expect("pair id") + arr_at + 2;
    let val_end = text[val_start..].find('\n').expect("pair value") + val_start;
    let line = &text[val_start..val_end];
    let value: f64 = line.trim().parse().expect("pair value parses");
    let indent: String = line.chars().take_while(|c| c.is_whitespace()).collect();
    let mut out = text.to_string();
    out.replace_range(val_start..val_end, &format!("{indent}{:?}", value * 2.0));
    out
}

#[test]
fn verify_rejects_tampered_reports() {
    // Mutation coverage for the offline checker: a tampered solution, a
    // tampered dual, and a tampered stack transcript must each fail with
    // exit code 1 and a located error message.
    let dir = workdir("tamper");
    gen_all(&dir);
    let run = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_mrlr"))
            .args(args)
            .current_dir(&dir)
            .env("MRLR_THREADS", "1")
            .output()
            .expect("spawn mrlr")
    };
    let expect_rejected = |instance: &str, report: &str, needle: &str| {
        let out = run(&["verify", instance, report]);
        assert_eq!(
            out.status.code(),
            Some(1),
            "{report} must fail verification"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(needle),
            "{report}: error not located ({needle}):\n{stderr}"
        );
    };
    mrlr(
        &dir,
        "1",
        &[
            "solve",
            "matching",
            "--input",
            "matching.inst",
            "--format",
            "json",
            "--mask-timings",
            "--out",
            "m.json",
        ],
    );
    let m = std::fs::read_to_string(dir.join("m.json")).unwrap();

    // Tampered solution: drop the first matched edge (the unwind check
    // catches the mismatch).
    let edges_at = m.find("\"edges\": [").expect("edges array");
    let first_entry_end = m[edges_at..].find(',').unwrap() + edges_at;
    let entry_start = m[..first_entry_end].rfind('\n').unwrap();
    let mut tampered = m.clone();
    tampered.replace_range(entry_start..first_entry_end + 1, "");
    std::fs::write(dir.join("m_solution.json"), tampered).unwrap();
    expect_rejected("matching.inst", "m_solution.json", "solution.");

    // Tampered transcript: double the first stack reduction.
    std::fs::write(
        dir.join("m_stack.json"),
        double_first_pair_value(&m, "stack"),
    )
    .unwrap();
    expect_rejected("matching.inst", "m_stack.json", "witness.stack");

    mrlr(
        &dir,
        "1",
        &[
            "solve",
            "set-cover-f",
            "--input",
            "set-cover-f.inst",
            "--mu",
            "0.5",
            "--format",
            "json",
            "--mask-timings",
            "--out",
            "sc.json",
        ],
    );
    let sc = std::fs::read_to_string(dir.join("sc.json")).unwrap();
    // Tampered dual: double the first dual value (breaks the sum against
    // the claimed lower bound, and possibly per-set feasibility).
    std::fs::write(
        dir.join("sc_dual.json"),
        double_first_pair_value(&sc, "dual"),
    )
    .unwrap();
    expect_rejected("set-cover-f.inst", "sc_dual.json", "witness.dual");

    // Out-of-range ids in the stored solution must be a located error,
    // not a panic (untrusted bytes reach the validators).
    let sets_at = sc.find("\"sets\": [").expect("sets array");
    let id_start = sc[sets_at..].find('\n').unwrap() + sets_at + 1;
    let id_end = sc[id_start..].find([',', '\n']).unwrap() + id_start;
    let indent: String = sc[id_start..id_end]
        .chars()
        .take_while(|c| c.is_whitespace())
        .collect();
    let mut tampered = sc.clone();
    tampered.replace_range(id_start..id_end, &format!("{indent}999999"));
    std::fs::write(dir.join("sc_oob.json"), tampered).unwrap();
    expect_rejected("set-cover-f.inst", "sc_oob.json", "solution.cover");

    // A summary report cannot be verified at all.
    mrlr(
        &dir,
        "1",
        &[
            "solve",
            "set-cover-f",
            "--input",
            "set-cover-f.inst",
            "--mu",
            "0.5",
            "--format",
            "json",
            "--certificates",
            "summary",
            "--out",
            "sc_summary.json",
        ],
    );
    let out = run(&["verify", "set-cover-f.inst", "sc_summary.json"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("no witness"),
        "summary reports must name the missing witness"
    );
}

#[test]
fn shard_backend_output_is_bit_identical_modulo_tag() {
    // `--backend shard` runs the sharded runtime; the masked report must
    // equal the mr golden byte-for-byte except the backend tag, and the
    // stored certificate must verify offline like any other.
    let dir = workdir("shard");
    gen_all(&dir);
    for key in ["matching", "vertex-cover"] {
        let input = format!("{key}.inst");
        // Both matrix rows take no extra solve args, so the goldens are
        // directly comparable.
        let mut args = vec!["solve", key, "--input", &input];
        args.extend(["--backend", "shard", "--format", "json", "--mask-timings"]);
        let shard = mrlr(&dir, "4", &args);
        assert!(shard.contains("\"backend\": \"shard\""), "{key}");
        let golden = std::fs::read_to_string(golden_dir().join(format!("{key}.json"))).unwrap();
        assert_eq!(
            shard.replace("\"backend\": \"shard\"", "\"backend\": \"mr\""),
            golden,
            "{key}: shard payload diverged from the mr golden"
        );
        // The shard report is auditable too.
        let report = format!("{key}.shard.json");
        std::fs::write(dir.join(&report), &shard).unwrap();
        let out = mrlr(&dir, "1", &["verify", &input, &report]);
        assert!(out.lines().last().unwrap_or("").starts_with("verified: "));
    }
}

#[test]
fn verify_audits_batch_documents() {
    // The batch-verify loop: `mrlr verify <batch.json>` audits every
    // report slot against the instances the document names, skips the
    // recorded error slots, and locates any failing slot by grid
    // position with exit code 1.
    let dir = workdir("batch-verify");
    gen_all(&dir);
    std::fs::copy(
        golden_dir().join("batch.manifest"),
        dir.join("batch.manifest"),
    )
    .unwrap();
    mrlr(
        &dir,
        "1",
        &[
            "batch",
            "batch.manifest",
            "--mask-timings",
            "--out",
            "batch.json",
        ],
    );
    let out = mrlr(&dir, "1", &["verify", "batch.json"]);
    assert!(
        out.contains("skip: results["),
        "deliberate error slots must be skipped:\n{out}"
    );
    assert!(out.contains("ok: results[0][0]"), "{out}");
    assert!(
        out.lines().last().unwrap_or("").starts_with("verified: "),
        "{out}"
    );
    // --quiet stays quiet on success.
    assert_eq!(mrlr(&dir, "1", &["verify", "batch.json", "--quiet"]), "");

    // A document written away from its manifest resolves instances via
    // --instances-dir (without it, resolution against the document's own
    // directory finds nothing).
    std::fs::create_dir_all(dir.join("out")).unwrap();
    mrlr(
        &dir,
        "1",
        &[
            "batch",
            "batch.manifest",
            "--mask-timings",
            "--out",
            "out/batch.json",
        ],
    );
    assert_eq!(
        mrlr(
            &dir,
            "1",
            &[
                "verify",
                "out/batch.json",
                "--instances-dir",
                ".",
                "--quiet"
            ],
        ),
        ""
    );

    // A lone single-report path gets a pointed hint, not a confusing
    // batch parse error.
    mrlr(
        &dir,
        "1",
        &[
            "solve",
            "matching",
            "--input",
            "matching.inst",
            "--format",
            "json",
            "--out",
            "single.json",
        ],
    );
    let out = Command::new(env!("CARGO_BIN_EXE_mrlr"))
        .args(["verify", "single.json"])
        .current_dir(&dir)
        .env("MRLR_THREADS", "1")
        .output()
        .expect("spawn mrlr");
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("single report"),
        "missing-instance hint expected:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Tamper one matched edge inside the first report slot: the audit
    // must fail, name the slot, and exit 1.
    let doc = std::fs::read_to_string(dir.join("batch.json")).unwrap();
    let edges_at = doc.find("\"edges\": [").expect("edges array");
    let first_entry_end = doc[edges_at..].find(',').unwrap() + edges_at;
    let entry_start = doc[..first_entry_end].rfind('\n').unwrap();
    let mut tampered = doc.clone();
    tampered.replace_range(entry_start..first_entry_end + 1, "");
    std::fs::write(dir.join("batch_tampered.json"), tampered).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_mrlr"))
        .args(["verify", "batch_tampered.json"])
        .current_dir(&dir)
        .env("MRLR_THREADS", "1")
        .output()
        .expect("spawn mrlr");
    assert_eq!(out.status.code(), Some(1), "tampered batch must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("results[0][0]"),
        "failure not located by grid position:\n{stderr}"
    );
}

#[test]
fn gen_output_is_deterministic_and_reparseable() {
    let dir = workdir("gen");
    for row in matrix() {
        let mut args: Vec<&str> = vec!["gen", &row.family];
        args.extend(row.gen_args.iter().map(String::as_str));
        let a = mrlr(&dir, "1", &args);
        let b = mrlr(&dir, "4", &args);
        assert_eq!(a, b, "{}: gen must not depend on threads", row.family);
        assert!(
            a.starts_with("p "),
            "{}: not the unified format",
            row.family
        );
    }
}

#[test]
fn batch_matches_golden_with_isolated_error_slots() {
    let dir = workdir("batch");
    gen_all(&dir);
    std::fs::copy(
        golden_dir().join("batch.manifest"),
        dir.join("batch.manifest"),
    )
    .unwrap();
    let args = ["batch", "batch.manifest", "--mask-timings"];
    let seq = mrlr(&dir, "1", &args);
    let threaded = mrlr(&dir, "4", &args);
    assert_eq!(seq, threaded, "masked batch diverged across thread counts");
    // Kind mismatches land as per-slot errors, not process failures.
    assert!(seq.contains("\"error\""), "expected mismatch slots:\n{seq}");
    assert_golden("batch.json", &seq);

    let csv = mrlr(
        &dir,
        "1",
        &[
            "batch",
            "batch.manifest",
            "--mask-timings",
            "--format",
            "csv",
        ],
    );
    assert_golden("batch.csv", &csv);
}

#[test]
fn list_json_matches_golden() {
    let dir = workdir("list");
    assert_golden("list.json", &mrlr(&dir, "1", &["list", "--format", "json"]));
}

#[test]
fn solve_writes_timing_csv() {
    let dir = workdir("timings");
    gen_all(&dir);
    mrlr(
        &dir,
        "4",
        &[
            "solve",
            "matching",
            "--input",
            "matching.inst",
            "--format",
            "csv",
            "--timings-csv",
            "timings.csv",
        ],
    );
    let csv = std::fs::read_to_string(dir.join("timings.csv")).unwrap();
    let mut lines = csv.lines();
    assert_eq!(
        lines.next().unwrap(),
        "pass,superstep,wall_nanos,max_machine_nanos,sum_machine_nanos,tasks,skew"
    );
    assert!(
        lines.next().is_some(),
        "no executor passes recorded:\n{csv}"
    );
}

#[test]
fn usage_and_runtime_errors_have_distinct_exit_codes() {
    let dir = workdir("errors");
    let run = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_mrlr"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("spawn mrlr")
    };
    // Usage errors: exit 2.
    assert_eq!(run(&["frobnicate"]).status.code(), Some(2));
    assert_eq!(run(&["gen", "no-such-family"]).status.code(), Some(2));
    assert_eq!(
        run(&["solve", "matching"]).status.code(),
        Some(2),
        "missing --input"
    );
    // Runtime errors: exit 1, with a positioned parse message.
    std::fs::write(dir.join("bad.inst"), "p graph 3 1\ne 0 9\n").unwrap();
    let out = run(&["solve", "matching", "--input", "bad.inst"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("line 2, column 5"),
        "parse errors must carry line/column: {stderr}"
    );
    // Bytes that are not UTF-8 are a parse error like any other — the
    // parser's located one, from a file and from stdin alike.
    let latin1 = b"p graph 3 1\ne 0 1 \xE9\n";
    std::fs::write(dir.join("latin1.inst"), latin1).unwrap();
    let out = run(&["solve", "matching", "--input", "latin1.inst"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("latin1.inst: line 2, column 0: invalid UTF-8 in input"),
        "{stderr}"
    );
    let mut child = Command::new(env!("CARGO_BIN_EXE_mrlr"))
        .args(["solve", "matching", "--input", "-"])
        .current_dir(&dir)
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn mrlr");
    std::io::Write::write_all(&mut child.stdin.take().expect("piped stdin"), latin1).unwrap();
    let out = child.wait_with_output().expect("wait for mrlr");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("<stdin>: line 2, column 0: invalid UTF-8 in input"),
        "{stderr}"
    );
    // Unknown algorithm on a good file is a runtime error too.
    mrlr(
        &dir,
        "1",
        &["gen", "densified", "--n", "20", "--out", "g.inst"],
    );
    assert_eq!(
        run(&["solve", "max-cut", "--input", "g.inst"])
            .status
            .code(),
        Some(1)
    );
}

/// A mistyped `MRLR_BACKEND` / `MRLR_THREADS` must stop the process at
/// start-up — exit 2 with the accepted values on stderr — never fall
/// back to a default engine or panic (exit 101) inside the first solve.
#[test]
fn mistyped_env_defaults_exit_2_with_the_accepted_values() {
    for (var, value, accepted) in [
        ("MRLR_BACKEND", "dits", "`shard` or `dist`"),
        ("MRLR_BACKEND", "mr", "`shard` or `dist`"),
        ("MRLR_THREADS", "four", "positive integer"),
        ("MRLR_THREADS", "0", "positive integer"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_mrlr"))
            .arg("list")
            .env(var, value)
            .output()
            .expect("spawn mrlr");
        assert_eq!(out.status.code(), Some(2), "{var}={value}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("{var}={value:?}")) && stderr.contains(accepted),
            "{var}={value}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{var}={value}: ran anyway");
    }
}

/// A reader that stops early (`mrlr list | head -1`) closes the pipe
/// while `list` is still printing: that is a clean exit 0, never a
/// `failed printing to stdout` panic (exit 101). Whether the close lands
/// before the last write is a race, so the read-one-line-and-close runs
/// 20 times.
#[test]
fn list_exits_0_when_its_reader_closes_the_pipe_early() {
    for run in 0..20 {
        let mut child = Command::new(env!("CARGO_BIN_EXE_mrlr"))
            .arg("list")
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("spawn mrlr");
        {
            let mut stdout = child.stdout.take().expect("piped stdout");
            let mut first = Vec::new();
            let mut byte = [0u8];
            while first.last() != Some(&b'\n') {
                std::io::Read::read_exact(&mut stdout, &mut byte).expect("a first line");
                first.push(byte[0]);
            }
            assert_eq!(first, b"algorithms (mrlr solve <key>):\n");
        } // Dropping the read end closes the pipe.
        let out = child.wait_with_output().expect("wait for mrlr");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "run {run}: {stderr}");
        assert_eq!(out.status.code(), Some(0), "run {run}: {stderr}");
    }
}

/// A usage error whose stderr reader has already gone (`mrlr list
/// --bogus 2>&1 >/dev/null | true`) still exits 2: the message and usage
/// text have nowhere to go, and a `failed printing to stderr` panic
/// (exit 101, whose own message is lost too) would hide the usage
/// error's code. The read end is closed as soon as the child is spawned;
/// the child may still win that race, so the run repeats 20 times.
#[test]
fn usage_error_exits_2_when_stderr_closes_early() {
    for run in 0..20 {
        let mut child = Command::new(env!("CARGO_BIN_EXE_mrlr"))
            .args(["list", "--bogus"])
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("spawn mrlr");
        drop(child.stderr.take());
        let status = child.wait().expect("wait for mrlr");
        assert_eq!(status.code(), Some(2), "run {run}");
    }
}

/// `mrlr serve` whose stderr reader has gone (`mrlr serve … 2>&1 | true`)
/// still serves and exits 0 on shutdown: its listening line and its
/// closing counter note have nowhere to go, and a `failed printing to
/// stderr` panic (exit 101) would end the daemon with its socket bound.
/// The read end is closed as soon as the daemon is spawned.
#[test]
fn serve_exits_0_when_stderr_closes_early() {
    let dir = workdir("serve-stderr");
    mrlr(
        &dir,
        "1",
        &["gen", "densified", "--n", "20", "--out", "g.inst"],
    );
    let socket = dir.join("serve.sock");
    let socket_arg = socket.to_str().expect("utf-8 temp path");
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_mrlr"))
        .args(["serve", "--socket", socket_arg])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn mrlr serve");
    drop(daemon.stderr.take());
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while !socket.exists() && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let client = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_mrlr"))
            .arg("client")
            .args(args)
            .args(["--socket", socket_arg])
            .current_dir(&dir)
            .output()
            .expect("spawn mrlr client")
    };
    let solved = client(&["solve", "matching", "--input", "g.inst", "--format", "json"]);
    let shutdown = client(&["shutdown"]);
    if !shutdown.status.success() {
        let _ = daemon.kill();
    }
    let status = daemon.wait().expect("wait for mrlr serve");
    assert!(
        solved.status.success(),
        "client solve: {}",
        String::from_utf8_lossy(&solved.stderr)
    );
    assert!(String::from_utf8_lossy(&solved.stdout).contains("\"algorithm\": \"matching\""));
    assert!(
        shutdown.status.success(),
        "client shutdown: {}",
        String::from_utf8_lossy(&shutdown.stderr)
    );
    assert_eq!(status.code(), Some(0));
    assert!(!socket.exists(), "socket left behind");
}

/// A problem line that promises an absurd count must fail like any other
/// bad file — exit 1 with the parser's or the cluster layout's message —
/// never a panic (exit 101) or an allocation abort (killed by a signal,
/// no exit code). `--stream` is accepted and changes nothing.
#[test]
fn hostile_headers_exit_1_with_a_parse_message() {
    let dir = workdir("hostile");
    let cases: &[(&str, &str, &[&str], &str)] = &[
        (
            "p graph 3 18446744073709551615\ne 0 1\n",
            "matching",
            &[],
            "promised 18446744073709551615 edges, found 1",
        ),
        (
            "p graph 3 4611686018427387904\ne 0 1\n",
            "matching",
            &[],
            "promised 4611686018427387904 edges, found 1",
        ),
        (
            "p vertex-weighted 1152921504606846976 0\nn 0 1.0\n",
            "vertex-cover",
            &[],
            "line 1, column 19: vertex count 1152921504606846976 exceeds the maximum",
        ),
        (
            "p set-system 3 18446744073709551615\ns 1.0 0\n",
            "set-cover-f",
            &[],
            "promised 18446744073709551615 sets, found 1",
        ),
        (
            "p graph 3 1000000000000\ne 0 1\n",
            "matching",
            &["--stream"],
            "problem line promised 1000000000000 edges, found 1",
        ),
        (
            "p graph 4294967296 0\n",
            "matching",
            &[],
            "flat arena exceeds its u32 offsets",
        ),
        (
            "p graph 4294967296 0\n",
            "matching",
            &["--stream"],
            "flat arena exceeds its u32 offsets",
        ),
        (
            "p graph 4294967296 0\n",
            "mis2",
            &[],
            "flat arena exceeds its u32 offsets",
        ),
        (
            "p set-system 1000000000000 0\n",
            "set-cover-f",
            &[],
            "line 1, column 14: universe size 1000000000000 exceeds the maximum",
        ),
        (
            "p set-system 4294967295 1\ns 1.0 0\n",
            "set-cover-f",
            &[],
            "leaves an element uncovered",
        ),
        (
            "p set-system 4294967295 1\ns 1.0 0\n",
            "set-cover-greedy",
            &[],
            "leaves an element uncovered",
        ),
    ];
    for (i, (text, algorithm, extra, needle)) in cases.iter().enumerate() {
        let file = format!("hostile-{i}.inst");
        std::fs::write(dir.join(&file), text).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_mrlr"))
            .args(["solve", algorithm, "--input", &file])
            .args(*extra)
            .current_dir(&dir)
            .output()
            .expect("spawn mrlr");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{text:?}: {stderr}");
        assert!(stderr.contains(needle), "{text:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{text:?}: {stderr}");
    }
}

/// A committed witness's shape is a claim too. A report and a two-line
/// transcript that both claim one chunk of 2^40 (or `u64::MAX`) entries
/// must be rejected at that chunk with exit 1 — never an allocation
/// abort (killed by a signal) or a panic (exit 101).
#[test]
fn hostile_committed_witnesses_exit_1_with_a_located_error() {
    let dir = workdir("hostile-witness");
    mrlr(
        &dir,
        "1",
        &["gen", "densified", "--n", "40", "--out", "g.inst"],
    );
    mrlr(
        &dir,
        "1",
        &[
            "solve",
            "matching",
            "--input",
            "g.inst",
            "--format",
            "json",
            "--mask-timings",
            "--certificates",
            "committed",
            "--chunk-len",
            "8",
            "--witness-out",
            "w.txt",
            "--out",
            "r.json",
        ],
    );
    let report = std::fs::read_to_string(dir.join("r.json")).unwrap();
    let transcript = std::fs::read_to_string(dir.join("w.txt")).unwrap();
    let head: Vec<&str> = transcript.lines().next().unwrap().split(' ').collect();
    let (of, entries, root) = (head[2], head[3], head[5]);
    for claim in [1u64 << 40, u64::MAX] {
        let forged = report
            .replace(
                &format!("\"entries\": {entries},"),
                &format!("\"entries\": {claim},"),
            )
            .replace("\"chunk_len\": 8,", &format!("\"chunk_len\": {claim},"));
        assert_ne!(forged, report);
        std::fs::write(dir.join("forged.json"), forged).unwrap();
        let two_lines = format!("mrlr-commit v1 {of} {claim} {claim} {root}\nchunk 0\n");
        std::fs::write(dir.join("forged.txt"), two_lines).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_mrlr"))
            .args(["verify", "g.inst", "forged.json", "--witness", "forged.txt"])
            .current_dir(&dir)
            .output()
            .expect("spawn mrlr");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "claim {claim}: {stderr}");
        assert!(
            stderr.contains("transcript.chunk[0]"),
            "claim {claim}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "claim {claim}: {stderr}");
    }
}

/// `--format` is checked before any input is read: a bad format next to
/// a missing instance is the usage error (exit 2), not the missing file
/// (exit 1) — and no solve runs first.
#[test]
fn a_bad_format_is_rejected_before_any_input_is_read() {
    let dir = workdir("bad-format");
    std::fs::write(
        dir.join("missing.manifest"),
        "instance missing.inst\njob matching\n",
    )
    .unwrap();
    let cases: &[(&[&str], &str)] = &[
        (
            &[
                "solve",
                "matching",
                "--input",
                "missing.inst",
                "--format",
                "bogus",
            ],
            "unknown format `bogus`",
        ),
        (
            &["batch", "missing.manifest", "--format", "text"],
            "unknown format `text`",
        ),
        (
            &["batch", "no-such.manifest", "--format", "bogus"],
            "unknown format `bogus`",
        ),
    ];
    for (args, needle) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_mrlr"))
            .args(*args)
            .current_dir(&dir)
            .output()
            .expect("spawn mrlr");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
    }
}

/// A batch loads each instance just before its jobs. A malformed second
/// instance still fails the run with the parser's located error (exit 1)
/// and writes no document; a missing file fails before the first solve.
#[test]
fn a_malformed_second_instance_fails_the_batch_and_writes_nothing() {
    let dir = workdir("batch-bad-second");
    mrlr(
        &dir,
        "1",
        &["gen", "densified", "--n", "20", "--out", "good.inst"],
    );
    std::fs::write(dir.join("bad.inst"), "p graph 3 1\ne 0 9\n").unwrap();
    let cases = [
        (
            "bad",
            "instance good.inst\ninstance bad.inst\njob matching\n",
            "bad.inst: line 2, column 5",
        ),
        (
            "missing",
            "instance good.inst\ninstance gone.inst\njob matching\n",
            "cannot read gone.inst",
        ),
    ];
    for (name, manifest, needle) in cases {
        let manifest_path = format!("{name}.manifest");
        let out_path = format!("{name}.json");
        std::fs::write(dir.join(&manifest_path), manifest).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_mrlr"))
            .args(["batch", &manifest_path, "--out", &out_path])
            .current_dir(&dir)
            .output()
            .expect("spawn mrlr");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        assert!(stderr.contains(needle), "{name}: {stderr}");
        assert!(
            !dir.join(&out_path).exists(),
            "{name}: a failing batch wrote {out_path}"
        );
    }
}
