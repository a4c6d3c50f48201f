//! Out-of-core front-end equivalences: for every registry key the
//! report solved straight from the generator (`solve --gen SPEC`) and
//! from a pipe (`gen --pipe | solve --input -`) is byte-identical
//! (witnesses included) to the report solved from the instance file, on
//! every `MRLR_BACKEND={shard,dist}` × `MRLR_THREADS={1,4}` leg; and
//! `--stream`, accepted and ignored, changes no byte of it.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

const MATRIX: &str = include_str!("smoke_matrix.txt");

fn workdir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mrlr-genpipe-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One smoke-matrix row, with its gen flags re-expressed as a
/// `family:knob=v,...` spec string (the `--gen` vocabulary).
struct Row {
    key: String,
    family: String,
    gen_args: Vec<String>,
    solve_args: Vec<String>,
    spec: String,
}

fn matrix() -> Vec<Row> {
    let rows: Vec<Row> = MATRIX
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|line| {
            let parts: Vec<&str> = line.split('|').collect();
            assert_eq!(parts.len(), 4, "bad matrix line: {line}");
            let family = parts[1].trim().to_string();
            let gen_args: Vec<String> = parts[2].split_whitespace().map(String::from).collect();
            // `--n 30 --m 300` → `n=30,m=300`; bare `--unweighted` stays
            // a bare knob.
            let mut knobs: Vec<String> = Vec::new();
            let mut it = gen_args.iter();
            while let Some(flag) = it.next() {
                let name = flag.strip_prefix("--").unwrap();
                if name == "unweighted" {
                    knobs.push(name.to_string());
                } else {
                    knobs.push(format!("{name}={}", it.next().unwrap()));
                }
            }
            let spec = if knobs.is_empty() {
                family.clone()
            } else {
                format!("{family}:{}", knobs.join(","))
            };
            Row {
                key: parts[0].trim().to_string(),
                family,
                gen_args,
                solve_args: parts[3].split_whitespace().map(String::from).collect(),
                spec,
            }
        })
        .collect();
    assert_eq!(rows.len(), 10, "one matrix row per registry key");
    rows
}

fn mrlr_cmd(dir: &Path, engine: &str, threads: &str, args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_mrlr"));
    cmd.args(args)
        .current_dir(dir)
        .env("MRLR_BACKEND", engine)
        .env("MRLR_THREADS", threads);
    cmd
}

fn mrlr(dir: &Path, engine: &str, threads: &str, args: &[&str]) -> String {
    let output = mrlr_cmd(dir, engine, threads, args)
        .output()
        .expect("spawn mrlr");
    assert!(
        output.status.success(),
        "mrlr {args:?} failed (engine={engine}, threads={threads}):\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("utf-8 stdout")
}

/// Runs `mrlr args…` with `stdin_bytes` piped in.
fn mrlr_stdin(dir: &Path, engine: &str, threads: &str, args: &[&str], stdin_bytes: &str) -> String {
    let mut child = mrlr_cmd(dir, engine, threads, args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn mrlr");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(stdin_bytes.as_bytes())
        .unwrap();
    let output = child.wait_with_output().expect("wait mrlr");
    assert!(
        output.status.success(),
        "mrlr {args:?} (stdin) failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("utf-8 stdout")
}

const LEGS: [(&str, &str); 4] = [("shard", "1"), ("shard", "4"), ("dist", "1"), ("dist", "4")];

#[test]
fn solve_from_generator_is_bit_identical_to_solve_from_file() {
    let dir = workdir("gen");
    for row in matrix() {
        let input = format!("{}.inst", row.key);
        let mut gen: Vec<&str> = vec!["gen", &row.family];
        gen.extend(row.gen_args.iter().map(String::as_str));
        gen.extend(["--out", &input]);
        mrlr(&dir, "shard", "1", &gen);

        let mut reference: Option<String> = None;
        for (engine, threads) in LEGS {
            let mut file_args: Vec<&str> = vec!["solve", &row.key, "--input", &input];
            file_args.extend(row.solve_args.iter().map(String::as_str));
            file_args.extend(["--format", "json", "--mask-timings"]);
            let from_file = mrlr(&dir, engine, threads, &file_args);

            let mut gen_args: Vec<&str> = vec!["solve", &row.key, "--gen", &row.spec];
            gen_args.extend(row.solve_args.iter().map(String::as_str));
            gen_args.extend(["--format", "json", "--mask-timings"]);
            let from_gen = mrlr(&dir, engine, threads, &gen_args);

            assert_eq!(
                from_gen, from_file,
                "{}: --gen diverged from --input (engine={engine}, threads={threads})",
                row.key
            );
            // The masked report is also identical across every leg.
            match &reference {
                None => reference = Some(from_file),
                Some(want) => assert_eq!(
                    &from_file, want,
                    "{}: report diverged across legs at engine={engine}, threads={threads}",
                    row.key
                ),
            }
        }
    }
}

#[test]
fn gen_pipe_into_solve_stdin_matches_file_path() {
    let dir = workdir("pipe");
    for row in matrix() {
        let input = format!("{}.inst", row.key);
        let mut gen: Vec<&str> = vec!["gen", &row.family];
        gen.extend(row.gen_args.iter().map(String::as_str));
        gen.extend(["--out", &input]);
        mrlr(&dir, "shard", "1", &gen);
        let on_disk = std::fs::read_to_string(dir.join(&input)).unwrap();

        // The piped rendering is byte-identical to the file rendering.
        let mut pipe: Vec<&str> = vec!["gen", &row.family];
        pipe.extend(row.gen_args.iter().map(String::as_str));
        pipe.push("--pipe");
        let piped = mrlr(&dir, "shard", "1", &pipe);
        assert_eq!(piped, on_disk, "{}: --pipe diverged from --out", row.family);

        // And solving from stdin is byte-identical to solving the file.
        let mut file_args: Vec<&str> = vec!["solve", &row.key, "--input", &input];
        file_args.extend(row.solve_args.iter().map(String::as_str));
        file_args.extend(["--format", "json", "--mask-timings"]);
        let from_file = mrlr(&dir, "shard", "1", &file_args);

        let mut stdin_args: Vec<&str> = vec!["solve", &row.key, "--input", "-"];
        stdin_args.extend(row.solve_args.iter().map(String::as_str));
        stdin_args.extend(["--format", "json", "--mask-timings"]);
        let from_stdin = mrlr_stdin(&dir, "shard", "1", &stdin_args, &piped);
        assert_eq!(
            from_stdin, from_file,
            "{}: stdin solve diverged from file solve",
            row.key
        );
    }
}

#[test]
fn streamed_matching_solve_is_bit_identical_on_every_backend() {
    let dir = workdir("stream");
    mrlr(
        &dir,
        "shard",
        "1",
        &["gen", "densified", "--n", "40", "--out", "m.inst"],
    );
    let rendered = std::fs::read_to_string(dir.join("m.inst")).unwrap();
    for backend in ["mr", "shard", "dist"] {
        for threads in ["1", "4"] {
            let base = [
                "solve",
                "matching",
                "--backend",
                backend,
                "--format",
                "json",
                "--mask-timings",
            ];
            let materialized = mrlr(
                &dir,
                "shard",
                threads,
                &[&base[..], &["--input", "m.inst"]].concat(),
            );
            let streamed_file = mrlr(
                &dir,
                "shard",
                threads,
                &[&base[..], &["--input", "m.inst", "--stream"]].concat(),
            );
            let streamed_gen = mrlr(
                &dir,
                "shard",
                threads,
                &[&base[..], &["--gen", "densified:n=40", "--stream"]].concat(),
            );
            let streamed_stdin = mrlr_stdin(
                &dir,
                "shard",
                threads,
                &[&base[..], &["--input", "-", "--stream"]].concat(),
                &rendered,
            );
            assert_eq!(streamed_file, materialized, "{backend}/{threads}: file");
            assert_eq!(streamed_gen, materialized, "{backend}/{threads}: gen");
            assert_eq!(streamed_stdin, materialized, "{backend}/{threads}: stdin");
        }
    }
}
