//! End-to-end committed-witness flow through the binary: `solve
//! --certificates committed` writes a compact report plus a transcript
//! sidecar; `mrlr verify --witness` re-authenticates and replays it —
//! in full and chunk by chunk — and rejects every tampered variant with
//! a located error and exit code 1.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh directory per test: the tests of this file run on parallel
/// threads of one process, so the process id alone would have them
/// delete each other's files.
fn workdir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mrlr-committed-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(dir: &Path, args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_mrlr"))
        .args(args)
        .current_dir(dir)
        .env("MRLR_THREADS", "1")
        .output()
        .expect("spawn mrlr")
}

fn ok(dir: &Path, args: &[&str]) -> String {
    let out = run(dir, args);
    assert!(
        out.status.success(),
        "mrlr {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

fn rejected(dir: &Path, args: &[&str], needle: &str) {
    let out = run(dir, args);
    assert_eq!(out.status.code(), Some(1), "mrlr {args:?} must exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(needle),
        "mrlr {args:?}: expected `{needle}` in:\n{stderr}"
    );
}

#[test]
fn committed_report_round_trips_and_rejects_tampering() {
    let dir = workdir("round-trip");
    ok(
        &dir,
        &[
            "gen",
            "densified",
            "--n",
            "40",
            "--seed",
            "5",
            "--out",
            "g.inst",
        ],
    );
    ok(
        &dir,
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
    assert!(report.contains("\"kind\": \"committed\""), "{report}");
    // The commitment is compact: no stack pairs inline.
    assert!(!report.contains("\"stack\": ["), "{report}");

    // Full audit: commitment check first, then the ordinary replay.
    let out = ok(&dir, &["verify", "g.inst", "r.json", "--witness", "w.txt"]);
    assert!(out.contains("ok: commitment:"), "{out}");
    assert!(out.contains("ok: transcript:"), "{out}");
    assert!(
        out.lines().last().unwrap().starts_with("verified: "),
        "{out}"
    );

    // Every chunk audits individually.
    let transcript = std::fs::read_to_string(dir.join("w.txt")).unwrap();
    let chunks = transcript
        .lines()
        .filter(|l| l.starts_with("chunk "))
        .count();
    assert!(chunks >= 2, "want a multi-chunk transcript, got {chunks}");
    for i in 0..chunks {
        let idx = i.to_string();
        let out = ok(
            &dir,
            &[
                "verify",
                "g.inst",
                "r.json",
                "--witness",
                "w.txt",
                "--chunk",
                &idx,
            ],
        );
        assert!(out.contains(&format!("ok: chunk {i}:")), "{out}");
    }

    // Without the sidecar, the bare commitment cannot be audited — the
    // error says exactly what to do.
    rejected(&dir, &["verify", "g.inst", "r.json"], "--witness");

    // Tamper each way; every audit fails located, and the chunk-level
    // audit localizes the damage to the tampered chunk only.
    let lines: Vec<&str> = transcript.lines().collect();

    // 1. Flip a data byte of the last entry line (chunk `chunks-1`).
    let mut t = lines.clone();
    let victim = t.pop().unwrap();
    let flipped = format!("{}9", &victim[..victim.len() - 1]);
    let tampered: String = t
        .iter()
        .map(|l| format!("{l}\n"))
        .chain([format!("{flipped}\n")])
        .collect();
    std::fs::write(dir.join("w_flip.txt"), tampered).unwrap();
    rejected(
        &dir,
        &["verify", "g.inst", "r.json", "--witness", "w_flip.txt"],
        "transcript.chunk[",
    );
    // The untampered chunk 0 still authenticates alone.
    let out = ok(
        &dir,
        &[
            "verify",
            "g.inst",
            "r.json",
            "--witness",
            "w_flip.txt",
            "--chunk",
            "0",
        ],
    );
    assert!(out.contains("ok: chunk 0:"), "{out}");
    let last = (chunks - 1).to_string();
    rejected(
        &dir,
        &[
            "verify",
            "g.inst",
            "r.json",
            "--witness",
            "w_flip.txt",
            "--chunk",
            &last,
        ],
        "transcript.chunk[",
    );

    // 2. Drop the first chunk block: reorder/count detection.
    let first_entry = lines
        .iter()
        .position(|l| !l.starts_with("mrlr-commit") && !l.starts_with("chunk "))
        .unwrap();
    let second_chunk = lines[first_entry..]
        .iter()
        .position(|l| l.starts_with("chunk "))
        .unwrap()
        + first_entry;
    let dropped: String = lines[..1]
        .iter()
        .chain(&lines[second_chunk..])
        .map(|l| format!("{l}\n"))
        .collect();
    std::fs::write(dir.join("w_drop.txt"), dropped).unwrap();
    rejected(
        &dir,
        &["verify", "g.inst", "r.json", "--witness", "w_drop.txt"],
        "transcript",
    );

    // 3. Truncate the auth path of chunk 0.
    let mut t: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
    let cut = t[1].rfind(' ').unwrap();
    t[1].truncate(cut);
    let truncated: String = t.iter().map(|l| format!("{l}\n")).collect();
    std::fs::write(dir.join("w_auth.txt"), truncated).unwrap();
    rejected(
        &dir,
        &["verify", "g.inst", "r.json", "--witness", "w_auth.txt"],
        "transcript.chunk[0]",
    );

    // 4. --witness against a plain (uncommitted) report is rejected.
    ok(
        &dir,
        &[
            "solve",
            "matching",
            "--input",
            "g.inst",
            "--format",
            "json",
            "--mask-timings",
            "--out",
            "plain.json",
        ],
    );
    rejected(
        &dir,
        &["verify", "g.inst", "plain.json", "--witness", "w.txt"],
        "plain witness",
    );
}

#[test]
fn committed_flag_validation() {
    let dir = workdir("flags");
    let usage = |args: &[&str]| {
        assert_eq!(
            run(&dir, args).status.code(),
            Some(2),
            "mrlr {args:?} must be a usage error"
        );
    };
    // committed needs the sidecar path.
    usage(&[
        "solve",
        "matching",
        "--input",
        "g.inst",
        "--certificates",
        "committed",
    ]);
    // The commitment knobs need committed mode.
    usage(&["solve", "matching", "--input", "g.inst", "--chunk-len", "8"]);
    // --chunk needs --witness.
    usage(&["verify", "g.inst", "r.json", "--chunk", "0"]);
}
