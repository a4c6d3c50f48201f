//! A committed witness's shape — its `entries` and `chunk_len`, in the
//! report and again in the transcript header — is a claim until every
//! chunk has been authenticated. `mrlr verify` must turn any claim the
//! transcript does not carry into a located error: no panic, and no
//! allocation sized by the claim. Before the opener reserved for the
//! entries the transcript actually carries, a report and a two-line
//! transcript that both claimed `entries = chunk_len = 2^40` made it
//! request 16 TiB and abort; a claim of more than 2^63 chunks overflowed
//! the tree depth.
//!
//! Every case below runs the `verify --witness` path — parse the report,
//! open and audit the commitment, audit each chunk alone — under a
//! counting allocator, and holds the largest single allocation to
//! [`ALLOCATION_FACTOR`] times the report and transcript bytes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mrlr_core::api::{
    audit_chunk, audit_committed, commit_witness, Instance, Registry, VertexWeightedGraph, Witness,
};
use mrlr_core::io::{parse_report, report_json_with, CertificateMode, TimingMode};
use mrlr_core::mr::MrConfig;
use mrlr_graph::generators;
use mrlr_setsys::generators as setgen;

/// Records the largest single request while this thread measures.
struct Counting;

thread_local! {
    /// `Some(largest single request so far)` while this thread runs
    /// inside [`largest_allocation`]. Const-initialised and without a
    /// destructor, so the allocator may touch it.
    static LARGEST: Cell<Option<usize>> = const { Cell::new(None) };
}

fn record(size: usize) {
    let _ = LARGEST.try_with(|l| {
        if let Some(largest) = l.get() {
            l.set(Some(largest.max(size)));
        }
    });
}

// SAFETY: every call is forwarded unchanged to `System`; the only addition
// is an update of a const thread-local cell, which does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` on this thread, returning its result and the largest single
/// allocation it requested.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|l| l.set(Some(0)));
    let out = f();
    let largest = LARGEST.with(|l| l.take()).expect("measuring");
    (out, largest)
}

/// No single allocation of a rejected verify may exceed this multiple of
/// the report and transcript bytes. Every buffer the parsers and the
/// opener size grows with the text they read; the largest case here
/// measures 1.65×.
const ALLOCATION_FACTOR: usize = 4;

/// The shape claims each case sets, beside the true value + 1.
const CLAIMS: [u64; 3] = [u64::MAX, 1 << 40, 1 << 32];

/// A real committed report: one key per witness kind (`stack`,
/// `cover-dual`), its report JSON, its transcript, and the true shape.
struct Case {
    instance: Instance,
    report: String,
    transcript: String,
    entries: usize,
    chunk_len: usize,
}

fn real_case(seed: u64) -> Case {
    let (key, instance) = if seed.is_multiple_of(2) {
        let g = generators::gnm(12, 24, seed);
        let w = (0..g.n()).map(|v| 1.0 + (v % 5) as f64).collect();
        let vw = VertexWeightedGraph::new(g, w);
        ("vertex-cover", Instance::VertexWeighted(vw))
    } else {
        let sys = setgen::bounded_frequency(10, 18, 3, seed);
        ("set-cover-f", Instance::SetSystem(sys))
    };
    let cfg = MrConfig::auto(12, 24, 0.3, seed);
    let mut report = Registry::with_defaults()
        .solve(key, &instance, &cfg)
        .unwrap();
    let chunk_len = 1 + (seed as usize % 4);
    let commitment = commit_witness(&report.certificate.witness, chunk_len).unwrap();
    let Witness::Committed { entries, .. } = commitment.witness else {
        panic!("commit_witness returned an uncommitted witness");
    };
    report.certificate.witness = commitment.witness;
    let report = report_json_with(&report, TimingMode::Masked, CertificateMode::Full).render();
    Case {
        instance,
        report,
        transcript: commitment.transcript,
        entries,
        chunk_len,
    }
}

/// `mrlr verify --witness` on texts: the full audit, then every chunk
/// the real commitment has, alone. `Ok` only if all of them pass.
fn verify(case: &Case, report: &str, transcript: &str) -> Result<(), String> {
    let stored = parse_report(report).map_err(|e| e.to_string())?;
    let Some(witness @ Witness::Committed { .. }) = &stored.witness else {
        return Err("report: not a committed witness".into());
    };
    audit_committed(
        &case.instance,
        &stored.algorithm,
        &stored.solution,
        &stored.claims,
        witness,
        transcript,
    )
    .map_err(|e| e.to_string())?;
    for index in 0..case.entries.div_ceil(case.chunk_len) {
        audit_chunk(witness, transcript, index).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Replaces the one `"field": value` of the report's committed witness.
fn with_report_field(report: &str, field: &str, from: usize, to: u64) -> String {
    let needle = format!("\"{field}\": {from}");
    assert_eq!(report.matches(&needle).count(), 1, "{needle} in the report");
    report.replace(&needle, &format!("\"{field}\": {to}"))
}

/// Rewrites the transcript header's entry count and chunk length.
fn with_header(transcript: &str, entries: u64, chunk_len: u64) -> String {
    let (header, body) = transcript.split_once('\n').unwrap();
    let head: Vec<&str> = header.split_whitespace().collect();
    let (of, root) = (head[2], head[5]);
    format!("mrlr-commit v1 {of} {entries} {chunk_len} {root}\n{body}")
}

/// The first `lines` lines of `text`, each with its newline.
fn first_lines(text: &str, lines: usize) -> String {
    text.split_inclusive('\n').take(lines).collect()
}

/// Runs one hostile case: it must be rejected with a located error, and
/// no allocation may exceed the bound.
fn assert_rejected(case: &Case, report: &str, transcript: &str, what: &str) {
    let input = report.len() + transcript.len();
    let (result, largest) = largest_allocation(|| verify(case, report, transcript));
    let err = result.expect_err(what);
    assert!(
        ["transcript", "witness", "report", "certificate", "line"]
            .iter()
            .any(|at| err.contains(at)),
        "{what}: unlocated error {err:?}"
    );
    assert!(
        largest <= ALLOCATION_FACTOR * input,
        "{what}: allocated {largest} bytes for {input} input bytes"
    );
}

#[test]
fn hostile_committed_witnesses_are_rejected_in_bounded_memory() {
    for seed in 0..8 {
        let case = real_case(seed);
        let (report, transcript) = (&case.report, &case.transcript);
        verify(&case, report, transcript).expect("the real commitment verifies");

        // Truncated at every line: the report, then the transcript.
        let report_lines = report.lines().count();
        for keep in 0..report_lines {
            let cut = first_lines(report, keep);
            assert_rejected(
                &case,
                &cut,
                transcript,
                &format!("seed {seed}: report[..{keep}]"),
            );
        }
        let transcript_lines = transcript.lines().count();
        for keep in 0..transcript_lines {
            let cut = first_lines(transcript, keep);
            let what = format!("seed {seed}: transcript[..{keep}]");
            assert_rejected(&case, report, &cut, &what);
        }

        // Overstated shapes, in the report, the transcript header, or
        // both; the transcript also cut to its header and first chunk
        // line, which is all a hostile sidecar needs to send.
        let (e, c) = (case.entries, case.chunk_len);
        let claims = CLAIMS.iter().map(|&v| (v, v));
        let plus_one = [(e as u64 + 1, c as u64), (e as u64, c as u64 + 1)];
        for (entries, chunk_len) in claims
            .chain(CLAIMS.iter().map(|&v| (v, c as u64)))
            .chain(CLAIMS.iter().map(|&v| (e as u64, v)))
            .chain(plus_one)
        {
            let forged = with_report_field(report, "entries", e, entries);
            let forged = with_report_field(&forged, "chunk_len", c, chunk_len);
            let header = with_header(transcript, entries, chunk_len);
            let what = format!("seed {seed}: entries {entries}, chunk_len {chunk_len}");
            assert_rejected(&case, &forged, transcript, &format!("{what} (report)"));
            assert_rejected(&case, report, &header, &format!("{what} (header)"));
            assert_rejected(&case, &forged, &header, &format!("{what} (both)"));
            let two_lines = first_lines(&header, 2);
            assert_rejected(&case, &forged, &two_lines, &format!("{what} (two lines)"));
        }
    }
}
