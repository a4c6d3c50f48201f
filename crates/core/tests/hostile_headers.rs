//! A problem line's counts are a claim. Headers that promise absurd
//! numbers of edges, vertices or sets must come back as an [`IoError`] —
//! the end-of-input count check, or a located range error — without the
//! parser or its sinks ever allocating for the promise. Every case here
//! panicked (`capacity overflow`) or aborted on allocation failure before
//! the pre-allocations were capped.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mrlr_core::api::{solve_matching_stream, Backend, Instance, Registry};
use mrlr_core::io::{parse_instance, read_instance, IoError};
use mrlr_core::mr::MrConfig;
use mrlr_core::verify::is_cover;
use mrlr_mapreduce::MrError;

/// Counts the bytes requested from the allocator on the calling thread's
/// behalf — tests run on parallel threads, so the tally is thread-local.
struct Counting;

thread_local! {
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = REQUESTED.try_with(|r| r.set(r.get() + bytes));
}

// SAFETY: every call is forwarded unchanged to `System`; the only addition
// is a thread-local counter bump that does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f`, returning its result and the bytes it requested.
fn requested_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = REQUESTED.get();
    let out = f();
    (out, REQUESTED.get() - before)
}

/// What a claim may buy before its records arrive. The parser and
/// `InstanceSink` reserve at most 2^20 records (`PREALLOC_CAP`) per
/// structure: for a graph body the edges (16 B each) and their keys
/// (8 B), and with vertex data also the `(v, value)` pairs (16 B) and
/// their keys (8 B), so 48 · 2^20 = 3 · 2^24 bytes; for a set system the
/// weights (8 B), 2^23 bytes. The 64 KiB read
/// window and a line's scratch fit in the rest of 2^26, and anything
/// sized by a claim of more than 2^23 words does not.
const ALLOCATION_BOUND: usize = 1 << 26;

const HUGE: &[&str] = &[
    "18446744073709551615",
    "4611686018427387904",
    "1152921504606846976",
    "1000000000000",
];

/// Every way of parsing `bytes` — materialized (where it is UTF-8), read
/// through three window sizes, and fed in two pieces cut at each of
/// `cuts` — reports the one error returned, having requested at most
/// `slack` plus `per_byte` bytes for every byte received.
fn rejected_within(bytes: &[u8], cuts: &[usize], per_byte: usize, slack: usize) -> IoError {
    use mrlr_core::io::{InstanceSink, StreamParser};

    let bound = per_byte * bytes.len() + slack;
    let head = String::from_utf8_lossy(&bytes[..bytes.len().min(60)]);
    let mut errors = Vec::new();
    let mut note = |how: &str, (e, requested): (IoError, usize)| {
        assert!(
            requested <= bound,
            "{head:?} ({how}): {requested} bytes requested for {} received",
            bytes.len()
        );
        errors.push(e);
    };
    if let Ok(text) = std::str::from_utf8(bytes) {
        note(
            "materialized",
            requested_by(|| parse_instance(text).unwrap_err()),
        );
    }
    for buf in [1usize, 7, 1 << 16] {
        note(
            "windowed",
            requested_by(|| read_instance(std::io::Cursor::new(bytes), buf).unwrap_err()),
        );
    }
    for &cut in cuts {
        note(
            "cut",
            requested_by(|| {
                let mut parser = StreamParser::new(InstanceSink::default());
                parser
                    .feed(&bytes[..cut])
                    .and_then(|()| parser.feed(&bytes[cut..]))
                    .and_then(|()| parser.finish().map(|_| ()))
                    .unwrap_err()
            }),
        );
    }
    assert!(
        errors.windows(2).all(|w| w[0] == w[1]),
        "parses of {head:?} disagree: {errors:?}"
    );
    errors.swap_remove(0)
}

/// The one error every way of parsing `text` reports, none of them
/// having requested [`ALLOCATION_BOUND`] bytes.
fn rejected(text: &str) -> IoError {
    rejected_within(text.as_bytes(), &[], 0, ALLOCATION_BOUND - 1)
}

#[test]
fn huge_edge_count_is_reported_by_the_count_check() {
    for m in HUGE {
        for (header, record) in [
            (format!("p graph 3 {m}"), "e 0 1"),
            (format!("p vertex-weighted 3 {m}"), "e 0 1 2.5"),
            (format!("p b-matching 3 {m} 0.25"), "e 0 1"),
        ] {
            let e = rejected(&format!("{header}\n{record}\n"));
            assert_eq!((e.line, e.col), (0, 0), "{header}: {e}");
            assert_eq!(
                e.message,
                format!("problem line promised {m} edges, found 1"),
                "{header}"
            );
        }
    }
}

#[test]
fn huge_set_count_is_reported_by_the_count_check() {
    for n_sets in HUGE {
        let e = rejected(&format!("p set-system 3 {n_sets}\ns 1.0 0 2\n"));
        assert_eq!((e.line, e.col), (0, 0), "{e}");
        assert_eq!(
            e.message,
            format!("problem line promised {n_sets} sets, found 1")
        );
    }
}

#[test]
fn universe_beyond_the_element_id_range_is_a_located_error() {
    for universe in HUGE {
        let header = format!("p set-system {universe} 1");
        let e = rejected(&format!("{header}\ns 1.0 0\n"));
        assert_eq!((e.line, e.col), (1, 14), "{header}: {e}");
        assert_eq!(
            e.message,
            format!("universe size {universe} exceeds the maximum 4294967296")
        );
    }
}

/// The whole element-id range is a legal universe, but one element cannot
/// fill it: both set-cover keys refuse the instance as uncoverable, and
/// the cover check says no, before anything is sized by the universe.
#[test]
fn a_universe_one_set_cannot_fill_buys_no_table() {
    let inst = parse_instance("p set-system 4294967295 1\ns 1.0 0\n").unwrap();
    let Instance::SetSystem(sys) = &inst else {
        panic!("{:?}", inst.kind());
    };
    let registry = Registry::with_defaults();
    let cfg = inst.auto_config(0.3, 42);
    for algorithm in ["set-cover-f", "set-cover-greedy"] {
        let (result, bytes) = requested_by(|| registry.solve(algorithm, &inst, &cfg));
        match result {
            Err(MrError::Infeasible(m)) => {
                assert_eq!(
                    m, "set cover instance leaves an element uncovered",
                    "{algorithm}"
                )
            }
            other => panic!("{algorithm}: {other:?}"),
        }
        assert!(
            bytes < ALLOCATION_BOUND,
            "{algorithm}: {bytes} bytes requested"
        );
    }
    let (covered, bytes) = requested_by(|| is_cover(sys, &[0]));
    assert!(!covered);
    assert!(
        bytes < ALLOCATION_BOUND,
        "is_cover: {bytes} bytes requested"
    );
}

#[test]
fn vertex_count_beyond_the_id_range_is_a_located_error() {
    for n in HUGE {
        for (header, record) in [
            (format!("p graph {n} 0"), ""),
            (format!("p vertex-weighted {n} 0"), "n 0 1.0\n"),
            (format!("p b-matching {n} 1 0.25"), "e 0 1\n"),
        ] {
            let e = rejected(&format!("{header}\n{record}"));
            let col = header.find(n).unwrap() + 1;
            assert_eq!((e.line, e.col), (1, col), "{header}: {e}");
            assert!(e.message.contains("exceeds the maximum"), "{header}: {e}");
        }
    }
    // The whole id range itself is a legal claim …
    let e = rejected("p vertex-weighted 4294967296 0\nn 0 1.0\n");
    assert_eq!(e.message, "vertex 1 has no `n` line");
    // … and a syntax error elsewhere on the line still comes first.
    let e = rejected("p graph 1152921504606846976 x\n");
    assert_eq!((e.line, e.col), (1, 29), "{e}");
}

/// An `n` line may name any id below a claimed `n` of 2^32. Its checks —
/// one line per id, none missing — run over the ids that arrived, so a
/// 50-byte file buys no table of `n` entries.
#[test]
fn an_n_line_at_the_top_of_the_id_range_buys_no_table() {
    for (header, value) in [
        ("p vertex-weighted 4294967296 0", "1.0"),
        ("p b-matching 4294967296 0 0.5", "2"),
    ] {
        let text = format!("{header}\nn 4294967295 {value}\n");
        let cuts: Vec<usize> = (header.len()..=text.len()).collect();
        let e = rejected_within(text.as_bytes(), &cuts, 0, ALLOCATION_BOUND - 1);
        assert_eq!((e.line, e.col), (0, 0), "{header}: {e}");
        assert_eq!(e.message, "vertex 0 has no `n` line", "{header}");

        let text = format!("{text}n 4294967295 {value}\n");
        let e = rejected_within(text.as_bytes(), &cuts, 0, ALLOCATION_BOUND - 1);
        assert_eq!((e.line, e.col), (3, 3), "{header}: {e}");
        assert_eq!(e.message, "duplicate data for vertex 4294967295");
    }
}

#[test]
fn vertex_tables_past_the_cap_grow_with_the_n_lines() {
    // More vertices than any pre-allocation covers, all of them present.
    let n = (1 << 20) + 5;
    let mut text = format!("p vertex-weighted {n} 1\ne 0 {}\n", n - 1);
    for v in (0..n).rev() {
        text += &format!("n {v} 1.5\n");
    }
    let parsed = parse_instance(&text).unwrap();
    match parsed {
        mrlr_core::api::Instance::VertexWeighted(vw) => {
            assert_eq!(vw.graph.n(), n);
            assert!(vw.weights.iter().all(|&w| w == 1.5));
        }
        other => panic!("{:?}", other.kind()),
    }
    // Drop the last line: vertex 0 is now the one without data.
    let cut = text.trim_end().rfind('\n').unwrap();
    let e = parse_instance(&text[..cut]).unwrap_err();
    assert_eq!(e.message, "vertex 0 has no `n` line");
}

/// A solve straight off a reader sizes its cluster from the parsed graph,
/// never from the header's claim: the lie is the count check's error,
/// before any machine count exists.
#[test]
fn streamed_solve_refuses_a_machine_count_derived_from_a_lie() {
    let text = "p graph 3 1000000000000\ne 0 1\n";
    let (result, bytes) = requested_by(|| {
        solve_matching_stream(
            std::io::Cursor::new(text.as_bytes()),
            64,
            Backend::Shard,
            |n, m| MrConfig::auto(n, 2 * m, 0.3, 42),
        )
    });
    let e = result.unwrap_err().to_string();
    assert_eq!(e, "problem line promised 1000000000000 edges, found 1");
    assert!(bytes < ALLOCATION_BOUND, "{bytes} bytes requested");
}

/// A field that never ends costs what it weighs: the plain-record scan
/// gives up on the tenth digit, the token reaches the general route once,
/// and nothing is sized by more than the bytes that arrived (the carried
/// line, doubled as it grows, and the message that quotes the token).
#[test]
fn endless_fields_are_bounded_by_the_bytes_received() {
    const MIB: usize = 1 << 20;
    let digits = "7".repeat(MIB);

    let text = format!("p graph 3 1\ne 0 {digits}\n");
    let e = rejected_within(text.as_bytes(), &[20, MIB], 8, 1 << 17);
    assert_eq!((e.line, e.col), (2, 5), "{}", &e.message[..40]);
    assert_eq!(e.message, format!("bad endpoint `{digits}`"));

    // A weight of a million digits is a number — an infinite one.
    let text = format!("p graph 3 1\ne 0 1 {digits}\n");
    let e = rejected_within(text.as_bytes(), &[20, MIB], 8, 1 << 17);
    assert_eq!(
        e,
        IoError {
            line: 2,
            col: 7,
            message: "weight inf must be positive and finite".into()
        }
    );

    let text = format!("p set-system 3 1\ns 1.0 0 {digits}\n");
    let e = rejected_within(text.as_bytes(), &[30, MIB], 8, 1 << 17);
    assert_eq!((e.line, e.col), (2, 9), "{}", &e.message[..40]);
    assert_eq!(e.message, format!("bad element `{digits}`"));
}

/// A chunk boundary inside any field of an otherwise plain line changes
/// neither the error nor where it points.
#[test]
fn a_chunk_ending_inside_any_field_reports_the_same_error() {
    let cases: &[(&str, &str, usize, usize, &str)] = &[
        (
            "p graph 30 2\ne 10 21 2.5\n",
            "e 21 10 1.25 \r\n",
            3,
            3,
            "duplicate edge (10, 21)",
        ),
        (
            "p graph 30 1\n",
            "e 10 31 2.5\n",
            2,
            6,
            "vertex 31 out of range 0..30",
        ),
        (
            "p graph 30 1\n",
            "e 10 10 2.5\n",
            2,
            6,
            "self-loop at vertex 10",
        ),
        (
            "p graph 30 1\n",
            "e 10 11 -2.5\n",
            2,
            9,
            "weight -2.5 must be positive and finite",
        ),
        (
            "p b-matching 30 0 0.5\nn 12 3\n",
            "n 12 34\n",
            3,
            3,
            "duplicate data for vertex 12",
        ),
        (
            "p b-matching 30 0 0.5\n",
            "n 12 0\n",
            2,
            6,
            "capacity must be at least 1",
        ),
        (
            "p vertex-weighted 30 0\n",
            "n 12 nan\n",
            2,
            6,
            "vertex weight NaN must be positive and finite",
        ),
        (
            "p set-system 40 1\n",
            "s 1.25 3 15 14\n",
            2,
            13,
            "elements must be strictly increasing (15 then 14)",
        ),
        (
            "p set-system 40 1\n",
            "s 1.25 3 14 40\n",
            2,
            13,
            "element 40 out of range 0..40",
        ),
    ];
    for (head, line, at_line, at_col, message) in cases {
        let text = format!("{head}{line}");
        let cuts: Vec<usize> = (head.len()..=text.len()).collect();
        let e = rejected_within(text.as_bytes(), &cuts, 0, 1 << 17);
        assert_eq!(
            e,
            IoError {
                line: *at_line,
                col: *at_col,
                message: message.to_string()
            },
            "{line:?}"
        );
    }
}

/// The record tags are per body: a plain, well-formed line of the wrong
/// body is still an unexpected record, at its tag.
#[test]
fn records_of_the_wrong_body_are_unexpected() {
    for (text, message) in [
        (
            "p set-system 3 1\ne 0 1\n",
            "unexpected record `e` (expected `s`)",
        ),
        (
            "p graph 3 1\ns 1.0 0 1\n",
            "unexpected record `s` (expected `e`)",
        ),
        (
            "p graph 3 1\nn 0 1\n",
            "unexpected record `n` (expected `e`)",
        ),
        (
            "p b-matching 3 0 0.5\ns 1.0 0 1\n",
            "unexpected record `s` (expected `e` or `n`)",
        ),
    ] {
        let e = rejected(text);
        assert_eq!((e.line, e.col), (2, 1), "{text:?}: {e}");
        assert_eq!(e.message, message, "{text:?}");
    }
}
