//! A problem line's counts are a claim. Headers that promise absurd
//! numbers of edges, vertices or sets must come back as an [`IoError`] —
//! the end-of-input count check, or a located range error — without the
//! parser or its sinks ever allocating for the promise. Every case here
//! panicked (`capacity overflow`) or aborted on allocation failure before
//! the pre-allocations were capped.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mrlr_core::api::{solve_matching_stream, Backend};
use mrlr_core::io::{parse_instance, read_instance, IoError};
use mrlr_core::mr::MrConfig;

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

/// The duplicate-edge table is sized for at most 2^24 claimed edges
/// (2^25 zeroed 8-byte slots the OS never maps until touched); every
/// other structure is capped far lower. Nothing may request more.
const ALLOCATION_BOUND: usize = (1 << 28) + (1 << 26);

const HUGE: &[&str] = &[
    "18446744073709551615",
    "4611686018427387904",
    "1152921504606846976",
    "1000000000000",
];

/// The one error every way of parsing `text` reports.
fn rejected(text: &str) -> IoError {
    let mut errors = Vec::new();
    let (e, bytes) = requested_by(|| parse_instance(text).unwrap_err());
    assert!(
        bytes < ALLOCATION_BOUND,
        "{text:?}: {bytes} bytes requested"
    );
    errors.push(e);
    for buf in [1usize, 7, 1 << 16] {
        let (e, bytes) =
            requested_by(|| read_instance(std::io::Cursor::new(text.as_bytes()), buf).unwrap_err());
        assert!(
            bytes < ALLOCATION_BOUND,
            "{text:?} (buffer {buf}): {bytes} bytes requested"
        );
        errors.push(e);
    }
    assert!(
        errors.windows(2).all(|w| w[0] == w[1]),
        "materialized and chunked parses disagree on {text:?}: {errors:?}"
    );
    errors.swap_remove(0)
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
    assert!(e.contains("would need") && e.contains("machines"), "{e}");
    assert!(bytes < ALLOCATION_BOUND, "{bytes} bytes requested");

    // With a machine count the claim cannot inflate, the count check
    // reports the lie as it does on the materialized path.
    let e = solve_matching_stream(
        std::io::Cursor::new(text.as_bytes()),
        64,
        Backend::Shard,
        |n, _| MrConfig::auto(n, 2, 0.3, 42),
    )
    .unwrap_err()
    .to_string();
    assert_eq!(e, "problem line promised 1000000000000 edges, found 1");
}
