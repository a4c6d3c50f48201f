//! A batch holds one instance and one report at a time: `io::run_batch`
//! loads each instance just before its jobs, renders each slot into the
//! document text as it finishes and drops it, so the bytes live at the
//! peak of a batch over many copies of an instance stay near those of a
//! batch over one copy. Holding the whole grid (every instance, every
//! report, then one tree of the document) grows with the manifest and
//! fails this bound.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mrlr_core::api::{Backend, Registry};
use mrlr_core::io::{self, BatchFormat, CertificateMode, JobSpec, TimingMode};
use mrlr_setsys::generators;

/// Tracks the bytes live on the calling thread and their high-water
/// mark. Tests run on parallel threads, so both tallies are
/// thread-local; every `threads=1` job runs on the calling thread.
struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn note(delta: isize) {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every call is forwarded unchanged to `System`; the only
// addition is thread-local counter updates that do not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as isize);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as isize);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f`, returning its result and the most bytes it held live at
/// once (its result included).
fn peak_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.get();
    PEAK.set(base);
    let out = f();
    (out, (PEAK.get() - base) as usize)
}

/// The text of one set system, parsed afresh for every copy in a batch.
fn instance_text() -> String {
    let sys = generators::with_uniform_weights(
        generators::bounded_frequency(400, 40000, 3, 7),
        1.0,
        9.0,
        7,
    );
    io::render_instance(&mrlr_core::api::Instance::SetSystem(sys))
}

fn jobs() -> Vec<JobSpec> {
    ["set-cover-f", "set-cover-greedy"]
        .into_iter()
        .map(|key| JobSpec {
            algorithm: key.to_string(),
            mu: 0.3,
            seed: 42,
            threads: Some(1),
        })
        .collect()
}

/// `copies` copies of the instance through the runner, as `mrlr batch`
/// runs a manifest.
fn streamed(text: &str, copies: usize) -> String {
    let paths = vec!["sets.inst".to_string(); copies];
    let jobs = jobs();
    let registry = Registry::with_defaults();
    io::run_batch(
        &paths,
        &jobs,
        BatchFormat::Json(CertificateMode::Summary),
        TimingMode::Masked,
        |_| io::parse_instance(text),
        |instance, j| {
            let cfg = instance
                .auto_config(jobs[j].mu, jobs[j].seed)
                .with_threads(1);
            registry
                .solve_with(&jobs[j].algorithm, Backend::Shard, instance, &cfg)
                .map_err(|e| e.to_string())
        },
        |_| Ok(()),
    )
    .expect("generated instance parses")
}

#[test]
fn a_batch_peaks_at_one_instance_and_one_report() {
    let text = instance_text();
    let (one, one_peak) = peak_of(|| streamed(&text, 1));
    let (four, four_peak) = peak_of(|| streamed(&text, 4));
    assert!(four.len() > 3 * one.len(), "four copies render four rows");
    assert!(
        four_peak * 5 <= one_peak * 6,
        "four copies peaked at {four_peak} B, one copy at {one_peak} B (bound 1.2×)"
    );
}
