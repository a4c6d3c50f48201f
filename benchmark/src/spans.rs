//! The traced run's span recorder and its counting allocator.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer's public functions (spans inside the program are a
//! later change). They are kept in memory and written as JSON lines when
//! the run ends.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counts every allocation of the harness process (executor threads
/// included). Only the traced run reads the counters.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// statistics (Relaxed) and publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// `(allocations, bytes requested)` since process start.
pub fn alloc_snapshot() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// One recorded interval. `op` groups the spans of one replayed
/// operation (one pass over the workload's commands).
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub op: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    /// `(key, value, keep the maximum instead of the sum)`.
    pub counts: Vec<(String, f64, bool)>,
}

/// In-memory span store. When disabled (`Recorder::plain`) every call is
/// a pass-through, which is how the untraced in-process repeat behind
/// `trace.overhead_s` runs the very same replay code.
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    op: usize,
    open: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            epoch: Instant::now(),
            enabled,
            op: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts the next operation; spans recorded from now on carry `op`.
    pub fn begin_op(&mut self, op: usize) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            op: self.op,
            start_ns,
            end_ns: start_ns,
            counts: Vec::new(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    fn add(&mut self, key: String, value: f64, max: bool) {
        let (true, Some(&id)) = (self.enabled, self.open.last()) else {
            return;
        };
        let counts = &mut self.spans[id].counts;
        match counts.iter_mut().find(|c| c.0 == key) {
            Some(c) if max => c.1 = c.1.max(value),
            Some(c) => c.1 += value,
            None => counts.push((key, value, max)),
        }
    }

    /// Adds `value` to count `key` of the innermost open span.
    pub fn count(&mut self, key: impl Into<String>, value: f64) {
        self.add(key.into(), value, false);
    }

    /// Raises count `key` of the innermost open span to at least `value`
    /// (peaks and skews, which do not add up).
    pub fn count_max(&mut self, key: impl Into<String>, value: f64) {
        self.add(key.into(), value, true);
    }

    /// Records an interval measured elsewhere (a client thread), as a
    /// child of the innermost open span.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        seconds: f64,
        counts: &[(&str, f64)],
    ) {
        if !self.enabled {
            return;
        }
        let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            op: self.op,
            start_ns,
            end_ns: start_ns + (seconds * 1e9) as u64,
            counts: counts
                .iter()
                .map(|&(k, v)| (k.to_string(), v, false))
                .collect(),
        });
    }

    /// Per operation: seconds by span name and counts by key.
    pub fn totals(&self) -> BTreeMap<usize, Totals> {
        let mut by_op: BTreeMap<usize, Totals> = BTreeMap::new();
        for s in &self.spans {
            let t = by_op.entry(s.op).or_default();
            *t.seconds.entry(s.name).or_default() += (s.end_ns - s.start_ns) as f64 / 1e9;
            for (key, value, max) in &s.counts {
                let slot = t.counts.entry(key.clone()).or_default();
                *slot = if *max {
                    slot.max(*value)
                } else {
                    *slot + value
                };
            }
        }
        by_op
    }

    /// Writes one JSON object per span, in start order.
    pub fn write_json_lines(&self, w: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            write!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{},\"op\":{},\"start_ns\":{},\"end_ns\":{},\"counts\":{{",
                s.name,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.op,
                s.start_ns,
                s.end_ns,
            )?;
            for (i, (key, value, _)) in s.counts.iter().enumerate() {
                let sep = if i == 0 { "" } else { "," };
                write!(w, "{sep}\"{key}\":{value:?}")?;
            }
            writeln!(w, "}}}}")?;
        }
        Ok(())
    }
}

/// Aggregated spans of one operation (see [`Recorder::totals`]).
#[derive(Default)]
pub struct Totals {
    pub seconds: BTreeMap<&'static str, f64>,
    pub counts: BTreeMap<String, f64>,
}
