//! Superstep scheduling: how per-machine tasks are laid onto OS threads.
//!
//! One superstep of the MRC/MPC model runs the same computation on every
//! machine (the paper's "map" / "reduce" halves of a round). The
//! [`Scheduler`] hands every shard index of a pass to the raw
//! [`Executor`], and an idle thread claims the next unclaimed shard — the
//! master of the MapReduce execution overview handing the next task to
//! whichever worker is free. Skewed passes (the colourings put all their
//! groups on machines `0..κ`) therefore spread over every thread.
//! [`StaticAssignment`] is the contiguous shard partition [`crate::dist`]
//! hands its worker processes for the shuffle.
//!
//! Every ordered observable is reconstructed in shard-id order, so a run
//! is bit-identical across executors and thread counts; only host
//! wall-clock differs. [`RuntimeKind`] names where the shuffle happens —
//! in process (`Shard`) or through the master/worker transport (`Dist`) —
//! selectable per run via [`crate::cluster::ClusterConfig::runtime`] or
//! process-wide via the `MRLR_BACKEND` environment variable.

use std::ops::Range;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use crate::executor::{env_value, Executor, RawSlots};

/// Which cluster runtime executes the supersteps. Both are
/// **bit-identical** in every model-level observable — solutions,
/// message delivery, [`crate::metrics::Metrics`] — so the choice is an
/// execution-substrate knob exactly like the thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RuntimeKind {
    /// The in-process engine: shard tasks claimed by idle threads plus
    /// the counting-sort routing planes ([`crate::router`],
    /// [`crate::payload`]) over pooled
    /// [`RouterScratch`](crate::router::RouterScratch) buffers.
    #[default]
    Shard,
    /// The distributed master/worker engine ([`crate::dist`]): the same
    /// shard blocks owned by worker threads or processes, exchanges
    /// shuffled through a real transport with barrier heartbeats and
    /// fault recovery.
    Dist,
}

impl RuntimeKind {
    /// Short name for traces and bench labels (`"shard"` / `"dist"`).
    pub fn name(self) -> &'static str {
        match self {
            RuntimeKind::Shard => "shard",
            RuntimeKind::Dist => "dist",
        }
    }
}

/// Interprets an `MRLR_BACKEND` value: unset, empty or `shard` is
/// [`RuntimeKind::Shard`], `dist` is [`RuntimeKind::Dist`], and anything
/// else is an error naming the accepted values — a mistyped CI leg must
/// fail, not silently test another engine.
pub fn parse_runtime(value: Option<&str>) -> Result<RuntimeKind, String> {
    match value {
        None | Some("") | Some("shard") => Ok(RuntimeKind::Shard),
        Some("dist") => Ok(RuntimeKind::Dist),
        Some(other) => Err(format!(
            "MRLR_BACKEND={other:?} is not a runtime: expected `shard` or `dist` (unset = `shard`)"
        )),
    }
}

/// [`parse_runtime`] applied to the process environment.
pub fn env_runtime() -> Result<RuntimeKind, String> {
    parse_runtime(env_value("MRLR_BACKEND").as_deref())
}

/// The process-wide default runtime ([`env_runtime`]), read once and
/// cached like [`crate::executor::default_threads`]. The CI matrix runs
/// the whole suite under both values — legal because the runtimes are
/// bit-identical.
///
/// # Panics
///
/// With [`parse_runtime`]'s message when `MRLR_BACKEND` holds anything
/// but an accepted value.
pub fn default_runtime() -> RuntimeKind {
    static DEFAULT: OnceLock<RuntimeKind> = OnceLock::new();
    *DEFAULT.get_or_init(|| env_runtime().unwrap_or_else(|e| panic!("{e}")))
}

/// Balanced contiguous partition of `count` shards over `workers`
/// dist worker processes: worker `w` owns [`StaticAssignment::chunk`]`(w)`
/// for the whole session. The first `count % workers` chunks are one
/// shard larger, so block sizes differ by at most 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticAssignment {
    count: usize,
    workers: usize,
}

impl StaticAssignment {
    /// An assignment of `count` shards to at most `workers` workers
    /// (clamped so no worker owns an empty chunk unless `count == 0`).
    pub fn new(count: usize, workers: usize) -> Self {
        StaticAssignment {
            count,
            workers: workers.max(1).min(count.max(1)),
        }
    }

    /// Number of non-empty chunks.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The shard range owned by worker `w`.
    pub fn chunk(&self, w: usize) -> Range<usize> {
        debug_assert!(w < self.workers);
        let base = self.count / self.workers;
        let extra = self.count % self.workers;
        let lo = w * base + w.min(extra);
        let hi = lo + base + usize::from(w < extra);
        lo..hi
    }
}

/// One timed executor pass over all shards: per-index results in shard-id
/// order plus the host wall-clock observations the cluster feeds into
/// [`crate::metrics::Metrics::record_timing`].
pub struct Pass<R> {
    /// Per-shard results, in shard-id order regardless of schedule.
    pub results: Vec<R>,
    /// Wall-clock nanoseconds for the whole pass.
    pub wall_nanos: u64,
    /// Nanoseconds spent in each shard's task, in shard-id order.
    pub task_nanos: Vec<u64>,
}

/// An [`Executor`] running shard tasks in index-ordered maps: everything
/// the cluster facade needs to run one superstep's worth of shard tasks.
pub struct Scheduler {
    exec: Arc<dyn Executor>,
}

impl Scheduler {
    /// A scheduler laying shard tasks onto `exec`.
    pub fn new(exec: Arc<dyn Executor>) -> Self {
        Scheduler { exec }
    }

    /// The underlying executor.
    pub fn executor(&self) -> &Arc<dyn Executor> {
        &self.exec
    }

    /// OS threads available to a pass.
    pub fn threads(&self) -> usize {
        self.exec.threads()
    }

    /// Runs `f(i)` for every index — each index is one executor task, so
    /// an idle thread claims the next — and returns the results **in
    /// index order** regardless of schedule.
    pub(crate) fn map_count<R, F>(&self, count: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let mut out: Vec<Option<R>> = (0..count).map(|_| None).collect();
        let slots = RawSlots::new(out.as_mut_ptr());
        self.exec.run(count, &|i| {
            // SAFETY: `i < count = out.len()`, and the `Executor` contract
            // (an `unsafe trait`) runs every index exactly once, so each
            // slot is written once with no aliasing; `out` outlives the
            // pass because `run` returns or unwinds only after every task
            // has returned.
            unsafe { *slots.slot(i) = Some(f(i)) };
        });
        out.into_iter()
            .map(|s| s.expect("scheduler ran every index"))
            .collect()
    }

    /// Index-ordered map over shared references.
    pub fn map_ref<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.map_count(items.len(), |i| f(i, &items[i]))
    }

    /// Index-ordered map with exclusive access to each item.
    pub fn map_mut<T, R, F>(&self, items: &mut [T], f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, &mut T) -> R + Sync,
    {
        let states = RawSlots::new(items.as_mut_ptr());
        // SAFETY: `map_count` hands out each `i < items.len()` exactly
        // once (the `Executor` contract), so `&mut items[i]` is exclusive
        // for the task's duration, and no task outlives the borrow of
        // `items`.
        self.map_count(items.len(), |i| f(i, unsafe { &mut *states.slot(i) }))
    }

    /// [`Scheduler::map_mut`] with per-task and whole-pass wall-clock
    /// observation — the shape of every metered cluster superstep.
    pub fn timed_mut<T, R, F>(&self, items: &mut [T], f: F) -> Pass<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, &mut T) -> R + Sync,
    {
        let pass = Instant::now();
        let timed = self.map_mut(items, |i, t| {
            let t0 = Instant::now();
            let r = f(i, t);
            (r, t0.elapsed().as_nanos() as u64)
        });
        let wall_nanos = pass.elapsed().as_nanos() as u64;
        let (results, task_nanos) = timed.into_iter().unzip();
        Pass {
            results,
            wall_nanos,
            task_nanos,
        }
    }

    /// [`Scheduler::map_ref`] with timing (read-only passes such as
    /// `aggregate` extraction).
    pub fn timed_ref<T, R, F>(&self, items: &[T], f: F) -> Pass<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let pass = Instant::now();
        let timed = self.map_ref(items, |i, t| {
            let t0 = Instant::now();
            let r = f(i, t);
            (r, t0.elapsed().as_nanos() as u64)
        });
        let wall_nanos = pass.elapsed().as_nanos() as u64;
        let (results, task_nanos) = timed.into_iter().unzip();
        Pass {
            results,
            wall_nanos,
            task_nanos,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{SeqExecutor, ThreadPoolExecutor};

    #[test]
    fn static_assignment_is_a_balanced_partition() {
        for (count, workers) in [(10usize, 3usize), (7, 7), (100, 8), (3, 9), (0, 4), (1, 1)] {
            let a = StaticAssignment::new(count, workers);
            let mut covered = Vec::new();
            let mut sizes = Vec::new();
            for w in 0..a.workers() {
                let chunk = a.chunk(w);
                sizes.push(chunk.len());
                covered.extend(chunk);
            }
            assert_eq!(covered, (0..count).collect::<Vec<_>>(), "{count}/{workers}");
            if let (Some(&max), Some(&min)) = (sizes.iter().max(), sizes.iter().min()) {
                assert!(max - min <= 1, "unbalanced chunks {sizes:?}");
            }
        }
    }

    #[test]
    fn timed_passes_report_per_task_nanos() {
        let sched = Scheduler::new(Arc::new(SeqExecutor));
        let mut items = vec![0u64; 8];
        let pass = sched.timed_mut(&mut items, |i, x| {
            *x = i as u64;
            i
        });
        assert_eq!(pass.results, (0..8).collect::<Vec<_>>());
        assert_eq!(pass.task_nanos.len(), 8);
        assert!(pass.wall_nanos > 0);
        let ro = sched.timed_ref(&items, |_, &x| x);
        assert_eq!(ro.results, (0..8u64).collect::<Vec<_>>());
    }

    #[test]
    fn backend_values_parse_strictly() {
        for shard in [None, Some(""), Some("shard")] {
            assert_eq!(parse_runtime(shard), Ok(RuntimeKind::Shard), "{shard:?}");
        }
        assert_eq!(parse_runtime(Some("dist")), Ok(RuntimeKind::Dist));
        for bad in ["mr", "dits", "Shard", "shard ", "dist,shard"] {
            let err = parse_runtime(Some(bad)).unwrap_err();
            assert!(err.contains(bad), "{err}");
            assert!(err.contains("`shard` or `dist`"), "{err}");
        }
        assert_eq!(RuntimeKind::Shard.name(), "shard");
        assert_eq!(RuntimeKind::Dist.name(), "dist");
    }

    #[test]
    fn empty_and_degenerate_counts() {
        let sched = Scheduler::new(Arc::new(ThreadPoolExecutor::new(4)));
        let empty: Vec<usize> = sched.map_count(0, |_| unreachable!("no tasks"));
        assert!(empty.is_empty());
        assert_eq!(sched.map_count(1, |i| i), vec![0]);
    }
}
