//! The pluggable execution substrate behind the cluster's supersteps.
//!
//! An [`Executor`] runs one task per simulated machine, possibly on real
//! OS threads. The trait's only required operation, [`Executor::run`], is
//! an *unordered* index-parallel for-loop; every ordered observable is
//! reconstructed afterwards in machine-id order by the scheduling layer
//! ([`crate::superstep::Scheduler`]), which submits one task per shard
//! and owns the index-ordered maps the cluster runs its supersteps
//! through. Because each task touches only its own
//! machine's state and its own output slot, and all merges are
//! index-ordered, a run is **bit-identical** across executors and thread
//! counts — the determinism contract the equivalence suites assert.
//!
//! Two executors ship:
//!
//! * [`SeqExecutor`] — runs tasks inline in index order. Zero overhead;
//!   the reference schedule.
//! * [`ThreadPoolExecutor`] — a persistent pool built on [`std::thread`]
//!   and [`std::sync::mpsc`] channels (the build environment has no
//!   crates.io access, so rayon is not available; if it returns, a
//!   `RayonExecutor` is a ~10-line impl of the same trait). Workers pull
//!   indices from a shared atomic counter, so load balances across
//!   machines with skewed state sizes; the submitting thread participates
//!   in the work, so a 1-thread pool is simply the sequential schedule
//!   with an atomic counter in the loop.
//!
//! The trait is `unsafe` to implement: the scheduler hands each task a
//! `&mut` through a raw pointer, trusting the executor to run every index
//! exactly once and to finish every task before `run` returns (see
//! [`Executor`]'s *Safety* section).
//!
//! [`executor_for`] caches one pool per thread count for the whole
//! process, so every later solve at that count — the next job of a
//! [`Registry::solve_batch`], the next request of a daemon — finds its
//! threads already spawned; no caller pre-warms anything. The default
//! thread count comes from the `MRLR_THREADS` environment variable
//! (unset or `1` = the sequential executor; anything but a positive
//! integer is an error).
//!
//! [`Registry::solve_batch`]: https://docs.rs/mrlr-core

use std::any::Any;
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Index-parallel task runner for machine supersteps.
///
/// The order and interleaving of tasks are unspecified — callers own
/// determinism by writing per-index outputs and merging in index order
/// (see [`crate::superstep::Scheduler`]).
///
/// # Safety
///
/// [`crate::superstep::Scheduler`] hands task `i` an exclusive `&mut` to
/// slot `i` of a caller-owned buffer through a raw pointer, and the
/// router's threaded scatter writes through one, relying on this contract
/// alone. [`Executor::run`] must:
///
/// * call `task(i)` exactly once for every `i in 0..count`, and never with
///   any other index — a panicking task included, so a panic must not
///   stop or repeat the other calls;
/// * return, or unwind, only after every call it made has returned, and
///   start none afterwards.
///
/// An implementation that calls an index twice hands out two live `&mut`
/// to one slot; one that returns early lets a task write into a buffer
/// its caller has already freed or read.
pub unsafe trait Executor: Send + Sync {
    /// Short human-readable name (`"seq"`, `"threads(4)"`, …) for traces
    /// and bench labels.
    fn name(&self) -> String;

    /// Number of OS threads that may run tasks concurrently (1 for the
    /// sequential executor).
    fn threads(&self) -> usize;

    /// Runs `task(i)` for every `i in 0..count`, returning when all are
    /// done. If any task panics, the others still run, and the first
    /// panic is re-raised once all have returned.
    fn run(&self, count: usize, task: &(dyn Fn(usize) + Sync));
}

/// [`Executor::run`] on the calling thread, in index order.
fn run_inline(count: usize, task: &(dyn Fn(usize) + Sync)) {
    let mut panic = None;
    for i in 0..count {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| task(i))) {
            panic.get_or_insert(payload);
        }
    }
    if let Some(payload) = panic {
        resume_unwind(payload);
    }
}

/// The reference executor: tasks run inline, in index order.
#[derive(Debug, Clone, Copy, Default)]
pub struct SeqExecutor;

// SAFETY: `run_inline` calls each index of `0..count` once, in order, on
// the calling thread, catching each panic, before it returns or re-raises.
unsafe impl Executor for SeqExecutor {
    fn name(&self) -> String {
        "seq".into()
    }

    fn threads(&self) -> usize {
        1
    }

    fn run(&self, count: usize, task: &(dyn Fn(usize) + Sync)) {
        run_inline(count, task);
    }
}

/// One submitted superstep: a lifetime-erased task plus completion state.
///
/// `run` blocks until `completed == count`, so the erased borrow outlives
/// every dereference — workers claim an index *before* calling the task
/// and can never claim one after the counter is exhausted.
struct Job {
    /// The task, with its lifetime erased. Only dereferenced by threads
    /// holding a claimed index, all of which complete before the
    /// submitting `run` call returns.
    task: *const (dyn Fn(usize) + Sync),
    count: usize,
    /// Next index to claim.
    next: AtomicUsize,
    /// Indices completed so far; the job is done at `count`.
    completed: AtomicUsize,
    /// First panic payload raised by a task, re-raised by the submitter.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    done: Mutex<bool>,
    signal: Condvar,
}

// SAFETY: the raw task pointer is only dereferenced while the submitting
// `ThreadPoolExecutor::run` frame is alive (it blocks on `done`), and the
// pointee is `Sync`, so shared cross-thread calls are safe; every other
// field is an atomic, a `Mutex` or a `Condvar`.
unsafe impl Send for Job {}
// SAFETY: as for `Send` — workers only share `&Job`.
unsafe impl Sync for Job {}

impl Job {
    /// Claims and runs indices until the counter is exhausted. Returns
    /// whether this call completed the last index.
    fn work(&self) -> bool {
        let mut finished_last = false;
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.count {
                break;
            }
            // SAFETY: the reference is formed only while holding claim
            // `i < count`, which implies the submitter is still blocked in
            // `run` (it cannot return before every claimed index
            // completes), so the erased borrow is alive. A worker that
            // dequeues the job late only ever sees an exhausted counter
            // and never touches the pointer.
            let task = unsafe { &*self.task };
            // A panicking task must still count as completed, or the
            // submitter would wait forever; the payload is re-raised on
            // the submitting thread once the job drains.
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| task(i))) {
                let mut slot = self.panic.lock().unwrap();
                slot.get_or_insert(payload);
            }
            let done_so_far = self.completed.fetch_add(1, Ordering::AcqRel) + 1;
            finished_last = done_so_far == self.count;
        }
        finished_last
    }

    fn mark_done(&self) {
        let mut done = self.done.lock().unwrap();
        *done = true;
        self.signal.notify_all();
    }

    fn wait(&self) {
        let mut done = self.done.lock().unwrap();
        while !*done {
            done = self.signal.wait(done).unwrap();
        }
    }
}

/// A persistent worker pool on `std::thread` + mpsc channels.
///
/// `new(threads)` spawns `threads - 1` workers; the thread calling
/// [`Executor::run`] is the remaining participant. Concurrent `run` calls
/// from different threads are safe: each submission is an independent
/// `Job` queued to every worker, and completion is tracked per job.
pub struct ThreadPoolExecutor {
    threads: usize,
    senders: Mutex<Vec<Sender<PoolMsg>>>,
    handles: Vec<JoinHandle<()>>,
}

enum PoolMsg {
    Job(Arc<Job>),
    Shutdown,
}

impl ThreadPoolExecutor {
    /// A pool where up to `threads` OS threads (including the submitter)
    /// run tasks concurrently. `threads` is clamped to at least 1.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let mut senders = Vec::new();
        let mut handles = Vec::new();
        for w in 1..threads {
            let (tx, rx) = channel::<PoolMsg>();
            senders.push(tx);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("mrlr-exec-{w}"))
                    .spawn(move || {
                        while let Ok(PoolMsg::Job(job)) = rx.recv() {
                            if job.work() {
                                job.mark_done();
                            }
                        }
                    })
                    .expect("spawning an executor worker thread"),
            );
        }
        ThreadPoolExecutor {
            threads,
            senders: Mutex::new(senders),
            handles,
        }
    }
}

// SAFETY: an index is claimed by one `fetch_add` on the job's counter, so
// each of `0..count` runs once and no other index runs; panics are caught
// per task, and `run` waits for `completed == count` before it returns or
// re-raises. The inline path is `run_inline`.
unsafe impl Executor for ThreadPoolExecutor {
    fn name(&self) -> String {
        format!("threads({})", self.threads)
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn run(&self, count: usize, task: &(dyn Fn(usize) + Sync)) {
        if count == 0 {
            return;
        }
        if self.threads == 1 || count == 1 {
            // Nothing to fan out; skip the queueing machinery.
            return run_inline(count, task);
        }
        // SAFETY: only the lifetime is transmuted. `run` blocks on
        // `job.wait()` below, so the borrow of `task` outlives every
        // dereference (see `Job`).
        let task_static: *const (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute::<&_, &'static (dyn Fn(usize) + Sync)>(task) };
        let job = Arc::new(Job {
            task: task_static,
            count,
            next: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            panic: Mutex::new(None),
            done: Mutex::new(false),
            signal: Condvar::new(),
        });
        {
            let senders = self.senders.lock().unwrap();
            for tx in senders.iter() {
                // A worker that exited (only possible at shutdown) is fine
                // to skip: the submitter and remaining workers drain the
                // job.
                let _ = tx.send(PoolMsg::Job(Arc::clone(&job)));
            }
        }
        // The submitting thread is a full participant.
        if job.work() {
            job.mark_done();
        }
        job.wait();
        let payload = job.panic.lock().unwrap().take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

impl Drop for ThreadPoolExecutor {
    fn drop(&mut self) {
        let senders = std::mem::take(&mut *self.senders.lock().unwrap());
        for tx in &senders {
            let _ = tx.send(PoolMsg::Shutdown);
        }
        drop(senders);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Pointer wrapper that lets disjoint-index tasks write into a shared
/// buffer. Soundness: every task touches only its own index. Access goes
/// through the method (not the field) so 2021-edition closures capture
/// the `Sync` wrapper rather than the raw pointer inside it. Shared by
/// the scheduler and routing layers ([`crate::superstep`],
/// [`crate::router`]), which both use the same disjoint-index
/// discipline.
pub(crate) struct RawSlots<T>(*mut T);
// SAFETY: sharing the wrapper only shares the base address; every
// dereference goes through `slot`, whose contract forbids aliasing
// accesses, and `T: Send` lets the slot values be written or moved from
// whichever thread owns the index. Index ownership is the `Executor`
// contract: each index runs in exactly one task, and every task has
// returned before `run` does.
unsafe impl<T: Send> Sync for RawSlots<T> {}

impl<T> RawSlots<T> {
    /// Wraps the base pointer of a buffer whose slots will be accessed
    /// by disjoint indices.
    pub(crate) fn new(base: *mut T) -> Self {
        RawSlots(base)
    }

    /// Pointer to slot `i`.
    ///
    /// # Safety
    /// `i` must be in bounds, and no two live accesses may alias.
    pub(crate) unsafe fn slot(&self, i: usize) -> *mut T {
        self.0.add(i)
    }
}

/// The value of environment variable `name` for the strict default
/// parsers: `None` when unset; bytes that are not UTF-8 are kept
/// (lossily) so they fail the parse instead of reading as unset.
pub(crate) fn env_value(name: &str) -> Option<String> {
    std::env::var_os(name).map(|v| v.to_string_lossy().into_owned())
}

/// Interprets an `MRLR_THREADS` value: unset is 1 (sequential), a
/// positive integer is itself, and anything else is an error — a
/// mistyped CI leg must fail, not silently run sequentially.
pub fn parse_threads(value: Option<&str>) -> Result<usize, String> {
    let Some(text) = value else { return Ok(1) };
    match text.parse::<usize>() {
        Ok(threads) if threads >= 1 => Ok(threads),
        _ => Err(format!(
            "MRLR_THREADS={text:?} is not a thread count: expected a positive integer (unset = 1)"
        )),
    }
}

/// [`parse_threads`] applied to the process environment.
pub fn env_threads() -> Result<usize, String> {
    parse_threads(env_value("MRLR_THREADS").as_deref())
}

/// The process-wide default thread count ([`env_threads`]), read once
/// and cached.
///
/// # Panics
///
/// With [`parse_threads`]'s message when `MRLR_THREADS` holds anything
/// but a positive integer.
pub fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| env_threads().unwrap_or_else(|e| panic!("{e}")))
}

/// The shared executor for `threads` threads: [`SeqExecutor`] for 0 or 1,
/// else one process-wide cached [`ThreadPoolExecutor`] per thread count —
/// repeated solves (and batched registry runs) reuse warm pools instead of
/// respawning threads.
pub fn executor_for(threads: usize) -> Arc<dyn Executor> {
    static SEQ: OnceLock<Arc<SeqExecutor>> = OnceLock::new();
    static POOLS: OnceLock<Mutex<HashMap<usize, Arc<ThreadPoolExecutor>>>> = OnceLock::new();
    if threads <= 1 {
        return SEQ.get_or_init(|| Arc::new(SeqExecutor)).clone() as Arc<dyn Executor>;
    }
    let pools = POOLS.get_or_init(|| Mutex::new(HashMap::new()));
    let mut pools = pools.lock().unwrap();
    pools
        .entry(threads)
        .or_insert_with(|| Arc::new(ThreadPoolExecutor::new(threads)))
        .clone()
}

/// [`executor_for`] at [`default_threads`] — what `Cluster::new` uses when
/// no executor is supplied explicitly.
pub fn default_executor() -> Arc<dyn Executor> {
    executor_for(default_threads())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::superstep::Scheduler;

    fn pool_sched(threads: usize) -> Scheduler {
        Scheduler::new(Arc::new(ThreadPoolExecutor::new(threads)))
    }

    fn squares(sched: &Scheduler, n: usize) -> Vec<usize> {
        let items: Vec<usize> = (0..n).collect();
        sched.map_ref(&items, |_, &x| x * x)
    }

    #[test]
    fn seq_and_pool_agree_on_map() {
        let expected = squares(&Scheduler::new(Arc::new(SeqExecutor)), 1000);
        for threads in [1usize, 2, 3, 8] {
            let sched = pool_sched(threads);
            assert_eq!(squares(&sched, 1000), expected, "threads = {threads}");
            assert_eq!(sched.threads(), threads);
        }
    }

    #[test]
    fn map_mut_gives_exclusive_access_and_ordered_results() {
        let mut items: Vec<Vec<u64>> = (0..100).map(|i| vec![i as u64]).collect();
        let lens = pool_sched(4).map_mut(&mut items, |i, v| {
            v.push(i as u64 * 2);
            v.len()
        });
        assert_eq!(lens, vec![2; 100]);
        assert_eq!(items[7], vec![7, 14]);
    }

    #[test]
    fn for_each_mut_touches_every_item_once() {
        let mut items = vec![0u64; 500];
        pool_sched(8).map_mut(&mut items, |i, x| *x += i as u64 + 1);
        for (i, x) in items.iter().enumerate() {
            assert_eq!(*x, i as u64 + 1);
        }
    }

    #[test]
    fn fold_is_index_ordered_even_threaded() {
        // Extract in parallel, combine sequentially in index order (the
        // shape of `Cluster::aggregate`) with a non-commutative combine.
        let items: Vec<usize> = (0..64).collect();
        let folded = pool_sched(4)
            .map_ref(&items, |_, &x| vec![x])
            .into_iter()
            .reduce(|mut a, b| {
                a.extend(b);
                a
            });
        assert_eq!(folded, Some(items));
    }

    #[test]
    fn env_thread_counts_parse_strictly() {
        assert_eq!(parse_threads(None), Ok(1));
        assert_eq!(parse_threads(Some("1")), Ok(1));
        assert_eq!(parse_threads(Some("4")), Ok(4));
        for bad in ["", "0", "four", "-2", "4 ", "4x"] {
            let err = parse_threads(Some(bad)).unwrap_err();
            assert!(err.contains(&format!("{bad:?}")), "{err}");
            assert!(err.contains("positive integer"), "{err}");
        }
    }

    #[test]
    fn empty_and_single_runs_are_fine() {
        let pool = ThreadPoolExecutor::new(4);
        pool.run(0, &|_| panic!("no tasks to run"));
        let hits = AtomicUsize::new(0);
        pool.run(1, &|i| {
            assert_eq!(i, 0);
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn pool_survives_repeated_and_concurrent_use() {
        let pool = Arc::new(ThreadPoolExecutor::new(4));
        for _ in 0..50 {
            let total = AtomicUsize::new(0);
            pool.run(32, &|i| {
                total.fetch_add(i, Ordering::Relaxed);
            });
            assert_eq!(total.load(Ordering::Relaxed), 31 * 32 / 2);
        }
        // Concurrent submissions from several threads share the pool.
        std::thread::scope(|s| {
            for _ in 0..4 {
                let pool = Arc::clone(&pool);
                s.spawn(move || {
                    let items: Vec<usize> = (0..200).collect();
                    let out = Scheduler::new(pool).map_ref(&items, |_, &x| x + 1);
                    assert_eq!(out, (1..=200).collect::<Vec<_>>());
                });
            }
        });
    }

    #[test]
    fn pool_tasks_genuinely_overlap() {
        // A rendezvous only two *concurrently live* tasks can pass: each
        // blocks until the other arrives. A sequential executor would
        // deadlock here; the pool (submitter + 1 worker, two OS threads)
        // completes even on a single-CPU host via preemption. This is the
        // structural proof that supersteps execute concurrently — the
        // wall-clock speedup benches require multi-core hardware, this
        // does not.
        let pool = ThreadPoolExecutor::new(2);
        let barrier = std::sync::Barrier::new(2);
        let crossed = AtomicUsize::new(0);
        pool.run(2, &|_| {
            barrier.wait();
            crossed.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(crossed.load(Ordering::Relaxed), 2);
    }

    /// The `Executor` safety contract, on every shipped executor: each
    /// index of `0..count` runs exactly once and no other index runs —
    /// also when one task panics, whose panic reaches the submitter only
    /// after every other index has run — and the executor then serves the
    /// next job. Through the scheduler, `map_mut` visits each item once.
    #[test]
    fn every_index_runs_exactly_once_even_when_one_panics() {
        let mut executors: Vec<Arc<dyn Executor>> = vec![Arc::new(SeqExecutor)];
        for threads in [1, 2, 4] {
            executors.push(Arc::new(ThreadPoolExecutor::new(threads)));
        }
        let fresh = |count: usize| -> Vec<AtomicUsize> {
            (0..count).map(|_| AtomicUsize::new(0)).collect()
        };
        let once = |hits: &[AtomicUsize]| hits.iter().all(|h| h.load(Ordering::Relaxed) == 1);
        for exec in &executors {
            let name = exec.name();
            for count in [0usize, 1, 2, 7, 64] {
                // An index out of range panics on `hits[i]`, and the
                // executor re-raises it here.
                let hits = fresh(count);
                exec.run(count, &|i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
                assert!(once(&hits), "{name}, count {count}");

                let bad = count / 2;
                let hits = fresh(count);
                let result = catch_unwind(AssertUnwindSafe(|| {
                    exec.run(count, &|i| {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                        if i == bad {
                            panic!("task {i} exploded");
                        }
                    })
                }));
                if count > 0 {
                    let payload = result.expect_err("the task's panic is re-raised");
                    let message = payload.downcast_ref::<String>().map(String::as_str);
                    assert_eq!(message, Some(format!("task {bad} exploded").as_str()));
                }
                assert!(once(&hits), "{name}, count {count}, task {bad} panicking");

                let next = AtomicUsize::new(0);
                exec.run(count, &|_| {
                    next.fetch_add(1, Ordering::Relaxed);
                });
                assert_eq!(next.load(Ordering::Relaxed), count, "{name} after a panic");

                let mut items = vec![0usize; count];
                let order = Scheduler::new(Arc::clone(exec)).map_mut(&mut items, |i, x| {
                    *x += 1;
                    i
                });
                assert_eq!(items, vec![1; count], "{name}: map_mut, count {count}");
                assert_eq!(order, (0..count).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn task_panics_propagate_to_the_submitter() {
        let pool = ThreadPoolExecutor::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(16, &|i| {
                if i == 11 {
                    panic!("task 11 exploded");
                }
            });
        }));
        assert!(result.is_err());
        // The pool is still usable afterwards.
        let hits = AtomicUsize::new(0);
        pool.run(8, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn executor_for_caches_and_names() {
        let a = executor_for(3);
        let b = executor_for(3);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.name(), "threads(3)");
        assert_eq!(executor_for(0).name(), "seq");
        assert_eq!(executor_for(1).threads(), 1);
    }

    #[test]
    fn work_skew_balances_across_threads() {
        // Tasks with wildly different costs still all complete, and the
        // per-index outputs land in the right slots.
        let items: Vec<usize> = (0..40).collect();
        let out = pool_sched(4).map_ref(&items, |_, &x| {
            let mut acc = 0u64;
            for k in 0..(x * 1000) {
                acc = acc.wrapping_add(k as u64);
            }
            (x, acc)
        });
        for (i, &(x, _)) in out.iter().enumerate() {
            assert_eq!(i, x);
        }
    }
}
