//! The worker pool behind the cluster's supersteps.
//!
//! A [`ThreadPoolExecutor`] runs one task per simulated machine. Its one
//! operation, [`ThreadPoolExecutor::run`], is an *unordered*
//! index-parallel for-loop; every ordered observable is reconstructed
//! afterwards in machine-id order by the scheduling layer
//! ([`crate::superstep::Scheduler`]), which submits one task per shard.
//! Because each task touches only its own machine's state and its own
//! output cell, and all merges are index-ordered, a run is
//! **bit-identical** across thread counts — the determinism contract the
//! equivalence suites assert.
//!
//! The pool is persistent, built on [`std::thread`] and
//! [`std::sync::mpsc`] channels. Workers pull indices from a shared
//! atomic counter, so load balances across machines with skewed state
//! sizes; the submitting thread participates in the work. A 1-thread
//! pool spawns no worker and runs every task inline in index order: it
//! is the sequential schedule.
//!
//! The pool's lifetime bridge is the crate's only `unsafe` code besides
//! [`retain_freed_memory`]'s allocator call. Workers
//! outlive any one `run` call, so `run` erases the task's borrow before
//! queueing it, and blocks until every claimed index has completed — the
//! invariant that keeps the erased borrow alive. Spawning scoped threads
//! per run would need no bridge, but costs more than a whole superstep.
//!
//! [`executor_for`] caches one pool per thread count for the whole
//! process, so every later solve at that count — the next job of a
//! [`Registry::solve_batch`], the next request of a daemon — finds its
//! threads already spawned; no caller pre-warms anything. The default
//! thread count comes from the `MRLR_THREADS` environment variable
//! (unset or `1` = the sequential schedule; anything but a positive
//! integer is an error).
//!
//! [`Registry::solve_batch`]: https://docs.rs/mrlr-core

use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;

use bridge::Job;

/// Runs `task(i)` for every `i in 0..count` on the calling thread, in
/// index order; the first panic is re-raised once all have returned.
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

/// The lifetime bridge: a borrowed task shared with the persistent
/// workers. Everything `unsafe` in the crate is in this module, but for
/// [`retain_freed_memory`]'s one allocator call.
#[allow(unsafe_code)]
mod bridge {
    use std::any::Any;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc::Sender;
    use std::sync::{Arc, Condvar, Mutex};

    /// One submitted superstep: a lifetime-erased task plus completion
    /// state.
    ///
    /// [`run`] blocks until `completed == count`, so the erased borrow
    /// outlives every dereference — workers claim an index *before*
    /// calling the task and can never claim one after the counter is
    /// exhausted.
    pub(super) struct Job {
        /// The task, with its lifetime erased. Only dereferenced by
        /// threads holding a claimed index, all of which complete before
        /// the submitting [`run`] call returns.
        task: *const (dyn Fn(usize) + Sync),
        count: usize,
        /// Next index to claim.
        next: AtomicUsize,
        /// Indices completed so far; the job is done at `count`.
        completed: AtomicUsize,
        /// First panic payload raised by a task, re-raised by the
        /// submitter.
        panic: Mutex<Option<Box<dyn Any + Send>>>,
        done: Mutex<bool>,
        signal: Condvar,
    }

    // SAFETY: the raw task pointer is only dereferenced while the
    // submitting `run` frame is alive (it blocks on `done`), and the
    // pointee is `Sync`, so shared cross-thread calls are safe; every
    // other field is an atomic, a `Mutex` or a `Condvar`.
    unsafe impl Send for Job {}
    // SAFETY: as for `Send` — workers only share `&Job`.
    unsafe impl Sync for Job {}

    impl Job {
        /// Claims and runs indices until the counter is exhausted, and
        /// wakes the submitter if this call completed the last index.
        pub(super) fn help(&self) {
            let mut finished_last = false;
            loop {
                let i = self.next.fetch_add(1, Ordering::Relaxed);
                if i >= self.count {
                    break;
                }
                // SAFETY: the reference is formed only while holding
                // claim `i < count`, which implies the submitter is still
                // blocked in `run` (it cannot return before every claimed
                // index completes), so the erased borrow is alive. A
                // worker that dequeues the job late only ever sees an
                // exhausted counter and never touches the pointer.
                let task = unsafe { &*self.task };
                // A panicking task must still count as completed, or the
                // submitter would wait forever; the payload is re-raised
                // on the submitting thread once the job drains.
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| task(i))) {
                    self.panic.lock().unwrap().get_or_insert(payload);
                }
                let done_so_far = self.completed.fetch_add(1, Ordering::AcqRel) + 1;
                finished_last = done_so_far == self.count;
            }
            if finished_last {
                *self.done.lock().unwrap() = true;
                self.signal.notify_all();
            }
        }

        fn wait(&self) {
            let mut done = self.done.lock().unwrap();
            while !*done {
                done = self.signal.wait(done).unwrap();
            }
        }
    }

    /// Runs `task(i)` for every `i in 0..count` on the calling thread and
    /// every worker reachable through `workers`, returning — or
    /// re-raising the first task panic — only once every index has
    /// completed. Each index is claimed by one `fetch_add`, so it runs
    /// exactly once, and no other index runs.
    pub(super) fn run(
        workers: &Mutex<Vec<Sender<Arc<Job>>>>,
        count: usize,
        task: &(dyn Fn(usize) + Sync),
    ) {
        // SAFETY: only the lifetime is transmuted. `run` blocks on
        // `job.wait()` below, so the borrow of `task` outlives every
        // dereference (see `Job`).
        let task: *const (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute::<&_, &'static (dyn Fn(usize) + Sync)>(task) };
        let job = Arc::new(Job {
            task,
            count,
            next: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            panic: Mutex::new(None),
            done: Mutex::new(false),
            signal: Condvar::new(),
        });
        for tx in workers.lock().unwrap().iter() {
            // A worker that exited (only possible at shutdown) is fine to
            // skip: the submitter and remaining workers drain the job.
            let _ = tx.send(Arc::clone(&job));
        }
        // The submitting thread is a full participant.
        job.help();
        job.wait();
        let payload = job.panic.lock().unwrap().take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

/// A persistent worker pool on `std::thread` + mpsc channels.
///
/// `new(threads)` spawns `threads - 1` workers; the thread calling
/// [`ThreadPoolExecutor::run`] is the remaining participant. Concurrent
/// `run` calls from different threads are safe: each submission is an
/// independent job queued to every worker, and completion is tracked per
/// job.
pub struct ThreadPoolExecutor {
    threads: usize,
    workers: Mutex<Vec<Sender<Arc<Job>>>>,
    handles: Vec<JoinHandle<()>>,
}

impl ThreadPoolExecutor {
    /// A pool where up to `threads` OS threads (including the submitter)
    /// run tasks concurrently. `threads` is clamped to at least 1.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let mut workers = Vec::new();
        let mut handles = Vec::new();
        for w in 1..threads {
            let (tx, rx) = channel::<Arc<Job>>();
            workers.push(tx);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("mrlr-exec-{w}"))
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
                            job.help();
                        }
                    })
                    .expect("spawning an executor worker thread"),
            );
        }
        ThreadPoolExecutor {
            threads,
            workers: Mutex::new(workers),
            handles,
        }
    }

    /// Short human-readable name (`"threads(4)"`) for traces and bench
    /// labels.
    pub fn name(&self) -> String {
        format!("threads({})", self.threads)
    }

    /// Number of OS threads that may run tasks concurrently.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `task(i)` for every `i in 0..count`, in no particular order,
    /// returning when all are done. If any task panics, the others still
    /// run, and the first panic is re-raised once all have returned.
    pub fn run(&self, count: usize, task: &(dyn Fn(usize) + Sync)) {
        if self.threads == 1 || count <= 1 {
            // Nothing to fan out; skip the queueing machinery.
            run_inline(count, task)
        } else {
            bridge::run(&self.workers, count, task)
        }
    }
}

impl Drop for ThreadPoolExecutor {
    fn drop(&mut self) {
        // Closing every channel ends its worker's receive loop.
        let workers = self.workers.get_mut();
        workers.unwrap_or_else(PoisonError::into_inner).clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
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

/// The shared pool for `threads` threads (0 counts as 1): one
/// process-wide cached [`ThreadPoolExecutor`] per thread count, so
/// repeated solves (and batched registry runs) reuse warm pools instead
/// of respawning threads.
pub fn executor_for(threads: usize) -> Arc<ThreadPoolExecutor> {
    static POOLS: OnceLock<Mutex<HashMap<usize, Arc<ThreadPoolExecutor>>>> = OnceLock::new();
    let threads = threads.max(1);
    let pools = POOLS.get_or_init(|| Mutex::new(HashMap::new()));
    let mut pools = pools.lock().unwrap();
    pools
        .entry(threads)
        .or_insert_with(|| Arc::new(ThreadPoolExecutor::new(threads)))
        .clone()
}

/// Makes the process keep the memory it frees, for a server whose every
/// request allocates and frees a working set of the same shape: glibc
/// stops trimming the heap top back to the kernel, and blocks under
/// 32 MiB, glibc's largest mmap threshold, come from the heap instead of
/// their own mappings. The next request then reuses pages the last one
/// touched instead of faulting them in again. Blocks of 32 MiB or more
/// are still mapped and unmapped one by one, and each allocator arena
/// keeps at most its own high-water mark.
///
/// Process-wide and irreversible; call it once, before the server
/// spawns threads. A one-shot run gains nothing from it and keeps a
/// larger heap. A no-op on every target but Linux with glibc.
pub fn retain_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    #[allow(unsafe_code)]
    {
        use std::os::raw::{c_int, c_long};
        // `<malloc.h>` parameter numbers.
        const M_TRIM_THRESHOLD: c_int = -1;
        const M_MMAP_THRESHOLD: c_int = -3;
        // glibc's `DEFAULT_MMAP_THRESHOLD_MAX`: 32 MiB on 64-bit targets.
        const MMAP_THRESHOLD_MAX: c_int = 4 * 1024 * 1024 * std::mem::size_of::<c_long>() as c_int;
        extern "C" {
            fn mallopt(param: c_int, value: c_int) -> c_int;
        }
        // SAFETY: `mallopt` takes two integers and touches no memory of
        // ours. glibc marks it MT-Unsafe (`const:mallopt`): it stores the
        // thresholds in globals that `malloc` and `free` read without a
        // lock, so it is called before the server spawns a thread. An
        // allocation racing it on another thread of an embedding process
        // reads either the old or the new threshold, each a valid policy.
        // A rejected value (return 0) leaves glibc's default in place.
        unsafe {
            mallopt(M_TRIM_THRESHOLD, -1);
            mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_MAX);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::superstep::Scheduler;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::time::Duration;

    fn pool_sched(threads: usize) -> Scheduler {
        Scheduler::new(Arc::new(ThreadPoolExecutor::new(threads)))
    }

    fn squares(sched: &Scheduler, n: usize) -> Vec<usize> {
        let items: Vec<usize> = (0..n).collect();
        sched.map_ref(&items, |_, &x| x * x)
    }

    #[test]
    fn seq_and_pool_agree_on_map() {
        let expected = squares(&Scheduler::new(executor_for(1)), 1000);
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
        // blocks until the other arrives. A 1-thread pool would
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

    /// The pool's contract, at every thread count: each index of
    /// `0..count` runs exactly once and no other index runs — also when
    /// one task panics, whose panic reaches the submitter only after
    /// every other index has run — and the pool then serves the next job.
    /// Through the scheduler, `map_mut` visits each item once.
    #[test]
    fn every_index_runs_exactly_once_even_when_one_panics() {
        let mut executors = vec![executor_for(1)];
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

    /// The lifetime bridge's invariant: `run` returns — here, unwinds —
    /// only after every claimed task has finished with the borrowed
    /// task. The first-claimed index panics at once while the others
    /// sleep and then write into a stack-local buffer; a `run` that
    /// re-raised the panic before the job drained would leave writes
    /// missing (and land them in a dead frame) whenever a worker, not
    /// the submitter, finishes last — so each pool size runs it often.
    #[test]
    fn a_panicking_run_unwinds_only_after_every_write() {
        const COUNT: usize = 24;
        for threads in [2, 4] {
            let pool = ThreadPoolExecutor::new(threads);
            for round in 0..8 {
                let written = [const { AtomicU64::new(0) }; COUNT];
                let result = catch_unwind(AssertUnwindSafe(|| {
                    pool.run(COUNT, &|i| {
                        if i == 0 {
                            panic!("first task exploded");
                        }
                        std::thread::sleep(Duration::from_millis(1));
                        written[i].store(i as u64, Ordering::Relaxed);
                    })
                }));
                let what = format!("{threads} threads, round {round}");
                assert!(result.is_err(), "{what}: the panic is re-raised");
                let seen: Vec<u64> = written.iter().map(|w| w.load(Ordering::Relaxed)).collect();
                assert_eq!(seen, (0..COUNT as u64).collect::<Vec<_>>(), "{what}");
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
        assert_eq!(executor_for(0).name(), "threads(1)");
        assert!(Arc::ptr_eq(&executor_for(0), &executor_for(1)));
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
