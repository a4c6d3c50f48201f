//! Batch-scoped cache of distributed per-machine driver states.
//!
//! [`Registry::solve_batch`][crate::api::Registry::solve_batch] runs many
//! `(algorithm, cfg)` jobs over one instance set. Before this cache, every
//! job re-ran its driver's distribution phase — hashing each record with
//! [`MrConfig::place`][super::MrConfig::place] and rebuilding the
//! per-machine state vectors — even when a sibling job had just distributed
//! the *same instance* onto the *same cluster shape* (e.g. thread-count
//! sweeps, or the vertex-/edge-colouring pair sharing one edge partition).
//! Drivers now funnel their distribution through [`get_or_build`]: inside a
//! [`scope`] (entered by `solve_batch`), the first job builds and caches the
//! initial state vector and later jobs clone it instead of rebuilding.
//!
//! Correctness: the cached value is the *initial* snapshot, taken before
//! the cluster mutates anything, and distribution is a pure function of
//! `(instance, machines, seed)` — so a cache hit is bit-identical to a
//! rebuild, and solutions *and* [`Metrics`][mrlr_mapreduce::Metrics] are
//! unchanged (asserted by `tests/registry_api.rs`). Outside a scope the
//! cache is inert: plain `Registry::solve` calls pay no lookup and hold no
//! memory.
//!
//! Keys combine a driver tag, the instance's address and shape, an
//! optional content salt (for drivers whose states embed side data, e.g.
//! b-matching capacities), and the shape-relevant config fields. Addresses
//! are only meaningful while the instance outlives the scope, which
//! `solve_batch` guarantees by borrowing its instance slice across the
//! whole batch; the salt and shape guard the residual risk of an address
//! being reused by a lookalike.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;

use super::MrConfig;

/// Cache key: driver tag + instance identity + cluster shape.
///
/// Crate-internal: keys identify instances by *address*, which is only
/// sound while every cached instance outlives the enclosing [`scope`] —
/// a guarantee [`Registry::solve_batch`][crate::api::Registry::solve_batch]
/// provides by borrowing its instance slice across the batch, and which
/// arbitrary external callers could easily break (drop an instance
/// mid-scope, allocate a lookalike at the same address, read a stale
/// snapshot). Hence none of the cache-mutating surface is public.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct DistKey {
    /// Driver-specific tag (distinguishes state types on one instance).
    tag: u64,
    /// Address of the borrowed instance (stable for the scope's lifetime).
    instance: usize,
    /// Cheap structural fingerprint of the instance (e.g. `(n, m)`).
    shape: (usize, usize),
    /// Extra content fingerprint for side data baked into the states.
    salt: u64,
    /// Machine count (distribution target).
    machines: usize,
    /// Placement seed.
    seed: u64,
}

impl DistKey {
    /// Key for distributing `instance` (any borrowed value) under `cfg`.
    pub(crate) fn new<T: ?Sized>(
        tag: u64,
        instance: &T,
        shape: (usize, usize),
        cfg: &MrConfig,
    ) -> Self {
        DistKey {
            tag,
            instance: instance as *const T as *const () as usize,
            shape,
            salt: 0,
            machines: cfg.machines,
            seed: cfg.seed,
        }
    }

    /// Adds a content fingerprint for side data baked into the states.
    pub(crate) fn with_salt(mut self, salt: u64) -> Self {
        self.salt = salt;
        self
    }
}

/// Folds a slice of word-sized values into a cheap fingerprint (FNV-1a).
pub(crate) fn fingerprint(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        h ^= w;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

thread_local! {
    static CACHE: RefCell<HashMap<DistKey, Box<dyn Any>>> = RefCell::new(HashMap::new());
    static DEPTH: Cell<usize> = const { Cell::new(0) };
    static HITS: Cell<u64> = const { Cell::new(0) };
    static MISSES: Cell<u64> = const { Cell::new(0) };
}

/// Runs `f` with the distribution cache enabled on this thread. Nested
/// scopes share the outermost cache; the cache (and its memory) is dropped
/// when the outermost scope exits. Hit/miss counters reset on entry of the
/// outermost scope.
pub(crate) fn scope<R>(f: impl FnOnce() -> R) -> R {
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            DEPTH.with(|d| d.set(d.get() - 1));
            if DEPTH.with(Cell::get) == 0 {
                CACHE.with(|c| c.borrow_mut().clear());
            }
        }
    }
    if DEPTH.with(Cell::get) == 0 {
        HITS.with(|h| h.set(0));
        MISSES.with(|m| m.set(0));
    }
    DEPTH.with(|d| d.set(d.get() + 1));
    let _guard = Guard;
    f()
}

/// `(hits, misses)` observed since the current outermost [`scope`] was
/// entered (or since the last scope, outside one). Diagnostics hook for
/// the cache-transparency tests; unused on non-test builds.
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) fn stats() -> (u64, u64) {
    (HITS.with(Cell::get), MISSES.with(Cell::get))
}

/// Returns the distributed state vector for `key`, building it with
/// `build` on a miss. Inside a [`scope`] the result is cached and later
/// calls with the same key get a clone of the initial snapshot; outside a
/// scope this is exactly `build()`.
pub(crate) fn get_or_build<T: Clone + 'static>(key: DistKey, build: impl FnOnce() -> T) -> T {
    match try_get_or_build(key, || Ok::<T, std::convert::Infallible>(build())) {
        Ok(states) => states,
        Err(never) => match never {},
    }
}

/// [`get_or_build`] for a distribution that can fail (a per-machine arena
/// outgrowing its offsets). Failures are returned, never cached.
pub(crate) fn try_get_or_build<T: Clone + 'static, E>(
    key: DistKey,
    build: impl FnOnce() -> Result<T, E>,
) -> Result<T, E> {
    if DEPTH.with(Cell::get) == 0 {
        return build();
    }
    CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        if let Some(hit) = cache.get(&key).and_then(|v| v.downcast_ref::<T>()) {
            HITS.with(|h| h.set(h.get() + 1));
            return Ok(hit.clone());
        }
        MISSES.with(|m| m.set(m.get() + 1));
        let built = build()?;
        cache.insert(key, Box::new(built.clone()));
        Ok(built)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(tag: u64, anchor: &u32, machines: usize) -> DistKey {
        let cfg = MrConfig::auto(10, 100, 0.3, 7).with_machines(machines);
        DistKey::new(tag, anchor, (10, 100), &cfg)
    }

    #[test]
    fn inert_outside_scope() {
        let anchor = 5u32;
        let mut builds = 0;
        for _ in 0..3 {
            let v: Vec<u32> = get_or_build(key(1, &anchor, 4), || {
                builds += 1;
                vec![1, 2, 3]
            });
            assert_eq!(v, vec![1, 2, 3]);
        }
        assert_eq!(builds, 3, "no caching outside a scope");
    }

    #[test]
    fn caches_within_scope_and_clears_after() {
        let anchor = 5u32;
        scope(|| {
            let mut builds = 0;
            for _ in 0..3 {
                let v: Vec<u32> = get_or_build(key(1, &anchor, 4), || {
                    builds += 1;
                    vec![9, 8]
                });
                assert_eq!(v, vec![9, 8]);
            }
            assert_eq!(builds, 1, "one build, two hits");
            assert_eq!(stats(), (2, 1));
            // Different shape → different slot.
            let _: Vec<u32> = get_or_build(key(1, &anchor, 8), || vec![0]);
            assert_eq!(stats(), (2, 2));
            // Different tag or salt → different slot.
            let _: Vec<u32> = get_or_build(key(2, &anchor, 4), || vec![0]);
            let _: Vec<u32> = get_or_build(key(1, &anchor, 4).with_salt(7), || vec![0]);
            assert_eq!(stats(), (2, 4));
        });
        // Scope exited: cache dropped, back to pass-through.
        let mut rebuilt = false;
        let _: Vec<u32> = get_or_build(key(1, &anchor, 4), || {
            rebuilt = true;
            vec![9, 8]
        });
        assert!(rebuilt);
    }

    #[test]
    fn nested_scopes_share_the_outer_cache() {
        let anchor = 1u32;
        scope(|| {
            let _: Vec<u32> = get_or_build(key(3, &anchor, 2), || vec![1]);
            scope(|| {
                let v: Vec<u32> = get_or_build(key(3, &anchor, 2), || unreachable!("cached"));
                assert_eq!(v, vec![1]);
            });
            // Inner exit must not clear the outer cache.
            let v: Vec<u32> = get_or_build(key(3, &anchor, 2), || unreachable!("still cached"));
            assert_eq!(v, vec![1]);
        });
    }

    #[test]
    fn fingerprint_differs_on_content() {
        assert_ne!(fingerprint([1, 2, 3]), fingerprint([1, 2, 4]));
        assert_ne!(fingerprint([]), fingerprint([0]));
        assert_eq!(fingerprint([5, 6]), fingerprint([5, 6]));
    }
}
