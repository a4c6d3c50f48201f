//! Set-system generators with controlled structural parameters.
//!
//! The paper's two set-cover algorithms live in different regimes:
//! Algorithm 1 (`f`-approximation) targets `n ≪ m` with bounded frequency
//! `f`; Algorithm 3 (`(1+ε) ln Δ`) targets `m ≪ n` with bounded set size
//! `Δ`. The generators here let benchmarks dial `f`, `Δ`, `m/n`, and the
//! weight spread `w_max/w_min` independently.

use mrlr_mapreduce::rng::DetRng;

use crate::system::{ElemId, SetSystem};

/// Generates a coverable system over `m` elements and `n_sets` sets where
/// every element appears in at least 1 and at most `f` sets (so the maximum
/// frequency is ≤ `f`, and = `f` w.h.p. for `m ≫ f`). Weights are 1.
///
/// This is the `n ≪ m` regime of Algorithm 1; `f = 2` gives (multi-)vertex-
/// cover-like instances.
pub fn bounded_frequency(n_sets: usize, m: usize, f: usize, seed: u64) -> SetSystem {
    assert!(f >= 1 && f <= n_sets, "need 1 <= f <= n_sets");
    let mut rng = DetRng::derive(seed, &[0x6672_6571, f as u64]);
    let mut sets: Vec<Vec<ElemId>> = vec![Vec::new(); n_sets];
    for j in 0..m {
        // Element j appears in a uniform number in [1, f] of distinct sets.
        let k = 1 + rng.range_usize(f);
        for s in rng.sample_indices(n_sets, k) {
            sets[s].push(j as ElemId);
        }
    }
    // Construction pushes elements in ascending order per set.
    SetSystem::unit(m, sets)
}

/// Generates a coverable system over `m` elements where sets have size at
/// most `delta` (max set size ≤ `delta`, and close to it w.h.p.). Each set
/// draws a uniform size in `[1, delta]` and uniform elements; any element
/// left uncovered is then added to a set that still has room (or the
/// smallest set). Weights are 1.
///
/// This is the `m ≪ n` regime of Algorithm 3.
pub fn bounded_set_size(n_sets: usize, m: usize, delta: usize, seed: u64) -> SetSystem {
    assert!(delta >= 1 && delta <= m, "need 1 <= delta <= m");
    assert!(n_sets >= 1);
    let mut rng = DetRng::derive(seed, &[0x0064_737a, delta as u64]);
    let mut sets: Vec<Vec<ElemId>> = Vec::with_capacity(n_sets);
    for _ in 0..n_sets {
        let k = 1 + rng.range_usize(delta);
        let mut elems: Vec<ElemId> = rng
            .sample_indices(m, k)
            .into_iter()
            .map(|e| e as ElemId)
            .collect();
        elems.sort_unstable();
        sets.push(elems);
    }
    // Repair coverage.
    let mut covered = vec![false; m];
    for s in &sets {
        for &j in s {
            covered[j as usize] = true;
        }
    }
    for (j, c) in covered.into_iter().enumerate() {
        if !c {
            // Prefer a set with spare room; fall back to the globally
            // smallest so the realized Δ stays near the target.
            let start = rng.range_usize(n_sets);
            let target = (0..n_sets)
                .map(|o| (start + o) % n_sets)
                .find(|&i| sets[i].len() < delta)
                .unwrap_or_else(|| {
                    (0..n_sets)
                        .min_by_key(|&i| sets[i].len())
                        .expect("at least one set")
                });
            let pos = sets[target].partition_point(|&e| (e as usize) < j);
            sets[target].insert(pos, j as ElemId);
        }
    }
    SetSystem::unit(m, sets)
}

/// Assigns independent uniform weights in `[lo, hi)`.
pub fn with_uniform_weights(s: SetSystem, lo: f64, hi: f64, seed: u64) -> SetSystem {
    assert!(lo > 0.0 && hi > lo);
    let mut rng = DetRng::derive(seed, &[0x0073_7774]);
    let n = s.n_sets();
    let w = (0..n).map(|_| rng.f64_range(lo, hi)).collect();
    s.with_weights(w)
}

/// Assigns log-uniform weights in `[lo, hi)`, exercising the
/// `log(w_max/w_min)` factor in Theorem 4.6.
pub fn with_log_uniform_weights(s: SetSystem, lo: f64, hi: f64, seed: u64) -> SetSystem {
    assert!(lo > 0.0 && hi > lo);
    let mut rng = DetRng::derive(seed, &[0x0073_6c77]);
    let n = s.n_sets();
    let w = (0..n)
        .map(|_| rng.f64_range(lo.ln(), hi.ln()).exp())
        .collect();
    s.with_weights(w)
}

/// The classic tight instance for weighted greedy set cover: one big set
/// covering the whole universe at weight `1 + eps` (the optimum), plus a
/// singleton `{j}` of weight `1/(m-j)` for every element. At every greedy
/// step the best uncovered singleton has ratio `m - k`, strictly beating the
/// big set's `(m - k)/(1 + eps)`, so greedy pays `H_m ≈ ln m` against an
/// optimum of `1 + eps`.
pub fn greedy_trap(m: usize, eps: f64) -> SetSystem {
    assert!(m >= 2 && eps > 0.0);
    let mut sets = vec![(0..m as ElemId).collect::<Vec<_>>()];
    let mut weights = vec![1.0 + eps];
    for j in 0..m {
        sets.push(vec![j as ElemId]);
        weights.push(1.0 / (m - j) as f64);
    }
    SetSystem::new(m, sets, weights)
}

/// The tight instance for the `f`-approximation (Theorem 2.1): `f` copies
/// of the full universe, all at weight 1. Any single set is an optimal
/// cover, but the local ratio method (whatever element it picks first)
/// reduces all `f` weights to zero and takes *every* set — cost exactly
/// `f · OPT`.
pub fn tight_f_instance(m: usize, f: usize) -> SetSystem {
    assert!(m >= 1 && f >= 1);
    let full: Vec<ElemId> = (0..m as ElemId).collect();
    SetSystem::unit(m, vec![full; f])
}

/// Interval covering: `n_sets` intervals of length `≤ max_len` over the
/// line `[m]`, padded so the universe is covered. A locality-structured
/// family (geographic/scheduling workloads): the frequency of a point is
/// the number of intervals over it.
pub fn interval_cover(n_sets: usize, m: usize, max_len: usize, seed: u64) -> SetSystem {
    assert!(max_len >= 1 && m >= 1 && n_sets >= 1);
    let mut rng = DetRng::derive(seed, &[0x0069_766c, max_len as u64]);
    let mut sets: Vec<Vec<ElemId>> = Vec::with_capacity(n_sets);
    for _ in 0..n_sets {
        let len = 1 + rng.range_usize(max_len);
        let start = rng.range_usize(m);
        let end = (start + len).min(m);
        sets.push((start as ElemId..end as ElemId).collect());
    }
    // Repair coverage with minimal extra intervals of length max_len.
    let mut covered = vec![false; m];
    for s in &sets {
        for &j in s {
            covered[j as usize] = true;
        }
    }
    let mut j = 0usize;
    while j < m {
        if covered[j] {
            j += 1;
            continue;
        }
        let end = (j + max_len).min(m);
        sets.push((j as ElemId..end as ElemId).collect());
        for c in covered.iter_mut().take(end).skip(j) {
            *c = true;
        }
        j = end;
    }
    SetSystem::unit(m, sets)
}

/// A partition of `[m]` into `parts` non-empty sets (frequency exactly 1 —
/// the degenerate extreme of the `f`-approximation), with random part
/// boundaries.
pub fn partition_system(m: usize, parts: usize, seed: u64) -> SetSystem {
    assert!(parts >= 1 && parts <= m, "need 1 <= parts <= m");
    let mut rng = DetRng::derive(seed, &[0x0070_7274]);
    // Choose parts-1 distinct cut points in 1..m.
    let mut cuts: Vec<usize> = rng
        .sample_indices(m - 1, parts - 1)
        .into_iter()
        .map(|c| c + 1)
        .collect();
    cuts.sort_unstable();
    cuts.push(m);
    let mut sets = Vec::with_capacity(parts);
    let mut start = 0usize;
    for &end in &cuts {
        sets.push((start as ElemId..end as ElemId).collect::<Vec<_>>());
        start = end;
    }
    SetSystem::unit(m, sets)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_frequency_respects_f() {
        for f in [1usize, 2, 4] {
            let s = bounded_frequency(20, 300, f, 7);
            assert!(s.is_coverable());
            assert!(s.max_frequency() <= f);
            assert_eq!(s.universe(), 300);
            assert_eq!(s.n_sets(), 20);
        }
        // With plenty of elements the bound is met exactly.
        let s = bounded_frequency(20, 1000, 3, 7);
        assert_eq!(s.max_frequency(), 3);
    }

    #[test]
    fn bounded_frequency_deterministic() {
        assert_eq!(
            bounded_frequency(10, 50, 2, 1),
            bounded_frequency(10, 50, 2, 1)
        );
        assert_ne!(
            bounded_frequency(10, 50, 2, 1),
            bounded_frequency(10, 50, 2, 2)
        );
    }

    #[test]
    fn bounded_set_size_respects_delta_approx() {
        let s = bounded_set_size(100, 60, 8, 3);
        assert!(s.is_coverable());
        // Repair can only exceed delta when all sets are full, which cannot
        // happen here (100 sets x 8 slots >> 60 elements).
        assert!(s.max_set_size() <= 8);
    }

    #[test]
    fn bounded_set_size_tiny_repair() {
        // Few sets, forced repair: still coverable.
        let s = bounded_set_size(2, 30, 3, 5);
        assert!(s.is_coverable());
    }

    #[test]
    fn weights_in_range() {
        let s = with_uniform_weights(bounded_frequency(10, 50, 2, 1), 2.0, 5.0, 9);
        for &w in s.weights() {
            assert!((2.0..5.0).contains(&w));
        }
        let s = with_log_uniform_weights(bounded_frequency(10, 50, 2, 1), 0.1, 10.0, 9);
        for &w in s.weights() {
            assert!((0.1..10.0).contains(&w));
        }
        assert!(s.weight_spread() <= 100.0);
    }

    #[test]
    fn tight_f_shape() {
        let s = tight_f_instance(10, 4);
        assert_eq!(s.n_sets(), 4);
        assert_eq!(s.max_frequency(), 4);
        assert!(s.covers(&[2]));
        assert!((s.cover_weight(&[0, 1, 2, 3]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn interval_cover_is_contiguous_and_coverable() {
        let s = interval_cover(15, 100, 12, 3);
        assert!(s.is_coverable());
        assert!(s.max_set_size() <= 12);
        for set in s.sets().iter() {
            for w in set.windows(2) {
                assert_eq!(w[0] + 1, w[1], "interval must be contiguous");
            }
        }
        // Degenerate: single length-1 intervals still cover after repair.
        let t = interval_cover(1, 10, 1, 1);
        assert!(t.is_coverable());
        assert!(t.max_set_size() == 1);
    }

    #[test]
    fn partition_system_is_exact_partition() {
        for (m, parts, seed) in [(20usize, 5usize, 1u64), (7, 7, 2), (30, 1, 3)] {
            let s = partition_system(m, parts, seed);
            assert_eq!(s.n_sets(), parts);
            assert_eq!(s.max_frequency(), 1);
            assert!(s.is_coverable());
            assert_eq!(s.total_size(), m);
            assert!(s.sets().iter().all(|set| !set.is_empty()));
        }
    }

    #[test]
    fn greedy_trap_shape() {
        let s = greedy_trap(16, 0.1);
        assert_eq!(s.universe(), 16);
        assert_eq!(s.n_sets(), 17);
        assert!(s.is_coverable());
        // The big set alone is a cover of weight 1.1 (the optimum).
        assert!(s.covers(&[0]));
        assert!((s.cover_weight(&[0]) - 1.1).abs() < 1e-9);
        // The first singleton (element 0) has weight 1/16 and ratio 16,
        // beating the big set's 16/1.1.
        assert!((s.weight(1) - 1.0 / 16.0).abs() < 1e-12);
    }
}
