//! Deterministic, partition-stable randomness.
//!
//! The paper's algorithms sample elements i.i.d. across machines. For the
//! simulation to be reproducible — and for the MapReduce drivers to produce
//! *bit-identical* output to their sequential counterparts regardless of how
//! entities are assigned to machines — every random decision is derived by
//! hashing `(seed, round, entity-id, …)` rather than by consuming a shared
//! stream. [`DetRng`] is a SplitMix64 generator for stream-style use (e.g.
//! shuffles on a single machine); the free functions provide the stateless
//! per-entity coins.

use std::collections::HashMap;

/// SplitMix64 step: advances the state and returns a well-mixed 64-bit value.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stateless mix of two 64-bit values (a strong finalizer, not a crypto hash).
#[inline]
pub fn mix2(a: u64, b: u64) -> u64 {
    let mut s = a ^ b.rotate_left(32) ^ 0x9E37_79B9_7F4A_7C15;
    splitmix64(&mut s)
}

/// Stateless mix of a seed with a list of tags, used to key per-entity,
/// per-round decisions: `mix_tags(seed, &[round, entity])`.
#[inline]
pub fn mix_tags(seed: u64, tags: &[u64]) -> u64 {
    let mut h = seed;
    for (i, &t) in tags.iter().enumerate() {
        h = mix2(h, t.wrapping_add(0xA076_1D64_78BD_642F ^ (i as u64)));
    }
    // One extra scramble so `mix_tags(s, &[x])` differs from `mix2(s, x)`.
    let mut s = h;
    splitmix64(&mut s)
}

/// Map a hash to a float uniform in `[0, 1)` using the top 53 bits.
#[inline]
pub fn unit_f64(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A partition-stable Bernoulli coin for entity `tag`: identical on every
/// machine that evaluates it, independent of evaluation order.
#[inline]
pub fn coin(seed: u64, tags: &[u64], p: f64) -> bool {
    unit_f64(mix_tags(seed, tags)) < p
}

/// A small, fast, deterministic RNG (SplitMix64).
///
/// Not cryptographically secure; statistically solid for simulation use
/// (passes the usual equidistribution sanity checks exercised in the tests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetRng {
    state: u64,
}

impl DetRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        // Scramble once so that small seeds don't produce correlated streams.
        let mut s = seed ^ 0x6A09_E667_F3BC_C909;
        splitmix64(&mut s);
        DetRng { state: s }
    }

    /// Creates a generator keyed by a seed plus context tags
    /// (e.g. `(seed, [round, machine])`).
    pub fn derive(seed: u64, tags: &[u64]) -> Self {
        DetRng::new(mix_tags(seed, tags))
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    ///
    /// Uses Lemire's multiply-shift rejection method for unbiased results.
    pub fn range(&mut self, n: u64) -> u64 {
        assert!(n > 0, "DetRng::range requires n > 0");
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (n as u128);
            let lo = m as u64;
            if lo >= n || lo >= n.wrapping_neg() % n {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform `usize` in `[0, n)`. Panics if `n == 0`.
    #[inline]
    pub fn range_usize(&mut self, n: usize) -> usize {
        self.range(n as u64) as usize
    }

    /// Uniform float in `[lo, hi)`.
    #[inline]
    pub fn f64_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.range_usize(i + 1);
            xs.swap(i, j);
        }
    }

    /// Sample `k` distinct indices from `[0, n)` (all of them if `k >= n`),
    /// in uniformly random order, via a partial Fisher–Yates over the index
    /// array `0..n`. Step `i` swaps position `i` with a drawn `j ≥ i` and
    /// never looks left of `i + 1` again, so when few of many are drawn
    /// (`k < n/8`) the array is not laid out at all: only the positions a
    /// swap has written are kept, in a map — O(k) instead of O(n), with the
    /// same draws and the same picks. (The set-system generators draw a
    /// handful out of up to 2·10^5, once per element.)
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        let k = k.min(n);
        if k < n / 8 {
            let mut moved: HashMap<usize, usize> = HashMap::with_capacity(k);
            return (0..k)
                .map(|i| {
                    let j = i + self.range_usize(n - i);
                    let at_i = moved.get(&i).copied().unwrap_or(i);
                    moved.insert(j, at_i).unwrap_or(j)
                })
                .collect();
        }
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.range_usize(n - i);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }

    /// Geometric-ish choice: index `i` chosen with probability proportional
    /// to `weights[i]`. Panics if all weights are zero or any is negative.
    pub fn weighted_choice(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(
            total > 0.0 && weights.iter().all(|w| *w >= 0.0),
            "weighted_choice requires nonnegative weights with positive sum"
        );
        let mut x = self.f64() * total;
        for (i, w) in weights.iter().enumerate() {
            x -= w;
            if x < 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn unit_floats_in_range() {
        let mut r = DetRng::new(7);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn bernoulli_mean_close() {
        let mut r = DetRng::new(11);
        let n = 200_000;
        let hits = (0..n).filter(|_| r.bernoulli(0.3)).count();
        let mean = hits as f64 / n as f64;
        assert!((mean - 0.3).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn range_unbiased_small() {
        let mut r = DetRng::new(5);
        let mut counts = [0usize; 5];
        let n = 100_000;
        for _ in 0..n {
            counts[r.range_usize(5)] += 1;
        }
        for c in counts {
            let frac = c as f64 / n as f64;
            assert!((frac - 0.2).abs() < 0.02, "frac {frac}");
        }
    }

    #[test]
    #[should_panic]
    fn range_zero_panics() {
        DetRng::new(0).range(0);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = DetRng::new(3);
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(xs, (0..50).collect::<Vec<_>>());
    }

    /// Drawing few of many skips the index array but not a single draw:
    /// picks and the generator's state afterwards equal the full partial
    /// Fisher–Yates, on both sides of the `k < n/8` switch.
    #[test]
    fn sparse_sampling_equals_the_laid_out_shuffle() {
        for (n, k) in [
            (0, 0),
            (1, 1),
            (8, 0),
            (9, 1),
            (16, 1),
            (16, 2),
            (17, 2),
            (100, 12),
            (100, 13),
            (4000, 4),
            (200_000, 12),
            (5, 99),
        ] {
            for seed in 0..20 {
                let mut rng = DetRng::new(seed);
                let got = rng.sample_indices(n, k);
                let mut reference = DetRng::new(seed);
                let mut idx: Vec<usize> = (0..n).collect();
                for i in 0..k.min(n) {
                    let j = i + reference.range_usize(n - i);
                    idx.swap(i, j);
                }
                idx.truncate(k.min(n));
                assert_eq!(got, idx, "n={n} k={k} seed={seed}");
                assert_eq!(rng, reference, "n={n} k={k} seed={seed}");
            }
        }
    }

    #[test]
    fn sample_indices_distinct_and_bounded() {
        let mut r = DetRng::new(9);
        let s = r.sample_indices(100, 10);
        assert_eq!(s.len(), 10);
        let mut t = s.clone();
        t.sort_unstable();
        t.dedup();
        assert_eq!(t.len(), 10);
        assert!(t.iter().all(|&i| i < 100));
        // k >= n returns everything
        let all = r.sample_indices(5, 99);
        assert_eq!(all.len(), 5);
    }

    #[test]
    fn coin_is_partition_stable() {
        // The same (seed, tags, p) must give the same answer no matter when
        // or where it is evaluated.
        let a = coin(99, &[3, 141], 0.5);
        for _ in 0..10 {
            assert_eq!(coin(99, &[3, 141], 0.5), a);
        }
        // and tags matter
        let flips: Vec<bool> = (0..64).map(|i| coin(99, &[3, i], 0.5)).collect();
        assert!(flips.iter().any(|&b| b) && flips.iter().any(|&b| !b));
    }

    #[test]
    fn coin_mean_close() {
        let n = 100_000u64;
        let hits = (0..n).filter(|&i| coin(123, &[i], 0.7)).count();
        let mean = hits as f64 / n as f64;
        assert!((mean - 0.7).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn weighted_choice_prefers_heavy() {
        let mut r = DetRng::new(17);
        let w = [1.0, 0.0, 9.0];
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[r.weighted_choice(&w)] += 1;
        }
        assert_eq!(counts[1], 0);
        assert!(counts[2] > counts[0] * 5);
    }

    #[test]
    fn mix_tags_order_sensitive() {
        assert_ne!(mix_tags(1, &[2, 3]), mix_tags(1, &[3, 2]));
        assert_ne!(mix_tags(1, &[2]), mix_tags(2, &[1]));
    }
}
