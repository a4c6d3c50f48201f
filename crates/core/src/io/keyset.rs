//! A flat open-addressed set of non-zero `u64` keys — the duplicate-edge
//! table of the instance parser ([`super::stream`]).
//!
//! One 8-byte slot per key at load factor ≤ ½, multiplicative hashing,
//! linear probing, `0` as the empty marker (an edge key `(a << 32) | b`
//! has `b > a ≥ 0`, so it is never 0). No per-key allocation, no stored
//! hashes, and a zeroed slot array whose untouched pages the OS never
//! maps. Keys come from untrusted files, so each table draws its own odd
//! multiplier from std's [`RandomState`]: an edge list cannot be written
//! in advance to pile its keys onto one probe run.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};

/// Smallest table: 16 slots.
const MIN_BITS: u32 = 4;

pub(crate) struct KeySet {
    /// `2^bits` slots, `0` = empty.
    slots: Vec<u64>,
    bits: u32,
    len: usize,
    /// Odd, so multiplication permutes the keys before the top `bits`
    /// bits are taken.
    multiplier: u64,
}

impl KeySet {
    /// A set that holds `keys` keys before its first growth.
    pub(crate) fn with_capacity(keys: usize) -> Self {
        let bits = (2 * keys.max(1))
            .next_power_of_two()
            .trailing_zeros()
            .max(MIN_BITS);
        KeySet {
            slots: vec![0; 1 << bits],
            bits,
            len: 0,
            multiplier: RandomState::new().build_hasher().finish() | 1,
        }
    }

    /// Adds `key` (non-zero); `false` if it was already present.
    #[inline]
    pub(crate) fn insert(&mut self, key: u64) -> bool {
        debug_assert_ne!(key, 0, "0 marks an empty slot");
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = (key.wrapping_mul(self.multiplier) >> (64 - self.bits)) as usize;
        loop {
            let slot = self.slots[i];
            if slot == 0 {
                self.slots[i] = key;
                self.len += 1;
                return true;
            }
            if slot == key {
                return false;
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let mut grown = KeySet {
            slots: vec![0; self.slots.len() * 2],
            bits: self.bits + 1,
            len: 0,
            multiplier: self.multiplier,
        };
        for &key in self.slots.iter().filter(|&&key| key != 0) {
            grown.insert(key);
        }
        *self = grown;
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use proptest::prelude::*;

    use super::*;

    /// The key whose hash under `set`'s multiplier is exactly `h`, so
    /// keys with equal top bits — one home slot — can be made at will.
    fn unhash(set: &KeySet, h: u64) -> u64 {
        // Newton iteration for the inverse of an odd number mod 2^64.
        let mut inv = set.multiplier;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(set.multiplier.wrapping_mul(inv)));
        }
        assert_eq!(inv.wrapping_mul(set.multiplier), 1);
        h.wrapping_mul(inv)
    }

    #[test]
    fn colliding_keys_stay_distinct() {
        // 500 keys whose hashes share their top 32 bits: all land in one
        // home slot at every table size this test reaches, so each insert
        // walks the whole run before it.
        let mut set = KeySet::with_capacity(4);
        let keys: Vec<u64> = (1..=500u64)
            .map(|low| unhash(&set, (0xDEAD_BEEF << 32) | low))
            .collect();
        for &k in &keys {
            assert!(set.insert(k), "fresh key {k:#x}");
        }
        for &k in &keys {
            assert!(!set.insert(k), "repeated key {k:#x}");
        }
        assert_eq!(set.len, keys.len());
    }

    #[test]
    fn grows_past_a_clamped_initial_capacity_and_wraps() {
        let mut set = KeySet::with_capacity(0);
        assert_eq!(set.slots.len(), 1 << MIN_BITS);
        // Hashes at the very top of the range probe across the wrap-around.
        let keys: Vec<u64> = (0..10_000u64).map(|i| unhash(&set, u64::MAX - i)).collect();
        for &k in &keys {
            assert!(set.insert(k));
            assert!(2 * set.len <= set.slots.len(), "load factor above 1/2");
        }
        assert!(keys.iter().all(|&k| !set.insert(k)));
        assert_eq!(set.slots.len(), 32_768);
    }

    proptest! {
        /// `insert` agrees with a `HashSet` model on every return value,
        /// from any initial capacity, over key pools small enough to
        /// repeat and shaped like real edge keys.
        #[test]
        fn insert_matches_hashset_model(
            capacity in 0usize..64,
            edges in proptest::collection::vec((0u32..40, 0u32..40), 0..400),
            wide in proptest::collection::vec(1u64..u64::MAX, 0..100),
        ) {
            let mut set = KeySet::with_capacity(capacity);
            let mut model: HashSet<u64> = HashSet::new();
            let edge_keys = edges
                .into_iter()
                .filter(|(u, v)| u != v)
                .map(|(u, v)| ((u.min(v) as u64) << 32) | u.max(v) as u64);
            for key in edge_keys.chain(wide.iter().copied()).chain(wide.iter().copied()) {
                prop_assert_eq!(set.insert(key), model.insert(key));
            }
            prop_assert_eq!(set.len, model.len());
        }
    }
}
