//! A fixed-size bitset with exact word accounting.
//!
//! Used for the shared knowledge sets the paper's algorithms maintain on
//! every machine (covered elements `C`, removed vertices `N⁺(I)`, the active
//! set of the clique algorithm). A bitmap over `n` entities costs
//! `⌈n/64⌉ + 1` words — for `n` vertices that is well within the
//! `O(n^{1+µ})` budget, which is exactly why the paper can afford to keep
//! these sets replicated.
//!
//! A bitmap is also touched a word at a time: [`Bitset::or_word`] applies
//! one word of a delta that [`pack_words`] packed once, and
//! [`RankedBitset`] numbers the set ids of a bitmap densely, so a table
//! with one row per *held* id replaces one with a row per id.

use crate::csr::CsrOverflow;
use crate::words::WordSized;

/// Fixed-capacity bitset over ids `0..len`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitset {
    len: usize,
    bits: Vec<u64>,
}

impl Bitset {
    /// All-zeros bitset over `len` ids.
    pub fn new(len: usize) -> Self {
        Bitset {
            len,
            bits: vec![0; len.div_ceil(64)],
        }
    }

    /// All-ones bitset over `len` ids.
    pub fn full(len: usize) -> Self {
        let mut b = Bitset::new(len);
        for w in &mut b.bits {
            *w = u64::MAX;
        }
        if !len.is_multiple_of(64) {
            if let Some(last) = b.bits.last_mut() {
                *last = (1u64 << (len % 64)) - 1;
            }
        }
        b
    }

    /// Number of ids this bitset ranges over.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the bitset ranges over zero ids.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tests bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.bits[i / 64] >> (i % 64) & 1 == 1
    }

    /// Sets bit `i`. Returns whether the bit was previously clear.
    #[inline]
    pub fn set(&mut self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let w = &mut self.bits[i / 64];
        let mask = 1u64 << (i % 64);
        let was_clear = *w & mask == 0;
        *w |= mask;
        was_clear
    }

    /// Clears bit `i`. Returns whether the bit was previously set.
    #[inline]
    pub fn clear(&mut self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let w = &mut self.bits[i / 64];
        let mask = 1u64 << (i % 64);
        let was_set = *w & mask != 0;
        *w &= !mask;
        was_set
    }

    /// Word `w`: bit `b` of it is id `64·w + b`.
    #[inline]
    pub fn word(&self, w: usize) -> u64 {
        self.bits[w]
    }

    /// ORs `bits` into word `w` and returns the bits that were clear
    /// before: [`Bitset::set`] for up to 64 ids at once.
    #[inline]
    pub fn or_word(&mut self, w: usize, bits: u64) -> u64 {
        debug_assert!(64 * w + (64 - bits.leading_zeros() as usize) <= self.len);
        let word = &mut self.bits[w];
        let newly = bits & !*word;
        *word |= bits;
        newly
    }

    /// Heap bytes held, from the buffer's capacity.
    pub fn resident_bytes(&self) -> usize {
        self.bits.capacity() * std::mem::size_of::<u64>()
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterator over the indices of set bits, ascending.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.bits.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &Bitset) {
        assert_eq!(self.len, other.len);
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= b;
        }
    }

    /// In-place intersection.
    pub fn intersect_with(&mut self, other: &Bitset) {
        assert_eq!(self.len, other.len);
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a &= b;
        }
    }
}

impl WordSized for Bitset {
    fn words(&self) -> usize {
        1 + self.bits.len()
    }
}

/// Packs ascending ids into `(word, bits)` pairs, one per word they
/// touch, ascending by word: the operands of [`Bitset::or_word`].
pub fn pack_words(ascending: impl IntoIterator<Item = usize>) -> Vec<(usize, u64)> {
    let mut words: Vec<(usize, u64)> = Vec::new();
    for i in ascending {
        let (w, bit) = (i / 64, 1u64 << (i % 64));
        match words.last_mut() {
            Some((last, bits)) if *last == w => {
                debug_assert!(*bits < bit, "ids must ascend");
                *bits |= bit;
            }
            _ => {
                debug_assert!(words.last().is_none_or(|&(last, _)| last < w));
                words.push((w, bit));
            }
        }
    }
    words
}

/// A bitset with a rank table: `before[w]` counts the set bits in words
/// below `w`, so [`RankedBitset::rank`] is one table read and one
/// popcount, and the `k` set ids number the rows `0..k` of a table that
/// holds nothing for the clear ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankedBitset {
    bits: Bitset,
    /// One entry per word, then the total.
    before: Vec<u32>,
}

impl RankedBitset {
    /// Ranks `bits`. Refused if more than `u32::MAX` bits are set.
    pub fn new(bits: Bitset) -> Result<Self, CsrOverflow> {
        let mut before = Vec::with_capacity(bits.bits.len() + 1);
        let mut total = 0u32;
        before.push(0);
        for w in &bits.bits {
            total = total.checked_add(w.count_ones()).ok_or(CsrOverflow)?;
            before.push(total);
        }
        Ok(RankedBitset { bits, before })
    }

    /// The ranked bits.
    pub fn bits(&self) -> &Bitset {
        &self.bits
    }

    /// Word `w` of the ranked bits.
    #[inline]
    pub fn word(&self, w: usize) -> u64 {
        self.bits.word(w)
    }

    /// Number of set bits below id `i`: the row of id `i` if it is set.
    #[inline]
    pub fn rank(&self, i: usize) -> usize {
        debug_assert!(i < self.bits.len);
        let below = self.bits.bits[i / 64] & !(u64::MAX << (i % 64));
        self.before[i / 64] as usize + below.count_ones() as usize
    }

    /// Number of set bits.
    pub fn ones(&self) -> usize {
        *self.before.last().expect("the total ends the table") as usize
    }

    /// Heap bytes held, from the buffers' capacities.
    pub fn resident_bytes(&self) -> usize {
        self.bits.resident_bytes() + self.before.capacity() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear() {
        let mut b = Bitset::new(130);
        assert!(!b.get(0));
        assert!(b.set(0));
        assert!(!b.set(0));
        assert!(b.get(0));
        assert!(b.set(129));
        assert!(b.get(129));
        assert_eq!(b.count(), 2);
        assert!(b.clear(0));
        assert!(!b.clear(0));
        assert_eq!(b.count(), 1);
    }

    #[test]
    fn full_respects_length() {
        let b = Bitset::full(70);
        assert_eq!(b.count(), 70);
        assert!(b.get(69));
        let b64 = Bitset::full(64);
        assert_eq!(b64.count(), 64);
        let b0 = Bitset::full(0);
        assert_eq!(b0.count(), 0);
        assert!(b0.is_empty());
    }

    #[test]
    fn iter_ones_ascending() {
        let mut b = Bitset::new(200);
        for i in [3usize, 64, 65, 199] {
            b.set(i);
        }
        let ones: Vec<usize> = b.iter_ones().collect();
        assert_eq!(ones, vec![3, 64, 65, 199]);
    }

    #[test]
    fn union_intersect() {
        let mut a = Bitset::new(10);
        let mut b = Bitset::new(10);
        a.set(1);
        a.set(2);
        b.set(2);
        b.set(3);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.iter_ones().collect::<Vec<_>>(), vec![1, 2, 3]);
        a.intersect_with(&b);
        assert_eq!(a.iter_ones().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn or_word_returns_only_the_newly_set_bits() {
        let mut b = Bitset::new(130);
        b.set(1);
        b.set(128);
        assert_eq!(b.or_word(0, 0b1011), 0b1001);
        assert_eq!(b.or_word(0, 0b1011), 0);
        assert_eq!(b.word(0), 0b1011);
        assert_eq!(b.or_word(2, 0b11), 0b10);
        assert_eq!(b.or_word(1, u64::MAX), u64::MAX);
        assert_eq!(b.or_word(1, 0), 0);
        assert_eq!(b.count(), 3 + 64 + 2);
        assert!(b.get(129) && b.get(64) && b.get(127) && !b.get(2));
    }

    #[test]
    fn packed_words_or_in_as_the_ids_set_one_by_one() {
        assert!(pack_words([]).is_empty());
        let ids = [0usize, 5, 63, 64, 127, 200, 1000, 1023, 1024];
        let packed = pack_words(ids);
        assert_eq!(
            packed.iter().map(|&(w, _)| w).collect::<Vec<_>>(),
            [0, 1, 3, 15, 16]
        );
        assert_eq!(packed[0], (0, 1 | 1 << 5 | 1 << 63));
        let (mut by_id, mut by_word) = (Bitset::new(1025), Bitset::new(1025));
        for i in ids {
            by_id.set(i);
        }
        for (w, bits) in packed {
            assert_eq!(by_word.or_word(w, bits), bits);
        }
        assert_eq!(by_word, by_id);
    }

    #[test]
    fn rank_counts_the_set_bits_below_each_id() {
        for len in [0usize, 1, 63, 64, 65, 200, 640] {
            let mut b = Bitset::new(len);
            for i in (0..len).filter(|i| i % 3 == 0 || i % 64 == 63) {
                b.set(i);
            }
            let ranked = RankedBitset::new(b.clone()).unwrap();
            assert_eq!(ranked.ones(), b.count(), "len {len}");
            assert_eq!(ranked.bits(), &b);
            let mut below = 0;
            for i in 0..len {
                assert_eq!(ranked.rank(i), below, "len {len}, id {i}");
                assert_eq!(ranked.word(i / 64), b.word(i / 64));
                below += usize::from(b.get(i));
            }
            // The set ids number the rows 0..ones, in id order.
            let rows: Vec<usize> = b.iter_ones().map(|i| ranked.rank(i)).collect();
            assert_eq!(rows, (0..ranked.ones()).collect::<Vec<_>>());
        }
        let full = RankedBitset::new(Bitset::full(130)).unwrap();
        assert_eq!((full.rank(0), full.rank(64), full.rank(129)), (0, 64, 129));
        assert_eq!(full.ones(), 130);
    }

    #[test]
    fn resident_bytes_follow_the_buffers() {
        assert_eq!(Bitset::new(0).resident_bytes(), 0);
        assert_eq!(Bitset::new(65).resident_bytes(), 16);
        let ranked = RankedBitset::new(Bitset::new(640)).unwrap();
        assert_eq!(ranked.resident_bytes(), 10 * 8 + 11 * 4);
    }

    #[test]
    fn word_accounting() {
        assert_eq!(Bitset::new(0).words(), 1);
        assert_eq!(Bitset::new(64).words(), 2);
        assert_eq!(Bitset::new(65).words(), 3);
        assert_eq!(Bitset::new(6400).words(), 101);
    }
}
