//! Flat adjacency (CSR): many variable-length rows in one item arena.
//!
//! The paper keeps a machine's `O(n^{1+µ})` words as one flat block and
//! touches it with scans. [`Csr`] is that block for "one list per record"
//! state — a set's elements, an element's `T_j`, a vertex's incident
//! edges: `rows + 1` offsets plus one item arena, rows read as `&[T]`.
//! It is built the way Goodrich–Sitchinava–Zhang frame machine-local
//! work — count, prefix-sum, scatter ([`Csr::builder`]) — so a state
//! holding it costs three allocations to build, two `memcpy`s to clone
//! and two frees to drop, however many records it has.
//!
//! [`Csr::invert`] builds the reverse index (key → rows holding it) as
//! another `Csr` whose row number *is* the key, probed by direct offset.
//! [`Csr::retain`] is the model's stable compact: between rounds a shard
//! drops its dead items in place, so later scans walk only survivors.
//!
//! Offsets are `u32`: an arena of more than `u32::MAX` items is refused
//! with [`CsrOverflow`] by a checked conversion, never truncated.

use std::fmt;
use std::ops::{Index, Range};

/// A [`Csr`] was asked to address more items (or rows) than its `u32`
/// offsets can.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CsrOverflow;

impl fmt::Display for CsrOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("flat arena exceeds its u32 offsets")
    }
}

impl std::error::Error for CsrOverflow {}

/// `rows()` variable-length rows stored back to back in one arena.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr<T> {
    /// `offsets[r]..offsets[r + 1]` is row `r`; non-decreasing, first 0,
    /// last `items.len()`.
    offsets: Vec<u32>,
    items: Vec<T>,
}

impl<T> Default for Csr<T> {
    fn default() -> Self {
        Csr {
            offsets: vec![0],
            items: Vec::new(),
        }
    }
}

impl<T: Copy> Csr<T> {
    /// Count → prefix-sum: lays out one row per entry of `row_lens` and
    /// returns the builder that scatters items into them. The arena is
    /// pre-filled with `fill`, which every [`CsrBuilder::push`] overwrites.
    pub fn builder(
        row_lens: impl IntoIterator<Item = usize>,
        fill: T,
    ) -> Result<CsrBuilder<T>, CsrOverflow> {
        let row_lens = row_lens.into_iter();
        let mut offsets = Vec::with_capacity(row_lens.size_hint().0 + 1);
        offsets.push(0u32);
        let mut total = 0usize;
        for len in row_lens {
            total = total.checked_add(len).ok_or(CsrOverflow)?;
            offsets.push(u32::try_from(total).map_err(|_| CsrOverflow)?);
        }
        let cursor = offsets[..offsets.len() - 1].to_vec();
        Ok(CsrBuilder {
            csr: Csr {
                offsets,
                items: vec![fill; total],
            },
            cursor,
        })
    }

    /// The reverse index over keys `0..keys`: row `k` of the result lists,
    /// ascending, the rows of `self` holding an item with `key_of(item) ==
    /// k` (once per such item). Panics if a key is out of range.
    pub fn invert(
        &self,
        keys: usize,
        key_of: impl Fn(&T) -> usize,
    ) -> Result<Csr<u32>, CsrOverflow> {
        u32::try_from(self.rows()).map_err(|_| CsrOverflow)?;
        let mut counts = vec![0usize; keys];
        for item in &self.items {
            counts[key_of(item)] += 1;
        }
        let mut index = Csr::builder(counts, 0u32)?;
        for r in 0..self.rows() {
            for item in self.row(r) {
                index.push(key_of(item), r as u32);
            }
        }
        Ok(index.finish())
    }

    /// Keeps only the items for which `keep(row, &item)` holds: a stable
    /// compact (flag → prefix-sum → scatter, fused into one pass). Row
    /// count and row numbers are unchanged, each row keeps its surviving
    /// items in order, and nothing is allocated: survivors move left in
    /// the arena and the offsets are rewritten.
    pub fn retain(&mut self, mut keep: impl FnMut(usize, &T) -> bool) {
        let mut write = 0usize;
        let mut start = 0usize;
        for r in 0..self.rows() {
            let end = self.offsets[r + 1] as usize;
            for read in start..end {
                let item = self.items[read];
                if keep(r, &item) {
                    self.items[write] = item;
                    write += 1;
                }
            }
            start = end;
            // `write ≤ end`, which already fit the offsets.
            self.offsets[r + 1] = write as u32;
        }
        self.items.truncate(write);
    }

    /// Appends `row` as the next row: the way to grow an arena whose row
    /// lengths are not known up front (a parser reading records). Refused,
    /// with the arena unchanged, if the items would outgrow the offsets.
    pub fn push_row(&mut self, row: &[T]) -> Result<(), CsrOverflow> {
        let end = u32::try_from(self.items.len() + row.len()).map_err(|_| CsrOverflow)?;
        self.offsets.push(end);
        self.items.extend_from_slice(row);
        Ok(())
    }

    /// Appends `item` to the last row: after `push_row(&[])` opens a row,
    /// the way to fill rows from a scan that meets each row's items in
    /// order but interleaved with other arenas' items. Refused like
    /// [`Csr::push_row`]; panics if there is no row.
    pub fn push_to_last_row(&mut self, item: T) -> Result<(), CsrOverflow> {
        assert!(self.rows() > 0, "no row to append to");
        let end = u32::try_from(self.items.len() + 1).map_err(|_| CsrOverflow)?;
        *self.offsets.last_mut().expect("offsets start with 0") = end;
        self.items.push(item);
        Ok(())
    }
}

/// Flattens nested rows built in code (generators, tests), panicking past
/// `u32::MAX` items; rows read from untrusted bytes arrive through
/// [`Csr::push_row`] instead, which reports the overflow.
impl<T: Copy> From<Vec<Vec<T>>> for Csr<T> {
    fn from(rows: Vec<Vec<T>>) -> Self {
        let mut csr = Csr::default();
        for row in &rows {
            csr.push_row(row)
                .expect("nested rows exceed the u32 offsets");
        }
        csr
    }
}

impl<T> Csr<T> {
    /// An empty arena with room for `rows` rows holding `items` items in
    /// all, so that as many [`Csr::push_row`]s fill it without a
    /// reallocation.
    pub fn with_capacity(rows: usize, items: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        Csr {
            offsets,
            items: Vec::with_capacity(items),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Heap bytes held, from the buffers' capacities.
    pub fn resident_bytes(&self) -> usize {
        self.offsets.capacity() * std::mem::size_of::<u32>()
            + self.items.capacity() * std::mem::size_of::<T>()
    }

    /// Total number of items over all rows.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if no row holds an item.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    #[inline]
    fn range(&self, r: usize) -> Range<usize> {
        self.offsets[r] as usize..self.offsets[r + 1] as usize
    }

    /// Row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[T] {
        &self.items[self.range(r)]
    }

    /// Row `r`, mutable (items only: row lengths change only through
    /// [`Csr::retain`]).
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [T] {
        let range = self.range(r);
        &mut self.items[range]
    }

    /// The rows in order.
    pub fn iter(&self) -> impl Iterator<Item = &[T]> + '_ {
        self.offsets
            .windows(2)
            .map(|w| &self.items[w[0] as usize..w[1] as usize])
    }
}

/// `csr[r]` is [`Csr::row`]`(r)`.
impl<T> Index<usize> for Csr<T> {
    type Output = [T];

    #[inline]
    fn index(&self, r: usize) -> &[T] {
        self.row(r)
    }
}

/// Scatter phase of a [`Csr`] build: rows are laid out, items arrive in
/// any row order. See [`Csr::builder`].
#[derive(Debug)]
pub struct CsrBuilder<T> {
    csr: Csr<T>,
    /// Where each row's next item goes.
    cursor: Vec<u32>,
}

impl<T> CsrBuilder<T> {
    /// Places the next item of `row`. Panics if the row is already full.
    #[inline]
    pub fn push(&mut self, row: usize, item: T) {
        let at = self.cursor[row];
        assert!(at < self.csr.offsets[row + 1], "csr row {row} overfilled");
        self.csr.items[at as usize] = item;
        self.cursor[row] = at + 1;
    }

    /// The finished arena. Panics unless every row received exactly the
    /// number of items it was laid out for.
    pub fn finish(self) -> Csr<T> {
        assert!(self.cursor == self.csr.offsets[1..], "csr row underfilled");
        self.csr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_rows_in_any_placement_order() {
        let mut b = Csr::builder([2, 0, 3], 0u32).unwrap();
        b.push(2, 7);
        b.push(0, 1);
        b.push(2, 8);
        b.push(0, 2);
        b.push(2, 9);
        let csr = b.finish();
        assert_eq!(csr.rows(), 3);
        assert_eq!(csr.len(), 5);
        assert_eq!(csr.row(0), &[1, 2]);
        assert_eq!(csr[0], [1, 2]);
        assert!(csr.row(1).is_empty());
        assert_eq!(csr.row(2), &[7, 8, 9]);
        assert_eq!(csr.range(2), 2..5);
        assert_eq!(csr.iter().map(<[u32]>::len).collect::<Vec<_>>(), [2, 0, 3]);
    }

    #[test]
    fn empty_and_default_have_no_rows() {
        let csr = Csr::builder([], 0u8).unwrap().finish();
        assert_eq!((csr.rows(), csr.len(), csr.is_empty()), (0, 0, true));
        assert_eq!(csr, Csr::default());
    }

    #[test]
    fn invert_lists_holding_rows_ascending() {
        let mut b = Csr::builder([2, 1, 2], 0u32).unwrap();
        for (row, item) in [(0, 4), (0, 1), (1, 4), (2, 1), (2, 4)] {
            b.push(row, item);
        }
        let index = b.finish().invert(5, |&j| j as usize).unwrap();
        assert_eq!(index.rows(), 5);
        assert_eq!(index.row(1), &[0, 2]);
        assert_eq!(index.row(4), &[0, 1, 2]);
        assert!(index.row(0).is_empty() && index.row(3).is_empty());
    }

    #[test]
    fn retain_compacts_rows_in_place() {
        let mut b = Csr::builder([3, 0, 2, 1], 0u32).unwrap();
        for (row, item) in [(0, 1), (0, 2), (0, 3), (2, 4), (2, 5), (3, 6)] {
            b.push(row, item);
        }
        let mut csr = b.finish();
        let arena = csr.items.as_ptr();
        csr.retain(|row, &x| row == 3 || x % 2 == 1);
        assert_eq!(
            csr.iter().collect::<Vec<_>>(),
            [&[1, 3][..], &[], &[5], &[6]]
        );
        assert_eq!(csr.items.as_ptr(), arena, "compacted without reallocating");
        csr.retain(|_, _| false);
        assert_eq!((csr.rows(), csr.len()), (4, 0));
    }

    #[test]
    fn rows_pushed_or_converted_equal_rows_scattered() {
        let nested = vec![vec![1u32, 2], vec![], vec![7, 8, 9]];
        let mut pushed = Csr::default();
        for row in &nested {
            pushed.push_row(row).unwrap();
        }
        let scattered = {
            let mut b = Csr::builder([2, 0, 3], 0u32).unwrap();
            for (row, item) in [(0, 1), (0, 2), (2, 7), (2, 8), (2, 9)] {
                b.push(row, item);
            }
            b.finish()
        };
        assert_eq!(pushed, scattered);
        assert_eq!(Csr::from(nested), scattered);
    }

    #[test]
    fn a_presized_arena_takes_its_rows_without_reallocating() {
        let rows = [&[4u32, 5][..], &[], &[6, 7, 8]];
        let mut csr = Csr::with_capacity(rows.len(), 5);
        let (offsets, items) = (csr.offsets.as_ptr(), csr.items.as_ptr());
        for row in rows {
            csr.push_row(row).unwrap();
        }
        assert_eq!(csr.iter().collect::<Vec<_>>(), rows);
        assert_eq!((csr.offsets.as_ptr(), csr.items.as_ptr()), (offsets, items));
        assert_eq!(Csr::<u8>::with_capacity(3, 9), Csr::default());
    }

    #[test]
    fn items_appended_to_opened_rows_equal_whole_rows_pushed() {
        let mut grown = Csr::with_capacity(3, 5);
        for row in [&[4u32, 5][..], &[], &[6, 7, 8]] {
            grown.push_row(&[]).unwrap();
            for &item in row {
                grown.push_to_last_row(item).unwrap();
            }
        }
        assert_eq!(grown, Csr::from(vec![vec![4, 5], vec![], vec![6, 7, 8]]));
        assert_eq!(grown.resident_bytes(), 4 * 4 + 5 * 4);
    }

    #[test]
    #[should_panic(expected = "no row")]
    fn appending_to_an_arena_without_rows_panics() {
        Csr::<u8>::default().push_to_last_row(1).unwrap();
    }

    #[test]
    fn overflow_is_an_error_before_any_allocation() {
        let big = u32::MAX as usize;
        assert_eq!(Csr::builder([big, 1], 0u8).unwrap_err(), CsrOverflow);
        assert_eq!(Csr::builder([usize::MAX, 1], 0u8).unwrap_err(), CsrOverflow);
    }

    #[test]
    #[should_panic(expected = "overfilled")]
    fn overfilling_a_row_panics() {
        let mut b = Csr::builder([1, 1], 0u8).unwrap();
        b.push(0, 1);
        b.push(0, 2);
    }

    #[test]
    #[should_panic(expected = "underfilled")]
    fn underfilled_rows_do_not_finish() {
        let mut b = Csr::builder([1, 1], 0u8).unwrap();
        b.push(1, 1);
        b.finish();
    }
}
