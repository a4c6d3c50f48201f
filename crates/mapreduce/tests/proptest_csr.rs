//! Property-based tests of [`mrlr_mapreduce::csr::Csr`] against a
//! `Vec<Vec<T>>` model.
//!
//! The cover-family drivers keep every per-record list (a set's elements,
//! an element's `T_j`, a vertex's incidences) as rows of one `Csr` and
//! their reverse indexes as its inversion, so row contents, row order and
//! the inversion's per-key order are load-bearing for bit-identical
//! outputs — and an arena too large for its `u32` offsets must be refused,
//! never truncated. Matching compacts its incidence rows between rounds,
//! so `retain` must keep exactly the model's survivors in order.

use proptest::prelude::*;

use mrlr_mapreduce::{Csr, CsrOverflow, DetRng};

const KEYS: u32 = 24;

/// Builds `model` through the scatter builder, visiting rows in a
/// seed-shuffled interleaving (items of one row keep their order).
fn build(model: &[Vec<u32>], order_seed: u64) -> Csr<u32> {
    let mut placement: Vec<usize> = model
        .iter()
        .enumerate()
        .flat_map(|(r, row)| std::iter::repeat_n(r, row.len()))
        .collect();
    DetRng::new(order_seed).shuffle(&mut placement);
    let mut next = vec![0usize; model.len()];
    let mut builder = Csr::builder(model.iter().map(Vec::len), u32::MAX).unwrap();
    for r in placement {
        builder.push(r, model[r][next[r]]);
        next[r] += 1;
    }
    builder.finish()
}

proptest! {
    /// Rows read back exactly as the model holds them — whatever order
    /// they were filled in, empty rows included.
    #[test]
    fn rows_match_the_nested_model(
        model in proptest::collection::vec(proptest::collection::vec(0u32..KEYS, 0..7), 0..14),
        order_seed in any::<u64>(),
    ) {
        let csr = build(&model, order_seed);
        prop_assert_eq!(csr.rows(), model.len());
        prop_assert_eq!(csr.len(), model.iter().map(Vec::len).sum::<usize>());
        prop_assert_eq!(csr.is_empty(), model.iter().all(Vec::is_empty));
        for (r, row) in model.iter().enumerate() {
            prop_assert_eq!(csr.row(r), row.as_slice());
        }
        let rows: Vec<&[u32]> = csr.iter().collect();
        let expect: Vec<&[u32]> = model.iter().map(Vec::as_slice).collect();
        prop_assert_eq!(rows, expect);
        // Placement order is not observable.
        prop_assert_eq!(&csr, &build(&model, order_seed ^ 1));
        // A clone is the same arena; writes through `row_mut` stay in
        // their row.
        let mut copy = csr.clone();
        for r in 0..copy.rows() {
            copy.row_mut(r).iter_mut().for_each(|x| *x += 1);
        }
        for (r, row) in model.iter().enumerate() {
            let bumped: Vec<u32> = row.iter().map(|x| x + 1).collect();
            prop_assert_eq!(copy.row(r), bumped.as_slice());
            prop_assert_eq!(csr.row(r), row.as_slice());
        }
    }

    /// The reverse index is the brute-force inversion: key `k` lists the
    /// rows holding `k`, ascending, once per occurrence.
    #[test]
    fn invert_matches_brute_force(
        model in proptest::collection::vec(proptest::collection::vec(0u32..KEYS, 0..7), 0..14),
        order_seed in any::<u64>(),
    ) {
        let index = build(&model, order_seed).invert(KEYS as usize, |&k| k as usize).unwrap();
        prop_assert_eq!(index.rows(), KEYS as usize);
        for k in 0..KEYS {
            let expect: Vec<u32> = model
                .iter()
                .enumerate()
                .flat_map(|(r, row)| row.iter().filter(move |&&x| x == k).map(move |_| r as u32))
                .collect();
            prop_assert_eq!(index.row(k as usize), expect.as_slice());
        }
        prop_assert_eq!(index.len(), model.iter().map(Vec::len).sum::<usize>());
    }

    /// `retain` is `Vec::retain` on every row of the model: the row count
    /// is unchanged and each row keeps its survivors in order. `cut = 0`
    /// keeps nothing and `cut = KEYS` keeps everything; empty rows occur
    /// throughout.
    #[test]
    fn retain_matches_the_nested_model(
        model in proptest::collection::vec(proptest::collection::vec(0u32..KEYS, 0..7), 0..14),
        order_seed in any::<u64>(),
        cut in 0u32..=KEYS,
    ) {
        let keep = |r: usize, x: &u32| (x + r as u32) % KEYS < cut;
        let mut csr = build(&model, order_seed);
        csr.retain(keep);
        let kept: Vec<Vec<u32>> = model
            .iter()
            .enumerate()
            .map(|(r, row)| row.iter().copied().filter(|x| keep(r, x)).collect())
            .collect();
        prop_assert_eq!(csr.rows(), model.len());
        for (r, row) in kept.iter().enumerate() {
            prop_assert_eq!(csr.row(r), row.as_slice());
        }
        prop_assert_eq!(&csr, &build(&kept, order_seed));
        if cut == 0 {
            prop_assert!(csr.is_empty());
        }
        if cut == KEYS {
            prop_assert_eq!(&csr, &build(&model, order_seed));
        }
        // A second compact works on the compacted offsets.
        csr.retain(|_, x| x % 2 == 0);
        for (r, row) in kept.iter().enumerate() {
            let even: Vec<u32> = row.iter().copied().filter(|x| x % 2 == 0).collect();
            prop_assert_eq!(csr.row(r), even.as_slice());
        }
    }

    /// Row lengths summing past `u32::MAX` are an error raised before
    /// the arena is allocated — not a wrapped offset.
    #[test]
    fn offset_overflow_is_an_error(
        lens in proptest::collection::vec((1usize << 30)..(1usize << 32), 5..9),
        small in proptest::collection::vec(0usize..4, 0..5),
    ) {
        let all = small.iter().chain(&lens).copied();
        prop_assert_eq!(Csr::builder(all, 0u8).err(), Some(CsrOverflow));
    }
}
