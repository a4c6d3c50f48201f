//! MapReduce implementation of Algorithm 3 (Theorem 4.6): the hungry-greedy
//! `(1+ε) H_Δ` approximation for minimum weight set cover.
//!
//! Layout: sets are hash-partitioned (`O(m^{1+µ})` words per machine); each
//! machine keeps a replicated covered-elements bitmap (`⌈m/64⌉` words) and
//! per-set uncovered counts, refreshed by broadcast deltas. Per inner
//! round: a tree aggregation reports whether any set still clears the
//! current level `L/(1+ε)` together with the class sizes; machines sample
//! groups locally and gather `(class, group, id, w, remaining elements)`
//! messages on the flat payload plane; the central machine takes at most
//! one qualifying set per group and broadcasts the covered delta. Group
//! overflows (`> 4·m^{µ/2}`) *fail the iteration and continue*, exactly as
//! lines 15–17 prescribe.
//!
//! A machine's block is flat: fixed-width set records, one [`Csr`] arena
//! holding every set's elements (each row copied whole from the
//! instance), and the element → local-set reverse index over only the
//! elements the machine holds. A ranked `holds` bitmap
//! ([`RankedBitset`]) numbers those elements, so held element `j` is row
//! `holds.rank(j)` of the index, filled in one pass over the instance's
//! cached [`SetSystem::dual`]. The central machine packs each covered
//! delta into `(word, bits)` pairs once; a machine ORs each word into its
//! covered bitmap and walks only the newly covered bits it holds, so a
//! delta costs a machine its own elements, not one offset per element of
//! the universe. The *metered* size is still the record-per-set formula
//! (the index charged as a mirror of the input); nothing in it changes
//! after distribution, so it is computed once.
//!
//! Beside that block a machine keeps two candidate lists, unmetered
//! scratch like `mis`'s `delta_bits`: the ascending slots of the sets that
//! clear the current threshold, and of those that clear the next level's,
//! each tagged with its threshold. The `local` pass applying a delta
//! refreshes both: it filters a list that already carries the threshold
//! it is refreshed for, and scans every record only for a threshold no
//! list carries. The exists/Φ, class-size and sample passes walk the list
//! whose tag is their threshold, or every record when none is. A set only
//! ever stops qualifying (`uncov` falls, `chosen` rises), so a list stays
//! a superset of the qualifying sets, and every pass re-checks its
//! predicate: the lists decide what is scanned, never what is found.

use mrlr_mapreduce::{
    pack_words, Bitset, Cluster, Csr, Metrics, MrError, MrResult, PayloadBatch, RankedBitset,
    WordSized,
};
use mrlr_setsys::{ElemId, SetId, SetSystem};

use crate::hungry::mis::{degree_class_ln, group_choice};
use crate::hungry::setcover::{class_group_counts, HungryScParams, HungryScTrace, HSC_RNG_TAG};
use crate::mr::{place_records, MrConfig, Placement};
use crate::rlr::setcover::require_coverable;
use crate::seq::greedy_sc::{fitted_dual, harmonic};
use crate::types::CoverResult;

/// The fixed-width part of a resident set; its elements are the row of
/// [`ScChunk::elems`] with the record's slot number, and its uncovered
/// count the entry of [`ScChunk::uncov`] with that number.
#[derive(Clone, Copy)]
struct SetRecM {
    id: SetId,
    w: f64,
    chosen: bool,
}

/// A set the passes at `threshold` consider: not chosen, with an element
/// left to cover (`uncov` of them), and a ratio clearing the threshold.
#[inline]
fn qualifies(r: &SetRecM, uncov: u32, threshold: f64) -> bool {
    !r.chosen && uncov > 0 && uncov as f64 / r.w >= threshold
}

/// Ascending slots holding every set that qualifies at threshold `tag`,
/// and possibly some that no longer do.
struct Candidates {
    tag: f64,
    slots: Vec<u32>,
}

impl Candidates {
    /// Refreshes the list for threshold `tag`. A list already tagged
    /// `tag` is filtered down to the sets that still qualify; any other
    /// is emptied and retagged, and `true` says it awaits a scan.
    fn filter_or_clear(&mut self, tag: f64, recs: &[SetRecM], uncov: &[u32]) -> bool {
        if self.tag == tag {
            self.slots
                .retain(|&slot| qualifies(&recs[slot as usize], uncov[slot as usize], tag));
            false
        } else {
            self.tag = tag;
            self.slots.clear();
            true
        }
    }
}

struct ScChunk {
    /// Ascending set id.
    recs: Vec<SetRecM>,
    /// Each set's uncovered count, by slot: a column of its own, so that
    /// a delta's decrements touch four bytes a set.
    uncov: Vec<u32>,
    elems: Csr<ElemId>,
    covered: Bitset,
    /// The elements some resident set holds, ranked.
    holds: RankedBitset,
    /// Held element `j` → the local slots of the sets holding it,
    /// ascending, as row `holds.rank(j)`.
    index: Csr<u32>,
    /// Unmetered scratch: the lists for the current and the next level's
    /// threshold, rebuilt by [`ScChunk::refresh_candidates`]. A `NaN` tag
    /// matches no threshold.
    candidates: [Candidates; 2],
    /// [`ScChunk::metered_words`], fixed at distribution.
    words: usize,
}

impl WordSized for ScChunk {
    fn words(&self) -> usize {
        debug_assert_eq!(self.words, self.metered_words());
        self.words
    }
}

impl ScChunk {
    fn new(
        sys: &SetSystem,
        ids: &[SetId],
        elems: Csr<ElemId>,
        holds: RankedBitset,
        index: Csr<u32>,
    ) -> Self {
        let recs = ids
            .iter()
            .map(|&id| SetRecM {
                id,
                w: sys.weight(id),
                chosen: false,
            })
            .collect();
        let mut chunk = ScChunk {
            recs,
            uncov: elems.iter().map(|row| row.len() as u32).collect(),
            elems,
            covered: Bitset::new(sys.universe()),
            holds,
            index,
            candidates: [(); 2].map(|_| Candidates {
                tag: f64::NAN,
                slots: Vec::new(),
            }),
            words: 0,
        };
        chunk.words = chunk.metered_words();
        chunk
    }

    /// The simulated size: a 4-word record plus its element list per set,
    /// the bitmap, and the reverse index charged as the records again.
    fn metered_words(&self) -> usize {
        let recs: usize = self.elems.iter().map(|row| 4 + 1 + row.len()).sum();
        1 + recs * 2 + self.covered.words()
    }

    /// The census of what the block holds: its containers' heap bytes,
    /// from their capacities, in words. The candidate lists are declared
    /// unmetered scratch and are left out.
    #[cfg(test)]
    fn resident_words(&self) -> usize {
        let bytes = self.recs.capacity() * std::mem::size_of::<SetRecM>()
            + self.uncov.capacity() * std::mem::size_of::<u32>()
            + self.elems.resident_bytes()
            + self.covered.resident_bytes()
            + self.holds.resident_bytes()
            + self.index.resident_bytes();
        bytes.div_ceil(8)
    }

    /// Applies a round's delta: `covered_words` is the covered delta
    /// packed by [`pack_words`], `chosen_delta` the chosen sets ascending.
    /// Each element this machine holds that the delta newly covers costs
    /// every local set holding it one from `uncov`.
    fn apply_delta(&mut self, covered_words: &[(usize, u64)], chosen_delta: &[SetId]) {
        for &(w, bits) in covered_words {
            let newly = self.covered.or_word(w, bits);
            let mut fresh = newly & self.holds.word(w);
            while fresh != 0 {
                let j = 64 * w + fresh.trailing_zeros() as usize;
                for &slot in self.index.row(self.holds.rank(j)) {
                    self.uncov[slot as usize] -= 1;
                }
                fresh &= fresh - 1;
            }
        }
        for &i in chosen_delta {
            // A chosen set lives on exactly one machine; recs are sorted
            // by id.
            if let Ok(pos) = self.recs.binary_search_by_key(&i, |r| r.id) {
                self.recs[pos].chosen = true;
            }
        }
    }

    /// Refreshes the candidate lists for `threshold` and for `next`, the
    /// threshold one level down. A list already tagged with its threshold
    /// is filtered in place (a set only stops qualifying, so it holds
    /// every set that still does); the others are rebuilt by one scan of
    /// the records.
    fn refresh_candidates(&mut self, threshold: f64, next: f64) {
        if self.candidates[1].tag == threshold {
            // The level dropped: the next level's list is this one's.
            self.candidates.swap(0, 1);
        }
        let ScChunk {
            recs,
            uncov,
            candidates: [cur, below],
            ..
        } = self;
        let scan = [
            cur.filter_or_clear(threshold, recs, uncov),
            below.filter_or_clear(next, recs, uncov),
        ];
        if scan[0] || scan[1] {
            for (slot, (r, &u)) in recs.iter().zip(uncov.iter()).enumerate() {
                if scan[0] && qualifies(r, u, threshold) {
                    cur.slots.push(slot as u32);
                }
                if scan[1] && qualifies(r, u, next) {
                    below.slots.push(slot as u32);
                }
            }
        }
    }

    /// The sets qualifying at `threshold` with their slots and uncovered
    /// counts, ascending: the candidate list tagged `threshold` re-checked
    /// record by record, or every record when no list carries that tag.
    fn qualifying(&self, threshold: f64) -> impl Iterator<Item = (usize, &SetRecM, u32)> + '_ {
        let list = self.candidates.iter().find(|c| c.tag == threshold);
        debug_assert!(list.is_none_or(|c| {
            (0..self.recs.len())
                .filter(|&s| qualifies(&self.recs[s], self.uncov[s], threshold))
                .all(|s| c.slots.binary_search(&(s as u32)).is_ok())
        }));
        let (listed, rest) = match list {
            Some(c) => (c.slots.as_slice(), 0..0),
            None => (&[][..], 0..self.recs.len()),
        };
        listed
            .iter()
            .map(|&slot| slot as usize)
            .chain(rest)
            .map(|slot| (slot, &self.recs[slot], self.uncov[slot]))
            .filter(move |&(_, r, uncov)| qualifies(r, uncov, threshold))
    }
}

/// `(class, group, set id, weight)`; the payload is the set's remaining
/// elements.
type SampleHead = (u64, u64, SetId, f64);

/// Hash-partitions the sets. A machine copies each of its sets' rows
/// whole; its index rows come from one pass over the instance's dual, in
/// which `T_j`'s sets go, in set order, to their machines' slots, and a
/// machine marks `j` held and opens its row at the first of them it
/// holds. Rows open in element order, so `j`'s is row `holds.rank(j)`.
fn distribute(sys: &SetSystem, cfg: &MrConfig) -> MrResult<Vec<ScChunk>> {
    let Placement { at, ids } = place_records(cfg.machines, sys.n_sets(), |l| cfg.place(l as u64))?;
    let mut blocks = Vec::with_capacity(ids.len());
    for ids in &ids {
        let items = ids.iter().map(|&l| sys.set(l).len()).sum();
        let mut elems = Csr::with_capacity(ids.len(), items);
        for &l in ids {
            elems.push_row(sys.set(l))?;
        }
        // A row per held element: no more than the items or the universe.
        let index = Csr::with_capacity(items.min(sys.universe()), items);
        blocks.push((elems, Bitset::new(sys.universe()), index));
    }
    for (j, sets) in sys.dual().iter().enumerate() {
        for &l in sets {
            let (dst, slot) = at[l as usize];
            let (_, holds, index) = &mut blocks[dst as usize];
            if holds.set(j) {
                index.push_row(&[])?;
            }
            index.push_to_last_row(slot)?;
        }
    }
    ids.iter()
        .zip(blocks)
        .map(|(ids, (elems, holds, index))| {
            Ok(ScChunk::new(
                sys,
                ids,
                elems,
                RankedBitset::new(holds)?,
                index,
            ))
        })
        .collect()
}

/// Algorithm 3 on the cluster. The output depends on `params` only, not
/// on the machine count.
///
/// [`crate::api::Registry`] runs this for `set-cover-greedy` on every cluster
/// backend, on the runtime `cfg.exec.runtime` names.
pub fn run(
    sys: &SetSystem,
    params: HungryScParams,
    cfg: MrConfig,
) -> MrResult<(CoverResult, HungryScTrace, Metrics)> {
    if params.eps <= 0.0 || !params.eps.is_finite() {
        return Err(MrError::BadConfig("eps must be positive".into()));
    }
    if !(params.alpha > 0.0 && params.alpha <= 1.0) || params.group_size == 0 {
        return Err(MrError::BadConfig("invalid alpha/group_size".into()));
    }
    require_coverable(sys)?;

    let m = sys.universe();
    let n = sys.n_sets();
    let mf = (m.max(2)) as f64;
    let ln_mf = mf.ln();
    let num_classes = (1.0 / params.alpha).ceil() as usize;
    let group_counts = class_group_counts(mf, params.alpha, num_classes);

    let mut cluster = Cluster::new(cfg.cluster(), distribute(sys, &cfg)?)?;

    // Central state: covered bitmap + bookkeeping.
    let mut covered = Bitset::new(m);
    let mut covered_count = 0usize;
    let mut solution: Vec<SetId> = Vec::new();
    let mut price_sum = 0.0f64;
    let mut prices: Vec<(ElemId, f64)> = Vec::new();
    let mut trace = HungryScTrace::default();
    // Central-sort permutation of the gathered sample, reused every round.
    let mut order: Vec<usize> = Vec::new();
    cluster.charge_central(2 + m / 32)?;

    // Initial level L = max |S|/w, aggregated up the tree.
    let mut level = cluster.aggregate_max_f64(|_, s: &ScChunk| {
        s.recs
            .iter()
            .zip(&s.uncov)
            .map(|(r, &uncov)| uncov as f64 / r.w)
            .fold(0.0f64, f64::max)
    })?;
    let mut k = 0usize;

    while covered_count < m {
        let threshold = level / (1.0 + params.eps);
        // The next level's threshold, computed as the level drop below
        // computes it.
        let next = level / (1.0 + params.eps) / (1.0 + params.eps);
        let level_start = k;
        loop {
            // One tree aggregation: (any set clears the level?, Φ_k). A
            // set with nothing left to cover adds `+0.0` to Φ, so skipping
            // it changes no bit.
            let (exists, phi) = cluster.aggregate(
                |_, s: &ScChunk| {
                    let mut any = 0u64;
                    let mut pot = 0.0f64;
                    for (_, _, uncov) in s.qualifying(threshold) {
                        any = 1;
                        pot += uncov as f64;
                    }
                    (any, pot)
                },
                |a, b| (a.0 | b.0, a.1 + b.1),
            )?;
            if exists == 0 {
                break;
            }
            k += 1;
            if k > 10_000 + 16 * n {
                return Err(cluster.fail("Algorithm 3 inner-loop budget exhausted"));
            }
            trace.potentials.push(phi);

            // Class sizes for the qualifying sets.
            let alpha = params.alpha;
            let class_sizes: Vec<u64> = cluster.aggregate(
                |_, s: &ScChunk| {
                    let mut counts = vec![0u64; num_classes + 1];
                    for (_, _, uncov) in s.qualifying(threshold) {
                        counts[degree_class_ln(uncov as usize, ln_mf, alpha, num_classes)] += 1;
                    }
                    counts
                },
                |mut a, b| {
                    for (x, y) in a.iter_mut().zip(b) {
                        *x += y;
                    }
                    a
                },
            )?;
            cluster.broadcast(&class_sizes)?;

            // Sample + gather (remaining elements only).
            let seed = params.seed;
            let gs = params.group_size;
            let sample: PayloadBatch<SampleHead, ElemId> =
                cluster.gather_payload(|_, s: &mut ScChunk, sink| {
                    for (slot, r, uncov) in s.qualifying(threshold) {
                        let i = degree_class_ln(uncov as usize, ln_mf, alpha, num_classes);
                        if let Some(gid) = group_choice(
                            seed,
                            [HSC_RNG_TAG, k as u64, i as u64],
                            r.id as u64,
                            group_counts[i],
                            gs,
                            class_sizes[i] as usize,
                        ) {
                            let mut remaining = sink.begin((i as u64, gid as u64, r.id, r.w));
                            for &j in s.elems.row(slot) {
                                if !s.covered.get(j as usize) {
                                    remaining.push(j);
                                }
                            }
                        }
                    }
                })?;
            let group_of = |i: usize| {
                let (class, group, _, _) = sample.head(i);
                (class, group)
            };

            // Group overflow ⇒ fail this iteration, continue (lines 15-17).
            order.clear();
            order.extend(0..sample.len());
            order.sort_unstable_by_key(|&i| {
                let (class, group, id, _) = sample.head(i);
                (class, group, id)
            });
            let overflow = order
                .chunk_by(|&a, &b| group_of(a) == group_of(b))
                .any(|group| group.len() > 4 * gs);
            if overflow {
                trace.failed_rounds += 1;
                continue;
            }

            // Central: one qualifying set per group.
            let mut covered_delta: Vec<ElemId> = Vec::new();
            let mut chosen_delta: Vec<SetId> = Vec::new();
            for group in order.chunk_by(|&a, &b| group_of(a) == group_of(b)) {
                let (class, _) = group_of(group[0]);
                let accept = mf.powf(1.0 - (class as f64 + 1.0) * params.alpha) / 2.0;
                let mut best: Option<(usize, usize)> = None;
                for &i in group {
                    let (_, _, _, w) = sample.head(i);
                    let uncov_cur = sample
                        .payload(i)
                        .iter()
                        .filter(|&&j| !covered.get(j as usize))
                        .count();
                    if uncov_cur as f64 >= accept && uncov_cur as f64 / w >= threshold {
                        best = match best {
                            None => Some((uncov_cur, i)),
                            Some((bu, _)) if uncov_cur > bu => Some((uncov_cur, i)),
                            other => other,
                        };
                    }
                }
                if let Some((uncov_cur, bi)) = best {
                    let (_, _, id, w) = sample.head(bi);
                    let price = w / uncov_cur as f64;
                    solution.push(id);
                    chosen_delta.push(id);
                    for &j in sample.payload(bi) {
                        if covered.set(j as usize) {
                            covered_count += 1;
                            covered_delta.push(j);
                            price_sum += price;
                            prices.push((j, price));
                        }
                    }
                }
            }
            covered_delta.sort_unstable();
            chosen_delta.sort_unstable();
            let covered_words = pack_words(covered_delta.iter().map(|&j| j as usize));
            let delta = (covered_delta, chosen_delta);
            cluster.broadcast(&delta)?;
            cluster.local(|_, s: &mut ScChunk| {
                s.apply_delta(&covered_words, &delta.1);
                s.refresh_candidates(threshold, next);
            })?;
        }
        trace.level_rounds.push(k - level_start);
        if covered_count < m {
            level /= 1.0 + params.eps;
            trace.levels += 1;
            cluster.broadcast_words(1)?;
        }
    }

    solution.sort_unstable();
    let weight = sys.cover_weight(&solution);
    // H_1 for an empty universe, as in `seq::greedy_sc`: 0/0 would be NaN.
    let h = harmonic(sys.max_set_size().max(1));
    let result = CoverResult {
        cover: solution,
        weight,
        lower_bound: price_sum / ((1.0 + params.eps) * h),
        dual: fitted_dual(&prices, params.eps, h),
        iterations: k,
    };
    let (_, metrics) = cluster.into_parts();
    Ok((result, trace, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::is_cover;
    use mrlr_mapreduce::mix2;
    use mrlr_setsys::generators::{bounded_frequency, bounded_set_size, with_uniform_weights};
    use proptest::prelude::*;
    use std::cell::Cell;

    #[test]
    fn matches_driver_bit_for_bit() {
        for seed in 0..3 {
            let sys = with_uniform_weights(bounded_set_size(100, 60, 8, seed), 1.0, 5.0, seed);
            let params = HungryScParams::new(60, 0.4, 0.2, seed);
            let cfg = MrConfig::auto(60, sys.total_size(), 0.4, seed);
            let (mr, mr_trace, metrics) = run(&sys, params, cfg).unwrap();
            let one = cfg.with_machines(1).recording();
            let (seq, seq_trace, _) = run(&sys, params, one).unwrap();
            assert_eq!(mr.cover, seq.cover, "seed {seed}");
            assert_eq!(mr.iterations, seq.iterations);
            assert_eq!(mr_trace.levels, seq_trace.levels);
            assert_eq!(mr_trace.failed_rounds, seq_trace.failed_rounds);
            assert_eq!(mr_trace.level_rounds, seq_trace.level_rounds);
            assert!(is_cover(&sys, &mr.cover));
            assert!(metrics.rounds > 0);
            // (1+ε)H_Δ certificate.
            let bound = (1.0 + params.eps) * harmonic(sys.max_set_size());
            assert!(mr.weight <= bound * mr.lower_bound * (1.0 + 1e-9) + 1e-9);
        }
    }

    /// The stored state size is the record-per-set formula of the nested
    /// layout, recounted from the instance, and nothing a superstep does
    /// changes it (`words()` re-asserts that on every pass of a debug
    /// run).
    #[test]
    fn stored_words_equal_a_recount_through_a_run() {
        let sys = with_uniform_weights(bounded_set_size(100, 60, 8, 2), 1.0, 5.0, 2);
        let cfg = MrConfig::auto(60, sys.total_size(), 0.4, 2).with_machines(5);
        let mut chunks = distribute(&sys, &cfg).unwrap();
        let bitmap = 1 + sys.universe().div_ceil(64);
        let all_elems = pack_words(0..sys.universe());
        let all_sets: Vec<SetId> = (0..sys.n_sets() as SetId).collect();
        for (id, chunk) in chunks.iter_mut().enumerate() {
            let recs: usize = all_sets
                .iter()
                .filter(|&&l| cfg.place(l as u64) == id)
                .map(|&l| 4 + 1 + sys.set(l).len())
                .sum();
            assert_eq!(chunk.words, 1 + 2 * recs + bitmap, "machine {id}");
            assert_eq!(chunk.words(), chunk.metered_words());
            chunk.apply_delta(&all_elems, &all_sets);
            assert!(chunk.uncov.iter().all(|&u| u == 0));
            assert!(chunk.recs.iter().all(|r| r.chosen));
            assert_eq!(chunk.words(), chunk.metered_words());
        }
        run(&sys, HungryScParams::new(60, 0.4, 0.2, 2), cfg).unwrap();
    }

    /// The universe-keyed layout the ranked index replaced, kept as the
    /// oracle: one index row per universe element, inverted from the set
    /// rows, and a covered delta applied element by element.
    struct UniverseIndex {
        index: Csr<u32>,
        covered: Bitset,
        uncov: Vec<u32>,
        chosen: Vec<bool>,
    }

    impl UniverseIndex {
        fn of(chunk: &ScChunk, universe: usize) -> Self {
            UniverseIndex {
                index: chunk.elems.invert(universe, |&j| j as usize).unwrap(),
                covered: Bitset::new(universe),
                uncov: chunk.uncov.clone(),
                chosen: vec![false; chunk.recs.len()],
            }
        }

        fn apply_delta(&mut self, ids: &[SetId], covered_delta: &[ElemId], chosen: &[SetId]) {
            for &j in covered_delta {
                if self.covered.set(j as usize) {
                    for &slot in self.index.row(j as usize) {
                        self.uncov[slot as usize] -= 1;
                    }
                }
            }
            for &i in chosen {
                if let Ok(pos) = ids.binary_search(&i) {
                    self.chosen[pos] = true;
                }
            }
        }
    }

    /// Random systems (universes that are not a multiple of 64 among
    /// them) and one that leaves elements in no set at all, on 1, 2 and 7
    /// machines, so that some machine holds no set containing a given
    /// element.
    fn systems() -> Vec<SetSystem> {
        let mut systems = vec![SetSystem::unit(
            130,
            vec![vec![0, 64, 129], vec![1, 2], vec![], vec![63, 127, 128]],
        )];
        for (seed, universe) in [
            (1u64, 1usize),
            (2, 63),
            (3, 64),
            (4, 65),
            (5, 130),
            (6, 300),
        ] {
            systems.push(bounded_set_size(40, universe, 8.min(universe), seed));
            systems.push(bounded_frequency(30, universe, 3, seed));
        }
        systems
    }

    fn chunks(sys: &SetSystem, machines: usize) -> Vec<ScChunk> {
        let cfg = MrConfig::auto(sys.n_sets(), sys.universe(), 0.3, 9).with_machines(machines);
        distribute(sys, &cfg).unwrap()
    }

    #[test]
    fn held_index_rows_are_the_universe_keyed_oracles_rows() {
        for sys in systems() {
            for machines in [1, 2, 7] {
                for (id, chunk) in chunks(&sys, machines).iter().enumerate() {
                    let oracle = UniverseIndex::of(chunk, sys.universe());
                    let case = format!("universe {}, machine {id} of {machines}", sys.universe());
                    assert_eq!(chunk.index.rows(), chunk.holds.ones(), "{case}");
                    assert_eq!(chunk.index.len(), chunk.elems.len(), "{case}");
                    for j in 0..sys.universe() {
                        let row = oracle.index.row(j);
                        assert_eq!(chunk.holds.bits().get(j), !row.is_empty(), "{case}, j {j}");
                        if !row.is_empty() {
                            let held = chunk.index.row(chunk.holds.rank(j));
                            assert_eq!(held, row, "{case}, j {j}");
                        }
                    }
                }
            }
        }
    }

    /// Deltas applied word-wise leave `uncov`, `chosen` and the covered
    /// bitmap as the element-by-element oracle leaves them, through a
    /// sequence that starts and ends empty, re-covers covered elements
    /// and ends by covering everything.
    #[test]
    fn word_wise_deltas_leave_the_element_by_element_oracles_state() {
        for (case_seed, sys) in systems().into_iter().enumerate() {
            let (m, n) = (sys.universe(), sys.n_sets());
            let mut deltas: Vec<(Vec<ElemId>, Vec<SetId>)> = vec![(vec![], vec![])];
            for step in 0..4u64 {
                let coin = |id: usize, salt: u64, rate: u64| {
                    mix2(case_seed as u64 * 8 + step, salt ^ id as u64).is_multiple_of(rate)
                };
                deltas.push((
                    (0..m)
                        .filter(|&j| coin(j, 1, 2 + step))
                        .map(|j| j as ElemId)
                        .collect(),
                    (0..n)
                        .filter(|&i| coin(i, 2, 5))
                        .map(|i| i as SetId)
                        .collect(),
                ));
            }
            deltas.push(((0..m as ElemId).collect(), (0..n as SetId).collect()));
            deltas.push((vec![], vec![]));
            for machines in [1, 2, 7] {
                for (id, mut chunk) in chunks(&sys, machines).into_iter().enumerate() {
                    let ids: Vec<SetId> = chunk.recs.iter().map(|r| r.id).collect();
                    let mut oracle = UniverseIndex::of(&chunk, m);
                    for (step, (covered, chosen)) in deltas.iter().enumerate() {
                        let words = pack_words(covered.iter().map(|&j| j as usize));
                        chunk.apply_delta(&words, chosen);
                        oracle.apply_delta(&ids, covered, chosen);
                        let case = format!("universe {m}, machine {id} of {machines}, step {step}");
                        let chosen: Vec<bool> = chunk.recs.iter().map(|r| r.chosen).collect();
                        assert_eq!(chunk.uncov, oracle.uncov, "{case}");
                        assert_eq!(chosen, oracle.chosen, "{case}");
                        assert_eq!(chunk.covered, oracle.covered, "{case}");
                    }
                    assert!(chunk.uncov.iter().all(|&u| u == 0));
                    assert!(chunk.recs.iter().all(|r| r.chosen));
                }
            }
        }
    }

    /// A machine's block holds no more than it is metered for, on
    /// `batch-cover`'s two set-system shapes at both of its µ: the
    /// set-frequency one (universe 200 000, 15 machines at µ 0.15),
    /// where an index with an offset per universe element would not fit,
    /// and the set-size one (200 000 sets on one machine).
    #[test]
    fn resident_words_stay_within_the_metered_words() {
        let shapes = [
            bounded_frequency(4000, 200_000, 4, 42),
            bounded_set_size(200_000, 4000, 12, 42),
        ];
        for sys in &shapes {
            for mu in [0.3, 0.15] {
                let cfg = MrConfig::auto(sys.n_sets(), sys.universe(), mu, 42);
                for (id, chunk) in distribute(sys, &cfg).unwrap().iter().enumerate() {
                    let (resident, metered) = (chunk.resident_words(), chunk.words());
                    assert!(
                        resident <= metered,
                        "universe {}, µ {mu}, machine {id} of {}: {resident} resident > {metered} metered words",
                        sys.universe(),
                        cfg.machines,
                    );
                }
            }
        }
    }

    thread_local! {
        /// Cases of the proptest below that dropped two levels in a row
        /// (the next pass finds no list tagged its threshold) and that ran
        /// a level for two or more inner rounds (the passes walk a list).
        static PATHS_REACHED: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random ε, α, group sizes, seeds and machine counts: every run
        /// covers within its `(1+ε)H_Δ` certificate and equals the
        /// one-machine run bit for bit. `α = 2^-x` is drawn
        /// log-uniformly from `(0.01, 1]`: a smaller `α` only multiplies
        /// the classes, and a small one makes few groups, so levels run
        /// several inner rounds.
        fn candidate_lists_leave_every_run_unchanged(
            eps in 0.05f64..=1.0,
            alpha_exp in 0.0f64..6.6,
            group_size in 1usize..4,
            machines in 1usize..6,
            sets in 20usize..200,
            universe in 20usize..400,
            max_weight in 1.01f64..5.0,
            seed in 0u64..1_000_000,
        ) {
            let alpha = 0.5f64.powf(alpha_exp);
            let sys = bounded_set_size(sets, universe, 8, seed);
            let sys = with_uniform_weights(sys, 1.0, max_weight, seed);
            let params = HungryScParams { eps, alpha, group_size, seed };
            let cfg = MrConfig::auto(universe, sys.total_size(), 0.4, seed).with_machines(machines);
            let (mr, mr_trace, _) = run(&sys, params, cfg).unwrap();
            let (seq, seq_trace, _) = run(&sys, params, cfg.with_machines(1).recording()).unwrap();
            let case = format!("eps={eps} alpha={alpha} gs={group_size} seed={seed}");
            prop_assert!(is_cover(&sys, &mr.cover), "{}", case);
            let bound = (1.0 + eps) * harmonic(sys.max_set_size());
            prop_assert!(mr.weight <= bound * mr.lower_bound * (1.0 + 1e-9) + 1e-9, "{}", case);
            prop_assert_eq!(&mr.cover, &seq.cover, "{}", case);
            prop_assert_eq!(mr.iterations, seq.iterations, "{}", case);
            prop_assert_eq!(mr_trace.levels, seq_trace.levels, "{}", case);
            prop_assert_eq!(mr_trace.failed_rounds, seq_trace.failed_rounds, "{}", case);
            prop_assert_eq!(&mr_trace.level_rounds, &seq_trace.level_rounds, "{}", case);
            let rounds = &mr_trace.level_rounds;
            PATHS_REACHED.with(|reached| {
                let (drops, repeats) = reached.get();
                reached.set((
                    drops + usize::from(rounds.contains(&0)),
                    repeats + usize::from(rounds.iter().any(|&r| r >= 2)),
                ));
            });
        }
    }

    #[test]
    fn candidate_lists_reach_both_paths_and_change_nothing() {
        PATHS_REACHED.with(|reached| reached.set((0, 0)));
        candidate_lists_leave_every_run_unchanged();
        let (drops, repeats) = PATHS_REACHED.with(Cell::get);
        assert!(drops > 0, "no case dropped two levels in a row");
        assert!(repeats > 0, "no case ran a level for two inner rounds");
    }

    #[test]
    fn potential_trace_recorded() {
        let sys = bounded_set_size(200, 100, 12, 5);
        let params = HungryScParams::new(100, 0.5, 0.25, 5);
        let cfg = MrConfig::auto(100, sys.total_size(), 0.5, 5);
        let (_, trace, _) = run(&sys, params, cfg).unwrap();
        assert!(!trace.potentials.is_empty());
    }
}
