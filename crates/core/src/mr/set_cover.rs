//! MapReduce implementation of Algorithm 1 (Theorem 2.4, general `f`):
//! `f`-approximate weighted set cover.
//!
//! Layout: elements live on machines in the dual representation `T_j`
//! (`O(f · n^{1+µ})` words per machine). The central machine holds the
//! residual set weights (`n` words). Per iteration:
//!
//! 1. aggregate `|U_r|` up the tree;
//! 2. every machine samples its alive elements with `p = min(1, 2η/|U_r|)`
//!    and gathers `(j, T_j)` messages on the flat payload plane to the
//!    central machine (fail if `|U'| > 6η`);
//! 3. the central machine runs the sequential local ratio on the sample;
//! 4. the newly-zeroed set ids are broadcast down the `n^µ`-ary tree
//!    (this is the `O(c/µ)`-per-iteration cost that makes the general-`f`
//!    bound `O((c/µ)²)`);
//! 5. machines drop every element with a chosen set in its `T_j`.
//!
//! A machine's block is flat: its element ids, one [`Csr`] arena holding
//! every `T_j` (copied row by row from the instance's cached
//! [`SetSystem::dual`], so the distribution counts no frequencies of its
//! own), and an alive flag per element. The *metered* size is
//! still the record-per-element formula; only the alive flags and the
//! cover bitmap change after distribution — neither changes size — so it
//! is computed once.

use mrlr_mapreduce::rng::coin;
use mrlr_mapreduce::{Bitset, Cluster, Csr, Metrics, MrError, MrResult, PayloadBatch, WordSized};
use mrlr_setsys::{ElemId, SetId, SetSystem};

use crate::mr::{place_rows, MrConfig, SET_COVER_SAMPLE_SLACK};
use crate::rlr::setcover::{require_coverable, sample_probability, SC_COIN_TAG};
use crate::seq::local_ratio_sc::ScLocalRatio;
use crate::types::CoverResult;

struct ElemChunk {
    /// Ascending element id; element `ids[slot]` has `T_j` = row `slot`
    /// of `tj` and aliveness `alive[slot]`.
    ids: Vec<ElemId>,
    tj: Csr<SetId>,
    alive: Vec<bool>,
    in_cover: Bitset,
    alive_count: usize,
    /// [`ElemChunk::metered_words`], fixed at distribution.
    words: usize,
}

impl WordSized for ElemChunk {
    fn words(&self) -> usize {
        debug_assert_eq!(self.words, self.metered_words());
        self.words
    }
}

impl ElemChunk {
    fn new(ids: Vec<ElemId>, tj: Csr<SetId>, n_sets: usize) -> Self {
        let mut chunk = ElemChunk {
            alive: vec![true; ids.len()],
            alive_count: ids.len(),
            ids,
            tj,
            in_cover: Bitset::new(n_sets),
            words: 0,
        };
        chunk.words = chunk.metered_words();
        chunk
    }

    /// The simulated size: a 2-word record plus its `T_j` list per
    /// element, the cover bitmap and the alive counter.
    fn metered_words(&self) -> usize {
        let recs: usize = self.tj.iter().map(|tj| 2 + 1 + tj.len()).sum();
        2 + recs + self.in_cover.words()
    }
}

/// Distributes elements by hash: element `j`'s row is `T_j`, copied from
/// the instance's dual.
fn distribute(sys: &SetSystem, cfg: &MrConfig) -> MrResult<Vec<ElemChunk>> {
    let dual = sys.dual();
    let mut placed = place_rows(
        cfg.machines,
        sys.universe(),
        |j| cfg.place(j as u64),
        |j| dual[j].len(),
        0,
    )?;
    for (j, tj) in dual.iter().enumerate() {
        let (dst, row) = placed.at[j];
        for &i in tj {
            placed.arenas[dst as usize].push(row as usize, i);
        }
    }
    Ok(placed
        .ids
        .into_iter()
        .zip(placed.arenas)
        .map(|(ids, arena)| ElemChunk::new(ids, arena.finish(), sys.n_sets()))
        .collect())
}

/// Fails the run when a gathered sample `U'` holds more than
/// [`SET_COVER_SAMPLE_SLACK`]` · η` elements (Algorithm 1's `fail`).
pub(crate) fn check_sample<S: mrlr_mapreduce::MachineState>(
    cluster: &Cluster<S>,
    len: usize,
    eta: usize,
) -> MrResult<()> {
    if len > SET_COVER_SAMPLE_SLACK * eta {
        return Err(cluster.fail(format!(
            "|U'| = {len} > {SET_COVER_SAMPLE_SLACK}η = {}",
            SET_COVER_SAMPLE_SLACK * eta
        )));
    }
    Ok(())
}

/// Algorithm 1's central pass: walks the sample's `(j, T_j)` in element
/// order through the sequential local ratio and returns the sets it
/// zeroed, ascending and without repeats.
pub(crate) fn central_pass<T: AsRef<[SetId]>>(
    lr: &mut ScLocalRatio,
    sample: impl IntoIterator<Item = (ElemId, T)>,
) -> Vec<SetId> {
    let mut newly_zero: Vec<SetId> = Vec::new();
    let mut zero_before: Vec<bool> = Vec::new();
    for (j, tj) in sample {
        let tj = tj.as_ref();
        zero_before.clear();
        zero_before.extend(tj.iter().map(|&i| lr.in_cover(i)));
        if lr.process(j, tj).is_some() {
            for (&i, &was_zero) in tj.iter().zip(&zero_before) {
                if !was_zero && lr.in_cover(i) {
                    newly_zero.push(i);
                }
            }
        }
    }
    newly_zero.sort_unstable();
    newly_zero.dedup();
    newly_zero
}

/// Runs Algorithm 1 on the cluster simulator. Returns the cover and the
/// cluster metrics. The output depends on `(cfg.eta, cfg.seed)` only,
/// not on the machine count.
///
/// [`crate::api::Registry`] runs this for `set-cover-f` on every cluster
/// backend, on the runtime `cfg.exec.runtime` names.
pub fn run(sys: &SetSystem, cfg: MrConfig) -> MrResult<(CoverResult, Metrics)> {
    require_coverable(sys)?;
    if cfg.eta == 0 {
        return Err(MrError::BadConfig("eta must be positive".into()));
    }
    let m = sys.universe();
    let n_sets = sys.n_sets();

    let mut cluster = Cluster::new(cfg.cluster(), distribute(sys, &cfg)?)?;

    // Central state: residual weights (n words) + dual accumulator.
    let mut lr = ScLocalRatio::new(sys.weights());
    cluster.charge_central(n_sets + 2)?;
    // Central scratch, reused every round: the sample's sort permutation.
    let mut order: Vec<usize> = Vec::new();

    let mut round = 0usize;
    loop {
        let alive = cluster.aggregate_sum(|_, s: &ElemChunk| s.alive_count)?;
        if alive == 0 {
            break;
        }
        round += 1;
        let p = sample_probability(cfg.eta, alive);
        // Metered broadcast of p (one word) so every machine can sample.
        cluster.broadcast_words(1)?;

        let seed = cfg.seed;
        let sample: PayloadBatch<ElemId, SetId> =
            cluster.gather_payload(|_, s: &mut ElemChunk, sink| {
                for (slot, &j) in s.ids.iter().enumerate() {
                    if s.alive[slot] && coin(seed, &[SC_COIN_TAG, round as u64, j as u64], p) {
                        sink.push_slice(j, s.tj.row(slot));
                    }
                }
            })?;
        check_sample(&cluster, sample.len(), cfg.eta)?;

        // Central: sequential local ratio on the sample in ascending
        // element order (matching the sequential driver).
        order.clear();
        order.extend(0..sample.len());
        order.sort_unstable_by_key(|&i| sample.head(i));
        let newly_zero = central_pass(&mut lr, order.iter().map(|&i| sample.get(i)));

        // Broadcast the cover delta down the tree; machines update.
        cluster.broadcast(&newly_zero)?;
        cluster.local(|_, s: &mut ElemChunk| {
            for &i in &newly_zero {
                s.in_cover.set(i as usize);
            }
            for (slot, alive) in s.alive.iter_mut().enumerate() {
                if *alive && s.tj.row(slot).iter().any(|&i| s.in_cover.get(i as usize)) {
                    *alive = false;
                    s.alive_count -= 1;
                }
            }
        })?;

        if round > 64 + 2 * m {
            return Err(cluster.fail("round budget exhausted"));
        }
    }

    let cover = lr.cover();
    debug_assert!(sys.covers(&cover));
    let result = CoverResult {
        weight: sys.cover_weight(&cover),
        cover,
        lower_bound: lr.dual(),
        dual: lr.dual_vector(),
        iterations: round,
    };
    let (_, metrics) = cluster.into_parts();
    Ok((result, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::is_cover;
    use mrlr_setsys::generators::{bounded_frequency, with_uniform_weights};

    #[test]
    fn matches_sequential_driver_bit_for_bit() {
        for seed in 0..4 {
            let sys = with_uniform_weights(bounded_frequency(40, 600, 3, seed), 1.0, 8.0, seed);
            let cfg = MrConfig::auto(40, 600, 0.5, seed);
            let (mr, metrics) = run(&sys, cfg).unwrap();
            let (seq, _) = run(&sys, cfg.with_machines(1).recording()).unwrap();
            assert_eq!(mr.cover, seq.cover, "seed {seed}");
            assert_eq!(mr.iterations, seq.iterations);
            assert!((mr.lower_bound - seq.lower_bound).abs() < 1e-9);
            assert!(metrics.rounds > 0);
            assert!(is_cover(&sys, &mr.cover));
        }
    }

    /// The stored state size is the record-per-element formula of the
    /// nested layout, recounted from the instance, and nothing a superstep
    /// does changes it (`words()` re-asserts that on every pass of a
    /// debug run).
    #[test]
    fn stored_words_equal_a_recount_through_a_run() {
        let sys = with_uniform_weights(bounded_frequency(40, 600, 3, 2), 1.0, 8.0, 2);
        let cfg = MrConfig::auto(40, 600, 0.5, 2).with_machines(5);
        let dual = sys.dual();
        let bitmap = 1 + sys.n_sets().div_ceil(64);
        for (id, chunk) in distribute(&sys, &cfg).unwrap().iter().enumerate() {
            let local = |j: &usize| cfg.place(*j as u64) == id;
            let recs: usize = (0..sys.universe())
                .filter(local)
                .map(|j| 2 + 1 + dual[j].len())
                .sum();
            assert_eq!(chunk.words, 2 + recs + bitmap, "machine {id}");
            assert_eq!(chunk.words(), chunk.metered_words());
            for (slot, &j) in chunk.ids.iter().enumerate() {
                assert_eq!(chunk.tj.row(slot), &dual[j as usize]);
            }
        }
        run(&sys, cfg).unwrap();
    }

    #[test]
    fn metrics_reflect_tree_depth() {
        let sys = bounded_frequency(30, 2000, 2, 1);
        // Force many machines and a small fanout: broadcasts must take
        // multiple rounds each.
        let mut cfg = MrConfig::auto(30, 2000, 0.3, 2).with_machines(16);
        cfg.fanout = 2;
        let (_, metrics) = run(&sys, cfg).unwrap();
        let (_, _, bcast, agg) = metrics.rounds_by_kind();
        assert!(bcast >= 2, "broadcast rounds {bcast}");
        assert!(agg >= 1, "aggregate rounds {agg}");
        assert!(metrics.peak_machine_words <= cfg.capacity);
    }

    #[test]
    fn undersized_capacity_fails_cleanly() {
        let sys = bounded_frequency(30, 500, 2, 3);
        let cfg = MrConfig::auto(30, 500, 0.3, 3).with_capacity(40);
        match run(&sys, cfg) {
            Err(MrError::CapacityExceeded { .. }) | Err(MrError::AlgorithmFailed { .. }) => {}
            other => panic!("expected capacity failure, got {other:?}"),
        }
    }

    #[test]
    fn single_machine_degenerate() {
        let sys = bounded_frequency(10, 50, 2, 4);
        let cfg = MrConfig::auto(10, 50, 0.5, 4).with_machines(1);
        let (r, metrics) = run(&sys, cfg).unwrap();
        assert!(is_cover(&sys, &r.cover));
        // One machine: broadcasts are free, gathers still counted.
        assert!(metrics.rounds >= 1);
    }

    /// Line 4 of Algorithm 1 samples each alive element with probability
    /// `p = 2η/|U|`. Every element here lies in exactly two sets, so a
    /// sampled element ships `1 + 1 + 2` words and the first gather's
    /// volume counts the first round's sample exactly. Pooled over 32
    /// seeds, the empirical rate lies within 4σ of `p`.
    #[test]
    fn first_round_samples_each_element_at_rate_two_eta_over_u() {
        let (n_sets, universe) = (40usize, 2000usize);
        let mut sets = vec![Vec::new(); n_sets];
        for j in 0..universe {
            sets[j % n_sets].push(j as ElemId);
            sets[(j + 1) % n_sets].push(j as ElemId);
        }
        let sys = SetSystem::new(universe, sets, vec![1.0; n_sets]);
        let seeds = 32u64;
        let mut sampled = 0usize;
        let mut eta = 0;
        for seed in 0..seeds {
            let cfg = MrConfig::auto(n_sets, universe, 0.1, seed);
            eta = cfg.eta;
            let (_, metrics) = run(&sys, cfg).unwrap();
            let gather = metrics
                .per_round
                .iter()
                .find(|r| r.kind == mrlr_mapreduce::RoundKind::Gather)
                .expect("round one gathers its sample");
            assert_eq!(gather.total % 4, 0, "seed {seed}");
            sampled += gather.total / 4;
        }
        let trials = seeds as f64 * universe as f64;
        let p = 2.0 * eta as f64 / universe as f64;
        assert!(p < 0.5, "the regime must leave room to sample (p = {p})");
        let sigma = (trials * p * (1.0 - p)).sqrt();
        let expected = trials * p;
        assert!(
            (sampled as f64 - expected).abs() <= 4.0 * sigma,
            "sampled {sampled} of {trials} elements, expected {expected:.0} ± {:.0}",
            4.0 * sigma
        );
    }
}
