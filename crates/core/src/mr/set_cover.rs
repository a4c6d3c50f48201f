//! MapReduce implementation of Algorithm 1 (Theorem 2.4, general `f`):
//! `f`-approximate weighted set cover.
//!
//! Layout: elements live on machines in the dual representation `T_j`
//! (`O(f · n^{1+µ})` words per machine). The central machine holds the
//! residual set weights (`n` words). Per iteration:
//!
//! 1. aggregate `|U_r|` up the tree;
//! 2. every machine samples its alive elements with `p = min(1, 2η/|U_r|)`
//!    and gathers `(j, T_j)` pairs to the central machine (fail if
//!    `|U'| > 6η`);
//! 3. the central machine runs the sequential local ratio on the sample;
//! 4. the newly-zeroed set ids are broadcast down the `n^µ`-ary tree
//!    (this is the `O(c/µ)`-per-iteration cost that makes the general-`f`
//!    bound `O((c/µ)²)`);
//! 5. machines drop every element with a chosen set in its `T_j`.

use mrlr_mapreduce::rng::coin;
use mrlr_mapreduce::{Bitset, Cluster, Metrics, MrError, MrResult, WordSized};
use mrlr_setsys::{ElemId, SetId, SetSystem};

use crate::mr::{dist_cache, MrConfig, SET_COVER_SAMPLE_SLACK};
use crate::rlr::setcover::{sample_probability, SC_COIN_TAG};
use crate::seq::local_ratio_sc::ScLocalRatio;
use crate::types::CoverResult;

#[derive(Clone)]
struct ElemRec {
    id: ElemId,
    tj: Vec<SetId>,
    alive: bool,
}

impl WordSized for ElemRec {
    fn words(&self) -> usize {
        2 + self.tj.words()
    }
}

#[derive(Clone)]
struct ElemChunk {
    recs: Vec<ElemRec>,
    in_cover: Bitset,
    alive_count: usize,
}

impl WordSized for ElemChunk {
    fn words(&self) -> usize {
        2 + self.recs.iter().map(WordSized::words).sum::<usize>() + self.in_cover.words()
    }
}

/// Runs Algorithm 1 on the cluster simulator. Returns the cover and the
/// cluster metrics. Output is bit-identical to
/// [`crate::rlr::setcover::approx_set_cover_f`] with `(cfg.eta, cfg.seed)`.
///
/// [`crate::api::SetCoverFDriver`] runs this for every cluster backend,
/// on the runtime `cfg.exec.runtime` names.
pub fn run(sys: &SetSystem, cfg: MrConfig) -> MrResult<(CoverResult, Metrics)> {
    if !sys.is_coverable() {
        return Err(MrError::Infeasible(
            "set cover instance leaves an element uncovered".into(),
        ));
    }
    if cfg.eta == 0 {
        return Err(MrError::BadConfig("eta must be positive".into()));
    }
    let m = sys.universe();
    let n_sets = sys.n_sets();

    // Distribute elements by hash; the dual (element → containing sets)
    // view is only needed to build the snapshot, so cache hits skip it.
    let key = dist_cache::DistKey::new(0x0073_6366, sys, (m, n_sets), &cfg);
    let chunks: Vec<ElemChunk> = dist_cache::get_or_build(key, || {
        let dual_view = sys.dual();
        let mut chunks: Vec<ElemChunk> = (0..cfg.machines)
            .map(|_| ElemChunk {
                recs: Vec::new(),
                in_cover: Bitset::new(n_sets),
                alive_count: 0,
            })
            .collect();
        for (j, tj) in dual_view.iter().enumerate().take(m) {
            let dst = cfg.place(j as u64);
            chunks[dst].recs.push(ElemRec {
                id: j as ElemId,
                tj: tj.clone(),
                alive: true,
            });
            chunks[dst].alive_count += 1;
        }
        chunks
    });
    let mut cluster = Cluster::new(cfg.cluster(), chunks)?;

    // Central state: residual weights (n words) + dual accumulator.
    let mut lr = ScLocalRatio::new(sys.weights());
    cluster.charge_central(n_sets + 2)?;

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
        let mut sample: Vec<(ElemId, Vec<SetId>)> = cluster.gather(|_, s: &mut ElemChunk| {
            s.recs
                .iter()
                .filter(|r| r.alive && coin(seed, &[SC_COIN_TAG, round as u64, r.id as u64], p))
                .map(|r| (r.id, r.tj.clone()))
                .collect::<Vec<_>>()
        })?;
        if sample.len() > SET_COVER_SAMPLE_SLACK * cfg.eta {
            return Err(cluster.fail(format!(
                "|U'| = {} > {}η = {}",
                sample.len(),
                SET_COVER_SAMPLE_SLACK,
                SET_COVER_SAMPLE_SLACK * cfg.eta
            )));
        }

        // Central: sequential local ratio on the sample in ascending
        // element order (matching the sequential driver).
        sample.sort_unstable_by_key(|(j, _)| *j);
        let mut newly_zero: Vec<SetId> = Vec::new();
        for (j, tj) in &sample {
            let zero_before: Vec<bool> = tj.iter().map(|&i| lr.in_cover(i)).collect();
            if lr.process(*j, tj).is_some() {
                for (&i, was_zero) in tj.iter().zip(zero_before) {
                    if !was_zero && lr.in_cover(i) {
                        newly_zero.push(i);
                    }
                }
            }
        }
        newly_zero.sort_unstable();
        newly_zero.dedup();

        // Broadcast the cover delta down the tree; machines update.
        cluster.broadcast(&newly_zero)?;
        let delta = newly_zero;
        cluster.local(move |_, s: &mut ElemChunk| {
            for &i in &delta {
                s.in_cover.set(i as usize);
            }
            for r in &mut s.recs {
                if r.alive && r.tj.iter().any(|&i| s.in_cover.get(i as usize)) {
                    r.alive = false;
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
    use crate::rlr::setcover::approx_set_cover_f;
    use crate::verify::is_cover;
    use mrlr_setsys::generators::{bounded_frequency, with_uniform_weights};

    #[test]
    fn matches_sequential_driver_bit_for_bit() {
        for seed in 0..4 {
            let sys = with_uniform_weights(bounded_frequency(40, 600, 3, seed), 1.0, 8.0, seed);
            let cfg = MrConfig::auto(40, 600, 0.5, seed);
            let (mr, metrics) = run(&sys, cfg).unwrap();
            let seq = approx_set_cover_f(&sys, cfg.eta, seed).unwrap();
            assert_eq!(mr.cover, seq.cover, "seed {seed}");
            assert_eq!(mr.iterations, seq.iterations);
            assert!((mr.lower_bound - seq.lower_bound).abs() < 1e-9);
            assert!(metrics.rounds > 0);
            assert!(is_cover(&sys, &mr.cover));
        }
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
}
