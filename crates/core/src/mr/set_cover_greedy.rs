//! MapReduce implementation of Algorithm 3 (Theorem 4.6): the hungry-greedy
//! `(1+ε) H_Δ` approximation for minimum weight set cover.
//!
//! Layout: sets are hash-partitioned (`O(m^{1+µ})` words per machine); each
//! machine keeps a replicated covered-elements bitmap (`⌈m/64⌉` words) and
//! per-set uncovered counts, refreshed by broadcast deltas. Per inner
//! round: a tree aggregation reports whether any set still clears the
//! current level `L/(1+ε)` together with the class sizes; machines sample
//! groups locally and gather `(class, group, id, w, remaining elements)`
//! tuples; the central machine takes at most one qualifying set per group
//! and broadcasts the covered delta. Group overflows (`> 4·m^{µ/2}`)
//! *fail the iteration and continue*, exactly as lines 15–17 prescribe.

use std::collections::HashMap;

use mrlr_mapreduce::{Bitset, Cluster, Metrics, MrError, MrResult, WordSized};
use mrlr_setsys::{ElemId, SetId, SetSystem};

use crate::hungry::mis::{degree_class, group_choice};
use crate::hungry::setcover::{HungryScParams, HungryScTrace, HSC_RNG_TAG};
use crate::mr::{dist_cache, MrConfig};
use crate::seq::greedy_sc::{fitted_dual, harmonic};
use crate::types::CoverResult;

#[derive(Clone)]
struct SetRecM {
    id: SetId,
    w: f64,
    elems: Vec<ElemId>,
    uncov: usize,
    chosen: bool,
}

impl WordSized for SetRecM {
    fn words(&self) -> usize {
        4 + self.elems.words()
    }
}

#[derive(Clone)]
struct ScChunk {
    recs: Vec<SetRecM>,
    covered: Bitset,
    /// element → local set slots (charged as a mirror of the input).
    index: HashMap<ElemId, Vec<usize>>,
}

impl WordSized for ScChunk {
    fn words(&self) -> usize {
        // recs + covered bitmap + reverse index (≈ the recs again).
        1 + self.recs.iter().map(WordSized::words).sum::<usize>() * 2 + self.covered.words()
    }
}

impl ScChunk {
    fn apply_delta(&mut self, covered_delta: &[ElemId], chosen_delta: &[SetId]) {
        for &j in covered_delta {
            if self.covered.set(j as usize) {
                if let Some(slots) = self.index.get(&j) {
                    for &s in slots {
                        self.recs[s].uncov -= 1;
                    }
                }
            }
        }
        for &i in chosen_delta {
            // Chosen sets live on exactly one machine; linear scan is fine
            // (recs are sorted by id — binary search).
            if let Ok(pos) = self.recs.binary_search_by_key(&i, |r| r.id) {
                self.recs[pos].chosen = true;
            }
        }
    }
}

type SampleMsg = (u64, u64, SetId, f64, Vec<ElemId>);

/// Algorithm 3 on the cluster. Output is bit-identical to
/// [`crate::hungry::setcover::hungry_set_cover`] with the same parameters.
///
/// [`crate::api::GreedySetCoverDriver`] runs this for every cluster backend,
/// on the runtime `cfg.exec.runtime` names.
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
    if !sys.is_coverable() {
        return Err(MrError::Infeasible("element contained in no set".into()));
    }

    let m = sys.universe();
    let n = sys.n_sets();
    let mf = (m.max(2)) as f64;
    let num_classes = (1.0 / params.alpha).ceil() as usize;

    // Distribute sets; batch jobs sharing the instance + shape reuse the
    // snapshot.
    let key = dist_cache::DistKey::new(0x0073_6367, sys, (m, n), &cfg);
    let chunks: Vec<ScChunk> = dist_cache::get_or_build(key, || {
        let mut chunks: Vec<ScChunk> = (0..cfg.machines)
            .map(|_| ScChunk {
                recs: Vec::new(),
                covered: Bitset::new(m),
                index: HashMap::new(),
            })
            .collect();
        for l in 0..n {
            let dst = cfg.place(l as u64);
            let slot = chunks[dst].recs.len();
            let elems = sys.set(l as SetId).to_vec();
            for &j in &elems {
                chunks[dst].index.entry(j).or_default().push(slot);
            }
            chunks[dst].recs.push(SetRecM {
                id: l as SetId,
                w: sys.weight(l as SetId),
                uncov: elems.len(),
                elems,
                chosen: false,
            });
        }
        // recs are pushed in ascending id order per machine already.
        chunks
    });
    let mut cluster = Cluster::new(cfg.cluster(), chunks)?;

    // Central state: covered bitmap + bookkeeping.
    let mut covered = Bitset::new(m);
    let mut covered_count = 0usize;
    let mut solution: Vec<SetId> = Vec::new();
    let mut price_sum = 0.0f64;
    let mut prices: Vec<(ElemId, f64)> = Vec::new();
    let mut trace = HungryScTrace::default();
    cluster.charge_central(2 + m / 32)?;

    // Initial level L = max |S|/w, aggregated up the tree.
    let mut level = cluster.aggregate_max_f64(|_, s: &ScChunk| {
        s.recs
            .iter()
            .map(|r| r.uncov as f64 / r.w)
            .fold(0.0f64, f64::max)
    })?;
    let mut k = 0usize;

    while covered_count < m {
        loop {
            // One tree aggregation: (any set clears the level?, Φ_k).
            let lvl = level;
            let eps = params.eps;
            let (exists, phi) = cluster.aggregate(
                |_, s: &ScChunk| {
                    let mut any = 0u64;
                    let mut pot = 0.0f64;
                    for r in &s.recs {
                        if !r.chosen && r.uncov as f64 / r.w >= lvl / (1.0 + eps) {
                            if r.uncov > 0 {
                                any = 1;
                            }
                            pot += r.uncov as f64;
                        }
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
                    for r in &s.recs {
                        if !r.chosen && r.uncov > 0 && r.uncov as f64 / r.w >= lvl / (1.0 + eps) {
                            counts[degree_class(r.uncov, mf, alpha, num_classes)] += 1;
                        }
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
            let sizes = class_sizes.clone();
            let mut sample: Vec<SampleMsg> = cluster.gather(move |_, s: &mut ScChunk| {
                let mut out = Vec::new();
                for r in &s.recs {
                    if r.chosen || r.uncov == 0 || (r.uncov as f64 / r.w) < lvl / (1.0 + eps) {
                        continue;
                    }
                    let i = degree_class(r.uncov, mf, alpha, num_classes);
                    let groups_count = (2.0 * mf.powf((i + 1) as f64 * alpha)).ceil() as usize;
                    if let Some(gid) = group_choice(
                        seed,
                        &[HSC_RNG_TAG, k as u64, i as u64],
                        r.id as u64,
                        groups_count,
                        gs,
                        sizes[i] as usize,
                    ) {
                        let remaining: Vec<ElemId> = r
                            .elems
                            .iter()
                            .copied()
                            .filter(|&j| !s.covered.get(j as usize))
                            .collect();
                        out.push((i as u64, gid as u64, r.id, r.w, remaining));
                    }
                }
                out
            })?;

            // Group overflow ⇒ fail this iteration, continue (lines 15-17).
            sample.sort_unstable_by_key(|&(c, gg, id, _, _)| (c, gg, id));
            let mut overflow = false;
            {
                let mut idx = 0usize;
                while idx < sample.len() {
                    let key = (sample[idx].0, sample[idx].1);
                    let mut count = 0usize;
                    while idx < sample.len() && (sample[idx].0, sample[idx].1) == key {
                        count += 1;
                        idx += 1;
                    }
                    if count > 4 * gs {
                        overflow = true;
                        break;
                    }
                }
            }
            if overflow {
                trace.failed_rounds += 1;
                continue;
            }

            // Central: one qualifying set per group.
            let mut covered_delta: Vec<ElemId> = Vec::new();
            let mut chosen_delta: Vec<SetId> = Vec::new();
            let mut idx = 0usize;
            while idx < sample.len() {
                let key = (sample[idx].0, sample[idx].1);
                let accept = mf.powf(1.0 - (key.0 as f64 + 1.0) * params.alpha) / 2.0;
                let mut best: Option<(usize, usize)> = None;
                while idx < sample.len() && (sample[idx].0, sample[idx].1) == key {
                    let (_, _, id, w, ref remaining) = sample[idx];
                    let _ = id;
                    let uncov_cur = remaining
                        .iter()
                        .filter(|&&j| !covered.get(j as usize))
                        .count();
                    if uncov_cur as f64 >= accept
                        && uncov_cur as f64 / w >= level / (1.0 + params.eps)
                    {
                        best = match best {
                            None => Some((uncov_cur, idx)),
                            Some((bu, _)) if uncov_cur > bu => Some((uncov_cur, idx)),
                            other => other,
                        };
                    }
                    idx += 1;
                }
                if let Some((uncov_cur, bi)) = best {
                    let (_, _, id, w, remaining) = sample[bi].clone();
                    let price = w / uncov_cur as f64;
                    solution.push(id);
                    chosen_delta.push(id);
                    for j in remaining {
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
            cluster.broadcast(&(covered_delta.clone(), chosen_delta.clone()))?;
            cluster
                .local(move |_, s: &mut ScChunk| s.apply_delta(&covered_delta, &chosen_delta))?;
        }
        if covered_count < m {
            level /= 1.0 + params.eps;
            trace.levels += 1;
            cluster.broadcast_words(1)?;
        }
    }

    solution.sort_unstable();
    let weight = sys.cover_weight(&solution);
    let h = harmonic(sys.max_set_size());
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
    use crate::hungry::setcover::hungry_set_cover;
    use crate::verify::is_cover;
    use mrlr_setsys::generators::{bounded_set_size, with_uniform_weights};

    #[test]
    fn matches_driver_bit_for_bit() {
        for seed in 0..3 {
            let sys = with_uniform_weights(bounded_set_size(100, 60, 8, seed), 1.0, 5.0, seed);
            let params = HungryScParams::new(60, 0.4, 0.2, seed);
            let cfg = MrConfig::auto(60, sys.total_size(), 0.4, seed);
            let (mr, mr_trace, metrics) = run(&sys, params, cfg).unwrap();
            let (seq, seq_trace) = hungry_set_cover(&sys, params).unwrap();
            assert_eq!(mr.cover, seq.cover, "seed {seed}");
            assert_eq!(mr.iterations, seq.iterations);
            assert_eq!(mr_trace.levels, seq_trace.levels);
            assert_eq!(mr_trace.failed_rounds, seq_trace.failed_rounds);
            assert!(is_cover(&sys, &mr.cover));
            assert!(metrics.rounds > 0);
            // (1+ε)H_Δ certificate.
            let bound = (1.0 + params.eps) * harmonic(sys.max_set_size());
            assert!(mr.weight <= bound * mr.lower_bound * (1.0 + 1e-9) + 1e-9);
        }
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
