//! MapReduce implementation of Algorithm 7 (Theorem D.3):
//! `(3 − 2/b + 2ε)`-approximate maximum weight b-matching.
//!
//! Same layout as [`crate::mr::matching`] (vertex-partitioned incidence,
//! replicated `ϕ`), with two differences forced by `b ≥ 2`:
//!
//! * pushed edges do **not** die automatically (the reduction spreads
//!   `m_e/b(v)` per endpoint), so pushed edge ids are broadcast and marked;
//! * aliveness is the ε-adjusted rule `w > (1+ε)(ϕ(u)+ϕ(v))`, and each
//!   vertex samples a fixed count `b(v)·ln(1/δ)·n^µ` of alive incident
//!   edges without replacement.

use std::collections::HashMap;

use mrlr_graph::{EdgeId, Graph, VertexId};
use mrlr_mapreduce::rng::DetRng;
use mrlr_mapreduce::{Bitset, Cluster, Metrics, MrError, MrResult, WordSized};

use crate::mr::{dist_cache, MrConfig};
use crate::rlr::bmatching::{push_budget, BMatchingParams, BMATCH_RNG_TAG};
use crate::seq::local_ratio_bmatching::BMatchingLocalRatio;
use crate::types::{MatchingResult, POS_TOL};

#[derive(Clone)]
struct VertexAdj {
    v: VertexId,
    b: u32,
    /// `(edge id, other endpoint, weight, pushed)`, ascending edge id.
    inc: Vec<(EdgeId, VertexId, f64, bool)>,
}

impl WordSized for VertexAdj {
    fn words(&self) -> usize {
        2 + 1 + self.inc.len() * 4
    }
}

#[derive(Clone)]
struct BMatchState {
    vertices: Vec<VertexAdj>,
    phi: Vec<f64>,
    eps: f64,
    /// Edge id → (vertex slot, incidence slot) pairs on this machine.
    index: HashMap<EdgeId, Vec<(usize, usize)>>,
    /// Round-local alive-incidence staging, reused across sampling rounds
    /// (empty between supersteps; never part of the metered state words).
    scratch: Vec<(EdgeId, VertexId, f64)>,
}

impl BMatchState {
    fn edge_alive(&self, u: VertexId, o: VertexId, w: f64, pushed: bool) -> bool {
        !pushed && w - (1.0 + self.eps) * (self.phi[u as usize] + self.phi[o as usize]) > POS_TOL
    }

    fn alive_halves(&self) -> usize {
        self.vertices
            .iter()
            .map(|va| {
                va.inc
                    .iter()
                    .filter(|&&(_, o, w, p)| self.edge_alive(va.v, o, w, p))
                    .count()
            })
            .sum()
    }
}

impl WordSized for BMatchState {
    fn words(&self) -> usize {
        // The index mirrors the incidence lists: charge it once more.
        1 + self.vertices.iter().map(WordSized::words).sum::<usize>() * 2 + self.phi.len()
    }
}

/// Runs Algorithm 7 on the cluster. Output is bit-identical to
/// [`crate::rlr::bmatching::approx_b_matching`] with the same parameters.
///
/// [`crate::api::BMatchingDriver`] runs this for every cluster backend,
/// on the runtime `cfg.exec.runtime` names.
pub fn run(
    g: &Graph,
    b: &[u32],
    params: BMatchingParams,
    cfg: MrConfig,
) -> MrResult<(MatchingResult, Metrics)> {
    if params.eps <= 0.0 || !params.eps.is_finite() {
        return Err(MrError::BadConfig("eps must be positive".into()));
    }
    if params.eta == 0 || params.n_mu < 1.0 {
        return Err(MrError::BadConfig(
            "eta must be positive and n_mu >= 1".into(),
        ));
    }
    assert_eq!(b.len(), g.n());
    let n = g.n();
    let delta_param = params.eps / (1.0 + params.eps);
    let ln_inv_delta = (1.0 / delta_param).ln();
    let b_max = b.iter().copied().max().unwrap_or(1) as f64;
    let central_threshold = ((2.0 * b_max * ln_inv_delta * params.eta as f64) as usize)
        .max(crate::mr::CENTRAL_FINISH_SLACK * params.eta);

    // The per-machine snapshot bakes in capacities and `ε`, so the cache
    // key carries their fingerprint on top of the graph identity.
    let key = dist_cache::DistKey::new(0x626d_6174, g, (n, g.m()), &cfg).with_salt(
        dist_cache::fingerprint(b.iter().map(|&x| x as u64).chain([params.eps.to_bits()])),
    );
    let states: Vec<BMatchState> = dist_cache::get_or_build(key, || {
        let adj = g.adjacency();
        let mut states: Vec<BMatchState> = (0..cfg.machines)
            .map(|_| BMatchState {
                vertices: Vec::new(),
                phi: vec![0.0; n],
                eps: params.eps,
                index: HashMap::new(),
                scratch: Vec::new(),
            })
            .collect();
        for v in 0..n {
            let dst = cfg.place(v as u64);
            let slot = states[dst].vertices.len();
            let mut inc: Vec<(EdgeId, VertexId, f64, bool)> = adj[v]
                .iter()
                .map(|&(o, e)| (e, o, g.edge(e).w, false))
                .collect();
            inc.sort_unstable_by_key(|&(e, _, _, _)| e);
            for (pos, &(e, _, _, _)) in inc.iter().enumerate() {
                states[dst].index.entry(e).or_default().push((slot, pos));
            }
            states[dst].vertices.push(VertexAdj {
                v: v as VertexId,
                b: b[v],
                inc,
            });
        }
        states
    });
    let mut cluster = Cluster::new(cfg.cluster(), states)?;

    let mut lr = BMatchingLocalRatio::new(b, params.eps);
    cluster.charge_central(n + 2)?;

    let mut iteration = 0usize;
    loop {
        let alive = cluster.aggregate_sum(|_, s: &BMatchState| s.alive_halves())? / 2;
        if alive == 0 {
            break;
        }
        iteration += 1;

        if alive < central_threshold {
            let mut residual: Vec<(EdgeId, VertexId, VertexId, f64)> =
                cluster.gather(|_, s: &mut BMatchState| {
                    let mut out = Vec::new();
                    for va in &s.vertices {
                        for &(e, o, w, p) in &va.inc {
                            if va.v < o && s.edge_alive(va.v, o, w, p) {
                                out.push((e, va.v, o, w));
                            }
                        }
                    }
                    out
                })?;
            residual.sort_unstable_by_key(|&(e, _, _, _)| e);
            for (e, u, v, w) in residual {
                lr.push(e, u, v, w);
            }
            break;
        }

        // Per-vertex fixed-count sampling, identical RNG to the driver.
        let seed = params.seed;
        let n_mu = params.n_mu;
        let mut sample: Vec<(VertexId, EdgeId, VertexId, f64)> =
            cluster.gather(|_, s: &mut BMatchState| {
                let mut out = Vec::new();
                // One state-held staging buffer per machine, reused every
                // vertex and every round — not a fresh Vec per vertex.
                let mut alive_inc = std::mem::take(&mut s.scratch);
                for va in &s.vertices {
                    alive_inc.clear();
                    alive_inc.extend(
                        va.inc
                            .iter()
                            .filter(|&&(_, o, w, p)| s.edge_alive(va.v, o, w, p))
                            .map(|&(e, o, w, _)| (e, o, w)),
                    );
                    if alive_inc.is_empty() {
                        continue;
                    }
                    let k = (va.b as f64 * ln_inv_delta * n_mu).ceil() as usize;
                    let mut rng =
                        DetRng::derive(seed, &[BMATCH_RNG_TAG, iteration as u64, va.v as u64]);
                    for i in rng.sample_indices(alive_inc.len(), k) {
                        let (e, o, w) = alive_inc[i];
                        out.push((va.v, e, o, w));
                    }
                }
                alive_inc.clear();
                s.scratch = alive_inc;
                out
            })?;

        // Central: per vertex ascending, up to b(v)·ln(1/δ) ε-adjusted
        // pushes of the heaviest-by-current-modified-weight sampled edges.
        sample.sort_unstable_by_key(|&(v, e, _, _)| (v, e));
        let mut pushed_now: Vec<EdgeId> = Vec::new();
        // Bitset shadow of `pushed_now` for O(1) membership in the inner
        // best-edge scan (the Vec stays as the ordered broadcast payload).
        let mut pushed_bits = Bitset::new(g.m());
        let mut touched: Vec<VertexId> = Vec::new();
        let mut idx = 0usize;
        let mut group: Vec<(EdgeId, VertexId, f64)> = Vec::new();
        while idx < sample.len() {
            let v = sample[idx].0;
            group.clear();
            while idx < sample.len() && sample[idx].0 == v {
                group.push((sample[idx].1, sample[idx].2, sample[idx].3));
                idx += 1;
            }
            let budget = push_budget(b[v as usize], params.eps);
            for _ in 0..budget {
                let mut best: Option<(f64, usize)> = None;
                for (pos, &(e, o, w)) in group.iter().enumerate() {
                    if pushed_bits.get(e as usize) || !lr.alive(v, o, w) {
                        continue;
                    }
                    let m = lr.modified(v, o, w);
                    let better = match best {
                        None => true,
                        Some((bm, bpos)) => m > bm || (m == bm && e < group[bpos].0),
                    };
                    if better {
                        best = Some((m, pos));
                    }
                }
                let Some((_, pos)) = best else { break };
                let (e, o, w) = group.swap_remove(pos);
                if lr.push(e, v, o, w) {
                    pushed_bits.set(e as usize);
                    pushed_now.push(e);
                    touched.push(v);
                    touched.push(o);
                }
            }
        }
        touched.sort_unstable();
        touched.dedup();
        pushed_now.sort_unstable();

        // Broadcast ϕ deltas and pushed edge ids; machines refresh. The
        // refresh closure borrows the broadcast value instead of moving
        // clones of both lists into it.
        let phi_delta: Vec<(VertexId, f64)> = touched
            .iter()
            .map(|&v| (v, lr.phis()[v as usize]))
            .collect();
        let update = (phi_delta, pushed_now);
        cluster.broadcast(&update)?;
        cluster.local(|_, s: &mut BMatchState| {
            let (phi_delta, pushed_now) = &update;
            for &(v, phi) in phi_delta {
                s.phi[v as usize] = phi;
            }
            for &e in pushed_now {
                if let Some(slots) = s.index.get(&e) {
                    for &(vs, ps) in slots {
                        s.vertices[vs].inc[ps].3 = true;
                    }
                }
            }
        })?;
        cluster.charge_central(n + 2 + 2 * lr.stack_len())?;

        if iteration > 64 + 4 * g.m() {
            return Err(cluster.fail("iteration budget exhausted"));
        }
    }

    let matching = lr.unwind(g);
    let weight: f64 = matching.iter().map(|&e| g.edge(e).w).sum();
    let result = MatchingResult {
        matching,
        weight,
        stack_gain: lr.gain(),
        stack: lr.stack().to_vec(),
        iterations: iteration,
    };
    let (_, metrics) = cluster.into_parts();
    Ok((result, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rlr::bmatching::approx_b_matching;
    use crate::seq::local_ratio_bmatching::b_matching_multiplier;
    use crate::verify::is_b_matching;
    use mrlr_graph::generators::{densified, with_uniform_weights};

    #[test]
    fn matches_sequential_driver_bit_for_bit() {
        for seed in 0..3 {
            let g = with_uniform_weights(&densified(40, 0.4, seed), 0.5, 8.0, seed + 17);
            let b: Vec<u32> = (0..g.n()).map(|v| 1 + (v % 3) as u32).collect();
            let params = BMatchingParams {
                eps: 0.25,
                n_mu: 2.0,
                eta: 20,
                seed,
            };
            let cfg = MrConfig::auto(40, g.m(), 0.4, seed);
            let mut cfg = cfg;
            cfg.eta = params.eta;
            let (mr, metrics) = run(&g, &b, params, cfg).unwrap();
            let seq = approx_b_matching(&g, &b, params).unwrap();
            assert_eq!(mr.matching, seq.matching, "seed {seed}");
            assert_eq!(mr.iterations, seq.iterations);
            assert!(is_b_matching(&g, &b, &mr.matching));
            let mult = b_matching_multiplier(&b, params.eps);
            assert!(mr.certified_ratio(mult) <= mult + 1e-6);
            assert!(metrics.rounds > 0);
        }
    }

    #[test]
    fn capacity_guard_fires() {
        let g = with_uniform_weights(&densified(30, 0.5, 1), 1.0, 3.0, 2);
        let b = vec![2u32; g.n()];
        let params = BMatchingParams {
            eps: 0.25,
            n_mu: 2.0,
            eta: 10,
            seed: 1,
        };
        let cfg = MrConfig::auto(30, g.m(), 0.3, 1).with_capacity(50);
        assert!(matches!(
            run(&g, &b, params, cfg),
            Err(MrError::CapacityExceeded { .. })
        ));
    }
}
