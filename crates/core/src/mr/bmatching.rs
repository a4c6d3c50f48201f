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
//!
//! A machine's block is flat: its `(vertex, b(v))` records, one [`Csr`]
//! arena holding every incidence list, and an edge → local-vertex index
//! with one `(edge, slot)` entry per resident incidence, ascending in
//! edge id, so a pushed edge is found by binary search. The *metered*
//! size is still the record-per-vertex formula (the index charged as a
//! mirror of the incidence lists); only `ϕ` values and pushed flags
//! change after distribution, so it is computed once.

use mrlr_graph::{EdgeId, Graph, VertexId};
use mrlr_mapreduce::rng::DetRng;
use std::collections::HashSet;

use mrlr_mapreduce::{Cluster, Csr, Metrics, MrError, MrResult, WordSized};

use crate::mr::{place_rows, MrConfig};
use crate::rlr::bmatching::{push_budget, BMatchingParams, BMATCH_RNG_TAG};
use crate::seq::local_ratio_bmatching::BMatchingLocalRatio;
use crate::types::{MatchingResult, POS_TOL};

/// `(edge id, other endpoint, weight, pushed)`.
type Incidence = (EdgeId, VertexId, f64, bool);

struct BMatchState {
    /// `(v, b(v))`, ascending `v`; the incidences of `vertices[slot]` are
    /// row `slot` of `inc`, ascending edge id.
    vertices: Vec<(VertexId, u32)>,
    inc: Csr<Incidence>,
    phi: Vec<f64>,
    eps: f64,
    /// `(edge id, local vertex slot)` of every incidence in `inc`,
    /// ascending in edge id: the distribution scatter appends them as it
    /// walks the edges in id order. An edge with both endpoints here has
    /// its two entries side by side.
    index: Vec<(EdgeId, u32)>,
    /// Round-local alive-incidence staging, reused across sampling rounds
    /// (empty between supersteps; never part of the metered state words).
    scratch: Vec<(EdgeId, VertexId, f64)>,
    /// [`BMatchState::metered_words`], fixed at distribution.
    words: usize,
}

impl BMatchState {
    fn edge_alive(&self, u: VertexId, o: VertexId, w: f64, pushed: bool) -> bool {
        !pushed && w - (1.0 + self.eps) * (self.phi[u as usize] + self.phi[o as usize]) > POS_TOL
    }

    /// Every local `(vertex, b(v), incidence list)`.
    fn rows(&self) -> impl Iterator<Item = (VertexId, u32, &[Incidence])> + '_ {
        self.vertices
            .iter()
            .zip(self.inc.iter())
            .map(|(&(v, b), inc)| (v, b, inc))
    }

    fn alive_halves(&self) -> usize {
        self.rows()
            .map(|(v, _, inc)| {
                inc.iter()
                    .filter(|&&(_, o, w, p)| self.edge_alive(v, o, w, p))
                    .count()
            })
            .sum()
    }

    fn mark_pushed(&mut self, e: EdgeId) {
        let from = self.index.partition_point(|&(id, _)| id < e);
        for &(_, slot) in self.index[from..].iter().take_while(|&&(id, _)| id == e) {
            let inc = self.inc.row_mut(slot as usize);
            let pos = inc
                .binary_search_by_key(&e, |&(id, _, _, _)| id)
                .expect("the index lists only rows holding the edge");
            inc[pos].3 = true;
        }
    }

    /// The simulated size: a `(v, b)` record plus its 4-word incidences
    /// per vertex, charged twice (the index mirrors the incidence lists),
    /// and the replicated `ϕ`.
    fn metered_words(&self) -> usize {
        let recs: usize = self.inc.iter().map(|inc| 2 + 1 + inc.len() * 4).sum();
        1 + recs * 2 + self.phi.len()
    }
}

impl WordSized for BMatchState {
    fn words(&self) -> usize {
        debug_assert_eq!(self.words, self.metered_words());
        self.words
    }
}

/// Distributes vertices by hash with their incidence lists, scattered
/// straight from the edge list (so each list, and each machine's index,
/// is ascending in edge id).
fn distribute(g: &Graph, b: &[u32], eps: f64, cfg: &MrConfig) -> MrResult<Vec<BMatchState>> {
    let degree = g.degrees();
    let mut placed = place_rows(
        cfg.machines,
        g.n(),
        |v| cfg.place(v as u64),
        |v| degree[v],
        (0, 0, 0.0, false),
    )?;
    let mut index: Vec<Vec<(EdgeId, u32)>> = placed
        .ids
        .iter()
        .map(|ids| Vec::with_capacity(ids.iter().map(|&v| degree[v as usize]).sum()))
        .collect();
    for (idx, e) in g.edges().iter().enumerate() {
        for (x, other) in [(e.u, e.v), (e.v, e.u)] {
            let (dst, row) = placed.at[x as usize];
            placed.arenas[dst as usize].push(row as usize, (idx as EdgeId, other, e.w, false));
            index[dst as usize].push((idx as EdgeId, row));
        }
    }
    placed
        .ids
        .iter()
        .zip(placed.arenas)
        .zip(index)
        .map(|((ids, arena), index)| {
            let inc = arena.finish();
            let mut state = BMatchState {
                vertices: ids.iter().map(|&v| (v, b[v as usize])).collect(),
                index,
                inc,
                phi: vec![0.0; g.n()],
                eps,
                scratch: Vec::new(),
                words: 0,
            };
            state.words = state.metered_words();
            Ok(state)
        })
        .collect()
}

/// Runs Algorithm 7 on the cluster. The output does not depend on the
/// machine count: every coin is hash-derived from `params.seed`.
///
/// [`crate::api::Registry`] runs this for `b-matching` on every cluster
/// backend, on the runtime `cfg.exec.runtime` names.
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

    let mut cluster = Cluster::new(cfg.cluster(), distribute(g, b, params.eps, &cfg)?)?;

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
                    for (v, _, inc) in s.rows() {
                        for &(e, o, w, p) in inc {
                            if v < o && s.edge_alive(v, o, w, p) {
                                out.push((e, v, o, w));
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
                for (v, b, inc) in s.rows() {
                    alive_inc.clear();
                    alive_inc.extend(
                        inc.iter()
                            .filter(|&&(_, o, w, p)| s.edge_alive(v, o, w, p))
                            .map(|&(e, o, w, _)| (e, o, w)),
                    );
                    if alive_inc.is_empty() {
                        continue;
                    }
                    let k = (b as f64 * ln_inv_delta * n_mu).ceil() as usize;
                    let mut rng =
                        DetRng::derive(seed, &[BMATCH_RNG_TAG, iteration as u64, v as u64]);
                    // Partial Fisher–Yates on the staging buffer itself: the
                    // draws and picks of `DetRng::sample_indices`, without
                    // its per-vertex index array.
                    let alive = alive_inc.len();
                    for i in 0..k.min(alive) {
                        alive_inc.swap(i, i + rng.range_usize(alive - i));
                        let (e, o, w) = alive_inc[i];
                        out.push((v, e, o, w));
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
        // Set shadow of `pushed_now` for membership in the inner best-edge
        // scan (the Vec stays as the ordered broadcast payload), sized by
        // this iteration's pushes rather than by `m`.
        let mut pushed_set: HashSet<EdgeId> = HashSet::new();
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
                    if pushed_set.contains(&e) || !lr.alive(v, o, w) {
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
                    pushed_set.insert(e);
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
                s.mark_pushed(e);
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
            let (seq, _) = run(&g, &b, params, cfg.with_machines(1).recording()).unwrap();
            assert_eq!(mr.matching, seq.matching, "seed {seed}");
            assert_eq!(mr.iterations, seq.iterations);
            assert!(is_b_matching(&g, &b, &mr.matching));
            let mult = b_matching_multiplier(&b, params.eps);
            assert!(mr.certified_ratio(mult) <= mult + 1e-6);
            assert!(metrics.rounds > 0);
        }
    }

    /// The stored state size is the record-per-vertex formula of the
    /// nested layout (index charged as a mirror), recounted from the
    /// instance, and nothing a superstep does changes it (`words()`
    /// re-asserts that on every pass of a debug run). The index itself
    /// holds exactly one entry per resident half, in edge id order.
    #[test]
    fn stored_words_equal_a_recount_through_a_run() {
        let g = with_uniform_weights(&densified(40, 0.4, 2), 0.5, 8.0, 19);
        let b: Vec<u32> = (0..g.n()).map(|v| 1 + (v % 3) as u32).collect();
        let cfg = MrConfig::auto(40, g.m(), 0.4, 2).with_machines(5);
        let adj = g.adjacency();
        let mut states = distribute(&g, &b, 0.25, &cfg).unwrap();
        for (id, state) in states.iter_mut().enumerate() {
            let recs: usize = (0..g.n())
                .filter(|&v| cfg.place(v as u64) == id)
                .map(|v| 2 + 1 + 4 * adj[v].len())
                .sum();
            assert_eq!(state.words, 1 + 2 * recs + g.n(), "machine {id}");
            // One index entry per resident half, ascending in edge id.
            assert_eq!(state.index.len(), state.inc.len(), "machine {id}");
            assert!(state.index.windows(2).all(|p| p[0] <= p[1]), "machine {id}");
            for (slot, inc) in state.inc.iter().enumerate() {
                for &(e, _, _, _) in inc {
                    assert!(state.index.contains(&(e, slot as u32)), "machine {id}");
                }
            }
            assert_eq!(state.words(), state.metered_words());
            for e in 0..g.m() as EdgeId {
                state.mark_pushed(e);
            }
            assert!(state.rows().all(|(_, _, inc)| inc.iter().all(|it| it.3)));
            assert_eq!(state.alive_halves(), 0);
            assert_eq!(state.words(), state.metered_words());
        }
        let params = BMatchingParams {
            eps: 0.25,
            n_mu: 2.0,
            eta: 20,
            seed: 2,
        };
        run(&g, &b, params, cfg).unwrap();
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
