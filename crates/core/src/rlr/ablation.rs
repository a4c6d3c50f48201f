//! Ablation of Algorithm 4's key design choice: **per-vertex** sampling.
//!
//! Section 5.2's intuition: sampling `≈ n^µ` of *each vertex's* alive edges
//! and pushing the heaviest per vertex cuts every heavy vertex's degree by
//! an `n^{-µ/4}` factor per iteration (Lemma 5.4) — the per-vertex structure
//! is what the proof leans on. The natural descendant of the filtering
//! technique would instead sample one **global pool** of `η` edges i.i.d.
//! and push whatever is in the pool. Correctness survives (the local ratio
//! method tolerates any order — Theorem 5.1), but the degree-decay guarantee
//! does not: a hub of degree `d ≫ η·d/|E_i|` receives few pooled pushes per
//! iteration, so hubs drain slowly.
//!
//! [`approx_max_matching_pooled`] implements the pooled variant;
//! [`degree_decay_trace`] records `Δ_i` per iteration for either variant, so
//! experiments (E13) can plot the decay the lemma predicts against the
//! decay the ablation loses.

use mrlr_graph::{EdgeId, Graph};
use mrlr_mapreduce::rng::coin;
use mrlr_mapreduce::{MrError, MrResult};

use crate::rlr::matching::MATCH_COIN_TAG;
use crate::seq::local_ratio_matching::{finish, MatchingLocalRatio};
use crate::types::MatchingResult;

/// Tag mixed into the pooled variant's coins (distinct from the per-vertex
/// tag so the two variants draw independent samples).
pub const POOLED_COIN_TAG: u64 = 0x504f_4f4c;

/// The pooled-sampling ablation of Algorithm 4: one global i.i.d. sample of
/// expected size `η` per iteration; every pooled edge that is still alive is
/// pushed (in edge-id order). Still a certified 2-approximation; loses the
/// per-vertex degree-decay guarantee of Lemma 5.4.
pub fn approx_max_matching_pooled(g: &Graph, eta: usize, seed: u64) -> MrResult<MatchingResult> {
    if eta == 0 {
        return Err(MrError::BadConfig("eta must be positive".into()));
    }
    let mut lr = MatchingLocalRatio::new(g.n());
    let mut alive: Vec<bool> = vec![true; g.m()];
    let mut alive_count = g.m();
    let mut iteration = 0usize;

    while alive_count > 0 {
        iteration += 1;
        if alive_count < 4 * eta {
            for (idx, e) in g.edges().iter().enumerate() {
                if alive[idx] {
                    lr.push(idx as EdgeId, e.u, e.v, e.w);
                    alive[idx] = false;
                }
            }
            break;
        }
        let p = (eta as f64 / alive_count as f64).min(1.0);
        let mut pool: Vec<EdgeId> = Vec::new();
        for (idx, is_alive) in alive.iter().enumerate() {
            if *is_alive && coin(seed, &[POOLED_COIN_TAG, iteration as u64, idx as u64], p) {
                pool.push(idx as EdgeId);
            }
        }
        if pool.len() > crate::mr::MATCHING_GATHER_SLACK * eta {
            return Err(MrError::AlgorithmFailed {
                round: iteration,
                reason: format!(
                    "|pool| = {} > {}η = {}",
                    pool.len(),
                    crate::mr::MATCHING_GATHER_SLACK,
                    crate::mr::MATCHING_GATHER_SLACK * eta
                ),
            });
        }
        // Central pass over the pool in edge-id order; `push` is a no-op on
        // edges the pass itself has already killed.
        for eid in pool {
            let e = g.edge(eid);
            if lr.push(eid, e.u, e.v, e.w) {
                alive[eid as usize] = false;
                alive_count -= 1;
            }
        }
        for (idx, e) in g.edges().iter().enumerate() {
            if alive[idx] && !lr.alive(e.u, e.v, e.w) {
                alive[idx] = false;
                alive_count -= 1;
            }
        }
        if iteration > 64 + 4 * g.m() {
            return Err(MrError::AlgorithmFailed {
                round: iteration,
                reason: "iteration budget exhausted".into(),
            });
        }
    }
    Ok(finish(g, lr, iteration))
}

/// Which sampling strategy a trace should follow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplingStrategy {
    /// Algorithm 4's per-vertex sampling (the paper's design).
    PerVertex,
    /// The pooled ablation.
    Pooled,
}

/// Runs the chosen variant and records the maximum alive degree `Δ_i` at the
/// *start* of every iteration (Lemma 5.4's quantity). Returns the trace;
/// `trace\[0\]` is the initial `Δ`, and the final entry precedes the central
/// finish. Fails exactly when the underlying variant fails.
pub fn degree_decay_trace(
    g: &Graph,
    eta: usize,
    seed: u64,
    strategy: SamplingStrategy,
) -> MrResult<Vec<usize>> {
    if eta == 0 {
        return Err(MrError::BadConfig("eta must be positive".into()));
    }
    let n = g.n();
    let adj = g.adjacency();
    let mut lr = MatchingLocalRatio::new(n);
    let mut alive: Vec<bool> = vec![true; g.m()];
    let mut alive_count = g.m();
    let mut iteration = 0usize;
    let mut trace = Vec::new();

    let max_alive_degree = |alive: &[bool]| -> usize {
        let mut deg = vec![0usize; n];
        for (idx, e) in g.edges().iter().enumerate() {
            if alive[idx] {
                deg[e.u as usize] += 1;
                deg[e.v as usize] += 1;
            }
        }
        deg.into_iter().max().unwrap_or(0)
    };

    while alive_count > 0 {
        trace.push(max_alive_degree(&alive));
        iteration += 1;
        if alive_count < 4 * eta {
            break;
        }
        let p = (eta as f64 / alive_count as f64).min(1.0);
        match strategy {
            SamplingStrategy::PerVertex => {
                let mut samples: Vec<Vec<EdgeId>> = vec![Vec::new(); n];
                for (v, nbrs) in adj.iter().enumerate() {
                    for &(_, eid) in nbrs {
                        if alive[eid as usize]
                            && coin(
                                seed,
                                &[MATCH_COIN_TAG, iteration as u64, v as u64, eid as u64],
                                p,
                            )
                        {
                            samples[v].push(eid);
                        }
                    }
                }
                for sample in &samples {
                    let mut best: Option<(f64, EdgeId)> = None;
                    for &eid in sample {
                        let e = g.edge(eid);
                        let m = lr.modified(e.u, e.v, e.w);
                        let better = match best {
                            None => true,
                            Some((bm, bid)) => m > bm || (m == bm && eid < bid),
                        };
                        if better {
                            best = Some((m, eid));
                        }
                    }
                    if let Some((_, eid)) = best {
                        let e = g.edge(eid);
                        if lr.push(eid, e.u, e.v, e.w) {
                            alive[eid as usize] = false;
                            alive_count -= 1;
                        }
                    }
                }
            }
            SamplingStrategy::Pooled => {
                // `alive` is mutated inside the loop, so an iterator borrow
                // is not an option here.
                #[allow(clippy::needless_range_loop)]
                for idx in 0..alive.len() {
                    if alive[idx] && coin(seed, &[POOLED_COIN_TAG, iteration as u64, idx as u64], p)
                    {
                        let e = g.edge(idx as EdgeId);
                        if lr.push(idx as EdgeId, e.u, e.v, e.w) {
                            alive[idx] = false;
                            alive_count -= 1;
                        }
                    }
                }
            }
        }
        for (idx, e) in g.edges().iter().enumerate() {
            if alive[idx] && !lr.alive(e.u, e.v, e.w) {
                alive[idx] = false;
                alive_count -= 1;
            }
        }
        if iteration > 64 + 4 * g.m() {
            return Err(MrError::AlgorithmFailed {
                round: iteration,
                reason: "iteration budget exhausted".into(),
            });
        }
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::max_weight_matching;
    use crate::mr::{matching, one_machine};
    use crate::verify::is_matching;
    use mrlr_graph::generators::{gnm, with_degree_weights, with_uniform_weights};

    #[test]
    fn pooled_is_valid_and_two_approx_certified() {
        for seed in 0..6 {
            let g = with_uniform_weights(&gnm(40, 300, seed), 0.5, 10.0, seed + 3);
            let r = approx_max_matching_pooled(&g, 30, seed).unwrap();
            assert!(is_matching(&g, &r.matching), "seed {seed}");
            assert!(r.certified_ratio(2.0) <= 2.0 + 1e-6);
        }
    }

    #[test]
    fn pooled_within_two_of_exact() {
        for seed in 0..6 {
            let g = with_uniform_weights(&gnm(14, 40, seed), 1.0, 9.0, seed + 5);
            let (opt, _) = max_weight_matching(&g);
            let r = approx_max_matching_pooled(&g, 8, seed).unwrap();
            assert!(2.0 * r.weight + 1e-9 >= opt, "seed {seed}");
        }
    }

    #[test]
    fn traces_start_at_delta_and_shrink() {
        let g = with_uniform_weights(&gnm(60, 900, 2), 1.0, 9.0, 3);
        for strategy in [SamplingStrategy::PerVertex, SamplingStrategy::Pooled] {
            let trace = degree_decay_trace(&g, 50, 7, strategy).unwrap();
            assert!(!trace.is_empty());
            assert_eq!(trace[0], g.max_degree());
            // Δ_i never increases (edges only die).
            for w in trace.windows(2) {
                assert!(w[1] <= w[0], "{strategy:?}: {trace:?}");
            }
        }
    }

    #[test]
    fn per_vertex_trace_matches_algorithm_iterations() {
        let g = with_uniform_weights(&gnm(60, 900, 2), 1.0, 9.0, 3);
        let (r, _) = matching::run(&g, one_machine(50, 7)).unwrap();
        let trace = degree_decay_trace(&g, 50, 7, SamplingStrategy::PerVertex).unwrap();
        assert_eq!(trace.len(), r.iterations);
    }

    #[test]
    fn per_vertex_decays_hub_degrees_no_slower_than_pooled() {
        // A hub-heavy graph with degree-correlated weights: per-vertex
        // sampling attacks every hub each iteration; pooled sampling only
        // pushes an expected η edges wherever they land. Compare Δ after
        // two sampling iterations (deterministic seeds).
        let g = with_degree_weights(&gnm(80, 2000, 5), 0.5);
        let pv = degree_decay_trace(&g, 100, 9, SamplingStrategy::PerVertex).unwrap();
        let pl = degree_decay_trace(&g, 100, 9, SamplingStrategy::Pooled).unwrap();
        let at = |t: &[usize], i: usize| t.get(i).copied().unwrap_or(0);
        assert!(
            at(&pv, 2) <= at(&pl, 2),
            "per-vertex {pv:?} vs pooled {pl:?}"
        );
        // And the pooled variant needs at least as many iterations.
        assert!(pv.len() <= pl.len(), "{} vs {}", pv.len(), pl.len());
    }

    #[test]
    fn pooled_rejects_zero_eta() {
        let g = gnm(5, 4, 0);
        assert!(approx_max_matching_pooled(&g, 0, 0).is_err());
        assert!(degree_decay_trace(&g, 0, 0, SamplingStrategy::Pooled).is_err());
    }

    #[test]
    fn empty_graph_trace_is_empty() {
        let g = mrlr_graph::Graph::new(3, vec![]);
        let trace = degree_decay_trace(&g, 5, 1, SamplingStrategy::PerVertex).unwrap();
        assert!(trace.is_empty());
        let r = approx_max_matching_pooled(&g, 5, 1).unwrap();
        assert!(r.matching.is_empty());
    }
}
