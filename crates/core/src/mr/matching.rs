//! MapReduce implementation of Algorithm 4 (Theorem 5.6): 2-approximate
//! maximum weight matching.
//!
//! Layout: every vertex lives on a machine with its incident edge list, so
//! each edge is stored at both endpoints' machines (the paper stores both
//! an edge partition and a vertex partition; co-locating incidence makes
//! the per-vertex sampling machine-local). Machines hold a replicated copy
//! of the potential vector `ϕ` (`n` words ≤ `n^{1+µ}`), refreshed with
//! broadcast deltas — an edge's aliveness (`w − ϕ(u) − ϕ(v) > 0`) is then a
//! local test, and pushed edges die automatically because the push makes
//! their modified weight negative.
//!
//! Per iteration: aggregate `|E_i|`; if `< 4η`, gather the residual graph
//! and finish centrally; otherwise gather per-vertex samples
//! (`p = η/|E_i|`, fail if `Σ|E'_v| > 8η`), push centrally, broadcast `ϕ`
//! deltas.

use std::collections::HashMap;

use mrlr_graph::{EdgeId, Graph, VertexId};
use mrlr_mapreduce::rng::coin;
use mrlr_mapreduce::{Cluster, Ingest, Metrics, MrError, MrResult, WordSized};

use crate::mr::{MrConfig, CENTRAL_FINISH_SLACK, MATCHING_GATHER_SLACK};
use crate::rlr::matching::MATCH_COIN_TAG;
use crate::seq::local_ratio_matching::{finish_with, MatchingLocalRatio};
use crate::types::{MatchingResult, POS_TOL};

struct VertexAdj {
    v: VertexId,
    /// Incident edges `(edge id, other endpoint, original weight)`,
    /// ascending edge id.
    inc: Vec<(EdgeId, VertexId, f64)>,
}

impl WordSized for VertexAdj {
    fn words(&self) -> usize {
        1 + self.inc.words()
    }
}

struct MatchState {
    vertices: Vec<VertexAdj>,
    /// Replicated potential vector (n words).
    phi: Vec<f64>,
}

impl MatchState {
    fn edge_alive(&self, u: VertexId, v: VertexId, w: f64) -> bool {
        w - self.phi[u as usize] - self.phi[v as usize] > POS_TOL
    }

    /// Alive incident edges counted per endpoint copy (each alive edge is
    /// counted twice across the cluster).
    fn alive_halves(&self) -> usize {
        self.vertices
            .iter()
            .map(|va| {
                va.inc
                    .iter()
                    .filter(|&&(_, o, w)| self.edge_alive(va.v, o, w))
                    .count()
            })
            .sum()
    }
}

impl WordSized for MatchState {
    fn words(&self) -> usize {
        1 + self.vertices.iter().map(WordSized::words).sum::<usize>() + self.phi.len()
    }
}

/// Runs Algorithm 4 on the cluster. Output is bit-identical to
/// [`crate::rlr::matching::approx_max_matching`] with `(cfg.eta, cfg.seed)`.
///
/// [`crate::api::MatchingDriver`] runs this for every cluster backend,
/// on the runtime `cfg.exec.runtime` names.
pub fn run(g: &Graph, cfg: MrConfig) -> MrResult<(MatchingResult, Metrics)> {
    if cfg.eta == 0 {
        return Err(MrError::BadConfig("eta must be positive".into()));
    }
    let n = g.n();

    // Vertex-partitioned adjacency.
    let states = {
        let adj = g.adjacency();
        let mut states: Vec<MatchState> = (0..cfg.machines)
            .map(|_| MatchState {
                vertices: Vec::new(),
                phi: vec![0.0; n],
            })
            .collect();
        for (v, nbrs) in adj.iter().enumerate().take(n) {
            let dst = cfg.place(v as u64);
            states[dst].vertices.push(VertexAdj {
                v: v as VertexId,
                inc: nbrs.iter().map(|&(o, e)| (e, o, g.edge(e).w)).collect(),
            });
        }
        // Adjacency lists come out in edge-id order per vertex; sort to be sure.
        for s in &mut states {
            for va in &mut s.vertices {
                va.inc.sort_unstable_by_key(|&(e, _, _)| e);
            }
        }
        states
    };
    let outcome = run_states(states, n, g.m(), cfg)?;
    Ok((outcome.result, outcome.metrics))
}

/// Everything a run of Algorithm 4 produces: the solution, the cluster
/// metrics, and the endpoints/weights of every stacked edge — the latter
/// is what lets the streamed path certify its result without a central
/// [`Graph`] (the stack is `O(n log n)` edges w.h.p., not `O(m)`).
pub(crate) struct RunOutcome {
    pub(crate) result: MatchingResult,
    pub(crate) metrics: Metrics,
    /// `edge id → (u, v, original weight)` for every pushed edge.
    pub(crate) pushed: HashMap<EdgeId, (VertexId, VertexId, f64)>,
    /// Vertex count of the instance.
    pub(crate) n: usize,
}

/// Per-machine state for a matching run built *without* a central graph:
/// edge records stream in ascending edge-id order (the materialized
/// [`Graph`]'s id order) and are scattered to both endpoints' machines via
/// [`MrConfig::place`] — the exact layout [`run`] builds from a central
/// adjacency, reproduced incrementally, so the solve downstream is
/// bit-identical.
pub(crate) struct StreamedMatching {
    cfg: MrConfig,
    n: usize,
    m: usize,
    /// Edge halves `(owner vertex, edge id, other endpoint, weight)`
    /// accumulating per machine.
    halves: Ingest<(VertexId, EdgeId, VertexId, f64)>,
}

impl StreamedMatching {
    /// A builder for a `p graph <n> <m>` stream under `cfg`.
    pub(crate) fn new(n: usize, m: usize, cfg: MrConfig) -> MrResult<Self> {
        if cfg.eta == 0 {
            return Err(MrError::BadConfig("eta must be positive".into()));
        }
        Ok(StreamedMatching {
            cfg,
            n,
            m,
            halves: Ingest::new(cfg.machines),
        })
    }

    /// Routes edge `e = {u, v}` (weight `w`) to both endpoints' machines.
    /// Edges must arrive in ascending id order.
    pub(crate) fn push_edge(
        &mut self,
        e: EdgeId,
        u: VertexId,
        v: VertexId,
        w: f64,
    ) -> MrResult<()> {
        self.halves.push(self.cfg.place(u as u64), (u, e, v, w))?;
        self.halves.push(self.cfg.place(v as u64), (v, e, u, w))
    }

    /// Finalizes the per-machine states and runs Algorithm 4. The states
    /// are bit-identical to what [`run`] builds centrally: vertices in
    /// ascending id order per machine, incidence lists in ascending edge
    /// id (arrival order, kept by the stable sort).
    pub(crate) fn solve(self) -> MrResult<RunOutcome> {
        let StreamedMatching { cfg, n, m, halves } = self;
        // Which vertices each machine owns, ascending (isolated vertices
        // included — the materialized layout gives every vertex an entry).
        let mut owners: Vec<Vec<VertexId>> = (0..cfg.machines).map(|_| Vec::new()).collect();
        for v in 0..n {
            owners[cfg.place(v as u64)].push(v as VertexId);
        }
        let mut states: Vec<MatchState> = Vec::with_capacity(cfg.machines);
        for (dst, mut block) in halves.into_blocks().into_iter().enumerate() {
            // Stable: per-vertex groups keep ascending edge-id arrival order.
            block.sort_by_key(|&(v, _, _, _)| v);
            let mut vertices = Vec::with_capacity(owners[dst].len());
            let mut pos = 0usize;
            for &v in &owners[dst] {
                let start = pos;
                while pos < block.len() && block[pos].0 == v {
                    pos += 1;
                }
                vertices.push(VertexAdj {
                    v,
                    inc: block[start..pos]
                        .iter()
                        .map(|&(_, e, o, w)| (e, o, w))
                        .collect(),
                });
            }
            drop(block); // free each flat block before converting the next
            states.push(MatchState {
                vertices,
                phi: vec![0.0; n],
            });
        }
        run_states(states, n, m, cfg)
    }
}

/// The Algorithm 4 driver loop over prepared per-machine states — shared
/// verbatim by the materialized ([`run`]) and streamed
/// ([`StreamedMatching::solve`]) paths, so both produce bit-identical
/// solutions, witnesses and [`Metrics`]. Central bookkeeping records the
/// endpoints of every pushed edge, which is all the unwind and the
/// certificate ever look up — `O(stack)` words, never `O(m)`.
fn run_states(states: Vec<MatchState>, n: usize, m: usize, cfg: MrConfig) -> MrResult<RunOutcome> {
    let mut cluster = Cluster::new(cfg.cluster(), states)?;

    let mut lr = MatchingLocalRatio::new(n);
    let mut pushed: HashMap<EdgeId, (VertexId, VertexId, f64)> = HashMap::new();
    cluster.charge_central(n + 2)?;

    let mut iteration = 0usize;
    loop {
        let alive = cluster.aggregate_sum(|_, s: &MatchState| s.alive_halves())? / 2;
        if alive == 0 {
            break;
        }
        iteration += 1;

        if alive < CENTRAL_FINISH_SLACK * cfg.eta {
            // Final central iteration: gather the residual graph once (the
            // copy at the smaller endpoint reports the edge) and run the
            // exhaustive pass in ascending edge order.
            let mut residual: Vec<(EdgeId, VertexId, VertexId, f64)> =
                cluster.gather(|_, s: &mut MatchState| {
                    let mut out = Vec::new();
                    for va in &s.vertices {
                        for &(e, o, w) in &va.inc {
                            if va.v < o && s.edge_alive(va.v, o, w) {
                                out.push((e, va.v, o, w));
                            }
                        }
                    }
                    out
                })?;
            residual.sort_unstable_by_key(|&(e, _, _, _)| e);
            for (e, u, v, w) in residual {
                if lr.push(e, u, v, w) {
                    pushed.insert(e, (u, v, w));
                }
            }
            break;
        }

        let p = (cfg.eta as f64 / alive as f64).min(1.0);
        cluster.broadcast_words(1)?;

        let seed = cfg.seed;
        let mut sample: Vec<(VertexId, EdgeId, VertexId, f64)> =
            cluster.gather(|_, s: &mut MatchState| {
                let mut out = Vec::new();
                for va in &s.vertices {
                    for &(e, o, w) in &va.inc {
                        if s.edge_alive(va.v, o, w)
                            && coin(
                                seed,
                                &[MATCH_COIN_TAG, iteration as u64, va.v as u64, e as u64],
                                p,
                            )
                        {
                            out.push((va.v, e, o, w));
                        }
                    }
                }
                out
            })?;
        if sample.len() > MATCHING_GATHER_SLACK * cfg.eta {
            return Err(cluster.fail(format!(
                "Σ|E'_v| = {} > {}η = {}",
                sample.len(),
                MATCHING_GATHER_SLACK,
                MATCHING_GATHER_SLACK * cfg.eta
            )));
        }

        // Central: vertices in ascending order; heaviest sampled edge by
        // current modified weight (tie: smaller edge id).
        sample.sort_unstable_by_key(|&(v, e, _, _)| (v, e));
        let mut idx = 0usize;
        let mut touched: Vec<VertexId> = Vec::new();
        while idx < sample.len() {
            let v = sample[idx].0;
            let mut best: Option<(f64, EdgeId, VertexId, f64)> = None;
            while idx < sample.len() && sample[idx].0 == v {
                let (_, e, o, w) = sample[idx];
                let m = lr.modified(v, o, w);
                let better = match best {
                    None => true,
                    Some((bm, be, _, _)) => m > bm || (m == bm && e < be),
                };
                if better {
                    best = Some((m, e, o, w));
                }
                idx += 1;
            }
            if let Some((_, e, o, w)) = best {
                if lr.push(e, v, o, w) {
                    pushed.insert(e, (v, o, w));
                    touched.push(v);
                    touched.push(o);
                }
            }
        }
        touched.sort_unstable();
        touched.dedup();

        // Broadcast ϕ deltas ((vertex, value) pairs) down the tree;
        // machines refresh their replicated copies.
        let delta: Vec<(VertexId, f64)> = touched.iter().map(|&v| (v, lr.phi(v))).collect();
        cluster.broadcast(&delta)?;
        cluster.local(move |_, s: &mut MatchState| {
            for &(v, phi) in &delta {
                s.phi[v as usize] = phi;
            }
        })?;
        // Charge the growing central stack.
        cluster.charge_central(n + 2 + 2 * lr.stack_len())?;

        if iteration > 64 + 4 * m {
            return Err(cluster.fail("iteration budget exhausted"));
        }
    }

    let result = finish_with(n, lr, iteration, |id| pushed[&id]);
    let (_, metrics) = cluster.into_parts();
    Ok(RunOutcome {
        result,
        metrics,
        pushed,
        n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rlr::matching::approx_max_matching;
    use crate::verify::is_matching;
    use mrlr_graph::generators::{densified, with_uniform_weights};

    #[test]
    fn matches_sequential_driver_bit_for_bit() {
        for seed in 0..4 {
            let g = with_uniform_weights(&densified(50, 0.4, seed), 0.5, 10.0, seed + 31);
            let cfg = MrConfig::auto(50, g.m(), 0.3, seed);
            let (mr, metrics) = run(&g, cfg).unwrap();
            let seq = approx_max_matching(&g, cfg.eta, seed).unwrap();
            assert_eq!(mr.matching, seq.matching, "seed {seed}");
            assert_eq!(mr.iterations, seq.iterations);
            assert!((mr.stack_gain - seq.stack_gain).abs() < 1e-9);
            assert!(is_matching(&g, &mr.matching));
            assert!(metrics.rounds > 0);
            assert!(mr.certified_ratio(2.0) <= 2.0 + 1e-6);
        }
    }

    #[test]
    fn mu_zero_regime_runs() {
        let n = 60;
        let g = with_uniform_weights(&densified(n, 0.5, 2), 1.0, 4.0, 5);
        let mut cfg = MrConfig::auto(n, g.m(), 0.0, 3);
        cfg.eta = n; // Appendix C: η = n
        let (r, metrics) = run(&g, cfg).unwrap();
        assert!(is_matching(&g, &r.matching));
        assert!(r.iterations <= 60, "iterations {}", r.iterations);
        assert!(metrics.peak_central_words <= cfg.capacity);
    }

    #[test]
    fn undersized_capacity_fails() {
        let g = with_uniform_weights(&densified(40, 0.5, 1), 1.0, 2.0, 1);
        let cfg = MrConfig::auto(40, g.m(), 0.3, 1).with_capacity(60);
        assert!(matches!(
            run(&g, cfg),
            Err(MrError::CapacityExceeded { .. })
        ));
    }

    #[test]
    fn empty_graph() {
        let g = Graph::new(3, vec![]);
        let cfg = MrConfig::auto(3, 1, 0.3, 1);
        let (r, _) = run(&g, cfg).unwrap();
        assert!(r.matching.is_empty());
    }
}
