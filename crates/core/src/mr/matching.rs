//! MapReduce implementation of Algorithm 4 (Theorem 5.6): 2-approximate
//! maximum weight matching.
//!
//! Layout: every vertex lives on a machine with its incident edge list, so
//! each edge is stored at both endpoints' machines (the paper stores both
//! an edge partition and a vertex partition; co-locating incidence makes
//! the per-vertex sampling machine-local). A machine's block is flat: its
//! vertex ids beside one [`Csr`] arena holding every incidence list,
//! scattered straight from the edge list, so rows come out in edge-id
//! order and no adjacency is built. Machines hold a replicated copy of
//! the potential vector `ϕ` (`n` words ≤ `n^{1+µ}`), refreshed with
//! broadcast deltas — an edge's aliveness
//! (`w − ϕ(u) − ϕ(v) > 0`) is then a local test, and pushed edges die
//! automatically because the push makes their modified weight negative.
//!
//! Only live edges are walked once an iteration has refreshed `ϕ`. `ϕ`
//! only grows, so a dead half never revives: the refresh compacts each
//! machine's rows in place ([`Csr::retain`]) down to the survivors and
//! keeps their count, which the distribution scatter sets first. `|E_i|`
//! is then a sum of stored counts, and the sample and residual gathers
//! walk only survivors. The *metered* size does not follow the arena: it
//! is the record-per-vertex formula over the incidence total fixed at
//! distribution, and compaction is unmetered bookkeeping over words
//! already charged.
//!
//! Per iteration: aggregate `|E_i|`; if `< 4η`, gather the residual graph
//! and finish centrally; otherwise gather per-vertex samples
//! (`p = η/|E_i|`, fail if `Σ|E'_v| > 8η`), push centrally, broadcast `ϕ`
//! deltas. The gathered sample is grouped without a sort: a vertex lives
//! on one machine, whose rows come out ascending by `(v, e)`, so each
//! vertex's samples are already one contiguous run.

use mrlr_graph::{EdgeId, Graph, VertexId};
use mrlr_mapreduce::rng::coin;
use mrlr_mapreduce::{Cluster, Csr, Metrics, MrError, MrResult, WordSized};

use crate::mr::{place_rows, MrConfig, CENTRAL_FINISH_SLACK, MATCHING_GATHER_SLACK};
use crate::rlr::matching::MATCH_COIN_TAG;
use crate::seq::local_ratio_matching::{finish_with, MatchingLocalRatio};
use crate::types::{MatchingResult, POS_TOL};

/// One incident edge as its owner vertex stores it: `(edge id, other
/// endpoint, original weight)`.
type Incident = (EdgeId, VertexId, f64);

const NO_INCIDENT: Incident = (0, 0, 0.0);

/// An incidence as it leaves its machine: `(owner, edge id, other
/// endpoint, original weight)`.
type Half = (VertexId, EdgeId, VertexId, f64);

/// Whether edge `{u, v}` of weight `w` is alive under the potentials
/// `phi`: its modified weight is still positive.
fn edge_alive(phi: &[f64], u: VertexId, v: VertexId, w: f64) -> bool {
    w - phi[u as usize] - phi[v as usize] > POS_TOL
}

/// [`edge_alive`] at distribution, where every potential is zero (and
/// `w − 0 − 0` is `w` exactly).
fn alive_at_distribution(w: f64) -> bool {
    w > POS_TOL
}

struct MatchState {
    /// Ascending vertex id; vertex `vertices[slot]`'s incident edges,
    /// ascending edge id, are row `slot` of `inc`. After a ϕ refresh the
    /// rows hold only alive halves.
    vertices: Vec<VertexId>,
    inc: Csr<Incident>,
    /// Replicated potential vector (n words).
    phi: Vec<f64>,
    /// Alive halves in `inc` (an alive edge counts at both endpoints).
    alive: usize,
    /// Halves stored at distribution: the metered size's incidence total.
    incidences: usize,
}

impl MatchState {
    fn new(vertices: Vec<VertexId>, inc: Csr<Incident>, alive: usize, n: usize) -> Self {
        let state = MatchState {
            vertices,
            incidences: inc.len(),
            inc,
            phi: vec![0.0; n],
            alive,
        };
        debug_assert_eq!(state.alive, state.recount_alive());
        state
    }

    /// The simulated size: a 1-word record plus its incidence list (three
    /// words an edge) per vertex, the `ϕ` vector and the state header —
    /// over the incidences stored at distribution, so compaction leaves it
    /// unchanged.
    fn metered_words(&self) -> usize {
        1 + 2 * self.vertices.len() + 3 * self.incidences + self.phi.len()
    }

    /// Every resident half in slot order, rows ascending by edge id.
    fn halves(&self) -> impl Iterator<Item = Half> + '_ {
        self.vertices
            .iter()
            .zip(self.inc.iter())
            .flat_map(|(&v, inc)| inc.iter().map(move |&(e, o, w)| (v, e, o, w)))
    }

    fn half_alive(&self, &(v, _, o, w): &Half) -> bool {
        edge_alive(&self.phi, v, o, w)
    }

    /// Alive halves counted afresh: the debug check of `alive`.
    fn recount_alive(&self) -> usize {
        self.halves().filter(|h| self.half_alive(h)).count()
    }

    /// Iteration `iteration`'s sample: the alive halves whose coin lands
    /// below `p`, in slot order. Written as a loop over rows, the key's
    /// `(seed, tag, iteration, v)` prefix is invariant in the inner loop,
    /// and the pass runs in half the time of a filter over
    /// [`MatchState::halves`].
    fn sample(&self, seed: u64, iteration: usize, p: f64) -> Vec<Half> {
        let mut out = Vec::new();
        for (&v, inc) in self.vertices.iter().zip(self.inc.iter()) {
            for &(e, o, w) in inc {
                let key = [MATCH_COIN_TAG, iteration as u64, v as u64, e as u64];
                if edge_alive(&self.phi, v, o, w) && coin(seed, &key, p) {
                    out.push((v, e, o, w));
                }
            }
        }
        out
    }

    /// Drops every dead half from the rows, keeping the rest in order. `ϕ`
    /// only grows, so a dropped half could never have revived.
    fn compact(&mut self) {
        let MatchState {
            vertices, inc, phi, ..
        } = self;
        inc.retain(|slot, &(_, o, w)| edge_alive(phi, vertices[slot], o, w));
        self.alive = self.inc.len();
        debug_assert_eq!(self.alive, self.recount_alive());
    }
}

impl WordSized for MatchState {
    fn words(&self) -> usize {
        self.metered_words()
    }
}

/// Distributes vertices by hash, each with its incident edges: one pass
/// over `g.edges()` scatters both halves of every edge, so rows fill in
/// edge-id order, and counts each machine's alive halves on the way.
fn distribute(g: &Graph, cfg: &MrConfig) -> MrResult<Vec<MatchState>> {
    let degree = g.degrees();
    let mut placed = place_rows(
        cfg.machines,
        g.n(),
        |v| cfg.place(v as u64),
        |v| degree[v],
        NO_INCIDENT,
    )?;
    let mut alive = vec![0usize; cfg.machines];
    for (idx, e) in g.edges().iter().enumerate() {
        for (x, o) in [(e.u, e.v), (e.v, e.u)] {
            let (dst, row) = placed.at[x as usize];
            placed.arenas[dst as usize].push(row as usize, (idx as EdgeId, o, e.w));
            alive[dst as usize] += usize::from(alive_at_distribution(e.w));
        }
    }
    Ok(placed
        .ids
        .into_iter()
        .zip(placed.arenas)
        .zip(alive)
        .map(|((vertices, arena), alive)| MatchState::new(vertices, arena.finish(), alive, g.n()))
        .collect())
}

/// The gathered sample's per-vertex groups, ascending by vertex. A
/// vertex lives on one machine, and each machine's halves leave in slot
/// order, ascending by `(v, e)`, so every group is already one contiguous
/// run of `sample` in edge-id order. A bucket per vertex holding the start
/// of its run orders the groups, so the sample itself is never sorted.
fn vertex_groups(sample: &[Half], n: usize) -> impl Iterator<Item = &[Half]> + '_ {
    let mut start = vec![usize::MAX; n];
    for (at, &(v, ..)) in sample.iter().enumerate().rev() {
        start[v as usize] = at;
    }
    start
        .into_iter()
        .filter(|&at| at != usize::MAX)
        .map(move |at| {
            let v = sample[at].0;
            let len = sample[at..].iter().take_while(|h| h.0 == v).count();
            &sample[at..at + len]
        })
}

/// Runs Algorithm 4 on the cluster. The output depends on
/// `(cfg.eta, cfg.seed)` only, not on the machine count.
///
/// [`crate::api::Registry`] runs this for `matching` on every cluster
/// backend, on the runtime `cfg.exec.runtime` names. Central bookkeeping records
/// the endpoints and weight of every pushed edge in a flat column, which
/// is all the unwind looks up: `O(stack)` words, never `O(m)`, so the
/// unwind never reads the central [`Graph`].
pub fn run(g: &Graph, cfg: MrConfig) -> MrResult<(MatchingResult, Metrics)> {
    if cfg.eta == 0 {
        return Err(MrError::BadConfig("eta must be positive".into()));
    }
    let (n, m) = (g.n(), g.m());
    let mut cluster = Cluster::new(cfg.cluster(), distribute(g, &cfg)?)?;

    let mut lr = MatchingLocalRatio::new(n);
    // `(edge id, u, v, original weight)` of every stacked edge, in push
    // (= stack) order until the unwind sorts it by id.
    let mut pushed: Vec<(EdgeId, VertexId, VertexId, f64)> = Vec::new();
    cluster.charge_central(n + 2)?;

    let mut iteration = 0usize;
    loop {
        let alive = cluster.aggregate_sum(|_, s: &MatchState| s.alive)? / 2;
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
                    s.halves()
                        .filter(|h| h.0 < h.2 && s.half_alive(h))
                        .map(|(v, e, o, w)| (e, v, o, w))
                        .collect()
                })?;
            residual.sort_unstable_by_key(|&(e, _, _, _)| e);
            for (e, u, v, w) in residual {
                if lr.push(e, u, v, w) {
                    pushed.push((e, u, v, w));
                }
            }
            break;
        }

        let p = (cfg.eta as f64 / alive as f64).min(1.0);
        cluster.broadcast_words(1)?;

        let seed = cfg.seed;
        let sample: Vec<Half> =
            cluster.gather(|_, s: &mut MatchState| s.sample(seed, iteration, p))?;
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
        let mut touched: Vec<VertexId> = Vec::new();
        for group in vertex_groups(&sample, n) {
            let v = group[0].0;
            let mut best: Option<(f64, EdgeId, VertexId, f64)> = None;
            for &(_, e, o, w) in group {
                let m = lr.modified(v, o, w);
                let better = match best {
                    None => true,
                    Some((bm, be, _, _)) => m > bm || (m == bm && e < be),
                };
                if better {
                    best = Some((m, e, o, w));
                }
            }
            if let Some((_, e, o, w)) = best {
                if lr.push(e, v, o, w) {
                    pushed.push((e, v, o, w));
                    touched.push(v);
                    touched.push(o);
                }
            }
        }
        touched.sort_unstable();
        touched.dedup();

        // Broadcast ϕ deltas ((vertex, value) pairs) down the tree;
        // machines refresh their replicated copies and drop the halves
        // the new potentials killed.
        let delta: Vec<(VertexId, f64)> = touched.iter().map(|&v| (v, lr.phi(v))).collect();
        cluster.broadcast(&delta)?;
        cluster.local(move |_, s: &mut MatchState| {
            for &(v, phi) in &delta {
                s.phi[v as usize] = phi;
            }
            s.compact();
        })?;
        // Charge the growing central stack.
        cluster.charge_central(n + 2 + 2 * lr.stack_len())?;

        if iteration > 64 + 4 * m {
            return Err(cluster.fail("iteration budget exhausted"));
        }
    }

    pushed.sort_unstable_by_key(|&(e, ..)| e);
    let result = finish_with(n, lr, iteration, |id| {
        let at = pushed.binary_search_by_key(&id, |&(e, ..)| e);
        let (_, u, v, w) = pushed[at.expect("every stacked edge was recorded")];
        (u, v, w)
    });
    let (_, metrics) = cluster.into_parts();
    Ok((result, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::is_matching;
    use mrlr_graph::generators::{densified, with_uniform_weights};
    use mrlr_graph::Edge;

    #[test]
    fn matches_sequential_driver_bit_for_bit() {
        for seed in 0..4 {
            let g = with_uniform_weights(&densified(50, 0.4, seed), 0.5, 10.0, seed + 31);
            let cfg = MrConfig::auto(50, g.m(), 0.3, seed);
            let (mr, metrics) = run(&g, cfg).unwrap();
            let (seq, _) = run(&g, cfg.with_machines(1).recording()).unwrap();
            assert_eq!(mr.matching, seq.matching, "seed {seed}");
            assert_eq!(mr.iterations, seq.iterations);
            assert!((mr.stack_gain - seq.stack_gain).abs() < 1e-9);
            assert!(is_matching(&g, &mr.matching));
            assert!(metrics.rounds > 0);
            assert!(mr.certified_ratio(2.0) <= 2.0 + 1e-6);
        }
    }

    /// The stored state size is the record-per-vertex formula of the
    /// nested layout, recounted from the instance, and compaction does not
    /// change it: the rows shrink, the metered words stay.
    #[test]
    fn stored_words_equal_a_recount_through_a_run() {
        let g = with_uniform_weights(&densified(50, 0.4, 2), 0.5, 10.0, 33);
        let cfg = MrConfig::auto(50, g.m(), 0.3, 2).with_machines(5);
        let adj = g.adjacency();
        let mut states = distribute(&g, &cfg).unwrap();
        for (id, state) in states.iter_mut().enumerate() {
            let vertices: usize = (0..g.n())
                .filter(|&v| cfg.place(v as u64) == id)
                .map(|v| 1 + 1 + 3 * adj[v].len())
                .sum();
            let words = state.words();
            assert_eq!(words, 1 + vertices + g.n(), "machine {id}");
            for (slot, &v) in state.vertices.iter().enumerate() {
                let incident: Vec<Incident> = adj[v as usize]
                    .iter()
                    .map(|&(o, e)| (e, o, g.edge(e).w))
                    .collect();
                assert_eq!(&state.inc[slot], incident.as_slice());
            }
            assert_eq!(state.alive, state.inc.len());
            // Potentials of 2.6 kill exactly the edges lighter than 5.2.
            state.phi.fill(2.6);
            state.compact();
            assert_eq!(state.inc.rows(), state.vertices.len());
            assert!(state.halves().all(|(.., w)| w > 5.2));
            assert_eq!(state.alive, state.recount_alive());
            assert!(0 < state.alive && state.alive < state.incidences);
            assert_eq!(state.words(), words, "machine {id}");
        }
        let (direct, _) = run(&g, cfg).unwrap();
        assert!(is_matching(&g, &direct.matching));
    }

    /// Algorithm 4 samples each alive edge's halves with probability
    /// `p = η/|E|`, a coin per half. The instance keeps `|E| ≥ 4η`, so
    /// round one samples instead of finishing centrally, and its first
    /// gather ships `4` words per sampled half: the sample's size exactly.
    /// Pooled over 32 seeds, the `2|E|` halves a seed offers are sampled
    /// within 4σ of the rate `p`.
    #[test]
    fn first_round_samples_each_alive_half_at_rate_eta_over_e() {
        let g = with_uniform_weights(&densified(200, 0.5, 1), 1.0, 2.0, 1);
        let seeds = 32u64;
        let mut sampled = 0usize;
        let mut eta = 0;
        for seed in 0..seeds {
            let cfg = MrConfig::auto(g.n(), g.m(), 0.1, seed);
            eta = cfg.eta;
            assert!(g.m() >= CENTRAL_FINISH_SLACK * eta, "round one must sample");
            let (_, metrics) = run(&g, cfg).unwrap();
            let gather = metrics
                .per_round
                .iter()
                .find(|r| r.kind == mrlr_mapreduce::RoundKind::Gather)
                .expect("round one gathers its sample");
            assert_eq!(gather.total % 4, 0, "seed {seed}");
            sampled += gather.total / 4;
        }
        let trials = seeds as f64 * 2.0 * g.m() as f64;
        let p = eta as f64 / g.m() as f64;
        assert!(p < 0.5, "the regime must leave room to sample (p = {p})");
        let sigma = (trials * p * (1.0 - p)).sqrt();
        let expected = trials * p;
        assert!(
            (sampled as f64 - expected).abs() <= 4.0 * sigma,
            "sampled {sampled} of {trials} halves, expected {expected:.0} ± {:.0}",
            4.0 * sigma
        );
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

    /// Halves dead from the start (weight ≤ `POS_TOL`) are laid out but
    /// not counted alive, and the first refresh drops
    /// them; the run still samples (780 edges, a third of them dead,
    /// against `4η = 484`).
    #[test]
    fn halves_dead_at_distribution_are_stored_but_not_counted() {
        let heavy = with_uniform_weights(&densified(40, 0.9, 4), 1.0, 9.0, 4);
        let edges = heavy.edges().iter().enumerate();
        let edges = edges.map(|(i, e)| Edge::new(e.u, e.v, if i % 3 == 0 { 1e-12 } else { e.w }));
        let g = Graph::new(40, edges.collect());
        let cfg = MrConfig::auto(40, g.m(), 0.3, 4);
        let states = distribute(&g, &cfg).unwrap();
        let alive: usize = states.iter().map(|s| s.alive).sum();
        let stored: usize = states.iter().map(|s| s.inc.len()).sum();
        assert_eq!((alive, stored), (2 * 520, 2 * 780));
        assert!(520 >= CENTRAL_FINISH_SLACK * cfg.eta);

        let (direct, _) = run(&g, cfg).unwrap();
        assert!(is_matching(&g, &direct.matching));
        assert!(direct.iterations >= 2, "no sampled iteration");
        assert!(direct.matching.iter().all(|&e| g.edge(e).w > 1.0));
    }

    /// Per-machine runs ascending by `(v, e)` come out grouped by vertex,
    /// ascending, each group whole and in its original order.
    #[test]
    fn vertex_groups_order_the_machine_runs() {
        let half = |v: VertexId, e: EdgeId| (v, e, 0, 1.0);
        // Machine 0 owns vertices {1, 4}, machine 1 {0, 2, 5}.
        let sample = [
            half(1, 3),
            half(1, 8),
            half(4, 2),
            half(0, 1),
            half(2, 0),
            half(2, 6),
            half(5, 9),
        ];
        let groups: Vec<Vec<(VertexId, EdgeId)>> = vertex_groups(&sample, 7)
            .map(|g| g.iter().map(|&(v, e, ..)| (v, e)).collect())
            .collect();
        assert_eq!(
            groups,
            [
                vec![(0, 1)],
                vec![(1, 3), (1, 8)],
                vec![(2, 0), (2, 6)],
                vec![(4, 2)],
                vec![(5, 9)],
            ]
        );
        assert_eq!(vertex_groups(&[], 3).count(), 0);
    }
}
