//! MapReduce implementation of Theorem 2.4's `f = 2` fast path:
//! 2-approximate weighted **vertex cover** in `O(c/µ)` rounds.
//!
//! The general-`f` algorithm pays a broadcast tree (`O(c/µ)` rounds) per
//! iteration to disseminate the chosen sets. For `f = 2` the paper replaces
//! the tree with two point-to-point hops: the central machine sends one bit
//! to each newly-chosen *vertex* (set), and each vertex forwards the bit to
//! its incident *edges* (elements) — `O(1)` rounds per iteration, `O(c/µ)`
//! total.
//!
//! Layout: edges (elements) are hash-partitioned; each vertex lives on a
//! machine with its incident-edge list. A machine's block is flat:
//! fixed-width edge records, their alive flags as a column of their own,
//! its vertex ids, and one [`Csr`] arena holding every incident-edge list.
//! The *metered* size is still the record-per-vertex formula; only the
//! alive flags change after distribution, so it is computed once.
//!
//! A row holds record *addresses*, not edge ids: when `distribute`
//! places edge `e` at slot `s` of machine `home`, both endpoints' rows
//! record `(home, s)`. Hop 2 therefore ships the one-word slot straight to
//! `home`, whose consume step clears `alive[s]` by direct offset — no hash
//! to route a message and no search to find its record, the index
//! arithmetic over a machine's own flat block that Goodrich–Sitchinava–
//! Zhang take as a machine's work. A `u32` pair fits in the one word the
//! model charges per incidence, and the message is one word as before.
//! Every message is a single scalar or a fixed-width tuple, so the driver
//! uses plain `exchange`/`gather`: the flat payload gather
//! (`Cluster::gather_payload`, see `crate::mr::mis`) only pays off for
//! variable-size `(head, [elements])` messages.

use mrlr_graph::{EdgeId, Graph, VertexId};
use mrlr_mapreduce::rng::coin;
use mrlr_mapreduce::{Bitset, Cluster, Csr, Metrics, MrError, MrResult, WordSized};

use crate::mr::set_cover::{central_pass, check_sample};
use crate::mr::{place_rows, MrConfig};
use crate::rlr::setcover::{sample_probability, SC_COIN_TAG};
use crate::seq::local_ratio_sc::ScLocalRatio;
use crate::types::CoverResult;

#[derive(Clone, Copy)]
struct EdgeRec {
    id: EdgeId,
    u: VertexId,
    v: VertexId,
}

/// Where an edge record lives: `(home machine, slot in its edges)`.
type EdgeAddr = (u32, u32);

struct VcState {
    /// Ascending edge id.
    edges: Vec<EdgeRec>,
    /// `alive[s]`: edge `edges[s]` is still uncovered.
    alive: Vec<bool>,
    /// Ascending vertex id; row `slot` of `incident` holds the addresses
    /// of vertex `vertices[slot]`'s incident edges, ascending by edge id.
    vertices: Vec<VertexId>,
    incident: Csr<EdgeAddr>,
    alive_count: usize,
    /// [`VcState::metered_words`], fixed at distribution.
    words: usize,
}

impl WordSized for VcState {
    fn words(&self) -> usize {
        debug_assert_eq!(self.words, self.metered_words());
        self.words
    }
}

impl VcState {
    /// The simulated size: a 4-word record per edge, a 1-word record plus
    /// its incident-edge list per vertex, and the alive counter.
    fn metered_words(&self) -> usize {
        let vertices: usize = self.incident.iter().map(|es| 1 + 1 + es.len()).sum();
        1 + 4 * self.edges.len() + vertices
    }
}

/// Machine of vertex `v` (edges are placed by their own id).
fn vertex_place(cfg: &MrConfig, v: VertexId) -> usize {
    cfg.place(0x0076_6377 ^ (v as u64).rotate_left(17))
}

/// Distributes edges (elements) and vertices (sets, with the addresses of
/// their incident edges ascending by id) by hash.
fn distribute(g: &Graph, cfg: &MrConfig) -> MrResult<Vec<VcState>> {
    let degree = g.degrees();
    let mut placed = place_rows(
        cfg.machines,
        g.n(),
        |v| vertex_place(cfg, v as VertexId),
        |v| degree[v],
        (0, 0),
    )?;
    let mut edges: Vec<Vec<EdgeRec>> = vec![Vec::new(); cfg.machines];
    for (idx, e) in g.edges().iter().enumerate() {
        let home = cfg.place(idx as u64);
        let addr = (home as u32, edges[home].len() as u32);
        edges[home].push(EdgeRec {
            id: idx as EdgeId,
            u: e.u,
            v: e.v,
        });
        for x in [e.u, e.v] {
            let (dst, row) = placed.at[x as usize];
            placed.arenas[dst as usize].push(row as usize, addr);
        }
    }
    Ok(edges
        .into_iter()
        .zip(placed.ids)
        .zip(placed.arenas)
        .map(|((edges, vertices), arena)| {
            let mut state = VcState {
                alive_count: edges.len(),
                alive: vec![true; edges.len()],
                edges,
                vertices,
                incident: arena.finish(),
                words: 0,
            };
            state.words = state.metered_words();
            state
        })
        .collect())
}

/// Runs the `f = 2` vertex-cover algorithm on the cluster. Output is
/// bit-identical to running [`crate::mr::set_cover::run`] on
/// [`mrlr_setsys::SetSystem::vertex_cover_of`]`(g, weights)`.
///
/// [`crate::api::Registry`] runs this for `vertex-cover` on every cluster
/// backend, on the runtime `cfg.exec.runtime` names.
pub fn run(g: &Graph, weights: &[f64], cfg: MrConfig) -> MrResult<(CoverResult, Metrics)> {
    assert_eq!(weights.len(), g.n());
    if cfg.eta == 0 {
        return Err(MrError::BadConfig("eta must be positive".into()));
    }
    if g.m() == 0 {
        return Ok((
            CoverResult {
                cover: vec![],
                weight: 0.0,
                lower_bound: 0.0,
                dual: vec![],
                iterations: 0,
            },
            Metrics::new(cfg.machines, cfg.capacity),
        ));
    }

    let mut cluster = Cluster::new(cfg.cluster(), distribute(g, &cfg)?)?;

    let mut lr = ScLocalRatio::new(weights);
    cluster.charge_central(g.n() + 2)?;

    let mut round = 0usize;
    loop {
        let alive = cluster.aggregate_sum(|_, s: &VcState| s.alive_count)?;
        if alive == 0 {
            break;
        }
        round += 1;
        let p = sample_probability(cfg.eta, alive);
        cluster.broadcast_words(1)?;

        let seed = cfg.seed;
        let mut sample: Vec<(EdgeId, VertexId, VertexId)> =
            cluster.gather(|_, s: &mut VcState| {
                s.edges
                    .iter()
                    .zip(&s.alive)
                    .filter(|&(r, &alive)| {
                        alive && coin(seed, &[SC_COIN_TAG, round as u64, r.id as u64], p)
                    })
                    .map(|(r, _)| (r.id, r.u, r.v))
                    .collect::<Vec<_>>()
            })?;
        check_sample(&cluster, sample.len(), cfg.eta)?;
        // Elements of the vertex-cover system are edge ids, `T_j = {u, v}`.
        sample.sort_unstable_by_key(|(j, _, _)| *j);
        let delta = central_pass(&mut lr, sample.iter().map(|&(j, u, v)| (j, [u, v])));

        // Hop 1: central → chosen vertices (one id each).
        // Hop 2: each chosen vertex → its incident edges' machines.
        let central = cluster.config().central;
        // Hop 1 meters central → chosen-vertex delivery; the chosen ids are
        // then available on the vertex machines (captured `delta` stands in
        // for the delivered values: metered data, captured control).
        cluster.exchange::<VertexId, _, _>(
            |id, _s, out| {
                if id == central {
                    for &v in &delta {
                        out.send(vertex_place(&cfg, v), v);
                    }
                }
            },
            |_, _s, _inbox| {},
        )?;
        // Hop 2: each vertex machine forwards the chosen bit to the edges
        // of its chosen vertices, as the record slot on each edge's home
        // machine; the home machine marks the slot covered. A Bitset over
        // the vertex ids makes the per-record membership check O(1)
        // instead of a binary search per vertex record.
        let mut delta_bits = Bitset::new(g.n());
        for &v in &delta {
            delta_bits.set(v as usize);
        }
        cluster.exchange::<u32, _, _>(
            |_, s, out| {
                for (slot, &v) in s.vertices.iter().enumerate() {
                    if delta_bits.get(v as usize) {
                        for &(home, at) in s.incident.row(slot) {
                            out.send(home as usize, at);
                        }
                    }
                }
            },
            |_, s, inbox| {
                for &at in inbox.iter() {
                    let alive = &mut s.alive[at as usize];
                    if *alive {
                        *alive = false;
                        s.alive_count -= 1;
                    }
                }
            },
        )?;

        if round > 64 + 2 * g.m() {
            return Err(cluster.fail("round budget exhausted"));
        }
    }

    let cover = lr.cover();
    let result = CoverResult {
        weight: cover.iter().map(|&v| weights[v as usize]).sum(),
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
    use crate::mr::set_cover;
    use crate::verify::is_vertex_cover;
    use mrlr_graph::generators::densified;
    use mrlr_mapreduce::DetRng;
    use mrlr_setsys::SetSystem;

    fn weights(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = DetRng::derive(seed, &[0x0076_6377]);
        (0..n).map(|_| rng.f64_range(1.0, 10.0)).collect()
    }

    #[test]
    fn matches_generic_driver_on_vc_view() {
        for seed in 0..4 {
            let g = densified(50, 0.4, seed);
            let w = weights(50, seed);
            let cfg = MrConfig::auto(50, g.m(), 0.4, seed);
            let (mr, metrics) = run(&g, &w, cfg).unwrap();
            let sys = SetSystem::vertex_cover_of(&g, w.clone());
            let (seq, _) = set_cover::run(&sys, cfg.with_machines(1).recording()).unwrap();
            let seq_cover: Vec<VertexId> = seq.cover.clone();
            assert_eq!(mr.cover, seq_cover, "seed {seed}");
            assert!(is_vertex_cover(&g, &mr.cover));
            // 2-approximation certificate.
            assert!(mr.weight <= 2.0 * mr.lower_bound + 1e-6);
            assert!(metrics.rounds > 0);
        }
    }

    /// The stored state size is the record-per-vertex formula of the
    /// nested layout, recounted from the instance, and nothing a superstep
    /// does changes it (`words()` re-asserts that on every pass of a
    /// debug run). Every address in a vertex's row resolves to the record
    /// of its next incident edge, ascending by id, on that edge's home
    /// machine.
    #[test]
    fn stored_words_equal_a_recount_through_a_run() {
        let g = densified(50, 0.4, 2);
        let cfg = MrConfig::auto(50, g.m(), 0.4, 2).with_machines(5);
        let adj = g.adjacency();
        let states = distribute(&g, &cfg).unwrap();
        for (id, state) in states.iter().enumerate() {
            let edges = (0..g.m()).filter(|&e| cfg.place(e as u64) == id).count();
            let vertices: usize = (0..g.n())
                .filter(|&v| vertex_place(&cfg, v as VertexId) == id)
                .map(|v| 1 + 1 + adj[v].len())
                .sum();
            assert_eq!(state.words, 1 + 4 * edges + vertices, "machine {id}");
            assert_eq!(state.words(), state.metered_words());
            assert_eq!(state.alive, vec![true; edges]);
            for (slot, &v) in state.vertices.iter().enumerate() {
                let incident: Vec<EdgeId> = adj[v as usize].iter().map(|&(_, e)| e).collect();
                assert!(incident.windows(2).all(|w| w[0] < w[1]), "vertex {v}");
                let resolved: Vec<EdgeId> = state
                    .incident
                    .row(slot)
                    .iter()
                    .map(|&(home, at)| {
                        let rec = states[home as usize].edges[at as usize];
                        assert_eq!(home as usize, cfg.place(rec.id as u64));
                        assert!(rec.u == v || rec.v == v, "edge {} misses {v}", rec.id);
                        rec.id
                    })
                    .collect();
                assert_eq!(resolved, incident, "vertex {v}");
            }
        }
        run(&g, &weights(50, 2), cfg).unwrap();
    }

    #[test]
    fn constant_rounds_per_iteration() {
        // f = 2 path: rounds per iteration are O(1) — specifically
        // aggregate + p-broadcast + gather + 2 exchanges, with fanout
        // covering all machines in one hop here.
        let g = densified(60, 0.5, 9);
        let w = weights(60, 9);
        let mut cfg = MrConfig::auto(60, g.m(), 0.3, 9);
        cfg.fanout = cfg.machines.max(2);
        let (r, metrics) = run(&g, &w, cfg).unwrap();
        assert!(r.iterations >= 1);
        let per_iter = metrics.rounds as f64 / r.iterations as f64;
        assert!(per_iter <= 6.0, "rounds/iter {per_iter}");
    }

    #[test]
    fn empty_graph_trivial() {
        let g = Graph::new(5, vec![]);
        let cfg = MrConfig::auto(5, 1, 0.3, 1);
        let (r, _) = run(&g, &[1.0; 5], cfg).unwrap();
        assert!(r.cover.is_empty());
    }
}
