//! MapReduce implementation of Appendix B (Corollary B.1): maximal clique
//! in `O(1/µ)` rounds, without materializing the complement graph.
//!
//! Machines hold vertex adjacency plus a replicated *active-set* bitmap
//! (the surviving common-neighbour candidates), maintained by broadcast
//! removal deltas — the executable form of the paper's relabelling scheme.
//! A machine's block is flat: fixed-width vertex records beside one
//! [`Csr`] arena holding every sorted neighbour list
//! (`mr::place_neighbours`); the *metered* size is still the
//! record-per-vertex formula, computed once at distribution.
//! A sampled vertex sends its **complement** list `A \ N[v]`, whose size is
//! its complement degree (bounded by its degree class), so communication
//! stays `O(n^{1+µ})` per round even though the complement is dense. The
//! lists are variable-size, so both gathers ride
//! [`Cluster::gather_payload`] like `mis`'s.

use mrlr_graph::{Graph, VertexId};
use mrlr_mapreduce::{
    Bitset, Cluster, Csr, Metrics, MrError, MrResult, PayloadBatch, PayloadSink, WordSized,
};

use crate::hungry::clique::CLIQUE_RNG_TAG;
use crate::hungry::mis::{degree_class, group_choice, MisParams};
use crate::mr::mis::{process_groups, CentralRound, SampleHead};
use crate::mr::{place_neighbours, MrConfig};
use crate::types::SelectionResult;

#[derive(Clone, Copy)]
struct CliqueRec {
    v: VertexId,
    /// `|N(v) ∩ A|` while `v` is active.
    g_alive: usize,
}

struct CliqueChunk {
    /// Ascending vertex id; `recs[slot]`'s sorted neighbour ids are row
    /// `slot` of `nbrs`.
    recs: Vec<CliqueRec>,
    nbrs: Csr<VertexId>,
    active: Bitset,
    active_count: usize,
    /// Scratch of [`CliqueChunk::apply_delta`], all clear between rounds:
    /// working memory of one pass, not resident state, so not metered.
    delta_bits: Bitset,
    /// [`CliqueChunk::metered_words`], fixed at distribution.
    words: usize,
}

impl WordSized for CliqueChunk {
    fn words(&self) -> usize {
        debug_assert_eq!(self.words, self.metered_words());
        self.words
    }
}

impl CliqueChunk {
    /// The simulated size: a 2-word record plus its neighbour list per
    /// vertex, the active bitmap, its counter and the chunk header.
    fn metered_words(&self) -> usize {
        let recs: usize = self.nbrs.iter().map(|nbrs| 2 + 1 + nbrs.len()).sum();
        2 + recs + self.active.words()
    }

    /// Deactivates `delta` and takes it out of every active record's
    /// alive-neighbour count, testing membership in the scratch bitmap
    /// (set, used, cleared bit by bit).
    fn apply_delta(&mut self, delta: &[VertexId]) {
        for &v in delta {
            self.active.clear(v as usize);
            self.delta_bits.set(v as usize);
        }
        self.active_count -= delta.len();
        for (slot, rec) in self.recs.iter_mut().enumerate() {
            if !self.active.get(rec.v as usize) {
                continue;
            }
            rec.g_alive -= self.nbrs[slot]
                .iter()
                .filter(|&&x| self.delta_bits.get(x as usize))
                .count();
        }
        for &v in delta {
            self.delta_bits.clear(v as usize);
        }
    }

    fn dbar(&self, rec: &CliqueRec) -> usize {
        self.active_count - 1 - rec.g_alive
    }

    /// Streams the complement list `A \ N[v] \ {v}` of the active record in
    /// `slot` into a payload sink under `head`: one merge walk of the
    /// active set against the sorted neighbour row.
    fn sink_complement<H>(&self, sink: &mut PayloadSink<H, VertexId>, head: H, slot: usize)
    where
        H: Copy + WordSized,
    {
        let v = self.recs[slot].v;
        let mut nbrs = self.nbrs[slot].iter().copied().peekable();
        let mut w = sink.begin(head);
        for u in self.active.iter_ones().map(|u| u as VertexId) {
            while nbrs.next_if(|&x| x < u).is_some() {}
            if u != v && nbrs.peek() != Some(&u) {
                w.push(u);
            }
        }
    }
}

fn build_chunks(g: &Graph, cfg: &MrConfig) -> MrResult<Vec<CliqueChunk>> {
    let n = g.n();
    Ok(place_neighbours(g, cfg)?
        .map(|(ids, nbrs)| {
            let recs = ids
                .iter()
                .zip(nbrs.iter())
                .map(|(&v, row)| CliqueRec {
                    v,
                    g_alive: row.len(),
                })
                .collect();
            let mut chunk = CliqueChunk {
                recs,
                nbrs,
                active: Bitset::full(n),
                active_count: n,
                delta_bits: Bitset::new(n),
                words: 0,
            };
            chunk.words = chunk.metered_words();
            chunk
        })
        .collect())
}

/// Appendix B's maximal clique on the cluster. Output is bit-identical to
/// [`crate::hungry::clique::maximal_clique`] with the same parameters.
///
/// [`crate::api::CliqueDriver`] runs this for every cluster backend,
/// on the runtime `cfg.exec.runtime` names.
pub fn run(g: &Graph, params: MisParams, cfg: MrConfig) -> MrResult<(SelectionResult, Metrics)> {
    if !(params.alpha > 0.0 && params.alpha <= 1.0) || params.group_size == 0 || params.eta == 0 {
        return Err(MrError::BadConfig(
            "invalid hungry-greedy parameters".into(),
        ));
    }
    let n = g.n();
    if n == 0 {
        return Ok((
            SelectionResult {
                vertices: vec![],
                phases: 0,
                iterations: 0,
            },
            Metrics::new(cfg.machines, cfg.capacity),
        ));
    }
    let nf = (n.max(2)) as f64;
    let num_classes = (1.0 / params.alpha).ceil() as usize;

    let mut cluster = Cluster::new(cfg.cluster(), build_chunks(g, &cfg)?)?;
    let mut clique: Vec<VertexId> = Vec::new();
    cluster.charge_central(2 + n / 32)?;

    let mut k = 0usize;
    loop {
        let comp_edges = {
            let (active_count, alive_sum) = cluster.aggregate(
                |_, s: &CliqueChunk| {
                    let active: usize =
                        s.recs.iter().filter(|r| s.active.get(r.v as usize)).count();
                    let alive: usize = s
                        .recs
                        .iter()
                        .filter(|r| s.active.get(r.v as usize))
                        .map(|r| r.g_alive)
                        .sum();
                    (active, alive)
                },
                |a, b| (a.0 + b.0, a.1 + b.1),
            )?;
            if active_count < 2 {
                0
            } else {
                active_count * (active_count - 1) / 2 - alive_sum / 2
            }
        };
        let global_active = cluster.state(0).active_count; // replicated scalar
        if comp_edges < params.eta || global_active == 0 {
            break;
        }
        k += 1;
        if k > 64 + 4 * n {
            return Err(cluster.fail("clique round budget exhausted"));
        }

        // Class sizes over complement degrees.
        let class_sizes: Vec<u64> = cluster.aggregate(
            |_, s: &CliqueChunk| {
                let mut counts = vec![0u64; num_classes + 1];
                for r in &s.recs {
                    if s.active.get(r.v as usize) {
                        let d = s.dbar(r);
                        if d > 0 {
                            counts[degree_class(d, nf, params.alpha, num_classes)] += 1;
                        }
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

        let seed = params.seed;
        let alpha = params.alpha;
        let gs = params.group_size;
        let sizes = class_sizes.clone();
        let sample: PayloadBatch<SampleHead, VertexId> =
            cluster.gather_payload(move |_, s: &mut CliqueChunk, sink| {
                for (slot, r) in s.recs.iter().enumerate() {
                    if !s.active.get(r.v as usize) {
                        continue;
                    }
                    let d = s.dbar(r);
                    if d == 0 {
                        continue;
                    }
                    let i = degree_class(d, nf, alpha, num_classes);
                    let groups_count = nf.powf((i + 1) as f64 * alpha).ceil() as usize;
                    if let Some(gid) = group_choice(
                        seed,
                        &[CLIQUE_RNG_TAG, k as u64, i as u64],
                        r.v as u64,
                        groups_count,
                        gs,
                        sizes[i] as usize,
                    ) {
                        s.sink_complement(sink, (i as u64, gid as u64, r.v), slot);
                    }
                }
            })?;

        // Central: one qualifying vertex per group, hungriest (max current
        // complement degree) first within a group — `mis`'s group pass with
        // complement lists in the alive-neighbour role.
        let mut round = CentralRound::new(n);
        process_groups(&sample, &mut round, |c| {
            nf.powf(1.0 - (c as f64 + 1.0) * params.alpha)
        });
        clique.extend_from_slice(&round.added);
        let mut delta = round.delta;
        delta.sort_unstable();
        cluster.broadcast(&delta)?;
        cluster.local(move |_, s: &mut CliqueChunk| s.apply_delta(&delta))?;
    }

    // Final central round: greedy clique over the residual active set using
    // gathered complement lists (ascending vertex order).
    let residual: PayloadBatch<VertexId, VertexId> =
        cluster.gather_payload(|_, s: &mut CliqueChunk, sink| {
            for (slot, r) in s.recs.iter().enumerate() {
                if s.active.get(r.v as usize) {
                    s.sink_complement(sink, r.v, slot);
                }
            }
        })?;
    let mut round = CentralRound::new(n);
    round.add_ascending(&residual);
    clique.extend(round.added);

    clique.sort_unstable();
    let result = SelectionResult {
        vertices: clique,
        phases: k,
        iterations: k + 1,
    };
    let (_, metrics) = cluster.into_parts();
    Ok((result, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hungry::clique::maximal_clique;
    use crate::verify::is_maximal_clique;
    use mrlr_graph::generators::gnp;

    #[test]
    fn matches_driver_bit_for_bit() {
        for seed in 0..4 {
            let g = gnp(40, 0.5, seed);
            let params = MisParams::mis2(40, 0.3, seed);
            let cfg = MrConfig::auto(40, g.m().max(1), 0.3, seed);
            let (mr, metrics) = run(&g, params, cfg).unwrap();
            let seq = maximal_clique(&g, params).unwrap();
            assert_eq!(mr.vertices, seq.vertices, "seed {seed}");
            assert!(is_maximal_clique(&g, &mr.vertices));
            assert!(metrics.rounds > 0);
        }
    }

    /// The stored state size is the record-per-vertex formula of the
    /// nested layout, recounted from the instance, and nothing a superstep
    /// does changes it (`words()` re-asserts that on every pass of a
    /// debug run).
    #[test]
    fn stored_words_equal_a_recount_through_a_run() {
        let g = gnp(40, 0.5, 2);
        let cfg = MrConfig::auto(40, g.m(), 0.3, 2).with_machines(5);
        let adj = g.adjacency();
        let mut chunks = build_chunks(&g, &cfg).unwrap();
        for (id, chunk) in chunks.iter_mut().enumerate() {
            let recs: usize = (0..g.n())
                .filter(|&v| cfg.place(v as u64) == id)
                .map(|v| 2 + 1 + adj[v].len())
                .sum();
            assert_eq!(
                chunk.words,
                2 + recs + 1 + g.n().div_ceil(64),
                "machine {id}"
            );
            for (slot, rec) in chunk.recs.iter().enumerate() {
                let mut sorted: Vec<VertexId> =
                    adj[rec.v as usize].iter().map(|&(w, _)| w).collect();
                sorted.sort_unstable();
                assert_eq!(&chunk.nbrs[slot], sorted.as_slice());
                assert_eq!(rec.g_alive, sorted.len());
            }
            chunk.apply_delta(&[0, 7, 31]);
            assert_eq!(chunk.words(), chunk.metered_words());
            assert_eq!(chunk.delta_bits.count(), 0, "scratch left clear");
        }
        run(&g, MisParams::mis2(40, 0.3, 2), cfg).unwrap();
    }

    /// The merge walk lists exactly the active non-neighbours, ascending.
    #[test]
    fn complement_lists_are_the_active_non_neighbours() {
        let g = gnp(40, 0.5, 4);
        let cfg = MrConfig::auto(40, g.m(), 0.3, 4).with_machines(3);
        let adj = g.adjacency();
        let mut cluster = Cluster::new(cfg.cluster(), build_chunks(&g, &cfg).unwrap()).unwrap();
        let removed = [3 as VertexId, 11, 12, 39];
        cluster
            .local(|_, s: &mut CliqueChunk| s.apply_delta(&removed))
            .unwrap();
        let lists: PayloadBatch<VertexId, VertexId> = cluster
            .gather_payload(|_, s: &mut CliqueChunk, sink| {
                for (slot, r) in s.recs.iter().enumerate() {
                    s.sink_complement(sink, r.v, slot);
                }
            })
            .unwrap();
        assert_eq!(lists.len(), g.n());
        for (v, list) in lists.iter() {
            let expect: Vec<VertexId> = (0..g.n() as VertexId)
                .filter(|u| !removed.contains(u) && *u != v)
                .filter(|&u| !adj[v as usize].iter().any(|&(w, _)| w == u))
                .collect();
            assert_eq!(list, expect.as_slice(), "vertex {v}");
        }
    }

    #[test]
    fn dense_graph_nontrivial_clique() {
        let g = gnp(35, 0.8, 3);
        let params = MisParams::mis2(35, 0.4, 3);
        let cfg = MrConfig::auto(35, g.m(), 0.4, 3);
        let (r, _) = run(&g, params, cfg).unwrap();
        assert!(r.vertices.len() >= 3);
        assert!(is_maximal_clique(&g, &r.vertices));
    }
}
