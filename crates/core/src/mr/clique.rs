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
use mrlr_mapreduce::{Bitset, Cluster, Csr, Metrics, MrResult, PayloadSink, WordSized};

use crate::hungry::clique::CLIQUE_RNG_TAG;
use crate::hungry::mis::MisParams;
use crate::mr::mis::{run_classes, ClassChunk};
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

impl ClassChunk for CliqueChunk {
    const TAGS: &'static [u64] = &[CLIQUE_RNG_TAG];
    const BUDGET: &'static str = "clique round budget exhausted";

    fn slots(&self) -> usize {
        self.recs.len()
    }

    /// An active vertex and its complement degree `|A| − 1 − |N(v) ∩ A|`.
    fn live(&self, slot: usize) -> Option<(VertexId, usize)> {
        let r = self.recs[slot];
        let active = self.active.get(r.v as usize);
        active.then(|| (r.v, self.active_count - 1 - r.g_alive))
    }

    /// Streams the complement list `A \ N[v] \ {v}`: one merge walk of the
    /// active set against the sorted neighbour row.
    fn sink_list<H>(&self, sink: &mut PayloadSink<H, VertexId>, head: H, slot: usize)
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

    /// Complement edges among the active vertices, from a 2-word
    /// `(active, alive-degree sum)` aggregate; none once the replicated
    /// active count reaches zero.
    fn live_edges(cluster: &mut Cluster<Self>) -> MrResult<usize> {
        let (active_count, alive_sum) = cluster.aggregate(
            |_, s: &CliqueChunk| {
                let active = s.recs.iter().filter(|r| s.active.get(r.v as usize));
                let alive: usize = active.clone().map(|r| r.g_alive).sum();
                (active.count(), alive)
            },
            |a, b| (a.0 + b.0, a.1 + b.1),
        )?;
        if active_count < 2 || cluster.state(0).active_count == 0 {
            return Ok(0);
        }
        Ok(active_count * (active_count - 1) / 2 - alive_sum / 2)
    }
}

/// Appendix B's maximal clique on the cluster: `mis::run_classes`, the loop
/// [`crate::mr::mis::run_fast`] runs, on complement degrees and
/// complement lists. The output does not depend on the machine count.
///
/// [`crate::api::Registry`] runs this for `clique` on every cluster
/// backend, on the runtime `cfg.exec.runtime` names.
pub fn run(g: &Graph, params: MisParams, cfg: MrConfig) -> MrResult<(SelectionResult, Metrics)> {
    run_classes(g, params, cfg, build_chunks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::is_maximal_clique;
    use mrlr_graph::generators::gnp;
    use mrlr_mapreduce::PayloadBatch;

    #[test]
    fn matches_driver_bit_for_bit() {
        for seed in 0..4 {
            let g = gnp(40, 0.5, seed);
            let params = MisParams::mis2(40, 0.3, seed);
            let cfg = MrConfig::auto(40, g.m().max(1), 0.3, seed);
            let (mr, metrics) = run(&g, params, cfg).unwrap();
            let (seq, _) = run(&g, params, cfg.with_machines(1).recording()).unwrap();
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
                    s.sink_list(sink, r.v, slot);
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
