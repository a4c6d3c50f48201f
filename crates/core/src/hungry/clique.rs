//! Appendix B: maximal clique via hungry-greedy *without complementing the
//! graph*.
//!
//! A maximal clique is a maximal independent set in the complement, but the
//! complement of a sparse graph has `Ω(n²)` edges and cannot be
//! materialized in `O(n^{1+µ})` memory. The paper's fix: maintain the
//! *active set* `A` (common neighbours of the clique so far). A vertex's
//! complement neighbourhood is `A \ N[v]`, of size
//! `d̄(v) = |A| − 1 − |N(v) ∩ A|`, which is exactly what gets communicated —
//! so each round touches only `O(n^{1+µ})` words even though the
//! complement is dense. The relabelling scheme of Appendix B is realized
//! here as the shrinking active set plus per-round removal deltas.
//!
//! [`maximal_clique`] runs the same loop as [`crate::hungry::mis_fast`]
//! (Algorithm 6's class schedule), over this module's active-set state
//! instead of the MIS state.

use mrlr_graph::{EdgeId, Graph, VertexId};
use mrlr_mapreduce::{Csr, MrError, MrResult};

use crate::hungry::mis::{class_schedule, ClassState, MisParams};
use crate::types::SelectionResult;

/// Tag mixed into the clique sampling RNG (shared with the MR driver).
pub const CLIQUE_RNG_TAG: u64 = 0x434c_4951;

/// Mutable clique state: the clique `K`, the active set `A`, and the alive
/// (primal) degrees `|N(v) ∩ A|` from which complement degrees derive,
/// over the graph's own adjacency rows.
pub(crate) struct CliqueState<'g> {
    pub adj: &'g Csr<(VertexId, EdgeId)>,
    pub active: Vec<bool>,
    pub active_count: usize,
    /// `g_alive[v] = |N(v) ∩ A|` for active `v` (stale for inactive).
    pub g_alive: Vec<usize>,
    pub clique: Vec<VertexId>,
}

impl<'g> CliqueState<'g> {
    pub fn new(g: &'g Graph) -> Self {
        CliqueState {
            adj: g.adjacency(),
            active: vec![true; g.n()],
            active_count: g.n(),
            g_alive: g.degrees(),
            clique: Vec::new(),
        }
    }

    /// Complement degree of an active vertex.
    pub fn dbar(&self, v: VertexId) -> usize {
        debug_assert!(self.active[v as usize]);
        self.active_count - 1 - self.g_alive[v as usize]
    }

    /// Number of edges in the complement of the active-induced subgraph.
    pub fn complement_edges(&self) -> usize {
        if self.active_count < 2 {
            return 0;
        }
        let alive_deg_sum: usize = (0..self.active.len())
            .filter(|&v| self.active[v])
            .map(|v| self.g_alive[v])
            .sum();
        self.active_count * (self.active_count - 1) / 2 - alive_deg_sum / 2
    }

    /// Adds active vertex `v` to the clique: `A ← A ∩ N(v)`. No-op if `v`
    /// is inactive.
    pub fn add(&mut self, v: VertexId) {
        let v = v as usize;
        if !self.active[v] {
            return;
        }
        let adj = self.adj;
        self.clique.push(v as VertexId);
        // Deactivate v and every active non-neighbour of v.
        let mut keep = vec![false; self.active.len()];
        for &(w, _) in &adj[v] {
            if self.active[w as usize] {
                keep[w as usize] = true;
            }
        }
        let removed: Vec<usize> = (0..self.active.len())
            .filter(|&u| self.active[u] && !keep[u])
            .collect();
        for &u in &removed {
            self.active[u] = false;
            self.active_count -= 1;
        }
        for &u in &removed {
            for &(y, _) in &adj[u] {
                if self.active[y as usize] {
                    self.g_alive[y as usize] -= 1;
                }
            }
        }
    }

    /// Greedy maximal clique over the remaining active vertices — the final
    /// central round (complement fits in memory).
    pub fn finish_greedy(&mut self) {
        let n = self.active.len();
        for v in 0..n as VertexId {
            if self.active[v as usize] {
                self.add(v);
            }
        }
        debug_assert_eq!(self.active_count, 0);
    }
}

/// Hungry-greedy maximal clique (Corollary B.1): Algorithm 6's class
/// schedule ([`crate::hungry::mis`]'s `class_schedule`, the loop
/// [`crate::hungry::mis_fast`] runs) on complement degrees, terminating
/// centrally once the complement of the active subgraph has fewer than
/// `η` edges.
pub fn maximal_clique(g: &Graph, params: MisParams) -> MrResult<SelectionResult> {
    if !(params.alpha > 0.0 && params.alpha <= 1.0) || params.group_size == 0 || params.eta == 0 {
        return Err(MrError::BadConfig(
            "invalid hungry-greedy parameters".into(),
        ));
    }
    class_schedule(CliqueState::new(g), params)
}

impl ClassState for CliqueState<'_> {
    const TAGS: &'static [u64] = &[CLIQUE_RNG_TAG];
    const BUDGET: &'static str = "clique round budget exhausted";

    fn n(&self) -> usize {
        self.active.len()
    }

    fn live_degree(&self, v: VertexId) -> Option<usize> {
        self.active[v as usize].then(|| self.dbar(v))
    }

    fn live_edges(&self) -> usize {
        self.complement_edges()
    }

    fn add(&mut self, v: VertexId) {
        CliqueState::add(self, v);
    }

    fn finish(mut self) -> Vec<VertexId> {
        self.finish_greedy();
        self.clique.sort_unstable();
        self.clique
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::is_maximal_clique;
    use mrlr_graph::generators::{complete, gnp, star};

    #[test]
    fn complete_graph_full_clique() {
        let g = complete(15);
        let r = maximal_clique(&g, MisParams::mis2(15, 0.4, 1)).unwrap();
        assert_eq!(r.vertices.len(), 15);
        assert!(is_maximal_clique(&g, &r.vertices));
    }

    #[test]
    fn star_cliques_are_edges() {
        let g = star(10);
        let r = maximal_clique(&g, MisParams::mis2(10, 0.4, 2)).unwrap();
        assert_eq!(r.vertices.len(), 2);
        assert!(is_maximal_clique(&g, &r.vertices));
    }

    #[test]
    fn random_graphs_maximal() {
        for seed in 0..8 {
            let g = gnp(40, 0.5, seed);
            let r = maximal_clique(&g, MisParams::mis2(40, 0.3, seed)).unwrap();
            assert!(is_maximal_clique(&g, &r.vertices), "seed {seed}");
        }
    }

    #[test]
    fn dense_graphs_maximal() {
        for seed in 0..4 {
            let g = gnp(30, 0.85, seed);
            let r = maximal_clique(&g, MisParams::mis2(30, 0.3, seed)).unwrap();
            assert!(is_maximal_clique(&g, &r.vertices), "seed {seed}");
            assert!(r.vertices.len() >= 3);
        }
    }

    #[test]
    fn deterministic() {
        let g = gnp(25, 0.6, 9);
        let a = maximal_clique(&g, MisParams::mis2(25, 0.3, 5)).unwrap();
        let b = maximal_clique(&g, MisParams::mis2(25, 0.3, 5)).unwrap();
        assert_eq!(a.vertices, b.vertices);
    }

    #[test]
    fn edgeless_graph_single_vertex() {
        let g = Graph::new(6, vec![]);
        let r = maximal_clique(&g, MisParams::mis2(6, 0.3, 1)).unwrap();
        assert_eq!(r.vertices.len(), 1);
        assert!(is_maximal_clique(&g, &r.vertices));
    }

    #[test]
    fn complement_edge_count_matches() {
        let g = star(5); // complement of star: K4 among leaves + isolated centre...
        let st = CliqueState::new(&g);
        // complement edges = C(5,2) - 4 = 6
        assert_eq!(st.complement_edges(), 6);
    }
}
