//! The sequential local-ratio algorithm for maximum weight matching
//! (Paz–Schwartzman style; Theorem 5.1 of the paper), in the ϕ-potential
//! formulation of Theorem 5.6.
//!
//! The central machine maintains `ϕ(v)` = total weight reductions applied to
//! edges incident to `v`. The *modified weight* of an edge `e = {u,v}` that
//! was never pushed is `w_e − ϕ(u) − ϕ(v)`. Selecting `e` applies the
//! reduction by adding its modified weight `m_e` to both `ϕ(u)` and `ϕ(v)`
//! and pushes `(e, m_e)`. Unwinding the stack greedily yields a matching of
//! weight at least `Σ m_e`, while `OPT ≤ 2 Σ m_e`.
//!
//! Because `ϕ` only grows, modified weights only shrink, so a *single pass*
//! over any edge order is exhaustive: an edge skipped while non-positive can
//! never become positive again. This is what lets the MapReduce driver
//! finish the tail of the instance in one central round.

use mrlr_graph::{EdgeId, Graph, VertexId};

use crate::types::{MatchingResult, POS_TOL};

/// Mutable matching local-ratio state (the central machine of Algorithm 4).
#[derive(Debug, Clone)]
pub struct MatchingLocalRatio {
    phi: Vec<f64>,
    stack: Vec<(EdgeId, f64)>,
    gain: f64,
}

impl MatchingLocalRatio {
    /// Fresh state for a graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        MatchingLocalRatio {
            phi: vec![0.0; n],
            stack: Vec::new(),
            gain: 0.0,
        }
    }

    /// Current potential of vertex `v`.
    pub fn phi(&self, v: VertexId) -> f64 {
        self.phi[v as usize]
    }

    /// The full potential vector.
    pub fn phis(&self) -> &[f64] {
        &self.phi
    }

    /// Modified weight of an edge `{u, v}` of original weight `w` that has
    /// not been pushed.
    #[inline]
    pub fn modified(&self, u: VertexId, v: VertexId, w: f64) -> f64 {
        w - self.phi[u as usize] - self.phi[v as usize]
    }

    /// True if the edge is still alive (positive modified weight).
    #[inline]
    pub fn alive(&self, u: VertexId, v: VertexId, w: f64) -> bool {
        self.modified(u, v, w) > POS_TOL
    }

    /// Attempts the local-ratio step on edge `id = {u, v}` with original
    /// weight `w`. If its modified weight is positive, applies the
    /// reduction, pushes it, and returns `true`.
    pub fn push(&mut self, id: EdgeId, u: VertexId, v: VertexId, w: f64) -> bool {
        let m = self.modified(u, v, w);
        if m <= POS_TOL {
            return false;
        }
        self.phi[u as usize] += m;
        self.phi[v as usize] += m;
        self.stack.push((id, m));
        self.gain += m;
        true
    }

    /// Number of stacked edges.
    pub fn stack_len(&self) -> usize {
        self.stack.len()
    }

    /// The stack transcript `(e, m_e)` in push order — the re-checkable
    /// witness: replaying it reproduces `ϕ`, the unwound matching and the
    /// gain (see [`crate::api::witness::replay_matching_stack`]).
    pub fn stack(&self) -> &[(EdgeId, f64)] {
        &self.stack
    }

    /// Total gain `Σ m_e` (the certificate: `OPT ≤ 2 ×` this).
    pub fn gain(&self) -> f64 {
        self.gain
    }

    /// Unwinds the stack, adding edges greedily (latest pushed first) when
    /// both endpoints are free. Returns matching edge ids, ascending.
    pub fn unwind(&self, g: &Graph) -> Vec<EdgeId> {
        self.unwind_with(g.n(), |id| {
            let e = g.edge(id);
            (e.u, e.v, e.w)
        })
    }

    /// [`MatchingLocalRatio::unwind`] against any edge lookup — the
    /// cluster driver's unwind reads no central [`Graph`], only the
    /// recorded endpoints of the `O(n log n)` stacked edges, which is all
    /// the unwind ever consults.
    pub fn unwind_with(
        &self,
        n: usize,
        edge: impl Fn(EdgeId) -> (VertexId, VertexId, f64),
    ) -> Vec<EdgeId> {
        let mut used = vec![false; n];
        let mut matching = Vec::new();
        for &(id, _) in self.stack.iter().rev() {
            let (u, v, _) = edge(id);
            if !used[u as usize] && !used[v as usize] {
                used[u as usize] = true;
                used[v as usize] = true;
                matching.push(id);
            }
        }
        matching.sort_unstable();
        matching
    }
}

/// Runs the sequential local-ratio matching algorithm: one pass over the
/// edges in the given order (any order is exhaustive; see module docs),
/// then unwinds.
pub fn local_ratio_matching_with_order(g: &Graph, order: &[EdgeId]) -> MatchingResult {
    let mut lr = MatchingLocalRatio::new(g.n());
    for &id in order {
        let e = g.edge(id);
        lr.push(id, e.u, e.v, e.w);
    }
    finish(g, lr, 1)
}

/// [`local_ratio_matching_with_order`] in natural edge order.
pub fn local_ratio_matching(g: &Graph) -> MatchingResult {
    let order: Vec<EdgeId> = (0..g.m() as EdgeId).collect();
    local_ratio_matching_with_order(g, &order)
}

pub(crate) fn finish(g: &Graph, lr: MatchingLocalRatio, iterations: usize) -> MatchingResult {
    finish_with(g.n(), lr, iterations, |id| {
        let e = g.edge(id);
        (e.u, e.v, e.w)
    })
}

/// [`finish`] against any edge lookup (see
/// [`MatchingLocalRatio::unwind_with`]): unwinds and sums the matching
/// weight in ascending edge-id order — the same float summation order as
/// the materialized path, so results are bit-identical.
pub(crate) fn finish_with(
    n: usize,
    lr: MatchingLocalRatio,
    iterations: usize,
    edge: impl Fn(EdgeId) -> (VertexId, VertexId, f64),
) -> MatchingResult {
    let matching = lr.unwind_with(n, &edge);
    let weight: f64 = matching.iter().map(|&e| edge(e).2).sum();
    debug_assert!(
        weight + 1e-6 >= lr.gain(),
        "unwound matching weight {} below stack gain {}",
        weight,
        lr.gain()
    );
    MatchingResult {
        matching,
        weight,
        stack_gain: lr.gain(),
        stack: lr.stack,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::is_matching;
    use mrlr_graph::generators::{gnm, path, with_uniform_weights};
    use mrlr_graph::Edge;

    #[test]
    fn path_of_three_edges() {
        // Path 0-1-2-3 with weights 1, 10, 1: optimum picks the middle.
        let g = Graph::new(
            4,
            vec![
                Edge::new(0, 1, 1.0),
                Edge::new(1, 2, 10.0),
                Edge::new(2, 3, 1.0),
            ],
        );
        let r = local_ratio_matching(&g);
        assert!(is_matching(&g, &r.matching));
        // 2-approx certificate: weight >= gain, OPT <= 2*gain.
        assert!(r.weight + 1e-9 >= r.stack_gain);
        assert!(r.weight >= 10.0 / 2.0);
    }

    #[test]
    fn single_pass_exhausts() {
        // After one pass in any order, every edge is dead or stacked.
        let g = with_uniform_weights(&gnm(30, 120, 5), 1.0, 10.0, 6);
        let mut lr = MatchingLocalRatio::new(g.n());
        for (i, e) in g.edges().iter().enumerate() {
            lr.push(i as EdgeId, e.u, e.v, e.w);
        }
        for e in g.edges() {
            assert!(!lr.alive(e.u, e.v, e.w));
        }
    }

    #[test]
    fn unwind_is_maximal_on_stack() {
        let g = path(6);
        let r = local_ratio_matching(&g);
        assert!(is_matching(&g, &r.matching));
        // On an unweighted path the local-ratio matching is maximal, hence
        // at least half of maximum (= 2 of floor(5/2)).
        assert!(r.matching.len() >= 2);
    }

    #[test]
    fn certificate_holds_randomly() {
        for seed in 0..8 {
            let g = with_uniform_weights(&gnm(24, 80, seed), 0.5, 20.0, seed + 100);
            let r = local_ratio_matching(&g);
            assert!(is_matching(&g, &r.matching));
            assert!(r.weight + 1e-6 >= r.stack_gain);
            assert!(r.certified_ratio(2.0) <= 2.0 + 1e-6);
        }
    }

    #[test]
    fn order_changes_output_not_guarantee() {
        let g = with_uniform_weights(&gnm(20, 60, 3), 1.0, 9.0, 4);
        let forward = local_ratio_matching(&g);
        let rev: Vec<EdgeId> = (0..g.m() as EdgeId).rev().collect();
        let backward = local_ratio_matching_with_order(&g, &rev);
        for r in [&forward, &backward] {
            assert!(is_matching(&g, &r.matching));
            assert!(r.weight + 1e-6 >= r.stack_gain);
        }
    }

    #[test]
    fn empty_graph() {
        let g = Graph::new(3, vec![]);
        let r = local_ratio_matching(&g);
        assert!(r.matching.is_empty());
        assert_eq!(r.weight, 0.0);
    }
}
