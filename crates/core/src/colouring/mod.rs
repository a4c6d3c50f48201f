//! Section 6: `(1+o(1))Δ` vertex and edge colouring in `O(1)` rounds.
//!
//! Algorithm 5 randomly partitions the vertices into `κ = n^{(c−µ)/2}`
//! groups; within a group the maximum induced degree is
//! `(1 + n^{-µ/2}√(6 ln n))·Δ/κ` w.h.p. (Lemma 6.1) and the induced edge
//! count is ≤ `13 n^{1+µ}` w.h.p. (Lemma 6.2), so one machine per group can
//! greedily colour its subgraph with a private palette of `Δ_i + 1`
//! colours. The union uses `κ(max_i Δ_i + 1) = (1+o(1))Δ` colours
//! (Corollary 6.3). Remark 6.5: edge colouring works identically with
//! *edges* partitioned and Misra–Gries (`Δ_i + 1` colours, Vizing) as the
//! per-group subroutine, so [`crate::mr::colouring::run_vertex`] and
//! [`crate::mr::colouring::run_edge`] run one group pass; only an edge's
//! group, the subroutine and the coloured entity differ. This module
//! keeps what that pass reads: the group count, the group hashes and the
//! palette offsets, and Corollary 6.3's colour budget.

use mrlr_graph::{EdgeId, Graph, VertexId};
use mrlr_mapreduce::rng::mix_tags;

/// Tag mixed into the group-assignment hashes.
pub const COLOUR_TAG: u64 = 0x434f_4c52;

/// The paper's group count `κ = n^{(c−µ)/2}` for a graph with `m = n^{1+c}`
/// edges and memory exponent `µ`. At least 1.
pub fn group_count(n: usize, m: usize, mu: f64) -> usize {
    if n < 2 || m == 0 {
        return 1;
    }
    let nf = n as f64;
    let c = ((m as f64).ln() / nf.ln() - 1.0).max(0.0);
    nf.powf(((c - mu) / 2.0).max(0.0)).round().max(1.0) as usize
}

/// The group of vertex `v` — a pure hash, computable anywhere without
/// communication.
#[inline]
pub fn vertex_group(seed: u64, v: VertexId, kappa: usize) -> usize {
    (mix_tags(seed, &[COLOUR_TAG, v as u64]) % kappa as u64) as usize
}

/// The group of edge `e` — likewise a pure hash.
#[inline]
pub fn edge_group(seed: u64, e: EdgeId, kappa: usize) -> usize {
    (mix_tags(seed, &[COLOUR_TAG, 0x6564_6765, e as u64]) % kappa as u64) as usize
}

/// Makes per-group colourings globally distinct: `group[i]` is entity
/// `i`'s group and `local[i]` its colour inside it. Groups take
/// consecutive private palettes in ascending group order, each as wide as
/// the group's largest local colour + 1 (a group without members takes
/// none). Returns the global colours and how many there are.
pub(crate) fn offset_palettes(group: &[usize], local: &[u32], kappa: usize) -> (Vec<u32>, usize) {
    // Width of every palette, then — by a running sum — where it starts.
    let mut start = vec![0u32; kappa];
    for (&gi, &c) in group.iter().zip(local) {
        start[gi] = start[gi].max(c + 1);
    }
    let mut next = 0u32;
    for s in &mut start {
        next += std::mem::replace(s, next);
    }
    let colours = group
        .iter()
        .zip(local)
        .map(|(&gi, &c)| start[gi] + c)
        .collect();
    (colours, next as usize)
}

/// The group of every entity: vertex `v`'s, or with `edges` edge `e`'s.
pub(crate) fn entity_groups(g: &Graph, seed: u64, kappa: usize, edges: bool) -> Vec<usize> {
    if edges {
        (0..g.m() as EdgeId)
            .map(|e| edge_group(seed, e, kappa))
            .collect()
    } else {
        (0..g.n() as VertexId)
            .map(|v| vertex_group(seed, v, kappa))
            .collect()
    }
}

/// Corollary 6.3's colour budget
/// `(1 + n^{-µ/2}√(6 ln n) + n^{-µ}) Δ` — the number the measured colour
/// count is compared against in the experiments.
pub fn colour_budget(n: usize, delta: usize, mu: f64) -> f64 {
    if n < 2 {
        return delta as f64 + 1.0;
    }
    let nf = n as f64;
    (1.0 + nf.powf(-mu / 2.0) * (6.0 * nf.ln()).sqrt() + nf.powf(-mu)) * delta as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mr::{colouring, one_machine};
    use crate::types::ColouringResult;
    use crate::verify::{is_proper_colouring, is_proper_edge_colouring};
    use mrlr_graph::generators::{complete, densified, gnm};
    use mrlr_mapreduce::{MrError, MrResult};

    /// Algorithm 5 over `kappa` groups, as the `Rlr` backend runs it.
    fn vertex_colouring(
        g: &Graph,
        kappa: usize,
        edge_limit: usize,
        seed: u64,
    ) -> MrResult<ColouringResult> {
        colouring::run_vertex(g, kappa, edge_limit, one_machine(1, seed)).map(|(r, _)| r)
    }

    /// Remark 6.5's edge colouring, as the `Rlr` backend runs it.
    fn edge_colouring(
        g: &Graph,
        kappa: usize,
        edge_limit: usize,
        seed: u64,
    ) -> MrResult<ColouringResult> {
        colouring::run_edge(g, kappa, edge_limit, one_machine(1, seed)).map(|(r, _)| r)
    }

    #[test]
    fn vertex_colouring_proper_all_kappa() {
        let g = gnm(60, 400, 3);
        for kappa in [1usize, 2, 4, 8] {
            let r = vertex_colouring(&g, kappa, usize::MAX, 7).unwrap();
            assert!(is_proper_colouring(&g, &r.colours), "kappa {kappa}");
            assert_eq!(r.groups, kappa);
            // Union of per-group palettes ≤ κ(Δ+1) — and never more than n.
            assert!(r.num_colours <= g.n());
        }
    }

    #[test]
    fn kappa_one_is_plain_greedy_bound() {
        let g = gnm(40, 200, 1);
        let r = vertex_colouring(&g, 1, usize::MAX, 1).unwrap();
        assert!(is_proper_colouring(&g, &r.colours));
        assert!(r.num_colours <= g.max_degree() + 1);
    }

    #[test]
    fn edge_colouring_proper_all_kappa() {
        let g = gnm(40, 250, 5);
        for kappa in [1usize, 3, 6] {
            let r = edge_colouring(&g, kappa, usize::MAX, 11).unwrap();
            assert!(is_proper_edge_colouring(&g, &r.colours), "kappa {kappa}");
        }
    }

    #[test]
    fn edge_colouring_kappa_one_vizing() {
        let g = complete(9);
        let r = edge_colouring(&g, 1, usize::MAX, 2).unwrap();
        assert!(is_proper_edge_colouring(&g, &r.colours));
        assert!(r.num_colours <= g.max_degree() + 1);
    }

    #[test]
    fn colour_count_within_budget_on_dense_graphs() {
        // Dense graph, moderate µ: measured colours ≤ (1+o(1))Δ budget.
        let n = 120;
        let g = densified(n, 0.6, 9);
        let mu = 0.3;
        let kappa = group_count(n, g.m(), mu);
        assert!(kappa >= 2, "kappa {kappa}");
        let r = vertex_colouring(&g, kappa, usize::MAX, 5).unwrap();
        assert!(is_proper_colouring(&g, &r.colours));
        let budget = colour_budget(n, g.max_degree(), mu);
        assert!(
            (r.num_colours as f64) <= budget,
            "{} colours > budget {budget}",
            r.num_colours
        );
    }

    #[test]
    fn edge_limit_guard_fires() {
        let g = complete(10); // 45 edges; kappa = 1 puts them all in one group
        let err = vertex_colouring(&g, 1, 10, 3).unwrap_err();
        assert!(matches!(err, MrError::AlgorithmFailed { .. }));
        let err = edge_colouring(&g, 1, 10, 3).unwrap_err();
        assert!(matches!(err, MrError::AlgorithmFailed { .. }));
    }

    #[test]
    fn palettes_follow_ascending_groups_and_skip_empty_ones() {
        // Groups 0 and 3 are used, 1 and 2 are empty; group 3 needs 3
        // colours, group 0 needs 2.
        let group = [3usize, 0, 3, 0, 3];
        let local = [2u32, 1, 0, 0, 1];
        let (colours, total) = offset_palettes(&group, &local, 4);
        assert_eq!(colours, vec![4, 1, 2, 0, 3]);
        assert_eq!(total, 5);
        assert_eq!(offset_palettes(&[], &[], 3), (vec![], 0));
    }

    #[test]
    fn group_count_formula() {
        // n = 100, m = n^1.5 → c = 0.5; µ = 0.1 → κ = n^0.2 ≈ 2.5.
        let kappa = group_count(100, 1000, 0.1);
        assert!((2..=3).contains(&kappa), "kappa {kappa}");
        assert_eq!(group_count(1, 0, 0.2), 1);
        // µ ≥ c → κ = 1.
        assert_eq!(group_count(100, 1000, 0.8), 1);
    }

    #[test]
    fn deterministic() {
        let g = gnm(30, 150, 2);
        let a = vertex_colouring(&g, 4, usize::MAX, 9).unwrap();
        let b = vertex_colouring(&g, 4, usize::MAX, 9).unwrap();
        assert_eq!(a.colours, b.colours);
    }
}
