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
//! per-group subroutine, so [`vertex_colouring`] and [`edge_colouring`]
//! run one group pass; only an edge's group, the subroutine and the
//! coloured entity differ.

use mrlr_graph::{EdgeId, Graph, VertexId};
use mrlr_mapreduce::rng::mix_tags;
use mrlr_mapreduce::{Csr, MrError, MrResult};

use crate::seq::greedy_graph::greedy_colouring_with_order;
use crate::seq::misra_gries::misra_gries_edge_colouring;
use crate::types::ColouringResult;

/// Tag mixed into the group-assignment hashes (shared with the MR driver).
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

/// The members of every group as rows of one arena, ascending within a
/// row: `group[i]` is entity `i`'s group. One counting pass, one scatter.
fn group_members(group: &[usize], kappa: usize) -> MrResult<Csr<u32>> {
    let mut sizes = vec![0usize; kappa];
    for &gi in group {
        sizes[gi] += 1;
    }
    let mut members = Csr::builder(sizes, 0u32)?;
    for (i, &gi) in group.iter().enumerate() {
        members.push(gi, i as u32);
    }
    Ok(members.finish())
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

/// Algorithm 5: `(1+o(1))Δ` vertex colouring with `kappa` random groups.
/// `edge_limit` is the per-group edge bound of line 4 (`13 n^{1+µ}`);
/// exceeding it triggers the paper's `fail` (`usize::MAX` never fails).
pub fn vertex_colouring(
    g: &Graph,
    kappa: usize,
    edge_limit: usize,
    seed: u64,
) -> MrResult<ColouringResult> {
    group_pass(g, kappa, edge_limit, seed, false)
}

/// Remark 6.5: `(1+o(1))Δ` edge colouring — random *edge* groups, each
/// coloured by Misra–Gries with a private palette of `Δ_i + 1` colours.
pub fn edge_colouring(
    g: &Graph,
    kappa: usize,
    edge_limit: usize,
    seed: u64,
) -> MrResult<ColouringResult> {
    group_pass(g, kappa, edge_limit, seed, true)
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

/// Algorithm 5's group pass, over vertex groups (an edge counts in its
/// endpoints' group when they share one) or, with `edges`, over edge
/// groups (Remark 6.5). Each group is coloured with a private palette —
/// greedily in ascending vertex order, or by Misra–Gries — and the
/// palettes are offset in ascending group order.
fn group_pass(
    g: &Graph,
    kappa: usize,
    edge_limit: usize,
    seed: u64,
    edges: bool,
) -> MrResult<ColouringResult> {
    if kappa == 0 {
        return Err(MrError::BadConfig("kappa must be positive".into()));
    }
    let groups = entity_groups(g, seed, kappa, edges);

    // Line 4's guard: the first group over the edge budget fails.
    let mut counts = vec![0usize; kappa];
    for (idx, e) in g.edges().iter().enumerate() {
        if edges {
            counts[groups[idx]] += 1;
        } else if groups[e.u as usize] == groups[e.v as usize] {
            counts[groups[e.u as usize]] += 1;
        }
    }
    if let Some((i, &cnt)) = counts.iter().enumerate().find(|&(_, &c)| c > edge_limit) {
        let reason = if edges {
            format!("edge group {i} has {cnt} > {edge_limit} edges")
        } else {
            format!("group {i} has {cnt} > {edge_limit} edges (Lemma 6.2 guard)")
        };
        return Err(MrError::AlgorithmFailed { round: 0, reason });
    }

    let members = group_members(&groups, kappa)?;
    let mut local = vec![0u32; groups.len()];
    for (gi, members) in members.iter().enumerate() {
        if members.is_empty() {
            continue;
        }
        if edges {
            // This group's edges, vertex ids kept; a subgraph of a simple
            // graph is simple. Misra–Gries colours them in member order.
            let sub = Graph::from_validated(g.n(), members.iter().map(|&e| *g.edge(e)).collect());
            let coloured = misra_gries_edge_colouring(&sub);
            for (&e, &c) in members.iter().zip(&coloured.colours) {
                local[e as usize] = c;
            }
        } else {
            // The induced subgraph keeps original vertex ids, so the greedy
            // subroutine colours members directly.
            let sub = g.induced(|v| groups[v as usize] == gi);
            let coloured = greedy_colouring_with_order(&sub, members);
            for &v in members {
                local[v as usize] = coloured.colours[v as usize];
            }
        }
    }
    let (colours, num_colours) = offset_palettes(&groups, &local, kappa);

    Ok(ColouringResult {
        colours,
        num_colours,
        groups: kappa,
    })
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
    use crate::verify::{is_proper_colouring, is_proper_edge_colouring};
    use mrlr_graph::generators::{complete, densified, gnm};

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
        let members = group_members(&group, 4).unwrap();
        assert_eq!(members[0], [1, 3]);
        assert_eq!(members[3], [0, 2, 4]);
        assert!(members[1].is_empty() && members[2].is_empty());
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
