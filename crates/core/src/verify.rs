//! Solution validators.
//!
//! Every algorithm's output can be checked independently of how it was
//! produced; the test suite and the experiment harness route all results
//! through these functions.

use mrlr_graph::{EdgeId, Graph, VertexId};
use mrlr_setsys::{SetId, SetSystem};

/// True if `chosen` covers the universe of `sys`.
pub fn is_cover(sys: &SetSystem, chosen: &[SetId]) -> bool {
    sys.covers(chosen)
}

/// True if `edges` is a matching in `g` (distinct edges, disjoint
/// endpoints).
pub fn is_matching(g: &Graph, edges: &[EdgeId]) -> bool {
    let mut used = vec![false; g.n()];
    let mut seen = vec![false; g.m()];
    for &id in edges {
        if (id as usize) >= g.m() || seen[id as usize] {
            return false;
        }
        seen[id as usize] = true;
        let e = g.edge(id);
        if used[e.u as usize] || used[e.v as usize] {
            return false;
        }
        used[e.u as usize] = true;
        used[e.v as usize] = true;
    }
    true
}

/// Total weight of a set of edge ids.
pub fn matching_weight(g: &Graph, edges: &[EdgeId]) -> f64 {
    edges.iter().map(|&e| g.edge(e).w).sum()
}

/// True if `edges` is a b-matching: distinct edges with every vertex `v` in
/// at most `b[v]` of them.
pub fn is_b_matching(g: &Graph, b: &[u32], edges: &[EdgeId]) -> bool {
    assert_eq!(b.len(), g.n());
    let mut load = vec![0u32; g.n()];
    let mut seen = vec![false; g.m()];
    for &id in edges {
        if (id as usize) >= g.m() || seen[id as usize] {
            return false;
        }
        seen[id as usize] = true;
        let e = g.edge(id);
        load[e.u as usize] += 1;
        load[e.v as usize] += 1;
    }
    load.iter().zip(b).all(|(l, cap)| l <= cap)
}

/// True if `vs` is an independent set in `g`.
pub fn is_independent_set(g: &Graph, vs: &[VertexId]) -> bool {
    let mut chosen = vec![false; g.n()];
    for &v in vs {
        if (v as usize) >= g.n() || chosen[v as usize] {
            return false;
        }
        chosen[v as usize] = true;
    }
    g.edges()
        .iter()
        .all(|e| !(chosen[e.u as usize] && chosen[e.v as usize]))
}

/// True if `vs` is a *maximal* independent set: independent, and every
/// non-member has a neighbour in the set.
pub fn is_maximal_independent_set(g: &Graph, vs: &[VertexId]) -> bool {
    if !is_independent_set(g, vs) {
        return false;
    }
    let mut chosen = vec![false; g.n()];
    for &v in vs {
        chosen[v as usize] = true;
    }
    let adj = g.adjacency();
    (0..g.n()).all(|v| chosen[v] || adj[v].iter().any(|&(w, _)| chosen[w as usize]))
}

/// True if `vs` is a clique in `g`.
pub fn is_clique(g: &Graph, vs: &[VertexId]) -> bool {
    let mut chosen = vec![false; g.n()];
    for &v in vs {
        if (v as usize) >= g.n() || chosen[v as usize] {
            return false;
        }
        chosen[v as usize] = true;
    }
    let adj = g.adjacency();
    for &v in vs {
        let mut adjacent = 0usize;
        for &(w, _) in &adj[v as usize] {
            if chosen[w as usize] {
                adjacent += 1;
            }
        }
        if adjacent + 1 < vs.len() {
            return false;
        }
    }
    true
}

/// True if `vs` is a *maximal* clique: a clique no vertex can extend.
pub fn is_maximal_clique(g: &Graph, vs: &[VertexId]) -> bool {
    if vs.is_empty() {
        // The empty clique is maximal only in the empty graph.
        return g.n() == 0;
    }
    if !is_clique(g, vs) {
        return false;
    }
    let mut chosen = vec![false; g.n()];
    for &v in vs {
        chosen[v as usize] = true;
    }
    let adj = g.adjacency();
    // v extends the clique iff it is adjacent to every member.
    for v in 0..g.n() {
        if chosen[v] {
            continue;
        }
        let count = adj[v].iter().filter(|&&(w, _)| chosen[w as usize]).count();
        if count == vs.len() {
            return false;
        }
    }
    true
}

/// True if `colours` (one per vertex) is a proper vertex colouring.
pub fn is_proper_colouring(g: &Graph, colours: &[u32]) -> bool {
    colours.len() == g.n()
        && g.edges()
            .iter()
            .all(|e| colours[e.u as usize] != colours[e.v as usize])
}

/// True if `colours` (one per edge) is a proper edge colouring: edges
/// sharing an endpoint get distinct colours.
pub fn is_proper_edge_colouring(g: &Graph, colours: &[u32]) -> bool {
    if colours.len() != g.m() {
        return false;
    }
    for nbrs in g.adjacency().iter() {
        let mut cs: Vec<u32> = nbrs.iter().map(|&(_, e)| colours[e as usize]).collect();
        cs.sort_unstable();
        if cs.windows(2).any(|w| w[0] == w[1]) {
            return false;
        }
    }
    true
}

/// True if `chosen` vertices form a vertex cover of `g`.
pub fn is_vertex_cover(g: &Graph, chosen: &[VertexId]) -> bool {
    let mut picked = vec![false; g.n()];
    for &v in chosen {
        if (v as usize) >= g.n() {
            return false;
        }
        picked[v as usize] = true;
    }
    g.edges()
        .iter()
        .all(|e| picked[e.u as usize] || picked[e.v as usize])
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrlr_graph::generators::{complete, path, star};

    #[test]
    fn matching_checks() {
        let g = path(4); // edges 0:(0,1) 1:(1,2) 2:(2,3)
        assert!(is_matching(&g, &[0, 2]));
        assert!(!is_matching(&g, &[0, 1]));
        assert!(!is_matching(&g, &[0, 0]));
        assert!(!is_matching(&g, &[9]));
        assert!((matching_weight(&g, &[0, 2]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn b_matching_checks() {
        let g = star(4);
        assert!(is_b_matching(&g, &[2, 1, 1, 1], &[0, 1]));
        assert!(!is_b_matching(&g, &[1, 1, 1, 1], &[0, 1]));
        assert!(!is_b_matching(&g, &[3, 1, 1, 1], &[0, 0]));
    }

    #[test]
    fn independence_checks() {
        let g = path(4);
        assert!(is_independent_set(&g, &[0, 2]));
        assert!(!is_independent_set(&g, &[0, 1]));
        assert!(is_maximal_independent_set(&g, &[0, 2]));
        // {0,3} is maximal on the path 0-1-2-3: both 1 and 2 have a chosen
        // neighbour. {0} alone is not (3 has no chosen neighbour).
        assert!(is_maximal_independent_set(&g, &[0, 3]));
        assert!(!is_maximal_independent_set(&g, &[0]));
        assert!(is_maximal_independent_set(&g, &[1, 3]));
        assert!(!is_independent_set(&g, &[0, 0]));
    }

    #[test]
    fn clique_checks() {
        let g = complete(4);
        assert!(is_clique(&g, &[0, 1, 2]));
        assert!(!is_maximal_clique(&g, &[0, 1, 2]));
        assert!(is_maximal_clique(&g, &[0, 1, 2, 3]));
        let p = path(3);
        assert!(is_clique(&p, &[0, 1]));
        assert!(is_maximal_clique(&p, &[0, 1]));
        assert!(!is_clique(&p, &[0, 2]));
        assert!(!is_maximal_clique(&p, &[]));
        assert!(is_maximal_clique(&Graph::new(0, vec![]), &[]));
    }

    #[test]
    fn colouring_checks() {
        let g = path(3);
        assert!(is_proper_colouring(&g, &[0, 1, 0]));
        assert!(!is_proper_colouring(&g, &[0, 0, 1]));
        assert!(!is_proper_colouring(&g, &[0, 1]));
        // Edge colouring on a star: all edges share the centre.
        let s = star(4);
        assert!(is_proper_edge_colouring(&s, &[0, 1, 2]));
        assert!(!is_proper_edge_colouring(&s, &[0, 0, 1]));
    }

    #[test]
    fn vertex_cover_checks() {
        let g = path(4);
        assert!(is_vertex_cover(&g, &[1, 2]));
        assert!(!is_vertex_cover(&g, &[0, 3]));
        assert!(is_vertex_cover(&g, &[0, 1, 2, 3]));
    }
}
