//! Classical graph algorithms used as substrates and test oracles.
//!
//! These are *sequential* utilities: connectivity and BFS for workload
//! sanity checks, triangle counting and core decomposition for
//! characterizing generated instances, the line-graph construction behind
//! the paper's Lemma 6.2 (Hajnal–Szemerédi over the line graph) and the
//! edge-colouring reductions, and bipartiteness testing for the bipartite
//! matching workloads of Kumar et al. that Section 1.2 discusses.

use std::collections::VecDeque;

use crate::graph::{Edge, Graph, VertexId};

/// Connected components: returns `(count, label)` where `label[v]` is the
/// 0-based component index of `v`, numbered in order of smallest vertex.
pub fn connected_components(g: &Graph) -> (usize, Vec<u32>) {
    let adj = g.adjacency();
    let mut label = vec![u32::MAX; g.n()];
    let mut count = 0u32;
    let mut queue = VecDeque::new();
    for s in 0..g.n() {
        if label[s] != u32::MAX {
            continue;
        }
        label[s] = count;
        queue.push_back(s as VertexId);
        while let Some(v) = queue.pop_front() {
            for &(w, _) in &adj[v as usize] {
                if label[w as usize] == u32::MAX {
                    label[w as usize] = count;
                    queue.push_back(w);
                }
            }
        }
        count += 1;
    }
    (count as usize, label)
}

/// BFS hop distances from `src`; `None` for unreachable vertices.
pub fn bfs_distances(g: &Graph, src: VertexId) -> Vec<Option<u32>> {
    assert!((src as usize) < g.n(), "source out of range");
    let adj = g.adjacency();
    let mut dist = vec![None; g.n()];
    dist[src as usize] = Some(0);
    let mut queue = VecDeque::from([src]);
    while let Some(v) = queue.pop_front() {
        let d = dist[v as usize].expect("queued vertices have distances");
        for &(w, _) in &adj[v as usize] {
            if dist[w as usize].is_none() {
                dist[w as usize] = Some(d + 1);
                queue.push_back(w);
            }
        }
    }
    dist
}

/// Exact triangle count by degree-ordered neighbour intersection —
/// `O(m^{3/2})`, fine for test-scale graphs.
pub fn triangle_count(g: &Graph) -> usize {
    let deg = g.degrees();
    // Orient each edge from the lower-rank endpoint to the higher-rank one;
    // rank by (degree, id) so every vertex has out-degree O(sqrt m).
    let rank = |v: VertexId| (deg[v as usize], v);
    let mut out: Vec<Vec<VertexId>> = vec![Vec::new(); g.n()];
    for e in g.edges() {
        let (a, b) = if rank(e.u) < rank(e.v) {
            (e.u, e.v)
        } else {
            (e.v, e.u)
        };
        out[a as usize].push(b);
    }
    for list in &mut out {
        list.sort_unstable();
    }
    let mut triangles = 0usize;
    for e in g.edges() {
        let (a, b) = if rank(e.u) < rank(e.v) {
            (e.u, e.v)
        } else {
            (e.v, e.u)
        };
        // Count common out-neighbours of a and b.
        let (la, lb) = (&out[a as usize], &out[b as usize]);
        let (mut i, mut j) = (0usize, 0usize);
        while i < la.len() && j < lb.len() {
            match la[i].cmp(&lb[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    triangles += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
    }
    triangles
}

/// Core decomposition by repeated minimum-degree peeling. Returns
/// `(core_number, ordering, degeneracy)`: `core_number[v]` is the largest
/// `k` such that `v` lies in a subgraph of minimum degree `k`, `ordering`
/// is the peeling order (a degeneracy ordering), and `degeneracy` is the
/// maximum core number (0 for edgeless graphs).
pub fn core_decomposition(g: &Graph) -> (Vec<usize>, Vec<VertexId>, usize) {
    let n = g.n();
    let adj = g.adjacency();
    let mut degree = g.degrees();
    let max_deg = degree.iter().copied().max().unwrap_or(0);
    // Bucket queue over degrees.
    let mut buckets: Vec<Vec<VertexId>> = vec![Vec::new(); max_deg + 1];
    for v in 0..n {
        buckets[degree[v]].push(v as VertexId);
    }
    let mut removed = vec![false; n];
    let mut core = vec![0usize; n];
    let mut ordering = Vec::with_capacity(n);
    let mut current = 0usize;
    let mut cursor = 0usize; // lowest possibly-nonempty bucket
    for _ in 0..n {
        // Find the lowest-degree live vertex.
        while cursor <= max_deg && buckets[cursor].is_empty() {
            cursor += 1;
        }
        // Stale entries may inflate buckets; pop until a live vertex whose
        // recorded degree matches its bucket.
        let v = loop {
            while cursor <= max_deg && buckets[cursor].is_empty() {
                cursor += 1;
            }
            let cand = buckets[cursor].pop().expect("n vertices remain");
            if !removed[cand as usize] && degree[cand as usize] == cursor {
                break cand;
            }
        };
        current = current.max(cursor);
        core[v as usize] = current;
        removed[v as usize] = true;
        ordering.push(v);
        for &(w, _) in &adj[v as usize] {
            let wu = w as usize;
            if !removed[wu] {
                degree[wu] -= 1;
                buckets[degree[wu]].push(w);
                cursor = cursor.min(degree[wu]);
            }
        }
    }
    (core, ordering, current)
}

/// The degeneracy of `g` (maximum over subgraphs of the minimum degree).
pub fn degeneracy(g: &Graph) -> usize {
    core_decomposition(g).2
}

/// The line graph `L(G)`: one vertex per edge of `g` (vertex `i` is edge
/// id `i`, carrying the original edge weight as an unused attribute — line
/// graph edges are unit weight), with `L`-edges joining `g`-edges that share
/// an endpoint. Size is `Σ_v d(v)·(d(v)−1)/2` edges; callers should keep
/// `g` small.
pub fn line_graph(g: &Graph) -> Graph {
    let adj = g.adjacency();
    let mut pairs: Vec<(VertexId, VertexId)> = Vec::new();
    for nbrs in adj.iter() {
        for i in 0..nbrs.len() {
            for j in (i + 1)..nbrs.len() {
                let (a, b) = (nbrs[i].1, nbrs[j].1);
                pairs.push((a.min(b), a.max(b)));
            }
        }
    }
    // Two edges can share at most one endpoint in a simple graph, so no
    // duplicates arise; assert in debug builds.
    debug_assert!({
        let mut p = pairs.clone();
        p.sort_unstable();
        p.windows(2).all(|w| w[0] != w[1])
    });
    Graph::from_pairs(g.m(), &pairs)
}

/// 2-colours `g` if it is bipartite: returns `side[v] ∈ {false, true}` per
/// vertex, or `None` if an odd cycle exists.
pub fn bipartition(g: &Graph) -> Option<Vec<bool>> {
    let adj = g.adjacency();
    let mut side: Vec<Option<bool>> = vec![None; g.n()];
    let mut queue = VecDeque::new();
    for s in 0..g.n() {
        if side[s].is_some() {
            continue;
        }
        side[s] = Some(false);
        queue.push_back(s as VertexId);
        while let Some(v) = queue.pop_front() {
            let sv = side[v as usize].expect("queued vertices are coloured");
            for &(w, _) in &adj[v as usize] {
                match side[w as usize] {
                    None => {
                        side[w as usize] = Some(!sv);
                        queue.push_back(w);
                    }
                    Some(sw) if sw == sv => return None,
                    Some(_) => {}
                }
            }
        }
    }
    Some(side.into_iter().map(|s| s.expect("all coloured")).collect())
}

/// The complement graph of `g` — `Θ(n²)` edges; the construction the
/// MapReduce model *cannot afford* (the paper's motivation for the
/// Appendix B clique algorithm). Provided for test oracles only.
///
/// # Panics
/// Panics if `n > 2000` to keep accidental quadratic blow-ups out of the
/// benches.
pub fn complement(g: &Graph) -> Graph {
    assert!(g.n() <= 2000, "complement is a test oracle; n too large");
    let mut present = std::collections::HashSet::with_capacity(g.m() * 2);
    for e in g.edges() {
        let (a, b) = e.key();
        present.insert(((a as u64) << 32) | b as u64);
    }
    let mut pairs = Vec::new();
    for u in 0..g.n() as VertexId {
        for v in (u + 1)..g.n() as VertexId {
            if !present.contains(&(((u as u64) << 32) | v as u64)) {
                pairs.push((u, v));
            }
        }
    }
    Graph::from_pairs(g.n(), &pairs)
}

/// Merges vertex-disjoint graphs into one, offsetting vertex ids in input
/// order. Weights are preserved.
pub fn disjoint_union(parts: &[Graph]) -> Graph {
    let n: usize = parts.iter().map(Graph::n).sum();
    let mut edges = Vec::with_capacity(parts.iter().map(Graph::m).sum());
    let mut offset = 0 as VertexId;
    for p in parts {
        for e in p.edges() {
            edges.push(Edge::new(e.u + offset, e.v + offset, e.w));
        }
        offset += p.n() as VertexId;
    }
    Graph::new(n, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{complete, complete_bipartite, cycle, gnm, gnp, path, star};

    #[test]
    fn components_on_union() {
        let g = disjoint_union(&[path(3), cycle(4), star(2)]);
        let (count, label) = connected_components(&g);
        assert_eq!(count, 3);
        assert_eq!(label[0], label[2]);
        assert_eq!(label[3], label[6]);
        assert_ne!(label[0], label[3]);
        assert_ne!(label[3], label[7]);
    }

    #[test]
    fn components_isolated_vertices() {
        let g = Graph::new(4, vec![]);
        let (count, _) = connected_components(&g);
        assert_eq!(count, 4);
    }

    #[test]
    fn bfs_on_path() {
        let g = path(5);
        let d = bfs_distances(&g, 0);
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3), Some(4)]);
        let g2 = disjoint_union(&[path(2), path(2)]);
        let d2 = bfs_distances(&g2, 0);
        assert_eq!(d2, vec![Some(0), Some(1), None, None]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bfs_bad_source() {
        bfs_distances(&path(3), 9);
    }

    #[test]
    fn triangles_counted_exactly() {
        assert_eq!(triangle_count(&complete(4)), 4);
        assert_eq!(triangle_count(&complete(6)), 20);
        assert_eq!(triangle_count(&path(10)), 0);
        assert_eq!(triangle_count(&cycle(3)), 1);
        assert_eq!(triangle_count(&cycle(5)), 0);
        assert_eq!(triangle_count(&complete_bipartite(3, 4)), 0);
        assert_eq!(triangle_count(&star(10)), 0);
    }

    #[test]
    fn triangles_match_brute_force() {
        for seed in 0..4 {
            let g = gnp(25, 0.3, seed);
            let adj = g.adjacency();
            let mut has = vec![vec![false; g.n()]; g.n()];
            for (v, nb) in adj.iter().enumerate() {
                for &(w, _) in nb {
                    has[v][w as usize] = true;
                }
            }
            let mut brute = 0usize;
            for a in 0..g.n() {
                for b in (a + 1)..g.n() {
                    for c in (b + 1)..g.n() {
                        if has[a][b] && has[b][c] && has[a][c] {
                            brute += 1;
                        }
                    }
                }
            }
            assert_eq!(triangle_count(&g), brute, "seed {seed}");
        }
    }

    #[test]
    fn core_numbers_on_known_graphs() {
        let (core, ordering, d) = core_decomposition(&complete(5));
        assert_eq!(d, 4);
        assert!(core.iter().all(|&c| c == 4));
        assert_eq!(ordering.len(), 5);
        let (core, _, d) = core_decomposition(&path(6));
        assert_eq!(d, 1);
        assert!(core.iter().all(|&c| c == 1));
        let (core, _, d) = core_decomposition(&cycle(6));
        assert_eq!(d, 2);
        assert!(core.iter().all(|&c| c == 2));
        assert_eq!(degeneracy(&star(9)), 1);
        assert_eq!(degeneracy(&Graph::new(3, vec![])), 0);
    }

    #[test]
    fn degeneracy_ordering_property() {
        // In a degeneracy ordering, each vertex has at most `degeneracy`
        // neighbours later in the order.
        for seed in 0..4 {
            let g = gnm(40, 200, seed);
            let (_, ordering, d) = core_decomposition(&g);
            let mut pos = vec![0usize; g.n()];
            for (i, &v) in ordering.iter().enumerate() {
                pos[v as usize] = i;
            }
            let adj = g.adjacency();
            for &v in &ordering {
                let later = adj[v as usize]
                    .iter()
                    .filter(|&&(w, _)| pos[w as usize] > pos[v as usize])
                    .count();
                assert!(
                    later <= d,
                    "seed {seed}: vertex {v} has {later} later, degeneracy {d}"
                );
            }
        }
    }

    #[test]
    fn line_graph_shapes() {
        // L(path_4) is a path on 3 vertices; L(star_n) is complete on n-1;
        // L(cycle_n) is cycle_n; L(K3) = K3.
        assert_eq!(line_graph(&path(4)).m(), 2);
        let ls = line_graph(&star(5));
        assert_eq!(ls.n(), 4);
        assert_eq!(ls.m(), 6); // K4
        let lc = line_graph(&cycle(5));
        assert_eq!(lc.n(), 5);
        assert_eq!(lc.m(), 5);
        // Sum over v of C(d(v), 2):
        let g = complete(4);
        let lg = line_graph(&g);
        assert_eq!(lg.n(), 6);
        assert_eq!(lg.m(), 4 * 3); // 4 vertices of degree 3 → 4 · C(3,2) = 12
    }

    #[test]
    fn line_graph_max_degree_bound() {
        // Δ(L(G)) ≤ 2Δ(G) − 2, the bound behind the Hajnal–Szemerédi
        // argument in Lemma 6.2.
        for seed in 0..3 {
            let g = gnm(20, 60, seed);
            let lg = line_graph(&g);
            assert!(lg.max_degree() <= 2 * g.max_degree() - 2);
        }
    }

    #[test]
    fn bipartition_detects_odd_cycles() {
        assert!(bipartition(&cycle(4)).is_some());
        assert!(bipartition(&cycle(5)).is_none());
        assert!(bipartition(&complete_bipartite(3, 5)).is_some());
        assert!(bipartition(&complete(3)).is_none());
        let side = bipartition(&path(4)).unwrap();
        assert_eq!(side, vec![false, true, false, true]);
        // All-isolated graph is trivially bipartite.
        assert!(bipartition(&Graph::new(3, vec![])).is_some());
    }

    #[test]
    fn bipartition_proper_on_random_bipartite() {
        let g = crate::generators::bipartite(15, 20, 80, 3);
        let side = bipartition(&g).unwrap();
        for e in g.edges() {
            assert_ne!(side[e.u as usize], side[e.v as usize]);
        }
    }

    #[test]
    fn complement_involution() {
        for seed in 0..3 {
            let g = gnm(12, 30, seed);
            let cc = complement(&complement(&g));
            assert_eq!(cc.n(), g.n());
            let mut a: Vec<_> = g.edges().iter().map(Edge::key).collect();
            let mut b: Vec<_> = cc.edges().iter().map(Edge::key).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
        assert_eq!(complement(&complete(5)).m(), 0);
        assert_eq!(complement(&Graph::new(5, vec![])).m(), 10);
    }

    #[test]
    fn disjoint_union_preserves_weights() {
        let g1 = Graph::new(2, vec![Edge::new(0, 1, 2.5)]);
        let g2 = Graph::new(2, vec![Edge::new(0, 1, 7.5)]);
        let u = disjoint_union(&[g1, g2]);
        assert_eq!(u.n(), 4);
        assert_eq!(u.m(), 2);
        assert!((u.edge(1).w - 7.5).abs() < 1e-12);
        assert_eq!(u.edge(1).key(), (2, 3));
        assert_eq!(disjoint_union(&[]).n(), 0);
    }
}
