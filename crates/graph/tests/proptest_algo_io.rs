//! Property-based tests for the graph algorithms.

use proptest::prelude::*;

use mrlr_graph::algo::{
    bfs_distances, bipartition, complement, connected_components, core_decomposition,
    disjoint_union, line_graph, triangle_count,
};
use mrlr_graph::{Edge, Graph};

fn arb_graph(nmax: usize, mmax: usize) -> impl Strategy<Value = Graph> {
    (2usize..=nmax).prop_flat_map(move |n| {
        proptest::collection::vec(((0..n as u32), (0..n as u32), 1u32..1000), 0..=mmax).prop_map(
            move |raw| {
                let mut seen = std::collections::HashSet::new();
                let mut edges = Vec::new();
                for (a, b, w) in raw {
                    if a == b {
                        continue;
                    }
                    let key = (a.min(b), a.max(b));
                    if seen.insert(key) {
                        edges.push(Edge::new(key.0, key.1, w as f64 / 16.0));
                    }
                }
                Graph::new(n, edges)
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn components_partition_vertices(g in arb_graph(24, 40)) {
        let (count, label) = connected_components(&g);
        prop_assert!(count >= 1);
        prop_assert!(label.iter().all(|&l| (l as usize) < count));
        // Every edge joins same-component endpoints.
        for e in g.edges() {
            prop_assert_eq!(label[e.u as usize], label[e.v as usize]);
        }
        // Component labels are contiguous 0..count.
        let mut present = vec![false; count];
        for &l in &label {
            present[l as usize] = true;
        }
        prop_assert!(present.into_iter().all(|p| p));
    }

    #[test]
    fn bfs_distances_are_metric(g in arb_graph(20, 40)) {
        let d = bfs_distances(&g, 0);
        prop_assert_eq!(d[0], Some(0));
        // Along every edge, distances differ by at most 1 (when both reachable).
        for e in g.edges() {
            if let (Some(a), Some(b)) = (d[e.u as usize], d[e.v as usize]) {
                prop_assert!(a.abs_diff(b) <= 1);
            }
        }
        // Reachability agrees with components.
        let (_, label) = connected_components(&g);
        for v in 0..g.n() {
            prop_assert_eq!(d[v].is_some(), label[v] == label[0]);
        }
    }

    #[test]
    fn complement_triangle_identity(g in arb_graph(12, 30)) {
        // Counting argument: triangles(G) + triangles(Ḡ) + mixed = C(n,3).
        let n = g.n();
        let total = n * (n - 1) * (n - 2) / 6;
        let t = triangle_count(&g) + triangle_count(&complement(&g));
        prop_assert!(t <= total);
        // Complement degree identity: d(v) + d̄(v) = n - 1.
        let d = g.degrees();
        let dc = complement(&g).degrees();
        for v in 0..n {
            prop_assert_eq!(d[v] + dc[v], n - 1);
        }
    }

    #[test]
    fn core_numbers_bounded_by_degree(g in arb_graph(24, 60)) {
        let (core, ordering, degeneracy) = core_decomposition(&g);
        let deg = g.degrees();
        prop_assert_eq!(ordering.len(), g.n());
        for v in 0..g.n() {
            prop_assert!(core[v] <= deg[v]);
            prop_assert!(core[v] <= degeneracy);
        }
        prop_assert_eq!(core.iter().copied().max().unwrap_or(0), degeneracy);
        // Degeneracy lower bound: every subgraph's min degree ≤ degeneracy —
        // in particular the whole graph's.
        prop_assert!(deg.iter().copied().min().unwrap_or(0) <= degeneracy);
    }

    #[test]
    fn line_graph_size_identity(g in arb_graph(14, 30)) {
        let lg = line_graph(&g);
        prop_assert_eq!(lg.n(), g.m());
        let expect: usize = g.degrees().iter().map(|&d| d * (d.saturating_sub(1)) / 2).sum();
        prop_assert_eq!(lg.m(), expect);
        // An edge colouring of G is a vertex colouring of L(G): check via
        // max degree bound Δ(L) ≤ 2Δ(G) − 2 when G has an edge.
        if g.m() > 0 && g.max_degree() >= 1 {
            prop_assert!(lg.max_degree() + 2 <= 2 * g.max_degree().max(1) || lg.max_degree() == 0);
        }
    }

    #[test]
    fn bipartition_is_proper_when_found(g in arb_graph(20, 40)) {
        if let Some(side) = bipartition(&g) {
            for e in g.edges() {
                prop_assert_ne!(side[e.u as usize], side[e.v as usize]);
            }
        } else {
            // Odd cycle exists ⇒ not bipartite ⇒ some component has an odd
            // cycle; a triangle certificate is not guaranteed, but at least
            // one edge must exist.
            prop_assert!(g.m() >= 3);
        }
    }

    #[test]
    fn disjoint_union_adds_sizes(a in arb_graph(10, 20), b in arb_graph(10, 20)) {
        let u = disjoint_union(&[a.clone(), b.clone()]);
        prop_assert_eq!(u.n(), a.n() + b.n());
        prop_assert_eq!(u.m(), a.m() + b.m());
        let (ca, _) = connected_components(&a);
        let (cb, _) = connected_components(&b);
        let (cu, _) = connected_components(&u);
        prop_assert_eq!(cu, ca + cb);
    }
}
