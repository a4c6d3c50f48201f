//! The adjacency views a [`Graph`] owns: their rows against nests built
//! here, their independence from clones and from who asked first.

use std::sync::Barrier;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use mrlr_graph::{Edge, EdgeId, Graph, VertexId};

/// Simple graphs on `0..=nmax` vertices, `n = 0` and `m = 0` included;
/// endpoints are drawn from the lower half of the id range about half the
/// time, so isolated vertices are common.
fn arb_graph(nmax: usize, mmax: usize) -> impl Strategy<Value = Graph> {
    (
        0usize..=nmax,
        any::<bool>(),
        proptest::collection::vec((0u32..1 << 16, 0u32..1 << 16), 0..=mmax),
    )
        .prop_map(|(n, crowd, raw)| {
            let span = if crowd { n.div_ceil(2) } else { n } as u32;
            let mut seen = std::collections::HashSet::new();
            let mut edges = Vec::new();
            for (a, b) in raw {
                if span == 0 {
                    break;
                }
                let (a, b) = (a % span, b % span);
                if a != b && seen.insert((a.min(b), a.max(b))) {
                    edges.push(Edge::new(a, b, 1.0 + edges.len() as f64));
                }
            }
            Graph::new(n, edges)
        })
}

fn naive_adjacency(g: &Graph) -> Vec<Vec<(VertexId, EdgeId)>> {
    let mut adj = vec![Vec::new(); g.n()];
    for (i, e) in g.edges().iter().enumerate() {
        adj[e.u as usize].push((e.v, i as EdgeId));
        adj[e.v as usize].push((e.u, i as EdgeId));
    }
    adj
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn rows_equal_a_naive_nest_in_edge_id_order(g in arb_graph(24, 60)) {
        let adj = g.adjacency();
        let naive = naive_adjacency(&g);
        prop_assert_eq!(adj.rows(), g.n());
        prop_assert_eq!(adj.len(), 2 * g.m());
        for (v, row) in naive.iter().enumerate() {
            prop_assert_eq!(&adj[v], row.as_slice());
            prop_assert!(row.windows(2).all(|w| w[0].1 < w[1].1));
        }
        prop_assert_eq!(g.degrees(), naive.iter().map(Vec::len).collect::<Vec<_>>());
    }

    #[test]
    fn building_the_adjacency_is_not_part_of_a_graphs_value(g in arb_graph(16, 40)) {
        let cold = g.clone();
        g.adjacency();
        let warm_clone = g.clone();
        prop_assert_eq!(&g, &cold);
        prop_assert_eq!(&warm_clone, &cold);
        // Each graph answers from its own rows, whoever built them.
        let naive = naive_adjacency(&g);
        for other in [&cold, &warm_clone] {
            for (v, row) in naive.iter().enumerate() {
                prop_assert_eq!(&other.adjacency()[v], row.as_slice());
            }
        }
        // A derived graph starts cold and builds its own.
        let derived = g.unweighted();
        prop_assert_eq!(derived.adjacency(), g.adjacency());
    }

    #[test]
    fn neighbour_rows_are_the_adjacency_ids_sorted(g in arb_graph(24, 60)) {
        check_neighbours(&g)?;
    }
}

/// Row `v` of [`Graph::neighbours`] is the neighbour ids of
/// `adjacency()[v]`, sorted, and a second call answers from the same rows.
fn check_neighbours(g: &Graph) -> Result<(), TestCaseError> {
    let nbrs = g.neighbours();
    prop_assert_eq!(nbrs.rows(), g.n());
    prop_assert_eq!(nbrs.len(), 2 * g.m());
    for v in 0..g.n() {
        let mut expected: Vec<VertexId> = g.adjacency()[v].iter().map(|&(w, _)| w).collect();
        expected.sort_unstable();
        prop_assert_eq!(&nbrs[v], expected.as_slice());
    }
    prop_assert!(std::ptr::eq(nbrs, g.neighbours()));
    Ok(())
}

#[test]
fn neighbour_rows_of_zero_and_one_vertex_graphs_are_empty() {
    for n in [0, 1] {
        let g = Graph::new(n, vec![]);
        check_neighbours(&g).unwrap();
        assert_eq!(g.neighbours().rows(), n);
    }
}

#[test]
fn empty_and_edgeless_graphs_have_empty_rows() {
    let none = Graph::new(0, vec![]);
    assert_eq!((none.adjacency().rows(), none.adjacency().len()), (0, 0));
    let edgeless = Graph::new(5, vec![]);
    assert_eq!(edgeless.adjacency().rows(), 5);
    assert!(edgeless.adjacency().iter().all(<[_]>::is_empty));
}

/// Two threads released together on a shared `&Graph` read one array: the
/// loser of the race gets the winner's rows, not a second build.
#[test]
fn racing_threads_see_one_array() {
    for _ in 0..32 {
        let g = Graph::from_pairs(6, &[(0, 1), (0, 2), (3, 4), (1, 2)]);
        let gate = Barrier::new(2);
        let first_row = || {
            gate.wait();
            &g.adjacency()[0]
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(first_row);
            let b = s.spawn(first_row);
            (a.join().unwrap(), b.join().unwrap())
        });
        assert!(std::ptr::eq(a, b));
        assert!(std::ptr::eq(a, &g.adjacency()[0]));
        assert_eq!(a, [(1, 0), (2, 1)]);
    }
}
