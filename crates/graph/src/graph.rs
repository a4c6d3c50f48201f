//! Weighted simple graphs with edge-identity.
//!
//! The paper's graph algorithms treat edges as first-class records that are
//! partitioned across machines, so [`Graph`] is edge-list centred: each edge
//! has a stable [`EdgeId`] (its index), endpoints, and a positive weight.
//! Its two adjacency views — [`Graph::adjacency`] (neighbour and edge id,
//! in edge-id order) and [`Graph::neighbours`] (neighbour ids ascending)
//! — are flat [`Csr`]s built on first use and kept for the graph's
//! lifetime: a graph is immutable, so a view can never go stale, and every
//! caller — drivers, validators, witness builders, every job of a batch —
//! reads the same rows.

use std::sync::OnceLock;

use mrlr_mapreduce::words::WordSized;
use mrlr_mapreduce::Csr;

/// Vertex identifier: `0..n`.
pub type VertexId = u32;

/// Edge identifier: index into [`Graph::edges`].
pub type EdgeId = u32;

/// An undirected weighted edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// One endpoint.
    pub u: VertexId,
    /// The other endpoint.
    pub v: VertexId,
    /// Positive finite weight.
    pub w: f64,
}

impl Edge {
    /// Creates an edge; endpoints are stored in the given order.
    pub fn new(u: VertexId, v: VertexId, w: f64) -> Self {
        Edge { u, v, w }
    }

    /// The endpoint other than `x`. Panics if `x` is not an endpoint.
    pub fn other(&self, x: VertexId) -> VertexId {
        if x == self.u {
            self.v
        } else {
            assert_eq!(x, self.v, "vertex {x} is not an endpoint");
            self.u
        }
    }

    /// True if `x` is an endpoint.
    pub fn touches(&self, x: VertexId) -> bool {
        self.u == x || self.v == x
    }

    /// Canonical endpoint pair `(min, max)`.
    pub fn key(&self) -> (VertexId, VertexId) {
        (self.u.min(self.v), self.u.max(self.v))
    }
}

impl WordSized for Edge {
    fn words(&self) -> usize {
        3
    }
}

/// An undirected weighted simple graph.
#[derive(Debug, Clone)]
pub struct Graph {
    n: usize,
    edges: Vec<Edge>,
    /// [`Graph::adjacency`], derived from `edges` on first use. No method
    /// takes `&mut self`, so once built it is the adjacency of this graph
    /// for good.
    adj: OnceLock<Csr<(VertexId, EdgeId)>>,
    /// [`Graph::neighbours`], derived from the adjacency on first use.
    nbrs: OnceLock<Csr<VertexId>>,
}

/// Two graphs are equal when their vertex counts and edge lists are;
/// whether either has built its adjacency or neighbour view yet is not
/// part of its value.
impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.edges == other.edges
    }
}

impl Graph {
    /// Builds a graph over `n` vertices, validating simplicity (no loops,
    /// no parallel edges), endpoint ranges, and weight positivity.
    ///
    /// This is the constructor for edge lists built in code — generators,
    /// tests, drivers. Edge lists read from untrusted bytes are validated
    /// by the parser instead, which can say *where* the input is wrong,
    /// and then enter through [`Graph::from_validated`].
    ///
    /// # Panics
    /// Panics on invalid input; generators and tests construct graphs, so a
    /// malformed graph is a programming error, not a runtime condition.
    pub fn new(n: usize, edges: Vec<Edge>) -> Self {
        Self::assert_simple(n, &edges);
        Self::from_parts(n, edges)
    }

    /// Builds a graph from an edge list its caller has already validated
    /// against everything [`Graph::new`] checks — the instance parser
    /// (`mrlr_core::io`) proves range, loops, weights and duplicates record
    /// by record with located errors, so repeating the `O(m log m)` check
    /// here would only prove it twice. Debug builds (and so the test
    /// suite) still run the full check.
    pub fn from_validated(n: usize, edges: Vec<Edge>) -> Self {
        #[cfg(debug_assertions)]
        Self::assert_simple(n, &edges);
        Self::from_parts(n, edges)
    }

    /// Every graph is built here: the adjacency addresses its `2m` edge
    /// halves with `u32` offsets, so the bound is checked once, up front.
    fn from_parts(n: usize, edges: Vec<Edge>) -> Self {
        assert!(
            edges.len() <= (u32::MAX / 2) as usize,
            "{} edges exceed the adjacency's u32 offsets",
            edges.len()
        );
        Graph {
            n,
            edges,
            adj: OnceLock::new(),
            nbrs: OnceLock::new(),
        }
    }

    fn assert_simple(n: usize, edges: &[Edge]) {
        for e in edges {
            assert!(
                (e.u as usize) < n && (e.v as usize) < n,
                "endpoint out of range"
            );
            assert_ne!(e.u, e.v, "self-loop at {}", e.u);
            assert!(
                e.w.is_finite() && e.w > 0.0,
                "weight must be positive and finite"
            );
        }
        let mut keys: Vec<(VertexId, VertexId)> = edges.iter().map(Edge::key).collect();
        keys.sort_unstable();
        for pair in keys.windows(2) {
            assert_ne!(pair[0], pair[1], "parallel edge {:?}", pair[0]);
        }
    }

    /// Builds an unweighted (unit-weight) graph from endpoint pairs.
    pub fn from_pairs(n: usize, pairs: &[(VertexId, VertexId)]) -> Self {
        Graph::new(
            n,
            pairs.iter().map(|&(u, v)| Edge::new(u, v, 1.0)).collect(),
        )
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of edges.
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// The edge list.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The edge with identifier `e`.
    pub fn edge(&self, e: EdgeId) -> &Edge {
        &self.edges[e as usize]
    }

    /// Total edge weight.
    pub fn total_weight(&self) -> f64 {
        self.edges.iter().map(|e| e.w).sum()
    }

    /// Per-vertex adjacency: row `v` holds `v`'s `(neighbour, edge-id)`
    /// pairs in edge-id order. Built count → prefix-sum → scatter from the
    /// edge list by the first call; every later call, from any thread,
    /// returns the same rows.
    pub fn adjacency(&self) -> &Csr<(VertexId, EdgeId)> {
        self.adj.get_or_init(|| {
            let mut rows = Csr::builder(self.degrees(), (0, 0))
                .expect("every constructor bounds 2m by u32::MAX");
            for (i, e) in self.edges.iter().enumerate() {
                rows.push(e.u as usize, (e.v, i as EdgeId));
                rows.push(e.v as usize, (e.u, i as EdgeId));
            }
            rows.finish()
        })
    }

    /// Per-vertex neighbour ids: row `v` holds `v`'s neighbours in
    /// ascending order. The first call derives it from
    /// [`Graph::adjacency`] by a transposing scatter — walk `u` ascending,
    /// push `u` into each neighbour's row — so the rows come out sorted
    /// without a comparison sort; every later call, from any thread,
    /// returns the same rows.
    pub fn neighbours(&self) -> &Csr<VertexId> {
        self.nbrs.get_or_init(|| {
            let adj = self.adjacency();
            let mut rows = Csr::builder(adj.iter().map(<[_]>::len), 0)
                .expect("every constructor bounds 2m by u32::MAX");
            for (u, row) in adj.iter().enumerate() {
                for &(w, _) in row {
                    rows.push(w as usize, u as VertexId);
                }
            }
            rows.finish()
        })
    }

    /// Vertex degrees.
    pub fn degrees(&self) -> Vec<usize> {
        let mut deg = vec![0usize; self.n];
        for e in &self.edges {
            deg[e.u as usize] += 1;
            deg[e.v as usize] += 1;
        }
        deg
    }

    /// Maximum degree `Δ` (0 for edgeless graphs).
    pub fn max_degree(&self) -> usize {
        self.degrees().into_iter().max().unwrap_or(0)
    }

    /// Density exponent `c` such that `m = n^{1+c}` (meaningful for `n ≥ 2`,
    /// `m ≥ 1`).
    pub fn density_exponent(&self) -> f64 {
        if self.n < 2 || self.edges.is_empty() {
            return 0.0;
        }
        (self.m() as f64).ln() / (self.n as f64).ln() - 1.0
    }

    /// Replaces every weight with 1.0.
    pub fn unweighted(&self) -> Graph {
        Self::from_parts(
            self.n,
            self.edges
                .iter()
                .map(|e| Edge::new(e.u, e.v, 1.0))
                .collect(),
        )
    }

    /// The subgraph induced by `keep` (a predicate on vertices). Vertex ids
    /// are preserved; edges with a dropped endpoint are removed.
    pub fn induced<F: Fn(VertexId) -> bool>(&self, keep: F) -> Graph {
        Self::from_parts(
            self.n,
            self.edges
                .iter()
                .filter(|e| keep(e.u) && keep(e.v))
                .copied()
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_accessors() {
        let g = Graph::from_pairs(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 4);
        assert_eq!(g.degrees(), vec![2, 2, 2, 2]);
        assert_eq!(g.max_degree(), 2);
        assert!((g.total_weight() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn adjacency_covers_both_directions() {
        let g = Graph::from_pairs(3, &[(0, 1), (0, 2)]);
        let adj = g.adjacency();
        assert_eq!(adj.rows(), 3);
        assert_eq!(adj[0], [(1, 0), (2, 1)]);
        assert_eq!(adj[1], [(0, 0)]);
        assert_eq!(adj[2], [(0, 1)]);
    }

    #[test]
    fn edge_other_and_touches() {
        let e = Edge::new(3, 7, 2.0);
        assert_eq!(e.other(3), 7);
        assert_eq!(e.other(7), 3);
        assert!(e.touches(3) && e.touches(7) && !e.touches(5));
        assert_eq!(e.key(), (3, 7));
        assert_eq!(Edge::new(7, 3, 1.0).key(), (3, 7));
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn rejects_self_loop() {
        Graph::from_pairs(2, &[(1, 1)]);
    }

    #[test]
    #[should_panic(expected = "parallel edge")]
    fn rejects_parallel_edges() {
        Graph::from_pairs(3, &[(0, 1), (1, 0)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_endpoint() {
        Graph::from_pairs(2, &[(0, 5)]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_weight() {
        Graph::new(2, vec![Edge::new(0, 1, 0.0)]);
    }

    #[test]
    fn density_exponent_matches() {
        // n = 100, m = n^{1.5} = 1000: complete-ish density check via a
        // synthetic edge count (use a star-of-cliques shape irrelevant; just
        // check the formula on a generated count).
        let n = 100u32;
        let mut pairs = Vec::new();
        'outer: for u in 0..n {
            for v in (u + 1)..n {
                pairs.push((u, v));
                if pairs.len() == 1000 {
                    break 'outer;
                }
            }
        }
        let g = Graph::from_pairs(n as usize, &pairs);
        assert!((g.density_exponent() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn induced_subgraph_filters_edges() {
        let g = Graph::from_pairs(4, &[(0, 1), (1, 2), (2, 3)]);
        let h = g.induced(|v| v != 2);
        assert_eq!(h.m(), 1);
        assert_eq!(h.edges()[0].key(), (0, 1));
    }

    #[test]
    fn unweighted_resets_weights() {
        let g = Graph::new(2, vec![Edge::new(0, 1, 5.0)]);
        assert!((g.unweighted().edges()[0].w - 1.0).abs() < 1e-12);
    }

    #[test]
    fn edge_word_size() {
        assert_eq!(Edge::new(0, 1, 1.0).words(), 3);
    }
}
