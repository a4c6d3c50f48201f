//! # mrlr-graph — weighted graph substrate
//!
//! Graph types and generators for the `mrlr` reproduction of *"Greedy and
//! Local Ratio Algorithms in the MapReduce Model"* (SPAA 2018). The paper
//! assumes graphs with `n` vertices and `m = n^{1+c}` edges; the generators
//! here are parameterized by the density exponent `c` directly
//! ([`generators::densified`]), alongside Erdős–Rényi, Chung–Lu power-law
//! ("social network") and bipartite families.
//!
//! ```
//! use mrlr_graph::generators;
//!
//! let g = generators::densified(100, 0.4, 42);
//! assert!((g.density_exponent() - 0.4).abs() < 0.05);
//! ```

#![warn(missing_docs)]

pub mod algo;
pub mod generators;
pub mod graph;
pub mod stats;

pub use algo::{
    bfs_distances, bipartition, complement, connected_components, core_decomposition, degeneracy,
    disjoint_union, line_graph, triangle_count,
};
pub use graph::{Edge, EdgeId, Graph, VertexId};
pub use stats::{
    clustering_coefficient, degree_assortativity, degree_histogram, degree_stats, weight_spread,
    DegreeStats,
};
