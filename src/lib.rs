//! # mrlr — Greedy and Local Ratio Algorithms in the MapReduce Model
//!
//! Facade crate re-exporting the whole workspace. See the individual crates:
//!
//! * [`mapreduce`] — the MPC/MapReduce cluster simulator substrate.
//! * [`graph`] — weighted graphs and generators (`m = n^{1+c}` families).
//! * [`setsys`] — weighted set systems and generators.
//! * [`core`] — the paper's algorithms (sequential, randomized, MapReduce).
//! * [`baselines`] — literature baselines from Figure 1 (filtering, Luby).

#![forbid(unsafe_code)]

pub use mrlr_baselines as baselines;
pub use mrlr_core as core;
pub use mrlr_graph as graph;
pub use mrlr_mapreduce as mapreduce;
pub use mrlr_setsys as setsys;
