//! Sequential reference implementations.
//!
//! These are (a) the exact subroutines the paper's central machine runs,
//! (b) standalone baselines, and (c) test oracles for the randomized and
//! MapReduce drivers.

pub mod greedy_graph;
pub mod greedy_sc;
pub mod local_ratio_bmatching;
pub mod local_ratio_matching;
pub mod local_ratio_sc;
pub mod misra_gries;
#[cfg(test)]
mod misra_gries_oracle;

pub use greedy_graph::{
    degeneracy_colouring, greedy_colouring, greedy_colouring_with_order, greedy_maximal_clique,
    greedy_maximal_clique_with_order, greedy_mis, greedy_mis_with_order,
};
pub use greedy_sc::{eps_greedy_set_cover, fitted_dual, greedy_set_cover, harmonic};
pub use local_ratio_bmatching::{
    b_matching_multiplier, local_ratio_b_matching, local_ratio_b_matching_with_order,
    BMatchingLocalRatio,
};
pub use local_ratio_matching::{
    local_ratio_matching, local_ratio_matching_with_order, MatchingLocalRatio,
};
pub use local_ratio_sc::{local_ratio_set_cover, local_ratio_set_cover_with_order, ScLocalRatio};
pub use misra_gries::misra_gries_edge_colouring;
