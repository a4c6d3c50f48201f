//! # mrlr-baselines — the literature baselines of Figure 1
//!
//! Implementations of the prior-work rows the paper compares against:
//!
//! * **Filtering** (Lattanzi et al., SPAA 2011 — reference \[27\]):
//!   maximal matching, unweighted 2-approximate vertex cover, and the
//!   geometric-layering 8-approximation for weighted matching
//!   ([`filtering`]).
//! * **Luby's MIS** (reference \[31\]): the `O(log n)`-round PRAM algorithm
//!   whose round count the hungry-greedy technique beats ([`luby`]).
//! * **Luby-style `(Δ+1)` colouring** (reference \[32\]): the `O(log n)`-round
//!   baseline that Section 6's `O(1)`-round colouring is measured against
//!   ([`mod@luby_colouring`]).
//! * **Crouch–Stubbs weight classes** (reference \[14\], refined by \[21\]):
//!   `(4+ε)`-approximate weighted matching from parallel unweighted
//!   maximal matchings ([`layered`]).
//! * **Two-round coreset matching** (the flavour of Assadi–Khanna,
//!   reference \[4\]): random partition, per-machine greedy coresets,
//!   central merge ([`coreset`]).
//! * Sequential greedy weighted matching as a quality reference
//!   ([`filtering::greedy_weighted_matching`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod coreset;
pub mod filtering;
pub mod layered;
pub mod luby;
pub mod luby_colouring;

pub use coreset::{coreset_matching, CoresetResult};
pub use filtering::{
    filtering_maximal_matching, filtering_vertex_cover, greedy_weighted_matching,
    layered_weighted_matching, FilteringResult,
};
pub use layered::{crouch_stubbs_matching, LayeredResult};
pub use luby::{luby_mis, LubyResult};
pub use luby_colouring::{luby_colouring, LubyColouringResult};
