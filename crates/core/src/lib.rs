//! # mrlr-core — the paper's algorithms
//!
//! Implementations of every algorithm in *"Greedy and Local Ratio
//! Algorithms in the MapReduce Model"* (Harvey, Liaw, Liu; SPAA 2018),
//! exposed uniformly through the [`api`] registry: each algorithm is one
//! [`api::Driver`] with a stable string key and up to three
//! [`api::Backend`]s (`Seq` reference, `Rlr` in-memory randomized driver,
//! `Mr` cluster run — `Rlr` and `Mr` are bit-identical for equal seeds).
//!
//! | Paper | Registry key | Backend modules |
//! |---|---|---|
//! | Alg 1 / Thm 2.4 local-ratio set cover (`f`-approx) | `"set-cover-f"` | [`seq::local_ratio_sc`], [`rlr::setcover`], [`mr::set_cover`] |
//! | Thm 2.4 `f = 2` vertex cover fast path | `"vertex-cover"` | [`rlr::setcover`], [`mr::vertex_cover`] |
//! | Alg 3 `(1+ε) ln Δ` set cover | `"set-cover-greedy"` | [`seq::greedy_sc`], [`hungry::setcover`], [`mr::set_cover_greedy`] |
//! | Alg 2 hungry-greedy MIS (`MIS1`) | `"mis1"` | [`seq::greedy_graph`], [`hungry::mis`], [`mr::mis`] |
//! | Alg 6 hungry-greedy MIS (`MIS2`) | `"mis2"` | [`seq::greedy_graph`], [`hungry::mis`], [`mr::mis`] |
//! | App B maximal clique | `"clique"` | [`seq::greedy_graph`], [`hungry::clique`], [`mr::clique`] |
//! | Alg 4 / App C matching | `"matching"` | [`mod@seq::local_ratio_matching`], [`rlr::matching`], [`mr::matching`] |
//! | Alg 7 / App D b-matching | `"b-matching"` | [`seq::local_ratio_bmatching`], [`rlr::bmatching`], [`mr::bmatching`] |
//! | Alg 5 vertex colouring | `"vertex-colouring"` | [`seq::greedy_graph`], [`colouring`], [`mr::colouring`] |
//! | Rem 6.5 edge colouring | `"edge-colouring"` | [`seq::misra_gries`], [`colouring`], [`mr::colouring`] |
//!
//! ```
//! use mrlr_core::api::{Instance, Registry};
//! use mrlr_core::mr::MrConfig;
//! use mrlr_graph::generators;
//!
//! let g = generators::with_uniform_weights(&generators::densified(30, 0.4, 1), 1.0, 9.0, 1);
//! let cfg = MrConfig::auto(30, g.m(), 0.3, 1);
//! let report = Registry::with_defaults()
//!     .solve("matching", &Instance::Graph(g), &cfg)
//!     .unwrap();
//! assert!(report.certificate.feasible);
//! ```
//!
//! Plus: sequential baselines ([`seq`]), exact solvers ([`exact`]) and
//! validators/certificates ([`verify`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod api;
pub mod colouring;
pub mod exact;
pub mod hungry;
pub mod io;
pub mod mr;
pub mod rlr;
pub mod seq;
pub mod types;
pub mod verify;

pub use api::{Backend, Certificate, Driver, Problem, Registry, Report};
pub use types::{ColouringResult, CoverResult, MatchingResult, SelectionResult, POS_TOL};
