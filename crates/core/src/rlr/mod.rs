//! The randomized local-ratio technique (Sections 2.1 and 5.2, Appendix D):
//! sample i.i.d., run the sequential local-ratio algorithm on the sample
//! centrally, and let the weight reductions eliminate unsampled elements.
//!
//! Each key's one loop is its cluster driver in [`crate::mr`]
//! ([`crate::mr::set_cover`], [`crate::mr::vertex_cover`],
//! [`crate::mr::matching`], [`crate::mr::bmatching`]); the registry's
//! `Rlr` backend runs it on one unmetered machine. These modules keep the
//! parameters, coin tags and formulas those drivers read, and
//! [`ablation`], the pooled-sampling variant of Algorithm 4 that
//! experiment E13 compares against.
//!
//! # The local-ratio stack as a certificate
//!
//! In the paper's notation, processing an element `j` (set cover) reduces
//! the residual weight of every set in `T_j` by
//! `ε_j = min_{i ∈ T_j} w_i`; pushing an edge `e = {u, v}` (matching)
//! records its modified weight `m_e = w_e − ϕ(u) − ϕ(v)` and adds `m_e`
//! to both potentials. The transcripts `{(j, ε_j)}` and `{(e, m_e)}` are
//! exactly the objects the proofs of Theorems 2.1 and 5.1 manipulate:
//! the `ε_j` form a feasible LP dual (`Σ_{j ∈ S_i} ε_j ≤ w_i`, so
//! `Σ_j ε_j ≤ OPT ≤ w(C) ≤ f · Σ_j ε_j`), and the stack satisfies
//! `OPT ≤ 2 Σ_e m_e ≤ 2 · w(M)`. Every driver here records its
//! transcript ([`crate::types::CoverResult::dual`],
//! [`crate::types::MatchingResult::stack`]), so any stored run can be
//! re-verified without re-running the solver:
//!
//! ```
//! use mrlr_core::api::witness::{check_cover_dual, replay_matching_stack};
//! use mrlr_core::api::{Backend, Instance, Registry};
//! use mrlr_core::mr::{matching, MrConfig};
//!
//! // Algorithm 1 on a tiny system: {0,1} w=1, {1,2} w=1, {0,2} w=10,
//! // through the registry's `Rlr` backend (one unmetered machine).
//! let sys = mrlr_setsys::SetSystem::new(
//!     3,
//!     vec![vec![0, 1], vec![1, 2], vec![0, 2]],
//!     vec![1.0, 1.0, 10.0],
//! );
//! let instance = Instance::SetSystem(sys.clone());
//! let cfg = MrConfig { eta: 10, ..instance.auto_config(0.5, 7) };
//! let report = Registry::with_defaults()
//!     .solve_with("set-cover-f", Backend::Rlr, &instance, &cfg)
//!     .unwrap();
//! let cover = report.solution.as_cover().unwrap();
//! // The recorded reductions are a feasible dual summing to the claimed
//! // lower bound — the whole Theorem 2.3 guarantee, re-checked.
//! check_cover_dual(&sys, &cover.dual, cover.lower_bound).unwrap();
//!
//! // Algorithm 4 on a weighted path; replaying the stack reproduces the
//! // matching and the gain bit-for-bit (Theorem 5.1's certificate).
//! let g = mrlr_graph::Graph::new(
//!     4,
//!     vec![
//!         mrlr_graph::Edge::new(0, 1, 1.0),
//!         mrlr_graph::Edge::new(1, 2, 10.0),
//!         mrlr_graph::Edge::new(2, 3, 1.0),
//!     ],
//! );
//! let cfg = MrConfig { eta: 10, ..MrConfig::auto(4, 3, 0.5, 7) };
//! let (matching, _metrics) = matching::run(&g, cfg).unwrap();
//! let replay = replay_matching_stack(&g, &matching.stack).unwrap();
//! assert_eq!(replay.matching, matching.matching);
//! assert_eq!(replay.gain.to_bits(), matching.stack_gain.to_bits());
//! assert!(2.0 * replay.gain >= matching.weight); // OPT ≤ 2·Σ m_e
//! ```

pub mod ablation;
pub mod bmatching;
pub mod matching;
pub mod setcover;

pub use ablation::{approx_max_matching_pooled, degree_decay_trace, SamplingStrategy};
pub use bmatching::{push_budget, BMatchingParams};
pub use setcover::{predicted_rounds, sample_probability};
