//! The hungry-greedy technique (Sections 3 and 4, Appendices A and B):
//! sample *heavy* entities first — not to maximize an objective, but to
//! disqualify a large fraction of candidates and shrink the instance
//! geometrically, so the greedy method completes in a few rounds.
//!
//! Each key's one loop is its cluster driver in [`crate::mr`]
//! ([`crate::mr::mis`], [`crate::mr::clique`],
//! [`crate::mr::set_cover_greedy`]); the registry's `Rlr` backend runs it
//! on one unmetered machine. These modules keep the parameters, coins,
//! degree classes and RNG tags those drivers read.
//!
//! # The greedy dual as a certificate
//!
//! In the paper's notation, when the ε-greedy rule (Section 4) adds a set
//! `S_ℓ` covering `d = |S_ℓ \ C|` new elements, each of them is priced
//! `price_j = w_ℓ / d`. Dual fitting (the Chvátal analysis behind
//! Theorem 4.5) shows the *fitted* prices
//! `y_j = price_j / ((1+ε) H_Δ)` are a feasible LP dual —
//! `Σ_{j ∈ S} y_j ≤ w_S` for every set `S` — so
//! `Σ_j y_j ≤ OPT ≤ w(C) ≤ (1+ε) H_Δ · Σ_j y_j`. Algorithm 3's driver
//! records the fitted dual in [`crate::types::CoverResult::dual`]
//! (MIS/clique runs instead carry per-vertex maximality blockers built at
//! certification time), so the `(1+ε) ln Δ` guarantee of any stored run
//! can be re-checked offline:
//!
//! ```
//! use mrlr_core::api::witness::check_cover_dual;
//! use mrlr_core::hungry::HungryScParams;
//! use mrlr_core::mr::{set_cover_greedy, MrConfig};
//! use mrlr_core::seq::harmonic;
//!
//! let sys = mrlr_setsys::generators::bounded_set_size(30, 25, 5, 1);
//! let params = HungryScParams::new(25, 0.4, 0.2, 1);
//! let cfg = MrConfig::auto(30, 25, 0.4, 1);
//! let (cover, _trace, _metrics) = set_cover_greedy::run(&sys, params, cfg).unwrap();
//! // The fitted prices are a feasible dual summing to the claimed lower
//! // bound, which certifies the (1+ε)·H_Δ ratio of this very run.
//! check_cover_dual(&sys, &cover.dual, cover.lower_bound).unwrap();
//! let bound = (1.0 + 0.2) * harmonic(sys.max_set_size());
//! assert!(cover.weight <= bound * cover.lower_bound * (1.0 + 1e-9));
//! ```

pub mod clique;
pub mod mis;
pub mod setcover;

pub use mis::MisParams;
pub use setcover::{HungryScParams, HungryScTrace};
