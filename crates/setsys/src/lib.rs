//! # mrlr-setsys — weighted set system substrate
//!
//! Set systems for the set-cover algorithms of *"Greedy and Local Ratio
//! Algorithms in the MapReduce Model"* (SPAA 2018): the primal/dual views
//! (Section 2 works with the dual `T_j` representation), and generators with
//! controlled frequency `f`, set size `Δ`, and weight spread.
//!
//! A [`SetSystem`] holds its sets in one flat [`mrlr_mapreduce::Csr`] and
//! derives the dual from it once ([`SetSystem::dual`]).
//!
//! ```
//! use mrlr_setsys::generators;
//!
//! let sys = generators::bounded_frequency(20, 500, 3, 42);
//! assert!(sys.is_coverable());
//! assert!(sys.max_frequency() <= 3);
//! ```

#![warn(missing_docs)]

pub mod generators;
pub mod stats;
pub mod system;

pub use stats::{frequency_histogram, set_size_histogram, system_stats, SystemStats};
pub use system::{ElemId, SetId, SetSystem};
