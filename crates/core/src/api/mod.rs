//! The unified solver API: [`Problem`]s, [`Driver`]s, [`Report`]s and the
//! string-keyed [`Registry`].
//!
//! Every algorithm in this crate shares one shape — an instance, a cluster
//! regime `(M, η, µ)` captured by [`MrConfig`], and a round/space-accounted
//! run. This module makes that shape a first-class interface:
//!
//! * [`Problem`] names a problem family and ties together its instance,
//!   solution and verification-certificate types.
//! * [`Driver`] is one algorithm for one problem, available in up to five
//!   [`Backend`]s: `Seq` (deterministic sequential reference), `Rlr` (the
//!   paper's randomized in-memory driver from [`crate::rlr`],
//!   [`crate::hungry`] or [`crate::colouring`]), `Mr` (the cluster
//!   implementation from [`crate::mr`] on whichever runtime the config
//!   — by default the `MRLR_BACKEND` environment variable — names),
//!   `Shard` (the same implementation pinned to the in-process runtime:
//!   static shard→thread scheduling with counting-sort routing) and
//!   `Dist` (the same implementation again, shuffling through the
//!   master/worker control plane of [`mrlr_mapreduce::dist`] with
//!   fault-tolerant re-execution). For identical seeds the `Rlr`, `Mr`,
//!   `Shard` and `Dist` backends return **bit-identical** solutions; the
//!   cluster backends additionally report honest (and mutually
//!   identical) [`Metrics`].
//! * [`Report`] uniformly bundles the solution with its certificate,
//!   cluster metrics and wall-clock timing.
//! * [`Registry`] enumerates every driver under a stable string key
//!   (`"matching"`, `"vertex-cover"`, …) for data-driven dispatch: the
//!   experiment binaries, benches and examples loop over the registry
//!   instead of hand-wiring per-algorithm entry points.
//!   [`Registry::solve_batch`] runs one instance set across many
//!   `(algorithm, cfg)` jobs: the nested loop over
//!   [`Registry::solve_with`], each job distributing its own input.
//!
//! The cluster backends run machine supersteps on the pluggable executor
//! behind [`crate::mr::MrConfig::exec`] ([`crate::mr::ExecConfig`]):
//! thread count changes wall-clock only — solutions and [`Metrics`] are
//! bit-identical at every setting (see `tests/executor_determinism.rs`).
//!
//! ```
//! use mrlr_core::api::{Backend, Instance, Registry};
//! use mrlr_core::mr::MrConfig;
//! use mrlr_graph::generators;
//!
//! let g = generators::with_uniform_weights(&generators::densified(40, 0.4, 7), 1.0, 9.0, 7);
//! let cfg = MrConfig::auto(40, g.m(), 0.3, 7);
//! let registry = Registry::with_defaults();
//!
//! let report = registry.solve("matching", &Instance::Graph(g), &cfg).unwrap();
//! assert!(report.certificate.feasible);
//! assert!(report.metrics.as_ref().unwrap().rounds > 0);
//! ```

pub mod commit;
mod drivers;
mod problems;
mod registry;
pub mod stream;
pub mod witness;

use std::fmt;
use std::time::Duration;

use mrlr_mapreduce::{Metrics, MrResult};

use crate::mr::MrConfig;

pub use commit::{audit_chunk, audit_committed, commit_witness, open_witness, Commitment, Digest};
pub use drivers::{
    BMatchingDriver, CliqueDriver, ColouringDriver, EdgeLimit, GreedySetCoverDriver,
    MatchingDriver, MisDriver, MisVariant, SetCoverFDriver, VertexCoverDriver,
    DEFAULT_BMATCHING_EPS, DEFAULT_GREEDY_SC_EPS,
};
pub use problems::{
    BMatching, BMatchingInstance, ColouringCertificate, CoverCertificate, EdgeColouring, Matching,
    MatchingCertificate, MaximalClique, Mis, SelectionCertificate, SetCover, VertexColouring,
    VertexCover, VertexWeightedGraph,
};
pub use registry::{
    AlgorithmInfo, ErasedDriver, FromInstance, Instance, InstanceKind, IntoSolution, Registry,
    Solution, ALGORITHM_INFO, ALL_BACKENDS,
};
pub use stream::{solve_matching_stream, StreamError};
pub use witness::{audit, audit_report, AuditError, Claims, Witness};

/// Which implementation of an algorithm a [`Driver`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Backend {
    /// Deterministic sequential reference (test oracle / baseline).
    Seq,
    /// The paper's randomized driver on an in-memory instance
    /// ([`crate::rlr`], [`crate::hungry`], [`crate::colouring`]).
    Rlr,
    /// The cluster implementation ([`crate::mr`]), metered by the
    /// simulator, on the runtime [`MrConfig::exec`] names — by default
    /// the `MRLR_BACKEND` environment variable, else the in-process
    /// runtime, where it is `Shard` under another label. Bit-identical
    /// to `Rlr` for identical seeds.
    Mr,
    /// The cluster implementation pinned to the in-process runtime
    /// ([`mrlr_mapreduce::RuntimeKind::Shard`]: work-stealing-free
    /// static shard→thread assignment + counting-sort routing). Same
    /// drivers, same coins — `Report`s (solution, `Metrics`, witness)
    /// are **bit-identical** to `Mr`.
    Shard,
    /// The cluster implementation on the distributed runtime
    /// ([`mrlr_mapreduce::RuntimeKind::Dist`]): a master/worker control
    /// plane over real OS transport, with heartbeats and fault-tolerant
    /// re-execution of killed workers ([`mrlr_mapreduce::dist`]). Same
    /// drivers, same coins — `Report`s are **bit-identical** to `Mr` and
    /// `Shard`, even across an injected worker kill.
    Dist,
}

impl Backend {
    /// All backends, in `Seq < Rlr < Mr < Shard < Dist` order.
    pub const ALL: [Backend; 5] = [
        Backend::Seq,
        Backend::Rlr,
        Backend::Mr,
        Backend::Shard,
        Backend::Dist,
    ];
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Backend::Seq => "seq",
            Backend::Rlr => "rlr",
            Backend::Mr => "mr",
            Backend::Shard => "shard",
            Backend::Dist => "dist",
        })
    }
}

/// Uniform verification record carried by every [`Report`]: the scalar
/// summary (feasibility, objective, certified ratio) **plus** the typed
/// [`Witness`] that makes the record independently re-checkable — the LP
/// dual behind a cover's lower bound, the local-ratio stack behind a
/// matching's gain, the blockers behind a maximality claim, the
/// colour-class recount behind a properness claim.
///
/// Problem-specific certificates ([`CoverCertificate`],
/// [`MatchingCertificate`], …) convert into this via `Into`, so registry
/// consumers can print one table without knowing the problem family. A
/// serialized certificate (see [`crate::io::certificate`]) can be audited
/// offline by [`witness::audit`] / `mrlr verify` without re-running the
/// solver.
#[derive(Debug, Clone, PartialEq)]
pub struct Certificate {
    /// The solution passed its independent feasibility validator
    /// ([`crate::verify`]).
    pub feasible: bool,
    /// The objective value (cover weight, matching weight, |S|, #colours).
    pub objective: f64,
    /// A certified upper bound on the approximation ratio, when the
    /// algorithm produces a dual/stack certificate (`None` for problems
    /// whose guarantee is structural, e.g. maximality or properness).
    pub certified_ratio: Option<f64>,
    /// Human-readable summary of what was checked.
    pub detail: String,
    /// The re-checkable payload backing the scalars above.
    pub witness: Witness,
}

/// Uniform outcome of one [`Driver::solve`] call.
#[derive(Debug, Clone)]
pub struct Report<S> {
    /// Registry key of the algorithm that produced this report.
    pub algorithm: &'static str,
    /// Backend that ran.
    pub backend: Backend,
    /// The typed solution.
    pub solution: S,
    /// Verification certificate (computed by the problem's validator, not
    /// by the algorithm under test).
    pub certificate: Certificate,
    /// Cluster metrics; `Some` exactly for the cluster backends
    /// ([`Backend::Mr`], [`Backend::Shard`] and [`Backend::Dist`], which
    /// report identical metrics), `None` for the in-memory ones.
    pub metrics: Option<Metrics>,
    /// Wall-clock time of the solve call, including the certificate
    /// verification (the production path a registry consumer pays).
    pub wall: Duration,
}

impl<S> Report<S> {
    /// Maps the solution type, keeping everything else.
    pub fn map<T>(self, f: impl FnOnce(S) -> T) -> Report<T> {
        Report {
            algorithm: self.algorithm,
            backend: self.backend,
            solution: f(self.solution),
            certificate: self.certificate,
            metrics: self.metrics,
            wall: self.wall,
        }
    }

    /// Communication rounds, or 0 for in-memory backends.
    pub fn rounds(&self) -> usize {
        self.metrics.as_ref().map_or(0, |m| m.rounds)
    }

    /// Peak words resident on any machine, or 0 for in-memory backends.
    pub fn peak_words(&self) -> usize {
        self.metrics.as_ref().map_or(0, |m| m.peak_machine_words)
    }
}

/// A problem family: ties instance, solution and certificate types
/// together and provides the independent validator.
pub trait Problem {
    /// Input instance type.
    type Instance;
    /// Solution type.
    type Solution;
    /// Problem-specific certificate, convertible to the uniform
    /// [`Certificate`].
    type Certificate: Into<Certificate>;
    /// Stable name of the problem family (e.g. `"set-cover"`).
    const NAME: &'static str;
    /// Validates `solution` against `instance`, independently of the
    /// algorithm that produced it.
    fn certify(instance: &Self::Instance, solution: &Self::Solution) -> Self::Certificate;
}

/// One algorithm for one problem, in one [`Backend`].
///
/// Implementations derive every per-algorithm parameter (phase granularity
/// `α`, group sizes, `κ`, sampling budgets) from the instance and the
/// cluster regime in `cfg`, exactly as the paper's theorems parameterize
/// them — so a [`Registry`] consumer needs nothing beyond `(instance,
/// cfg)`.
pub trait Driver: Send + Sync {
    /// Input instance type.
    type Instance;
    /// Solution type.
    type Solution;
    /// Registry key of this algorithm (e.g. `"set-cover-f"`, `"mis2"`).
    fn algorithm(&self) -> &'static str;
    /// Which backend this driver runs.
    fn backend(&self) -> Backend;
    /// Runs the algorithm and bundles the outcome into a [`Report`].
    fn solve(&self, instance: &Self::Instance, cfg: &MrConfig) -> MrResult<Report<Self::Solution>>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_order_and_display() {
        assert!(Backend::Seq < Backend::Rlr && Backend::Rlr < Backend::Mr);
        assert!(Backend::Mr < Backend::Shard && Backend::Shard < Backend::Dist);
        assert_eq!(Backend::Mr.to_string(), "mr");
        assert_eq!(Backend::Shard.to_string(), "shard");
        assert_eq!(Backend::Dist.to_string(), "dist");
        assert_eq!(Backend::ALL.len(), 5);
        // Display names are unique and stable — CLI parsing and golden
        // files key off them.
        let names: Vec<String> = Backend::ALL.iter().map(Backend::to_string).collect();
        assert_eq!(names, ["seq", "rlr", "mr", "shard", "dist"]);
    }

    #[test]
    fn report_map_preserves_envelope() {
        let r = Report {
            algorithm: "x",
            backend: Backend::Seq,
            solution: 41usize,
            certificate: Certificate {
                feasible: true,
                objective: 41.0,
                certified_ratio: None,
                detail: String::new(),
                witness: Witness::Maximality { blockers: vec![] },
            },
            metrics: None,
            wall: Duration::from_millis(1),
        };
        let mapped = r.map(|s| s + 1);
        assert_eq!(mapped.solution, 42);
        assert_eq!(mapped.algorithm, "x");
        assert_eq!(mapped.rounds(), 0);
        assert_eq!(mapped.peak_words(), 0);
    }
}
