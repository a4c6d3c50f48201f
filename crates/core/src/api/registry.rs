//! The string-keyed driver [`Registry`]: type-erased dispatch over every
//! algorithm × backend combination, plus the paper-bounds table
//! ([`ALGORITHM_INFO`]) mapping each key to its theorem.
//!
//! # Registry keys and their theorems
//!
//! Every key is backed by a theorem of the paper (PAPER.md; Harvey–Liaw–Liu,
//! SPAA 2018). `c` is the density exponent (`m = n^{1+c}` input records),
//! `µ` the memory exponent (`n^{1+µ}` words per machine), `ε` the greedy /
//! reduction slack:
//!
//! | key | theorem | rounds | space/machine | certified ratio | witness |
//! |-----|---------|--------|---------------|-----------------|---------|
//! | `set-cover-f` | Theorem 2.4 | `O((c/µ)²)` | `O(f·n^{1+µ})` | `f` | dual |
//! | `set-cover-greedy` | Theorem 4.6 | `O((c/µ)·(1/µ)·log(Δ)/ε)` | `O(n^{1+µ})` | `(1+ε)·H_Δ` | dual |
//! | `vertex-cover` | Theorem 2.4 (f = 2) | `O(c/µ)` | `O(n^{1+µ})` | `2` | dual |
//! | `matching` | Theorems 5.5/5.6, App. C | `O(c/µ)`; `O(log n)` at `µ = 0` | `O(n^{1+µ})` | `2` | stack |
//! | `b-matching` | Theorem D.3 | `O(c/µ · log(1/ε))` | `O(n^{1+µ})` | `3 − 2/max{2,b} + 2ε` | stack |
//! | `mis1` | Theorem 3.3 | `O(1/µ²)` | `O(n^{1+µ})` | maximal | maximality |
//! | `mis2` | Theorem A.3 | `O(c/µ)` | `O(n^{1+µ})` | maximal | maximality |
//! | `clique` | Corollary B.1 | `O(c/µ)` | `O(n^{1+µ})` | maximal | maximality |
//! | `vertex-colouring` | Theorem 6.4 | `O(1)` | `O(n^{1+µ})` | `(1+o(1))Δ` colours | properness |
//! | `edge-colouring` | Theorem 6.6 | `O(1)` | `O(n^{1+µ})` | `(1+o(1))Δ` colours | properness |
//!
//! The same table is available programmatically as [`ALGORITHM_INFO`] /
//! [`Registry::info`] and is served by `mrlr list --format json`. The
//! *witness* column names the [`Witness`](super::Witness) kind each
//! driver's [`Certificate`](super::Certificate) carries, re-checkable
//! offline via [`super::witness::audit`] / `mrlr verify`. Every key runs
//! on all five [`Backend`]s ([`AlgorithmInfo::backends`]); the three
//! cluster backends (`mr` on the configured runtime, `shard` on the
//! in-process runtime, `dist` on the master/worker control plane) return
//! bit-identical reports.

use std::collections::BTreeMap;
use std::fmt;

use mrlr_graph::Graph;
use mrlr_mapreduce::{MrError, MrResult};
use mrlr_setsys::SetSystem;

use super::drivers::{
    BMatchingDriver, CliqueDriver, ColouringDriver, GreedySetCoverDriver, MatchingDriver,
    MisDriver, MisVariant, SetCoverFDriver, VertexCoverDriver,
};
use super::problems::{BMatchingInstance, VertexWeightedGraph};
use super::{Backend, Driver, MrConfig, Report};
use crate::types::{ColouringResult, CoverResult, MatchingResult, SelectionResult};

/// The shape of instance an algorithm consumes; lets data-driven harnesses
/// build the right workload without knowing the algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstanceKind {
    /// A (possibly weighted) graph.
    Graph,
    /// A graph with per-vertex weights.
    VertexWeighted,
    /// A graph with per-vertex capacities and reduction slack.
    BMatching,
    /// A weighted set system.
    SetSystem,
}

impl fmt::Display for InstanceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            InstanceKind::Graph => "graph",
            InstanceKind::VertexWeighted => "vertex-weighted graph",
            InstanceKind::BMatching => "b-matching instance",
            InstanceKind::SetSystem => "set system",
        })
    }
}

/// A type-erased instance, for dispatch through the [`Registry`].
#[derive(Debug, Clone, PartialEq)]
pub enum Instance {
    /// A (possibly weighted) graph.
    Graph(Graph),
    /// A graph with per-vertex weights (vertex cover).
    VertexWeighted(VertexWeightedGraph),
    /// A graph with per-vertex capacities (b-matching).
    BMatching(BMatchingInstance),
    /// A weighted set system (set cover).
    SetSystem(SetSystem),
}

impl Instance {
    /// The kind tag of this instance.
    pub fn kind(&self) -> InstanceKind {
        match self {
            Instance::Graph(_) => InstanceKind::Graph,
            Instance::VertexWeighted(_) => InstanceKind::VertexWeighted,
            Instance::BMatching(_) => InstanceKind::BMatching,
            Instance::SetSystem(_) => InstanceKind::SetSystem,
        }
    }

    /// The underlying graph, when there is one.
    pub fn graph(&self) -> Option<&Graph> {
        match self {
            Instance::Graph(g) => Some(g),
            Instance::VertexWeighted(vw) => Some(&vw.graph),
            Instance::BMatching(bm) => Some(&bm.graph),
            Instance::SetSystem(_) => None,
        }
    }

    /// The paper's auto-shaped cluster regime for this instance at memory
    /// exponent `mu`: graphs play `n` vertices against `m` edge records,
    /// set systems play `n` sets against the universe (the element records
    /// Algorithm 1 distributes) — the same parameterization the experiment
    /// binaries use. This is what makes a registry dispatch fully
    /// file-driven: `(instance file, mu, seed)` determines the whole run.
    pub fn auto_config(&self, mu: f64, seed: u64) -> MrConfig {
        match self {
            Instance::Graph(g) => MrConfig::auto(g.n(), g.m().max(1), mu, seed),
            Instance::VertexWeighted(vw) => {
                MrConfig::auto(vw.graph.n(), vw.graph.m().max(1), mu, seed)
            }
            Instance::BMatching(bm) => MrConfig::auto(bm.graph.n(), bm.graph.m().max(1), mu, seed),
            Instance::SetSystem(s) => MrConfig::auto(s.n_sets(), s.universe().max(1), mu, seed),
        }
    }
}

/// Paper-derived metadata of one registry key: theorem number, round and
/// space bounds, certified approximation ratio and witness kind. The
/// bounds are the *symbolic* statements of the theorems (they depend on
/// the regime `(c, µ, ε)`), kept as display strings for dashboards and
/// `mrlr list --format json`; the module-level docs of
/// `crates/core/src/api/registry.rs` carry the full key → theorem table
/// with context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlgorithmInfo {
    /// Registry key.
    pub key: &'static str,
    /// Theorem (or appendix result) of the paper backing the bounds.
    pub theorem: &'static str,
    /// Communication-round bound.
    pub rounds: &'static str,
    /// Per-machine space bound in words.
    pub space: &'static str,
    /// Certified approximation guarantee.
    pub ratio: &'static str,
    /// Witness kind the driver's certificate carries
    /// (`cover-dual` / `stack` / `maximality` / `properness`).
    pub witness: &'static str,
    /// Backends this key supports, in `Backend::ALL` order. Every paper
    /// key runs on all five; the cluster backends (`mr`, `shard`,
    /// `dist`) are bit-identical (a cross-check against
    /// [`Registry::backends`] lives in the tests).
    pub backends: &'static [Backend],
}

/// The backend set every paper key supports (all of [`Backend::ALL`] —
/// one source of truth; this is a slice view of that array).
pub const ALL_BACKENDS: &[Backend] = &Backend::ALL;

/// One [`AlgorithmInfo`] row per registry key, sorted by key (the order
/// [`Registry::algorithms`] returns).
pub const ALGORITHM_INFO: &[AlgorithmInfo] = &[
    AlgorithmInfo {
        key: "b-matching",
        theorem: "Theorem D.3",
        rounds: "O(c/µ · log(1/ε))",
        space: "O(n^{1+µ})",
        ratio: "3 − 2/max{2,b} + 2ε",
        witness: "stack",
        backends: ALL_BACKENDS,
    },
    AlgorithmInfo {
        key: "clique",
        theorem: "Corollary B.1",
        rounds: "O(c/µ)",
        space: "O(n^{1+µ})",
        ratio: "maximal",
        witness: "maximality",
        backends: ALL_BACKENDS,
    },
    AlgorithmInfo {
        key: "edge-colouring",
        theorem: "Theorem 6.6",
        rounds: "O(1)",
        space: "O(n^{1+µ})",
        ratio: "(1+o(1))Δ colours",
        witness: "properness",
        backends: ALL_BACKENDS,
    },
    AlgorithmInfo {
        key: "matching",
        theorem: "Theorems 5.5/5.6, Appendix C",
        rounds: "O(c/µ); O(log n) at µ = 0",
        space: "O(n^{1+µ})",
        ratio: "2",
        witness: "stack",
        backends: ALL_BACKENDS,
    },
    AlgorithmInfo {
        key: "mis1",
        theorem: "Theorem 3.3",
        rounds: "O(1/µ²)",
        space: "O(n^{1+µ})",
        ratio: "maximal",
        witness: "maximality",
        backends: ALL_BACKENDS,
    },
    AlgorithmInfo {
        key: "mis2",
        theorem: "Theorem A.3",
        rounds: "O(c/µ)",
        space: "O(n^{1+µ})",
        ratio: "maximal",
        witness: "maximality",
        backends: ALL_BACKENDS,
    },
    AlgorithmInfo {
        key: "set-cover-f",
        theorem: "Theorem 2.4",
        rounds: "O((c/µ)²)",
        space: "O(f·n^{1+µ})",
        ratio: "f",
        witness: "cover-dual",
        backends: ALL_BACKENDS,
    },
    AlgorithmInfo {
        key: "set-cover-greedy",
        theorem: "Theorem 4.6",
        rounds: "O((c/µ)·(1/µ)·log(Δ)/ε)",
        space: "O(n^{1+µ})",
        ratio: "(1+ε)·H_Δ",
        witness: "cover-dual",
        backends: ALL_BACKENDS,
    },
    AlgorithmInfo {
        key: "vertex-colouring",
        theorem: "Theorem 6.4",
        rounds: "O(1)",
        space: "O(n^{1+µ})",
        ratio: "(1+o(1))Δ colours",
        witness: "properness",
        backends: ALL_BACKENDS,
    },
    AlgorithmInfo {
        key: "vertex-cover",
        theorem: "Theorem 2.4 (f = 2)",
        rounds: "O(c/µ)",
        space: "O(n^{1+µ})",
        ratio: "2",
        witness: "cover-dual",
        backends: ALL_BACKENDS,
    },
];

/// A type-erased solution returned by [`Registry`] dispatch.
#[derive(Debug, Clone, PartialEq)]
pub enum Solution {
    /// A set/vertex cover.
    Cover(CoverResult),
    /// A (b-)matching.
    Matching(MatchingResult),
    /// A vertex selection (MIS / clique).
    Selection(SelectionResult),
    /// A colouring.
    Colouring(ColouringResult),
}

impl Solution {
    /// The cover, if this is a cover solution.
    pub fn as_cover(&self) -> Option<&CoverResult> {
        match self {
            Solution::Cover(c) => Some(c),
            _ => None,
        }
    }

    /// The matching, if this is a matching solution.
    pub fn as_matching(&self) -> Option<&MatchingResult> {
        match self {
            Solution::Matching(m) => Some(m),
            _ => None,
        }
    }

    /// The selection, if this is a selection solution.
    pub fn as_selection(&self) -> Option<&SelectionResult> {
        match self {
            Solution::Selection(s) => Some(s),
            _ => None,
        }
    }

    /// The colouring, if this is a colouring solution.
    pub fn as_colouring(&self) -> Option<&ColouringResult> {
        match self {
            Solution::Colouring(c) => Some(c),
            _ => None,
        }
    }

    /// Iterations of the algorithm's outer loop, uniformly across
    /// solution families (colourings run in a constant round budget and
    /// report their group count instead).
    pub fn iterations(&self) -> usize {
        match self {
            Solution::Cover(c) => c.iterations,
            Solution::Matching(m) => m.iterations,
            Solution::Selection(s) => s.iterations,
            Solution::Colouring(c) => c.groups,
        }
    }
}

/// Typed instances that can be pulled out of an [`Instance`].
pub trait FromInstance: Sized {
    /// The kind tag this type corresponds to.
    const KIND: InstanceKind;
    /// Borrows the typed instance, if `inst` holds this kind.
    fn from_instance(inst: &Instance) -> Option<&Self>;
}

impl FromInstance for Graph {
    const KIND: InstanceKind = InstanceKind::Graph;
    fn from_instance(inst: &Instance) -> Option<&Self> {
        match inst {
            Instance::Graph(g) => Some(g),
            _ => None,
        }
    }
}

impl FromInstance for VertexWeightedGraph {
    const KIND: InstanceKind = InstanceKind::VertexWeighted;
    fn from_instance(inst: &Instance) -> Option<&Self> {
        match inst {
            Instance::VertexWeighted(vw) => Some(vw),
            _ => None,
        }
    }
}

impl FromInstance for BMatchingInstance {
    const KIND: InstanceKind = InstanceKind::BMatching;
    fn from_instance(inst: &Instance) -> Option<&Self> {
        match inst {
            Instance::BMatching(bm) => Some(bm),
            _ => None,
        }
    }
}

impl FromInstance for SetSystem {
    const KIND: InstanceKind = InstanceKind::SetSystem;
    fn from_instance(inst: &Instance) -> Option<&Self> {
        match inst {
            Instance::SetSystem(s) => Some(s),
            _ => None,
        }
    }
}

/// Typed solutions that can be erased into a [`Solution`].
pub trait IntoSolution {
    /// Wraps the typed solution.
    fn into_solution(self) -> Solution;
}

impl IntoSolution for CoverResult {
    fn into_solution(self) -> Solution {
        Solution::Cover(self)
    }
}

impl IntoSolution for MatchingResult {
    fn into_solution(self) -> Solution {
        Solution::Matching(self)
    }
}

impl IntoSolution for SelectionResult {
    fn into_solution(self) -> Solution {
        Solution::Selection(self)
    }
}

impl IntoSolution for ColouringResult {
    fn into_solution(self) -> Solution {
        Solution::Colouring(self)
    }
}

/// Object-safe view of a registered [`Driver`].
pub trait ErasedDriver: Send + Sync {
    /// Registry key of the algorithm.
    fn algorithm(&self) -> &'static str;
    /// Backend this entry runs.
    fn backend(&self) -> Backend;
    /// The instance shape this algorithm consumes.
    fn instance_kind(&self) -> InstanceKind;
    /// Dispatches [`Driver::solve`], checking the instance kind.
    fn solve(&self, instance: &Instance, cfg: &MrConfig) -> MrResult<Report<Solution>>;
}

struct Erased<D>(D);

impl<D> ErasedDriver for Erased<D>
where
    D: Driver,
    D::Instance: FromInstance,
    D::Solution: IntoSolution,
{
    fn algorithm(&self) -> &'static str {
        self.0.algorithm()
    }

    fn backend(&self) -> Backend {
        self.0.backend()
    }

    fn instance_kind(&self) -> InstanceKind {
        D::Instance::KIND
    }

    fn solve(&self, instance: &Instance, cfg: &MrConfig) -> MrResult<Report<Solution>> {
        let typed = D::Instance::from_instance(instance).ok_or_else(|| {
            MrError::BadConfig(format!(
                "algorithm '{}' expects a {} instance, got a {}",
                self.0.algorithm(),
                D::Instance::KIND,
                instance.kind()
            ))
        })?;
        Ok(self.0.solve(typed, cfg)?.map(IntoSolution::into_solution))
    }
}

/// String-keyed collection of every registered driver, for data-driven
/// dispatch. See the [module docs](crate::api) for an example.
pub struct Registry {
    entries: BTreeMap<(&'static str, Backend), Box<dyn ErasedDriver>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry {
            entries: BTreeMap::new(),
        }
    }

    /// A registry holding all eight paper algorithms (ten registry keys —
    /// MIS and colouring contribute two each) in every backend that
    /// implements them: 50 entries, five [`Backend`]s per key.
    pub fn with_defaults() -> Self {
        let mut r = Registry::new();
        for backend in Backend::ALL {
            r.register(SetCoverFDriver { backend });
            r.register(GreedySetCoverDriver::new(backend));
            r.register(VertexCoverDriver { backend });
            r.register(MatchingDriver { backend });
            r.register(BMatchingDriver { backend });
            r.register(MisDriver {
                backend,
                variant: MisVariant::Mis1,
            });
            r.register(MisDriver {
                backend,
                variant: MisVariant::Mis2,
            });
            r.register(CliqueDriver { backend });
            r.register(ColouringDriver::vertex(backend));
            r.register(ColouringDriver::edge(backend));
        }
        r
    }

    /// Registers `driver` under `(driver.algorithm(), driver.backend())`,
    /// replacing any previous entry for that key.
    pub fn register<D>(&mut self, driver: D)
    where
        D: Driver + 'static,
        D::Instance: FromInstance,
        D::Solution: IntoSolution,
    {
        self.entries.insert(
            (driver.algorithm(), driver.backend()),
            Box::new(Erased(driver)),
        );
    }

    /// The cluster ([`Backend::Mr`]) driver registered under `algorithm`.
    pub fn get(&self, algorithm: &str) -> Option<&dyn ErasedDriver> {
        self.get_backend(algorithm, Backend::Mr)
    }

    /// The driver registered under `(algorithm, backend)`.
    pub fn get_backend(&self, algorithm: &str, backend: Backend) -> Option<&dyn ErasedDriver> {
        // The map is keyed by `&'static str`; a lookup by a short-lived
        // `&str` can't borrow into the tuple key, and with ~30 entries a
        // scan is as good as a tree descent.
        self.entries
            .iter()
            .find(|((name, b), _)| *name == algorithm && *b == backend)
            .map(|(_, d)| d.as_ref())
    }

    /// Dispatches `instance` to the [`Backend::Mr`] driver of `algorithm`.
    pub fn solve(
        &self,
        algorithm: &str,
        instance: &Instance,
        cfg: &MrConfig,
    ) -> MrResult<Report<Solution>> {
        self.solve_with(algorithm, Backend::Mr, instance, cfg)
    }

    /// Dispatches every instance to every `(algorithm, cfg)` job on the
    /// [`Backend::Mr`] drivers, returning `results[instance][job]`: the
    /// plain nested loop over [`Registry::solve_with`], instances outer.
    ///
    /// Every job distributes its instance itself, once, before round one
    /// (the paper's model); nothing is shared between jobs except the
    /// process-wide executor pools every cluster resolves through
    /// `mrlr_mapreduce::executor_for`. Per-pair failures (unknown key,
    /// instance-kind mismatch, capacity exhaustion) land in that pair's
    /// slot without aborting the batch.
    pub fn solve_batch(
        &self,
        instances: &[Instance],
        jobs: &[(&str, MrConfig)],
    ) -> Vec<Vec<MrResult<Report<Solution>>>> {
        self.solve_batch_with(Backend::Mr, instances, jobs)
    }

    /// [`Registry::solve_batch`] on an explicit backend (`Mr`, `Shard`
    /// and `Dist` are the metered cluster backends and return
    /// bit-identical reports; `Seq`/`Rlr` batches skip the cluster
    /// entirely).
    pub fn solve_batch_with(
        &self,
        backend: Backend,
        instances: &[Instance],
        jobs: &[(&str, MrConfig)],
    ) -> Vec<Vec<MrResult<Report<Solution>>>> {
        instances
            .iter()
            .map(|instance| {
                jobs.iter()
                    .map(|(algorithm, cfg)| self.solve_with(algorithm, backend, instance, cfg))
                    .collect()
            })
            .collect()
    }

    /// Dispatches `instance` to the `(algorithm, backend)` driver.
    pub fn solve_with(
        &self,
        algorithm: &str,
        backend: Backend,
        instance: &Instance,
        cfg: &MrConfig,
    ) -> MrResult<Report<Solution>> {
        let driver = self.get_backend(algorithm, backend).ok_or_else(|| {
            MrError::BadConfig(format!(
                "no driver registered for algorithm '{algorithm}' on backend '{backend}'"
            ))
        })?;
        driver.solve(instance, cfg)
    }

    /// The paper-bounds row of `algorithm` (theorem, round/space bounds,
    /// ratio, witness kind), if the key is one of the ten paper keys.
    pub fn info(&self, algorithm: &str) -> Option<&'static AlgorithmInfo> {
        ALGORITHM_INFO.iter().find(|i| i.key == algorithm)
    }

    /// Distinct algorithm keys, sorted.
    pub fn algorithms(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = self.entries.keys().map(|(n, _)| *n).collect();
        names.dedup();
        names
    }

    /// Backends registered for `algorithm`, in `Seq < Rlr < Mr` order.
    pub fn backends(&self, algorithm: &str) -> Vec<Backend> {
        Backend::ALL
            .into_iter()
            .filter(|b| self.get_backend(algorithm, *b).is_some())
            .collect()
    }

    /// All registered entries, ordered by `(algorithm, backend)`.
    pub fn entries(&self) -> impl Iterator<Item = &dyn ErasedDriver> {
        self.entries.values().map(AsRef::as_ref)
    }

    /// Number of registered `(algorithm, backend)` entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::with_defaults()
    }
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Registry")
            .field("entries", &self.entries.keys().collect::<Vec<_>>())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrlr_graph::generators;

    #[test]
    fn defaults_cover_all_algorithms_and_backends() {
        let r = Registry::with_defaults();
        assert_eq!(r.len(), 50);
        let names = r.algorithms();
        for name in [
            "b-matching",
            "clique",
            "edge-colouring",
            "matching",
            "mis1",
            "mis2",
            "set-cover-f",
            "set-cover-greedy",
            "vertex-colouring",
            "vertex-cover",
        ] {
            assert!(names.contains(&name), "missing {name}");
            assert_eq!(r.backends(name), Backend::ALL.to_vec(), "{name}");
            assert!(r.get(name).is_some(), "{name} has no Mr driver");
        }
    }

    #[test]
    fn info_table_covers_exactly_the_registry_keys() {
        let r = Registry::with_defaults();
        let keys = r.algorithms();
        let info_keys: Vec<&str> = ALGORITHM_INFO.iter().map(|i| i.key).collect();
        assert_eq!(keys, info_keys, "ALGORITHM_INFO must mirror the registry");
        for key in keys {
            let info = r.info(key).unwrap();
            assert!(info.theorem.contains("eorem") || info.theorem.contains("orollary"));
            assert!(info.rounds.starts_with('O'), "{key}");
            assert!(!info.ratio.is_empty() && !info.witness.is_empty());
            // The static backends column must mirror what is registered.
            assert_eq!(info.backends, r.backends(key), "{key} backends drifted");
        }
        assert!(r.info("max-cut").is_none());
    }

    #[test]
    fn kind_mismatch_is_a_clean_error() {
        let r = Registry::with_defaults();
        let g = generators::densified(10, 0.3, 1);
        let cfg = MrConfig::auto(10, g.m().max(1), 0.3, 1);
        let err = r
            .solve("set-cover-f", &Instance::Graph(g), &cfg)
            .unwrap_err();
        assert!(matches!(err, MrError::BadConfig(_)), "{err:?}");
        assert!(err.to_string().contains("set system"), "{err}");
    }

    /// `p graph 4294967296 0`: no cluster layout numbers 2^32 vertices as
    /// `u32` rows, and every graph cluster driver says so before sizing
    /// an `O(n)` table of 16–32 GiB.
    #[test]
    fn vertex_counts_past_u32_rows_are_refused_before_any_table() {
        let r = Registry::with_defaults();
        let instance = Instance::Graph(Graph::new(1 << 32, vec![]));
        let cfg = instance.auto_config(0.25, 1);
        for key in r.algorithms() {
            if r.get(key).unwrap().instance_kind() != InstanceKind::Graph {
                continue;
            }
            let err = r
                .solve_with(key, Backend::Shard, &instance, &cfg)
                .unwrap_err();
            assert!(err.to_string().contains("u32 offsets"), "{key}: {err}");
        }
    }

    #[test]
    fn unknown_algorithm_is_a_clean_error() {
        let r = Registry::with_defaults();
        let g = generators::densified(10, 0.3, 1);
        let cfg = MrConfig::auto(10, g.m().max(1), 0.3, 1);
        let err = r.solve("max-cut", &Instance::Graph(g), &cfg).unwrap_err();
        assert!(err.to_string().contains("no driver"), "{err}");
    }

    #[test]
    fn solve_batch_covers_the_cross_product_and_isolates_failures() {
        let r = Registry::with_defaults();
        let g = generators::with_uniform_weights(&generators::densified(30, 0.4, 3), 1.0, 9.0, 3);
        let cfg = MrConfig::auto(30, g.m(), 0.3, 3);
        let instances = [Instance::Graph(g.clone()), Instance::Graph(g.unweighted())];
        let jobs = [
            ("matching", cfg),
            ("matching", cfg.with_threads(2)),
            ("set-cover-f", cfg), // kind mismatch: per-slot error
            ("no-such-algo", cfg),
        ];
        let results = r.solve_batch(&instances, &jobs);
        assert_eq!(results.len(), 2);
        for per_instance in &results {
            assert_eq!(per_instance.len(), 4);
            let seq = per_instance[0].as_ref().unwrap();
            let threaded = per_instance[1].as_ref().unwrap();
            // Thread count is wall-clock only: solutions and metrics match.
            assert_eq!(seq.solution, threaded.solution);
            assert_eq!(seq.metrics, threaded.metrics);
            assert!(per_instance[2].is_err(), "kind mismatch must error");
            assert!(per_instance[3].is_err(), "unknown key must error");
        }
    }

    /// A batch is the nested loop over `solve_with` and nothing else: for
    /// every registry key × two µ, with each job listed twice plus a
    /// two-thread twin, every slot equals that job solved on its own —
    /// solution, certificate with its witness, and the full `Metrics`.
    /// The MIS and colouring pairs distribute one partition each; both
    /// members must still reproduce their `Rlr` runs.
    #[test]
    fn solve_batch_slots_equal_standalone_solves_for_every_key() {
        let r = Registry::with_defaults();
        let g = generators::with_uniform_weights(&generators::densified(40, 0.4, 5), 1.0, 9.0, 5);
        let sys = mrlr_setsys::generators::with_uniform_weights(
            mrlr_setsys::generators::bounded_frequency(40, 600, 3, 5),
            1.0,
            8.0,
            5,
        );
        let weights = (0..g.n()).map(|v| 1.0 + (v % 7) as f64).collect();
        let caps = (0..g.n() as u32).map(|v| 1 + v % 3).collect();
        let cases: [(Instance, &[&str]); 4] = [
            (
                Instance::Graph(g.clone()),
                &[
                    "matching",
                    "mis1",
                    "mis2",
                    "clique",
                    "vertex-colouring",
                    "edge-colouring",
                ],
            ),
            (
                Instance::SetSystem(sys),
                &["set-cover-greedy", "set-cover-f"],
            ),
            (
                Instance::VertexWeighted(VertexWeightedGraph::new(g.clone(), weights)),
                &["vertex-cover"],
            ),
            (
                Instance::BMatching(BMatchingInstance::new(g, caps, 0.25)),
                &["b-matching"],
            ),
        ];
        let mut keys_seen = Vec::new();
        for (instance, keys) in cases {
            let mut jobs = Vec::new();
            for &key in keys {
                keys_seen.push(key);
                for mu in [0.3, 0.5] {
                    let cfg = instance.auto_config(mu, 5);
                    jobs.extend([(key, cfg), (key, cfg), (key, cfg.with_threads(2))]);
                }
            }
            let batch = r.solve_batch_with(Backend::Shard, std::slice::from_ref(&instance), &jobs);
            assert_eq!(batch.len(), 1);
            assert_eq!(batch[0].len(), jobs.len());
            for ((key, cfg), got) in jobs.iter().zip(&batch[0]) {
                let got = got.as_ref().unwrap();
                let plain = r.solve_with(key, Backend::Shard, &instance, cfg).unwrap();
                assert!(plain.certificate.feasible, "{key}");
                assert_eq!(got.solution, plain.solution, "{key}");
                assert_eq!(got.certificate, plain.certificate, "{key}");
                assert_eq!(got.metrics, plain.metrics, "{key}");
                if ["mis1", "mis2", "vertex-colouring", "edge-colouring"].contains(key) {
                    let rlr = r.solve_with(key, Backend::Rlr, &instance, cfg).unwrap();
                    assert_eq!(got.solution, rlr.solution, "{key} vs rlr");
                }
            }
        }
        keys_seen.sort_unstable();
        assert_eq!(keys_seen, r.algorithms(), "every registry key is covered");
    }

    /// A graph's memoized adjacency is not an input of any run: for the six
    /// graph keys × two µ, the report on a graph that has never built it
    /// equals the one on a clone that built it first — solution,
    /// certificate with its witness, and the full `Metrics`.
    #[test]
    fn reports_do_not_depend_on_whether_the_adjacency_was_built() {
        let r = Registry::with_defaults();
        let g = generators::with_uniform_weights(&generators::densified(40, 0.4, 5), 1.0, 9.0, 5);
        for key in [
            "matching",
            "mis1",
            "mis2",
            "clique",
            "vertex-colouring",
            "edge-colouring",
        ] {
            for mu in [0.3, 0.15] {
                for backend in [Backend::Shard, Backend::Rlr] {
                    // A clone of the never-used `g` is cold; each solve
                    // gets its own, since certifying warms it.
                    let cold = Instance::Graph(g.clone());
                    let forced = g.clone();
                    forced.adjacency();
                    let warm = Instance::Graph(forced);
                    let cfg = cold.auto_config(mu, 5);
                    let on_cold = r.solve_with(key, backend, &cold, &cfg).unwrap();
                    let on_warm = r.solve_with(key, backend, &warm, &cfg).unwrap();
                    let what = format!("{key} µ={mu} {backend}");
                    assert!(on_cold.certificate.feasible, "{what}");
                    assert_eq!(on_cold.solution, on_warm.solution, "{what}");
                    assert_eq!(on_cold.certificate, on_warm.certificate, "{what}");
                    assert_eq!(on_cold.metrics, on_warm.metrics, "{what}");
                }
            }
        }
    }

    #[test]
    fn auto_config_shapes_match_the_experiment_parameterization() {
        let g = generators::densified(30, 0.4, 1);
        let m = g.m();
        let from_graph = Instance::Graph(g).auto_config(0.3, 9);
        let direct = MrConfig::auto(30, m, 0.3, 9);
        assert_eq!(from_graph.machines, direct.machines);
        assert_eq!(from_graph.eta, direct.eta);
        assert_eq!(from_graph.seed, 9);

        let sys = mrlr_setsys::generators::bounded_frequency(20, 200, 3, 1);
        let from_sys = Instance::SetSystem(sys).auto_config(0.25, 3);
        let sdirect = MrConfig::auto(20, 200, 0.25, 3);
        assert_eq!(from_sys.machines, sdirect.machines);
        assert_eq!(from_sys.eta, sdirect.eta);
    }

    #[test]
    fn solve_runs_via_registry() {
        let r = Registry::with_defaults();
        let g = generators::with_uniform_weights(&generators::densified(30, 0.4, 3), 1.0, 9.0, 3);
        let cfg = MrConfig::auto(30, g.m(), 0.3, 3);
        let report = r.solve("matching", &Instance::Graph(g), &cfg).unwrap();
        assert!(report.certificate.feasible);
        assert!(report.solution.as_matching().is_some());
        assert!(report.metrics.is_some());
        assert_eq!(report.backend, Backend::Mr);
    }
}
