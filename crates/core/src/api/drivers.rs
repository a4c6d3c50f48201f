//! [`Driver`] implementations: one struct per paper algorithm, each
//! dispatching across its [`Backend`] variants.
//!
//! Per-algorithm parameters (phase granularity `α`, group sizes `n^{µ/2}`,
//! colour-group counts `κ`, sampling budgets) are derived from the
//! instance and the cluster regime exactly as the paper parameterizes
//! them, so `Rlr` and `Mr` runs of the same driver use the same coins and
//! return bit-identical solutions.

use std::time::Instant;

use mrlr_graph::Graph;
use mrlr_mapreduce::{Metrics, MrError, MrResult, RuntimeKind};
use mrlr_setsys::SetSystem;

use super::problems::{
    BMatching, BMatchingInstance, EdgeColouring, Matching, MaximalClique, Mis, SetCover,
    VertexColouring, VertexCover, VertexWeightedGraph,
};
use super::{Backend, Driver, Problem, Report};
use crate::colouring::{self, group_count};
use crate::hungry::{self, HungryScParams, MisParams};
use crate::mr::{self, MrConfig};
use crate::rlr::{self, BMatchingParams};
use crate::seq;
use crate::types::{ColouringResult, CoverResult, MatchingResult, SelectionResult};

/// Default ε of the `(1+ε) ln Δ` greedy set cover (Algorithm 3).
pub const DEFAULT_GREEDY_SC_EPS: f64 = 0.2;

/// Default ε of the b-matching reduction (Algorithm 7) used by
/// [`BMatchingInstance`] constructors that don't specify one.
pub const DEFAULT_BMATCHING_EPS: f64 = 0.25;

fn seq_err(e: String) -> MrError {
    MrError::Infeasible(e)
}

/// The cluster shape a `Mr`/`Shard`/`Dist` run uses: `Backend::Shard`
/// forces the in-process runtime ([`RuntimeKind::Shard`]),
/// `Backend::Dist` the distributed master/worker runtime
/// ([`RuntimeKind::Dist`]); `Backend::Mr` keeps the config's runtime
/// (`MRLR_BACKEND` by default, else `Shard`). This is the single
/// runtime-aware entry every cluster driver dispatches through — the
/// run itself is the same `mr::*::run` in all cases, so
/// Rlr/Mr/Shard/Dist reports (witnesses included) are bit-identical.
pub(crate) fn cluster_cfg(backend: Backend, cfg: &MrConfig) -> MrConfig {
    match backend {
        Backend::Shard => cfg.with_runtime(RuntimeKind::Shard),
        Backend::Dist => cfg.with_runtime(RuntimeKind::Dist),
        _ => *cfg,
    }
}

/// [`cluster_cfg`] for a graph driver. Every cluster layout numbers a
/// graph's vertices as `u32` rows, so a vertex count past that is refused
/// here, before the run or the validator sizes an `O(n)` table.
fn graph_cluster_cfg(backend: Backend, g: &Graph, cfg: &MrConfig) -> MrResult<MrConfig> {
    mr::check_rows(g.n())?;
    Ok(cluster_cfg(backend, cfg))
}

/// Assembles a [`Report`], running the problem validator on the solution.
fn report<P: Problem>(
    algorithm: &'static str,
    backend: Backend,
    instance: &P::Instance,
    solution: P::Solution,
    metrics: Option<Metrics>,
    started: Instant,
) -> Report<P::Solution> {
    let certificate = P::certify(instance, &solution).into();
    Report {
        algorithm,
        backend,
        solution,
        certificate,
        metrics,
        wall: started.elapsed(),
    }
}

/// Algorithm 1 / Theorem 2.4: `f`-approximate weighted set cover.
#[derive(Debug, Clone, Copy)]
pub struct SetCoverFDriver {
    /// Backend to run.
    pub backend: Backend,
}

impl Driver for SetCoverFDriver {
    type Instance = SetSystem;
    type Solution = CoverResult;

    fn algorithm(&self) -> &'static str {
        "set-cover-f"
    }

    fn backend(&self) -> Backend {
        self.backend
    }

    fn solve(&self, sys: &SetSystem, cfg: &MrConfig) -> MrResult<Report<CoverResult>> {
        let t = Instant::now();
        let (sol, metrics) = match self.backend {
            Backend::Seq => (seq::local_ratio_set_cover(sys).map_err(seq_err)?, None),
            Backend::Rlr => (rlr::approx_set_cover_f(sys, cfg.eta, cfg.seed)?, None),
            Backend::Mr | Backend::Shard | Backend::Dist => {
                let (s, m) = mr::set_cover::run(sys, cluster_cfg(self.backend, cfg))?;
                (s, Some(m))
            }
        };
        Ok(report::<SetCover>(
            self.algorithm(),
            self.backend,
            sys,
            sol,
            metrics,
            t,
        ))
    }
}

/// Algorithm 3 / Theorem 4.6: `(1+ε) ln Δ` greedy set cover, at
/// `ε =` [`DEFAULT_GREEDY_SC_EPS`] (approximation `(1+ε) H_Δ`).
#[derive(Debug, Clone, Copy)]
pub struct GreedySetCoverDriver {
    /// Backend to run.
    pub backend: Backend,
}

impl GreedySetCoverDriver {
    /// Driver on `backend`.
    pub fn new(backend: Backend) -> Self {
        GreedySetCoverDriver { backend }
    }
}

impl Driver for GreedySetCoverDriver {
    type Instance = SetSystem;
    type Solution = CoverResult;

    fn algorithm(&self) -> &'static str {
        "set-cover-greedy"
    }

    fn backend(&self) -> Backend {
        self.backend
    }

    fn solve(&self, sys: &SetSystem, cfg: &MrConfig) -> MrResult<Report<CoverResult>> {
        let t = Instant::now();
        let params = HungryScParams::new(sys.universe(), cfg.mu, DEFAULT_GREEDY_SC_EPS, cfg.seed);
        let (sol, metrics) = match self.backend {
            Backend::Seq => (seq::greedy_set_cover(sys).map_err(seq_err)?, None),
            Backend::Rlr => {
                let (s, _trace) = hungry::hungry_set_cover(sys, params)?;
                (s, None)
            }
            Backend::Mr | Backend::Shard | Backend::Dist => {
                let (s, _trace, m) =
                    mr::set_cover_greedy::run(sys, params, cluster_cfg(self.backend, cfg))?;
                (s, Some(m))
            }
        };
        Ok(report::<SetCover>(
            self.algorithm(),
            self.backend,
            sys,
            sol,
            metrics,
            t,
        ))
    }
}

/// Theorem 2.4's `f = 2` fast path: 2-approximate weighted vertex cover.
#[derive(Debug, Clone, Copy)]
pub struct VertexCoverDriver {
    /// Backend to run.
    pub backend: Backend,
}

impl Driver for VertexCoverDriver {
    type Instance = VertexWeightedGraph;
    type Solution = CoverResult;

    fn algorithm(&self) -> &'static str {
        "vertex-cover"
    }

    fn backend(&self) -> Backend {
        self.backend
    }

    fn solve(&self, inst: &VertexWeightedGraph, cfg: &MrConfig) -> MrResult<Report<CoverResult>> {
        let t = Instant::now();
        let (sol, metrics) = match self.backend {
            Backend::Seq => {
                let sys = inst.as_set_system();
                (seq::local_ratio_set_cover(&sys).map_err(seq_err)?, None)
            }
            Backend::Rlr => {
                let sys = inst.as_set_system();
                (rlr::approx_set_cover_f(&sys, cfg.eta, cfg.seed)?, None)
            }
            Backend::Mr | Backend::Shard | Backend::Dist => {
                let (s, m) = mr::vertex_cover::run(
                    &inst.graph,
                    &inst.weights,
                    cluster_cfg(self.backend, cfg),
                )?;
                (s, Some(m))
            }
        };
        Ok(report::<VertexCover>(
            self.algorithm(),
            self.backend,
            inst,
            sol,
            metrics,
            t,
        ))
    }
}

/// Algorithm 4 / Theorem 5.6 (and Appendix C at `η = n`): 2-approximate
/// maximum weight matching.
#[derive(Debug, Clone, Copy)]
pub struct MatchingDriver {
    /// Backend to run.
    pub backend: Backend,
}

impl Driver for MatchingDriver {
    type Instance = Graph;
    type Solution = MatchingResult;

    fn algorithm(&self) -> &'static str {
        "matching"
    }

    fn backend(&self) -> Backend {
        self.backend
    }

    fn solve(&self, g: &Graph, cfg: &MrConfig) -> MrResult<Report<MatchingResult>> {
        let t = Instant::now();
        let (sol, metrics) = match self.backend {
            Backend::Seq => (seq::local_ratio_matching(g), None),
            Backend::Rlr => (rlr::approx_max_matching(g, cfg.eta, cfg.seed)?, None),
            Backend::Mr | Backend::Shard | Backend::Dist => {
                let (s, m) = mr::matching::run(g, graph_cluster_cfg(self.backend, g, cfg)?)?;
                (s, Some(m))
            }
        };
        Ok(report::<Matching>(
            self.algorithm(),
            self.backend,
            g,
            sol,
            metrics,
            t,
        ))
    }
}

/// Algorithm 7 / Theorem D.3: `(3 − 2/b + 2ε)`-approximate maximum weight
/// b-matching.
#[derive(Debug, Clone, Copy)]
pub struct BMatchingDriver {
    /// Backend to run.
    pub backend: Backend,
}

impl BMatchingDriver {
    /// The paper's parameters for `inst` under regime `cfg`.
    fn params(inst: &BMatchingInstance, cfg: &MrConfig) -> BMatchingParams {
        BMatchingParams {
            eps: inst.eps,
            n_mu: (inst.graph.n().max(2) as f64).powf(cfg.mu).max(1.0),
            eta: cfg.eta,
            seed: cfg.seed,
        }
    }
}

impl Driver for BMatchingDriver {
    type Instance = BMatchingInstance;
    type Solution = MatchingResult;

    fn algorithm(&self) -> &'static str {
        "b-matching"
    }

    fn backend(&self) -> Backend {
        self.backend
    }

    fn solve(&self, inst: &BMatchingInstance, cfg: &MrConfig) -> MrResult<Report<MatchingResult>> {
        let t = Instant::now();
        let (sol, metrics) = match self.backend {
            Backend::Seq => (
                seq::local_ratio_b_matching(&inst.graph, &inst.b, inst.eps),
                None,
            ),
            Backend::Rlr => (
                rlr::approx_b_matching(&inst.graph, &inst.b, Self::params(inst, cfg))?,
                None,
            ),
            Backend::Mr | Backend::Shard | Backend::Dist => {
                let (s, m) = mr::bmatching::run(
                    &inst.graph,
                    &inst.b,
                    Self::params(inst, cfg),
                    cluster_cfg(self.backend, cfg),
                )?;
                (s, Some(m))
            }
        };
        Ok(report::<BMatching>(
            self.algorithm(),
            self.backend,
            inst,
            sol,
            metrics,
            t,
        ))
    }
}

/// Which hungry-greedy MIS algorithm a [`MisDriver`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MisVariant {
    /// Algorithm 2 (`MIS1`): `O(1/µ²)` rounds.
    Mis1,
    /// Algorithm 6 (`MIS2`): `O(c/µ)` rounds.
    Mis2,
}

/// Algorithms 2 and 6 / Theorems 3.3 and A.3: maximal independent set.
#[derive(Debug, Clone, Copy)]
pub struct MisDriver {
    /// Backend to run.
    pub backend: Backend,
    /// Which MIS algorithm.
    pub variant: MisVariant,
}

impl MisDriver {
    /// The paper's parameters for an `n`-vertex graph under regime `cfg`.
    fn params(&self, n: usize, cfg: &MrConfig) -> MisParams {
        match self.variant {
            MisVariant::Mis1 => MisParams::mis1(n, cfg.mu, cfg.seed),
            MisVariant::Mis2 => MisParams::mis2(n, cfg.mu, cfg.seed),
        }
    }
}

impl Driver for MisDriver {
    type Instance = Graph;
    type Solution = SelectionResult;

    fn algorithm(&self) -> &'static str {
        match self.variant {
            MisVariant::Mis1 => "mis1",
            MisVariant::Mis2 => "mis2",
        }
    }

    fn backend(&self) -> Backend {
        self.backend
    }

    fn solve(&self, g: &Graph, cfg: &MrConfig) -> MrResult<Report<SelectionResult>> {
        let t = Instant::now();
        let params = self.params(g.n(), cfg);
        let (sol, metrics) = match (self.backend, self.variant) {
            (Backend::Seq, _) => (seq::greedy_mis(g), None),
            (Backend::Rlr, MisVariant::Mis1) => (hungry::mis_simple(g, params)?, None),
            (Backend::Rlr, MisVariant::Mis2) => (hungry::mis_fast(g, params)?, None),
            (Backend::Mr | Backend::Shard | Backend::Dist, MisVariant::Mis1) => {
                let (s, m) =
                    mr::mis::run_simple(g, params, graph_cluster_cfg(self.backend, g, cfg)?)?;
                (s, Some(m))
            }
            (Backend::Mr | Backend::Shard | Backend::Dist, MisVariant::Mis2) => {
                let (s, m) =
                    mr::mis::run_fast(g, params, graph_cluster_cfg(self.backend, g, cfg)?)?;
                (s, Some(m))
            }
        };
        Ok(report::<Mis>(
            self.algorithm(),
            self.backend,
            g,
            sol,
            metrics,
            t,
        ))
    }
}

/// Appendix B / Corollary B.1: maximal clique via hungry greedy on the
/// complement degrees.
#[derive(Debug, Clone, Copy)]
pub struct CliqueDriver {
    /// Backend to run.
    pub backend: Backend,
}

impl Driver for CliqueDriver {
    type Instance = Graph;
    type Solution = SelectionResult;

    fn algorithm(&self) -> &'static str {
        "clique"
    }

    fn backend(&self) -> Backend {
        self.backend
    }

    fn solve(&self, g: &Graph, cfg: &MrConfig) -> MrResult<Report<SelectionResult>> {
        let t = Instant::now();
        let params = MisParams::mis2(g.n(), cfg.mu, cfg.seed);
        let (sol, metrics) = match self.backend {
            Backend::Seq => (seq::greedy_maximal_clique(g), None),
            Backend::Rlr => (hungry::maximal_clique(g, params)?, None),
            Backend::Mr | Backend::Shard | Backend::Dist => {
                let (s, m) = mr::clique::run(g, params, graph_cluster_cfg(self.backend, g, cfg)?)?;
                (s, Some(m))
            }
        };
        Ok(report::<MaximalClique>(
            self.algorithm(),
            self.backend,
            g,
            sol,
            metrics,
            t,
        ))
    }
}

/// Algorithm 5 / Theorems 6.4 and 6.6: vertex or edge colouring with
/// `(1+o(1))Δ` colours in `O(1)` rounds, over the paper's [`group_count`]
/// groups and under Lemma 6.2's [`ColouringDriver::paper_edge_limit`].
#[derive(Debug, Clone, Copy)]
pub struct ColouringDriver {
    /// Backend to run.
    pub backend: Backend,
    /// `false` = vertex colouring (Algorithm 5), `true` = edge colouring
    /// (Remark 6.5, on the line graph's groups).
    pub edges: bool,
}

impl ColouringDriver {
    /// Vertex-colouring driver.
    pub fn vertex(backend: Backend) -> Self {
        ColouringDriver {
            backend,
            edges: false,
        }
    }

    /// Edge-colouring driver.
    pub fn edge(backend: Backend) -> Self {
        ColouringDriver {
            backend,
            edges: true,
        }
    }

    /// The Lemma 6.2 budget for an `n`-vertex graph at exponent `µ`: runs
    /// that would exceed the memory bound the theorems assume fail loudly
    /// instead of reporting quietly.
    pub fn paper_edge_limit(n: usize, mu: f64) -> usize {
        (13.0 * (n.max(2) as f64).powf(1.0 + mu)).ceil() as usize
    }
}

impl Driver for ColouringDriver {
    type Instance = Graph;
    type Solution = ColouringResult;

    fn algorithm(&self) -> &'static str {
        if self.edges {
            "edge-colouring"
        } else {
            "vertex-colouring"
        }
    }

    fn backend(&self) -> Backend {
        self.backend
    }

    fn solve(&self, g: &Graph, cfg: &MrConfig) -> MrResult<Report<ColouringResult>> {
        let t = Instant::now();
        let kappa = group_count(g.n().max(2), g.m().max(1), cfg.mu).max(1);
        let limit = Self::paper_edge_limit(g.n(), cfg.mu);
        let (sol, metrics) = match (self.backend, self.edges) {
            (Backend::Seq, false) => (seq::greedy_colouring(g), None),
            (Backend::Seq, true) => (seq::misra_gries_edge_colouring(g), None),
            (Backend::Rlr, false) => (
                colouring::vertex_colouring(g, kappa, limit, cfg.seed)?,
                None,
            ),
            (Backend::Rlr, true) => (colouring::edge_colouring(g, kappa, limit, cfg.seed)?, None),
            (Backend::Mr | Backend::Shard | Backend::Dist, false) => {
                let (s, m) = mr::colouring::run_vertex(
                    g,
                    kappa,
                    limit,
                    graph_cluster_cfg(self.backend, g, cfg)?,
                )?;
                (s, Some(m))
            }
            (Backend::Mr | Backend::Shard | Backend::Dist, true) => {
                let (s, m) = mr::colouring::run_edge(
                    g,
                    kappa,
                    limit,
                    graph_cluster_cfg(self.backend, g, cfg)?,
                )?;
                (s, Some(m))
            }
        };
        let problem_report = if self.edges {
            report::<EdgeColouring>(self.algorithm(), self.backend, g, sol, metrics, t)
        } else {
            report::<VertexColouring>(self.algorithm(), self.backend, g, sol, metrics, t)
        };
        Ok(problem_report)
    }
}
