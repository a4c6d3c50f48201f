//! The one solve dispatch behind [`Registry`](super::Registry): a match
//! over `(algorithm, instance)` that runs the chosen [`Backend`] and
//! certifies the solution.
//!
//! Per-algorithm parameters (phase granularity `α`, group sizes `n^{µ/2}`,
//! colour-group counts `κ`, sampling budgets) are derived from the
//! instance and the cluster regime exactly as the paper parameterizes
//! them. Every backend but `Seq` runs the key's one cluster driver
//! (`mr::*`) on the shape [`cluster_cfg`] gives it, so `Rlr`, `Mr`,
//! `Shard` and `Dist` runs of the same key use the same coins and return
//! bit-identical solutions.

use std::time::Instant;

use mrlr_graph::Graph;
use mrlr_mapreduce::{Metrics, MrError, MrResult, RuntimeKind};

use super::problems::{
    BMatching, EdgeColouring, Matching, MaximalClique, Mis, SetCover, VertexColouring, VertexCover,
};
use super::registry::ALGORITHM_INFO;
use super::{Backend, Instance, Problem, Report, Solution};
use crate::colouring::group_count;
use crate::hungry::{HungryScParams, MisParams};
use crate::mr::{self, MrConfig};
use crate::rlr::BMatchingParams;
use crate::seq;
use crate::types::MatchingResult;

/// Default ε of the `(1+ε) ln Δ` greedy set cover (Algorithm 3).
pub const DEFAULT_GREEDY_SC_EPS: f64 = 0.2;

/// Default ε of the b-matching reduction (Algorithm 7). A
/// [`BMatchingInstance`](super::BMatchingInstance) always carries its own
/// ε; this is the one the workload generators (`mrlr gen`, whose
/// `--eps` overrides it) give the instances they build.
pub const DEFAULT_BMATCHING_EPS: f64 = 0.25;

/// The Lemma 6.2 budget for an `n`-vertex graph at exponent `µ`: colouring
/// runs that would exceed the memory bound the theorems assume fail loudly
/// instead of reporting quietly.
pub fn paper_edge_limit(n: usize, mu: f64) -> usize {
    (13.0 * (n.max(2) as f64).powf(1.0 + mu)).ceil() as usize
}

fn seq_err(e: String) -> MrError {
    MrError::Infeasible(e)
}

/// The cluster shape a backend runs the key's driver on. `Backend::Rlr`
/// is one machine on the in-process runtime whose capacity is recorded
/// rather than enforced, so it succeeds wherever the algorithm does, even
/// where the model's capacities refuse `Shard`; [`report`] withholds its
/// [`Metrics`]. `Backend::Shard` forces the in-process runtime
/// ([`RuntimeKind::Shard`]), `Backend::Dist` the distributed
/// master/worker runtime ([`RuntimeKind::Dist`]), and `Backend::Mr` keeps
/// the config's runtime (`MRLR_BACKEND` by default, else `Shard`). The
/// run itself is the same `mr::*::run` in all cases, and a driver's
/// output does not depend on its machine count, so Rlr/Mr/Shard/Dist
/// solutions are bit-identical.
fn cluster_cfg(backend: Backend, cfg: &MrConfig) -> MrConfig {
    match backend {
        Backend::Rlr => cfg
            .with_machines(1)
            .with_runtime(RuntimeKind::Shard)
            .recording(),
        Backend::Shard => cfg.with_runtime(RuntimeKind::Shard),
        Backend::Dist => cfg.with_runtime(RuntimeKind::Dist),
        Backend::Mr | Backend::Seq => *cfg,
    }
}

/// [`cluster_cfg`] for a graph key. Every cluster layout numbers a
/// graph's vertices as `u32` rows, so a vertex count past that is refused
/// here, before the run or the validator sizes an `O(n)` table.
fn graph_cluster_cfg(backend: Backend, g: &Graph, cfg: &MrConfig) -> MrResult<MrConfig> {
    mr::check_rows(g.n())?;
    Ok(cluster_cfg(backend, cfg))
}

/// Assembles a [`Report`], running the problem validator on the solution.
/// An `Rlr` run's metrics describe an unmetered machine, so they are
/// dropped.
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
        metrics: metrics.filter(|_| backend != Backend::Rlr),
        wall: started.elapsed(),
    }
}

/// Algorithm 4 / Theorem 5.6 (and Appendix C at `η = n`): 2-approximate
/// maximum weight matching. Typed, for [`super::solve_matching_stream`].
pub(crate) fn matching(
    backend: Backend,
    g: &Graph,
    cfg: &MrConfig,
) -> MrResult<Report<MatchingResult>> {
    let t = Instant::now();
    let (sol, metrics) = match backend {
        Backend::Seq => (seq::local_ratio_matching(g), None),
        _ => {
            let (s, m) = mr::matching::run(g, graph_cluster_cfg(backend, g, cfg)?)?;
            (s, Some(m))
        }
    };
    Ok(report::<Matching>("matching", backend, g, sol, metrics, t))
}

/// Runs `algorithm` on `backend`. An unknown key fails first, then an
/// instance of the wrong kind, then the key's own checks.
pub(crate) fn solve(
    algorithm: &str,
    backend: Backend,
    instance: &Instance,
    cfg: &MrConfig,
) -> MrResult<Report<Solution>> {
    let info = ALGORITHM_INFO
        .iter()
        .find(|i| i.key == algorithm)
        .ok_or_else(|| {
            MrError::BadConfig(format!(
                "no driver registered for algorithm '{algorithm}' on backend '{backend}'"
            ))
        })?;
    let key = info.key;
    let t = Instant::now();
    match (key, instance) {
        // Algorithm 1 / Theorem 2.4: `f`-approximate weighted set cover.
        ("set-cover-f", Instance::SetSystem(sys)) => {
            let (sol, metrics) = match backend {
                Backend::Seq => (seq::local_ratio_set_cover(sys).map_err(seq_err)?, None),
                _ => {
                    let (s, m) = mr::set_cover::run(sys, cluster_cfg(backend, cfg))?;
                    (s, Some(m))
                }
            };
            Ok(report::<SetCover>(key, backend, sys, sol, metrics, t).map(Solution::Cover))
        }
        // Algorithm 3 / Theorem 4.6: `(1+ε) ln Δ` greedy set cover at
        // `ε =` DEFAULT_GREEDY_SC_EPS (approximation `(1+ε) H_Δ`).
        ("set-cover-greedy", Instance::SetSystem(sys)) => {
            let params =
                HungryScParams::new(sys.universe(), cfg.mu, DEFAULT_GREEDY_SC_EPS, cfg.seed);
            let (sol, metrics) = match backend {
                Backend::Seq => (seq::greedy_set_cover(sys).map_err(seq_err)?, None),
                _ => {
                    let (s, _trace, m) =
                        mr::set_cover_greedy::run(sys, params, cluster_cfg(backend, cfg))?;
                    (s, Some(m))
                }
            };
            Ok(report::<SetCover>(key, backend, sys, sol, metrics, t).map(Solution::Cover))
        }
        // Theorem 2.4's `f = 2` fast path: 2-approximate weighted vertex cover.
        ("vertex-cover", Instance::VertexWeighted(inst)) => {
            let (sol, metrics) = match backend {
                Backend::Seq => {
                    let sys = inst.as_set_system();
                    (seq::local_ratio_set_cover(&sys).map_err(seq_err)?, None)
                }
                _ => {
                    let (s, m) = mr::vertex_cover::run(
                        &inst.graph,
                        &inst.weights,
                        cluster_cfg(backend, cfg),
                    )?;
                    (s, Some(m))
                }
            };
            Ok(report::<VertexCover>(key, backend, inst, sol, metrics, t).map(Solution::Cover))
        }
        ("matching", Instance::Graph(g)) => Ok(matching(backend, g, cfg)?.map(Solution::Matching)),
        // Algorithm 7 / Theorem D.3: `(3 − 2/b + 2ε)`-approximate maximum
        // weight b-matching.
        ("b-matching", Instance::BMatching(inst)) => {
            let params = BMatchingParams {
                eps: inst.eps,
                n_mu: (inst.graph.n().max(2) as f64).powf(cfg.mu).max(1.0),
                eta: cfg.eta,
                seed: cfg.seed,
            };
            let (sol, metrics) = match backend {
                Backend::Seq => (
                    seq::local_ratio_b_matching(&inst.graph, &inst.b, inst.eps),
                    None,
                ),
                _ => {
                    let (s, m) = mr::bmatching::run(
                        &inst.graph,
                        &inst.b,
                        params,
                        cluster_cfg(backend, cfg),
                    )?;
                    (s, Some(m))
                }
            };
            Ok(report::<BMatching>(key, backend, inst, sol, metrics, t).map(Solution::Matching))
        }
        // Algorithm 2 (`MIS1`) / Theorem 3.3: `O(1/µ²)` rounds.
        ("mis1", Instance::Graph(g)) => {
            let params = MisParams::mis1(g.n(), cfg.mu, cfg.seed);
            let (sol, metrics) = match backend {
                Backend::Seq => (seq::greedy_mis(g), None),
                _ => {
                    let (s, m) =
                        mr::mis::run_simple(g, params, graph_cluster_cfg(backend, g, cfg)?)?;
                    (s, Some(m))
                }
            };
            Ok(report::<Mis>(key, backend, g, sol, metrics, t).map(Solution::Selection))
        }
        // Algorithm 6 (`MIS2`) / Theorem A.3: `O(c/µ)` rounds.
        ("mis2", Instance::Graph(g)) => {
            let params = MisParams::mis2(g.n(), cfg.mu, cfg.seed);
            let (sol, metrics) = match backend {
                Backend::Seq => (seq::greedy_mis(g), None),
                _ => {
                    let (s, m) = mr::mis::run_fast(g, params, graph_cluster_cfg(backend, g, cfg)?)?;
                    (s, Some(m))
                }
            };
            Ok(report::<Mis>(key, backend, g, sol, metrics, t).map(Solution::Selection))
        }
        // Appendix B / Corollary B.1: maximal clique via hungry greedy on
        // the complement degrees.
        ("clique", Instance::Graph(g)) => {
            let params = MisParams::mis2(g.n(), cfg.mu, cfg.seed);
            let (sol, metrics) = match backend {
                Backend::Seq => (seq::greedy_maximal_clique(g), None),
                _ => {
                    let (s, m) = mr::clique::run(g, params, graph_cluster_cfg(backend, g, cfg)?)?;
                    (s, Some(m))
                }
            };
            Ok(report::<MaximalClique>(key, backend, g, sol, metrics, t).map(Solution::Selection))
        }
        // Algorithm 5 / Theorem 6.4: vertex colouring with `(1+o(1))Δ`
        // colours in `O(1)` rounds, over the paper's `group_count` groups
        // and under Lemma 6.2's `paper_edge_limit`.
        ("vertex-colouring", Instance::Graph(g)) => {
            let kappa = group_count(g.n().max(2), g.m().max(1), cfg.mu).max(1);
            let limit = paper_edge_limit(g.n(), cfg.mu);
            let (sol, metrics) = match backend {
                Backend::Seq => (seq::greedy_colouring(g), None),
                _ => {
                    let gcfg = graph_cluster_cfg(backend, g, cfg)?;
                    let (s, m) = mr::colouring::run_vertex(g, kappa, limit, gcfg)?;
                    (s, Some(m))
                }
            };
            Ok(
                report::<VertexColouring>(key, backend, g, sol, metrics, t)
                    .map(Solution::Colouring),
            )
        }
        // Remark 6.5 / Theorem 6.6: edge colouring, Algorithm 5 on the
        // line graph's groups.
        ("edge-colouring", Instance::Graph(g)) => {
            let kappa = group_count(g.n().max(2), g.m().max(1), cfg.mu).max(1);
            let limit = paper_edge_limit(g.n(), cfg.mu);
            let (sol, metrics) = match backend {
                Backend::Seq => (seq::misra_gries_edge_colouring(g), None),
                _ => {
                    let gcfg = graph_cluster_cfg(backend, g, cfg)?;
                    let (s, m) = mr::colouring::run_edge(g, kappa, limit, gcfg)?;
                    (s, Some(m))
                }
            };
            Ok(report::<EdgeColouring>(key, backend, g, sol, metrics, t).map(Solution::Colouring))
        }
        _ => Err(MrError::BadConfig(format!(
            "algorithm '{key}' expects a {} instance, got a {}",
            info.instance,
            instance.kind()
        ))),
    }
}
