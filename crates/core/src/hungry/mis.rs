//! Algorithms 2 and 6: hungry-greedy maximal independent set.
//!
//! The hungry-greedy idea (Section 3): repeatedly sample groups of *heavy*
//! vertices — not to maximize anything, but because adding one heavy vertex
//! to `I` disqualifies ≥ `n^{1-iα}` others, shrinking the instance
//! geometrically. Algorithm 2 (`MIS1`) runs `1/α` phases, each reducing the
//! maximum alive degree by `n^α`, in `O(1/µ²)` rounds total. Algorithm 6
//! (`MIS2`) handles all degree classes simultaneously and terminates once
//! the alive edge count drops below `η = n^{1+µ}` — `O(c/µ)` rounds
//! (Theorem A.3).
//!
//! Group sampling uses one hash-derived group choice per heavy vertex with
//! the same expected group size `n^{µ/2}` as the paper's draws — this
//! keeps sampling machine-local.
//!
//! The loops themselves are [`crate::mr::mis::run_simple`] and
//! [`crate::mr::mis::run_fast`]; this module keeps their parameters,
//! the group coin and the degree classes, which `clique` and
//! `set-cover-greedy` read too.

use mrlr_mapreduce::rng::DetRng;

/// Tag mixed into the MIS sampling RNG.
pub const MIS_RNG_TAG: u64 = 0x4d49_5331;

/// Parameters of the hungry-greedy MIS algorithms.
#[derive(Debug, Clone, Copy)]
pub struct MisParams {
    /// Phase granularity `α` (`µ/2` for Algorithm 2, `µ/8` for
    /// Algorithm 6).
    pub alpha: f64,
    /// Expected group size (the paper's `n^{µ/2}`).
    pub group_size: usize,
    /// Termination budget: Algorithm 2 stops phasing once the degree
    /// threshold is ≤ `final_degree` (the paper's `n^µ`); Algorithm 6 stops
    /// once alive edges < `eta` (`n^{1+µ}`). Both then finish centrally.
    pub eta: usize,
    /// Sampling seed.
    pub seed: u64,
}

impl MisParams {
    /// The paper's parameterization for Algorithm 2 on `n` vertices with
    /// memory exponent `µ = mu`.
    pub fn mis1(n: usize, mu: f64, seed: u64) -> Self {
        let nf = n.max(2) as f64;
        MisParams {
            alpha: mu / 2.0,
            group_size: nf.powf(mu / 2.0).ceil() as usize,
            eta: nf.powf(1.0 + mu).ceil() as usize,
            seed,
        }
    }

    /// The paper's parameterization for Algorithm 6 (Appendix A).
    pub fn mis2(n: usize, mu: f64, seed: u64) -> Self {
        let nf = n.max(2) as f64;
        MisParams {
            alpha: mu / 8.0,
            group_size: nf.powf(mu / 2.0).ceil() as usize,
            eta: nf.powf(1.0 + mu).ceil() as usize,
            seed,
        }
    }
}

/// Per-entity group choice: joins one of `groups` groups with probability
/// `min(1, groups·group_size/population)`, or `None`. Deterministic per
/// `(seed, tags..., entity)`.
pub(crate) fn group_choice(
    seed: u64,
    tags: impl IntoIterator<Item = u64>,
    entity: u64,
    groups: usize,
    group_size: usize,
    population: usize,
) -> Option<usize> {
    if population == 0 || groups == 0 {
        return None;
    }
    // Called once per qualifying record per round: the tag list lives on
    // the stack (callers pass at most four context tags).
    let mut tagv = [0u64; 8];
    let mut len = 0;
    for t in tags.into_iter().chain([entity]) {
        tagv[len] = t;
        len += 1;
    }
    let mut rng = DetRng::derive(seed, &tagv[..len]);
    let p = ((groups * group_size) as f64 / population as f64).min(1.0);
    if rng.f64() < p {
        Some(rng.range_usize(groups))
    } else {
        None
    }
}

/// Class index `i ∈ [1, num_classes]` with `d ∈ [n^{1-iα}, n^{1-(i-1)α})`.
/// A small epsilon keeps exact boundary degrees (`d = n^{1-iα}`) in their
/// intended class despite floating-point log rounding.
pub(crate) fn degree_class(d: usize, nf: f64, alpha: f64, num_classes: usize) -> usize {
    degree_class_ln(d, nf.ln(), alpha, num_classes)
}

/// [`degree_class`] with `ln n` hoisted out of the per-record scan.
pub(crate) fn degree_class_ln(d: usize, ln_nf: f64, alpha: f64, num_classes: usize) -> usize {
    debug_assert!(d >= 1);
    let x = (1.0 - (d as f64).ln() / ln_nf) / alpha;
    ((x - 1e-9).ceil() as isize).clamp(1, num_classes as isize) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mr::{mis, one_machine};
    use crate::types::SelectionResult;
    use crate::verify::is_maximal_independent_set;
    use mrlr_graph::generators::{complete, densified, gnm, star};
    use mrlr_graph::Graph;
    use mrlr_mapreduce::MrResult;

    /// Algorithm 2 (`MIS1`), as the `Rlr` backend runs it.
    fn mis_simple(g: &Graph, params: MisParams) -> MrResult<SelectionResult> {
        mis::run_simple(g, params, one_machine(params.eta, params.seed)).map(|(r, _)| r)
    }

    /// Algorithm 6 (`MIS2`), as the `Rlr` backend runs it.
    fn mis_fast(g: &Graph, params: MisParams) -> MrResult<SelectionResult> {
        mis::run_fast(g, params, one_machine(params.eta, params.seed)).map(|(r, _)| r)
    }

    #[test]
    fn mis1_maximal_on_random_graphs() {
        for seed in 0..5 {
            let g = densified(80, 0.4, seed);
            let r = mis_simple(&g, MisParams::mis1(g.n(), 0.3, seed)).unwrap();
            assert!(is_maximal_independent_set(&g, &r.vertices), "seed {seed}");
        }
    }

    #[test]
    fn mis2_maximal_on_random_graphs() {
        for seed in 0..5 {
            let g = densified(80, 0.4, seed);
            let r = mis_fast(&g, MisParams::mis2(g.n(), 0.3, seed)).unwrap();
            assert!(is_maximal_independent_set(&g, &r.vertices), "seed {seed}");
        }
    }

    #[test]
    fn complete_graph_yields_single_vertex() {
        let g = complete(20);
        let r = mis_fast(&g, MisParams::mis2(20, 0.4, 1)).unwrap();
        assert_eq!(r.vertices.len(), 1);
    }

    #[test]
    fn star_takes_leaves_or_centre() {
        let g = star(30);
        let r = mis_simple(&g, MisParams::mis1(30, 0.4, 2)).unwrap();
        assert!(is_maximal_independent_set(&g, &r.vertices));
        assert!(r.vertices.len() == 1 || r.vertices.len() == 29);
    }

    #[test]
    fn deterministic() {
        let g = gnm(60, 400, 3);
        let a = mis_fast(&g, MisParams::mis2(60, 0.3, 7)).unwrap();
        let b = mis_fast(&g, MisParams::mis2(60, 0.3, 7)).unwrap();
        assert_eq!(a.vertices, b.vertices);
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn empty_and_edgeless() {
        let r = mis_simple(&Graph::new(0, vec![]), MisParams::mis1(0, 0.3, 1)).unwrap();
        assert!(r.vertices.is_empty());
        let g = Graph::new(5, vec![]);
        let r = mis_fast(&g, MisParams::mis2(5, 0.3, 1)).unwrap();
        assert_eq!(r.vertices.len(), 5);
    }

    #[test]
    fn degree_class_boundaries() {
        let nf = 10_000f64; // ln n = 9.21
        let alpha = 0.25;
        // d = n => class ... x = (1-1)/0.25 = 0 -> clamp 1
        assert_eq!(degree_class(10_000, nf, alpha, 4), 1);
        // d = n^0.75 => x = (1-0.75)/0.25 = 1 (boundary, lands in class 1)
        assert_eq!(degree_class(1_000, nf, alpha, 4), 1);
        // d just below n^0.75 → class 2
        assert_eq!(degree_class(999, nf, alpha, 4), 2);
        // d = 1 → x = 4
        assert_eq!(degree_class(1, nf, alpha, 4), 4);
    }

    #[test]
    fn bad_params_rejected() {
        let g = star(4);
        let bad = MisParams {
            alpha: 0.0,
            group_size: 2,
            eta: 4,
            seed: 0,
        };
        assert!(mis_simple(&g, bad).is_err());
    }

    /// An entity joins a group with probability
    /// `p = min(1, groups·size/population)`, and then one of the
    /// `groups` groups. Pooled over 32 seeds, the empirical join rate lies
    /// within 4σ of `p`.
    #[test]
    fn group_choice_joins_at_rate_groups_times_size_over_population() {
        let (groups, size, population) = (4usize, 25usize, 1000usize);
        let seeds = 32u64;
        let mut joined = 0usize;
        for seed in 0..seeds {
            for entity in 0..population as u64 {
                if let Some(gid) = group_choice(seed, [7], entity, groups, size, population) {
                    assert!(gid < groups, "seed {seed} entity {entity}");
                    joined += 1;
                }
            }
        }
        let trials = seeds as f64 * population as f64;
        let p = (groups * size) as f64 / population as f64;
        let sigma = (trials * p * (1.0 - p)).sqrt();
        let expected = trials * p;
        assert!(
            (joined as f64 - expected).abs() <= 4.0 * sigma,
            "{joined} of {trials} joined, expected {expected:.0} ± {:.0}",
            4.0 * sigma
        );
    }
}
