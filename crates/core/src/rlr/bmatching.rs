//! Algorithm 7: the randomized ε-adjusted local-ratio
//! `(3 − 2/b + 2ε)`-approximation for maximum weight b-matching
//! (Appendix D.2, Theorem D.3).
//!
//! Differences from Algorithm 4 (matching): each vertex samples a *fixed
//! number* `b(v)·ln(1/δ)·n^µ` of alive incident edges (without
//! replacement), the central machine pushes up to `b(v)·ln(1/δ)` edges per
//! vertex per iteration using ε-adjusted reductions (`δ = ε/(1+ε)`), and an
//! edge dies once `w ≤ (1+ε)(ϕ(u)+ϕ(v))`.
//!
//! The loop itself is [`crate::mr::bmatching::run`]; this module keeps
//! its parameters, its RNG tag and the per-vertex push budget.

/// Tag mixed into Algorithm 7's sampling RNG.
pub const BMATCH_RNG_TAG: u64 = 0x424d_4154_4348;

/// Parameters of Algorithm 7.
#[derive(Debug, Clone, Copy)]
pub struct BMatchingParams {
    /// The adjustment `ε > 0`; the guarantee is `3 − 2/max{2,b} + 2ε`.
    pub eps: f64,
    /// The `n^µ` oversampling factor (how many times more edges are
    /// sampled than will be pushed). Larger = fewer iterations.
    pub n_mu: f64,
    /// The space budget `η = n^{1+µ}`: when `|E_i| < 2 b_max ln(1/δ) η` the
    /// residual graph is finished centrally.
    pub eta: usize,
    /// Sampling seed.
    pub seed: u64,
}

/// Per-vertex central push budget `⌈b(v) · ln(1/δ)⌉`.
pub fn push_budget(b_v: u32, eps: f64) -> usize {
    let delta = eps / (1.0 + eps);
    (b_v as f64 * (1.0 / delta).ln()).ceil().max(1.0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::max_weight_b_matching;
    use crate::mr::{bmatching, one_machine};
    use crate::seq::local_ratio_bmatching::b_matching_multiplier;
    use crate::types::MatchingResult;
    use crate::verify::is_b_matching;
    use mrlr_graph::generators::{gnm, with_uniform_weights};
    use mrlr_graph::Graph;
    use mrlr_mapreduce::MrResult;

    /// Algorithm 7, as the `Rlr` backend runs it.
    fn approx_b_matching(
        g: &Graph,
        b: &[u32],
        params: BMatchingParams,
    ) -> MrResult<MatchingResult> {
        bmatching::run(g, b, params, one_machine(params.eta, params.seed)).map(|(r, _)| r)
    }

    fn params(eta: usize, seed: u64) -> BMatchingParams {
        BMatchingParams {
            eps: 0.25,
            n_mu: 2.0,
            eta,
            seed,
        }
    }

    #[test]
    fn valid_and_certified() {
        for seed in 0..6 {
            let g = with_uniform_weights(&gnm(30, 200, seed), 0.5, 8.0, seed + 3);
            let b: Vec<u32> = (0..g.n()).map(|v| 1 + (v % 3) as u32).collect();
            let p = params(10, seed);
            let r = approx_b_matching(&g, &b, p).unwrap();
            assert!(is_b_matching(&g, &b, &r.matching));
            let mult = b_matching_multiplier(&b, p.eps);
            assert!(r.certified_ratio(mult) <= mult + 1e-6);
        }
    }

    #[test]
    fn within_bound_of_exact_small() {
        for seed in 0..6 {
            let g = with_uniform_weights(&gnm(10, 20, seed), 1.0, 5.0, seed + 20);
            let b: Vec<u32> = (0..g.n()).map(|v| 1 + (v % 2) as u32).collect();
            let (opt, _) = max_weight_b_matching(&g, &b);
            let p = params(4, seed);
            let r = approx_b_matching(&g, &b, p).unwrap();
            let mult = b_matching_multiplier(&b, p.eps);
            assert!(
                mult * r.weight + 1e-9 >= opt,
                "seed {seed}: {} · {} < {}",
                mult,
                r.weight,
                opt
            );
        }
    }

    #[test]
    fn deterministic() {
        let g = with_uniform_weights(&gnm(20, 100, 1), 1.0, 6.0, 2);
        let b = vec![2u32; g.n()];
        let a = approx_b_matching(&g, &b, params(8, 5)).unwrap();
        let c = approx_b_matching(&g, &b, params(8, 5)).unwrap();
        assert_eq!(a.matching, c.matching);
    }

    #[test]
    fn bad_params_rejected() {
        let g = gnm(4, 3, 0);
        let b = vec![1u32; 4];
        assert!(approx_b_matching(
            &g,
            &b,
            BMatchingParams {
                eps: 0.0,
                n_mu: 2.0,
                eta: 4,
                seed: 0
            }
        )
        .is_err());
        assert!(approx_b_matching(
            &g,
            &b,
            BMatchingParams {
                eps: 0.2,
                n_mu: 0.5,
                eta: 4,
                seed: 0
            }
        )
        .is_err());
    }

    #[test]
    fn push_budget_values() {
        // eps = e/(1-e)… δ = eps/(1+eps); budget = ceil(b ln(1/δ)).
        let eps = 1.0; // δ = 0.5, ln 2 ≈ 0.693
        assert_eq!(push_budget(1, eps), 1);
        assert_eq!(push_budget(3, eps), (3.0f64 * 2.0f64.ln()).ceil() as usize);
    }
}
