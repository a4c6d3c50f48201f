//! Algorithm 4: the randomized local-ratio 2-approximation for maximum
//! weight matching (Section 5.2, Theorems 5.5/5.6), including the `µ = 0`
//! regime of Appendix C.
//!
//! Each iteration samples, for every vertex `v`, each alive incident edge
//! into `E'_v` with probability `p = min(η/|E_i|, 1)`; the central machine
//! scans vertices in order, pushing the heaviest sampled edge (by current
//! modified weight) per vertex. When fewer than `4η` edges remain alive the
//! whole residual graph moves to the central machine, which finishes the
//! local-ratio pass exhaustively and unwinds the stack.
//!
//! The loop itself is [`crate::mr::matching::run`]. Sampling coins are
//! derived from `(seed, iteration, vertex, edge)`, so its output does not
//! depend on how many machines the edges are spread over.

/// Tag mixed into Algorithm 4's sampling coins.
pub const MATCH_COIN_TAG: u64 = 0x4d41_5443_4834;

#[cfg(test)]
mod tests {
    use crate::exact::max_weight_matching;
    use crate::mr::{matching, one_machine};
    use crate::types::MatchingResult;
    use crate::verify::is_matching;
    use mrlr_graph::generators::{gnm, with_uniform_weights};
    use mrlr_graph::Graph;
    use mrlr_mapreduce::MrResult;

    /// Algorithm 4 with sample budget `eta`, as the `Rlr` backend runs it.
    fn approx_max_matching(g: &Graph, eta: usize, seed: u64) -> MrResult<MatchingResult> {
        matching::run(g, one_machine(eta, seed)).map(|(r, _)| r)
    }

    #[test]
    fn valid_and_two_approx_certified() {
        for seed in 0..6 {
            let g = with_uniform_weights(&gnm(40, 300, seed), 0.5, 10.0, seed + 50);
            let r = approx_max_matching(&g, 30, seed).unwrap();
            assert!(is_matching(&g, &r.matching));
            assert!(r.weight + 1e-6 >= r.stack_gain);
            assert!(r.certified_ratio(2.0) <= 2.0 + 1e-6);
        }
    }

    #[test]
    fn within_two_of_exact_on_small_graphs() {
        for seed in 0..8 {
            let g = with_uniform_weights(&gnm(14, 40, seed), 1.0, 9.0, seed + 7);
            let (opt, _) = max_weight_matching(&g);
            let r = approx_max_matching(&g, 8, seed).unwrap();
            assert!(
                2.0 * r.weight + 1e-9 >= opt,
                "seed {seed}: matching {} vs OPT {}",
                r.weight,
                opt
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let g = with_uniform_weights(&gnm(30, 200, 3), 1.0, 5.0, 4);
        let a = approx_max_matching(&g, 20, 11).unwrap();
        let b = approx_max_matching(&g, 20, 11).unwrap();
        assert_eq!(a.matching, b.matching);
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn big_eta_single_iteration() {
        let g = with_uniform_weights(&gnm(20, 60, 1), 1.0, 3.0, 2);
        let r = approx_max_matching(&g, 100, 5).unwrap();
        // 60 < 4·100: immediately the central pass.
        assert_eq!(r.iterations, 1);
    }

    #[test]
    fn mu_zero_regime_terminates_logarithmically() {
        // η = n (Appendix C): iterations should be O(log n), far below m/n.
        let n = 60usize;
        let g = with_uniform_weights(&gnm(n, 900, 2), 1.0, 4.0, 3);
        let r = approx_max_matching(&g, n, 13).unwrap();
        assert!(is_matching(&g, &r.matching));
        assert!(
            r.iterations <= 40,
            "µ=0 regime took {} iterations",
            r.iterations
        );
    }

    #[test]
    fn empty_graph() {
        let g = Graph::new(4, vec![]);
        let r = approx_max_matching(&g, 10, 1).unwrap();
        assert!(r.matching.is_empty());
        assert_eq!(r.iterations, 0);
    }
}
