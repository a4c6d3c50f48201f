//! Algorithm 1: the randomized local-ratio `f`-approximation for minimum
//! weight set cover (Section 2.1, Theorem 2.3).
//!
//! Each round samples every still-uncovered element independently with
//! probability `p = min(1, 2η/|U_r|)`, runs the sequential local-ratio
//! algorithm on the sample, and removes every element covered by the
//! zero-weight sets. Lemma 2.2: the uncovered set shrinks by a factor
//! `≈ η/n` per round, so with `η = n^{1+µ}` and `m ≤ n^{1+c}` the loop ends
//! within `⌈c/µ⌉` rounds w.h.p.
//!
//! The loop itself is [`crate::mr::set_cover::run`] (and its `f = 2`
//! fast path [`crate::mr::vertex_cover::run`]); this module keeps what
//! both read: the sampling probability, the coin tag and the
//! coverability check. All sampling coins are hash-derived from
//! `(seed, round, element)` ([`mrlr_mapreduce::rng::coin`]), so the
//! output does not depend on how many machines the elements are spread
//! over.

use mrlr_mapreduce::{MrError, MrResult};
use mrlr_setsys::SetSystem;

/// Tag mixed into Algorithm 1's sampling coins.
pub const SC_COIN_TAG: u64 = 0x5343_414c_4731;

/// The per-round sampling probability `p = min(1, 2η/|U_r|)`.
pub fn sample_probability(eta: usize, alive: usize) -> f64 {
    if alive == 0 {
        1.0
    } else {
        (2.0 * eta as f64 / alive as f64).min(1.0)
    }
}

/// `Ok` when every element of `sys` lies in some set; otherwise the one
/// [`MrError::Infeasible`] every set-cover driver fails with.
pub(crate) fn require_coverable(sys: &SetSystem) -> MrResult<()> {
    if sys.is_coverable() {
        Ok(())
    } else {
        Err(MrError::Infeasible(
            "set cover instance leaves an element uncovered".into(),
        ))
    }
}

/// Theorem 2.3's predicted iteration bound `⌈c/µ⌉ + 1` for `m = n^{1+c}`
/// elements, `η = n^{1+µ}`.
pub fn predicted_rounds(n: usize, m: usize, eta: usize) -> usize {
    if n < 2 || m < 2 {
        return 1;
    }
    let ln_n = (n as f64).ln();
    let c = (m as f64).ln() / ln_n - 1.0;
    let mu = (eta as f64).ln() / ln_n - 1.0;
    if mu <= 0.0 {
        return m; // η ≤ n: no geometric shrinkage guarantee
    }
    (c / mu).ceil().max(1.0) as usize + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mr::{one_machine, set_cover};
    use crate::types::CoverResult;
    use crate::verify::is_cover;
    use mrlr_setsys::generators::{bounded_frequency, with_uniform_weights};

    /// Algorithm 1 with sample budget `eta`, as the `Rlr` backend runs it.
    fn approx_set_cover_f(sys: &SetSystem, eta: usize, seed: u64) -> MrResult<CoverResult> {
        set_cover::run(sys, one_machine(eta, seed)).map(|(r, _)| r)
    }

    #[test]
    fn covers_and_meets_f_guarantee() {
        for seed in 0..6 {
            let sys = with_uniform_weights(bounded_frequency(40, 600, 3, seed), 1.0, 8.0, seed);
            let f = sys.max_frequency() as f64;
            let r = approx_set_cover_f(&sys, 80, seed).unwrap();
            assert!(is_cover(&sys, &r.cover));
            assert!(
                r.weight <= f * r.lower_bound + 1e-6,
                "seed {seed}: weight {} > f · dual {}",
                r.weight,
                f * r.lower_bound
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let sys = bounded_frequency(30, 400, 2, 5);
        let a = approx_set_cover_f(&sys, 50, 99).unwrap();
        let b = approx_set_cover_f(&sys, 50, 99).unwrap();
        assert_eq!(a.cover, b.cover);
        assert_eq!(a.iterations, b.iterations);
        // A different seed still produces a valid cover (identity of the
        // cover across seeds is possible, so only validity is asserted).
        let c = approx_set_cover_f(&sys, 50, 100).unwrap();
        assert!(sys.covers(&c.cover));
    }

    #[test]
    fn big_eta_finishes_in_one_round() {
        let sys = bounded_frequency(20, 100, 2, 1);
        let r = approx_set_cover_f(&sys, 100, 3).unwrap();
        // p = min(1, 200/100) = 1: everything sampled, one round.
        assert_eq!(r.iterations, 1);
    }

    #[test]
    fn rounds_shrink_geometrically() {
        // With η ≪ m the loop takes several rounds but far fewer than m.
        let sys = bounded_frequency(50, 2000, 2, 2);
        let r = approx_set_cover_f(&sys, 100, 7).unwrap();
        assert!(r.iterations >= 2, "too fast: {}", r.iterations);
        assert!(r.iterations <= 20, "too slow: {}", r.iterations);
    }

    #[test]
    fn infeasible_detected() {
        let sys = SetSystem::unit(3, vec![vec![0], vec![1]]);
        assert!(matches!(
            approx_set_cover_f(&sys, 10, 1),
            Err(MrError::Infeasible(_))
        ));
    }

    #[test]
    fn zero_eta_rejected() {
        let sys = SetSystem::unit(1, vec![vec![0]]);
        assert!(matches!(
            approx_set_cover_f(&sys, 0, 1),
            Err(MrError::BadConfig(_))
        ));
    }

    #[test]
    fn predicted_rounds_sane() {
        // n = 100, m = n^1.5, eta = n^1.2 → c = 0.5, µ = 0.2 → 3 + 1.
        let n = 100usize;
        let m = 100_000usize; // 10^5 = n^2.5 → c = 1.5 ⇒ ceil(1.5/0.2)=8
        let eta = 251usize; // ~n^1.2
        let pr = predicted_rounds(n, m, eta);
        assert!((8..=10).contains(&pr), "pr = {pr}");
        assert_eq!(predicted_rounds(1, 1, 10), 1);
    }
}
