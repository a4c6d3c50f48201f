//! Algorithm 3: the hungry-greedy `(1+ε) H_Δ ≈ (1+ε) ln Δ` approximation
//! for minimum weight set cover (Section 4, Theorems 4.5/4.6).
//!
//! The ε-greedy rule (Kumar et al.): always add a set whose
//! cover-per-weight ratio is within `(1+ε)` of the best. Sets are bucketed
//! by cost-ratio *level* `L` (divided by `1+ε` when a level empties) and,
//! within a level, grouped by cardinality class
//! `|S_ℓ \ C| ∈ [m^{1-iα}, m^{1-(i-1)α})`. Each round samples groups of
//! expected size `m^{µ/2}` per class; the central machine takes at most one
//! qualifying set per group — a set still covering `≥ m^{1-(i+1)α}/2` new
//! elements at ratio `≥ L/(1+ε)`. Lemma 4.3: the potential
//! `Φ_k = Σ_{ratio ≥ L/(1+ε)} |S_ℓ \ C_k|` shrinks by `m^{µ/8}` per round.
//!
//! The paper's line 20 tests only the cardinality; we also re-test the
//! ratio at add time, which the ε-greedy correctness argument (and the
//! definition of `S'_{k,i}` in Lemma 4.2) requires.
//!
//! The loop itself is [`crate::mr::set_cover_greedy::run`]; this module
//! keeps its parameters, its trace and its RNG tag.

/// Tag mixed into Algorithm 3's sampling RNG.
pub const HSC_RNG_TAG: u64 = 0x4853_4337;

/// Parameters of Algorithm 3.
#[derive(Debug, Clone, Copy)]
pub struct HungryScParams {
    /// The ε-greedy slack (`> 0`); approximation `(1+ε) H_Δ`.
    pub eps: f64,
    /// Class granularity `α` (the paper analyzes `α = µ/8`).
    pub alpha: f64,
    /// Expected group size (the paper's `m^{µ/2}`).
    pub group_size: usize,
    /// Sampling seed.
    pub seed: u64,
}

impl HungryScParams {
    /// The paper's parameterization for universe size `m` and memory
    /// exponent `µ`.
    pub fn new(m: usize, mu: f64, eps: f64, seed: u64) -> Self {
        let mf = m.max(2) as f64;
        HungryScParams {
            eps,
            alpha: mu / 8.0,
            group_size: mf.powf(mu / 2.0).ceil() as usize,
            seed,
        }
    }
}

/// Per-round statistics for the potential-decay experiment (Lemma 4.3).
#[derive(Debug, Clone, Default)]
pub struct HungryScTrace {
    /// `Φ_k` at the start of each inner-loop round.
    pub potentials: Vec<f64>,
    /// Number of levels (`L` decrements).
    pub levels: usize,
    /// Rounds on which a group overflowed (`|X_{i,j}| > 4·gs`) and the
    /// iteration was skipped.
    pub failed_rounds: usize,
    /// Inner-loop rounds (failed ones included) run at each level, in the
    /// order the levels were visited; a `0` is a level that dropped at
    /// once.
    pub level_rounds: Vec<usize>,
}

/// Groups sampled per cardinality class, `⌈2·m^{(i+1)α}⌉` for class `i` —
/// a function of the run's parameters only, so the driver computes it
/// once instead of once per scanned set.
pub(crate) fn class_group_counts(mf: f64, alpha: f64, num_classes: usize) -> Vec<usize> {
    (0..=num_classes)
        .map(|i| (2.0 * mf.powf((i + 1) as f64 * alpha)).ceil() as usize)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::min_weight_set_cover;
    use crate::mr::{one_machine, set_cover_greedy};
    use crate::seq::harmonic;
    use crate::types::CoverResult;
    use crate::verify::is_cover;
    use mrlr_mapreduce::{MrError, MrResult};
    use mrlr_setsys::generators::{bounded_set_size, with_uniform_weights};
    use mrlr_setsys::SetSystem;

    /// Algorithm 3, as the `Rlr` backend runs it (it reads no `η`).
    fn hungry_set_cover(
        sys: &SetSystem,
        params: HungryScParams,
    ) -> MrResult<(CoverResult, HungryScTrace)> {
        set_cover_greedy::run(sys, params, one_machine(1, params.seed)).map(|(r, t, _)| (r, t))
    }

    fn params(m: usize, seed: u64) -> HungryScParams {
        HungryScParams::new(m, 0.4, 0.2, seed)
    }

    #[test]
    fn covers_and_meets_ln_delta_guarantee() {
        for seed in 0..5 {
            let sys = with_uniform_weights(bounded_set_size(120, 80, 10, seed), 1.0, 6.0, seed);
            let (r, _) = hungry_set_cover(&sys, params(80, seed)).unwrap();
            assert!(is_cover(&sys, &r.cover), "seed {seed}");
            let bound = (1.0 + 0.2) * harmonic(sys.max_set_size());
            assert!(
                r.weight <= bound * r.lower_bound * (1.0 + 1e-9) + 1e-9,
                "seed {seed}: {} > {}",
                r.weight,
                bound * r.lower_bound
            );
        }
    }

    #[test]
    fn near_exact_on_small_instances() {
        for seed in 0..5 {
            let sys = with_uniform_weights(bounded_set_size(12, 16, 6, seed), 1.0, 3.0, seed);
            let (opt, _) = min_weight_set_cover(&sys).unwrap();
            let (r, _) = hungry_set_cover(&sys, params(16, seed)).unwrap();
            let bound = (1.0 + 0.2) * harmonic(sys.max_set_size());
            assert!(
                r.weight <= bound * opt + 1e-9,
                "seed {seed}: {} > {} * {}",
                r.weight,
                bound,
                opt
            );
        }
    }

    #[test]
    fn potential_decreases() {
        let sys = bounded_set_size(400, 200, 20, 7);
        let (_, trace) = hungry_set_cover(&sys, params(200, 3)).unwrap();
        assert!(!trace.potentials.is_empty());
        // The potential at the last recorded round of each level is below
        // the first (weak sanity of Lemma 4.3's direction).
        assert!(trace.potentials.last().unwrap() <= &trace.potentials[0]);
    }

    #[test]
    fn deterministic() {
        let sys = bounded_set_size(60, 50, 8, 2);
        let (a, _) = hungry_set_cover(&sys, params(50, 9)).unwrap();
        let (b, _) = hungry_set_cover(&sys, params(50, 9)).unwrap();
        assert_eq!(a.cover, b.cover);
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn infeasible_rejected() {
        let sys = SetSystem::unit(3, vec![vec![0], vec![1]]);
        assert!(matches!(
            hungry_set_cover(&sys, params(3, 1)),
            Err(MrError::Infeasible(_))
        ));
    }

    #[test]
    fn bad_params_rejected() {
        let sys = SetSystem::unit(1, vec![vec![0]]);
        let mut p = params(1, 1);
        p.eps = 0.0;
        assert!(hungry_set_cover(&sys, p).is_err());
    }
}
