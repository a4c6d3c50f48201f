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

use mrlr_mapreduce::{MrError, MrResult};
use mrlr_setsys::{SetId, SetSystem};

use crate::hungry::mis::{degree_class_ln, group_choice};
use crate::rlr::setcover::require_coverable;
use crate::seq::greedy_sc::{fitted_dual, harmonic};
use crate::types::CoverResult;

/// Tag mixed into Algorithm 3's sampling RNG (shared with the MR driver).
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
/// a function of the run's parameters only, so both drivers compute it
/// once instead of once per scanned set.
pub(crate) fn class_group_counts(mf: f64, alpha: f64, num_classes: usize) -> Vec<usize> {
    (0..=num_classes)
        .map(|i| (2.0 * mf.powf((i + 1) as f64 * alpha)).ceil() as usize)
        .collect()
}

/// Runs Algorithm 3, returning the cover and the per-round trace.
pub fn hungry_set_cover(
    sys: &SetSystem,
    params: HungryScParams,
) -> MrResult<(CoverResult, HungryScTrace)> {
    if params.eps <= 0.0 || !params.eps.is_finite() {
        return Err(MrError::BadConfig("eps must be positive".into()));
    }
    if !(params.alpha > 0.0 && params.alpha <= 1.0) || params.group_size == 0 {
        return Err(MrError::BadConfig("invalid alpha/group_size".into()));
    }
    require_coverable(sys)?;

    let m = sys.universe();
    let n = sys.n_sets();
    let mf = (m.max(2)) as f64;
    let ln_mf = mf.ln();
    let num_classes = (1.0 / params.alpha).ceil() as usize;
    let group_counts = class_group_counts(mf, params.alpha, num_classes);
    let dual_view = sys.dual();

    let mut covered = vec![false; m];
    let mut covered_count = 0usize;
    let mut uncov: Vec<usize> = sys.sets().iter().map(<[_]>::len).collect();
    let mut chosen_flag = vec![false; n];
    let mut solution: Vec<SetId> = Vec::new();
    let mut price_sum = 0.0f64;
    let mut prices: Vec<(mrlr_setsys::ElemId, f64)> = Vec::new();
    let mut trace = HungryScTrace::default();

    let ratio = |ell: usize, uncov: &[usize]| uncov[ell] as f64 / sys.weight(ell as SetId);
    let mut level = (0..n).map(|l| ratio(l, &uncov)).fold(0.0f64, f64::max);
    let mut k = 0usize;

    #[allow(clippy::too_many_arguments)]
    let add_set = |ell: usize,
                   covered: &mut Vec<bool>,
                   covered_count: &mut usize,
                   uncov: &mut Vec<usize>,
                   chosen_flag: &mut Vec<bool>,
                   solution: &mut Vec<SetId>,
                   price_sum: &mut f64,
                   prices: &mut Vec<(mrlr_setsys::ElemId, f64)>| {
        debug_assert!(!chosen_flag[ell] && uncov[ell] > 0);
        let price = sys.weight(ell as SetId) / uncov[ell] as f64;
        chosen_flag[ell] = true;
        solution.push(ell as SetId);
        for &j in sys.set(ell as SetId) {
            if !covered[j as usize] {
                covered[j as usize] = true;
                *covered_count += 1;
                *price_sum += price;
                prices.push((j, price));
                for &owner in &dual_view[j as usize] {
                    uncov[owner as usize] -= 1;
                }
            }
        }
    };

    while covered_count < m {
        let level_start = k;
        // Inner loop for the current level L.
        loop {
            let threshold = level / (1.0 + params.eps);
            let exists =
                (0..n).any(|l| !chosen_flag[l] && uncov[l] > 0 && ratio(l, &uncov) >= threshold);
            if !exists {
                break;
            }
            k += 1;
            if k > 10_000 + 16 * n {
                return Err(MrError::AlgorithmFailed {
                    round: k,
                    reason: "Algorithm 3 inner-loop budget exhausted".into(),
                });
            }
            // Potential Φ_k for the trace.
            let phi: f64 = (0..n)
                .filter(|&l| !chosen_flag[l] && ratio(l, &uncov) >= threshold)
                .map(|l| uncov[l] as f64)
                .sum();
            trace.potentials.push(phi);

            // Classify qualifying sets by cardinality class.
            let mut classes: Vec<Vec<usize>> = vec![Vec::new(); num_classes + 1];
            for l in 0..n {
                if chosen_flag[l] || uncov[l] == 0 {
                    continue;
                }
                if ratio(l, &uncov) < threshold {
                    continue;
                }
                let i = degree_class_ln(uncov[l], ln_mf, params.alpha, num_classes);
                classes[i].push(l);
            }

            // Sample groups per class; detect overflow (fail & continue).
            let mut overflow = false;
            let mut all_groups: Vec<(usize, Vec<usize>)> = Vec::new(); // (class, members)
            for (i, class) in classes.iter().enumerate().skip(1) {
                if class.is_empty() {
                    continue;
                }
                let groups_count = group_counts[i];
                let mut members: Vec<Vec<usize>> = vec![Vec::new(); groups_count];
                for &l in class {
                    if let Some(gid) = group_choice(
                        params.seed,
                        [HSC_RNG_TAG, k as u64, i as u64],
                        l as u64,
                        groups_count,
                        params.group_size,
                        class.len(),
                    ) {
                        members[gid].push(l);
                    }
                }
                if members.iter().any(|g| g.len() > 4 * params.group_size) {
                    overflow = true;
                    break;
                }
                for g in members {
                    if !g.is_empty() {
                        all_groups.push((i, g));
                    }
                }
            }
            if overflow {
                // Paper lines 15-17: fail this iteration, continue.
                trace.failed_rounds += 1;
                continue;
            }

            // Central: one qualifying set per group, classes ascending.
            for (i, group) in &all_groups {
                let accept = mf.powf(1.0 - (*i as f64 + 1.0) * params.alpha) / 2.0;
                let mut best: Option<usize> = None;
                for &l in group {
                    if chosen_flag[l] || (uncov[l] as f64) < accept || ratio(l, &uncov) < threshold
                    {
                        continue;
                    }
                    best = match best {
                        None => Some(l),
                        Some(b) if uncov[l] > uncov[b] => Some(l),
                        other => other,
                    };
                }
                if let Some(l) = best {
                    add_set(
                        l,
                        &mut covered,
                        &mut covered_count,
                        &mut uncov,
                        &mut chosen_flag,
                        &mut solution,
                        &mut price_sum,
                        &mut prices,
                    );
                }
            }
        }
        trace.level_rounds.push(k - level_start);
        if covered_count < m {
            level /= 1.0 + params.eps;
            trace.levels += 1;
        }
    }

    solution.sort_unstable();
    let weight = sys.cover_weight(&solution);
    let h = harmonic(sys.max_set_size());
    let result = CoverResult {
        cover: solution,
        weight,
        lower_bound: price_sum / ((1.0 + params.eps) * h),
        dual: fitted_dual(&prices, params.eps, h),
        iterations: k,
    };
    Ok((result, trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::min_weight_set_cover;
    use crate::verify::is_cover;
    use mrlr_setsys::generators::{bounded_set_size, with_uniform_weights};

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
