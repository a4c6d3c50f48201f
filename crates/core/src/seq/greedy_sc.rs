//! Sequential greedy and ε-greedy weighted set cover (Chvátal; the
//! `H_Δ`-approximation Section 4 parallelizes).
//!
//! Both variants carry a dual-fitting certificate: when a set of weight `w`
//! covers `d` new elements, each gets price `w/d`; the scaled prices
//! `price_j / H_Δ` (greedy) or `price_j / ((1+ε) H_Δ)` (ε-greedy) form a
//! feasible dual, so their sum lower-bounds OPT.

use mrlr_mapreduce::DetRng;
use mrlr_setsys::{ElemId, SetId, SetSystem};

use crate::types::CoverResult;

/// The harmonic number `H_k = Σ_{i=1..k} 1/i`.
pub fn harmonic(k: usize) -> f64 {
    (1..=k).map(|i| 1.0 / i as f64).sum()
}

/// Scales raw greedy prices `(j, price_j)` into the fitted dual
/// `(j, price_j / ((1+ε) h))`, sorted by element id — the re-checkable
/// witness all three greedy set-cover implementations emit (`h = H_Δ`).
/// Dual fitting (Lemma 4.2 / Chvátal's analysis) guarantees the fitted
/// vector is feasible, so its sum lower-bounds OPT.
pub fn fitted_dual(prices: &[(ElemId, f64)], eps: f64, h: f64) -> Vec<(ElemId, f64)> {
    let norm = (1.0 + eps) * h;
    let mut v: Vec<(ElemId, f64)> = prices.iter().map(|&(j, p)| (j, p / norm)).collect();
    v.sort_unstable_by_key(|&(j, _)| j);
    v
}

fn uncovered_count(set: &[u32], covered: &[bool]) -> usize {
    set.iter().filter(|&&j| !covered[j as usize]).count()
}

/// Chvátal's greedy: repeatedly add the set maximizing
/// `|S \ C| / w`. `H_Δ`-approximate; returns the dual-fitting bound.
pub fn greedy_set_cover(sys: &SetSystem) -> Result<CoverResult, String> {
    eps_greedy_set_cover(sys, 0.0, 0)
}

/// The ε-greedy variant (Kumar et al.): add any set whose ratio is within
/// `(1+ε)` of the best. `(1+ε) H_Δ`-approximate. With `eps = 0` this is
/// exactly greedy; with `eps > 0` ties are broken by `seed`.
pub fn eps_greedy_set_cover(sys: &SetSystem, eps: f64, seed: u64) -> Result<CoverResult, String> {
    assert!(eps >= 0.0 && eps.is_finite());
    if !sys.is_coverable() {
        return Err("set cover instance leaves an element uncovered".into());
    }
    let m = sys.universe();
    let n = sys.n_sets();
    let mut covered = vec![false; m];
    let mut covered_count = 0usize;
    let mut chosen: Vec<SetId> = Vec::new();
    let mut picked = vec![false; n];
    let mut price_sum = 0.0f64;
    let mut prices: Vec<(ElemId, f64)> = Vec::new();
    let mut rng = DetRng::derive(seed, &[0x6567_7363]);
    let mut iterations = 0usize;

    while covered_count < m {
        iterations += 1;
        // Best current ratio.
        let mut best_ratio = 0.0f64;
        for (i, &is_picked) in picked.iter().enumerate() {
            if is_picked {
                continue;
            }
            let d = uncovered_count(sys.set(i as SetId), &covered);
            if d == 0 {
                continue;
            }
            best_ratio = best_ratio.max(d as f64 / sys.weight(i as SetId));
        }
        debug_assert!(
            best_ratio > 0.0,
            "coverable instance must have a useful set"
        );
        // Candidates within (1+eps) of the best; greedy (eps = 0) keeps the
        // argmax only.
        let threshold = best_ratio / (1.0 + eps);
        let candidates: Vec<usize> = (0..n)
            .filter(|&i| {
                if picked[i] {
                    return false;
                }
                let d = uncovered_count(sys.set(i as SetId), &covered);
                d > 0 && d as f64 / sys.weight(i as SetId) + 1e-15 >= threshold
            })
            .collect();
        let pick = if eps == 0.0 {
            candidates[0]
        } else {
            candidates[rng.range_usize(candidates.len())]
        };
        let d = uncovered_count(sys.set(pick as SetId), &covered);
        let price = sys.weight(pick as SetId) / d as f64;
        for &j in sys.set(pick as SetId) {
            if !covered[j as usize] {
                covered[j as usize] = true;
                covered_count += 1;
                price_sum += price;
                prices.push((j, price));
            }
        }
        picked[pick] = true;
        chosen.push(pick as SetId);
    }

    // An empty universe has Δ = 0 and H_0 = 0; its price sum is 0 and so
    // is its optimum, so H_1 keeps the bound at 0 instead of 0/0.
    let h = harmonic(sys.max_set_size().max(1));
    let weight = sys.cover_weight(&chosen);
    chosen.sort_unstable();
    Ok(CoverResult {
        cover: chosen,
        weight,
        lower_bound: price_sum / ((1.0 + eps) * h),
        dual: fitted_dual(&prices, eps, h),
        iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrlr_setsys::generators::{bounded_set_size, greedy_trap, with_uniform_weights};

    #[test]
    fn harmonic_values() {
        assert!((harmonic(1) - 1.0).abs() < 1e-12);
        assert!((harmonic(2) - 1.5).abs() < 1e-12);
        assert!((harmonic(4) - (1.0 + 0.5 + 1.0 / 3.0 + 0.25)).abs() < 1e-12);
        assert_eq!(harmonic(0), 0.0);
    }

    #[test]
    fn greedy_covers_and_certifies() {
        for seed in 0..5 {
            let sys = with_uniform_weights(bounded_set_size(60, 40, 6, seed), 1.0, 4.0, seed);
            let r = greedy_set_cover(&sys).unwrap();
            assert!(sys.covers(&r.cover));
            let h = harmonic(sys.max_set_size());
            assert!(
                r.weight <= h * r.lower_bound * (1.0 + 1e-9) + 1e-9,
                "greedy exceeded H_D bound: {} > {}",
                r.weight,
                h * r.lower_bound
            );
        }
    }

    #[test]
    fn eps_greedy_covers_and_certifies() {
        for seed in 0..5 {
            let sys = with_uniform_weights(bounded_set_size(60, 40, 6, seed), 1.0, 4.0, seed);
            let eps = 0.3;
            let r = eps_greedy_set_cover(&sys, eps, seed).unwrap();
            assert!(sys.covers(&r.cover));
            let bound = (1.0 + eps) * harmonic(sys.max_set_size());
            assert!(r.weight <= bound * r.lower_bound * (1.0 + 1e-9) + 1e-9);
        }
    }

    #[test]
    fn greedy_falls_into_the_trap() {
        // On the classic tight instance greedy pays H_m while OPT = 1 + ε.
        let m = 32;
        let sys = greedy_trap(m, 0.05);
        let r = greedy_set_cover(&sys).unwrap();
        assert!(sys.covers(&r.cover));
        let hm = harmonic(m);
        assert!(
            (r.weight - hm).abs() < 1e-9,
            "greedy should pay H_m = {hm}, paid {}",
            r.weight
        );
    }

    #[test]
    fn infeasible_rejected() {
        let sys = SetSystem::unit(2, vec![vec![0]]);
        assert!(greedy_set_cover(&sys).is_err());
    }

    #[test]
    fn greedy_is_deterministic_eps_greedy_seeded() {
        let sys = with_uniform_weights(bounded_set_size(40, 30, 5, 1), 1.0, 3.0, 1);
        assert_eq!(
            greedy_set_cover(&sys).unwrap().cover,
            greedy_set_cover(&sys).unwrap().cover
        );
        let a = eps_greedy_set_cover(&sys, 0.5, 7).unwrap();
        let b = eps_greedy_set_cover(&sys, 0.5, 7).unwrap();
        assert_eq!(a.cover, b.cover);
    }
}
