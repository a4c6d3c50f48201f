//! Remark 4.7: preprocessing that bounds the weight spread of a set-cover
//! instance to `w_max/w_min ≤ mn/ε`, which in turn bounds the
//! `log_{1+ε}(Δ·w_max/w_min)` factor in Theorem 4.6's round count.
//!
//! Let `γ = max_j min_{S ∋ j} w(S)` — a lower bound on OPT (the cheapest
//! way to cover the hardest element). Then:
//!
//! * every set with `w ≤ γε/n` can be taken outright: all of them together
//!   cost at most `γε ≤ ε·OPT`;
//! * every set with `w > mγ` can be discarded: OPT ≤ `mγ` (cover each
//!   element with its cheapest set), so such sets never help.
//!
//! The paper notes this runs in `O(log(n)/(µ log m))` MapReduce rounds via
//! a broadcast tree (two aggregations and one broadcast).

use mrlr_mapreduce::{MrError, MrResult};
use mrlr_setsys::{SetId, SetSystem};

use crate::rlr::setcover::require_coverable;

/// Outcome of Remark 4.7's preprocessing.
#[derive(Debug, Clone)]
pub struct Preprocessed {
    /// Sets taken outright (cheap sets, total cost ≤ ε·OPT).
    pub taken: Vec<SetId>,
    /// Total weight of the taken sets.
    pub taken_weight: f64,
    /// The reduced instance: remaining sets restricted to uncovered
    /// elements, with ids mapping back via `set_ids` / `elem_ids`.
    pub reduced: SetSystem,
    /// Original id of each reduced set.
    pub set_ids: Vec<SetId>,
    /// Original id of each reduced element.
    pub elem_ids: Vec<u32>,
    /// The lower bound `γ` on OPT.
    pub gamma: f64,
}

/// Applies Remark 4.7 with parameter `eps > 0`.
pub fn preprocess_weights(sys: &SetSystem, eps: f64) -> MrResult<Preprocessed> {
    if eps <= 0.0 || !eps.is_finite() {
        return Err(MrError::BadConfig("eps must be positive".into()));
    }
    require_coverable(sys)?;
    let m = sys.universe();
    let n = sys.n_sets();
    // γ = max over elements of the cheapest containing set.
    let dual = sys.dual();
    let gamma = (0..m)
        .map(|j| {
            dual[j]
                .iter()
                .map(|&i| sys.weight(i))
                .fold(f64::INFINITY, f64::min)
        })
        .fold(0.0f64, f64::max);

    let cheap_cutoff = gamma * eps / n as f64;
    let expensive_cutoff = m as f64 * gamma;

    let mut taken: Vec<SetId> = Vec::new();
    let mut taken_weight = 0.0;
    let mut covered = vec![false; m];
    for i in 0..n {
        if sys.weight(i as SetId) <= cheap_cutoff {
            taken.push(i as SetId);
            taken_weight += sys.weight(i as SetId);
            for &j in sys.set(i as SetId) {
                covered[j as usize] = true;
            }
        }
    }

    // Remaining elements, re-indexed densely.
    let mut elem_ids: Vec<u32> = Vec::new();
    let mut new_elem = vec![u32::MAX; m];
    for j in 0..m {
        if !covered[j] {
            new_elem[j] = elem_ids.len() as u32;
            elem_ids.push(j as u32);
        }
    }
    // Remaining sets: not taken, not absurdly expensive, restricted to
    // uncovered elements. (Keep expensive sets only if they are some
    // element's unique cover — cannot happen: the cheapest containing set
    // has weight ≤ γ ≤ mγ.)
    let mut set_ids: Vec<SetId> = Vec::new();
    let mut sets: Vec<Vec<u32>> = Vec::new();
    let mut weights: Vec<f64> = Vec::new();
    for i in 0..n {
        let w = sys.weight(i as SetId);
        if w <= cheap_cutoff || w > expensive_cutoff {
            continue;
        }
        let elems: Vec<u32> = sys
            .set(i as SetId)
            .iter()
            .filter(|&&j| !covered[j as usize])
            .map(|&j| new_elem[j as usize])
            .collect();
        set_ids.push(i as SetId);
        sets.push(elems);
        weights.push(w);
    }
    let reduced = SetSystem::new(elem_ids.len(), sets, weights);
    debug_assert!(
        reduced.is_coverable(),
        "preprocessing must keep coverability"
    );
    Ok(Preprocessed {
        taken,
        taken_weight,
        reduced,
        set_ids,
        elem_ids,
        gamma,
    })
}

/// Maps a cover of the reduced instance back to original set ids and
/// merges the taken sets.
pub fn merge_cover(pre: &Preprocessed, reduced_cover: &[SetId]) -> Vec<SetId> {
    let mut cover: Vec<SetId> = pre.taken.clone();
    cover.extend(reduced_cover.iter().map(|&i| pre.set_ids[i as usize]));
    cover.sort_unstable();
    cover.dedup();
    cover
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hungry::setcover::{hungry_set_cover, HungryScParams};
    use mrlr_setsys::generators::{bounded_set_size, with_log_uniform_weights};

    #[test]
    fn gamma_lower_bounds_opt() {
        let sys = SetSystem::new(
            3,
            vec![vec![0, 1], vec![1, 2], vec![0, 2]],
            vec![2.0, 3.0, 4.0],
        );
        // Element 2's cheapest cover costs 3.0 → γ = 3.
        let pre = preprocess_weights(&sys, 0.5).unwrap();
        assert!((pre.gamma - 3.0).abs() < 1e-12);
        // OPT here is {0,1} = 5 ≥ γ.
    }

    #[test]
    fn spread_is_bounded_after_preprocessing() {
        for seed in 0..5 {
            let sys =
                with_log_uniform_weights(bounded_set_size(200, 80, 10, seed), 1e-6, 1e6, seed);
            let eps = 0.25;
            let pre = preprocess_weights(&sys, eps).unwrap();
            let bound = sys.universe() as f64 * sys.n_sets() as f64 / eps * (1.0 + 1e-9);
            if pre.reduced.n_sets() > 0 {
                assert!(
                    pre.reduced.weight_spread() <= bound,
                    "seed {seed}: spread {} > {}",
                    pre.reduced.weight_spread(),
                    bound
                );
            }
        }
    }

    #[test]
    fn taken_sets_cost_at_most_eps_gamma() {
        for seed in 0..5 {
            let sys = with_log_uniform_weights(bounded_set_size(150, 60, 8, seed), 1e-5, 1e5, seed);
            let eps = 0.3;
            let pre = preprocess_weights(&sys, eps).unwrap();
            assert!(pre.taken_weight <= eps * pre.gamma * (1.0 + 1e-9));
        }
    }

    #[test]
    fn merged_cover_is_feasible_end_to_end() {
        for seed in 0..4 {
            let sys =
                with_log_uniform_weights(bounded_set_size(200, 80, 10, seed), 1e-4, 1e4, seed);
            let pre = preprocess_weights(&sys, 0.25).unwrap();
            let cover = if pre.reduced.universe() == 0 {
                merge_cover(&pre, &[])
            } else {
                let params = HungryScParams::new(pre.reduced.universe(), 0.4, 0.25, seed);
                let (r, _) = hungry_set_cover(&pre.reduced, params).unwrap();
                merge_cover(&pre, &r.cover)
            };
            assert!(sys.covers(&cover), "seed {seed}");
        }
    }

    #[test]
    fn bad_inputs_rejected() {
        let sys = SetSystem::unit(2, vec![vec![0, 1]]);
        assert!(preprocess_weights(&sys, 0.0).is_err());
        let gap = SetSystem::unit(2, vec![vec![0]]);
        assert!(preprocess_weights(&gap, 0.5).is_err());
    }
}
