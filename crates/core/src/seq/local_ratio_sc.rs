//! The sequential local-ratio algorithm for minimum weight set cover
//! (Bar-Yehuda & Even; Theorem 2.1 of the paper).
//!
//! The state object [`ScLocalRatio`] is also the *central-machine
//! subroutine* of the randomized Algorithm 1: it processes elements in any
//! order, reducing the residual weight of every set containing the element
//! by the minimum such residual; sets that hit zero enter the cover. The
//! reductions `ε_j` form a feasible dual, so `Σ ε_j ≤ OPT ≤ w(C) ≤ f Σ ε_j`.

use mrlr_setsys::{ElemId, SetId, SetSystem};

use crate::types::{CoverResult, POS_TOL};

/// Mutable local-ratio state over a set system's weights.
#[derive(Debug, Clone)]
pub struct ScLocalRatio {
    residual: Vec<f64>,
    dual: f64,
    reductions: Vec<(ElemId, f64)>,
}

impl ScLocalRatio {
    /// Starts with the system's original weights.
    pub fn new(weights: &[f64]) -> Self {
        ScLocalRatio {
            residual: weights.to_vec(),
            dual: 0.0,
            reductions: Vec::new(),
        }
    }

    /// Residual weight of set `i`.
    pub fn residual(&self, i: SetId) -> f64 {
        self.residual[i as usize]
    }

    /// True if set `i` has been driven to zero (is in the cover).
    pub fn in_cover(&self, i: SetId) -> bool {
        self.residual[i as usize] <= POS_TOL
    }

    /// Sum of reductions so far — a feasible dual, lower-bounding OPT.
    pub fn dual(&self) -> f64 {
        self.dual
    }

    /// Processes element `j`, whose containing sets are `tj`. If every
    /// containing set still has positive residual weight, performs the
    /// local-ratio reduction, records `(j, ε)` in the dual transcript and
    /// returns `Some(ε)`; if the element is already covered (some
    /// containing set has zero residual), returns `None`.
    ///
    /// # Panics
    /// Panics if `tj` is empty (an uncoverable element).
    pub fn process(&mut self, j: ElemId, tj: &[SetId]) -> Option<f64> {
        assert!(!tj.is_empty(), "element contained in no set");
        let mut eps = f64::INFINITY;
        for &i in tj {
            let w = self.residual[i as usize];
            if w <= POS_TOL {
                return None;
            }
            eps = eps.min(w);
        }
        for &i in tj {
            self.residual[i as usize] -= eps;
        }
        self.dual += eps;
        self.reductions.push((j, eps));
        Some(eps)
    }

    /// The recorded reductions as a dual vector `(j, ε_j)`, sorted by
    /// element id (each element is reduced at most once, so the order is
    /// canonical). Feasibility — `Σ_{j ∈ S_i} ε_j ≤ w_i` for every set —
    /// is what makes `Σ ε_j` a lower bound on OPT; see
    /// [`crate::api::witness::check_cover_dual`].
    pub fn dual_vector(&self) -> Vec<(ElemId, f64)> {
        let mut v = self.reductions.clone();
        v.sort_unstable_by_key(|&(j, _)| j);
        v
    }

    /// All sets currently in the cover, ascending.
    pub fn cover(&self) -> Vec<SetId> {
        (0..self.residual.len() as SetId)
            .filter(|&i| self.in_cover(i))
            .collect()
    }
}

/// Runs the sequential local-ratio set-cover algorithm, processing elements
/// in the order produced by `order` (Theorem 2.1 holds for *any* order;
/// Algorithm 1 exploits exactly this freedom).
///
/// Returns [`MrError::Infeasible`](mrlr_mapreduce::MrError::Infeasible)-style
/// panic-free result: the function checks coverability first.
pub fn local_ratio_set_cover_with_order<I>(sys: &SetSystem, order: I) -> Result<CoverResult, String>
where
    I: IntoIterator<Item = ElemId>,
{
    if !sys.is_coverable() {
        return Err("set cover instance leaves an element uncovered".into());
    }
    let dual_view = sys.dual();
    let mut lr = ScLocalRatio::new(sys.weights());
    for j in order {
        lr.process(j, &dual_view[j as usize]);
    }
    let cover = lr.cover();
    debug_assert!(sys.covers(&cover), "local ratio must produce a cover");
    let weight = sys.cover_weight(&cover);
    Ok(CoverResult {
        cover,
        weight,
        lower_bound: lr.dual(),
        dual: lr.dual_vector(),
        iterations: 1,
    })
}

/// [`local_ratio_set_cover_with_order`] in natural element order.
pub fn local_ratio_set_cover(sys: &SetSystem) -> Result<CoverResult, String> {
    local_ratio_set_cover_with_order(sys, 0..sys.universe() as ElemId)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrlr_setsys::generators::{bounded_frequency, with_uniform_weights};

    #[test]
    fn covers_toy_instance() {
        // Sets: {0,1} w=1, {1,2} w=1, {2,3} w=1, {0,3} w=10
        let sys = SetSystem::new(
            4,
            vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![0, 3]],
            vec![1.0, 1.0, 1.0, 10.0],
        );
        let r = local_ratio_set_cover(&sys).unwrap();
        assert!(sys.covers(&r.cover));
        assert!(r.lower_bound <= r.weight + 1e-9);
        // f = 2 here, so certified ratio at most 2.
        assert!(r.certified_ratio() <= 2.0 + 1e-9);
    }

    #[test]
    fn dual_bounds_weight_by_f() {
        for seed in 0..5 {
            let sys = with_uniform_weights(bounded_frequency(30, 400, 3, seed), 1.0, 10.0, seed);
            let f = sys.max_frequency() as f64;
            let r = local_ratio_set_cover(&sys).unwrap();
            assert!(sys.covers(&r.cover));
            assert!(
                r.weight <= f * r.lower_bound + 1e-6,
                "w {} > f*dual {}",
                r.weight,
                f * r.lower_bound
            );
        }
    }

    #[test]
    fn order_invariance_of_guarantee() {
        let sys = with_uniform_weights(bounded_frequency(20, 200, 2, 3), 1.0, 5.0, 3);
        let forward = local_ratio_set_cover(&sys).unwrap();
        let backward =
            local_ratio_set_cover_with_order(&sys, (0..sys.universe() as ElemId).rev()).unwrap();
        for r in [&forward, &backward] {
            assert!(sys.covers(&r.cover));
            assert!(r.certified_ratio() <= 2.0 + 1e-9);
        }
    }

    #[test]
    fn skips_covered_elements() {
        let sys = SetSystem::new(2, vec![vec![0, 1]], vec![3.0]);
        let mut lr = ScLocalRatio::new(sys.weights());
        let t = sys.dual();
        assert_eq!(lr.process(0, &t[0]), Some(3.0));
        // Element 1 is covered by the zero-weight set now.
        assert_eq!(lr.process(1, &t[1]), None);
        assert_eq!(lr.cover(), vec![0]);
        assert!((lr.dual() - 3.0).abs() < 1e-12);
        // The transcript records the one reduction only.
        assert_eq!(lr.dual_vector(), vec![(0, 3.0)]);
    }

    #[test]
    fn infeasible_detected() {
        let sys = SetSystem::unit(2, vec![vec![0]]);
        assert!(local_ratio_set_cover(&sys).is_err());
    }

    #[test]
    #[should_panic(expected = "no set")]
    fn empty_tj_panics() {
        ScLocalRatio::new(&[1.0]).process(0, &[]);
    }
}
