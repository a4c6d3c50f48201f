//! Weighted set systems: the primal (`S_i ⊆ [m]`) and dual (`T_j = {i : j ∈
//! S_i}`) views used by the paper's set-cover algorithms.
//!
//! A [`SetSystem`] keeps its sets as one flat [`Csr`] arena, row `i` being
//! `S_i`. The dual, [`SetSystem::dual`], is another arena derived from it
//! on first use (count → prefix-sum → scatter, [`Csr::invert`]) and kept
//! for the system's lifetime; every frequency fact — `f`, coverability,
//! the frequency histogram, the placement of `T_j` rows on machines — is
//! read off its row lengths, so element frequency is counted in one place.

use std::sync::OnceLock;

use mrlr_graph::Graph;
use mrlr_mapreduce::Csr;

/// Index of a set: `0..n_sets`.
pub type SetId = u32;

/// Index of a universe element: `0..universe`.
pub type ElemId = u32;

/// A weighted set system over universe `[m]`.
#[derive(Debug, Clone)]
pub struct SetSystem {
    universe: usize,
    /// Row `i` is `S_i`, ascending.
    sets: Csr<ElemId>,
    weights: Vec<f64>,
    /// [`SetSystem::dual`], derived from `sets` on first use. No method
    /// takes `&mut self`, so once built it is the dual of this system for
    /// good.
    dual: OnceLock<Csr<SetId>>,
}

/// Two systems are equal when their universes, sets and weights are;
/// whether either has built its dual yet is not part of its value.
impl PartialEq for SetSystem {
    fn eq(&self, other: &Self) -> bool {
        self.universe == other.universe && self.sets == other.sets && self.weights == other.weights
    }
}

impl SetSystem {
    /// Builds a set system, validating element ranges, sortedness and
    /// distinctness of each set, and weight positivity. `sets` is the flat
    /// arena, or nested rows (`vec![vec![…]]`) flattened into one.
    ///
    /// # Panics
    /// Panics on malformed input (generators construct these; a bad system
    /// is a programming error).
    pub fn new(universe: usize, sets: impl Into<Csr<ElemId>>, weights: Vec<f64>) -> Self {
        let sets = sets.into();
        assert_eq!(sets.rows(), weights.len(), "one weight per set");
        assert!(sets.rows() <= SetId::MAX as usize, "set ids exceed u32");
        for (i, s) in sets.iter().enumerate() {
            for pair in s.windows(2) {
                assert!(pair[0] < pair[1], "set {i} not sorted-distinct");
            }
            if let Some(&last) = s.last() {
                assert!((last as usize) < universe, "set {i} element out of range");
            }
        }
        for (i, &w) in weights.iter().enumerate() {
            assert!(
                w.is_finite() && w > 0.0,
                "weight of set {i} must be positive"
            );
        }
        SetSystem {
            universe,
            sets,
            weights,
            dual: OnceLock::new(),
        }
    }

    /// Builds a unit-weight system.
    pub fn unit(universe: usize, sets: impl Into<Csr<ElemId>>) -> Self {
        let sets = sets.into();
        let n = sets.rows();
        SetSystem::new(universe, sets, vec![1.0; n])
    }

    /// Replaces the weights, validated as [`SetSystem::new`] does.
    pub fn with_weights(self, weights: Vec<f64>) -> Self {
        SetSystem::new(self.universe, self.sets, weights)
    }

    /// Number of sets `n`.
    pub fn n_sets(&self) -> usize {
        self.sets.rows()
    }

    /// Universe size `m`.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// All sets: row `i` is `S_i`, ascending.
    pub fn sets(&self) -> &Csr<ElemId> {
        &self.sets
    }

    /// Elements of set `i`.
    pub fn set(&self, i: SetId) -> &[ElemId] {
        self.sets.row(i as usize)
    }

    /// All weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Weight of set `i`.
    pub fn weight(&self, i: SetId) -> f64 {
        self.weights[i as usize]
    }

    /// The dual view: row `j` is `T_j`, the sets containing element `j`
    /// in ascending set order. Built from the sets by the first call;
    /// every later call, from any thread, returns the same rows. It has
    /// `universe()` rows, so a caller holding untrusted input builds it
    /// only once `total_size() ≥ universe()` bounds that by the input.
    pub fn dual(&self) -> &Csr<SetId> {
        self.dual.get_or_init(|| {
            self.sets
                .invert(self.universe, |&j| j as usize)
                .expect("`new` bounds the set ids by u32")
        })
    }

    /// Maximum frequency `f = max_j |T_j|`.
    pub fn max_frequency(&self) -> usize {
        self.dual().iter().map(<[SetId]>::len).max().unwrap_or(0)
    }

    /// Maximum set size `Δ = max_i |S_i|`.
    pub fn max_set_size(&self) -> usize {
        self.sets.iter().map(<[ElemId]>::len).max().unwrap_or(0)
    }

    /// Total input size `Σ |S_i|`.
    pub fn total_size(&self) -> usize {
        self.sets.len()
    }

    /// Weight spread `w_max / w_min` (1.0 when there are no sets).
    pub fn weight_spread(&self) -> f64 {
        if self.weights.is_empty() {
            return 1.0;
        }
        let max = self.weights.iter().cloned().fold(0.0f64, f64::max);
        let min = self.weights.iter().cloned().fold(f64::INFINITY, f64::min);
        max / min
    }

    /// True if every element is contained in at least one set: no row of
    /// the dual is empty. Fewer items than elements decide it before the
    /// dual is built, so a universe the sets cannot fill sizes nothing.
    pub fn is_coverable(&self) -> bool {
        self.total_size() >= self.universe && self.dual().iter().all(|t| !t.is_empty())
    }

    /// True if the chosen sets cover the universe. Like
    /// [`SetSystem::is_coverable`], sizes nothing by a universe the sets
    /// cannot fill.
    pub fn covers(&self, chosen: &[SetId]) -> bool {
        if self.total_size() < self.universe {
            return false;
        }
        let mut covered = vec![false; self.universe];
        for &i in chosen {
            for &j in self.set(i) {
                covered[j as usize] = true;
            }
        }
        covered.into_iter().all(|c| c)
    }

    /// Total weight of the chosen sets (each counted once even if repeated).
    pub fn cover_weight(&self, chosen: &[SetId]) -> f64 {
        let mut picked = vec![false; self.n_sets()];
        let mut total = 0.0;
        for &i in chosen {
            if !picked[i as usize] {
                picked[i as usize] = true;
                total += self.weight(i);
            }
        }
        total
    }

    /// The weighted **vertex cover** view of a graph: one set per vertex
    /// (weight from `weights`), one universe element per edge. Frequency is
    /// exactly 2 — the `f = 2` special case of Theorem 2.4. Set `v` is
    /// row `v` of the graph's adjacency, whose edge ids already ascend.
    pub fn vertex_cover_of(g: &Graph, weights: Vec<f64>) -> Self {
        assert_eq!(weights.len(), g.n());
        let adj = g.adjacency();
        let mut sets = Csr::builder(adj.iter().map(<[_]>::len), 0)
            .expect("the adjacency's own offsets bound it");
        for (v, row) in adj.iter().enumerate() {
            for &(_, e) in row {
                sets.push(v, e);
            }
        }
        SetSystem::new(g.m(), sets.finish(), weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrlr_graph::generators::{densified, star};

    fn toy() -> SetSystem {
        SetSystem::new(
            4,
            vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![0, 3]],
            vec![1.0, 2.0, 3.0, 4.0],
        )
    }

    #[test]
    fn accessors() {
        let s = toy();
        assert_eq!(s.n_sets(), 4);
        assert_eq!(s.universe(), 4);
        assert_eq!(s.set(1), &[1, 2]);
        assert_eq!(s.weight(3), 4.0);
        assert_eq!(s.max_frequency(), 2);
        assert_eq!(s.max_set_size(), 2);
        assert_eq!(s.total_size(), 8);
        assert!((s.weight_spread() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn dual_inverts() {
        let s = toy();
        let t = s.dual();
        assert_eq!(
            t.iter().collect::<Vec<_>>(),
            [[0, 3], [0, 1], [1, 2], [2, 3]]
        );
    }

    #[test]
    fn coverage_checks() {
        let s = toy();
        assert!(s.is_coverable());
        assert!(s.covers(&[0, 2]));
        assert!(!s.covers(&[0, 1]));
        assert!((s.cover_weight(&[0, 2]) - 4.0).abs() < 1e-12);
        // duplicates counted once
        assert!((s.cover_weight(&[0, 0, 2]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn uncoverable_detected() {
        let s = SetSystem::unit(3, vec![vec![0], vec![1]]);
        assert!(!s.is_coverable());
    }

    #[test]
    #[should_panic(expected = "sorted-distinct")]
    fn rejects_unsorted() {
        SetSystem::unit(3, vec![vec![1, 0]]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        SetSystem::unit(3, vec![vec![0, 5]]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_bad_weight() {
        SetSystem::new(2, vec![vec![0]], vec![-1.0]);
    }

    /// The per-vertex construction `vertex_cover_of` replaced: one
    /// pushed row per vertex, edge ids in ascending order.
    fn per_vertex_sets(g: &Graph) -> Vec<Vec<ElemId>> {
        let mut sets = vec![Vec::new(); g.n()];
        for (j, e) in g.edges().iter().enumerate() {
            sets[e.u as usize].push(j as ElemId);
            sets[e.v as usize].push(j as ElemId);
        }
        sets
    }

    #[test]
    fn vertex_cover_view() {
        let g = star(4); // edges (0,1), (0,2), (0,3)
        let s = SetSystem::vertex_cover_of(&g, vec![10.0, 1.0, 1.0, 1.0]);
        assert_eq!(s.universe(), 3);
        assert_eq!(s.max_frequency(), 2);
        assert_eq!(s.set(0), &[0, 1, 2]);
        assert!(s.covers(&[0]));
        assert!(!s.covers(&[1, 2]));
        assert!(s.covers(&[1, 2, 3]));
        for g in [g, densified(60, 0.4, 7)] {
            let s = SetSystem::vertex_cover_of(&g, vec![1.0; g.n()]);
            assert_eq!(s.sets(), &Csr::from(per_vertex_sets(&g)));
        }
    }
}
