//! Structural statistics of set systems.
//!
//! The paper's set-cover bounds are phrased in the instance parameters
//! `f` (maximum element frequency), `Δ` (maximum set size) and the weight
//! spread `w_max/w_min`; the experiment harness reports these alongside the
//! measured rounds so every run is self-describing.

use crate::system::{ElemId, SetId, SetSystem};

/// Summary of a set system's structural parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemStats {
    /// Number of sets `n`.
    pub n_sets: usize,
    /// Universe size `m`.
    pub universe: usize,
    /// Total input size `Σ |S_i|`.
    pub total_size: usize,
    /// Maximum element frequency `f`.
    pub max_frequency: usize,
    /// Mean element frequency.
    pub mean_frequency: f64,
    /// Maximum set size `Δ`.
    pub max_set_size: usize,
    /// Mean set size.
    pub mean_set_size: f64,
    /// `w_max / w_min`.
    pub weight_spread: f64,
    /// Whether every element is coverable.
    pub coverable: bool,
}

/// Computes [`SystemStats`] for `sys`.
pub fn system_stats(sys: &SetSystem) -> SystemStats {
    let total = sys.total_size();
    SystemStats {
        n_sets: sys.n_sets(),
        universe: sys.universe(),
        total_size: total,
        max_frequency: sys.max_frequency(),
        mean_frequency: if sys.universe() == 0 {
            0.0
        } else {
            total as f64 / sys.universe() as f64
        },
        max_set_size: sys.max_set_size(),
        mean_set_size: if sys.n_sets() == 0 {
            0.0
        } else {
            total as f64 / sys.n_sets() as f64
        },
        weight_spread: sys.weight_spread(),
        coverable: sys.is_coverable(),
    }
}

/// Histogram of element frequencies: `hist[k]` counts elements contained in
/// exactly `k` sets (index 0 counts uncoverable elements) — the row
/// lengths of [`SetSystem::dual`].
pub fn frequency_histogram(sys: &SetSystem) -> Vec<usize> {
    length_histogram(sys.dual().iter().map(<[SetId]>::len), sys.max_frequency())
}

/// Histogram of set sizes: `hist[k]` counts sets of cardinality `k`.
pub fn set_size_histogram(sys: &SetSystem) -> Vec<usize> {
    length_histogram(sys.sets().iter().map(<[ElemId]>::len), sys.max_set_size())
}

/// `hist[k]` counts the `lens` equal to `k`, for `k` up to `max`.
fn length_histogram(lens: impl Iterator<Item = usize>, max: usize) -> Vec<usize> {
    let mut hist = vec![0usize; max + 1];
    for len in lens {
        hist[len] += 1;
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> SetSystem {
        SetSystem::new(
            4,
            vec![vec![0, 1, 2], vec![2, 3], vec![3]],
            vec![1.0, 2.0, 4.0],
        )
    }

    #[test]
    fn stats_summary() {
        let s = system_stats(&toy());
        assert_eq!(s.n_sets, 3);
        assert_eq!(s.universe, 4);
        assert_eq!(s.total_size, 6);
        assert_eq!(s.max_frequency, 2);
        assert!((s.mean_frequency - 1.5).abs() < 1e-12);
        assert_eq!(s.max_set_size, 3);
        assert!((s.mean_set_size - 2.0).abs() < 1e-12);
        assert!((s.weight_spread - 4.0).abs() < 1e-12);
        assert!(s.coverable);
    }

    #[test]
    fn frequency_histogram_counts() {
        // freq: e0:1, e1:1, e2:2, e3:2 → hist [0,2,2]
        assert_eq!(frequency_histogram(&toy()), vec![0, 2, 2]);
        // An uncoverable element lands in bucket 0.
        let partial = SetSystem::unit(3, vec![vec![0], vec![0, 1]]);
        assert_eq!(frequency_histogram(&partial), vec![1, 1, 1]);
    }

    #[test]
    fn set_size_histogram_counts() {
        assert_eq!(set_size_histogram(&toy()), vec![0, 1, 1, 1]);
    }

    #[test]
    fn empty_system_stats() {
        let empty = SetSystem::unit(0, vec![]);
        let s = system_stats(&empty);
        assert_eq!(s.n_sets, 0);
        assert_eq!(s.total_size, 0);
        assert_eq!(s.mean_frequency, 0.0);
        assert_eq!(s.mean_set_size, 0.0);
        assert!(s.coverable); // vacuously
        assert_eq!(frequency_histogram(&empty), vec![0]);
        assert_eq!(set_size_histogram(&empty), vec![0]);
    }
}
