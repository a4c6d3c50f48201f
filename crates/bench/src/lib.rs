//! # mrlr-bench — the experiment harness
//!
//! Utilities shared by the `figure1`, `experiments` and `bench_*`
//! binaries: standard workloads, ratio measurement against exact
//! solvers or dual certificates, and markdown table rendering.

#![warn(missing_docs)]

pub mod sweep;
pub mod workloads;

use mrlr_core::exact;
use mrlr_graph::{generators, Graph};
use mrlr_mapreduce::DetRng;

/// A rendered table row: free-form cells.
#[derive(Debug, Clone)]
pub struct Row(pub Vec<String>);

/// Renders a markdown table.
pub fn render_table(headers: &[&str], rows: &[Row]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.0.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| {
        let mut line = String::from("|");
        for (c, w) in cells.iter().zip(widths) {
            line.push_str(&format!(" {c:<w$} |"));
        }
        line.push('\n');
        line
    };
    out.push_str(&fmt_row(
        &headers.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        &widths,
    ));
    out.push('|');
    for w in &widths {
        out.push_str(&format!("{:-<1$}|", "", w + 2));
    }
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(&row.0, &widths));
    }
    out
}

/// The standard weighted graph workload: `n` vertices, `m = n^{1+c}` edges,
/// uniform weights in `[1, 10)`.
pub fn weighted_graph(n: usize, c: f64, seed: u64) -> Graph {
    generators::with_uniform_weights(&generators::densified(n, c, seed), 1.0, 10.0, seed ^ 0x77)
}

/// Random positive vertex weights in `[1, 10)`.
pub fn vertex_weights(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = DetRng::derive(seed, &[0x0076_7773]);
    (0..n).map(|_| rng.f64_range(1.0, 10.0)).collect()
}

/// Measured approximation ratio of a minimization result against the best
/// known lower bound; for small instances the exact optimum.
pub fn min_ratio(weight: f64, lower_bound: f64) -> f64 {
    if lower_bound <= 0.0 {
        1.0
    } else {
        weight / lower_bound
    }
}

/// Cap applied by [`max_ratio`] when a maximization algorithm achieved
/// nothing against a positive optimum: the true ratio is unbounded, and an
/// `inf` would otherwise slam every downstream table/geomean. Flagged
/// variants report the clamp explicitly via [`max_ratio_flagged`].
pub const MAX_RATIO_CLAMP: f64 = 1e6;

/// Measured approximation ratio of a maximization result: `opt / achieved`.
///
/// Degenerate cases: `achieved == 0 && opt == 0` (empty but feasible
/// optimum) is a perfect `1.0`; `achieved == 0 && opt > 0` is clamped to
/// [`MAX_RATIO_CLAMP`] instead of `inf`. Use [`max_ratio_flagged`] when the
/// caller needs to know a clamp fired.
pub fn max_ratio(achieved: f64, opt: f64) -> f64 {
    max_ratio_flagged(achieved, opt).0
}

/// [`max_ratio`] plus a flag that is `true` iff the clamp fired — the
/// algorithm achieved nothing (or astronomically little) against a
/// positive optimum, so the reported value is the cap, not a measurement.
pub fn max_ratio_flagged(achieved: f64, opt: f64) -> (f64, bool) {
    if achieved <= 0.0 {
        if opt <= 0.0 {
            (1.0, false)
        } else {
            (MAX_RATIO_CLAMP, true)
        }
    } else {
        let ratio = opt / achieved;
        (ratio.min(MAX_RATIO_CLAMP), ratio > MAX_RATIO_CLAMP)
    }
}

/// Exact max-weight matching value on a small graph (`n ≤ 22`).
pub fn exact_matching_value(g: &Graph) -> f64 {
    exact::max_weight_matching(g).0
}

/// Geometric-mean helper for ratio summaries.
pub fn geometric_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let rows = vec![
            Row(vec!["a".into(), "bb".into()]),
            Row(vec!["ccc".into(), "d".into()]),
        ];
        let t = render_table(&["x", "yyyy"], &rows);
        assert!(t.contains("| x   | yyyy |"));
        assert!(t.contains("| ccc | d    |"));
        assert!(t.lines().count() == 4);
    }

    #[test]
    fn workloads_deterministic() {
        assert_eq!(weighted_graph(50, 0.3, 1), weighted_graph(50, 0.3, 1));
        assert_eq!(vertex_weights(10, 2), vertex_weights(10, 2));
    }

    #[test]
    fn ratio_helpers() {
        assert!((min_ratio(4.0, 2.0) - 2.0).abs() < 1e-12);
        assert!((max_ratio(5.0, 10.0) - 2.0).abs() < 1e-12);
        assert_eq!(max_ratio(0.0, 0.0), 1.0);
        let gm = geometric_mean(&[1.0, 4.0]);
        assert!((gm - 2.0).abs() < 1e-12);
    }

    #[test]
    fn max_ratio_clamps_and_flags_empty_against_positive_opt() {
        // Empty-but-feasible solution against a positive optimum: finite,
        // clamped, flagged — never inf.
        let (r, clamped) = max_ratio_flagged(0.0, 5.0);
        assert_eq!(r, MAX_RATIO_CLAMP);
        assert!(clamped);
        assert!(max_ratio(0.0, 5.0).is_finite());
        // Healthy case is not flagged.
        let (r, clamped) = max_ratio_flagged(5.0, 10.0);
        assert!((r - 2.0).abs() < 1e-12);
        assert!(!clamped);
        // Astronomically bad—but nonzero—solutions also stay finite, and
        // the clamp is reported there too.
        let (r, clamped) = max_ratio_flagged(1e-300, 1e300);
        assert_eq!(r, MAX_RATIO_CLAMP);
        assert!(clamped);
    }
}
