//! Luby's randomized maximal independent set — the classical PRAM
//! algorithm (reference \[31\] of the paper), which translates to an
//! `O(log n)`-round MapReduce algorithm (one machine per processor).
//!
//! The paper's point (Section 1.2 / Section 6) is that such PRAM
//! simulations cost `Θ(log n)` rounds, missing the `O(1)`/`O(c/µ)` gold
//! standard its hungry-greedy technique achieves; this implementation
//! exists to measure exactly that round gap.

use mrlr_graph::{Graph, VertexId};
use mrlr_mapreduce::rng::mix_tags;
use mrlr_mapreduce::unit_f64;

/// Result of a Luby run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LubyResult {
    /// The maximal independent set, ascending.
    pub vertices: Vec<VertexId>,
    /// Synchronous rounds executed (each is `O(1)` MapReduce rounds).
    pub rounds: usize,
}

/// Runs Luby's algorithm: per round, every alive vertex draws a priority;
/// strict local minima join the independent set and their neighbourhoods
/// are removed.
pub fn luby_mis(g: &Graph, seed: u64) -> LubyResult {
    let n = g.n();
    let adj = g.adjacency();
    let mut alive = vec![true; n];
    let mut in_i = vec![false; n];
    let mut alive_count = n;
    let mut rounds = 0usize;

    while alive_count > 0 {
        rounds += 1;
        // Hash-derived per-round priorities (ties broken by id, which are
        // distinct, so minima are well defined).
        let prio = |v: usize| {
            (
                unit_f64(mix_tags(seed, &[0x6c75_6279, rounds as u64, v as u64])),
                v,
            )
        };
        let mut winners: Vec<usize> = Vec::new();
        for v in 0..n {
            if !alive[v] {
                continue;
            }
            let pv = prio(v);
            let is_min = adj[v]
                .iter()
                .filter(|&&(w, _)| alive[w as usize])
                .all(|&(w, _)| prio(w as usize) > pv);
            if is_min {
                winners.push(v);
            }
        }
        debug_assert!(
            !winners.is_empty(),
            "alive subgraph always has a local minimum"
        );
        for &v in &winners {
            in_i[v] = true;
            if alive[v] {
                alive[v] = false;
                alive_count -= 1;
            }
            for &(w, _) in &adj[v] {
                if alive[w as usize] {
                    alive[w as usize] = false;
                    alive_count -= 1;
                }
            }
        }
    }

    LubyResult {
        vertices: (0..n as VertexId).filter(|&v| in_i[v as usize]).collect(),
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrlr_core::verify::is_maximal_independent_set;
    use mrlr_graph::generators::{complete, densified, gnm, star};

    #[test]
    fn produces_maximal_independent_sets() {
        for seed in 0..8 {
            let g = gnm(60, 500, seed);
            let r = luby_mis(&g, seed);
            assert!(is_maximal_independent_set(&g, &r.vertices), "seed {seed}");
        }
    }

    #[test]
    fn rounds_scale_logarithmically() {
        // Luby needs O(log n) rounds w.h.p. — check a generous bound.
        for (n, c) in [(100usize, 0.3f64), (300, 0.3), (1000, 0.25)] {
            let g = densified(n, c, 7);
            let r = luby_mis(&g, 11);
            let bound = 6.0 * (n as f64).log2().ceil();
            assert!(
                (r.rounds as f64) < bound,
                "n={n}: {} rounds > {bound}",
                r.rounds
            );
        }
    }

    #[test]
    fn complete_graph_single_round_winner() {
        let g = complete(20);
        let r = luby_mis(&g, 3);
        assert_eq!(r.vertices.len(), 1);
        assert_eq!(r.rounds, 1);
    }

    #[test]
    fn star_and_edgeless() {
        let g = star(10);
        let r = luby_mis(&g, 5);
        assert!(is_maximal_independent_set(&g, &r.vertices));
        let empty = Graph::new(4, vec![]);
        let r = luby_mis(&empty, 5);
        assert_eq!(r.vertices.len(), 4);
        assert_eq!(r.rounds, 1);
    }

    #[test]
    fn deterministic() {
        let g = gnm(40, 200, 2);
        assert_eq!(luby_mis(&g, 9), luby_mis(&g, 9));
    }
}
