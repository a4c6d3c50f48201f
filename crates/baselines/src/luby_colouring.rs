//! Luby-style randomized `(Δ+1)`-vertex colouring — reference \[32\] of the
//! paper (Section 6: Luby's MIS and colouring "have clean MapReduce
//! implementations by using one machine per processor", costing `Θ(log n)`
//! rounds).
//!
//! Per round, every uncoloured vertex draws a uniform candidate from its
//! remaining palette (`{0..d(v)+1}` minus neighbours' final colours); a
//! vertex keeps its candidate iff no uncoloured neighbour drew the same one
//! this round. A constant fraction of vertices finalize per round in
//! expectation, giving `O(log n)` rounds w.h.p. — the round bill the
//! paper's Algorithm 5 avoids.

use mrlr_graph::Graph;
use mrlr_mapreduce::rng::{mix_tags, DetRng};

/// Result of a Luby colouring run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LubyColouringResult {
    /// Colour per vertex, in `0..=Δ`.
    pub colours: Vec<u32>,
    /// Number of distinct colours used.
    pub num_colours: usize,
    /// Synchronous rounds executed (each is `O(1)` MapReduce rounds).
    pub rounds: usize,
}

/// Runs the randomized `(Δ+1)`-colouring. Deterministic in `seed`.
pub fn luby_colouring(g: &Graph, seed: u64) -> LubyColouringResult {
    let n = g.n();
    let adj = g.adjacency();
    let deg = g.degrees();
    let mut colour: Vec<Option<u32>> = vec![None; n];
    let mut uncoloured = n;
    let mut rounds = 0usize;

    while uncoloured > 0 {
        rounds += 1;
        // Draw candidates: uniform over the palette minus finalized
        // neighbour colours. Hash-derived per (seed, round, vertex).
        let mut candidate: Vec<Option<u32>> = vec![None; n];
        for v in 0..n {
            if colour[v].is_some() {
                continue;
            }
            let palette_size = deg[v] as u32 + 1;
            let mut taken: Vec<u32> = adj[v]
                .iter()
                .filter_map(|&(w, _)| colour[w as usize])
                .filter(|&c| c < palette_size)
                .collect();
            taken.sort_unstable();
            taken.dedup();
            let free = palette_size as usize - taken.len();
            debug_assert!(free > 0, "palette of size d(v)+1 cannot exhaust");
            let mut rng = DetRng::new(mix_tags(seed, &[0x6c63_6f6c, rounds as u64, v as u64]));
            let pick = rng.range_usize(free) as u32;
            // The pick-th free colour in the palette.
            let mut c = 0u32;
            let mut skipped = 0u32;
            let mut ti = 0usize;
            loop {
                if ti < taken.len() && taken[ti] == c {
                    ti += 1;
                    c += 1;
                    continue;
                }
                if skipped == pick {
                    break;
                }
                skipped += 1;
                c += 1;
            }
            candidate[v] = Some(c);
        }
        // Keep candidates that no uncoloured neighbour shares.
        for v in 0..n {
            let Some(c) = candidate[v] else { continue };
            let conflict = adj[v]
                .iter()
                .any(|&(w, _)| colour[w as usize].is_none() && candidate[w as usize] == Some(c));
            if !conflict {
                colour[v] = Some(c);
                uncoloured -= 1;
            }
        }
        assert!(
            rounds <= 64 + 8 * n,
            "Luby colouring failed to converge (bug, not bad luck)"
        );
    }

    let colours: Vec<u32> = colour
        .into_iter()
        .map(|c| c.expect("all coloured"))
        .collect();
    let num_colours = {
        let mut cs = colours.clone();
        cs.sort_unstable();
        cs.dedup();
        cs.len()
    };
    LubyColouringResult {
        colours,
        num_colours,
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrlr_core::verify::is_proper_colouring;
    use mrlr_graph::generators::{complete, cycle, gnm, path, star};

    #[test]
    fn proper_within_delta_plus_one() {
        for seed in 0..6 {
            let g = gnm(60, 400, seed);
            let r = luby_colouring(&g, seed);
            assert!(is_proper_colouring(&g, &r.colours), "seed {seed}");
            assert!(
                r.colours.iter().all(|&c| (c as usize) <= g.max_degree()),
                "colour outside palette"
            );
            assert!(r.num_colours <= g.max_degree() + 1);
        }
    }

    #[test]
    fn fixed_topologies() {
        let r = luby_colouring(&complete(8), 3);
        assert_eq!(r.num_colours, 8);
        assert!(is_proper_colouring(&complete(8), &r.colours));
        let r = luby_colouring(&star(20), 4);
        assert!(r.num_colours <= 20);
        assert!(is_proper_colouring(&star(20), &r.colours));
        let r = luby_colouring(&path(10), 5);
        assert!(r.num_colours <= 3);
        let r = luby_colouring(&cycle(9), 6);
        assert!(r.num_colours <= 3);
        // Edgeless: everyone finalizes colour 0 in one round.
        let g = Graph::new(5, vec![]);
        let r = luby_colouring(&g, 1);
        assert_eq!(r.num_colours, 1);
        assert_eq!(r.rounds, 1);
    }

    #[test]
    fn rounds_grow_slowly() {
        // O(log n): a 16x larger instance should cost only a few more
        // rounds, far from 16x.
        let small = luby_colouring(&gnm(50, 200, 7), 7);
        let large = luby_colouring(&gnm(800, 3200, 7), 7);
        assert!(
            large.rounds <= small.rounds + 12,
            "{} vs {}",
            large.rounds,
            small.rounds
        );
        assert!(large.rounds <= 40);
    }

    #[test]
    fn deterministic_in_seed() {
        let g = gnm(40, 200, 2);
        assert_eq!(luby_colouring(&g, 9), luby_colouring(&g, 9));
        let a = luby_colouring(&g, 1);
        let b = luby_colouring(&g, 2);
        assert!(a.colours != b.colours || a.rounds != b.rounds);
    }
}
