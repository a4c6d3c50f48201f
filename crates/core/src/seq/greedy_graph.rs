//! Sequential greedy graph algorithms: maximal independent set, maximal
//! clique, and (Δ+1) vertex colouring.
//!
//! These are the classical one-pass algorithms: the baselines the paper's
//! hungry-greedy technique parallelizes (MIS, clique) and the per-group
//! subroutine of Algorithm 5 (colouring).

use mrlr_graph::{Graph, VertexId};

use crate::types::{ColouringResult, SelectionResult};

/// Greedy maximal independent set, scanning vertices in `order`.
pub fn greedy_mis_with_order(g: &Graph, order: &[VertexId]) -> SelectionResult {
    let adj = g.adjacency();
    let mut blocked = vec![false; g.n()];
    let mut chosen = vec![false; g.n()];
    for &v in order {
        if !blocked[v as usize] {
            chosen[v as usize] = true;
            blocked[v as usize] = true;
            for &(w, _) in &adj[v as usize] {
                blocked[w as usize] = true;
            }
        }
    }
    SelectionResult {
        vertices: (0..g.n() as VertexId)
            .filter(|&v| chosen[v as usize])
            .collect(),
        phases: 1,
        iterations: 1,
    }
}

/// Greedy maximal independent set in natural vertex order.
pub fn greedy_mis(g: &Graph) -> SelectionResult {
    let order: Vec<VertexId> = (0..g.n() as VertexId).collect();
    greedy_mis_with_order(g, &order)
}

/// Greedy maximal clique, scanning vertices in `order`: keeps a clique `K`
/// and its common-neighbour set, adding each scanned vertex that is
/// adjacent to all of `K`.
pub fn greedy_maximal_clique_with_order(g: &Graph, order: &[VertexId]) -> SelectionResult {
    let adj = g.adjacency();
    let n = g.n();
    if n == 0 {
        return SelectionResult {
            vertices: vec![],
            phases: 1,
            iterations: 1,
        };
    }
    // active[v]: v is adjacent to every clique member (candidates).
    let mut active = vec![true; n];
    let mut clique: Vec<VertexId> = Vec::new();
    for &v in order {
        if !active[v as usize] {
            continue;
        }
        clique.push(v);
        // New candidate set: active ∩ N(v).
        let mut next = vec![false; n];
        for &(w, _) in &adj[v as usize] {
            if active[w as usize] {
                next[w as usize] = true;
            }
        }
        next[v as usize] = false;
        active = next;
    }
    clique.sort_unstable();
    SelectionResult {
        vertices: clique,
        phases: 1,
        iterations: 1,
    }
}

/// Greedy maximal clique in natural vertex order.
pub fn greedy_maximal_clique(g: &Graph) -> SelectionResult {
    let order: Vec<VertexId> = (0..g.n() as VertexId).collect();
    greedy_maximal_clique_with_order(g, &order)
}

/// Greedy vertex colouring in `order`: each vertex takes the smallest
/// colour unused by its neighbours. Uses at most `Δ+1` colours.
pub fn greedy_colouring_with_order(g: &Graph, order: &[VertexId]) -> ColouringResult {
    let adj = g.adjacency();
    let n = g.n();
    let mut colour = vec![u32::MAX; n];
    let mut used_mark = vec![usize::MAX; g.max_degree() + 2];
    for (step, &v) in order.iter().enumerate() {
        for &(w, _) in &adj[v as usize] {
            let c = colour[w as usize];
            if c != u32::MAX {
                used_mark[c as usize] = step;
            }
        }
        let mut c = 0u32;
        while used_mark[c as usize] == step {
            c += 1;
        }
        colour[v as usize] = c;
    }
    // Vertices outside `order` stay uncoloured (u32::MAX) and don't count.
    let num_colours = colour
        .iter()
        .filter(|&&c| c != u32::MAX)
        .map(|&c| c as usize + 1)
        .max()
        .unwrap_or(0);
    ColouringResult {
        colours: colour,
        num_colours,
        groups: 1,
    }
}

/// Greedy vertex colouring in natural order.
pub fn greedy_colouring(g: &Graph) -> ColouringResult {
    let order: Vec<VertexId> = (0..g.n() as VertexId).collect();
    greedy_colouring_with_order(g, &order)
}

/// Greedy colouring along a **degeneracy ordering** (smallest-last): uses at
/// most `degeneracy(g) + 1` colours — often far fewer than `Δ + 1`, e.g. on
/// the power-law "social network" families where `Δ ≫ degeneracy`. The
/// sequential quality reference for the Section 6 experiments.
pub fn degeneracy_colouring(g: &Graph) -> ColouringResult {
    let (_, ordering, _) = mrlr_graph::algo::core_decomposition(g);
    // Peeling order removes low-degree vertices first; colouring must go in
    // the *reverse* order so each vertex sees at most `degeneracy` coloured
    // neighbours when its turn comes.
    let order: Vec<VertexId> = ordering.into_iter().rev().collect();
    greedy_colouring_with_order(g, &order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{is_maximal_clique, is_maximal_independent_set, is_proper_colouring};
    use mrlr_graph::generators::{complete, cycle, gnm, gnp, star};

    #[test]
    fn mis_on_star_depends_on_order() {
        let g = star(5);
        // Centre first: MIS = {0}.
        let r = greedy_mis(&g);
        assert_eq!(r.vertices, vec![0]);
        assert!(is_maximal_independent_set(&g, &r.vertices));
        // Leaves first: MIS = all leaves.
        let order: Vec<VertexId> = vec![1, 2, 3, 4, 0];
        let r = greedy_mis_with_order(&g, &order);
        assert_eq!(r.vertices, vec![1, 2, 3, 4]);
        assert!(is_maximal_independent_set(&g, &r.vertices));
    }

    #[test]
    fn mis_random_graphs_maximal() {
        for seed in 0..6 {
            let g = gnm(40, 150, seed);
            let r = greedy_mis(&g);
            assert!(is_maximal_independent_set(&g, &r.vertices));
        }
    }

    #[test]
    fn clique_on_complete_takes_everything() {
        let g = complete(6);
        let r = greedy_maximal_clique(&g);
        assert_eq!(r.vertices.len(), 6);
        assert!(is_maximal_clique(&g, &r.vertices));
    }

    #[test]
    fn clique_random_graphs_maximal() {
        for seed in 0..6 {
            let g = gnp(30, 0.4, seed);
            let r = greedy_maximal_clique(&g);
            assert!(is_maximal_clique(&g, &r.vertices), "seed {seed}");
        }
    }

    #[test]
    fn clique_empty_graph() {
        let g = Graph::new(4, vec![]);
        let r = greedy_maximal_clique(&g);
        assert_eq!(r.vertices.len(), 1); // a single vertex is a maximal clique
        assert!(is_maximal_clique(&g, &r.vertices));
    }

    #[test]
    fn colouring_cycle() {
        // Even cycle: 2 colours; odd cycle: 3 (greedy may use up to 3).
        let g = cycle(6);
        let r = greedy_colouring(&g);
        assert!(is_proper_colouring(&g, &r.colours));
        assert!(r.num_colours <= 3);
        let g = cycle(7);
        let r = greedy_colouring(&g);
        assert!(is_proper_colouring(&g, &r.colours));
        assert!(r.num_colours <= 3);
    }

    #[test]
    fn colouring_uses_at_most_delta_plus_one() {
        for seed in 0..6 {
            let g = gnm(50, 300, seed);
            let r = greedy_colouring(&g);
            assert!(is_proper_colouring(&g, &r.colours));
            assert!(r.num_colours <= g.max_degree() + 1);
        }
    }

    #[test]
    fn degeneracy_colouring_respects_core_bound() {
        for seed in 0..5 {
            let g = gnm(40, 150, seed);
            let r = degeneracy_colouring(&g);
            assert!(is_proper_colouring(&g, &r.colours));
            let d = mrlr_graph::algo::degeneracy(&g);
            assert!(
                r.num_colours <= d + 1,
                "seed {seed}: {} colours > degeneracy {} + 1",
                r.num_colours,
                d
            );
        }
        // Power-law hubs: degeneracy ordering beats Delta + 1 by a lot.
        let hubby = star(50);
        let r = degeneracy_colouring(&hubby);
        assert_eq!(r.num_colours, 2);
    }
}
