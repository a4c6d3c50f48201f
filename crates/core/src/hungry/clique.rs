//! Appendix B: maximal clique via hungry-greedy *without complementing the
//! graph*.
//!
//! A maximal clique is a maximal independent set in the complement, but the
//! complement of a sparse graph has `Ω(n²)` edges and cannot be
//! materialized in `O(n^{1+µ})` memory. The paper's fix: maintain the
//! *active set* `A` (common neighbours of the clique so far). A vertex's
//! complement neighbourhood is `A \ N[v]`, of size
//! `d̄(v) = |A| − 1 − |N(v) ∩ A|`, which is exactly what gets communicated —
//! so each round touches only `O(n^{1+µ})` words even though the
//! complement is dense. The relabelling scheme of Appendix B is realized
//! here as the shrinking active set plus per-round removal deltas.
//!
//! The loop is [`crate::mr::clique::run`]: Algorithm 6's class schedule,
//! the one [`crate::mr::mis::run_fast`] runs, over the active-set state
//! instead of the MIS state. This module keeps its RNG tag.

/// Tag mixed into the clique sampling RNG.
pub const CLIQUE_RNG_TAG: u64 = 0x434c_4951;

#[cfg(test)]
mod tests {
    use crate::hungry::MisParams;
    use crate::mr::{clique, one_machine};
    use crate::types::SelectionResult;
    use crate::verify::is_maximal_clique;
    use mrlr_graph::generators::{complete, gnp, star};
    use mrlr_graph::Graph;
    use mrlr_mapreduce::MrResult;

    /// Corollary B.1's maximal clique, as the `Rlr` backend runs it.
    fn maximal_clique(g: &Graph, params: MisParams) -> MrResult<SelectionResult> {
        clique::run(g, params, one_machine(params.eta, params.seed)).map(|(r, _)| r)
    }

    #[test]
    fn complete_graph_full_clique() {
        let g = complete(15);
        let r = maximal_clique(&g, MisParams::mis2(15, 0.4, 1)).unwrap();
        assert_eq!(r.vertices.len(), 15);
        assert!(is_maximal_clique(&g, &r.vertices));
    }

    #[test]
    fn star_cliques_are_edges() {
        let g = star(10);
        let r = maximal_clique(&g, MisParams::mis2(10, 0.4, 2)).unwrap();
        assert_eq!(r.vertices.len(), 2);
        assert!(is_maximal_clique(&g, &r.vertices));
    }

    #[test]
    fn random_graphs_maximal() {
        for seed in 0..8 {
            let g = gnp(40, 0.5, seed);
            let r = maximal_clique(&g, MisParams::mis2(40, 0.3, seed)).unwrap();
            assert!(is_maximal_clique(&g, &r.vertices), "seed {seed}");
        }
    }

    #[test]
    fn dense_graphs_maximal() {
        for seed in 0..4 {
            let g = gnp(30, 0.85, seed);
            let r = maximal_clique(&g, MisParams::mis2(30, 0.3, seed)).unwrap();
            assert!(is_maximal_clique(&g, &r.vertices), "seed {seed}");
            assert!(r.vertices.len() >= 3);
        }
    }

    #[test]
    fn deterministic() {
        let g = gnp(25, 0.6, 9);
        let a = maximal_clique(&g, MisParams::mis2(25, 0.3, 5)).unwrap();
        let b = maximal_clique(&g, MisParams::mis2(25, 0.3, 5)).unwrap();
        assert_eq!(a.vertices, b.vertices);
    }

    #[test]
    fn edgeless_graph_single_vertex() {
        let g = Graph::new(6, vec![]);
        let r = maximal_clique(&g, MisParams::mis2(6, 0.3, 1)).unwrap();
        assert_eq!(r.vertices.len(), 1);
        assert!(is_maximal_clique(&g, &r.vertices));
    }

    /// The class schedule runs while the complement has `η` or more
    /// edges: star(5)'s complement is K4 on the leaves, C(5,2) − 4 = 6
    /// edges, so `η = 6` starts a round and `η = 7` finishes at once.
    #[test]
    fn complement_edge_count_matches() {
        let g = star(5);
        let params = |eta| MisParams {
            eta,
            ..MisParams::mis2(5, 0.4, 1)
        };
        assert!(maximal_clique(&g, params(6)).unwrap().phases >= 1);
        assert_eq!(maximal_clique(&g, params(7)).unwrap().phases, 0);
    }
}
