//! Misra & Gries edge colouring: a constructive proof of Vizing's theorem
//! colouring any simple graph with at most `Δ + 1` colours.
//!
//! This is the per-group subroutine of the paper's `(1+o(1))Δ` edge
//! colouring (Remark 6.5 / Theorem 6.6): edges are randomly partitioned
//! into `κ` groups, each group is shipped to one machine, and that machine
//! runs this algorithm with a private palette of `Δ_i + 1` colours.
//!
//! Algorithm (per uncoloured edge `{u, v}`):
//! 1. build a *maximal fan* `F = [f_0 = v, f_1, …, f_k]` of `u`: each
//!    `(u, f_{i+1})` is coloured and its colour is free at `f_i`;
//! 2. pick `c` free at `u` and `d` free at `f_k`;
//! 3. invert the maximal `cd`-path through `u` (after which `d` is free at
//!    `u`);
//! 4. find the first fan prefix `[f_0 … f_j]` (still a valid fan after the
//!    inversion) with `d` free at `f_j`; rotate the prefix and colour
//!    `(u, f_j)` with `d`.

use mrlr_graph::{EdgeId, Graph, VertexId};
use mrlr_mapreduce::Csr;

use crate::types::ColouringResult;

const NONE: u32 = u32::MAX;

struct Palette {
    /// `at[v · colours + c]` = edge id coloured `c` at `v`, or `NONE`.
    at: Vec<u32>,
    /// Colour of each edge, or `NONE`.
    colour: Vec<u32>,
    colours: usize,
    /// `in_fan[v] == epoch` ⟺ `v` is in the fan of the edge being coloured.
    /// One epoch per edge, so the array is never cleared; `m < 2^31` keeps
    /// the stamp from wrapping.
    in_fan: Vec<u32>,
    epoch: u32,
    /// Scratch reused across edges: the fan, and the `cd`-path as `(edge,
    /// colour it takes after the inversion)`.
    fan: Vec<(VertexId, EdgeId)>,
    path: Vec<(EdgeId, u32)>,
}

impl Palette {
    fn new(n: usize, m: usize, colours: usize) -> Self {
        Palette {
            at: vec![NONE; n * colours],
            colour: vec![NONE; m],
            colours,
            in_fan: vec![0; n],
            epoch: 0,
            fan: Vec::new(),
            path: Vec::new(),
        }
    }

    #[inline]
    fn slot(&self, v: VertexId, c: u32) -> usize {
        v as usize * self.colours + c as usize
    }

    fn is_free(&self, v: VertexId, c: u32) -> bool {
        self.at[self.slot(v, c)] == NONE
    }

    /// Smallest colour free at `v` (exists because palette size is Δ+1).
    fn free_colour(&self, v: VertexId) -> u32 {
        let row = &self.at[self.slot(v, 0)..][..self.colours];
        row.iter()
            .position(|&e| e == NONE)
            .expect("palette of size Delta+1 always has a free colour") as u32
    }

    fn set(&mut self, g: &Graph, e: EdgeId, c: u32) {
        let edge = g.edge(e);
        debug_assert!(self.is_free(edge.u, c) && self.is_free(edge.v, c));
        self.colour[e as usize] = c;
        let (su, sv) = (self.slot(edge.u, c), self.slot(edge.v, c));
        self.at[su] = e;
        self.at[sv] = e;
    }

    fn unset(&mut self, g: &Graph, e: EdgeId) -> u32 {
        let c = self.colour[e as usize];
        debug_assert_ne!(c, NONE);
        let edge = g.edge(e);
        self.colour[e as usize] = NONE;
        let (su, sv) = (self.slot(edge.u, c), self.slot(edge.v, c));
        self.at[su] = NONE;
        self.at[sv] = NONE;
        c
    }
}

/// Colours `g` with at most `max_degree + 1` colours. Returns one colour
/// per edge.
pub fn misra_gries_edge_colouring(g: &Graph) -> ColouringResult {
    let delta = g.max_degree();
    let colours = delta + 1;
    let mut p = Palette::new(g.n(), g.m(), colours);
    let adj = g.adjacency();

    for eid in 0..g.m() as EdgeId {
        colour_edge(g, adj, &mut p, eid);
    }

    let num_colours = p.colour.iter().map(|&c| c as usize + 1).max().unwrap_or(0);
    ColouringResult {
        colours: p.colour,
        num_colours,
        groups: 1,
    }
}

fn colour_edge(g: &Graph, adj: &Csr<(VertexId, EdgeId)>, p: &mut Palette, eid: EdgeId) {
    let (u, v) = {
        let e = g.edge(eid);
        (e.u, e.v)
    };

    // 1. Maximal fan of u starting at v. fan[i] = (vertex, edge id of (u, fan[i])).
    let mut fan = std::mem::take(&mut p.fan);
    fan.clear();
    fan.push((v, eid));
    p.epoch += 1;
    let epoch = p.epoch;
    p.in_fan[v as usize] = epoch;
    loop {
        let last = fan.last().unwrap().0;
        // A neighbour w of u extends the fan if (u,w) is coloured with a
        // colour free at `last`.
        let mut extended = false;
        for &(w, we) in &adj[u as usize] {
            if p.in_fan[w as usize] == epoch {
                continue;
            }
            let c = p.colour[we as usize];
            if c != NONE && p.is_free(last, c) {
                fan.push((w, we));
                p.in_fan[w as usize] = epoch;
                extended = true;
                break;
            }
        }
        if !extended {
            break;
        }
    }

    // 2. c free at u, d free at the fan's last vertex.
    let c = p.free_colour(u);
    let d = p.free_colour(fan.last().unwrap().0);

    if c != d {
        // 3. Invert the maximal cd-path starting at u: follow colour d from
        // u, then alternate c, d, swapping colours along the way.
        invert_cd_path(g, p, u, c, d);
    }
    // Now d is free at u (if c == d it was already).

    // 4. First fan prefix, valid post-inversion, whose tip has d free.
    let mut j = 0usize;
    loop {
        // Validity of prefix up to j: for i < j, colour(u, fan[i+1]) free at
        // fan[i]. We re-check incrementally as we advance.
        if p.is_free(fan[j].0, d) {
            break;
        }
        assert!(
            j + 1 < fan.len(),
            "Misra-Gries invariant violated: no fan prefix with d free"
        );
        let next_colour = p.colour[fan[j + 1].1 as usize];
        if next_colour == NONE || !p.is_free(fan[j].0, next_colour) {
            // The inversion broke the fan here; theory guarantees d is free
            // at fan[j] in that case — the assert above would have fired.
            // Defensive: fall back to re-scanning from scratch.
            panic!("Misra-Gries fan broke before a d-free tip was found");
        }
        j += 1;
    }

    // Rotate the prefix [0..=j]: edge (u, fan[i]) takes the colour of
    // (u, fan[i+1]); (u, fan[j]) becomes d.
    for i in 0..j {
        let ci = p.unset(g, fan[i + 1].1);
        p.set(g, fan[i].1, ci);
    }
    p.set(g, fan[j].1, d);
    p.fan = fan;
}

/// Inverts the maximal path starting at `u` whose first edge has colour `d`
/// and which alternates `d, c, d, …`. After inversion `d` is free at `u`.
fn invert_cd_path(g: &Graph, p: &mut Palette, u: VertexId, c: u32, d: u32) {
    // Collect the path.
    let mut path = std::mem::take(&mut p.path);
    path.clear();
    let mut cur = u;
    let mut want = d;
    loop {
        let e = p.at[p.slot(cur, want)];
        if e == NONE {
            break;
        }
        let flipped = if want == d { c } else { d };
        path.push((e, flipped));
        cur = g.edge(e).other(cur);
        want = flipped;
    }
    // Swap colours along the path: unset all, then reset flipped.
    for &(e, _) in &path {
        p.unset(g, e);
    }
    for &(e, flipped) in &path {
        p.set(g, e, flipped);
    }
    p.path = path;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::misra_gries_oracle;
    use crate::verify::is_proper_edge_colouring;
    use mrlr_graph::generators::{
        complete, complete_bipartite, cycle, densified, gnm, gnp, path, star,
    };

    fn check(g: &Graph) {
        let r = misra_gries_edge_colouring(g);
        assert!(
            is_proper_edge_colouring(g, &r.colours),
            "improper colouring on n={} m={}",
            g.n(),
            g.m()
        );
        assert!(
            r.num_colours <= g.max_degree() + 1,
            "used {} colours for Delta {}",
            r.num_colours,
            g.max_degree()
        );
    }

    #[test]
    fn simple_topologies() {
        check(&path(2));
        check(&path(10));
        check(&cycle(4));
        check(&cycle(7)); // odd cycle needs Delta+1 = 3
        check(&star(10));
        check(&complete(4));
        check(&complete(7)); // odd complete graph needs Delta+1
        check(&complete_bipartite(3, 5));
        check(&Graph::new(5, vec![]));
    }

    #[test]
    fn odd_cycle_needs_three() {
        let r = misra_gries_edge_colouring(&cycle(5));
        assert_eq!(r.num_colours, 3);
    }

    #[test]
    fn bipartite_often_delta() {
        // König: bipartite graphs are Δ-edge-colourable; MG guarantees only
        // Δ+1 but must stay within it.
        let g = complete_bipartite(4, 4);
        let r = misra_gries_edge_colouring(&g);
        assert!(r.num_colours <= 5);
        assert!(is_proper_edge_colouring(&g, &r.colours));
    }

    #[test]
    fn random_graphs_proper() {
        for seed in 0..10 {
            check(&gnm(30, 120, seed));
            check(&gnp(20, 0.5, seed));
        }
    }

    /// Flat palette, epoch stamp and reused scratch change no decision: the
    /// colours equal the allocating reference's, edge for edge.
    #[test]
    fn colours_equal_the_allocating_reference() {
        let mut cases = vec![complete(9), complete(12), Graph::new(7, vec![])];
        for seed in 0..6 {
            cases.push(gnm(30, 120, seed));
            cases.push(gnp(24, 0.6, seed));
            cases.push(densified(40, 0.5, seed));
        }
        // Most vertices isolated: the cluster colouring hands every group a
        // sub-graph over all `n` vertex ids.
        let sparse = gnm(12, 40, 3);
        cases.push(Graph::new(500, sparse.edges().to_vec()));
        for g in &cases {
            let flat = misra_gries_edge_colouring(g);
            let reference = misra_gries_oracle::misra_gries_edge_colouring(g);
            assert_eq!(flat.colours, reference.colours, "n={} m={}", g.n(), g.m());
            assert_eq!(flat.num_colours, reference.num_colours);
        }
    }

    #[test]
    fn dense_random_graphs_proper() {
        for seed in 0..5 {
            check(&gnp(24, 0.9, seed));
        }
    }
}
