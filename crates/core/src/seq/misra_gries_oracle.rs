//! The allocating Misra–Gries implementation `misra_gries.rs` replaced,
//! kept verbatim (it builds its own adjacency nest, a fresh `in_fan`
//! vector per edge and nested palette rows) as the reference the flat one
//! must match colour for colour.

use mrlr_graph::{EdgeId, Graph, VertexId};

use crate::types::ColouringResult;

const NONE: u32 = u32::MAX;

struct Palette {
    /// `at[v][c]` = edge id coloured `c` at `v`, or `NONE`.
    at: Vec<Vec<u32>>,
    /// Colour of each edge, or `NONE`.
    colour: Vec<u32>,
    colours: usize,
}

impl Palette {
    fn new(n: usize, m: usize, colours: usize) -> Self {
        Palette {
            at: vec![vec![NONE; colours]; n],
            colour: vec![NONE; m],
            colours,
        }
    }

    fn is_free(&self, v: VertexId, c: u32) -> bool {
        self.at[v as usize][c as usize] == NONE
    }

    /// Smallest colour free at `v` (exists because palette size is Δ+1).
    fn free_colour(&self, v: VertexId) -> u32 {
        (0..self.colours as u32)
            .find(|&c| self.is_free(v, c))
            .expect("palette of size Delta+1 always has a free colour")
    }

    fn set(&mut self, g: &Graph, e: EdgeId, c: u32) {
        let edge = g.edge(e);
        debug_assert!(self.is_free(edge.u, c) && self.is_free(edge.v, c));
        self.colour[e as usize] = c;
        self.at[edge.u as usize][c as usize] = e;
        self.at[edge.v as usize][c as usize] = e;
    }

    fn unset(&mut self, g: &Graph, e: EdgeId) -> u32 {
        let c = self.colour[e as usize];
        debug_assert_ne!(c, NONE);
        let edge = g.edge(e);
        self.colour[e as usize] = NONE;
        self.at[edge.u as usize][c as usize] = NONE;
        self.at[edge.v as usize][c as usize] = NONE;
        c
    }
}

/// Colours `g` with at most `max_degree + 1` colours. Returns one colour
/// per edge.
pub fn misra_gries_edge_colouring(g: &Graph) -> ColouringResult {
    let delta = g.max_degree();
    let colours = delta + 1;
    let mut p = Palette::new(g.n(), g.m(), colours);
    let mut adj: Vec<Vec<(VertexId, EdgeId)>> = vec![Vec::new(); g.n()];
    for (i, e) in g.edges().iter().enumerate() {
        adj[e.u as usize].push((e.v, i as EdgeId));
        adj[e.v as usize].push((e.u, i as EdgeId));
    }

    for eid in 0..g.m() as EdgeId {
        colour_edge(g, &adj, &mut p, eid);
    }

    let num_colours = p.colour.iter().map(|&c| c as usize + 1).max().unwrap_or(0);
    ColouringResult {
        colours: p.colour,
        num_colours,
        groups: 1,
    }
}

fn colour_edge(g: &Graph, adj: &[Vec<(VertexId, EdgeId)>], p: &mut Palette, eid: EdgeId) {
    let (u, v) = {
        let e = g.edge(eid);
        (e.u, e.v)
    };

    // 1. Maximal fan of u starting at v. fan[i] = (vertex, edge id of (u, fan[i])).
    let mut fan: Vec<(VertexId, EdgeId)> = vec![(v, eid)];
    let mut in_fan = vec![false; g.n()];
    in_fan[v as usize] = true;
    loop {
        let last = fan.last().unwrap().0;
        // A neighbour w of u extends the fan if (u,w) is coloured with a
        // colour free at `last`.
        let mut extended = false;
        for &(w, we) in &adj[u as usize] {
            if in_fan[w as usize] {
                continue;
            }
            let c = p.colour[we as usize];
            if c != NONE && p.is_free(last, c) {
                fan.push((w, we));
                in_fan[w as usize] = true;
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
}

/// Inverts the maximal path starting at `u` whose first edge has colour `d`
/// and which alternates `d, c, d, …`. After inversion `d` is free at `u`.
fn invert_cd_path(g: &Graph, p: &mut Palette, u: VertexId, c: u32, d: u32) {
    // Collect the path.
    let mut path: Vec<EdgeId> = Vec::new();
    let mut cur = u;
    let mut want = d;
    loop {
        let e = p.at[cur as usize][want as usize];
        if e == NONE {
            break;
        }
        path.push(e);
        cur = g.edge(e).other(cur);
        want = if want == d { c } else { d };
    }
    // Swap colours along the path: unset all, then reset flipped.
    let old: Vec<u32> = path.iter().map(|&e| p.unset(g, e)).collect();
    for (&e, &col) in path.iter().zip(&old) {
        let flipped = if col == c { d } else { c };
        p.set(g, e, flipped);
    }
}
