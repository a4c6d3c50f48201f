//! Graph generators.
//!
//! The paper's model assumes `m = n^{1+c}` edges (Leskovec et al. observe
//! `c ∈ [0.08, 0.5+]` on real graphs), so the generators here are
//! parameterized by the density exponent `c` directly. All generators are
//! deterministic given their seed.

use std::collections::HashSet;

use mrlr_mapreduce::rng::DetRng;

use crate::graph::{Edge, Graph, VertexId};

/// Erdős–Rényi `G(n, m)`: exactly `m` distinct edges chosen uniformly.
///
/// # Panics
/// Panics if `m` exceeds `n(n-1)/2`.
pub fn gnm(n: usize, m: usize, seed: u64) -> Graph {
    let max_m = n * n.saturating_sub(1) / 2;
    assert!(m <= max_m, "G(n={n}, m={m}) infeasible (max {max_m})");
    let mut rng = DetRng::derive(seed, &[0x0067_6e6d]);
    // Dense case: sample by shuffling all pairs; sparse case: rejection.
    if n < 2 {
        return Graph::new(n, Vec::new());
    }
    if m * 3 > max_m {
        let mut pairs: Vec<(VertexId, VertexId)> = Vec::with_capacity(max_m);
        for u in 0..n as VertexId {
            for v in (u + 1)..n as VertexId {
                pairs.push((u, v));
            }
        }
        rng.shuffle(&mut pairs);
        pairs.truncate(m);
        return Graph::from_pairs(n, &pairs);
    }
    let mut seen: HashSet<u64> = HashSet::with_capacity(m * 2);
    let mut pairs: Vec<(VertexId, VertexId)> = Vec::with_capacity(m);
    while pairs.len() < m {
        let u = rng.range_usize(n) as VertexId;
        let v = rng.range_usize(n) as VertexId;
        if u == v {
            continue;
        }
        let (a, b) = (u.min(v), u.max(v));
        let key = (a as u64) << 32 | b as u64;
        if seen.insert(key) {
            pairs.push((a, b));
        }
    }
    Graph::from_pairs(n, &pairs)
}

/// Erdős–Rényi `G(n, p)`: each pair independently with probability `p`.
pub fn gnp(n: usize, p: f64, seed: u64) -> Graph {
    assert!((0.0..=1.0).contains(&p), "p must be in [0, 1]");
    let mut rng = DetRng::derive(seed, &[0x0067_6e70]);
    let mut pairs = Vec::new();
    for u in 0..n as VertexId {
        for v in (u + 1)..n as VertexId {
            if rng.bernoulli(p) {
                pairs.push((u, v));
            }
        }
    }
    Graph::from_pairs(n, &pairs)
}

/// A graph with `m ≈ n^{1+c}` edges — the paper's standing density
/// assumption. Clamps to the complete graph when `n^{1+c}` exceeds it.
pub fn densified(n: usize, c: f64, seed: u64) -> Graph {
    let target = (n as f64).powf(1.0 + c).round() as usize;
    let max_m = n * n.saturating_sub(1) / 2;
    gnm(n, target.min(max_m), seed)
}

/// Chung–Lu power-law graph: expected degree of vertex `i` proportional to
/// `(i+1)^{-1/(gamma-1)}`, scaled so the expected edge count is `m`. The
/// workhorse for the "social network" workloads of the paper's introduction.
///
/// Endpoints are drawn from the weight distribution; self-loops and
/// duplicates are rejected, so the realized `m` is exact.
pub fn chung_lu(n: usize, m: usize, gamma: f64, seed: u64) -> Graph {
    assert!(gamma > 2.0, "gamma must exceed 2 for a bounded mean");
    let max_m = n * n.saturating_sub(1) / 2;
    assert!(
        m <= max_m / 2,
        "Chung-Lu rejection needs headroom: m too close to complete"
    );
    let mut rng = DetRng::derive(seed, &[0x636c75]);
    let exponent = -1.0 / (gamma - 1.0);
    let weights: Vec<f64> = (0..n).map(|i| ((i + 1) as f64).powf(exponent)).collect();
    // Cumulative distribution for O(log n) endpoint sampling.
    let mut cum = Vec::with_capacity(n);
    let mut acc = 0.0;
    for w in &weights {
        acc += w;
        cum.push(acc);
    }
    let total = acc;
    let draw = |rng: &mut DetRng| -> VertexId {
        let x = rng.f64() * total;
        cum.partition_point(|&c| c < x).min(n - 1) as VertexId
    };
    let mut seen: HashSet<u64> = HashSet::with_capacity(m * 2);
    let mut pairs = Vec::with_capacity(m);
    let mut attempts = 0usize;
    while pairs.len() < m {
        attempts += 1;
        assert!(
            attempts < 100 * m + 10_000,
            "Chung-Lu sampling not converging"
        );
        let u = draw(&mut rng);
        let v = draw(&mut rng);
        if u == v {
            continue;
        }
        let (a, b) = (u.min(v), u.max(v));
        let key = (a as u64) << 32 | b as u64;
        if seen.insert(key) {
            pairs.push((a, b));
        }
    }
    Graph::from_pairs(n, &pairs)
}

/// Random bipartite graph: `left + right` vertices (left ids `0..left`),
/// exactly `m` distinct cross edges.
pub fn bipartite(left: usize, right: usize, m: usize, seed: u64) -> Graph {
    let max_m = left * right;
    assert!(m <= max_m, "bipartite({left}, {right}, m={m}) infeasible");
    let mut rng = DetRng::derive(seed, &[0x0062_6970]);
    let mut seen: HashSet<u64> = HashSet::with_capacity(m * 2);
    let mut pairs = Vec::with_capacity(m);
    if m * 3 > max_m {
        let mut all: Vec<(VertexId, VertexId)> = Vec::with_capacity(max_m);
        for u in 0..left as VertexId {
            for v in 0..right as VertexId {
                all.push((u, left as VertexId + v));
            }
        }
        rng.shuffle(&mut all);
        all.truncate(m);
        return Graph::from_pairs(left + right, &all);
    }
    while pairs.len() < m {
        let u = rng.range_usize(left) as VertexId;
        let v = (left + rng.range_usize(right)) as VertexId;
        let key = (u as u64) << 32 | v as u64;
        if seen.insert(key) {
            pairs.push((u, v));
        }
    }
    Graph::from_pairs(left + right, &pairs)
}

/// Assigns each edge an independent uniform weight in `[lo, hi)`.
pub fn with_uniform_weights(g: &Graph, lo: f64, hi: f64, seed: u64) -> Graph {
    assert!(lo > 0.0 && hi > lo, "need 0 < lo < hi");
    let mut rng = DetRng::derive(seed, &[0x0077_6569]);
    Graph::new(
        g.n(),
        g.edges()
            .iter()
            .map(|e| Edge::new(e.u, e.v, rng.f64_range(lo, hi)))
            .collect(),
    )
}

/// Assigns each edge a weight `exp(U)` with `U` uniform in
/// `[ln lo, ln hi)` — a heavy-tailed spread exercising the
/// `log(w_max/w_min)` terms in the paper's bounds.
pub fn with_log_uniform_weights(g: &Graph, lo: f64, hi: f64, seed: u64) -> Graph {
    assert!(lo > 0.0 && hi > lo, "need 0 < lo < hi");
    let mut rng = DetRng::derive(seed, &[0x006c_7765]);
    Graph::new(
        g.n(),
        g.edges()
            .iter()
            .map(|e| Edge::new(e.u, e.v, rng.f64_range(lo.ln(), hi.ln()).exp()))
            .collect(),
    )
}

/// Path on `n` vertices.
pub fn path(n: usize) -> Graph {
    Graph::from_pairs(
        n,
        &(0..n.saturating_sub(1))
            .map(|i| (i as VertexId, i as VertexId + 1))
            .collect::<Vec<_>>(),
    )
}

/// Cycle on `n ≥ 3` vertices.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "cycle needs at least 3 vertices");
    let mut pairs: Vec<(VertexId, VertexId)> = (0..n - 1)
        .map(|i| (i as VertexId, i as VertexId + 1))
        .collect();
    pairs.push((n as VertexId - 1, 0));
    Graph::from_pairs(n, &pairs)
}

/// Star with centre 0 and `n - 1` leaves.
pub fn star(n: usize) -> Graph {
    Graph::from_pairs(n, &(1..n).map(|i| (0, i as VertexId)).collect::<Vec<_>>())
}

/// Complete graph `K_n`.
pub fn complete(n: usize) -> Graph {
    let mut pairs = Vec::with_capacity(n * (n - 1) / 2);
    for u in 0..n as VertexId {
        for v in (u + 1)..n as VertexId {
            pairs.push((u, v));
        }
    }
    Graph::from_pairs(n, &pairs)
}

/// Complete bipartite graph `K_{a,b}` (left ids `0..a`).
pub fn complete_bipartite(a: usize, b: usize) -> Graph {
    let mut pairs = Vec::with_capacity(a * b);
    for u in 0..a as VertexId {
        for v in 0..b as VertexId {
            pairs.push((u, a as VertexId + v));
        }
    }
    Graph::from_pairs(a + b, &pairs)
}

/// `rows × cols` grid lattice (4-neighbourhood). Vertex `(r, c)` has id
/// `r · cols + c`. A bounded-degree family: the `c → 0` end of the paper's
/// density spectrum.
pub fn grid(rows: usize, cols: usize) -> Graph {
    let mut pairs = Vec::with_capacity(2 * rows * cols);
    let id = |r: usize, c: usize| (r * cols + c) as VertexId;
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                pairs.push((id(r, c), id(r, c + 1)));
            }
            if r + 1 < rows {
                pairs.push((id(r, c), id(r + 1, c)));
            }
        }
    }
    Graph::from_pairs(rows * cols, &pairs)
}

/// Random `d`-regular graph via the configuration model with resampling:
/// stubs are paired by a random shuffle, rejecting pairings with loops or
/// parallel edges.
///
/// # Panics
/// Panics if `n · d` is odd, if `d ≥ n`, or if no simple pairing is found
/// in 500 attempts (only plausible for extreme `d/n`).
pub fn random_regular(n: usize, d: usize, seed: u64) -> Graph {
    assert!((n * d).is_multiple_of(2), "n·d must be even");
    assert!(d < n, "regular degree must be below n");
    if d == 0 || n == 0 {
        return Graph::new(n, Vec::new());
    }
    let mut rng = DetRng::derive(seed, &[0x0072_6567]);
    'attempt: for _ in 0..500 {
        let mut stubs: Vec<VertexId> = (0..n as VertexId)
            .flat_map(|v| std::iter::repeat_n(v, d))
            .collect();
        rng.shuffle(&mut stubs);
        let mut seen: HashSet<u64> = HashSet::with_capacity(n * d);
        let mut pairs = Vec::with_capacity(n * d / 2);
        for chunk in stubs.chunks_exact(2) {
            let (u, v) = (chunk[0], chunk[1]);
            if u == v {
                continue 'attempt;
            }
            let (a, b) = (u.min(v), u.max(v));
            if !seen.insert((a as u64) << 32 | b as u64) {
                continue 'attempt;
            }
            pairs.push((a, b));
        }
        return Graph::from_pairs(n, &pairs);
    }
    panic!("random_regular({n}, {d}) found no simple pairing in 500 attempts");
}

/// Barabási–Albert preferential attachment: starts from a star on `k + 1`
/// vertices, then each new vertex attaches to `k` distinct existing
/// vertices chosen with probability proportional to degree. Produces the
/// heavy-tailed degree sequences of the paper's "social network"
/// motivation with `m ≈ k·n`.
///
/// # Panics
/// Panics if `k == 0` or `n ≤ k`.
pub fn barabasi_albert(n: usize, k: usize, seed: u64) -> Graph {
    assert!(k > 0 && n > k, "need 0 < k < n");
    let mut rng = DetRng::derive(seed, &[0x6261]);
    // `endpoints` holds every edge endpoint; sampling an element uniformly
    // samples a vertex proportionally to its degree.
    let mut endpoints: Vec<VertexId> = Vec::with_capacity(2 * k * n);
    let mut pairs: Vec<(VertexId, VertexId)> = Vec::with_capacity(k * n);
    for v in 1..=k as VertexId {
        pairs.push((0, v));
        endpoints.push(0);
        endpoints.push(v);
    }
    for v in (k + 1)..n {
        let v = v as VertexId;
        let mut chosen: Vec<VertexId> = Vec::with_capacity(k);
        let mut guard = 0usize;
        while chosen.len() < k {
            guard += 1;
            assert!(guard < 100_000, "preferential attachment stalled");
            let t = endpoints[rng.range_usize(endpoints.len())];
            if t != v && !chosen.contains(&t) {
                chosen.push(t);
            }
        }
        for t in chosen {
            pairs.push((t.min(v), t.max(v)));
            endpoints.push(t);
            endpoints.push(v);
        }
    }
    Graph::from_pairs(n, &pairs)
}

/// Plants `cliques` vertex-disjoint cliques of `size` vertices each, then
/// sprinkles inter-clique noise edges with probability `p_noise` per pair.
/// The workload for the Appendix B maximal-clique experiments: any maximal
/// clique must contain at least one full planted clique when `p_noise` is
/// small.
pub fn planted_cliques(cliques: usize, size: usize, p_noise: f64, seed: u64) -> Graph {
    assert!(size >= 1, "clique size must be positive");
    assert!((0.0..=1.0).contains(&p_noise));
    let n = cliques * size;
    let mut rng = DetRng::derive(seed, &[0x0070_6c63]);
    let mut pairs = Vec::new();
    for c in 0..cliques {
        let base = (c * size) as VertexId;
        for i in 0..size as VertexId {
            for j in (i + 1)..size as VertexId {
                pairs.push((base + i, base + j));
            }
        }
    }
    for u in 0..n as VertexId {
        for v in (u + 1)..n as VertexId {
            if (u as usize) / size != (v as usize) / size && rng.bernoulli(p_noise) {
                pairs.push((u, v));
            }
        }
    }
    Graph::from_pairs(n, &pairs)
}

/// Assigns weights correlated with endpoint degrees:
/// `w(u,v) = 1 + (d(u) + d(v)) · scale`, a deterministic weighting where
/// heavy edges concentrate on hubs — adversarial for degree-oblivious
/// sampling, used by the matching ablations.
pub fn with_degree_weights(g: &Graph, scale: f64) -> Graph {
    assert!(scale >= 0.0 && scale.is_finite());
    let deg = g.degrees();
    Graph::new(
        g.n(),
        g.edges()
            .iter()
            .map(|e| {
                let d = (deg[e.u as usize] + deg[e.v as usize]) as f64;
                Edge::new(e.u, e.v, 1.0 + d * scale)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gnm_exact_count_and_simple() {
        let g = gnm(50, 200, 1);
        assert_eq!(g.n(), 50);
        assert_eq!(g.m(), 200);
        // Graph::new would have panicked on a non-simple graph.
    }

    #[test]
    fn gnm_dense_path() {
        let g = gnm(10, 44, 2); // max 45, forces shuffle path
        assert_eq!(g.m(), 44);
    }

    #[test]
    fn gnm_deterministic() {
        assert_eq!(gnm(30, 100, 7), gnm(30, 100, 7));
        assert_ne!(gnm(30, 100, 7), gnm(30, 100, 8));
    }

    #[test]
    #[should_panic(expected = "infeasible")]
    fn gnm_infeasible_panics() {
        gnm(4, 10, 0);
    }

    #[test]
    fn gnp_edge_fraction() {
        let g = gnp(100, 0.3, 3);
        let max = 100 * 99 / 2;
        let frac = g.m() as f64 / max as f64;
        assert!((frac - 0.3).abs() < 0.03, "frac {frac}");
    }

    #[test]
    fn densified_hits_exponent() {
        let g = densified(100, 0.4, 4);
        assert!((g.density_exponent() - 0.4).abs() < 0.02);
        // Clamps rather than panicking for large c.
        let h = densified(10, 3.0, 4);
        assert_eq!(h.m(), 45);
    }

    #[test]
    fn chung_lu_skewed_degrees() {
        let g = chung_lu(200, 400, 2.5, 5);
        assert_eq!(g.m(), 400);
        let mut deg = g.degrees();
        deg.sort_unstable_by(|a, b| b.cmp(a));
        // Power-law: the top vertex should far exceed the median.
        assert!(
            deg[0] >= 4 * deg[100].max(1),
            "top {} median {}",
            deg[0],
            deg[100]
        );
    }

    #[test]
    fn bipartite_sides_respected() {
        let g = bipartite(10, 20, 50, 6);
        assert_eq!(g.m(), 50);
        for e in g.edges() {
            let (a, b) = e.key();
            assert!((a as usize) < 10 && (10..30).contains(&(b as usize)));
        }
        let dense = bipartite(5, 5, 24, 6);
        assert_eq!(dense.m(), 24);
    }

    #[test]
    fn weights_in_range() {
        let g = with_uniform_weights(&gnm(20, 50, 1), 1.0, 10.0, 9);
        for e in g.edges() {
            assert!((1.0..10.0).contains(&e.w));
        }
        let h = with_log_uniform_weights(&gnm(20, 50, 1), 0.5, 100.0, 9);
        for e in h.edges() {
            assert!((0.5..100.0).contains(&e.w));
        }
    }

    #[test]
    fn grid_shape() {
        let g = grid(3, 4);
        assert_eq!(g.n(), 12);
        // 3 rows × 3 horizontal + 2 rows-gaps × 4 vertical = 9 + 8
        assert_eq!(g.m(), 17);
        assert_eq!(g.max_degree(), 4);
        assert_eq!(grid(1, 5).m(), 4);
        assert_eq!(grid(1, 1).m(), 0);
        assert_eq!(grid(0, 7).n(), 0);
    }

    #[test]
    fn random_regular_degrees() {
        for (n, d, seed) in [(20usize, 3usize, 1u64), (30, 4, 2), (10, 5, 3), (16, 1, 4)] {
            let g = random_regular(n, d, seed);
            assert_eq!(g.m(), n * d / 2);
            assert!(g.degrees().iter().all(|&x| x == d), "n={n} d={d}");
        }
        assert_eq!(random_regular(5, 0, 0).m(), 0);
        assert_eq!(random_regular(20, 3, 7), random_regular(20, 3, 7));
    }

    #[test]
    #[should_panic(expected = "even")]
    fn random_regular_odd_product() {
        random_regular(5, 3, 0);
    }

    #[test]
    fn barabasi_albert_hubs() {
        let g = barabasi_albert(300, 3, 5);
        assert_eq!(g.n(), 300);
        assert_eq!(g.m(), 3 + 3 * (300 - 4));
        let mut deg = g.degrees();
        deg.sort_unstable_by(|a, b| b.cmp(a));
        // Preferential attachment: the top hub dwarfs the median (≈ k).
        assert!(deg[0] >= 4 * deg[150], "top {} median {}", deg[0], deg[150]);
        assert!(deg.iter().rev().take(100).all(|&d| d >= 3));
    }

    #[test]
    fn planted_cliques_contain_cliques() {
        let g = planted_cliques(4, 6, 0.05, 9);
        assert_eq!(g.n(), 24);
        // Every planted clique's edges are present.
        let adj = g.adjacency();
        for c in 0..4usize {
            for i in 0..6 {
                for j in (i + 1)..6 {
                    let (u, v) = ((c * 6 + i) as VertexId, (c * 6 + j) as VertexId);
                    assert!(adj[u as usize].iter().any(|&(w, _)| w == v));
                }
            }
        }
        // Noise-free case has exactly the clique edges.
        assert_eq!(planted_cliques(3, 4, 0.0, 1).m(), 3 * 6);
    }

    #[test]
    fn degree_weights_favour_hubs() {
        let g = with_degree_weights(&star(6), 0.5);
        // Every star edge touches the degree-5 centre and a leaf (degree 1):
        // w = 1 + 6·0.5 = 4.
        for e in g.edges() {
            assert!((e.w - 4.0).abs() < 1e-12);
        }
        // scale 0 keeps unit-ish weights
        let h = with_degree_weights(&star(6), 0.0);
        assert!(h.edges().iter().all(|e| (e.w - 1.0).abs() < 1e-12));
    }

    #[test]
    fn fixed_topologies() {
        assert_eq!(path(5).m(), 4);
        assert_eq!(cycle(5).m(), 5);
        assert_eq!(star(5).m(), 4);
        assert_eq!(star(5).max_degree(), 4);
        assert_eq!(complete(6).m(), 15);
        assert_eq!(complete(6).max_degree(), 5);
        assert_eq!(complete_bipartite(3, 4).m(), 12);
        assert_eq!(path(1).m(), 0);
        assert_eq!(path(0).m(), 0);
    }
}
