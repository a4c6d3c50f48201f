//! Algorithms 2 and 6: hungry-greedy maximal independent set.
//!
//! The hungry-greedy idea (Section 3): repeatedly sample groups of *heavy*
//! vertices — not to maximize anything, but because adding one heavy vertex
//! to `I` disqualifies ≥ `n^{1-iα}` others, shrinking the instance
//! geometrically. Algorithm 2 (`MIS1`) runs `1/α` phases, each reducing the
//! maximum alive degree by `n^α`, in `O(1/µ²)` rounds total. Algorithm 6
//! (`MIS2`) handles all degree classes simultaneously and terminates once
//! the alive edge count drops below `η = n^{1+µ}` — `O(c/µ)` rounds
//! (Theorem A.3).
//!
//! Group sampling uses one hash-derived group choice per heavy vertex with
//! the same expected group size `n^{µ/2}` as the paper's draws — this
//! keeps sampling machine-local.

use mrlr_graph::{EdgeId, Graph, VertexId};
use mrlr_mapreduce::rng::DetRng;
use mrlr_mapreduce::{Csr, MrError, MrResult};

use crate::types::SelectionResult;

/// Tag mixed into the MIS sampling RNG (shared with the MR driver).
pub const MIS_RNG_TAG: u64 = 0x4d49_5331;

/// Parameters of the hungry-greedy MIS algorithms.
#[derive(Debug, Clone, Copy)]
pub struct MisParams {
    /// Phase granularity `α` (`µ/2` for Algorithm 2, `µ/8` for
    /// Algorithm 6).
    pub alpha: f64,
    /// Expected group size (the paper's `n^{µ/2}`).
    pub group_size: usize,
    /// Termination budget: Algorithm 2 stops phasing once the degree
    /// threshold is ≤ `final_degree` (the paper's `n^µ`); Algorithm 6 stops
    /// once alive edges < `eta` (`n^{1+µ}`). Both then finish centrally.
    pub eta: usize,
    /// Sampling seed.
    pub seed: u64,
}

impl MisParams {
    /// The paper's parameterization for Algorithm 2 on `n` vertices with
    /// memory exponent `µ = mu`.
    pub fn mis1(n: usize, mu: f64, seed: u64) -> Self {
        let nf = n.max(2) as f64;
        MisParams {
            alpha: mu / 2.0,
            group_size: nf.powf(mu / 2.0).ceil() as usize,
            eta: nf.powf(1.0 + mu).ceil() as usize,
            seed,
        }
    }

    /// The paper's parameterization for Algorithm 6 (Appendix A).
    pub fn mis2(n: usize, mu: f64, seed: u64) -> Self {
        let nf = n.max(2) as f64;
        MisParams {
            alpha: mu / 8.0,
            group_size: nf.powf(mu / 2.0).ceil() as usize,
            eta: nf.powf(1.0 + mu).ceil() as usize,
            seed,
        }
    }
}

/// Shared mutable state: the independent set `I`, the removed set `N⁺(I)`,
/// and alive degrees `d_I(v)`, over the graph's own adjacency rows.
pub(crate) struct MisState<'g> {
    pub adj: &'g Csr<(VertexId, EdgeId)>,
    pub in_i: Vec<bool>,
    pub removed: Vec<bool>,
    pub d_alive: Vec<usize>,
}

impl<'g> MisState<'g> {
    pub fn new(g: &'g Graph) -> Self {
        MisState {
            adj: g.adjacency(),
            in_i: vec![false; g.n()],
            removed: vec![false; g.n()],
            d_alive: g.degrees(),
        }
    }

    /// Adds `v` to `I`, removing it and its alive neighbours, and updating
    /// alive degrees. No-op if `v` is already removed.
    pub fn add(&mut self, v: VertexId) {
        let v = v as usize;
        if self.removed[v] {
            return;
        }
        let adj = self.adj;
        self.in_i[v] = true;
        let mut newly: Vec<usize> = vec![v];
        self.removed[v] = true;
        for &(w, _) in &adj[v] {
            let w = w as usize;
            if !self.removed[w] {
                self.removed[w] = true;
                newly.push(w);
            }
        }
        for &x in &newly {
            self.d_alive[x] = 0;
            for &(y, _) in &adj[x] {
                if !self.removed[y as usize] {
                    self.d_alive[y as usize] -= 1;
                }
            }
        }
    }

    pub fn alive_edges(&self) -> usize {
        self.d_alive.iter().sum::<usize>() / 2
    }

    pub fn independent_set(&self) -> Vec<VertexId> {
        (0..self.in_i.len() as VertexId)
            .filter(|&v| self.in_i[v as usize])
            .collect()
    }

    /// Greedy MIS over the given candidate vertices, ascending id — the
    /// "place everything on a central machine" finish.
    pub fn finish_greedy(&mut self, candidates: impl Iterator<Item = VertexId>) {
        for v in candidates {
            if !self.removed[v as usize] {
                self.add(v);
            }
        }
    }
}

/// Per-entity group choice: joins one of `groups` groups with probability
/// `min(1, groups·group_size/population)`, or `None`. Deterministic per
/// `(seed, tags..., entity)`.
pub(crate) fn group_choice(
    seed: u64,
    tags: impl IntoIterator<Item = u64>,
    entity: u64,
    groups: usize,
    group_size: usize,
    population: usize,
) -> Option<usize> {
    if population == 0 || groups == 0 {
        return None;
    }
    // Called once per qualifying record per round: the tag list lives on
    // the stack (callers pass at most four context tags).
    let mut tagv = [0u64; 8];
    let mut len = 0;
    for t in tags.into_iter().chain([entity]) {
        tagv[len] = t;
        len += 1;
    }
    let mut rng = DetRng::derive(seed, &tagv[..len]);
    let p = ((groups * group_size) as f64 / population as f64).min(1.0);
    if rng.f64() < p {
        Some(rng.range_usize(groups))
    } else {
        None
    }
}

/// Algorithm 2 (`MIS1`): phase-by-phase degree reduction, `O(1/µ²)` rounds.
pub fn mis_simple(g: &Graph, params: MisParams) -> MrResult<SelectionResult> {
    validate(params)?;
    let n = g.n();
    if n == 0 {
        return Ok(SelectionResult {
            vertices: vec![],
            phases: 0,
            iterations: 0,
        });
    }
    let nf = (n.max(2)) as f64;
    let final_degree = (params.eta as f64 / nf).max(1.0);
    let mut st = MisState::new(g);
    let mut phases = 0usize;
    let mut iterations = 0usize;

    let mut i = 0usize;
    loop {
        i += 1;
        let tau = nf.powf(1.0 - i as f64 * params.alpha);
        if tau <= final_degree || tau < 1.0 {
            break;
        }
        phases += 1;
        let groups_target = nf.powf(i as f64 * params.alpha).ceil() as usize;
        // Inner loop: shrink VH below n^{iα}.
        let mut guard = 0usize;
        loop {
            let heavy: Vec<VertexId> = (0..n as VertexId)
                .filter(|&v| !st.removed[v as usize] && st.d_alive[v as usize] as f64 >= tau)
                .collect();
            if heavy.len() < groups_target {
                // Paper line 12: finish this phase's stragglers centrally
                // (|VH| < n^{iα} vertices fit on the central machine).
                st.finish_greedy(heavy.into_iter());
                iterations += 1;
                break;
            }
            iterations += 1;
            guard += 1;
            if guard > 64 + 4 * n {
                return Err(MrError::AlgorithmFailed {
                    round: iterations,
                    reason: "MIS1 inner loop budget exhausted".into(),
                });
            }
            // Sample groups and process them in order.
            let mut members: Vec<Vec<VertexId>> = vec![Vec::new(); groups_target];
            for &v in &heavy {
                if let Some(gid) = group_choice(
                    params.seed,
                    [MIS_RNG_TAG, i as u64, guard as u64],
                    v as u64,
                    groups_target,
                    params.group_size,
                    heavy.len(),
                ) {
                    members[gid].push(v);
                }
            }
            for group in &members {
                // Hungriest qualifying vertex: max alive degree, tie -> id.
                let mut best: Option<VertexId> = None;
                for &v in group {
                    if st.removed[v as usize] || (st.d_alive[v as usize] as f64) < tau {
                        continue;
                    }
                    best = match best {
                        None => Some(v),
                        Some(b) if st.d_alive[v as usize] > st.d_alive[b as usize] => Some(v),
                        other => other,
                    };
                }
                if let Some(v) = best {
                    st.add(v);
                }
            }
        }
    }

    // Final central round: the whole residual graph fits in memory.
    st.finish_greedy(0..n as VertexId);
    iterations += 1;
    Ok(SelectionResult {
        vertices: st.independent_set(),
        phases,
        iterations,
    })
}

/// Algorithm 6 (`MIS2`): all degree classes per round, `O(c/µ)` rounds.
pub fn mis_fast(g: &Graph, params: MisParams) -> MrResult<SelectionResult> {
    validate(params)?;
    class_schedule(MisState::new(g), params)
}

/// A state Algorithm 6's class schedule drives: [`MisState`] on alive
/// degrees, and the clique state (Corollary B.1) on complement degrees.
pub(crate) trait ClassState {
    /// The [`group_choice`] tags in front of the round and the class.
    const TAGS: &'static [u64];
    /// The failure reason once the round budget runs out.
    const BUDGET: &'static str;
    /// Number of vertices.
    fn n(&self) -> usize;
    /// `v`'s degree in the graph being thinned, `None` once `v` is out.
    fn live_degree(&self, v: VertexId) -> Option<usize>;
    /// Edges left in the graph being thinned.
    fn live_edges(&self) -> usize;
    /// Takes live vertex `v` into the answer.
    fn add(&mut self, v: VertexId);
    /// The central greedy finish; returns the answer, ascending.
    fn finish(self) -> Vec<VertexId>;
}

/// Algorithm 6's class schedule: while `η` or more edges are live, sort
/// live vertices into degree classes, sample groups per class, and take
/// the hungriest qualifying member of each group; then finish centrally.
pub(crate) fn class_schedule<S: ClassState>(
    mut st: S,
    params: MisParams,
) -> MrResult<SelectionResult> {
    let n = st.n();
    if n == 0 {
        return Ok(SelectionResult {
            vertices: vec![],
            phases: 0,
            iterations: 0,
        });
    }
    let nf = (n.max(2)) as f64;
    let num_classes = (1.0 / params.alpha).ceil() as usize;
    let mut k = 0usize;

    while st.live_edges() >= params.eta {
        k += 1;
        if k > 64 + 4 * n {
            return Err(MrError::AlgorithmFailed {
                round: k,
                reason: S::BUDGET.into(),
            });
        }
        // Classify live vertices by degree: class i has
        // d ∈ [n^{1-iα}, n^{1-(i-1)α}).
        let mut classes: Vec<Vec<VertexId>> = vec![Vec::new(); num_classes + 1];
        for v in 0..n as VertexId {
            if let Some(d) = st.live_degree(v).filter(|&d| d > 0) {
                classes[degree_class(d, nf, params.alpha, num_classes)].push(v);
            }
        }
        for (i, class) in classes.iter().enumerate().skip(1) {
            if class.is_empty() {
                continue;
            }
            let groups_count = nf.powf((i + 1) as f64 * params.alpha).ceil() as usize;
            let accept = nf.powf(1.0 - (i + 1) as f64 * params.alpha);
            let mut members: Vec<Vec<VertexId>> = vec![Vec::new(); groups_count];
            for &v in class {
                if let Some(gid) = group_choice(
                    params.seed,
                    S::TAGS.iter().copied().chain([k as u64, i as u64]),
                    v as u64,
                    groups_count,
                    params.group_size,
                    class.len(),
                ) {
                    members[gid].push(v);
                }
            }
            for group in &members {
                // Hungriest qualifying vertex: max live degree, tie -> id.
                let mut best: Option<(usize, VertexId)> = None;
                for &v in group {
                    let Some(d) = st.live_degree(v) else {
                        continue;
                    };
                    if d as f64 >= accept && best.is_none_or(|(bd, _)| d > bd) {
                        best = Some((d, v));
                    }
                }
                if let Some((_, v)) = best {
                    st.add(v);
                }
            }
        }
    }

    // Final central round over the residual graph (< η edges).
    Ok(SelectionResult {
        vertices: st.finish(),
        phases: k,
        iterations: k + 1,
    })
}

impl ClassState for MisState<'_> {
    const TAGS: &'static [u64] = &[MIS_RNG_TAG, 0x6d32];
    const BUDGET: &'static str = "MIS2 round budget exhausted";

    fn n(&self) -> usize {
        self.in_i.len()
    }

    fn live_degree(&self, v: VertexId) -> Option<usize> {
        (!self.removed[v as usize]).then(|| self.d_alive[v as usize])
    }

    fn live_edges(&self) -> usize {
        self.alive_edges()
    }

    fn add(&mut self, v: VertexId) {
        MisState::add(self, v);
    }

    fn finish(mut self) -> Vec<VertexId> {
        self.finish_greedy(0..self.n() as VertexId);
        self.independent_set()
    }
}

/// Class index `i ∈ [1, num_classes]` with `d ∈ [n^{1-iα}, n^{1-(i-1)α})`.
/// A small epsilon keeps exact boundary degrees (`d = n^{1-iα}`) in their
/// intended class despite floating-point log rounding.
pub(crate) fn degree_class(d: usize, nf: f64, alpha: f64, num_classes: usize) -> usize {
    degree_class_ln(d, nf.ln(), alpha, num_classes)
}

/// [`degree_class`] with `ln n` hoisted out of the per-record scan.
pub(crate) fn degree_class_ln(d: usize, ln_nf: f64, alpha: f64, num_classes: usize) -> usize {
    debug_assert!(d >= 1);
    let x = (1.0 - (d as f64).ln() / ln_nf) / alpha;
    ((x - 1e-9).ceil() as isize).clamp(1, num_classes as isize) as usize
}

fn validate(p: MisParams) -> MrResult<()> {
    if !(p.alpha > 0.0 && p.alpha <= 1.0) {
        return Err(MrError::BadConfig("alpha must be in (0, 1]".into()));
    }
    if p.group_size == 0 || p.eta == 0 {
        return Err(MrError::BadConfig(
            "group_size and eta must be positive".into(),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::is_maximal_independent_set;
    use mrlr_graph::generators::{complete, densified, gnm, star};

    #[test]
    fn mis1_maximal_on_random_graphs() {
        for seed in 0..5 {
            let g = densified(80, 0.4, seed);
            let r = mis_simple(&g, MisParams::mis1(g.n(), 0.3, seed)).unwrap();
            assert!(is_maximal_independent_set(&g, &r.vertices), "seed {seed}");
        }
    }

    #[test]
    fn mis2_maximal_on_random_graphs() {
        for seed in 0..5 {
            let g = densified(80, 0.4, seed);
            let r = mis_fast(&g, MisParams::mis2(g.n(), 0.3, seed)).unwrap();
            assert!(is_maximal_independent_set(&g, &r.vertices), "seed {seed}");
        }
    }

    #[test]
    fn complete_graph_yields_single_vertex() {
        let g = complete(20);
        let r = mis_fast(&g, MisParams::mis2(20, 0.4, 1)).unwrap();
        assert_eq!(r.vertices.len(), 1);
    }

    #[test]
    fn star_takes_leaves_or_centre() {
        let g = star(30);
        let r = mis_simple(&g, MisParams::mis1(30, 0.4, 2)).unwrap();
        assert!(is_maximal_independent_set(&g, &r.vertices));
        assert!(r.vertices.len() == 1 || r.vertices.len() == 29);
    }

    #[test]
    fn deterministic() {
        let g = gnm(60, 400, 3);
        let a = mis_fast(&g, MisParams::mis2(60, 0.3, 7)).unwrap();
        let b = mis_fast(&g, MisParams::mis2(60, 0.3, 7)).unwrap();
        assert_eq!(a.vertices, b.vertices);
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn empty_and_edgeless() {
        let r = mis_simple(&Graph::new(0, vec![]), MisParams::mis1(0, 0.3, 1)).unwrap();
        assert!(r.vertices.is_empty());
        let g = Graph::new(5, vec![]);
        let r = mis_fast(&g, MisParams::mis2(5, 0.3, 1)).unwrap();
        assert_eq!(r.vertices.len(), 5);
    }

    #[test]
    fn degree_class_boundaries() {
        let nf = 10_000f64; // ln n = 9.21
        let alpha = 0.25;
        // d = n => class ... x = (1-1)/0.25 = 0 -> clamp 1
        assert_eq!(degree_class(10_000, nf, alpha, 4), 1);
        // d = n^0.75 => x = (1-0.75)/0.25 = 1 (boundary, lands in class 1)
        assert_eq!(degree_class(1_000, nf, alpha, 4), 1);
        // d just below n^0.75 → class 2
        assert_eq!(degree_class(999, nf, alpha, 4), 2);
        // d = 1 → x = 4
        assert_eq!(degree_class(1, nf, alpha, 4), 4);
    }

    #[test]
    fn bad_params_rejected() {
        let g = star(4);
        let bad = MisParams {
            alpha: 0.0,
            group_size: 2,
            eta: 4,
            seed: 0,
        };
        assert!(mis_simple(&g, bad).is_err());
    }

    /// An entity joins a group with probability
    /// `p = min(1, groups·size/population)`, and then one of the
    /// `groups` groups. Pooled over 32 seeds, the empirical join rate lies
    /// within 4σ of `p`.
    #[test]
    fn group_choice_joins_at_rate_groups_times_size_over_population() {
        let (groups, size, population) = (4usize, 25usize, 1000usize);
        let seeds = 32u64;
        let mut joined = 0usize;
        for seed in 0..seeds {
            for entity in 0..population as u64 {
                if let Some(gid) = group_choice(seed, [7], entity, groups, size, population) {
                    assert!(gid < groups, "seed {seed} entity {entity}");
                    joined += 1;
                }
            }
        }
        let trials = seeds as f64 * population as f64;
        let p = (groups * size) as f64 / population as f64;
        let sigma = (trials * p * (1.0 - p)).sqrt();
        let expected = trials * p;
        assert!(
            (joined as f64 - expected).abs() <= 4.0 * sigma,
            "{joined} of {trials} joined, expected {expected:.0} ± {:.0}",
            4.0 * sigma
        );
    }
}
