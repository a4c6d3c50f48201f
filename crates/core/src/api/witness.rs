//! Re-checkable certificate payloads: the typed [`Witness`] carried by
//! every [`Certificate`], and the audit machinery
//! that re-verifies a stored [`Report`](super::Report) against its
//! instance **without re-running the solver**.
//!
//! Every approximation guarantee in the paper flows through a witness
//! object:
//!
//! * **Cover duals** (Theorems 2.3/2.4, 4.5/4.6) — a vector `y` with
//!   `y_j ≥ 0` and `Σ_{j ∈ S_i} y_j ≤ w_i` for every set `S_i`. Weak LP
//!   duality gives `Σ_j y_j ≤ OPT`, so `w(C) / Σ y_j` upper-bounds the
//!   true approximation ratio. Local-ratio runs emit the reductions
//!   `ε_j`; greedy runs emit the fitted prices `price_j / ((1+ε) H_Δ)`.
//! * **Local-ratio stacks** (Theorems 5.1/5.6, D.1/D.3) — the push-order
//!   transcript `(e, m_e)`. Replaying it reproduces the potentials `ϕ`
//!   *bit-for-bit* (the recorded `m_e` are the exact summands), so the
//!   checker can confirm each push was honest (`m_e = w_e − ϕ(u) − ϕ(v)`
//!   at push time), that the pass was exhaustive (every edge dead at the
//!   end — the premise of `OPT ≤ multiplier · Σ m_e`), and that unwinding
//!   yields exactly the claimed matching.
//! * **Maximality witnesses** (Theorems 3.3/A.3, Corollary B.1) — for
//!   every non-member `v`, a member that *blocks* it: a chosen neighbour
//!   (MIS) or a chosen non-neighbour (clique). Together with
//!   independence/cliqueness of the selection this is the whole
//!   structural guarantee.
//! * **Properness witnesses** (Theorems 6.4/6.6) — the per-colour class
//!   sizes and the degree bound `Δ`, pinned against a recount.
//!
//! [`audit`] dispatches on the registry key and runs every check for the
//! report's family; the `mrlr verify` command is a thin CLI wrapper over
//! it (parsing via [`crate::io::certificate`]).

use mrlr_graph::{EdgeId, Graph, VertexId};
use mrlr_setsys::{ElemId, SetSystem};

use super::problems::BMatchingInstance;
use super::{Certificate, Instance, Solution};
use crate::types::{ColouringResult, CoverResult, MatchingResult, SelectionResult, POS_TOL};

/// Absolute + relative tolerance for float comparisons during an audit.
/// Witness floats round-trip bit-exactly through JSON, so replays are
/// bitwise-faithful; the tolerance only absorbs the non-associativity of
/// recomputed *aggregates* (weights, dual sums) versus stored scalars.
pub const AUDIT_TOL: f64 = 1e-6;

/// `a ≈ b` under [`AUDIT_TOL`] (absolute for small values, relative for
/// large ones).
pub fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= AUDIT_TOL * a.abs().max(b.abs()).max(1.0)
}

/// A failed audit check: where it failed and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditError {
    /// Dotted path of the failing artifact, e.g. `witness.dual[3]` or
    /// `solution.matching`.
    pub location: String,
    /// What went wrong.
    pub message: String,
}

impl AuditError {
    /// A failed check at `location` (a dotted path into the report or its
    /// sidecar transcript).
    pub fn new(location: impl Into<String>, message: impl Into<String>) -> Self {
        AuditError {
            location: location.into(),
            message: message.into(),
        }
    }
}

impl std::fmt::Display for AuditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.location, self.message)
    }
}

impl std::error::Error for AuditError {}

type AuditResult<T = ()> = Result<T, AuditError>;

/// The typed, re-checkable payload of a [`Certificate`].
#[derive(Debug, Clone, PartialEq)]
pub enum Witness {
    /// A feasible LP dual `(j, y_j)`, ascending by element id; the cover
    /// family (`set-cover-f`, `set-cover-greedy`, `vertex-cover`).
    CoverDual {
        /// `(element, y_j)` with `Σ y_j =` the claimed lower bound.
        dual: Vec<(ElemId, f64)>,
    },
    /// The local-ratio stack transcript in push order; `matching` and
    /// `b-matching`.
    Stack {
        /// `(edge, m_e)` pushes, oldest first.
        stack: Vec<(EdgeId, f64)>,
    },
    /// Per-non-member blockers; `mis1`, `mis2`, `clique`.
    Maximality {
        /// `(non-member, blocking member)`, ascending by non-member.
        blockers: Vec<(VertexId, VertexId)>,
    },
    /// Colour-class sizes against the degree bound; the colourings.
    Properness {
        /// The instance's maximum degree `Δ`.
        max_degree: usize,
        /// `colour_counts[c]` = entities coloured `c`; length is the
        /// number of colours used.
        colour_counts: Vec<usize>,
    },
    /// A hashed commitment to a stack or cover-dual transcript that lives
    /// in a sidecar file: the report stays `O(1)` words while the full
    /// transcript remains auditable chunk by chunk (see
    /// [`super::commit`]). Produced by `mrlr solve --certificates
    /// committed`; audited by [`super::commit::audit_committed`].
    Committed {
        /// Kind tag of the committed transcript (`"stack"` or
        /// `"cover-dual"`).
        of: String,
        /// Total entry count of the transcript.
        entries: usize,
        /// Entries per chunk (the last chunk may be shorter).
        chunk_len: usize,
        /// The shape-bound Merkle root.
        root: super::commit::Digest,
    },
}

impl Witness {
    /// Short kind tag used by the JSON encoding and display.
    pub fn kind(&self) -> &'static str {
        match self {
            Witness::CoverDual { .. } => "cover-dual",
            Witness::Stack { .. } => "stack",
            Witness::Maximality { .. } => "maximality",
            Witness::Properness { .. } => "properness",
            Witness::Committed { .. } => "committed",
        }
    }
}

// ---------------------------------------------------------------- builders

/// The MIS maximality witness: for each vertex outside `vertices`, its
/// smallest neighbour inside (ascending by vertex). Vertices with no
/// chosen neighbour are omitted — [`check_mis_maximality`] then rejects
/// the witness, which is exactly right for a non-maximal selection.
pub fn mis_blockers(g: &Graph, vertices: &[VertexId]) -> Vec<(VertexId, VertexId)> {
    let mut chosen = vec![false; g.n()];
    for &v in vertices {
        if (v as usize) < g.n() {
            chosen[v as usize] = true;
        }
    }
    let adj = g.adjacency();
    let mut blockers = Vec::new();
    for v in 0..g.n() {
        if chosen[v] {
            continue;
        }
        if let Some(w) = adj[v]
            .iter()
            .map(|&(w, _)| w)
            .filter(|&w| chosen[w as usize])
            .min()
        {
            blockers.push((v as VertexId, w));
        }
    }
    blockers
}

/// The clique maximality witness: for each vertex outside `vertices`, the
/// smallest member it is *not* adjacent to (the obstruction to extending
/// the clique), ascending by vertex. Vertices adjacent to every member
/// are omitted (non-maximal run — rejected by [`check_clique_maximality`]).
pub fn clique_blockers(g: &Graph, vertices: &[VertexId]) -> Vec<(VertexId, VertexId)> {
    let mut chosen = vec![false; g.n()];
    for &v in vertices {
        if (v as usize) < g.n() {
            chosen[v as usize] = true;
        }
    }
    let adj = g.adjacency();
    let members: Vec<usize> = (0..g.n()).filter(|&v| chosen[v]).collect();
    let mut blockers = Vec::new();
    // One marker buffer, cleared per vertex by un-marking only the
    // entries just set — keeps the scan O(n + m + |S|·n̄) instead of
    // allocating an n-sized vector per non-member.
    let mut adjacent = vec![false; g.n()];
    for v in 0..g.n() {
        if chosen[v] {
            continue;
        }
        for &(w, _) in &adj[v] {
            adjacent[w as usize] = true;
        }
        if let Some(&w) = members.iter().find(|&&w| !adjacent[w]) {
            blockers.push((v as VertexId, w as VertexId));
        }
        for &(w, _) in &adj[v] {
            adjacent[w as usize] = false;
        }
    }
    blockers
}

/// The properness witness of a colouring: colour-class sizes (length
/// `num_colours`; out-of-range colours are ignored here and rejected by
/// [`check_properness`]) plus the instance's `Δ`.
pub fn colour_counts(colours: &[u32], num_colours: usize) -> Vec<usize> {
    let mut counts = vec![0usize; num_colours];
    for &c in colours {
        if (c as usize) < num_colours {
            counts[c as usize] += 1;
        }
    }
    counts
}

// ------------------------------------------------------------------ checks

/// Checks that `dual` is a feasible LP dual of `sys` summing to
/// `claimed_lower_bound`: element ids strictly ascending and in range,
/// values positive and finite, per-set loads `Σ_{j ∈ S_i} y_j ≤ w_i`,
/// total `Σ y_j ≈ claimed_lower_bound`.
pub fn check_cover_dual(
    sys: &SetSystem,
    dual: &[(ElemId, f64)],
    claimed_lower_bound: f64,
) -> AuditResult {
    let mut y = vec![0.0f64; sys.universe()];
    let mut last: Option<ElemId> = None;
    let mut total = 0.0f64;
    for (pos, &(j, v)) in dual.iter().enumerate() {
        let loc = || format!("witness.dual[{pos}]");
        if (j as usize) >= sys.universe() {
            return Err(AuditError::new(
                loc(),
                format!("element {j} outside universe of {}", sys.universe()),
            ));
        }
        if last.is_some_and(|prev| prev >= j) {
            return Err(AuditError::new(
                loc(),
                format!("element ids must be strictly ascending (saw {j} after {last:?})"),
            ));
        }
        if !(v.is_finite() && v > 0.0) {
            return Err(AuditError::new(
                loc(),
                format!("dual value {v} not in (0, ∞)"),
            ));
        }
        last = Some(j);
        y[j as usize] = v;
        total += v;
    }
    for i in 0..sys.n_sets() {
        let load: f64 = sys.set(i as u32).iter().map(|&j| y[j as usize]).sum();
        let w = sys.weight(i as u32);
        if load > w + AUDIT_TOL * w.abs().max(1.0) {
            return Err(AuditError::new(
                "witness.dual",
                format!("dual infeasible at set {i}: load {load} exceeds weight {w}"),
            ));
        }
    }
    if !approx_eq(total, claimed_lower_bound) {
        return Err(AuditError::new(
            "witness.dual",
            format!("dual sums to {total}, report claims lower bound {claimed_lower_bound}"),
        ));
    }
    Ok(())
}

/// Outcome of replaying a local-ratio stack: what the transcript alone
/// implies, for comparison against the claimed solution.
#[derive(Debug, Clone, PartialEq)]
pub struct StackReplay {
    /// The matching obtained by unwinding the stack (ascending ids).
    pub matching: Vec<EdgeId>,
    /// The gain `Σ m_e` of the transcript.
    pub gain: f64,
}

fn check_push(
    g: &Graph,
    pos: usize,
    e: EdgeId,
    m: f64,
    phi: &[f64],
    seen: &mut [bool],
) -> AuditResult<(VertexId, VertexId)> {
    let loc = || format!("witness.stack[{pos}]");
    if (e as usize) >= g.m() {
        return Err(AuditError::new(
            loc(),
            format!("edge {e} outside instance of {} edges", g.m()),
        ));
    }
    if seen[e as usize] {
        return Err(AuditError::new(loc(), format!("edge {e} pushed twice")));
    }
    seen[e as usize] = true;
    if !(m.is_finite() && m > 0.0) {
        return Err(AuditError::new(
            loc(),
            format!("reduction {m} not in (0, ∞)"),
        ));
    }
    let edge = g.edge(e);
    let modified = edge.w - phi[edge.u as usize] - phi[edge.v as usize];
    if !approx_eq(m, modified) {
        return Err(AuditError::new(
            loc(),
            format!(
                "recorded reduction {m} != modified weight {modified} of edge {e} at push time"
            ),
        ));
    }
    Ok((edge.u, edge.v))
}

/// Replays a matching stack transcript (Theorem 5.1's certificate):
/// confirms every push was honest against the replayed potentials, that
/// the pass was exhaustive (every edge of `g` is dead at the end, the
/// premise of `OPT ≤ 2 Σ m_e`), and returns the unwound matching + gain.
pub fn replay_matching_stack(g: &Graph, stack: &[(EdgeId, f64)]) -> AuditResult<StackReplay> {
    let mut phi = vec![0.0f64; g.n()];
    let mut seen = vec![false; g.m()];
    let mut gain = 0.0f64;
    for (pos, &(e, m)) in stack.iter().enumerate() {
        let (u, v) = check_push(g, pos, e, m, &phi, &mut seen)?;
        phi[u as usize] += m;
        phi[v as usize] += m;
        gain += m;
    }
    for (idx, edge) in g.edges().iter().enumerate() {
        let modified = edge.w - phi[edge.u as usize] - phi[edge.v as usize];
        if modified > POS_TOL + AUDIT_TOL {
            return Err(AuditError::new(
                "witness.stack",
                format!("edge {idx} still alive after the transcript (modified {modified} > 0)"),
            ));
        }
    }
    // Greedy unwind, newest push first (the algorithm's rule).
    let mut used = vec![false; g.n()];
    let mut matching = Vec::new();
    for &(e, _) in stack.iter().rev() {
        let edge = g.edge(e);
        if !used[edge.u as usize] && !used[edge.v as usize] {
            used[edge.u as usize] = true;
            used[edge.v as usize] = true;
            matching.push(e);
        }
    }
    matching.sort_unstable();
    Ok(StackReplay { matching, gain })
}

/// Replays a b-matching stack transcript (Theorem D.1's ε-adjusted
/// certificate): pushes reduce `ϕ` by `m_e / b(v)` per endpoint, the
/// exhaustion condition is `w_e ≤ (1+ε)(ϕ(u)+ϕ(v))`, and the unwind
/// respects the capacities.
pub fn replay_b_matching_stack(
    g: &Graph,
    b: &[u32],
    eps: f64,
    stack: &[(EdgeId, f64)],
) -> AuditResult<StackReplay> {
    if b.len() != g.n() {
        return Err(AuditError::new(
            "instance.b",
            format!("{} capacities for {} vertices", b.len(), g.n()),
        ));
    }
    let mut phi = vec![0.0f64; g.n()];
    let mut seen = vec![false; g.m()];
    let mut gain = 0.0f64;
    for (pos, &(e, m)) in stack.iter().enumerate() {
        let (u, v) = check_push(g, pos, e, m, &phi, &mut seen)?;
        phi[u as usize] += m / b[u as usize] as f64;
        phi[v as usize] += m / b[v as usize] as f64;
        gain += m;
    }
    for (idx, edge) in g.edges().iter().enumerate() {
        if seen[idx] {
            continue; // pushed edges are removed, not ε-killed
        }
        let slack = edge.w - (1.0 + eps) * (phi[edge.u as usize] + phi[edge.v as usize]);
        if slack > POS_TOL + AUDIT_TOL {
            return Err(AuditError::new(
                "witness.stack",
                format!("edge {idx} still alive after the transcript (ε-slack {slack} > 0)"),
            ));
        }
    }
    let mut load = vec![0u32; g.n()];
    let mut matching = Vec::new();
    for &(e, _) in stack.iter().rev() {
        let edge = g.edge(e);
        if load[edge.u as usize] < b[edge.u as usize] && load[edge.v as usize] < b[edge.v as usize]
        {
            load[edge.u as usize] += 1;
            load[edge.v as usize] += 1;
            matching.push(e);
        }
    }
    matching.sort_unstable();
    Ok(StackReplay { matching, gain })
}

fn check_blockers(
    g: &Graph,
    vertices: &[VertexId],
    blockers: &[(VertexId, VertexId)],
    valid: impl Fn(VertexId, VertexId) -> bool,
    requirement: &str,
) -> AuditResult {
    let mut chosen = vec![false; g.n()];
    for &v in vertices {
        if (v as usize) < g.n() {
            chosen[v as usize] = true;
        }
    }
    let mut witnessed = vec![false; g.n()];
    for (pos, &(v, w)) in blockers.iter().enumerate() {
        let loc = || format!("witness.blockers[{pos}]");
        if (v as usize) >= g.n() || (w as usize) >= g.n() {
            return Err(AuditError::new(
                loc(),
                format!("vertex pair ({v}, {w}) out of range"),
            ));
        }
        if chosen[v as usize] {
            return Err(AuditError::new(
                loc(),
                format!("vertex {v} is itself a member"),
            ));
        }
        if !chosen[w as usize] {
            return Err(AuditError::new(
                loc(),
                format!("blocker {w} is not a member"),
            ));
        }
        if witnessed[v as usize] {
            return Err(AuditError::new(
                loc(),
                format!("vertex {v} witnessed twice"),
            ));
        }
        if !valid(v, w) {
            return Err(AuditError::new(
                loc(),
                format!("member {w} does not block vertex {v} ({requirement})"),
            ));
        }
        witnessed[v as usize] = true;
    }
    for v in 0..g.n() {
        if !chosen[v] && !witnessed[v] {
            return Err(AuditError::new(
                "witness.blockers",
                format!("non-member {v} has no blocker — the selection is not maximal"),
            ));
        }
    }
    Ok(())
}

/// Checks a MIS maximality witness: `vertices` independent, and every
/// non-member blocked by a chosen neighbour.
pub fn check_mis_maximality(
    g: &Graph,
    vertices: &[VertexId],
    blockers: &[(VertexId, VertexId)],
) -> AuditResult {
    if !crate::verify::is_independent_set(g, vertices) {
        return Err(AuditError::new(
            "solution.vertices",
            "selection is not an independent set",
        ));
    }
    let adj = g.adjacency();
    check_blockers(
        g,
        vertices,
        blockers,
        |v, w| adj[v as usize].iter().any(|&(x, _)| x == w),
        "must be a neighbour",
    )
}

/// Checks a clique maximality witness: `vertices` a clique, and every
/// non-member blocked by a chosen *non*-neighbour.
pub fn check_clique_maximality(
    g: &Graph,
    vertices: &[VertexId],
    blockers: &[(VertexId, VertexId)],
) -> AuditResult {
    if !crate::verify::is_clique(g, vertices) {
        return Err(AuditError::new(
            "solution.vertices",
            "selection is not a clique",
        ));
    }
    if vertices.is_empty() && g.n() > 0 {
        return Err(AuditError::new(
            "solution.vertices",
            "empty clique in a non-empty graph is never maximal",
        ));
    }
    let adj = g.adjacency();
    check_blockers(
        g,
        vertices,
        blockers,
        |v, w| !adj[v as usize].iter().any(|&(x, _)| x == w),
        "must be a non-neighbour",
    )
}

/// Checks a properness witness against the instance and solution:
/// colouring proper, colours in `0..num_colours`, class sizes matching a
/// recount (all non-empty — the palette is compacted), `Δ` matching.
pub fn check_properness(
    g: &Graph,
    sol: &ColouringResult,
    max_degree: usize,
    counts: &[usize],
    edges: bool,
) -> AuditResult {
    let proper = if edges {
        crate::verify::is_proper_edge_colouring(g, &sol.colours)
    } else {
        crate::verify::is_proper_colouring(g, &sol.colours)
    };
    if !proper {
        return Err(AuditError::new(
            "solution.colours",
            "colouring is not proper",
        ));
    }
    if counts.len() != sol.num_colours {
        return Err(AuditError::new(
            "witness.colour_counts",
            format!(
                "{} classes recorded, {} colours claimed",
                counts.len(),
                sol.num_colours
            ),
        ));
    }
    if let Some(&c) = sol
        .colours
        .iter()
        .find(|&&c| (c as usize) >= sol.num_colours)
    {
        return Err(AuditError::new(
            "solution.colours",
            format!(
                "colour {c} outside the claimed palette 0..{}",
                sol.num_colours
            ),
        ));
    }
    let recount = colour_counts(&sol.colours, sol.num_colours);
    if recount != counts {
        return Err(AuditError::new(
            "witness.colour_counts",
            "recorded colour-class sizes do not match a recount".to_string(),
        ));
    }
    if let Some(c) = recount.iter().position(|&k| k == 0) {
        return Err(AuditError::new(
            "witness.colour_counts",
            format!("colour {c} is unused — palette not compacted"),
        ));
    }
    if max_degree != g.max_degree() {
        return Err(AuditError::new(
            "witness.max_degree",
            format!(
                "recorded Δ = {max_degree}, instance has Δ = {}",
                g.max_degree()
            ),
        ));
    }
    Ok(())
}

// ------------------------------------------------------------------- audit

/// The scalar claims of a stored certificate, checked by [`audit`]
/// against recomputation.
#[derive(Debug, Clone, PartialEq)]
pub struct Claims {
    /// The report claims the solution passed its validator.
    pub feasible: bool,
    /// Claimed objective value.
    pub objective: f64,
    /// Claimed certified approximation ratio.
    pub certified_ratio: Option<f64>,
}

impl From<&Certificate> for Claims {
    fn from(c: &Certificate) -> Claims {
        Claims {
            feasible: c.feasible,
            objective: c.objective,
            certified_ratio: c.certified_ratio,
        }
    }
}

fn require(cond: bool, location: &str, message: impl Into<String>) -> AuditResult {
    if cond {
        Ok(())
    } else {
        Err(AuditError::new(location, message))
    }
}

fn check_ratio_claim(claims: &Claims, recomputed: Option<f64>) -> AuditResult {
    match (claims.certified_ratio, recomputed) {
        (None, None) => Ok(()),
        (Some(a), Some(b)) if approx_eq(a, b) => Ok(()),
        (a, b) => Err(AuditError::new(
            "certificate.certified_ratio",
            format!("claimed {a:?}, recomputed {b:?}"),
        )),
    }
}

/// The approximation ratio a theorem guarantees a key's reports on one
/// instance.
struct RatioBound {
    /// The paper's result, e.g. `Theorem 2.4`.
    theorem: &'static str,
    /// The largest ratio it allows.
    ratio: f64,
}

/// The theorem bound on `algorithm`'s ratio over `instance`, for every
/// key that claims a ratio; `None` for the structural keys (and for an
/// instance of the wrong kind, which [`audit`] rejects first).
fn theorem_bound(instance: &Instance, algorithm: &str) -> Option<RatioBound> {
    let (theorem, ratio) = match (algorithm, instance) {
        ("set-cover-f", Instance::SetSystem(sys)) => {
            ("Theorem 2.4", sys.max_frequency().max(1) as f64)
        }
        ("set-cover-greedy", Instance::SetSystem(sys)) => (
            "Theorem 4.6",
            (1.0 + super::DEFAULT_GREEDY_SC_EPS) * crate::seq::harmonic(sys.max_set_size().max(1)),
        ),
        ("vertex-cover", Instance::VertexWeighted(_)) => ("Theorem 2.4, f = 2", 2.0),
        ("matching", Instance::Graph(_)) => ("Theorem 5.6", 2.0),
        ("b-matching", Instance::BMatching(inst)) => (
            "Theorem D.3",
            crate::seq::b_matching_multiplier(&inst.b, inst.eps),
        ),
        _ => return None,
    };
    Some(RatioBound { theorem, ratio })
}

/// Checks a certified ratio (already matched to its recomputation)
/// against the theorem's bound, with [`AUDIT_TOL`] as a relative
/// tolerance. A ratio the certificate cannot bound (`None`) exceeds
/// every bound.
fn check_ratio_bound(certified: Option<f64>, bound: &RatioBound) -> AuditResult<String> {
    let RatioBound { theorem, ratio } = bound;
    match certified {
        Some(r) if r <= ratio * (1.0 + AUDIT_TOL) => Ok(format!(
            "bound: certified ratio {r:.4} ≤ {ratio} ({theorem})"
        )),
        Some(r) => Err(AuditError::new(
            "certificate.certified_ratio",
            format!("certified ratio {r} exceeds {theorem}'s bound {ratio}"),
        )),
        None => Err(AuditError::new(
            "certificate.certified_ratio",
            format!("no finite ratio certified; {theorem} bounds it by {ratio}"),
        )),
    }
}

/// The cover-family ratio claim, mirroring
/// [`CoverCertificate`](super::CoverCertificate)'s `Into<Certificate>`.
fn cover_ratio(weight: f64, lower_bound: f64) -> Option<f64> {
    if lower_bound > 0.0 {
        Some(weight / lower_bound)
    } else if weight <= 0.0 {
        Some(1.0)
    } else {
        None
    }
}

/// The matching-family ratio claim, mirroring
/// [`MatchingCertificate`](super::MatchingCertificate)'s `Into<Certificate>`.
fn matching_ratio(weight: f64, stack_gain: f64, multiplier: f64) -> Option<f64> {
    if weight > 0.0 {
        Some(multiplier * stack_gain / weight)
    } else if stack_gain <= 0.0 {
        Some(1.0)
    } else {
        None
    }
}

fn audit_cover(
    sys: &SetSystem,
    feasible_check: impl Fn(&CoverResult) -> bool,
    weight_of: impl Fn(&CoverResult) -> f64,
    sol: &CoverResult,
    claims: &Claims,
    witness: &Witness,
    checks: &mut Vec<String>,
) -> AuditResult {
    let Witness::CoverDual { dual } = witness else {
        return Err(AuditError::new(
            "witness",
            format!("expected a cover-dual witness, found {}", witness.kind()),
        ));
    };
    // Range-check before handing untrusted ids to the validators —
    // `SetSystem::covers`/`cover_weight` index sets without bounds checks.
    if let Some(&bad) = sol.cover.iter().find(|&&i| (i as usize) >= sys.n_sets()) {
        return Err(AuditError::new(
            "solution.cover",
            format!("set id {bad} outside instance of {} sets", sys.n_sets()),
        ));
    }
    require(
        feasible_check(sol),
        "solution.cover",
        "not a feasible cover",
    )?;
    require(
        claims.feasible,
        "certificate.feasible",
        "report claims infeasible run",
    )?;
    checks.push(format!(
        "feasibility: {} sets cover the universe",
        sol.cover.len()
    ));
    let recomputed = weight_of(sol);
    require(
        approx_eq(recomputed, sol.weight) && approx_eq(sol.weight, claims.objective),
        "solution.weight",
        format!(
            "recomputed weight {recomputed}, claimed {}",
            claims.objective
        ),
    )?;
    checks.push(format!("objective: cover weight {recomputed:.6} re-added"));
    check_cover_dual(sys, dual, sol.lower_bound)?;
    checks.push(format!(
        "dual: {} reductions feasible, Σy = {:.6} ≤ OPT",
        dual.len(),
        sol.lower_bound
    ));
    check_ratio_claim(claims, cover_ratio(sol.weight, sol.lower_bound))?;
    checks.push("ratio: weight / dual matches the claim".into());
    Ok(())
}

fn audit_matching(
    g: &Graph,
    b: Option<&BMatchingInstance>,
    sol: &MatchingResult,
    claims: &Claims,
    witness: &Witness,
    checks: &mut Vec<String>,
) -> AuditResult {
    let Witness::Stack { stack } = witness else {
        return Err(AuditError::new(
            "witness",
            format!("expected a stack witness, found {}", witness.kind()),
        ));
    };
    let (feasible, replay, multiplier) = match b {
        None => (
            crate::verify::is_matching(g, &sol.matching),
            replay_matching_stack(g, stack)?,
            2.0,
        ),
        Some(inst) => (
            crate::verify::is_b_matching(g, &inst.b, &sol.matching),
            replay_b_matching_stack(g, &inst.b, inst.eps, stack)?,
            inst.multiplier(),
        ),
    };
    require(feasible, "solution.matching", "not a feasible (b-)matching")?;
    require(
        claims.feasible,
        "certificate.feasible",
        "report claims infeasible run",
    )?;
    checks.push(format!("feasibility: {} matched edges", sol.matching.len()));
    require(
        replay.matching == sol.matching,
        "solution.matching",
        "unwinding the transcript yields a different matching",
    )?;
    require(
        approx_eq(replay.gain, sol.stack_gain),
        "solution.stack_gain",
        format!(
            "transcript gain {}, claimed {}",
            replay.gain, sol.stack_gain
        ),
    )?;
    checks.push(format!(
        "transcript: {} pushes replayed, gain {:.6}, pass exhaustive",
        stack.len(),
        replay.gain
    ));
    let recomputed: f64 = sol.matching.iter().map(|&e| g.edge(e).w).sum();
    require(
        approx_eq(recomputed, sol.weight) && approx_eq(sol.weight, claims.objective),
        "solution.weight",
        format!(
            "recomputed weight {recomputed}, claimed {}",
            claims.objective
        ),
    )?;
    checks.push(format!(
        "objective: matching weight {recomputed:.6} re-added"
    ));
    check_ratio_claim(
        claims,
        matching_ratio(sol.weight, sol.stack_gain, multiplier),
    )?;
    checks.push(format!(
        "ratio: multiplier {multiplier:.4} × gain / weight matches the claim"
    ));
    Ok(())
}

fn audit_selection(
    g: &Graph,
    clique: bool,
    sol: &SelectionResult,
    claims: &Claims,
    witness: &Witness,
    checks: &mut Vec<String>,
) -> AuditResult {
    let Witness::Maximality { blockers } = witness else {
        return Err(AuditError::new(
            "witness",
            format!("expected a maximality witness, found {}", witness.kind()),
        ));
    };
    if clique {
        check_clique_maximality(g, &sol.vertices, blockers)?;
    } else {
        check_mis_maximality(g, &sol.vertices, blockers)?;
    }
    require(
        claims.feasible,
        "certificate.feasible",
        "report claims infeasible run",
    )?;
    checks.push(format!(
        "maximality: {} members, {} non-members blocked",
        sol.vertices.len(),
        blockers.len()
    ));
    require(
        approx_eq(sol.vertices.len() as f64, claims.objective),
        "certificate.objective",
        format!("|S| = {}, claimed {}", sol.vertices.len(), claims.objective),
    )?;
    checks.push(format!("objective: |S| = {} recounted", sol.vertices.len()));
    check_ratio_claim(claims, None)?;
    checks.push("ratio: structural guarantee (no ratio claimed)".into());
    Ok(())
}

fn audit_colouring(
    g: &Graph,
    edges: bool,
    sol: &ColouringResult,
    claims: &Claims,
    witness: &Witness,
    checks: &mut Vec<String>,
) -> AuditResult {
    let Witness::Properness {
        max_degree,
        colour_counts,
    } = witness
    else {
        return Err(AuditError::new(
            "witness",
            format!("expected a properness witness, found {}", witness.kind()),
        ));
    };
    check_properness(g, sol, *max_degree, colour_counts, edges)?;
    require(
        claims.feasible,
        "certificate.feasible",
        "report claims infeasible run",
    )?;
    checks.push(format!(
        "properness: {} colours over Δ = {max_degree}, classes recounted",
        sol.num_colours
    ));
    require(
        approx_eq(sol.num_colours as f64, claims.objective),
        "certificate.objective",
        format!("{} colours, claimed {}", sol.num_colours, claims.objective),
    )?;
    checks.push(format!("objective: {} colours recounted", sol.num_colours));
    check_ratio_claim(claims, None)?;
    checks.push("ratio: structural guarantee (no ratio claimed)".into());
    Ok(())
}

/// Re-verifies a stored report against its instance, without re-running
/// the solver: recomputes feasibility and the objective, replays the
/// witness (dual feasibility / stack replay / blockers / recount),
/// confirms the claimed lower bound and approximation ratio, and holds
/// the ratio to its theorem's bound — `f` (the instance's largest
/// frequency) for `set-cover-f`, `(1 + ε)·H(Δ)` (`ε` =
/// [`DEFAULT_GREEDY_SC_EPS`](super::DEFAULT_GREEDY_SC_EPS), the greedy
/// driver's one `ε`; `Δ` the largest set) for `set-cover-greedy`, 2 for
/// `vertex-cover` and `matching`, and `3 − 2/max(2, b_max) + 2ε` (the
/// instance's `ε`) for `b-matching`. The other keys carry structural
/// guarantees, no ratio.
///
/// Returns the list of human-readable checks that passed, or the first
/// [`AuditError`] (with a dotted location into the report).
pub fn audit(
    instance: &Instance,
    algorithm: &str,
    solution: &Solution,
    claims: &Claims,
    witness: &Witness,
) -> Result<Vec<String>, AuditError> {
    if let Witness::Committed { .. } = witness {
        return Err(AuditError::new(
            "witness",
            "committed witness: the sidecar transcript is required to audit it — \
             use `mrlr verify --witness <transcript>` (crate users: \
             `commit::audit_committed`)",
        ));
    }
    let mut checks = Vec::new();
    let wrong_solution = |expected: &str| {
        AuditError::new(
            "solution",
            format!("algorithm '{algorithm}' expects a {expected} solution"),
        )
    };
    let wrong_instance = |expected: &str| {
        AuditError::new(
            "instance",
            format!(
                "algorithm '{algorithm}' expects a {expected} instance, got a {}",
                instance.kind()
            ),
        )
    };
    match algorithm {
        "set-cover-f" | "set-cover-greedy" => {
            let Instance::SetSystem(sys) = instance else {
                return Err(wrong_instance("set system"));
            };
            let Solution::Cover(sol) = solution else {
                return Err(wrong_solution("cover"));
            };
            audit_cover(
                sys,
                |s| crate::verify::is_cover(sys, &s.cover),
                |s| sys.cover_weight(&s.cover),
                sol,
                claims,
                witness,
                &mut checks,
            )?;
        }
        "vertex-cover" => {
            let Instance::VertexWeighted(inst) = instance else {
                return Err(wrong_instance("vertex-weighted graph"));
            };
            let Solution::Cover(sol) = solution else {
                return Err(wrong_solution("cover"));
            };
            // The dual lives on the set-system view: vertices are sets,
            // edges elements.
            let sys = inst.as_set_system();
            audit_cover(
                &sys,
                |s| crate::verify::is_vertex_cover(&inst.graph, &s.cover),
                |s| s.cover.iter().map(|&v| inst.weights[v as usize]).sum(),
                sol,
                claims,
                witness,
                &mut checks,
            )?;
        }
        "matching" => {
            let Instance::Graph(g) = instance else {
                return Err(wrong_instance("graph"));
            };
            let Solution::Matching(sol) = solution else {
                return Err(wrong_solution("matching"));
            };
            audit_matching(g, None, sol, claims, witness, &mut checks)?;
        }
        "b-matching" => {
            let Instance::BMatching(inst) = instance else {
                return Err(wrong_instance("b-matching instance"));
            };
            let Solution::Matching(sol) = solution else {
                return Err(wrong_solution("matching"));
            };
            audit_matching(&inst.graph, Some(inst), sol, claims, witness, &mut checks)?;
        }
        "mis1" | "mis2" | "clique" => {
            let Instance::Graph(g) = instance else {
                return Err(wrong_instance("graph"));
            };
            let Solution::Selection(sol) = solution else {
                return Err(wrong_solution("selection"));
            };
            audit_selection(g, algorithm == "clique", sol, claims, witness, &mut checks)?;
        }
        "vertex-colouring" | "edge-colouring" => {
            let Instance::Graph(g) = instance else {
                return Err(wrong_instance("graph"));
            };
            let Solution::Colouring(sol) = solution else {
                return Err(wrong_solution("colouring"));
            };
            audit_colouring(
                g,
                algorithm == "edge-colouring",
                sol,
                claims,
                witness,
                &mut checks,
            )?;
        }
        other => {
            return Err(AuditError::new(
                "algorithm",
                format!("unknown registry key '{other}'"),
            ));
        }
    }
    if let Some(bound) = theorem_bound(instance, algorithm) {
        checks.push(check_ratio_bound(claims.certified_ratio, &bound)?);
    }
    Ok(checks)
}

/// [`audit`]s an in-memory [`Report`](super::Report) produced by the
/// registry — the same checks `mrlr verify` runs on a stored one.
pub fn audit_report(
    instance: &Instance,
    report: &super::Report<Solution>,
) -> Result<Vec<String>, AuditError> {
    audit(
        instance,
        report.algorithm,
        &report.solution,
        &Claims::from(&report.certificate),
        &report.certificate.witness,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Registry;
    use crate::mr::MrConfig;
    use mrlr_graph::generators;

    fn graph_instance(seed: u64) -> (Instance, MrConfig) {
        let g =
            generators::with_uniform_weights(&generators::densified(30, 0.4, seed), 1.0, 9.0, seed);
        let cfg = MrConfig::auto(30, g.m(), 0.3, seed);
        (Instance::Graph(g), cfg)
    }

    #[test]
    fn every_registry_report_audits_clean() {
        let registry = Registry::with_defaults();
        let (graph, cfg) = graph_instance(3);
        let unweighted = Instance::Graph(graph.graph().unwrap().unweighted());
        let sys = mrlr_setsys::generators::with_uniform_weights(
            mrlr_setsys::generators::bounded_frequency(20, 150, 3, 3),
            1.0,
            8.0,
            3,
        );
        let vw = Instance::VertexWeighted(crate::api::VertexWeightedGraph::new(
            graph.graph().unwrap().clone(),
            (0..30).map(|v| 1.0 + v as f64).collect(),
        ));
        let bm = Instance::BMatching(crate::api::BMatchingInstance::new(
            graph.graph().unwrap().clone(),
            (0..30).map(|v| 1 + (v % 3) as u32).collect(),
            0.25,
        ));
        let setsys = Instance::SetSystem(sys);
        let cases: Vec<(&str, &Instance)> = vec![
            ("set-cover-f", &setsys),
            ("set-cover-greedy", &setsys),
            ("vertex-cover", &vw),
            ("matching", &graph),
            ("b-matching", &bm),
            ("mis1", &unweighted),
            ("mis2", &unweighted),
            ("clique", &unweighted),
            ("vertex-colouring", &graph),
            ("edge-colouring", &graph),
        ];
        // Each theorem bound holds at its edge: a ratio 0.1% above it is
        // rejected, on the instance its reports are audited against.
        for (key, instance) in &cases {
            if let Some(bound) = theorem_bound(instance, key) {
                let above = bound.ratio * 1.001;
                assert!(
                    check_ratio_bound(Some(bound.ratio), &bound).is_ok(),
                    "{key}"
                );
                let err = check_ratio_bound(Some(above), &bound).unwrap_err();
                assert!(err.message.contains(bound.theorem), "{key}: {err}");
            }
        }
        for backend in crate::api::Backend::ALL {
            for (key, instance) in &cases {
                let scfg = instance.auto_config(0.4, 3);
                let _ = cfg; // graph cases reuse auto parameters
                let report = registry.solve_with(key, backend, instance, &scfg).unwrap();
                let checks = audit_report(instance, &report)
                    .unwrap_or_else(|e| panic!("{key} ({backend}): {e}"));
                assert!(checks.len() >= 3, "{key}: too few checks: {checks:?}");
            }
        }
    }

    #[test]
    fn tampered_dual_is_rejected() {
        let sys = mrlr_setsys::generators::with_uniform_weights(
            mrlr_setsys::generators::bounded_frequency(20, 150, 3, 1),
            1.0,
            8.0,
            1,
        );
        let instance = Instance::SetSystem(sys);
        let cfg = instance.auto_config(0.4, 1);
        let registry = Registry::with_defaults();
        let mut report = registry.solve("set-cover-f", &instance, &cfg).unwrap();
        // Inflate one dual value: the sum no longer matches the claimed
        // lower bound (and may break feasibility too).
        let Witness::CoverDual { dual } = &mut report.certificate.witness else {
            panic!("cover run must carry a dual")
        };
        dual[0].1 *= 2.0;
        let err = audit_report(&instance, &report).unwrap_err();
        assert!(err.location.contains("witness.dual"), "{err}");
    }

    #[test]
    fn tampered_stack_is_rejected() {
        let (instance, cfg) = graph_instance(5);
        let registry = Registry::with_defaults();
        let mut report = registry.solve("matching", &instance, &cfg).unwrap();
        let Witness::Stack { stack } = &mut report.certificate.witness else {
            panic!("matching run must carry a stack")
        };
        stack[0].1 += 0.5; // push no longer matches the modified weight
        let err = audit_report(&instance, &report).unwrap_err();
        assert!(err.location.contains("witness.stack"), "{err}");
    }

    #[test]
    fn tampered_solution_is_rejected() {
        let (instance, cfg) = graph_instance(7);
        let registry = Registry::with_defaults();
        let mut report = registry.solve("matching", &instance, &cfg).unwrap();
        let Solution::Matching(m) = &mut report.solution else {
            panic!("matching solution expected")
        };
        assert!(!m.matching.is_empty());
        m.matching.remove(0); // drop an edge: unwind no longer matches
        let err = audit_report(&instance, &report).unwrap_err();
        assert!(err.location.starts_with("solution."), "{err}");
    }

    #[test]
    fn tampered_blockers_are_rejected() {
        let (weighted, cfg) = graph_instance(9);
        let instance = Instance::Graph(weighted.graph().unwrap().unweighted());
        let registry = Registry::with_defaults();
        let mut report = registry.solve("mis1", &instance, &cfg).unwrap();
        let Witness::Maximality { blockers } = &mut report.certificate.witness else {
            panic!("mis run must carry blockers")
        };
        if blockers.is_empty() {
            return; // selection covers everything — nothing to tamper
        }
        blockers.remove(0); // some non-member loses its witness
        let err = audit_report(&instance, &report).unwrap_err();
        assert!(err.location.contains("witness.blockers"), "{err}");
    }

    #[test]
    fn tampered_colour_counts_are_rejected() {
        let (instance, cfg) = graph_instance(11);
        let registry = Registry::with_defaults();
        let mut report = registry.solve("vertex-colouring", &instance, &cfg).unwrap();
        let Witness::Properness { colour_counts, .. } = &mut report.certificate.witness else {
            panic!("colouring run must carry properness")
        };
        colour_counts[0] += 1;
        let err = audit_report(&instance, &report).unwrap_err();
        assert!(err.location.contains("witness.colour_counts"), "{err}");
    }

    /// A stored cover report over one dual value `y_0 = 1`: the cover
    /// `cover` of weight `weight`, at ratio `weight`.
    fn stored_cover(cover: Vec<u32>, weight: f64) -> (Solution, Claims) {
        let solution = Solution::Cover(CoverResult {
            cover,
            weight,
            lower_bound: 1.0,
            dual: vec![],
            iterations: 1,
        });
        let claims = Claims {
            feasible: true,
            objective: weight,
            certified_ratio: Some(weight),
        };
        (solution, claims)
    }

    #[test]
    fn a_clean_cover_above_the_theorem_bound_is_rejected() {
        // Two sets over one element, so f = 2. Taking both against the
        // dual y_0 = 1 is a feasible cover with a feasible dual, and the
        // claim matches its recomputation — but its ratio exceeds f: far
        // above it (weights 1 and 5, ratio 6) and at its edge (weights 1
        // and 1.02, ratio 2.02). The same two sets are the endpoints of
        // one edge, so each case is also a vertex cover above f = 2.
        let witness = Witness::CoverDual {
            dual: vec![(0, 1.0)],
        };
        for heavy in [5.0, 1.02] {
            let sys = SetSystem::new(1, vec![vec![0], vec![0]], vec![1.0, heavy]);
            let graph = Graph::new(2, vec![mrlr_graph::Edge::new(0, 1, 1.0)]);
            let vw = crate::api::VertexWeightedGraph::new(graph, vec![1.0, heavy]);
            let cases = [
                ("set-cover-f", Instance::SetSystem(sys)),
                ("vertex-cover", Instance::VertexWeighted(vw)),
            ];
            for (key, instance) in &cases {
                let (solution, claims) = stored_cover(vec![0], 1.0);
                let checks = audit(instance, key, &solution, &claims, &witness).unwrap();
                assert!(checks.last().unwrap().contains("Theorem 2.4"), "{checks:?}");

                let (solution, claims) = stored_cover(vec![0, 1], 1.0 + heavy);
                let err = audit(instance, key, &solution, &claims, &witness).unwrap_err();
                assert_eq!(err.location, "certificate.certified_ratio", "{key}: {err}");
                assert!(err.message.contains("exceeds"), "{key}: {err}");
            }
        }
    }

    #[test]
    fn a_clean_greedy_cover_above_the_theorem_bound_is_rejected() {
        // Δ = 1, so Theorem 4.6 allows (1 + ε)·H(1) = 1.2. Against the
        // dual y_0 = 1, a clean report — feasible cover, feasible dual,
        // claim recomputed — sits far above it (two sets over one
        // element, weights 1 and 5: both sets, ratio 6) or at its edge
        // (one set per element, weights 1 and 0.25: ratio 1.25).
        let witness = Witness::CoverDual {
            dual: vec![(0, 1.0)],
        };
        let far = SetSystem::new(1, vec![vec![0], vec![0]], vec![1.0, 5.0]);
        let instance = Instance::SetSystem(far);
        let (solution, claims) = stored_cover(vec![0], 1.0);
        let checks = audit(&instance, "set-cover-greedy", &solution, &claims, &witness).unwrap();
        let bound = 1.0 + crate::api::DEFAULT_GREEDY_SC_EPS;
        assert_eq!(
            checks.last().unwrap(),
            &format!("bound: certified ratio 1.0000 ≤ {bound} (Theorem 4.6)")
        );

        let near = SetSystem::new(2, vec![vec![0], vec![1]], vec![1.0, 0.25]);
        for (instance, weight) in [(instance, 6.0), (Instance::SetSystem(near), 1.25)] {
            let (solution, claims) = stored_cover(vec![0, 1], weight);
            let err =
                audit(&instance, "set-cover-greedy", &solution, &claims, &witness).unwrap_err();
            assert_eq!(err.location, "certificate.certified_ratio", "{err}");
            assert!(err.message.contains("Theorem 4.6"), "{err}");
        }
    }

    /// A replayed b-matching transcript unwinds to a matching at least as
    /// heavy as its gain, so no clean report certifies more than
    /// Theorem D.3's multiplier: the audit ends with that bound's check,
    /// and the same check rejects a claim nudged above it.
    #[test]
    fn a_b_matching_claim_above_the_theorem_bound_is_rejected() {
        let registry = Registry::with_defaults();
        let g = generators::with_uniform_weights(&generators::densified(30, 0.4, 5), 1.0, 9.0, 5);
        let b: Vec<u32> = (0..g.n()).map(|v| 1 + (v % 3) as u32).collect();
        let multiplier = crate::seq::b_matching_multiplier(&b, 0.25);
        let cfg = MrConfig::auto(30, g.m(), 0.3, 5);
        let instance = Instance::BMatching(BMatchingInstance::new(g, b, 0.25));
        let bound = theorem_bound(&instance, "b-matching").unwrap();
        assert_eq!((bound.theorem, bound.ratio), ("Theorem D.3", multiplier));
        let report = registry.solve("b-matching", &instance, &cfg).unwrap();
        let certified = report.certificate.certified_ratio;
        let checks = audit_report(&instance, &report).unwrap();
        assert_eq!(
            checks.last(),
            Some(&check_ratio_bound(certified, &bound).unwrap())
        );

        let err = check_ratio_bound(Some(bound.ratio * 1.001), &bound).unwrap_err();
        assert_eq!(err.location, "certificate.certified_ratio", "{err}");
        assert!(err.message.contains("Theorem D.3"), "{err}");
    }

    #[test]
    fn witness_kind_tags_are_stable() {
        assert_eq!(Witness::CoverDual { dual: vec![] }.kind(), "cover-dual");
        assert_eq!(Witness::Stack { stack: vec![] }.kind(), "stack");
        assert_eq!(
            Witness::Maximality { blockers: vec![] }.kind(),
            "maximality"
        );
        assert_eq!(
            Witness::Properness {
                max_degree: 0,
                colour_counts: vec![]
            }
            .kind(),
            "properness"
        );
    }
}
