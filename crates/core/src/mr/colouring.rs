//! MapReduce implementation of Algorithm 5 and Remark 6.5 (Theorems 6.4
//! and 6.6): `(1+o(1))Δ` vertex and edge colouring in `O(1)` rounds.
//!
//! Group membership is a pure hash — every machine evaluates it locally
//! with zero communication. The driver evaluates it once per entity into
//! a group column that the produce step and the final palette offsets
//! both read, which is the same hash a machine would compute and moves no
//! metered word. One exchange routes each intra-group edge to
//! its group's machine (`group mod M`, the paper's "central machine `i`"),
//! which colours its subgraph(s) locally: greedy `(Δ_i+1)` for vertex
//! colouring, Misra–Gries for edge colouring. A final gather collects the
//! colours. Total: 2 communication rounds.
//!
//! A machine's state is three flat record columns and no per-record
//! lists: received edges are sorted by `(group, edge)` once at receipt,
//! so the guard and the colouring pass read each group as one slice of
//! that column. The columns fill and drain between supersteps, which is
//! why this state's metered `words()` is computed live from their
//! lengths. The driver assembles the answer by offsetting private
//! palettes in ascending group order (`colouring::offset_palettes`).
//! A group's subgraph is built with `Graph::from_validated`: a subgraph
//! of a simple graph is simple.

use mrlr_graph::{Edge, EdgeId, Graph, VertexId};
use mrlr_mapreduce::{Cluster, Metrics, MrError, MrResult, WordSized};

use crate::colouring::{entity_groups, offset_palettes};
use crate::mr::MrConfig;
use crate::seq::greedy_graph::greedy_colouring_with_order;
use crate::seq::misra_gries::misra_gries_edge_colouring;
use crate::types::ColouringResult;

struct ColourChunk {
    /// Input edges resident on this machine.
    input: Vec<(EdgeId, VertexId, VertexId)>,
    /// Received group edges, per group owned by this machine.
    received: Vec<(u64, EdgeId, VertexId, VertexId)>,
    /// Computed colours `(group, entity, colour)` — entity is a vertex for
    /// vertex colouring, an edge for edge colouring.
    colours: Vec<(u64, u32, u32)>,
}

impl WordSized for ColourChunk {
    fn words(&self) -> usize {
        3 + self.input.len() * 3 + self.received.len() * 4 + self.colours.len() * 3
    }
}

fn build_chunks(g: &Graph, cfg: &MrConfig) -> Vec<ColourChunk> {
    let mut chunks: Vec<ColourChunk> = (0..cfg.machines)
        .map(|_| ColourChunk {
            input: Vec::new(),
            received: Vec::new(),
            colours: Vec::new(),
        })
        .collect();
    for (idx, e) in g.edges().iter().enumerate() {
        chunks[cfg.place(idx as u64)]
            .input
            .push((idx as EdgeId, e.u, e.v));
    }
    chunks
}

/// Algorithm 5 on the cluster. The output depends on `(kappa, cfg.seed)`
/// only, not on the machine count.
///
/// [`crate::api::Registry`] runs this for `vertex-colouring` on every cluster
/// backend, on the runtime `cfg.exec.runtime` names.
pub fn run_vertex(
    g: &Graph,
    kappa: usize,
    edge_limit: usize,
    cfg: MrConfig,
) -> MrResult<(ColouringResult, Metrics)> {
    group_pass(g, kappa, edge_limit, cfg, false)
}

/// Remark 6.5 on the cluster. The output depends on `(kappa, cfg.seed)`
/// only, not on the machine count.
///
/// [`crate::api::Registry`] runs this for `edge-colouring` on every cluster
/// backend, on the runtime `cfg.exec.runtime` names.
pub fn run_edge(
    g: &Graph,
    kappa: usize,
    edge_limit: usize,
    cfg: MrConfig,
) -> MrResult<(ColouringResult, Metrics)> {
    group_pass(g, kappa, edge_limit, cfg, true)
}

/// Algorithm 5's group pass on the cluster, over vertex groups or, with
/// `edges`, over edge groups (Remark 6.5): route each edge to its group's
/// machine, guard the group sizes, colour every group locally, gather.
fn group_pass(
    g: &Graph,
    kappa: usize,
    edge_limit: usize,
    cfg: MrConfig,
    edges: bool,
) -> MrResult<(ColouringResult, Metrics)> {
    if kappa == 0 {
        return Err(MrError::BadConfig("kappa must be positive".into()));
    }
    let n = g.n();
    let machines = cfg.machines;
    let groups = entity_groups(g, cfg.seed, kappa, edges);
    let mut cluster = Cluster::new(cfg.cluster(), build_chunks(g, &cfg))?;

    // Route every edge of a group to the group's machine (one round): an
    // edge's own group, or its endpoints' group when they share one.
    cluster.exchange::<(u64, EdgeId, VertexId, VertexId), _, _>(
        |_, s, out| {
            for &(e, u, v) in &s.input {
                let grp = if edges {
                    groups[e as usize]
                } else if groups[u as usize] == groups[v as usize] {
                    groups[u as usize]
                } else {
                    continue;
                };
                out.send(grp % machines, (grp as u64, e, u, v));
            }
            s.input.clear();
        },
        |_, s, inbox| {
            // Sort once at receipt, in the delivery arena: `(group, edge)`
            // keys are unique, so this is deterministic on every routing
            // plane, and both the Lemma 6.2 guard and the colouring pass
            // then scan grouped data without cloning or re-sorting.
            inbox.sort_unstable_by_key(|&(grp, e, _, _)| (grp, e));
            s.received = inbox.to_vec();
        },
    )?;

    // Guard of line 4 (Lemma 6.2): per-group edge budget. A machine
    // reports its largest group: the first of equals for vertex groups,
    // the last for edge groups.
    let worst = cluster.aggregate(
        |_, s: &ColourChunk| {
            let mut best: (u64, u64) = (0, 0); // (count, group)
            for group in s.received.chunk_by(|a, b| a.0 == b.0) {
                let count = group.len() as u64;
                if count > best.0 || (edges && count == best.0) {
                    best = (count, group[0].0);
                }
            }
            best
        },
        |a, b| if a.0 >= b.0 { a } else { b },
    )?;
    if worst.0 as usize > edge_limit {
        let (grp, count) = worst;
        return Err(cluster.fail(if edges {
            format!("edge group {grp} has {count} > {edge_limit} edges")
        } else {
            format!("group {grp} has {count} > {edge_limit} edges (Lemma 6.2 guard)")
        }));
    }

    // Colour each owned group locally: greedy over its vertices, or
    // Misra–Gries over its edges.
    cluster.local(move |_, s: &mut ColourChunk| {
        let rec = std::mem::take(&mut s.received); // sorted at receipt
        for group in rec.chunk_by(|a, b| a.0 == b.0) {
            let grp = group[0].0;
            let sub_edges = group.iter().map(|&(_, _, u, v)| Edge::new(u, v, 1.0));
            let sub = Graph::from_validated(n, sub_edges.collect());
            if edges {
                // The sub-graph's edge `pos` is the group's `pos`-th record.
                let local = misra_gries_edge_colouring(&sub);
                let coloured = group.iter().zip(&local.colours);
                s.colours
                    .extend(coloured.map(|(&(_, e, _, _), &c)| (grp, e, c)));
            } else {
                let mut members: Vec<VertexId> =
                    sub.edges().iter().flat_map(|e| [e.u, e.v]).collect();
                members.sort_unstable();
                members.dedup();
                let local = greedy_colouring_with_order(&sub, &members);
                for &v in &members {
                    s.colours.push((grp, v, local.colours[v as usize]));
                }
            }
        }
    })?;

    // Collect colours (one round).
    let coloured: Vec<(u64, u32, u32)> =
        cluster.gather(|_, s: &mut ColourChunk| std::mem::take(&mut s.colours))?;

    // Assemble: groups ascending, private palettes offset sequentially;
    // vertices without intra-group edges get local colour 0 of their group.
    let mut local_colour = vec![0u32; groups.len()];
    for &(_, x, c) in &coloured {
        local_colour[x as usize] = c;
    }
    let (colours, num_colours) = offset_palettes(&groups, &local_colour, kappa);

    let (_, metrics) = cluster.into_parts();
    Ok((
        ColouringResult {
            colours,
            num_colours,
            groups: kappa,
        },
        metrics,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{is_proper_colouring, is_proper_edge_colouring};
    use mrlr_graph::generators::densified;

    #[test]
    fn vertex_matches_driver_and_is_constant_round() {
        for seed in 0..3 {
            let g = densified(60, 0.5, seed);
            let cfg = MrConfig::auto(60, g.m(), 0.3, seed);
            let (mr, metrics) = run_vertex(&g, 4, usize::MAX, cfg).unwrap();
            let one = cfg.with_machines(1).recording();
            let (seq, _) = run_vertex(&g, 4, usize::MAX, one).unwrap();
            assert_eq!(mr.colours, seq.colours, "seed {seed}");
            assert_eq!(mr.num_colours, seq.num_colours);
            assert!(is_proper_colouring(&g, &mr.colours));
            // O(1) rounds: 1 exchange + 1 gather (+ limit aggregate if on).
            assert!(metrics.rounds <= 3, "rounds {}", metrics.rounds);
        }
    }

    #[test]
    fn edge_matches_driver() {
        for seed in 0..3 {
            let g = densified(40, 0.4, seed);
            let cfg = MrConfig::auto(40, g.m(), 0.3, seed);
            let (mr, metrics) = run_edge(&g, 3, usize::MAX, cfg).unwrap();
            let one = cfg.with_machines(1).recording();
            let (seq, _) = run_edge(&g, 3, usize::MAX, one).unwrap();
            assert_eq!(mr.colours, seq.colours, "seed {seed}");
            assert!(is_proper_edge_colouring(&g, &mr.colours));
            assert!(metrics.rounds <= 3);
        }
    }

    #[test]
    fn limit_guard_fires() {
        let g = densified(30, 0.6, 1);
        let cfg = MrConfig::auto(30, g.m(), 0.3, 1);
        assert!(run_vertex(&g, 1, 5, cfg).is_err());
        assert!(run_edge(&g, 1, 5, cfg).is_err());
    }
}
