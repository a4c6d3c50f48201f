//! MapReduce implementation of Appendix B (Corollary B.1): maximal clique
//! in `O(1/µ)` rounds, without materializing the complement graph.
//!
//! Machines hold vertex adjacency plus a replicated *active-set* bitmap
//! (the surviving common-neighbour candidates), maintained by broadcast
//! removal deltas — the executable form of the paper's relabelling scheme.
//! A sampled vertex sends its **complement** list `A \ N[v]`, whose size is
//! its complement degree (bounded by its degree class), so communication
//! stays `O(n^{1+µ})` per round even though the complement is dense.

use mrlr_graph::{Graph, VertexId};
use mrlr_mapreduce::{Bitset, Cluster, Metrics, MrError, MrResult, WordSized};

use crate::hungry::clique::CLIQUE_RNG_TAG;
use crate::hungry::mis::{degree_class, group_choice, MisParams};
use crate::mr::MrConfig;
use crate::types::SelectionResult;

struct CliqueRec {
    v: VertexId,
    /// Sorted neighbour ids.
    nbrs: Vec<VertexId>,
    /// `|N(v) ∩ A|` while `v` is active.
    g_alive: usize,
}

impl WordSized for CliqueRec {
    fn words(&self) -> usize {
        2 + self.nbrs.words()
    }
}

struct CliqueChunk {
    recs: Vec<CliqueRec>,
    active: Bitset,
    active_count: usize,
}

impl WordSized for CliqueChunk {
    fn words(&self) -> usize {
        2 + self.recs.iter().map(WordSized::words).sum::<usize>() + self.active.words()
    }
}

impl CliqueChunk {
    fn apply_delta(&mut self, delta: &[VertexId]) {
        for &v in delta {
            self.active.clear(v as usize);
        }
        self.active_count -= delta.len();
        for rec in &mut self.recs {
            if !self.active.get(rec.v as usize) {
                continue;
            }
            rec.g_alive -= rec
                .nbrs
                .iter()
                .filter(|x| delta.binary_search(x).is_ok())
                .count();
        }
    }

    fn dbar(&self, rec: &CliqueRec) -> usize {
        self.active_count - 1 - rec.g_alive
    }

    /// Complement list `A \ N[v] \ {v}` of an active record.
    fn complement_list(&self, rec: &CliqueRec) -> Vec<VertexId> {
        self.active
            .iter_ones()
            .map(|u| u as VertexId)
            .filter(|&u| u != rec.v && rec.nbrs.binary_search(&u).is_err())
            .collect()
    }
}

type SampleMsg = (u64, u64, VertexId, Vec<VertexId>); // (class, group, v, complement list)

/// Appendix B's maximal clique on the cluster. Output is bit-identical to
/// [`crate::hungry::clique::maximal_clique`] with the same parameters.
///
/// [`crate::api::CliqueDriver`] runs this for every cluster backend,
/// on the runtime `cfg.exec.runtime` names.
pub fn run(g: &Graph, params: MisParams, cfg: MrConfig) -> MrResult<(SelectionResult, Metrics)> {
    if !(params.alpha > 0.0 && params.alpha <= 1.0) || params.group_size == 0 || params.eta == 0 {
        return Err(MrError::BadConfig(
            "invalid hungry-greedy parameters".into(),
        ));
    }
    let n = g.n();
    if n == 0 {
        return Ok((
            SelectionResult {
                vertices: vec![],
                phases: 0,
                iterations: 0,
            },
            Metrics::new(cfg.machines, cfg.capacity),
        ));
    }
    let nf = (n.max(2)) as f64;
    let num_classes = (1.0 / params.alpha).ceil() as usize;

    let chunks = {
        let adj = g.neighbours();
        let mut chunks: Vec<CliqueChunk> = (0..cfg.machines)
            .map(|_| CliqueChunk {
                recs: Vec::new(),
                active: Bitset::full(n),
                active_count: n,
            })
            .collect();
        for v in 0..n {
            let mut nbrs = adj[v].clone();
            nbrs.sort_unstable();
            chunks[cfg.place(v as u64)].recs.push(CliqueRec {
                v: v as VertexId,
                g_alive: nbrs.len(),
                nbrs,
            });
        }
        chunks
    };
    let mut cluster = Cluster::new(cfg.cluster(), chunks)?;
    let mut clique: Vec<VertexId> = Vec::new();
    cluster.charge_central(2 + n / 32)?;

    let mut k = 0usize;
    loop {
        let comp_edges = {
            let (active_count, alive_sum) = cluster.aggregate(
                |_, s: &CliqueChunk| {
                    let active: usize =
                        s.recs.iter().filter(|r| s.active.get(r.v as usize)).count();
                    let alive: usize = s
                        .recs
                        .iter()
                        .filter(|r| s.active.get(r.v as usize))
                        .map(|r| r.g_alive)
                        .sum();
                    (active, alive)
                },
                |a, b| (a.0 + b.0, a.1 + b.1),
            )?;
            if active_count < 2 {
                0
            } else {
                active_count * (active_count - 1) / 2 - alive_sum / 2
            }
        };
        let global_active = cluster.state(0).active_count; // replicated scalar
        if comp_edges < params.eta || global_active == 0 {
            break;
        }
        k += 1;
        if k > 64 + 4 * n {
            return Err(cluster.fail("clique round budget exhausted"));
        }

        // Class sizes over complement degrees.
        let class_sizes: Vec<u64> = cluster.aggregate(
            |_, s: &CliqueChunk| {
                let mut counts = vec![0u64; num_classes + 1];
                for r in &s.recs {
                    if s.active.get(r.v as usize) {
                        let d = s.dbar(r);
                        if d > 0 {
                            counts[degree_class(d, nf, params.alpha, num_classes)] += 1;
                        }
                    }
                }
                counts
            },
            |mut a, b| {
                for (x, y) in a.iter_mut().zip(b) {
                    *x += y;
                }
                a
            },
        )?;
        cluster.broadcast(&class_sizes)?;

        let seed = params.seed;
        let alpha = params.alpha;
        let gs = params.group_size;
        let sizes = class_sizes.clone();
        let mut sample: Vec<SampleMsg> = cluster.gather(move |_, s: &mut CliqueChunk| {
            let mut out = Vec::new();
            for r in &s.recs {
                if !s.active.get(r.v as usize) {
                    continue;
                }
                let d = s.dbar(r);
                if d == 0 {
                    continue;
                }
                let i = degree_class(d, nf, alpha, num_classes);
                let groups_count = nf.powf((i + 1) as f64 * alpha).ceil() as usize;
                if let Some(gid) = group_choice(
                    seed,
                    &[CLIQUE_RNG_TAG, k as u64, i as u64],
                    r.v as u64,
                    groups_count,
                    gs,
                    sizes[i] as usize,
                ) {
                    out.push((i as u64, gid as u64, r.v, s.complement_list(r)));
                }
            }
            out
        })?;

        // Central: one qualifying vertex per group, hungriest (max current
        // complement degree) first within a group.
        sample.sort_unstable_by_key(|&(c, gg, v, _)| (c, gg, v));
        let mut removed_now = vec![false; n];
        let mut delta: Vec<VertexId> = Vec::new();
        let mut idx = 0usize;
        while idx < sample.len() {
            let (c, gid) = (sample[idx].0, sample[idx].1);
            let accept = nf.powf(1.0 - (c as f64 + 1.0) * params.alpha);
            let mut best: Option<(usize, usize)> = None;
            while idx < sample.len() && sample[idx].0 == c && sample[idx].1 == gid {
                let (_, _, v, ref list) = sample[idx];
                if !removed_now[v as usize] {
                    let d = list.iter().filter(|&&u| !removed_now[u as usize]).count();
                    if (d as f64) >= accept {
                        best = match best {
                            None => Some((d, idx)),
                            Some((bd, _)) if d > bd => Some((d, idx)),
                            other => other,
                        };
                    }
                }
                idx += 1;
            }
            if let Some((_, bi)) = best {
                let (_, _, v, list) = sample[bi].clone();
                clique.push(v);
                removed_now[v as usize] = true;
                delta.push(v);
                for &u in &list {
                    if !removed_now[u as usize] {
                        removed_now[u as usize] = true;
                        delta.push(u);
                    }
                }
            }
        }
        delta.sort_unstable();
        cluster.broadcast(&delta)?;
        cluster.local(move |_, s: &mut CliqueChunk| s.apply_delta(&delta))?;
    }

    // Final central round: greedy clique over the residual active set using
    // gathered complement lists (ascending vertex order).
    let mut residual: Vec<(VertexId, Vec<VertexId>)> =
        cluster.gather(|_, s: &mut CliqueChunk| {
            s.recs
                .iter()
                .filter(|r| s.active.get(r.v as usize))
                .map(|r| (r.v, s.complement_list(r)))
                .collect::<Vec<_>>()
        })?;
    residual.sort_unstable_by_key(|&(v, _)| v);
    let mut removed_now = vec![false; n];
    for (v, list) in residual {
        if removed_now[v as usize] {
            continue;
        }
        clique.push(v);
        removed_now[v as usize] = true;
        for &u in &list {
            removed_now[u as usize] = true;
        }
    }

    clique.sort_unstable();
    let result = SelectionResult {
        vertices: clique,
        phases: k,
        iterations: k + 1,
    };
    let (_, metrics) = cluster.into_parts();
    Ok((result, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hungry::clique::maximal_clique;
    use crate::verify::is_maximal_clique;
    use mrlr_graph::generators::gnp;

    #[test]
    fn matches_driver_bit_for_bit() {
        for seed in 0..4 {
            let g = gnp(40, 0.5, seed);
            let params = MisParams::mis2(40, 0.3, seed);
            let cfg = MrConfig::auto(40, g.m().max(1), 0.3, seed);
            let (mr, metrics) = run(&g, params, cfg).unwrap();
            let seq = maximal_clique(&g, params).unwrap();
            assert_eq!(mr.vertices, seq.vertices, "seed {seed}");
            assert!(is_maximal_clique(&g, &mr.vertices));
            assert!(metrics.rounds > 0);
        }
    }

    #[test]
    fn dense_graph_nontrivial_clique() {
        let g = gnp(35, 0.8, 3);
        let params = MisParams::mis2(35, 0.4, 3);
        let cfg = MrConfig::auto(35, g.m(), 0.4, 3);
        let (r, _) = run(&g, params, cfg).unwrap();
        assert!(r.vertices.len() >= 3);
        assert!(is_maximal_clique(&g, &r.vertices));
    }
}
