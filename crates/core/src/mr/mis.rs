//! MapReduce implementations of Algorithm 2 (`MIS1`, Theorem 3.3) and
//! Algorithm 6 (`MIS2`, Theorem A.3): hungry-greedy maximal independent
//! set.
//!
//! Layout: vertices with adjacency lists are hash-partitioned
//! (`O(n^{1+µ})` words per machine w.h.p.); each machine also keeps a
//! removed-set bitmap (`⌈n/64⌉` words) refreshed by broadcast deltas, from
//! which alive degrees are maintained locally. A machine's block is flat:
//! fixed-width vertex records beside one [`Csr`] arena holding every
//! sorted neighbour list (`mr::place_neighbours`). The *metered* size is
//! still the record-per-vertex formula; only flags and counters change
//! after distribution, so it is computed once. Sampled heavy vertices send
//! their *alive* neighbour lists to the central machine — bounded by their
//! degree class — which is all the central machine needs to update
//! `I`/`N⁺(I)` and re-evaluate candidates mid-round.

use mrlr_graph::{Graph, VertexId};
use mrlr_mapreduce::{
    Bitset, Cluster, Csr, Metrics, MrError, MrResult, PayloadBatch, PayloadSink, WordSized,
};

use crate::hungry::mis::{degree_class, group_choice, MisParams, MIS_RNG_TAG};
use crate::mr::{place_neighbours, MrConfig};
use crate::types::SelectionResult;

#[derive(Clone, Copy)]
struct VertexRec {
    v: VertexId,
    alive: bool,
    d_alive: usize,
}

struct MisChunk {
    /// Ascending vertex id; `recs[slot]`'s sorted neighbour ids are row
    /// `slot` of `nbrs`.
    recs: Vec<VertexRec>,
    nbrs: Csr<VertexId>,
    removed: Bitset,
    /// Scratch of [`MisChunk::apply_delta`], all clear between rounds: the
    /// machine's working memory for one pass, not resident state, so it is
    /// not metered.
    delta_bits: Bitset,
    /// [`MisChunk::metered_words`], fixed at distribution.
    words: usize,
}

impl WordSized for MisChunk {
    fn words(&self) -> usize {
        debug_assert_eq!(self.words, self.metered_words());
        self.words
    }
}

impl MisChunk {
    /// The simulated size: a 3-word record plus its neighbour list per
    /// vertex, the removed bitmap and the chunk header.
    fn metered_words(&self) -> usize {
        let recs: usize = self.nbrs.iter().map(|nbrs| 3 + 1 + nbrs.len()).sum();
        1 + recs + self.removed.words()
    }
}

fn build_chunks(g: &Graph, cfg: &MrConfig) -> MrResult<Vec<MisChunk>> {
    Ok(place_neighbours(g, cfg)?
        .map(|(ids, nbrs)| {
            let recs = ids
                .iter()
                .zip(nbrs.iter())
                .map(|(&v, row)| VertexRec {
                    v,
                    alive: true,
                    d_alive: row.len(),
                })
                .collect();
            let mut chunk = MisChunk {
                recs,
                nbrs,
                removed: Bitset::new(g.n()),
                delta_bits: Bitset::new(g.n()),
                words: 0,
            };
            chunk.words = chunk.metered_words();
            chunk
        })
        .collect())
}

/// A machine's block under Algorithm 6's class schedule ([`run_classes`]):
/// [`MisChunk`] with alive degrees and alive-neighbour lists, and
/// `clique`'s chunk with complement degrees and complement lists
/// (Corollary B.1).
pub(crate) trait ClassChunk: WordSized + Send + Sync + Sized {
    /// The [`group_choice`] tags in front of the round and the class.
    const TAGS: &'static [u64];
    /// The failure reason once the round budget runs out.
    const BUDGET: &'static str;
    /// Number of vertex slots on this machine.
    fn slots(&self) -> usize;
    /// The vertex in `slot` and its live degree, `None` once it is out.
    fn live(&self, slot: usize) -> Option<(VertexId, usize)>;
    /// Streams the live list of the vertex in `slot` (its live degree
    /// long) into a payload sink under `head`.
    fn sink_list<H>(&self, sink: &mut PayloadSink<H, VertexId>, head: H, slot: usize)
    where
        H: Copy + WordSized;
    /// Applies a broadcast removal delta.
    fn apply_delta(&mut self, delta: &[VertexId]);
    /// Edges left in the graph being thinned, aggregated the key's way.
    fn live_edges(cluster: &mut Cluster<Self>) -> MrResult<usize>;
}

impl ClassChunk for MisChunk {
    const TAGS: &'static [u64] = &[MIS_RNG_TAG, 0x6d32];
    const BUDGET: &'static str = "MIS2 round budget exhausted";

    fn slots(&self) -> usize {
        self.recs.len()
    }

    fn live(&self, slot: usize) -> Option<(VertexId, usize)> {
        let r = self.recs[slot];
        r.alive.then_some((r.v, r.d_alive))
    }

    /// Streams the alive neighbours (via the replicated removed bitmap).
    fn sink_list<H>(&self, sink: &mut PayloadSink<H, VertexId>, head: H, slot: usize)
    where
        H: Copy + WordSized,
    {
        let mut w = sink.begin(head);
        for &x in &self.nbrs[slot] {
            if !self.removed.get(x as usize) {
                w.push(x);
            }
        }
    }

    /// Marks removed vertices, zeroes their degrees, decrements
    /// neighbours' alive degrees. Membership runs through the scratch
    /// bitmap — set, used, and cleared bit by bit — so the adjacency walk
    /// is O(1) per neighbour and a round allocates nothing.
    fn apply_delta(&mut self, delta: &[VertexId]) {
        for &v in delta {
            self.delta_bits.set(v as usize);
            self.removed.set(v as usize);
        }
        for (slot, rec) in self.recs.iter_mut().enumerate() {
            if !rec.alive {
                continue;
            }
            if self.delta_bits.get(rec.v as usize) {
                rec.alive = false;
                rec.d_alive = 0;
            } else {
                rec.d_alive -= self.nbrs[slot]
                    .iter()
                    .filter(|&&x| self.delta_bits.get(x as usize))
                    .count();
            }
        }
        for &v in delta {
            self.delta_bits.clear(v as usize);
        }
    }

    fn live_edges(cluster: &mut Cluster<Self>) -> MrResult<usize> {
        let degrees = cluster.aggregate_sum(|_, s: &MisChunk| {
            s.recs.iter().filter(|r| r.alive).map(|r| r.d_alive).sum()
        })?;
        Ok(degrees / 2)
    }
}

/// The central machine's view of this round's additions: processes a
/// sampled group member, returning the removal delta it causes. A
/// member's list is its live list ([`ClassChunk::sink_list`]): alive
/// neighbours for MIS, the complement list for clique.
struct CentralRound {
    /// Vertices removed this round (a [`Bitset`] for O(1) membership).
    removed_now: Bitset,
    delta: Vec<VertexId>,
    added: Vec<VertexId>,
}

impl CentralRound {
    fn new(n: usize) -> Self {
        CentralRound {
            removed_now: Bitset::new(n),
            delta: Vec::new(),
            added: Vec::new(),
        }
    }

    fn current_degree(&self, alive_list: &[VertexId]) -> usize {
        alive_list
            .iter()
            .filter(|&&w| !self.removed_now.get(w as usize))
            .count()
    }

    fn add(&mut self, v: VertexId, alive_list: &[VertexId]) {
        debug_assert!(!self.removed_now.get(v as usize));
        self.added.push(v);
        self.removed_now.set(v as usize);
        self.delta.push(v);
        for &w in alive_list {
            if self.removed_now.set(w as usize) {
                self.delta.push(w);
            }
        }
    }

    /// The greedy finish over gathered `(v, list)` messages: in ascending
    /// `v`, adds every vertex nothing added before it has removed.
    fn add_ascending(&mut self, batch: &PayloadBatch<VertexId, VertexId>) {
        let mut order: Vec<usize> = (0..batch.len()).collect();
        order.sort_unstable_by_key(|&i| batch.head(i));
        for i in order {
            let v = batch.head(i);
            if !self.removed_now.get(v as usize) {
                self.add(v, batch.payload(i));
            }
        }
    }
}

/// Per-sample fixed-width head of a payload gather: `(class, group, v)`;
/// the variable-size alive-neighbour list rides in the flat element arena.
/// Word count (3 + 1 + len) is identical to the `(u64, u64, VertexId,
/// Vec<VertexId>)` tuple it replaced, so metrics and goldens don't move.
type SampleHead = (u64, u64, VertexId);

/// Processes gathered samples group-by-group, `accept(class)` giving the
/// degree threshold; returns the removal delta. Ordering: groups
/// ascending, members ascending, max current degree wins (first max =
/// smallest id). The batch stays flat — sorting permutes an index
/// column, never the neighbour lists.
fn process_groups(
    sample: &PayloadBatch<SampleHead, VertexId>,
    round: &mut CentralRound,
    accept: impl Fn(u64) -> f64,
) {
    // `(class, group, v)` keys are unique (a vertex samples at most once),
    // so the index sort reproduces the old in-place message sort exactly.
    let mut order: Vec<usize> = (0..sample.len()).collect();
    order.sort_unstable_by_key(|&i| sample.head(i));
    let group_of = |i: usize| (sample.head(i).0, sample.head(i).1);
    for group in order.chunk_by(|&a, &b| group_of(a) == group_of(b)) {
        let threshold = accept(sample.head(group[0]).0);
        let mut best: Option<(usize, usize)> = None; // (degree, batch index)
        for &bi in group {
            if round.removed_now.get(sample.head(bi).2 as usize) {
                continue;
            }
            let d = round.current_degree(sample.payload(bi));
            if d as f64 >= threshold && best.is_none_or(|(bd, _)| d > bd) {
                best = Some((d, bi));
            }
        }
        if let Some((_, bi)) = best {
            round.add(sample.head(bi).2, sample.payload(bi));
        }
    }
}

/// Algorithm 6's accept threshold for degree class `class`: the lower end
/// of class `class + 1`, `n^{1-(class+1)α}`. A sampled member whose live
/// degree fell by at most one class since it was sampled still
/// qualifies; one that fell further does not.
fn class_accept(nf: f64, alpha: f64, class: u64) -> f64 {
    nf.powf(1.0 - (class as f64 + 1.0) * alpha)
}

/// The final central round: gathers the residual graph and finishes with
/// the greedy in ascending vertex order. Returns the chosen vertices.
fn central_finish<C: ClassChunk>(cluster: &mut Cluster<C>, n: usize) -> MrResult<Vec<VertexId>> {
    let residual: PayloadBatch<VertexId, VertexId> =
        cluster.gather_payload(|_, s: &mut C, sink| {
            for slot in 0..s.slots() {
                if let Some((v, _)) = s.live(slot) {
                    s.sink_list(sink, v, slot);
                }
            }
        })?;
    let mut round = CentralRound::new(n);
    round.add_ascending(&residual);
    Ok(round.added)
}

/// Rejects parameters no hungry-greedy run can use, and answers an empty
/// graph without starting a cluster.
fn trivial_run(
    n: usize,
    params: MisParams,
    cfg: &MrConfig,
) -> MrResult<Option<(SelectionResult, Metrics)>> {
    if !(params.alpha > 0.0 && params.alpha <= 1.0) || params.group_size == 0 || params.eta == 0 {
        return Err(MrError::BadConfig(
            "invalid hungry-greedy parameters".into(),
        ));
    }
    Ok((n == 0).then(|| {
        let empty = SelectionResult {
            vertices: vec![],
            phases: 0,
            iterations: 0,
        };
        (empty, Metrics::new(cfg.machines, cfg.capacity))
    }))
}

/// Algorithm 6 (`MIS2`) on the cluster. The output does not depend on
/// the machine count.
///
/// [`crate::api::Registry`] runs this for `mis2` on every cluster
/// backend, on the runtime `cfg.exec.runtime` names.
pub fn run_fast(
    g: &Graph,
    params: MisParams,
    cfg: MrConfig,
) -> MrResult<(SelectionResult, Metrics)> {
    run_classes(g, params, cfg, build_chunks)
}

/// Algorithm 6's class schedule on the cluster, for MIS2 and (on
/// complement degrees) clique: while `η` or more edges are live, class
/// sizes go up the tree and back down, every machine samples its live
/// vertices into groups per degree class, the central machine takes the
/// hungriest qualifying member of each group, and the removal delta is
/// broadcast; then the residual graph finishes centrally.
pub(crate) fn run_classes<C: ClassChunk>(
    g: &Graph,
    params: MisParams,
    cfg: MrConfig,
    build: fn(&Graph, &MrConfig) -> MrResult<Vec<C>>,
) -> MrResult<(SelectionResult, Metrics)> {
    let n = g.n();
    if let Some(done) = trivial_run(n, params, &cfg)? {
        return Ok(done);
    }
    let nf = (n.max(2)) as f64;
    let num_classes = (1.0 / params.alpha).ceil() as usize;
    let mut cluster = Cluster::new(cfg.cluster(), build(g, &cfg)?)?;
    let mut chosen: Vec<VertexId> = Vec::new();
    cluster.charge_central(2 + n / 32)?;

    let mut k = 0usize;
    while C::live_edges(&mut cluster)? >= params.eta {
        k += 1;
        if k > 64 + 4 * n {
            return Err(cluster.fail(C::BUDGET));
        }

        // Class sizes up the tree, back down for local group choices.
        let class_sizes: Vec<u64> = cluster.aggregate(
            |_, s: &C| {
                let mut counts = vec![0u64; num_classes + 1];
                for slot in 0..s.slots() {
                    if let Some((_, d)) = s.live(slot).filter(|&(_, d)| d > 0) {
                        counts[degree_class(d, nf, params.alpha, num_classes)] += 1;
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

        let sample: PayloadBatch<SampleHead, VertexId> =
            cluster.gather_payload(|_, s: &mut C, sink| {
                for slot in 0..s.slots() {
                    let Some((v, d)) = s.live(slot).filter(|&(_, d)| d > 0) else {
                        continue;
                    };
                    let i = degree_class(d, nf, params.alpha, num_classes);
                    let groups_count = nf.powf((i + 1) as f64 * params.alpha).ceil() as usize;
                    if let Some(gid) = group_choice(
                        params.seed,
                        C::TAGS.iter().copied().chain([k as u64, i as u64]),
                        v as u64,
                        groups_count,
                        params.group_size,
                        class_sizes[i] as usize,
                    ) {
                        s.sink_list(sink, (i as u64, gid as u64, v), slot);
                    }
                }
            })?;

        let mut round = CentralRound::new(n);
        process_groups(&sample, &mut round, |c| class_accept(nf, params.alpha, c));
        chosen.extend_from_slice(&round.added);

        let mut delta = round.delta;
        delta.sort_unstable();
        cluster.broadcast(&delta)?;
        cluster.local(move |_, s: &mut C| s.apply_delta(&delta))?;
    }

    chosen.extend(central_finish(&mut cluster, n)?);
    chosen.sort_unstable();
    let result = SelectionResult {
        vertices: chosen,
        phases: k,
        iterations: k + 1,
    };
    let (_, metrics) = cluster.into_parts();
    Ok((result, metrics))
}

/// Algorithm 2 (`MIS1`) on the cluster. The output does not depend on
/// the machine count.
///
/// [`crate::api::Registry`] runs this for `mis1` on every cluster
/// backend, on the runtime `cfg.exec.runtime` names.
pub fn run_simple(
    g: &Graph,
    params: MisParams,
    cfg: MrConfig,
) -> MrResult<(SelectionResult, Metrics)> {
    let n = g.n();
    if let Some(done) = trivial_run(n, params, &cfg)? {
        return Ok(done);
    }
    let nf = (n.max(2)) as f64;
    let final_degree = (params.eta as f64 / nf).max(1.0);
    let mut cluster = Cluster::new(cfg.cluster(), build_chunks(g, &cfg)?)?;
    let mut in_i = vec![false; n];
    cluster.charge_central(2 + n / 32)?;

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
        let mut guard = 0usize;
        loop {
            let heavy_count = cluster.aggregate_sum(move |_, s: &MisChunk| {
                s.recs
                    .iter()
                    .filter(|r| r.alive && r.d_alive as f64 >= tau)
                    .count()
            })?;
            if heavy_count < groups_target {
                // Stragglers of this phase go to the central machine.
                let stragglers: PayloadBatch<VertexId, VertexId> =
                    cluster.gather_payload(move |_, s: &mut MisChunk, sink| {
                        for (slot, r) in s.recs.iter().enumerate() {
                            if r.alive && r.d_alive as f64 >= tau {
                                s.sink_list(sink, r.v, slot);
                            }
                        }
                    })?;
                let mut round = CentralRound::new(n);
                round.add_ascending(&stragglers);
                for &v in &round.added {
                    in_i[v as usize] = true;
                }
                let mut delta = round.delta;
                delta.sort_unstable();
                cluster.broadcast(&delta)?;
                cluster.local(move |_, s: &mut MisChunk| s.apply_delta(&delta))?;
                iterations += 1;
                break;
            }
            iterations += 1;
            guard += 1;
            if guard > 64 + 4 * n {
                return Err(cluster.fail("MIS1 inner loop budget exhausted"));
            }

            let seed = params.seed;
            let gs = params.group_size;
            let sample: PayloadBatch<SampleHead, VertexId> =
                cluster.gather_payload(move |_, s: &mut MisChunk, sink| {
                    for (slot, r) in s.recs.iter().enumerate() {
                        if !r.alive || (r.d_alive as f64) < tau {
                            continue;
                        }
                        if let Some(gid) = group_choice(
                            seed,
                            [MIS_RNG_TAG, i as u64, guard as u64],
                            r.v as u64,
                            groups_target,
                            gs,
                            heavy_count,
                        ) {
                            s.sink_list(sink, (0u64, gid as u64, r.v), slot);
                        }
                    }
                })?;

            let mut round = CentralRound::new(n);
            process_groups(&sample, &mut round, |_| tau);
            for &v in &round.added {
                in_i[v as usize] = true;
            }
            let mut delta = round.delta;
            delta.sort_unstable();
            cluster.broadcast(&delta)?;
            cluster.local(move |_, s: &mut MisChunk| s.apply_delta(&delta))?;
        }
    }

    for v in central_finish(&mut cluster, n)? {
        in_i[v as usize] = true;
    }
    iterations += 1;
    let result = SelectionResult {
        vertices: (0..n as VertexId).filter(|&v| in_i[v as usize]).collect(),
        phases,
        iterations,
    };
    let (_, metrics) = cluster.into_parts();
    Ok((result, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::is_maximal_independent_set;
    use mrlr_graph::generators::densified;

    #[test]
    fn mis2_matches_driver_bit_for_bit() {
        for seed in 0..4 {
            let g = densified(60, 0.4, seed);
            let params = MisParams::mis2(60, 0.3, seed);
            let cfg = MrConfig::auto(60, g.m(), 0.3, seed);
            let (mr, metrics) = run_fast(&g, params, cfg).unwrap();
            let (seq, _) = run_fast(&g, params, cfg.with_machines(1).recording()).unwrap();
            assert_eq!(mr.vertices, seq.vertices, "seed {seed}");
            assert_eq!(mr.phases, seq.phases);
            assert!(is_maximal_independent_set(&g, &mr.vertices));
            assert!(metrics.rounds > 0);
        }
    }

    #[test]
    fn mis1_matches_driver_bit_for_bit() {
        for seed in 0..4 {
            let g = densified(60, 0.4, seed);
            let params = MisParams::mis1(60, 0.3, seed);
            let cfg = MrConfig::auto(60, g.m(), 0.3, seed);
            let (mr, _) = run_simple(&g, params, cfg).unwrap();
            let (seq, _) = run_simple(&g, params, cfg.with_machines(1).recording()).unwrap();
            assert_eq!(mr.vertices, seq.vertices, "seed {seed}");
            assert!(is_maximal_independent_set(&g, &mr.vertices));
        }
    }

    /// The stored state size is the record-per-vertex formula of the
    /// nested layout, recounted from the instance, and nothing a superstep
    /// does changes it (`words()` re-asserts that on every pass of a
    /// debug run).
    #[test]
    fn stored_words_equal_a_recount_through_a_run() {
        let g = densified(60, 0.4, 2);
        let cfg = MrConfig::auto(60, g.m(), 0.3, 2).with_machines(5);
        let adj = g.adjacency();
        let mut chunks = build_chunks(&g, &cfg).unwrap();
        for (id, chunk) in chunks.iter_mut().enumerate() {
            let recs: usize = (0..g.n())
                .filter(|&v| cfg.place(v as u64) == id)
                .map(|v| 3 + 1 + adj[v].len())
                .sum();
            assert_eq!(
                chunk.words,
                1 + recs + 1 + g.n().div_ceil(64),
                "machine {id}"
            );
            for (slot, rec) in chunk.recs.iter().enumerate() {
                let mut sorted: Vec<VertexId> =
                    adj[rec.v as usize].iter().map(|&(w, _)| w).collect();
                sorted.sort_unstable();
                assert_eq!(&chunk.nbrs[slot], sorted.as_slice());
                assert_eq!(rec.d_alive, sorted.len());
            }
            chunk.apply_delta(&[0, 7, 31]);
            assert_eq!(chunk.words(), chunk.metered_words());
            assert_eq!(chunk.delta_bits.count(), 0, "scratch left clear");
        }
        run_fast(&g, MisParams::mis2(60, 0.3, 2), cfg).unwrap();
        run_simple(&g, MisParams::mis1(60, 0.3, 2), cfg).unwrap();
    }

    /// Algorithm 6's rule, checked against the threshold the central pass
    /// applies: every degree `degree_class` puts in class `i` or `i + 1`
    /// clears class `i`'s threshold, so a group whose hungriest member
    /// not yet removed is still in its class, or one class lower, adds a
    /// vertex; no degree of class `i + 2` or beyond clears it.
    #[test]
    fn class_accept_admits_a_class_and_the_next_but_no_lower() {
        for n in [60usize, 300, 1000, 10_000] {
            let nf = n as f64;
            for mu in [0.1f64, 0.2, 0.3, 0.5, 1.0, 2.0] {
                let alpha = mu / 8.0;
                let num_classes = (1.0 / alpha).ceil() as usize;
                for d in 1..=n {
                    let class = degree_class(d, nf, alpha, num_classes);
                    for i in 1..=num_classes {
                        let clears = d as f64 >= class_accept(nf, alpha, i as u64);
                        assert_eq!(
                            clears,
                            class <= i + 1,
                            "n {n} α {alpha}: degree {d} of class {class} against class {i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn capacity_guard_fires() {
        let g = densified(50, 0.5, 1);
        let params = MisParams::mis2(50, 0.3, 1);
        let cfg = MrConfig::auto(50, g.m(), 0.3, 1).with_capacity(30);
        assert!(matches!(
            run_fast(&g, params, cfg),
            Err(MrError::CapacityExceeded { .. })
        ));
    }
}
