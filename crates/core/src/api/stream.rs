//! Graph-free streamed solving: instance records flow from a chunked
//! reader (or a generator) straight onto the cluster's machines, and the
//! solve runs without a central [`Instance`][super::Instance] copy.
//!
//! This is the out-of-core entry the MRC regime actually prescribes: the
//! input's `Θ(n^{1+c})` records are distributed across machines before
//! round one, and the central machine only ever holds `O(η)`-scale state —
//! the ϕ-potential vector, gathered samples, and the local-ratio stack
//! (`O(n log n)` edges w.h.p.). The materialized pipeline
//! (`parse_instance` → [`Graph`] → per-machine snapshot) holds the input
//! on one host **three times** before the first round; this path holds it
//! exactly once, already partitioned.
//!
//! Bit-identity: the streamed distribution reproduces the materialized
//! per-machine layout record by record (asserted by the equivalence
//! tests), and the driver loop is literally the same function — so the
//! solution, the stack witness and the [`Metrics`][super::Metrics] of a
//! streamed solve
//! are byte-identical to `Registry::solve("matching", …)` on the same
//! instance, and its reports interoperate with every existing golden.
//!
//! Currently streams the flagship `matching` key (Algorithm 4 — the
//! paper's headline `O(1/µ)`-round result); other keys still go through
//! the materialized registry path.

use std::time::Instant;

use mrlr_graph::{EdgeId, Graph};
use mrlr_mapreduce::{MrError, MrResult};

use super::drivers::cluster_cfg;
use super::problems::MatchingCertificate;
use super::{Backend, Report};
use crate::io::stream::{stream_records, Record, RecordSink, StreamHeader};
use crate::io::IoError;
use crate::mr::matching::{find_pushed, RunOutcome, StreamedMatching};
use crate::mr::MrConfig;
use crate::types::MatchingResult;

/// What a streamed solve can fail with: a parse/ingest error positioned
/// in the input stream, or a cluster error from the run itself.
#[derive(Debug)]
pub enum StreamError {
    /// Parse or ingest failure, with its line/column position.
    Io(IoError),
    /// Cluster failure (capacity, algorithm `fail` branch, bad config).
    Mr(MrError),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Io(e) => write!(f, "{e}"),
            StreamError::Mr(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<IoError> for StreamError {
    fn from(e: IoError) -> Self {
        StreamError::Io(e)
    }
}

impl From<MrError> for StreamError {
    fn from(e: MrError) -> Self {
        StreamError::Mr(e)
    }
}

/// Most machines a streamed run will set up blocks for. The machine count
/// is derived from the header's *claimed* edge count before any edge has
/// arrived, and hash placement touches machines in no order, so the
/// per-machine blocks cannot grow with the input — a claim past this is
/// refused instead. No real instance comes near it: every machine also
/// holds a ϕ-vector of `n` words.
const MAX_STREAMED_MACHINES: usize = 1 << 20;

/// A [`RecordSink`] that scatters `e`-records of a `p graph` stream into
/// the per-machine blocks of a [`StreamedMatching`] distribution.
struct MatchingSink<F> {
    configure: Option<F>,
    built: Option<StreamedMatching>,
}

impl<F: FnOnce(usize, usize) -> MrConfig> RecordSink for MatchingSink<F> {
    type Out = StreamedMatching;

    fn header(&mut self, header: &StreamHeader) -> Result<(), IoError> {
        let StreamHeader::Graph { n, m } = *header else {
            return Err(IoError {
                line: 0,
                col: 0,
                message: "streamed solve supports `p graph` instances (key `matching`); \
                          use the materialized path for other kinds"
                    .into(),
            });
        };
        let configure = self.configure.take().expect("header delivered once");
        let cfg = configure(n, m);
        if cfg.machines > MAX_STREAMED_MACHINES {
            return Err(IoError {
                line: 0,
                col: 0,
                message: format!(
                    "problem line claims {m} edges on {n} vertices, which would need {} \
                     machines; a streamed solve sets up at most {MAX_STREAMED_MACHINES}",
                    cfg.machines
                ),
            });
        }
        let built = StreamedMatching::new(n, m, cfg).map_err(|e| IoError {
            line: 0,
            col: 0,
            message: e.to_string(),
        })?;
        self.built = Some(built);
        Ok(())
    }

    fn record(&mut self, record: Record) -> Result<(), IoError> {
        let Record::Edge { index, u, v, w } = record else {
            unreachable!("`p graph` bodies carry only edge records");
        };
        self.built
            .as_mut()
            .expect("header precedes records")
            .push_edge(index as EdgeId, u, v, w)
            .map_err(|e| IoError {
                line: 0,
                col: 0,
                message: format!("ingest: {e}"),
            })
    }

    fn finish(self, _header: &StreamHeader) -> Result<StreamedMatching, IoError> {
        Ok(self.built.expect("header precedes finish"))
    }
}

/// Streams a `p graph` instance from `reader` (fixed `buf_len`-byte
/// window) and solves `matching` on `backend` (`Mr`, `Shard` or `Dist`).
/// `configure` receives the header's `(n, m)` and returns the cluster
/// regime — typically [`MrConfig::auto`]`(n, 2 m, µ, seed)`.
///
/// The report (solution, certificate, stack witness, metrics) is
/// bit-identical to `Registry::solve("matching", …)` on the materialized
/// instance with the same config.
pub fn solve_matching_stream<R: std::io::Read>(
    reader: R,
    buf_len: usize,
    backend: Backend,
    configure: impl FnOnce(usize, usize) -> MrConfig,
) -> Result<Report<MatchingResult>, StreamError> {
    let started = Instant::now();
    require_cluster(backend)?;
    let sink = MatchingSink {
        configure: Some(move |n, m| cluster_cfg(backend, &configure(n, m))),
        built: None,
    };
    let prepared = stream_records(reader, buf_len, sink)?;
    let outcome = prepared.solve()?;
    Ok(matching_report(backend, outcome, started))
}

/// Generator-backed streamed solve: scatters `g`'s edges straight into
/// the per-machine blocks (no instance text, no file, no adjacency
/// build). This is the `mrlr solve --gen … --stream` path: a 10^8-edge
/// synthetic run never touches disk.
pub fn solve_matching_stream_from_graph(
    g: &Graph,
    backend: Backend,
    configure: impl FnOnce(usize, usize) -> MrConfig,
) -> Result<Report<MatchingResult>, StreamError> {
    let started = Instant::now();
    require_cluster(backend)?;
    let cfg = cluster_cfg(backend, &configure(g.n(), g.m()));
    let mut built = StreamedMatching::new(g.n(), g.m(), cfg)?;
    for (id, e) in g.edges().iter().enumerate() {
        built.push_edge(id as EdgeId, e.u, e.v, e.w)?;
    }
    let outcome = built.solve()?;
    Ok(matching_report(backend, outcome, started))
}

fn require_cluster(backend: Backend) -> MrResult<()> {
    match backend {
        Backend::Mr | Backend::Shard | Backend::Dist => Ok(()),
        other => Err(MrError::BadConfig(format!(
            "streamed solve requires a cluster backend (mr, shard or dist), got `{other}`"
        ))),
    }
}

/// Assembles the [`Report`] from a streamed run: the certificate is
/// computed exactly as [`super::Problem::certify`] for `Matching` would —
/// feasibility re-derived from the recorded endpoints of the stacked
/// edges (a matched edge is always stacked), same multiplier, same
/// detail string — so streamed reports are byte-identical to
/// materialized ones under the report renderers.
fn matching_report(
    backend: Backend,
    outcome: RunOutcome,
    started: Instant,
) -> Report<MatchingResult> {
    let RunOutcome {
        result,
        metrics,
        pushed,
        n,
    } = outcome;
    // `verify::is_matching` without the graph: ids distinct and known,
    // endpoints vertex-disjoint. Unwind guarantees all three, so this
    // matches the materialized validator's verdict bit for bit.
    let mut used = vec![false; n];
    let mut seen = std::collections::HashSet::new();
    let mut feasible = true;
    for &id in &result.matching {
        let Some(&(_, u, v, _)) = find_pushed(&pushed, id) else {
            feasible = false;
            break;
        };
        if !seen.insert(id) || used[u as usize] || used[v as usize] {
            feasible = false;
            break;
        }
        used[u as usize] = true;
        used[v as usize] = true;
    }
    let certificate = MatchingCertificate {
        feasible,
        weight: result.weight,
        stack_gain: result.stack_gain,
        multiplier: 2.0,
        stack: result.stack.clone(),
    }
    .into();
    Report {
        algorithm: "matching",
        backend,
        solution: result,
        certificate,
        metrics: Some(metrics),
        wall: started.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Instance, Registry};
    use crate::io::render_instance;
    use mrlr_graph::generators::{densified, with_uniform_weights};

    fn sample(seed: u64) -> Graph {
        with_uniform_weights(&densified(48, 0.4, seed), 0.5, 10.0, seed + 17)
    }

    #[test]
    fn streamed_report_matches_materialized_bit_for_bit() {
        for seed in 0..3 {
            let g = sample(seed);
            let cfg = MrConfig::auto(g.n(), 2 * g.m(), 0.25, seed);
            let direct = Registry::with_defaults()
                .solve("matching", &Instance::Graph(g.clone()), &cfg)
                .unwrap();
            let text = render_instance(&Instance::Graph(g.clone()));
            for buf in [1usize, 7, 4096] {
                let streamed = solve_matching_stream(
                    std::io::Cursor::new(text.as_bytes()),
                    buf,
                    Backend::Mr,
                    |_, _| cfg,
                )
                .unwrap();
                let dm = direct.solution.as_matching().unwrap();
                assert_eq!(&streamed.solution, dm, "seed {seed} buf {buf}");
                assert_eq!(streamed.certificate, direct.certificate);
                assert_eq!(streamed.metrics, direct.metrics);
            }
            let from_gen = solve_matching_stream_from_graph(&g, Backend::Mr, |_, _| cfg).unwrap();
            assert_eq!(
                &from_gen.solution,
                direct.solution.as_matching().unwrap(),
                "seed {seed} generator-backed"
            );
            assert_eq!(from_gen.certificate, direct.certificate);
        }
    }

    #[test]
    fn non_cluster_backend_rejected() {
        let g = sample(1);
        let cfg = MrConfig::auto(g.n(), 2 * g.m(), 0.25, 1);
        let err = solve_matching_stream_from_graph(&g, Backend::Seq, |_, _| cfg).unwrap_err();
        assert!(err.to_string().contains("cluster backend"), "{err}");
    }

    #[test]
    fn non_graph_kind_rejected() {
        let text = "p set-system 3 1\ns 1.0 0 2\n";
        let cfg = MrConfig::auto(4, 8, 0.25, 1);
        let err = solve_matching_stream(
            std::io::Cursor::new(text.as_bytes()),
            64,
            Backend::Mr,
            |_, _| cfg,
        )
        .unwrap_err();
        assert!(err.to_string().contains("`p graph`"), "{err}");
    }
}
