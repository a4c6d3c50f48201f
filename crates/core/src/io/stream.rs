//! Chunked, push-based streaming parser for the unified instance format.
//!
//! The materialized parser ([`super::parse_instance`]) holds the whole
//! file text plus the whole [`Instance`] in memory — fine at experiment
//! scale, but it is exactly the step that violates the paper's regime at
//! `10^7`–`10^8` edges: the MRC model gives the *central* machine the same
//! `η = n^{1+µ}` words as everyone else, so no single host may ever hold
//! the `Θ(n^{1+c})` input records at once. This module keeps ingestion
//! inside that budget: a fixed-size buffer of bytes is fed through a
//! line-oriented state machine ([`StreamParser`]) that validates each
//! record exactly like the materialized parser (same 1-based line/column
//! errors, byte for byte — asserted by the chunking proptests) and pushes
//! it into a caller-supplied [`RecordSink`]. A sink may materialize an
//! [`Instance`] ([`InstanceSink`], what `parse_instance` is built on), or
//! scatter records straight onto the `M` machines of a cluster without a
//! central copy (see `mrlr_core::api::stream` and
//! `mrlr_mapreduce::ingest`).
//!
//! Central state while streaming is `O(n + m)` words: the current line,
//! the header counts, one presence flag per vertex (`n`-line accounting)
//! and one 8-byte slot per edge at load factor ≤ ½ (duplicate detection
//! in a flat open-addressed table — the format promises simple graphs,
//! and the streaming parser rejects exactly what the materialized one
//! rejects). Everything `Θ(m)`-sized beyond that table lives in the sink.
//! Parsing an `e` or `n` line allocates nothing (an `s` line allocates the
//! element list its record owns): tokens are sliced lazily off the line's
//! bytes, and a line is copied only when it straddles two chunks. Edge
//! lines are checked against the table a small batch at a time, so the
//! table's cache misses overlap; what the sink sees and which error comes
//! first are exactly as if each line were settled on arrival.
//!
//! The header's counts are a claim, not a fact. No allocation is sized by
//! them beyond a fixed cap (`PREALLOC_CAP` records for the sinks and the
//! per-vertex flags, `2^24` keys for the duplicate table); past the cap
//! every structure grows with the records that actually arrive, and a
//! header that lied is reported by the end-of-input count checks.

use mrlr_graph::{Edge, Graph, VertexId};
use mrlr_setsys::{ElemId, SetSystem};

use super::keyset::KeySet;
use super::{tokens, IoError, Tokens};
use crate::api::{BMatchingInstance, Instance, VertexWeightedGraph};

/// Default chunk size of the buffered drivers ([`read_instance`],
/// [`stream_records`]): 64 KiB — large enough to amortize syscalls, tiny
/// against any machine budget `η`.
pub const DEFAULT_BUF_LEN: usize = 64 * 1024;

/// Most records a header count may make the parser or [`InstanceSink`]
/// allocate for before any have arrived (16 MiB of edges).
const PREALLOC_CAP: usize = 1 << 20;

/// Most keys the duplicate-edge table is sized for up front.
const DEDUP_PREALLOC_CAP: usize = 1 << 24;

/// Vertex ids are [`VertexId`]s, so a graph has at most this many vertices.
const MAX_VERTICES: usize = VertexId::MAX as usize + 1;

pub(crate) fn err(line: usize, col: usize, message: impl Into<String>) -> IoError {
    IoError {
        line,
        col,
        message: message.into(),
    }
}

/// A cursor over the tokens of one line, tracking columns for errors.
pub(crate) struct Line<'a> {
    pub(crate) no: usize,
    toks: Tokens<'a>,
}

impl<'a> Line<'a> {
    pub(crate) fn new(no: usize, raw: &'a str) -> Self {
        Line {
            no,
            toks: tokens(raw),
        }
    }

    pub(crate) fn next(&mut self, what: &str) -> Result<(usize, &'a str), IoError> {
        self.toks
            .next()
            .ok_or_else(|| err(self.no, self.toks.end_col(), format!("missing {what}")))
    }

    pub(crate) fn maybe_next(&mut self) -> Option<(usize, &'a str)> {
        self.toks.next()
    }

    pub(crate) fn finish(&mut self) -> Result<(), IoError> {
        match self.toks.next() {
            Some((col, tok)) => Err(err(self.no, col, format!("unexpected trailing `{tok}`"))),
            None => Ok(()),
        }
    }

    pub(crate) fn parse<T: std::str::FromStr>(
        &mut self,
        what: &str,
    ) -> Result<(usize, T), IoError> {
        let (col, tok) = self.next(what)?;
        let v = tok
            .parse()
            .map_err(|_| err(self.no, col, format!("bad {what} `{tok}`")))?;
        Ok((col, v))
    }
}

pub(crate) fn check_weight(w: f64, line: usize, col: usize, what: &str) -> Result<(), IoError> {
    if w.is_finite() && w > 0.0 {
        Ok(())
    } else {
        Err(err(
            line,
            col,
            format!("{what} {w} must be positive and finite"),
        ))
    }
}

/// The parsed problem line: instance kind plus the counts every record is
/// validated against. Delivered to the sink before any [`Record`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StreamHeader {
    /// `p graph <n> <m>`.
    Graph {
        /// Vertex count `n`.
        n: usize,
        /// Edge count `m`.
        m: usize,
    },
    /// `p vertex-weighted <n> <m>`.
    VertexWeighted {
        /// Vertex count `n`.
        n: usize,
        /// Edge count `m`.
        m: usize,
    },
    /// `p b-matching <n> <m> <eps>`.
    BMatching {
        /// Vertex count `n`.
        n: usize,
        /// Edge count `m`.
        m: usize,
        /// The reduction slack `ε > 0`.
        eps: f64,
    },
    /// `p set-system <universe> <nsets>`.
    SetSystem {
        /// Universe size.
        universe: usize,
        /// Number of sets.
        n_sets: usize,
    },
}

/// One validated record of the instance body. Records reach the sink
/// exactly as the materialized parser would have accepted them: endpoints
/// in range, no self-loops or duplicate edges, weights positive and
/// finite, `n`-lines unique, set elements strictly increasing.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// An `e <u> <v> [<w>]` line. `index` is the edge id the materialized
    /// [`Graph`] would assign (0-based arrival order), so a sink can
    /// reproduce edge-id-keyed results bit for bit.
    Edge {
        /// 0-based arrival index (the [`Graph`] edge id).
        index: usize,
        /// First endpoint as written.
        u: VertexId,
        /// Second endpoint as written.
        v: VertexId,
        /// Weight (1.0 when omitted).
        w: f64,
    },
    /// An `n <v> <w>` line of a `vertex-weighted` instance.
    VertexWeight {
        /// Vertex id.
        v: usize,
        /// Its weight (positive, finite).
        w: f64,
    },
    /// An `n <v> <b>` line of a `b-matching` instance.
    Capacity {
        /// Vertex id.
        v: usize,
        /// Its capacity (`≥ 1`).
        b: u32,
    },
    /// An `s <w> [<elem> …]` line of a `set-system` instance.
    Set {
        /// 0-based arrival index (the set id).
        index: usize,
        /// Set weight (positive, finite).
        w: f64,
        /// Elements, strictly increasing.
        elems: Vec<ElemId>,
    },
}

/// Consumer of a record stream: the parser calls [`RecordSink::header`]
/// once, then [`RecordSink::record`] per validated body line, then
/// [`RecordSink::finish`] after the end-of-input checks pass. A sink may
/// reject a record with its own [`IoError`] (e.g. a machine over its word
/// budget); the parser propagates it unchanged.
///
/// Edge records may arrive a few lines after they were read (the
/// duplicate check runs over small batches), but always in input order,
/// never past a line that fails, and never once an earlier line has.
pub trait RecordSink {
    /// What the sink assembles.
    type Out;
    /// Receives the problem line.
    fn header(&mut self, header: &StreamHeader) -> Result<(), IoError>;
    /// Receives one validated record.
    fn record(&mut self, record: Record) -> Result<(), IoError>;
    /// Called once after the parser's end-of-input checks (record counts,
    /// `n`-line completeness) succeed.
    fn finish(self, header: &StreamHeader) -> Result<Self::Out, IoError>;
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GraphKind {
    Graph,
    VertexWeighted,
    BMatching,
}

struct GraphBody {
    header: StreamHeader,
    kind: GraphKind,
    n: usize,
    m: usize,
    edges: usize,
    /// Normalized `(min, max)` endpoint keys of the edges seen so far —
    /// the one `Θ(m)` structure the central parser keeps (one 8-byte slot
    /// per edge at load factor ≤ ½; everything else it holds is `O(n)`
    /// or per-line).
    seen: KeySet,
    /// Edge lines that have passed every per-line check and await the
    /// duplicate check and delivery — see [`GraphBody::settle`].
    pending: Vec<PendingEdge>,
    /// One presence flag per vertex that has had its `n` line (vertices
    /// past the end have not) — grown on demand, never beyond `n`.
    vertex_done: Vec<bool>,
}

/// A parsed `e` line held back for the batched duplicate check.
struct PendingEdge {
    record: Record,
    key: u64,
    /// Where a duplicate error points: the line, and its first endpoint.
    line: usize,
    col: usize,
}

/// Edge lines per duplicate-check batch. A lookup in the `Θ(m)` key table
/// is a cache miss the next line's parse cannot proceed past; looked up
/// back to back, a batch's misses overlap instead of queueing.
const DEDUP_BATCH: usize = 32;

impl GraphBody {
    /// Runs the duplicate check over the held-back edge lines, then
    /// delivers them in arrival order. Called when the batch fills and
    /// before anything else that can fail or reach the sink, so the sink
    /// sees the same record sequence, and the caller the same first
    /// error, as if every line were settled on arrival.
    fn settle<S: RecordSink>(&mut self, sink: &mut S) -> Result<(), IoError> {
        let fresh = self
            .pending
            .iter()
            .position(|e| !self.seen.insert(e.key))
            .unwrap_or(self.pending.len());
        let mut pending = self.pending.drain(..);
        for edge in pending.by_ref().take(fresh) {
            sink.record(edge.record)?;
        }
        match pending.next() {
            None => Ok(()),
            Some(PendingEdge { key, line, col, .. }) => Err(err(
                line,
                col,
                format!("duplicate edge ({}, {})", key >> 32, key as u32),
            )),
        }
    }
}

struct SetBody {
    header: StreamHeader,
    universe: usize,
    n_sets: usize,
    sets: usize,
}

enum State {
    /// Before the problem line.
    Start,
    Graph(GraphBody),
    Sets(SetBody),
    /// Sticky failure: every later call reports the original error.
    Failed(IoError),
}

/// The push-based streaming parser: feed byte chunks of any size (line
/// breaks may fall anywhere, UTF-8 sequences may split across chunks),
/// then [`StreamParser::finish`]. Errors are bit-identical to
/// [`super::parse_instance`] on the same prefix of input.
pub struct StreamParser<S: RecordSink> {
    sink: Option<S>,
    /// Bytes of the current, not-yet-terminated line.
    carry: Vec<u8>,
    line_no: usize,
    state: State,
}

impl<S: RecordSink> StreamParser<S> {
    /// A parser feeding `sink`.
    pub fn new(sink: S) -> Self {
        StreamParser {
            sink: Some(sink),
            carry: Vec::new(),
            line_no: 0,
            state: State::Start,
        }
    }

    /// Feeds the next chunk. The first error is sticky: once a chunk
    /// fails, this and [`StreamParser::finish`] keep returning it.
    pub fn feed(&mut self, mut bytes: &[u8]) -> Result<(), IoError> {
        if let State::Failed(e) = &self.state {
            return Err(e.clone());
        }
        while let Some(pos) = bytes.iter().position(|&b| b == b'\n') {
            let (line, rest) = bytes.split_at(pos);
            bytes = &rest[1..];
            let r = if self.carry.is_empty() {
                self.handle_raw_line(line)
            } else {
                self.carry.extend_from_slice(line);
                self.handle_carry()
            };
            if let Err(e) = r {
                self.state = State::Failed(e.clone());
                return Err(e);
            }
        }
        self.carry.extend_from_slice(bytes);
        Ok(())
    }

    /// [`StreamParser::feed`] for string input.
    pub fn feed_str(&mut self, text: &str) -> Result<(), IoError> {
        self.feed(text.as_bytes())
    }

    /// Flushes the final (unterminated) line, runs the end-of-input checks
    /// (`m`/`nsets` record counts, `n`-line completeness — file-level
    /// errors at line 0, column 0) and hands off to the sink.
    pub fn finish(mut self) -> Result<S::Out, IoError> {
        if let State::Failed(e) = &self.state {
            return Err(e.clone());
        }
        if !self.carry.is_empty() {
            self.handle_carry()?;
        }
        self.settle()?;
        let sink = self.sink.take().expect("sink taken once");
        match self.state {
            State::Failed(e) => Err(e),
            State::Start => Err(err(0, 0, "empty input: missing problem line `p <kind> …`")),
            State::Graph(body) => {
                if body.edges != body.m {
                    return Err(err(
                        0,
                        0,
                        format!(
                            "problem line promised {} edges, found {}",
                            body.m, body.edges
                        ),
                    ));
                }
                if body.kind != GraphKind::Graph {
                    let done = &body.vertex_done;
                    let first_missing = done.iter().position(|&d| !d).unwrap_or(done.len());
                    if first_missing < body.n {
                        return Err(err(0, 0, format!("vertex {first_missing} has no `n` line")));
                    }
                }
                sink.finish(&body.header)
            }
            State::Sets(body) => {
                if body.sets != body.n_sets {
                    return Err(err(
                        0,
                        0,
                        format!(
                            "problem line promised {} sets, found {}",
                            body.n_sets, body.sets
                        ),
                    ));
                }
                sink.finish(&body.header)
            }
        }
    }

    /// Handles the completed line held in `carry`, keeping its buffer.
    fn handle_carry(&mut self) -> Result<(), IoError> {
        let mut full = std::mem::take(&mut self.carry);
        let r = self.handle_raw_line(&full);
        full.clear();
        self.carry = full;
        r
    }

    /// Settles the edge lines still held back for the duplicate check.
    fn settle(&mut self) -> Result<(), IoError> {
        match &mut self.state {
            State::Graph(body) => {
                body.settle(self.sink.as_mut().expect("sink alive while parsing"))
            }
            _ => Ok(()),
        }
    }

    /// Handles one line; on failure, any error owed to an earlier,
    /// held-back line takes precedence.
    fn handle_raw_line(&mut self, raw: &[u8]) -> Result<(), IoError> {
        self.parse_raw_line(raw)
            .map_err(|e| self.settle().err().unwrap_or(e))
    }

    fn parse_raw_line(&mut self, raw: &[u8]) -> Result<(), IoError> {
        self.line_no += 1;
        // `str::lines()` semantics: a line break is `\n` with one optional
        // preceding `\r` stripped.
        let raw = raw.strip_suffix(b"\r").unwrap_or(raw);
        let text =
            std::str::from_utf8(raw).map_err(|_| err(self.line_no, 0, "invalid UTF-8 in input"))?;
        let mut line = Line::new(self.line_no, text);
        // Blank lines have no first token; comments start with `#` or
        // have a first token of exactly `c`.
        let Some(first) = line.maybe_next() else {
            return Ok(());
        };
        if first.1.starts_with('#') || first.1 == "c" {
            return Ok(());
        }
        self.handle_line(first, line)
    }

    /// Dispatches one significant line, its first token already consumed.
    fn handle_line(&mut self, first: (usize, &str), mut line: Line<'_>) -> Result<(), IoError> {
        let sink = self.sink.as_mut().expect("sink alive while parsing");
        match &mut self.state {
            State::Start => {
                let (header, kind) = parse_problem_line(first, &mut line)?;
                sink.header(&header)?;
                self.state = match header {
                    StreamHeader::SetSystem { universe, n_sets } => State::Sets(SetBody {
                        header,
                        universe,
                        n_sets,
                        sets: 0,
                    }),
                    StreamHeader::Graph { n, m }
                    | StreamHeader::VertexWeighted { n, m }
                    | StreamHeader::BMatching { n, m, .. } => State::Graph(GraphBody {
                        header,
                        kind: kind.expect("graph headers carry a kind"),
                        n,
                        m,
                        edges: 0,
                        seen: KeySet::with_capacity(m.min(DEDUP_PREALLOC_CAP)),
                        pending: Vec::with_capacity(DEDUP_BATCH),
                        vertex_done: if kind == Some(GraphKind::Graph) {
                            Vec::new()
                        } else {
                            vec![false; n.min(PREALLOC_CAP)]
                        },
                    }),
                };
                Ok(())
            }
            State::Graph(body) => match graph_record(body, first, &mut line)? {
                None if body.pending.len() < DEDUP_BATCH => Ok(()),
                None => body.settle(sink),
                Some(record) => {
                    body.settle(sink)?;
                    sink.record(record)
                }
            },
            State::Sets(body) => sink.record(set_record(body, first, &mut line)?),
            State::Failed(e) => Err(e.clone()),
        }
    }
}

fn parse_problem_line(
    (pcol, ptag): (usize, &str),
    problem: &mut Line<'_>,
) -> Result<(StreamHeader, Option<GraphKind>), IoError> {
    if ptag != "p" {
        return Err(err(
            problem.no,
            pcol,
            format!("expected problem line `p <kind> …`, found `{ptag}`"),
        ));
    }
    let (kcol, kind) = problem.next("instance kind")?;
    match kind {
        "graph" | "vertex-weighted" | "b-matching" => {
            let (ncol, n) = problem.parse::<usize>("vertex count")?;
            let (_, m) = problem.parse::<usize>("edge count")?;
            let (header, gkind) = match kind {
                "graph" => (StreamHeader::Graph { n, m }, GraphKind::Graph),
                "vertex-weighted" => (
                    StreamHeader::VertexWeighted { n, m },
                    GraphKind::VertexWeighted,
                ),
                _ => {
                    let (ecol, eps) = problem.parse::<f64>("eps")?;
                    check_weight(eps, problem.no, ecol, "eps")?;
                    (StreamHeader::BMatching { n, m, eps }, GraphKind::BMatching)
                }
            };
            problem.finish()?;
            if n > MAX_VERTICES {
                return Err(err(
                    problem.no,
                    ncol,
                    format!("vertex count {n} exceeds the maximum {MAX_VERTICES}"),
                ));
            }
            Ok((header, Some(gkind)))
        }
        "set-system" => {
            let (_, universe) = problem.parse::<usize>("universe size")?;
            let (_, n_sets) = problem.parse::<usize>("set count")?;
            problem.finish()?;
            Ok((StreamHeader::SetSystem { universe, n_sets }, None))
        }
        other => Err(err(
            problem.no,
            kcol,
            format!(
                "unknown instance kind `{other}` \
                 (expected graph, vertex-weighted, b-matching or set-system)"
            ),
        )),
    }
}

/// Parses one body line of a graph kind. An `e` line is queued on
/// `body.pending` (`None`); an `n` line is returned for delivery.
fn graph_record(
    body: &mut GraphBody,
    (tcol, tag): (usize, &str),
    line: &mut Line<'_>,
) -> Result<Option<Record>, IoError> {
    let needs_vertex_data = body.kind != GraphKind::Graph;
    let n = body.n;
    match tag {
        "e" => {
            let (ucol, u) = line.parse::<VertexId>("endpoint")?;
            let (vcol, v) = line.parse::<VertexId>("endpoint")?;
            let w = match line.maybe_next() {
                None => 1.0,
                Some((wcol, tok)) => {
                    let w: f64 = tok
                        .parse()
                        .map_err(|_| err(line.no, wcol, format!("bad weight `{tok}`")))?;
                    check_weight(w, line.no, wcol, "weight")?;
                    w
                }
            };
            line.finish()?;
            if (u as usize) >= n {
                return Err(err(
                    line.no,
                    ucol,
                    format!("vertex {u} out of range 0..{n}"),
                ));
            }
            if (v as usize) >= n {
                return Err(err(
                    line.no,
                    vcol,
                    format!("vertex {v} out of range 0..{n}"),
                ));
            }
            if u == v {
                return Err(err(line.no, vcol, format!("self-loop at vertex {u}")));
            }
            let (a, b) = (u.min(v), u.max(v));
            let index = body.edges;
            body.edges += 1;
            body.pending.push(PendingEdge {
                record: Record::Edge { index, u, v, w },
                key: ((a as u64) << 32) | b as u64,
                line: line.no,
                col: ucol,
            });
            Ok(None)
        }
        "n" if needs_vertex_data => {
            let (vcol, v) = line.parse::<usize>("vertex id")?;
            if v >= n {
                return Err(err(
                    line.no,
                    vcol,
                    format!("vertex {v} out of range 0..{n}"),
                ));
            }
            let record = if body.kind == GraphKind::BMatching {
                let (bcol, b) = line.parse::<u32>("capacity")?;
                if b == 0 {
                    return Err(err(line.no, bcol, "capacity must be at least 1"));
                }
                Record::Capacity { v, b }
            } else {
                let (wcol, w) = line.parse::<f64>("vertex weight")?;
                check_weight(w, line.no, wcol, "vertex weight")?;
                Record::VertexWeight { v, w }
            };
            line.finish()?;
            if std::mem::replace(slot(&mut body.vertex_done, v), true) {
                return Err(err(line.no, vcol, format!("duplicate data for vertex {v}")));
            }
            Ok(Some(record))
        }
        other => {
            let expected = if needs_vertex_data {
                "`e` or `n`"
            } else {
                "`e`"
            };
            Err(err(
                line.no,
                tcol,
                format!("unexpected record `{other}` (expected {expected})"),
            ))
        }
    }
}

fn set_record(
    body: &mut SetBody,
    (tcol, tag): (usize, &str),
    line: &mut Line<'_>,
) -> Result<Record, IoError> {
    if tag != "s" {
        return Err(err(
            line.no,
            tcol,
            format!("unexpected record `{tag}` (expected `s`)"),
        ));
    }
    let (wcol, w) = line.parse::<f64>("set weight")?;
    check_weight(w, line.no, wcol, "set weight")?;
    let mut elems: Vec<ElemId> = Vec::new();
    while let Some((ecol, tok)) = line.maybe_next() {
        let j: ElemId = tok
            .parse()
            .map_err(|_| err(line.no, ecol, format!("bad element `{tok}`")))?;
        if (j as usize) >= body.universe {
            return Err(err(
                line.no,
                ecol,
                format!("element {j} out of range 0..{}", body.universe),
            ));
        }
        if let Some(&last) = elems.last() {
            if last >= j {
                return Err(err(
                    line.no,
                    ecol,
                    format!("elements must be strictly increasing ({last} then {j})"),
                ));
            }
        }
        elems.push(j);
    }
    let index = body.sets;
    body.sets += 1;
    Ok(Record::Set { index, w, elems })
}

/// Entry `v` of a per-vertex table that was pre-sized from a capped
/// header count, growing the table (default-filled) to reach it.
fn slot<T: Clone + Default>(table: &mut Vec<T>, v: usize) -> &mut T {
    if v >= table.len() {
        table.resize(v + 1, T::default());
    }
    &mut table[v]
}

/// The materializing sink behind [`super::parse_instance`]: accumulates
/// records into an [`Instance`]. Central memory is `Θ(n + m)` — use a
/// distributing sink instead when that exceeds the machine budget.
#[derive(Debug, Default)]
pub struct InstanceSink {
    edges: Vec<Edge>,
    /// Weight (vertex-weighted) or capacity (b-matching) per vertex; the
    /// parser guarantees completeness and uniqueness before `finish`.
    vertex_data: Vec<f64>,
    sets: Vec<Vec<ElemId>>,
    set_weights: Vec<f64>,
}

impl RecordSink for InstanceSink {
    type Out = Instance;

    fn header(&mut self, header: &StreamHeader) -> Result<(), IoError> {
        match *header {
            StreamHeader::Graph { m, .. } => self.edges.reserve(m.min(PREALLOC_CAP)),
            StreamHeader::VertexWeighted { n, m } | StreamHeader::BMatching { n, m, .. } => {
                self.edges.reserve(m.min(PREALLOC_CAP));
                self.vertex_data = vec![0.0; n.min(PREALLOC_CAP)];
            }
            StreamHeader::SetSystem { n_sets, .. } => {
                self.sets.reserve(n_sets.min(PREALLOC_CAP));
                self.set_weights.reserve(n_sets.min(PREALLOC_CAP));
            }
        }
        Ok(())
    }

    fn record(&mut self, record: Record) -> Result<(), IoError> {
        match record {
            Record::Edge { u, v, w, .. } => self.edges.push(Edge::new(u, v, w)),
            Record::VertexWeight { v, w } => *slot(&mut self.vertex_data, v) = w,
            Record::Capacity { v, b } => *slot(&mut self.vertex_data, v) = b as f64,
            Record::Set { w, elems, .. } => {
                self.set_weights.push(w);
                self.sets.push(elems);
            }
        }
        Ok(())
    }

    fn finish(self, header: &StreamHeader) -> Result<Instance, IoError> {
        // The parser has already proved, record by record, everything
        // `Graph::new` would re-check.
        Ok(match *header {
            StreamHeader::Graph { n, .. } => Instance::Graph(Graph::from_validated(n, self.edges)),
            StreamHeader::VertexWeighted { n, .. } => Instance::VertexWeighted(
                VertexWeightedGraph::new(Graph::from_validated(n, self.edges), self.vertex_data),
            ),
            StreamHeader::BMatching { n, eps, .. } => Instance::BMatching(BMatchingInstance::new(
                Graph::from_validated(n, self.edges),
                self.vertex_data.into_iter().map(|b| b as u32).collect(),
                eps,
            )),
            StreamHeader::SetSystem { universe, .. } => {
                Instance::SetSystem(SetSystem::new(universe, self.sets, self.set_weights))
            }
        })
    }
}

/// Streams `reader` through `sink` with a fixed `buf_len`-byte buffer.
/// I/O failures surface as file-level errors (line 0, column 0).
pub fn stream_records<R: std::io::Read, S: RecordSink>(
    mut reader: R,
    buf_len: usize,
    sink: S,
) -> Result<S::Out, IoError> {
    let mut parser = StreamParser::new(sink);
    let mut buf = vec![0u8; buf_len.max(1)];
    loop {
        let k = reader
            .read(&mut buf)
            .map_err(|e| err(0, 0, format!("read error: {e}")))?;
        if k == 0 {
            break;
        }
        parser.feed(&buf[..k])?;
    }
    parser.finish()
}

/// [`super::parse_instance`] over any reader: materializes the
/// [`Instance`] through a `buf_len`-byte window (the file text itself is
/// never held whole).
pub fn read_instance<R: std::io::Read>(reader: R, buf_len: usize) -> Result<Instance, IoError> {
    stream_records(reader, buf_len, InstanceSink::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{parse_instance, render_instance};
    use mrlr_graph::generators;

    fn sample() -> Instance {
        Instance::Graph(generators::with_uniform_weights(
            &generators::densified(20, 0.4, 3),
            1.0,
            9.0,
            3,
        ))
    }

    #[test]
    fn chunked_matches_materialized() {
        let inst = sample();
        let text = render_instance(&inst);
        for chunk in [1usize, 2, 3, 7, 64, 4096] {
            let mut p = StreamParser::new(InstanceSink::default());
            for c in text.as_bytes().chunks(chunk) {
                p.feed(c).unwrap();
            }
            assert_eq!(p.finish().unwrap(), inst, "chunk size {chunk}");
        }
    }

    #[test]
    fn reader_driver_matches() {
        let inst = sample();
        let text = render_instance(&inst);
        let got = read_instance(std::io::Cursor::new(text.as_bytes()), 13).unwrap();
        assert_eq!(got, inst);
    }

    #[test]
    fn errors_are_sticky() {
        let mut p = StreamParser::new(InstanceSink::default());
        let e1 = p.feed_str("p graph 2 1\ne 0 9\n").unwrap_err();
        let e2 = p.feed_str("e 0 1\n").unwrap_err();
        assert_eq!(e1, e2);
        assert_eq!(p.finish().unwrap_err(), e1);
    }

    /// A sink that logs what it is handed and fails on record `fail_at`.
    struct Logging<'a> {
        seen: &'a std::cell::RefCell<Vec<Record>>,
        fail_at: usize,
    }

    impl RecordSink for Logging<'_> {
        type Out = ();
        fn header(&mut self, _: &StreamHeader) -> Result<(), IoError> {
            Ok(())
        }
        fn record(&mut self, record: Record) -> Result<(), IoError> {
            if self.seen.borrow().len() == self.fail_at {
                return Err(err(0, 0, "sink full"));
            }
            self.seen.borrow_mut().push(record);
            Ok(())
        }
        fn finish(self, _: &StreamHeader) -> Result<(), IoError> {
            Ok(())
        }
    }

    /// The duplicate check runs in batches, but nothing observable may
    /// show it: the first error is the one the earliest bad line owes,
    /// and the sink sees exactly the records before it, in order.
    #[test]
    fn batched_duplicate_check_keeps_arrival_order() {
        let mut edges = Vec::new();
        for u in 0..13u32 {
            for v in (u + 1)..13 {
                edges.push((u, v));
            }
        }
        assert!(edges.len() >= 2 * DEDUP_BATCH + 3);
        // `dup_at` distinct edges, a repeat of the first (endpoints
        // swapped), three more edges, then a line that does not parse.
        let document = |dup_at: usize| {
            let mut text = format!("p graph 13 {}\n", dup_at + 4);
            for &(u, v) in &edges[..dup_at] {
                text += &format!("e {u} {v}\n");
            }
            text += "e 1 0\n";
            for &(u, v) in &edges[dup_at..dup_at + 3] {
                text += &format!("e {u} {v}\n");
            }
            text + "e 0 x\n"
        };
        for dup_at in [
            1,
            DEDUP_BATCH - 2,
            DEDUP_BATCH,
            DEDUP_BATCH + 7,
            2 * DEDUP_BATCH,
        ] {
            let text = document(dup_at);
            let duplicate = err(dup_at + 2, 3, "duplicate edge (0, 1)");
            for (fail_at, expected, delivered) in [
                (usize::MAX, duplicate.clone(), dup_at),
                (dup_at, duplicate.clone(), dup_at),
                (dup_at - 1, err(0, 0, "sink full"), dup_at - 1),
            ] {
                for chunk in [1usize, 9, 1 << 16] {
                    let seen = std::cell::RefCell::new(Vec::new());
                    let sink = Logging {
                        seen: &seen,
                        fail_at,
                    };
                    let got = stream_records(std::io::Cursor::new(text.as_bytes()), chunk, sink);
                    assert_eq!(
                        got,
                        Err(expected.clone()),
                        "dup_at {dup_at} fail_at {fail_at}"
                    );
                    let seen = seen.into_inner();
                    assert_eq!(seen.len(), delivered, "dup_at {dup_at} fail_at {fail_at}");
                    for (i, record) in seen.iter().enumerate() {
                        let (u, v) = edges[i];
                        assert_eq!(
                            *record,
                            Record::Edge {
                                index: i,
                                u,
                                v,
                                w: 1.0
                            }
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn crlf_and_missing_final_newline() {
        let text = "p graph 3 2\r\ne 0 1\r\ne 1 2";
        let inst = read_instance(std::io::Cursor::new(text.as_bytes()), 4).unwrap();
        assert_eq!(inst, parse_instance("p graph 3 2\ne 0 1\ne 1 2\n").unwrap());
    }

    #[test]
    fn prefix_errors_match_materialized() {
        let text = render_instance(&sample());
        for cut in 0..text.len().min(200) {
            let prefix = &text[..cut];
            let mut p = StreamParser::new(InstanceSink::default());
            let streamed = p.feed_str(prefix).and_then(|()| p.finish().map(|_| ()));
            let materialized = parse_instance(prefix).map(|_| ());
            assert_eq!(streamed, materialized, "prefix of {cut} bytes");
        }
    }
}
