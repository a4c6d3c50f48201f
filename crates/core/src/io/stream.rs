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
//! it into a caller-supplied [`RecordSink`]. The one production sink is
//! [`InstanceSink`], which materializes the [`Instance`]: `parse_instance`
//! and [`read_instance`] are built on it, and every command loads through
//! it before a driver distributes the instance. Other sinks exist only to
//! test or time the parser.
//!
//! Central state while streaming is `O(n + m)` words: the current line,
//! the header counts, and one 8-byte key per record of a graph body — an
//! `e` line's packed `(min, max)` endpoints, an `n` line's vertex id —
//! written sequentially into a flat column, with a sparse table of where
//! those lines sit (one entry per change of line offset or column: a
//! single entry for a file of plain lines). Everything `Θ(m)`-sized beyond
//! that column lives in the sink. Parsing a line allocates nothing — an
//! `s` line's elements are checked into one scratch row the sink borrows
//! ([`RecordSink::set_row`]) — and a line is copied only when it
//! straddles two chunks.
//!
//! The two checks that span lines — no edge repeated (the format promises
//! simple graphs) and one `n` line per vertex — run once over the
//! columns, at end of input or when the parse stops early, as a stable
//! counting sort into rows and one stamping pass (`KeyColumn`). A record
//! reaches the sink as soon as its own line passes, so a sink may see a
//! repeat, but the parse then fails before `finish`. The error reported is
//! still the one the earliest bad line owes: a repeat among the records
//! before a failing line outranks that line's own error.
//!
//! # Two routes, one set of checks
//!
//! A body line reaches its checks by one of two routes. The *general*
//! route finds the line's `\n`, validates the line as UTF-8 and slices
//! whitespace-separated tokens off it lazily; it defines the language —
//! Unicode whitespace, comments, blank lines, signs, the problem line —
//! and constructs every syntax error.
//!
//! In front of it sits the *plain-record recognizer* (`Scan`, driven by
//! one `plain_lines` loop per body kind). Each chunk's whole lines — up
//! to its last `\n` — are validated as UTF-8 once, with one
//! `str::from_utf8`; if that fails, only the valid prefix's whole lines
//! are offered, and the line holding the bad byte is the general route's,
//! which reports it. Over that text the loop reads record after record,
//! each field as it comes: integers accumulated eight bytes at a time,
//! a weight as a `&str` slice of the chunk handed to `str::parse::<f64>`
//! (the weight is never parsed by hand — bit-exact round-trips are the
//! format's promise). It accepts exactly
//!
//! ```text
//! e <int> <int> [<float>]      any graph body
//! n <int> <int>                b-matching body
//! n <int> <float>              vertex-weighted body
//! s <float> [<int> …]          set-system body
//! ```
//!
//! where the tag is the line's first byte, fields are separated (and the
//! line may be padded at its end) by ASCII blanks — space, `\t`, `\x0B`,
//! `\x0C`, `\r` — `<int>` is 1–9 ASCII digits and `<float>` is a run of
//! bytes above space that `str::parse::<f64>` accepts (all ASCII, then).
//! Anything else — an indented line, a sign on an integer, a tenth
//! digit, a byte ≥ `0x80`, one field too many or too few, a comment, the
//! problem line, a record whose `\n` is not in this chunk — makes it
//! *decline*, and the untouched line takes the general route.
//!
//! So the recognizer cannot change an error. It constructs none: a line
//! it reads has no syntax error under the general route's rules up to
//! where it has read (ASCII blanks are whitespace there too, and both
//! routes hand the same token to the same `parse`), its columns are the
//! same byte offsets, and every *semantic* check — weight positive and
//! finite, endpoint range, self-loop, increasing elements — lives in one
//! function per record kind that both routes call with the fields they
//! read, in the same order: `accept_edge` and `accept_vertex` once a
//! line's fields are read, `begin_set`, `accept_elem` per element and
//! `end_set` as an `s` line is read, so the first element that fails is
//! the one reported either way. The same functions fill the key columns
//! the repeat checks read and deliver the records: an `s` line's checked
//! elements go to the sink as one borrowed row.
//!
//! The header's counts are a claim, not a fact. No allocation is sized by
//! them beyond a fixed cap (`PREALLOC_CAP` records for the sinks and the
//! key columns); past the cap every structure grows with the records that
//! actually arrive, and a header that lied is reported by the end-of-input
//! count checks. Nor is anything sized by a vertex id the body names: the
//! repeat checks' rows fall back to a sort when the ids are sparse, and
//! the smallest vertex without an `n` line is found among `k + 1`
//! candidates for `k` lines.

use std::collections::HashSet;

use mrlr_graph::{Edge, Graph, VertexId};
use mrlr_mapreduce::Csr;
use mrlr_setsys::{ElemId, SetId, SetSystem};

use super::{is_ascii_space, tokens, IoError, Tokens};
use crate::api::{BMatchingInstance, Instance, VertexWeightedGraph};

/// Default chunk size of the buffered drivers ([`read_instance`],
/// [`stream_records`]): 64 KiB — large enough to amortize syscalls, tiny
/// against any machine budget `η`.
pub const DEFAULT_BUF_LEN: usize = 64 * 1024;

/// Most records a header count may make the parser or [`InstanceSink`]
/// allocate for before any have arrived (16 MiB of edges).
const PREALLOC_CAP: usize = 1 << 20;

/// Vertex ids are [`VertexId`]s, so a graph has at most this many vertices.
const MAX_VERTICES: usize = VertexId::MAX as usize + 1;

/// Element ids are [`ElemId`]s, so a universe has at most this many
/// elements.
const MAX_ELEMENTS: usize = ElemId::MAX as usize + 1;

pub(crate) fn err(line: usize, col: usize, message: impl Into<String>) -> IoError {
    IoError {
        line,
        col,
        message: message.into(),
    }
}

/// What a sink made of a record read at `line`, its first field at `col`:
/// a sink error that carries no position of its own is placed there.
#[inline(always)]
fn delivered(result: Result<(), IoError>, line: usize, col: usize) -> Result<(), IoError> {
    result.map_err(|e| match e.line {
        0 => err(line, col, e.message),
        _ => e,
    })
}

/// A field of a record with the 1-based column it starts at.
type Field<T> = (usize, T);

/// The fields of an `e` line: two endpoints and an optional weight.
type EdgeFields = (Field<VertexId>, Field<VertexId>, Option<Field<f64>>);

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

#[inline(always)]
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

/// One record of the instance body, validated as far as its own line
/// goes: endpoints in range, no self-loop, weights positive and finite,
/// set elements strictly increasing. That it repeats no earlier edge or
/// `n` line is checked later (see [`RecordSink`]).
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
/// once, then one method per body line that passes its own checks —
/// [`RecordSink::set_row`] for an `s` line, [`RecordSink::record`] for
/// every other kind — then [`RecordSink::finish`] once the whole input
/// has passed. `set_row` lends the set's elements instead of handing
/// over a [`Record::Set`] that owns them; its default builds that record
/// and calls `record`, so a sink that implements only `record` sees every
/// line as a [`Record`]. Implementors are [`InstanceSink`] and sinks that
/// test or time the parser. A sink may reject a record with its own
/// [`IoError`]; the parser propagates it, placed at the record's line and
/// first field if it has no position (line 0) of its own, unless a repeat
/// among the records before it owes an earlier error.
///
/// Records arrive in input order as soon as their line is read, never
/// past a line that fails, and before the checks that span lines: that no
/// edge repeats an earlier one and that no vertex has two `n` lines.
/// Those run once over the whole body, at end of input or when the parse
/// stops early. So a sink may receive a record that repeats an earlier
/// one; the parse then returns the repeat's error and never calls
/// `finish`. A sink must not act on what it holds before `finish`.
pub trait RecordSink {
    /// What the sink assembles.
    type Out;
    /// Receives the problem line.
    fn header(&mut self, header: &StreamHeader) -> Result<(), IoError>;
    /// Receives one record whose line passed its own checks.
    fn record(&mut self, record: Record) -> Result<(), IoError>;
    /// Receives the record of one `s` line whose line passed its own
    /// checks — `Record::Set { index, w, elems }` with the elements
    /// borrowed from the parser's scratch row, so reading a set allocates
    /// nothing. The default hands [`RecordSink::record`] the owned
    /// [`Record::Set`]; a sink that copies the elements where they belong
    /// overrides it ([`InstanceSink`] appends them to its arena).
    fn set_row(&mut self, index: usize, w: f64, elems: &[ElemId]) -> Result<(), IoError> {
        self.record(Record::Set {
            index,
            w,
            elems: elems.to_vec(),
        })
    }
    /// Called once, after every check passes: the repeat checks, then the
    /// record counts and `n`-line completeness.
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
    /// `(min, max)` endpoints of the `e` lines accepted so far, at their
    /// edge ids: the one `Θ(m)` structure the central parser keeps.
    edges: KeyColumn,
    /// `(0, v)` of the `n` lines accepted so far.
    vertices: KeyColumn,
}

/// The keys of one record kind of a graph body, in arrival order, for the
/// checks that span lines: each edge's `(min, max)` endpoints or each `n`
/// line's `(0, v)`, packed as `row << 32 | col` with `row ≤ col`.
struct KeyColumn {
    keys: Vec<u64>,
    /// The largest `col` half pushed: it sizes the repeat check's tables.
    largest: u32,
    /// Where the keys were read, as `(index, (offset, col))` anchors: key
    /// `i`, from `index` up to the next anchor's, came from line
    /// `i + offset`, its first field at column `col`. One anchor per
    /// change of place, so one for a file of plain lines.
    anchors: Vec<(usize, (usize, usize))>,
}

impl KeyColumn {
    fn with_capacity(keys: usize) -> Self {
        KeyColumn {
            keys: Vec::with_capacity(keys),
            largest: 0,
            anchors: Vec::new(),
        }
    }

    #[inline(always)]
    fn push(&mut self, key: u64, line: usize, col: usize) {
        let index = self.keys.len();
        let place = (line - index, col);
        if self.anchors.last().map(|a| a.1) != Some(place) {
            self.anchors.push((index, place));
        }
        self.largest = self.largest.max(key as u32);
        self.keys.push(key);
    }

    /// The first key that repeats an earlier one, with the line and
    /// column it was read at.
    fn first_repeat(&self) -> Option<(u64, usize, usize)> {
        if !has_repeat(&self.keys, self.largest as usize) {
            return None;
        }
        // Only an input that fails pays for finding which key it is.
        let mut seen = HashSet::with_capacity(self.keys.len());
        let i = self.keys.iter().position(|&key| !seen.insert(key))?;
        let (_, (offset, col)) = self.anchors[self.anchors.partition_point(|a| a.0 <= i) - 1];
        Some((self.keys[i], i + offset, col))
    }
}

/// Whether `keys` (packed as in [`KeyColumn`]) holds some key twice. A
/// stable counting sort — count → prefix-sum → scatter — lays the `col`
/// halves out in rows keyed by the `row` half, and one pass stamps each
/// `col` with the row it was last seen in: a repeat finds its own row's
/// stamp. The tables are sized by `largest`, the largest `col`; ids too
/// sparse for that, past `max(2·len, PREALLOC_CAP)`, are sorted and
/// compared as neighbours instead.
fn has_repeat(keys: &[u64], largest: usize) -> bool {
    if keys.len() < 2 {
        return false;
    }
    if largest > (2 * keys.len()).max(PREALLOC_CAP) {
        let mut sorted = keys.to_vec();
        sorted.sort_unstable();
        return sorted.windows(2).any(|pair| pair[0] == pair[1]);
    }
    let row = |key: u64| (key >> 32) as usize;
    // `ends[r + 1]` counts row `r`; the prefix sums make `ends[r]` row
    // `r`'s start, which the scatter advances to its end.
    let mut ends = vec![0usize; largest + 2];
    for &key in keys {
        ends[row(key) + 1] += 1;
    }
    for r in 1..ends.len() {
        ends[r] += ends[r - 1];
    }
    let mut cols = vec![0u32; keys.len()];
    for &key in keys {
        let at = &mut ends[row(key)];
        cols[*at] = key as u32;
        *at += 1;
    }
    let mut stamps = vec![0usize; largest + 1];
    let mut start = 0;
    for (r, &end) in ends[..=largest].iter().enumerate() {
        for &col in &cols[start..end] {
            if std::mem::replace(&mut stamps[col as usize], r + 1) == r + 1 {
                return true;
            }
        }
        start = end;
    }
    false
}

/// The value of an `n` line: a weight in a `vertex-weighted` body, a
/// capacity in a `b-matching` body.
enum VertexValue {
    Weight(f64),
    Capacity(u32),
}

#[inline(always)]
fn check_vertex(v: usize, n: usize, line: usize, col: usize) -> Result<(), IoError> {
    if v < n {
        Ok(())
    } else {
        Err(err(line, col, format!("vertex {v} out of range 0..{n}")))
    }
}

impl GraphBody {
    /// The error owed to the earliest line that repeats an edge or an `n`
    /// line before it, if any.
    fn repeat_error(&self) -> Option<IoError> {
        let edge = self.edges.first_repeat().map(|(key, line, col)| {
            let (u, v) = (key >> 32, key as u32);
            err(line, col, format!("duplicate edge ({u}, {v})"))
        });
        let vertex = self
            .vertices
            .first_repeat()
            .map(|(v, line, col)| err(line, col, format!("duplicate data for vertex {v}")));
        edge.into_iter().chain(vertex).min_by_key(|e| e.line)
    }

    /// The smallest vertex id without an `n` line (`n` if there is none).
    /// The ids are distinct — the repeat check has passed — and below
    /// `n`, so `k` of them leave one of `0..=k` free: `k + 1` flags, not
    /// `n`, find it.
    fn first_missing(&self) -> usize {
        let mut present = vec![false; self.vertices.keys.len() + 1];
        for &v in &self.vertices.keys {
            if let Some(flag) = present.get_mut(v as usize) {
                *flag = true;
            }
        }
        present
            .iter()
            .position(|&p| !p)
            .expect("k distinct ids leave one of 0..=k free")
    }

    /// Every semantic check of an `e` line whose fields have parsed, in
    /// the order their errors are owed; a line that passes is keyed for
    /// the repeat check and delivered. `trailing` is what the general
    /// route found after the last field — a syntax error that ranks after
    /// the weight check and before the range checks; the recognizer only
    /// accepts lines it has read through to their `\n`, and passes `Ok`.
    #[inline(always)]
    fn accept_edge<S: RecordSink>(
        &mut self,
        sink: &mut S,
        line: usize,
        ((ucol, u), (vcol, v), weight): EdgeFields,
        trailing: Result<(), IoError>,
    ) -> Result<(), IoError> {
        let w = match weight {
            None => 1.0,
            Some((wcol, w)) => {
                check_weight(w, line, wcol, "weight")?;
                w
            }
        };
        trailing?;
        check_vertex(u as usize, self.n, line, ucol)?;
        check_vertex(v as usize, self.n, line, vcol)?;
        if u == v {
            return Err(err(line, vcol, format!("self-loop at vertex {u}")));
        }
        let index = self.edges.keys.len();
        let key = ((u.min(v) as u64) << 32) | u.max(v) as u64;
        self.edges.push(key, line, ucol);
        delivered(sink.record(Record::Edge { index, u, v, w }), line, ucol)
    }

    /// Every semantic check of an `n` line, then its key and its
    /// delivery. The general route reads `value` and `trailing` off the
    /// line before calling, but their syntax errors keep their rank:
    /// after the range check of the id, resp. after the value check.
    fn accept_vertex<S: RecordSink>(
        &mut self,
        sink: &mut S,
        line: usize,
        (vcol, v): Field<usize>,
        value: Result<Field<VertexValue>, IoError>,
        trailing: Result<(), IoError>,
    ) -> Result<(), IoError> {
        check_vertex(v, self.n, line, vcol)?;
        let record = match value? {
            (bcol, VertexValue::Capacity(0)) => {
                return Err(err(line, bcol, "capacity must be at least 1"))
            }
            (_, VertexValue::Capacity(b)) => Record::Capacity { v, b },
            (wcol, VertexValue::Weight(w)) => {
                check_weight(w, line, wcol, "vertex weight")?;
                Record::VertexWeight { v, w }
            }
        };
        trailing?;
        self.vertices.push(v as u64, line, vcol);
        delivered(sink.record(record), line, vcol)
    }

    /// The general route for one body line, its tag already consumed.
    fn general_line<S: RecordSink>(
        &mut self,
        sink: &mut S,
        (tcol, tag): (usize, &str),
        line: &mut Line<'_>,
    ) -> Result<(), IoError> {
        let needs_vertex_data = self.kind != GraphKind::Graph;
        match tag {
            "e" => {
                let u = line.parse::<VertexId>("endpoint")?;
                let v = line.parse::<VertexId>("endpoint")?;
                let weight = match line.maybe_next() {
                    None => None,
                    Some((wcol, tok)) => {
                        let w: f64 = tok
                            .parse()
                            .map_err(|_| err(line.no, wcol, format!("bad weight `{tok}`")))?;
                        Some((wcol, w))
                    }
                };
                self.accept_edge(sink, line.no, (u, v, weight), line.finish())
            }
            "n" if needs_vertex_data => {
                let id = line.parse::<usize>("vertex id")?;
                let value = if self.kind == GraphKind::BMatching {
                    line.parse::<u32>("capacity")
                        .map(|(col, b)| (col, VertexValue::Capacity(b)))
                } else {
                    line.parse::<f64>("vertex weight")
                        .map(|(col, w)| (col, VertexValue::Weight(w)))
                };
                self.accept_vertex(sink, line.no, id, value, line.finish())
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

    /// The recognizer's route: reads the plain records at the head of
    /// `text` — whole lines, validated UTF-8 — for as long as it accepts
    /// them, counting each in `line_no`. Returns how many bytes that
    /// consumed; the line after them is the general route's.
    fn plain_lines<S: RecordSink>(
        &mut self,
        sink: &mut S,
        line_no: &mut usize,
        text: &str,
    ) -> Result<usize, IoError> {
        let capacities = self.kind == GraphKind::BMatching;
        let mut scan = Scan::new(text);
        while let Some(tag) = scan.tag() {
            let line = *line_no + 1;
            match tag {
                b'e' => {
                    let Some(fields) = scan.edge() else { break };
                    self.accept_edge(sink, line, fields, Ok(()))?;
                }
                b'n' if self.kind != GraphKind::Graph => {
                    let Some((id, value)) = scan.vertex(capacities) else {
                        break;
                    };
                    self.accept_vertex(sink, line, id, Ok(value), Ok(()))?;
                }
                _ => break,
            }
            *line_no = line;
            scan.next_line();
        }
        Ok(scan.line_start)
    }
}

struct SetBody {
    header: StreamHeader,
    universe: usize,
    n_sets: usize,
    sets: usize,
    /// The checked elements of the `s` line being read: the row the sink
    /// is handed, reused from line to line.
    row: Vec<ElemId>,
}

impl SetBody {
    /// The first check of an `s` line, its weight; starts an empty row.
    fn begin_set(&mut self, line: usize, (wcol, w): Field<f64>) -> Result<(), IoError> {
        check_weight(w, line, wcol, "set weight")?;
        self.row.clear();
        Ok(())
    }

    /// The checks of the row's next element — in range, above the one
    /// before it — which then joins the row. Both routes call this as
    /// they read each element, so the first element that fails a check
    /// or fails to read is the one reported.
    fn accept_elem(&mut self, line: usize, (ecol, j): Field<ElemId>) -> Result<(), IoError> {
        if (j as usize) >= self.universe {
            return Err(err(
                line,
                ecol,
                format!("element {j} out of range 0..{}", self.universe),
            ));
        }
        if let Some(&last) = self.row.last() {
            if last >= j {
                return Err(err(
                    line,
                    ecol,
                    format!("elements must be strictly increasing ({last} then {j})"),
                ));
            }
        }
        self.row.push(j);
        Ok(())
    }

    /// Delivers the `s` line whose weight and elements all passed.
    fn end_set<S: RecordSink>(
        &mut self,
        sink: &mut S,
        line: usize,
        (wcol, w): Field<f64>,
    ) -> Result<(), IoError> {
        let index = self.sets;
        self.sets += 1;
        delivered(sink.set_row(index, w, &self.row), line, wcol)
    }

    /// The general route for one body line, its tag already consumed.
    fn general_line<S: RecordSink>(
        &mut self,
        sink: &mut S,
        (tcol, tag): (usize, &str),
        line: &mut Line<'_>,
    ) -> Result<(), IoError> {
        if tag != "s" {
            return Err(err(
                line.no,
                tcol,
                format!("unexpected record `{tag}` (expected `s`)"),
            ));
        }
        let weight = line.parse::<f64>("set weight")?;
        self.begin_set(line.no, weight)?;
        while let Some((ecol, tok)) = line.maybe_next() {
            let j = tok
                .parse::<ElemId>()
                .map_err(|_| err(line.no, ecol, format!("bad element `{tok}`")))?;
            self.accept_elem(line.no, (ecol, j))?;
        }
        self.end_set(sink, line.no, weight)
    }

    /// The recognizer's route (see [`GraphBody::plain_lines`]). An
    /// element is checked as soon as it is read: the general route would
    /// read the same fields up to it and report the same failure.
    fn plain_lines<S: RecordSink>(
        &mut self,
        sink: &mut S,
        line_no: &mut usize,
        text: &str,
    ) -> Result<usize, IoError> {
        let mut scan = Scan::new(text);
        'lines: while scan.tag() == Some(b's') {
            let line = *line_no + 1;
            let Some(weight) = scan.float() else { break };
            self.begin_set(line, weight)?;
            while !scan.at_line_end() {
                let Some(elem) = scan.int() else {
                    break 'lines;
                };
                self.accept_elem(line, elem)?;
            }
            self.end_set(sink, line, weight)?;
            *line_no = line;
            scan.next_line();
        }
        Ok(scan.line_start)
    }
}

/// The tokenizer's ASCII whitespace other than the line break — what
/// separates the fields of a plain record ([`is_ascii_space`] ends one).
#[inline]
fn is_blank(b: u8) -> bool {
    is_ascii_space(b) && b != b'\n'
}

/// The plain-record recognizer's cursor over whole lines of text. Each
/// field reader skips the blanks before its field and yields the field's
/// 1-based column with its value, or `None` to decline the line — never
/// an error (module docs). A reader that runs out of text declines too.
///
/// The readers, the checks they feed and the sink's edge push are
/// `#[inline(always)]`: left to the optimizer, several were called out of
/// line once per field, which cost ~10% of loading a file of plain
/// records.
struct Scan<'a> {
    text: &'a str,
    /// Where the line being read starts: all before it is accepted.
    line_start: usize,
    /// The next byte to read.
    pos: usize,
}

impl<'a> Scan<'a> {
    fn new(text: &'a str) -> Self {
        Scan {
            text,
            line_start: 0,
            pos: 0,
        }
    }

    #[inline(always)]
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// The column of the byte at the cursor.
    #[inline(always)]
    fn col(&self) -> usize {
        self.pos - self.line_start + 1
    }

    /// The line's one-byte tag, which a blank must follow; the cursor
    /// moves past both.
    #[inline(always)]
    fn tag(&mut self) -> Option<u8> {
        let bytes = self.text.as_bytes();
        let tag = *bytes.get(self.pos)?;
        is_blank(*bytes.get(self.pos + 1)?).then(|| {
            self.pos += 2;
            tag
        })
    }

    #[inline(always)]
    fn skip_blanks(&mut self) {
        while self.peek().is_some_and(is_blank) {
            self.pos += 1;
        }
    }

    /// The eight bytes at `at`, the first in the lowest byte.
    #[inline(always)]
    fn word(&self, at: usize) -> Option<u64> {
        let bytes = self.text.as_bytes().get(at..at + 8)?;
        Some(u64::from_le_bytes(bytes.try_into().ok()?))
    }

    /// 1–9 ASCII digits, then a blank or the line break. Up to seven
    /// digits are read eight bytes at a time ([`leading_digits`]).
    #[inline(always)]
    fn int(&mut self) -> Option<Field<u32>> {
        self.skip_blanks();
        let col = self.col();
        if let Some(word) = self.word(self.pos) {
            let (digits, value) = leading_digits(word);
            if digits < 8 {
                self.pos += digits;
                let next = (word >> (8 * digits)) as u8;
                return (digits > 0 && is_ascii_space(next)).then_some((col, value));
            }
        }
        let mut value = 0u32;
        let mut digits = 0;
        loop {
            let b = self.peek()?;
            let digit = b.wrapping_sub(b'0');
            if digit >= 10 {
                return (digits > 0 && is_ascii_space(b)).then_some((col, value));
            }
            if digits == 9 {
                return None;
            }
            value = value * 10 + digit as u32;
            digits += 1;
            self.pos += 1;
        }
    }

    /// A token that parses as an `f64` (all ASCII, then), followed by a
    /// blank or the line break.
    #[inline(always)]
    fn float(&mut self) -> Option<Field<f64>> {
        self.skip_blanks();
        let start = self.pos;
        // The token runs to the first byte at or below a space, which
        // must be ASCII whitespace: any other such byte would be part of
        // the token, and no `f64` has one.
        while let Some(word) = self.word(self.pos) {
            let low = word.wrapping_sub(BYTES_21) & !word & HIGH_BITS;
            if low != 0 {
                self.pos += low.trailing_zeros() as usize / 8;
                break;
            }
            self.pos += 8;
        }
        while self.peek()? > b' ' {
            self.pos += 1;
        }
        if !is_ascii_space(self.peek()?) {
            return None;
        }
        // Both ends sit next to ASCII bytes, so on char boundaries.
        let w = self.text.get(start..self.pos)?.parse().ok()?;
        Some((start - self.line_start + 1, w))
    }

    /// Whether only blanks remain before the line break.
    #[inline(always)]
    fn at_line_end(&mut self) -> bool {
        self.skip_blanks();
        self.peek() == Some(b'\n')
    }

    /// Accepts the line: the cursor moves past its `\n`.
    #[inline(always)]
    fn next_line(&mut self) {
        self.pos += 1;
        self.line_start = self.pos;
    }

    /// `e <int> <int> [<float>]` past the tag: its endpoints and weight.
    #[inline(always)]
    fn edge(&mut self) -> Option<EdgeFields> {
        let u = self.int()?;
        let v = self.int()?;
        let weight = if self.at_line_end() {
            None
        } else {
            Some(self.float()?)
        };
        self.at_line_end().then_some((u, v, weight))
    }

    /// `n <int> <int>` (`capacities`) or `n <int> <float>` past the tag:
    /// its vertex id and its value.
    #[inline(always)]
    fn vertex(&mut self, capacities: bool) -> Option<(Field<usize>, Field<VertexValue>)> {
        let (vcol, v) = self.int()?;
        let value = if capacities {
            let (col, b) = self.int()?;
            (col, VertexValue::Capacity(b))
        } else {
            let (col, w) = self.float()?;
            (col, VertexValue::Weight(w))
        };
        self.at_line_end().then_some(((vcol, v as usize), value))
    }
}

/// Eight copies of a byte's high bit, and of `0x21`, for the word-at-a-time
/// scans: `(x - BYTES_21) & !x & HIGH_BITS` flags the bytes of `x` below
/// `0x21`, exactly up to the first (a borrow may flag later bytes only).
const HIGH_BITS: u64 = u64::from_ne_bytes([0x80; 8]);
const BYTES_21: u64 = u64::from_ne_bytes([0x21; 8]);

/// How many ASCII digits `word` (eight bytes, the first in the lowest
/// byte) starts with, and — when there are fewer than eight — their
/// value. A byte is a digit when its high nibble is 3 both before and
/// after adding 6 to it; a carry out of a byte can only upset the bytes
/// after a non-digit. The digits are shifted into the high bytes and
/// combined pairwise: tens, then hundreds, then ten-thousands.
#[inline(always)]
fn leading_digits(word: u64) -> (usize, u32) {
    const NIBBLES: u64 = u64::from_ne_bytes([0xF0; 8]);
    const THREES: u64 = u64::from_ne_bytes([0x30; 8]);
    const SIXES: u64 = u64::from_ne_bytes([0x06; 8]);
    let other = ((word & NIBBLES) ^ THREES) | ((word.wrapping_add(SIXES) & NIBBLES) ^ THREES);
    let digits = other.trailing_zeros() as usize / 8;
    if digits == 0 || digits == 8 {
        return (digits, 0);
    }
    let v = (word & !NIBBLES) << (64 - 8 * digits);
    let v = (v.wrapping_mul(10 << 8 | 1) >> 8) & 0x00FF_00FF_00FF_00FF;
    let v = (v.wrapping_mul(100 << 16 | 1) >> 16) & 0x0000_FFFF_0000_FFFF;
    let v = v.wrapping_mul(10_000 << 32 | 1) >> 32;
    (digits, v as u32)
}

/// The longest prefix of `bytes` that is whole lines of valid UTF-8.
fn valid_lines(bytes: &[u8]) -> &str {
    whole_lines(match std::str::from_utf8(bytes) {
        Ok(text) => text,
        Err(e) => std::str::from_utf8(&bytes[..e.valid_up_to()]).unwrap_or_default(),
    })
}

/// `text` up to and including its last `\n`.
fn whole_lines(text: &str) -> &str {
    text.rfind('\n').map_or("", |end| &text[..=end])
}

/// Offset of the first `\n` in `bytes`, searched eight bytes at a time.
fn find_newline(bytes: &[u8]) -> Option<usize> {
    const LOW: u64 = u64::from_ne_bytes([0x01; 8]);
    const HIGH: u64 = u64::from_ne_bytes([0x80; 8]);
    const NEWLINES: u64 = u64::from_ne_bytes([b'\n'; 8]);
    let mut words = bytes.chunks_exact(8);
    let mut base = 0;
    for word in words.by_ref() {
        // A byte of `x` is zero where the word holds a `\n`; the lowest
        // set bit of `hit` marks the first such byte (higher bits may be
        // borrow artefacts, never lower ones).
        let x = u64::from_le_bytes(word.try_into().expect("chunks of 8")) ^ NEWLINES;
        let hit = x.wrapping_sub(LOW) & !x & HIGH;
        if hit != 0 {
            return Some(base + hit.trailing_zeros() as usize / 8);
        }
        base += 8;
    }
    let tail = words.remainder().iter().position(|&b| b == b'\n')?;
    Some(base + tail)
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
    /// Whether plain records are tried on the recognizer first — always,
    /// outside the differential tests.
    recognize: bool,
}

impl<S: RecordSink> StreamParser<S> {
    /// A parser feeding `sink`.
    pub fn new(sink: S) -> Self {
        StreamParser {
            sink: Some(sink),
            carry: Vec::new(),
            line_no: 0,
            state: State::Start,
            recognize: true,
        }
    }

    /// A parser that sends every line down the general route: the
    /// reference the recognizer is tested against.
    #[cfg(test)]
    fn general_only(sink: S) -> Self {
        StreamParser {
            recognize: false,
            ..Self::new(sink)
        }
    }

    /// Feeds the next chunk. The first error is sticky: once a chunk
    /// fails, this and [`StreamParser::finish`] keep returning it.
    pub fn feed(&mut self, bytes: &[u8]) -> Result<(), IoError> {
        if let State::Failed(e) = &self.state {
            return Err(e.clone());
        }
        self.feed_lines(bytes).map_err(|e| {
            let e = self.owed_first(e);
            self.state = State::Failed(e.clone());
            e
        })
    }

    fn feed_lines(&mut self, mut bytes: &[u8]) -> Result<(), IoError> {
        if !self.carry.is_empty() {
            let Some(pos) = find_newline(bytes) else {
                self.carry.extend_from_slice(bytes);
                return Ok(());
            };
            self.carry.extend_from_slice(&bytes[..pos]);
            bytes = &bytes[pos + 1..];
            self.handle_carry()?;
        }
        let text = valid_lines(bytes);
        self.text_lines(text)?;
        // What is left: a line that is not UTF-8, whose error the general
        // route reports, and the line the chunk cuts.
        bytes = &bytes[text.len()..];
        while let Some(pos) = find_newline(bytes) {
            self.general_line(&bytes[..pos])?;
            bytes = &bytes[pos + 1..];
        }
        self.carry.extend_from_slice(bytes);
        Ok(())
    }

    /// Every line of `text`, whole lines of validated UTF-8: runs of
    /// plain records on the recognizer, each line it declines on the
    /// general route.
    fn text_lines(&mut self, text: &str) -> Result<(), IoError> {
        let mut at = 0;
        while at < text.len() {
            at += self.plain_lines(&text[at..])?;
            let Some(len) = find_newline(&text.as_bytes()[at..]) else {
                break;
            };
            self.general_text(&text[at..at + len])?;
            at += len + 1;
        }
        Ok(())
    }

    /// [`StreamParser::feed`] for string input.
    pub fn feed_str(&mut self, text: &str) -> Result<(), IoError> {
        self.feed(text.as_bytes())
    }

    /// Flushes the final (unterminated) line, runs the end-of-input checks
    /// — repeated edges and `n` lines, at their lines; then the `m`/`nsets`
    /// record counts and `n`-line completeness, file-level errors at line
    /// 0, column 0 — and hands off to the sink.
    pub fn finish(mut self) -> Result<S::Out, IoError> {
        if let State::Failed(e) = &self.state {
            return Err(e.clone());
        }
        if !self.carry.is_empty() {
            self.handle_carry().map_err(|e| self.owed_first(e))?;
        }
        let sink = self.sink.take().expect("sink taken once");
        match self.state {
            State::Failed(e) => Err(e),
            State::Start => Err(err(0, 0, "empty input: missing problem line `p <kind> …`")),
            State::Graph(body) => {
                if let Some(e) = body.repeat_error() {
                    return Err(e);
                }
                let (m, found) = (body.m, body.edges.keys.len());
                if found != m {
                    let message = format!("problem line promised {m} edges, found {found}");
                    return Err(err(0, 0, message));
                }
                if body.kind != GraphKind::Graph {
                    let first_missing = body.first_missing();
                    if first_missing < body.n {
                        return Err(err(0, 0, format!("vertex {first_missing} has no `n` line")));
                    }
                }
                // Free the key columns before the sink builds its output.
                let header = body.header;
                drop(body);
                sink.finish(&header)
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
        let r = self.general_line(&full);
        full.clear();
        self.carry = full;
        r
    }

    /// The error a failed parse reports: a repeat among the records
    /// before the failure was owed first.
    fn owed_first(&self, e: IoError) -> IoError {
        match &self.state {
            State::Graph(body) => body.repeat_error().unwrap_or(e),
            _ => e,
        }
    }

    /// Reads plain records off the head of `text` (whole lines) for as
    /// long as the recognizer accepts them; returns how many bytes that
    /// consumed. The line after them is the general route's.
    fn plain_lines(&mut self, text: &str) -> Result<usize, IoError> {
        if !self.recognize {
            return Ok(0);
        }
        let sink = self.sink.as_mut().expect("sink alive while parsing");
        match &mut self.state {
            State::Graph(body) => body.plain_lines(sink, &mut self.line_no, text),
            State::Sets(body) => body.plain_lines(sink, &mut self.line_no, text),
            State::Start | State::Failed(_) => Ok(0),
        }
    }

    /// The general route: one whole line, its `\n` removed.
    fn general_line(&mut self, raw: &[u8]) -> Result<(), IoError> {
        match std::str::from_utf8(raw) {
            Ok(text) => self.general_text(text),
            Err(_) => {
                self.line_no += 1;
                Err(err(self.line_no, 0, "invalid UTF-8 in input"))
            }
        }
    }

    /// [`StreamParser::general_line`] on a line already known to be UTF-8.
    fn general_text(&mut self, raw: &str) -> Result<(), IoError> {
        self.line_no += 1;
        // `str::lines()` semantics: a line break is `\n` with one optional
        // preceding `\r` stripped.
        let text = raw.strip_suffix('\r').unwrap_or(raw);
        let mut line = Line::new(self.line_no, text);
        // Blank lines have no first token; comments start with `#` or
        // have a first token of exactly `c`.
        let Some(first) = line.maybe_next() else {
            return Ok(());
        };
        if first.1.starts_with('#') || first.1 == "c" {
            return Ok(());
        }
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
                        row: Vec::new(),
                    }),
                    StreamHeader::Graph { n, m }
                    | StreamHeader::VertexWeighted { n, m }
                    | StreamHeader::BMatching { n, m, .. } => State::Graph(GraphBody {
                        header,
                        kind: kind.expect("graph headers carry a kind"),
                        n,
                        m,
                        edges: KeyColumn::with_capacity(m.min(PREALLOC_CAP)),
                        vertices: KeyColumn::with_capacity(if kind == Some(GraphKind::Graph) {
                            0
                        } else {
                            n.min(PREALLOC_CAP)
                        }),
                    }),
                };
                Ok(())
            }
            State::Graph(body) => body.general_line(sink, first, &mut line),
            State::Sets(body) => body.general_line(sink, first, &mut line),
            State::Failed(e) => Err(e.clone()),
        }
    }
}

/// Refuses a header count beyond the id range `max` of what it counts.
fn at_most(max: usize, line: usize, (col, n): Field<usize>, what: &str) -> Result<(), IoError> {
    if n <= max {
        return Ok(());
    }
    Err(err(
        line,
        col,
        format!("{what} {n} exceeds the maximum {max}"),
    ))
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
            at_most(MAX_VERTICES, problem.no, (ncol, n), "vertex count")?;
            Ok((header, Some(gkind)))
        }
        "set-system" => {
            let (ucol, universe) = problem.parse::<usize>("universe size")?;
            let (_, n_sets) = problem.parse::<usize>("set count")?;
            problem.finish()?;
            at_most(MAX_ELEMENTS, problem.no, (ucol, universe), "universe size")?;
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

/// The materializing sink behind [`super::parse_instance`]: accumulates
/// records into an [`Instance`]. Central memory is `Θ(n + m)` — use a
/// distributing sink instead when that exceeds the machine budget.
#[derive(Debug, Default)]
pub struct InstanceSink {
    edges: Vec<Edge>,
    /// `(v, weight)` (vertex-weighted) or `(v, capacity)` (b-matching) of
    /// each `n` line, in arrival order: placed by id only at `finish`,
    /// once the parser has proved that every id below `n` has one line.
    vertex_data: Vec<(usize, f64)>,
    /// Each `s` line's elements, appended as one row of the arena.
    sets: Csr<ElemId>,
    set_weights: Vec<f64>,
}

/// The `n` lines' values in vertex order, given that their ids are
/// exactly `0..pairs.len()`.
fn by_vertex(pairs: Vec<(usize, f64)>) -> Vec<f64> {
    let mut values = vec![0.0; pairs.len()];
    for (v, x) in pairs {
        values[v] = x;
    }
    values
}

impl RecordSink for InstanceSink {
    type Out = Instance;

    fn header(&mut self, header: &StreamHeader) -> Result<(), IoError> {
        match *header {
            StreamHeader::Graph { m, .. } => self.edges.reserve(m.min(PREALLOC_CAP)),
            StreamHeader::VertexWeighted { n, m } | StreamHeader::BMatching { n, m, .. } => {
                self.edges.reserve(m.min(PREALLOC_CAP));
                self.vertex_data.reserve(n.min(PREALLOC_CAP));
            }
            StreamHeader::SetSystem { n_sets, .. } => {
                self.set_weights.reserve(n_sets.min(PREALLOC_CAP));
            }
        }
        Ok(())
    }

    #[inline(always)]
    fn record(&mut self, record: Record) -> Result<(), IoError> {
        match record {
            Record::Edge { u, v, w, .. } => self.edges.push(Edge::new(u, v, w)),
            Record::VertexWeight { v, w } => self.vertex_data.push((v, w)),
            Record::Capacity { v, b } => self.vertex_data.push((v, b as f64)),
            Record::Set { index, w, elems } => return self.set_row(index, w, &elems),
        }
        Ok(())
    }

    fn set_row(&mut self, index: usize, w: f64, elems: &[ElemId]) -> Result<(), IoError> {
        // Set ids and the arena's offsets are `u32`s.
        if index >= SetId::MAX as usize || self.sets.push_row(elems).is_err() {
            let message = format!("set {index} overflows the u32 ids or offsets");
            return Err(err(0, 0, message));
        }
        self.set_weights.push(w);
        Ok(())
    }

    fn finish(self, header: &StreamHeader) -> Result<Instance, IoError> {
        // The parser has already proved, record by record, everything
        // `Graph::new` would re-check.
        Ok(match *header {
            StreamHeader::Graph { n, .. } => Instance::Graph(Graph::from_validated(n, self.edges)),
            StreamHeader::VertexWeighted { n, .. } => {
                Instance::VertexWeighted(VertexWeightedGraph::new(
                    Graph::from_validated(n, self.edges),
                    by_vertex(self.vertex_data),
                ))
            }
            StreamHeader::BMatching { n, eps, .. } => Instance::BMatching(BMatchingInstance::new(
                Graph::from_validated(n, self.edges),
                by_vertex(self.vertex_data)
                    .into_iter()
                    .map(|b| b as u32)
                    .collect(),
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
    use mrlr_setsys::generators as setgen;
    use proptest::prelude::*;

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

    /// The repeat checks run after the load, yet report what checking
    /// each line on arrival would: the earliest offending line and its
    /// first field, ahead of a later syntax error, sink failure or
    /// end-of-input check, and behind a sink failure that came first —
    /// which, carrying no position of its own, is placed at its record.
    /// Meanwhile the sink has been handed every record whose own line
    /// passed, repeats included.
    #[test]
    fn repeats_found_after_the_load_report_the_first_offending_line() {
        let edge = |line, col, u: u32, v: u32| err(line, col, format!("duplicate edge ({u}, {v})"));
        let vertex = |line, col, v: u64| err(line, col, format!("duplicate data for vertex {v}"));
        let never = usize::MAX;
        // (document, sink fails at record, error, records delivered)
        let cases = [
            // Comment, blank and CRLF lines shift the line offset.
            (
                "p graph 5 4\r\nc note\ne 0 1\r\n\n# more\ne 1 2\ne 2 3\r\ne 1 0\n",
                never,
                edge(8, 3, 0, 1),
                4,
            ),
            // The general route, and blanks before the first endpoint.
            (
                "p graph 5 3\ne 0 1\ne 1 2\n  e 2 1\n",
                never,
                edge(4, 5, 1, 2),
                3,
            ),
            (
                "p graph 5 3\ne   0 1\ne 1 2\ne    2 1\n",
                never,
                edge(4, 6, 1, 2),
                3,
            ),
            (
                "p graph 5 3\ne   0 1\ne 1 2\ne 1 0\n",
                never,
                edge(4, 3, 0, 1),
                3,
            ),
            // Among `n` lines; the earlier of two repeat kinds wins.
            (
                "p vertex-weighted 3 2\nn 0 1.5\ne 0 1\nn 1 2.5\ne 1 0 3.0\nn 2 1\n",
                never,
                edge(5, 3, 0, 1),
                5,
            ),
            (
                "p vertex-weighted 3 1\nn 0 1.5\ne 0 1\nn 1 2.5\nn  0 3\nn 2 1\n",
                never,
                vertex(5, 4, 0),
                5,
            ),
            (
                "p b-matching 3 2 0.5\nn 0 1\ne 0 1\nn 0 2\ne 1 0\nn 1 1\nn 2 1\n",
                never,
                vertex(4, 3, 0),
                6,
            ),
            (
                "p b-matching 3 2 0.5\nn 0 1\ne 0 1\ne 1 0\nn 0 2\nn 1 1\nn 2 1\n",
                never,
                edge(4, 3, 0, 1),
                6,
            ),
            // Ahead of a later syntax error, sink failure or count check.
            (
                "p graph 5 3\ne 0 1\ne 1 0\ne 0 x\n",
                never,
                edge(3, 3, 0, 1),
                2,
            ),
            (
                "p graph 5 4\ne 0 1\ne 1 0\ne 1 2\ne 2 3\n",
                3,
                edge(3, 3, 0, 1),
                3,
            ),
            (
                "p graph 5 4\ne 0 1\ne 1 0\ne 1 2\ne 2 3\n",
                1,
                edge(3, 3, 0, 1),
                1,
            ),
            ("p graph 5 9\ne 0 1\ne 1 0\n", never, edge(3, 3, 0, 1), 2),
            (
                "p vertex-weighted 3 0\nn 0 1\nn 0 2\n",
                never,
                vertex(3, 3, 0),
                2,
            ),
            // Behind a sink failure that comes first, placed at the
            // failing record's first field.
            (
                "p graph 5 3\ne 0 1\ne 1 2\ne 1 0\n",
                1,
                err(3, 3, "sink full"),
                1,
            ),
            (
                "p set-system 3 3\ns 1.0 0\ns  2.0 1 2\ns 1.0\n",
                1,
                err(3, 4, "sink full"),
                1,
            ),
            // Ids too sparse for rows: the sorted fallback.
            (
                "p graph 4294967296 2\ne 4294967294 4294967295\ne 4294967295 4294967294\n",
                never,
                edge(3, 3, 4294967294, 4294967295),
                2,
            ),
            (
                "p vertex-weighted 4294967296 0\nn 4294967295 1\nn 4294967295 2\n",
                never,
                vertex(3, 3, 4294967295),
                2,
            ),
        ];
        for (text, fail_at, expected, delivered) in cases {
            for chunk in [1usize, 9, 1 << 16] {
                let seen = std::cell::RefCell::new(Vec::new());
                let sink = Logging {
                    seen: &seen,
                    fail_at,
                };
                let got = stream_records(std::io::Cursor::new(text.as_bytes()), chunk, sink);
                assert_eq!(got, Err(expected.clone()), "{text:?} at chunk size {chunk}");
                assert_eq!(
                    seen.borrow().len(),
                    delivered,
                    "{text:?} at chunk size {chunk}"
                );
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

    #[test]
    fn newline_search_finds_the_first_break() {
        // Every position of the first `\n` across the word boundary, with
        // a later `\n`, high bytes and `\n ^ 1`-style near misses around.
        for len in 0..40usize {
            for first in 0..=len {
                let mut bytes: Vec<u8> =
                    (0..len).map(|i| [0x0B, 0x8A, 0xFF, b'e'][i % 4]).collect();
                let expected = (first < len).then_some(first);
                if let Some(at) = expected {
                    bytes[at] = b'\n';
                    if at + 3 < len {
                        bytes[at + 3] = b'\n';
                    }
                }
                assert_eq!(find_newline(&bytes), expected, "{bytes:?}");
            }
        }
    }

    /// Feeds `bytes` in `chunk`-sized pieces, stopping at the first error.
    fn feed_chunked<S: RecordSink>(
        mut parser: StreamParser<S>,
        bytes: &[u8],
        chunk: usize,
    ) -> Result<S::Out, IoError> {
        for piece in bytes.chunks(chunk) {
            parser.feed(piece)?;
        }
        parser.finish()
    }

    const CHUNKS: [usize; 7] = [1, 2, 3, 7, 64, 4096, 65536];

    /// How many bytes of `lines` the recognizer reads, in the body that
    /// `header` opens — the general route takes over from there — or the
    /// error a check owes a line it read.
    fn recognized(header: &str, lines: &str) -> Result<usize, IoError> {
        let mut parser = StreamParser::new(InstanceSink::default());
        parser.feed_str(&format!("{header}\n")).unwrap();
        parser.plain_lines(lines)
    }

    /// Runs `read` on the line at the head of `text`, past its tag: the
    /// line's length, its `\n` included, and what `read` returned.
    fn scan<'a, T>(
        text: &'a str,
        read: impl FnOnce(&mut Scan<'a>) -> Option<T>,
    ) -> Option<(usize, T)> {
        let mut scan = Scan::new(text);
        scan.tag()?;
        let fields = read(&mut scan)?;
        scan.at_line_end().then(|| {
            scan.next_line();
            (scan.line_start, fields)
        })
    }

    /// Lines the recognizer must leave to the general route, which owns
    /// their meaning: what each parses to, or its exact located error.
    #[test]
    fn declined_lines_keep_their_general_meaning() {
        type Parsed = Result<(u32, u32, f64), IoError>;
        let edge = |u, v, w| Ok((u, v, w));
        let cases: &[(&str, &str, Parsed)] = &[
            ("p graph 3 1", "e +1 2", edge(1, 2, 1.0)),
            ("p graph 3 1", "e 0000000001 2", edge(1, 2, 1.0)),
            (
                "p graph 4294967296 1",
                "e 4294967294 4294967295",
                edge(4294967294, 4294967295, 1.0),
            ),
            (
                "p graph 1234567891 1",
                "e 1234567890 7",
                edge(1234567890, 7, 1.0),
            ),
            ("p graph 3 1", " e 0 1", edge(0, 1, 1.0)),
            ("p graph 3 1", "e 0\u{A0}1", edge(0, 1, 1.0)),
            ("p graph 3 1", "e 0 1 1e-1\u{2003}", edge(0, 1, 0.1)),
            (
                "p graph 9 1",
                "e 1 2 3 4",
                Err(err(2, 9, "unexpected trailing `4`")),
            ),
            (
                "p graph 3 1",
                "e 0 4294967296",
                Err(err(2, 5, "bad endpoint `4294967296`")),
            ),
            (
                "p graph 3 1",
                "e 0 1 2.5\u{E9}",
                Err(err(2, 7, "bad weight `2.5\u{E9}`")),
            ),
            (
                "p graph 3 1",
                "e 0 1 2.5\x1F",
                Err(err(2, 7, "bad weight `2.5\x1F`")),
            ),
            ("p graph 3 1", "e 0", Err(err(2, 4, "missing endpoint"))),
            ("p graph 3 1", "e", Err(err(2, 2, "missing endpoint"))),
            (
                "p graph 3 1",
                "e0 1",
                Err(err(2, 1, "unexpected record `e0` (expected `e`)")),
            ),
        ];
        for (header, line, expected) in cases {
            let terminated = format!("{line}\n");
            assert_eq!(
                recognized(header, &terminated),
                Ok(0),
                "recognized {line:?}"
            );
            let text = format!("{header}\n{terminated}");
            for chunk in CHUNKS {
                let parser = StreamParser::new(InstanceSink::default());
                let got = feed_chunked(parser, text.as_bytes(), chunk).map(|inst| match inst {
                    Instance::Graph(g) => (g.edge(0).u, g.edge(0).v, g.edge(0).w),
                    other => panic!("{other:?}"),
                });
                assert_eq!(&got, expected, "{line:?} at chunk size {chunk}");
            }
        }
        // Wrong field counts and kinds on the other record tags.
        let vertex_weighted = "p vertex-weighted 9 0";
        let b_matching = "p b-matching 9 0 0.5";
        let sets = "p set-system 9 1";
        for (header, line) in [
            (b_matching, "n 1 2 3\n"),
            (b_matching, "n 1 2.5\n"),
            (b_matching, "n 1 0000000002\n"),
            (vertex_weighted, "n 1\n"),
            (vertex_weighted, "n 1 x\n"),
            (vertex_weighted, "n 1 2.5 3\n"),
            (sets, "s\n"),
            (sets, "s 1.0 2 -3\n"),
            (sets, "s 1.0 2 3.0\n"),
            (sets, "s 1.0 2 1234567890\n"),
            (sets, "s 1.0 2 3\u{85}\n"),
        ] {
            assert_eq!(recognized(header, line), Ok(0), "recognized {line:?}");
        }
    }

    /// What the recognizer does accept, with the columns it reports.
    #[test]
    fn recognized_lines_carry_byte_columns() {
        assert_eq!(
            scan("e 10\t 21 \x0B2.5e0 \r\nrest", Scan::edge),
            Some((18, ((3, 10), (7, 21), Some((11, 2.5)))))
        );
        assert_eq!(
            scan("e 007 999999999\r\n", Scan::edge),
            Some((17, ((3, 7), (7, 999_999_999), None)))
        );
        assert_eq!(
            scan("e 12345678 1234567\n", Scan::edge),
            Some((19, ((3, 12_345_678), (12, 1_234_567), None)))
        );
        assert_eq!(
            scan("e 0 1 nan\n", Scan::edge).map(|(len, (_, _, w))| (len, w.map(|w| w.0))),
            Some((10, Some(7)))
        );
        assert_eq!(
            scan("s 0.5 3  14\x0C\n", |s| Some((
                s.float()?,
                s.int()?,
                s.int()?
            ))),
            Some((13, ((3, 0.5), (7, 3), (10, 14))))
        );
        assert_eq!(scan("s inf\n", Scan::float), Some((6, (3, f64::INFINITY))));
        // Lines the recognizer reads whole: each is counted in its
        // length, or fails the check both routes share.
        let weight = |w| Err(err(2, 7, format!("weight {w} must be positive and finite")));
        for (header, line, read) in [
            ("p graph 9 1", "e 1 2 -0\n", weight("-0")),
            ("p graph 9 1", "e 1 2 1e309\n", weight("inf")),
            ("p graph 9 1", "e 1 2 00.50\n", Ok(12)),
            ("p graph 9 1", "e 1 2 +1", Ok(0)),
            ("p graph 9 1", "e 1 2 +1\n", Ok(9)),
            ("p b-matching 9 0 0.5", "n 1 2\r\n", Ok(7)),
            ("p set-system 9 1", "s 1.5\n", Ok(6)),
            ("p set-system 9 1", "s 1.5 0 8\n", Ok(10)),
        ] {
            assert_eq!(recognized(header, line), read, "{line:?}");
        }
    }

    /// Every prefix of an eight-byte word: the digits it starts with and,
    /// below eight of them, their value.
    #[test]
    fn leading_digits_reads_words_like_the_byte_loop() {
        let word = |bytes: &[u8]| {
            let mut padded = [b'\n'; 8];
            padded[..bytes.len()].copy_from_slice(bytes);
            u64::from_le_bytes(padded)
        };
        for text in ["", "0", "7 ", "0012", "4294967", "12345678", "9999999\n"] {
            let digits = text.bytes().take_while(u8::is_ascii_digit).count();
            let value = match digits {
                0 | 8 => 0,
                _ => text[..digits].parse().unwrap(),
            };
            assert_eq!(
                leading_digits(word(text.as_bytes())),
                (digits, value),
                "{text:?}"
            );
        }
        // Neighbours of the digits, and carries out of high bytes.
        for b in [b'/', b':', b' ', 0x06, 0xFA, 0xFF, 0x80, 0x36 + 0x80] {
            assert_eq!(leading_digits(word(&[b'4', b, b'5'])), (1, 4), "{b:#x}");
            assert_eq!(leading_digits(word(&[b, b'5'])), (0, 0), "{b:#x}");
        }
    }

    /// A record cut by the chunk end is declined whole — at every offset —
    /// and arrives by way of the carry buffer instead.
    #[test]
    fn a_record_cut_by_the_chunk_end_is_declined() {
        let documents = [
            ("p graph 30 2", "e 10 21 2.5 \r\n", "e 3 4\n"),
            ("p b-matching 30 0 0.5", "n 12 34\n", ""),
            ("p vertex-weighted 30 0", "n 12 3.75\n", ""),
            ("p set-system 40 2", "s 1.25 3 14 15\n", "s 2.0\n"),
        ];
        for (header, line, tail) in documents {
            let text = format!("{header}\n{line}{tail}");
            let start = header.len() + 1;
            for cut in 1..line.len() {
                let head = &line[..cut];
                assert_eq!(recognized(header, head), Ok(0), "{head:?}");

                let seen = std::cell::RefCell::new(Vec::new());
                let mut parser = StreamParser::new(Logging {
                    seen: &seen,
                    fail_at: usize::MAX,
                });
                parser.feed(&text.as_bytes()[..start + cut]).unwrap();
                assert_eq!(parser.carry, head.as_bytes(), "cut at {cut}");
                parser.feed(&text.as_bytes()[start + cut..]).unwrap();
                // Incomplete vertex data is an end-of-input error, after
                // every record has been seen.
                let _ = parser.finish();

                let whole = std::cell::RefCell::new(Vec::new());
                let _ = feed_chunked(
                    StreamParser::general_only(Logging {
                        seen: &whole,
                        fail_at: usize::MAX,
                    }),
                    text.as_bytes(),
                    text.len(),
                );
                assert!(!whole.borrow().is_empty());
                assert_eq!(seen, whole, "cut at {cut}");
            }
        }
    }

    /// UTF-8 is checked once per chunk, up to the chunk's last line
    /// break. A sequence cut by the chunk end, anywhere in the document,
    /// reads as it does whole; an invalid byte stops the recognizer at
    /// its line, whose error the general route reports, with every
    /// record before it delivered.
    #[test]
    fn utf8_is_checked_per_chunk_and_reported_by_line() {
        let text =
            "p graph 4 3\nc caf\u{E9} \u{2003}\u{1F600}\ne 0 1 2.5\ne 1 2\n# \u{85}\ne 2 3 0.5\n";
        let whole = parse_instance(text).unwrap();
        for cut in 0..=text.len() {
            let mut parser = StreamParser::new(InstanceSink::default());
            parser.feed(&text.as_bytes()[..cut]).unwrap();
            parser.feed(&text.as_bytes()[cut..]).unwrap();
            assert_eq!(parser.finish().unwrap(), whole, "cut at {cut}");
        }
        let bad = text.replace("e 1 2\n", "e 1 2 \u{E9}\n").into_bytes();
        let at = bad.iter().rposition(|&b| b == 0xC3).unwrap();
        for corrupt in [vec![0xFF], vec![0xC3], vec![0xE2, 0x80], vec![0x80]] {
            let mut doc = bad.clone();
            doc.splice(at..at + 2, corrupt);
            let reference = feed_chunked(
                StreamParser::general_only(InstanceSink::default()),
                &doc,
                doc.len(),
            );
            assert_eq!(reference, Err(err(4, 0, "invalid UTF-8 in input")));
            for chunk in CHUNKS {
                let seen = std::cell::RefCell::new(Vec::new());
                let parser = StreamParser::new(Logging {
                    seen: &seen,
                    fail_at: usize::MAX,
                });
                assert_eq!(
                    feed_chunked(parser, &doc, chunk),
                    Err(err(4, 0, "invalid UTF-8 in input"))
                );
                assert_eq!(seen.borrow().len(), 1, "chunk size {chunk}");
                let parser = StreamParser::new(InstanceSink::default());
                assert_eq!(
                    feed_chunked(parser, &doc, chunk),
                    reference,
                    "chunk size {chunk}"
                );
            }
        }
    }

    /// Sets at the recognizer's size extremes — no elements and ten
    /// thousand — read alike on both routes, clean and with a failure
    /// planted at the far end of the long line: a tenth digit, a byte
    /// above ASCII, an element out of range, one out of order.
    #[test]
    fn empty_and_ten_thousand_element_sets_read_alike() {
        let long: String = (0..10_000).map(|j| format!(" {}", 3 * j)).collect();
        let universe = 30_000;
        let text = format!("p set-system {universe} 3\ns 1.5\ns 2{long}\ns 0.5\n");
        let reference = |doc: &[u8]| {
            feed_chunked(
                StreamParser::general_only(InstanceSink::default()),
                doc,
                doc.len(),
            )
        };
        let clean = reference(text.as_bytes()).unwrap();
        let Instance::SetSystem(sys) = &clean else {
            panic!("{clean:?}")
        };
        assert_eq!(
            (sys.sets().row(0).len(), sys.sets().row(1).len()),
            (0, 10_000)
        );
        let tail = " 29997\n";
        for planted in [
            " 29997 1234567890\n",
            " 29997\u{E9}\n",
            " 29997 30000\n",
            " 29997 29996\n",
            " 29997 \x0B\x0C\r\n",
        ] {
            let doc = text.replacen(tail, planted, 1);
            let expected = reference(doc.as_bytes());
            assert_ne!(doc, text);
            for chunk in CHUNKS {
                let parser = StreamParser::new(InstanceSink::default());
                assert_eq!(
                    feed_chunked(parser, doc.as_bytes(), chunk),
                    expected,
                    "{planted:?} at chunk size {chunk}"
                );
            }
        }
        for chunk in CHUNKS {
            let parser = StreamParser::new(InstanceSink::default());
            assert_eq!(
                feed_chunked(parser, text.as_bytes(), chunk),
                Ok(clean.clone())
            );
        }
    }

    /// Small instances of all four kinds, some with unit weights (no
    /// weight token on the `e` line).
    fn rendered(kind: usize, seed: u64) -> String {
        let n = 4 + (seed % 9) as usize;
        let g = generators::densified(n, 0.4, seed);
        let g = match seed % 3 {
            0 => g,
            _ => generators::with_uniform_weights(&g, 0.5, 9.0, seed),
        };
        render_instance(&match kind {
            0 => Instance::Graph(g),
            1 => Instance::VertexWeighted(VertexWeightedGraph::new(
                g,
                (0..n).map(|v| 1.0 + v as f64 / 7.0).collect(),
            )),
            2 => Instance::BMatching(BMatchingInstance::new(
                g,
                (0..n as u32).map(|v| 1 + v % 3).collect(),
                0.25,
            )),
            _ => Instance::SetSystem(setgen::with_log_uniform_weights(
                setgen::bounded_frequency(n, 3 * n, 3, seed),
                0.25,
                8.0,
                seed,
            )),
        })
    }

    /// What a mutation splices in: every whitespace kind, signs, integers
    /// at the recognizer's word of eight digits, at and past its nine and
    /// past `u32`, leading zeros, floats that parse to non-finite or zero,
    /// multi-byte and invalid UTF-8 (a lone continuation byte, a cut
    /// sequence), tags, and whole lines (self-loops, likely duplicates,
    /// an indented record, records of the wrong body, an empty set).
    const PIECES: &[&[u8]] = &[
        b" ",
        b"\t",
        b"\x0B",
        b"\x0C",
        b"\r",
        b"\r\n",
        b"\n",
        b"\n\n",
        "\u{A0}".as_bytes(),
        "\u{85}".as_bytes(),
        "\u{2003}".as_bytes(),
        "\u{200B}".as_bytes(),
        "\u{E9}".as_bytes(),
        b"\xFF",
        b"\xC3",
        b"\xE2\x80",
        b"\x80",
        b"\x1F",
        b"+",
        b"-",
        b".",
        b"0",
        b"7",
        b"12345678",
        b"123456789",
        b"999999999",
        b"1234567890",
        b"1000000000",
        b"0000000001",
        b"00",
        b"4294967295",
        b"4294967296",
        b"99999999999999999999",
        b"nan",
        b"NaN",
        b"inf",
        b"-inf",
        b"1e309",
        b"1e400",
        b"1e-400",
        b"0.0",
        b"-0.0",
        b"-0",
        b"+1",
        b".5",
        b"5.",
        b"1e3",
        b"0x10",
        b"e",
        b"n",
        b"s",
        b"c",
        b"#",
        b"p",
        b"x",
        b"e 0 0\n",
        b"e 1 0\n",
        b"e 0 1 2.5\n",
        b" e 0 1\n",
        b"n 0 1\n",
        b"n 0 1.5\n",
        b"s 1.0 0 0\n",
        b"s 1.0 0 1\n",
        b"s 1.0\n",
        b"c e 0 1\n",
    ];

    /// One byte-level edit: `(position, piece, operation)`, all reduced
    /// modulo what the document offers. Operations: insert the piece,
    /// overwrite with it, delete a few bytes, repeat a whole line
    /// somewhere else (duplicate edges, vertex data and sets), or drop
    /// the final line break.
    fn mutate(doc: &mut Vec<u8>, (pos, piece, op): (usize, usize, usize)) {
        let at = pos % (doc.len() + 1);
        let piece = PIECES[piece % PIECES.len()];
        match op % 5 {
            4 => {
                if doc.last() == Some(&b'\n') {
                    doc.pop();
                }
            }
            0 => drop(doc.splice(at..at, piece.iter().copied())),
            1 => {
                let end = (at + piece.len()).min(doc.len());
                drop(doc.splice(at..end, piece.iter().copied()));
            }
            2 => drop(doc.drain(at..(at + 1 + piece.len() % 3).min(doc.len()))),
            _ => {
                let lines: Vec<&[u8]> = doc.split_inclusive(|&b| b == b'\n').collect();
                let line = lines[at % lines.len()].to_vec();
                let target: usize = lines[..piece.len() % lines.len()]
                    .iter()
                    .map(|l| l.len())
                    .sum();
                drop(doc.splice(target..target, line));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1500))]

        /// The recognizer changes nothing observable: on mutated
        /// documents of every kind, at every chunk size, a parser with
        /// it and one without return the same instance or the same
        /// located error, and a sink that fails at its k-th record has
        /// seen the same records when it does.
        #[test]
        fn recognizer_on_matches_recognizer_off(
            kind in 0usize..4,
            seed in 0u64..1000,
            edits in proptest::collection::vec((any::<usize>(), any::<usize>(), any::<usize>()), 1..=3),
            fail_at in 0usize..40,
        ) {
            let mut doc = rendered(kind, seed).into_bytes();
            for edit in edits {
                mutate(&mut doc, edit);
            }
            let reference = feed_chunked(
                StreamParser::general_only(InstanceSink::default()),
                &doc,
                doc.len().max(1),
            );
            for chunk in CHUNKS {
                let on = feed_chunked(StreamParser::new(InstanceSink::default()), &doc, chunk);
                prop_assert_eq!(&on, &reference, "chunk size {}", chunk);
                let off = feed_chunked(StreamParser::general_only(InstanceSink::default()), &doc, chunk);
                prop_assert_eq!(&off, &reference, "general route, chunk size {}", chunk);

                let logged = |general: bool| {
                    let seen = std::cell::RefCell::new(Vec::new());
                    let sink = Logging { seen: &seen, fail_at };
                    let parser = if general {
                        StreamParser::general_only(sink)
                    } else {
                        StreamParser::new(sink)
                    };
                    let result = feed_chunked(parser, &doc, chunk);
                    (result, seen.into_inner())
                };
                prop_assert_eq!(logged(false), logged(true), "failing sink, chunk size {}", chunk);
            }
        }
    }
}
