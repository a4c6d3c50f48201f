//! Property tests of the chunked streaming parser: feeding a document
//! through [`StreamParser::feed`] in arbitrary byte-sized chunks (or
//! through [`read_instance`] at arbitrary buffer lengths) is
//! bit-identical to the one-shot [`parse_instance`] — same instance on
//! well-formed input, same located [`IoError`] (line *and* column) on
//! every strict prefix and every corrupted document.

use std::io::Cursor;

use proptest::prelude::*;

use mrlr_core::api::{BMatchingInstance, Instance, VertexWeightedGraph};
use mrlr_core::io::{
    parse_instance, read_instance, render_instance, InstanceSink, IoError, StreamParser,
};
use mrlr_graph::{Edge, Graph};
use mrlr_setsys::SetSystem;

/// Strategy: an arbitrary weighted simple graph (mix of unit and
/// non-dyadic weights, like the round-trip proptests).
fn arb_graph(nmax: usize, mmax: usize) -> impl Strategy<Value = Graph> {
    (1usize..=nmax).prop_flat_map(move |n| {
        proptest::collection::vec(((0..n as u32), (0..n as u32), 1u32..100_000), 0..=mmax).prop_map(
            move |raw| {
                let mut seen = std::collections::HashSet::new();
                let mut edges = Vec::new();
                for (a, b, w) in raw {
                    if a == b {
                        continue;
                    }
                    let key = (a.min(b), a.max(b));
                    if seen.insert(key) {
                        let w = if w % 5 == 0 { 1.0 } else { w as f64 / 977.0 };
                        edges.push(Edge::new(key.0, key.1, w));
                    }
                }
                Graph::new(n, edges)
            },
        )
    })
}

fn arb_system(nmax: usize, mmax: usize) -> impl Strategy<Value = SetSystem> {
    (1usize..=nmax, 1usize..=mmax).prop_flat_map(|(n, m)| {
        (
            proptest::collection::vec(proptest::collection::vec(0u32..m as u32, 0..=m), n),
            proptest::collection::vec(1u32..100_000, n),
        )
            .prop_map(move |(sets, weights)| {
                let sets: Vec<Vec<u32>> = sets
                    .into_iter()
                    .map(|mut s| {
                        s.sort_unstable();
                        s.dedup();
                        s
                    })
                    .collect();
                let weights = weights.into_iter().map(|w| w as f64 / 977.0).collect();
                SetSystem::new(m, sets, weights)
            })
    })
}

/// Strategy: the instance kinds multiplexed, so one property covers all
/// four format variants. The weight/capacity pools are as long as the
/// largest `n` `arb_graph` can produce, so `take(g.n())` always yields
/// exactly one entry per vertex.
fn arb_instance() -> impl Strategy<Value = Instance> {
    (
        0usize..4,
        arb_graph(14, 36),
        proptest::collection::vec(1u32..100_000, 14),
        proptest::collection::vec(1u32..6, 14),
        1u32..400,
        arb_system(12, 20),
    )
        .prop_map(|(kind, g, wraw, braw, eps_num, sys)| match kind {
            0 => Instance::Graph(g),
            1 => {
                let weights: Vec<f64> =
                    wraw.iter().take(g.n()).map(|&w| w as f64 / 977.0).collect();
                Instance::VertexWeighted(VertexWeightedGraph::new(g, weights))
            }
            2 => {
                let b: Vec<u32> = braw.iter().take(g.n()).copied().collect();
                Instance::BMatching(BMatchingInstance::new(g, b, eps_num as f64 / 128.0))
            }
            _ => Instance::SetSystem(sys),
        })
}

/// Feeds `text` through the streaming parser in chunks whose sizes cycle
/// through `chunks` — the adversarial schedule: chunk boundaries land
/// mid-token, mid-line, mid-float, everywhere.
fn parse_chunked(text: &str, chunks: &[usize]) -> Result<Instance, IoError> {
    let bytes = text.as_bytes();
    let mut parser = StreamParser::new(InstanceSink::default());
    let mut pos = 0;
    let mut i = 0;
    while pos < bytes.len() {
        let len = chunks[i % chunks.len()].clamp(1, bytes.len() - pos);
        i += 1;
        parser.feed(&bytes[pos..pos + len])?;
        pos += len;
    }
    parser.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Well-formed documents: every chunk schedule and every reader
    /// buffer length reproduces the one-shot parse bit-for-bit.
    #[test]
    fn chunked_parse_is_bit_identical(
        inst in arb_instance(),
        chunks in proptest::collection::vec(1usize..=17, 1..8),
        buf_len in 1usize..=64,
    ) {
        let text = render_instance(&inst);
        prop_assert_eq!(parse_chunked(&text, &chunks), Ok(inst.clone()));
        prop_assert_eq!(read_instance(Cursor::new(text.as_bytes()), buf_len), Ok(inst));
    }

    /// Strict prefixes: truncating the document anywhere (even mid-token)
    /// yields the same outcome — and on failure the same line+column —
    /// from the chunked and the one-shot parser.
    #[test]
    fn prefixes_report_identical_errors(
        inst in arb_instance(),
        chunks in proptest::collection::vec(1usize..=13, 1..6),
        cut in 0.0f64..1.0,
    ) {
        let text = render_instance(&inst);
        let prefix = &text[..(text.len() as f64 * cut) as usize];
        prop_assert_eq!(parse_chunked(prefix, &chunks), parse_instance(prefix));
    }

    /// Corrupted documents: overwriting one byte anywhere yields the
    /// same outcome (instance, or error with identical line+column and
    /// message) from both parsers.
    #[test]
    fn corruption_reports_identical_errors(
        inst in arb_instance(),
        chunks in proptest::collection::vec(1usize..=13, 1..6),
        at in 0.0f64..1.0,
        junk_idx in 0usize..5,
    ) {
        let mut bytes = render_instance(&inst).into_bytes();
        prop_assume!(!bytes.is_empty());
        let at = ((bytes.len() - 1) as f64 * at) as usize;
        bytes[at] = [b'x', b'#', b' ', b'-', b'9'][junk_idx];
        let text = String::from_utf8(bytes).unwrap();
        prop_assert_eq!(parse_chunked(&text, &chunks), parse_instance(&text));
    }
}

/// The documented prefix semantics on a concrete document, nailing down
/// the exact positions the property above compares.
#[test]
fn prefix_errors_carry_exact_positions() {
    let text = "p graph 3 2\ne 0 1 2.5\ne 1 2\n";
    let full = parse_instance(text).unwrap();
    // A prefix that cuts a whole record: file-level count mismatch.
    assert_eq!(
        parse_instance(&text[..22]).unwrap_err().to_string(),
        "problem line promised 2 edges, found 1"
    );
    // A prefix that cuts mid-line: the truncated token is the error.
    assert_eq!(
        parse_chunked(&text[..15], &[1]),
        parse_instance(&text[..15])
    );
    // Chunked at every size from 1 up: same instance.
    for size in 1..=text.len() {
        assert_eq!(parse_chunked(text, &[size]), Ok(full.clone()));
    }
}

/// The chunk lengths every hostile document is read at. At one byte no
/// line is ever whole inside a chunk, so every line takes the parser's
/// general route: that reading is the reference the others must match.
/// At 4096 and 65536 bytes whole runs of lines take the plain-record
/// recognizer, checked for UTF-8 once per chunk.
const CHUNK_LENS: [usize; 6] = [1, 2, 3, 7, 4096, 65536];

/// Bytes aimed at the recognizer's decline points: integers of eight,
/// nine and ten digits and past `u32`, leading zeros, signs, weights that
/// parse to non-finite or zero, the blanks other than space, bytes at and
/// above `0x80` (a lone continuation byte, a cut sequence, a whole one).
const HOSTILE: &[&str] = &[
    "12345678",
    "123456789",
    "1234567890",
    "4294967296",
    "0007",
    "+1",
    "-0",
    "inf",
    "NaN",
    "1e309",
    "\x0B",
    "\x0C",
    "\r",
    "\r\n",
    "\u{E9}",
    "\u{2003}",
    "\u{85}",
    " ",
    "\n",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Hostile bytes spliced into a rendered document, or put in place
    /// of the field at a position — and the document's final line break
    /// dropped, or a set of ten thousand elements appended —
    /// read the same at every chunk length of the matrix and through
    /// `read_instance` at those buffer lengths: the same instance, or
    /// the same located error.
    #[test]
    fn hostile_bytes_read_alike_at_every_chunk_length(
        inst in arb_instance(),
        edits in proptest::collection::vec((0.0f64..1.0, 0usize..21, any::<bool>()), 1..4),
        raw in proptest::collection::vec(0x80u8..=0xFF, 0..3),
        tail in 0usize..3,
    ) {
        let inst = match (tail, inst) {
            (2, Instance::SetSystem(sys)) => {
                let mut sets: Vec<Vec<u32>> = sys.sets().iter().map(<[u32]>::to_vec).collect();
                sets.push((0..10_000).collect());
                let mut weights = sys.weights().to_vec();
                weights.push(1.5);
                Instance::SetSystem(SetSystem::new(10_000, sets, weights))
            }
            (_, inst) => inst,
        };
        let mut bytes = render_instance(&inst).into_bytes();
        if tail == 1 {
            bytes.pop();
        }
        for (at, pick, replace) in edits {
            let at = (bytes.len() as f64 * at) as usize;
            let piece = match HOSTILE.get(pick) {
                Some(piece) => piece.as_bytes(),
                None => &raw[..],
            };
            let field = if replace {
                let start = bytes[..at].iter().rposition(|b| b.is_ascii_whitespace()).map_or(0, |i| i + 1);
                let end = bytes[at..].iter().position(|b| b.is_ascii_whitespace()).map_or(bytes.len(), |i| at + i);
                start..end
            } else {
                at..at
            };
            bytes.splice(field, piece.iter().copied());
        }
        let reference = parse_bytes(&bytes, 1);
        for len in CHUNK_LENS {
            prop_assert_eq!(&parse_bytes(&bytes, len), &reference, "chunk length {}", len);
            prop_assert_eq!(
                &read_instance(Cursor::new(&bytes), len),
                &reference,
                "buffer length {}",
                len
            );
        }
    }
}

/// Feeds `bytes` in `len`-byte chunks.
fn parse_bytes(bytes: &[u8], len: usize) -> Result<Instance, IoError> {
    let mut parser = StreamParser::new(InstanceSink::default());
    for chunk in bytes.chunks(len) {
        parser.feed(chunk)?;
    }
    parser.finish()
}
