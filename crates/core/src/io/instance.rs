//! The unified, DIMACS-like instance format behind `mrlr gen`/`mrlr solve`.
//!
//! One line-oriented text format covers every [`Instance`] kind, so a file
//! on disk is self-describing — the CLI (and any downstream tooling) can
//! load it without knowing which algorithm will consume it. Comments are
//! lines starting with `c` or `#`; blank lines are ignored. The first
//! significant line is the problem line:
//!
//! ```text
//! p graph <n> <m>                  # weighted graph
//! p vertex-weighted <n> <m>        # graph + per-vertex weights
//! p b-matching <n> <m> <eps>       # graph + per-vertex capacities
//! p set-system <universe> <nsets>  # weighted set system
//! ```
//!
//! Graph kinds then carry `m` edge lines `e <u> <v> [<w>]` (weight omitted
//! means 1; weights print with `{:?}` so they round-trip bit-exactly) and —
//! for `vertex-weighted` / `b-matching` — exactly one `n <id> <value>` line
//! per vertex (a weight, resp. an integer capacity ≥ 1). A `set-system`
//! carries `<nsets>` lines `s <w> [<elem> …]` with strictly increasing
//! elements. Parsers report 1-based line *and column* positions; rendering
//! then parsing is the identity on every well-formed instance (asserted by
//! the round-trip proptests).

use std::io::Write;

use mrlr_graph::Graph;

use super::stream::{InstanceSink, StreamParser};
use super::IoError;
use crate::api::Instance;

/// Serializes `inst` in the unified format. The output is canonical:
/// parsing it back yields a bit-identical instance, and rendering that
/// parse yields byte-identical text.
pub fn render_instance(inst: &Instance) -> String {
    let mut out = Vec::new();
    write_instance(&mut out, inst).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("the unified format is ASCII")
}

/// Streams `inst` in the unified format straight into `w`, line by line —
/// no whole-document `String` is built, so `mrlr gen --pipe` can emit an
/// instance far larger than memory into a pipe. [`render_instance`] is
/// this function collected into a `String`, so the two are byte-identical
/// by construction.
pub fn write_instance<W: Write>(w: &mut W, inst: &Instance) -> std::io::Result<()> {
    match inst {
        Instance::Graph(g) => {
            writeln!(w, "p graph {} {}", g.n(), g.m())?;
            write_edges(w, g)?;
        }
        Instance::VertexWeighted(vw) => {
            writeln!(w, "p vertex-weighted {} {}", vw.graph.n(), vw.graph.m())?;
            write_edges(w, &vw.graph)?;
            for (v, weight) in vw.weights.iter().enumerate() {
                writeln!(w, "n {v} {weight:?}")?;
            }
        }
        Instance::BMatching(bm) => {
            writeln!(
                w,
                "p b-matching {} {} {:?}",
                bm.graph.n(),
                bm.graph.m(),
                bm.eps
            )?;
            write_edges(w, &bm.graph)?;
            for (v, b) in bm.b.iter().enumerate() {
                writeln!(w, "n {v} {b}")?;
            }
        }
        Instance::SetSystem(sys) => {
            writeln!(w, "p set-system {} {}", sys.universe(), sys.n_sets())?;
            for (i, set) in sys.sets().iter().enumerate() {
                write!(w, "s {:?}", sys.weight(i as u32))?;
                for &j in set {
                    write!(w, " {j}")?;
                }
                writeln!(w)?;
            }
        }
    }
    Ok(())
}

fn write_edges<W: Write>(w: &mut W, g: &Graph) -> std::io::Result<()> {
    for e in g.edges() {
        if e.w == 1.0 {
            writeln!(w, "e {} {}", e.u, e.v)?;
        } else {
            writeln!(w, "e {} {} {:?}", e.u, e.v, e.w)?;
        }
    }
    Ok(())
}

/// Parses the unified format produced by [`render_instance`] (or written
/// by hand). Errors carry the 1-based line and column of the offending
/// token.
///
/// This is the materialized entry point, built on the chunked
/// [`StreamParser`] of [`super::stream`] with an [`InstanceSink`] — so
/// the one-shot and chunked (`read_instance`) loads share one validator
/// by construction, and report identical errors on identical input (the
/// chunking proptests assert this at every buffer size).
pub fn parse_instance(text: &str) -> Result<Instance, IoError> {
    let mut parser = StreamParser::new(InstanceSink::default());
    parser.feed_str(text)?;
    parser.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{BMatchingInstance, VertexWeightedGraph};
    use mrlr_graph::generators;
    use mrlr_setsys::generators as setgen;
    use mrlr_setsys::SetSystem;

    fn sample_graph() -> Graph {
        generators::with_uniform_weights(&generators::densified(20, 0.4, 3), 1.0, 9.0, 3)
    }

    #[test]
    fn all_kinds_round_trip() {
        let g = sample_graph();
        let n = g.n();
        let cases = [
            Instance::Graph(g.clone()),
            Instance::Graph(g.unweighted()),
            Instance::VertexWeighted(VertexWeightedGraph::new(
                g.clone(),
                (0..n).map(|v| 1.0 + v as f64 / 7.0).collect(),
            )),
            Instance::BMatching(BMatchingInstance::new(
                g,
                (0..n as u32).map(|v| 1 + v % 3).collect(),
                0.25,
            )),
            Instance::SetSystem(setgen::with_log_uniform_weights(
                setgen::bounded_frequency(12, 60, 3, 5),
                0.25,
                8.0,
                5,
            )),
        ];
        for inst in cases {
            let text = render_instance(&inst);
            let back = parse_instance(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
            assert_eq!(inst, back, "round trip failed for {:?}", inst.kind());
            assert_eq!(text, render_instance(&back), "render not canonical");
        }
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text =
            "c DIMACS-style comment\nc\ttab comment\n# hash comment\n\np graph 3 2\ne 0 1\nc mid\ne 1 2 2.5\n";
        let inst = parse_instance(text).unwrap();
        let g = match inst {
            Instance::Graph(g) => g,
            other => panic!("{other:?}"),
        };
        assert_eq!((g.n(), g.m()), (3, 2));
        assert_eq!(g.edge(1).w, 2.5);
    }

    #[test]
    fn errors_carry_line_and_column() {
        let cases: &[(&str, usize, usize, &str)] = &[
            ("", 0, 0, "empty input"),
            ("q graph 2 1", 1, 1, "expected problem line"),
            ("p torus 2 1", 1, 3, "unknown instance kind"),
            ("p graph x 1", 1, 9, "bad vertex count"),
            ("p graph 2", 1, 10, "missing edge count"),
            ("p graph 2 1 extra", 1, 13, "unexpected trailing"),
            ("p graph 3 1\nz 0 1", 2, 1, "unexpected record `z`"),
            ("p graph 3 1\ne 0", 2, 4, "missing endpoint"),
            ("p graph 3 1\ne 0 9", 2, 5, "out of range"),
            ("p graph 3 1\ne 1 1", 2, 5, "self-loop"),
            ("p graph 3 1\ne 0 1 -2", 2, 7, "must be positive"),
            ("p graph 3 1\ne 0 1 x", 2, 7, "bad weight"),
            ("p graph 3 2\ne 0 1\ne 1 0", 3, 3, "duplicate edge"),
            ("p graph 3 2\ne 0 1", 0, 0, "promised 2 edges"),
            (
                "p vertex-weighted 2 1\ne 0 1",
                0,
                0,
                "vertex 0 has no `n` line",
            ),
            (
                "p vertex-weighted 2 0\nn 0 1.0\nn 0 2.0\nn 1 1.0",
                3,
                3,
                "duplicate data",
            ),
            ("p b-matching 2 0 0.0", 1, 18, "must be positive"),
            ("p b-matching 2 0 0.1\nn 0 0\nn 1 1", 2, 5, "at least 1"),
            ("p set-system 3 1\ns 1.0 9", 2, 7, "out of range"),
            ("p set-system 3 1\ns 1.0 2 1", 2, 9, "strictly increasing"),
            ("p set-system 3 2\ns 1.0 0", 0, 0, "promised 2 sets"),
        ];
        for (text, line, col, needle) in cases {
            let e = parse_instance(text).unwrap_err();
            assert!(
                e.message.contains(needle),
                "case {text:?}: got {e} (wanted `{needle}`)"
            );
            assert_eq!((e.line, e.col), (*line, *col), "case {text:?}: got {e}");
        }
    }

    /// Pins which bytes separate tokens and how columns count: every
    /// [`char::is_whitespace`] character splits, nothing else does, and
    /// columns are 1-based *byte* offsets.
    #[test]
    fn tokenizer_language_is_pinned() {
        use crate::io::read_instance;

        let path = parse_instance("p graph 3 2\ne 0 1\ne 1 2 2.5\n").unwrap();
        let accepted: &[&str] = &[
            "p\tgraph\t3\t2\ne\t0\t1\ne\t1\t2\t2.5",
            "p\x0Bgraph\x0C3 2\ne\x0B0\x0C1\ne 1\x0C2\x0B2.5",
            // A `\r` that does not end the line is plain whitespace.
            "p graph\r3 2\r\ne\r0\r1\r\r\ne 1 2\r2.5\r",
            "p\u{85}graph\u{A0}3\u{2003}2\ne\u{3000}0\u{85}1\ne 1 2\u{A0}2.5\u{3000}",
            // Unicode whitespace indents records, comments and blank lines.
            "\u{A0}c note\n\u{2003}# note\n\u{3000}\u{85}\n\u{3000}p graph 3 2\n\u{A0}e 0 1\ne 1 2 2.5",
        ];
        for text in accepted {
            assert_eq!(parse_instance(text).unwrap(), path, "case {text:?}");
        }

        let head = "p graph 3 1\n";
        let rejected: &[(&[u8], usize, usize, &str)] = &[
            (b"e\t0\t9", 2, 5, "vertex 9 out of range"),
            (b"e\x0B0\x0C9", 2, 5, "vertex 9 out of range"),
            (b"e 0\r9", 2, 5, "vertex 9 out of range"),
            ("e 0\u{85}9".as_bytes(), 2, 6, "vertex 9 out of range"),
            ("e 0\u{A0}9".as_bytes(), 2, 6, "vertex 9 out of range"),
            ("e 0\u{2003}9".as_bytes(), 2, 7, "vertex 9 out of range"),
            ("e 0\u{3000}9".as_bytes(), 2, 7, "vertex 9 out of range"),
            // "Missing" points just past the last token, not past the
            // whitespace after it.
            ("e 0\u{3000}\t".as_bytes(), 2, 4, "missing endpoint"),
            // Non-ASCII bytes inside a token stay in it, and later
            // columns count their bytes.
            ("e 0 1\u{E9}".as_bytes(), 2, 5, "bad endpoint `1\u{E9}`"),
            ("e 0 1 2.5\u{E9}".as_bytes(), 2, 7, "bad weight `2.5\u{E9}`"),
            (
                "e 0 1 1.0 \u{E9} x".as_bytes(),
                2,
                11,
                "unexpected trailing `\u{E9}`",
            ),
            (
                "\u{E9}e 0 1".as_bytes(),
                2,
                1,
                "unexpected record `\u{E9}e`",
            ),
            // Not whitespace: the zero-width space and the ASCII
            // separator controls.
            ("e 0\u{200B}1".as_bytes(), 2, 3, "bad endpoint `0\u{200B}1`"),
            (b"e\x1F0 1", 2, 1, "unexpected record `e\x1F0`"),
            // `c` comments need whitespace after the `c`.
            (b"c\x1Fnote", 2, 1, "unexpected record `c\x1Fnote`"),
            // Invalid UTF-8 fails the whole line at column 0, wherever it
            // sits — inside a token, a comment or a later token.
            (b"e 0 \xFF", 2, 0, "invalid UTF-8 in input"),
            (b"c \xC3(", 2, 0, "invalid UTF-8 in input"),
            (b"z 0 1 \xE2\x80", 2, 0, "invalid UTF-8 in input"),
        ];
        for (body, line, col, needle) in rejected {
            let bytes = [head.as_bytes(), body].concat();
            for buf in [1usize, 3, 4096] {
                let e = read_instance(std::io::Cursor::new(&bytes), buf).unwrap_err();
                assert!(
                    e.message.contains(needle),
                    "case {body:?}: got {e} (wanted `{needle}`)"
                );
                assert_eq!((e.line, e.col), (*line, *col), "case {body:?}: got {e}");
            }
            if let Ok(text) = std::str::from_utf8(&bytes) {
                assert!(parse_instance(text).is_err(), "case {body:?}");
            }
        }
    }

    #[test]
    fn empty_shapes_round_trip() {
        for inst in [
            Instance::Graph(Graph::new(0, vec![])),
            Instance::Graph(Graph::new(4, vec![])),
            Instance::SetSystem(SetSystem::unit(0, vec![])),
            Instance::VertexWeighted(VertexWeightedGraph::new(Graph::new(1, vec![]), vec![2.0])),
        ] {
            assert_eq!(parse_instance(&render_instance(&inst)).unwrap(), inst);
        }
    }
}
