//! File-based I/O for the solver API: the unified instance format, the
//! batch manifest, and machine-readable [`Report`][crate::api::Report]
//! serialization (JSON/CSV/text) — everything the `mrlr` CLI needs to
//! drive the registry from files on disk, hand-rolled because the build
//! environment has no crates.io access (no serde).
//!
//! * [`instance`] — one DIMACS-like text format covering every
//!   [`Instance`][crate::api::Instance] kind, with line/column-reporting
//!   parsers and canonical rendering (`parse(render(x)) == x`).
//! * [`manifest`] — the `mrlr batch` manifest (instance set × job list).
//! * [`batch`] — [`run_batch`], which runs a manifest's grid holding one
//!   instance and one report at a time and renders each slot as it
//!   finishes, plus the whole-grid oracle renderers it is tested against.
//! * [`report`] — deterministic JSON/CSV/text serialization of reports,
//!   with [`report::TimingMode`] masking host wall-clock so outputs can be
//!   diffed against golden files across thread counts.
//! * [`certificate`] — bit-exact witness serialization and report
//!   re-parsing ([`certificate::StoredReport`], and whole batch
//!   documents via [`certificate::parse_batch`]): what turns a stored
//!   run into an offline-auditable artifact (`mrlr verify`).
//! * [`json`] — the tiny no-deps JSON writer **and reader** the above
//!   build on.

pub mod batch;
pub mod certificate;
pub mod instance;
pub mod json;
pub mod manifest;
pub mod report;
pub mod stream;

pub use batch::{batch_csv, batch_json, run_batch, BatchFormat, BatchResults};
pub use certificate::{
    is_batch_document, parse_batch, parse_batch_value, parse_report, parse_witness, witness_json,
    BatchSlot, CertificateMode, StoredBatch, StoredReport,
};
pub use instance::{parse_instance, render_instance, write_instance};
pub use json::{parse_json, Json, JsonValue};
pub use manifest::{parse_manifest, JobSpec, Manifest};
pub use report::{
    metrics_json, report_csv_row, report_json, report_json_with, report_text, solution_json,
    timings_csv, TimingMode, REPORT_CSV_HEADER,
};
pub use stream::{
    read_instance, stream_records, InstanceSink, Record, RecordSink, StreamHeader, StreamParser,
    DEFAULT_BUF_LEN,
};

/// A parse failure with its 1-based line and column position (`0` for
/// file-level errors such as a count mismatch).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IoError {
    /// 1-based line number (0 for file-level errors).
    pub line: usize,
    /// 1-based column of the offending token (0 for file-level errors).
    pub col: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "{}", self.message)
        } else {
            write!(
                f,
                "line {}, column {}: {}",
                self.line, self.col, self.message
            )
        }
    }
}

impl std::error::Error for IoError {}

/// A lazy cursor over the whitespace-separated tokens of one line,
/// yielding `(1-based column, token)` pairs without allocating — the one
/// tokenizer behind every line-oriented parser in this module. Whitespace
/// is [`char::is_whitespace`] (ASCII bytes are tested directly, anything
/// from `0x80` up is decoded first); columns are byte-based, which
/// coincides with characters for the ASCII formats defined here.
pub(crate) struct Tokens<'a> {
    line: &'a str,
    /// Byte offset just past the last token yielded.
    pos: usize,
}

/// Whether the ASCII byte `b` is whitespace ([`char::is_whitespace`]
/// below `0x80`: space and `\t`–`\r`).
#[inline]
pub(crate) fn is_ascii_space(b: u8) -> bool {
    b == b' ' || (0x09..=0x0D).contains(&b)
}

/// The tokens of `line`.
pub(crate) fn tokens(line: &str) -> Tokens<'_> {
    Tokens { line, pos: 0 }
}

impl Tokens<'_> {
    /// Column just past the last token yielded (1 before the first) —
    /// where a "missing token" error points once the line is exhausted.
    pub(crate) fn end_col(&self) -> usize {
        self.pos + 1
    }

    /// Whether the character starting at byte `i` is whitespace, and its
    /// encoded length.
    #[inline]
    fn classify(&self, i: usize) -> (bool, usize) {
        let b = self.line.as_bytes()[i];
        if b < 0x80 {
            (is_ascii_space(b), 1)
        } else {
            let ch = self.line[i..]
                .chars()
                .next()
                .expect("scan offsets stay on char boundaries inside the line");
            (ch.is_whitespace(), ch.len_utf8())
        }
    }
}

impl<'a> Iterator for Tokens<'a> {
    type Item = (usize, &'a str);

    #[inline]
    fn next(&mut self) -> Option<(usize, &'a str)> {
        let len = self.line.len();
        let mut start = self.pos;
        while start < len {
            let (space, width) = self.classify(start);
            if !space {
                break;
            }
            start += width;
        }
        if start == len {
            return None;
        }
        let mut end = start;
        while end < len {
            let (space, width) = self.classify(end);
            if space {
                break;
            }
            end += width;
        }
        self.pos = end;
        Some((start + 1, &self.line[start..end]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The definition the cursor must match: split on every
    /// [`char::is_whitespace`] character, columns counted in bytes.
    fn reference_tokens(line: &str) -> Vec<(usize, &str)> {
        let mut out = Vec::new();
        let mut start: Option<usize> = None;
        for (i, ch) in line.char_indices() {
            if ch.is_whitespace() {
                if let Some(s) = start.take() {
                    out.push((s + 1, &line[s..i]));
                }
            } else if start.is_none() {
                start = Some(i);
            }
        }
        if let Some(s) = start {
            out.push((s + 1, &line[s..]));
        }
        out
    }

    #[test]
    fn every_ascii_byte_is_classified_like_char_is_whitespace() {
        for b in 0u8..0x80 {
            let line = format!("a{}b", b as char);
            let split = tokens(&line).count() == 2;
            assert_eq!(split, (b as char).is_whitespace(), "byte {b:#04x}");
        }
    }

    proptest! {
        /// Tokens, columns and the end column agree with the reference on
        /// lines mixing ASCII and Unicode whitespace with multi-byte
        /// token characters.
        #[test]
        fn cursor_matches_reference_tokenizer(
            picks in proptest::collection::vec(0usize..20, 0..40),
        ) {
            const ALPHABET: [&str; 20] = [
                "e", "7", "2.5", "#", "c", "é", "\u{200B}", "語", "\u{1F}", "-",
                " ", "\t", "\x0B", "\x0C", "\r", "\u{85}", "\u{A0}", "\u{2003}", "\u{3000}", "\n",
            ];
            let line: String = picks.iter().map(|&i| ALPHABET[i]).collect();
            let expected = reference_tokens(&line);
            let mut cursor = tokens(&line);
            prop_assert_eq!(cursor.end_col(), 1);
            let got: Vec<(usize, &str)> = cursor.by_ref().collect();
            prop_assert_eq!(&got, &expected);
            let end = expected.last().map_or(1, |(col, tok)| col + tok.len());
            prop_assert_eq!(cursor.end_col(), end);
            prop_assert_eq!(cursor.next(), None);
        }
    }

    #[test]
    fn display_includes_position() {
        let e = IoError {
            line: 3,
            col: 7,
            message: "bad weight".into(),
        };
        assert_eq!(e.to_string(), "line 3, column 7: bad weight");
        let file_level = IoError {
            line: 0,
            col: 0,
            message: "promised 2 edges".into(),
        };
        assert_eq!(file_level.to_string(), "promised 2 edges");
    }
}
