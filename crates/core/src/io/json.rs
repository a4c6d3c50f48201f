//! A tiny, dependency-free JSON writer **and reader**.
//!
//! The build environment has no crates.io access, so instead of serde this
//! module provides a minimal [`Json`] value tree plus a deterministic
//! pretty-printer. Object keys keep insertion order (no map reordering),
//! floats print with `{:?}` (the shortest representation that round-trips
//! exactly), and non-finite floats degrade to `null` — so two runs that
//! produce bit-identical reports produce byte-identical JSON, which is what
//! the CLI smoke tests diff against golden files.
//!
//! The reader side ([`JsonValue`], [`parse_json`]) exists so `mrlr verify`
//! can re-load stored reports: numbers are kept as their **raw source
//! token** and parsed to `u64`/`f64` on demand, which preserves the
//! writer's exact-round-trip property — `parse(render(x))` recovers `x`
//! bit-for-bit ([`crate::io::certificate`] relies on this for witnesses).

use std::fmt::Write as _;

use super::IoError;

/// A JSON value. Construct with the variant constructors and render with
/// [`Json::render`].
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (printed without a decimal point).
    U64(u64),
    /// A float, printed via `{:?}` for exact round-tripping; non-finite
    /// values render as `null` (JSON has no `inf`/`nan`).
    F64(f64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep insertion order.
    Obj(Vec<(&'static str, Json)>),
}

impl Json {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// `U64` from any unsigned-ish count.
    pub fn count(n: usize) -> Json {
        Json::U64(n as u64)
    }

    /// `F64` when `x` is `Some`, else `Null`.
    pub fn opt_f64(x: Option<f64>) -> Json {
        x.map_or(Json::Null, Json::F64)
    }

    /// Renders with 2-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Renders without any whitespace (single line).
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// Appends the pretty rendering of `self` as it reads `indent` levels
    /// deep inside a document (no trailing newline) — what lets a large
    /// document be rendered one subtree at a time.
    pub(crate) fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    pad(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                pad(out, indent);
                out.push(']');
            }
            Json::Obj(fields) if !fields.is_empty() => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    pad(out, indent + 1);
                    write_string(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                out.push('\n');
                pad(out, indent);
                out.push('}');
            }
            other => other.write_compact(out),
        }
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::F64(x) => {
                if x.is_finite() {
                    let _ = write!(out, "{x:?}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, key);
                    out.push(':');
                    value.write_compact(out);
                }
                out.push('}');
            }
        }
    }
}

/// A parsed JSON value ([`parse_json`]). Unlike the writer-side [`Json`],
/// keys are owned strings and numbers keep their raw source token so the
/// consumer chooses `u64` or `f64` without precision loss.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its raw source token (e.g. `"1.25"`, `"-3e5"`).
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object; keys keep source order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member `key` of an object, if present.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64`, if it is an unsigned integer token.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as `f64` (exact for tokens the writer printed via `{:?}`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: usize,
    col: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn err(&self, message: impl Into<String>) -> IoError {
        IoError {
            line: self.line,
            col: self.col,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.bump();
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), IoError> {
        match self.peek() {
            Some(found) if found == b => {
                self.bump();
                Ok(())
            }
            found => Err(self.err(format!(
                "expected '{}', found {}",
                b as char,
                found.map_or("end of input".into(), |f| format!("'{}'", f as char))
            ))),
        }
    }

    fn keyword(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, IoError> {
        for &b in word.as_bytes() {
            if self.peek() != Some(b) {
                return Err(self.err(format!("invalid literal (expected `{word}`)")));
            }
            self.bump();
        }
        Ok(value)
    }

    fn string(&mut self) -> Result<String, IoError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump().ok_or_else(|| self.err("unterminated string"))? {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = self.bump().ok_or_else(|| self.err("unterminated escape"))?;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let mut code = 0u32;
                            for _ in 0..4 {
                                let h = self
                                    .bump()
                                    .ok_or_else(|| self.err("unterminated \\u escape"))?;
                                let digit = (h as char)
                                    .to_digit(16)
                                    .ok_or_else(|| self.err("bad hex digit in \\u escape"))?;
                                code = code * 16 + digit;
                            }
                            // Surrogates are not produced by the writer;
                            // map unpaired ones to U+FFFD rather than fail.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return Err(self.err(format!("unknown escape '\\{}'", other as char)));
                        }
                    }
                }
                // Multi-byte UTF-8: pass the raw bytes through (the input
                // is a &str, so sequences are valid).
                b if b < 0x80 => out.push(b as char),
                b => {
                    let start = self.pos - 1;
                    let len = match b {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    for _ in 1..len {
                        self.bump();
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..start + len])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, IoError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.bump();
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.bump();
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if raw.parse::<f64>().is_err() {
            return Err(self.err(format!("invalid number `{raw}`")));
        }
        Ok(JsonValue::Num(raw.to_string()))
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, IoError> {
        if depth > 128 {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.keyword("null", JsonValue::Null),
            Some(b't') => self.keyword("true", JsonValue::Bool(true)),
            Some(b'f') => self.keyword("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'[') => {
                self.bump();
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.bump();
                    return Ok(JsonValue::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.bump() {
                        Some(b',') => continue,
                        Some(b']') => return Ok(JsonValue::Arr(items)),
                        _ => return Err(self.err("expected ',' or ']' in array")),
                    }
                }
            }
            Some(b'{') => {
                self.bump();
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.bump();
                    return Ok(JsonValue::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let value = self.value(depth + 1)?;
                    fields.push((key, value));
                    self.skip_ws();
                    match self.bump() {
                        Some(b',') => continue,
                        Some(b'}') => return Ok(JsonValue::Obj(fields)),
                        _ => return Err(self.err("expected ',' or '}' in object")),
                    }
                }
            }
            Some(other) => Err(self.err(format!("unexpected character '{}'", other as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }
}

/// Parses a JSON document into a [`JsonValue`], reporting the 1-based
/// line/column of the first syntax error.
pub fn parse_json(text: &str) -> Result<JsonValue, IoError> {
    let mut p = Parser::new(text);
    let v = p.value(0)?;
    p.skip_ws();
    if p.peek().is_some() {
        return Err(p.err("trailing content after the JSON document"));
    }
    Ok(v)
}

pub(crate) fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.render_compact(), "null");
        assert_eq!(Json::Bool(true).render_compact(), "true");
        assert_eq!(Json::U64(7).render_compact(), "7");
        assert_eq!(Json::F64(2.5).render_compact(), "2.5");
        assert_eq!(Json::F64(1.0).render_compact(), "1.0");
        assert_eq!(Json::F64(f64::INFINITY).render_compact(), "null");
        assert_eq!(Json::opt_f64(None).render_compact(), "null");
    }

    #[test]
    fn strings_escape() {
        let s = Json::str("a\"b\\c\nd\u{1}");
        assert_eq!(s.render_compact(), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn pretty_is_stable_and_nested() {
        let v = Json::Obj(vec![
            ("name", Json::str("x")),
            ("xs", Json::Arr(vec![Json::U64(1), Json::U64(2)])),
            ("empty", Json::Arr(vec![])),
            ("eobj", Json::Obj(vec![])),
        ]);
        let text = v.render();
        assert!(text.ends_with('\n'));
        assert!(text.contains("\"name\": \"x\""));
        assert!(text.contains("\"empty\": []"));
        assert!(text.contains("\"eobj\": {}"));
        // Rendering is a pure function of the tree.
        assert_eq!(text, v.render());
    }

    #[test]
    fn floats_round_trip_exactly() {
        for x in [0.1, 1.0 / 3.0, 1e300, 5e-324, 123456.789] {
            let printed = Json::F64(x).render_compact();
            assert_eq!(printed.parse::<f64>().unwrap().to_bits(), x.to_bits());
        }
    }

    #[test]
    fn parser_round_trips_writer_output() {
        let v = Json::Obj(vec![
            ("name", Json::str("x \"quoted\"\n")),
            ("xs", Json::Arr(vec![Json::U64(1), Json::F64(0.1)])),
            ("flag", Json::Bool(true)),
            ("nothing", Json::Null),
            ("nested", Json::Obj(vec![("k", Json::F64(1.0 / 3.0))])),
        ]);
        for text in [v.render(), v.render_compact()] {
            let parsed = parse_json(&text).unwrap();
            assert_eq!(
                parsed.get("name").unwrap().as_str().unwrap(),
                "x \"quoted\"\n"
            );
            let xs = parsed.get("xs").unwrap().as_arr().unwrap();
            assert_eq!(xs[0].as_u64(), Some(1));
            assert_eq!(xs[1].as_f64().unwrap().to_bits(), 0.1f64.to_bits());
            assert_eq!(parsed.get("flag").unwrap().as_bool(), Some(true));
            assert_eq!(parsed.get("nothing"), Some(&JsonValue::Null));
            let k = parsed.get("nested").unwrap().get("k").unwrap();
            assert_eq!(k.as_f64().unwrap().to_bits(), (1.0f64 / 3.0).to_bits());
        }
    }

    #[test]
    fn parser_reports_positions() {
        let err = parse_json("{\n  \"a\": [1, }\n}").unwrap_err();
        assert_eq!(err.line, 2, "{err}");
        assert!(err.col > 0);
        assert!(parse_json("").is_err());
        assert!(parse_json("{} trailing").is_err());
        assert!(parse_json("{\"a\" 1}").is_err());
        assert!(parse_json("[1e]").is_err());
    }
}
