//! The workspace's JSON codec (there is no serde): one value type, two
//! renderers, one parser and one string escaper. Every intent artifact
//! goes through it: profiles, overlays, bench reports and ledger lines are
//! built as [`Json`] values; traces, certificates and daemon frames are
//! read back with [`parse`].
//!
//! **Grammar accepted by [`parse`].** Standard JSON values with
//! insignificant whitespace. A number without a fraction or exponent that
//! fits `i64` becomes [`Json::Int`] (exact: virtual times must round-trip
//! bit-exactly through baselines and goldens); every other number becomes
//! [`Json::Num`] (`f64`). Strings accept the escapes `\" \\ \/ \n \r \t`
//! and `\uXXXX` for non-surrogate code points. Arrays and objects may nest
//! at most [`MAX_DEPTH`] levels; a deeper document is an error, not a
//! stack overflow. Objects keep source order and duplicate keys
//! ([`Json::get`] returns the first). Errors carry the byte offset.
//!
//! **Hand-laid-out writers.** `commlint`'s report (`render_json`),
//! `commprove`'s certificates and `commintd`'s response frames mix inline
//! objects (`{ "line": 3, "col": 28 }`) with block objects, a layout their
//! goldens pin and that neither renderer produces. They keep their own
//! `format!` layouts and escape strings with [`escape`], so the escaping
//! rules still live in one place.

use std::fmt::{self, Write as _};

/// Deepest array/object nesting [`parse`] accepts: far above the shipped
/// documents (at most 7 levels), and it bounds the parser's recursion so
/// a hostile input gets an error instead of a stack overflow.
pub const MAX_DEPTH: usize = 128;

/// A JSON value. Integers are kept exact (`Int`) — virtual times must
/// round-trip bit-exactly through baseline and golden files.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Fields in source (or insertion) order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// As a non-negative integer; `1.0` is not one.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Int(i) if *i >= 0 => Some(*i as usize),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Serialize with two-space indentation and stable (insertion) key
    /// order, so committed baselines diff cleanly. Arrays of scalars stay
    /// on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    /// Serialize on a single line with no whitespace — the JSONL form used
    /// by the run-history ledger, where one record must stay one line.
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Append `self`, pretty-printed at `indent` or compact when `None`.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        let nested = |items: &[Json]| {
            items
                .iter()
                .any(|i| matches!(i, Json::Arr(_) | Json::Obj(_)))
        };
        match (self, indent) {
            (Json::Null, _) => out.push_str("null"),
            (Json::Bool(b), _) => {
                let _ = write!(out, "{b}");
            }
            (Json::Int(i), _) => {
                let _ = write!(out, "{i}");
            }
            // Always include a decimal point so ints/floats round-trip
            // into the same variant they were written from.
            (Json::Num(n), _) if n.fract() == 0.0 && n.is_finite() => {
                let _ = write!(out, "{n:.1}");
            }
            (Json::Num(n), _) => {
                let _ = write!(out, "{n}");
            }
            (Json::Str(s), _) => write_quoted(out, s),
            (Json::Arr(items), Some(depth)) if nested(items) => {
                write_block(out, depth, ['[', ']'], items.iter().map(|v| (None, v)));
            }
            (Json::Obj(fields), Some(depth)) if !fields.is_empty() => {
                let entries = fields.iter().map(|(k, v)| (Some(k.as_str()), v));
                write_block(out, depth, ['{', '}'], entries);
            }
            (Json::Arr(items), _) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(if indent.is_some() { ", " } else { "," });
                    }
                    item.write(out, indent);
                }
                out.push(']');
            }
            (Json::Obj(fields), _) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_quoted(out, k);
                    out.push(':');
                    v.write(out, indent);
                }
                out.push('}');
            }
        }
    }
}

/// Pretty layout of a non-empty container: one entry per line, indented.
fn write_block<'a>(
    out: &mut String,
    depth: usize,
    brackets: [char; 2],
    entries: impl ExactSizeIterator<Item = (Option<&'a str>, &'a Json)>,
) {
    out.push(brackets[0]);
    out.push('\n');
    let last = entries.len() - 1;
    for (i, (key, v)) in entries.enumerate() {
        out.push_str(&"  ".repeat(depth + 1));
        if let Some(k) = key {
            write_quoted(out, k);
            out.push_str(": ");
        }
        v.write(out, Some(depth + 1));
        out.push_str(if i < last { ",\n" } else { "\n" });
    }
    out.push_str(&"  ".repeat(depth));
    out.push(brackets[1]);
}

fn write_quoted(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// Escape `s` for use inside a JSON string literal (quotes not included):
/// `"`, `\`, `\n`, `\r` and `\t` get short escapes, other control
/// characters `\u00XX`; everything else is copied as is.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + s.len() / 8 + 2);
    escape_into(&mut out, s);
    out
}

fn escape_into(out: &mut String, s: &str) {
    // Copy unescaped runs in one piece. Every byte that needs an escape
    // is ASCII, so a run boundary never splits a UTF-8 sequence.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[run..]);
}

/// A parse error with byte position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input.
    pub at: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.message)
    }
}

/// Parse a JSON document (the grammar is in the module doc).
pub fn parse(src: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: src.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing garbage after document");
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err<T>(&self, message: &str) -> Result<T, JsonError> {
        Err(JsonError {
            message: message.to_string(),
            at: self.pos,
        })
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected `{}`", b as char))
        }
    }

    fn eat_lit(&mut self, lit: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            self.err(&format!("expected `{lit}`"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.eat_lit("null", Json::Null),
            Some(b't') => self.eat_lit("true", Json::Bool(true)),
            Some(b'f') => self.eat_lit("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return self.err(&format!("nesting deeper than {MAX_DEPTH} levels"));
                }
                self.depth += 1;
                let v = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => self.err("expected a value"),
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        // Take the run of number characters and let the std parsers judge
        // it: an integer that fits `i64`, otherwise an `f64`.
        let start = self.pos;
        while let Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') = self.peek() {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        if let Ok(v) = text.parse::<i64>() {
            return Ok(Json::Int(v));
        }
        text.parse()
            .map(Json::Num)
            .or_else(|_| self.err("bad number"))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or escape in one piece:
            // `"` and `\` are ASCII and never occur inside a multi-byte
            // UTF-8 sequence, so the run boundary cannot split a
            // character.
            let start = self.pos;
            while matches!(self.bytes.get(self.pos), Some(&b) if b != b'"' && b != b'\\') {
                self.pos += 1;
            }
            if self.pos > start {
                let run =
                    std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| JsonError {
                        message: "invalid utf-8".into(),
                        at: start,
                    })?;
                out.push_str(run);
            }
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self.bytes.get(self.pos + 1..self.pos + 5);
                            let Some(hex) = hex.and_then(|h| std::str::from_utf8(h).ok()) else {
                                return self.err("bad \\u escape");
                            };
                            let Ok(cp) = u32::from_str_radix(hex, 16) else {
                                return self.err("bad \\u escape");
                            };
                            let Some(c) = char::from_u32(cp) else {
                                return self.err("bad \\u codepoint");
                            };
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.pos += 1;
                }
                // The run scan stops only at EOF, `"` or `\`.
                Some(_) => unreachable!("run scan stops at quote or escape"),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(out));
        }
        loop {
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(out));
                }
                _ => return self.err("expected `,` or `]`"),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let value = self.value()?;
            out.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(out));
                }
                _ => return self.err("expected `,` or `}`"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_handles_escapes_and_nesting() {
        let v = parse(r#"{"a": [1, "x\nyA", null], "b": {"c": "x\"y"}, "t": true}"#).unwrap();
        let a = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!((a[0].as_usize(), a[1].as_str()), (Some(1), Some("x\nyA")));
        assert!(a[2].is_null());
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\"y"));
        assert_eq!(v.get("t").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn unicode_and_escapes_round() {
        assert_eq!(parse("\"\\u0041∀N\"").unwrap().as_str(), Some("A∀N"));
        let s = "q\"∀\\\n\u{1f}end";
        let quoted = format!("\"{}\"", escape(s));
        assert_eq!(parse(&quoted).unwrap().as_str(), Some(s));
    }

    #[test]
    fn rejects_malformed_input_with_offsets() {
        for bad in [
            "{",
            "[1,]",
            "1 2",
            "{\"a\": 1} x",
            "\"open",
            "-",
            "1e",
            "1-2",
            "nul",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
        let err = parse("not json").unwrap_err().to_string();
        assert_eq!(err, "json error at byte 0: expected `null`");
        assert_eq!(parse("[1, x]").unwrap_err().at, 4);
    }

    #[test]
    fn large_integers_stay_exact() {
        let big = 4_611_686_018_427_387_903i64; // ~2^62, beyond f64 precision
        let text = Json::Arr(vec![Json::Int(big), Json::Int(-7)]).render();
        let back = parse(&text).unwrap();
        assert_eq!(back, Json::Arr(vec![Json::Int(big), Json::Int(-7)]));
        assert_eq!(back.as_arr().unwrap()[1].as_usize(), None);
    }

    #[test]
    fn every_other_number_is_f64() {
        for (text, v) in [("1.0", 1.0), ("1e0", 1.0), ("2.5E-1", 0.25), ("1e20", 1e20)] {
            assert_eq!(parse(text).unwrap(), Json::Num(v), "{text}");
        }
        assert_eq!(parse("99999999999999999999").unwrap(), Json::Num(1e20));
        assert_eq!(parse("1.0").unwrap().as_usize(), None);
        assert_eq!(Json::Num(3.0).render_compact(), "3.0");
    }

    #[test]
    fn nesting_is_limited() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let err = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            err.to_string(),
            "json error at byte 128: nesting deeper than 128 levels"
        );
        // Hostile inputs fail fast instead of overflowing the stack.
        assert!(parse(&"[".repeat(1_000_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn render_is_stable() {
        let j = Json::Obj(vec![
            ("z".into(), Json::Int(1)),
            ("a".into(), Json::Arr(vec![Json::Int(1), Json::Int(2)])),
            ("e".into(), Json::Obj(vec![])),
            (
                "n".into(),
                Json::Arr(vec![Json::Obj(vec![("k".into(), Json::Null)])]),
            ),
        ]);
        let pretty = "{\n  \"z\": 1,\n  \"a\": [1, 2],\n  \"e\": {},\n  \"n\": [\n    {\n      \"k\": null\n    }\n  ]\n}";
        assert_eq!(j.render(), pretty);
        assert_eq!(
            j.render_compact(),
            r#"{"z":1,"a":[1,2],"e":{},"n":[{"k":null}]}"#
        );
        assert_eq!(parse(pretty).unwrap(), j);
    }

    #[test]
    fn escaping_covers_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}\t\r∀"), "\\u0001\\t\\r∀");
    }
}
