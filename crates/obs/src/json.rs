//! Minimal JSON value model, writer, and parser.
//!
//! The telemetry snapshots must serialize and parse with **zero**
//! external dependencies (the offline build harness stubs `serde_json`
//! out entirely), so this module implements the small JSON subset the
//! snapshot schema needs: objects, arrays, strings, finite f64 numbers,
//! booleans, and null. Numbers print with Rust's shortest round-tripping
//! `f64` representation; integers up to 2^53 survive exactly, which
//! comfortably covers every counter the pipeline emits.

use std::fmt;

/// A parsed or buildable JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (non-finite values serialize as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite number, when it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, when it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, when it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, when it is one.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as object entries, when it is one.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(entries) => Some(entries),
            _ => None,
        }
    }

    /// Renders compact JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders pretty JSON with two-space indentation.
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => write_num(out, *n),
            Value::Str(s) => write_str(out, s),
            Value::Arr(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i, d| {
                    items[i].write(out, indent, d);
                });
            }
            Value::Obj(entries) => {
                write_seq(out, indent, depth, '{', '}', entries.len(), |out, i, d| {
                    let (k, v) = &entries[i];
                    write_str(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, d);
                });
            }
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] describing the first offending byte
    /// offset on malformed input, including arrays and objects nested
    /// deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Value, ParseError> {
        let mut p = Parser { text, pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.text.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(v)
    }
}

fn write_num(out: &mut String, n: f64) {
    use fmt::Write as _;
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * (depth + 1)));
        }
        item(out, i, depth + 1);
    }
    if let Some(width) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(width * depth));
    }
    out.push(close);
}

/// Error from [`Value::parse`]: what went wrong and at which byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Description of the problem.
    pub message: String,
    /// Byte offset in the input.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Deepest array/object nesting [`Value::parse`] accepts. The parser
/// recurses once per level, so the cap bounds its stack use: an
/// untrusted body of nested `[` is a parse error, not a stack overflow
/// that aborts the process.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError { message: message.to_owned(), offset: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, expected: u8) -> Result<(), ParseError> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", expected as char)))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let v = if open == b'{' { self.object() } else { self.array() };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        match self.text[start..self.pos].parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Value::Num(n)),
            _ => Err(self.err("malformed number")),
        }
    }

    /// A string literal, in time linear in its length: each run of bytes
    /// up to the next `"` or `\` is copied as one slice. Both are ASCII
    /// and never occur inside a multi-byte UTF-8 sequence, so every run
    /// starts and ends on a character boundary of the (already valid)
    /// input.
    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.text.as_bytes()[self.pos..];
            let run = rest.iter().position(|&c| c == b'"' || c == b'\\').unwrap_or(rest.len());
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
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
                            let hex = self
                                .text
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed by the
                            // snapshot schema; map lone surrogates to the
                            // replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.eat(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(entries));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for text in ["null", "true", "false", "0", "-3", "2.5", "\"hi\""] {
            let v = Value::parse(text).unwrap();
            assert_eq!(v.to_json(), text);
        }
    }

    #[test]
    fn nested_document_round_trips() {
        let v = Value::Obj(vec![
            ("name".into(), Value::Str("phase2/run".into())),
            ("count".into(), Value::Num(42.0)),
            ("ratio".into(), Value::Num(0.125)),
            ("bounds".into(), Value::Arr(vec![Value::Num(1e-6), Value::Num(1e3)])),
            ("none".into(), Value::Null),
            ("ok".into(), Value::Bool(true)),
        ]);
        for text in [v.to_json(), v.to_json_pretty()] {
            assert_eq!(Value::parse(&text).unwrap(), v);
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = Value::Str("a\"b\\c\nd\te\u{1}λ".into());
        assert_eq!(Value::parse(&v.to_json()).unwrap(), v);
    }

    #[test]
    fn every_escape_and_multibyte_text_round_trips() {
        let text = r#""q\"b\\s\/n\nr\rt\tb\bf\fu\u00e9\u4e2d λ中😀""#;
        let v = Value::parse(text).unwrap();
        assert_eq!(v, Value::Str("q\"b\\s/n\nr\rt\tb\u{8}f\u{c}ué中 λ中😀".into()));
        assert_eq!(Value::parse(&v.to_json()).unwrap(), v);
        for bad in [r#""\u12""#, r#""\u12é""#, r#""\x""#, "\"ab\\"] {
            assert!(Value::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // A request body may carry 1 MiB. Copying the string run by run
        // parses it in about 4 ms in a debug test build (2-vCPU VM);
        // re-validating the rest of the document for every byte took
        // 344 s. The wall-clock bound sits far from both: some 5000x the
        // linear time, so a loaded runner does not trip it, and still
        // 17x under the quadratic time.
        let body: String = "aé中😀\\n".repeat((1 << 20) / 12);
        let doc = Value::Str(body).to_json();
        assert!(doc.len() >= 1 << 20);
        let start = std::time::Instant::now();
        let parsed = Value::parse(&doc).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(parsed.to_json(), doc);
        assert!(elapsed.as_secs_f64() < 20.0, "1 MiB string took {elapsed:?}");
    }

    #[test]
    fn accessors() {
        let v = Value::parse(r#"{"a": [1, 2], "b": "x", "n": 7}"#).unwrap();
        assert_eq!(v.get("a").and_then(Value::as_arr).unwrap().len(), 2);
        assert_eq!(v.get("b").and_then(Value::as_str), Some("x"));
        assert_eq!(v.get("n").and_then(Value::as_u64), Some(7));
        assert_eq!(v.get("n").and_then(Value::as_f64), Some(7.0));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn malformed_inputs_error() {
        for text in ["", "{", "[1,", "\"abc", "{\"a\" 1}", "tru", "1 2", "nan", "{\"a\":}"] {
            assert!(Value::parse(text).is_err(), "{text:?} should fail");
        }
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Value::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Value::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        assert!(err.message.contains("nesting"), "{err}");
        // Objects count toward the same cap, and a body far past it (the
        // size a request may carry) fails fast instead of recursing.
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(Value::parse(&objects).is_err());
        assert!(Value::parse(&"[".repeat(1 << 20)).is_err());
    }

    #[test]
    fn large_integers_survive() {
        let n = (1u64 << 53) - 1;
        let v = Value::parse(&n.to_string()).unwrap();
        assert_eq!(v.as_u64(), Some(n));
    }

    #[test]
    fn non_finite_serializes_as_null() {
        assert_eq!(Value::Num(f64::NAN).to_json(), "null");
        assert_eq!(Value::Num(f64::INFINITY).to_json(), "null");
    }
}
