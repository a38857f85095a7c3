//! The workspace's JSON codec: the [`Json`] value type, an RFC 8259
//! parser, and the two writers every JSON output goes through.
//!
//! - [`ObjWriter`] is the compact emitter: the query service streams each
//!   response line through it field by field, and [`Json`]'s `Display`
//!   writes through it too.
//! - [`pretty`] is the indented layout of `hompres-lint --format json`
//!   and the committed `BENCH_*.json` snapshots.
//!
//! The workspace builds offline, without serde. Numbers are kept as
//! `f64`; every integer the workspace writes fits in 53 bits (element ids
//! are `u32`, fuel values are validated against `2^53` at the protocol
//! layer).

use std::fmt::{self, Write as _};

use hp_structures::Elem;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (duplicate keys keep the last value on
    /// lookup, matching common JSON semantics).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object holding `fields` in order.
    pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// `x` rounded to `digits` decimals.
    pub fn fixed(x: f64, digits: i32) -> Json {
        let scale = 10f64.powi(digits);
        Json::Num((x * scale).round() / scale)
    }

    /// Object field lookup (last occurrence wins).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a whole number in
    /// `u64` range (rejects fractions, negatives, and anything at or above
    /// `2^53`, where `f64` stops being exact).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n < 9_007_199_254_740_992.0 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}

/// `None` is `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

/// Quote and escape a string per RFC 8259.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_escaped(&mut out, s);
    out
}

/// Append `s` quoted, escaping `"`, `\` and the control characters.
fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
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

/// Append the decimal digits of `n`.
fn push_uint(out: &mut String, mut n: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("ASCII digits"));
}

/// Append `n`: whole numbers below `9e15` as integer digits, anything
/// else in `f64`'s shortest round-trip form.
fn push_num(out: &mut String, n: f64) {
    let _ = if n.fract() == 0.0 && n.abs() < 9.0e15 {
        write!(out, "{}", n as i64)
    } else {
        write!(out, "{n}")
    };
}

/// Append `v` compactly: no whitespace, objects through [`ObjWriter`].
fn push_value(out: &mut String, v: &Json) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => push_num(out, *n),
        Json::Str(s) => push_escaped(out, s),
        Json::Arr(items) => push_list(out, items, push_value),
        Json::Obj(fields) => {
            let obj = ObjWriter::open(std::mem::take(out));
            *out = fields.iter().fold(obj, |o, (k, v)| o.value(k, v)).finish();
        }
    }
}

/// Append `items` as a compact array, each written by `item`.
fn push_list<T>(out: &mut String, items: &[T], mut item: impl FnMut(&mut String, &T)) {
    out.push('[');
    for (i, x) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item(out, x);
    }
    out.push(']');
}

/// A JSON object written compactly, field by field, straight into its
/// output line: the bytes [`Json::Obj`]'s `Display` produces, without
/// building the tree first.
pub struct ObjWriter(String);

impl ObjWriter {
    /// An empty object, its line allocated with `capacity` bytes.
    pub fn new(capacity: usize) -> ObjWriter {
        ObjWriter::open(String::with_capacity(capacity))
    }

    /// An object appended to `out`.
    fn open(mut out: String) -> ObjWriter {
        out.push('{');
        ObjWriter(out)
    }

    /// Open field `key`, leaving the output positioned at its value. No
    /// value ends in `{`, so only an object without fields does.
    fn key(&mut self, key: &str) -> &mut String {
        if !self.0.ends_with('{') {
            self.0.push(',');
        }
        push_escaped(&mut self.0, key);
        self.0.push(':');
        &mut self.0
    }

    /// Field `key` holding the string `value`.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        push_escaped(self.key(key), value);
        self
    }

    /// Field `key` holding the integer `value`, which must be below
    /// `2^53` to read back exactly.
    pub fn num(mut self, key: &str, value: u64) -> Self {
        push_uint(self.key(key), value);
        self
    }

    /// Field `key` holding any value.
    pub fn value(mut self, key: &str, value: &Json) -> Self {
        push_value(self.key(key), value);
        self
    }

    /// Field `key` holding `rows` as an array of arrays of element ids,
    /// digits appended as they are produced.
    pub fn rows(mut self, key: &str, rows: &[Vec<Elem>]) -> Self {
        let out = self.key(key);
        out.reserve(rows.iter().map(|r| 2 + 11 * r.len()).sum());
        push_list(out, rows, |out, row| {
            push_list(out, row, |out, e| push_uint(out, e.0 as u64))
        });
        self
    }

    /// Close the object and return the output.
    pub fn finish(mut self) -> String {
        self.0.push('}');
        self.0
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        push_value(&mut out, self);
        f.write_str(&out)
    }
}

/// Render `v` in the pretty layout: one line per member of every object
/// or array that holds an object or array, indented two spaces a level,
/// with `": "` after each such member's key; every other value is
/// compact. No trailing newline.
pub fn pretty(v: &Json) -> String {
    let mut out = String::new();
    push_pretty(&mut out, v, "");
    out
}

fn push_pretty(out: &mut String, v: &Json, pad: &str) {
    let nested = |v: &Json| matches!(v, Json::Obj(_) | Json::Arr(_));
    let (open, close, items): (_, _, Vec<(Option<&str>, &Json)>) = match v {
        Json::Obj(fields) if fields.iter().any(|(_, v)| nested(v)) => (
            '{',
            '}',
            fields.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
        ),
        Json::Arr(items) if items.iter().any(nested) => {
            ('[', ']', items.iter().map(|v| (None, v)).collect())
        }
        _ => return push_value(out, v),
    };
    let inner = format!("{pad}  ");
    out.push(open);
    for (i, (key, v)) in items.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&inner);
        if let Some(k) = key {
            push_escaped(out, k);
            out.push_str(": ");
        }
        push_pretty(out, v, &inner);
    }
    out.push('\n');
    out.push_str(pad);
    out.push(close);
}

/// Parse one JSON value from `text`, requiring it to consume the whole
/// input (modulo surrounding whitespace).
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(v)
}

/// Maximum nesting depth accepted by the parser — the protocol needs 4;
/// the cap keeps a hostile input from unwinding the stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at offset {}", b as char, self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err("input nests too deeply".to_string());
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(format!(
                "unexpected byte {:?} at offset {}",
                b as char, self.pos
            )),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|b| {
            b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-'
        }) {
            self.pos += 1;
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii slice");
        s.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number {s:?} at offset {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let cp = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            // Surrogate pairs are not reassembled; the
                            // protocol never emits them, and a lone
                            // surrogate maps to the replacement character.
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at offset {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is a &str, so
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| "invalid UTF-8")?;
                    let c = s.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let k = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value(depth + 1)?;
            fields.push((k, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips() {
        for src in [
            "null",
            "true",
            "0",
            "-17",
            "3.5",
            "\"a\\\"b\\\\c\\nd\"",
            "[]",
            "[1,2,[3]]",
            "{}",
            "{\"a\":1,\"b\":[true,null],\"c\":{\"d\":\"e\"}}",
        ] {
            let v = parse(src).unwrap();
            let emitted = v.to_string();
            assert_eq!(parse(&emitted).unwrap(), v, "{src}");
        }
    }

    #[test]
    fn display_is_compact() {
        let src = r#"{"a":-17,"b":[true,null,3.5],"c":{"d":"e\u0001\"\\"},"e":{},"f":[]}"#;
        assert_eq!(parse(src).unwrap().to_string(), src);
        let v = parse(src).unwrap();
        let streamed = ObjWriter::new(0)
            .num("n", 7)
            .str("s", "x\ty")
            .value("v", &v)
            .finish();
        assert_eq!(streamed, format!(r#"{{"n":7,"s":"x\ty","v":{src}}}"#));
    }

    #[test]
    fn rejects_malformed_input() {
        for src in ["", "{", "[1,", "{\"a\"}", "tru", "01x", "\"\\q\"", "1 2"] {
            assert!(parse(src).is_err(), "{src:?} should not parse");
        }
    }

    #[test]
    fn nesting_is_capped() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn accessors() {
        let v = parse("{\"op\":\"query\",\"id\":7,\"rows\":[[0,1]]}").unwrap();
        assert_eq!(v.get("op").and_then(Json::as_str), Some("query"));
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(7));
        assert_eq!(
            v.get("rows").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        assert!(v.get("missing").is_none());
        assert_eq!(parse("2.5").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
    }

    #[test]
    fn unicode_and_escapes_survive() {
        let v = parse("\"π \\u0041 ok\"").unwrap();
        assert_eq!(v.as_str(), Some("π A ok"));
        assert_eq!(
            parse(&Json::Str("tab\t\"q\"".into()).to_string()).unwrap(),
            Json::Str("tab\t\"q\"".into())
        );
    }
}
