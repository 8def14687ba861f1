//! Minimal JSON tree, pretty-printer and parser (the `serde_json`
//! subset the report and query modules need: building a document,
//! dumping it with 2-space indentation, and re-reading emitted
//! artifacts for validation).

use std::fmt::Write;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Integer — printed without a decimal point.
    Int(i64),
    /// Floating number — printed with Rust's shortest-roundtrip `{}`.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered object.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience string constructor.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience object builder from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Object field lookup (first match). `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload (`Num` directly, `Int` widened to `f64`).
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            Json::Int(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// Pretty-prints with 2-space indentation (the `serde_json`
    /// `to_string_pretty` layout).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    /// A recursive copy with every object's keys sorted (stable: equal
    /// keys keep their relative order). Arrays keep their order —
    /// position is meaningful there.
    pub fn sorted(&self) -> Json {
        match self {
            Json::Arr(items) => Json::Arr(items.iter().map(Json::sorted).collect()),
            Json::Obj(pairs) => {
                let mut sorted: Vec<(String, Json)> = pairs
                    .iter()
                    .map(|(k, v)| (k.clone(), v.sorted()))
                    .collect();
                sorted.sort_by(|a, b| a.0.cmp(&b.0));
                Json::Obj(sorted)
            }
            other => other.clone(),
        }
    }

    /// Canonical form: sorted keys at every level, 2-space indent.
    /// Two structurally equal documents always canonicalise to the same
    /// bytes, which makes this the right input for content hashes.
    pub fn canonical(&self) -> String {
        self.sorted().pretty()
    }

    /// Single-line rendering with no whitespace, for line-delimited
    /// protocols. Key order is preserved as stored; combine with
    /// [`Json::sorted`] when canonical bytes are needed.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
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
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
            scalar => scalar.write(out, 0),
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(x) => {
                if x.is_finite() {
                    let _ = write!(out, "{x}");
                    // `{}` prints whole floats without a fraction; that
                    // is still valid JSON, leave as is.
                } else {
                    // JSON has no Inf/NaN; null is the conventional
                    // fallback.
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    push_indent(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                    if i + 1 < pairs.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

/// Offset of the first `"` or `\` in `bytes` (its length when there is
/// none), eight bytes at a time: a byte equal to `c` is a zero byte of
/// `word ^ c…c`, and the lowest byte the zero-byte test flags is always
/// a true zero.
fn quote_or_backslash(bytes: &[u8]) -> usize {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    let zero_bytes = |v: u64| v.wrapping_sub(ONES) & !v & HIGHS;
    let mut words = bytes.chunks_exact(8);
    let mut at = 0;
    for word in &mut words {
        let w = u64::from_le_bytes(word.try_into().expect("an 8-byte chunk"));
        let hits = zero_bytes(w ^ (ONES * b'"' as u64)) | zero_bytes(w ^ (ONES * b'\\' as u64));
        if hits != 0 {
            return at + (hits.trailing_zeros() / 8) as usize;
        }
        at += 8;
    }
    let tail = words.remainder();
    at + tail.iter().position(|&b| b == b'"' || b == b'\\').unwrap_or(tail.len())
}

/// Parse error with byte offset for context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure in the input.
    pub at: usize,
    /// What went wrong.
    pub msg: &'static str,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parses a JSON document. Accepts exactly what [`Json::pretty`] emits
/// plus arbitrary standard JSON (any whitespace, escapes, nested
/// containers); numbers with a fraction or exponent become
/// [`Json::Num`], bare integers in `i64` range become [`Json::Int`].
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser { src: input, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != input.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

/// The string field `name` of the JSON object `doc`, unescaped, read
/// without building the rest of the document: what
/// `parse(doc)?.get(name)?.as_str()` gives for a well-formed `doc`.
/// `None` when the field is absent or not a string, or when `doc` is
/// not an object that is well-formed up to the field (what follows the
/// field is not read).
pub fn string_field(doc: &str, name: &str) -> Option<String> {
    let mut p = Parser { src: doc, pos: 0 };
    p.skip_ws();
    p.expect(b'{', "expected '{'").ok()?;
    p.skip_ws();
    if p.peek() == Some(b'}') {
        return None;
    }
    loop {
        p.skip_ws();
        let start = p.pos;
        p.scan_string(None).ok()?;
        // The key as written, between its quotes; one with escapes is
        // unescaped to compare.
        let raw = &doc[start + 1..p.pos - 1];
        let is_name = if raw.contains('\\') {
            Parser { src: doc, pos: start }.string().ok()? == name
        } else {
            raw == name
        };
        p.skip_ws();
        p.expect(b':', "expected ':' after object key").ok()?;
        p.skip_ws();
        if is_name {
            return p.string().ok();
        }
        p.skip_value().ok()?;
        p.skip_ws();
        p.expect(b',', "expected ','").ok()?;
    }
}

struct Parser<'a> {
    src: &'a str,
    /// Byte offset into `src`. Between tokens and between the pieces of
    /// a string it sits on a char boundary: everything the parser steps
    /// over one byte at a time is ASCII, except the byte after a
    /// backslash that is no escape, which ends the parse.
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &'static str) -> ParseError {
        ParseError { at: self.pos, msg }
    }

    fn bytes(&self) -> &'a [u8] {
        self.src.as_bytes()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8, msg: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, ParseError> {
        if self.bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{', "expected '{'")?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':' after object key")?;
            self.skip_ws();
            let v = self.value()?;
            pairs.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        let mut s = String::new();
        self.scan_string(Some(&mut s))?;
        Ok(s)
    }

    /// Steps over one string, unescaping it into `out` when given.
    fn scan_string(&mut self, mut out: Option<&mut String>) -> Result<(), ParseError> {
        self.expect(b'"', "expected '\"'")?;
        loop {
            // Copy the run up to the next quote or backslash in one go.
            // Both are ASCII, so the run ends on a char boundary.
            let run = quote_or_backslash(&self.bytes()[self.pos..]);
            if let Some(s) = out.as_deref_mut() {
                s.push_str(&self.src[self.pos..self.pos + run]);
            }
            self.pos += run;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(_) => {
                    // A backslash: one escape.
                    let esc = self.bytes().get(self.pos + 1).copied();
                    let esc = esc.ok_or(self.err("bad escape"))?;
                    self.pos += 2;
                    let c = match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => {
                            let code = self
                                .src
                                .get(self.pos..self.pos + 4)
                                .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                                .ok_or(self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not emitted by our
                            // writer; map lone surrogates to U+FFFD.
                            char::from_u32(code).unwrap_or('\u{fffd}')
                        }
                        _ => return Err(self.err("unknown escape")),
                    };
                    if let Some(s) = out.as_deref_mut() {
                        s.push(c);
                    }
                }
            }
        }
    }

    /// Steps over one value, checking its structure but building
    /// nothing.
    fn skip_value(&mut self) -> Result<(), ParseError> {
        let (close, keyed) = match self.peek() {
            Some(b'"') => return self.scan_string(None),
            Some(b'[') => (b']', false),
            Some(b'{') => (b'}', true),
            Some(b'-' | b'0'..=b'9') => {
                self.scan_number();
                return Ok(());
            }
            _ => return self.value().map(drop),
        };
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            if keyed {
                self.scan_string(None)?;
                self.skip_ws();
                self.expect(b':', "expected ':' after object key")?;
                self.skip_ws();
            }
            self.skip_value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or a closing bracket")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        let fractional = self.scan_number();
        let text = &self.src[start..self.pos];
        if !fractional {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| ParseError { at: start, msg: "invalid number" })
    }

    /// Steps over a number's characters; true when it has a fraction or
    /// an exponent.
    fn scan_number(&mut self) -> bool {
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut fractional = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        fractional
    }
}

/// Types that can render themselves as a [`Json`] tree.
pub trait ToJson {
    fn to_json(&self) -> Json;
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl ToJson for u64 {
    fn to_json(&self) -> Json {
        Json::Int(*self as i64)
    }
}

impl ToJson for u32 {
    fn to_json(&self) -> Json {
        Json::Int(*self as i64)
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{check, Gen};
    use crate::{ensure, ensure_eq};

    #[test]
    fn integers_print_without_decimal() {
        let j = Json::obj(vec![("vector_engines", Json::Int(448))]);
        assert!(j.pretty().contains("\"vector_engines\": 448"));
        assert!(!j.pretty().contains("448.0"));
    }

    #[test]
    fn nested_layout_matches_two_space_pretty() {
        let j = Json::obj(vec![
            ("name", Json::str("Aurora")),
            ("peaks", Json::Arr(vec![Json::Num(17.0), Json::Num(23.5)])),
        ]);
        let expected = "{\n  \"name\": \"Aurora\",\n  \"peaks\": [\n    17,\n    23.5\n  ]\n}";
        assert_eq!(j.pretty(), expected);
    }

    #[test]
    fn strings_are_escaped() {
        let j = Json::str("a\"b\\c\nd");
        assert_eq!(j.pretty(), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Json::Arr(vec![]).pretty(), "[]");
        assert_eq!(Json::Obj(vec![]).pretty(), "{}");
    }

    #[test]
    fn non_finite_becomes_null() {
        assert_eq!(Json::Num(f64::NAN).pretty(), "null");
        assert_eq!(Json::Num(f64::INFINITY).pretty(), "null");
    }

    #[test]
    fn parse_round_trips_pretty_output() {
        let j = Json::obj(vec![
            ("name", Json::str("Aurora \"PVC\"\n")),
            ("peaks", Json::Arr(vec![Json::Num(17.5), Json::Int(-3)])),
            ("empty", Json::Arr(vec![])),
            ("none", Json::Null),
            ("ok", Json::Bool(true)),
        ]);
        let parsed = parse(&j.pretty()).expect("round trip");
        assert_eq!(parsed, j);
    }

    #[test]
    fn parse_handles_standard_json_forms() {
        let v = parse(r#"{"a":[1,2.5,-4e2],"b":"A\t"}"#).unwrap();
        let Json::Obj(pairs) = v else { panic!("object") };
        assert_eq!(pairs[0].1, Json::Arr(vec![
            Json::Int(1),
            Json::Num(2.5),
            Json::Num(-400.0),
        ]));
        assert_eq!(pairs[1].1, Json::Str("A\t".into()));
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        // Each case's byte offset and message, pinned.
        let cases: [(&str, usize, &str); 25] = [
            ("", 0, "expected a JSON value"),
            ("{", 1, "expected '\"'"),
            ("[1,", 3, "expected a JSON value"),
            ("{\"a\" 1}", 5, "expected ':' after object key"),
            ("tru", 0, "invalid literal"),
            ("nul", 0, "invalid literal"),
            ("1 2", 2, "trailing characters after document"),
            ("[1,]", 3, "expected a JSON value"),
            ("-", 0, "invalid number"),
            ("1.2.3", 0, "invalid number"),
            ("[1 2]", 3, "expected ',' or ']' in array"),
            ("[\"é\"  x]", 7, "expected ',' or ']' in array"),
            ("{\"a\":1 \"b\":2}", 7, "expected ',' or '}' in object"),
            ("{1:2}", 1, "expected '\"'"),
            // Unterminated strings fail at the end of the input.
            ("\"unterminated", 13, "unterminated string"),
            ("\"日本語", 10, "unterminated string"),
            ("{\"a\":\"b", 7, "unterminated string"),
            // A backslash that ends the input, at the backslash.
            ("\"a\\", 2, "bad escape"),
            // Unknown escapes, just past the escaped byte (inside `é`).
            ("\"\\x\"", 3, "unknown escape"),
            ("\"\\é\"", 3, "unknown escape"),
            ("[\"ab\\q\"]", 6, "unknown escape"),
            ("\"\\u00e9\\x\"", 9, "unknown escape"),
            // Bad `\u`: at the first hex digit.
            ("\"\\u12\"", 3, "bad \\u escape"),
            ("\"\\uzz12\"", 3, "bad \\u escape"),
            ("\"\\u12", 3, "bad \\u escape"),
        ];
        for (bad, at, msg) in cases {
            assert_eq!(parse(bad), Err(ParseError { at, msg }), "{bad:?}");
        }
        let e = parse("[1,]").unwrap_err();
        assert_eq!(e.to_string(), "JSON parse error at byte 3: expected a JSON value");
    }

    /// A string mixing ASCII, 2/3/4-byte UTF-8, the two characters the
    /// writer must escape, control characters, and long runs.
    fn arbitrary_string(g: &mut Gen) -> String {
        const PIECES: [&str; 12] =
            ["a", "Z9 ", "é", "ß", "–", "中", "😀", "\"", "\\", "\n", "\u{1}", "\u{1f}"];
        let mut s = String::new();
        for _ in 0..g.usize_in(0..12) {
            let piece = *g.choose(&PIECES);
            let repeat = if g.usize_in(0..8) == 0 { g.usize_in(64..2048) } else { 1 };
            for _ in 0..repeat {
                s.push_str(piece);
            }
        }
        s
    }

    /// A random document whose every value survives a round trip: no
    /// integral `Num` (it would print as an `Int`), no non-finite ones.
    fn arbitrary_json(g: &mut Gen, depth: usize) -> Json {
        let leaf = depth == 0 || g.usize_in(0..3) == 0;
        match g.usize_in(0..if leaf { 5 } else { 7 }) {
            0 => Json::Null,
            1 => Json::Bool(g.bool()),
            2 => Json::Int(g.u64_in(0..u64::MAX) as i64),
            3 => {
                let x = g.f64_in(-1e9..1e9);
                Json::Num(if x.fract() == 0.0 { x + 0.5 } else { x })
            }
            4 => Json::Str(arbitrary_string(g)),
            5 => Json::Arr((0..g.usize_in(0..5)).map(|_| arbitrary_json(g, depth - 1)).collect()),
            _ => Json::Obj(
                (0..g.usize_in(0..5))
                    .map(|_| (arbitrary_string(g), arbitrary_json(g, depth - 1)))
                    .collect(),
            ),
        }
    }

    #[test]
    fn arbitrary_documents_round_trip() {
        check("json-round-trip", 300, |g| {
            let doc = arbitrary_json(g, 4);
            for text in [doc.pretty(), doc.compact()] {
                ensure_eq!(parse(&text), Ok(doc.clone()));
                // Every key (and one that is absent) reads the same
                // through the field reader as through the tree.
                if let Json::Obj(pairs) = &doc {
                    for key in pairs.iter().map(|(k, _)| k.as_str()).chain(["\u{0}absent"]) {
                        let want = doc.get(key).and_then(Json::as_str).map(str::to_string);
                        ensure_eq!(string_field(&text, key), want);
                    }
                }
            }
            Ok(())
        });
    }

    #[test]
    fn arbitrary_inputs_fail_with_an_offset_inside_the_input() {
        check("json-arbitrary-input", 1000, |g| {
            let bytes: Vec<u8> = if g.bool() {
                // Raw bytes, most of them from JSON's own alphabet.
                const ALPHABET: &[u8] = b"{}[]\",:\\u0123456789abcdefnrtl-+.eE \n";
                (0..g.usize_in(0..64))
                    .map(|_| match g.usize_in(0..4) {
                        0 => g.u32_in(0..256) as u8,
                        _ => *g.choose(ALPHABET),
                    })
                    .collect()
            } else {
                // A valid document with a byte range cut out, or cut short.
                let mut text = arbitrary_json(g, 3).compact().into_bytes();
                let from = g.usize_in(0..text.len() + 1);
                let to = g.usize_in(from..text.len() + 1);
                text.drain(from..to);
                text
            };
            let input = String::from_utf8_lossy(&bytes);
            if let Err(e) = parse(&input) {
                ensure!(e.at <= input.len());
            }
            for name in ["", "a", "text"] {
                let _ = string_field(&input, name);
            }
            Ok(())
        });
    }

    #[test]
    fn canonical_sorts_keys_at_every_level() {
        let j = Json::obj(vec![
            ("zeta", Json::obj(vec![("b", Json::Int(2)), ("a", Json::Int(1))])),
            ("alpha", Json::Int(0)),
        ]);
        let expected =
            "{\n  \"alpha\": 0,\n  \"zeta\": {\n    \"a\": 1,\n    \"b\": 2\n  }\n}";
        assert_eq!(j.canonical(), expected);
        // Structural equality ⇒ identical canonical bytes, whatever the
        // insertion order was.
        let permuted = Json::obj(vec![
            ("alpha", Json::Int(0)),
            ("zeta", Json::obj(vec![("a", Json::Int(1)), ("b", Json::Int(2))])),
        ]);
        assert_eq!(j.canonical(), permuted.canonical());
    }

    #[test]
    fn canonical_keeps_array_order() {
        let j = Json::Arr(vec![Json::Int(3), Json::Int(1), Json::Int(2)]);
        assert_eq!(j.canonical(), "[\n  3,\n  1,\n  2\n]");
    }

    #[test]
    fn compact_is_single_line_and_round_trips() {
        let j = Json::obj(vec![
            ("name", Json::str("Aurora")),
            ("peaks", Json::Arr(vec![Json::Num(17.5), Json::Int(-3), Json::Null])),
            ("empty", Json::Obj(vec![])),
        ]);
        let c = j.compact();
        assert_eq!(c, r#"{"name":"Aurora","peaks":[17.5,-3,null],"empty":{}}"#);
        assert!(!c.contains('\n'));
        assert_eq!(parse(&c).unwrap(), j);
    }

    #[test]
    fn escaping_edge_cases_round_trip() {
        // Quote and backslash must be escaped; forward slash must NOT
        // be (both plain and escaped forms parse to the same string);
        // BMP non-ASCII passes through raw (no \u escapes needed).
        let cases = [
            ("quote\"backslash\\", "\"quote\\\"backslash\\\\\""),
            ("a/b", "\"a/b\""),
            ("dash – é 中", "\"dash – é 中\""),
            ("bell\u{7}del\u{1f}", "\"bell\\u0007del\\u001f\""),
        ];
        for (raw, rendered) in cases {
            let j = Json::str(raw);
            assert_eq!(j.compact(), rendered);
            assert_eq!(parse(&j.pretty()).unwrap(), j, "{raw:?}");
            assert_eq!(parse(&j.compact()).unwrap(), j, "{raw:?}");
        }
        // Escaped solidus from foreign writers is accepted on input.
        assert_eq!(parse(r#""a\/b""#).unwrap(), Json::str("a/b"));
        // \u escapes for BMP chars parse to the raw char and re-render raw.
        assert_eq!(parse("\"\\u2013\"").unwrap().compact(), "\"–\"");
    }

    #[test]
    fn option_and_vec_to_json() {
        let v: Vec<Option<u64>> = vec![Some(1), None];
        assert_eq!(
            v.to_json(),
            Json::Arr(vec![Json::Int(1), Json::Null])
        );
    }
}
