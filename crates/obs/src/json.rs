//! The workspace's one JSON codec: a recursive-descent parser, a compact
//! writer for the serve wire and journal, and a pretty writer for documents
//! on disk.
//!
//! Every JSON the workspace reads or writes by hand goes through here: the
//! `ffw-serve` requests, responses and journal frames, this crate's
//! `ffw-obs/1` recorder document and the `regression` bench's baseline
//! reader. It lives in `ffw-obs` because that
//! crate sits below every other one and has no dependencies. It accepts
//! exactly RFC 8259 JSON (objects, arrays, strings with full escape handling
//! including surrogate pairs, numbers, booleans, null), enforces a
//! nesting-depth limit so a hostile request cannot blow the stack, and
//! reports typed errors with the byte offset of the problem — a malformed
//! request must become a `rejected` response, never a panic.

use std::collections::BTreeMap;
use std::fmt;

/// Maximum nesting depth accepted by the parser.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value. Object keys are kept in a `BTreeMap`, which makes
/// serialization deterministic — important because journal frames and job
/// fingerprints hash the serialized text.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`; integers are exact below 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(BTreeMap<String, Json>),
}

/// The largest integer [`Json::as_u64`] returns: `2^53 - 1`, below which
/// every integer literal parses to itself.
pub const MAX_EXACT_INT: u64 = (1 << 53) - 1;

/// A parse failure: what went wrong and the byte offset where.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description of the problem.
    pub message: String,
    /// Byte offset into the input where the problem was detected.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses one complete JSON value; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing content after JSON value"));
        }
        Ok(v)
    }

    /// Looks up a key on an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one exactly
    /// and at most [`MAX_EXACT_INT`]. 2^53 itself is refused: it is the
    /// first value a longer literal rounds onto (`9007199254740993` parses
    /// as 2^53), so it cannot be told from the literals it stands for.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= MAX_EXACT_INT as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Serializes compactly (single line, no spaces) — the wire and journal
    /// format. Non-finite numbers render as `null`, like real serde_json.
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Serializes with two-space indentation and `": "` after each key, for
    /// documents written to disk. Scalars are spelled exactly as
    /// [`Json::to_line`] spells them; empty arrays and objects stay `[]` and
    /// `{}`.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    /// `indent` is `None` for the compact form, else the nesting depth of
    /// this value in the pretty form.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if !n.is_finite() {
                    out.push_str("null");
                } else if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
                    // Integral values print without an exponent or trailing
                    // ".0" so ids and counters round-trip textually.
                    out.push_str(&format!("{}", *n as i64));
                } else {
                    out.push_str(&format!("{n}"));
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                write_items(out, indent, ['[', ']'], items.iter().map(|v| (None, v)))
            }
            Json::Obj(map) => write_items(
                out,
                indent,
                ['{', '}'],
                map.iter().map(|(k, v)| (Some(k.as_str()), v)),
            ),
        }
    }
}

/// Writes the members of an array (no keys) or an object between
/// `brackets`, one per line in the pretty form.
fn write_items<'a>(
    out: &mut String,
    indent: Option<usize>,
    brackets: [char; 2],
    items: impl Iterator<Item = (Option<&'a str>, &'a Json)>,
) {
    let inner = indent.map(|d| d + 1);
    out.push(brackets[0]);
    let mut empty = true;
    for (key, v) in items {
        out.push_str(if empty { "" } else { "," });
        empty = false;
        newline(out, inner);
        if let Some(k) = key {
            write_escaped(k, out);
            out.push_str(if indent.is_some() { ": " } else { ":" });
        }
        v.write(out, inner);
    }
    if !empty {
        newline(out, indent);
    }
    out.push(brackets[1]);
}

/// Starts a line at `indent` levels in the pretty form; nothing in the
/// compact one.
fn newline(out: &mut String, indent: Option<usize>) {
    if let Some(depth) = indent {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    }
}

/// Convenience constructor for object literals.
pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            message: msg.into(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits = |p: &mut Parser| {
            let mut n = 0;
            while matches!(p.peek(), Some(b'0'..=b'9')) {
                p.pos += 1;
                n += 1;
            }
            n
        };
        if digits(self) == 0 {
            return Err(self.err("expected digit"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if digits(self) == 0 {
                return Err(self.err("expected digit after '.'"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if digits(self) == 0 {
                return Err(self.err("expected digit in exponent"));
            }
        }
        // The slice is all ASCII number syntax, so from_utf8 cannot fail and
        // f64 parsing only fails on overflow, which maps to +-inf (rejected).
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number bytes"))?;
        let n: f64 = text.parse().map_err(|_| self.err("invalid number"))?;
        if !n.is_finite() {
            return Err(self.err("number out of range"));
        }
        Ok(Json::Num(n))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = match b {
                b'0'..=b'9' => (b - b'0') as u32,
                b'a'..=b'f' => (b - b'a' + 10) as u32,
                b'A'..=b'F' => (b - b'A' + 10) as u32,
                _ => return Err(self.err("invalid hex digit in \\u escape")),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = self.peek().ok_or_else(|| self.err("unterminated string"))?;
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let e = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let cp = if (0xD800..0xDC00).contains(&hi) {
                                // High surrogate: a low surrogate must follow.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(cp)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                0x00..=0x1f => return Err(self.err("raw control character in string")),
                _ => {
                    // Copy the run of plain characters up to the next quote,
                    // escape or control byte in one piece: those are ASCII,
                    // so both ends of the run are char boundaries of the
                    // `&str` input, and each byte is looked at once.
                    let start = self.pos;
                    while self
                        .peek()
                        .is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20)
                    {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(run);
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A long string is copied a run at a time — the plain characters
    /// between escapes, multi-byte ones included — in time linear in its
    /// length (it used to revalidate the rest of the input at every
    /// character, so a 1 MiB string took minutes).
    #[test]
    fn long_strings_decode_in_runs() {
        let piece = r"abéc😀\n";
        let v = Json::parse(&format!("\"{}\"", piece.repeat(1 << 16))).expect("parse");
        assert_eq!(v.as_str(), Some("ab\u{e9}c😀\n".repeat(1 << 16).as_str()));
        let raw = format!("\"{}\"", "x".repeat(1 << 20));
        let v = Json::parse(&raw).expect("parse");
        assert_eq!(v.as_str().map(str::len), Some(1 << 20));
    }

    #[test]
    fn malformed_inputs_are_typed_errors_not_panics() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "01x",
            "1.",
            "1e",
            "\"\\u12",
            "\"\\ud800\"",
            "\"abc",
            "{\"a\":1}x",
            "nul",
            "-",
            "[1 2]",
            "{\"a\" 1}",
            "\u{1}",
        ] {
            let err = Json::parse(bad).expect_err(bad);
            assert!(!err.message.is_empty());
            assert!(err.offset <= bad.len());
        }
        // Depth bomb: error, not a stack overflow.
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn numbers_round_cleanly() {
        assert_eq!(Json::parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(Json::parse("-1.5e2").unwrap().as_f64(), Some(-150.0));
        assert_eq!(Json::Num(3.0).to_line(), "3");
        assert_eq!(Json::Num(0.25).to_line(), "0.25");
        assert_eq!(Json::Num(f64::NAN).to_line(), "null");
        // Overflowing literals are rejected, not turned into inf.
        assert!(Json::parse("1e999").is_err());
    }

    #[test]
    fn integers_from_two_to_the_53_on_are_not_integers() {
        let at = |s: &str| Json::parse(s).unwrap().as_u64();
        assert_eq!(at("9007199254740991"), Some(MAX_EXACT_INT));
        // 2^53, and the literals that round onto it or past it
        for s in [
            "9007199254740992",
            "9007199254740993",
            "9007199254740994",
            "1e16",
        ] {
            assert_eq!(at(s), None, "{s}");
        }
    }

    #[test]
    fn pretty_output_indents_and_spells_scalars_as_the_line_form() {
        let v = Json::parse(r#"{"b":[1,0.5,[],{}],"a":{"k":"v\n"},"c":null}"#).unwrap();
        let want = "{\n  \"a\": {\n    \"k\": \"v\\n\"\n  },\n  \"b\": [\n    1,\n    0.5,\n    [],\n    {}\n  ],\n  \"c\": null\n}";
        assert_eq!(v.to_pretty(), want);
    }

    /// The compact form is what journal frames and job fingerprints hash, so
    /// its bytes are pinned: the expected text is the codec's output from
    /// before it moved into this crate.
    #[test]
    fn line_bytes_are_pinned() {
        let v = Json::parse(
            r#"{"id":"job-1","esc":"q\"b\\s\/\n\r\t\u0001\u001F \u00e9 \ud83d\ude00","B":1.0,
                "ints":[0,-0,-7e0,9007199254740991,9007199254740992],
                "floats":[0.1,-2.5e-8,1e21],"flags":[true,false,null],"empty":{"arr":[],"obj":{}}}"#,
        )
        .expect("parse");
        let flags = v.get("flags").and_then(Json::as_arr).expect("array");
        let flags = flags.iter().map(Json::as_bool).collect::<Vec<_>>();
        assert_eq!(flags, [Some(true), Some(false), None]);
        assert_eq!(
            v.to_line(),
            r#"{"B":1,"empty":{"arr":[],"obj":{}},"esc":"q\"b\\s/\n\r\t\u0001\u001f é 😀","flags":[true,false,null],"floats":[0.1,-0.000000025,1000000000000000000000],"id":"job-1","ints":[0,0,-7,9007199254740991,9007199254740992]}"#
        );
    }

    /// SplitMix64: the property tests' seeded generator, local so this crate
    /// keeps no dev-dependencies.
    struct SplitMix(u64);

    impl SplitMix {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }

        /// Quotes, backslashes, control, BMP-edge and non-BMP characters,
        /// letters, and any scalar value.
        fn string(&mut self) -> String {
            let picks = [
                '"', '\\', '/', '\n', '\0', '\u{1f}', '\u{7f}', '\u{ffff}', '😀',
            ];
            (0..self.below(8))
                .filter_map(|_| match self.below(3) {
                    0 => Some(picks[self.below(picks.len() as u64) as usize]),
                    1 => Some((b'a' + self.below(26) as u8) as char),
                    _ => char::from_u32(self.below(0x11_0000) as u32),
                })
                .collect()
        }

        /// A random tree at most `depth` containers deep; half its nodes are
        /// containers until about `budget` nodes are made. Numbers are
        /// integers up to `MAX_EXACT_INT`, subnormals, ±0 and any finite
        /// double.
        fn tree(&mut self, depth: u32, budget: &mut usize) -> Json {
            *budget = budget.saturating_sub(1);
            let sign = if self.below(2) == 0 { 1.0 } else { -1.0 };
            match self.below(if depth == 0 || *budget == 0 { 6 } else { 10 }) {
                0 => Json::Null,
                1 => Json::Bool(sign > 0.0),
                2 => Json::Num(sign * self.below(MAX_EXACT_INT + 1) as f64),
                3 => Json::Num(sign * f64::from_bits(self.below(1 << 52) * self.below(2))),
                4 => Json::Num(
                    Some(f64::from_bits(self.below(u64::MAX)))
                        .filter(|x| x.is_finite())
                        .unwrap_or(sign * 0.0),
                ),
                5 => Json::Str(self.string()),
                6 | 7 => Json::Arr(
                    (0..self.below(5))
                        .map(|_| self.tree(depth - 1, budget))
                        .collect(),
                ),
                _ => Json::Obj(
                    (0..self.below(5))
                        .map(|_| (self.string(), self.tree(depth - 1, budget)))
                        .collect(),
                ),
            }
        }
    }

    #[test]
    fn random_trees_round_trip_through_both_forms() {
        let mut rng = SplitMix(0x5eed_0001);
        for _ in 0..1000 {
            let v = rng.tree(6, &mut 200);
            for text in [v.to_line(), v.to_pretty()] {
                assert_eq!(Json::parse(&text).as_ref(), Ok(&v), "{text}");
            }
        }
    }

    /// Every truncation and single-byte change of a serialized tree parses
    /// or fails with a typed error inside the input; none panics. Changes
    /// that leave invalid UTF-8 are skipped: the parser takes `&str`, and
    /// its callers reject such bytes before it sees them.
    #[test]
    fn truncations_and_byte_flips_are_typed_errors_or_values() {
        let check = |text: &str| {
            if let Err(e) = Json::parse(text) {
                assert!(e.offset <= text.len(), "{e} in {text:?}");
            }
        };
        let mut rng = SplitMix(0x5eed_0002);
        for _ in 0..64 {
            let v = rng.tree(6, &mut 40);
            for text in [v.to_line(), v.to_pretty()] {
                (0..text.len())
                    .filter(|&k| text.is_char_boundary(k))
                    .for_each(|k| check(&text[..k]));
                let mut bytes = text.into_bytes();
                for i in 0..bytes.len() {
                    let was = bytes[i];
                    bytes[i] ^= 1 + rng.below(255) as u8;
                    std::str::from_utf8(&bytes).map(check).ok();
                    bytes[i] = was;
                }
            }
        }
    }
}
