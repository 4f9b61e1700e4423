//! Minimal JSON tree: build, parse, query and emit.
//!
//! This is the workspace's one JSON implementation. Campaign reports,
//! `/metrics`, the coordinator protocol, the CLI's result lines and the
//! bench files are all built as a [`JsonValue`] and rendered by its
//! `Display`; the CI gates (`fitact diff-report`, `fitact bench-gate`) and
//! the servers read documents back with [`JsonValue::parse`]. The build
//! environment is offline (no serde), and the module lives in the leaf
//! crate so every other crate can reach it.
//!
//! Values are built with [`JsonValue::object`] plus `From` conversions for
//! the scalar types the emitters use. Numbers are carried as `f64`: `f32`
//! values are widened exactly, integers are exact up to 2^53, and
//! non-finite floats — illegal in JSON — become `null` at construction.
//! Emission uses Rust's shortest round-trip float formatting, so a number
//! survives an emit → parse cycle bit-exactly.
//!
//! The parser accepts standard JSON (RFC 8259), including `\uXXXX` escapes
//! and surrogate pairs, and nothing else: numbers follow the §6 grammar and
//! must fit in an `f64`, and strings may not hold raw control characters.
//! It runs in time linear in its input and bounds nesting depth, because
//! `fitact serve` feeds untrusted request bodies through it.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, preserving key order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Builds an object from `(key, value)` pairs, keeping their order.
    ///
    /// ```
    /// use fitact_tensor::json::JsonValue;
    ///
    /// let doc = JsonValue::object([("n", 3usize.into()), ("x", f32::NAN.into())]);
    /// assert_eq!(doc.to_string(), r#"{"n":3,"x":null}"#);
    /// ```
    pub fn object<K: Into<String>>(entries: impl IntoIterator<Item = (K, JsonValue)>) -> JsonValue {
        JsonValue::Object(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first syntax error, with
    /// its byte offset.
    pub fn parse(input: &str) -> Result<JsonValue, String> {
        let mut p = Parser {
            text: input,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != input.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Looks up a key of an object (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Descends through a chain of object keys.
    pub fn path(&self, keys: &[&str]) -> Option<&JsonValue> {
        let mut current = self;
        for key in keys {
            current = current.get(key)?;
        }
        Some(current)
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }
}

impl From<f64> for JsonValue {
    /// A number, or `null` for NaN and infinities.
    fn from(v: f64) -> Self {
        if v.is_finite() {
            JsonValue::Number(v)
        } else {
            JsonValue::Null
        }
    }
}

impl From<f32> for JsonValue {
    /// Widened to `f64` exactly; NaN and infinities become `null`.
    fn from(v: f32) -> Self {
        f64::from(v).into()
    }
}

macro_rules! from_integer {
    ($($t:ty),*) => {$(
        impl From<$t> for JsonValue {
            fn from(v: $t) -> Self {
                JsonValue::Number(v as f64)
            }
        }
    )*};
}
from_integer!(u32, u64, usize);

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}

impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::String(v.to_owned())
    }
}

impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::String(v)
    }
}

impl<T: Into<JsonValue>> From<Option<T>> for JsonValue {
    /// The inner value, or `null` for `None`.
    fn from(v: Option<T>) -> Self {
        v.map_or(JsonValue::Null, Into::into)
    }
}

impl<T: Into<JsonValue>> From<Vec<T>> for JsonValue {
    fn from(items: Vec<T>) -> Self {
        JsonValue::Array(items.into_iter().map(Into::into).collect())
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => f.write_str("null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::Number(v) if v.is_finite() => write!(f, "{v}"),
            JsonValue::Number(_) => f.write_str("null"),
            JsonValue::String(s) => f.write_str(&escape_json_string(s)),
            JsonValue::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            JsonValue::Object(entries) => {
                f.write_str("{")?;
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{}:{v}", escape_json_string(k))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Escapes and quotes a string for JSON output.
pub fn escape_json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Maximum container nesting the parser accepts. The recursive-descent
/// `value → array/object → value` cycle consumes stack per level, and parse
/// input is not always trusted (`fitact serve` feeds request bodies here),
/// so depth must be bounded the same way the artifact decoder bounds its
/// spec tree — a typed error, never a stack overflow.
const MAX_JSON_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn bytes(&self) -> &[u8] {
        self.text.as_bytes()
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes().get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", char::from(b), self.pos))
        }
    }

    fn literal(&mut self, lit: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth >= MAX_JSON_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_JSON_DEPTH} at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let value = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(entries));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // character in one step. All are ASCII, which never occurs
            // inside a multi-byte UTF-8 sequence, so the run ends on a
            // character boundary.
            let rest = &self.text[self.pos..];
            let run = rest
                .bytes()
                .position(|b| b == b'"' || b == b'\\' || b < 0x20)
                .ok_or("unterminated string")?;
            out.push_str(&rest[..run]);
            self.pos += run + 1;
            match rest.as_bytes()[run] {
                b'"' => return Ok(out),
                b'\\' => {}
                _ => {
                    return Err(format!(
                        "unescaped control character in string at byte {}",
                        self.pos - 1
                    ))
                }
            }
            let escape = self.peek().ok_or("unterminated string")?;
            self.pos += 1;
            match escape {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'u' => out.push(self.unicode_escape()?),
                _ => return Err(format!("invalid escape at byte {}", self.pos - 1)),
            }
        }
    }

    /// Decodes the `XXXX` of a `\uXXXX` escape, joining a UTF-16 surrogate
    /// pair written as two escapes (RFC 8259 §7). A lone surrogate is an
    /// error.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let start = self.pos;
        let unpaired = || format!("unpaired surrogate in \\u escape at byte {start}");
        let code = match self.hex4()? {
            high @ 0xD800..=0xDBFF => {
                if !self.bytes()[self.pos..].starts_with(b"\\u") {
                    return Err(unpaired());
                }
                self.pos += 2;
                let low = self.hex4()?;
                if !(0xDC00..=0xDFFF).contains(&low) {
                    return Err(unpaired());
                }
                0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
            }
            0xDC00..=0xDFFF => return Err(unpaired()),
            code => code,
        };
        char::from_u32(code).ok_or_else(|| format!("invalid \\u code point at byte {start}"))
    }

    /// Four hex digits, exactly: no sign, no shorter run.
    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .bytes()
            .get(self.pos..self.pos + 4)
            .ok_or("truncated \\u escape")?;
        let mut code = 0;
        for &b in digits {
            let digit = char::from(b)
                .to_digit(16)
                .ok_or_else(|| format!("invalid \\u escape at byte {}", self.pos))?;
            code = code * 16 + digit;
        }
        self.pos += 4;
        Ok(code)
    }

    /// A number by the RFC 8259 §6 grammar
    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`; a value
    /// outside the `f64` range is an error, not an infinity.
    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        let invalid = |pos: usize| format!("invalid number at byte {pos}");
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return Err(invalid(self.pos)),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(invalid(self.pos));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(invalid(self.pos));
            }
        }
        let text = &self.text[start..self.pos];
        match text.parse::<f64>() {
            Ok(value) if value.is_finite() => Ok(JsonValue::Number(value)),
            _ => Err(format!("number `{text}` at byte {start} is out of range")),
        }
    }

    /// Skips a run of ASCII digits and returns its length.
    fn digits(&mut self) -> usize {
        let from = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - from
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn parse_emit_round_trip() {
        let doc = r#"{"a": 1.5, "b": [true, false, null], "s": "x\"y\n", "nested": {"k": -3e-2}}"#;
        let value = JsonValue::parse(doc).unwrap();
        assert_eq!(value.path(&["nested", "k"]).unwrap().as_f64(), Some(-0.03));
        assert_eq!(value.get("s").unwrap().as_str(), Some("x\"y\n"));
        assert_eq!(value.get("b").unwrap().as_array().unwrap().len(), 3);
        // Emit → parse is stable.
        let emitted = value.to_string();
        assert_eq!(JsonValue::parse(&emitted).unwrap(), value);
    }

    #[test]
    fn numbers_survive_shortest_roundtrip_formatting() {
        for v in [0.123456789012345_f64, 4.871, 1e-6, -0.0, 1.0 / 3.0] {
            let text = JsonValue::from(v).to_string();
            let parsed = JsonValue::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(parsed.to_bits(), v.to_bits(), "{v}");
        }
    }

    #[test]
    fn builder_widens_f32_and_nulls_non_finite_values() {
        assert_eq!(JsonValue::from(0.1f32).to_string(), "0.10000000149011612");
        assert_eq!(JsonValue::from(4.871f64).to_string(), "4.871");
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(JsonValue::from(v), JsonValue::Null);
            assert_eq!(JsonValue::from(v as f32), JsonValue::Null);
        }
        // A hand-built non-finite number still emits valid JSON.
        assert_eq!(JsonValue::Number(f64::NAN).to_string(), "null");
        assert_eq!(
            JsonValue::from(u64::from(u32::MAX)).to_string(),
            "4294967295"
        );
        assert_eq!(JsonValue::from(None::<f64>), JsonValue::Null);
        let doc = JsonValue::object([
            ("z", "last".into()),
            ("a", vec![1usize, 2].into()),
            ("t", true.into()),
        ]);
        assert_eq!(doc.to_string(), r#"{"z":"last","a":[1,2],"t":true}"#);
    }

    #[test]
    fn syntax_errors_are_reported() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "tru", "\"unterminated", "1..2"] {
            assert!(JsonValue::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn leading_zeros_are_rejected() {
        assert!(JsonValue::parse("01").is_err());
        assert!(JsonValue::parse("[-01]").is_err());
    }

    #[test]
    fn a_fraction_needs_digits_after_the_point() {
        assert!(JsonValue::parse("1.").is_err());
        assert!(JsonValue::parse("[1.]").is_err());
    }

    #[test]
    fn a_fraction_needs_an_integer_part() {
        assert!(JsonValue::parse("-.5").is_err());
        assert!(JsonValue::parse(".5").is_err());
    }

    #[test]
    fn a_point_before_an_exponent_needs_digits() {
        assert!(JsonValue::parse("1.e3").is_err());
        assert!(JsonValue::parse("1e").is_err());
        assert!(JsonValue::parse("1e+").is_err());
    }

    #[test]
    fn numbers_outside_the_f64_range_are_rejected() {
        for bad in ["1e400", "-1e400", "[1e309]"] {
            let err = JsonValue::parse(bad).unwrap_err();
            assert!(err.contains("out of range"), "{bad}: {err}");
        }
        // The largest finite value and an underflow to zero still parse.
        assert_eq!(
            JsonValue::parse("1.7976931348623157e308").unwrap(),
            JsonValue::Number(f64::MAX)
        );
        assert_eq!(JsonValue::parse("1e-400").unwrap(), JsonValue::Number(0.0));
    }

    #[test]
    fn raw_control_characters_in_strings_are_rejected() {
        for bad in [
            "\"a\u{0}b\"",
            "\"tab\there\"",
            "\"line\nbreak\"",
            "{\"k\u{1f}\":1}",
        ] {
            let err = JsonValue::parse(bad).unwrap_err();
            assert!(err.contains("control character"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn rfc_8259_numbers_parse() {
        for (text, value) in [
            ("0", 0.0),
            ("-0", -0.0),
            ("10", 10.0),
            ("0.5", 0.5),
            ("-12.25e-1", -1.225),
            ("1E2", 100.0),
            ("2e+2", 200.0),
        ] {
            let parsed = JsonValue::parse(text).unwrap().as_f64().unwrap();
            assert_eq!(parsed.to_bits(), f64::to_bits(value), "{text}");
        }
    }

    #[test]
    fn hostile_nesting_is_a_typed_error_not_a_stack_overflow() {
        // Depth just under the cap parses; just past it fails cleanly.
        let ok = format!(
            "{}0{}",
            "[".repeat(MAX_JSON_DEPTH),
            "]".repeat(MAX_JSON_DEPTH)
        );
        assert!(JsonValue::parse(&ok).is_ok());
        let deep = format!(
            "{}0{}",
            "[".repeat(MAX_JSON_DEPTH + 1),
            "]".repeat(MAX_JSON_DEPTH + 1)
        );
        let err = JsonValue::parse(&deep).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        // A network-scale bracket bomb (the /predict attack shape) must
        // error, not blow the connection thread's stack.
        let bomb = "[".repeat(200_000);
        assert!(JsonValue::parse(&bomb).is_err());
        let object_bomb = "{\"k\":".repeat(200_000);
        assert!(JsonValue::parse(&object_bomb).is_err());
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // A scan that re-validates the rest of the input per character is
        // quadratic and takes tens of seconds on this input.
        let body = format!("\"{}é\\n\"", "x".repeat(1 << 20));
        let start = std::time::Instant::now();
        let value = JsonValue::parse(&body).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(value.as_str().unwrap().len(), (1 << 20) + 3);
        assert!(elapsed.as_secs_f64() < 2.0, "1 MiB string took {elapsed:?}");
    }

    #[test]
    fn unicode_escape_and_control_escaping() {
        let value = JsonValue::parse(r#""éA""#).unwrap();
        assert_eq!(value.as_str(), Some("éA"));
        let emitted = JsonValue::String("a\u{1}b".into()).to_string();
        assert_eq!(emitted, "\"a\\u0001b\"");
        assert_eq!(
            JsonValue::parse(&emitted).unwrap().as_str(),
            Some("a\u{1}b")
        );
    }

    #[test]
    fn surrogate_pairs_decode() {
        let value = JsonValue::parse(r#""\ud83d\ude00 \uD834\uDD1E""#).unwrap();
        assert_eq!(value.as_str(), Some("\u{1F600} \u{1D11E}"));
    }

    #[test]
    fn lone_surrogates_are_rejected() {
        for bad in [
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ud83dA""#,
            r#""\ud83d\ud83d""#,
            r#""\ude00""#,
            r#""\ude00\ud83d""#,
        ] {
            let err = JsonValue::parse(bad).unwrap_err();
            assert!(err.contains("surrogate"), "{bad}: {err}");
        }
    }

    #[test]
    fn signs_and_short_runs_in_unicode_escapes_are_rejected() {
        for bad in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u 041""#,
            r#""\u04""#,
            r#""\u""#,
        ] {
            assert!(JsonValue::parse(bad).is_err(), "{bad}");
        }
    }

    /// A random tree: every variant, nested up to `depth`, with strings
    /// drawn from quotes, backslashes, control, multi-byte and astral
    /// characters and numbers from arbitrary bit patterns.
    fn random_tree(rng: &mut StdRng, depth: usize) -> JsonValue {
        let leaf_only = depth == 0;
        match rng.gen_range(0..if leaf_only { 4 } else { 6 }) {
            0 => JsonValue::Null,
            1 => rng.gen::<bool>().into(),
            2 => f64::from_bits(rng.gen::<u64>()).into(),
            3 => random_string(rng).into(),
            4 => (0..rng.gen_range(0..4))
                .map(|_| random_tree(rng, depth - 1))
                .collect::<Vec<_>>()
                .into(),
            _ => JsonValue::object(
                (0..rng.gen_range(0..4))
                    .map(|_| (random_string(rng), random_tree(rng, depth - 1)))
                    .collect::<Vec<_>>(),
            ),
        }
    }

    fn random_string(rng: &mut StdRng) -> String {
        const ALPHABET: [char; 10] = ['a', '"', '\\', '/', '\n', '\u{1}', '\u{7f}', 'é', '€', '😀'];
        (0..rng.gen_range(0..6))
            .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn emit_then_parse_is_the_identity(seed in any::<u64>()) {
            let tree = random_tree(&mut StdRng::seed_from_u64(seed), 4);
            let text = tree.to_string();
            prop_assert_eq!(JsonValue::parse(&text), Ok(tree));
        }
    }
}
