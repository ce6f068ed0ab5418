//! A minimal JSON reader/writer — just enough for `BENCH_*.json`
//! snapshots, with no external dependencies.
//!
//! The writer lives in [`crate::snapshot`]; this module parses a JSON
//! document into a [`JsonValue`] tree. Numbers are kept as `f64` when
//! fractional and `u64`/`i64` when integral so metric values round-trip
//! exactly.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Integral number that fits an unsigned 64-bit value.
    UInt(u64),
    /// Negative integral number.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// String (escapes decoded).
    Str(String),
    /// Array.
    Array(Vec<JsonValue>),
    /// Object with key order normalized (BTreeMap).
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// The value as u64 if it is an integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::UInt(v) => Some(*v),
            JsonValue::Int(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as i64 if it is an integral number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::UInt(v) => i64::try_from(*v).ok(),
            JsonValue::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as f64 if it is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::UInt(v) => Some(*v as f64),
            JsonValue::Int(v) => Some(*v as f64),
            JsonValue::Float(v) => Some(*v),
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

    /// The value as an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Object(m) => Some(m),
            _ => None,
        }
    }

    /// The value as an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_object().and_then(|m| m.get(key))
    }
}

/// A parse failure with byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What was wrong.
    pub message: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Deepest array/object nesting [`parse`] accepts. The documents the
/// workspace writes (snapshots, telemetry rings, flight dumps) nest at
/// most five levels; the limit bounds the parser's recursion, so hostile
/// input gets an error instead of overflowing the stack.
const MAX_DEPTH: usize = 128;

/// Parses one JSON document (trailing whitespace allowed, nothing else).
///
/// Arrays and objects nested deeper than 128 levels are rejected.
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &'static str) -> JsonError {
        JsonError {
            offset: self.pos,
            message,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err("unexpected character"))
        }
    }

    fn literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err("nesting too deep"));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(out));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("bad unicode escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("bad unicode escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad unicode escape"))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("bad unicode escape"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Copy the run up to the next quote or escape. Both are
                    // ASCII, so the run ends on a char boundary, and only
                    // the run is validated: a long string costs linear time.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(run);
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut fractional = false;
        if self.peek() == Some(b'.') {
            fractional = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            fractional = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !fractional {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(JsonValue::UInt(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(JsonValue::Int(v));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Float)
            .map_err(|_| self.err("invalid number"))
    }
}

/// Escapes a string for embedding in JSON output.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("42").unwrap(), JsonValue::UInt(42));
        assert_eq!(parse("-3").unwrap(), JsonValue::Int(-3));
        assert_eq!(parse("1.5").unwrap(), JsonValue::Float(1.5));
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(
            parse("\"a\\nb\"").unwrap(),
            JsonValue::Str("a\nb".to_owned())
        );
        assert_eq!(
            parse("\"p99 → 50 µs\"").unwrap(),
            JsonValue::Str("p99 → 50 µs".to_owned())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, 2, {"b": "x"}], "c": -1}"#).unwrap();
        assert_eq!(v.get("c").unwrap().as_i64(), Some(-1));
        let arr = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[2].get("b").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("123 456").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn escape_round_trips() {
        let original = "he said \"hi\"\n\tdone\\";
        let parsed = parse(&format!("\"{}\"", escape(original))).unwrap();
        assert_eq!(parsed.as_str(), Some(original));
    }

    #[test]
    fn large_u64_survives() {
        let v = parse(&u64::MAX.to_string()).unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        for doc in ["[".repeat(1_000_000), "{\"a\":".repeat(1_000_000)] {
            assert_eq!(parse(&doc).map_err(|e| e.message), Err("nesting too deep"));
            assert!(crate::MetricsSnapshot::from_json(&doc).is_err());
            assert!(crate::TelemetryRing::from_json(&doc).is_err());
        }
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert!(parse(&nested(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn unicode_escape() {
        assert_eq!(
            parse("\"\\u0041\"").unwrap(),
            JsonValue::Str("A".to_owned())
        );
    }
}
