//! The workspace's one JSON codec — std only, no external dependencies.
//!
//! The daemon's NDJSON wire protocol, the JSONL trace sink
//! ([`crate::trace`]) and the trace stitcher ([`crate::timeline`]) all
//! read and write through this module. It supports objects, arrays,
//! strings (with `\uXXXX` escapes and surrogate pairs), integers, floats,
//! booleans and null. Parsing is recursive-descent with a depth cap and
//! runs in time linear in the input; serialization escapes control
//! characters and keeps integral floats below `1e15` distinct from
//! integers (`2.0` vs `2`), so such values round-trip exactly.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// Maximum nesting depth accepted by the parser (the protocol needs 3).
const MAX_DEPTH: usize = 32;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fractional part that fits `i64`.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; `BTreeMap` keeps serialization deterministic.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// The value as `&str`, when it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `u64`, when it is a non-negative integer (or a float
    /// that is exactly a non-negative integer).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::Int(i) => u64::try_from(i).ok(),
            Value::Float(f) if f >= 0.0 && f.fract() == 0.0 && f <= u64::MAX as f64 => {
                Some(f as u64)
            }
            _ => None,
        }
    }

    /// The value as `i64`, when it is an integer (or a float that is
    /// exactly an integer in range).
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Value::Int(i) => Some(i),
            Value::Float(f) if f.fract() == 0.0 && f >= i64::MIN as f64 && f < i64::MAX as f64 => {
                Some(f as i64)
            }
            _ => None,
        }
    }

    /// The value as `f64`, when numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Int(i) => Some(i as f64),
            Value::Float(f) => Some(f),
            _ => None,
        }
    }

    /// The value as `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The value as an object map.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Field lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|o| o.get(key))
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<u64> for Value {
    fn from(u: u64) -> Self {
        i64::try_from(u).map_or(Value::Float(u as f64), Value::Int)
    }
}

impl From<usize> for Value {
    fn from(u: usize) -> Self {
        Value::from(u as u64)
    }
}

impl From<u32> for Value {
    fn from(u: u32) -> Self {
        Value::Int(i64::from(u))
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

/// Convenience builder for object values.
#[derive(Debug, Default)]
pub struct ObjectBuilder(BTreeMap<String, Value>);

impl ObjectBuilder {
    /// An empty object builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a field.
    #[must_use]
    pub fn field(mut self, key: &str, value: impl Into<Value>) -> Self {
        self.0.insert(key.to_string(), value.into());
        self
    }

    /// Finishes into a [`Value::Object`].
    pub fn build(self) -> Value {
        Value::Object(self.0)
    }
}

/// A JSON parse error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset where the error was detected.
    pub at: usize,
    /// What went wrong.
    pub message: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses one complete JSON value; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

/// Recursive-descent state. Outside an error path `pos` only steps over
/// ASCII bytes or whole runs of string content ending before one, so
/// wherever `text` is sliced `pos` sits on a char boundary.
struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &'static str) -> ParseError {
        ParseError {
            at: self.pos,
            message,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8, message: &'static str) -> Result<(), ParseError> {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            self.pos = self.pos.saturating_sub(1);
            Err(self.err(message))
        }
    }

    fn literal(&mut self, lit: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, ParseError> {
        let mut map = BTreeMap::new();
        self.items(b'}', "expected ',' or '}'", |p| {
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':', "expected ':'")?;
            p.skip_ws();
            map.insert(key, p.value(depth + 1)?);
            Ok(())
        })?;
        Ok(Value::Object(map))
    }

    fn array(&mut self, depth: usize) -> Result<Value, ParseError> {
        let mut items = Vec::new();
        self.items(b']', "expected ',' or ']'", |p| {
            items.push(p.value(depth + 1)?);
            Ok(())
        })?;
        Ok(Value::Array(items))
    }

    /// Parses the comma-separated items of the array or object whose
    /// opening bracket is at `pos`, through its `close` bracket.
    fn items(
        &mut self,
        close: u8,
        message: &'static str,
        mut item: impl FnMut(&mut Self) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b) if b == close => return Ok(()),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.err(message));
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            // Copy the run of plain bytes up to the next quote, backslash
            // or control byte in one go: all three are ASCII, so the run
            // ends on a char boundary.
            let run = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let cp = self.hex4()?;
                        let ch = if (0xd800..0xdc00).contains(&cp) {
                            // High surrogate: must be followed by \uDCxx.
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err(self.err("unpaired surrogate"));
                            }
                            let low = self.hex4()?;
                            if !(0xdc00..0xe000).contains(&low) {
                                return Err(self.err("invalid low surrogate"));
                            }
                            let c = 0x10000 + ((cp - 0xd800) << 10) + (low - 0xdc00);
                            char::from_u32(c).ok_or_else(|| self.err("invalid code point"))?
                        } else {
                            char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))?
                        };
                        out.push(ch);
                    }
                    _ => return Err(self.err("invalid escape")),
                },
                Some(_) => return Err(self.err("control character in string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.bump() {
                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                _ => return Err(self.err("invalid \\u escape")),
            };
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = &self.text[start..self.pos];
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| ParseError {
                at: start,
                message: "invalid number",
            })
    }
}

/// Serializes a value to compact JSON (no whitespace, sorted object keys).
pub fn to_string(value: &Value) -> String {
    let mut out = String::new();
    write(value, &mut out);
    out
}

/// Appends the compact JSON of `value` to `out` — what [`to_string`]
/// returns, without a fresh allocation per value.
pub fn write(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::Float(f) => {
            if f.is_finite() {
                // Keep integer-valued floats distinguishable from ints so
                // parse(to_string(v)) round-trips estimator values exactly.
                if f.fract() == 0.0 && f.abs() < 1e15 {
                    let _ = write!(out, "{f:.1}");
                } else {
                    let _ = write!(out, "{f}");
                }
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_str(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write(item, out);
            }
            out.push(']');
        }
        Value::Object(map) => {
            out.push('{');
            for (i, (k, v)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_str(k, out);
                out.push(':');
                write(v, out);
            }
            out.push('}');
        }
    }
}

/// Appends `s` as a quoted, escaped JSON string. The trace sink writes
/// its keys through this, so the workspace has one string escaper.
pub(crate) fn write_str(s: &str, out: &mut String) {
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
    fn parses_protocol_shapes() {
        let v = parse(r#"{"op":"solve","k":5,"algo":"maf","seed":42,"epsilon":0.2}"#).unwrap();
        assert_eq!(v.get("op").unwrap().as_str(), Some("solve"));
        assert_eq!(v.get("k").unwrap().as_u64(), Some(5));
        assert_eq!(v.get("epsilon").unwrap().as_f64(), Some(0.2));
        let v = parse(r#"{"op":"estimate","seeds":[1,2,3]}"#).unwrap();
        let seeds: Vec<u64> = v
            .get("seeds")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|s| s.as_u64().unwrap())
            .collect();
        assert_eq!(seeds, vec![1, 2, 3]);
    }

    #[test]
    fn round_trips_values() {
        for text in [
            r#"{"a":1,"b":[true,false,null],"c":"x\"y\\z","d":-2.5}"#,
            r#"[]"#,
            r#"{}"#,
            r#"{"nested":{"deep":{"n":1e3}}}"#,
        ] {
            let v = parse(text).unwrap();
            let v2 = parse(&to_string(&v)).unwrap();
            assert_eq!(v, v2, "{text}");
        }
    }

    #[test]
    fn escapes_and_unicode() {
        let v = parse(r#""tab\t nl\n ué pair😀""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "tab\t nl\n u\u{e9} pair\u{1f600}");
        let reparsed = parse(&to_string(&v)).unwrap();
        assert_eq!(v, reparsed);
    }

    #[test]
    fn integer_float_distinction() {
        assert_eq!(parse("5").unwrap(), Value::Int(5));
        assert_eq!(parse("5.0").unwrap(), Value::Float(5.0));
        assert_eq!(parse("-3").unwrap(), Value::Int(-3));
        assert_eq!(to_string(&Value::Float(4.0)), "4.0");
        assert_eq!(to_string(&Value::Int(4)), "4");
        assert_eq!(Value::Float(4.0).as_u64(), Some(4));
        assert_eq!(Value::Int(-1).as_u64(), None);
    }

    #[test]
    fn rejects_malformed_inputs() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            r#"{"a"}"#,
            r#"{"a":}"#,
            "tru",
            "01x",
            r#""unterminated"#,
            "{} trailing",
            r#""bad \q escape""#,
            "\u{1}",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn depth_cap_holds() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(10) + &"]".repeat(10);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn object_builder_and_froms() {
        let v = ObjectBuilder::new()
            .field("ok", true)
            .field("n", 3u64)
            .field("name", "imc")
            .field("xs", vec![1u32, 2])
            .build();
        assert_eq!(
            to_string(&v),
            r#"{"n":3,"name":"imc","ok":true,"xs":[1,2]}"#
        );
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        assert_eq!(to_string(&Value::Float(f64::NAN)), "null");
        assert_eq!(to_string(&Value::Float(f64::INFINITY)), "null");
    }

    #[test]
    fn trace_lines_decode_to_scalar_objects() {
        let v = parse(
            r#"{"ts_us":17,"kind":"span","ok":true,"off":-4,"x":0.5,"nil":null,"s":"a\"b\\c\nd"}"#,
        )
        .expect("parses");
        assert_eq!(v.get("ts_us").and_then(Value::as_i64), Some(17));
        assert_eq!(v.get("kind").and_then(Value::as_str), Some("span"));
        assert_eq!(v.get("off").and_then(Value::as_i64), Some(-4));
        assert_eq!(v.get("x").and_then(Value::as_f64), Some(0.5));
        assert_eq!(v.get("x").and_then(Value::as_i64), None);
        assert_eq!(v.get("nil"), Some(&Value::Null));
        assert_eq!(v.get("s").and_then(Value::as_str), Some("a\"b\\c\nd"));
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(parse("{}"), Ok(Value::Object(BTreeMap::new())));
        // The tracer spells integral floats `2.0`; integer readers still
        // take them.
        assert_eq!(parse("2.0").unwrap().as_i64(), Some(2));
    }

    #[test]
    fn torn_trace_lines_are_errors() {
        for torn in [
            r#"{"a":1"#,
            r#"{"a":"unterminat"#,
            "",
            r#"{"a":1} trailing"#,
        ] {
            assert!(parse(torn).is_err(), "accepted {torn:?}");
        }
        // Nested values are JSON; the stitcher's scalar-only rule is what
        // refuses these lines.
        for nested in [r#"{"a":{"b":1}}"#, r#"{"a":[1,2]}"#] {
            let v = parse(nested).expect("valid JSON");
            assert!(matches!(
                v.get("a"),
                Some(Value::Object(_) | Value::Array(_))
            ));
        }
    }
}
