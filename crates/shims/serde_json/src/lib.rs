//! Offline shim for the `serde_json` API surface this workspace uses:
//! `to_string`, `to_string_pretty`, `from_str`, and a [`Value`] re-export.
//! Serialization lowers through the shim serde's `Value` tree; parsing is a
//! small recursive-descent JSON reader.

use std::fmt;

pub use serde::Value;
use serde::{DeError, Deserialize, Serialize};

/// serde_json-compatible error type (Display + std::error::Error).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    message: String,
}

impl Error {
    fn new(message: impl Into<String>) -> Self {
        Error { message: message.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error::new(e.to_string())
    }
}

pub type Result<T> = std::result::Result<T, Error>;

/// Serialize `value` as a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serialize `value` as pretty-printed JSON (two-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Deserialize an instance of `T` from a JSON string.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    let value = parse_value(s)?;
    Ok(T::from_value(&value)?)
}

/// Parse arbitrary JSON text into a [`Value`].
pub fn parse_value(s: &str) -> Result<Value> {
    let mut p = Parser { bytes: s.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

// ---------------------------------------------------------------- writer

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::UInt(n) => {
            let _ = fmt::Write::write_fmt(out, format_args!("{n}"));
        }
        Value::Int(n) => {
            let _ = fmt::Write::write_fmt(out, format_args!("{n}"));
        }
        Value::BigUint(n) => {
            let _ = fmt::Write::write_fmt(out, format_args!("{n}"));
        }
        Value::Float(f) => write_float(out, *f),
        Value::Str(s) => write_json_string(out, s),
        Value::Seq(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Map(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_json_string(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

fn write_float(out: &mut String, f: f64) {
    if !f.is_finite() {
        // serde_json refuses non-finite floats; encode as null like its
        // Value serializer does.
        out.push_str("null");
        return;
    }
    let text = format!("{f}");
    out.push_str(&text);
    // Ensure the token re-parses as a float, not an integer.
    if !text.contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------- parser

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
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

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
            Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(Error::new(format!(
                "unexpected `{}` at byte {}",
                b as char, self.pos
            ))),
            None => Err(Error::new("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                _ => return Err(Error::new(format!("expected `,` or `]` at byte {}", self.pos))),
            }
        }
    }

    fn object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                _ => return Err(Error::new(format!("expected `,` or `}}` at byte {}", self.pos))),
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error::new("unterminated string")),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let start = self.pos + 1;
                            let hex = self
                                .bytes
                                .get(start..start + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| Error::new("bad \\u escape"))?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| Error::new("bad \\u escape"))?;
                            // Surrogate pairs are not produced by our writer;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(Error::new("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(lead) => {
                    // Advance over one UTF-8 scalar: its width comes from
                    // the lead byte, and validating just those bytes still
                    // rejects a truncated or malformed sequence — without
                    // re-validating the whole remaining input per character.
                    let width = match lead {
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        0xf0..=0xf7 => 4,
                        _ => 1,
                    };
                    let scalar = self
                        .bytes
                        .get(self.pos..self.pos + width)
                        .and_then(|b| std::str::from_utf8(b).ok())
                        .ok_or_else(|| Error::new("invalid utf-8"))?;
                    out.push_str(scalar);
                    self.pos += width;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("invalid number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error::new(format!("invalid number `{text}`")))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|_| Error::new(format!("invalid number `{text}`")))
        } else if let Ok(n) = text.parse::<u64>() {
            Ok(Value::UInt(n))
        } else {
            text.parse::<u128>()
                .map(Value::BigUint)
                .map_err(|_| Error::new(format!("invalid number `{text}`")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    pub struct Inner(pub u64);

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    pub enum Mode {
        Plain,
        Mixed { pct: u8 },
        Pair(u32, u32),
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    pub struct Outer {
        pub name: String,
        pub id: Inner,
        pub mode: Mode,
        pub modes: Vec<Mode>,
        pub opt: Option<f64>,
        pub missing: Option<u64>,
        pub big: u128,
        pub region: Option<(u64, u64)>,
    }

    #[test]
    fn derive_roundtrip() {
        let v = Outer {
            name: "job \"q\"\n".to_string(),
            id: Inner(42),
            mode: Mode::Mixed { pct: 70 },
            modes: vec![Mode::Plain, Mode::Pair(1, 2)],
            opt: Some(2.5),
            missing: None,
            big: u128::MAX - 7,
            region: Some((8, 16)),
        };
        let json = to_string(&v).unwrap();
        let back: Outer = from_str(&json).unwrap();
        assert_eq!(back, v);
        let pretty = to_string_pretty(&v).unwrap();
        let back2: Outer = from_str(&pretty).unwrap();
        assert_eq!(back2, v);
    }

    #[test]
    fn unit_variant_encoding_matches_serde_json() {
        assert_eq!(to_string(&Mode::Plain).unwrap(), "\"Plain\"");
        assert_eq!(to_string(&Mode::Mixed { pct: 3 }).unwrap(), "{\"Mixed\":{\"pct\":3}}");
        assert_eq!(to_string(&Inner(7)).unwrap(), "7");
    }

    #[test]
    fn float_tokens_reparse_as_floats() {
        let json = to_string(&1.0f64).unwrap();
        assert_eq!(json, "1.0");
        let v: f64 = from_str(&json).unwrap();
        assert_eq!(v, 1.0);
    }

    #[test]
    fn megabyte_multibyte_string_roundtrips() {
        // Quadratic in the input when every character re-validated the
        // whole remainder; linear now.
        let unit = "π≈3.14159 — 東京 🚀 ";
        let big = unit.repeat((1 << 20) / unit.len() + 1);
        assert!(big.len() >= 1 << 20);
        let json = to_string(&big).unwrap();
        let back: String = from_str(&json).unwrap();
        assert_eq!(back, big);
    }

    #[test]
    fn truncated_multibyte_sequence_is_an_error() {
        // `€` is e2 82 ac: cut after two bytes, before the closing quote
        // and at end of input; and a bare continuation byte.
        for bytes in [&b"\"\xe2\x82\""[..], b"\"\xe2\x82", b"\"\x82\""] {
            let mut p = Parser { bytes, pos: 0 };
            assert!(p.string().is_err(), "{bytes:?}");
        }
        let mut ok = Parser { bytes: "\"€\"".as_bytes(), pos: 0 };
        assert_eq!(ok.string().unwrap(), "€");
    }

    #[test]
    fn parses_ws_and_nested(){
        let v = parse_value(" { \"a\" : [ 1 , -2 , 3.5 , null , true ] } ").unwrap();
        match v {
            Value::Map(entries) => {
                assert_eq!(entries.len(), 1);
                let seq = entries[0].1.as_seq().unwrap();
                assert_eq!(seq[0], Value::UInt(1));
                assert_eq!(seq[1], Value::Int(-2));
                assert_eq!(seq[2], Value::Float(3.5));
                assert_eq!(seq[3], Value::Null);
                assert_eq!(seq[4], Value::Bool(true));
            }
            other => panic!("wrong shape: {other:?}"),
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(from_str::<u64>("1 x").is_err());
    }
}
