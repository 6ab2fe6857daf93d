//! Offline stand-in for the [`serde_json`](https://crates.io/crates/serde_json)
//! crate: JSON text for the shim `serde::Value` data model.
//!
//! Provides exactly the entry points the workspace uses — [`to_string`],
//! [`to_string_pretty`] and [`from_str`] — over a strict recursive-descent
//! parser and an escaping printer. Numbers are emitted so that a round trip
//! preserves `u64` exactly (no silent float conversion) and floats keep full
//! `f64` precision via the shortest-representation formatter.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use serde::{Error, Number, Value};

/// Serializes a value to compact JSON text.
///
/// # Errors
///
/// Returns [`Error`] when the value contains a non-finite float (JSON has no
/// representation for `NaN`/`±∞`).
pub fn to_string<T: serde::Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0)?;
    Ok(out)
}

/// Serializes a value to human-readable, two-space-indented JSON text.
///
/// # Errors
///
/// Same conditions as [`to_string`].
pub fn to_string_pretty<T: serde::Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0)?;
    Ok(out)
}

/// Parses JSON text and deserializes it into `T`.
///
/// # Errors
///
/// Returns [`Error`] on malformed JSON or when the parsed value does not have
/// the shape `T` expects.
pub fn from_str<T: serde::Deserialize>(text: &str) -> Result<T, Error> {
    let value = parse_value_str(text)?;
    T::from_value(&value)
}

// ---------------------------------------------------------------------------
// Printer.
// ---------------------------------------------------------------------------

fn write_value(
    out: &mut String,
    value: &Value,
    indent: Option<usize>,
    depth: usize,
) -> Result<(), Error> {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(Number::UInt(v)) => out.push_str(&v.to_string()),
        Value::Number(Number::Int(v)) => out.push_str(&v.to_string()),
        Value::Number(Number::Float(v)) => {
            if !v.is_finite() {
                return Err(Error::custom(format!("cannot serialize {v} as JSON")));
            }
            let text = v.to_string();
            out.push_str(&text);
            // Keep a float marker so the round trip stays a float.
            if !text.contains(['.', 'e', 'E']) {
                out.push_str(".0");
            }
        }
        Value::String(s) => write_string(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1)?;
            }
            if !items.is_empty() {
                newline_indent(out, indent, depth);
            }
            out.push(']');
        }
        Value::Object(fields) => {
            out.push('{');
            for (i, (key, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_string(out, key);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, depth + 1)?;
            }
            if !fields.is_empty() {
                newline_indent(out, indent, depth);
            }
            out.push('}');
        }
    }
    Ok(())
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width * depth));
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Parser.
// ---------------------------------------------------------------------------

struct Parser<'a> {
    /// The input; valid UTF-8, so a cut before an ASCII byte falls on a
    /// character boundary.
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

fn parse_value_str(text: &str) -> Result<Value, Error> {
    let mut parser = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = parser.value()?;
    parser.skip_whitespace();
    if parser.pos != parser.bytes.len() {
        return Err(Error::custom(format!(
            "trailing characters at byte {}",
            parser.pos
        )));
    }
    Ok(value)
}

impl<'a> Parser<'a> {
    fn skip_whitespace(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Result<u8, Error> {
        self.skip_whitespace();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| Error::custom("unexpected end of JSON"))
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::custom(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn consume_literal(&mut self, literal: &str) -> bool {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Value::String(self.string()?)),
            b't' if self.consume_literal("true") => Ok(Value::Bool(true)),
            b'f' if self.consume_literal("false") => Ok(Value::Bool(false)),
            b'n' if self.consume_literal("null") => Ok(Value::Null),
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(Error::custom(format!(
                "unexpected character `{}` at byte {}",
                other as char, self.pos
            ))),
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                other => {
                    return Err(Error::custom(format!(
                        "expected `,` or `}}` in object, got `{}`",
                        other as char
                    )))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                other => {
                    return Err(Error::custom(format!(
                        "expected `,` or `]` in array, got `{}`",
                        other as char
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.bytes[self.pos..];
            let Some(&b) = rest.first() else {
                return Err(Error::custom("unterminated string"));
            };
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    let escape = *rest
                        .get(1)
                        .ok_or_else(|| Error::custom("unterminated escape"))?;
                    self.pos += 2;
                    match escape {
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
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| Error::custom("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| Error::custom("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error::custom("invalid \\u escape"))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::custom("invalid unicode escape"))?,
                            );
                        }
                        other => {
                            return Err(Error::custom(format!(
                                "unknown escape `\\{}`",
                                other as char
                            )))
                        }
                    }
                }
                _ => {
                    // Copy the run up to the next quote or backslash at once.
                    let run = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    out.push_str(&self.text[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
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
            .map_err(|_| Error::custom("invalid number"))?;
        if is_float {
            text.parse::<f64>()
                .map(|v| Value::Number(Number::Float(v)))
                .map_err(|_| Error::custom(format!("invalid number `{text}`")))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(|v| Value::Number(Number::Int(v)))
                .map_err(|_| Error::custom(format!("invalid number `{text}`")))
        } else {
            text.parse::<u64>()
                .map(|v| Value::Number(Number::UInt(v)))
                .map_err(|_| Error::custom(format!("invalid number `{text}`")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        assert_eq!(to_string(&42u64).unwrap(), "42");
        assert_eq!(from_str::<u64>("42").unwrap(), 42);
        assert_eq!(to_string(&-3i64).unwrap(), "-3");
        assert_eq!(from_str::<i64>("-3").unwrap(), -3);
        assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
        assert_eq!(from_str::<f64>("1.5").unwrap(), 1.5);
        // Whole floats keep a float marker.
        assert_eq!(to_string(&2.0f64).unwrap(), "2.0");
        assert_eq!(to_string(&true).unwrap(), "true");
        assert!(!from_str::<bool>("false").unwrap());
    }

    #[test]
    fn strings_escape_and_unescape() {
        let original = "line\nbreak \"quoted\" back\\slash\ttab".to_string();
        let json = to_string(&original).unwrap();
        assert_eq!(from_str::<String>(&json).unwrap(), original);
        assert_eq!(from_str::<String>(r#""Aé""#).unwrap(), "Aé");
    }

    #[test]
    fn multi_byte_and_escaped_strings_round_trip() {
        for original in [
            "",
            "é",
            "\\",
            "\"\"",
            "naïve café — 数学 🦀",
            "🦀\\\"🦀\n\u{1}\t中",
            "tail ends in a multi-byte char: ß",
        ] {
            let json = to_string(&original).unwrap();
            assert_eq!(from_str::<String>(&json).unwrap(), original, "{json}");
        }
        assert_eq!(
            from_str::<String>(r#""\u00e9\/\b\f x\u4e2d""#).unwrap(),
            "é/\u{8}\u{c} x中"
        );
        assert!(from_str::<String>("\"é").is_err());
        assert!(from_str::<String>("\"\\é\"").is_err());
        assert!(from_str::<String>("\"\\u00é\"").is_err());
    }

    #[test]
    fn a_long_string_decodes_in_linear_time() {
        // A decoder quadratic in the string's length takes seconds here.
        let original = "ab\\\"é".repeat(1 << 18);
        assert!(original.len() >= 1 << 20);
        let json = to_string(&original).unwrap();
        let start = std::time::Instant::now();
        assert_eq!(from_str::<String>(&json).unwrap(), original);
        let elapsed = start.elapsed();
        assert!(elapsed.as_secs_f64() < 1.0, "decoding took {elapsed:?}");
    }

    #[test]
    fn collections_round_trip() {
        let v = vec![(String::from("a"), 1u64), (String::from("b"), 2)];
        let json = to_string(&v).unwrap();
        assert_eq!(json, r#"[["a",1],["b",2]]"#);
        assert_eq!(from_str::<Vec<(String, u64)>>(&json).unwrap(), v);
    }

    #[test]
    fn pretty_output_is_indented_and_parses_back() {
        let value = Value::Object(vec![
            ("x".to_string(), Value::Number(Number::UInt(1))),
            (
                "y".to_string(),
                Value::Array(vec![Value::Bool(true), Value::Null]),
            ),
        ]);
        let pretty = {
            let mut out = String::new();
            super::write_value(&mut out, &value, Some(2), 0).unwrap();
            out
        };
        assert!(pretty.contains("\n  \"x\": 1"));
        assert_eq!(parse_value_str(&pretty).unwrap(), value);
    }

    #[test]
    fn malformed_inputs_error() {
        assert!(from_str::<u64>("").is_err());
        assert!(from_str::<u64>("42 junk").is_err());
        assert!(from_str::<Vec<u64>>("[1, 2").is_err());
        assert!(from_str::<String>("\"open").is_err());
        assert!(to_string(&f64::NAN).is_err());
    }
}
