//! Offline stand-in for `serde_json`: text layer over the shim [`Value`].
//!
//! Implements exactly the surface the framework uses: [`to_string`],
//! [`to_string_pretty`], [`from_str`], [`to_value`], [`from_value`], the
//! [`json!`] macro and the [`Value`]/[`Number`] re-exports.

pub use serde::{DeError, Number, Value};
use std::fmt::Write as _;

/// Serialization/deserialization error.
#[derive(Clone, Debug)]
pub struct Error(pub String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error(e.0)
    }
}

/// Result alias matching serde_json's.
pub type Result<T> = std::result::Result<T, Error>;

/// Serialize `value` into the [`Value`] tree. Infallible in this shim but
/// returns `Result` for API compatibility.
pub fn to_value<T: serde::Serialize>(value: T) -> Result<Value> {
    Ok(value.to_value())
}

/// Deserialize a `T` from a [`Value`] tree.
pub fn from_value<T: serde::Deserialize>(value: Value) -> Result<T> {
    T::from_value(&value).map_err(Error::from)
}

/// Serialize to compact JSON text.
pub fn to_string<T: serde::Serialize>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serialize to human-readable JSON text (two-space indent).
pub fn to_string_pretty<T: serde::Serialize>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Parse JSON text into a `T`.
pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T> {
    let value = parse(s)?;
    T::from_value(&value).map_err(Error::from)
}

// --------------------------------------------------------------- printing

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

fn write_number(out: &mut String, n: &Number) {
    match *n {
        Number::Int(v) => {
            let _ = write!(out, "{v}");
        }
        Number::UInt(v) => {
            let _ = write!(out, "{v}");
        }
        Number::Float(v) => {
            if v.is_finite() {
                // `{:?}` keeps a decimal point or exponent, so floats stay
                // floats across a round-trip.
                let _ = write!(out, "{v:?}");
            } else {
                out.push_str("null");
            }
        }
    }
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(n) => write_number(out, n),
        Value::String(s) => write_escaped(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if let Some(w) = indent {
                    out.push('\n');
                    out.push_str(&" ".repeat(w * (depth + 1)));
                }
                write_value(out, item, indent, depth + 1);
            }
            if let Some(w) = indent {
                out.push('\n');
                out.push_str(&" ".repeat(w * depth));
            }
            out.push(']');
        }
        Value::Object(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if let Some(w) = indent {
                    out.push('\n');
                    out.push_str(&" ".repeat(w * (depth + 1)));
                }
                write_escaped(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, val, indent, depth + 1);
            }
            if let Some(w) = indent {
                out.push('\n');
                out.push_str(&" ".repeat(w * depth));
            }
            out.push('}');
        }
    }
}

// ---------------------------------------------------------------- parsing

/// How deep arrays and objects may nest, as in upstream `serde_json`: the
/// parser recurses once per level, so an unbounded depth would let a
/// hostile document overflow the thread's stack.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    src: &'a str,
    pos: usize,
    depth: usize,
}

/// Parse JSON text into a [`Value`]. Nesting deeper than [`MAX_DEPTH`] is
/// an [`Error`].
pub fn parse(s: &str) -> Result<Value> {
    let mut p = Parser {
        src: s,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn bytes(&self) -> &'a [u8] {
        self.src.as_bytes()
    }

    fn err(&self, msg: &str) -> Error {
        let (mut line, mut col) = (1usize, 1usize);
        for &b in &self.bytes()[..self.pos.min(self.src.len())] {
            if b == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        Error(format!("{msg} at line {line} column {col}"))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes().get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value> {
        if self.bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Value> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected value")),
        }
    }

    /// Parse one array or object one level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value>) -> Result<Value> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("recursion limit exceeded"));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn string(&mut self) -> Result<String> {
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
                                .src
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not produced by this shim's
                            // writer; accept BMP scalars only.
                            out.push(
                                char::from_u32(code).ok_or_else(|| self.err("bad \\u escape"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                // RFC 8259 §7: control characters must be escaped.
                Some(0x00..=0x1f) => {
                    return Err(self
                        .err("control character (\\u0000-\\u001F) found while parsing a string"))
                }
                Some(_) => {
                    // Copy the run up to the next quote, escape or control
                    // character in one go. All three are ASCII, so the run
                    // ends on a char boundary of the source text.
                    let rest = &self.bytes()[self.pos..];
                    let len = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .unwrap_or(rest.len());
                    out.push_str(&self.src[self.pos..self.pos + len]);
                    self.pos += len;
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
        let text = &self.src[start..self.pos];
        let n = if is_float {
            Number::Float(
                text.parse::<f64>()
                    .map_err(|_| self.err("invalid number"))?,
            )
        } else if let Ok(i) = text.parse::<i64>() {
            Number::Int(i)
        } else if let Ok(u) = text.parse::<u64>() {
            Number::UInt(u)
        } else {
            Number::Float(
                text.parse::<f64>()
                    .map_err(|_| self.err("invalid number"))?,
            )
        };
        Ok(Value::Number(n))
    }

    fn array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
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
                    return Ok(Value::Object(entries));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

/// Build a [`Value`] in place, mirroring `serde_json::json!`.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($item:expr),* $(,)? ]) => {
        $crate::Value::Array(vec![ $( $crate::Value::from($item) ),* ])
    };
    ({ $($key:literal : $val:expr),* $(,)? }) => {
        $crate::Value::Object(vec![ $( ($key.to_string(), $crate::Value::from($val)) ),* ])
    };
    ($other:expr) => {
        $crate::Value::from($other)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        for text in ["null", "true", "false", "42", "-7", "3.5", "\"hi\""] {
            let v = parse(text).unwrap();
            assert_eq!(to_string(&v).unwrap(), text);
        }
    }

    #[test]
    fn nested_roundtrip() {
        let text = r#"{"a":[1,2,{"b":null}],"c":"x\ny"}"#;
        let v = parse(text).unwrap();
        assert_eq!(to_string(&v).unwrap(), text);
    }

    #[test]
    fn raw_control_characters_in_strings_are_refused() {
        for raw in [
            "\"a\nb\"",
            "\"a\tb\"",
            "\"\u{0}\"",
            "{\"label\":\"x\u{1f}\"}",
        ] {
            let err = parse(raw).expect_err("raw control character is refused");
            assert!(err.0.contains("control character"), "{raw:?}: {err}");
        }
        // Escaped, the same characters parse.
        assert_eq!(parse(r#""a\nb\t""#).unwrap(), "a\nb\t");
    }

    #[test]
    fn floats_stay_floats() {
        let v = parse("1250.0").unwrap();
        assert_eq!(to_string(&v).unwrap(), "1250.0");
    }

    #[test]
    fn json_macro_builds_objects() {
        let events = vec![json!(1), json!(2)];
        let v = json!({ "traceEvents": events, "label": "x", "n": 3 });
        assert_eq!(v["label"], "x");
        assert_eq!(v["n"], 3);
        assert_eq!(v["traceEvents"].as_array().unwrap().len(), 2);
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        for (open, inner, close) in [("[", "", "]"), ("{\"a\":", "null", "}")] {
            let nest = |depth| format!("{}{inner}{}", open.repeat(depth), close.repeat(depth));
            assert!(
                parse(&nest(MAX_DEPTH)).is_ok(),
                "depth {MAX_DEPTH} must parse"
            );
            let err = parse(&nest(MAX_DEPTH + 1)).expect_err("one level deeper is refused");
            assert!(err.0.contains("recursion limit"), "{err}");
        }
    }

    /// A hostile document far deeper than the cap is refused before it can
    /// recurse deep, even on a small thread stack.
    #[test]
    fn deep_input_on_a_small_stack_is_an_error() {
        let deep = "[".repeat(100_000);
        let objects = "{\"a\":".repeat(100_000);
        let result = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || (parse(&deep).is_err(), parse(&objects).is_err()))
            .unwrap()
            .join()
            .expect("parser thread must not overflow its stack");
        assert_eq!(result, (true, true));
    }

    #[test]
    fn four_mib_string_parses() {
        // 12 bytes per repeat: ASCII, 2-, 3- and 4-byte scalars, an escape.
        let body: String = "aé€😀\\n".repeat((4 << 20) / 12 + 1);
        assert!(body.len() >= 4 << 20);
        let v = parse(&format!("\"{body}\"")).unwrap();
        assert_eq!(v, Value::String(body.replace("\\n", "\n")));
    }

    #[test]
    fn pretty_output_is_reparseable() {
        let v = parse(r#"{"a":[1,2],"b":{"c":true}}"#).unwrap();
        let pretty = to_string_pretty(&v).unwrap();
        assert_eq!(parse(&pretty).unwrap(), v);
    }
}
