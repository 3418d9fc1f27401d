//! Offline stand-in for `serde_json`: pretty-prints the `serde`
//! stand-in's [`Value`] tree with the same spacing conventions as
//! upstream (`"key": value`, two-space indent), and parses JSON text
//! back into [`Value`]. The parser is on the serving request path (every
//! `POST /extract` body and uploaded JSON bundle goes through it), so it
//! treats its input as hostile: malformed, truncated or over-nested text
//! is a typed [`Error`], never a panic or a stack overflow.

use serde::{Serialize, Value};
use std::fmt;

/// Serialization error (the stand-in is infallible in practice; the type
/// exists so call sites keep their `Result` plumbing).
#[derive(Debug)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Pretty JSON with two-space indentation, like upstream serde_json.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), 0, &mut out);
    Ok(out)
}

/// Compact JSON on one line.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    fn compact(v: &Value, out: &mut String) {
        match v {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => push_number(*n, out),
            Value::String(s) => push_json_string(s, out),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    compact(item, out);
                }
                out.push(']');
            }
            Value::Object(entries) => {
                out.push('{');
                for (i, (k, item)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_json_string(k, out);
                    out.push(':');
                    compact(item, out);
                }
                out.push('}');
            }
        }
    }
    let mut out = String::new();
    compact(&value.to_value(), &mut out);
    Ok(out)
}

/// Deepest array/object nesting [`from_str`] accepts — upstream
/// serde_json's default recursion limit. The parser recurses once per
/// level, so without a cap a request body of `[[[[…` overflows the
/// stack and aborts the process.
pub const MAX_DEPTH: usize = 128;

/// Parses JSON text into a [`Value`] tree.
///
/// Supports the full JSON grammar (objects, arrays, strings with
/// escapes, numbers, booleans, null); numbers land in `Value::Number`'s
/// `f64` like everything else in the stand-in. Trailing non-whitespace
/// is an error, and so is nesting deeper than [`MAX_DEPTH`].
pub fn from_str(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected '{}' at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(Error(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(Error(format!("unexpected input at byte {}", self.pos))),
        }
    }

    /// Parses one array or object one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error(format!(
                "recursion limit exceeded at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries: Vec<(String, Value)> = Vec::new();
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
            entries.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => return Err(Error(format!("expected ',' or '}}' at byte {}", self.pos))),
            }
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
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
                _ => return Err(Error(format!("expected ',' or ']' at byte {}", self.pos))),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error("unterminated string".into())),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| Error("unterminated escape".into()))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| Error("truncated \\u escape".into()))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error(format!("bad \\u escape '{hex}'")))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by our own
                            // writer; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(Error(format!("bad escape '\\{}'", esc as char))),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 code point.
                    let start = self.pos;
                    self.pos += 1;
                    while self.bytes.get(self.pos).is_some_and(|b| b & 0xC0 == 0x80) {
                        self.pos += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| Error("invalid utf-8 in string".into()))?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number characters");
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| Error(format!("invalid number '{text}'")))
    }
}

fn write_value(v: &Value, indent: usize, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => push_number(*n, out),
        Value::String(s) => push_json_string(s, out),
        Value::Array(items) if items.is_empty() => out.push_str("[]"),
        Value::Array(items) => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                push_indent(indent + 1, out);
                write_value(item, indent + 1, out);
                if i + 1 < items.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            push_indent(indent, out);
            out.push(']');
        }
        Value::Object(entries) if entries.is_empty() => out.push_str("{}"),
        Value::Object(entries) => {
            out.push_str("{\n");
            for (i, (k, item)) in entries.iter().enumerate() {
                push_indent(indent + 1, out);
                push_json_string(k, out);
                out.push_str(": ");
                write_value(item, indent + 1, out);
                if i + 1 < entries.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            push_indent(indent, out);
            out.push('}');
        }
    }
}

fn push_indent(n: usize, out: &mut String) {
    for _ in 0..n {
        out.push_str("  ");
    }
}

fn push_number(n: f64, out: &mut String) {
    if n.is_finite() && n == n.trunc() && n.abs() < 1e15 {
        // Integers print without a decimal point, except that upstream
        // serde_json prints f64 whole numbers as "1.0"; we cannot tell the
        // source type apart here, so follow the float convention: the only
        // assertion-relevant case in-repo ("precision": 0.5 / 1.0) is float.
        out.push_str(&format!("{n:.1}"));
    } else if n.is_finite() {
        out.push_str(&format!("{n}"));
    } else {
        out.push_str("null"); // upstream refuses NaN/inf; null is close enough
    }
}

fn push_json_string(s: &str, out: &mut String) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_object() {
        let v = Value::Object(vec![
            ("precision".into(), Value::Number(0.5)),
            (
                "tags".into(),
                Value::Array(vec![Value::String("a\"b".into())]),
            ),
        ]);
        struct Wrap(Value);
        impl Serialize for Wrap {
            fn to_value(&self) -> Value {
                self.0.clone()
            }
        }
        let s = to_string_pretty(&Wrap(v)).unwrap();
        assert!(s.contains("\"precision\": 0.5"), "{s}");
        assert!(s.contains("\\\""), "{s}");
        let c = to_string(&Wrap(Value::Bool(true))).unwrap();
        assert_eq!(c, "true");
    }

    #[test]
    fn parse_roundtrips_own_output() {
        let v = Value::Object(vec![
            ("schema".into(), Value::Number(1.0)),
            (
                "speedups".into(),
                Value::Object(vec![
                    ("sharded_vs_indexed".into(), Value::Number(2.75)),
                    ("note".into(), Value::String("a\"b\\c\nd".into())),
                ]),
            ),
            (
                "series".into(),
                Value::Array(vec![Value::Number(-1.5e3), Value::Bool(false), Value::Null]),
            ),
            ("empty_obj".into(), Value::Object(vec![])),
            ("empty_arr".into(), Value::Array(vec![])),
        ]);
        for rendered in [to_string_pretty(&v).unwrap(), to_string(&v).unwrap()] {
            assert_eq!(from_str(&rendered).unwrap(), v, "from {rendered}");
        }
    }

    #[test]
    fn parse_accessors() {
        let v =
            from_str(r#"{ "min_speedup": { "sharded_vs_indexed": 1.5 }, "name": "x" }"#).unwrap();
        assert_eq!(
            v.get("min_speedup")
                .and_then(|m| m.get("sharded_vs_indexed"))
                .and_then(Value::as_f64),
            Some(1.5)
        );
        assert_eq!(v.get("name").and_then(Value::as_str), Some("x"));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(from_str("").is_err());
        assert!(from_str("{").is_err());
        assert!(from_str("[1,]").is_err());
        assert!(from_str("1 2").is_err());
        assert!(from_str("\"unterminated").is_err());
        assert!(from_str("{\"k\" 1}").is_err());
        assert!(from_str("nul").is_err());
    }

    #[test]
    fn nesting_is_capped_with_a_typed_error() {
        let nest = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(from_str(&nest(MAX_DEPTH)).is_ok());
        let err = from_str(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("recursion limit"), "{err}");
        let objects = "{\"k\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(from_str(&objects).is_err());
        // Far past the cap, on a thread with the default 2 MiB stack
        // (the server's request threads): a typed error, not a stack
        // overflow that aborts the process.
        let verdict = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let deep = "[".repeat(100_000);
                from_str(&deep).map(|_| ()).map_err(|e| e.to_string())
            })
            .expect("spawn")
            .join()
            .expect("parser thread survived");
        assert!(verdict.unwrap_err().contains("recursion limit"));
    }

    #[test]
    fn parse_unicode_and_escapes() {
        assert_eq!(
            from_str(r#""café – ☕""#).unwrap(),
            Value::String("café – ☕".into())
        );
        assert_eq!(
            from_str(r#""\t\r\n\b\f\/""#).unwrap(),
            Value::String("\t\r\n\u{8}\u{c}/".into())
        );
    }
}
