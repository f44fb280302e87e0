//! A minimal JSON value: enough to write `BENCH_profile.json`, pass a
//! repetition's result from a child process to the runner, and read a
//! profile back for `compare`. Objects keep insertion order so the written
//! files diff cleanly. (The workspace vendors no JSON crate.)

use std::fmt::Write as _;

#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    pub fn obj() -> Value {
        Value::Obj(Vec::new())
    }

    /// Appends `key: value` (builder style; keys are not de-duplicated).
    pub fn with(mut self, key: &str, value: impl Into<Value>) -> Value {
        self.set(key, value);
        self
    }

    pub fn set(&mut self, key: &str, value: impl Into<Value>) {
        if let Value::Obj(fields) = self {
            fields.push((key.to_string(), value.into()));
        }
    }

    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn fields(&self) -> &[(String, Value)] {
        match self {
            Value::Obj(fields) => fields,
            _ => &[],
        }
    }

    pub fn items(&self) -> &[Value] {
        match self {
            Value::Arr(items) => items,
            _ => &[],
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// `self[key]` as a number, or `default`.
    pub fn num(&self, key: &str, default: f64) -> f64 {
        self.get(key).and_then(Value::as_f64).unwrap_or(default)
    }

    /// `self[key]` as a list of numbers (non-numbers skipped).
    pub fn nums(&self, key: &str) -> Vec<f64> {
        self.get(key)
            .map(|v| v.items().iter().filter_map(Value::as_f64).collect())
            .unwrap_or_default()
    }

    /// One line, no spaces after separators.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Two-space indented; arrays of scalars stay on one line.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn is_scalar(&self) -> bool {
        !matches!(self, Value::Arr(_) | Value::Obj(_))
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(step) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', step * depth));
            }
        };
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) if n.is_finite() => {
                let _ = write!(out, "{n}");
            }
            Value::Num(_) => out.push_str("null"),
            Value::Str(s) => write_str(out, s),
            Value::Arr(items) => {
                let flat = indent.is_none() || items.iter().all(Value::is_scalar);
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(if flat && indent.is_some() { ", " } else { "," });
                    }
                    if !flat {
                        newline(out, depth + 1);
                    }
                    item.write(out, indent, depth + 1);
                }
                if !flat && !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    write_str(out, k);
                    out.push_str(if indent.is_some() { ": " } else { ":" });
                    v.write(out, indent, depth + 1);
                }
                if !fields.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
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

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Num(v)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::Num(v as f64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::Num(v as f64)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}
impl From<Vec<Value>> for Value {
    fn from(v: Vec<Value>) -> Value {
        Value::Arr(v)
    }
}
impl From<&[f64]> for Value {
    fn from(v: &[f64]) -> Value {
        Value::Arr(v.iter().map(|&x| Value::Num(x)).collect())
    }
}

/// Parses one JSON document. Files and child output come from outside the
/// process, so every malformed input is an `Err`, never a panic; nesting is
/// bounded so a hostile file cannot overflow the stack.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(v)
}

const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".into());
        }
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err("unexpected end of input".into()),
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.eat("}") {
                    return Ok(Value::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.expect(b':')?;
                    fields.push((key, self.value(depth + 1)?));
                    self.skip_ws();
                    if self.eat(",") {
                        continue;
                    }
                    self.expect(b'}')?;
                    return Ok(Value::Obj(fields));
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat("]") {
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    if self.eat(",") {
                        continue;
                    }
                    self.expect(b']')?;
                    return Ok(Value::Arr(items));
                }
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(_) if self.eat("true") => Ok(Value::Bool(true)),
            Some(_) if self.eat("false") => Ok(Value::Bool(false)),
            Some(_) if self.eat("null") => Ok(Value::Null),
            Some(_) => {
                let start = self.pos;
                while self.pos < self.bytes.len()
                    && matches!(
                        self.bytes[self.pos],
                        b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
                    )
                {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .ok()
                    .and_then(|s| s.parse::<f64>().ok())
                    .map(Value::Num)
                    .ok_or_else(|| format!("bad value at byte {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(format!("expected string at byte {}", self.pos));
        }
        self.pos += 1;
        let mut out = Vec::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err("unterminated string".into());
            };
            self.pos += 1;
            match b {
                b'"' => {
                    return String::from_utf8(out).map_err(|_| "invalid utf-8 in string".into())
                }
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err("unterminated escape".into());
                    };
                    self.pos += 1;
                    match esc {
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            self.pos += 4;
                            // Surrogate pairs are not needed for our own files.
                            let c = char::from_u32(hex).unwrap_or('\u{fffd}');
                            out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                other => out.push(other),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let v = Value::obj()
            .with("name", "a \"quoted\"\nline")
            .with("n", 1.5)
            .with("ok", true)
            .with("xs", vec![Value::Num(1.0), Value::Null])
            .with("inner", Value::obj().with("k", 3u64));
        assert_eq!(parse(&v.compact()).unwrap(), v);
        assert_eq!(parse(&v.pretty()).unwrap(), v);
    }

    #[test]
    fn malformed_input_is_an_error() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "\"open",
            "tru",
            "1 2",
            "{\"a\":}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
        let deep = "[".repeat(10_000);
        assert!(parse(&deep).is_err());
    }
}
