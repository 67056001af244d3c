//! The shim's one JSON tree and its one parser. Derived `Deserialize`
//! impls read this tree, and the shim `serde_json` re-exports it as
//! `serde_json::Value`, so a document is parsed once, into the tree its
//! caller reads. The parser walks the UTF-8 bytes of the document; a
//! multi-byte character is decoded only where whitespace or an escape
//! needs it, and copied whole into strings otherwise.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

#[derive(Debug, Clone, Default, PartialEq)]
pub enum Value {
    #[default]
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Value>),
    Object(BTreeMap<String, Value>),
}

impl Value {
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Single-line form, for newline-delimited wire protocols (`Display`
    /// stays indented for on-disk artifacts; real serde_json callers
    /// would use `to_string()` — shim users needing one line use this).
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) if n.fract() == 0.0 && n.abs() < 1e15 => {
                let _ = write!(out, "{}", *n as i64);
            }
            Value::Number(n) => {
                let _ = write!(out, "{n}");
            }
            Value::String(s) => crate::write_json_str(out, s),
            Value::Array(a) => {
                out.push('[');
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_compact(out);
                }
                out.push(']');
            }
            Value::Object(m) => {
                out.push('{');
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    crate::write_json_str(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        let pad1 = "  ".repeat(indent + 1);
        match self {
            // Leaves are written the same way in both forms.
            Value::Null | Value::Bool(_) | Value::Number(_) | Value::String(_) => {
                self.write_compact(out)
            }
            Value::Array(a) => {
                if a.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, v) in a.iter().enumerate() {
                    out.push_str(&pad1);
                    v.write_pretty(out, indent + 1);
                    if i + 1 < a.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&pad);
                out.push(']');
            }
            Value::Object(m) => {
                if m.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in m.iter().enumerate() {
                    out.push_str(&pad1);
                    crate::write_json_str(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                    if i + 1 < m.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&pad);
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.write_pretty(&mut s, 0);
        f.write_str(&s)
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        static NULL: Value = Value::Null;
        match self {
            Value::Object(m) => m.get(key).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        static NULL: Value = Value::Null;
        match self {
            Value::Array(a) => a.get(idx).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

impl crate::Serialize for Value {
    fn shim_json(&self) -> String {
        self.to_string()
    }
}

impl<'de> crate::Deserialize<'de> for Value {
    fn shim_from_value(v: &Value) -> Result<Self, String> {
        Ok(v.clone())
    }

    /// The parsed tree is the answer: nothing to convert or copy.
    fn shim_from_json(text: &str) -> Result<Self, String> {
        parse(text)
    }
}

macro_rules! from_num {
    ($($t:ty),*) => {
        $(impl From<$t> for Value {
            fn from(v: $t) -> Value { Value::Number(v as f64) }
        })*
    };
}

from_num!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

/// An `f32` becomes the `f64` its JSON text names (`0.1f32` → `0.1`), as
/// it does through `Serialize`, not its widened bits.
impl From<f32> for Value {
    fn from(v: f32) -> Value {
        Value::Number(crate::Serialize::shim_json(&v).parse().unwrap_or(f64::NAN))
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::String(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::String(v.to_string())
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Value {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Value> + Clone> From<&[T]> for Value {
    fn from(v: &[T]) -> Value {
        Value::Array(v.iter().cloned().map(Into::into).collect())
    }
}

impl From<&Value> for Value {
    fn from(v: &Value) -> Value {
        v.clone()
    }
}

/// Parse a complete JSON document; trailing non-whitespace is an error.
///
/// The grammar is the shim's own, lenient where JSON is strict: any
/// Unicode whitespace separates tokens, a backslash before any other
/// character stands for that character, `\u` takes the next four
/// characters as `u32::from_str_radix` reads them and maps a surrogate to
/// U+FFFD, raw control characters may sit in strings, and a number is any
/// run of `0-9 + - . e E` that `f64::from_str` accepts. Arrays and
/// objects nest at most [`MAX_DEPTH`] deep: the parser recurses once per
/// level, so a deeper document is an error, not a stack overflow.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { text, pos: 0, depth: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos < text.len() {
        // The offset counts characters, not bytes.
        return Err(format!("trailing characters at offset {}", text[..p.pos].chars().count()));
    }
    Ok(v)
}

/// A cursor over the document. `pos` is a byte offset that only ever
/// lands on a character boundary: it steps over ASCII bytes one at a time
/// and over any other character whole.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

/// The deepest nesting of arrays and objects [`parse`] accepts.
pub const MAX_DEPTH: usize = 128;

impl Parser<'_> {
    fn byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// The character at `pos` (which is not at the end).
    fn char_here(&self) -> char {
        self.text[self.pos..].chars().next().expect("pos is inside the text")
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.byte() {
            let c = if b.is_ascii() { b as char } else { self.char_here() };
            if !c.is_whitespace() {
                return;
            }
            self.pos += c.len_utf8();
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.byte()
    }

    fn eat(&mut self, lit: &str) -> bool {
        self.skip_ws();
        if self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.skip_ws();
        if self.byte() != Some(b'"') {
            return Err("expected string".into());
        }
        self.pos += 1;
        let bytes = self.text.as_bytes();
        let mut out = String::new();
        loop {
            // Everything up to the next quote or backslash is copied as it
            // stands; both are ASCII, so the run ends on a boundary.
            let run = bytes[self.pos..].iter().position(|&b| b == b'"' || b == b'\\');
            let end = run.map_or(bytes.len(), |n| self.pos + n);
            out.push_str(&self.text[self.pos..end]);
            self.pos = end;
            match self.byte() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    // A backslash: the run stops at nothing else.
                    self.pos += 1;
                    match self.byte() {
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            // Four characters: four bytes, or a non-ASCII
                            // character among them that no hex digit is.
                            let hex = bytes
                                .get(self.pos + 1..self.pos + 5)
                                .filter(|h| h.is_ascii())
                                .ok_or("bad \\u escape")?;
                            let hex = std::str::from_utf8(hex).expect("ASCII is UTF-8");
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        Some(_) => {
                            let c = self.char_here();
                            out.push(c);
                            self.pos += c.len_utf8() - 1;
                        }
                        None => return Err("bad escape".into()),
                    }
                    self.pos += 1;
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'n') if self.eat("null") => Ok(Value::Null),
            Some(b't') if self.eat("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!("nested deeper than {MAX_DEPTH} levels"));
                }
                self.pos += 1;
                self.depth += 1;
                let v = if open == b'[' { self.array_rest() } else { self.object_rest() };
                self.depth -= 1;
                v
            }
            Some(_) => {
                let start = self.pos;
                while matches!(self.byte(), Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')) {
                    self.pos += 1;
                }
                self.text[start..self.pos]
                    .parse()
                    .map(Value::Number)
                    .map_err(|_| "bad number".to_string())
            }
            None => Err("empty input".into()),
        }
    }

    /// An array after its `[`.
    fn array_rest(&mut self) -> Result<Value, String> {
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err("bad array".into()),
            }
        }
    }

    /// An object after its `{`.
    fn object_rest(&mut self) -> Result<Value, String> {
        let mut map = BTreeMap::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            let k = self.string()?;
            if self.peek() != Some(b':') {
                return Err("expected colon".into());
            }
            self.pos += 1;
            map.insert(k, self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err("bad object".into()),
            }
        }
    }
}
