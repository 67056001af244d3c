//! Offline dev shim for `serde_json`: the `json!` macro and the string
//! (de)serialisation entry points over the serde shim's one JSON tree,
//! re-exported here as [`Value`]. Derived types serialise field-wise via
//! the shim `serde::Serialize` hook; unsupported shapes fail loudly there
//! instead of producing placeholders. Never shipped.

use std::fmt;

pub use serde::value::Value;

#[derive(Debug)]
pub struct Error(pub String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "serde_json shim error: {}", self.0)
    }
}

impl std::error::Error for Error {}

pub type Result<T> = std::result::Result<T, Error>;

/// `json!` fallback: serialize any `Serialize` by reference (mirrors the
/// real macro's `to_value(&expr)` so value exprs are not moved).
pub fn shim_to_value<T: serde::Serialize + ?Sized>(v: &T) -> Value {
    from_str::<Value>(&v.shim_json()).unwrap_or(Value::Null)
}

/// A `json!` value operand, borrowed (helper, not public API). The macro
/// calls `(&ShimOperand(&expr)).shim_value()`: method lookup tries
/// [`ShimDirect`] first (its `&self` is the receiver as written) and
/// falls back to [`ShimViaText`] (one more autoref) only when the operand
/// is not `Into<Value> + Clone`.
#[doc(hidden)]
pub struct ShimOperand<'a, T: ?Sized>(pub &'a T);

#[doc(hidden)]
pub trait ShimDirect {
    fn shim_value(&self) -> Value;
}

/// Converts without text: the value [`shim_to_value`] would parse back.
impl<T: Into<Value> + Clone> ShimDirect for ShimOperand<'_, T> {
    fn shim_value(&self) -> Value {
        as_if_reparsed(self.0.clone().into())
    }
}

#[doc(hidden)]
pub trait ShimViaText {
    fn shim_value(&self) -> Value;
}

impl<T: serde::Serialize + ?Sized> ShimViaText for &ShimOperand<'_, T> {
    fn shim_value(&self) -> Value {
        shim_to_value(self.0)
    }
}

/// What the serialise→parse round trip makes of a converted value: `-0.0`
/// reads back as `0`, and a non-finite number anywhere fails the parse, so
/// the whole operand becomes `null`. Strings need nothing: every key and
/// string is written through `serde::escape_json_str`, whose escapes the
/// parser reads back to the same characters.
fn as_if_reparsed(mut v: Value) -> Value {
    fn finite(v: &mut Value) -> bool {
        match v {
            Value::Number(n) => {
                if n.to_bits() == (-0.0f64).to_bits() {
                    *n = 0.0;
                }
                n.is_finite()
            }
            Value::Array(a) => a.iter_mut().all(finite),
            Value::Object(m) => m.values_mut().all(finite),
            Value::Null | Value::Bool(_) | Value::String(_) => true,
        }
    }
    if finite(&mut v) {
        v
    } else {
        Value::Null
    }
}

pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    // Derived impls emit compact JSON; round-trip through `Value` for the
    // indented form. Raw output is already pretty when `T` is `Value`.
    let raw = value.shim_json();
    match from_str::<Value>(&raw) {
        Ok(v) => Ok(v.to_string()),
        Err(_) => Ok(raw),
    }
}

pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    Ok(value.shim_json())
}

pub fn from_str<T: for<'de> serde::Deserialize<'de>>(text: &str) -> Result<T> {
    T::shim_from_json(text).map_err(Error)
}

/// Simplified `json!` macro: objects with literal-string keys, arrays,
/// `null`, and arbitrary expressions (TT-munched so values may span
/// multiple tokens, e.g. `a.mean / b.mean`). An `Into<Value> + Clone`
/// operand converts directly; any other `Serialize` goes through its JSON
/// text. Both give the same value.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([]) => { $crate::Value::Array(::std::vec::Vec::new()) };
    ([ $($tt:tt)+ ]) => {{
        let mut vec = ::std::vec::Vec::<$crate::Value>::new();
        $crate::shim_json_array!(vec [] $($tt)+);
        $crate::Value::Array(vec)
    }};
    ({}) => { $crate::Value::Object(::std::collections::BTreeMap::new()) };
    ({ $($tt:tt)+ }) => {{
        let mut map = ::std::collections::BTreeMap::<String, $crate::Value>::new();
        $crate::shim_json_object!(map $($tt)+);
        $crate::Value::Object(map)
    }};
    ($other:expr) => {{
        #[allow(unused_imports)]
        use $crate::{ShimDirect as _, ShimViaText as _};
        (&$crate::ShimOperand(&$other)).shim_value()
    }};
}

/// Object-body muncher: `key : value , ...` (helper, not public API).
#[doc(hidden)]
#[macro_export]
macro_rules! shim_json_object {
    ($map:ident) => {};
    ($map:ident $key:literal : $($rest:tt)+) => {
        $crate::shim_json_value!($map [$key] [] $($rest)+);
    };
}

/// Value accumulator: collects tokens until a top-level comma (helper).
#[doc(hidden)]
#[macro_export]
macro_rules! shim_json_value {
    ($map:ident [$key:literal] [$($val:tt)+] , $($rest:tt)*) => {
        $map.insert($key.to_string(), $crate::json!($($val)+));
        $crate::shim_json_object!($map $($rest)*);
    };
    ($map:ident [$key:literal] [$($val:tt)+]) => {
        $map.insert($key.to_string(), $crate::json!($($val)+));
    };
    ($map:ident [$key:literal] [$($val:tt)*] $next:tt $($rest:tt)*) => {
        $crate::shim_json_value!($map [$key] [$($val)* $next] $($rest)*);
    };
}

/// Array-element muncher (helper, not public API).
#[doc(hidden)]
#[macro_export]
macro_rules! shim_json_array {
    ($vec:ident []) => {};
    ($vec:ident [$($val:tt)+] , $($rest:tt)*) => {
        $vec.push($crate::json!($($val)+));
        $crate::shim_json_array!($vec [] $($rest)*);
    };
    ($vec:ident [$($val:tt)+]) => {
        $vec.push($crate::json!($($val)+));
    };
    ($vec:ident [$($val:tt)*] $next:tt $($rest:tt)*) => {
        $crate::shim_json_array!($vec [$($val)* $next] $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use super::{shim_to_value, Value};

    /// splitmix64: a seeded stream without a dependency.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn pick<T: Copy>(&mut self, from: &[T]) -> T {
            from[self.below(from.len())]
        }
    }

    /// Equal trees, numbers compared bit for bit.
    fn same_bits(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::Number(x), Value::Number(y)) => x.to_bits() == y.to_bits(),
            (Value::Array(x), Value::Array(y)) => {
                x.len() == y.len() && x.iter().zip(y).all(|(p, q)| same_bits(p, q))
            }
            (Value::Object(x), Value::Object(y)) => {
                x.len() == y.len()
                    && x.iter().zip(y).all(|((kp, p), (kq, q))| kp == kq && same_bits(p, q))
            }
            _ => a == b,
        }
    }

    fn assert_same(direct: Value, text: Value, what: &dyn std::fmt::Debug) {
        assert_eq!(direct.compact(), text.compact(), "compact() of {what:?}");
        assert_eq!(direct.to_string(), text.to_string(), "Display of {what:?}");
        assert!(same_bits(&direct, &text), "{what:?}: {direct:?} vs {text:?}");
    }

    /// Checks `x` alone, as an object member and as an array element.
    macro_rules! check {
        ($x:expr) => {{
            let x = $x;
            let text = shim_to_value(&x);
            assert_same(json!(x), text.clone(), &x);
            let member = [("k".to_string(), text.clone()), ("n".to_string(), Value::Number(1.0))];
            assert_same(json!({"k": x, "n": 1}), Value::Object(member.into()), &x);
            assert_same(json!([x, x]), Value::Array(vec![text.clone(), text]), &x);
        }};
    }

    const SPECIAL_F64: [f64; 16] = [
        0.0,
        -0.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE,
        5e-324,
        -2.225073858507201e-308, // largest negative subnormal
        f64::MAX,
        f64::MIN,
        1e15,
        1e15 - 1.0,
        -1e15,
        0.1,
        9007199254740993.0,
        -123.5,
    ];

    #[test]
    fn direct_arm_matches_text_path_for_f64_bit_patterns() {
        let mut rng = Rng(0x5EED);
        for x in SPECIAL_F64 {
            check!(x);
        }
        for _ in 0..4000 {
            check!(f64::from_bits(rng.next()));
            // Integers and short decimals, where the two number rules meet.
            check!((rng.next() >> rng.below(64)) as f64 * rng.pick(&[1.0, -1.0, 0.5, 0.125]));
        }
    }

    #[test]
    fn direct_arm_matches_text_path_for_f32() {
        let mut rng = Rng(32);
        for x in [0.1f32, -0.0, f32::NAN, f32::INFINITY, f32::MAX, 1e-45, 123456790528.0] {
            check!(x);
        }
        for _ in 0..4000 {
            check!(f32::from_bits(rng.next() as u32));
        }
    }

    #[test]
    fn direct_arm_matches_text_path_for_wide_integers() {
        let mut rng = Rng(64);
        for x in [u64::MAX, u64::MAX - 1, 1 << 53, (1 << 53) + 1, (1 << 63) + 1025, 0] {
            check!(x);
        }
        for x in [i64::MIN, i64::MAX, -(1 << 53) - 1, -1] {
            check!(x);
        }
        check!(usize::MAX);
        check!(isize::MIN);
        check!(u32::MAX);
        check!(i8::MIN);
        for _ in 0..4000 {
            check!(rng.next() | (1 << 53));
            check!(rng.next() as i64);
        }
    }

    /// Escapes, control characters and multi-byte characters.
    const ALPHABET: [char; 16] = [
        'a', ' ', '"', '\\', '/', '\n', '\t', '\r', '\u{0}', '\u{1}', '\u{1f}', '\u{7f}', 'é',
        '中', '🎉', '\'',
    ];

    fn string(rng: &mut Rng, alphabet: &[char]) -> String {
        (0..rng.below(12)).map(|_| rng.pick(alphabet)).collect()
    }

    #[test]
    fn direct_arm_matches_text_path_for_strings() {
        let mut rng = Rng(7);
        for _ in 0..2000 {
            let s = string(&mut rng, &ALPHABET);
            check!(s.as_str());
            check!(s);
        }
    }

    #[test]
    fn direct_arm_matches_text_path_for_vecs() {
        let mut rng = Rng(11);
        for _ in 0..500 {
            let n = rng.below(6);
            // Mostly finite; now and then a NaN or an infinity nulls the lot.
            let f: Vec<f64> = (0..n)
                .map(|_| {
                    if rng.below(8) == 0 {
                        rng.pick(&SPECIAL_F64)
                    } else {
                        rng.next() as f64 / 3.0
                    }
                })
                .collect();
            check!(f);
            check!((0..n).map(|_| f32::from_bits(rng.next() as u32)).collect::<Vec<f32>>());
            check!((0..n).map(|_| string(&mut rng, &ALPHABET)).collect::<Vec<String>>());
            check!((0..n).map(|_| vec![rng.next() as i64; n]).collect::<Vec<Vec<i64>>>());
        }
    }

    /// Characters for generated keys and strings: the escaped ones, control
    /// characters (NUL and ESC among them), a combining mark and
    /// multi-byte characters.
    const VALUE_ALPHABET: [char; 14] =
        ['a', ' ', '"', '\\', '/', '\n', '\t', '\r', '\u{0}', '\u{1b}', '\u{301}', 'é', '中', '🎉'];

    fn tree(rng: &mut Rng, depth: usize) -> Value {
        match rng.below(if depth == 0 { 4 } else { 6 }) {
            0 => Value::Null,
            1 => Value::Bool(rng.below(2) == 0),
            2 if rng.below(16) == 0 => Value::Number(rng.pick(&SPECIAL_F64)),
            2 => Value::Number(f64::from_bits(rng.next())),
            3 => Value::String(string(rng, &VALUE_ALPHABET)),
            4 => Value::Array((0..rng.below(4)).map(|_| tree(rng, depth - 1)).collect()),
            _ => Value::Object(
                (0..rng.below(4))
                    .map(|_| (string(rng, &VALUE_ALPHABET), tree(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    #[test]
    fn direct_arm_matches_text_path_for_nested_values() {
        let mut rng = Rng(3);
        for _ in 0..2000 {
            let v = tree(&mut rng, 3);
            check!(&v);
            check!(v);
        }
    }

    /// An operand that converts into a `Value` but has no JSON text.
    #[derive(Clone)]
    struct NoText;

    impl serde::Serialize for NoText {
        fn shim_json(&self) -> String {
            panic!("json! took the text path for an Into<Value> operand")
        }
    }

    impl From<NoText> for Value {
        fn from(_: NoText) -> Value {
            Value::String("direct".into())
        }
    }

    /// The dispatch really takes the direct arm for an `Into<Value> +
    /// Clone` operand: one whose text path panics converts.
    #[test]
    fn value_operands_skip_the_text_round_trip() {
        assert_eq!(json!(NoText), Value::String("direct".into()));
        assert_eq!(json!({"k": NoText})["k"], Value::String("direct".into()));
        let v = Value::String("\u{1}".into());
        assert_eq!(json!(v), v);
        // A type without `Into<Value>` still takes the text path.
        assert_eq!(json!(Some(2.5)), Value::Number(2.5));
        assert_eq!(json!(Option::<f64>::None), Value::Null);
    }

    /// Keys and strings are written as JSON escapes, not Rust `{:?}` ones,
    /// so both forms parse back to the characters written.
    #[test]
    fn written_strings_are_json_and_read_back() {
        let v = json!({"site": "esc\u{1b}x", "e\u{301}": "nul\0", "q\"\\": "\u{7f}"});
        assert_eq!(
            v.compact(),
            "{\"e\u{301}\":\"nul\\u0000\",\"q\\\"\\\\\":\"\u{7f}\",\"site\":\"esc\\u001bx\"}"
        );
        for text in [v.compact(), v.to_string()] {
            assert_eq!(crate::from_str::<Value>(&text).unwrap(), v, "{text}");
        }
    }

    /// The char-at-a-time parser the shim used before it walked bytes,
    /// kept as the reference the byte parser must agree with.
    mod reference {
        use crate::Value;
        use std::collections::BTreeMap;

        /// The same nesting cap as the byte parser.
        const MAX_DEPTH: usize = 128;

        pub fn parse(text: &str) -> Result<Value, String> {
            let chars: Vec<char> = text.chars().collect();
            let mut pos = 0;
            let v = value(&chars, &mut pos, 0)?;
            skip_ws(&chars, &mut pos);
            if pos < chars.len() {
                return Err(format!("trailing characters at offset {}", pos));
            }
            Ok(v)
        }

        fn skip_ws(c: &[char], pos: &mut usize) {
            while *pos < c.len() && c[*pos].is_whitespace() {
                *pos += 1;
            }
        }

        fn peek(c: &[char], pos: &mut usize) -> Option<char> {
            skip_ws(c, pos);
            c.get(*pos).copied()
        }

        fn eat(c: &[char], pos: &mut usize, lit: &str) -> bool {
            skip_ws(c, pos);
            let lit: Vec<char> = lit.chars().collect();
            if c[*pos..].starts_with(&lit) {
                *pos += lit.len();
                true
            } else {
                false
            }
        }

        fn string(c: &[char], pos: &mut usize) -> Result<String, String> {
            skip_ws(c, pos);
            if c.get(*pos) != Some(&'"') {
                return Err("expected string".into());
            }
            *pos += 1;
            let mut out = String::new();
            loop {
                match c.get(*pos).copied() {
                    Some('"') => {
                        *pos += 1;
                        return Ok(out);
                    }
                    Some('\\') => {
                        *pos += 1;
                        match c.get(*pos).copied() {
                            Some('n') => out.push('\n'),
                            Some('t') => out.push('\t'),
                            Some('r') => out.push('\r'),
                            Some('b') => out.push('\u{8}'),
                            Some('f') => out.push('\u{c}'),
                            Some('u') => {
                                let hex: String = c
                                    .get(*pos + 1..*pos + 5)
                                    .ok_or("bad \\u escape")?
                                    .iter()
                                    .collect();
                                let code =
                                    u32::from_str_radix(&hex, 16).map_err(|_| "bad \\u escape")?;
                                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                                *pos += 4;
                            }
                            Some(ch) => out.push(ch),
                            None => return Err("bad escape".into()),
                        }
                        *pos += 1;
                    }
                    Some(ch) => {
                        out.push(ch);
                        *pos += 1;
                    }
                    None => return Err("unterminated string".into()),
                }
            }
        }

        /// A value inside `depth` open arrays and objects.
        fn value(c: &[char], pos: &mut usize, depth: usize) -> Result<Value, String> {
            match peek(c, pos) {
                Some('[' | '{') if depth == MAX_DEPTH => {
                    Err(format!("nested deeper than {MAX_DEPTH} levels"))
                }
                Some('n') if eat(c, pos, "null") => Ok(Value::Null),
                Some('t') if eat(c, pos, "true") => Ok(Value::Bool(true)),
                Some('f') if eat(c, pos, "false") => Ok(Value::Bool(false)),
                Some('"') => Ok(Value::String(string(c, pos)?)),
                Some('[') => {
                    *pos += 1;
                    let mut items = Vec::new();
                    if peek(c, pos) == Some(']') {
                        *pos += 1;
                        return Ok(Value::Array(items));
                    }
                    loop {
                        items.push(value(c, pos, depth + 1)?);
                        match peek(c, pos) {
                            Some(',') => *pos += 1,
                            Some(']') => {
                                *pos += 1;
                                return Ok(Value::Array(items));
                            }
                            _ => return Err("bad array".into()),
                        }
                    }
                }
                Some('{') => {
                    *pos += 1;
                    let mut map = BTreeMap::new();
                    if peek(c, pos) == Some('}') {
                        *pos += 1;
                        return Ok(Value::Object(map));
                    }
                    loop {
                        let k = string(c, pos)?;
                        if peek(c, pos) != Some(':') {
                            return Err("expected colon".into());
                        }
                        *pos += 1;
                        map.insert(k, value(c, pos, depth + 1)?);
                        match peek(c, pos) {
                            Some(',') => *pos += 1,
                            Some('}') => {
                                *pos += 1;
                                return Ok(Value::Object(map));
                            }
                            _ => return Err("bad object".into()),
                        }
                    }
                }
                Some(_) => {
                    skip_ws(c, pos);
                    let start = *pos;
                    while *pos < c.len()
                        && matches!(c[*pos], '0'..='9' | '-' | '+' | '.' | 'e' | 'E')
                    {
                        *pos += 1;
                    }
                    let text: String = c[start..*pos].iter().collect();
                    text.parse().map(Value::Number).map_err(|_| "bad number".to_string())
                }
                None => Err("empty input".into()),
            }
        }
    }

    /// Both parsers give the same answer for `text`: the same tree with
    /// numbers equal bit for bit, or the same error. Returns whether the
    /// document was accepted.
    fn parsers_agree(text: &str) -> bool {
        let (byte, char) = (serde::value::parse(text), reference::parse(text));
        match (&byte, &char) {
            (Ok(b), Ok(c)) => assert!(same_bits(b, c), "{text:?}: {b:?} vs {c:?}"),
            _ => assert_eq!(byte, char, "{text:?}"),
        }
        byte.is_ok()
    }

    /// Whitespace to stray into documents: JSON's own, the rest of Unicode's
    /// (U+00A0 among them), and three look-alikes that are not whitespace.
    const STRAY_WS: [char; 14] = [
        ' ', '\t', '\n', '\r', '\u{b}', '\u{c}', '\u{85}', '\u{a0}', '\u{1680}', '\u{2028}',
        '\u{3000}', '\u{1c}', '\u{200b}', '\u{feff}',
    ];

    /// Every escape the shim reads, and broken ones: short, signed, non-hex
    /// and non-ASCII `\u` digits, surrogates, and a backslash before a
    /// character that has no escape (ASCII or not).
    #[rustfmt::skip]
    const ESCAPES: [&str; 20] = [
        "\\\"", "\\\\", "\\/", "\\b", "\\f", "\\n", "\\r", "\\t", "\\u00e9", "\\u001B", "\\ud83c",
        "\\ud83c\\udf89", "\\u+041", "\\u12", "\\uZZZZ", "\\u00é", "\\x", "\\é", "\\🎉", "\\",
    ];

    /// Multi-byte characters of every UTF-8 length, and a combining mark.
    const MULTI_BYTE: [char; 5] = ['é', '中', '🎉', '\u{301}', '\u{10ffff}'];

    /// Structural bytes a replacement may put anywhere.
    const STRUCTURAL: &[u8] = b"\"\\,:[]{}0-.eE+ntf";

    /// One seeded mutation of `text`: truncation, a stray whitespace
    /// character, an escape, a multi-byte character, a deleted character,
    /// or a byte replaced by a structural one (kept only if still UTF-8).
    fn mutate(rng: &mut Rng, text: &str) -> String {
        let bounds: Vec<usize> = text.char_indices().map(|(i, _)| i).chain([text.len()]).collect();
        let at = bounds[rng.below(bounds.len())];
        let (head, tail) = text.split_at(at);
        match rng.below(6) {
            0 => head.to_string(),
            1 => format!("{head}{}{tail}", rng.pick(&STRAY_WS)),
            2 => format!("{head}{}{tail}", rng.pick(&ESCAPES)),
            3 => format!("{head}{}{tail}", rng.pick(&MULTI_BYTE)),
            4 => format!("{head}{}", tail.chars().skip(1).collect::<String>()),
            _ if text.is_empty() => String::new(),
            _ => {
                let mut bytes = text.as_bytes().to_vec();
                let i = rng.below(bytes.len());
                bytes[i] = rng.pick(STRUCTURAL);
                String::from_utf8(bytes).unwrap_or_else(|_| text.to_string())
            }
        }
    }

    #[test]
    fn byte_parser_matches_reference_on_generated_documents() {
        let mut rng = Rng(0xB17E5);
        let (mut accepted, mut rejected) = (0, 0);
        for _ in 0..3000 {
            let v = tree(&mut rng, 3);
            for text in [v.compact(), v.to_string()] {
                parsers_agree(&text);
                let mut mutated = text.clone();
                for _ in 0..1 + rng.below(3) {
                    mutated = mutate(&mut rng, &mutated);
                }
                if parsers_agree(&mutated) {
                    accepted += 1;
                } else {
                    rejected += 1;
                }
            }
        }
        // Both outcomes are exercised, not just one.
        assert!(accepted > 500 && rejected > 500, "{accepted} accepted, {rejected} rejected");
    }

    /// The grammar's corners: literals cut short, stray commas and colons,
    /// a duplicate key, numbers `f64::from_str` reads or refuses, trailing
    /// tokens, unterminated strings and a bare multi-byte character.
    #[rustfmt::skip]
    const CORNERS: [&str; 35] = [
        "", " ", "nul", "tru", "fals", "null", "nullx", "[1,]", "[,1]", "[1 2]", "{\"a\"1}",
        "{\"a\":}", "{a:1}", "{\"a\":1,}", "{\"a\":1,\"a\":2}", "1e", "+1", ".5", "1.", "--1",
        "1e+", "1E-3", "-0", "-0.0", "1 2", "\"abc", "\"", "é", "[é]", "9007199254740993",
        "1e999", "-1e999", "4.9e-324", "[[[[]]]]", "{\"\":{}}",
    ];

    /// Nesting up to the cap parses, one level more is an error in both
    /// parsers, and so is a line of tens of thousands of `[` that would
    /// overflow a thread's stack without the cap.
    #[test]
    fn nesting_is_capped_at_max_depth() {
        let cap = serde::value::MAX_DEPTH;
        for (open, close) in [("[", "]"), ("{\"k\":", "}"), ("[{\"k\":", "}]")] {
            let levels = open.matches(['[', '{']).count();
            let nested = |n: usize| format!("{}0{}", open.repeat(n), close.repeat(n));
            assert!(parsers_agree(&nested(cap / levels)), "{open}: {cap} levels");
            let over = nested(cap / levels + 1);
            assert!(!parsers_agree(&over), "{open}: {} levels", cap + levels);
            assert!(serde::value::parse(&over).unwrap_err().contains("nested deeper"));
        }
        assert!(!parsers_agree(&"[".repeat(60_000)));
    }

    /// Each escape, whitespace and multi-byte character in each place a
    /// token can sit, plus the grammar's corners.
    #[test]
    fn byte_parser_matches_reference_on_hand_written_documents() {
        let mut docs: Vec<String> = CORNERS.map(String::from).to_vec();
        for e in ESCAPES {
            docs.push(format!("\"{e}\""));
            docs.push(format!("\"a{e}b\""));
            docs.push(format!("{{\"{e}\":1}}"));
        }
        for w in STRAY_WS {
            for doc in ["{w}1{w}", "[{w}1{w},{w}true{w}]{w}", "{w}{{{w}\"k\"{w}:{w}null{w}}}{w}"] {
                docs.push(doc.replace("{w}", &w.to_string()));
            }
            docs.push(format!("\"{w}\""));
        }
        for m in MULTI_BYTE {
            docs.push(format!("\"{m}\""));
            docs.push(format!("[1{m}]"));
            docs.push(format!("{{\"{m}\":\"{m}\"}}"));
            docs.push(format!("{m}"));
        }
        for doc in &docs {
            parsers_agree(doc);
        }
    }
}
