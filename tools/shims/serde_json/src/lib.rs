//! Offline dev shim for `serde_json`: a small JSON value type plus the
//! `json!` macro and string (de)serialisation entry points. Derived types
//! serialise field-wise via the shim `serde::Serialize` hook; unsupported
//! shapes fail loudly there instead of producing placeholders. Never
//! shipped.

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

#[derive(Debug)]
pub struct Error(pub String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "serde_json shim error: {}", self.0)
    }
}

impl std::error::Error for Error {}

pub type Result<T> = std::result::Result<T, Error>;

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
        let _ = match self {
            Value::Null => write!(out, "null"),
            Value::Bool(b) => write!(out, "{b}"),
            Value::Number(n) if n.fract() == 0.0 && n.abs() < 1e15 => write!(out, "{}", *n as i64),
            Value::Number(n) => write!(out, "{n}"),
            Value::String(s) => write!(out, "{s:?}"),
            Value::Array(a) => {
                out.push('[');
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_compact(out);
                }
                out.push(']');
                Ok(())
            }
            Value::Object(m) => {
                out.push('{');
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{k:?}:");
                    v.write_compact(out);
                }
                out.push('}');
                Ok(())
            }
        };
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
                    let _ = write!(out, "{k:?}: ");
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

impl serde::Serialize for Value {
    fn shim_json(&self) -> String {
        self.to_string()
    }
}

impl<'de> serde::Deserialize<'de> for Value {
    fn shim_from_value(v: &serde::value::ShimValue) -> std::result::Result<Self, String> {
        use serde::value::ShimValue;
        Ok(match v {
            ShimValue::Null => Value::Null,
            ShimValue::Bool(b) => Value::Bool(*b),
            ShimValue::Number(n) => Value::Number(*n),
            ShimValue::String(s) => Value::String(s.clone()),
            ShimValue::Array(a) => Value::Array(
                a.iter()
                    .map(Self::shim_from_value)
                    .collect::<std::result::Result<_, _>>()?,
            ),
            ShimValue::Object(m) => Value::Object(
                m.iter()
                    .map(|(k, x)| Ok((k.clone(), Self::shim_from_value(x)?)))
                    .collect::<std::result::Result<_, String>>()?,
            ),
        })
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
        Value::Number(serde::Serialize::shim_json(&v).parse().unwrap_or(f64::NAN))
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
/// the whole operand becomes `null`. (Strings nested in a `Value` are kept
/// as they are; the text path would garble the few that `{:?}` escapes as
/// `\0` or `\u{..}`.)
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

    /// Characters whose `{:?}` form the shim parser reads back; see
    /// `as_if_reparsed` for the ones it does not.
    const VALUE_ALPHABET: [char; 11] =
        ['a', ' ', '"', '\\', '/', '\n', '\t', '\r', 'é', '中', '🎉'];

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

    /// The dispatch really takes the direct arm for a `Value`: a string the
    /// text path cannot carry survives it.
    #[test]
    fn value_operands_skip_the_text_round_trip() {
        let v = Value::String("\u{1}".into());
        assert_eq!(shim_to_value(&v), Value::Null);
        assert_eq!(json!(v), v);
        // A type without `Into<Value>` still takes the text path.
        assert_eq!(json!(Some(2.5)), Value::Number(2.5));
        assert_eq!(json!(Option::<f64>::None), Value::Null);
    }
}
