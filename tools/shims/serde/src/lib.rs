//! Offline dev shim for `serde`. The traits carry just enough surface for
//! the shim `serde_derive` to emit real field-wise JSON (de)serialisation
//! and for the shim `serde_json` to expose the usual entry points. Shapes
//! the derive cannot handle fail loudly (panic / `Err`) instead of quietly
//! producing placeholder output. Never shipped.

pub use serde_derive::{Deserialize, Serialize};
use std::fmt::Write as _;

pub mod value;

pub trait Serialize {
    /// Shim hook used by the shim `serde_json`: render self as JSON text.
    /// Implemented by primitives/containers below and by derived impls;
    /// anything left on this default fails loudly.
    fn shim_json(&self) -> String {
        panic!(
            "serde shim cannot serialize {}: no shim_json impl \
             (unsupported shape — use registry crates for real output)",
            std::any::type_name::<Self>()
        );
    }
}

pub trait Deserialize<'de>: Sized {
    /// Build self from a parsed [`value::Value`] tree. Implemented by
    /// primitives/containers below and by derived impls; anything left on
    /// this default fails loudly.
    fn shim_from_value(_v: &value::Value) -> Result<Self, String> {
        Err(format!(
            "serde shim cannot deserialize {}: no shim_from_value impl \
             (unsupported shape — use registry crates)",
            std::any::type_name::<Self>()
        ))
    }

    /// Shim hook used by the shim `serde_json::from_str`.
    fn shim_from_json(text: &str) -> Result<Self, String> {
        Self::shim_from_value(&value::parse(text)?)
    }
}

/// Marker alias used by some generic bounds (`T: de::DeserializeOwned`).
pub mod de {
    pub trait DeserializeOwned: for<'de> super::Deserialize<'de> {}
    impl<T: for<'de> super::Deserialize<'de>> DeserializeOwned for T {}
}

/// Render a string as a JSON string literal (used by derived impls too).
pub fn escape_json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_json_str(&mut out, s);
    out
}

/// Append `s` as a JSON string literal: `"`, `\` and the control
/// characters are escaped, everything else is copied as it stands.
pub(crate) fn write_json_str(out: &mut String, s: &str) {
    out.push('"');
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.push_str(&s[start..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\t' => out.push_str("\\t"),
            b'\r' => out.push_str("\\r"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

macro_rules! impl_int {
    ($($t:ty),*) => {
        $(
            impl Serialize for $t {
                fn shim_json(&self) -> String {
                    format!("{}", self)
                }
            }
            impl<'de> Deserialize<'de> for $t {
                fn shim_from_value(v: &value::Value) -> Result<Self, String> {
                    match v {
                        value::Value::Number(n)
                            if n.fract() == 0.0
                                && *n >= <$t>::MIN as f64
                                && *n <= <$t>::MAX as f64 =>
                        {
                            Ok(*n as $t)
                        }
                        other => Err(format!(
                            "expected {} integer, got {:?}",
                            stringify!($t),
                            other
                        )),
                    }
                }
            }
        )*
    };
}

impl_int!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize);

macro_rules! impl_float {
    ($($t:ty),*) => {
        $(
            impl Serialize for $t {
                fn shim_json(&self) -> String {
                    if self.fract() == 0.0 && self.abs() < 1e15 {
                        format!("{}.0", *self as i64)
                    } else {
                        format!("{}", self)
                    }
                }
            }
            impl<'de> Deserialize<'de> for $t {
                fn shim_from_value(v: &value::Value) -> Result<Self, String> {
                    match v {
                        value::Value::Number(n) => Ok(*n as $t),
                        other => Err(format!("expected number, got {:?}", other)),
                    }
                }
            }
        )*
    };
}

impl_float!(f32, f64);

impl Serialize for bool {
    fn shim_json(&self) -> String {
        if *self { "true".into() } else { "false".into() }
    }
}

impl<'de> Deserialize<'de> for bool {
    fn shim_from_value(v: &value::Value) -> Result<Self, String> {
        match v {
            value::Value::Bool(b) => Ok(*b),
            other => Err(format!("expected bool, got {:?}", other)),
        }
    }
}

impl Serialize for String {
    fn shim_json(&self) -> String {
        escape_json_str(self)
    }
}

impl<'de> Deserialize<'de> for String {
    fn shim_from_value(v: &value::Value) -> Result<Self, String> {
        match v {
            value::Value::String(s) => Ok(s.clone()),
            other => Err(format!("expected string, got {:?}", other)),
        }
    }
}

impl Serialize for str {
    fn shim_json(&self) -> String {
        escape_json_str(self)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn shim_json(&self) -> String {
        let items: Vec<String> = self.iter().map(|v| v.shim_json()).collect();
        format!("[{}]", items.join(","))
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
    fn shim_from_value(v: &value::Value) -> Result<Self, String> {
        match v {
            value::Value::Array(a) => a.iter().map(T::shim_from_value).collect(),
            other => Err(format!("expected array, got {:?}", other)),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn shim_json(&self) -> String {
        match self {
            Some(v) => v.shim_json(),
            None => "null".to_string(),
        }
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn shim_from_value(v: &value::Value) -> Result<Self, String> {
        match v {
            value::Value::Null => Ok(None),
            other => T::shim_from_value(other).map(Some),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn shim_json(&self) -> String {
        (**self).shim_json()
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn shim_json(&self) -> String {
        let items: Vec<String> = self.iter().map(|v| v.shim_json()).collect();
        format!("[{}]", items.join(","))
    }
}

impl<'de, T: Deserialize<'de>, const N: usize> Deserialize<'de> for [T; N] {
    fn shim_from_value(v: &value::Value) -> Result<Self, String> {
        let items: Vec<T> = Vec::shim_from_value(v)?;
        let n = items.len();
        items
            .try_into()
            .map_err(|_| format!("expected array of {} elements, got {}", N, n))
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident . $idx:tt),+)),+ $(,)?) => {
        $(
            impl<$($name: Serialize),+> Serialize for ($($name,)+) {
                fn shim_json(&self) -> String {
                    let items = [$(self.$idx.shim_json()),+];
                    format!("[{}]", items.join(","))
                }
            }
            impl<'de, $($name: Deserialize<'de>),+> Deserialize<'de> for ($($name,)+) {
                fn shim_from_value(v: &value::Value) -> Result<Self, String> {
                    const LEN: usize = [$($idx),+].len();
                    match v {
                        value::Value::Array(a) if a.len() == LEN => {
                            Ok(($($name::shim_from_value(&a[$idx])?,)+))
                        }
                        other => Err(format!(
                            "expected array of {} elements, got {:?}",
                            LEN, other
                        )),
                    }
                }
            }
        )*
    };
}

impl_tuple!(
    (A.0),
    (A.0, B.1),
    (A.0, B.1, C.2),
    (A.0, B.1, C.2, D.3),
);
