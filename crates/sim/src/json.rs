//! Minimal, dependency-free JSON emission.
//!
//! The workspace runs in fully offline environments, so machine-readable
//! experiment output cannot lean on `serde`/`serde_json`. This module
//! provides the small subset we need: an owned [`Json`] value tree, a
//! [`ToJson`] conversion trait with impls for the primitives and std
//! containers used in results, and compact/pretty renderers.
//!
//! Rendering is deterministic by construction: object keys keep insertion
//! order (callers build from ordered data — a `BTreeMap` or struct fields in
//! declaration order), and floats use Rust's shortest-roundtrip `Display`,
//! which is platform-independent. Non-finite floats render as `null`, as in
//! `serde_json`.
//!
//! The [`impl_to_json_struct!`](crate::impl_to_json_struct) macro derives a
//! field-by-field [`ToJson`] impl for result structs, replacing
//! `#[derive(Serialize)]`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// An owned JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Signed integer (rendered without a decimal point).
    Int(i64),
    /// Unsigned integer (rendered without a decimal point).
    UInt(u64),
    /// Floating point; NaN and infinities render as `null`.
    Float(f64),
    /// String (escaped on render).
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object; key order is preserved as built.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn obj(pairs: Vec<(String, Json)>) -> Json {
        Json::Obj(pairs)
    }

    /// Renders without whitespace.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders with two-space indentation, like `serde_json::to_string_pretty`.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Json::Float(f) => write_float(out, *f),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
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
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }
}

/// A numeric token that round-trips as a float: an integral value keeps a
/// `.0` or an exponent, so a reader does not take it for an integer.
fn write_float(out: &mut String, f: f64) {
    if !f.is_finite() {
        out.push_str("null");
    } else if f.fract() == 0.0 {
        // `Display` would print an integer token. `Debug` prints the
        // shortest form: the integer's digits and `.0` below 10¹⁶, `-0.0`
        // for −0 — what `{:.1}` printed, without its exact-mode formatter —
        // and an exponent from 10¹⁶ up (`1e16`).
        let _ = write!(out, "{f:?}");
    } else {
        let _ = write!(out, "{f}");
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

/// Conversion into a [`Json`] value; the workspace's replacement for
/// `serde::Serialize`.
pub trait ToJson {
    /// Converts `self` into an owned JSON value tree.
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_owned())
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Float(*self)
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Json {
        Json::Float(f64::from(*self))
    }
}

macro_rules! impl_to_json_int {
    ($($signed:ty),* ; $($unsigned:ty),*) => {
        $(impl ToJson for $signed {
            fn to_json(&self) -> Json { Json::Int(i64::from(*self)) }
        })*
        $(impl ToJson for $unsigned {
            fn to_json(&self) -> Json { Json::UInt(u64::from(*self)) }
        })*
    };
}
impl_to_json_int!(i8, i16, i32, i64 ; u8, u16, u32, u64);

impl ToJson for usize {
    fn to_json(&self) -> Json {
        Json::UInt(*self as u64)
    }
}

impl ToJson for isize {
    fn to_json(&self) -> Json {
        Json::Int(*self as i64)
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (*self).to_json()
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<K: ToString, V: ToJson> ToJson for BTreeMap<K, V> {
    fn to_json(&self) -> Json {
        Json::Obj(
            self.iter()
                .map(|(k, v)| (k.to_string(), v.to_json()))
                .collect(),
        )
    }
}

/// Implements [`ToJson`] for a struct by listing its fields, in the order
/// they should appear in the output object:
///
/// ```
/// use riot_sim::{impl_to_json_struct, json::ToJson};
///
/// struct Row { name: String, score: f64 }
/// impl_to_json_struct!(Row { name, score });
/// assert_eq!(
///     Row { name: "a".into(), score: 1.5 }.to_json().render(),
///     r#"{"name":"a","score":1.5}"#
/// );
/// ```
#[macro_export]
macro_rules! impl_to_json_struct {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Obj(vec![
                    $((stringify!($field).to_owned(), $crate::json::ToJson::to_json(&self.$field)),)+
                ])
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::Int(-3).render(), "-3");
        assert_eq!(Json::UInt(7).render(), "7");
        assert_eq!(Json::Float(1.5).render(), "1.5");
        assert_eq!(Json::Float(2.0).render(), "2.0");
        assert_eq!(Json::Float(f64::NAN).render(), "null");
        assert_eq!(Json::Str("a\"b\n".into()).render(), r#""a\"b\n""#);
    }

    #[test]
    fn integral_floats_render_as_float_tokens() {
        // Below 10¹⁵: exactly what `{:.1}` printed, over every magnitude.
        let mut rng = crate::SimRng::seed_from(3);
        let mut values = vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            999_999_999_999_999.0,
            -999_999_999_999_999.0,
        ];
        for _ in 0..10_000 {
            let digits = rng.range_u64(1, 16) as u32;
            let magnitude = rng.range_u64(0, 10u64.pow(digits));
            let sign = if rng.chance(0.5) { -1.0 } else { 1.0 };
            values.push(sign * magnitude as f64);
        }
        for f in values {
            assert_eq!(Json::Float(f).render(), format!("{f:.1}"), "{f:e}");
        }
        // From 10¹⁵ up: a float token that parses back to the same value.
        let two_53 = 2f64.powi(53);
        for f in [1e15, -1e15, two_53, -two_53, 1e16, 1e300, -1e300] {
            let token = Json::Float(f).render();
            assert!(token.contains(['.', 'e']), "{token} is an integer token");
            assert_eq!(token.parse::<f64>(), Ok(f), "{token}");
        }
    }

    #[test]
    fn containers_render() {
        let v = vec![1u64, 2, 3].to_json();
        assert_eq!(v.render(), "[1,2,3]");
        let obj = Json::Obj(vec![
            ("a".into(), Json::UInt(1)),
            ("b".into(), Json::Arr(vec![])),
        ]);
        assert_eq!(obj.render(), r#"{"a":1,"b":[]}"#);
    }

    #[test]
    fn pretty_matches_two_space_style() {
        let obj = Json::Obj(vec![("k".into(), Json::Arr(vec![Json::UInt(1)]))]);
        assert_eq!(obj.pretty(), "{\n  \"k\": [\n    1\n  ]\n}");
    }

    #[test]
    fn struct_macro_emits_fields_in_order() {
        struct Row {
            name: String,
            n: u64,
        }
        impl_to_json_struct!(Row { name, n });
        let row = Row {
            name: "x".into(),
            n: 9,
        };
        assert_eq!(row.to_json().render(), r#"{"name":"x","n":9}"#);
    }

    #[test]
    fn option_and_map() {
        let some: Option<u64> = Some(4);
        let none: Option<u64> = None;
        assert_eq!(some.to_json().render(), "4");
        assert_eq!(none.to_json().render(), "null");
        let mut m = BTreeMap::new();
        m.insert("z", 1u64);
        m.insert("a", 2u64);
        assert_eq!(m.to_json().render(), r#"{"a":2,"z":1}"#);
    }

    #[test]
    fn control_chars_escape() {
        assert_eq!(Json::Str("\u{1}".into()).render(), "\"\\u0001\"");
    }
}
