//! Offline stand-in for `serde`.
//!
//! The real serde is a zero-copy serialization *framework*; this
//! workspace only ever drives it through `serde_json`, so the stand-in
//! collapses the framework to a JSON value tree: [`Serialize`] renders
//! a type into a [`Value`], [`Deserialize`] reads one back. The derive
//! macros (re-exported from the sibling `serde_derive` stand-in) target
//! the same encoding upstream `serde_json` uses — named structs become
//! objects, newtypes are transparent, enums are externally tagged — so
//! byte output stays compatible for the shapes the workspace serializes.

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

pub use serde_derive::{Deserialize, Serialize};

/// A deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
}

impl Error {
    /// Creates an error with the given message.
    pub fn new(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for Error {}

/// An insertion-ordered string-keyed map (what `serde_json::Map` is
/// with `preserve_order`; iteration order is insertion order).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Map {
    entries: Vec<(String, Value)>,
}

impl Map {
    /// An empty map.
    pub fn new() -> Self {
        Map::default()
    }

    /// Inserts a key, replacing (in place) any previous value.
    pub fn insert(&mut self, key: impl Into<String>, value: Value) -> Option<Value> {
        let key = key.into();
        for (k, v) in &mut self.entries {
            if *k == key {
                return Some(std::mem::replace(v, value));
            }
        }
        self.entries.push((key, value));
        None
    }

    /// Looks up a key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

impl FromIterator<(String, Value)> for Map {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Self {
        let mut m = Map::new();
        for (k, v) in iter {
            m.insert(k, v);
        }
        m
    }
}

/// A JSON value. Integers keep exact (i128) fidelity; floats are `f64`.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// `null`
    #[default]
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer written without fraction or exponent.
    Int(i128),
    /// A float.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object.
    Object(Map),
}

impl Value {
    /// Object field lookup (used by derived `Deserialize`).
    pub fn get_object_key(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The `(tag, inner)` of a single-key object (externally tagged
    /// enum encoding), if this is one.
    pub fn as_single_key_object(&self) -> Option<(&str, &Value)> {
        match self {
            Value::Object(m) if m.len() == 1 => m.iter().next().map(|(k, v)| (k.as_str(), v)),
            _ => None,
        }
    }

    /// The elements of an array of exactly `n` items.
    pub fn as_array_checked(&self, n: usize, what: &str) -> Result<&[Value], Error> {
        match self {
            Value::Array(a) if a.len() == n => Ok(a),
            other => Err(Error::new(format!(
                "expected {n}-element array for {what}, got {other:?}"
            ))),
        }
    }

    /// The integer content, if any.
    pub fn as_i128(&self) -> Option<i128> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The string content, if any.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The unsigned-integer content, if any.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The float content (integers convert), if any.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The array content, if any.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }
}

static NULL_VALUE: Value = Value::Null;

/// `v["key"]` object lookup; missing keys and non-objects yield `Null`,
/// matching upstream `serde_json`.
impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get_object_key(key).unwrap_or(&NULL_VALUE)
    }
}

/// `v[i]` array lookup; out-of-bounds and non-arrays yield `Null`.
impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        match self {
            Value::Array(a) => a.get(idx).unwrap_or(&NULL_VALUE),
            _ => &NULL_VALUE,
        }
    }
}

impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == Some(other)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<String> for Value {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == Some(other.as_str())
    }
}

impl PartialEq<Value> for str {
    fn eq(&self, other: &Value) -> bool {
        other == self
    }
}

impl PartialEq<Value> for &str {
    fn eq(&self, other: &Value) -> bool {
        other == self
    }
}

impl PartialEq<Value> for String {
    fn eq(&self, other: &Value) -> bool {
        other == self
    }
}

macro_rules! impl_value_int_eq {
    ($($t:ty),*) => {$(
        impl PartialEq<$t> for Value {
            fn eq(&self, other: &$t) -> bool {
                matches!(self, Value::Int(i) if *i == *other as i128)
            }
        }
        impl PartialEq<Value> for $t {
            fn eq(&self, other: &Value) -> bool {
                other == self
            }
        }
    )*};
}

impl_value_int_eq!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Renders a value into the JSON value tree.
pub trait Serialize {
    /// The value-tree encoding of `self`.
    fn to_json_value(&self) -> Value;
}

/// Reads a value back from the JSON value tree.
pub trait Deserialize: Sized {
    /// Decodes `v` into `Self`.
    fn from_json_value(v: &Value) -> Result<Self, Error>;
}

// ---------------------------------------------------------------------
// primitive impls
// ---------------------------------------------------------------------

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_json_value(&self) -> Value {
                Value::Int(*self as i128)
            }
        }
        impl Deserialize for $t {
            fn from_json_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Int(i) => <$t>::try_from(*i)
                        .map_err(|_| Error::new(format!("{i} out of range for {}", stringify!($t)))),
                    other => Err(Error::new(format!(
                        "expected integer, got {other:?}"
                    ))),
                }
            }
        }
    )*};
}

impl_int!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize);

impl Serialize for bool {
    fn to_json_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::new(format!("expected bool, got {other:?}"))),
        }
    }
}

impl Serialize for f64 {
    fn to_json_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl Deserialize for f64 {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Float(x) => Ok(*x),
            Value::Int(i) => Ok(*i as f64),
            other => Err(Error::new(format!("expected number, got {other:?}"))),
        }
    }
}

impl Serialize for f32 {
    fn to_json_value(&self) -> Value {
        Value::Float(f64::from(*self))
    }
}

impl Serialize for String {
    fn to_json_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(Error::new(format!("expected string, got {other:?}"))),
        }
    }
}

impl Serialize for str {
    fn to_json_value(&self) -> Value {
        Value::Str(self.to_owned())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_json_value(&self) -> Value {
        (**self).to_json_value()
    }
}

/// A box encodes exactly as what it holds: boxing a field changes its
/// layout in memory, never its bytes on the wire.
impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_json_value(&self) -> Value {
        (**self).to_json_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        T::from_json_value(v).map(Box::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_json_value(&self) -> Value {
        match self {
            Some(x) => x.to_json_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => Ok(Some(T::from_json_value(other)?)),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_json_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_json_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(a) => a.iter().map(T::from_json_value).collect(),
            other => Err(Error::new(format!("expected array, got {other:?}"))),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_json_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_json_value).collect())
    }
}

impl<T: Serialize + Ord> Serialize for BTreeSet<T> {
    fn to_json_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_json_value).collect())
    }
}

impl<T: Deserialize + Ord> Deserialize for BTreeSet<T> {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(a) => a.iter().map(T::from_json_value).collect(),
            other => Err(Error::new(format!("expected array, got {other:?}"))),
        }
    }
}

/// Map keys serialize as JSON object keys (strings), like upstream.
pub trait MapKey: Sized {
    /// The string form of the key.
    fn to_key(&self) -> String;
    /// Parses the key back.
    fn from_key(s: &str) -> Result<Self, Error>;
}

impl MapKey for String {
    fn to_key(&self) -> String {
        self.clone()
    }
    fn from_key(s: &str) -> Result<Self, Error> {
        Ok(s.to_owned())
    }
}

macro_rules! impl_map_key_int {
    ($($t:ty),*) => {$(
        impl MapKey for $t {
            fn to_key(&self) -> String {
                self.to_string()
            }
            fn from_key(s: &str) -> Result<Self, Error> {
                s.parse().map_err(|_| {
                    Error::new(format!("bad {} object key: {s:?}", stringify!($t)))
                })
            }
        }
    )*};
}

impl_map_key_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<K: MapKey + Ord, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_json_value(&self) -> Value {
        let mut m = Map::new();
        for (k, v) in self {
            m.insert(k.to_key(), v.to_json_value());
        }
        Value::Object(m)
    }
}

impl<K: MapKey + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Object(m) => m
                .iter()
                .map(|(k, v)| Ok((K::from_key(k)?, V::from_json_value(v)?)))
                .collect(),
            other => Err(Error::new(format!("expected object, got {other:?}"))),
        }
    }
}

impl<K: MapKey + Eq + std::hash::Hash, V: Serialize> Serialize for HashMap<K, V> {
    fn to_json_value(&self) -> Value {
        // deterministic output: sort by rendered key
        let mut pairs: Vec<(String, Value)> = self
            .iter()
            .map(|(k, v)| (k.to_key(), v.to_json_value()))
            .collect();
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Object(pairs.into_iter().collect())
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident . $idx:tt),+)),+ $(,)?) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_json_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_json_value()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_json_value(v: &Value) -> Result<Self, Error> {
                const N: usize = 0 $(+ { let _ = $idx; 1 })+;
                let a = v.as_array_checked(N, "tuple")?;
                Ok(($($name::from_json_value(&a[$idx])?,)+))
            }
        }
    )+};
}

impl_tuple!((A.0), (A.0, B.1), (A.0, B.1, C.2), (A.0, B.1, C.2, D.3),);

impl Serialize for Value {
    fn to_json_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

impl Serialize for Map {
    fn to_json_value(&self) -> Value {
        Value::Object(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_insertion_order_and_replaces() {
        let mut m = Map::new();
        m.insert("b", Value::Int(1));
        m.insert("a", Value::Int(2));
        assert!(m.insert("b", Value::Int(3)).is_some());
        let keys: Vec<&String> = m.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, ["b", "a"]);
        assert_eq!(m.get("b"), Some(&Value::Int(3)));
    }

    #[test]
    fn option_roundtrip() {
        let some: Option<u64> = Some(7);
        let none: Option<u64> = None;
        assert_eq!(some.to_json_value(), Value::Int(7));
        assert_eq!(none.to_json_value(), Value::Null);
        assert_eq!(Option::<u64>::from_json_value(&Value::Null).unwrap(), None);
        assert_eq!(
            Option::<u64>::from_json_value(&Value::Int(7)).unwrap(),
            Some(7)
        );
    }

    #[test]
    fn btreemap_uses_string_keys() {
        let mut m = BTreeMap::new();
        m.insert(3usize, vec![1u64, 2]);
        let v = m.to_json_value();
        assert_eq!(
            v.get_object_key("3"),
            Some(&Value::Array(vec![Value::Int(1), Value::Int(2)]))
        );
        let back: BTreeMap<usize, Vec<u64>> = Deserialize::from_json_value(&v).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn tuple_roundtrip() {
        let t = (1usize, 2u64, Some("x".to_string()));
        let v = t.to_json_value();
        let back: (usize, u64, Option<String>) = Deserialize::from_json_value(&v).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn a_box_encodes_as_its_contents() {
        let t = (3usize, Some(7u64));
        let boxed = Box::new(t);
        assert_eq!(boxed.to_json_value(), t.to_json_value());
        let back: Box<(usize, Option<u64>)> =
            Deserialize::from_json_value(&t.to_json_value()).unwrap();
        assert_eq!(back, boxed);
    }

    #[test]
    fn int_range_checked() {
        let v = Value::Int(300);
        assert!(u8::from_json_value(&v).is_err());
        assert_eq!(u16::from_json_value(&v).unwrap(), 300);
    }
}
