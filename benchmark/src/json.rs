//! Shorthands for building `serde_json::Value`s.

use serde_json::Value;

pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// A JSON number; NaN and infinities (an empty histogram's mean, a ratio
/// with nothing beneath it) become 0, which JSON can carry.
pub fn num(v: f64) -> Value {
    Value::Number(if v.is_finite() { v } else { 0.0 })
}

pub fn text(s: impl Into<String>) -> Value {
    Value::String(s.into())
}

/// `{name: number}` from a list of pairs.
pub fn nums<K: Into<String>>(pairs: impl IntoIterator<Item = (K, f64)>) -> Value {
    obj(pairs.into_iter().map(|(k, v)| (k, num(v))))
}
