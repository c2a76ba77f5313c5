//! The dynamic value model.
//!
//! OBIWAN objects expose dynamically dispatched methods (the paper's
//! "invocation only through methods" rule, §2.1). Arguments, results and
//! serialized field state are all [`ObiValue`]s — the Rust analogue of the
//! `Object`-typed parameters in the paper's `IProvide`/`IDemand` interfaces.

use bytes::Bytes;
use obiwan_util::ObjId;
use std::fmt;

/// A dynamically typed OBIWAN value.
///
/// `Ref` carries an object identifier: references never cross the wire as
/// pointers, only as ids that the receiving object space resolves (and, on
/// fault, replicates).
///
/// # Examples
///
/// ```
/// use obiwan_wire::ObiValue;
/// let v = ObiValue::from("hello");
/// assert_eq!(v.as_str(), Some("hello"));
/// assert_eq!(ObiValue::from(3i64).as_i64(), Some(3));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub enum ObiValue {
    /// The absence of a value (Java `null`).
    #[default]
    Null,
    /// A boolean.
    Bool(bool),
    /// A 64-bit signed integer.
    I64(i64),
    /// A 64-bit float.
    F64(f64),
    /// A UTF-8 string.
    Str(String),
    /// An opaque byte payload (cheaply cloneable).
    Bytes(Bytes),
    /// An ordered list of values.
    List(Vec<ObiValue>),
    /// An ordered map of string keys to values (order is preserved on the
    /// wire, so encoding is deterministic).
    Map(Vec<(String, ObiValue)>),
    /// A reference to an OBIWAN object, by id.
    Ref(ObjId),
}

impl ObiValue {
    /// Returns the contained boolean, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            ObiValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the contained integer, if this is an `I64`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            ObiValue::I64(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the contained float, if this is an `F64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            ObiValue::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the contained string slice, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            ObiValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the contained bytes, if this is a `Bytes`.
    pub fn as_bytes(&self) -> Option<&Bytes> {
        match self {
            ObiValue::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// Returns the contained object reference, if this is a `Ref`.
    pub fn as_ref_id(&self) -> Option<ObjId> {
        match self {
            ObiValue::Ref(id) => Some(*id),
            _ => None,
        }
    }

    /// Looks up a key in a `Map` value.
    pub fn get(&self, key: &str) -> Option<&ObiValue> {
        match self {
            ObiValue::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// True for `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, ObiValue::Null)
    }

    /// Collects every [`ObjId`] reachable inside this value (depth-first,
    /// in encounter order). Used by object spaces to discover out-edges
    /// hidden inside argument payloads.
    pub fn collect_refs(&self, out: &mut Vec<ObjId>) {
        match self {
            ObiValue::Ref(id) => out.push(*id),
            ObiValue::List(items) => {
                for item in items {
                    item.collect_refs(out);
                }
            }
            ObiValue::Map(entries) => {
                for (_, v) in entries {
                    v.collect_refs(out);
                }
            }
            _ => {}
        }
    }

    /// A short tag naming this variant, for diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            ObiValue::Null => "null",
            ObiValue::Bool(_) => "bool",
            ObiValue::I64(_) => "i64",
            ObiValue::F64(_) => "f64",
            ObiValue::Str(_) => "str",
            ObiValue::Bytes(_) => "bytes",
            ObiValue::List(_) => "list",
            ObiValue::Map(_) => "map",
            ObiValue::Ref(_) => "ref",
        }
    }
}

impl fmt::Display for ObiValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObiValue::Null => write!(f, "null"),
            ObiValue::Bool(b) => write!(f, "{b}"),
            ObiValue::I64(v) => write!(f, "{v}"),
            ObiValue::F64(v) => write!(f, "{v}"),
            ObiValue::Str(s) => write!(f, "{s:?}"),
            ObiValue::Bytes(b) => write!(f, "bytes[{}]", b.len()),
            ObiValue::List(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            ObiValue::Map(entries) => {
                write!(f, "{{")?;
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k}: {v}")?;
                }
                write!(f, "}}")
            }
            ObiValue::Ref(id) => write!(f, "ref({id})"),
        }
    }
}

impl From<bool> for ObiValue {
    fn from(v: bool) -> Self {
        ObiValue::Bool(v)
    }
}

impl From<i64> for ObiValue {
    fn from(v: i64) -> Self {
        ObiValue::I64(v)
    }
}

impl From<i32> for ObiValue {
    fn from(v: i32) -> Self {
        ObiValue::I64(v as i64)
    }
}

impl From<u32> for ObiValue {
    fn from(v: u32) -> Self {
        ObiValue::I64(v as i64)
    }
}

impl From<f64> for ObiValue {
    fn from(v: f64) -> Self {
        ObiValue::F64(v)
    }
}

impl From<&str> for ObiValue {
    fn from(v: &str) -> Self {
        ObiValue::Str(v.to_owned())
    }
}

impl From<String> for ObiValue {
    fn from(v: String) -> Self {
        ObiValue::Str(v)
    }
}

impl From<Bytes> for ObiValue {
    fn from(v: Bytes) -> Self {
        ObiValue::Bytes(v)
    }
}

impl From<Vec<u8>> for ObiValue {
    fn from(v: Vec<u8>) -> Self {
        ObiValue::Bytes(Bytes::from(v))
    }
}

impl From<ObjId> for ObiValue {
    fn from(v: ObjId) -> Self {
        ObiValue::Ref(v)
    }
}

impl<T: Into<ObiValue>> From<Vec<T>> for ObiValue {
    fn from(v: Vec<T>) -> Self {
        ObiValue::List(v.into_iter().map(Into::into).collect())
    }
}

impl FromIterator<ObiValue> for ObiValue {
    fn from_iter<I: IntoIterator<Item = ObiValue>>(iter: I) -> Self {
        ObiValue::List(iter.into_iter().collect())
    }
}

impl FromIterator<(String, ObiValue)> for ObiValue {
    fn from_iter<I: IntoIterator<Item = (String, ObiValue)>>(iter: I) -> Self {
        ObiValue::Map(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obiwan_util::SiteId;

    fn oid(s: u32, l: u64) -> ObjId {
        ObjId::new(SiteId::new(s), l)
    }

    #[test]
    fn accessors_match_variants() {
        assert_eq!(ObiValue::Bool(true).as_bool(), Some(true));
        assert_eq!(ObiValue::I64(-7).as_i64(), Some(-7));
        assert_eq!(ObiValue::F64(1.5).as_f64(), Some(1.5));
        assert_eq!(ObiValue::from("x").as_str(), Some("x"));
        assert_eq!(ObiValue::Ref(oid(1, 2)).as_ref_id(), Some(oid(1, 2)));
        assert!(ObiValue::Null.is_null());
        assert_eq!(ObiValue::Null.as_i64(), None);
        assert_eq!(ObiValue::I64(1).as_str(), None);
    }

    #[test]
    fn map_get_finds_keys_in_order() {
        let m: ObiValue = vec![
            ("a".to_string(), ObiValue::I64(1)),
            ("b".to_string(), ObiValue::I64(2)),
        ]
        .into_iter()
        .collect();
        assert_eq!(m.get("b"), Some(&ObiValue::I64(2)));
        assert_eq!(m.get("z"), None);
        assert_eq!(ObiValue::I64(1).get("a"), None);
    }

    #[test]
    fn collect_refs_walks_nested_structure() {
        let v = ObiValue::List(vec![
            ObiValue::Ref(oid(1, 1)),
            ObiValue::Map(vec![
                ("k".into(), ObiValue::Ref(oid(2, 2))),
                ("l".into(), ObiValue::List(vec![ObiValue::Ref(oid(3, 3))])),
            ]),
            ObiValue::I64(9),
        ]);
        let mut refs = Vec::new();
        v.collect_refs(&mut refs);
        assert_eq!(refs, vec![oid(1, 1), oid(2, 2), oid(3, 3)]);
    }

    #[test]
    fn conversions_produce_expected_variants() {
        assert_eq!(ObiValue::from(3i32), ObiValue::I64(3));
        assert_eq!(ObiValue::from(4u32), ObiValue::I64(4));
        assert_eq!(ObiValue::from(vec![1i64, 2]), ObiValue::List(vec![1i64.into(), 2i64.into()]));
        let b: ObiValue = vec![1u8, 2, 3].into();
        assert_eq!(b.as_bytes().unwrap().as_ref(), &[1, 2, 3]);
    }

    #[test]
    fn display_is_never_empty() {
        let values = [
            ObiValue::Null,
            ObiValue::Bool(false),
            ObiValue::List(vec![]),
            ObiValue::Map(vec![]),
            ObiValue::Bytes(Bytes::new()),
        ];
        for v in values {
            assert!(!v.to_string().is_empty());
            assert!(!v.kind().is_empty());
        }
    }
}
