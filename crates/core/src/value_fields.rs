//! Field codecs used by generated classes.
//!
//! Every field type usable inside [`obi_class!`](crate::obi_class) implements
//! [`FieldValue`]: its wire form as one tagged value, written and read
//! straight between the field and the codec (no [`ObiValue`] in between),
//! plus enumeration of the object references it contains.

use crate::objref::ObjRef;
use bytes::Bytes;
use obiwan_util::{ObiError, Result};
use obiwan_wire::{Decoder, Encoder, ObiValue};

/// A type that can live in an OBIWAN object field.
pub trait FieldValue: Sized {
    /// Writes the field as one tagged value: exactly the bytes
    /// [`Encoder::put_value`] writes for the field's [`ObiValue`] form.
    fn put(&self, enc: &mut Encoder);

    /// Reads the field from one tagged value written by
    /// [`put`](FieldValue::put).
    ///
    /// # Errors
    ///
    /// [`ObiError::Decode`] when the value's shape does not match, or the
    /// input is malformed or cut short.
    fn take(dec: &mut Decoder<'_>) -> Result<Self>;

    /// Appends every [`ObjRef`] contained in the field to `out`.
    fn collect_obj_refs(&self, out: &mut Vec<ObjRef>) {
        let _ = out;
    }
}

/// Reads one tagged value and keeps it if `pick` says it has the right
/// shape. Scalars only: `ObiValue` is then a tag and a payload, no tree, and
/// the `String`/`Bytes` it allocates are the field's own.
fn take_scalar<T>(
    dec: &mut Decoder<'_>,
    expected: &str,
    pick: impl FnOnce(ObiValue) -> std::result::Result<T, ObiValue>,
) -> Result<T> {
    pick(dec.take_value()?)
        .map_err(|got| ObiError::Decode(format!("expected {expected}, got {}", got.kind())))
}

impl FieldValue for bool {
    fn put(&self, enc: &mut Encoder) {
        enc.put_value(&ObiValue::Bool(*self));
    }

    fn take(dec: &mut Decoder<'_>) -> Result<Self> {
        take_scalar(dec, "bool", |v| v.as_bool().ok_or(v))
    }
}

impl FieldValue for i64 {
    fn put(&self, enc: &mut Encoder) {
        enc.put_value(&ObiValue::I64(*self));
    }

    fn take(dec: &mut Decoder<'_>) -> Result<Self> {
        take_scalar(dec, "i64", |v| v.as_i64().ok_or(v))
    }
}

impl FieldValue for u64 {
    fn put(&self, enc: &mut Encoder) {
        enc.put_value(&ObiValue::I64(*self as i64));
    }

    fn take(dec: &mut Decoder<'_>) -> Result<Self> {
        take_scalar(dec, "i64", |v| v.as_i64().map(|x| x as u64).ok_or(v))
    }
}

impl FieldValue for f64 {
    fn put(&self, enc: &mut Encoder) {
        enc.put_value(&ObiValue::F64(*self));
    }

    fn take(dec: &mut Decoder<'_>) -> Result<Self> {
        take_scalar(dec, "f64", |v| v.as_f64().ok_or(v))
    }
}

impl FieldValue for String {
    fn put(&self, enc: &mut Encoder) {
        enc.put_tagged_str(self);
    }

    fn take(dec: &mut Decoder<'_>) -> Result<Self> {
        take_scalar(dec, "str", |v| match v {
            ObiValue::Str(s) => Ok(s),
            other => Err(other),
        })
    }
}

/// Read into a buffer of its own: a replica owns its bytes and never pins
/// the frame they arrived in.
impl FieldValue for Bytes {
    fn put(&self, enc: &mut Encoder) {
        enc.put_value(&ObiValue::Bytes(self.clone()));
    }

    fn take(dec: &mut Decoder<'_>) -> Result<Self> {
        take_scalar(dec, "bytes", |v| match v {
            ObiValue::Bytes(b) => Ok(b),
            other => Err(other),
        })
    }
}

impl FieldValue for ObjRef {
    fn put(&self, enc: &mut Encoder) {
        enc.put_value(&ObiValue::Ref(self.id()));
    }

    fn take(dec: &mut Decoder<'_>) -> Result<Self> {
        take_scalar(dec, "ref", |v| v.as_ref_id().map(ObjRef::new).ok_or(v))
    }

    fn collect_obj_refs(&self, out: &mut Vec<ObjRef>) {
        out.push(*self);
    }
}

/// `None` is a `Null`.
impl<T: FieldValue> FieldValue for Option<T> {
    fn put(&self, enc: &mut Encoder) {
        match self {
            None => enc.put_value(&ObiValue::Null),
            Some(inner) => inner.put(enc),
        }
    }

    fn take(dec: &mut Decoder<'_>) -> Result<Self> {
        if dec.take_null() {
            Ok(None)
        } else {
            T::take(dec).map(Some)
        }
    }

    fn collect_obj_refs(&self, out: &mut Vec<ObjRef>) {
        if let Some(inner) = self {
            inner.collect_obj_refs(out);
        }
    }
}

impl<T: FieldValue> FieldValue for Vec<T> {
    fn put(&self, enc: &mut Encoder) {
        enc.put_list_header(self.len());
        for item in self {
            item.put(enc);
        }
    }

    fn take(dec: &mut Decoder<'_>) -> Result<Self> {
        let len = dec.take_list_header()?;
        let mut items = Vec::with_capacity(len.min(1024));
        for _ in 0..len {
            items.push(T::take(dec)?);
        }
        Ok(items)
    }

    fn collect_obj_refs(&self, out: &mut Vec<ObjRef>) {
        for item in self {
            item.collect_obj_refs(out);
        }
    }
}

impl FieldValue for ObiValue {
    fn put(&self, enc: &mut Encoder) {
        enc.put_value(self);
    }

    fn take(dec: &mut Decoder<'_>) -> Result<Self> {
        dec.take_value()
    }

    fn collect_obj_refs(&self, out: &mut Vec<ObjRef>) {
        let mut ids = Vec::new();
        self.collect_refs(&mut ids);
        out.extend(ids.into_iter().map(ObjRef::new));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obiwan_util::{ObjId, SiteId};

    fn rref(l: u64) -> ObjRef {
        ObjRef::new(ObjId::new(SiteId::new(1), l))
    }

    /// What `put` writes for `v`.
    fn encoded<T: FieldValue>(v: &T) -> Bytes {
        let mut enc = Encoder::new();
        v.put(&mut enc);
        enc.finish()
    }

    fn roundtrip<T: FieldValue + PartialEq + std::fmt::Debug>(v: T, value: ObiValue) {
        let bytes = encoded(&v);
        let mut tree = Encoder::new();
        tree.put_value(&value);
        assert_eq!(bytes, tree.finish(), "{v:?} is not written as {value:?}");
        let mut dec = Decoder::new(&bytes);
        assert_eq!(T::take(&mut dec).unwrap(), v);
        assert!(dec.is_exhausted());
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(true, ObiValue::Bool(true));
        roundtrip(-42i64, ObiValue::I64(-42));
        roundtrip(42u64, ObiValue::I64(42));
        roundtrip(u64::MAX, ObiValue::I64(-1));
        roundtrip(2.5f64, ObiValue::F64(2.5));
        roundtrip("hi".to_string(), ObiValue::Str("hi".into()));
        roundtrip(Bytes::from_static(b"abc"), ObiValue::Bytes(Bytes::from_static(b"abc")));
        roundtrip(rref(9), ObiValue::Ref(rref(9).id()));
    }

    #[test]
    fn options_and_vectors_roundtrip() {
        roundtrip(Option::<ObjRef>::None, ObiValue::Null);
        roundtrip(Some(rref(3)), ObiValue::Ref(rref(3).id()));
        roundtrip(vec![1i64, 2], ObiValue::List(vec![ObiValue::I64(1), ObiValue::I64(2)]));
        roundtrip(Vec::<String>::new(), ObiValue::List(vec![]));
        roundtrip(
            Some(vec![Some(rref(1)), None]),
            ObiValue::List(vec![ObiValue::Ref(rref(1).id()), ObiValue::Null]),
        );
        let raw = ObiValue::Map(vec![("k".into(), ObiValue::List(vec![]))]);
        roundtrip(raw.clone(), raw);
    }

    #[test]
    fn ref_collection_covers_nesting() {
        let field = vec![Some(rref(1)), None, Some(rref(2))];
        let mut out = Vec::new();
        field.collect_obj_refs(&mut out);
        assert_eq!(out, vec![rref(1), rref(2)]);

        let raw = ObiValue::List(vec![ObiValue::Ref(rref(5).id())]);
        let mut out = Vec::new();
        raw.collect_obj_refs(&mut out);
        assert_eq!(out, vec![rref(5)]);

        let mut out = Vec::new();
        7i64.collect_obj_refs(&mut out);
        assert!(out.is_empty());
    }

    fn take_from<T: FieldValue>(value: ObiValue) -> Result<T> {
        let bytes = encoded(&value);
        T::take(&mut Decoder::new(&bytes))
    }

    #[test]
    fn shape_mismatch_is_a_decode_error() {
        let err = take_from::<i64>(ObiValue::Str("x".into())).unwrap_err();
        assert_eq!(err, ObiError::Decode("expected i64, got str".into()));
        assert!(take_from::<String>(ObiValue::I64(1)).is_err());
        assert!(take_from::<Vec<i64>>(ObiValue::I64(1)).is_err());
        assert!(take_from::<Vec<i64>>(ObiValue::List(vec![ObiValue::Null])).is_err());
        assert!(take_from::<ObjRef>(ObiValue::Null).is_err());
        // But Option accepts Null.
        assert_eq!(take_from::<Option<ObjRef>>(ObiValue::Null).unwrap(), None);
    }

    #[test]
    fn read_bytes_are_the_fields_own() {
        let bytes = encoded(&Bytes::from(vec![7u8; 64]));
        let field = Bytes::take(&mut Decoder::new(&bytes)).unwrap();
        let (at, start) = (field.as_ptr() as usize, bytes.as_ptr() as usize);
        assert!(at + field.len() <= start || start + bytes.len() <= at);
    }
}
