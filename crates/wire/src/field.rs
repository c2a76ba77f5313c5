//! One field of a wire layout, and the macro that declares a layout once.
//!
//! Every protocol type is a list of fields: [`Message`](crate::Message) and
//! its parts, [`ObiError`] (below) and the store's `WalRecord`. Each is
//! declared once, with [`wire_layout!`](crate::wire_layout), which derives
//! both the writer and the reader from the declaration, so the two cannot
//! disagree. The field types those lists use implement [`Field`] here.

use crate::codec::{Decoder, Encoder};
use crate::value::ObiValue;
use bytes::Bytes;
use obiwan_util::{ClusterId, ObiError, ObjId, RequestId, Result, SiteId};

/// How one field is written, and read back.
///
/// Unsized forms (`str`, `[T]`) can only be written: they lay borrowed
/// parts out as their owned forms (`String`, `Vec<T>`) are.
pub trait Field {
    /// Writes the field at the end of `enc`.
    fn write_field(&self, enc: &mut Encoder);

    /// Reads what [`write_field`](Field::write_field) wrote.
    ///
    /// # Errors
    ///
    /// [`ObiError::Decode`] on malformed or truncated input.
    fn read_field(dec: &mut Decoder<'_>) -> Result<Self>
    where
        Self: Sized;
}

/// Declares the wire layout of enums and structs that are defined as usual
/// elsewhere, and derives [`Field`] for each from its declaration.
///
/// * `enum Name { Variant = TAG { field, … }, … }`: a tag byte, then the
///   variant's fields in the order listed. Tuple and unit variants use
///   braced syntax: `Tuple = 3 { 0: name }`, `Unit = 2 {}`. One field may
///   follow a `;` as a tail: left out when empty, and read as empty where
///   the input ends before it. An enum of another crate that is
///   `#[non_exhaustive]` ends in `_ => |value| other`: a variant without a
///   line is written as `other`.
/// * `struct Name { field, … }`: the fields in the order listed.
///
/// Each field is read straight into the struct expression, so its type is
/// the declared one, and a missing or misnamed field does not compile. An
/// unknown tag reads as [`ObiError::Decode`]. The invoking crate must
/// depend on `obiwan-util` (the reader returns its `Result`).
#[macro_export]
macro_rules! wire_layout {
    (@bound $field:ident) => { $field };
    (@bound $field:tt $bind:ident) => { $bind };
    () => {};
    (enum $ty:ident {
        $($variant:ident = $tag:tt { $($field:tt $(: $bind:ident)?),* $(; $tail:ident)? }),*
        $(, _ => |$other:ident| $fallback:expr)? $(,)?
    } $($rest:tt)*) => {
        impl $crate::Field for $ty {
            fn write_field(&self, enc: &mut $crate::Encoder) {
                match self {
                    $($ty::$variant { $($field $(: $bind)?,)* $($tail)? } => {
                        enc.put_u8($tag);
                        $(
                            let field = $crate::wire_layout!(@bound $field $($bind)?);
                            $crate::Field::write_field(field, enc);
                        )*
                        $(if !$tail.is_empty() {
                            $crate::Field::write_field($tail, enc);
                        })?
                    })*
                    $($other => $crate::Field::write_field(&$fallback, enc),)?
                }
            }

            fn read_field(dec: &mut $crate::Decoder<'_>) -> ::obiwan_util::Result<Self> {
                Ok(match dec.take_u8()? {
                    $($tag => $ty::$variant {
                        $($field: $crate::Field::read_field(dec)?,)*
                        $($tail: if dec.is_exhausted() {
                            Default::default()
                        } else {
                            $crate::Field::read_field(dec)?
                        },)?
                    },)*
                    tag => {
                        let what = format!("unknown {} tag {}", stringify!($ty), tag);
                        return Err(::obiwan_util::ObiError::Decode(what));
                    }
                })
            }
        }
        $crate::wire_layout!($($rest)*);
    };
    (struct $ty:ident { $($field:ident),* $(,)? } $($rest:tt)*) => {
        impl $crate::Field for $ty {
            fn write_field(&self, enc: &mut $crate::Encoder) {
                let $ty { $($field),* } = self;
                $($crate::Field::write_field($field, enc);)*
            }

            fn read_field(dec: &mut $crate::Decoder<'_>) -> ::obiwan_util::Result<Self> {
                Ok($ty { $($field: $crate::Field::read_field(dec)?),* })
            }
        }
        $crate::wire_layout!($($rest)*);
    };
}

crate::wire_layout! {
    enum ObiError {
        SiteUnreachable = 0 { 0: site },
        Disconnected = 1 { from, to },
        MessageLost = 2 { from, to },
        NoSuchObject = 3 { 0: object },
        NoSuchMethod = 4 { object, method },
        NameNotBound = 5 { 0: name },
        NameAlreadyBound = 6 { 0: name },
        ReentrantInvocation = 7 { 0: object },
        Decode = 8 { 0: message },
        BadArguments = 9 { 0: message },
        UpdateRejected = 10 { object, reason },
        ClusterMember = 11 { 0: object },
        NotReplicated = 12 { 0: object },
        // 13 is retired (a variant nothing constructed): it reads as unknown.
        Application = 14 { 0: message },
        Internal = 15 { 0: message },
        Timeout = 16 { to },
        Storage = 17 { 0: message },
        MovedMaster = 18 { object, to },
        _ => |other| ObiError::Internal(other.to_string()),
    }
}

/// Reads a flag byte: 0 is `false`, 1 is `true`, anything else an error.
fn take_flag(dec: &mut Decoder<'_>, what: &str) -> Result<bool> {
    match dec.take_u8()? {
        0 => Ok(false),
        1 => Ok(true),
        flag => Err(ObiError::Decode(format!("bad {what} flag {flag}"))),
    }
}

/// A varint.
impl Field for u64 {
    fn write_field(&self, enc: &mut Encoder) {
        enc.put_varint(*self);
    }

    fn read_field(dec: &mut Decoder<'_>) -> Result<Self> {
        dec.take_varint()
    }
}

/// A varint; one above `u32::MAX` is a decode error, never truncated.
impl Field for u32 {
    fn write_field(&self, enc: &mut Encoder) {
        enc.put_varint(u64::from(*self));
    }

    fn read_field(dec: &mut Decoder<'_>) -> Result<Self> {
        dec.take_u32()
    }
}

/// One byte, 1 for `true`; any byte but 0 reads as `true`.
impl Field for bool {
    fn write_field(&self, enc: &mut Encoder) {
        enc.put_u8(u8::from(*self));
    }

    fn read_field(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(dec.take_u8()? != 0)
    }
}

impl Field for str {
    fn write_field(&self, enc: &mut Encoder) {
        enc.put_str(self);
    }
}

impl Field for String {
    fn write_field(&self, enc: &mut Encoder) {
        enc.put_str(self);
    }

    fn read_field(dec: &mut Decoder<'_>) -> Result<Self> {
        dec.take_str()
    }
}

impl Field for SiteId {
    fn write_field(&self, enc: &mut Encoder) {
        enc.put_site(*self);
    }

    fn read_field(dec: &mut Decoder<'_>) -> Result<Self> {
        dec.take_site()
    }
}

impl Field for ObjId {
    fn write_field(&self, enc: &mut Encoder) {
        enc.put_obj_id(*self);
    }

    fn read_field(dec: &mut Decoder<'_>) -> Result<Self> {
        dec.take_obj_id()
    }
}

impl Field for RequestId {
    fn write_field(&self, enc: &mut Encoder) {
        enc.put_request_id(*self);
    }

    fn read_field(dec: &mut Decoder<'_>) -> Result<Self> {
        dec.take_request_id()
    }
}

impl Field for ClusterId {
    fn write_field(&self, enc: &mut Encoder) {
        enc.put_cluster_id(*self);
    }

    fn read_field(dec: &mut Decoder<'_>) -> Result<Self> {
        dec.take_cluster_id()
    }
}

impl Field for ObiValue {
    fn write_field(&self, enc: &mut Encoder) {
        enc.put_value(self);
    }

    fn read_field(dec: &mut Decoder<'_>) -> Result<Self> {
        dec.take_value()
    }
}

/// Length-prefixed bytes. Read by a decoder [`over_frame`], a view of the
/// frame; by any other, a copy.
///
/// [`over_frame`]: Decoder::over_frame
impl Field for Bytes {
    fn write_field(&self, enc: &mut Encoder) {
        enc.put_bytes(self);
    }

    fn read_field(dec: &mut Decoder<'_>) -> Result<Self> {
        let frame = dec.frame;
        let raw = dec.take_bytes_ref()?;
        Ok(frame.map_or_else(|| Bytes::copy_from_slice(raw), |f| f.slice_ref(raw)))
    }
}

/// A count, then the items.
impl<T: Field> Field for [T] {
    fn write_field(&self, enc: &mut Encoder) {
        enc.put_varint(self.len() as u64);
        for item in self {
            item.write_field(enc);
        }
    }
}

impl<T: Field> Field for Vec<T> {
    fn write_field(&self, enc: &mut Encoder) {
        self.as_slice().write_field(enc);
    }

    fn read_field(dec: &mut Decoder<'_>) -> Result<Self> {
        let n = dec.take_len()?;
        let mut items = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            items.push(T::read_field(dec)?);
        }
        Ok(items)
    }
}

/// A flag byte, 1 for `Some`, then the value.
impl<T: Field> Field for Option<T> {
    fn write_field(&self, enc: &mut Encoder) {
        enc.put_u8(u8::from(self.is_some()));
        if let Some(v) = self {
            v.write_field(enc);
        }
    }

    fn read_field(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(if take_flag(dec, "option")? {
            Some(T::read_field(dec)?)
        } else {
            None
        })
    }
}

/// A flag byte, 0 for `Ok` and 1 for `Err`, then the value or the error.
impl<T: Field> Field for Result<T> {
    fn write_field(&self, enc: &mut Encoder) {
        enc.put_u8(u8::from(self.is_err()));
        match self {
            Ok(v) => v.write_field(enc),
            Err(e) => e.write_field(enc),
        }
    }

    fn read_field(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(if take_flag(dec, "result")? {
            Err(ObiError::read_field(dec)?)
        } else {
            Ok(T::read_field(dec)?)
        })
    }
}

/// Nothing: the `Ok` of a result that carries no value.
impl Field for () {
    fn write_field(&self, _: &mut Encoder) {}

    fn read_field(_: &mut Decoder<'_>) -> Result<Self> {
        Ok(())
    }
}

impl<A: Field, B: Field> Field for (A, B) {
    fn write_field(&self, enc: &mut Encoder) {
        self.0.write_field(enc);
        self.1.write_field(enc);
    }

    fn read_field(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok((A::read_field(dec)?, B::read_field(dec)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_error(bytes: &[u8]) -> Result<ObiError> {
        ObiError::read_field(&mut Decoder::new(bytes))
    }

    #[test]
    fn errors_roundtrip() {
        let (s1, s2) = (SiteId::new(1), SiteId::new(2));
        let o = ObjId::new(s2, 4);
        for e in [
            ObiError::SiteUnreachable(s1),
            ObiError::Disconnected { from: s1, to: s2 },
            ObiError::NoSuchMethod {
                object: o,
                method: "m".into(),
            },
            ObiError::NameNotBound("n".into()),
            ObiError::UpdateRejected {
                object: o,
                reason: "r".into(),
            },
            ObiError::Timeout { to: s2 },
            ObiError::MovedMaster { object: o, to: s2 },
        ] {
            let mut enc = Encoder::new();
            e.write_field(&mut enc);
            assert_eq!(read_error(&enc.finish()).unwrap(), e);
        }
    }

    #[test]
    fn unknown_error_tags_are_decode_errors() {
        for tag in [19, 200] {
            let mut enc = Encoder::new();
            enc.put_u8(tag);
            enc.put_obj_id(ObjId::new(SiteId::new(2), 4));
            let err = read_error(&enc.finish()).unwrap_err();
            assert!(matches!(err, ObiError::Decode(_)), "tag {tag}: {err}");
        }
    }

    #[test]
    fn flags_other_than_zero_and_one_are_decode_errors() {
        for bytes in [&[2u8][..], &[0xFF, 0]] {
            let err = Option::<u64>::read_field(&mut Decoder::new(bytes)).unwrap_err();
            assert!(matches!(err, ObiError::Decode(_)), "{err}");
            let err = Result::<()>::read_field(&mut Decoder::new(bytes)).unwrap_err();
            assert!(matches!(err, ObiError::Decode(_)), "{err}");
        }
    }

    #[test]
    fn bytes_are_views_of_a_frame_and_copies_otherwise() {
        let mut enc = Encoder::new();
        Bytes::from_static(b"abc").write_field(&mut enc);
        let frame = enc.finish();
        let view = Bytes::read_field(&mut Decoder::over_frame(&frame)).unwrap();
        let copy = Bytes::read_field(&mut Decoder::new(&frame)).unwrap();
        assert_eq!((&view[..], &copy[..]), (&b"abc"[..], &b"abc"[..]));
        assert_eq!(view.as_ptr(), frame[1..].as_ptr());
        assert_ne!(copy.as_ptr(), frame[1..].as_ptr());
    }
}
