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
/// * `struct Name { field, … }`: the fields in the order listed. A field
///   written `field as Adapter` is written and read by `Adapter`'s
///   `write_field` and `read_field` instead of its type's [`Field`] impl
///   (`ClassName`, the class of a replica or frontier edge, is the one such
///   adapter).
///
/// Each field is read straight into the struct expression, so its type is
/// the declared one, and a missing or misnamed field does not compile. An
/// unknown tag reads as [`ObiError::Decode`]. The invoking crate must
/// depend on `obiwan-util` (the reader returns its `Result`).
#[macro_export]
macro_rules! wire_layout {
    (@bound $field:ident) => { $field };
    (@bound $field:tt $bind:ident) => { $bind };
    (@write $field:ident $enc:ident) => { $crate::Field::write_field($field, $enc) };
    (@write $field:ident $enc:ident $adapter:ident) => { $adapter::write_field($field, $enc) };
    (@read $dec:ident) => { $crate::Field::read_field($dec)? };
    (@read $dec:ident $adapter:ident) => { $adapter::read_field($dec)? };
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
    (struct $ty:ident { $($field:ident $(as $adapter:ident)?),* $(,)? } $($rest:tt)*) => {
        impl $crate::Field for $ty {
            fn write_field(&self, enc: &mut $crate::Encoder) {
                let $ty { $($field),* } = self;
                $($crate::wire_layout!(@write $field enc $($adapter)?);)*
            }

            fn read_field(dec: &mut $crate::Decoder<'_>) -> ::obiwan_util::Result<Self> {
                Ok($ty { $($field: $crate::wire_layout!(@read dec $($adapter)?)),* })
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

/// How the frame being written or read lays out class names (see
/// [`ClassName`]).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) enum Classes<T> {
    /// As plain strings: outside a message frame (a `WalRecord`).
    #[default]
    Plain,
    /// In runs: inside a message frame, which holds the last class written
    /// out in full in it, if any (its span for an encoder, the name for a
    /// decoder).
    Run(Option<T>),
}

/// The class of a replica or frontier edge, as a `wire_layout!` adapter
/// (`class as ClassName`). In a message frame it is a varint `len + 1` and
/// the name, or a single `0` for "the class of the entry just before it in
/// this frame": a batch's replicas, then its frontier edges, each run on
/// from the one before, and so do the entries of a `put`, a push and a
/// handoff. Each frame starts afresh, so every chunk of a stream decodes on
/// its own. Outside a message frame (a `WalRecord`'s deltas) it is a plain
/// string, so the log's layout does not depend on which entries share a
/// record.
pub(crate) struct ClassName;

impl ClassName {
    pub(crate) fn write_field(class: &str, enc: &mut Encoder) {
        let Classes::Run(last) = &enc.classes else {
            return enc.put_str(class);
        };
        if last.clone().is_some_and(|span| enc.written()[span] == *class.as_bytes()) {
            return enc.put_u8(0);
        }
        enc.put_varint(class.len() as u64 + 1);
        let start = enc.len();
        enc.put_raw(class.as_bytes());
        enc.classes = Classes::Run(Some(start..enc.len()));
    }

    pub(crate) fn read_field(dec: &mut Decoder<'_>) -> Result<String> {
        let Classes::Run(last) = dec.classes else {
            return dec.take_str();
        };
        let class = match dec.take_len()? {
            0 => last.ok_or_else(|| {
                ObiError::Decode("class 0 with no class before it in its frame".into())
            })?,
            len => dec.take_utf8(len - 1)?,
        };
        dec.classes = Classes::Run(Some(class));
        Ok(class.to_owned())
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
