//! Compact binary encoder/decoder.
//!
//! Layout rules:
//!
//! * scalars are little-endian, lengths and unsigned integers are LEB128
//!   varints, signed integers are zig-zag varints;
//! * every [`ObiValue`] is prefixed by a one-byte tag, making the stream
//!   self-describing;
//! * decoding is total: malformed input yields [`ObiError::Decode`], never a
//!   panic.

use crate::field::Classes;
use crate::value::ObiValue;
use bytes::{Bytes, BytesMut};
use obiwan_util::{ClusterId, ObiError, ObjId, RequestId, Result, SiteId};
use std::ops::Range;

const TAG_NULL: u8 = 0;
const TAG_BOOL_FALSE: u8 = 1;
const TAG_BOOL_TRUE: u8 = 2;
const TAG_I64: u8 = 3;
const TAG_F64: u8 = 4;
const TAG_STR: u8 = 5;
const TAG_BYTES: u8 = 6;
const TAG_LIST: u8 = 7;
const TAG_MAP: u8 = 8;
const TAG_REF: u8 = 9;

/// Maximum collection length accepted by the decoder; guards against
/// adversarial or corrupt length prefixes allocating unbounded memory.
const MAX_LEN: u64 = 1 << 28;

/// The longest varint: a `u64` in 7-bit groups.
pub(crate) const MAX_VARINT: usize = 10;

/// Bytes [`Encoder::put_varint`] writes for `v`.
pub(crate) fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Writes `v` as [`Encoder::put_varint`] would at the front of `out`, which
/// must hold [`varint_len`]`(v)` bytes, and returns how many it wrote.
pub(crate) fn write_varint(out: &mut [u8], mut v: u64) -> usize {
    let mut n = 0;
    while v >= 0x80 {
        out[n] = (v & 0x7f) as u8 | 0x80;
        v >>= 7;
        n += 1;
    }
    out[n] = v as u8;
    n + 1
}

/// A growable buffer that serializes OBIWAN primitives.
///
/// # Examples
///
/// ```
/// use obiwan_wire::{Encoder, Decoder};
///
/// # fn main() -> obiwan_util::Result<()> {
/// let mut enc = Encoder::new();
/// enc.put_varint(300);
/// enc.put_str("abc");
/// let bytes = enc.finish();
/// let mut dec = Decoder::new(&bytes);
/// assert_eq!(dec.take_varint()?, 300);
/// assert_eq!(dec.take_str()?, "abc");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct Encoder {
    buf: BytesMut,
    /// How class names are written ([`ClassName`](crate::field::ClassName)).
    pub(crate) classes: Classes<Range<usize>>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// Creates an encoder with `cap` bytes preallocated.
    pub fn with_capacity(cap: usize) -> Self {
        Encoder { buf: BytesMut::with_capacity(cap), ..Encoder::default() }
    }

    /// Continues encoding at the end of `buf`, whose bytes are kept: lets
    /// a caller lay several encodings (or its own framing) into one buffer.
    pub fn over(buf: Vec<u8>) -> Self {
        Encoder { buf: BytesMut::from(buf), ..Encoder::default() }
    }

    /// The bytes written so far.
    pub(crate) fn written(&self) -> &[u8] {
        &self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the encoder, returning the encoded bytes.
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }

    /// Consumes the encoder, returning its buffer without the shared
    /// wrapper [`finish`](Encoder::finish) puts around it.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf.into()
    }

    /// Writes a raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    /// Writes an unsigned LEB128 varint.
    pub fn put_varint(&mut self, v: u64) {
        // Tags, lengths of small fields and most ids: one byte.
        if v < 0x80 {
            self.buf.put_u8(v as u8);
            return;
        }
        let mut bytes = [0u8; MAX_VARINT];
        let n = write_varint(&mut bytes, v);
        self.buf.extend_from_slice(&bytes[..n]);
    }

    /// Writes a zig-zag-encoded signed varint.
    pub fn put_i64(&mut self, v: i64) {
        self.put_varint(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Writes an IEEE-754 double, little-endian.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    /// Writes `b` as it is, with no length in front.
    pub(crate) fn put_raw(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Writes length-prefixed raw bytes.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_varint(b.len() as u64);
        self.buf.extend_from_slice(b);
    }

    /// Writes a site identifier.
    pub fn put_site(&mut self, s: SiteId) {
        self.put_varint(s.as_u32() as u64);
    }

    /// Writes an object identifier.
    pub fn put_obj_id(&mut self, id: ObjId) {
        self.put_site(id.site());
        self.put_varint(id.local());
    }

    /// Writes a request identifier.
    pub fn put_request_id(&mut self, id: RequestId) {
        self.put_site(id.origin());
        self.put_varint(id.seq());
    }

    /// Writes a cluster identifier.
    pub fn put_cluster_id(&mut self, id: ClusterId) {
        self.put_site(id.provider());
        self.put_varint(id.seq());
    }

    /// Writes a tagged [`ObiValue`], recursively.
    pub fn put_value(&mut self, v: &ObiValue) {
        match v {
            ObiValue::Null => self.put_u8(TAG_NULL),
            ObiValue::Bool(false) => self.put_u8(TAG_BOOL_FALSE),
            ObiValue::Bool(true) => self.put_u8(TAG_BOOL_TRUE),
            ObiValue::I64(x) => {
                self.put_u8(TAG_I64);
                self.put_i64(*x);
            }
            ObiValue::F64(x) => {
                self.put_u8(TAG_F64);
                self.put_f64(*x);
            }
            ObiValue::Str(s) => self.put_tagged_str(s),
            ObiValue::Bytes(b) => {
                self.put_u8(TAG_BYTES);
                self.put_bytes(b);
            }
            ObiValue::List(items) => {
                self.put_list_header(items.len());
                for item in items {
                    self.put_value(item);
                }
            }
            ObiValue::Map(entries) => {
                self.put_u8(TAG_MAP);
                self.put_varint(entries.len() as u64);
                for (k, item) in entries {
                    self.put_str(k);
                    self.put_value(item);
                }
            }
            ObiValue::Ref(id) => {
                self.put_u8(TAG_REF);
                self.put_obj_id(*id);
            }
        }
    }

    /// Writes what [`put_value`](Encoder::put_value) writes for an
    /// `ObiValue::Str(s)`, without the owned `String`.
    pub fn put_tagged_str(&mut self, s: &str) {
        self.put_u8(TAG_STR);
        self.put_str(s);
    }

    /// Writes the head of what [`put_value`](Encoder::put_value) writes for
    /// an `ObiValue::List` of `len` items, which the caller then writes.
    pub fn put_list_header(&mut self, len: usize) {
        self.put_u8(TAG_LIST);
        self.put_varint(len as u64);
    }
}

/// A cursor that deserializes OBIWAN primitives.
#[derive(Debug)]
pub struct Decoder<'a> {
    data: &'a [u8],
    pos: usize,
    /// The frame `data` is, for a decoder made by
    /// [`over_frame`](Decoder::over_frame).
    pub(crate) frame: Option<&'a Bytes>,
    /// How class names are read ([`ClassName`](crate::field::ClassName)).
    pub(crate) classes: Classes<&'a str>,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder over `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Decoder { data, pos: 0, frame: None, classes: Classes::Plain }
    }

    /// Creates a decoder over `frame` whose `Bytes` fields
    /// ([`Field`](crate::Field)) are views of it, not copies.
    pub fn over_frame(frame: &'a Bytes) -> Self {
        Decoder { frame: Some(frame), ..Decoder::new(frame) }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// True when all input has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn err(msg: impl Into<String>) -> ObiError {
        ObiError::Decode(msg.into())
    }

    /// Reads one byte.
    pub fn take_u8(&mut self) -> Result<u8> {
        let b = *self
            .data
            .get(self.pos)
            .ok_or_else(|| Self::err("unexpected end of input"))?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads an unsigned LEB128 varint.
    pub fn take_varint(&mut self) -> Result<u64> {
        let mut result: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.take_u8()?;
            if shift >= 64 {
                return Err(Self::err("varint overflows u64"));
            }
            result |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(result);
            }
            shift += 7;
        }
    }

    /// Reads an unsigned varint that must fit a `u32`: a larger one is an
    /// [`ObiError::Decode`], never truncated.
    pub fn take_u32(&mut self) -> Result<u32> {
        let v = self.take_varint()?;
        u32::try_from(v).map_err(|_| Self::err(format!("{v} does not fit a u32")))
    }

    /// Reads a zig-zag-encoded signed varint.
    pub fn take_i64(&mut self) -> Result<i64> {
        let v = self.take_varint()?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }

    /// Reads an IEEE-754 double.
    pub fn take_f64(&mut self) -> Result<f64> {
        let slice = self.take_slice(8)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(slice);
        Ok(f64::from_le_bytes(arr))
    }

    fn take_slice(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(Self::err(format!(
                "need {n} bytes, have {}",
                self.remaining()
            )));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn take_len(&mut self) -> Result<usize> {
        let len = self.take_varint()?;
        if len > MAX_LEN {
            return Err(Self::err(format!("length {len} exceeds limit")));
        }
        Ok(len as usize)
    }

    /// Reads a length-prefixed UTF-8 string as a borrowed slice of the
    /// input buffer — no allocation. Prefer this on decode paths that only
    /// inspect or immediately re-encode the string.
    pub fn take_str_ref(&mut self) -> Result<&'a str> {
        let len = self.take_len()?;
        self.take_utf8(len)
    }

    /// Reads `len` bytes of UTF-8, with no length in front.
    pub(crate) fn take_utf8(&mut self, len: usize) -> Result<&'a str> {
        let slice = self.take_slice(len)?;
        std::str::from_utf8(slice).map_err(|e| Self::err(format!("invalid utf-8: {e}")))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn take_str(&mut self) -> Result<String> {
        self.take_str_ref().map(str::to_owned)
    }

    /// Reads length-prefixed raw bytes as a borrowed slice of the input
    /// buffer — no allocation or copy.
    pub fn take_bytes_ref(&mut self) -> Result<&'a [u8]> {
        let len = self.take_len()?;
        self.take_slice(len)
    }

    /// Reads length-prefixed raw bytes.
    pub fn take_bytes(&mut self) -> Result<Bytes> {
        self.take_bytes_ref().map(Bytes::copy_from_slice)
    }

    /// Reads a site identifier.
    pub fn take_site(&mut self) -> Result<SiteId> {
        self.take_u32().map(SiteId::new)
    }

    /// Reads an object identifier.
    pub fn take_obj_id(&mut self) -> Result<ObjId> {
        let site = self.take_site()?;
        let local = self.take_varint()?;
        Ok(ObjId::new(site, local))
    }

    /// Reads a request identifier.
    pub fn take_request_id(&mut self) -> Result<RequestId> {
        let origin = self.take_site()?;
        let seq = self.take_varint()?;
        Ok(RequestId::new(origin, seq))
    }

    /// Reads a cluster identifier.
    pub fn take_cluster_id(&mut self) -> Result<ClusterId> {
        let provider = self.take_site()?;
        let seq = self.take_varint()?;
        Ok(ClusterId::new(provider, seq))
    }

    /// Reads a tagged [`ObiValue`], recursively.
    pub fn take_value(&mut self) -> Result<ObiValue> {
        match self.take_u8()? {
            TAG_NULL => Ok(ObiValue::Null),
            TAG_BOOL_FALSE => Ok(ObiValue::Bool(false)),
            TAG_BOOL_TRUE => Ok(ObiValue::Bool(true)),
            TAG_I64 => Ok(ObiValue::I64(self.take_i64()?)),
            TAG_F64 => Ok(ObiValue::F64(self.take_f64()?)),
            TAG_STR => Ok(ObiValue::Str(self.take_str()?)),
            TAG_BYTES => Ok(ObiValue::Bytes(self.take_bytes()?)),
            TAG_LIST => {
                let len = self.take_len()?;
                let mut items = Vec::with_capacity(len.min(1024));
                for _ in 0..len {
                    items.push(self.take_value()?);
                }
                Ok(ObiValue::List(items))
            }
            TAG_MAP => {
                let len = self.take_len()?;
                let mut entries = Vec::with_capacity(len.min(1024));
                for _ in 0..len {
                    let k = self.take_str()?;
                    let v = self.take_value()?;
                    entries.push((k, v));
                }
                Ok(ObiValue::Map(entries))
            }
            TAG_REF => Ok(ObiValue::Ref(self.take_obj_id()?)),
            tag => Err(Self::err(format!("unknown value tag {tag}"))),
        }
    }

    /// Reads the head [`Encoder::put_list_header`] writes: the item count.
    pub fn take_list_header(&mut self) -> Result<usize> {
        if self.data.get(self.pos) != Some(&TAG_LIST) {
            let got = self.take_value()?;
            return Err(Self::err(format!("expected list, got {}", got.kind())));
        }
        self.pos += 1;
        self.take_len()
    }

    /// Consumes a tagged `Null` if one is next, and says whether it did.
    pub fn take_null(&mut self) -> bool {
        let null = self.data.get(self.pos) == Some(&TAG_NULL);
        self.pos += usize::from(null);
        null
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_value(v: &ObiValue) -> ObiValue {
        let mut enc = Encoder::new();
        enc.put_value(v);
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        let out = dec.take_value().expect("decode");
        assert!(dec.is_exhausted(), "trailing bytes after {v:?}");
        out
    }

    #[test]
    fn varint_edge_values_roundtrip() {
        for v in [0u64, 1, 127, 128, 300, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let mut enc = Encoder::new();
            enc.put_varint(v);
            let b = enc.finish();
            assert_eq!(varint_len(v), b.len(), "{v}");
            assert_eq!(Decoder::new(&b).take_varint().unwrap(), v);
        }
    }

    #[test]
    fn signed_varint_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            let mut enc = Encoder::new();
            enc.put_i64(v);
            let b = enc.finish();
            assert_eq!(Decoder::new(&b).take_i64().unwrap(), v);
        }
    }

    #[test]
    fn small_varints_are_one_byte() {
        let mut enc = Encoder::new();
        enc.put_varint(5);
        assert_eq!(enc.len(), 1);
    }

    #[test]
    fn scalar_values_roundtrip() {
        for v in [
            ObiValue::Null,
            ObiValue::Bool(true),
            ObiValue::Bool(false),
            ObiValue::I64(-123456789),
            ObiValue::F64(3.5),
            ObiValue::F64(f64::NEG_INFINITY),
            ObiValue::Str("héllo".into()),
            ObiValue::Bytes(Bytes::from_static(b"\x00\x01\x02")),
        ] {
            assert_eq!(roundtrip_value(&v), v);
        }
    }

    #[test]
    fn nested_structures_roundtrip() {
        let id = ObjId::new(SiteId::new(3), 14);
        let v = ObiValue::Map(vec![
            ("list".into(), ObiValue::List(vec![1i64.into(), "x".into()])),
            ("ref".into(), ObiValue::Ref(id)),
            ("empty".into(), ObiValue::List(vec![])),
        ]);
        assert_eq!(roundtrip_value(&v), v);
    }

    #[test]
    fn ids_roundtrip() {
        let mut enc = Encoder::new();
        let oid = ObjId::new(SiteId::new(7), 99);
        let rid = RequestId::new(SiteId::new(1), 5);
        let cid = ClusterId::new(SiteId::new(2), 8);
        enc.put_obj_id(oid);
        enc.put_request_id(rid);
        enc.put_cluster_id(cid);
        let b = enc.finish();
        let mut dec = Decoder::new(&b);
        assert_eq!(dec.take_obj_id().unwrap(), oid);
        assert_eq!(dec.take_request_id().unwrap(), rid);
        assert_eq!(dec.take_cluster_id().unwrap(), cid);
    }

    #[test]
    fn truncated_input_errors_cleanly() {
        let mut enc = Encoder::new();
        enc.put_value(&ObiValue::Str("hello world".into()));
        let b = enc.finish();
        for cut in 0..b.len() {
            let mut dec = Decoder::new(&b[..cut]);
            assert!(dec.take_value().is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn unknown_tags_are_rejected() {
        let mut dec = Decoder::new(&[200]);
        assert!(matches!(dec.take_value(), Err(ObiError::Decode(_))));
    }

    #[test]
    fn absurd_length_prefix_is_rejected() {
        // Claim a list of 2^40 elements with no payload.
        let mut enc = Encoder::new();
        enc.put_u8(7); // TAG_LIST
        enc.put_varint(1 << 40);
        let b = enc.finish();
        assert!(Decoder::new(&b).take_value().is_err());
    }

    #[test]
    fn overlong_varint_is_rejected() {
        let b = [0xFFu8; 11];
        assert!(Decoder::new(&b).take_varint().is_err());
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        let mut enc = Encoder::new();
        enc.put_varint(2);
        enc.put_u8(0xFF);
        enc.put_u8(0xFE);
        let b = enc.finish();
        assert!(Decoder::new(&b).take_str().is_err());
        assert!(Decoder::new(&b).take_str_ref().is_err());
    }

    #[test]
    fn borrowed_reads_point_into_the_frame() {
        let mut enc = Encoder::new();
        enc.put_str("frontier");
        enc.put_bytes(b"\x01\x02\x03");
        let b = enc.finish();
        let mut dec = Decoder::new(&b);
        let s = dec.take_str_ref().unwrap();
        let raw = dec.take_bytes_ref().unwrap();
        assert_eq!(s, "frontier");
        assert_eq!(raw, b"\x01\x02\x03");
        // Both are true borrows of the encoded frame, not copies.
        let frame = b.as_ptr() as usize;
        let end = frame + b.len();
        assert!((frame..end).contains(&(s.as_ptr() as usize)));
        assert!((frame..end).contains(&(raw.as_ptr() as usize)));
    }

    #[test]
    fn u32_reads_reject_what_does_not_fit() {
        for v in [0u64, 127, 128, u64::from(u32::MAX)] {
            let mut enc = Encoder::new();
            enc.put_varint(v);
            assert_eq!(u64::from(Decoder::new(&enc.finish()).take_u32().unwrap()), v);
        }
        for v in [u64::from(u32::MAX) + 1, (1 << 32) + 8, u64::MAX] {
            let mut enc = Encoder::new();
            enc.put_varint(v);
            let err = Decoder::new(&enc.finish()).take_u32().unwrap_err();
            assert!(matches!(err, ObiError::Decode(_)), "{v}: {err}");
        }
    }

    #[test]
    fn headers_and_tagged_strings_write_what_put_value_writes() {
        let mut typed = Encoder::new();
        typed.put_list_header(2);
        typed.put_tagged_str("v");
        typed.put_list_header(1);
        typed.put_value(&ObiValue::Null);
        let mut tree = Encoder::new();
        tree.put_value(&ObiValue::List(vec![
            ObiValue::Str("v".into()),
            ObiValue::List(vec![ObiValue::Null]),
        ]));
        let bytes = typed.finish();
        assert_eq!(bytes, tree.finish());

        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.take_list_header().unwrap(), 2);
        assert!(!dec.take_null());
        assert_eq!(dec.take_value().unwrap(), ObiValue::Str("v".into()));
        assert_eq!(dec.take_list_header().unwrap(), 1);
        assert!(dec.take_null());
        assert!(dec.is_exhausted());
        assert!(!dec.take_null(), "nothing left to take");
    }

    #[test]
    fn a_header_of_the_wrong_kind_is_a_decode_error() {
        let mut enc = Encoder::new();
        enc.put_value(&ObiValue::I64(3));
        let b = enc.finish();
        let err = Decoder::new(&b).take_list_header().unwrap_err();
        assert_eq!(err, ObiError::Decode("expected list, got i64".into()));
        assert!(Decoder::new(&[]).take_list_header().is_err());
    }

    #[test]
    fn borrowed_reads_truncate_cleanly() {
        let mut enc = Encoder::new();
        enc.put_varint(10); // claims 10 bytes, provides 2
        enc.put_u8(b'a');
        enc.put_u8(b'b');
        let b = enc.finish();
        assert!(Decoder::new(&b).take_str_ref().is_err());
        assert!(Decoder::new(&b).take_bytes_ref().is_err());
    }
}
