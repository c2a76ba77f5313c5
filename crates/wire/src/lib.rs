//! The OBIWAN wire format.
//!
//! The original OBIWAN rode on Java serialization: replicas and proxy
//! descriptors were "automatically serialized by the underlying virtual
//! machine and sent" between sites. Rust has no ambient serialization, so
//! this crate is the substitute substrate:
//!
//! * [`value`] — [`ObiValue`], the dynamic value model used for method
//!   arguments, results and object field state.
//! * [`codec`] — a compact, self-describing binary [`Encoder`]/[`Decoder`]
//!   (varint lengths, little-endian scalars).
//! * [`field`] — [`Field`], how one field is written and read, and
//!   [`wire_layout!`], which declares a type's layout once and derives both
//!   its writer and its reader from that declaration.
//! * [`message`] — every protocol message exchanged between sites:
//!   invocations, replica batches (`get`), updates (`put`), name-server
//!   operations, invalidations and update pushes, each one layout line.
//! * [`batch`] — the provider's side of a `get`: replicas written straight
//!   into their reply frames ([`BatchWriter`]), byte for byte what
//!   [`Message::encode`] writes for the same batch.
//!
//! All message types round-trip exactly (`encode` then `decode` is the
//! identity); this invariant is enforced by unit tests and property tests.
//!
//! # Examples
//!
//! ```
//! use obiwan_wire::{Encoder, Decoder, ObiValue};
//!
//! # fn main() -> obiwan_util::Result<()> {
//! let v = ObiValue::List(vec![ObiValue::I64(1), ObiValue::Str("two".into())]);
//! let mut enc = Encoder::new();
//! enc.put_value(&v);
//! let bytes = enc.finish();
//! let mut dec = Decoder::new(&bytes);
//! assert_eq!(dec.take_value()?, v);
//! # Ok(())
//! # }
//! ```

pub mod batch;
pub mod codec;
pub mod crc;
pub mod field;
pub mod message;
pub mod value;

pub use batch::{BatchWriter, WrittenBatch};
pub use codec::{Decoder, Encoder};
pub use crc::crc32;
pub use field::Field;
pub use message::{
    FrontierEdge, JoinInfo, Message, NameOp, ReplicaBatch, ReplicaState, WireMode,
};
pub use value::ObiValue;
