//! # obiwan-core
//!
//! The heart of the OBIWAN reproduction: object spaces, proxy-in/proxy-out
//! pairs, incremental / cluster / transitive-closure replication of object
//! graphs, transparent object-fault detection and resolution, replica
//! write-back, and the consistency hooks.
//!
//! The paper's pitch, restated in this crate's vocabulary: an application
//! holds [`ObjRef`]s and [`RemoteRef`](obiwan_rmi::RemoteRef)s. It can
//! invoke through either at any time — [`ObiProcess::invoke_rmi`] for
//! classic RMI, or [`ObiProcess::get`] +
//! [`ObiProcess::invoke`] for local invocation on an incrementally fetched
//! replica. References leaving the replicated portion of a graph resolve
//! through proxy-outs; invoking through one raises an *object fault*, the
//! next batch is demanded from the provider's proxy-in, the reference is
//! swizzled, and execution continues — all invisible to the caller.
//!
//! Modules:
//!
//! * [`process`] — [`ObiProcess`], the per-site runtime, and [`InvokeCtx`];
//! * [`world`] — [`ObiWorld`], a ready-made simulated network of sites;
//! * [`shards`] — the object table ([`ShardedSpace`]: resolution, eviction, GC);
//! * [`space`] — what the table holds (slots, metadata, resolutions);
//! * [`replication`] — [`ReplicationMode`] and provider-side batch building;
//! * [`proxy`] — proxy-out / proxy-in data structures;
//! * [`object`] — the [`ObiObject`] trait and [`ClassRegistry`];
//! * [`macros`] — [`obi_class!`], the `obicomp` stand-in;
//! * [`hooks`] — the [`ConsistencyHook`] extension point;
//! * [`demo`] — ready-made classes for examples, tests and benchmarks;
//! * [`paper_map`] — a reading companion mapping every paper term to code.
//!
//! # Examples
//!
//! Replicate a two-node list and watch a fault resolve:
//!
//! ```
//! use obiwan_core::{ObiWorld, ReplicationMode, ObiValue, space::Resolution};
//! use obiwan_core::demo::LinkedItem;
//!
//! # fn main() -> obiwan_util::Result<()> {
//! let mut world = ObiWorld::paper_testbed();
//! let s1 = world.add_site("S1");
//! let s2 = world.add_site("S2");
//!
//! // S2: A -> B, exported under "a".
//! let b = world.site(s2).create(LinkedItem::new(2, "B"));
//! let a = world.site(s2).create(LinkedItem::with_next(1, "A", b));
//! world.site(s2).export(a, "a")?;
//!
//! // S1: incremental get of A alone; B stays behind a proxy-out.
//! let remote = world.site(s1).lookup("a")?;
//! let a1 = world.site(s1).get(&remote, ReplicationMode::incremental(1))?;
//! assert!(matches!(world.site(s1).resolution(b), Resolution::Proxy(_)));
//!
//! // Invoking through A' to B' faults B in transparently.
//! let v = world.site(s1).invoke(a1, "next_value", ObiValue::Null)?;
//! assert_eq!(v, ObiValue::I64(2));
//! assert!(world.site(s1).is_replicated(b));
//! assert_eq!(world.site(s1).metrics().snapshot().object_faults, 1);
//! # Ok(())
//! # }
//! ```

pub mod demo;
pub mod hooks;
pub mod macros;
pub mod object;
pub mod objref;
pub mod paper_map;
pub mod process;
pub mod proxy;
pub mod replication;
pub mod shards;
pub mod space;
pub mod value_fields;
pub mod world;

pub use hooks::{AcceptAll, ConsistencyHook};
pub use object::{ClassRegistry, DecodeFn, ObiObject};
pub use objref::ObjRef;
pub use process::{Freshness, InvokeCtx, ObiProcess};
pub use replication::ReplicationMode;
pub use shards::ShardedSpace;
pub use space::{GcStats, ObjectMeta, ReplicaKind, Resolution};
pub use world::{ObiWorld, NAME_SERVER_SITE};

// Re-exports used by the `obi_class!` macro expansion and by downstream
// crates wanting a one-stop import.
pub use obiwan_rmi::{BreakerConfig, BreakerState, Deadline, RetryPolicy};
pub use obiwan_util::{ObiError, Result};
pub use obiwan_wire::{Decoder, Encoder, JoinInfo, ObiValue};

/// Implemented by `obi_class!`-generated types: materialization from
/// serialized state.
pub trait DecodableObject: Sized {
    /// Reads an instance from the state map [`ObiObject::encode_state`]
    /// writes, field by field, borrowing each key from the input. Fields may
    /// come in any order; of a repeated key the first counts, and a key the
    /// class lacks is skipped.
    ///
    /// # Errors
    ///
    /// [`ObiError::Decode`] when a field is missing or mis-shaped, or the
    /// input is malformed or cut short.
    fn decode_from(dec: &mut Decoder<'_>) -> Result<Self>;

    /// Restores an instance from the value tree [`ObiObject::state`]
    /// returns.
    ///
    /// # Errors
    ///
    /// As [`decode_from`](DecodableObject::decode_from).
    fn decode_state(state: &ObiValue) -> Result<Self> {
        let mut enc = Encoder::new();
        enc.put_value(state);
        Self::decode_from(&mut Decoder::new(&enc.finish()))
    }
}
