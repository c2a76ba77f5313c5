//! # OBIWAN-RS
//!
//! A Rust reproduction of **"Incremental Replication for Mobility Support in
//! OBIWAN"** (Veiga & Ferreira, ICDCS 2002): a middleware platform that lets
//! distributed applications decide *at run time* whether an object is invoked
//! remotely (RMI) or locally on an incrementally fetched replica (LMI).
//!
//! This façade crate re-exports the public API of every subsystem:
//!
//! * [`core`] — object spaces, proxy-in/proxy-out pairs, incremental, cluster
//!   and transitive-closure replication, object faulting, `get`/`put`.
//! * [`rmi`] — the RMI substitute: name server, remote references,
//!   request/response invocation.
//! * [`net`] — the network substrate: link models, a deterministic simulated
//!   transport with virtual time (plus scripted connectivity schedules) and
//!   real loopback TCP sockets.
//! * [`wire`] — the binary serialization layer (Java-serialization stand-in).
//! * [`consistency`] — pluggable consistency policies (the paper's "hooks"):
//!   last-writer-wins, first-writer-wins, read-only, and client-side
//!   invalidation tracking.
//! * [`mobility`] — connectivity management, hoarding, disconnected operation
//!   logs with reintegration, and mobile agents.
//! * [`store`] — the durability layer: a CRC-framed write-ahead log with
//!   group commit, compacting snapshots, and crash recovery.
//! * [`util`] — ids, errors, clocks, metrics.
//!
//! # Quickstart
//!
//! ```
//! use obiwan::core::{ObiValue, ObiWorld, ReplicationMode};
//! use obiwan::demo::LinkedItem;
//!
//! # fn main() -> obiwan::util::Result<()> {
//! // Two sites on a simulated paper-testbed LAN.
//! let mut world = ObiWorld::paper_testbed();
//! let s1 = world.add_site("S1");
//! let s2 = world.add_site("S2");
//!
//! // S2 publishes a two-element list under a well-known name.
//! let tail = world.site(s2).create(LinkedItem::new(2, "tail"));
//! let head = world.site(s2).create(LinkedItem::with_next(1, "head", tail));
//! world.site(s2).export(head, "list")?;
//!
//! // S1 fetches the head incrementally and invokes through the graph;
//! // the second hop raises an object fault that is resolved transparently.
//! let head_ref = world.site(s1).lookup("list")?;
//! let replica = world
//!     .site(s1)
//!     .get(&head_ref, ReplicationMode::incremental(1))?;
//! let v = world.site(s1).invoke(replica, "next_value", ObiValue::Null)?;
//! assert_eq!(v, ObiValue::I64(2));
//! # Ok(())
//! # }
//! ```

pub use obiwan_consistency as consistency;
pub use obiwan_core as core;
pub use obiwan_mobility as mobility;
pub use obiwan_net as net;
pub use obiwan_rmi as rmi;
pub use obiwan_store as store;
pub use obiwan_util as util;
pub use obiwan_wire as wire;

/// Demo object classes shared by examples, tests and benchmarks.
pub use obiwan_core::demo;
