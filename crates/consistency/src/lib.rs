//! Consistency-protocol libraries for OBIWAN replicas.
//!
//! The paper keeps consistency out of the platform: "we leave the
//! responsibility of maintaining (or not) the consistency of replicas to
//! the programmer … he may simply use a library of specific consistency
//! protocols written by any other programmer. We plan to develop such
//! libraries for well known consistency policies." This crate is that
//! promised library:
//!
//! * [`policy`] — master-side [`ConsistencyHook`] implementations:
//!   [`OptimisticDetect`] (first-writer-wins; concurrent write-backs are
//!   rejected), [`MonotonicVersions`], [`BoundedDivergence`], [`ReadOnly`],
//!   and a re-export of the platform's [`AcceptAll`] (last-writer-wins by
//!   arrival).
//! * [`tracker`] — client-side [`StaleTracker`]: subscribes replicas to
//!   invalidations and refreshes the stale set on demand.
//!
//! # Examples
//!
//! Reject concurrent write-backs with [`OptimisticDetect`]:
//!
//! ```
//! use obiwan_consistency::OptimisticDetect;
//! use obiwan_core::{ObiWorld, ReplicationMode, ObiValue};
//! use obiwan_core::demo::Counter;
//!
//! # fn main() -> obiwan_util::Result<()> {
//! let mut world = ObiWorld::loopback();
//! let s1 = world.add_site("S1");
//! let s2 = world.add_site("S2");
//! let master = world.site(s2).create(Counter::new(0));
//! world.site(s2).export(master, "c")?;
//! world.site(s2).set_policy(Box::new(OptimisticDetect::new()));
//!
//! let remote = world.site(s1).lookup("c")?;
//! let replica = world.site(s1).get(&remote, ReplicationMode::incremental(1))?;
//! world.site(s1).invoke(replica, "incr", ObiValue::Null)?;
//! // Concurrent master-side change…
//! world.site(s2).invoke(master, "incr", ObiValue::Null)?;
//! // …makes the replica's write-back a detected conflict.
//! assert!(world.site(s1).put(replica).is_err());
//! # Ok(())
//! # }
//! ```

pub mod policy;
pub mod tracker;

pub use policy::{BoundedDivergence, MonotonicVersions, OptimisticDetect, ReadOnly};
pub use tracker::StaleTracker;

// Re-exported so applications need only this crate for policy work.
pub use obiwan_core::{AcceptAll, ConsistencyHook};
