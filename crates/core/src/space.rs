//! What the per-process object table holds: [`Slot`]s, the
//! [`ObjectMeta`] every live object carries, and the [`Resolution`] a
//! handle comes back as. The table itself is
//! [`ShardedSpace`](crate::shards::ShardedSpace).

use crate::object::ObiObject;
use crate::proxy::ProxyOut;
use obiwan_util::{ClusterId, ObjId, SiteId};
use std::sync::Arc;

/// Whether a live object is the master copy or a replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaKind {
    /// The authoritative copy, created locally.
    Master,
    /// A copy fetched from `provider`'s proxy-in.
    Replica {
        /// The site holding the master (where `put`/refresh go).
        provider: SiteId,
    },
}

impl ReplicaKind {
    /// True for the master copy.
    pub fn is_master(self) -> bool {
        matches!(self, ReplicaKind::Master)
    }
}

/// Metadata carried by every live object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectMeta {
    /// The object's identity.
    pub id: ObjId,
    /// Master or replica.
    pub kind: ReplicaKind,
    /// Masters: bumped on every accepted mutation. Replicas: the master
    /// version the replica state was fetched at (the `put` base version).
    pub version: u64,
    /// Replicas only: locally modified since fetch/refresh/put.
    pub dirty: bool,
    /// Replicas only: an invalidation arrived; the state is known stale.
    pub stale: bool,
    /// Set when the object arrived as part of a cluster batch; cluster
    /// members cannot be individually `put` (paper §4.3).
    pub cluster: Option<ClusterId>,
    /// Monotonic usage stamp maintained by the space (bumped on insert and
    /// on every invocation); drives least-recently-used eviction.
    pub last_used: u64,
    /// Masters only: the latest put each origin applied here, answering a
    /// replay. `None` on replicas and untouched masters; shared, so a meta
    /// clone never allocates.
    pub applied: Option<Arc<AppliedPuts>>,
}

impl ObjectMeta {
    /// Metadata for a freshly created master.
    pub fn master(id: ObjId) -> Self {
        ObjectMeta {
            id,
            kind: ReplicaKind::Master,
            version: 1,
            dirty: false,
            stale: false,
            cluster: None,
            last_used: 0,
            applied: None,
        }
    }

    /// Metadata for a replica fetched from `provider` at `version`.
    pub fn replica(id: ObjId, provider: SiteId, version: u64) -> Self {
        ObjectMeta {
            id,
            kind: ReplicaKind::Replica { provider },
            version,
            dirty: false,
            stale: false,
            cluster: None,
            last_used: 0,
            applied: None,
        }
    }
}

/// A master object's record of the latest put each origin applied to it,
/// one `(origin, seq, version)` entry per origin.
pub type AppliedPuts = Vec<(SiteId, u64, u64)>;

/// A live object plus its metadata.
pub struct ObjectEntry {
    /// The object itself.
    pub object: Box<dyn ObiObject>,
    /// Its metadata.
    pub meta: ObjectMeta,
}

impl std::fmt::Debug for ObjectEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObjectEntry")
            .field("class", &self.object.class_name())
            .field("meta", &self.meta)
            .finish()
    }
}

/// One table entry.
#[derive(Debug)]
pub enum Slot {
    /// A live object (master or replica).
    Object(ObjectEntry),
    /// A proxy-out awaiting a fault.
    Proxy(ProxyOut),
    /// The object is temporarily out of the table for an invocation; the
    /// metadata stays readable.
    Busy(ObjectMeta),
}

/// What a handle currently resolves to (cheap, copyable view).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Resolution {
    /// A live local object.
    Object(ObjectMeta),
    /// A proxy-out: invoking will fault.
    Proxy(ProxyOut),
    /// Currently being invoked higher up the stack.
    Busy,
    /// Unknown to this space.
    Absent,
}

/// Statistics returned by
/// [`ShardedSpace::collect_garbage`](crate::shards::ShardedSpace::collect_garbage).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GcStats {
    /// Proxy-out slots reclaimed.
    pub proxies_reclaimed: usize,
    /// Clean replica slots reclaimed (only with `collect_replicas`).
    pub replicas_reclaimed: usize,
    /// Slots that survived.
    pub live: usize,
}
