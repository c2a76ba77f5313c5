//! Strongly typed identifiers.
//!
//! OBIWAN objects live in per-process *object spaces*; an [`ObjId`] is
//! globally unique because it couples the [`SiteId`] of the process that
//! created the object with a site-local counter. Replicas of the same master
//! object share the master's [`ObjId`]; a site holds at most one.

use std::fmt;

/// Identifier of a site (a process participating in the OBIWAN network).
///
/// Sites are the unit of distribution: each site hosts one object space and
/// one RMI endpoint. In the paper's running example these are `S1` and `S2`.
///
/// # Examples
///
/// ```
/// use obiwan_util::SiteId;
/// let s1 = SiteId::new(1);
/// assert_eq!(s1.as_u32(), 1);
/// assert_eq!(format!("{s1}"), "S1");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SiteId(u32);

impl SiteId {
    /// Creates a site identifier from a raw number.
    pub const fn new(raw: u32) -> Self {
        SiteId(raw)
    }

    /// Returns the raw numeric value.
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

impl From<u32> for SiteId {
    fn from(raw: u32) -> Self {
        SiteId(raw)
    }
}

/// Globally unique object identifier: origin site plus site-local counter.
///
/// An `ObjId` names the *master* object; replicas on other sites are indexed
/// under the same `ObjId` in their local object spaces, which is what makes
/// reference swizzling a pure table update.
///
/// # Examples
///
/// ```
/// use obiwan_util::{ObjId, SiteId};
/// let id = ObjId::new(SiteId::new(2), 7);
/// assert_eq!(id.site(), SiteId::new(2));
/// assert_eq!(id.local(), 7);
/// assert_eq!(format!("{id}"), "S2/7");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjId {
    site: SiteId,
    local: u64,
}

impl ObjId {
    /// Creates an object id from an origin site and a site-local counter.
    pub const fn new(site: SiteId, local: u64) -> Self {
        ObjId { site, local }
    }

    /// The site on which the master object was created.
    pub const fn site(self) -> SiteId {
        self.site
    }

    /// The site-local portion of the identifier.
    pub const fn local(self) -> u64 {
        self.local
    }
}

impl fmt::Display for ObjId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.site, self.local)
    }
}

/// Identifier of an in-flight RMI request, unique per originating site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId {
    origin: SiteId,
    seq: u64,
}

impl RequestId {
    /// Creates a request id for sequence number `seq` issued by `origin`.
    pub const fn new(origin: SiteId, seq: u64) -> Self {
        RequestId { origin, seq }
    }

    /// The site that issued the request.
    pub const fn origin(self) -> SiteId {
        self.origin
    }

    /// The per-site sequence number.
    pub const fn seq(self) -> u64 {
        self.seq
    }
}

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req:{}:{}", self.origin, self.seq)
    }
}

/// Identifier of a replicated cluster (paper §4.3).
///
/// A cluster is a run-time-chosen set of objects replicated as a whole and
/// sharing a single proxy-in/proxy-out pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClusterId {
    provider: SiteId,
    seq: u64,
}

impl ClusterId {
    /// Creates a cluster id for the `seq`-th cluster exported by `provider`.
    pub const fn new(provider: SiteId, seq: u64) -> Self {
        ClusterId { provider, seq }
    }

    /// The site that exported the cluster.
    pub const fn provider(self) -> SiteId {
        self.provider
    }

    /// The per-provider sequence number.
    pub const fn seq(self) -> u64 {
        self.seq
    }
}

impl fmt::Display for ClusterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cluster:{}:{}", self.provider, self.seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn site_id_roundtrip_and_display() {
        let s = SiteId::new(9);
        assert_eq!(s.as_u32(), 9);
        assert_eq!(s.to_string(), "S9");
        assert_eq!(SiteId::from(9u32), s);
    }

    #[test]
    fn obj_ids_distinguish_site_and_local() {
        let a = ObjId::new(SiteId::new(1), 5);
        let b = ObjId::new(SiteId::new(2), 5);
        let c = ObjId::new(SiteId::new(1), 6);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, ObjId::new(SiteId::new(1), 5));
    }

    #[test]
    fn ids_are_hashable_and_distinct_in_sets() {
        let mut set = HashSet::new();
        for site in 0..4u32 {
            for local in 0..4u64 {
                set.insert(ObjId::new(SiteId::new(site), local));
            }
        }
        assert_eq!(set.len(), 16);
    }

    #[test]
    fn request_ids_order_by_origin_then_seq() {
        let a = RequestId::new(SiteId::new(1), 1);
        let b = RequestId::new(SiteId::new(1), 2);
        let c = RequestId::new(SiteId::new(2), 0);
        assert!(a < b);
        assert!(b < c);
    }

    #[test]
    fn cluster_id_display() {
        let c = ClusterId::new(SiteId::new(3), 11);
        assert_eq!(c.to_string(), "cluster:S3:11");
        assert_eq!(c.provider(), SiteId::new(3));
        assert_eq!(c.seq(), 11);
    }
}
