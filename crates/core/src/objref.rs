//! Object references as held inside object fields.

use obiwan_util::ObjId;
use std::fmt;

/// A reference from one OBIWAN object to another.
///
/// In the original Java system a field of `A'` first points at `BProxyOut`
/// and is later *swizzled* (`updateMember`) to point directly at `B'`. In
/// Rust, arbitrary cyclic direct references are not expressible, so an
/// `ObjRef` is a stable handle (the target's [`ObjId`]) resolved through the
/// local [`ShardedSpace`](crate::shards::ShardedSpace) on each use. Swizzling
/// becomes a slot replacement: the same handle that used to resolve to a
/// proxy-out resolves to the replica afterwards, with no per-field rewrite.
///
/// # Examples
///
/// ```
/// use obiwan_core::ObjRef;
/// use obiwan_util::{ObjId, SiteId};
///
/// let r = ObjRef::new(ObjId::new(SiteId::new(1), 2));
/// assert_eq!(r.id().local(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjRef(ObjId);

impl ObjRef {
    /// Wraps an object id.
    pub const fn new(id: ObjId) -> Self {
        ObjRef(id)
    }

    /// The referenced object's identity.
    pub const fn id(self) -> ObjId {
        self.0
    }
}

impl fmt::Display for ObjRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "&{}", self.0)
    }
}

impl From<ObjId> for ObjRef {
    fn from(id: ObjId) -> Self {
        ObjRef(id)
    }
}

impl From<ObjRef> for ObjId {
    fn from(r: ObjRef) -> Self {
        r.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obiwan_util::SiteId;

    #[test]
    fn roundtrip_through_obj_id() {
        let id = ObjId::new(SiteId::new(4), 11);
        let r: ObjRef = id.into();
        let back: ObjId = r.into();
        assert_eq!(back, id);
        assert_eq!(r.to_string(), "&S4/11");
    }
}
