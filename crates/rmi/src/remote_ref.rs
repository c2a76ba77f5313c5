//! Location-carrying remote references.

use obiwan_util::{ObjId, SiteId};
use std::fmt;

/// A reference to a remote object: its identity plus the site whose
/// proxy-in answers for it.
///
/// This is the Rust stand-in for "a remote reference to `AProxyIn` obtained
/// from a name server" in the paper's running example. For a master object
/// the host is its origin site; replicas re-exported from elsewhere (mobile
/// agents) carry a different host.
///
/// # Examples
///
/// ```
/// use obiwan_rmi::RemoteRef;
/// use obiwan_util::{ObjId, SiteId};
///
/// let id = ObjId::new(SiteId::new(2), 1);
/// let r = RemoteRef::to_master(id);
/// assert_eq!(r.host(), SiteId::new(2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RemoteRef {
    id: ObjId,
    host: SiteId,
}

impl RemoteRef {
    /// A reference hosted at an explicit site.
    pub const fn new(id: ObjId, host: SiteId) -> Self {
        RemoteRef { id, host }
    }

    /// A reference to the master replica, hosted at the object's origin.
    pub const fn to_master(id: ObjId) -> Self {
        RemoteRef { id, host: id.site() }
    }

    /// The referenced object.
    pub const fn id(self) -> ObjId {
        self.id
    }

    /// The site answering invocations and `get`s for this object.
    pub const fn host(self) -> SiteId {
        self.host
    }
}

impl fmt::Display for RemoteRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@host:{}", self.id, self.host)
    }
}

impl From<ObjId> for RemoteRef {
    fn from(id: ObjId) -> Self {
        RemoteRef::to_master(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn master_ref_is_hosted_at_origin() {
        let id = ObjId::new(SiteId::new(3), 9);
        let r: RemoteRef = id.into();
        assert_eq!(r.id(), id);
        assert_eq!(r.host(), SiteId::new(3));
    }

    #[test]
    fn display_mentions_both_parts() {
        let r = RemoteRef::new(ObjId::new(SiteId::new(1), 2), SiteId::new(4));
        assert_eq!(r.to_string(), "S1/2@host:S4");
    }
}
