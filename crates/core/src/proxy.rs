//! Proxy-out / proxy-in pairs (paper §2).
//!
//! * A **proxy-out** stands in, on the *requesting* site, for an object that
//!   is not yet locally replicated. Invoking through it raises an object
//!   fault, resolved by demanding the next batch from its provider.
//! * A **proxy-in** is the *providing* site's per-object entry answering
//!   `get`/`put` and tracking consistency subscribers.
//!
//! After a fault resolves, the proxy-out's slot is overwritten by the real
//! replica — the handle-based analogue of the paper's `updateMember`
//! swizzle, after which "further invocations … will be normal direct
//! invocations with no indirection at all", and the proxy-out "is no longer
//! reachable … and will be reclaimed by the garbage collector"
//! (see [`crate::shards::ShardedSpace::collect_garbage`]).

use obiwan_util::{ClusterId, ObjId, SiteId};
use obiwan_wire::WireMode;

/// Client-side stand-in for a not-yet-replicated object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProxyOut {
    /// The object this proxy stands in for.
    pub target: ObjId,
    /// Its class (known from the frontier descriptor).
    pub class: String,
    /// The site whose proxy-in serves faults for this object.
    pub provider: SiteId,
    /// Replication mode to demand with when a fault fires (inherited from
    /// the `get` that created this proxy).
    pub mode: WireMode,
    /// Set when this proxy is the shared proxy of a cluster frontier
    /// (§4.3): all frontier edges of a cluster batch share one pair.
    pub cluster: Option<ClusterId>,
}

impl ProxyOut {
    /// Creates a per-object proxy (incremental mode).
    pub fn new(target: ObjId, class: impl Into<String>, provider: SiteId, mode: WireMode) -> Self {
        ProxyOut {
            target,
            class: class.into(),
            provider,
            mode,
            cluster: None,
        }
    }

    /// Marks this proxy as part of a shared cluster pair.
    pub fn in_cluster(mut self, cluster: ClusterId) -> Self {
        self.cluster = Some(cluster);
        self
    }
}

/// One consistency subscriber of an exported object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Subscriber {
    /// The replica-holding site.
    pub site: SiteId,
    /// `true` = push full updates; `false` = send invalidations only.
    pub push: bool,
}

/// Server-side proxy-in bookkeeping for one provided object.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProxyIn {
    subscribers: Vec<Subscriber>,
}

impl ProxyIn {
    /// Creates an entry with no subscribers.
    pub fn new() -> Self {
        ProxyIn::default()
    }

    /// Adds or updates a subscriber (idempotent per site; the latest `push`
    /// flag wins).
    pub fn subscribe(&mut self, site: SiteId, push: bool) {
        match self.subscribers.iter_mut().find(|s| s.site == site) {
            Some(existing) => existing.push = push,
            None => self.subscribers.push(Subscriber { site, push }),
        }
    }

    /// Current subscribers.
    pub fn subscribers(&self) -> &[Subscriber] {
        &self.subscribers
    }

    /// Subscribers other than `exclude` (the site that caused the change
    /// already has the newest state).
    pub fn subscribers_except(&self, exclude: SiteId) -> impl Iterator<Item = Subscriber> + '_ {
        self.subscribers
            .iter()
            .copied()
            .filter(move |s| s.site != exclude)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(n: u32) -> SiteId {
        SiteId::new(n)
    }

    #[test]
    fn proxy_out_builders() {
        let p = ProxyOut::new(
            ObjId::new(s(2), 1),
            "Item",
            s(2),
            WireMode::Incremental { batch: 5 },
        );
        assert_eq!(p.cluster, None);
        let c = ClusterId::new(s(2), 1);
        let p = p.in_cluster(c);
        assert_eq!(p.cluster, Some(c));
    }

    #[test]
    fn subscribe_is_idempotent_per_site() {
        let mut pin = ProxyIn::new();
        pin.subscribe(s(1), false);
        pin.subscribe(s(1), true);
        pin.subscribe(s(3), false);
        assert_eq!(pin.subscribers().len(), 2);
        assert!(pin.subscribers()[0].push);
    }

    #[test]
    fn subscribers_except_filters_originator() {
        let mut pin = ProxyIn::new();
        pin.subscribe(s(1), false);
        pin.subscribe(s(2), true);
        let rest: Vec<_> = pin.subscribers_except(s(1)).collect();
        assert_eq!(rest, vec![Subscriber { site: s(2), push: true }]);
    }
}
