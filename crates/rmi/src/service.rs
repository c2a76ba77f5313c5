//! The skeleton-side dispatch interface.

use obiwan_util::{ObiError, ObjId, RequestId, Result, SiteId};
use obiwan_wire::{AppliedPut, JoinInfo, NameOp, ObiValue, ReplicaState, WireMode, WrittenBatch};

/// What a site must implement to receive OBIWAN traffic.
///
/// [`RmiServer`](crate::RmiServer) decodes each incoming frame and routes it
/// to one of these methods; the object space in `obiwan-core` is the primary
/// implementor. Every method has a default that rejects the operation, so
/// special-purpose services (like a pure [`NameServer`](crate::NameServer)
/// host) only override what they support.
pub trait RmiService: Send + Sync {
    /// Remote method invocation on an exported object (the RMI path).
    fn invoke(&self, from: SiteId, target: ObjId, method: &str, args: ObiValue)
        -> Result<ObiValue> {
        let _ = (from, method, args);
        Err(ObiError::NoSuchObject(target))
    }

    /// `IProvideRemote::get(mode)` — one merged replica batch covering
    /// every live object in `targets`, so N frontier faults cost a single
    /// round-trip; a plain `get` is the one-target case. The batch comes
    /// back written into its reply frames, `per_chunk` replicas to a frame
    /// (`usize::MAX` for a one-frame reply), for the server to stamp and
    /// send (see [`BatchWriter`](obiwan_wire::BatchWriter)). The default
    /// falls back to "first target unknown" so services that never export
    /// objects keep working unchanged.
    fn get_many(
        &self,
        from: SiteId,
        targets: &[ObjId],
        mode: WireMode,
        per_chunk: usize,
    ) -> Result<WrittenBatch> {
        let _ = (from, mode, per_chunk);
        match targets.first() {
            Some(&t) => Err(ObiError::NoSuchObject(t)),
            None => Err(ObiError::BadArguments("get_many with no targets".into())),
        }
    }

    /// `IProvideRemote::put` — apply replica state back onto masters,
    /// returning the accepted `(object, new_version)` pairs. `request`
    /// lets the service recognise a replay.
    fn put(
        &self,
        from: SiteId,
        request: RequestId,
        entries: Vec<ReplicaState>,
    ) -> Result<Vec<(ObjId, u64)>> {
        let _ = (from, request);
        match entries.first() {
            Some(e) => Err(ObiError::NoSuchObject(e.id)),
            None => Ok(Vec::new()),
        }
    }

    /// Name-server operation.
    fn name_op(&self, from: SiteId, op: NameOp) -> Result<ObiValue> {
        let _ = from;
        let name = match op {
            NameOp::Bind { name, .. } | NameOp::Lookup { name } | NameOp::Unbind { name } => name,
            NameOp::List => String::from("*"),
        };
        Err(ObiError::NameNotBound(name))
    }

    /// Subscribe `from` to consistency traffic for `object`.
    fn subscribe(&self, from: SiteId, object: ObjId, push: bool) -> Result<ObiValue> {
        let _ = (from, push);
        Err(ObiError::NoSuchObject(object))
    }

    /// One-way invalidation notice (replicas of `objects` are stale).
    fn invalidate(&self, from: SiteId, objects: Vec<ObjId>) {
        let _ = (from, objects);
    }

    /// One-way pushed updates.
    fn update_push(&self, from: SiteId, entries: Vec<ReplicaState>) {
        let _ = (from, entries);
    }

    /// Membership join: `from` asks to enter the world. Only admission
    /// authorities (the name server) override this; ordinary sites refuse.
    fn join(&self, from: SiteId) -> Result<JoinInfo> {
        let _ = from;
        Err(ObiError::BadArguments(
            "this site does not admit membership joins".into(),
        ))
    }

    /// Mastership handoff: `from` (the outgoing master) installs `entries`
    /// — the closure rooted at `root` — with the records of the puts
    /// `applied` to them, and asks this site to take over as master.
    /// Returns the root's version as installed. Sites that host no object
    /// space cannot accept mastership.
    fn handoff(
        &self,
        from: SiteId,
        root: ObjId,
        entries: Vec<ReplicaState>,
        applied: Vec<AppliedPut>,
    ) -> Result<u64> {
        let _ = (from, entries, applied);
        Err(ObiError::NoSuchObject(root))
    }

    /// One-way notice that `site` has left the world (gracefully); peers
    /// use it to retire connectivity state. `from` is the relaying sender,
    /// which may be `site` itself or the admission authority.
    fn leave_notice(&self, from: SiteId, site: SiteId) {
        let _ = (from, site);
    }

    /// One-way `AckHorizon`: `from` will never resend a request up to
    /// `up_to`.
    fn ack_horizon(&self, from: SiteId, up_to: u64) {
        let _ = (from, up_to);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obiwan_util::SiteId;

    struct Nothing;
    impl RmiService for Nothing {}

    #[test]
    fn defaults_reject_everything_politely() {
        let s = Nothing;
        let from = SiteId::new(1);
        let obj = ObjId::new(SiteId::new(2), 3);
        assert!(matches!(
            s.invoke(from, obj, "m", ObiValue::Null),
            Err(ObiError::NoSuchObject(_))
        ));
        assert!(matches!(
            s.get_many(from, &[obj], WireMode::Transitive, usize::MAX),
            Err(ObiError::NoSuchObject(_))
        ));
        assert_eq!(s.put(from, RequestId::new(from, 1), vec![]).unwrap(), vec![]);
        assert!(matches!(
            s.name_op(from, NameOp::List),
            Err(ObiError::NameNotBound(_))
        ));
        assert!(matches!(
            s.subscribe(from, obj, true),
            Err(ObiError::NoSuchObject(_))
        ));
        assert!(matches!(s.join(from), Err(ObiError::BadArguments(_))));
        assert!(matches!(
            s.handoff(from, obj, vec![], vec![]),
            Err(ObiError::NoSuchObject(_))
        ));
        // One-way defaults are no-ops.
        s.invalidate(from, vec![obj]);
        s.update_push(from, vec![]);
        s.leave_notice(from, SiteId::new(9));
        s.ack_horizon(from, 9);
    }

    #[test]
    fn service_is_object_safe() {
        fn _takes(_: &dyn RmiService) {}
    }
}
