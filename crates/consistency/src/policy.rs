//! Master-side consistency policies (implementations of
//! [`ConsistencyHook`]).
//!
//! Plugged into a process with
//! [`ObiProcess::set_policy`](obiwan_core::ObiProcess::set_policy), these
//! decide the fate of replica write-backs:
//!
//! | Policy | Concurrent write-backs | Use when |
//! |---|---|---|
//! | [`AcceptAll`](obiwan_core::AcceptAll) | last writer wins by arrival | best-effort shared state |
//! | [`OptimisticDetect`] | rejected (first writer wins) | edits must not be silently lost |
//! | [`ReadOnly`] | every write-back rejected | published reference data |
//!
//! The master asks the policy about every entry of a `put` before it
//! applies any, so one refused entry refuses the whole `put`. A policy
//! decides from the two versions it is handed: the master logs no policy
//! state and a handoff carries none, so anything a policy remembered would
//! be gone after a restart or a handoff.

use obiwan_core::ConsistencyHook;
use obiwan_util::{ObiError, ObjId, Result};

/// First-writer-wins optimistic concurrency: a `put` is accepted only when
/// the replica's base version equals the master's current version, i.e. no
/// other write (local or remote) intervened since the replica was fetched.
///
/// Rejected writers keep their dirty replica and can
/// [`refresh`](obiwan_core::ObiProcess::refresh) + reapply.
#[derive(Debug, Clone, Copy, Default)]
pub struct OptimisticDetect;

impl OptimisticDetect {
    /// Creates the policy.
    pub fn new() -> Self {
        OptimisticDetect
    }
}

impl ConsistencyHook for OptimisticDetect {
    fn decide_put(&mut self, object: ObjId, master_version: u64, base_version: u64) -> Result<()> {
        if base_version == master_version {
            Ok(())
        } else {
            Err(ObiError::UpdateRejected {
                object,
                reason: format!(
                    "concurrent update: replica based on v{base_version}, master at v{master_version}"
                ),
            })
        }
    }
}

/// Read-only masters: every write-back is refused. For published reference
/// data that roams freely but must never be modified from the edge.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReadOnly;

impl ReadOnly {
    /// Creates the policy.
    pub fn new() -> Self {
        ReadOnly
    }
}

impl ConsistencyHook for ReadOnly {
    fn decide_put(&mut self, object: ObjId, _mv: u64, _bv: u64) -> Result<()> {
        Err(ObiError::UpdateRejected {
            object,
            reason: "object is published read-only".into(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obiwan_core::demo::{Counter, LinkedItem};
    use obiwan_core::{ObiValue, ObiWorld, ObjRef, ReplicationMode};
    use obiwan_util::SiteId;

    fn oid(l: u64) -> ObjId {
        ObjId::new(SiteId::new(2), l)
    }

    /// `replica` at `site` holds its master's state and version, and is
    /// clean.
    fn assert_converged(world: &ObiWorld, site: SiteId, replica: ObjRef, master_site: SiteId) {
        let (r, m) = (world.site(site), world.site(master_site));
        assert_eq!(r.state_of(replica).unwrap(), m.state_of(replica).unwrap());
        let meta = r.meta_of(replica).unwrap();
        assert_eq!(meta.version, m.meta_of(replica).unwrap().version);
        assert!(!meta.dirty);
    }

    #[test]
    fn optimistic_accepts_only_matching_base() {
        let mut p = OptimisticDetect::new();
        assert!(p.decide_put(oid(1), 5, 5).is_ok());
        assert!(matches!(
            p.decide_put(oid(1), 6, 5),
            Err(ObiError::UpdateRejected { .. })
        ));
        assert!(p.decide_put(oid(1), 5, 6).is_err());
    }

    #[test]
    fn end_to_end_optimistic_conflict() {
        let mut world = ObiWorld::loopback();
        let s1 = world.add_site("S1");
        let s2 = world.add_site("S2");
        let s3 = world.add_site("S3");
        let master = world.site(s2).create(Counter::new(0));
        world.site(s2).export(master, "c").unwrap();
        world.site(s2).set_policy(Box::new(OptimisticDetect::new()));

        let remote1 = world.site(s1).lookup("c").unwrap();
        let remote3 = world.site(s3).lookup("c").unwrap();
        let r1 = world
            .site(s1)
            .get(&remote1, ReplicationMode::incremental(1))
            .unwrap();
        let r3 = world
            .site(s3)
            .get(&remote3, ReplicationMode::incremental(1))
            .unwrap();
        world.site(s1).invoke(r1, "incr", ObiValue::Null).unwrap();
        world.site(s3).invoke(r3, "incr", ObiValue::Null).unwrap();
        // First writer wins…
        world.site(s1).put(r1).unwrap();
        // …second is a conflict.
        assert!(matches!(
            world.site(s3).put(r3),
            Err(ObiError::UpdateRejected { .. })
        ));
        // Loser refreshes and reapplies.
        world.site(s3).refresh(r3).unwrap();
        world.site(s3).invoke(r3, "incr", ObiValue::Null).unwrap();
        world.site(s3).put(r3).unwrap();
        let v = world
            .site(s2)
            .invoke(master, "read", ObiValue::Null)
            .unwrap();
        assert_eq!(v, ObiValue::I64(2));
        world.site(s3).refresh(r3).unwrap();
        assert_converged(&world, s3, r3, s2);
    }

    #[test]
    fn read_only_refuses_everything() {
        let mut p = ReadOnly::new();
        assert!(p.decide_put(oid(1), 1, 1).is_err());
        assert!(p.decide_put(oid(1), 9, 9).is_err());
    }

    #[test]
    fn read_only_end_to_end() {
        let mut world = ObiWorld::loopback();
        let s1 = world.add_site("S1");
        let s2 = world.add_site("S2");
        let master = world.site(s2).create(Counter::new(42));
        world.site(s2).export(master, "ro").unwrap();
        world.site(s2).set_policy(Box::new(ReadOnly::new()));
        let remote = world.site(s1).lookup("ro").unwrap();
        let r = world
            .site(s1)
            .get(&remote, ReplicationMode::incremental(1))
            .unwrap();
        // Reading and even local edits are fine…
        world.site(s1).invoke(r, "incr", ObiValue::Null).unwrap();
        // …but the write-back is refused, and the master is untouched.
        assert!(world.site(s1).put(r).is_err());
        let v = world.site(s2).invoke(master, "read", ObiValue::Null).unwrap();
        assert_eq!(v, ObiValue::I64(42));
        world.site(s1).refresh(r).unwrap();
        assert_converged(&world, s1, r, s2);
    }

    #[test]
    fn a_refused_member_refuses_the_whole_cluster_put() {
        let mut world = ObiWorld::loopback();
        let s1 = world.add_site("S1");
        let s2 = world.add_site("S2");
        let b = world.site(s2).create(LinkedItem::new(2, "b"));
        let a = world.site(s2).create(LinkedItem::with_next(1, "a", b));
        world.site(s2).export(a, "pair").unwrap();
        world.site(s2).set_policy(Box::new(OptimisticDetect::new()));
        let remote = world.site(s1).lookup("pair").unwrap();
        world
            .site(s1)
            .get(&remote, ReplicationMode::cluster(2))
            .unwrap();
        let cluster = world.site(s1).meta_of(a).unwrap().cluster.unwrap();
        assert_eq!(world.site(s1).meta_of(b).unwrap().cluster, Some(cluster));
        world
            .site(s1)
            .invoke(a, "set_value", ObiValue::I64(10))
            .unwrap();
        world
            .site(s1)
            .invoke(b, "set_value", ObiValue::I64(20))
            .unwrap();
        // Member B moves on the master: its replica's base is now stale,
        // while member A's would pass on its own.
        world
            .site(s2)
            .invoke(b, "set_value", ObiValue::I64(30))
            .unwrap();
        let a_before = (
            world.site(s2).meta_of(a).unwrap().version,
            world.site(s2).state_of(a).unwrap(),
        );

        assert!(matches!(
            world.site(s1).put_cluster(cluster),
            Err(ObiError::UpdateRejected { object, .. }) if object == b.id()
        ));
        // Nothing of the put was applied: A's master is as it was.
        let a_after = (
            world.site(s2).meta_of(a).unwrap().version,
            world.site(s2).state_of(a).unwrap(),
        );
        assert_eq!(a_after, a_before);
        assert!(world.site(s1).meta_of(a).unwrap().dirty);
        assert!(world.site(s1).meta_of(b).unwrap().dirty);
    }
}
