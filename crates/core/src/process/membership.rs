//! Membership churn: live join, graceful leave, peer retirement, and
//! mastership handoff without quiescing.

use super::ObiProcess;
use crate::objref::ObjRef;
use crate::replication::replica_state_of;
use crate::space::ReplicaKind;
use obiwan_util::trace;
use obiwan_util::{ObiError, Result, SiteId};
use obiwan_wire::JoinInfo;
use std::collections::{HashSet, VecDeque};

impl ObiProcess {
    /// Joins a live world: enrolls this site at the name server and returns
    /// the bootstrap view (the current peers plus the bound-name catalog).
    /// Admission is idempotent at the server, so a joiner retrying under
    /// loss enrolls exactly once. Replicas are then demanded through the
    /// ordinary incremental pipeline (`lookup` + proxy faulting) while the
    /// rest of the world keeps serving.
    pub fn join(&self) -> Result<JoinInfo> {
        self.shared.client.join(self.shared.ns_site)
    }

    /// Announces a graceful departure: a `Leave` one-way to the name server
    /// (which drops this site from the roster) and to each given peer
    /// (which retires its connectivity state for this site). Best-effort by
    /// design — a frame lost here degrades to the crash-leave path, where
    /// peers retire the site once its breaker opens.
    pub fn leave(&self, peers: &[SiteId]) {
        let _ = self
            .shared
            .client
            .send_leave(self.shared.ns_site, self.shared.site);
        for &peer in peers {
            if peer == self.shared.site || peer == self.shared.ns_site {
                continue;
            }
            let _ = self.shared.client.send_leave(peer, self.shared.site);
        }
    }

    /// Retires `peer` from this site's connectivity tracking: its circuit
    /// breaker slot is dropped, so a departed site stops consuming probe
    /// budget and a future rejoin starts from a clean `Closed` state.
    pub fn retire_peer(&self, peer: SiteId) {
        self.shared.client.breaker().retire_peer(peer);
        self.shared.metrics.incr_peers_retired();
    }

    /// Hands mastership of `root` (and every locally-mastered object
    /// reachable from it) to `successor`, without quiescing: in-flight puts
    /// serialize against the demotion on the process lock, and any put that
    /// arrives after it is answered with [`ObiError::MovedMaster`] so the
    /// caller re-targets the successor with a fresh request id.
    ///
    /// Ordering is demote-first: the transferred objects flip to replicas
    /// pointing at `successor` *before* the state leaves this site, so there
    /// is never a moment with two masters — the failure mode under loss is
    /// an orphaned root (no master until a retry lands), never a split one.
    /// With durability attached, a `HandoffIntent` is forced to the log
    /// before the RPC and a `HandoffComplete` after the ack; recovery from a
    /// crash anywhere in between points the demoted replicas at `successor`
    /// and never resurrects a second master here.
    ///
    /// Retryable: if a previous attempt to the *same* successor failed after
    /// demotion, the (clean, fully-populated) local replicas still hold the
    /// state, and calling again re-sends it. The successor installs
    /// idempotently, version-guarded, so duplicate deliveries are safe.
    ///
    /// Returns the root's version as installed at the successor.
    pub fn handoff(&self, root: ObjRef, successor: SiteId) -> Result<u64> {
        self.pump_pending_chunks();
        let _span = trace::span(&self.shared.clock, "obi.handoff")
            .with_site(self.shared.site)
            .with_obj(root.id());
        if successor == self.shared.site {
            return Err(ObiError::BadArguments(
                "handoff successor must be a different site".into(),
            ));
        }
        if let Some(durable) = self.shared.durable.get() {
            durable.log_handoff_intent(root.id(), successor)?;
        }
        // Collect the transfer set and demote it in one process-lock
        // section: every put either fully applied before this point (its
        // effect is in the serialized entries) or observes replicas and is
        // redirected. Nothing in between.
        let entries = self.with_inner(|_inner| {
            let meta = self
                .shared
                .space
                .meta(root.id())
                .ok_or(ObiError::NoSuchObject(root.id()))?;
            let retrying = match meta.kind {
                ReplicaKind::Master => false,
                // A crashed or failed earlier attempt already demoted us
                // toward this same successor; re-send from the replicas.
                ReplicaKind::Replica { provider } if provider == successor => true,
                ReplicaKind::Replica { provider } => {
                    return Err(ObiError::MovedMaster {
                        object: root.id(),
                        to: provider,
                    })
                }
            };
            let mut queue = VecDeque::from([root.id()]);
            let mut seen = HashSet::from([root.id()]);
            let mut ids = Vec::new();
            while let Some(id) = queue.pop_front() {
                let transferable = self.shared.space.meta(id).is_some_and(|m| match m.kind {
                    ReplicaKind::Master => true,
                    ReplicaKind::Replica { provider } => retrying && provider == successor,
                });
                if !transferable {
                    // Replicas of remote masters and proxies stay put; the
                    // successor will fault them on demand like anyone else.
                    continue;
                }
                ids.push(id);
                if let Ok(refs) = self.shared.space.with_object(id, |o, _| o.refs()) {
                    for r in refs {
                        if seen.insert(r.id()) {
                            queue.push_back(r.id());
                        }
                    }
                }
            }
            let mut entries = Vec::with_capacity(ids.len());
            for id in &ids {
                entries.push(replica_state_of(&self.shared.space, *id)?);
            }
            for id in &ids {
                self.shared.space.update_meta(*id, |meta| {
                    meta.kind = ReplicaKind::Replica {
                        provider: successor,
                    };
                    // The successor's install is the authoritative copy of
                    // exactly these bytes; nothing here needs pushing back.
                    meta.dirty = false;
                    meta.stale = false;
                });
            }
            Ok(entries)
        })?;
        let total: usize = entries.iter().map(|e| e.state.len()).sum();
        self.shared.clock.charge_cpu(self.shared.costs.serialize(total));
        let version = self.shared.client.handoff(successor, root.id(), entries)?;
        if let Some(durable) = self.shared.durable.get() {
            durable.log_handoff_complete(root.id())?;
        }
        self.with_inner(|_inner| {
            self.shared.space.update_meta(root.id(), |meta| {
                meta.version = version;
            });
            Ok(())
        })?;
        self.shared.metrics.incr_handoffs_completed();
        Ok(version)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo::{Counter, LinkedItem};
    use crate::replication::ReplicationMode;
    use crate::world::ObiWorld;
    use obiwan_wire::ObiValue;

    #[test]
    fn handoff_migrates_mastership_without_quiescing() {
        let mut world = ObiWorld::loopback();
        let s1 = world.add_site("client");
        let s2 = world.add_site("old-master");
        let s3 = world.add_site("successor");
        let root = world.site(s2).create(Counter::new(10));
        world.site(s2).export(root, "ctr").unwrap();
        // A client replicates and writes back once pre-handoff.
        let remote = world.site(s1).lookup("ctr").unwrap();
        let replica = world
            .site(s1)
            .get(&remote, ReplicationMode::incremental(1))
            .unwrap();
        world.site(s1).invoke(replica, "incr", ObiValue::Null).unwrap();
        let v1 = world.site(s1).put(replica).unwrap();
        // Mastership moves to s3 while everyone keeps their references.
        let v2 = world.site(s2).handoff(root, s3).unwrap();
        assert_eq!(v2, v1, "handoff preserves the master version");
        let demoted = world.site(s2).meta_of(root).unwrap();
        assert_eq!(demoted.kind, ReplicaKind::Replica { provider: s3 });
        assert!(!demoted.dirty);
        let promoted = world.site(s3).meta_of(root).unwrap();
        assert!(promoted.kind.is_master());
        assert_eq!(promoted.version, v1);
        assert_eq!(world.site(s2).metrics().snapshot().handoffs_completed, 1);
        // The client still points at s2; its next put is redirected to s3
        // and applies exactly once there.
        world.site(s1).invoke(replica, "incr", ObiValue::Null).unwrap();
        let v3 = world.site(s1).put(replica).unwrap();
        assert_eq!(v3, v1 + 1);
        assert_eq!(
            world.site(s1).meta_of(replica).unwrap().kind,
            ReplicaKind::Replica { provider: s3 }
        );
        assert_eq!(world.site(s1).metrics().snapshot().moved_master_redirects, 1);
        assert_eq!(
            world.site(s3).invoke(root, "read", ObiValue::Null).unwrap(),
            ObiValue::I64(12)
        );
        // s2's own next write goes through the ordinary replica put path.
        // Its demoted replica still holds the handoff-time value (11): the
        // write-back carries 16 and last-writer-wins at the new master.
        world.site(s2).invoke(root, "add", ObiValue::I64(5)).unwrap();
        world.site(s2).put(root).unwrap();
        assert_eq!(
            world.site(s3).invoke(root, "read", ObiValue::Null).unwrap(),
            ObiValue::I64(16)
        );
    }

    #[test]
    fn handoff_retry_to_same_successor_is_idempotent() {
        let mut world = ObiWorld::loopback();
        let s2 = world.add_site("old-master");
        let s3 = world.add_site("successor");
        let root = world.site(s2).create(Counter::new(3));
        world.site(s2).export(root, "ctr").unwrap();
        let v = world.site(s2).handoff(root, s3).unwrap();
        // A predecessor that missed the ack re-sends from its demoted
        // replicas; the successor's version guard makes it a no-op.
        let again = world.site(s2).handoff(root, s3).unwrap();
        assert_eq!(again, v);
        assert!(world.site(s3).meta_of(root).unwrap().kind.is_master());
        assert_eq!(
            world.site(s3).invoke(root, "read", ObiValue::Null).unwrap(),
            ObiValue::I64(3)
        );
        // A handoff toward a *different* site than the recorded successor
        // is refused with the redirect, not silently re-homed.
        let s4 = world.add_site("other");
        assert!(matches!(
            world.site(s2).handoff(root, s4),
            Err(ObiError::MovedMaster { to, .. }) if to == s3
        ));
        assert_eq!(world.site(s2).metrics().snapshot().handoffs_completed, 2);
    }

    #[test]
    fn handoff_carries_the_locally_mastered_closure() {
        // head -> node2 (both mastered at s2): the whole graph migrates and
        // the successor serves faults on it.
        let mut world = ObiWorld::loopback();
        let s1 = world.add_site("client");
        let s2 = world.add_site("old-master");
        let s3 = world.add_site("successor");
        let tail = world.site(s2).create(LinkedItem::new(2, "tail"));
        let head = world
            .site(s2)
            .create(LinkedItem::with_next(1, "head", tail));
        world.site(s2).export(head, "head").unwrap();
        world.site(s2).handoff(head, s3).unwrap();
        assert!(world.site(s3).meta_of(head).unwrap().kind.is_master());
        assert!(world.site(s3).meta_of(tail).unwrap().kind.is_master());
        // A fresh client walks the list entirely out of the successor.
        let remote = world.site(s1).lookup("head").unwrap();
        let replica = world
            .site(s1)
            .get(&remote, ReplicationMode::transitive())
            .unwrap();
        assert_eq!(
            world
                .site(s1)
                .invoke(replica, "sum_rest", ObiValue::Null)
                .unwrap(),
            ObiValue::I64(3)
        );
    }

    #[test]
    fn graceful_leave_retires_peer_state_everywhere() {
        let mut world = ObiWorld::loopback();
        let s1 = world.add_site("stayer");
        let s2 = world.add_site("leaver");
        world.site(s1).join().unwrap();
        world.site(s2).join().unwrap();
        assert!(world.site(s1).ping(s2).is_ok());
        world.site(s2).leave(&[s1]);
        // The peer retired the leaver's breaker slot...
        assert_eq!(world.site(s1).metrics().snapshot().peers_retired, 1);
        // ...and the name server dropped it from the roster: a later
        // joiner no longer sees it.
        let s3 = world.add_site("late");
        let info = world.site(s3).join().unwrap();
        assert_eq!(info.peers, vec![s1]);
    }

    #[test]
    fn joiner_bootstraps_from_a_live_world() {
        let mut world = ObiWorld::loopback();
        let s1 = world.add_site("S1");
        world.site(s1).join().unwrap();
        let ctr = world.site(s1).create(Counter::new(7));
        world.site(s1).export(ctr, "hits").unwrap();
        // A site joins mid-run: the ack carries the roster and catalog,
        // and replication proceeds through the ordinary demand pipeline.
        let s2 = world.add_site("joiner");
        let info = world.site(s2).join().unwrap();
        assert_eq!(info.peers, vec![s1]);
        assert_eq!(info.names.len(), 1);
        let (name, id) = &info.names[0];
        assert_eq!(name, "hits");
        assert_eq!(*id, ctr.id());
        let remote = world.site(s2).lookup("hits").unwrap();
        let replica = world
            .site(s2)
            .get(&remote, ReplicationMode::incremental(1))
            .unwrap();
        assert_eq!(
            world.site(s2).invoke(replica, "read", ObiValue::Null).unwrap(),
            ObiValue::I64(7)
        );
    }
}
