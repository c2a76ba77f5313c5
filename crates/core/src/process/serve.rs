//! The service endpoint (skeleton side): what this process answers when a
//! peer invokes, demands, puts, hands off, subscribes or sends a notice.

use super::invoke::{finish_invocation, invoke_inner, log_dirty_deltas};
use super::update::queue_notifications;
use super::{Notice, ObiProcess, ProcessInner, ProcessShared};
use crate::replication::build_batch_many;
use crate::space::{ObjectMeta, ReplicaKind, Resolution};
use obiwan_rmi::RmiService;
use obiwan_util::trace;
use obiwan_util::{ClusterId, ObiError, ObjId, Result, SiteId};
use obiwan_wire::{NameOp, ObiValue, ReplicaBatch, ReplicaState, WireMode};
use std::sync::atomic::Ordering;
use std::sync::Arc;

pub(super) struct ProcessService {
    pub(super) shared: Arc<ProcessShared>,
}

impl ProcessService {
    /// Mints the closure that names the next cluster batch. The counter is
    /// atomic, so concurrent serve-gets each draw a distinct generation.
    fn next_cluster(&self) -> impl FnOnce() -> ClusterId {
        let site = self.shared.site;
        let current = self.shared.cluster_seq.fetch_add(1, Ordering::Relaxed);
        move || ClusterId::new(site, current)
    }

    /// The serve-get fast path: builds the batch straight off the sharded
    /// space, one shard read at a time, *without* the process lock. Remote
    /// readers therefore scale with the shard count while local invocations
    /// keep serializing on the process lock. Charges provider-side
    /// marshalling and registers proxy-ins so replicas can be individually
    /// updated (one per object) or cluster-updated (root only).
    ///
    /// The one semantic difference from the locked path: a slot owned by an
    /// in-flight invocation reads as `Busy` (the locked path would have
    /// waited the invocation out). Callers retry under the process lock on
    /// any error, which restores exactly the old blocking behavior.
    fn serve_get_many_fast(&self, targets: &[ObjId], mode: WireMode) -> Result<ReplicaBatch> {
        let batch = build_batch_many(&self.shared.space, targets, mode, self.next_cluster())?;
        self.shared
            .clock
            .charge_cpu(self.shared.costs.serialize(batch.state_bytes()));
        match batch.cluster {
            Some(_) => self.shared.export_all([batch.root]),
            None => self.shared.export_all(batch.replicas.iter().map(|r| r.id)),
        }
        Ok(batch)
    }
}

impl RmiService for ProcessService {
    fn invoke(
        &self,
        _from: SiteId,
        target: ObjId,
        method: &str,
        args: ObiValue,
    ) -> Result<ObiValue> {
        let mut dirtied: Vec<(ObjId, SiteId)> = Vec::new();
        let result = self.shared.with_inner(|inner| {
            let mut modified = Vec::new();
            let result = invoke_inner(inner, &self.shared, target, method, &args, &mut modified, 0);
            dirtied = finish_invocation(inner, &self.shared, &modified);
            result
        });
        log_dirty_deltas(&self.shared, &dirtied);
        result
    }

    fn get_many(&self, _from: SiteId, targets: &[ObjId], mode: WireMode) -> Result<ReplicaBatch> {
        let _span = trace::span(&self.shared.clock, "obi.serve_get_many")
            .with_site(self.shared.site)
            .with_value(targets.len() as u64);
        match self.serve_get_many_fast(targets, mode) {
            Ok(batch) => Ok(batch),
            // A miss may mean a concurrent invocation holds the slot Busy;
            // the process lock waits every invocation out, then the slot is
            // live again (or genuinely absent).
            Err(_) => self.shared.with_inner(|_inner| self.serve_get_many_fast(targets, mode)),
        }
    }

    fn put(&self, from: SiteId, entries: Vec<ReplicaState>) -> Result<Vec<(ObjId, u64)>> {
        self.shared.with_inner(|inner| {
            // Phase 1: validate every entry against the policy, atomically.
            for entry in &entries {
                let meta = self
                    .shared
                    .space
                    .meta(entry.id)
                    .ok_or(ObiError::NoSuchObject(entry.id))?;
                if !meta.kind.is_master() {
                    // A demoted ex-master knows where mastership went: its
                    // replica's provider is the handoff successor. Answer
                    // with a redirect so the client re-targets instead of
                    // treating the put as definitively rejected.
                    if let ReplicaKind::Replica { provider } = meta.kind {
                        return Err(ObiError::MovedMaster {
                            object: entry.id,
                            to: provider,
                        });
                    }
                    return Err(ObiError::UpdateRejected {
                        object: entry.id,
                        reason: "target is not the master replica".into(),
                    });
                }
                let master_version = meta.version;
                if let Err(e) = inner
                    .policy
                    .decide_put(entry.id, master_version, entry.version)
                {
                    self.shared.metrics.incr_conflicts_detected();
                    return Err(e);
                }
            }
            // Phase 2: apply.
            let mut versions = Vec::with_capacity(entries.len());
            for entry in &entries {
                let current = self
                    .shared
                    .space
                    .meta(entry.id)
                    .ok_or(ObiError::NoSuchObject(entry.id))?;
                let new_version = current.version + 1;
                let mut meta = ObjectMeta::master(entry.id);
                meta.version = new_version;
                self.shared.install_state(entry, meta)?;
                inner.policy.on_master_updated(entry.id, new_version);
                self.shared.metrics.incr_puts();
                versions.push((entry.id, new_version));
                queue_notifications(inner, &self.shared, entry.id, from);
            }
            Ok(versions)
        })
    }

    fn handoff(&self, from: SiteId, root: ObjId, entries: Vec<ReplicaState>) -> Result<u64> {
        if entries.is_empty() {
            return Err(ObiError::BadArguments("handoff carries no entries".into()));
        }
        if !entries.iter().any(|e| e.id == root) {
            return Err(ObiError::BadArguments(
                "handoff entries do not include the root".into(),
            ));
        }
        self.shared.with_inner(|inner| {
            let mut root_version = 0;
            for entry in &entries {
                // Idempotent install: a duplicate delivery (the ack was
                // lost, the predecessor retried) must not regress state
                // this master has advanced since the first copy landed.
                if let Some(meta) = self.shared.space.meta(entry.id) {
                    if meta.kind.is_master() && meta.version >= entry.version {
                        if entry.id == root {
                            root_version = meta.version;
                        }
                        continue;
                    }
                }
                let mut meta = ObjectMeta::master(entry.id);
                meta.version = entry.version;
                self.shared.install_state(entry, meta)?;
                inner.policy.on_master_updated(entry.id, entry.version);
                if entry.id == root {
                    root_version = entry.version;
                }
                // Anyone holding a replica from the old master keeps
                // working: this site now answers their gets and puts.
                self.shared.subscribe(entry.id, from, false);
            }
            // The transferred graph is live by definition — the predecessor
            // was serving it — so pin the root against the next sweep.
            self.shared.space.add_root(root);
            Ok(root_version)
        })
    }

    fn leave_notice(&self, _from: SiteId, site: SiteId) {
        self.shared.client.breaker().retire_peer(site);
        self.shared.metrics.incr_peers_retired();
    }

    fn name_op(&self, _from: SiteId, op: NameOp) -> Result<ObiValue> {
        // Object-space hosts do not serve names; the world's dedicated name
        // server site does. Reject with the proper error.
        let name = match op {
            NameOp::Bind { name, .. } | NameOp::Lookup { name } | NameOp::Unbind { name } => name,
            NameOp::List => "*".to_owned(),
        };
        Err(ObiError::NameNotBound(name))
    }

    fn subscribe(&self, from: SiteId, object: ObjId, push: bool) -> Result<ObiValue> {
        self.shared.with_inner(|_inner| {
            if !matches!(self.shared.space.resolve(object), Resolution::Object(_)) {
                return Err(ObiError::NoSuchObject(object));
            }
            self.shared.subscribe(object, from, push);
            Ok(ObiValue::Null)
        })
    }

    fn invalidate(&self, _from: SiteId, objects: Vec<ObjId>) {
        self.shared.deliver(Notice::Invalidate(objects));
    }

    fn update_push(&self, _from: SiteId, entries: Vec<ReplicaState>) {
        self.shared.deliver(Notice::UpdatePush(entries));
    }
}

impl ProcessShared {
    /// Applies an arriving notice now, or parks it in the inbox when this
    /// thread is already inside the process (the lock would self-deadlock).
    fn deliver(&self, notice: Notice) {
        match self.enter() {
            Ok(mut g) => apply_notice(&mut g, self, notice),
            Err(_) => self.inbox.lock().push_back(notice),
        }
    }

    /// Applies notices that arrived while this process was busy, oldest
    /// first.
    fn drain_inbox(&self) {
        loop {
            let Some(notice) = self.inbox.lock().pop_front() else {
                return;
            };
            match self.enter() {
                Ok(mut g) => apply_notice(&mut g, self, notice),
                // Still inside one of our own frames: back to the *front*
                // of the queue, so nothing overtakes it, and let the
                // outermost caller drain.
                Err(_) => {
                    self.inbox.lock().push_front(notice);
                    return;
                }
            }
        }
    }
}

impl ObiProcess {
    /// Applies notices that arrived while this process was busy (a site
    /// pumped from outside calls this between operations).
    pub fn drain_inbox(&self) {
        self.shared.drain_inbox();
    }
}

/// Applies one notice from a master to the replicas held here. Call under
/// the process lock (`_held` is the caller's proof of it).
fn apply_notice(_held: &mut ProcessInner, shared: &ProcessShared, notice: Notice) {
    match notice {
        Notice::Invalidate(objects) => {
            for id in objects {
                shared.space.update_meta(id, |meta| {
                    if !meta.kind.is_master() {
                        meta.stale = true;
                    }
                });
            }
        }
        Notice::UpdatePush(entries) => {
            for state in entries {
                let Some(meta) = shared.space.meta(state.id) else {
                    continue;
                };
                // Masters take no pushes.
                let ReplicaKind::Replica { provider } = meta.kind else {
                    continue;
                };
                if meta.dirty {
                    // Local un-pushed edits win locally; remember staleness.
                    shared.space.update_meta(state.id, |m| m.stale = true);
                    continue;
                }
                let mut new_meta = ObjectMeta::replica(state.id, provider, state.version);
                new_meta.cluster = meta.cluster;
                // An undecodable push is dropped: the replica stays as it is.
                let _ = shared.install_state(&state, new_meta);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::ConsistencyHook;
    use crate::process::testing::list_world;
    use crate::replication::ReplicationMode;

    #[test]
    fn rejecting_policy_blocks_puts() {
        struct RejectAll;
        impl ConsistencyHook for RejectAll {
            fn name(&self) -> &'static str {
                "reject-all"
            }
            fn decide_put(&mut self, object: ObjId, _mv: u64, _bv: u64) -> Result<()> {
                Err(ObiError::UpdateRejected {
                    object,
                    reason: "policy says no".into(),
                })
            }
        }
        let (world, s1, s2, _refs) = list_world(1);
        world.site(s2).set_policy(Box::new(RejectAll));
        let remote = world.site(s1).lookup("head").unwrap();
        let root = world
            .site(s1)
            .get(&remote, ReplicationMode::incremental(1))
            .unwrap();
        world
            .site(s1)
            .invoke(root, "set_value", ObiValue::I64(9))
            .unwrap();
        let err = world.site(s1).put(root).unwrap_err();
        assert!(matches!(err, ObiError::UpdateRejected { .. }));
        // Replica stays dirty for a later retry.
        assert!(world.site(s1).meta_of(root).unwrap().dirty);
        assert_eq!(world.site(s2).metrics().snapshot().conflicts_detected, 1);
    }

    #[test]
    fn invalidation_subscription_marks_replicas_stale() {
        let (world, s1, s2, refs) = list_world(1);
        let remote = world.site(s1).lookup("head").unwrap();
        let root = world
            .site(s1)
            .get(&remote, ReplicationMode::incremental(1))
            .unwrap();
        world.site(s1).subscribe(root, false).unwrap();
        assert!(!world.site(s1).meta_of(root).unwrap().stale);
        // Master mutates -> invalidation flows to S1.
        world
            .site(s2)
            .invoke(refs[0], "set_value", ObiValue::I64(3))
            .unwrap();
        world.pump();
        assert!(world.site(s1).meta_of(root).unwrap().stale);
        // Refresh clears staleness.
        world.site(s1).refresh(root).unwrap();
        assert!(!world.site(s1).meta_of(root).unwrap().stale);
    }

    #[test]
    fn push_subscription_updates_replica_state() {
        let (world, s1, s2, refs) = list_world(1);
        let remote = world.site(s1).lookup("head").unwrap();
        let root = world
            .site(s1)
            .get(&remote, ReplicationMode::incremental(1))
            .unwrap();
        world.site(s1).subscribe(root, true).unwrap();
        world
            .site(s2)
            .invoke(refs[0], "set_value", ObiValue::I64(77))
            .unwrap();
        world.pump();
        let v = world.site(s1).invoke(root, "value", ObiValue::Null).unwrap();
        assert_eq!(v, ObiValue::I64(77));
        assert!(!world.site(s1).meta_of(root).unwrap().stale);
    }

    /// `LinkedItem { value: 99, .. }`'s state for `id`, with `junk` bytes
    /// after it.
    fn state_with_junk(id: ObjId, version: u64, junk: &[u8]) -> ReplicaState {
        use crate::object::ObiObject;
        let mut enc = obiwan_wire::Encoder::new();
        crate::demo::LinkedItem::new(99, "n0").encode_state(&mut enc);
        let mut state = enc.into_vec();
        state.extend_from_slice(junk);
        ReplicaState {
            id,
            class: "LinkedItem".into(),
            version,
            state: state.into(),
        }
    }

    #[test]
    fn a_put_whose_state_has_trailing_bytes_is_a_decode_error_and_installs_nothing() {
        let (world, s1, s2, refs) = list_world(1);
        let before = world.site(s2).meta_of(refs[0]).unwrap().version;
        let put = |junk: &[u8]| {
            let frame = obiwan_wire::Message::PutRequest {
                request: obiwan_util::RequestId::new(s1, 7 + junk.len() as u64),
                entries: vec![state_with_junk(refs[0].id(), before, junk)],
            }
            .encode();
            let reply = world.site(s2).message_handler().handle(s1, frame).unwrap();
            match obiwan_wire::Message::decode(&reply).unwrap() {
                obiwan_wire::Message::PutReply { result, .. } => result,
                other => panic!("not a put reply: {other:?}"),
            }
        };
        assert!(matches!(put(&[0]), Err(ObiError::Decode(_))));
        let value = world.site(s2).invoke(refs[0], "value", ObiValue::Null).unwrap();
        assert_eq!(value, ObiValue::I64(0), "nothing was installed");
        assert_eq!(world.site(s2).meta_of(refs[0]).unwrap().version, before);
        // The same put without the junk byte applies.
        assert_eq!(put(&[]).unwrap(), vec![(refs[0].id(), before + 1)]);
        let value = world.site(s2).invoke(refs[0], "value", ObiValue::Null).unwrap();
        assert_eq!(value, ObiValue::I64(99));
    }

    #[test]
    fn a_push_whose_state_has_trailing_bytes_installs_nothing() {
        let (world, s1, s2, _refs) = list_world(1);
        let remote = world.site(s1).lookup("head").unwrap();
        let root = world
            .site(s1)
            .get(&remote, ReplicationMode::incremental(1))
            .unwrap();
        let before = world.site(s1).meta_of(root).unwrap();
        let push = |junk: &[u8]| {
            let entry = state_with_junk(root.id(), before.version + 1, junk);
            let frame = obiwan_wire::Message::UpdatePush {
                entries: vec![entry],
            }
            .encode();
            assert!(world.site(s1).message_handler().handle(s2, frame).is_none());
        };
        // What the push handler drops: a decode error.
        let entry = state_with_junk(root.id(), before.version + 1, &[0]);
        let err = world.site(s1).shared.install_state(&entry, before.clone()).unwrap_err();
        assert!(matches!(err, ObiError::Decode(_)), "{err}");
        push(&[0]);
        let value = world.site(s1).invoke(root, "value", ObiValue::Null).unwrap();
        assert_eq!(value, ObiValue::I64(0), "nothing was installed");
        assert_eq!(world.site(s1).meta_of(root).unwrap().version, before.version);
        // The same push without the junk byte lands.
        push(&[]);
        let value = world.site(s1).invoke(root, "value", ObiValue::Null).unwrap();
        assert_eq!(value, ObiValue::I64(99));
        assert_eq!(world.site(s1).meta_of(root).unwrap().version, before.version + 1);
    }

    #[test]
    fn pushed_updates_do_not_clobber_dirty_replicas() {
        let (world, s1, s2, refs) = list_world(1);
        let remote = world.site(s1).lookup("head").unwrap();
        let root = world
            .site(s1)
            .get(&remote, ReplicationMode::incremental(1))
            .unwrap();
        world.site(s1).subscribe(root, true).unwrap();
        // Local edit first.
        world
            .site(s1)
            .invoke(root, "set_value", ObiValue::I64(1))
            .unwrap();
        // Remote edit pushes.
        world
            .site(s2)
            .invoke(refs[0], "set_value", ObiValue::I64(2))
            .unwrap();
        world.pump();
        // Local edit survives; staleness is recorded.
        let v = world.site(s1).invoke(root, "value", ObiValue::Null).unwrap();
        assert_eq!(v, ObiValue::I64(1));
        let meta = world.site(s1).meta_of(root).unwrap();
        assert!(meta.dirty);
        assert!(meta.stale);
    }
}
