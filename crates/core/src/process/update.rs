//! Update traffic: replica write-back (`put`), re-fetch (`refresh`),
//! subscriptions, and the notices a master queues for its subscribers.

use super::demand::Handling;
use super::{Notice, ObiProcess, ProcessInner, ProcessShared};
use crate::objref::ObjRef;
use crate::replication::replica_state_of;
use crate::shards::ShardedSpace;
use crate::space::ReplicaKind;
use obiwan_store::{state_fingerprint, PendingPut};
use obiwan_util::trace;
use obiwan_util::{ClusterId, LatencyKind, ObiError, ObjId, RequestId, Result, SiteId};
use obiwan_wire::{ReplicaState, WireMode};
use std::time::Duration;

/// Most puts [`ObiProcess::put_many`] makes durable and sends as one
/// group. Well under `ReplyCache::DEFAULT_CAPACITY`, so the master still
/// holds every reply of a group a crash makes the client replay; and the
/// bound on request ids reserved but not yet settled, which hold the
/// client's `HorizonTracker` back.
const PUT_GROUP: usize = 64;

/// Outcome of [`ObiProcess::refresh_or_stale`]: whether the replica was
/// re-fetched from its master or intentionally left stale because the
/// master is unreachable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Freshness {
    /// The master answered; the replica now matches it.
    Fresh,
    /// The master is unreachable; the existing (possibly stale) replica
    /// is served as-is until connectivity returns.
    Stale,
}

/// One put readied by `ObiProcess::put_plan`.
struct PlannedPut {
    provider: SiteId,
    /// The replica's state as snapshotted: what the put carries.
    entry: ReplicaState,
    /// Names `entry`'s state: what the intent covers, and what the replica
    /// must still hold at the ack to come out clean.
    fingerprint: u64,
    /// With durability attached, the id the put's durable intent names.
    request: Option<RequestId>,
}

/// Queues invalidations/pushes for every subscriber of `id` except
/// `originator`.
pub(super) fn queue_notifications(
    inner: &mut ProcessInner,
    shared: &ProcessShared,
    id: ObjId,
    originator: SiteId,
) {
    // Snapshot the subscriber list and release the exports lock before
    // touching the space: the exports guard must never overlap a shard
    // acquisition.
    let subscribers = shared.subscribers_except(id, originator);
    if subscribers.is_empty() {
        return;
    }
    let push_state = if subscribers.iter().any(|s| s.push) {
        replica_state_of(&shared.space, id).ok()
    } else {
        None
    };
    for sub in subscribers {
        let notice = match &push_state {
            Some(state) if sub.push => Notice::UpdatePush(vec![state.clone()]),
            _ => Notice::Invalidate(vec![id]),
        };
        inner.outbox.push((sub.site, notice));
    }
}

impl ObiProcess {
    /// Sends this replica's state back to its master (`IProvide::put`),
    /// returning the master version that accepted it.
    ///
    /// # Errors
    ///
    /// * [`ObiError::ClusterMember`] — cluster members cannot be
    ///   individually updated (§4.3); use [`ObiProcess::put_cluster`].
    /// * [`ObiError::UpdateRejected`] — the master's consistency policy
    ///   refused the write-back.
    /// * [`ObiError::NotReplicated`] / [`ObiError::BadArguments`] — no such
    ///   local replica / target is a master.
    pub fn put(&self, target: ObjRef) -> Result<u64> {
        let (_, outcome) = self
            .put_many(&[target])
            .pop()
            .expect("put_many reports every target");
        outcome
    }

    /// Writes each of `targets` back to its master, reporting every
    /// object's outcome (the master version that accepted it, or why not —
    /// see [`ObiProcess::put`]) in `targets` order. One object's failure
    /// does not stop the others, except that once a master proves
    /// unreachable the objects of later groups mastered there are reported
    /// [`ObiError::SiteUnreachable`] unsent.
    ///
    /// The write-back proceeds in groups of at most `PUT_GROUP` (64). With
    /// durability attached, a group's put intents — object, request id,
    /// state fingerprint — become durable with one log write and one sync,
    /// and only then do its `PutRequest`s leave, one per object under the
    /// ids the intents name. A crash at any point replays the unconfirmed
    /// puts under those same ids, and the master's reply cache deduplicates
    /// the ones that had landed: exactly-once across restarts, at one sync
    /// per group instead of one per object.
    pub fn put_many(&self, targets: &[ObjRef]) -> Vec<(ObjId, Result<u64>)> {
        self.pump_pending_chunks();
        let mut outcomes = Vec::with_capacity(targets.len());
        let mut unreachable = Vec::new();
        for group in targets.chunks(PUT_GROUP) {
            let mut last_confirmed = None;
            for (&target, planned) in group.iter().zip(self.put_plan(group, &unreachable)) {
                let id = target.id();
                let _span = trace::span(&self.shared.clock, "obi.put")
                    .with_site(self.shared.site)
                    .with_obj(id);
                let start = self.shared.clock.virtual_nanos();
                let mut provider = planned.as_ref().ok().map(|put| put.provider);
                let mut outcome = planned.and_then(|put| self.put_send(put));
                if let Err(ObiError::MovedMaster { to, .. }) = outcome {
                    self.shared.metrics.incr_moved_master_redirects();
                    provider = Some(to);
                    outcome = self.put_redirected(target, to);
                }
                self.shared.metrics.record_latency(
                    LatencyKind::Put,
                    Duration::from_nanos(self.shared.clock.virtual_nanos().saturating_sub(start)),
                );
                match &outcome {
                    Ok(_) => last_confirmed = Some(outcomes.len()),
                    Err(e) if e.is_connectivity() => unreachable.extend(provider),
                    Err(_) => {}
                }
                outcomes.push((id, outcome));
            }
            // Refresh the persisted client watermark once per group that
            // confirmed anything: recovery restores the request counter and
            // reply horizon from it. Like the confirmations it is not
            // forced — losing it costs a replayed put or a wider seq skip,
            // never a wrong one.
            if let (Some(last), Some(durable)) = (last_confirmed, self.shared.durable.get()) {
                if let Err(e) = durable.log_client_state(
                    self.shared.client.request_seq(),
                    self.shared.client.horizon_tracker().horizon(),
                ) {
                    outcomes[last].1 = Err(e);
                }
            }
        }
        outcomes
    }

    /// The addressed site no longer masters `target` — mastership was handed
    /// off and the reply named the successor `to`. The old request id is
    /// spent there (`put_send` already abandoned the intent: the redirect is
    /// cached under it), so re-point the replica's provider and put once
    /// more under a fresh id.
    fn put_redirected(&self, target: ObjRef, to: SiteId) -> Result<u64> {
        self.with_inner(|_inner| {
            self.shared.space.update_meta(target.id(), |meta| {
                if let ReplicaKind::Replica { provider } = &mut meta.kind {
                    *provider = to;
                }
            });
            Ok(())
        })?;
        let put = self
            .put_plan(&[target], &[])
            .pop()
            .expect("put_plan plans every target")?;
        self.put_send(put)
    }

    /// Readies one group of puts: snapshots each replica's state under one
    /// entry of the process lock and, with durability attached, makes every
    /// put's intent durable before any of them can leave (recovery
    /// invariant 2 in `obiwan-store`). Objects mastered at an `unreachable`
    /// site are not planned.
    fn put_plan(&self, targets: &[ObjRef], unreachable: &[SiteId]) -> Vec<Result<PlannedPut>> {
        let space = &self.shared.space;
        let snapshot = self.with_inner(|_inner| {
            let plan = |id: ObjId| {
                let meta = space.meta(id).ok_or(ObiError::NotReplicated(id))?;
                let ReplicaKind::Replica { provider } = meta.kind else {
                    return Err(ObiError::BadArguments(
                        "put applies to replicas, not masters".into(),
                    ));
                };
                if meta.cluster.is_some() {
                    return Err(ObiError::ClusterMember(id));
                }
                if unreachable.contains(&provider) {
                    return Err(ObiError::SiteUnreachable(provider));
                }
                let entry = replica_state_of(space, id)?;
                let fingerprint = state_fingerprint(&entry);
                Ok(PlannedPut {
                    provider,
                    entry,
                    fingerprint,
                    request: None,
                })
            };
            Ok(targets.iter().map(|t| plan(t.id())).collect::<Vec<_>>())
        });
        let mut plans = match snapshot {
            Ok(plans) => plans,
            Err(e) => return targets.iter().map(|_| Err(e.clone())).collect(),
        };
        let Some(durable) = self.shared.durable.get() else {
            return plans;
        };
        let client = &self.shared.client;
        let mut fresh = Vec::new();
        let mut replaced = Vec::new();
        for put in plans.iter_mut().flatten() {
            let id = put.entry.id;
            let pending = durable.pending_put(id);
            let seq = match pending {
                // Replay of the exact state the intent covered (crash
                // recovery, or a retry after a connectivity failure):
                // reuse the logged id so the master dedupes it.
                Some(pending) if pending.fingerprint == put.fingerprint => pending.seq,
                // No intent, or one for a state the replica has since left.
                // That one's seq may already be spent at the master (the
                // old state applied, the reply lost), and reusing it would
                // serve the cached ack WITHOUT applying this state —
                // silently dropping it. `log_put_intents` retires it and
                // covers the current state under a fresh id.
                _ => {
                    let seq = client.reserve_request().seq();
                    let fingerprint = put.fingerprint;
                    fresh.push((id, PendingPut { seq, fingerprint }));
                    replaced.extend(pending.map(|stale| (put.provider, stale.seq)));
                    seq
                }
            };
            put.request = Some(RequestId::new(self.shared.site, seq));
        }
        // (Bound first so the `wal-intent-lifecycle` lint sees the match as
        // this function's exit: the intents leave with `plans`, whose sender
        // retires each.)
        let logged = durable.log_put_intents(&fresh);
        match logged {
            Ok(()) => {
                for (provider, seq) in replaced {
                    client.settle(provider, RequestId::new(self.shared.site, seq));
                }
                plans
            }
            // The log is failing: nothing of this group leaves.
            Err(e) => plans
                .into_iter()
                .map(|put| put.and_then(|_| Err(e.clone())))
                .collect(),
        }
    }

    /// Sends one planned put and settles it: the ack is logged, and the
    /// replica is clean again if it still holds the state that was sent.
    fn put_send(&self, put: PlannedPut) -> Result<u64> {
        let PlannedPut {
            provider,
            entry,
            fingerprint,
            request,
        } = put;
        let id = entry.id;
        let durable = self.shared.durable.get();
        self.shared
            .clock
            .charge_cpu(self.shared.costs.serialize(entry.state.len()));
        let sent = match request {
            Some(request) => self.shared.client.put_with_request(provider, vec![entry], request),
            None => self.shared.client.put(provider, vec![entry]),
        };
        // A put under a durable intent settles its request id only here,
        // once the log holds the record that retires the intent: until then
        // a crash replays the id, and the master must still hold its reply.
        let retired = |logged: Result<()>| {
            logged?;
            if let Some(request) = request {
                self.shared.client.settle(provider, request);
            }
            Ok(())
        };
        let versions = match sent {
            Ok(versions) => versions,
            Err(e) => {
                // A definitive (non-connectivity) rejection means the
                // master processed this request and cached the error
                // reply — the intent's seq is spent, and reusing it on a
                // later put would replay the cached rejection.
                // Connectivity failures keep the intent: the reply is
                // unknown, so the retry must dedupe under the same id.
                if let (false, Some(durable)) = (e.is_connectivity(), durable) {
                    retired(durable.log_put_abandoned(id))?;
                }
                return Err(e);
            }
        };
        let &(_, version) = versions
            .first()
            .ok_or_else(|| ObiError::Internal("empty put reply".into()))?;
        if let Some(durable) = durable {
            retired(durable.log_confirm(id, version, fingerprint))?;
        }
        self.with_inner(|_inner| {
            settle_acked(&self.shared.space, id, version, Some(fingerprint));
            Ok(())
        })?;
        Ok(version)
    }

    /// Writes a whole cluster back to its provider in one `put` (the only
    /// way to update cluster members).
    pub fn put_cluster(&self, cluster: ClusterId) -> Result<Vec<(ObjId, u64)>> {
        self.pump_pending_chunks();
        let (provider, entries) = self.with_inner(|_inner| {
            let space = &self.shared.space;
            let members: Vec<ObjId> = space
                .object_ids()
                .into_iter()
                .filter(|id| space.meta(*id).is_some_and(|m| m.cluster == Some(cluster)))
                .collect();
            if members.is_empty() {
                return Err(ObiError::BadArguments(format!(
                    "no local members of {cluster}"
                )));
            }
            let provider = match space.meta(members[0]).map(|m| m.kind) {
                Some(ReplicaKind::Replica { provider }) => provider,
                _ => {
                    return Err(ObiError::BadArguments(
                        "cluster members are not replicas".into(),
                    ))
                }
            };
            let mut entries = Vec::with_capacity(members.len());
            for id in members {
                entries.push(replica_state_of(space, id)?);
            }
            Ok((provider, entries))
        })?;
        let total: usize = entries.iter().map(|e| e.state.len()).sum();
        self.shared.clock.charge_cpu(self.shared.costs.serialize(total));
        let sent: std::collections::BTreeMap<ObjId, u64> = entries
            .iter()
            .map(|e| (e.id, state_fingerprint(e)))
            .collect();
        let versions = self.shared.client.put(provider, entries)?;
        if let Some(durable) = self.shared.durable.get() {
            // Cluster puts are not in the disconnected replay path, so no
            // intent record — but confirmed members' deltas are superseded.
            for &(id, version) in &versions {
                if let Some(&fingerprint) = sent.get(&id) {
                    durable.log_confirm(id, version, fingerprint)?;
                }
            }
        }
        self.with_inner(|_inner| {
            for &(id, version) in &versions {
                settle_acked(&self.shared.space, id, version, sent.get(&id).copied());
            }
            Ok(())
        })?;
        Ok(versions)
    }

    /// Writes every dirty replica back to its master; returns how many
    /// objects were pushed. Plain replicas go through
    /// [`put_many`](ObiProcess::put_many) — all of them are attempted before
    /// the first failure, if any, is returned — and dirty cluster members
    /// are pushed cluster-wise after them.
    pub fn put_all_dirty(&self) -> Result<usize> {
        self.pump_pending_chunks();
        let (dirty_plain, dirty_clusters) = self.with_inner(|_inner| {
            let mut plain = Vec::new();
            let mut clusters = std::collections::BTreeSet::new();
            for id in self.shared.space.object_ids() {
                let Some(meta) = self.shared.space.meta(id) else {
                    continue;
                };
                if !meta.dirty || meta.kind.is_master() {
                    continue;
                }
                match meta.cluster {
                    Some(c) => {
                        clusters.insert(c);
                    }
                    None => plain.push(ObjRef::new(id)),
                }
            }
            Ok((plain, clusters))
        })?;
        let mut pushed = 0;
        for (_, outcome) in self.put_many(&dirty_plain) {
            outcome?;
            pushed += 1;
        }
        for c in dirty_clusters {
            pushed += self.put_cluster(c)?.len();
        }
        Ok(pushed)
    }

    /// Re-fetches a replica's state from its master, discarding local
    /// modifications (`IProvide::get` on an existing replica).
    pub fn refresh(&self, target: ObjRef) -> Result<()> {
        self.pump_pending_chunks();
        let _span = trace::span(&self.shared.clock, "obi.refresh")
            .with_site(self.shared.site)
            .with_obj(target.id());
        let start = self.shared.clock.virtual_nanos();
        let result = self.refresh_inner(target);
        self.shared.metrics.record_latency(
            LatencyKind::Refresh,
            Duration::from_nanos(self.shared.clock.virtual_nanos().saturating_sub(start)),
        );
        result
    }

    fn refresh_inner(&self, target: ObjRef) -> Result<()> {
        let provider = self.with_inner(|_inner| {
            let meta = self
                .shared
                .space
                .meta(target.id())
                .ok_or(ObiError::NotReplicated(target.id()))?;
            match meta.kind {
                ReplicaKind::Replica { provider } => Ok(provider),
                ReplicaKind::Master => Err(ObiError::BadArguments(
                    "refresh applies to replicas, not masters".into(),
                )),
            }
        })?;
        let mode = WireMode::Incremental { batch: 1 };
        self.demand(provider, &[target.id()], mode, Handling::default())?;
        self.shared.metrics.incr_refreshes();
        // The replica now matches its master: any pending dirty delta in
        // the log is moot.
        if let Some(durable) = self.shared.durable.get() {
            durable.log_clean(target.id())?;
        }
        Ok(())
    }

    /// Like [`refresh`](ObiProcess::refresh), but degrading instead of
    /// failing when the master cannot be reached: on a connectivity error
    /// (partition, timeout, or a fast-fail from an open circuit breaker)
    /// with a local replica still present, the stale replica stays usable
    /// and `Ok(Freshness::Stale)` is returned — OBIWAN's disconnected
    /// degraded mode. Local dirty state is untouched, so a later
    /// [`put_all_dirty`](ObiProcess::put_all_dirty) reintegrates it once
    /// the link heals.
    pub fn refresh_or_stale(&self, target: ObjRef) -> Result<Freshness> {
        match self.refresh(target) {
            Ok(()) => Ok(Freshness::Fresh),
            Err(e) if e.is_connectivity() => {
                let have_replica =
                    self.with_inner(|_inner| Ok(self.shared.space.meta(target.id()).is_some()))?;
                if have_replica {
                    Ok(Freshness::Stale)
                } else {
                    Err(e)
                }
            }
            Err(e) => Err(e),
        }
    }

    /// Re-fetches a whole cluster from its provider in one `get`,
    /// discarding local modifications of every member (the cluster-wise
    /// counterpart of [`ObiProcess::refresh`]).
    ///
    /// The provider mints a fresh [`ClusterId`] for the refreshed batch (a
    /// new cluster generation); the old id stops resolving. Returns the new
    /// id and the number of members refreshed.
    pub fn refresh_cluster(&self, cluster: ClusterId) -> Result<(ClusterId, usize)> {
        self.pump_pending_chunks();
        let (provider, root, size) = self.with_inner(|inner| {
            let space = &self.shared.space;
            let members = space
                .object_ids()
                .into_iter()
                .filter(|id| space.meta(*id).is_some_and(|m| m.cluster == Some(cluster)))
                .count();
            let Some(&root) = inner.cluster_roots.get(&cluster) else {
                return Err(ObiError::BadArguments(format!(
                    "unknown cluster {cluster}"
                )));
            };
            if members == 0 {
                return Err(ObiError::BadArguments(format!(
                    "no local members of {cluster}"
                )));
            }
            match space.meta(root).map(|m| m.kind) {
                Some(ReplicaKind::Replica { provider }) => Ok((provider, root, members)),
                _ => Err(ObiError::BadArguments(
                    "cluster root is not a replica".into(),
                )),
            }
        })?;
        let mode = WireMode::Cluster { size: size.max(1) as u32 };
        let fetched = self.demand(provider, &[root], mode, Handling::default())?;
        self.shared.metrics.incr_refreshes();
        let new_cluster = fetched.cluster.ok_or_else(|| {
            ObiError::Internal("cluster get returned a non-cluster batch".into())
        })?;
        // The provider minted a new generation over the same root, so the
        // install retired the old id: it no longer resolves.
        Ok((new_cluster, fetched.replicas))
    }

    /// Subscribes this process to consistency traffic for a replica it
    /// holds: `push = false` for invalidations, `true` for full updates.
    pub fn subscribe(&self, target: ObjRef, push: bool) -> Result<()> {
        let provider = self.with_inner(|_inner| {
            let meta = self
                .shared
                .space
                .meta(target.id())
                .ok_or(ObiError::NotReplicated(target.id()))?;
            match meta.kind {
                ReplicaKind::Replica { provider } => Ok(provider),
                ReplicaKind::Master => Err(ObiError::BadArguments(
                    "masters do not subscribe to themselves".into(),
                )),
            }
        })?;
        self.shared.client.subscribe(provider, target.id(), push)
    }
}

/// Applies a put's ack to the replica it was sent from (call under the
/// process lock). The ack covers exactly the state that was serialized,
/// whose fingerprint is `sent`: the replica takes the master's `version`
/// and is no longer stale, but it is clean again only if it still holds
/// that state — a mutation that raced the RPC must stay dirty, or it would
/// never be pushed.
fn settle_acked(space: &ShardedSpace, id: ObjId, version: u64, sent: Option<u64>) {
    let unchanged =
        replica_state_of(space, id).is_ok_and(|now| Some(state_fingerprint(&now)) == sent);
    space.update_meta(id, |meta| {
        meta.version = version;
        if unchanged {
            meta.dirty = false;
        }
        meta.stale = false;
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::testing::list_world;
    use crate::replication::ReplicationMode;
    use crate::world::ObiWorld;
    use obiwan_wire::ObiValue;

    #[test]
    fn put_writes_replica_back_and_bumps_version() {
        let (world, s1, s2, refs) = list_world(2);
        let remote = world.site(s1).lookup("head").unwrap();
        let root = world
            .site(s1)
            .get(&remote, ReplicationMode::incremental(1))
            .unwrap();
        world
            .site(s1)
            .invoke(root, "set_value", ObiValue::I64(7))
            .unwrap();
        assert!(world.site(s1).meta_of(root).unwrap().dirty);
        let version = world.site(s1).put(root).unwrap();
        assert_eq!(version, 2);
        let meta = world.site(s1).meta_of(root).unwrap();
        assert!(!meta.dirty);
        assert_eq!(meta.version, 2);
        let v = world.site(s2).invoke(refs[0], "value", ObiValue::Null).unwrap();
        assert_eq!(v, ObiValue::I64(7));
    }

    #[test]
    fn put_on_master_is_rejected() {
        let (world, _s1, s2, refs) = list_world(1);
        assert!(matches!(
            world.site(s2).put(refs[0]),
            Err(ObiError::BadArguments(_))
        ));
    }

    #[test]
    fn put_all_dirty_pushes_everything() {
        let (world, s1, s2, refs) = list_world(3);
        let remote = world.site(s1).lookup("head").unwrap();
        world
            .site(s1)
            .get(&remote, ReplicationMode::transitive())
            .unwrap();
        for (i, r) in refs.iter().enumerate() {
            world
                .site(s1)
                .invoke(*r, "set_value", ObiValue::I64(100 + i as i64))
                .unwrap();
        }
        let pushed = world.site(s1).put_all_dirty().unwrap();
        assert_eq!(pushed, 3);
        for (i, r) in refs.iter().enumerate() {
            let v = world.site(s2).invoke(*r, "value", ObiValue::Null).unwrap();
            assert_eq!(v, ObiValue::I64(100 + i as i64));
        }
        // Second call has nothing to do.
        assert_eq!(world.site(s1).put_all_dirty().unwrap(), 0);
    }

    #[test]
    fn cluster_members_cannot_be_put_individually() {
        let (world, s1, _s2, refs) = list_world(4);
        let remote = world.site(s1).lookup("head").unwrap();
        let root = world
            .site(s1)
            .get(&remote, ReplicationMode::cluster(4))
            .unwrap();
        world
            .site(s1)
            .invoke(root, "set_value", ObiValue::I64(99))
            .unwrap();
        let err = world.site(s1).put(refs[0]).unwrap_err();
        assert!(matches!(err, ObiError::ClusterMember(_)));
    }

    #[test]
    fn put_cluster_writes_all_members_back() {
        let (world, s1, s2, refs) = list_world(3);
        let remote = world.site(s1).lookup("head").unwrap();
        let root = world
            .site(s1)
            .get(&remote, ReplicationMode::cluster(3))
            .unwrap();
        world
            .site(s1)
            .invoke(root, "set_value", ObiValue::I64(42))
            .unwrap();
        let cluster = world.site(s1).meta_of(root).unwrap().cluster.unwrap();
        let versions = world.site(s1).put_cluster(cluster).unwrap();
        assert_eq!(versions.len(), 3);
        // Master sees the new value.
        let v = world.site(s2).invoke(refs[0], "value", ObiValue::Null).unwrap();
        assert_eq!(v, ObiValue::I64(42));
        // Replica is clean again.
        assert!(!world.site(s1).meta_of(root).unwrap().dirty);
    }

    #[test]
    fn version_conflict_survives_round_trip_with_stock_policy() {
        // The default AcceptAll policy: last writer wins by arrival.
        let (world, s1, s2, refs) = list_world(1);
        let remote = world.site(s1).lookup("head").unwrap();
        let r1 = world
            .site(s1)
            .get(&remote, ReplicationMode::incremental(1))
            .unwrap();
        // Two writers diverge.
        world.site(s1).invoke(r1, "set_value", ObiValue::I64(10)).unwrap();
        world
            .site(s2)
            .invoke(refs[0], "set_value", ObiValue::I64(20))
            .unwrap();
        // S1's put overwrites the master's concurrent change.
        world.site(s1).put(r1).unwrap();
        let v = world.site(s2).invoke(refs[0], "value", ObiValue::Null).unwrap();
        assert_eq!(v, ObiValue::I64(10));
    }

    #[test]
    fn refresh_discards_local_changes() {
        let (world, s1, s2, refs) = list_world(1);
        let remote = world.site(s1).lookup("head").unwrap();
        let root = world
            .site(s1)
            .get(&remote, ReplicationMode::incremental(1))
            .unwrap();
        // Diverge: replica says 5, master says 9.
        world
            .site(s1)
            .invoke(root, "set_value", ObiValue::I64(5))
            .unwrap();
        world
            .site(s2)
            .invoke(refs[0], "set_value", ObiValue::I64(9))
            .unwrap();
        world.site(s1).refresh(root).unwrap();
        let v = world.site(s1).invoke(root, "value", ObiValue::Null).unwrap();
        assert_eq!(v, ObiValue::I64(9));
        let meta = world.site(s1).meta_of(root).unwrap();
        assert!(!meta.dirty);
        assert_eq!(world.site(s1).metrics().snapshot().refreshes, 1);
    }

    #[test]
    fn refresh_or_stale_degrades_and_recovers() {
        let (world, s1, _s2, _refs) = list_world(4);
        let remote = world.site(s1).lookup("head").unwrap();
        let root = world
            .site(s1)
            .get(&remote, ReplicationMode::incremental(1))
            .unwrap();
        assert_eq!(
            world.site(s1).refresh_or_stale(root).unwrap(),
            Freshness::Fresh
        );
        // Mutate locally, then lose the master: degraded mode serves the
        // stale replica and preserves the dirty state.
        world
            .site(s1)
            .invoke(root, "set_value", ObiValue::I64(-5))
            .unwrap();
        world.disconnect(s1);
        assert_eq!(
            world.site(s1).refresh_or_stale(root).unwrap(),
            Freshness::Stale
        );
        assert_eq!(
            world.site(s1).invoke(root, "value", ObiValue::Null).unwrap(),
            ObiValue::I64(-5)
        );
        assert!(world.site(s1).meta_of(root).unwrap().dirty);
        // Heal: the dirty replica reintegrates and refresh is fresh again.
        world.reconnect(s1);
        world.site(s1).put(root).unwrap();
        assert_eq!(
            world.site(s1).refresh_or_stale(root).unwrap(),
            Freshness::Fresh
        );
    }

    #[test]
    fn refresh_cluster_reloads_every_member() {
        let (world, s1, s2, refs) = list_world(4);
        let remote = world.site(s1).lookup("head").unwrap();
        let root = world
            .site(s1)
            .get(&remote, ReplicationMode::cluster(4))
            .unwrap();
        let cluster = world.site(s1).meta_of(root).unwrap().cluster.unwrap();
        // Diverge every member locally; masters move too.
        for r in &refs {
            world
                .site(s1)
                .invoke(*r, "set_value", ObiValue::I64(-1))
                .unwrap();
            world
                .site(s2)
                .invoke(*r, "set_value", ObiValue::I64(100))
                .unwrap();
        }
        let (new_cluster, refreshed) = world.site(s1).refresh_cluster(cluster).unwrap();
        assert_eq!(refreshed, 4);
        assert_ne!(new_cluster, cluster, "refresh mints a new generation");
        for r in &refs {
            let v = world.site(s1).invoke(*r, "value", ObiValue::Null).unwrap();
            assert_eq!(v, ObiValue::I64(100));
            let meta = world.site(s1).meta_of(*r).unwrap();
            assert!(!meta.dirty);
            assert_eq!(meta.cluster, Some(new_cluster));
        }
        // The retired generation no longer resolves.
        assert!(world.site(s1).refresh_cluster(cluster).is_err());
        // The new one does.
        assert!(world.site(s1).refresh_cluster(new_cluster).is_ok());
    }

    #[test]
    fn cluster_roots_stay_bounded_under_repeated_get_and_gc() {
        let (world, s1, _s2, _refs) = list_world(4);
        let remote = world.site(s1).lookup("head").unwrap();
        let tracked = |world: &ObiWorld| {
            world
                .site(s1)
                .with_inner(|inner| Ok(inner.cluster_roots.len()))
                .unwrap()
        };
        // Every re-`get` mints a new generation over the same root: the
        // newest one replaces its predecessor.
        for _ in 0..50 {
            world
                .site(s1)
                .get(&remote, ReplicationMode::cluster(4))
                .unwrap();
            assert_eq!(tracked(&world), 1);
        }
        // Nothing is rooted, so a replica-collecting sweep takes the
        // cluster, and its entry with it, round after round.
        for _ in 0..50 {
            let root = world
                .site(s1)
                .get(&remote, ReplicationMode::cluster(2))
                .unwrap();
            let cluster = world.site(s1).meta_of(root).unwrap().cluster.unwrap();
            let stats = world.site(s1).collect_garbage(true);
            assert!(stats.replicas_reclaimed > 0, "{stats:?}");
            assert_eq!(tracked(&world), 0);
            assert!(world.site(s1).refresh_cluster(cluster).is_err());
        }
    }

    #[test]
    fn refresh_unknown_cluster_is_rejected() {
        let (world, s1, _s2, _refs) = list_world(4);
        let bogus = ClusterId::new(SiteId::new(2), 999);
        assert!(matches!(
            world.site(s1).refresh_cluster(bogus),
            Err(ObiError::BadArguments(_))
        ));
    }

    #[test]
    fn refresh_cluster_fails_cleanly_when_disconnected() {
        let (world, s1, _s2, _refs) = list_world(4);
        let remote = world.site(s1).lookup("head").unwrap();
        let root = world
            .site(s1)
            .get(&remote, ReplicationMode::cluster(2))
            .unwrap();
        let cluster = world.site(s1).meta_of(root).unwrap().cluster.unwrap();
        world.disconnect(s1);
        assert!(world
            .site(s1)
            .refresh_cluster(cluster)
            .unwrap_err()
            .is_connectivity());
    }
}
