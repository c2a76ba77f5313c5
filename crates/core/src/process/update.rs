//! Update traffic: replica write-back (`put`), re-fetch (`refresh`),
//! subscriptions, and the notices a master queues for its subscribers.

use super::demand::Handling;
use super::{Notice, ObiProcess, ProcessInner, ProcessShared};
use crate::objref::ObjRef;
use crate::replication::replica_state_of;
use crate::shards::ShardedSpace;
use crate::space::{ObjectMeta, ReplicaKind};
use obiwan_store::{fingerprint, state_fingerprint, PendingPut};
use obiwan_util::trace;
use obiwan_util::{ClusterId, LatencyKind, ObiError, ObjId, RequestId, Result, SiteId};
use obiwan_wire::{Encoder, ReplicaState, WireMode};
use std::time::Duration;

/// Most puts [`ObiProcess::put_many`] makes durable with one sync and
/// sends as one group: the bound on request ids reserved but not yet
/// settled, which hold the client's `HorizonTracker` back.
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

/// One put readied by `ObiProcess::put_plan`: every entry that travels with
/// its target, under one request id. A cluster member brings its cluster's
/// every local member (§4.3: a cluster is updated as a whole); replicas
/// whose pending intents share an id were one put (recovery does not
/// restore clusters) and go together again; a plain replica goes alone.
struct PlannedPut {
    provider: SiteId,
    /// The states as snapshotted: what the put carries.
    entries: Vec<ReplicaState>,
    /// Each entry's object and the fingerprint naming its state: what its
    /// intent covers, and what the replica must still hold at the ack to
    /// come out clean.
    members: Vec<(ObjId, u64)>,
    /// The id the put goes under; with durability attached, the one its
    /// intents name.
    request: RequestId,
}

/// Queues invalidations/pushes for every subscriber of `id` except
/// `originator`.
pub(super) fn queue_notifications(
    inner: &mut ProcessInner,
    shared: &ProcessShared,
    id: ObjId,
    originator: SiteId,
) {
    // Snapshot the subscriber list and release the subscriptions lock
    // before touching the space: its guard must never overlap a shard
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
        self.write_back(&[target], false)
            .into_iter()
            .find_map(|(id, outcome)| (id == target.id()).then_some(outcome))
            .expect("a put reports its target")
    }

    /// Writes each of `targets` back to its master, reporting every
    /// object's outcome (the master version that accepted it, or why not —
    /// see [`ObiProcess::put`]) in `targets` order. A cluster member brings
    /// its whole cluster in one put, whose members are reported in its
    /// place and not put again. One object's failure does not stop the
    /// others, except that once a master proves unreachable the objects of
    /// later groups mastered there are reported
    /// [`ObiError::SiteUnreachable`] unsent.
    ///
    /// The write-back proceeds in groups of at most `PUT_GROUP` (64)
    /// targets. With durability attached, a group's put intents — object,
    /// request id, state fingerprint — become durable with one log write
    /// and one sync, and only then do its `PutRequest`s leave, one per put.
    /// A crash at any point replays the unconfirmed puts under the same ids,
    /// and the masters' put records deduplicate the ones that had landed:
    /// exactly-once across restarts, at one sync per group of puts.
    pub fn put_many(&self, targets: &[ObjRef]) -> Vec<(ObjId, Result<u64>)> {
        self.write_back(targets, true)
    }

    /// [`put_many`](ObiProcess::put_many), refusing cluster members with
    /// [`ObiError::ClusterMember`] unless `whole_clusters` is set.
    fn write_back(&self, targets: &[ObjRef], whole_clusters: bool) -> Vec<(ObjId, Result<u64>)> {
        self.pump_pending_chunks();
        let mut outcomes = Vec::with_capacity(targets.len());
        let mut unreachable = Vec::new();
        let mut carried = Vec::new();
        for group in targets.chunks(PUT_GROUP) {
            let first = outcomes.len();
            let plans = self.put_plan(group, &unreachable, whole_clusters, &mut carried);
            for (target, planned) in plans {
                let _span = trace::span(&self.shared.clock, "obi.put")
                    .with_site(self.shared.site)
                    .with_obj(target);
                let start = self.shared.clock.virtual_nanos();
                unreachable.extend(self.put_send(target, planned, &mut outcomes));
                self.shared.metrics.record_latency(
                    LatencyKind::Put,
                    Duration::from_nanos(self.shared.clock.virtual_nanos().saturating_sub(start)),
                );
            }
            // Refresh the persisted client watermark once per group that
            // confirmed anything: recovery restores the request counter and
            // reply horizon from it. Like the confirmations it waits for the
            // next group's sync — losing it costs a replayed put or a wider
            // seq skip, never a wrong one.
            let last_confirmed = outcomes[first..].iter().rposition(|(_, put)| put.is_ok());
            if let (Some(last), Some(durable)) = (last_confirmed, self.shared.durable.get()) {
                if let Err(e) = durable.log_client_state(
                    self.shared.client.request_seq(),
                    self.shared.client.horizon_tracker().horizon(),
                ) {
                    outcomes[first + last].1 = Err(e);
                }
            }
        }
        outcomes
    }

    /// Readies one group of puts, one per target no earlier put of the
    /// write-back `carried` (which this extends), snapshotted under one
    /// entry of the process lock. With durability attached, every put's
    /// intents are durable before any of them can leave (recovery invariant
    /// 2 in `obiwan-store`). Objects mastered at an `unreachable` site are
    /// not planned.
    fn put_plan(
        &self,
        targets: &[ObjRef],
        unreachable: &[SiteId],
        whole_clusters: bool,
        carried: &mut Vec<ObjId>,
    ) -> Vec<(ObjId, Result<PlannedPut>)> {
        let (space, client, site) = (&self.shared.space, &self.shared.client, self.shared.site);
        let durable = self.shared.durable.get();
        // Read before the process lock: the log's lock is never taken under it.
        let pending = durable.map(|durable| durable.pending_puts()).unwrap_or_default();
        let (mut fresh, mut replaced) = (Vec::new(), Vec::new());
        let mut plan = |id: ObjId| {
            let meta = space.meta(id).ok_or(ObiError::NotReplicated(id))?;
            let ReplicaKind::Replica { provider } = meta.kind else {
                return Err(ObiError::BadArguments("put applies to replicas, not masters".into()));
            };
            if meta.cluster.is_some() && !whole_clusters {
                return Err(ObiError::ClusterMember(id));
            }
            if unreachable.contains(&provider) {
                return Err(ObiError::SiteUnreachable(provider));
            }
            // Sized for the common put, a plain replica's.
            let (mut entries, mut members) = (Vec::with_capacity(1), Vec::with_capacity(1));
            let mut carry = |member: ObjId| {
                let entry = replica_state_of(space, member)?;
                members.push((member, state_fingerprint(&entry)));
                entries.push(entry);
                Ok::<_, ObiError>(())
            };
            let intent = pending.get(&id);
            match (meta.cluster, intent) {
                (Some(_), _) => space
                    .object_ids()
                    .into_iter()
                    .filter(|&member| space.meta(member).is_some_and(|m| m.cluster == meta.cluster))
                    .try_for_each(carry)?,
                (None, Some(intent)) => pending
                    .iter()
                    .filter(|(&member, other)| {
                        other.seq == intent.seq
                            && space.meta(member).is_some_and(|m| !m.kind.is_master())
                    })
                    .try_for_each(|(&member, _)| carry(member))?,
                (None, None) => carry(id)?,
            }
            // Replay of exactly the states the intents covered (crash
            // recovery, or a retry after a connectivity failure): reuse the
            // logged id so the master dedupes it.
            let replay = intent.map(|intent| intent.seq).filter(|&seq| {
                members.iter().all(|&(member, fingerprint)| {
                    pending.get(&member) == Some(&PendingPut { seq, fingerprint })
                })
            });
            let request =
                replay.map_or_else(|| client.reserve_request(), |seq| RequestId::new(site, seq));
            // No intents, or some for a state its replica has since left.
            // Such a seq may already be spent at the master (the old state
            // applied, the reply lost), and reusing it would serve the
            // cached ack WITHOUT applying this state — silently dropping
            // it. `log_put_intents` retires those and covers the current
            // states under a fresh id.
            if replay.is_none() && durable.is_some() {
                for &(member, fingerprint) in &members {
                    fresh.push((member, PendingPut { seq: request.seq(), fingerprint }));
                    replaced.extend(pending.get(&member).map(|stale| (provider, stale.seq)));
                }
            }
            Ok(PlannedPut { provider, entries, members, request })
        };
        let snapshot = self.with_inner(|_inner| {
            let mut plans = Vec::with_capacity(targets.len());
            for id in targets.iter().map(|target| target.id()) {
                if !carried.contains(&id) {
                    let planned = plan(id);
                    let others = planned.iter().flat_map(|put| &put.members);
                    carried.extend(others.map(|&(other, _)| other).filter(|&other| other != id));
                    plans.push((id, planned));
                }
            }
            Ok(plans)
        });
        let plans = match snapshot {
            Ok(plans) => plans,
            Err(e) => return targets.iter().map(|t| (t.id(), Err(e.clone()))).collect(),
        };
        let Some(durable) = durable else {
            return plans;
        };
        // (Bound first so the `wal-intent-lifecycle` lint sees the match as
        // this function's exit: the intents leave with `plans`, whose sender
        // retires each.)
        let logged = durable.log_put_intents(&fresh);
        match logged {
            Ok(()) => {
                // A put's members listed their shared stale seq one by one.
                replaced.dedup();
                for (provider, seq) in replaced {
                    client.settle(provider, RequestId::new(site, seq));
                }
                // The sync that made these intents durable carried every
                // earlier confirmation too: the horizon announcement the
                // previous group's settles held back can go now.
                if let Some(provider) = plans.iter().find_map(|(_, put)| put.as_ref().ok()) {
                    client.offer_horizon(provider.provider);
                }
                plans
            }
            // The log is failing: nothing of this group leaves.
            Err(e) => plans
                .into_iter()
                .map(|(id, put)| (id, put.and_then(|_| Err(e.clone()))))
                .collect(),
        }
    }

    /// Sends the put planned for `target` and reports its members' outcomes
    /// (the target's error if nothing was planned). Returns the master a
    /// connectivity failure left unreachable.
    fn put_send(
        &self,
        target: ObjId,
        planned: Result<PlannedPut>,
        outcomes: &mut Vec<(ObjId, Result<u64>)>,
    ) -> Option<SiteId> {
        let mut put = match planned {
            Ok(put) => put,
            Err(e) => {
                outcomes.push((target, Err(e)));
                return None;
            }
        };
        match self.put_once(&mut put.provider, put.request, put.entries, &put.members) {
            Ok(versions) => {
                outcomes.extend(versions.into_iter().map(|(id, version)| (id, Ok(version))));
                None
            }
            Err(e) => {
                outcomes.extend(put.members.iter().map(|&(id, _)| (id, Err(e.clone()))));
                e.is_connectivity().then_some(put.provider)
            }
        }
    }

    /// Sends one put under its request id and settles it: each member's ack
    /// — or, after a definitive rejection, the abandonment of its intent —
    /// is logged before the id is settled, and a member comes out clean if
    /// it still holds the state that was sent. A master that handed the
    /// members off names its successor: they (and `provider`) are
    /// re-pointed there, and the put goes once more under the same id, so
    /// the successor, holding its predecessor's put records, dedupes it.
    /// Returns each member's accepting version, in member order.
    fn put_once(
        &self,
        provider: &mut SiteId,
        request: RequestId,
        entries: Vec<ReplicaState>,
        members: &[(ObjId, u64)],
    ) -> Result<Vec<(ObjId, u64)>> {
        let bytes = entries.iter().map(|entry| entry.state.len()).sum();
        self.shared.clock.charge_cpu(self.shared.costs.serialize(bytes));
        let client = &self.shared.client;
        let mut sent = client.put_with_request(*provider, entries, request);
        if let Err(ObiError::MovedMaster { to, .. }) = sent {
            self.shared.metrics.incr_moved_master_redirects();
            *provider = to;
            sent = self
                .redirect(members, to)
                .and_then(|entries| client.put_with_request(to, entries, request));
        }
        let provider = *provider;
        let durable = self.shared.durable.get();
        // The id is settled once nothing will send it again: at once without
        // a log, else once the log retires its intents (until then a crash
        // replays it, and the master must still hold its record).
        let retired = |logged: Result<()>| {
            logged?;
            client.settle(provider, request);
            Ok(())
        };
        let mut versions = match sent {
            Ok(versions) => versions,
            // The reply is unknown, so the intents stay: the retry must
            // dedupe under the same id.
            Err(e) if e.is_connectivity() && durable.is_some() => return Err(e),
            // The id is spent: after a definitive rejection the master cached
            // the error under it, so the intents are abandoned.
            Err(e) => {
                retired(durable.map_or(Ok(()), |durable| {
                    members.iter().try_for_each(|&(id, _)| durable.log_put_abandoned(id))
                }))?;
                return Err(e);
            }
        };
        // A replay may be answered with the reply cached for the put it
        // replays, which can name more objects than this one carries: each
        // member's ack is moved to the member's place, the rest cut off.
        for (at, &(id, _)) in members.iter().enumerate() {
            let Some(found) = versions[at..].iter().position(|&(acked, _)| acked == id) else {
                return Err(ObiError::Internal("put reply does not cover every entry".into()));
            };
            versions.swap(at, at + found);
        }
        versions.truncate(members.len());
        let acks = || members.iter().zip(&versions).map(|(&(id, sent), &(_, v))| (id, v, sent));
        retired(durable.map_or(Ok(()), |durable| {
            acks().try_for_each(|(id, version, sent)| durable.log_confirm(id, version, sent))
        }))?;
        self.with_inner(|_inner| {
            for (id, version, sent) in acks() {
                settle_acked(&self.shared.space, id, version, sent);
            }
            Ok(())
        })?;
        Ok(versions)
    }

    /// Re-points `members` at `to`, a handoff's successor, and snapshots
    /// their states. One mutated since the first send carries its new
    /// state and stays dirty after the ack (its fingerprint is the old).
    fn redirect(&self, members: &[(ObjId, u64)], to: SiteId) -> Result<Vec<ReplicaState>> {
        let space = &self.shared.space;
        let repoint = |meta: &mut ObjectMeta| {
            if let ReplicaKind::Replica { provider } = &mut meta.kind {
                *provider = to;
            }
        };
        self.with_inner(|_inner| {
            let snapshot = |&(id, _): &(ObjId, u64)| {
                space.update_meta(id, repoint);
                replica_state_of(space, id)
            };
            members.iter().map(snapshot).collect()
        })
    }

    /// Writes a whole cluster back to its provider in one `put` (the only
    /// way to update cluster members): [`put_many`](ObiProcess::put_many)
    /// of one of its local members.
    pub fn put_cluster(&self, cluster: ClusterId) -> Result<Vec<(ObjId, u64)>> {
        let space = &self.shared.space;
        let in_cluster = |id: &ObjId| space.meta(*id).is_some_and(|m| m.cluster == Some(cluster));
        let member = self.with_inner(|_inner| {
            let member = space.object_ids().into_iter().find(in_cluster);
            member.ok_or_else(|| ObiError::BadArguments(format!("no local members of {cluster}")))
        })?;
        let outcomes = self.put_many(&[ObjRef::new(member)]).into_iter();
        outcomes.map(|(id, outcome)| Ok((id, outcome?))).collect()
    }

    /// Writes every dirty replica back to its master in one
    /// [`put_many`](ObiProcess::put_many), a dirty cluster member bringing
    /// its cluster; returns how many objects were pushed. All of them are
    /// attempted before the first failure, if any, is returned.
    pub fn put_all_dirty(&self) -> Result<usize> {
        self.pump_pending_chunks();
        let space = &self.shared.space;
        let is_dirty = |id: &ObjId| space.meta(*id).is_some_and(|m| m.dirty && !m.kind.is_master());
        let dirty: Vec<ObjRef> = self.with_inner(|_inner| {
            Ok(space.object_ids().into_iter().filter(is_dirty).map(ObjRef::new).collect())
        })?;
        Ok(self.put_many(&dirty).into_iter().map(|(_, put)| put).collect::<Result<Vec<_>>>()?.len())
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
fn settle_acked(space: &ShardedSpace, id: ObjId, version: u64, sent: u64) {
    // The state as it stands, fingerprinted without building the
    // `ReplicaState` a put would carry.
    let now = space.with_object(id, |o, m| {
        let mut enc = Encoder::with_capacity(128);
        o.encode_state(&mut enc);
        fingerprint(&enc.into_vec(), m.version)
    });
    let unchanged = now == Ok(sent);
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
        // The writer refreshes and converges on the master.
        world.site(s1).refresh(r1).unwrap();
        assert_eq!(
            world.site(s1).state_of(r1).unwrap(),
            world.site(s2).state_of(refs[0]).unwrap()
        );
        let meta = world.site(s1).meta_of(r1).unwrap();
        assert_eq!(
            meta.version,
            world.site(s2).meta_of(refs[0]).unwrap().version
        );
        assert!(!meta.dirty);
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
