//! The demand path: everything that brings replicas *in* (`get`, an object
//! fault, a prefetch round, a refresh) goes through [`demand_install`] and
//! lands through [`materialize_batch`].

use super::{ObiProcess, ProcessInner, ProcessShared};
use crate::objref::ObjRef;
use crate::proxy::ProxyOut;
use crate::replication::ReplicationMode;
use crate::shards::ShardedSpace;
use crate::space::{ObjectMeta, Resolution};
use obiwan_rmi::{Deadline, RemoteRef};
use obiwan_util::trace;
use obiwan_util::{ClusterId, LatencyKind, ObiError, ObjId, Result, SiteId};
use obiwan_wire::{FrontierEdge, ReplicaBatch, WireMode};
use std::collections::{HashMap, HashSet, VecDeque};
use std::time::Duration;

/// One streamed reply chunk parked for deferred materialization (see
/// `ProcessShared::pending_chunks`).
pub(super) struct PendingChunk {
    batch: ReplicaBatch,
    provider: SiteId,
    mode: WireMode,
    /// Position in its stream, carried into the `obi.pump_chunk` span.
    chunk_index: u32,
}


/// How the caller of [`demand_install`] can take the reply. It says only
/// that; which message goes out is the RMI client's choice.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub(super) enum Take {
    /// One root, all at once.
    #[default]
    Whole,
    /// One root, possibly in pieces: the piece carrying the root installs
    /// inline, later ones park for [`ObiProcess::pump_pending_chunks`], so
    /// the caller waits one chunk's materialization whatever the step.
    RootThenParked,
    /// A group of roots merged into one batch, possibly in pieces, each
    /// installed as it lands: bulk work outside any latency window.
    GroupInline,
}

/// What the caller of [`demand_install`] already knows about how the reply
/// must be handled. The default is the `get`/`refresh` contract: fresh
/// state taken whole and installed over what is there.
#[derive(Clone, Copy, Default)]
pub(super) struct Handling {
    /// The budget of the wider operation this demand is part of; `None`
    /// gives it the RPC policy's per-call default.
    pub(super) deadline: Option<Deadline>,
    pub(super) take: Take,
    /// Re-validate every replica on install (see [`materialize_batch`]).
    pub(super) guard: bool,
    /// The targets are proxy-outs the batch overwrites: account the swizzle.
    pub(super) swizzle: bool,
    /// An invocation is blocked on this demand: span it as `obi.fault` and
    /// record the wait (`fault_nanos`, the `Demand` latency recorder).
    pub(super) fault: bool,
}

/// What one demand brought in.
#[derive(Default)]
pub(super) struct Installed {
    /// Replicas that passed validation and went live.
    installed: usize,
    /// Replicas the reply carried.
    pub(super) replicas: usize,
    /// The cluster generation the provider minted, in cluster mode.
    pub(super) cluster: Option<ClusterId>,
    /// The frontier the reply revealed: that of its last piece, the only
    /// one to carry any.
    frontier: Vec<FrontierEdge>,
}

/// Runs the installer [`demand_install`] hands it on a [`ProcessInner`].
pub(super) type Enter<'a> =
    &'a mut dyn FnMut(&mut dyn FnMut(&mut ProcessInner) -> Result<usize>) -> Result<usize>;

/// The one demand path (paper §2.2 steps 1–6): asks `provider` for the
/// batch behind `targets`, installs each piece of the reply as it arrives
/// (or parks it, per [`Take`]), and accounts for the swizzle.
///
/// `enter` is the caller's standing with the process lock. A method body
/// owns it and passes the `inner` it holds: the lock stays held across
/// the network wait. Everyone else ([`ObiProcess::demand`]) leaves it free
/// across the wait and re-enters once per piece, so invocations on local
/// objects from other threads proceed meanwhile.
pub(super) fn demand_install(
    shared: &ProcessShared,
    enter: Enter<'_>,
    provider: SiteId,
    targets: &[ObjId],
    mode: WireMode,
    how: Handling,
) -> Result<Installed> {
    let _span = how.fault.then(|| {
        trace::span(&shared.clock, "obi.fault")
            .with_site(shared.site)
            .with_obj(targets[0])
    });
    let mut brought = Installed::default();
    // A failed install must not stop a stream mid-flight; the first
    // failure is kept and reported once the exchange is over.
    let mut install_err: Option<ObiError> = None;
    let mut absorb = |index: u32, batch: ReplicaBatch| {
        brought.replicas += batch.replicas.len();
        brought.cluster = batch.cluster;
        if index > 0 && how.take == Take::RootThenParked {
            let parked = PendingChunk {
                batch,
                provider,
                mode,
                chunk_index: index,
            };
            shared.pending_chunks.lock().push_back(parked);
            return;
        }
        let installed = enter(&mut |inner: &mut ProcessInner| {
            let installed = materialize_batch(inner, shared, &batch, provider, mode, how.guard)?;
            if how.swizzle {
                // The proxy slots were overwritten by replicas: the
                // swizzle. The old proxy-outs are no longer reachable and
                // have effectively been reclaimed, once per demand.
                shared.clock.charge_cpu(shared.costs.swizzle);
                let reclaimed = if index == 0 { targets.len() } else { 0 };
                shared.metrics.add_proxies_reclaimed(reclaimed as u64);
            }
            Ok(installed)
        });
        match installed {
            Ok(n) => brought.installed += n,
            Err(e) => {
                install_err.get_or_insert(e);
            }
        }
        brought.frontier = batch.frontier;
    };
    let start = shared.clock.virtual_nanos();
    let in_pieces: Option<&mut dyn FnMut(u32, ReplicaBatch)> = match how.take {
        Take::Whole => None,
        Take::RootThenParked | Take::GroupInline => Some(&mut absorb),
    };
    let merged = how.take == Take::GroupInline;
    let whole = shared.client.demand(provider, targets, merged, mode, how.deadline, in_pieces);
    if how.fault {
        // The wait ends with the last frame off the wire: pieces installed
        // while later ones were still in flight are inside it, a reply
        // that arrived whole is installed after it.
        let waited = shared.clock.virtual_nanos().saturating_sub(start);
        shared.metrics.add_fault_nanos(waited);
        shared
            .metrics
            .record_latency(LatencyKind::Demand, Duration::from_nanos(waited));
    }
    if let Some(batch) = whole? {
        absorb(0, batch);
    }
    install_err.map_or(Ok(brought), Err)
}

/// Installs a replica batch into the local space: replicas become live
/// slots, frontier edges become proxy-outs, costs and metrics are charged.
///
/// Unguarded, the batch always wins over existing clean replicas (the
/// `get`/`refresh` contract: the caller asked for fresh state). With
/// `guard`, for batches fetched while the process lock was *dropped*, every
/// replica is re-validated against whatever happened in the window: dirty
/// replicas (un-pushed local writes), replicas already at the incoming
/// version or newer (a concurrent fault won the race), and busy slots (an
/// invocation owns the object right now) are left untouched. Masters are
/// never overwritten either way.
fn materialize_batch(
    inner: &mut ProcessInner,
    shared: &ProcessShared,
    batch: &ReplicaBatch,
    provider: SiteId,
    mode: WireMode,
    guard: bool,
) -> Result<usize> {
    let _span = trace::span(&shared.clock, "obi.materialize")
        .with_site(shared.site)
        .with_obj(batch.root)
        .with_value(batch.replicas.len() as u64);
    let mut installed = 0usize;
    for state in &batch.replicas {
        match shared.space.resolve(state.id) {
            // Never clobber our own masters with replicas of themselves.
            Resolution::Object(meta) if meta.kind.is_master() => continue,
            Resolution::Object(meta)
                if guard && (meta.dirty || meta.version >= state.version) =>
            {
                continue;
            }
            Resolution::Busy if guard => continue,
            _ => {}
        }
        shared.clock.charge_cpu(shared.costs.serialize(state.state.len()));
        let mut meta = ObjectMeta::replica(state.id, provider, state.version);
        meta.cluster = batch.cluster;
        shared.install_state(state, meta)?;
        shared.clock.charge_cpu(shared.costs.replica_create);
        shared.metrics.incr_replicas_created();
        installed += 1;
    }

    if let Some(cluster) = batch.cluster {
        // A new generation over the same root retires the old one's entry.
        inner.cluster_roots.retain(|_, root| *root != batch.root);
        inner.cluster_roots.insert(cluster, batch.root);
    }

    // Proxy-pair accounting (paper §4.2 vs §4.3): one pair per object in
    // incremental mode, a single shared pair per cluster batch. Pair cost
    // grows mildly with batch size (CostModel::pair_batch_penalty).
    let n = batch.replicas.len();
    match mode {
        WireMode::Cluster { .. } => {
            shared.clock.charge_cpu(shared.costs.proxy_pairs(1, n));
            shared.metrics.incr_proxy_pairs_created();
        }
        _ => {
            shared.clock.charge_cpu(shared.costs.proxy_pairs(n, n));
            shared.metrics.add_proxy_pairs_created(n as u64);
        }
    }

    for edge in &batch.frontier {
        let mut proxy = ProxyOut::new(edge.target, edge.class.clone(), provider, mode);
        if let Some(cluster) = batch.cluster {
            proxy = proxy.in_cluster(cluster);
        }
        shared.space.insert_proxy(proxy);
    }

    // Opt-in memory budget for info-appliances (§2.1): shed cold, clean
    // replicas back to proxy-outs when the batch pushed us over. The batch
    // root is freshened and protected — it is the object the caller is
    // about to invoke, and evicting it would re-raise the same fault.
    if let Some(budget) = inner.replica_budget {
        shared.space.touch(batch.root);
        let (evicted, _freed) = shared.space.evict_replicas_to(budget, &[batch.root]);
        shared.metrics.add_replicas_evicted(evicted as u64);
    }
    Ok(installed)
}

impl ObiProcess {
    /// Replicates the graph rooted at `remote` into this process using
    /// `mode`, returning a local reference to the root replica.
    ///
    /// Subsequent invocations through the returned reference are LMI;
    /// references leaving the replicated portion resolve through proxy-outs
    /// and fault in more of the graph on demand.
    ///
    /// # Errors
    ///
    /// Connectivity errors surface unchanged so the caller can fall back to
    /// an existing (possibly stale) replica.
    pub fn get(&self, remote: &RemoteRef, mode: ReplicationMode) -> Result<ObjRef> {
        self.pump_pending_chunks();
        if remote.host() == self.shared.site {
            return Ok(ObjRef::new(remote.id()));
        }
        self.demand(remote.host(), &[remote.id()], mode.to_wire(), Handling::default())?;
        // A one-target batch is rooted at its target.
        Ok(ObjRef::new(remote.id()))
    }

    /// Caps the bytes of replica state this process keeps. When a batch
    /// pushes past the budget, least-recently-used clean replicas revert to
    /// proxy-outs and fault back in on next use (see
    /// [`ShardedSpace::evict_replicas_to`]). `None` disables the budget.
    ///
    /// This serves the paper's "info-appliances with limited memory"
    /// scenario (§2.1): small devices can walk graphs far larger than their
    /// memory.
    pub fn set_replica_budget(&self, budget: Option<usize>) {
        let _ = self.with_inner(|inner| {
            inner.replica_budget = budget;
            if let Some(b) = budget {
                let (evicted, _) = self.shared.space.evict_replicas_to(b, &[]);
                self.shared.metrics.add_replicas_evicted(evicted as u64);
            }
            Ok(())
        });
    }

    /// Approximate bytes of replica state currently held.
    pub fn replica_bytes(&self) -> usize {
        self.with_inner(|_inner| Ok(self.shared.space.replica_bytes()))
            .unwrap_or(0)
    }

    /// Resolves up to `objects` future object faults ahead of use, by
    /// walking the local frontier reachable from `root` and demanding
    /// batches for its proxy-outs.
    ///
    /// This is the paper's footnote to §2.1: "a perfect mechanism of
    /// pre-fetching in the background can completely eliminate the
    /// latency". In this synchronous runtime the prefetch happens on the
    /// caller's thread (e.g. during application think time); afterwards,
    /// invocations over the prefetched region are pure LMI with no faults.
    ///
    /// Returns the number of objects actually fetched (less than `objects`
    /// when the reachable graph is exhausted).
    ///
    /// # Errors
    ///
    /// Connectivity failures abort the prefetch; everything fetched before
    /// the failure stays.
    pub fn prefetch(&self, root: ObjRef, objects: usize) -> Result<usize> {
        self.prefetch_batched(root, objects, 1)
    }

    /// Like [`prefetch`](ObiProcess::prefetch), but demanding up to `batch`
    /// objects per network round-trip through `get_many`: frontier proxies
    /// are collected and sent to their provider in one request, and each
    /// round's batch *feeds the next* — the frontier edges of the replicas
    /// just materialized become the next demand targets, so the object
    /// graph is traversed once (O(objects + frontier)) instead of re-walked
    /// per fault. A 64-object list walk that costs 64 round-trips demand-
    /// by-demand costs ⌈64/batch⌉ here.
    ///
    /// Like every prefetch path, the lock is dropped during network waits
    /// and batches are installed through the guarded materializer.
    pub fn prefetch_batched(&self, root: ObjRef, objects: usize, batch: usize) -> Result<usize> {
        self.pump_pending_chunks();
        let batch = batch.max(1);
        // One deadline budget covers the whole sweep: every round-trip of
        // the pipeline draws from the same per-operation budget instead of
        // restarting the clock per round.
        let deadline = self.demand_deadline();
        // Seed once with every frontier proxy reachable from `root`.
        let seed =
            self.with_inner(|_inner| Ok(reachable_frontier(&self.shared.space, root.id())))?;
        let mut seen: HashSet<ObjId> = seed.iter().copied().collect();
        let mut candidates: VecDeque<ObjId> = seed.into();
        let mut fetched = 0usize;
        while fetched < objects && !candidates.is_empty() {
            let (inserted, discovered) =
                self.prefetch_round(&mut candidates, batch, objects - fetched, deadline)?;
            for id in discovered {
                if seen.insert(id) {
                    candidates.push_back(id);
                }
            }
            fetched += inserted;
        }
        Ok(fetched)
    }

    /// One prefetch round: validate up to `batch.min(remaining)` candidates
    /// under the lock, demand them (grouped per provider, one `get_many`
    /// each; non-incremental proxies individually), re-acquire and install.
    /// Returns `(replicas installed, frontier ids discovered)`.
    fn prefetch_round(
        &self,
        candidates: &mut VecDeque<ObjId>,
        batch: usize,
        remaining: usize,
        deadline: Deadline,
    ) -> Result<(usize, Vec<ObjId>)> {
        let mut span = trace::span(&self.shared.clock, "obi.prefetch_round")
            .with_site(self.shared.site);
        let want = batch.min(remaining).max(1);
        // Incremental targets grouped by provider, with the largest step
        // any of them asked for; cluster/transitive proxies have one-shot
        // semantics a merged batch would change, so they go solo.
        let mut grouped: HashMap<SiteId, (Vec<ObjId>, u32)> = HashMap::new();
        let mut solo: Vec<(SiteId, Vec<ObjId>, WireMode, Take)> = Vec::new();
        self.with_inner(|_inner| {
            let mut picked = 0usize;
            while picked < want {
                let Some(id) = candidates.pop_front() else {
                    break;
                };
                let Resolution::Proxy(p) = self.shared.space.resolve(id) else {
                    continue; // already live (or gone): nothing to demand
                };
                picked += 1;
                match p.mode {
                    WireMode::Incremental { batch: own } => {
                        let slot = grouped.entry(p.provider).or_insert((Vec::new(), 1));
                        slot.0.push(p.target);
                        slot.1 = slot.1.max(own.max(1));
                    }
                    _ => solo.push((p.provider, vec![p.target], p.mode, Take::Whole)),
                }
            }
            Ok(())
        })?;

        let total = grouped.values().map(|(t, _)| t.len()).sum::<usize>() + solo.len();
        if total == 0 {
            return Ok((0, Vec::new()));
        }
        // Spread the round's object budget across the targets; a single
        // target still honors its proxy's own incremental step.
        let spread = (batch / total).max(1).min(u32::MAX as usize) as u32;

        // Prefetch is bulk work, not a caller-visible latency window, so a
        // group's batch that arrives in pieces installs each one inline,
        // as it is delivered.
        let grouped = grouped.into_iter().map(|(provider, (targets, own_step))| {
            let mode = WireMode::Incremental { batch: own_step.max(spread) };
            (provider, targets, mode, Take::GroupInline)
        });
        let mut inserted = 0usize;
        let mut discovered: Vec<ObjId> = Vec::new();
        for (provider, targets, mode, take) in grouped.chain(solo) {
            let how = Handling {
                deadline: Some(deadline),
                take,
                guard: true,
                swizzle: true,
                fault: false,
            };
            let fetched = self.demand(provider, &targets, mode, how)?;
            inserted += fetched.installed;
            discovered.extend(fetched.frontier.iter().map(|e| e.target));
        }
        span.set_value(inserted as u64);
        Ok((inserted, discovered))
    }

    /// [`demand_install`] from outside the process lock: the lock is
    /// dropped for the network wait and re-entered once per piece.
    pub(super) fn demand(
        &self,
        provider: SiteId,
        targets: &[ObjId],
        mode: WireMode,
        how: Handling,
    ) -> Result<Installed> {
        let mut reenter = |install: &mut dyn FnMut(&mut ProcessInner) -> Result<usize>| {
            self.with_inner(install)
        };
        demand_install(&self.shared, &mut reenter, provider, targets, mode, how)
    }

    /// Materializes every reply chunk parked by a streamed fault, oldest
    /// first. Runs at the top of each public operation — before its latency
    /// window opens — so deferred chunks are installed on the process's own
    /// time, never inside a caller-visible tail. Also safe to call directly
    /// (e.g. from an idle loop). Returns how many chunks were installed.
    pub fn pump_pending_chunks(&self) -> usize {
        let mut pumped = 0usize;
        loop {
            // Pop with the queue lock alone, then release it before taking
            // the process lock: the queue stays a leaf in the lock order.
            let Some(chunk) = self.shared.pending_chunks.lock().pop_front() else {
                break;
            };
            // A parked chunk whose root is no longer resident must NOT be
            // installed: its stream's replicas were evicted (budget
            // pressure, GC, an explicit remove) after the chunk was parked,
            // and materializing the tail now would resurrect dead replicas
            // nothing references. `Busy` still counts as resident — the
            // root is merely mid-invocation.
            let root_resident = matches!(
                self.shared.space.resolve(chunk.batch.root),
                Resolution::Object(_) | Resolution::Busy
            );
            if !root_resident {
                self.shared.metrics.incr_stale_chunks_dropped();
                continue;
            }
            let mut span = trace::span(&self.shared.clock, "obi.pump_chunk")
                .with_site(self.shared.site)
                .with_obj(chunk.batch.root);
            span.set_value(chunk.chunk_index as u64);
            // A failed install (registry mismatch after a class was
            // swapped, say) drops the chunk: its objects simply fault again
            // later, exactly as if the chunk had been lost on the wire.
            let installed = self.with_inner(|inner| {
                let PendingChunk { batch, provider, mode, .. } = &chunk;
                materialize_batch(inner, &self.shared, batch, *provider, *mode, true)
            });
            if installed.is_ok() {
                pumped += 1;
            }
        }
        pumped
    }

    /// One deadline budget for one user-facing demand operation (a fault,
    /// a prefetch sweep): the RPC policy's per-call budget, anchored now.
    pub(super) fn demand_deadline(&self) -> Deadline {
        Deadline::after(&self.shared.clock, self.shared.client.rpc_policy().call_budget)
    }
}

/// Breadth-first search from `root` over live objects collecting every
/// reachable proxy-out target (the objects a walk from `root` could fault
/// on), in discovery order.
fn reachable_frontier(space: &ShardedSpace, root: ObjId) -> Vec<ObjId> {
    let mut queue = VecDeque::new();
    let mut seen = std::collections::HashSet::new();
    let mut frontier = Vec::new();
    queue.push_back(root);
    seen.insert(root);
    while let Some(id) = queue.pop_front() {
        match space.resolve(id) {
            Resolution::Proxy(_) => frontier.push(id),
            Resolution::Object(_) => {
                if let Ok(refs) = space.with_object(id, |o, _| o.refs()) {
                    for r in refs {
                        if seen.insert(r.id()) {
                            queue.push_back(r.id());
                        }
                    }
                }
            }
            _ => {}
        }
    }
    frontier
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo::PayloadNode;
    use crate::process::testing::list_world;
    use crate::world::ObiWorld;
    use obiwan_wire::ObiValue;

    #[test]
    fn incremental_get_replicates_only_the_batch() {
        let (world, s1, _s2, refs) = list_world(10);
        let remote = world.site(s1).lookup("head").unwrap();
        let root = world
            .site(s1)
            .get(&remote, ReplicationMode::incremental(3))
            .unwrap();
        assert_eq!(root, refs[0]);
        for r in &refs[..3] {
            assert!(world.site(s1).is_replicated(*r));
        }
        assert!(matches!(
            world.site(s1).resolution(refs[3]),
            Resolution::Proxy(_)
        ));
        for r in &refs[4..] {
            assert!(matches!(world.site(s1).resolution(*r), Resolution::Absent));
        }
        assert_eq!(world.site(s1).metrics().snapshot().replicas_created, 3);
    }

    #[test]
    fn streamed_fault_parks_tail_chunks_for_the_pump() {
        let (world, s1, _s2, refs) = list_world(30);
        let remote = world.site(s1).lookup("head").unwrap();
        world
            .site(s1)
            .get(&remote, ReplicationMode::incremental(20))
            .unwrap();
        // Touching the frontier proxy streams the remaining 10 objects:
        // chunk 0 (8 objects) installs inline inside the fault window, the
        // tail chunk parks for the next operation's pump.
        world
            .site(s1)
            .invoke(refs[20], "touch", ObiValue::Null)
            .unwrap();
        for r in &refs[20..28] {
            assert!(world.site(s1).is_replicated(*r));
        }
        assert!(!world.site(s1).is_replicated(refs[28]));
        let pumped = world.site(s1).pump_pending_chunks();
        assert_eq!(pumped, 1);
        for r in &refs[20..] {
            assert!(world.site(s1).is_replicated(*r));
        }
        let snap = world.site(s1).metrics().snapshot();
        assert_eq!(snap.demand_chunks, 2);
        assert_eq!(snap.replicas_created, 30);
        // Exactly one streamed round trip resolved the fault.
        assert_eq!(snap.stream_resumes, 0);
    }

    #[test]
    fn public_operations_pump_parked_chunks_before_their_own_window() {
        let (world, s1, _s2, refs) = list_world(30);
        let remote = world.site(s1).lookup("head").unwrap();
        world
            .site(s1)
            .get(&remote, ReplicationMode::incremental(20))
            .unwrap();
        world
            .site(s1)
            .invoke(refs[20], "touch", ObiValue::Null)
            .unwrap();
        assert!(!world.site(s1).is_replicated(refs[28]));
        // Any public entry point drains the queue before doing its work.
        world
            .site(s1)
            .invoke(refs[0], "touch", ObiValue::Null)
            .unwrap();
        for r in &refs {
            assert!(world.site(s1).is_replicated(*r));
        }
        assert_eq!(world.site(s1).proxy_count(), 0);
    }

    #[test]
    fn parked_chunk_does_not_resurrect_evicted_replicas() {
        // Park a tail chunk exactly as the streaming test does...
        let (world, s1, _s2, refs) = list_world(30);
        let remote = world.site(s1).lookup("head").unwrap();
        world
            .site(s1)
            .get(&remote, ReplicationMode::incremental(20))
            .unwrap();
        world
            .site(s1)
            .invoke(refs[20], "touch", ObiValue::Null)
            .unwrap();
        assert!(!world.site(s1).is_replicated(refs[28]));
        // ...then evict every replica (nothing is rooted) while the chunk
        // is still parked. Its stream root refs[20] is gone now.
        let stats = world.site(s1).collect_garbage(true);
        assert!(stats.replicas_reclaimed > 0, "{stats:?}");
        assert!(!world.site(s1).is_replicated(refs[20]));
        // The pump must drop the stale chunk, not materialize its objects
        // into a space that just reclaimed their stream.
        assert_eq!(world.site(s1).pump_pending_chunks(), 0);
        for r in &refs[20..] {
            assert!(!world.site(s1).is_replicated(*r), "{r:?} resurrected");
        }
        assert_eq!(world.site(s1).metrics().snapshot().stale_chunks_dropped, 1);
    }

    #[test]
    fn transitive_closure_replicates_everything_upfront() {
        let (world, s1, _s2, refs) = list_world(20);
        let remote = world.site(s1).lookup("head").unwrap();
        world
            .site(s1)
            .get(&remote, ReplicationMode::transitive())
            .unwrap();
        for r in &refs {
            assert!(world.site(s1).is_replicated(*r));
        }
        assert_eq!(world.site(s1).metrics().snapshot().object_faults, 0);
        assert_eq!(world.site(s1).proxy_count(), 0);
    }

    #[test]
    fn cluster_get_creates_one_proxy_pair_per_batch() {
        let (world, s1, _s2, _refs) = list_world(10);
        let remote = world.site(s1).lookup("head").unwrap();
        let mut cur = world
            .site(s1)
            .get(&remote, ReplicationMode::cluster(5))
            .unwrap();
        loop {
            let out = world.site(s1).invoke(cur, "touch", ObiValue::Null).unwrap();
            match out.as_ref_id() {
                Some(next) => cur = ObjRef::new(next),
                None => break,
            }
        }
        let snap = world.site(s1).metrics().snapshot();
        assert_eq!(snap.replicas_created, 10);
        // 2 cluster batches -> 2 proxy pairs (vs 10 in incremental mode).
        assert_eq!(snap.proxy_pairs_created, 2);
    }

    #[test]
    fn payload_nodes_report_their_size() {
        let mut world = ObiWorld::loopback();
        let s1 = world.add_site("S1");
        let s2 = world.add_site("S2");
        let node = world.site(s2).create(PayloadNode::sized(0, 1024));
        world.site(s2).export(node, "pn").unwrap();
        let remote = world.site(s1).lookup("pn").unwrap();
        let local = world
            .site(s1)
            .get(&remote, ReplicationMode::incremental(1))
            .unwrap();
        let len = world
            .site(s1)
            .invoke(local, "payload_len", ObiValue::Null)
            .unwrap();
        assert_eq!(len, ObiValue::I64(1024));
    }

    #[test]
    fn get_from_own_site_is_identity() {
        let (world, _s1, s2, refs) = list_world(1);
        let remote = RemoteRef::new(refs[0].id(), s2);
        let r = world
            .site(s2)
            .get(&remote, ReplicationMode::incremental(1))
            .unwrap();
        assert_eq!(r, refs[0]);
        assert!(world.site(s2).meta_of(r).unwrap().kind.is_master());
    }

    fn payload_world(n: usize, size: usize) -> (ObiWorld, SiteId, SiteId, Vec<ObjRef>) {
        let mut world = ObiWorld::loopback();
        let s1 = world.add_site("S1");
        let s2 = world.add_site("S2");
        let mut refs = Vec::new();
        let mut next = None;
        for i in (0..n).rev() {
            let mut node = PayloadNode::sized(i as i64, size);
            node.set_next(next);
            let r = world.site(s2).create(node);
            next = Some(r);
            refs.push(r);
        }
        refs.reverse();
        world.site(s2).export(refs[0], "list").unwrap();
        (world, s1, s2, refs)
    }

    fn walk(world: &ObiWorld, site: SiteId, mut cur: ObjRef) -> usize {
        let mut n = 0;
        loop {
            let out = world.site(site).invoke(cur, "touch", ObiValue::Null).unwrap();
            n += 1;
            match out.as_ref_id() {
                Some(id) => cur = id.into(),
                None => break,
            }
        }
        n
    }

    // -- prefetch (paper §2.1 footnote) -------------------------------------

    #[test]
    fn prefetch_eliminates_faults_entirely() {
        let (world, s1, _s2, refs) = payload_world(10, 32);
        let remote = world.site(s1).lookup("list").unwrap();
        let root = world
            .site(s1)
            .get(&remote, ReplicationMode::incremental(2))
            .unwrap();
        // Prefetch the rest of the list during "think time".
        let fetched = world.site(s1).prefetch(root, 100).unwrap();
        assert_eq!(fetched, 8);
        let before = world.site(s1).metrics().snapshot();
        assert_eq!(walk(&world, s1, root), 10);
        let after = world.site(s1).metrics().snapshot().since(&before);
        assert_eq!(after.object_faults, 0, "prefetch must remove all faults");
        let _ = refs;
    }

    #[test]
    fn prefetch_respects_the_object_limit() {
        let (world, s1, _s2, refs) = payload_world(20, 32);
        let remote = world.site(s1).lookup("list").unwrap();
        let root = world
            .site(s1)
            .get(&remote, ReplicationMode::incremental(1))
            .unwrap();
        let fetched = world.site(s1).prefetch(root, 5).unwrap();
        assert_eq!(fetched, 5);
        assert!(world.site(s1).is_replicated(refs[5]));
        assert!(!world.site(s1).is_replicated(refs[7]));
    }

    #[test]
    fn prefetch_on_fully_local_graph_is_a_noop() {
        let (world, s1, _s2, _refs) = payload_world(3, 32);
        let remote = world.site(s1).lookup("list").unwrap();
        let root = world
            .site(s1)
            .get(&remote, ReplicationMode::transitive())
            .unwrap();
        assert_eq!(world.site(s1).prefetch(root, 100).unwrap(), 0);
    }

    #[test]
    fn prefetch_stops_cleanly_on_disconnection() {
        let (world, s1, _s2, _refs) = payload_world(10, 32);
        let remote = world.site(s1).lookup("list").unwrap();
        let root = world
            .site(s1)
            .get(&remote, ReplicationMode::incremental(1))
            .unwrap();
        world.disconnect(s1);
        assert!(world.site(s1).prefetch(root, 5).unwrap_err().is_connectivity());
        // Already-replicated prefix still usable.
        world.site(s1).invoke(root, "index", ObiValue::Null).unwrap();
    }

    // -- replica memory budget (paper §2.1, info-appliances) -----------------

    #[test]
    fn budget_caps_replica_bytes_during_a_long_walk() {
        let (world, s1, _s2, _refs) = payload_world(50, 1024);
        world.site(s1).set_replica_budget(Some(8 * 1024));
        let remote = world.site(s1).lookup("list").unwrap();
        let root = world
            .site(s1)
            .get(&remote, ReplicationMode::incremental(5))
            .unwrap();
        assert_eq!(walk(&world, s1, root), 50);
        // The device never held more than ~budget of replica state…
        assert!(
            world.site(s1).replica_bytes() <= 10 * 1024,
            "held {} bytes",
            world.site(s1).replica_bytes()
        );
        // …which required evicting most of the list.
        let m = world.site(s1).metrics().snapshot();
        assert!(m.replicas_evicted >= 40, "evicted {}", m.replicas_evicted);
        assert_eq!(m.replicas_created, 50);
    }

    #[test]
    fn evicted_replicas_fault_back_in_transparently() {
        let (world, s1, _s2, refs) = payload_world(10, 1024);
        world.site(s1).set_replica_budget(Some(3 * 1024));
        let remote = world.site(s1).lookup("list").unwrap();
        let root = world
            .site(s1)
            .get(&remote, ReplicationMode::incremental(2))
            .unwrap();
        walk(&world, s1, root);
        // The head was evicted long ago; using it again just re-faults.
        assert!(matches!(
            world.site(s1).resolution(refs[0]),
            Resolution::Proxy(_)
        ));
        let v = world.site(s1).invoke(refs[0], "index", ObiValue::Null).unwrap();
        assert_eq!(v, ObiValue::I64(0));
    }

    #[test]
    fn dirty_replicas_survive_eviction_pressure() {
        let (world, s1, _s2, refs) = payload_world(10, 1024);
        let remote = world.site(s1).lookup("list").unwrap();
        let root = world
            .site(s1)
            .get(&remote, ReplicationMode::incremental(1))
            .unwrap();
        // Dirty the head, then squeeze hard while walking.
        world
            .site(s1)
            .invoke(root, "set_index", ObiValue::I64(-1))
            .unwrap();
        world.site(s1).set_replica_budget(Some(2 * 1024));
        walk(&world, s1, refs[1]);
        // The dirty head is still a live replica with its edit intact.
        let meta = world.site(s1).meta_of(root).unwrap();
        assert!(meta.dirty);
        let v = world.site(s1).invoke(root, "index", ObiValue::Null).unwrap();
        assert_eq!(v, ObiValue::I64(-1));
    }

    #[test]
    fn roots_survive_eviction_pressure() {
        let (world, s1, _s2, refs) = payload_world(10, 1024);
        let remote = world.site(s1).lookup("list").unwrap();
        let root = world
            .site(s1)
            .get(&remote, ReplicationMode::incremental(1))
            .unwrap();
        world.site(s1).add_root(root);
        world.site(s1).set_replica_budget(Some(2 * 1024));
        walk(&world, s1, refs[0]);
        assert!(world.site(s1).is_replicated(root));
    }

    #[test]
    fn disabling_the_budget_stops_eviction() {
        let (world, s1, _s2, _refs) = payload_world(20, 1024);
        world.site(s1).set_replica_budget(Some(1024));
        world.site(s1).set_replica_budget(None);
        let remote = world.site(s1).lookup("list").unwrap();
        let root = world
            .site(s1)
            .get(&remote, ReplicationMode::transitive())
            .unwrap();
        walk(&world, s1, root);
        assert_eq!(world.site(s1).metrics().snapshot().replicas_evicted, 0);
        assert!(world.site(s1).replica_bytes() >= 20 * 1024);
    }

    #[test]
    fn eviction_prefers_least_recently_used() {
        let (world, s1, _s2, refs) = payload_world(4, 1024);
        let remote = world.site(s1).lookup("list").unwrap();
        let root = world
            .site(s1)
            .get(&remote, ReplicationMode::transitive())
            .unwrap();
        // Touch everything, then re-touch the head to make it hottest.
        walk(&world, s1, root);
        world.site(s1).invoke(root, "index", ObiValue::Null).unwrap();
        // Budget for roughly two nodes: cold middle nodes go first.
        world.site(s1).set_replica_budget(Some(2 * 1024 + 512));
        assert!(world.site(s1).is_replicated(refs[0]), "hot head kept");
        assert!(
            matches!(world.site(s1).resolution(refs[1]), Resolution::Proxy(_)),
            "cold node evicted"
        );
    }
}
