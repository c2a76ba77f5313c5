//! The per-site OBIWAN runtime: [`ObiProcess`] and its service endpoint.
//!
//! An `ObiProcess` ties together one [`ShardedSpace`], one [`RmiClient`],
//! the consistency subscriptions of the objects it provides (their proxy-ins),
//! and a [`ConsistencyHook`].
//! Its public API is the programmer's view of OBIWAN:
//!
//! * [`create`](ObiProcess::create) / [`export`](ObiProcess::export) /
//!   [`lookup`](ObiProcess::lookup) — publish and find objects;
//! * [`get`](ObiProcess::get) — replicate (incrementally, by cluster, or
//!   transitively) from a remote provider;
//! * [`invoke`](ObiProcess::invoke) — LMI with transparent object-fault
//!   resolution; [`invoke_rmi`](ObiProcess::invoke_rmi) — classic RMI;
//! * [`put`](ObiProcess::put) / [`refresh`](ObiProcess::refresh) — replica
//!   write-back and re-fetch;
//! * [`subscribe`](ObiProcess::subscribe) — opt in to invalidations or
//!   pushed updates.
//!
//! The runtime is one `impl ObiProcess` written across the files of this
//! directory, one per protocol seam, all over the same `ProcessShared`:
//!
//! * `mod.rs` — the process lock, the shared state and the one way in and
//!   out of it (`with_inner`, `install_state`), construction, durability
//!   glue, object lifecycle, inspection and GC;
//! * `invoke.rs` — [`InvokeCtx`], LMI with fault resolution, RMI, and the
//!   post-invocation bookkeeping;
//! * `demand.rs` — the one demand path (`demand_install`,
//!   `materialize_batch`), `get`, prefetch, the replica budget and the
//!   parked-chunk pump;
//! * `update.rs` — the one write-back (`put_many`, and `put`/`put_cluster`
//!   over it), `refresh`, `subscribe` and the notices a mutation queues;
//! * `serve.rs` — the skeleton side: the [`RmiService`](obiwan_rmi::RmiService) this process
//!   offers its peers, and arriving notices;
//! * `membership.rs` — join, leave, peer retirement and mastership handoff.

mod demand;
mod invoke;
mod membership;
mod serve;
mod update;

pub use invoke::InvokeCtx;
pub use update::Freshness;

use demand::PendingChunk;
use serve::ProcessService;

use crate::hooks::{AcceptAll, ConsistencyHook};
use crate::object::{ClassRegistry, ObiObject};
use crate::objref::ObjRef;
use crate::proxy::{ProxyIn, Subscriber};
use crate::shards::ShardedSpace;
use crate::space::{GcStats, ObjectEntry, ObjectMeta, ReplicaKind, Resolution};
use obiwan_net::Transport;
use obiwan_rmi::{BreakerState, RemoteRef, RetryPolicy, RmiClient, RmiServer};
use obiwan_store::{Durable, RecoveredState};
use obiwan_util::sync::{Mutex, MutexGuard, RwLock};
use obiwan_util::{Clock, ClusterId, CostModel, Metrics, ObiError, ObjId, Result, SiteId};
use obiwan_wire::{ObiValue, ReplicaState};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Re-entrancy-aware process lock
// ---------------------------------------------------------------------------

fn thread_token() -> u64 {
    use std::cell::Cell;
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TOKEN: Cell<u64> = const { Cell::new(0) };
    }
    TOKEN.with(|t| {
        if t.get() == 0 {
            t.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

struct ProcessLock {
    inner: Mutex<ProcessInner>,
    owner: AtomicU64,
}

struct LockGuard<'a> {
    guard: MutexGuard<'a, ProcessInner>,
    owner: &'a AtomicU64,
}

impl std::ops::Deref for LockGuard<'_> {
    type Target = ProcessInner;
    fn deref(&self) -> &ProcessInner {
        &self.guard
    }
}

impl std::ops::DerefMut for LockGuard<'_> {
    fn deref_mut(&mut self) -> &mut ProcessInner {
        &mut self.guard
    }
}

impl Drop for LockGuard<'_> {
    fn drop(&mut self) {
        self.owner.store(0, Ordering::Release);
    }
}

impl ProcessLock {
    fn new(inner: ProcessInner) -> Self {
        ProcessLock {
            inner: Mutex::new(inner),
            owner: AtomicU64::new(0),
        }
    }

    /// Locks the process state. Detects same-thread re-entrancy (a cycle of
    /// synchronous calls arriving back at this process) and reports it as an
    /// error instead of deadlocking; cross-thread contention blocks
    /// normally.
    fn enter(&self, site: SiteId) -> Result<LockGuard<'_>> {
        let me = thread_token();
        if self.owner.load(Ordering::Acquire) == me {
            return Err(ObiError::ReentrantInvocation(ObjId::new(site, 0)));
        }
        let guard = self.inner.lock();
        self.owner.store(me, Ordering::Release);
        Ok(LockGuard {
            guard,
            owner: &self.owner,
        })
    }
}

// ---------------------------------------------------------------------------
// Process state
// ---------------------------------------------------------------------------

/// The one-way consistency traffic a master sends its subscribers: what
/// the outbox holds on the way out and the inbox on the way in.
enum Notice {
    Invalidate(Vec<ObjId>),
    UpdatePush(Vec<ReplicaState>),
}

struct ProcessInner {
    policy: Box<dyn ConsistencyHook>,
    outbox: Vec<(SiteId, Notice)>,
    replica_budget: Option<usize>,
    /// Root object of each cluster generation this process holds, for
    /// cluster-wise refresh. An entry lives as long as its root is a live
    /// object carrying that cluster id: a newer generation over the same
    /// root replaces it (`demand::materialize_batch`) and a sweep that takes the
    /// root takes it ([`ObiProcess::collect_garbage`]).
    cluster_roots: HashMap<ClusterId, ObjId>,
}

struct ProcessShared {
    site: SiteId,
    ns_site: SiteId,
    lock: ProcessLock,
    /// The object table, striped into internally-locked shards. It lives
    /// *outside* the process lock: read-mostly service paths (`get`,
    /// `get_many`) walk it concurrently with local invocations, which still
    /// serialize on the process lock above.
    space: ShardedSpace,
    /// The proxy-in of every provided object that has a consistency
    /// subscriber: made by the first [`subscribe`](ProcessShared::subscribe),
    /// and an object with none needs no entry. Guarded by its own lock,
    /// never held across a shard acquisition or a transport call.
    subscriptions: RwLock<HashMap<ObjId, ProxyIn>>,
    /// Cluster-id generation counter (one per cluster batch served).
    cluster_seq: AtomicU64,
    /// Notices deferred while the process was busy, applied FIFO:
    /// arrival order is preserved so an `UpdatePush` following an
    /// `Invalidate` for the same object lands after it, never before.
    inbox: Mutex<VecDeque<Notice>>,
    /// Chunks after the first of each streamed fault reply, parked here
    /// (already decoded off the wire) instead of being materialized inside
    /// the fault window: [`ObiProcess::pump_pending_chunks`] installs them
    /// at the top of the next public operation, *before* its latency window
    /// opens, so a large batch's proxy-pair bill never lands in the
    /// caller-visible tail. Its own lock class, and deliberately a leaf:
    /// both push (the stream callback) and pop (the pump) release it before
    /// touching the process lock, a shard, or the transport.
    pending_chunks: Mutex<VecDeque<PendingChunk>>,
    client: RmiClient,
    clock: Clock,
    costs: CostModel,
    metrics: Metrics,
    registry: ClassRegistry,
    /// Write-through durability, attached at most once
    /// ([`ObiProcess::attach_durability`]). All `log_*` calls happen with
    /// no shard guard held (enforced by the `no-io-under-shard-guard`
    /// lint) and with the process lock released: an fsync under either
    /// would serialize the striped table or every invocation on the site.
    durable: std::sync::OnceLock<Arc<Durable>>,
}

impl ProcessShared {
    fn enter(&self) -> Result<LockGuard<'_>> {
        self.lock.enter(self.site)
    }

    /// Runs `f` under the process lock, then sends the notices it queued
    /// with the lock released again.
    fn with_inner<R>(&self, f: impl FnOnce(&mut ProcessInner) -> Result<R>) -> Result<R> {
        let (result, flush) = {
            let mut g = self.enter()?;
            let result = f(&mut g);
            let flush = std::mem::take(&mut g.outbox);
            (result, flush)
        };
        for (to, notice) in flush {
            // Best-effort one-way traffic; connectivity failures are the
            // subscriber's problem (their replica simply stays stale).
            let _ = match notice {
                Notice::Invalidate(objects) => self.client.send_invalidate(to, objects),
                Notice::UpdatePush(entries) => self.client.send_update_push(to, entries),
            };
        }
        result
    }

    /// Makes `state` the live object under `meta`: wire state →
    /// [`ClassRegistry::decode_exact`] → [`ShardedSpace::insert_object`].
    /// The one way serialized state becomes an object of this process,
    /// whoever sent it (a demanded batch, a recovered log, a pushed update,
    /// a `put`, a handoff); what each of them charges and counts stays with
    /// the caller. The state is decoded straight into the object, which
    /// copies its byte fields out of it: `state` may be a view of a frame,
    /// and the installed object keeps nothing of that frame alive. A state
    /// that does not decode exactly, trailing bytes included, installs
    /// nothing.
    fn install_state(&self, state: &ReplicaState, meta: ObjectMeta) -> Result<()> {
        let object = self.registry.decode_exact(&state.class, &state.state)?;
        self.space.insert_object(ObjectEntry { object, meta });
        Ok(())
    }

    /// The subscribers of `id` other than `originator` (none when `id`
    /// has no proxy-in), snapshotted so the subscriptions lock is free
    /// again.
    fn subscribers_except(&self, id: ObjId, originator: SiteId) -> Vec<Subscriber> {
        let subscriptions = self.subscriptions.read();
        subscriptions
            .get(&id)
            .map_or_else(Vec::new, |entry| entry.subscribers_except(originator).collect())
    }

    /// Subscribes `site` to `object`'s proxy-in, creating it if need be.
    fn subscribe(&self, object: ObjId, site: SiteId, push: bool) {
        self.subscriptions.write().entry(object).or_default().subscribe(site, push);
    }
}

/// One OBIWAN process: the runtime services a site's application links
/// against.
///
/// Cheap to clone (shared state inside); all methods take `&self`.
#[derive(Clone)]
pub struct ObiProcess {
    shared: Arc<ProcessShared>,
}

impl std::fmt::Debug for ObiProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObiProcess")
            .field("site", &self.shared.site)
            .finish()
    }
}

// ---------------------------------------------------------------------------
// ObiProcess public API
// ---------------------------------------------------------------------------

impl ObiProcess {
    /// Creates a process for `site`, wired to `transport`, using `ns_site`
    /// as its name server.
    ///
    /// The caller is responsible for registering the process's
    /// [`message_handler`](ObiProcess::message_handler) with the transport
    /// (the [`ObiWorld`](crate::world::ObiWorld) convenience does this).
    pub fn new(
        site: SiteId,
        transport: Arc<dyn Transport>,
        clock: Clock,
        costs: CostModel,
        registry: ClassRegistry,
        ns_site: SiteId,
    ) -> Self {
        let metrics = Metrics::new();
        let client = RmiClient::with_metrics(
            site,
            transport,
            clock.clone(),
            costs.clone(),
            metrics.clone(),
        );
        ObiProcess {
            shared: Arc::new(ProcessShared {
                site,
                ns_site,
                lock: ProcessLock::new(ProcessInner {
                    policy: Box::new(AcceptAll),
                    outbox: Vec::new(),
                    replica_budget: None,
                    cluster_roots: HashMap::new(),
                }),
                space: ShardedSpace::new(site),
                subscriptions: RwLock::new(HashMap::new()),
                cluster_seq: AtomicU64::new(1),
                inbox: Mutex::new(VecDeque::new()),
                pending_chunks: Mutex::new(VecDeque::new()),
                client,
                clock,
                costs,
                metrics,
                registry,
                durable: std::sync::OnceLock::new(),
            }),
        }
    }

    /// The site this process runs at.
    pub fn site(&self) -> SiteId {
        self.shared.site
    }

    /// Platform metrics for this process (LMI/RMI counts, faults, replicas,
    /// proxy pairs, …).
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// The class registry this process decodes replicas with.
    pub fn registry(&self) -> &ClassRegistry {
        &self.shared.registry
    }

    /// The message handler to register with the transport for this site.
    /// Shares the process's metrics so reply-cache hits are visible there.
    pub fn message_handler(&self) -> Arc<dyn obiwan_net::MessageHandler> {
        Arc::new(
            RmiServer::with_metrics(
                Arc::new(ProcessService {
                    shared: self.shared.clone(),
                }),
                self.shared.metrics.clone(),
            )
            .with_clock(self.shared.clock.clone()),
        )
    }

    /// Replaces the consistency policy hook.
    ///
    /// # Panics
    ///
    /// Panics when called from inside a method invocation.
    pub fn set_policy(&self, policy: Box<dyn ConsistencyHook>) {
        let mut g = self.shared.enter().expect("set_policy called re-entrantly");
        g.policy = policy;
    }

    /// Attaches a durability log: from now on dirty-replica mutations,
    /// puts, and refreshes write through to it (see `obiwan-store`), and
    /// the RMI client announces no reply horizon while a put confirmation
    /// is unsynced (recovery invariant 2). At most one log can ever be
    /// attached; a second call is ignored.
    ///
    /// A blank log is given the client's watermark at once, synced: a log
    /// left blank reads as a site that never ran, so a life that only made
    /// RPCs would restart on its own request ids (recovery invariant 3). A
    /// storage failure here goes unreported; the log's next write meets it.
    pub fn attach_durability(&self, durable: Arc<Durable>) {
        if self.shared.durable.set(durable.clone()).is_err() {
            return;
        }
        if durable.wal_len().is_ok_and(|len| len == 0) {
            let client = &self.shared.client;
            let _ = durable
                .log_client_state(client.request_seq(), client.horizon_tracker().horizon())
                .and_then(|()| durable.commit());
        }
        self.shared.client.set_announce_gate(move || durable.confirmations_durable());
    }

    /// The attached durability log, if any.
    pub fn durability(&self) -> Option<&Arc<Durable>> {
        self.shared.durable.get()
    }

    /// Reinstalls state recovered from a durability log after a restart:
    /// dirty replicas go back into the space (still dirty, awaiting
    /// reintegration), and the RMI client's request counter and reply
    /// horizon are restored so post-crash requests never collide with
    /// pre-crash ones (recovery invariant 3 in `obiwan-store`). A counter
    /// restored to a new epoch is logged to the attached log and synced,
    /// so that a life which logs nothing else still moves the next
    /// recovery past its own request ids. Returns how many replicas were
    /// reinstalled.
    ///
    /// Call before the process serves traffic, typically right after
    /// [`ObiProcess::attach_durability`] with the state that
    /// `Durable::open` returned.
    pub fn recover_from(&self, recovered: &RecoveredState) -> Result<usize> {
        let client = &self.shared.client;
        client.restore_request_seq(recovered.next_request_seq);
        // Below the restored counter every seq is spent, except those of
        // the put intents the log holds pending: only those are sent again.
        // Each holds the announced prefix below it until it is replayed;
        // one never replayed holds it for good, and the masters' pinned
        // reply bound (`ReplyCache`) is then what limits this site's share.
        let replays = recovered.pending_puts.values().map(|put| put.seq);
        client.horizon_tracker().restore(
            recovered
                .next_request_seq
                .saturating_sub(1)
                .max(recovered.horizon),
            replays,
        );
        let durable = self.shared.durable.get();
        if let Some(durable) = durable.filter(|_| recovered.next_request_seq > 0) {
            durable.log_client_state(client.request_seq(), client.horizon_tracker().horizon())?;
            durable.commit()?;
        }
        self.with_inner(|_inner| {
            let mut installed = 0usize;
            for (id, (provider, state)) in &recovered.dirty {
                // A dirty replica of a handed-off root re-targets the
                // successor, not the provider recorded before the handoff.
                let provider = match recovered.handoffs.get(id) {
                    Some(&(successor, _)) => successor,
                    None => *provider,
                };
                let mut meta = ObjectMeta::replica(*id, provider, state.version);
                meta.dirty = true;
                self.shared.install_state(state, meta)?;
                self.shared.metrics.incr_replicas_created();
                installed += 1;
            }
            // Exactly-one-master guard: whatever else recovery (or the
            // application's pre-recovery setup) installed, a root with a
            // durable handoff record must never come back up mastered
            // here — even a half-completed handoff (intent without ack)
            // yields, because the intent was durable before the RPC left
            // and the successor may have installed it.
            for (root, (successor, _)) in &recovered.handoffs {
                self.shared.space.update_meta(*root, |meta| {
                    if meta.kind.is_master() {
                        meta.kind = ReplicaKind::Replica {
                            provider: *successor,
                        };
                        meta.dirty = false;
                    }
                });
            }
            Ok(installed)
        })
    }

    /// [`ProcessShared::with_inner`], then applies the notices that
    /// arrived while this thread was inside.
    fn with_inner<R>(&self, f: impl FnOnce(&mut ProcessInner) -> Result<R>) -> Result<R> {
        let result = self.shared.with_inner(f);
        self.drain_inbox();
        result
    }

    // -- object lifecycle ---------------------------------------------------

    /// Creates a new master object and returns its reference.
    ///
    /// # Panics
    ///
    /// Panics when called from inside a method invocation — use
    /// [`InvokeCtx::create`] there instead.
    pub fn create<T: ObiObject + 'static>(&self, object: T) -> ObjRef {
        self.with_inner(|_inner| Ok(self.shared.space.create(Box::new(object))))
            .expect("create called re-entrantly; use InvokeCtx::create inside methods")
    }

    /// Exports an object (roots it) and binds it under `name` in the
    /// world's name server — the paper's "only `AProxyIn` is registered in
    /// a name server". Its proxy-in is this process's service endpoint plus
    /// the object's subscriptions, made when a replica first subscribes.
    ///
    /// # Errors
    ///
    /// Fails when the object does not exist locally, the name is taken, or
    /// the name server is unreachable.
    pub fn export(&self, object: ObjRef, name: &str) -> Result<()> {
        self.export_anonymous(object)?;
        self.shared
            .client
            .bind(self.shared.ns_site, name, object.id())
    }

    /// Exports an object (roots it) without binding a name: callers
    /// distribute the [`RemoteRef`] themselves.
    ///
    /// # Errors
    ///
    /// Fails when the object does not exist locally.
    pub fn export_anonymous(&self, object: ObjRef) -> Result<RemoteRef> {
        self.with_inner(|_inner| {
            if !matches!(self.shared.space.resolve(object.id()), Resolution::Object(_)) {
                return Err(ObiError::NoSuchObject(object.id()));
            }
            self.shared.space.add_root(object.id());
            Ok(RemoteRef::new(object.id(), self.shared.site))
        })
    }

    /// Looks up a name in the world's name server.
    pub fn lookup(&self, name: &str) -> Result<RemoteRef> {
        self.shared.client.lookup(self.shared.ns_site, name)
    }

    /// Lists every name bound in the world's name server, sorted.
    pub fn list_names(&self) -> Result<Vec<String>> {
        self.shared.client.list_names(self.shared.ns_site)
    }

    /// Removes a binding from the world's name server (the object itself
    /// stays exported; existing remote refs keep working).
    pub fn unbind(&self, name: &str) -> Result<()> {
        self.shared.client.unbind(self.shared.ns_site, name)
    }

    // -- connectivity ---------------------------------------------------------

    /// Round-trip connectivity probe to `site`.
    pub fn ping(&self, site: SiteId) -> Result<()> {
        self.shared.client.ping(site)
    }

    /// The clock this process charges time to (shared with the transport).
    pub fn clock(&self) -> &Clock {
        &self.shared.clock
    }

    /// Current circuit-breaker state for the link to `site`. An `Open`
    /// breaker means calls fail fast without touching the network until
    /// the cooldown admits a probe.
    pub fn breaker_state(&self, site: SiteId) -> BreakerState {
        self.shared.client.breaker_state(site)
    }

    /// Replaces the RPC retry policy (retries, per-call deadline budget,
    /// backoff bounds) used by every request this process issues.
    pub fn set_rpc_policy(&self, policy: RetryPolicy) {
        self.shared.client.set_rpc_policy(policy);
    }

    // -- inspection -----------------------------------------------------------

    /// What `target` currently resolves to in this process.
    pub fn resolution(&self, target: ObjRef) -> Resolution {
        self.with_inner(|_inner| Ok(self.shared.space.resolve(target.id())))
            .unwrap_or(Resolution::Busy)
    }

    /// Metadata of a live local object, if any.
    pub fn meta_of(&self, target: ObjRef) -> Option<ObjectMeta> {
        self.with_inner(|_inner| Ok(self.shared.space.meta(target.id())))
            .ok()
            .flatten()
    }

    /// True when `target` resolves to a live local object.
    pub fn is_replicated(&self, target: ObjRef) -> bool {
        matches!(self.resolution(target), Resolution::Object(_))
    }

    /// A snapshot of a live object's serialized state (reads do not count
    /// as invocations).
    pub fn state_of(&self, target: ObjRef) -> Result<ObiValue> {
        self.with_inner(|_inner| self.shared.space.with_object(target.id(), |o, _| o.state()))
    }

    /// Number of live objects (masters + replicas).
    pub fn object_count(&self) -> usize {
        self.with_inner(|_inner| Ok(self.shared.space.object_ids().len()))
            .unwrap_or(0)
    }

    /// Number of outstanding proxy-out slots.
    pub fn proxy_count(&self) -> usize {
        self.with_inner(|_inner| Ok(self.shared.space.proxy_count()))
            .unwrap_or(0)
    }

    /// Marks an application-held reference as a GC root.
    pub fn add_root(&self, target: ObjRef) {
        let _ = self.with_inner(|_inner| {
            self.shared.space.add_root(target.id());
            Ok(())
        });
    }

    /// Unmarks a GC root.
    pub fn remove_root(&self, target: ObjRef) {
        let _ = self.with_inner(|_inner| {
            self.shared.space.remove_root(target.id());
            Ok(())
        });
    }

    /// Runs the space's mark-and-sweep (see
    /// [`ShardedSpace::collect_garbage`]); reclaimed proxies are counted in
    /// this process's metrics, and cluster generations whose root the sweep
    /// took stop resolving.
    pub fn collect_garbage(&self, collect_replicas: bool) -> GcStats {
        self.with_inner(|inner| {
            let space = &self.shared.space;
            let stats = space.collect_garbage(collect_replicas);
            self.shared
                .metrics
                .add_proxies_reclaimed(stats.proxies_reclaimed as u64);
            inner.cluster_roots.retain(|cluster, root| {
                space.meta(*root).is_some_and(|m| m.cluster == Some(*cluster))
            });
            Ok(stats)
        })
        .unwrap_or_default()
    }
}

/// The rig most of this directory's tests start from.
#[cfg(test)]
mod testing {
    use crate::demo::LinkedItem;
    use crate::objref::ObjRef;
    use crate::world::ObiWorld;
    use obiwan_util::SiteId;

    /// Builds a world with two sites and a list of `n` LinkedItems exported
    /// from the second site under "head". Returns (world, s1, s2, node refs).
    pub(super) fn list_world(n: usize) -> (ObiWorld, SiteId, SiteId, Vec<ObjRef>) {
        let mut world = ObiWorld::loopback();
        let s1 = world.add_site("S1");
        let s2 = world.add_site("S2");
        let mut refs: Vec<ObjRef> = Vec::new();
        let mut next: Option<ObjRef> = None;
        for i in (0..n).rev() {
            let mut item = LinkedItem::new(i as i64, format!("n{i}"));
            item.set_next(next);
            let r = world.site(s2).create(item);
            next = Some(r);
            refs.push(r);
        }
        refs.reverse();
        world.site(s2).export(refs[0], "head").unwrap();
        (world, s1, s2, refs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replication::ReplicationMode;
    use crate::world::ObiWorld;
    use bytes::Bytes;
    use obiwan_wire::{Encoder, Message};
    use testing::list_world;

    crate::obi_class! {
        /// A payload that can say where its bytes live.
        pub class Whereabouts {
            fields {
                payload: Bytes,
            }
            methods {
                fn address(this, _ctx, _args) {
                    Ok(ObiValue::I64(this.payload.as_ptr() as i64))
                }
            }
        }
    }

    /// The consumer's one copy: a state decoded off a frame is a view of
    /// it, and the replica installed from that view owns its bytes.
    #[test]
    fn an_installed_replica_does_not_point_into_its_frame() {
        let mut world = ObiWorld::loopback();
        let s1 = world.add_site("S1");
        Whereabouts::register(world.registry());
        let provider = SiteId::new(9);
        let id = ObjId::new(provider, 1);
        let mut enc = Encoder::new();
        Whereabouts::from_fields(Bytes::from(vec![5u8; 64])).encode_state(&mut enc);
        let frame = Message::UpdatePush {
            entries: vec![ReplicaState {
                id,
                class: Whereabouts::CLASS.into(),
                version: 1,
                state: enc.finish(),
            }],
        }
        .encode();
        let Ok(Message::UpdatePush { entries }) = Message::decode(&frame) else {
            panic!("not a push");
        };
        let inside = |at: usize| {
            let start = frame.as_ptr() as usize;
            (start..start + frame.len()).contains(&at)
        };
        assert!(inside(entries[0].state.as_ptr() as usize), "the state is a view");
        let site = world.site(s1);
        site.shared
            .install_state(&entries[0], ObjectMeta::replica(id, provider, 1))
            .unwrap();
        let at = site.invoke(ObjRef::new(id), "address", ObiValue::Null).unwrap();
        assert!(!inside(at.as_i64().unwrap() as usize), "the replica pins its frame");
    }

    #[test]
    fn gc_reclaims_proxies_after_walk() {
        let (world, s1, _s2, _refs) = list_world(6);
        let remote = world.site(s1).lookup("head").unwrap();
        let root = world
            .site(s1)
            .get(&remote, ReplicationMode::incremental(2))
            .unwrap();
        world.site(s1).add_root(root);
        assert_eq!(world.site(s1).proxy_count(), 1);
        // The outstanding frontier proxy is *reachable* (node 1 references
        // node 2), so GC keeps it.
        let stats = world.site(s1).collect_garbage(false);
        assert_eq!(stats.proxies_reclaimed, 0);
        assert_eq!(world.site(s1).proxy_count(), 1);
    }
}
