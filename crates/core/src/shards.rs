//! The per-process object table, striped behind per-shard locks.
//!
//! Each OBIWAN process holds its objects in a [`ShardedSpace`]: a table from
//! [`ObjId`] to [`Slot`]s. A slot holds either a live object (master or
//! replica), a [`ProxyOut`] awaiting its first fault, or a `Busy` marker
//! while the object is taken out for a method invocation. Resolution
//! through the table is what makes swizzling cheap: replacing a proxy slot
//! with a replica slot instantly redirects every reference in every
//! object, because references are handles resolved on use.
//!
//! [`ShardedSpace`] splits the slot table into N shards keyed by a
//! deterministic hash of the [`ObjId`], each behind its own
//! [`obiwan_util::sync::RwLock`] from the workspace lock facade (so
//! the `lockcheck` detector sees every acquisition). Single-object
//! operations — resolve, invoke take/restore, replica materialization —
//! touch exactly one shard, which is what lets many reader threads serve
//! `get` batches concurrently while writers mutate disjoint shards.
//!
//! Lock discipline (enforced by `lockcheck` at runtime and the
//! `single-shard-guard` lint rule statically):
//!
//! * a function holds at most one shard guard at a time, acquired and
//!   released before the next shard is touched (always in ascending shard
//!   index order);
//! * whole-table operations (GC, eviction) take every shard through
//!   [`obiwan_util::sync::lock_many`], the one sanctioned multi-guard path,
//!   which also acquires in index order.
//!
//! Striping is observationally invisible, a tested property
//! (`tests/sharded_equivalence.rs`): for any single-threaded op sequence
//! this table at 1–16 stripes and a flat single-map reference kept under
//! `tests/` report the same resolutions, metadata, object states, eviction
//! choices and GC stats. Two counters stay global for that (local-id
//! allocation and the LRU tick), both atomics.

use crate::object::ObiObject;
use crate::objref::ObjRef;
use crate::proxy::ProxyOut;
use crate::space::{GcStats, ObjectEntry, ObjectMeta, ReplicaKind, Resolution, Slot};
use obiwan_util::sync::{lock_many, RwLock};
use obiwan_util::{ObiError, ObjId, Result, SiteId};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};

/// Default stripe count; a power of two so the hash mix spreads evenly.
const DEFAULT_SHARDS: usize = 16;

/// One stripe of the table: its slots plus the shard-local slice of the
/// root set.
#[derive(Default)]
struct Shard {
    slots: HashMap<ObjId, Slot>,
    /// GC roots hashing to this shard.
    roots: HashSet<ObjId>,
}

/// The sharded object table hosted by one process.
///
/// Every method takes `&self` (interior mutability via the shard locks);
/// metadata mutation goes through [`ShardedSpace::update_meta`].
pub struct ShardedSpace {
    site: SiteId,
    shards: Vec<RwLock<Shard>>,
    next_local: AtomicU64,
    use_tick: AtomicU64,
}

impl std::fmt::Debug for ShardedSpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSpace")
            .field("site", &self.site)
            .field("shards", &self.shards.len())
            .field("slots", &self.len())
            .finish()
    }
}

impl ShardedSpace {
    /// Creates an empty space owned by `site` with `DEFAULT_SHARDS` (16)
    /// stripes.
    pub fn new(site: SiteId) -> Self {
        Self::with_shards(site, DEFAULT_SHARDS)
    }

    /// Creates an empty space with an explicit stripe count (≥ 1; clamped).
    pub fn with_shards(site: SiteId, shards: usize) -> Self {
        ShardedSpace {
            site,
            shards: (0..shards.max(1)).map(|_| RwLock::default()).collect(),
            next_local: AtomicU64::new(1),
            use_tick: AtomicU64::new(1),
        }
    }

    /// The owning site.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// The stripe `id` hashes to. Deterministic (not `RandomState`), so two
    /// processes shard identically and tests can target specific stripes.
    pub fn shard_index(&self, id: ObjId) -> usize {
        let mut h = id.local().wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= (id.site().as_u32() as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93);
        ((h >> 32) as usize) % self.shards.len()
    }

    fn shard(&self, id: ObjId) -> &RwLock<Shard> {
        &self.shards[self.shard_index(id)]
    }

    fn bump_tick(&self) -> u64 {
        self.use_tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Number of slots (objects + proxies + busy markers).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().slots.len()).sum()
    }

    /// True when the space holds nothing.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().slots.is_empty())
    }

    /// Creates a new master object, assigning it a fresh id.
    pub fn create(&self, object: Box<dyn ObiObject>) -> ObjRef {
        let id = ObjId::new(self.site, self.next_local.fetch_add(1, Ordering::Relaxed));
        let mut meta = ObjectMeta::master(id);
        meta.last_used = self.bump_tick();
        self.shard(id)
            .write()
            .slots
            .insert(id, Slot::Object(ObjectEntry { object, meta }));
        ObjRef::new(id)
    }

    /// Inserts (or replaces) a live object under an explicit id — used when
    /// materializing replicas.
    pub fn insert_object(&self, mut entry: ObjectEntry) {
        entry.meta.last_used = self.bump_tick();
        let id = entry.meta.id;
        self.shard(id).write().slots.insert(id, Slot::Object(entry));
    }

    /// Marks `id` as just-used (freshens it against LRU eviction) without
    /// invoking it.
    pub fn touch(&self, id: ObjId) {
        let tick = self.bump_tick();
        if let Some(Slot::Object(entry)) = self.shard(id).write().slots.get_mut(&id) {
            entry.meta.last_used = tick;
        }
    }

    /// Inserts a proxy-out slot for a frontier edge. Existing live objects
    /// are never downgraded to proxies; the insert is skipped.
    pub fn insert_proxy(&self, proxy: ProxyOut) {
        let id = proxy.target;
        let mut g = self.shard(id).write();
        match g.slots.get(&id) {
            Some(Slot::Object(_)) | Some(Slot::Busy(_)) => {}
            _ => {
                g.slots.insert(id, Slot::Proxy(proxy));
            }
        }
    }

    /// What does `id` currently resolve to?
    pub fn resolve(&self, id: ObjId) -> Resolution {
        match self.shard(id).read().slots.get(&id) {
            Some(Slot::Object(entry)) => Resolution::Object(entry.meta.clone()),
            Some(Slot::Proxy(p)) => Resolution::Proxy(p.clone()),
            Some(Slot::Busy(_)) => Resolution::Busy,
            None => Resolution::Absent,
        }
    }

    /// Metadata of a live or busy object (cloned out of the shard).
    pub fn meta(&self, id: ObjId) -> Option<ObjectMeta> {
        match self.shard(id).read().slots.get(&id) {
            Some(Slot::Object(entry)) => Some(entry.meta.clone()),
            Some(Slot::Busy(meta)) => Some(meta.clone()),
            _ => None,
        }
    }

    /// Runs `f` on the metadata of a live object (not busy ones: their meta
    /// is carried by the taken entry). Returns whether the object was live.
    pub fn update_meta(&self, id: ObjId, f: impl FnOnce(&mut ObjectMeta)) -> bool {
        match self.shard(id).write().slots.get_mut(&id) {
            Some(Slot::Object(entry)) => {
                f(&mut entry.meta);
                true
            }
            _ => false,
        }
    }

    /// Takes a live object out for invocation, leaving a `Busy` marker.
    ///
    /// # Errors
    ///
    /// * [`ObiError::ReentrantInvocation`] if the object is already out.
    /// * [`ObiError::NoSuchObject`] if the id is absent or a proxy.
    pub fn take_object(&self, id: ObjId) -> Result<ObjectEntry> {
        let tick = self.bump_tick();
        let mut g = self.shard(id).write();
        match g.slots.get_mut(&id) {
            Some(Slot::Object(entry)) => {
                entry.meta.last_used = tick;
                let meta = entry.meta.clone();
                match g.slots.insert(id, Slot::Busy(meta)) {
                    Some(Slot::Object(entry)) => Ok(entry),
                    _ => unreachable!("slot changed under the shard write lock"),
                }
            }
            Some(Slot::Busy(_)) => Err(ObiError::ReentrantInvocation(id)),
            _ => Err(ObiError::NoSuchObject(id)),
        }
    }

    /// Returns an object taken with [`ShardedSpace::take_object`].
    pub fn restore_object(&self, entry: ObjectEntry) {
        let id = entry.meta.id;
        self.shard(id).write().slots.insert(id, Slot::Object(entry));
    }

    /// Read-only access to a live object.
    ///
    /// # Errors
    ///
    /// [`ObiError::NoSuchObject`] when absent/proxy,
    /// [`ObiError::ReentrantInvocation`] when busy.
    pub fn with_object<R>(
        &self,
        id: ObjId,
        f: impl FnOnce(&dyn ObiObject, &ObjectMeta) -> R,
    ) -> Result<R> {
        match self.shard(id).read().slots.get(&id) {
            Some(Slot::Object(entry)) => Ok(f(entry.object.as_ref(), &entry.meta)),
            Some(Slot::Busy(_)) => Err(ObiError::ReentrantInvocation(id)),
            _ => Err(ObiError::NoSuchObject(id)),
        }
    }

    /// Removes a slot entirely, returning whether it existed.
    pub fn remove(&self, id: ObjId) -> bool {
        self.shard(id).write().slots.remove(&id).is_some()
    }

    /// Marks `id` as a GC root (exported, name-bound, or application-held).
    pub fn add_root(&self, id: ObjId) {
        self.shard(id).write().roots.insert(id);
    }

    /// Unmarks a GC root.
    pub fn remove_root(&self, id: ObjId) {
        self.shard(id).write().roots.remove(&id);
    }

    /// True when `id` is a root.
    pub fn is_root(&self, id: ObjId) -> bool {
        self.shard(id).read().roots.contains(&id)
    }

    /// Ids of all live objects (masters and replicas), unordered.
    pub fn object_ids(&self) -> Vec<ObjId> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let g = shard.read();
            out.extend(
                g.slots
                    .iter()
                    .filter(|(_, s)| matches!(s, Slot::Object(_) | Slot::Busy(_)))
                    .map(|(id, _)| *id),
            );
        }
        out
    }

    /// Ids of all proxy-out slots, unordered.
    pub fn proxy_ids(&self) -> Vec<ObjId> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let g = shard.read();
            out.extend(
                g.slots
                    .iter()
                    .filter(|(_, s)| matches!(s, Slot::Proxy(_)))
                    .map(|(id, _)| *id),
            );
        }
        out
    }

    /// Number of live proxy-out slots.
    pub fn proxy_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.read()
                    .slots
                    .values()
                    .filter(|slot| matches!(slot, Slot::Proxy(_)))
                    .count()
            })
            .sum()
    }

    /// Approximate bytes of serialized state held by *replica* slots
    /// (masters and proxies are not counted: only replicas can be shed).
    ///
    /// This re-encodes state and is O(total replica bytes); it is meant for
    /// opt-in budget enforcement, not hot paths.
    pub fn replica_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.read()
                    .slots
                    .values()
                    .filter_map(|slot| match slot {
                        Slot::Object(e) if !e.meta.kind.is_master() => {
                            Some(e.object.payload_size())
                        }
                        _ => None,
                    })
                    .sum::<usize>()
            })
            .sum()
    }

    /// Evicts least-recently-used replicas until replica state fits in
    /// `budget` bytes — the memory-pressure story for "info-appliances with
    /// limited memory" (§2.1).
    ///
    /// Eviction is the inverse of a fault: the replica's slot reverts to a
    /// proxy-out pointing at its provider, so the handle graph stays closed
    /// and the object simply faults back in on next use. Never evicted:
    /// masters, dirty replicas (un-pushed work), roots, busy slots, and
    /// cluster members (their identity lives in the shared cluster pair).
    ///
    /// `protect` lists ids that must survive this round regardless of
    /// recency (e.g. the object a fault just materialized); pinned and
    /// protected state can therefore keep the space above budget: the
    /// budget is best effort, never a correctness constraint. Holds every
    /// shard via `lock_many` for a consistent global LRU order.
    ///
    /// Returns `(replicas evicted, bytes freed)`.
    pub fn evict_replicas_to(&self, budget: usize, protect: &[ObjId]) -> (usize, usize) {
        let mut guards = lock_many(&self.shards);
        let mut total = 0usize;
        let mut candidates: Vec<(u64, ObjId, usize)> = Vec::new();
        for g in guards.iter() {
            for (&id, slot) in &g.slots {
                if let Slot::Object(e) = slot {
                    if e.meta.kind.is_master() {
                        continue;
                    }
                    let bytes = e.object.payload_size();
                    total += bytes;
                    let evictable = !e.meta.dirty
                        && e.meta.cluster.is_none()
                        && !g.roots.contains(&id)
                        && !protect.contains(&id);
                    if evictable {
                        candidates.push((e.meta.last_used, id, bytes));
                    }
                }
            }
        }
        if total <= budget {
            return (0, 0);
        }
        candidates.sort_unstable_by_key(|(used, id, _)| (*used, *id));
        let mut evicted = 0usize;
        let mut freed = 0usize;
        for (_, id, bytes) in candidates {
            if total <= budget {
                break;
            }
            let g = &mut guards[self.shard_index(id)];
            let Some(Slot::Object(e)) = g.slots.get(&id) else {
                continue;
            };
            let ReplicaKind::Replica { provider } = e.meta.kind else {
                continue;
            };
            let class = e.object.class_name().to_owned();
            g.slots.insert(
                id,
                Slot::Proxy(ProxyOut::new(
                    id,
                    class,
                    provider,
                    obiwan_wire::WireMode::Incremental { batch: 1 },
                )),
            );
            total -= bytes;
            freed += bytes;
            evicted += 1;
        }
        (evicted, freed)
    }

    /// Mark-and-sweep over the handle graph (the stand-in for the JVM GC
    /// the paper leans on to reclaim dead proxy-outs).
    ///
    /// Marking starts from the root set, all masters, and every busy slot;
    /// it follows the `refs()` of live objects. Unreachable proxies are
    /// always collected. Unreachable *clean* replicas are collected only
    /// when `collect_replicas` is set (dirty replicas hold un-pushed work
    /// and always survive). Holds every shard via `lock_many` so the marked
    /// set is a consistent snapshot.
    pub fn collect_garbage(&self, collect_replicas: bool) -> GcStats {
        let mut guards = lock_many(&self.shards);
        let mut marked: HashSet<ObjId> = HashSet::new();
        let mut queue: VecDeque<ObjId> = VecDeque::new();

        // Seeds are exactly the slots guaranteed to survive the sweep:
        // everything they reference must survive too, or the handle graph
        // would dangle. In particular, when clean replicas are retained
        // (`!collect_replicas`) they must seed marking, otherwise their
        // frontier proxies would be swept out from under them.
        for g in guards.iter() {
            for (&id, slot) in &g.slots {
                let is_seed = match slot {
                    Slot::Busy(_) => true,
                    Slot::Object(e) => {
                        e.meta.kind.is_master()
                            || e.meta.dirty
                            || g.roots.contains(&id)
                            || !collect_replicas
                    }
                    Slot::Proxy(_) => g.roots.contains(&id),
                };
                if is_seed {
                    queue.push_back(id);
                }
            }
        }

        while let Some(id) = queue.pop_front() {
            if !marked.insert(id) {
                continue;
            }
            if let Some(Slot::Object(entry)) = guards[self.shard_index(id)].slots.get(&id) {
                for r in entry.object.refs() {
                    if !marked.contains(&r.id()) {
                        queue.push_back(r.id());
                    }
                }
            }
        }

        let mut stats = GcStats::default();
        for g in guards.iter_mut() {
            let shard: &mut Shard = g;
            shard.slots.retain(|id, slot| {
                if marked.contains(id) {
                    stats.live += 1;
                    return true;
                }
                match slot {
                    Slot::Proxy(_) => {
                        stats.proxies_reclaimed += 1;
                        false
                    }
                    Slot::Object(entry)
                        if collect_replicas
                            && !entry.meta.kind.is_master()
                            && !entry.meta.dirty =>
                    {
                        stats.replicas_reclaimed += 1;
                        false
                    }
                    _ => {
                        stats.live += 1;
                        true
                    }
                }
            });
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo::LinkedItem;
    use obiwan_wire::WireMode;

    fn space() -> ShardedSpace {
        ShardedSpace::with_shards(SiteId::new(1), 4)
    }

    fn boxed(v: i64) -> Box<dyn ObiObject> {
        Box::new(LinkedItem::new(v, "t"))
    }

    fn proxy(id: ObjId) -> ProxyOut {
        ProxyOut::new(
            id,
            "LinkedItem",
            SiteId::new(2),
            WireMode::Incremental { batch: 1 },
        )
    }

    fn replica(id: ObjId, v: i64, version: u64) -> ObjectEntry {
        ObjectEntry {
            object: boxed(v),
            meta: ObjectMeta::replica(id, SiteId::new(2), version),
        }
    }

    #[test]
    fn create_assigns_fresh_local_ids() {
        let s = space();
        let a = s.create(boxed(1));
        let b = s.create(boxed(2));
        assert_ne!(a, b);
        assert_eq!(a.id().site(), SiteId::new(1));
        assert_eq!(s.len(), 2);
        assert!(matches!(s.resolve(a.id()), Resolution::Object(m) if m.kind.is_master()));
    }

    #[test]
    fn create_take_restore_cycle() {
        let s = space();
        let a = s.create(boxed(1));
        let entry = s.take_object(a.id()).unwrap();
        assert!(matches!(s.resolve(a.id()), Resolution::Busy));
        // Metadata still readable while busy.
        assert_eq!(s.meta(a.id()).unwrap().version, 1);
        // Double-take is re-entrancy.
        assert!(matches!(
            s.take_object(a.id()),
            Err(ObiError::ReentrantInvocation(_))
        ));
        s.restore_object(entry);
        assert!(matches!(s.resolve(a.id()), Resolution::Object(_)));
    }

    #[test]
    fn taking_absent_or_proxy_fails() {
        let s = space();
        let ghost = ObjId::new(SiteId::new(9), 9);
        assert!(matches!(
            s.take_object(ghost),
            Err(ObiError::NoSuchObject(_))
        ));
        s.insert_proxy(proxy(ghost));
        assert!(matches!(
            s.take_object(ghost),
            Err(ObiError::NoSuchObject(_))
        ));
        assert!(matches!(s.resolve(ghost), Resolution::Proxy(_)));
    }

    #[test]
    fn proxies_never_downgrade_live_objects() {
        let s = space();
        let a = s.create(boxed(1));
        s.insert_proxy(proxy(a.id()));
        assert!(matches!(s.resolve(a.id()), Resolution::Object(_)));
    }

    #[test]
    fn replica_insert_overwrites_proxy_slot() {
        // This is the swizzle: same handle, new resolution.
        let s = space();
        let id = ObjId::new(SiteId::new(2), 5);
        s.insert_proxy(proxy(id));
        s.insert_object(replica(id, 5, 3));
        match s.resolve(id) {
            Resolution::Object(m) => {
                assert_eq!(m.version, 3);
                assert!(!m.kind.is_master());
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(s.proxy_count(), 0);
    }

    #[test]
    fn with_object_gives_read_access() {
        let s = space();
        let a = s.create(boxed(42));
        let class = s.with_object(a.id(), |o, m| {
            assert_eq!(m.version, 1);
            o.class_name().to_string()
        });
        assert_eq!(class.unwrap(), "LinkedItem");
    }

    #[test]
    fn roots_toggle() {
        let s = space();
        let a = s.create(boxed(1));
        assert!(!s.is_root(a.id()));
        s.add_root(a.id());
        assert!(s.is_root(a.id()));
        s.remove_root(a.id());
        assert!(!s.is_root(a.id()));
    }

    #[test]
    fn shard_index_is_deterministic_and_in_range() {
        let s = space();
        for i in 0..100 {
            let id = ObjId::new(SiteId::new(i % 7), u64::from(i));
            let idx = s.shard_index(id);
            assert!(idx < s.shards.len());
            assert_eq!(idx, s.shard_index(id));
        }
    }

    #[test]
    fn eviction_is_globally_lru_and_leaves_a_proxy() {
        let s = space();
        let a = ObjId::new(SiteId::new(2), 1);
        let b = ObjId::new(SiteId::new(2), 2);
        s.insert_object(replica(a, 1, 1));
        s.insert_object(replica(b, 2, 1));
        s.touch(a); // b is now the LRU entry
        let before = s.replica_bytes();
        let (evicted, freed) = s.evict_replicas_to(before - 1, &[]);
        assert_eq!(evicted, 1);
        assert!(freed > 0);
        assert!(matches!(s.resolve(b), Resolution::Proxy(p) if p.provider == SiteId::new(2)));
        assert!(matches!(s.resolve(a), Resolution::Object(_)));
    }

    #[test]
    fn gc_reclaims_unreachable_proxies_only() {
        let s = space();
        // head -> tail chain; head is a root. A stray proxy is unreachable.
        let tail = s.create(boxed(2));
        let head = s.create(Box::new(LinkedItem::with_next(1, "h", tail)));
        s.add_root(head.id());
        let stray = ObjId::new(SiteId::new(7), 1);
        s.insert_proxy(proxy(stray));
        let stats = s.collect_garbage(false);
        assert_eq!(stats.proxies_reclaimed, 1);
        assert_eq!(stats.replicas_reclaimed, 0);
        assert_eq!(stats.live, 2);
        assert!(matches!(s.resolve(stray), Resolution::Absent));
        assert!(matches!(s.resolve(tail.id()), Resolution::Object(_)));
    }

    #[test]
    fn gc_keeps_reachable_proxies() {
        let s = space();
        let remote = ObjId::new(SiteId::new(2), 3);
        // A rooted master references a proxy.
        let holder = s.create(Box::new(LinkedItem::with_next(
            1,
            "holder",
            ObjRef::new(remote),
        )));
        s.add_root(holder.id());
        s.insert_proxy(proxy(remote));
        let stats = s.collect_garbage(false);
        assert_eq!(stats.proxies_reclaimed, 0);
        assert!(matches!(s.resolve(remote), Resolution::Proxy(_)));
        assert_eq!(stats.live, 2);
    }

    #[test]
    fn gc_replica_policy() {
        let s = space();
        let id_clean = ObjId::new(SiteId::new(2), 1);
        let id_dirty = ObjId::new(SiteId::new(2), 2);
        s.insert_object(replica(id_clean, 1, 1));
        s.insert_object(replica(id_dirty, 2, 1));
        assert!(s.update_meta(id_dirty, |m| m.dirty = true));
        // Without collect_replicas both survive.
        let stats = s.collect_garbage(false);
        assert_eq!(stats.replicas_reclaimed, 0);
        // With it, only the clean unreachable one goes.
        let stats = s.collect_garbage(true);
        assert_eq!(stats.replicas_reclaimed, 1);
        assert!(matches!(s.resolve(id_clean), Resolution::Absent));
        assert!(matches!(s.resolve(id_dirty), Resolution::Object(_)));
    }

    #[test]
    fn masters_always_survive_gc() {
        let s = space();
        let a = s.create(boxed(1)); // unreferenced, not a root
        let stats = s.collect_garbage(true);
        assert_eq!(stats.live, 1);
        assert!(matches!(s.resolve(a.id()), Resolution::Object(_)));
    }

    #[test]
    fn update_meta_reaches_live_objects_only() {
        let s = space();
        let a = s.create(boxed(1));
        assert!(s.update_meta(a.id(), |m| m.version = 9));
        assert_eq!(s.meta(a.id()).unwrap().version, 9);
        let entry = s.take_object(a.id()).unwrap();
        assert!(!s.update_meta(a.id(), |m| m.version = 10));
        s.restore_object(entry);
        assert!(!s.update_meta(ObjId::new(SiteId::new(9), 9), |_| {}));
    }
}
