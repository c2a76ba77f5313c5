//! The flat object table: one `HashMap`, no locks, no stripes.
//!
//! This was `obiwan_core::space::ObjectSpace` until the striped
//! [`ShardedSpace`](obiwan::core::ShardedSpace) became the only table the
//! product runs. It lives on here as the independent reference of
//! `tests/sharded_equivalence.rs`: it shares the slot and metadata *types*
//! with the production table and none of its logic, so a bug in one is
//! not a bug in the other.

use obiwan::core::proxy::ProxyOut;
use obiwan::core::space::{GcStats, ObjectEntry, ObjectMeta, ReplicaKind, Resolution, Slot};
use obiwan::core::{ObiObject, ObjRef};
use obiwan::util::{ObiError, ObjId, Result, SiteId};
use std::collections::{HashMap, HashSet, VecDeque};

/// The table of objects hosted by one process.
pub struct FlatSpace {
    site: SiteId,
    next_local: u64,
    use_tick: u64,
    slots: HashMap<ObjId, Slot>,
    roots: HashSet<ObjId>,
}

impl std::fmt::Debug for FlatSpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlatSpace")
            .field("site", &self.site)
            .field("slots", &self.slots.len())
            .field("roots", &self.roots.len())
            .finish()
    }
}

impl FlatSpace {
    /// Creates an empty space owned by `site`.
    pub fn new(site: SiteId) -> Self {
        FlatSpace {
            site,
            next_local: 1,
            use_tick: 1,
            slots: HashMap::new(),
            roots: HashSet::new(),
        }
    }

    /// The owning site.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// Number of slots (objects + proxies + busy markers).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the space holds nothing.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Creates a new master object, assigning it a fresh id.
    pub fn create(&mut self, object: Box<dyn ObiObject>) -> ObjRef {
        let id = ObjId::new(self.site, self.next_local);
        self.next_local += 1;
        let mut meta = ObjectMeta::master(id);
        meta.last_used = self.bump_tick();
        self.slots.insert(id, Slot::Object(ObjectEntry { object, meta }));
        ObjRef::new(id)
    }

    fn bump_tick(&mut self) -> u64 {
        self.use_tick += 1;
        self.use_tick
    }

    /// Inserts (or replaces) a live object under an explicit id — used when
    /// materializing replicas.
    pub fn insert_object(&mut self, mut entry: ObjectEntry) {
        entry.meta.last_used = self.bump_tick();
        let id = entry.meta.id;
        self.slots.insert(id, Slot::Object(entry));
    }

    /// Marks `id` as just-used (freshens it against LRU eviction) without
    /// invoking it.
    pub fn touch(&mut self, id: ObjId) {
        let tick = self.bump_tick();
        if let Some(Slot::Object(entry)) = self.slots.get_mut(&id) {
            entry.meta.last_used = tick;
        }
    }

    /// Inserts a proxy-out slot for a frontier edge. Existing live objects
    /// are never downgraded to proxies; the insert is skipped.
    pub fn insert_proxy(&mut self, proxy: ProxyOut) {
        match self.slots.get(&proxy.target) {
            Some(Slot::Object(_)) | Some(Slot::Busy(_)) => {}
            _ => {
                self.slots.insert(proxy.target, Slot::Proxy(proxy));
            }
        }
    }

    /// What does `id` currently resolve to?
    pub fn resolve(&self, id: ObjId) -> Resolution {
        match self.slots.get(&id) {
            Some(Slot::Object(entry)) => Resolution::Object(entry.meta.clone()),
            Some(Slot::Proxy(p)) => Resolution::Proxy(p.clone()),
            Some(Slot::Busy(_)) => Resolution::Busy,
            None => Resolution::Absent,
        }
    }

    /// Metadata of a live or busy object.
    pub fn meta(&self, id: ObjId) -> Option<&ObjectMeta> {
        match self.slots.get(&id) {
            Some(Slot::Object(entry)) => Some(&entry.meta),
            Some(Slot::Busy(meta)) => Some(meta),
            _ => None,
        }
    }

    /// Mutable metadata of a live object (not busy ones: their meta is
    /// carried by the taken entry).
    pub fn meta_mut(&mut self, id: ObjId) -> Option<&mut ObjectMeta> {
        match self.slots.get_mut(&id) {
            Some(Slot::Object(entry)) => Some(&mut entry.meta),
            _ => None,
        }
    }

    /// Takes a live object out for invocation, leaving a `Busy` marker.
    ///
    /// # Errors
    ///
    /// * [`ObiError::ReentrantInvocation`] if the object is already out.
    /// * [`ObiError::NoSuchObject`] if the id is absent or a proxy.
    pub fn take_object(&mut self, id: ObjId) -> Result<ObjectEntry> {
        let tick = self.bump_tick();
        match self.slots.get_mut(&id) {
            Some(Slot::Object(entry)) => {
                entry.meta.last_used = tick;
                let meta = entry.meta.clone();
                match self.slots.insert(id, Slot::Busy(meta)) {
                    Some(Slot::Object(entry)) => Ok(entry),
                    _ => unreachable!("slot changed between get and insert"),
                }
            }
            Some(Slot::Busy(_)) => Err(ObiError::ReentrantInvocation(id)),
            _ => Err(ObiError::NoSuchObject(id)),
        }
    }

    /// Returns an object taken with [`FlatSpace::take_object`].
    pub fn restore_object(&mut self, entry: ObjectEntry) {
        self.slots.insert(entry.meta.id, Slot::Object(entry));
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
        match self.slots.get(&id) {
            Some(Slot::Object(entry)) => Ok(f(entry.object.as_ref(), &entry.meta)),
            Some(Slot::Busy(_)) => Err(ObiError::ReentrantInvocation(id)),
            _ => Err(ObiError::NoSuchObject(id)),
        }
    }

    /// Removes a slot entirely, returning whether it existed.
    pub fn remove(&mut self, id: ObjId) -> bool {
        self.slots.remove(&id).is_some()
    }

    /// Marks `id` as a GC root (exported, name-bound, or application-held).
    pub fn add_root(&mut self, id: ObjId) {
        self.roots.insert(id);
    }

    /// Unmarks a GC root.
    pub fn remove_root(&mut self, id: ObjId) {
        self.roots.remove(&id);
    }

    /// True when `id` is a root.
    pub fn is_root(&self, id: ObjId) -> bool {
        self.roots.contains(&id)
    }

    /// Ids of all live objects (masters and replicas), unordered.
    pub fn object_ids(&self) -> Vec<ObjId> {
        self.slots
            .iter()
            .filter(|(_, s)| matches!(s, Slot::Object(_) | Slot::Busy(_)))
            .map(|(id, _)| *id)
            .collect()
    }

    /// Ids of all proxy-out slots, unordered.
    pub fn proxy_ids(&self) -> Vec<ObjId> {
        self.slots
            .iter()
            .filter(|(_, s)| matches!(s, Slot::Proxy(_)))
            .map(|(id, _)| *id)
            .collect()
    }

    /// Number of live proxy-out slots.
    pub fn proxy_count(&self) -> usize {
        self.slots
            .values()
            .filter(|s| matches!(s, Slot::Proxy(_)))
            .count()
    }

    /// Approximate bytes of serialized state held by *replica* slots
    /// (masters and proxies are not counted: only replicas can be shed).
    ///
    /// This re-encodes state and is O(total replica bytes); it is meant for
    /// opt-in budget enforcement, not hot paths.
    pub fn replica_bytes(&self) -> usize {
        self.slots
            .values()
            .filter_map(|s| match s {
                Slot::Object(e) if !e.meta.kind.is_master() => Some(e.object.payload_size()),
                _ => None,
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
    /// protected state can therefore keep the space above budget â the
    /// budget is best effort, never a correctness constraint.
    ///
    /// Returns `(replicas evicted, bytes freed)`.
    pub fn evict_replicas_to(&mut self, budget: usize, protect: &[ObjId]) -> (usize, usize) {
        let mut total = 0usize;
        let mut candidates: Vec<(u64, ObjId, usize)> = Vec::new();
        for (&id, slot) in &self.slots {
            if let Slot::Object(e) = slot {
                if e.meta.kind.is_master() {
                    continue;
                }
                let bytes = e.object.payload_size();
                total += bytes;
                let evictable = !e.meta.dirty
                    && e.meta.cluster.is_none()
                    && !self.roots.contains(&id)
                    && !protect.contains(&id);
                if evictable {
                    candidates.push((e.meta.last_used, id, bytes));
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
            let Some(Slot::Object(e)) = self.slots.get(&id) else {
                continue;
            };
            let ReplicaKind::Replica { provider } = e.meta.kind else {
                continue;
            };
            let class = e.object.class_name().to_owned();
            self.slots.insert(
                id,
                Slot::Proxy(ProxyOut::new(
                    id,
                    class,
                    provider,
                    obiwan::wire::WireMode::Incremental { batch: 1 },
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
    /// and always survive).
    pub fn collect_garbage(&mut self, collect_replicas: bool) -> GcStats {
        let mut marked: HashSet<ObjId> = HashSet::new();
        let mut queue: VecDeque<ObjId> = VecDeque::new();

        // Seeds are exactly the slots guaranteed to survive the sweep:
        // everything they reference must survive too, or the handle graph
        // would dangle. In particular, when clean replicas are retained
        // (`!collect_replicas`) they must seed marking, otherwise their
        // frontier proxies would be swept out from under them.
        for (&id, slot) in &self.slots {
            let is_seed = match slot {
                Slot::Busy(_) => true,
                Slot::Object(e) => {
                    e.meta.kind.is_master()
                        || e.meta.dirty
                        || self.roots.contains(&id)
                        || !collect_replicas
                }
                Slot::Proxy(_) => self.roots.contains(&id),
            };
            if is_seed {
                queue.push_back(id);
            }
        }

        while let Some(id) = queue.pop_front() {
            if !marked.insert(id) {
                continue;
            }
            if let Some(Slot::Object(entry)) = self.slots.get(&id) {
                for r in entry.object.refs() {
                    if !marked.contains(&r.id()) {
                        queue.push_back(r.id());
                    }
                }
            }
        }

        let mut stats = GcStats::default();
        self.slots.retain(|id, slot| {
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
        stats
    }
}
