//! Provider-side replication: building replica batches (paper §2.2, §4.3).

use crate::object::ObiObject;
use crate::shards::ShardedSpace;
use crate::space::{ObjectMeta, Resolution};
use obiwan_util::{ClusterId, ObiError, ObjId, Result};
use obiwan_wire::{
    BatchWriter, Encoder, FrontierEdge, ReplicaBatch, ReplicaState, WireMode, WrittenBatch,
};
use std::collections::{HashSet, VecDeque};

/// The application-facing replication mode (the `mode` argument of
/// `IProvideRemote::get(mode)`).
///
/// # Examples
///
/// ```
/// use obiwan_core::ReplicationMode;
///
/// let m = ReplicationMode::incremental(10);
/// assert_eq!(m.objects_per_step(), Some(10));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplicationMode {
    /// Replicate `batch` objects per step; every object gets its own
    /// proxy-in/proxy-out pair and can be individually updated.
    Incremental {
        /// Objects per step (≥ 1; clamped on construction).
        batch: usize,
    },
    /// Replicate clusters of `size` objects per step; one proxy pair per
    /// cluster, members cannot be individually updated.
    Cluster {
        /// Objects per cluster (≥ 1; clamped on construction).
        size: usize,
    },
    /// Replicate the whole reachability graph in one step.
    TransitiveClosure,
}

impl ReplicationMode {
    /// Incremental replication of `batch` objects per fault.
    pub fn incremental(batch: usize) -> Self {
        ReplicationMode::Incremental { batch: batch.max(1) }
    }

    /// Cluster replication of `size`-object clusters.
    pub fn cluster(size: usize) -> Self {
        ReplicationMode::Cluster { size: size.max(1) }
    }

    /// Whole-graph replication.
    pub fn transitive() -> Self {
        ReplicationMode::TransitiveClosure
    }

    /// Objects materialized per step, or `None` for the whole graph.
    pub fn objects_per_step(&self) -> Option<usize> {
        match self {
            ReplicationMode::Incremental { batch } => Some(*batch),
            ReplicationMode::Cluster { size } => Some(*size),
            ReplicationMode::TransitiveClosure => None,
        }
    }

    /// True for cluster mode (single proxy pair per step).
    pub fn is_cluster(&self) -> bool {
        matches!(self, ReplicationMode::Cluster { .. })
    }

    /// Wire representation.
    pub fn to_wire(self) -> WireMode {
        match self {
            ReplicationMode::Incremental { batch } => WireMode::Incremental {
                batch: batch.min(u32::MAX as usize) as u32,
            },
            ReplicationMode::Cluster { size } => WireMode::Cluster {
                size: size.min(u32::MAX as usize) as u32,
            },
            ReplicationMode::TransitiveClosure => WireMode::Transitive,
        }
    }

    /// From the wire representation (clamping zero to one).
    pub fn from_wire(mode: WireMode) -> Self {
        match mode {
            WireMode::Incremental { batch } => ReplicationMode::incremental(batch as usize),
            WireMode::Cluster { size } => ReplicationMode::cluster(size as usize),
            WireMode::Transitive => ReplicationMode::TransitiveClosure,
        }
    }
}

impl Default for ReplicationMode {
    fn default() -> Self {
        ReplicationMode::incremental(1)
    }
}

/// The wire form of live object `id` as it stands: class, version and
/// encoded state. The one place a [`ReplicaState`] is made from an object
/// (a `put`, a pushed update, a handoff and a logged delta carry what this
/// returns; a `get` reply makes none, see [`write_batch_many`]).
///
/// # Errors
///
/// [`ObiError::NoSuchObject`] when absent/proxy,
/// [`ObiError::ReentrantInvocation`] when busy.
pub(crate) fn replica_state_of(space: &ShardedSpace, id: ObjId) -> Result<ReplicaState> {
    space.with_object(id, |o, m| {
        // Enough for a small object in one allocation.
        let mut enc = Encoder::with_capacity(128);
        o.encode_state(&mut enc);
        ReplicaState {
            id,
            class: o.class_name().to_owned(),
            version: m.version,
            state: enc.finish(),
        }
    })
}

/// Builds one merged replica batch rooted at every live object in `targets`
/// — the provider side of `get` and `get_many` (paper §2.2, §4.3).
///
/// The traversal is a multi-source BFS over live objects seeded with all
/// live targets, so the roots are materialized first (in request order)
/// before any of their referents. Frontier edges (references leaving the
/// batch) are reported so the requester can create proxy-outs; in cluster
/// mode `next_cluster` supplies the fresh [`ClusterId`] all of them share.
/// The step limit scales with the number of live roots: a
/// `get_many` of N targets in `Incremental { batch }` mode yields up to
/// `N × batch` objects, exactly what N separate `get`s would have, in one
/// round-trip. Targets this site cannot provide (proxies, absent ids) are
/// silently skipped; the reply's `root` is the first live target.
///
/// The states of a batch lie end to end in one buffer, and each
/// [`ReplicaState`] holds a view of its own part of it. A site serving a
/// `get` does not build this: it writes the same traversal straight into
/// its reply frames ([`obiwan_wire::BatchWriter`]).
///
/// # Errors
///
/// [`ObiError::NoSuchObject`] when *no* target is a live object here: this
/// site cannot *provide* objects it only holds proxies for (the id
/// reported is the first target, or a nil id for an empty request).
pub fn build_batch_many(
    space: &ShardedSpace,
    targets: &[ObjId],
    mode: WireMode,
    next_cluster: impl FnOnce() -> ClusterId,
) -> Result<ReplicaBatch> {
    // Per included object, in BFS order: its class, version and where its
    // state ends in `states`.
    let mut written: Vec<(&'static str, u64, usize)> = Vec::new();
    let mut states = Encoder::with_capacity(4096);
    let walk = traverse(space, targets, mode, next_cluster, |o, m| {
        o.encode_state(&mut states);
        written.push((o.class_name(), m.version, states.len()));
    })?;
    let (states, mut start) = (states.finish(), 0);
    let replicas = walk.ids.iter().zip(written).map(|(&id, (class, version, end))| {
        let state = states.slice(start..end);
        start = end;
        ReplicaState { id, class: class.to_owned(), version, state }
    });
    Ok(ReplicaBatch {
        root: walk.root,
        replicas: replicas.collect(),
        frontier: walk.frontier,
        cluster: walk.cluster,
    })
}

/// The serve path's [`build_batch_many`], failing as it does: the same batch
/// written straight into its reply frames, `per_chunk` replicas to a frame,
/// and the ids the provider must export (every replica, or a cluster's
/// root). No [`ReplicaState`] is made.
pub(crate) fn write_batch_many(
    space: &ShardedSpace,
    targets: &[ObjId],
    mode: WireMode,
    next_cluster: impl FnOnce() -> ClusterId,
    per_chunk: usize,
) -> Result<(WrittenBatch, Vec<ObjId>)> {
    let mut writer = BatchWriter::new(per_chunk);
    let walk = traverse(space, targets, mode, next_cluster, |o, m| {
        writer.push(m.id, o.class_name(), m.version, |enc| o.encode_state(enc));
    })?;
    let batch = writer.finish(walk.root, &walk.frontier, walk.cluster);
    let exported = match walk.cluster {
        Some(_) => vec![walk.root],
        None => walk.ids,
    };
    Ok((batch, exported))
}

/// What [`traverse`] found besides the objects it visited: the first live
/// target, every included id in BFS order, the frontier and the cluster.
struct Traversal {
    root: ObjId,
    ids: Vec<ObjId>,
    frontier: Vec<FrontierEdge>,
    cluster: Option<ClusterId>,
}

/// The one BFS behind a batch (see [`build_batch_many`]): hands `visit`
/// each included object and its metadata in BFS order, under the shard
/// guard it takes the object's refs in, the one time the object is read.
fn traverse(
    space: &ShardedSpace,
    targets: &[ObjId],
    mode: WireMode,
    next_cluster: impl FnOnce() -> ClusterId,
    mut visit: impl FnMut(&dyn ObiObject, &ObjectMeta),
) -> Result<Traversal> {
    let mut included_set: HashSet<ObjId> = HashSet::new();
    let live: Vec<ObjId> = targets
        .iter()
        .copied()
        .filter(|&t| {
            matches!(space.resolve(t), Resolution::Object(_)) && included_set.insert(t)
        })
        .collect();
    let Some(&root) = live.first() else {
        let blamed = targets
            .first()
            .copied()
            .unwrap_or_else(|| ObjId::new(space.site(), 0));
        return Err(ObiError::NoSuchObject(blamed));
    };
    let mode = ReplicationMode::from_wire(mode);
    let limit = mode
        .objects_per_step()
        .map_or(usize::MAX, |step| step.saturating_mul(live.len()));

    // Each included object's out-edges go on the end of `edges`.
    let mut ids: Vec<ObjId> = Vec::new();
    let mut edges: Vec<ObjId> = Vec::new();
    let mut queue: VecDeque<ObjId> = live.into_iter().collect();

    // BFS over objects this site can actually provide.
    while let Some(id) = queue.pop_front() {
        let first_edge = edges.len();
        space.with_object(id, |o, m| {
            visit(o, m);
            edges.extend(o.refs().iter().map(|r| r.id()));
        })?;
        ids.push(id);
        if ids.len() >= limit {
            break;
        }
        for &target in &edges[first_edge..] {
            if included_set.contains(&target) {
                continue;
            }
            if matches!(space.resolve(target), Resolution::Object(_)) {
                included_set.insert(target);
                queue.push_back(target);
            }
        }
    }

    // Remaining queue entries were admitted but not materialized; they are
    // frontier, together with edges out of materialized objects.
    let queued: HashSet<ObjId> = queue.into_iter().collect();
    let mut frontier: Vec<FrontierEdge> = Vec::new();
    let mut frontier_seen: HashSet<ObjId> = HashSet::new();
    for &target in &edges {
        let materialized = included_set.contains(&target) && !queued.contains(&target);
        if materialized || !frontier_seen.insert(target) {
            continue;
        }
        let class = match space.resolve(target) {
            Resolution::Object(_) | Resolution::Busy => space
                .with_object(target, |o, _| o.class_name().to_owned())
                .unwrap_or_default(),
            Resolution::Proxy(p) => p.class,
            Resolution::Absent => continue, // dangling reference: skip
        };
        frontier.push(FrontierEdge { target, class });
    }

    let cluster = if mode.is_cluster() {
        Some(next_cluster())
    } else {
        None
    };

    Ok(Traversal {
        root,
        ids,
        frontier,
        cluster,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo::LinkedItem;
    use crate::objref::ObjRef;
    use obiwan_util::SiteId;

    fn list_space(n: usize) -> (ShardedSpace, Vec<ObjRef>) {
        let space = ShardedSpace::new(SiteId::new(2));
        let mut refs: Vec<ObjRef> = Vec::new();
        let mut next: Option<ObjRef> = None;
        for i in (0..n).rev() {
            let mut item = LinkedItem::new(i as i64, format!("n{i}"));
            if let Some(nx) = next {
                item.set_next(Some(nx));
            }
            let r = space.create(Box::new(item));
            next = Some(r);
            refs.push(r);
        }
        refs.reverse();
        (space, refs)
    }

    fn cid() -> ClusterId {
        ClusterId::new(SiteId::new(2), 1)
    }

    /// The single-root batch: what a plain `get(root, mode)` is served.
    fn build_batch(space: &ShardedSpace, root: ObjId, mode: WireMode) -> Result<ReplicaBatch> {
        build_batch_many(space, &[root], mode, cid)
    }

    #[test]
    fn incremental_batch_takes_exactly_n_with_one_frontier_edge() {
        let (space, refs) = list_space(10);
        let batch = build_batch(&space, refs[0].id(), WireMode::Incremental { batch: 3 })
        .unwrap();
        assert_eq!(batch.replicas.len(), 3);
        assert_eq!(batch.root, refs[0].id());
        assert_eq!(batch.replicas[0].id, refs[0].id());
        assert_eq!(batch.frontier.len(), 1);
        assert_eq!(batch.frontier[0].target, refs[3].id());
        assert_eq!(batch.frontier[0].class, "LinkedItem");
        assert_eq!(batch.cluster, None);
    }

    #[test]
    fn batch_larger_than_graph_has_empty_frontier() {
        let (space, refs) = list_space(4);
        let batch = build_batch(&space, refs[0].id(), WireMode::Incremental { batch: 100 })
        .unwrap();
        assert_eq!(batch.replicas.len(), 4);
        assert!(batch.frontier.is_empty());
    }

    #[test]
    fn transitive_takes_everything() {
        let (space, refs) = list_space(50);
        let batch = build_batch(&space, refs[0].id(), WireMode::Transitive).unwrap();
        assert_eq!(batch.replicas.len(), 50);
        assert!(batch.frontier.is_empty());
    }

    #[test]
    fn cluster_mode_stamps_cluster_id() {
        let (space, refs) = list_space(10);
        let batch = build_batch(&space, refs[0].id(), WireMode::Cluster { size: 4 }).unwrap();
        assert_eq!(batch.replicas.len(), 4);
        assert_eq!(batch.cluster, Some(cid()));
        assert_eq!(batch.frontier.len(), 1);
    }

    #[test]
    fn mid_list_root_serves_the_suffix() {
        let (space, refs) = list_space(10);
        let batch = build_batch(&space, refs[7].id(), WireMode::Incremental { batch: 5 })
        .unwrap();
        // Only 3 objects remain from index 7.
        assert_eq!(batch.replicas.len(), 3);
        assert!(batch.frontier.is_empty());
    }

    #[test]
    fn versions_travel_with_replicas() {
        let (space, refs) = list_space(2);
        assert!(space.update_meta(refs[0].id(), |m| m.version = 9));
        let batch = build_batch(&space, refs[0].id(), WireMode::Incremental { batch: 1 })
        .unwrap();
        assert_eq!(batch.replicas[0].version, 9);
    }

    #[test]
    fn absent_root_is_rejected() {
        let (space, _) = list_space(2);
        let ghost = ObjId::new(SiteId::new(9), 9);
        assert!(matches!(
            build_batch(&space, ghost, WireMode::Transitive),
            Err(ObiError::NoSuchObject(_))
        ));
    }

    #[test]
    fn dangling_references_are_skipped_in_frontier() {
        let space = ShardedSpace::new(SiteId::new(2));
        let ghost = ObjRef::new(ObjId::new(SiteId::new(9), 77));
        let head = space.create(Box::new(LinkedItem::with_next(1, "h", ghost)));
        let batch = build_batch(&space, head.id(), WireMode::Incremental { batch: 1 }).unwrap();
        assert!(batch.frontier.is_empty());
    }

    #[test]
    fn mode_conversions_roundtrip_and_clamp() {
        for m in [
            ReplicationMode::incremental(7),
            ReplicationMode::cluster(3),
            ReplicationMode::transitive(),
        ] {
            assert_eq!(ReplicationMode::from_wire(m.to_wire()), m);
        }
        assert_eq!(ReplicationMode::incremental(0).objects_per_step(), Some(1));
        assert_eq!(ReplicationMode::cluster(0).objects_per_step(), Some(1));
        assert_eq!(
            ReplicationMode::from_wire(WireMode::Incremental { batch: 0 }),
            ReplicationMode::incremental(1)
        );
        assert!(ReplicationMode::cluster(2).is_cluster());
        assert!(!ReplicationMode::default().is_cluster());
    }

    #[test]
    fn multi_root_batch_serves_all_roots_first() {
        let (space, refs) = list_space(10);
        // Three scattered roots, batch 2 each: 6 objects total, roots first.
        let targets = [refs[0].id(), refs[4].id(), refs[8].id()];
        let batch = build_batch_many(
            &space,
            &targets,
            WireMode::Incremental { batch: 2 },
            cid,
        )
        .unwrap();
        assert_eq!(batch.root, refs[0].id());
        assert_eq!(batch.replicas.len(), 6);
        let ids: Vec<ObjId> = batch.replicas.iter().map(|r| r.id).collect();
        assert_eq!(&ids[..3], &targets);
    }

    #[test]
    fn multi_root_batch_merges_overlapping_traversals() {
        let (space, refs) = list_space(6);
        // Adjacent roots: the shared suffix is materialized once.
        let targets = [refs[0].id(), refs[1].id()];
        let batch = build_batch_many(
            &space,
            &targets,
            WireMode::Incremental { batch: 4 },
            cid,
        )
        .unwrap();
        let ids: Vec<ObjId> = batch.replicas.iter().map(|r| r.id).collect();
        let unique: HashSet<ObjId> = ids.iter().copied().collect();
        assert_eq!(ids.len(), unique.len(), "no duplicate replicas");
        assert_eq!(ids.len(), 6, "whole list fits under the scaled limit");
        assert!(batch.frontier.is_empty());
    }

    #[test]
    fn multi_root_skips_dead_targets_and_dedupes() {
        let (space, refs) = list_space(4);
        let ghost = ObjId::new(SiteId::new(9), 9);
        let targets = [ghost, refs[2].id(), refs[2].id()];
        let batch = build_batch_many(
            &space,
            &targets,
            WireMode::Incremental { batch: 1 },
            cid,
        )
        .unwrap();
        // Only one live, deduped root → limit 1.
        assert_eq!(batch.root, refs[2].id());
        assert_eq!(batch.replicas.len(), 1);
    }

    #[test]
    fn multi_root_with_no_live_targets_is_rejected() {
        let (space, _) = list_space(2);
        let ghost = ObjId::new(SiteId::new(9), 9);
        assert!(matches!(
            build_batch_many(&space, &[ghost], WireMode::Transitive, cid),
            Err(ObiError::NoSuchObject(id)) if id == ghost
        ));
        assert!(matches!(
            build_batch_many(&space, &[], WireMode::Transitive, cid),
            Err(ObiError::NoSuchObject(_))
        ));
    }

    #[test]
    fn batch_states_are_views_of_one_buffer_and_match_each_object() {
        let (space, refs) = list_space(5);
        let batch = build_batch(&space, refs[0].id(), WireMode::Incremental { batch: 4 }).unwrap();
        assert_eq!(batch.replicas.len(), 4);
        for (r, pair) in batch.replicas.iter().zip(batch.replicas.windows(2)) {
            let alone = replica_state_of(&space, r.id).unwrap();
            assert_eq!(*r, alone);
            // The next state starts where this one ends.
            assert_eq!(r.state.as_ptr_range().end, pair[1].state.as_ptr());
        }
        let last = batch.replicas.last().unwrap();
        assert_eq!(*last, replica_state_of(&space, last.id).unwrap());
    }

    #[test]
    fn branching_graph_bfs_order() {
        // root -> (a, b); a -> c. BFS with batch 3 = root, a, b; frontier = c.
        let space = ShardedSpace::new(SiteId::new(2));
        let c = space.create(Box::new(LinkedItem::new(3, "c")));
        let a = space.create(Box::new(LinkedItem::with_next(1, "a", c)));
        let b = space.create(Box::new(LinkedItem::new(2, "b")));
        let mut root_item = LinkedItem::new(0, "root");
        root_item.set_next(Some(a));
        root_item.set_extra(vec![b]);
        let root = space.create(Box::new(root_item));
        let batch = build_batch(&space, root.id(), WireMode::Incremental { batch: 3 }).unwrap();
        let ids: Vec<ObjId> = batch.replicas.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![root.id(), a.id(), b.id()]);
        assert_eq!(batch.frontier.len(), 1);
        assert_eq!(batch.frontier[0].target, c.id());
    }
}

/// The serve path's writer pinned to the encoder: every frame
/// [`write_batch_many`] writes is what `Message::encode` makes of the batch
/// [`build_batch_many`] collects, cut into `per_chunk`-replica chunks.
#[cfg(test)]
mod frames {
    use super::*;
    use crate::demo::LinkedItem;
    use crate::objref::ObjRef;
    use crate::proxy::ProxyOut;
    use crate::space::ObjectEntry;
    use bytes::Bytes;
    use obiwan_util::{RequestId, SiteId};
    use obiwan_wire::Message;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// The largest site id: the provider's, so every id in a header is wide.
    const SITE: SiteId = SiteId::new(u32::MAX);

    /// State lengths on either side of the two- and three-byte length
    /// prefixes (and one small one).
    const STATE_LENS: [usize; 5] = [3, 127, 128, 16_383, 16_384];

    /// Where a generated reference points: the `i`th object (modulo their
    /// number, so back edges make cycles), a proxy-out, or nothing.
    #[derive(Debug, Clone, Copy)]
    enum Edge {
        Object(usize),
        Proxy(u64),
        Dangling(u64),
    }

    fn edge() -> impl Strategy<Value = Edge> {
        prop_oneof![
            (0usize..12).prop_map(Edge::Object),
            (0usize..12).prop_map(Edge::Object),
            (0usize..12).prop_map(Edge::Object),
            (0u64..3).prop_map(Edge::Proxy),
            (0u64..3).prop_map(Edge::Dangling),
        ]
    }

    fn mode() -> impl Strategy<Value = WireMode> {
        prop_oneof![
            (1u32..12).prop_map(|batch| WireMode::Incremental { batch }),
            (1u32..6).prop_map(|size| WireMode::Cluster { size }),
            Just(WireMode::Transitive),
        ]
    }

    /// One generated object: its `next` edge, its extra edges and an index
    /// into [`STATE_LENS`].
    type Node = ((bool, Edge), Vec<Edge>, usize);

    fn id_of(edge: Edge, objects: usize) -> ObjId {
        match edge {
            Edge::Object(i) => ObjId::new(SITE, u64::MAX - (i % objects) as u64),
            Edge::Proxy(j) => ObjId::new(SiteId::new(7), 100 + j),
            Edge::Dangling(j) => ObjId::new(SiteId::new(9), 200 + j),
        }
    }

    fn state_len(item: &LinkedItem) -> usize {
        let mut enc = Encoder::new();
        item.encode_state(&mut enc);
        enc.len()
    }

    /// A `LinkedItem` whose state is `len` bytes, when a label length
    /// lands on it exactly (every length in [`STATE_LENS`] but the small
    /// one), or has the empty label.
    fn item(value: i64, len: usize, next: Option<ObjRef>, extra: Vec<ObjRef>) -> LinkedItem {
        let build = |label: usize| {
            let mut item = LinkedItem::new(value, "x".repeat(label));
            item.set_next(next);
            item.set_extra(extra.clone());
            item
        };
        // The empty label's state, less the label's one-byte length prefix.
        let base = state_len(&build(0)) - 1;
        (1..=3)
            .map(|prefix| build(len.saturating_sub(base + prefix)))
            .find(|item| state_len(item) == len)
            .unwrap_or_else(|| build(0))
    }

    /// Objects with the widest ids and versions, three proxy-outs, and the
    /// references `nodes` describes.
    fn space_of(nodes: &[Node]) -> ShardedSpace {
        let space = ShardedSpace::new(SITE);
        for j in 0..3 {
            let target = id_of(Edge::Proxy(j), 1);
            space.insert_proxy(ProxyOut::new(target, "Remote", SiteId::new(7), WireMode::Transitive));
        }
        let at = |edge| ObjRef::new(id_of(edge, nodes.len()));
        for (i, ((has_next, next), extra, len)) in nodes.iter().enumerate() {
            let len = STATE_LENS[*len];
            let object = item(i as i64, len, has_next.then(|| at(*next)), extra.iter().map(|&e| at(e)).collect());
            assert!(len < 100 || state_len(&object) == len, "no label gives a {len}-byte state");
            let mut meta = ObjectMeta::master(id_of(Edge::Object(i), nodes.len()));
            meta.version = u64::MAX - i as u64;
            space.insert_object(ObjectEntry {
                object: Box::new(object),
                meta,
            });
        }
        space
    }

    /// The reference frames: the collected batch cut into
    /// `per_chunk`-replica chunks (at least one), the frontier on the last
    /// and the cluster id on all, each encoded as a message.
    fn sliced(batch: &ReplicaBatch, per_chunk: usize, request: RequestId) -> Vec<Bytes> {
        let total = batch.replicas.len().div_ceil(per_chunk).max(1);
        (0..total)
            .map(|i| {
                let last = i + 1 == total;
                let replicas = batch.replicas.iter().skip(i * per_chunk).take(per_chunk);
                Message::GetManyChunk {
                    request,
                    chunk_index: i as u32,
                    total_hint: total as u32,
                    batch: ReplicaBatch {
                        root: batch.root,
                        replicas: replicas.cloned().collect(),
                        frontier: if last { batch.frontier.clone() } else { Vec::new() },
                        cluster: batch.cluster,
                    },
                }
                .encode()
            })
            .collect()
    }

    /// Writes the batch `roots` demand of the graph `nodes` describe at
    /// every chunk size from 1 to 9 and in one frame, and holds each frame
    /// to the collected batch, encoded.
    fn assert_frames_match(nodes: &[Node], roots: &[Edge], mode: WireMode, seq: u64) {
        let space = space_of(nodes);
        let targets: Vec<ObjId> = roots.iter().map(|&e| id_of(e, nodes.len())).collect();
        let request = RequestId::new(SITE, seq);
        let cid = || ClusterId::new(SITE, u64::MAX);
        let write = |per_chunk| write_batch_many(&space, &targets, mode, cid, per_chunk);
        let oracle = match (build_batch_many(&space, &targets, mode, cid), write(1)) {
            (Ok(oracle), Ok(_)) => oracle,
            (Err(collected), Err(written)) => return assert_eq!(collected, written),
            (collected, written) => panic!("the collectors disagree: {collected:?} / {written:?}"),
        };
        let exported = match oracle.cluster {
            Some(_) => vec![oracle.root],
            None => oracle.replicas.iter().map(|r| r.id).collect(),
        };
        let state_bytes: usize = oracle.replicas.iter().map(|r| r.state.len()).sum();
        let resumed = 1 + (seq % 9) as usize;
        for per_chunk in 1..=9 {
            let (written, ids) = write(per_chunk).unwrap();
            assert_eq!(ids, exported);
            assert_eq!(written.state_bytes(), state_bytes);
            let want = sliced(&oracle, per_chunk, request);
            assert_eq!(written.chunk_count() as usize, want.len());
            let got: Vec<Bytes> = written.into_chunks(request, 0).collect();
            assert_eq!(got, want, "{per_chunk} per chunk");
            if per_chunk == resumed {
                let from = (seq % (want.len() as u64 + 2)) as u32;
                let (written, _) = write(per_chunk).unwrap();
                let got: Vec<Bytes> = written.into_chunks(request, from).collect();
                assert_eq!(got, want[want.len().min(from as usize)..], "resumed at {from}");
            }
            // No replica at all: one empty chunk, carrying the frontier.
            let empty = ReplicaBatch { replicas: Vec::new(), ..oracle.clone() };
            let written = BatchWriter::new(per_chunk).finish(empty.root, &empty.frontier, empty.cluster);
            let got: Vec<Bytes> = written.into_chunks(request, 0).collect();
            assert_eq!(got, sliced(&empty, per_chunk, request));
        }
        let (one, _) = write(usize::MAX).unwrap();
        let get = Message::GetReply { request, result: Ok(oracle.clone()) };
        assert_eq!(one.into_reply(request, false), get.encode());
        let (one, _) = write(usize::MAX).unwrap();
        let get_many = Message::GetManyReply { request, result: Ok(oracle) };
        assert_eq!(one.into_reply(request, true), get_many.encode());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn every_frame_written_is_the_collected_batch_encoded(
            nodes in vec(((any::<bool>(), edge()), vec(edge(), 0..3), 0usize..5), 1..12),
            roots in vec(edge(), 0..4),
            mode in mode(),
            seq in prop_oneof![Just(u64::MAX), any::<u64>()],
        ) {
            assert_frames_match(&nodes, &roots, mode, seq);
        }
    }
}
