//! Provider-side replication: building replica batches (paper §2.2, §4.3).

use crate::shards::ShardedSpace;
use crate::space::Resolution;
use obiwan_util::{ClusterId, ObiError, ObjId, Result};
use obiwan_wire::{Encoder, FrontierEdge, ReplicaBatch, ReplicaState, WireMode};
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
/// (a `get` reply, a `put`, a pushed update, a handoff, a logged delta all
/// carry what this returns).
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
/// Each included object is read once, under one shard guard: its refs,
/// class, version and encoded state together. The states of a batch lie
/// end to end in one buffer, and each [`ReplicaState`] holds a view of its
/// own part of it.
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

    // Per included object, in BFS order: id, class, version and where its
    // state ends in `states`. Its out-edges go on the end of `edges`.
    let mut included: Vec<(ObjId, &'static str, u64, usize)> = Vec::new();
    let mut states = Encoder::with_capacity(4096);
    let mut edges: Vec<ObjId> = Vec::new();
    let mut queue: VecDeque<ObjId> = live.into_iter().collect();

    // BFS over objects this site can actually provide.
    while let Some(id) = queue.pop_front() {
        let first_edge = edges.len();
        let (class, version) = space.with_object(id, |o, m| {
            o.encode_state(&mut states);
            edges.extend(o.refs().iter().map(|r| r.id()));
            (o.class_name(), m.version)
        })?;
        included.push((id, class, version, states.len()));
        if included.len() >= limit {
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

    let states = states.finish();
    let mut start = 0;
    let replicas = included
        .into_iter()
        .map(|(id, class, version, end)| {
            let state = states.slice(start..end);
            start = end;
            ReplicaState {
                id,
                class: class.to_owned(),
                version,
                state,
            }
        })
        .collect();

    let cluster = if mode.is_cluster() {
        Some(next_cluster())
    } else {
        None
    };

    Ok(ReplicaBatch {
        root,
        replicas,
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
