//! Property-based tests over the replication machinery.
//!
//! Invariants checked for arbitrary list lengths, object sizes and step
//! sizes:
//!
//! * walking a list replicates every node exactly once, whatever the mode;
//! * the fault count follows the batch arithmetic;
//! * the replicated subgraph is *closed*: every reference held by a live
//!   replica resolves to a live object or a proxy-out, never to nothing;
//! * virtual-time runs are deterministic;
//! * cluster mode creates exactly `ceil(n/k)` proxy pairs, incremental mode
//!   exactly `n`.

use obiwan::core::space::Resolution;
use obiwan::core::{ObiValue, ObiWorld, ObjRef, ReplicationMode};
use obiwan_bench::{payload_list, ListWorkload};
use proptest::prelude::*;

/// Replicates the head in `mode` and walks the whole list; returns the
/// number of nodes touched.
fn walk(rig: &ListWorkload, mode: ReplicationMode) -> usize {
    rig.walk(rig.site().get(&rig.head, mode).unwrap()).count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn walk_replicates_every_node_exactly_once(
        n in 1usize..60,
        step in 1usize..70,
        cluster in proptest::bool::ANY,
        size in prop_oneof![Just(16usize), Just(256), Just(2048)],
    ) {
        let mode = if cluster {
            ReplicationMode::cluster(step)
        } else {
            ReplicationMode::incremental(step)
        };
        let rig = payload_list(ObiWorld::paper_testbed(), n, size);
        let visited = walk(&rig, mode);
        prop_assert_eq!(visited, n);
        let m = rig.site().metrics().snapshot();
        prop_assert_eq!(m.replicas_created as usize, n);
        for node in &rig.nodes {
            prop_assert!(rig.site().is_replicated(*node));
        }
        // No dangling frontier after a full walk.
        prop_assert_eq!(rig.site().proxy_count(), 0);
    }

    #[test]
    fn fault_count_follows_batch_arithmetic(
        n in 1usize..80,
        step in 1usize..12,
    ) {
        let rig = payload_list(ObiWorld::paper_testbed(), n, 16);
        walk(&rig, ReplicationMode::incremental(step));
        let faults = rig.site().metrics().snapshot().object_faults as usize;
        // Initial get covers `step`; each fault covers another `step`.
        let expected = n.saturating_sub(step).div_ceil(step);
        prop_assert_eq!(faults, expected);
    }

    #[test]
    fn proxy_pair_counts_match_mode(
        n in 1usize..50,
        step in 1usize..10,
    ) {
        // Incremental: one pair per object.
        let rig = payload_list(ObiWorld::paper_testbed(), n, 16);
        walk(&rig, ReplicationMode::incremental(step));
        let pairs = rig.site().metrics().snapshot().proxy_pairs_created as usize;
        prop_assert_eq!(pairs, n);

        // Cluster: one pair per batch.
        let rig = payload_list(ObiWorld::paper_testbed(), n, 16);
        walk(&rig, ReplicationMode::cluster(step));
        let pairs = rig.site().metrics().snapshot().proxy_pairs_created as usize;
        prop_assert_eq!(pairs, n.div_ceil(step));
    }

    #[test]
    fn partially_replicated_graph_is_closed(
        n in 2usize..40,
        step in 1usize..6,
        hops in 0usize..40,
    ) {
        let rig = payload_list(ObiWorld::paper_testbed(), n, 16);
        let site = rig.site();
        let root = site.get(&rig.head, ReplicationMode::incremental(step)).unwrap();
        rig.walk(root).take(hops.min(n - 1)).for_each(drop);
        // Closure invariant: every edge out of a live replica resolves.
        for node in &rig.nodes {
            if rig.site().is_replicated(*node) {
                let state = rig.site().state_of(*node).unwrap();
                let mut refs = Vec::new();
                state.collect_refs(&mut refs);
                for target in refs {
                    let res = rig.site().resolution(ObjRef::new(target));
                    prop_assert!(
                        matches!(res, Resolution::Object(_) | Resolution::Proxy(_)),
                        "edge to {target} dangles: {res:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn virtual_time_is_deterministic(
        n in 1usize..30,
        step in 1usize..5,
    ) {
        let run = || {
            let rig = payload_list(ObiWorld::paper_testbed(), n, 64);
            walk(&rig, ReplicationMode::incremental(step));
            rig.world.clock().virtual_nanos()
        };
        prop_assert_eq!(run(), run());
    }

    #[test]
    fn put_after_walk_roundtrips_arbitrary_values(
        n in 1usize..20,
        value in any::<i64>(),
    ) {
        let rig = payload_list(ObiWorld::paper_testbed(), n, 16);
        let site = rig.site();
        let root = site.get(&rig.head, ReplicationMode::transitive()).unwrap();
        site.invoke(root, "set_index", ObiValue::I64(value)).unwrap();
        site.put(root).unwrap();
        // Read the master back through RMI.
        let v = site.invoke_rmi(&rig.head, "index", ObiValue::Null).unwrap();
        prop_assert_eq!(v, ObiValue::I64(value));
    }
}
