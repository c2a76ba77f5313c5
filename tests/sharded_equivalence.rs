//! Observational equivalence of the striped production table and a flat
//! single-map reference.
//!
//! [`ShardedSpace`] spreads the object table over 1–16 independently
//! locked stripes; nothing about striping may leak into behavior.
//! [`FlatSpace`] (`tests/flat_space/`) is the table the product ran before
//! it was striped: one `HashMap`, `&mut self`, sharing the slot types with
//! `shards.rs` and none of its code. This property test drives both
//! through arbitrary operation sequences — creates, replica and proxy
//! inserts, touches, removals, root edits, metadata updates, busy-slot
//! round trips, GC, and LRU eviction — and demands identical observations
//! at every step and identical final state: every id's resolution,
//! metadata, class and serialized state.

mod flat_space;

use flat_space::FlatSpace;
use obiwan::core::demo::Counter;
use obiwan::core::proxy::ProxyOut;
use obiwan::core::space::{ObjectEntry, ObjectMeta};
use obiwan::core::{ObiObject, ShardedSpace};
use obiwan::util::{ClusterId, ObjId, SiteId};
use obiwan::wire::WireMode;
use proptest::prelude::*;

const SITE: SiteId = SiteId::new(1);
const REMOTE: SiteId = SiteId::new(9);
/// Ids the ops range over: locals the spaces allocate themselves plus
/// remote ids introduced by proxy/replica inserts.
const IDS: u64 = 12;

/// One step applied identically to both tables.
#[derive(Debug, Clone)]
enum Op {
    /// Create a fresh master (both spaces allocate the same id).
    Create(i64),
    /// Insert a proxy-out for a remote id.
    InsertProxy(u64),
    /// Materialize a replica over a remote id (swizzles any proxy).
    InsertReplica(u64, i64),
    /// Freshen an id against LRU eviction.
    Touch(u64),
    /// Drop a slot.
    Remove(u64),
    AddRoot(u64),
    RemoveRoot(u64),
    /// Flip metadata through each table's mutation path.
    MarkDirty(u64),
    /// Tag a replica as a cluster member.
    JoinCluster(u64),
    /// Take a live object out (Busy slot) and put it straight back.
    TakeRestore(u64),
    /// Garbage-collect, optionally reclaiming clean replicas.
    Gc(bool),
    /// Evict clean replicas down to a byte budget.
    Evict(usize),
}

/// Index `k` → an id from the universe: even picks a local id, odd a
/// remote one, so every op class can hit both kinds.
fn pick(k: u64) -> ObjId {
    if k.is_multiple_of(2) {
        ObjId::new(SITE, k / 2 % IDS + 1)
    } else {
        ObjId::new(REMOTE, k / 2 % IDS + 1)
    }
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0i64..100).prop_map(Op::Create),
        (0u64..IDS).prop_map(Op::InsertProxy),
        ((0u64..IDS), 0i64..100).prop_map(|(k, v)| Op::InsertReplica(k, v)),
        (0u64..24).prop_map(Op::Touch),
        (0u64..24).prop_map(Op::Remove),
        (0u64..24).prop_map(Op::AddRoot),
        (0u64..24).prop_map(Op::RemoveRoot),
        (0u64..24).prop_map(Op::MarkDirty),
        (0u64..24).prop_map(Op::JoinCluster),
        (0u64..24).prop_map(Op::TakeRestore),
        proptest::bool::ANY.prop_map(Op::Gc),
        (0usize..2048).prop_map(Op::Evict),
    ]
}

fn remote_id(k: u64) -> ObjId {
    ObjId::new(REMOTE, k + 1)
}

fn proxy_for(k: u64) -> ProxyOut {
    ProxyOut::new(
        remote_id(k),
        "Counter",
        REMOTE,
        WireMode::Incremental { batch: 4 },
    )
}

fn replica_entry(k: u64, v: i64) -> ObjectEntry {
    ObjectEntry {
        object: Box::new(Counter::new(v)),
        meta: ObjectMeta::replica(remote_id(k), REMOTE, 1),
    }
}

/// Applies one op to both tables, asserting their immediate observations
/// agree.
fn apply(sharded: &ShardedSpace, flat: &mut FlatSpace, op: &Op) {
    match op {
        Op::Create(v) => {
            let a = sharded.create(Box::new(Counter::new(*v)));
            let b = flat.create(Box::new(Counter::new(*v)));
            prop_assert_eq_ids(a.id(), b.id());
        }
        Op::InsertProxy(k) => {
            sharded.insert_proxy(proxy_for(*k));
            flat.insert_proxy(proxy_for(*k));
        }
        Op::InsertReplica(k, v) => {
            sharded.insert_object(replica_entry(*k, *v));
            flat.insert_object(replica_entry(*k, *v));
        }
        Op::Touch(k) => {
            sharded.touch(pick(*k));
            flat.touch(pick(*k));
        }
        Op::Remove(k) => {
            assert_eq!(sharded.remove(pick(*k)), flat.remove(pick(*k)));
        }
        Op::AddRoot(k) => {
            sharded.add_root(pick(*k));
            flat.add_root(pick(*k));
        }
        Op::RemoveRoot(k) => {
            sharded.remove_root(pick(*k));
            flat.remove_root(pick(*k));
        }
        Op::MarkDirty(k) => {
            let id = pick(*k);
            let a = sharded.update_meta(id, |m| m.dirty = true);
            let b = match flat.meta_mut(id) {
                Some(m) => {
                    m.dirty = true;
                    true
                }
                None => false,
            };
            assert_eq!(a, b, "update_meta on {id}");
        }
        Op::JoinCluster(k) => {
            let id = pick(*k);
            let cluster = ClusterId::new(REMOTE, 1);
            let a = sharded.update_meta(id, |m| m.cluster = Some(cluster));
            let b = match flat.meta_mut(id) {
                Some(m) => {
                    m.cluster = Some(cluster);
                    true
                }
                None => false,
            };
            assert_eq!(a, b);
        }
        Op::TakeRestore(k) => {
            let id = pick(*k);
            let a = sharded.take_object(id);
            let b = flat.take_object(id);
            match (a, b) {
                (Ok(ea), Ok(eb)) => {
                    assert_eq!(ea.meta, eb.meta);
                    assert_eq!(ea.object.class_name(), eb.object.class_name());
                    assert_eq!(ea.object.state(), eb.object.state());
                    sharded.restore_object(ea);
                    flat.restore_object(eb);
                }
                (Err(ea), Err(eb)) => assert_eq!(ea.to_string(), eb.to_string()),
                (a, b) => panic!("take_object diverged on {id}: {a:?} vs {b:?}"),
            }
        }
        Op::Gc(replicas) => {
            assert_eq!(
                sharded.collect_garbage(*replicas),
                flat.collect_garbage(*replicas)
            );
        }
        Op::Evict(budget) => {
            let protect = [pick(0), pick(1)];
            assert_eq!(
                sharded.evict_replicas_to(*budget, &protect),
                flat.evict_replicas_to(*budget, &protect)
            );
        }
    }
}

fn prop_assert_eq_ids(a: ObjId, b: ObjId) {
    assert_eq!(a, b, "the tables must allocate identical ids");
}

/// Every observation the rest of the platform can make of a table.
fn assert_same_state(sharded: &ShardedSpace, flat: &FlatSpace) {
    assert_eq!(sharded.site(), flat.site());
    assert_eq!(sharded.len(), flat.len());
    assert_eq!(sharded.is_empty(), flat.is_empty());
    assert_eq!(sharded.proxy_count(), flat.proxy_count());
    assert_eq!(sharded.replica_bytes(), flat.replica_bytes());

    let mut a_objects = sharded.object_ids();
    let mut b_objects = flat.object_ids();
    a_objects.sort_unstable();
    b_objects.sort_unstable();
    assert_eq!(a_objects, b_objects);

    let mut a_proxies = sharded.proxy_ids();
    let mut b_proxies = flat.proxy_ids();
    a_proxies.sort_unstable();
    b_proxies.sort_unstable();
    assert_eq!(a_proxies, b_proxies);

    for k in 0..IDS * 2 {
        let id = pick(k);
        assert_eq!(sharded.resolve(id), flat.resolve(id), "resolve({id})");
        assert_eq!(
            sharded.meta(id),
            flat.meta(id).cloned(),
            "meta({id})"
        );
        assert_eq!(sharded.is_root(id), flat.is_root(id), "is_root({id})");
        // What each table hands a reader of the object itself.
        let seen = |o: &dyn ObiObject, m: &ObjectMeta| {
            (o.class_name().to_owned(), o.state(), o.refs(), m.clone())
        };
        match (sharded.with_object(id, seen), flat.with_object(id, seen)) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "with_object({id})"),
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
            (a, b) => panic!("with_object({id}) diverged: {a:?} vs {b:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sharded_space_is_observationally_equivalent(
        shards in 1usize..=16,
        ops in proptest::collection::vec(arb_op(), 1..50),
    ) {
        let sharded = ShardedSpace::with_shards(SITE, shards);
        let mut flat = FlatSpace::new(SITE);
        for op in &ops {
            apply(&sharded, &mut flat, op);
        }
        assert_same_state(&sharded, &flat);
    }
}
