//! The batched demand pipeline versus demand-by-demand faulting.
//!
//! Asserts the headline property of the pipeline as *counts*: walking a
//! 64-object list after `prefetch_batched(batch = 8)` costs at least 4×
//! fewer network round-trips than faulting every node on demand, and a wide
//! fan-out demands all of its frontier in one `GetMany`.

use obiwan::core::demo::LinkedItem;
use obiwan::core::{ObiWorld, ObjRef, ReplicationMode};
use obiwan_bench::payload_list;

const LIST: usize = 64;
const SIZE: usize = 64;
const BATCH: usize = 8;

/// Round-trips spent replicating and walking the whole list on demand.
fn round_trips_demand() -> u64 {
    let w = payload_list(ObiWorld::paper_testbed(), LIST, SIZE);
    let site = w.site();
    let before = site.metrics().snapshot();
    let root = site.get(&w.head, ReplicationMode::incremental(1)).unwrap();
    w.walk(root).for_each(drop);
    site.metrics().snapshot().since(&before).demand_round_trips
}

/// Round-trips spent with the batched pipeline: one demand for the head,
/// then `prefetch_batched` pulling `BATCH` objects per `GetMany`.
fn round_trips_batched() -> u64 {
    let w = payload_list(ObiWorld::paper_testbed(), LIST, SIZE);
    let site = w.site();
    let before = site.metrics().snapshot();
    let root = site.get(&w.head, ReplicationMode::incremental(1)).unwrap();
    site.prefetch_batched(root, LIST, BATCH).unwrap();
    w.walk(root).for_each(drop);
    site.metrics().snapshot().since(&before).demand_round_trips
}

#[test]
fn batched_walk_takes_at_least_4x_fewer_round_trips() {
    let demand = round_trips_demand();
    let batched = round_trips_batched();
    assert!(demand >= LIST as u64, "demand walk took {demand} RTs");
    assert!(
        batched * 4 <= demand,
        "batched pipeline took {batched} RTs vs {demand} on demand — \
         less than the required 4x reduction"
    );
}

/// A root with `fan` children on the provider: the whole frontier must be
/// demanded in ONE `GetMany` round-trip instead of `fan`.
#[test]
fn wide_fanout_is_one_round_trip() {
    let fan = 8usize;
    let mut world = ObiWorld::paper_testbed();
    let consumer = world.add_site("S1");
    let provider = world.add_site("S2");
    let children: Vec<ObjRef> = (0..fan)
        .map(|i| world.site(provider).create(LinkedItem::new(i as i64, "c")))
        .collect();
    let root = {
        let mut item = LinkedItem::new(0, "root");
        item.set_extra(children);
        world.site(provider).create(item)
    };
    world.site(provider).export(root, "root").unwrap();
    let remote = world.site(consumer).lookup("root").unwrap();
    let root = world
        .site(consumer)
        .get(&remote, ReplicationMode::incremental(1))
        .unwrap();
    let before = world.site(consumer).metrics().snapshot();
    let fetched = world
        .site(consumer)
        .prefetch_batched(root, fan, fan)
        .unwrap();
    let spent = world
        .site(consumer)
        .metrics()
        .snapshot()
        .since(&before)
        .demand_round_trips;
    assert_eq!(fetched, fan, "prefetch fetched {fetched} of {fan}");
    assert_eq!(spent, 1, "{fan}-wide frontier took {spent} round-trips");
}
