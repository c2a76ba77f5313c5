//! Acceptance tests for the fault-tolerance layer (PR: reply-cache
//! exactly-once retries, deadlines + jittered backoff, circuit breaking).
//!
//! * Under 20% injected loss **with duplication**, a mixed
//!   `get`/`put`/`get_many` workload completes and every mutation is
//!   applied exactly once (master versions advance by exactly one per
//!   acknowledged put — a double execution would overshoot).
//! * Calls to a partitioned peer fail fast (far below the deadline
//!   budget) through the open circuit breaker, degrade to stale replicas,
//!   and recover after the link heals and the cooldown admits a probe.
//! * `get_many` demand under loss installs each batch exactly once, with
//!   replica versions monotone across refreshes.
//! * A put whose reply was lost is applied once when its origin replays
//!   it, however many other replies and puts (its own, another origin's)
//!   pass through the master meanwhile, and across a handoff of the
//!   object: the master object records the latest put each origin applied
//!   to it, and the handoff carries the record.
//! * Those records stay bounded: an origin's entries go once its horizon
//!   covers them, or when it leaves.

use obiwan::core::demo::{Counter, LinkedItem};
use obiwan::core::{
    BreakerState, Freshness, ObiValue, ObiWorld, ObjRef, ReplicationMode, RetryPolicy,
};
use obiwan::net::LinkModel;
use obiwan::rmi::fault::{ANNOUNCE_EVERY, BREAKER_COOLDOWN, BREAKER_THRESHOLD};
use obiwan::rmi::ReplyCache;
use obiwan::store::{Durable, DurableOptions, MemStorage};
use obiwan::util::SiteId;
use std::sync::Arc;
use std::time::Duration;

fn set_link(world: &ObiWorld, a: SiteId, b: SiteId, model: LinkModel) {
    world
        .transport()
        .with_topology_mut(|t| t.set_link_symmetric(a, b, model));
}

/// Provider-side fixture: `n` chained list nodes (head exported) plus a
/// set of exported counters.
fn export_graph(world: &ObiWorld, p: SiteId, n: usize, counters: usize) -> (Vec<ObjRef>, Vec<ObjRef>) {
    let mut nodes = Vec::new();
    let mut next = None;
    for i in (0..n).rev() {
        let mut item = LinkedItem::new(i as i64, format!("n{i}"));
        item.set_next(next);
        let r = world.site(p).create(item);
        next = Some(r);
        nodes.push(r);
    }
    nodes.reverse();
    world.site(p).export(nodes[0], "head").unwrap();
    let ctrs: Vec<ObjRef> = (0..counters)
        .map(|i| {
            let r = world.site(p).create(Counter::new(0));
            world.site(p).export(r, &format!("ctr{i}")).unwrap();
            r
        })
        .collect();
    (nodes, ctrs)
}

#[test]
fn mixed_workload_under_loss_and_duplication_is_exactly_once() {
    let mut world = ObiWorld::loopback();
    let c = world.add_site("mobile");
    let p = world.add_site("provider");
    world.transport().reseed(42);
    let (nodes, ctrs) = export_graph(&world, p, 6, 3);
    // 20% loss AND 30% duplication on the workload link: every request
    // kind must survive retransmission and duplicated delivery.
    set_link(
        &world,
        c,
        p,
        LinkModel::ideal().with_loss(0.2).with_duplicate(0.3),
    );
    world.site(c).set_rpc_policy(RetryPolicy {
        max_retries: 25,
        ..RetryPolicy::default()
    });

    // get: replicate every counter.
    let mut locals = Vec::new();
    for i in 0..ctrs.len() {
        let remote = world.site(c).lookup(&format!("ctr{i}")).unwrap();
        locals.push(
            world
                .site(c)
                .get(&remote, ReplicationMode::incremental(1))
                .unwrap(),
        );
    }
    // put: five mutation rounds per counter. The version returned by each
    // put must be exactly `1 + round`: a put lost before the master would
    // fail, a put applied twice (duplicated frame or blind retry) would
    // bump the master version twice and overshoot.
    const ROUNDS: u64 = 5;
    for round in 1..=ROUNDS {
        for &r in &locals {
            world.site(c).invoke(r, "incr", ObiValue::Null).unwrap();
            let version = world.site(c).put(r).unwrap();
            assert_eq!(version, 1 + round, "put must apply exactly once");
        }
    }
    // get_many: batched demand of the list through the same faulty link.
    let head_remote = world.site(c).lookup("head").unwrap();
    let head = world
        .site(c)
        .get(&head_remote, ReplicationMode::incremental(1))
        .unwrap();
    let fetched = world.site(c).prefetch_batched(head, 6, 3).unwrap();
    assert_eq!(fetched, nodes.len() - 1, "whole chain materializes");
    for &n in &nodes {
        assert!(world.site(c).is_replicated(n));
    }

    // Every mutation exactly once at the master: value 5, version 6.
    for &m in &ctrs {
        let v = world.site(p).invoke(m, "read", ObiValue::Null).unwrap();
        assert_eq!(v, ObiValue::I64(ROUNDS as i64));
        assert_eq!(world.site(p).meta_of(m).unwrap().version, 1 + ROUNDS);
    }
    // The link really was hostile: retries happened, and at least one
    // retransmission was answered from the provider's reply cache.
    assert!(world.site(c).metrics().snapshot().rpc_retries > 0);
    assert!(world.site(p).metrics().snapshot().cached_replies > 0);
    obiwan::util::sync::assert_no_lock_order_violations();
    obiwan::util::sync::assert_observed_edges_in_static_graph();
}

#[test]
fn partitioned_peer_fails_fast_via_open_breaker_then_recovers() {
    let mut world = ObiWorld::loopback();
    let c = world.add_site("mobile");
    let p = world.add_site("provider");
    world.transport().reseed(7);
    let (_, ctrs) = export_graph(&world, p, 2, 1);
    let remote = world.site(c).lookup("ctr0").unwrap();
    let local = world
        .site(c)
        .get(&remote, ReplicationMode::incremental(1))
        .unwrap();

    // Partition: the peer is up but no frame survives the link. Each call
    // burns its whole retry budget, then fails.
    set_link(&world, c, p, LinkModel::ideal().with_loss(1.0));
    let deadline_budget = Duration::from_millis(200);
    world.site(c).set_rpc_policy(RetryPolicy {
        max_retries: 3,
        call_budget: deadline_budget,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(10),
    });
    let threshold = BREAKER_THRESHOLD;
    for _ in 0..threshold {
        assert!(world.site(c).ping(p).is_err());
    }
    assert_eq!(world.site(c).breaker_state(p), BreakerState::Open);

    // Open breaker: the failure is immediate — zero virtual time, far
    // below the deadline budget — and no frame is sent.
    let t0 = world.site(c).clock().elapsed();
    let err = world.site(c).ping(p).unwrap_err();
    assert!(err.is_connectivity());
    let spent = world.site(c).clock().elapsed() - t0;
    assert!(
        spent < deadline_budget,
        "fast-fail took {spent:?}, deadline was {deadline_budget:?}"
    );
    assert_eq!(spent, Duration::ZERO);
    assert!(world.site(c).metrics().snapshot().breaker_fast_fails > 0);

    // Degraded mode: the stale replica keeps serving reads.
    assert_eq!(
        world.site(c).refresh_or_stale(local).unwrap(),
        Freshness::Stale
    );
    assert_eq!(
        world.site(c).invoke(local, "read", ObiValue::Null).unwrap(),
        ObiValue::I64(0)
    );

    // Heal + cooldown: the half-open probe closes the breaker and fresh
    // traffic flows again.
    set_link(&world, c, p, LinkModel::ideal());
    world.site(c).clock().charge(BREAKER_COOLDOWN);
    assert_eq!(world.site(c).breaker_state(p), BreakerState::HalfOpen);
    world.site(c).ping(p).unwrap();
    assert_eq!(world.site(c).breaker_state(p), BreakerState::Closed);
    assert_eq!(
        world.site(c).refresh_or_stale(local).unwrap(),
        Freshness::Fresh
    );
    world.site(c).invoke(local, "incr", ObiValue::Null).unwrap();
    assert_eq!(world.site(c).put(local).unwrap(), 2);
    let _ = ctrs;
    obiwan::util::sync::assert_no_lock_order_violations();
    obiwan::util::sync::assert_observed_edges_in_static_graph();
}

#[test]
fn streamed_demand_under_chunk_loss_reassembles_exactly_once() {
    let mut world = ObiWorld::loopback();
    let c = world.add_site("mobile");
    let p = world.add_site("provider");
    world.transport().reseed(29);
    let (nodes, _) = export_graph(&world, p, 40, 0);
    // 10% of reply *chunks* vanish mid-stream (requests and one-shot
    // replies are untouched): every resume must re-fetch only the missing
    // suffix of the same request id, and reassembly must install each
    // object exactly once.
    set_link(&world, c, p, LinkModel::ideal().with_chunk_loss(0.1));
    world.site(c).set_rpc_policy(RetryPolicy {
        max_retries: 30,
        ..RetryPolicy::default()
    });

    let head_remote = world.site(c).lookup("head").unwrap();
    // Batch 10 exceeds the 8-object chunk size, so every walk fault
    // streams its batch: chunk 0 lands inline, the tail chunk parks and is
    // pumped at the head of the next invoke.
    let mut cur = world
        .site(c)
        .get(&head_remote, ReplicationMode::incremental(10))
        .unwrap();
    let mut visited = 0;
    loop {
        let out = world.site(c).invoke(cur, "touch", ObiValue::Null).unwrap();
        visited += 1;
        match out.as_ref_id() {
            Some(next) => cur = ObjRef::new(next),
            None => break,
        }
    }
    assert_eq!(visited, nodes.len());
    world.site(c).pump_pending_chunks();

    // Exactly-once install: live at the master version, clean, values
    // intact. A chunk applied twice would skew versions; a lost chunk
    // never resumed would leave a proxy and fail the walk above.
    for (i, &n) in nodes.iter().enumerate() {
        assert!(world.site(c).is_replicated(n), "node {i} missing");
        let meta = world.site(c).meta_of(n).unwrap();
        assert_eq!(
            meta.version,
            world.site(p).meta_of(n).unwrap().version,
            "node {i} version skew"
        );
        assert!(!meta.dirty);
        let v = world.site(c).invoke(n, "value", ObiValue::Null).unwrap();
        assert_eq!(v, ObiValue::I64(i as i64));
    }
    let snap = world.site(c).metrics().snapshot();
    // 3 streamed faults x (8 + 2) objects: 6 in-order chunks, re-deliveries
    // after a resume are deduplicated and never counted (or installed).
    assert_eq!(snap.demand_chunks, 6);
    // The link really dropped chunks: at least one stream resumed, and
    // every resume rode the ordinary retry machinery.
    assert!(snap.stream_resumes > 0, "no chunk was ever lost");
    assert!(snap.rpc_retries >= snap.stream_resumes);
    obiwan::util::sync::assert_no_lock_order_violations();
    obiwan::util::sync::assert_observed_edges_in_static_graph();
}

#[test]
fn get_many_under_loss_installs_each_batch_exactly_once() {
    let mut world = ObiWorld::loopback();
    let c = world.add_site("mobile");
    let p = world.add_site("provider");
    world.transport().reseed(1234);
    let (nodes, _) = export_graph(&world, p, 8, 0);
    set_link(&world, c, p, LinkModel::ideal().with_loss(0.25));
    world.site(c).set_rpc_policy(RetryPolicy {
        max_retries: 30,
        ..RetryPolicy::default()
    });

    let head_remote = world.site(c).lookup("head").unwrap();
    let head = world
        .site(c)
        .get(&head_remote, ReplicationMode::incremental(1))
        .unwrap();
    // Multi-root batched demand, retried through loss.
    let fetched = world.site(c).prefetch_batched(head, 8, 4).unwrap();
    assert_eq!(fetched, nodes.len() - 1);

    // Exactly-once install: every node is live exactly at its master
    // version, and the chain's values are intact (a double-materialize
    // with a stale batch would be visible as a version or value skew).
    let mut versions = Vec::new();
    for (i, &n) in nodes.iter().enumerate() {
        assert!(world.site(c).is_replicated(n), "node {i} missing");
        let meta = world.site(c).meta_of(n).unwrap();
        let master = world.site(p).meta_of(n).unwrap();
        assert_eq!(meta.version, master.version, "node {i} version skew");
        assert!(!meta.dirty);
        let v = world.site(c).invoke(n, "value", ObiValue::Null).unwrap();
        assert_eq!(v, ObiValue::I64(i as i64));
        versions.push(meta.version);
    }
    // Versions stay monotone across refreshes through the same lossy link.
    for (i, &n) in nodes.iter().enumerate() {
        world.site(c).refresh(n).unwrap();
        let after = world.site(c).meta_of(n).unwrap().version;
        assert!(
            after >= versions[i],
            "node {i} version went backwards: {} -> {after}",
            versions[i]
        );
    }
    obiwan::util::sync::assert_no_lock_order_violations();
    obiwan::util::sync::assert_observed_edges_in_static_graph();
}

#[test]
fn a_put_reply_outlives_reply_cache_pressure_while_its_origin_is_away() {
    const OTHERS: usize = 40;
    // Fewer than `ANNOUNCE_EVERY` calls each: no other site announces a
    // horizon, so none of their replies is pruned before LRU pressure.
    const CALLS: usize = 29;
    const { assert!(OTHERS * CALLS > ReplyCache::DEFAULT_CAPACITY) };
    const { assert!((CALLS as u64) < ANNOUNCE_EVERY) };
    let mut world = ObiWorld::loopback();
    let m = world.add_site("mobile");
    let p = world.add_site("provider");
    let others: Vec<SiteId> = (0..OTHERS)
        .map(|i| world.add_site(&format!("other{i}")))
        .collect();
    let (durable, recovered) =
        Durable::open(Arc::new(MemStorage::new()), DurableOptions::default()).unwrap();
    assert!(recovered.is_empty());
    world.site(m).attach_durability(durable);
    let (_, ctrs) = export_graph(&world, p, 1, 1);
    let counter = ctrs[0];
    let remote = world.site(m).lookup("ctr0").unwrap();
    let local = world
        .site(m)
        .get(&remote, ReplicationMode::incremental(1))
        .unwrap();
    world.site(m).invoke(local, "incr", ObiValue::Null).unwrap();

    // The put reaches the master and is applied; its reply never returns.
    world.transport().partition_oneway(p, m);
    let err = world.site(m).put(local).unwrap_err();
    assert!(err.is_connectivity(), "{err:?}");
    assert_eq!(world.site(p).meta_of(counter).unwrap().version, 2);

    // While the mobile site is away, other sites fill the reply cache.
    for &o in &others {
        let remote = world.site(o).lookup("ctr0").unwrap();
        for _ in 0..CALLS {
            world
                .site(o)
                .invoke_rmi(&remote, "read", ObiValue::Null)
                .unwrap();
        }
    }

    // Back in reach, the put replays under its logged id: the master
    // answers from its reply cache and does not apply it a second time.
    world.transport().heal_oneway(p, m);
    let acked = world.site(m).put(local).unwrap();
    assert_eq!(
        world.site(p).meta_of(counter).unwrap().version,
        2,
        "the master applied the put twice"
    );
    assert_eq!(acked, 2);
    assert_eq!(
        world
            .site(p)
            .invoke(counter, "read", ObiValue::Null)
            .unwrap(),
        ObiValue::I64(1)
    );
    assert!(!world.site(m).meta_of(local).unwrap().dirty);
    obiwan::util::sync::assert_no_lock_order_violations();
    obiwan::util::sync::assert_observed_edges_in_static_graph();
}

/// More put replies than a master's reply cache holds.
const PAST_THE_CACHE: usize = ReplyCache::DEFAULT_CAPACITY + 1;

/// Gives `site` a fresh `MemStorage` log, so a put whose reply is lost
/// keeps its intent and is replayed under the same request id.
fn attach_log(world: &ObiWorld, site: SiteId) {
    let (durable, recovered) =
        Durable::open(Arc::new(MemStorage::new()), DurableOptions::default()).unwrap();
    assert!(recovered.is_empty());
    world.site(site).attach_durability(durable);
}

/// `site` replicates the provider's "ctr0" and puts an increment of it
/// across a one-way partition from `master_site`: the master applies the
/// put (version 2) and its reply never returns. Returns the replica.
fn lose_a_put_reply(world: &ObiWorld, site: SiteId, master_site: SiteId, master: ObjRef) -> ObjRef {
    let remote = world.site(site).lookup("ctr0").unwrap();
    let local = world
        .site(site)
        .get(&remote, ReplicationMode::incremental(1))
        .unwrap();
    world.site(site).invoke(local, "incr", ObiValue::Null).unwrap();
    world.transport().partition_oneway(master_site, site);
    let err = world.site(site).put(local).unwrap_err();
    assert!(err.is_connectivity(), "{err:?}");
    world.transport().heal_oneway(master_site, site);
    assert_eq!(world.site(master_site).meta_of(master).unwrap().version, 2);
    local
}

/// `site` replicates the provider's list (`nodes`, exported as "head") and
/// writes every node back, one put each.
fn put_the_list(world: &ObiWorld, site: SiteId, nodes: &[ObjRef]) {
    let process = world.site(site);
    let remote = process.lookup("head").unwrap();
    process.get(&remote, ReplicationMode::transitive()).unwrap();
    for &node in nodes {
        process.invoke(node, "set_value", ObiValue::I64(7)).unwrap();
    }
    let outcomes = process.put_many(nodes);
    assert_eq!(outcomes.len(), nodes.len());
    assert!(outcomes.iter().all(|(_, put)| put.is_ok()), "a list put failed");
}

/// The replay of `local`'s lost put: applied once, so the master is still
/// at version 2 and the replay is answered with it.
fn replay_applies_once(world: &ObiWorld, site: SiteId, local: ObjRef, master_site: SiteId, master: ObjRef) {
    let acked = world.site(site).put(local);
    assert_eq!(
        world.site(master_site).meta_of(master).unwrap().version,
        2,
        "the master applied the put twice"
    );
    assert_eq!(acked.unwrap(), 2);
    assert_eq!(
        world.site(master_site).invoke(master, "read", ObiValue::Null).unwrap(),
        ObiValue::I64(1)
    );
    assert!(!world.site(site).meta_of(local).unwrap().dirty);
}

/// One lost put reply, then capacity + 1 other puts from the same client to
/// the same master, which push the reply out of the master's reply cache:
/// the replay is answered from the master object's record of that put.
#[test]
fn a_put_replayed_after_capacity_plus_one_other_puts_applies_once() {
    let mut world = ObiWorld::loopback();
    let m = world.add_site("mobile");
    let p = world.add_site("provider");
    attach_log(&world, m);
    let (nodes, ctrs) = export_graph(&world, p, PAST_THE_CACHE, 1);
    let local = lose_a_put_reply(&world, m, p, ctrs[0]);
    put_the_list(&world, m, &nodes);
    replay_applies_once(&world, m, local, p, ctrs[0]);
    obiwan::util::sync::assert_no_lock_order_violations();
    obiwan::util::sync::assert_observed_edges_in_static_graph();
}

/// A fix on the client side alone cannot pass this: A's put reply at M is
/// lost, and A stays away. B's acknowledgement horizon is frozen by a put
/// pending to M2, which it cannot reach; B then puts capacity + 1 objects
/// to M. A's replay is answered from M's record all the same.
#[test]
fn a_put_replayed_after_another_origin_floods_the_master_applies_once() {
    let mut world = ObiWorld::loopback();
    let a = world.add_site("a");
    let b = world.add_site("b");
    let m = world.add_site("m");
    let m2 = world.add_site("m2");
    attach_log(&world, a);
    attach_log(&world, b);
    let (nodes, ctrs) = export_graph(&world, m, PAST_THE_CACHE, 1);
    let far = world.site(m2).create(Counter::new(0));
    world.site(m2).export(far, "far").unwrap();

    let local = lose_a_put_reply(&world, a, m, ctrs[0]);
    // B's put to M2 never arrives: its intent stays pending, and every seq
    // B issues after it stays above B's announced horizon.
    let remote = world.site(b).lookup("far").unwrap();
    let pending = world
        .site(b)
        .get(&remote, ReplicationMode::incremental(1))
        .unwrap();
    world.site(b).invoke(pending, "incr", ObiValue::Null).unwrap();
    world.transport().partition_oneway(b, m2);
    assert!(world.site(b).put(pending).unwrap_err().is_connectivity());
    put_the_list(&world, b, &nodes);

    replay_applies_once(&world, a, local, m, ctrs[0]);
    obiwan::util::sync::assert_no_lock_order_violations();
    obiwan::util::sync::assert_observed_edges_in_static_graph();
}

/// A put is applied at A and its reply is lost; the client's later puts
/// push the reply out of A's cache. A hands the counter off to B and
/// leaves. The replay reaches A, is redirected, and goes to B under the
/// same request id: B holds the counter's record, which the handoff
/// carried, and answers without applying the put again.
#[test]
fn a_put_replayed_across_a_handoff_applies_once_at_the_successor() {
    let mut world = ObiWorld::loopback();
    let c = world.add_site("client");
    let a = world.add_site("a");
    let b = world.add_site("b");
    attach_log(&world, c);
    let (nodes, ctrs) = export_graph(&world, a, PAST_THE_CACHE, 1);
    let local = lose_a_put_reply(&world, c, a, ctrs[0]);
    put_the_list(&world, c, &nodes);

    assert_eq!(world.site(a).handoff(ctrs[0], b).unwrap(), 2);
    world.site(a).leave(&[b, c]);
    world.pump();

    replay_applies_once(&world, c, local, b, ctrs[0]);
    assert_eq!(world.site(c).metrics().snapshot().moved_master_redirects, 1);
    assert_eq!(
        world.site(c).meta_of(local).unwrap().kind,
        obiwan::core::ReplicaKind::Replica { provider: b }
    );
    obiwan::util::sync::assert_no_lock_order_violations();
    obiwan::util::sync::assert_observed_edges_in_static_graph();
}

/// Origins that never come back and never send `Leave` leave no more than
/// one round's entries behind: each round is a fresh site writing the same
/// objects back, and it settles enough further calls for its horizon to
/// reach the master, so the next round's puts drop its entries.
#[test]
fn put_records_stay_bounded_when_origins_never_leave() {
    const ROUNDS: usize = 40;
    const OBJECTS: usize = 100;
    let mut world = ObiWorld::loopback();
    let p = world.add_site("master");
    let (nodes, _) = export_graph(&world, p, OBJECTS, 0);
    let mut entries = Vec::new();
    let mut origin = p;
    for round in 0..ROUNDS {
        origin = world.add_site(&format!("origin{round}"));
        put_the_list(&world, origin, &nodes);
        for _ in 0..ANNOUNCE_EVERY {
            world.site(origin).ping(p).unwrap();
        }
        entries.push(world.site(p).applied_puts_by_origin().values().sum::<usize>());
    }
    assert_eq!(entries[3], OBJECTS);
    assert_eq!(entries[ROUNDS - 1], entries[3], "{entries:?}");
    world.site(origin).leave(&[p]);
    world.pump();
    assert_eq!(world.site(p).applied_puts_by_origin().get(&origin), None);
    assert!(world.site(p).applied_puts_by_origin().is_empty());
    obiwan::util::sync::assert_no_lock_order_violations();
    obiwan::util::sync::assert_observed_edges_in_static_graph();
}
