//! Exactly-once semantics under *concurrent* dispatch: [`TcpTransport`]
//! serves each connection on its own thread, so duplicate frames of one
//! logical request sent on separate connections race into the provider
//! simultaneously. The reply cache's in-flight admission protocol must let
//! exactly one copy execute and serve every racer the identical reply — no
//! double-applied writes, no divergent answers.
//!
//! Clients here speak raw frames over real loopback sockets (no
//! client-side stub), so the tests control request identity byte-for-byte.

use bytes::Bytes;
use obiwan::core::demo::{register_all, Counter};
use obiwan::core::{ClassRegistry, ObiObject, ObiProcess, ObiValue};
use obiwan::net::{TcpTransport, Transport};
use obiwan::util::{Clock, ClockMode, CostModel, RequestId, SiteId};
use obiwan::wire::{Encoder, Message, ReplicaState};
use std::sync::{Arc, Barrier};

const NS: SiteId = SiteId::new(0);
const PROVIDER: SiteId = SiteId::new(1);
const CLIENT: SiteId = SiteId::new(7);

struct Rig {
    net: TcpTransport,
    provider: ObiProcess,
}

/// One provider process behind a TCP listener: every concurrent call takes
/// its own connection, and so its own serving thread.
fn rig() -> Rig {
    let net = TcpTransport::new();
    let registry = ClassRegistry::new();
    register_all(&registry);
    let provider = ObiProcess::new(
        PROVIDER,
        Arc::new(net.clone()) as Arc<dyn Transport>,
        Clock::new(ClockMode::VirtualOnly),
        CostModel::free(),
        registry,
        NS,
    );
    net.register(PROVIDER, provider.message_handler());
    Rig { net, provider }
}

/// Fires `frame` from [`CLIENT`] on `racers` threads at once (barrier
/// release) and returns every reply.
fn race(net: &TcpTransport, frame: &Bytes, racers: usize) -> Vec<Bytes> {
    let barrier = Arc::new(Barrier::new(racers));
    let joins: Vec<_> = (0..racers)
        .map(|_| {
            let net = net.clone();
            let frame = frame.clone();
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                barrier.wait();
                net.call(CLIENT, PROVIDER, frame).expect("call")
            })
        })
        .collect();
    joins.into_iter().map(|j| j.join().expect("racer")).collect()
}

fn invoke_value(net: &TcpTransport, seq: u64, target: obiwan::core::ObjRef, method: &str) -> ObiValue {
    let frame = Message::InvokeRequest {
        request: RequestId::new(CLIENT, seq),
        target: target.id(),
        method: method.into(),
        args: ObiValue::Null,
    }
    .encode();
    let reply = net.call(CLIENT, PROVIDER, frame).expect("invoke");
    match Message::decode(&reply) {
        Ok(Message::InvokeReply { result: Ok(v), .. }) => v,
        other => panic!("unexpected reply: {other:?}"),
    }
}

#[test]
fn duplicate_increments_racing_across_workers_apply_exactly_once() {
    let rig = rig();
    let counter = rig.provider.create(Counter::new(0));

    const ROUNDS: u64 = 20;
    const RACERS: usize = 4;
    for round in 0..ROUNDS {
        // All racers carry the SAME RequestId: they are wire duplicates of
        // one logical (non-idempotent!) increment.
        let frame = Message::InvokeRequest {
            request: RequestId::new(CLIENT, round + 1),
            target: counter.id(),
            method: "incr".into(),
            args: ObiValue::Null,
        }
        .encode();
        let replies = race(&rig.net, &frame, RACERS);
        // Exactly-once: every racer sees the same post-increment value.
        for reply in &replies {
            assert_eq!(reply, &replies[0], "racers diverged in round {round}");
        }
        assert_eq!(
            Message::decode(&replies[0]).expect("decode"),
            Message::InvokeReply {
                request: RequestId::new(CLIENT, round + 1),
                result: Ok(ObiValue::I64(round as i64 + 1)),
            }
        );
    }
    // The master advanced once per round, not once per duplicate.
    assert_eq!(
        invoke_value(&rig.net, 1000, counter, "read"),
        ObiValue::I64(ROUNDS as i64)
    );
    // Per round, one racer executed and the rest were served from the
    // cache (either mid-flight or after completion).
    let snap = rig.provider.metrics().snapshot();
    assert_eq!(snap.cached_replies, ROUNDS * (RACERS as u64 - 1));
    obiwan::util::sync::assert_no_lock_order_violations();
    obiwan::util::sync::assert_observed_edges_in_static_graph();
    rig.net.shutdown();
}

#[test]
fn duplicate_put_write_backs_leave_one_state() {
    let rig = rig();
    let counter = rig.provider.create(Counter::new(0));

    // A hand-built write-back of the replica state "count = 42" against
    // master version 1, duplicated across connections.
    let state = {
        let mut enc = Encoder::new();
        enc.put_value(&Counter::new(42).state());
        enc.finish()
    };
    let frame = Message::PutRequest {
        request: RequestId::new(CLIENT, 1),
        entries: vec![ReplicaState {
            id: counter.id(),
            class: "Counter".into(),
            version: 1,
            state,
        }],
    }
    .encode();
    let replies = race(&rig.net, &frame, 4);
    // One apply: every reply reports the same accepted version 2. A double
    // apply would bump the master twice and leak a `(id, 3)` reply.
    for reply in &replies {
        assert_eq!(
            Message::decode(reply).expect("decode"),
            Message::PutReply {
                request: RequestId::new(CLIENT, 1),
                result: Ok(vec![(counter.id(), 2)]),
            }
        );
    }
    assert_eq!(
        invoke_value(&rig.net, 1000, counter, "read"),
        ObiValue::I64(42)
    );
    obiwan::util::sync::assert_no_lock_order_violations();
    obiwan::util::sync::assert_observed_edges_in_static_graph();
    rig.net.shutdown();
}

#[test]
fn distinct_requests_across_workers_all_apply() {
    let rig = rig();
    let counter = rig.provider.create(Counter::new(0));

    // Genuinely distinct increments from many origins at once: no request
    // is a duplicate, so every single one must land.
    const THREADS: usize = 8;
    const OPS: u64 = 25;
    let barrier = Arc::new(Barrier::new(THREADS));
    let joins: Vec<_> = (0..THREADS)
        .map(|t| {
            let net = rig.net.clone();
            let barrier = barrier.clone();
            let target = counter.id();
            std::thread::spawn(move || {
                let from = SiteId::new(100 + t as u32);
                barrier.wait();
                for seq in 1..=OPS {
                    let frame = Message::InvokeRequest {
                        request: RequestId::new(from, seq),
                        target,
                        method: "incr".into(),
                        args: ObiValue::Null,
                    }
                    .encode();
                    let reply = net.call(from, PROVIDER, frame).expect("call");
                    assert!(matches!(
                        Message::decode(&reply),
                        Ok(Message::InvokeReply { result: Ok(_), .. })
                    ));
                }
            })
        })
        .collect();
    for j in joins {
        j.join().expect("client thread");
    }
    assert_eq!(
        invoke_value(&rig.net, 1000, counter, "read"),
        ObiValue::I64((THREADS as u64 * OPS) as i64)
    );
    let snap = rig.provider.metrics().snapshot();
    assert_eq!(snap.cached_replies, 0, "no duplicates were sent");
    obiwan::util::sync::assert_no_lock_order_violations();
    obiwan::util::sync::assert_observed_edges_in_static_graph();
    rig.net.shutdown();
}
