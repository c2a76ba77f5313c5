//! Message-economy assertions: exactly the frames the protocol needs cross
//! the wire, no more — counted by a handler decorator at each site.

use bytes::Bytes;
use obiwan::core::demo::{LinkedItem, PayloadNode};
use obiwan::core::{ObiValue, ObiWorld, ObjRef, ReplicationMode};
use obiwan::net::{MessageHandler, Transport};
use obiwan::util::SiteId;
use obiwan::wire::Message;
use std::sync::{Arc, Mutex};

fn list_world(n: usize, size: usize) -> (ObiWorld, SiteId, SiteId, Vec<ObjRef>) {
    let mut world = ObiWorld::loopback();
    let s1 = world.add_site("S1");
    let s2 = world.add_site("S2");
    let mut refs = Vec::new();
    let mut next = None;
    for i in (0..n).rev() {
        let mut node = PayloadNode::sized(i as i64, size);
        node.set_next(next);
        let r = world.site(s2).create(node);
        next = Some(r);
        refs.push(r);
    }
    refs.reverse();
    world.site(s2).export(refs[0], "list").unwrap();
    (world, s1, s2, refs)
}

fn walk(world: &ObiWorld, site: SiteId, mut cur: ObjRef) {
    loop {
        let out = world.site(site).invoke(cur, "touch", ObiValue::Null).unwrap();
        match out.as_ref_id() {
            Some(id) => cur = id.into(),
            None => break,
        }
    }
}

/// What one tapped site saw: every frame that reached its handler, every
/// frame its handler sent back (replies, stream chunks, stream terminals),
/// and the demand-family message tag of each of those, in order.
#[derive(Default)]
struct Traffic {
    received: usize,
    replied: usize,
    reply_bytes: usize,
    demand_tags: Vec<&'static str>,
}

/// Decorates a site's handler, recording its [`Traffic`].
struct Tap {
    inner: Arc<dyn MessageHandler>,
    seen: Arc<Mutex<Traffic>>,
}

impl Tap {
    /// Puts a tap in front of `site`'s handler, from now on.
    fn on(world: &ObiWorld, site: SiteId) -> Arc<Mutex<Traffic>> {
        let seen = Arc::new(Mutex::new(Traffic::default()));
        world.transport().register(
            site,
            Arc::new(Tap {
                inner: world.site(site).message_handler(),
                seen: seen.clone(),
            }),
        );
        seen
    }

    fn note(&self, frame: &Bytes, reply: bool) {
        let mut seen = self.seen.lock().unwrap();
        if reply {
            seen.replied += 1;
            seen.reply_bytes += frame.len();
        } else {
            seen.received += 1;
        }
        seen.demand_tags.push(match Message::decode(frame) {
            Ok(Message::GetRequest { .. }) => "GetRequest",
            Ok(Message::GetManyRequest { .. }) => "GetManyRequest",
            Ok(Message::GetManyStreamRequest { .. }) => "GetManyStreamRequest",
            Ok(Message::GetManyChunk { .. }) => "GetManyChunk",
            Ok(Message::GetManyDone { .. }) => "GetManyDone",
            _ => return,
        });
    }
}

impl MessageHandler for Tap {
    fn handle(&self, from: SiteId, frame: Bytes) -> Option<Bytes> {
        self.note(&frame, false);
        let reply = self.inner.handle(from, frame);
        if let Some(r) = &reply {
            self.note(r, true);
        }
        reply
    }

    fn handle_stream(
        &self,
        from: SiteId,
        frame: Bytes,
        sink: &mut dyn FnMut(Bytes),
    ) -> Option<Bytes> {
        self.note(&frame, false);
        let terminal = self.inner.handle_stream(from, frame, &mut |chunk| {
            self.note(&chunk, true);
            sink(chunk);
        });
        if let Some(t) = &terminal {
            self.note(t, true);
        }
        terminal
    }
}

/// `(received, replied)` of a tapped site.
fn frames(seen: &Mutex<Traffic>) -> (usize, usize) {
    let seen = seen.lock().unwrap();
    (seen.received, seen.replied)
}

fn reply_bytes(seen: &Mutex<Traffic>) -> usize {
    seen.lock().unwrap().reply_bytes
}

#[test]
fn incremental_walk_sends_exactly_one_get_per_batch() {
    let (world, s1, s2, _refs) = list_world(20, 64);
    let remote = world.site(s1).lookup("list").unwrap();
    let (at_s1, at_s2) = (Tap::on(&world, s1), Tap::on(&world, s2));

    let root = world
        .site(s1)
        .get(&remote, ReplicationMode::incremental(5))
        .unwrap();
    walk(&world, s1, root);

    // 20 objects in steps of 5: 1 initial get + 3 faults = 4 request
    // frames S1→S2 and 4 reply frames S2→S1. Nothing else crossed.
    assert_eq!(frames(&at_s2), (4, 4));
    assert_eq!(frames(&at_s1), (0, 0));
}

#[test]
fn local_invocations_are_wire_silent() {
    let (world, s1, s2, _refs) = list_world(5, 64);
    let remote = world.site(s1).lookup("list").unwrap();
    let root = world
        .site(s1)
        .get(&remote, ReplicationMode::transitive())
        .unwrap();
    let (at_s1, at_s2) = (Tap::on(&world, s1), Tap::on(&world, s2));
    for _ in 0..100 {
        world.site(s1).invoke(root, "touch", ObiValue::Null).unwrap();
    }
    assert_eq!(frames(&at_s1), (0, 0));
    assert_eq!(frames(&at_s2), (0, 0));
}

#[test]
fn replica_bytes_scale_with_payload_size() {
    // The bytes on the wire for a transitive get scale with the payload,
    // confirming the serialization path carries real state.
    let measure = |size: usize| {
        let (world, s1, s2, _refs) = list_world(10, size);
        let remote = world.site(s1).lookup("list").unwrap();
        let at_s2 = Tap::on(&world, s2);
        world
            .site(s1)
            .get(&remote, ReplicationMode::transitive())
            .unwrap();
        reply_bytes(&at_s2)
    };
    let small = measure(64);
    let large = measure(4096);
    assert!(large > small + 10 * 3500, "small={small} large={large}");
}

#[test]
fn put_costs_one_round_trip() {
    let (world, s1, s2, _refs) = list_world(1, 64);
    let remote = world.site(s1).lookup("list").unwrap();
    let root = world
        .site(s1)
        .get(&remote, ReplicationMode::incremental(1))
        .unwrap();
    world.site(s1).invoke(root, "set_index", ObiValue::I64(5)).unwrap();
    let (at_s1, at_s2) = (Tap::on(&world, s1), Tap::on(&world, s2));
    world.site(s1).put(root).unwrap();
    assert_eq!(frames(&at_s2), (1, 1));
    assert_eq!(frames(&at_s1), (0, 0));
}

#[test]
fn invalidations_are_single_one_way_frames() {
    let (world, s1, s2, refs) = list_world(1, 64);
    let remote = world.site(s1).lookup("list").unwrap();
    let root = world
        .site(s1)
        .get(&remote, ReplicationMode::incremental(1))
        .unwrap();
    world.site(s1).subscribe(root, false).unwrap();
    let (at_s1, at_s2) = (Tap::on(&world, s1), Tap::on(&world, s2));
    // One master mutation = one invocation (local at S2) + one invalidate
    // frame S2→S1, with no reply leg.
    world
        .site(s2)
        .invoke(refs[0], "set_index", ObiValue::I64(9))
        .unwrap();
    world.pump();
    assert_eq!(frames(&at_s1), (1, 0));
    assert_eq!(frames(&at_s2), (0, 0));
}

/// A `LinkedItem` list of `n` at S2 with S2's handler tapped; returns the
/// drained-on-read log of demand frames.
fn tapped_list(n: usize) -> (ObiWorld, SiteId, Vec<ObjRef>, impl Fn() -> Vec<&'static str>) {
    let mut world = ObiWorld::loopback();
    let s1 = world.add_site("S1");
    let s2 = world.add_site("S2");
    let mut refs = Vec::new();
    let mut next = None;
    for i in (0..n).rev() {
        let mut item = LinkedItem::new(i as i64, format!("n{i}"));
        item.set_next(next);
        let r = world.site(s2).create(item);
        next = Some(r);
        refs.push(r);
    }
    refs.reverse();
    world.site(s2).export(refs[0], "list").unwrap();
    let seen = Tap::on(&world, s2);
    let take = move || std::mem::take(&mut seen.lock().unwrap().demand_tags);
    (world, s1, refs, take)
}

/// The stream a 50-object batch rides: one request, ⌈50/8⌉ = 7 chunks, one
/// terminal.
fn stream_of_seven() -> Vec<&'static str> {
    let mut frames = vec!["GetManyStreamRequest"];
    frames.extend(["GetManyChunk"; 7]);
    frames.push("GetManyDone");
    frames
}

/// Pins which message each demand caller sends (DESIGN.md "Demand
/// pipeline", the exchange table), row by row.
#[test]
fn each_demand_caller_keeps_its_exchange() {
    // -- step 50: get, nested fault, top-level fault -----------------------
    let (world, s1, refs, frames) = tapped_list(200);
    let site = world.site(s1);
    let remote = site.lookup("list").unwrap();
    site.get(&remote, ReplicationMode::incremental(50)).unwrap();
    assert_eq!(frames(), ["GetRequest"], "get takes its batch whole, whatever the step");

    // refs[49] is live, its successor a step-50 proxy-out: `next_value`
    // invokes through it from inside a method body.
    let v = site.invoke(refs[49], "next_value", ObiValue::Null).unwrap();
    assert_eq!(v, ObiValue::I64(50));
    assert_eq!(frames(), ["GetRequest"], "a nested fault never streams");
    assert!(site.is_replicated(refs[99]));
    assert_eq!(site.pump_pending_chunks(), 0);

    site.invoke(refs[100], "value", ObiValue::Null).unwrap();
    assert_eq!(frames(), stream_of_seven(), "a top-level fault above step 8 streams");
    assert!(site.is_replicated(refs[107]), "chunk 0 is installed inside the fault");
    assert!(!site.is_replicated(refs[108]), "the tail waits for the pump");
    assert_eq!(site.pump_pending_chunks(), 6);
    assert!(site.is_replicated(refs[149]));

    // -- step 5: top-level fault, then grouped prefetch ---------------------
    let (world, s1, refs, frames) = tapped_list(200);
    let site = world.site(s1);
    let remote = site.lookup("list").unwrap();
    let root = site.get(&remote, ReplicationMode::incremental(5)).unwrap();
    frames();
    site.invoke(refs[5], "value", ObiValue::Null).unwrap();
    assert_eq!(frames(), ["GetRequest"], "a top-level fault at step <= 8 is one-shot");

    assert_eq!(site.prefetch_batched(root, 8, 8).unwrap(), 8);
    assert_eq!(frames(), ["GetManyRequest"], "a one-target group is still a GetManyRequest");

    assert_eq!(site.prefetch_batched(root, 50, 50).unwrap(), 50);
    assert_eq!(frames(), stream_of_seven(), "grouped prefetch above step 8 streams");
    assert_eq!(site.pump_pending_chunks(), 0, "prefetch installs every chunk inline");
    assert!(site.is_replicated(refs[67]));

    // -- a cluster proxy under prefetch goes solo --------------------------
    let (world, s1, refs, frames) = tapped_list(20);
    let site = world.site(s1);
    let remote = site.lookup("list").unwrap();
    let root = site.get(&remote, ReplicationMode::cluster(4)).unwrap();
    frames();
    assert_eq!(site.prefetch_batched(root, 4, 8).unwrap(), 4);
    assert_eq!(frames(), ["GetRequest"], "cluster proxies keep one-shot, unmerged gets");
    assert!(site.is_replicated(refs[7]));
}
