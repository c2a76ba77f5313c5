//! Message-economy assertions: exactly the frames the protocol needs cross
//! the wire, no more — verified through the transport trace.

use bytes::Bytes;
use obiwan::core::demo::{LinkedItem, PayloadNode};
use obiwan::core::{ObiValue, ObiWorld, ObjRef, ReplicationMode};
use obiwan::net::{MessageHandler, Transport};
use obiwan::util::SiteId;
use obiwan::wire::Message;

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

#[test]
fn incremental_walk_sends_exactly_one_get_per_batch() {
    let (world, s1, s2, refs) = list_world(20, 64);
    let remote = world.site(s1).lookup("list").unwrap();
    world.transport().trace().set_enabled(true);

    let root = world
        .site(s1)
        .get(&remote, ReplicationMode::incremental(5))
        .unwrap();
    walk(&world, s1, root);

    let summary = world.transport().trace().summary();
    // 20 objects in steps of 5: 1 initial get + 3 faults = 4 request
    // frames S1→S2 and 4 reply frames S2→S1. Nothing else crossed.
    assert_eq!(summary.pair(s1, s2).delivered, 4);
    assert_eq!(summary.pair(s2, s1).delivered, 4);
    assert_eq!(summary.total_delivered(), 8);
    let _ = refs;
}

#[test]
fn local_invocations_are_wire_silent() {
    let (world, s1, _s2, _refs) = list_world(5, 64);
    let remote = world.site(s1).lookup("list").unwrap();
    let root = world
        .site(s1)
        .get(&remote, ReplicationMode::transitive())
        .unwrap();
    world.transport().trace().set_enabled(true);
    for _ in 0..100 {
        world.site(s1).invoke(root, "touch", ObiValue::Null).unwrap();
    }
    assert_eq!(world.transport().trace().summary().total_delivered(), 0);
}

#[test]
fn replica_bytes_scale_with_payload_size() {
    // The bytes on the wire for a transitive get scale with the payload,
    // confirming the serialization path carries real state.
    let measure = |size: usize| {
        let (world, s1, s2, _refs) = list_world(10, size);
        let remote = world.site(s1).lookup("list").unwrap();
        world.transport().trace().set_enabled(true);
        world
            .site(s1)
            .get(&remote, ReplicationMode::transitive())
            .unwrap();
        world.transport().trace().summary().pair(s2, s1).bytes
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
    world.transport().trace().set_enabled(true);
    world.site(s1).put(root).unwrap();
    let summary = world.transport().trace().summary();
    assert_eq!(summary.pair(s1, s2).delivered, 1);
    assert_eq!(summary.pair(s2, s1).delivered, 1);
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
    world.transport().trace().set_enabled(true);
    // One master mutation = one invocation (local at S2) + one invalidate
    // frame S2→S1, with no reply leg.
    world
        .site(s2)
        .invoke(refs[0], "set_index", ObiValue::I64(9))
        .unwrap();
    world.pump();
    let summary = world.transport().trace().summary();
    assert_eq!(summary.pair(s2, s1).delivered, 1);
    assert_eq!(summary.pair(s1, s2).delivered, 0);
}

/// Records the demand-family message tag of every frame a site receives
/// (and, for a streamed exchange, of every frame it sends back).
struct Tap {
    inner: std::sync::Arc<dyn MessageHandler>,
    log: std::sync::Arc<std::sync::Mutex<Vec<&'static str>>>,
}

impl Tap {
    fn note(&self, frame: &Bytes) {
        let tag = match Message::decode(frame) {
            Ok(Message::GetRequest { .. }) => "GetRequest",
            Ok(Message::GetManyRequest { .. }) => "GetManyRequest",
            Ok(Message::GetManyStreamRequest { .. }) => "GetManyStreamRequest",
            Ok(Message::GetManyChunk { .. }) => "GetManyChunk",
            Ok(Message::GetManyDone { .. }) => "GetManyDone",
            _ => return,
        };
        self.log.lock().unwrap().push(tag);
    }
}

impl MessageHandler for Tap {
    fn handle(&self, from: SiteId, frame: Bytes) -> Option<Bytes> {
        self.note(&frame);
        self.inner.handle(from, frame)
    }

    fn handle_stream(
        &self,
        from: SiteId,
        frame: Bytes,
        sink: &mut dyn FnMut(Bytes),
    ) -> Option<Bytes> {
        self.note(&frame);
        let terminal = self.inner.handle_stream(from, frame, &mut |chunk| {
            self.note(&chunk);
            sink(chunk);
        });
        if let Some(t) = &terminal {
            self.note(t);
        }
        terminal
    }
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
    let log = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    world.transport().register(
        s2,
        std::sync::Arc::new(Tap {
            inner: world.site(s2).message_handler(),
            log: log.clone(),
        }),
    );
    let take = move || std::mem::take(&mut *log.lock().unwrap());
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
