//! `walk_small` and `walk_large`: the demand-driven read path. A consumer
//! replicates a list head with `get(incremental(50))`, then invokes `touch`
//! down the list; every fiftieth node faults the next fifty in.

use crate::classes::{PerfNode, Touched};
use crate::trace::Probe;
use crate::workload::{scaled, Cfg, Check, Measured, Slots, Tracing, Workload};
use crate::world::{World, PROVIDER};
use bytes::Bytes;
use obiwan_core::{ObiProcess, ObiValue, ObjRef, ReplicationMode};
use obiwan_rmi::RemoteRef;
use obiwan_util::{DetRng, ObjId, SiteId};
use std::time::Instant;

pub const NODES: usize = 1000;
pub const STEP: usize = 50;
const CONSUMER: SiteId = SiteId::new(2);

/// The two sizes of the walk.
pub trait WalkSize {
    const NAME: &'static str;
    const PAYLOAD: usize;
    const LISTS: usize;
    /// Measured walks per second of `--seconds` on the reference box.
    const WALKS_PER_SECOND: f64;
}

pub struct Small;
impl WalkSize for Small {
    const NAME: &'static str = "walk_small";
    const PAYLOAD: usize = 64;
    const LISTS: usize = 8;
    const WALKS_PER_SECOND: f64 = 400.0;
}

pub struct Large;
impl WalkSize for Large {
    const NAME: &'static str = "walk_large";
    const PAYLOAD: usize = 16 * 1024;
    const LISTS: usize = 4;
    const WALKS_PER_SECOND: f64 = 68.0;
}

struct List {
    head: RemoteRef,
    /// First and last payload byte of each node, in list order.
    ends: Vec<(u8, u8)>,
}

pub struct Walk<S: WalkSize> {
    world: World,
    provider: ObiProcess,
    consumer: ObiProcess,
    lists: Vec<List>,
    rng: DetRng,
    /// The rest of the current pass over the lists; every pass visits each
    /// list once, in a seeded order.
    pass: Vec<usize>,
    probe: Probe,
    _size: std::marker::PhantomData<S>,
}

/// Creates one list at `provider`, tail first, and returns its head with
/// the bytes a walk should see.
fn build_list(
    provider: &ObiProcess,
    nodes: usize,
    payload: usize,
    rng: &mut DetRng,
) -> (ObjRef, Vec<(u8, u8)>) {
    let mut ends = vec![(0u8, 0u8); nodes];
    let mut next = None;
    for i in (0..nodes).rev() {
        let mut bytes = vec![0u8; payload];
        rng.fill_bytes(&mut bytes);
        ends[i] = (bytes[0], bytes[payload - 1]);
        next = Some(provider.create(PerfNode {
            index: i as i64,
            payload: Bytes::from(bytes),
            next,
        }));
    }
    (next.expect("a list has at least one node"), ends)
}

impl<S: WalkSize> Walk<S> {
    fn next_list(&mut self) -> usize {
        if self.pass.is_empty() {
            self.pass = (0..self.lists.len()).collect();
            for i in (1..self.pass.len()).rev() {
                self.pass
                    .swap(i, self.rng.next_below(i as u64 + 1) as usize);
            }
        }
        self.pass.pop().expect("just refilled")
    }

    /// One walk of one list; the replicas are dropped again afterwards,
    /// outside the timed window, so the next walk of that list faults the
    /// same way.
    fn walk(&mut self, m: &mut Measured) -> Check<()> {
        let list = self.next_list();
        let head = self.lists[list].head;
        let before = self.consumer.metrics().snapshot();
        let started = Instant::now();

        m.attempted += 1;
        let consumer = &self.consumer;
        let (root, get_ns) = self.probe.op("core.get", || {
            consumer.get(&head, ReplicationMode::incremental(STEP))
        });
        let root = match root {
            Ok(root) => root,
            Err(_) => {
                m.failed += 1;
                return Ok(());
            }
        };
        m.second.record(get_ns);

        let mut cur = root;
        let mut touched = 0usize;
        for i in 0..NODES {
            m.attempted += 1;
            let (word, ns) = self.probe.op("core.invoke", || {
                consumer.invoke(cur, "touch", ObiValue::Null)
            });
            let Ok(ObiValue::I64(word)) = word else {
                m.failed += 1;
                break;
            };
            m.lmi.record(ns);
            // Node i*STEP is the first one the previous batch left out, so
            // invoking it is what faults; the invocation after that pays
            // for installing the chunks the fault left parked.
            if i > 0 && i % STEP == 0 {
                m.remote.record(ns);
            } else if i > 1 && i % STEP == 1 {
                m.record_info("pump", ns);
            }
            let t = Touched::unpack(word);
            let (first, last) = self.lists[list].ends[i];
            if t.index != i as i64 || t.first != first || t.last != last {
                return Err(format!(
                    "{}: node {i} of list {list} read back as {t:?}, expected bytes ({first}, {last})",
                    S::NAME
                ));
            }
            touched += 1;
            if t.next_local == 0 {
                break;
            }
            cur = ObjRef::new(ObjId::new(PROVIDER, t.next_local));
        }
        let raw_ns = started.elapsed().as_nanos() as u64;
        m.raw_ns += raw_ns;
        m.timed_ns += self.probe.cal.scale(raw_ns);
        m.ops += touched as u64;

        let after = self.consumer.metrics().snapshot().since(&before);
        if m.failed == 0 {
            if touched != NODES {
                return Err(format!(
                    "{}: walk touched {touched} nodes, not {NODES}",
                    S::NAME
                ));
            }
            if after.demand_round_trips != (NODES / STEP) as u64 {
                return Err(format!(
                    "{}: walk took {} demand round trips, not {}",
                    S::NAME,
                    after.demand_round_trips,
                    NODES / STEP
                ));
            }
        }
        m.wire_units += touched as u64;
        m.payload_bytes += (touched * S::PAYLOAD) as u64;
        m.objects_moved += touched as u64;
        m.demand_ops += (NODES / STEP) as u64;

        self.consumer.remove_root(root);
        self.consumer.collect_garbage(true);
        self.probe.cal.tick();
        Ok(())
    }
}

impl<S: WalkSize> Workload for Walk<S> {
    const NAME: &'static str = S::NAME;
    const CLIENTS: u32 = 1;
    const SLICES: u64 = 10;
    const SLOTS: Slots = Slots {
        ops: "walk_objs_per_s",
        lmi: "invoke_p50_ns",
        remote: "fault",
        second: "get_p50_us",
        wire_unit: "wire_bytes_per_obj",
    };

    fn setup(cfg: &Cfg, tracing: Tracing) -> Check<Self> {
        let tracer = tracing.as_ref().map(|(t, _)| t.clone());
        let world = World::new(tracing);
        let provider = world.process(PROVIDER);
        let consumer = world.process(CONSUMER);
        let mut rng = DetRng::new(cfg.seed);
        let mut lists = Vec::new();
        for k in 0..S::LISTS {
            let (head, ends) = build_list(&provider, NODES, S::PAYLOAD, &mut rng);
            let name = format!("{}-{k}", S::NAME);
            provider.export(head, &name).map_err(|e| e.to_string())?;
            let head = consumer.lookup(&name).map_err(|e| e.to_string())?;
            lists.push(List { head, ends });
        }
        let mut walk = Walk {
            world,
            provider,
            consumer,
            lists,
            rng,
            pass: Vec::new(),
            probe: Probe::new(tracer),
            _size: std::marker::PhantomData,
        };
        // Warm-up: at least 2 % of the measured walks, and every list once.
        let warm = (Self::units(cfg) / 50).max(S::LISTS as u64);
        let mut discard = Measured::default();
        for _ in 0..warm {
            walk.walk(&mut discard)?;
        }
        if discard.failed > 0 {
            return Err(format!(
                "{}: {} operations failed in warm-up",
                S::NAME,
                discard.failed
            ));
        }
        Ok(walk)
    }

    fn units(cfg: &Cfg) -> u64 {
        scaled(
            S::WALKS_PER_SECOND,
            cfg.seconds,
            S::LISTS as u64,
            S::LISTS as u64,
        )
    }

    fn measure(&mut self, units: u64) -> Check<Measured> {
        let mut m = Measured::default();
        let before = self.consumer.metrics().snapshot();
        let served_before = self.provider.metrics().snapshot();
        // Only the timed windows use the network, so the bytes of the
        // phase are the bytes of its walks.
        let bytes_before = self.world.wire_bytes();
        for _ in 0..units {
            self.walk(&mut m)?;
        }
        m.wire_bytes = self.world.wire_bytes() - bytes_before;
        m.counters = self.consumer.metrics().snapshot().since(&before);
        // Reply-cache hits are counted where they are served.
        m.counters.cached_replies = self
            .provider
            .metrics()
            .snapshot()
            .since(&served_before)
            .cached_replies;
        m.merge_folded(self.probe.take_folded());
        Ok(m)
    }

    fn verify(&mut self) -> Check<()> {
        // Every walk checked itself; nothing is written, so no final state.
        Ok(())
    }
}
