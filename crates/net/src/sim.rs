//! Deterministic simulated transport.
//!
//! [`SimTransport`] moves frames between handlers in the current process and
//! charges network physics (latency, bandwidth, jitter) to a shared virtual
//! [`Clock`]. With [`ClockMode::VirtualOnly`](obiwan_util::ClockMode) and a
//! fixed seed, runs are fully deterministic — which is what the figure
//! harness and the property tests rely on.

use crate::link::{Arrival, ChunkDelivery, Leg, LinkLayer, Pace, Topology};
use crate::transport::{MessageHandler, Transport};
use bytes::Bytes;
use obiwan_util::{Clock, DetRng, Metrics, ObiError, Result, SiteId};
use obiwan_util::sync::{Mutex, RwLock};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// A synchronous, single-process, virtual-time transport.
///
/// Handlers run on the caller's stack: a `call` computes the request leg's
/// delay, charges it to the clock, invokes the destination handler, then
/// charges the reply leg. Nested calls (a handler calling out to a third
/// site) compose naturally because no locks are held across handler
/// invocations.
///
/// # Examples
///
/// See the [crate-level example](crate).
#[derive(Clone)]
pub struct SimTransport {
    inner: Arc<SimInner>,
}

struct SimInner {
    clock: Clock,
    links: LinkLayer,
    handlers: RwLock<HashMap<SiteId, Arc<dyn MessageHandler>>>,
    /// Scheduled connectivity changes, kept sorted by due time.
    schedule: Mutex<Vec<(u64, ScheduledChange)>>,
    /// One-way frames held back by a link's reorder lottery; they deliver
    /// after later traffic (see [`SimTransport::flush_reordered`]).
    held: Mutex<VecDeque<(SiteId, SiteId, Bytes)>>,
}

/// A connectivity change that fires at a virtual time (mobility scripts:
/// "the user enters the tunnel at t=3 s, exits at t=9 s").
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduledChange {
    /// Disconnect a site from everyone.
    Disconnect(SiteId),
    /// Reconnect a previously disconnected site.
    Reconnect(SiteId),
    /// Replace the link model for a pair, both directions.
    SetLink(SiteId, SiteId, crate::link::LinkModel),
    /// Set the administrative state of one *directed* pair — the primitive
    /// for scripted asymmetric partitions.
    SetPairState(SiteId, SiteId, crate::link::LinkState),
}

impl std::fmt::Debug for SimTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimTransport")
            .field("sites", &self.inner.handlers.read().len())
            .field("virtual_nanos", &self.inner.clock.virtual_nanos())
            .finish()
    }
}

impl SimTransport {
    /// Creates a transport over a uniform topology built from `default_link`.
    pub fn new(clock: Clock, default_link: crate::link::LinkModel) -> Self {
        Self::with_topology(clock, Topology::uniform(default_link))
    }

    /// Creates a transport over an explicit topology.
    pub fn with_topology(clock: Clock, topology: Topology) -> Self {
        SimTransport {
            inner: Arc::new(SimInner {
                links: LinkLayer::new(topology, DEFAULT_SEED, Pace::Virtual(clock.clone())),
                clock,
                handlers: RwLock::new(HashMap::new()),
                schedule: Mutex::new(Vec::new()),
                held: Mutex::new(VecDeque::new()),
            }),
        }
    }

    /// Replaces the deterministic seed used for jitter and loss sampling.
    pub fn reseed(&self, seed: u64) {
        *self.inner.links.rng.lock() = DetRng::new(seed);
    }

    /// The shared clock network time is charged to.
    pub fn clock(&self) -> &Clock {
        &self.inner.clock
    }

    /// Transport-level metrics (messages/bytes sent and received).
    pub fn metrics(&self) -> &Metrics {
        &self.inner.links.metrics
    }

    /// Runs `f` with mutable access to the topology (set links, disconnect
    /// sites, create partitions).
    pub fn with_topology_mut<R>(&self, f: impl FnOnce(&mut Topology) -> R) -> R {
        f(&mut self.inner.links.topology.write())
    }

    /// Convenience: disconnect `site` from everyone.
    pub fn disconnect(&self, site: SiteId) {
        self.with_topology_mut(|t| t.disconnect(site));
    }

    /// Convenience: reconnect `site`.
    pub fn reconnect(&self, site: SiteId) {
        self.with_topology_mut(|t| t.reconnect(site));
    }

    /// Convenience: cut only the `from -> to` direction (asymmetric
    /// partition; the reverse path stays up).
    pub fn partition_oneway(&self, from: SiteId, to: SiteId) {
        self.with_topology_mut(|t| t.partition_oneway(from, to));
    }

    /// Convenience: restore a direction cut by
    /// [`SimTransport::partition_oneway`].
    pub fn heal_oneway(&self, from: SiteId, to: SiteId) {
        self.with_topology_mut(|t| t.heal_oneway(from, to));
    }

    /// One-way frames currently held back by the reorder lottery.
    pub fn held_frames(&self) -> usize {
        self.inner.held.lock().len()
    }

    /// Delivers every held (reordered) one-way frame in arrival order.
    ///
    /// Called automatically after each delivered frame so held traffic
    /// arrives *after* something sent later (that is what makes it a
    /// reordering); call it explicitly to drain stragglers when the
    /// workload goes quiet. Held frames whose link has gone down or lossy
    /// in the meantime are dropped silently, like any one-way frame.
    pub fn flush_reordered(&self) {
        loop {
            let Some((from, to, frame)) = self.inner.held.lock().pop_front() else {
                return;
            };
            let Ok(handler) = self.handler_for(to) else {
                continue;
            };
            // A late one-way frame that the link lost or refused is gone.
            if let Ok(arrival) = self.traverse(from, to, frame.len(), Leg::Request) {
                handler.handle(from, frame.clone());
                if arrival.dup {
                    handler.handle(from, frame);
                }
            }
        }
    }

    /// Schedules a connectivity change at virtual time `at_nanos`.
    ///
    /// Changes apply lazily: the schedule is consulted whenever a frame
    /// traverses the network or reachability is queried, which is the only
    /// way time advances observably in this transport.
    pub fn schedule_change(&self, at_nanos: u64, change: ScheduledChange) {
        let mut schedule = self.inner.schedule.lock();
        schedule.push((at_nanos, change));
        schedule.sort_by_key(|(at, _)| *at);
    }

    /// Applies every scheduled change whose time has come.
    fn apply_due_changes(&self) {
        let now = self.inner.clock.virtual_nanos();
        loop {
            let change = {
                let mut schedule = self.inner.schedule.lock();
                match schedule.first() {
                    Some((at, _)) if *at <= now => Some(schedule.remove(0).1),
                    _ => None,
                }
            };
            let Some(change) = change else { return };
            let mut topology = self.inner.links.topology.write();
            match change {
                ScheduledChange::Disconnect(site) => topology.disconnect(site),
                ScheduledChange::Reconnect(site) => topology.reconnect(site),
                ScheduledChange::SetLink(a, b, link) => {
                    topology.set_link_symmetric(a, b, link)
                }
                ScheduledChange::SetPairState(from, to, state) => {
                    topology.set_pair_state(from, to, state)
                }
            }
        }
    }

    /// Sends one frame across `from -> to`, after due connectivity changes.
    fn traverse(&self, from: SiteId, to: SiteId, bytes: usize, leg: Leg) -> Result<Arrival> {
        self.apply_due_changes();
        self.inner.links.traverse(from, to, bytes, leg)
    }

    /// Samples the reorder lottery for a one-way frame `from -> to`.
    fn should_reorder(&self, from: SiteId, to: SiteId) -> bool {
        let topology = self.inner.links.topology.read();
        let link = topology.link(from, to);
        link.reorders(&mut self.inner.links.rng.lock())
    }

    fn handler_for(&self, site: SiteId) -> Result<Arc<dyn MessageHandler>> {
        self.inner
            .handlers
            .read()
            .get(&site)
            .cloned()
            .ok_or(ObiError::SiteUnreachable(site))
    }
}

impl Transport for SimTransport {
    fn register(&self, site: SiteId, handler: Arc<dyn MessageHandler>) {
        self.inner.handlers.write().insert(site, handler);
    }

    fn deregister(&self, site: SiteId) {
        self.inner.handlers.write().remove(&site);
    }

    fn call(&self, from: SiteId, to: SiteId, frame: Bytes) -> Result<Bytes> {
        let mut span = obiwan_util::trace::span(&self.inner.clock, "net.call").with_site(from);
        span.set_value(frame.len() as u64);
        let handler = self.handler_for(to)?;
        if self.traverse(from, to, frame.len(), Leg::Request)?.dup {
            // The duplicate arrives first and its reply evaporates (the
            // synchronous caller only reads one). A reply-cache server
            // answers both executions identically; a bare handler runs its
            // side effects twice — exactly the hazard being modeled.
            let _ = handler.handle(from, frame.clone());
        }
        let reply = handler.handle(from, frame).ok_or_else(|| {
            ObiError::Internal(format!("site {to} produced no reply to a request"))
        })?;
        self.traverse(to, from, reply.len(), Leg::Reply)?;
        self.flush_reordered();
        Ok(reply)
    }

    fn call_stream(
        &self,
        from: SiteId,
        to: SiteId,
        frame: Bytes,
        on_frame: &mut dyn FnMut(Bytes),
    ) -> Result<Bytes> {
        let mut span = obiwan_util::trace::span(&self.inner.clock, "net.call").with_site(from);
        span.set_value(frame.len() as u64);
        let handler = self.handler_for(to)?;
        if self.traverse(from, to, frame.len(), Leg::Request)?.dup {
            // The duplicated request opens a whole stream whose frames a
            // synchronous caller never reads: they evaporate into a null
            // sink, but the handler still runs — the reply-cache dedup
            // hazard, stream edition.
            let _ = handler.handle_stream(from, frame.clone(), &mut |_| {});
        }
        // Each chunk rides the reply link with its own fault lottery.
        let mut delivery = ChunkDelivery::default();
        let reply = handler
            .handle_stream(from, frame, &mut |chunk| {
                let fate = self.traverse(to, from, chunk.len(), Leg::Chunk);
                delivery.deliver(chunk, fate, on_frame);
            })
            .ok_or_else(|| {
                ObiError::Internal(format!("site {to} produced no reply to a request"))
            })?;
        // A chunk still held when the stream closes arrives before the
        // terminal frame.
        delivery.close(on_frame);
        self.traverse(to, from, reply.len(), Leg::Reply)?;
        self.flush_reordered();
        Ok(reply)
    }

    fn cast(&self, from: SiteId, to: SiteId, frame: Bytes) -> Result<()> {
        let _span = obiwan_util::trace::span(&self.inner.clock, "net.cast")
            .with_site(from)
            .with_value(frame.len() as u64);
        let handler = self.handler_for(to)?;
        if self.should_reorder(from, to) {
            // Held back: the frame's physics are charged when it finally
            // delivers, after later traffic.
            self.inner.held.lock().push_back((from, to, frame));
            return Ok(());
        }
        match self.traverse(from, to, frame.len(), Leg::Request) {
            Ok(arrival) => {
                handler.handle(from, frame.clone());
                if arrival.dup {
                    handler.handle(from, frame);
                }
                self.flush_reordered();
                Ok(())
            }
            // Loss on a one-way frame is silent, as on a real network.
            Err(ObiError::MessageLost { .. }) => Ok(()),
            Err(e) => Err(e),
        }
    }

    fn is_reachable(&self, from: SiteId, to: SiteId) -> bool {
        self.apply_due_changes();
        self.inner.handlers.read().contains_key(&to)
            && self.inner.links.topology.read().is_up(from, to)
    }
}

/// Default jitter/loss sampling seed; override with [`SimTransport::reseed`].
const DEFAULT_SEED: u64 = 0x0B1A_57ED_0000_CAFE;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conditions;
    use obiwan_util::{ClockMode, ObjId};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    fn s(n: u32) -> SiteId {
        SiteId::new(n)
    }

    struct Echo;
    impl MessageHandler for Echo {
        fn handle(&self, _from: SiteId, frame: Bytes) -> Option<Bytes> {
            Some(frame)
        }
    }

    fn transport() -> SimTransport {
        let clock = Clock::new(ClockMode::VirtualOnly);
        SimTransport::new(clock, conditions::paper_lan())
    }

    #[test]
    fn call_round_trips_and_charges_time() {
        let net = transport();
        net.register(s(2), Arc::new(Echo));
        let reply = net.call(s(1), s(2), Bytes::from_static(b"hello")).unwrap();
        assert_eq!(&reply[..], b"hello");
        // Two legs of >= 1 ms latency each.
        assert!(net.clock().elapsed() >= Duration::from_millis(2));
    }

    #[test]
    fn unregistered_destination_is_unreachable() {
        let net = transport();
        let err = net.call(s(1), s(9), Bytes::new()).unwrap_err();
        assert_eq!(err, ObiError::SiteUnreachable(s(9)));
        assert!(!net.is_reachable(s(1), s(9)));
    }

    #[test]
    fn disconnection_refuses_traffic_and_reconnection_heals() {
        let net = transport();
        net.register(s(2), Arc::new(Echo));
        net.disconnect(s(2));
        let err = net.call(s(1), s(2), Bytes::new()).unwrap_err();
        assert!(err.is_connectivity());
        assert!(!net.is_reachable(s(1), s(2)));
        net.reconnect(s(2));
        assert!(net.call(s(1), s(2), Bytes::new()).is_ok());
    }

    #[test]
    fn larger_frames_take_longer() {
        let net = transport();
        net.register(s(2), Arc::new(Echo));
        let t0 = net.clock().virtual_nanos();
        net.call(s(1), s(2), Bytes::from(vec![0u8; 100])).unwrap();
        let small = net.clock().virtual_nanos() - t0;
        let t1 = net.clock().virtual_nanos();
        net.call(s(1), s(2), Bytes::from(vec![0u8; 100_000])).unwrap();
        let large = net.clock().virtual_nanos() - t1;
        assert!(large > small * 10, "large={large} small={small}");
    }

    #[test]
    fn deterministic_given_same_seed() {
        let run = || {
            let net = transport();
            net.reseed(7);
            net.register(s(2), Arc::new(Echo));
            net.with_topology_mut(|t| {
                t.set_link_symmetric(s(1), s(2), conditions::wifi());
            });
            for i in 0..50 {
                let _ = net.call(s(1), s(2), Bytes::from(vec![0u8; i * 10]));
            }
            net.clock().virtual_nanos()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn lossy_link_eventually_loses_calls() {
        let net = transport();
        net.register(s(2), Arc::new(Echo));
        net.with_topology_mut(|t| {
            t.set_link_symmetric(
                s(1),
                s(2),
                crate::link::LinkModel::ideal().with_loss(0.5),
            );
        });
        let mut losses = 0;
        for _ in 0..100 {
            if let Err(ObiError::MessageLost { .. }) = net.call(s(1), s(2), Bytes::new()) {
                losses += 1;
            }
        }
        assert!(losses > 10, "losses = {losses}");
    }

    /// Reply-only loss: the request always arrives and executes, but the
    /// caller still sees `MessageLost` — the asymmetric failure that makes
    /// retries of already-executed requests reach the reply cache.
    #[test]
    fn reply_loss_executes_the_handler_but_loses_the_answer() {
        let net = transport();
        let hits = Arc::new(AtomicUsize::new(0));
        let hits2 = hits.clone();
        net.register(
            s(2),
            Arc::new(move |_from: SiteId, frame: Bytes| -> Option<Bytes> {
                hits2.fetch_add(1, Ordering::SeqCst);
                Some(frame)
            }),
        );
        net.with_topology_mut(|t| {
            t.set_link_symmetric(
                s(1),
                s(2),
                crate::link::LinkModel::ideal().with_reply_loss(1.0),
            );
        });
        for i in 1..=10 {
            let err = net.call(s(1), s(2), Bytes::new()).unwrap_err();
            assert!(matches!(err, ObiError::MessageLost { .. }), "{err:?}");
            assert_eq!(hits.load(Ordering::SeqCst), i, "request leg must land");
        }
        // One-way frames have no reply leg: reply loss never touches them.
        net.cast(s(1), s(2), Bytes::new()).unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 11);
    }

    #[test]
    fn cast_swallows_losses_but_not_disconnection() {
        let net = transport();
        let hits = Arc::new(AtomicUsize::new(0));
        let hits2 = hits.clone();
        net.register(
            s(2),
            Arc::new(move |_from: SiteId, _frame: Bytes| -> Option<Bytes> {
                hits2.fetch_add(1, Ordering::SeqCst);
                None
            }),
        );
        net.with_topology_mut(|t| {
            t.set_link_symmetric(
                s(1),
                s(2),
                crate::link::LinkModel::ideal().with_loss(1.0),
            );
        });
        // Total loss: cast succeeds but nothing arrives.
        net.cast(s(1), s(2), Bytes::new()).unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 0);
        net.disconnect(s(2));
        assert!(net.cast(s(1), s(2), Bytes::new()).is_err());
    }

    #[test]
    fn nested_calls_from_handlers_work() {
        // Site 2's handler forwards to site 3 — exercising re-entrancy.
        let net = transport();
        let net2 = net.clone();
        net.register(s(3), Arc::new(Echo));
        net.register(
            s(2),
            Arc::new(move |_from: SiteId, frame: Bytes| -> Option<Bytes> {
                net2.call(s(2), s(3), frame).ok()
            }),
        );
        let reply = net.call(s(1), s(2), Bytes::from_static(b"fwd")).unwrap();
        assert_eq!(&reply[..], b"fwd");
        // Four legs were charged.
        assert!(net.clock().elapsed() >= Duration::from_millis(4));
    }

    #[test]
    fn metrics_count_messages_and_bytes() {
        let net = transport();
        net.register(s(2), Arc::new(Echo));
        net.call(s(1), s(2), Bytes::from(vec![0u8; 10])).unwrap();
        let snap = net.metrics().snapshot();
        assert_eq!(snap.messages_sent, 2); // request + reply legs
        assert_eq!(snap.bytes_sent, 20);
        // ... and both were delivered, not dropped.
        assert_eq!(snap.messages_received, 2);
        assert_eq!(snap.bytes_received, 20);
    }

    #[test]
    fn deregister_makes_site_unreachable() {
        let net = transport();
        net.register(s(2), Arc::new(Echo));
        assert!(net.call(s(1), s(2), Bytes::new()).is_ok());
        net.deregister(s(2));
        assert_eq!(
            net.call(s(1), s(2), Bytes::new()).unwrap_err(),
            ObiError::SiteUnreachable(s(2))
        );
    }

    #[test]
    fn scheduled_disconnect_fires_at_virtual_time() {
        let net = transport();
        net.register(s(2), Arc::new(Echo));
        // Disconnect S2 at t = 5 ms, reconnect at t = 20 ms.
        net.schedule_change(5_000_000, ScheduledChange::Disconnect(s(2)));
        net.schedule_change(20_000_000, ScheduledChange::Reconnect(s(2)));
        // Each call costs ~2.2 ms; the first two land before the cut.
        assert!(net.call(s(1), s(2), Bytes::new()).is_ok());
        assert!(net.call(s(1), s(2), Bytes::new()).is_ok());
        // Past 5 ms of virtual time: refused.
        let mut refused = 0;
        let mut restored = false;
        for _ in 0..40 {
            match net.call(s(1), s(2), Bytes::new()) {
                Err(ObiError::Disconnected { .. }) => {
                    refused += 1;
                    // Refusals charge no time; nudge the clock like an
                    // application doing other work would.
                    net.clock().charge_nanos(1_000_000);
                }
                Ok(_) => {
                    restored = true;
                    break;
                }
                Err(e) => panic!("{e}"),
            }
        }
        assert!(refused > 0, "the scheduled disconnect never fired");
        assert!(restored, "the scheduled reconnect never fired");
    }

    #[test]
    fn scheduled_link_change_degrades_transfer_time() {
        let net = transport();
        net.register(s(2), Arc::new(Echo));
        net.schedule_change(
            1,
            ScheduledChange::SetLink(s(1), s(2), crate::conditions::gprs()),
        );
        net.clock().charge_nanos(10);
        let t0 = net.clock().virtual_nanos();
        let _ = net.call(s(1), s(2), Bytes::from(vec![0u8; 100]));
        // GPRS round trip is at least 600 ms.
        assert!(net.clock().virtual_nanos() - t0 > 500_000_000);
    }

    #[test]
    fn schedule_applies_in_time_order() {
        let net = transport();
        net.register(s(2), Arc::new(Echo));
        // Deliberately inserted out of order.
        net.schedule_change(2, ScheduledChange::Reconnect(s(2)));
        net.schedule_change(1, ScheduledChange::Disconnect(s(2)));
        net.clock().charge_nanos(10);
        // Both fired (disconnect then reconnect): traffic flows.
        assert!(net.call(s(1), s(2), Bytes::new()).is_ok());
    }

    #[test]
    fn duplicated_request_executes_handler_twice() {
        let net = transport();
        let hits = Arc::new(AtomicUsize::new(0));
        let hits2 = hits.clone();
        net.register(
            s(2),
            Arc::new(move |_from: SiteId, frame: Bytes| -> Option<Bytes> {
                hits2.fetch_add(1, Ordering::SeqCst);
                Some(frame)
            }),
        );
        net.with_topology_mut(|t| {
            t.set_link_symmetric(s(1), s(2), crate::link::LinkModel::ideal().with_duplicate(1.0));
        });
        net.call(s(1), s(2), Bytes::from_static(b"x")).unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 2, "duplicate must arrive");
        net.cast(s(1), s(2), Bytes::from_static(b"y")).unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 4);
    }

    /// Streams `n` one-byte chunks (values `0..n`) then echoes the request
    /// as the terminal reply.
    struct ChunkEcho(u8);
    impl MessageHandler for ChunkEcho {
        fn handle(&self, _from: SiteId, frame: Bytes) -> Option<Bytes> {
            Some(frame)
        }
        fn handle_stream(
            &self,
            _from: SiteId,
            frame: Bytes,
            sink: &mut dyn FnMut(Bytes),
        ) -> Option<Bytes> {
            for i in 0..self.0 {
                sink(Bytes::from(vec![i]));
            }
            Some(frame)
        }
    }

    #[test]
    fn call_stream_delivers_chunks_in_order_then_the_terminal() {
        let net = transport();
        net.register(s(2), Arc::new(ChunkEcho(4)));
        let mut chunks = Vec::new();
        let reply = net
            .call_stream(s(1), s(2), Bytes::from_static(b"done"), &mut |c| {
                chunks.push(c[0])
            })
            .unwrap();
        assert_eq!(&reply[..], b"done");
        assert_eq!(chunks, vec![0, 1, 2, 3]);
        // Request leg + 4 chunk legs + terminal leg, >= 1 ms latency each.
        assert!(net.clock().elapsed() >= Duration::from_millis(6));
    }

    #[test]
    fn default_call_stream_on_plain_handlers_yields_no_chunks() {
        let net = transport();
        net.register(s(2), Arc::new(Echo));
        let mut chunks = 0usize;
        let reply = net
            .call_stream(s(1), s(2), Bytes::from_static(b"x"), &mut |_| chunks += 1)
            .unwrap();
        assert_eq!(&reply[..], b"x");
        assert_eq!(chunks, 0);
    }

    #[test]
    fn chunk_loss_leaves_holes_but_the_terminal_arrives() {
        let net = transport();
        net.register(s(2), Arc::new(ChunkEcho(100)));
        net.with_topology_mut(|t| {
            t.set_link_symmetric(
                s(1),
                s(2),
                crate::link::LinkModel::ideal().with_chunk_loss(0.3),
            );
        });
        net.reseed(11);
        let mut delivered = 0usize;
        let reply = net.call_stream(s(1), s(2), Bytes::from_static(b"t"), &mut |_| {
            delivered += 1
        });
        assert!(reply.is_ok(), "terminal frame is not subject to chunk loss");
        assert!(delivered < 100, "some chunks must drop");
        assert!(delivered > 40, "most chunks still arrive: {delivered}");
    }

    #[test]
    fn chunk_duplication_delivers_copies_back_to_back() {
        let net = transport();
        net.register(s(2), Arc::new(ChunkEcho(3)));
        net.with_topology_mut(|t| {
            t.set_link_symmetric(
                s(1),
                s(2),
                crate::link::LinkModel::ideal().with_chunk_duplicate(1.0),
            );
        });
        let mut chunks = Vec::new();
        net.call_stream(s(1), s(2), Bytes::from_static(b"t"), &mut |c| {
            chunks.push(c[0])
        })
        .unwrap();
        assert_eq!(chunks, vec![0, 0, 1, 1, 2, 2]);
    }

    #[test]
    fn chunk_reordering_swaps_neighbors_but_loses_nothing() {
        let net = transport();
        net.register(s(2), Arc::new(ChunkEcho(6)));
        net.with_topology_mut(|t| {
            t.set_link_symmetric(
                s(1),
                s(2),
                crate::link::LinkModel::ideal().with_chunk_reorder(0.5),
            );
        });
        net.reseed(3);
        let mut chunks = Vec::new();
        net.call_stream(s(1), s(2), Bytes::from_static(b"t"), &mut |c| {
            chunks.push(c[0])
        })
        .unwrap();
        // Every chunk arrives exactly once, just not necessarily in order.
        let mut sorted = chunks.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4, 5]);
        assert_ne!(chunks, sorted, "seed 3 must actually reorder something");
    }

    #[test]
    fn duplicated_stream_request_runs_the_handler_twice() {
        let net = transport();
        let streams = Arc::new(AtomicUsize::new(0));
        let streams2 = streams.clone();
        struct Counting(Arc<AtomicUsize>);
        impl MessageHandler for Counting {
            fn handle(&self, _from: SiteId, frame: Bytes) -> Option<Bytes> {
                Some(frame)
            }
            fn handle_stream(
                &self,
                _from: SiteId,
                frame: Bytes,
                sink: &mut dyn FnMut(Bytes),
            ) -> Option<Bytes> {
                self.0.fetch_add(1, Ordering::SeqCst);
                sink(Bytes::from_static(b"c"));
                Some(frame)
            }
        }
        net.register(s(2), Arc::new(Counting(streams2)));
        net.with_topology_mut(|t| {
            t.set_link_symmetric(s(1), s(2), crate::link::LinkModel::ideal().with_duplicate(1.0));
        });
        let mut chunks = 0usize;
        net.call_stream(s(1), s(2), Bytes::from_static(b"x"), &mut |_| chunks += 1)
            .unwrap();
        // Both executions ran (exactly the reply-cache hazard), but only the
        // second stream's chunk reached the caller.
        assert_eq!(streams.load(Ordering::SeqCst), 2);
        assert_eq!(chunks, 1);
    }

    #[test]
    fn reordered_casts_arrive_after_later_traffic() {
        let net = transport();
        let order = Arc::new(Mutex::new(Vec::new()));
        let order2 = order.clone();
        net.register(
            s(2),
            Arc::new(move |_from: SiteId, frame: Bytes| -> Option<Bytes> {
                order2.lock().push(frame[0]);
                Some(frame)
            }),
        );
        // First cast is held by a total-reorder link; then the link heals,
        // and a second cast flushes the held frame after itself.
        net.with_topology_mut(|t| {
            t.set_link(s(1), s(2), crate::link::LinkModel::ideal().with_reorder(1.0));
        });
        net.cast(s(1), s(2), Bytes::from_static(b"a")).unwrap();
        assert_eq!(net.held_frames(), 1);
        assert!(order.lock().is_empty());
        net.with_topology_mut(|t| {
            t.set_link(s(1), s(2), crate::link::LinkModel::ideal());
        });
        net.cast(s(1), s(2), Bytes::from_static(b"b")).unwrap();
        assert_eq!(net.held_frames(), 0);
        assert_eq!(&*order.lock(), b"ba", "held frame must arrive late");
    }

    #[test]
    fn explicit_flush_drains_held_frames() {
        let net = transport();
        let hits = Arc::new(AtomicUsize::new(0));
        let hits2 = hits.clone();
        net.register(
            s(2),
            Arc::new(move |_from: SiteId, _frame: Bytes| -> Option<Bytes> {
                hits2.fetch_add(1, Ordering::SeqCst);
                None
            }),
        );
        net.with_topology_mut(|t| {
            t.set_link(s(1), s(2), crate::link::LinkModel::ideal().with_reorder(1.0));
        });
        net.cast(s(1), s(2), Bytes::new()).unwrap();
        net.cast(s(1), s(2), Bytes::new()).unwrap();
        assert_eq!(net.held_frames(), 2);
        net.flush_reordered();
        assert_eq!(net.held_frames(), 0);
        assert_eq!(hits.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn scheduled_asymmetric_partition_cuts_one_direction() {
        let net = transport();
        net.register(s(1), Arc::new(Echo));
        net.register(s(2), Arc::new(Echo));
        net.schedule_change(
            1,
            ScheduledChange::SetPairState(s(1), s(2), crate::link::LinkState::Down),
        );
        net.clock().charge_nanos(10);
        assert!(matches!(
            net.call(s(1), s(2), Bytes::new()),
            Err(ObiError::Disconnected { .. })
        ));
        // The reverse direction still flows (one-way: a call would need the
        // cut direction for its reply leg).
        assert!(!net.is_reachable(s(1), s(2)));
        assert!(net.is_reachable(s(2), s(1)));
        assert!(net.cast(s(2), s(1), Bytes::new()).is_ok());
        net.schedule_change(
            20,
            ScheduledChange::SetPairState(s(1), s(2), crate::link::LinkState::Up),
        );
        net.clock().charge_nanos(100);
        assert!(net.call(s(1), s(2), Bytes::new()).is_ok());
    }

    // ObjId referenced to keep the import graph honest in doc examples.
    #[allow(dead_code)]
    fn _uses(_: ObjId) {}
}
