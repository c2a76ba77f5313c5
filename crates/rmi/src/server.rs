//! The message pump: frames in, [`RmiService`] calls out, replies back.

use crate::fault::{Admit, ReplyCache};
use crate::service::RmiService;
use bytes::Bytes;
use obiwan_net::MessageHandler;
use obiwan_util::trace::{self, SpanGuard};
use obiwan_util::{Clock, ClockMode, Metrics, ObiError, ObjId, RequestId, SiteId};
use obiwan_wire::{Message, WireMode};
use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::Duration;

/// Replicas per frame when a `get` is answered in one reply frame.
const ONE_FRAME: usize = usize::MAX;

/// Decodes incoming frames, dispatches them to an [`RmiService`], and
/// encodes the reply — the skeleton side of every OBIWAN interaction.
///
/// Malformed frames and application failures never poison the pump: they
/// turn into error replies (for requests) or are dropped (for one-way
/// frames), matching how an RMI skeleton surfaces exceptions to the caller
/// rather than crashing the server.
///
/// Every answered request is remembered in a bounded [`ReplyCache`]: a
/// retransmission (client retry, or a network-duplicated frame) of an
/// already-executed request is answered from the cache without running the
/// service again, which is what makes *mutating* requests safe to retry.
pub struct RmiServer {
    service: Arc<dyn RmiService>,
    replies: ReplyCache,
    metrics: Metrics,
    // Timestamps server-side `rpc.handle` spans. Defaults to a private
    // virtual-only clock so standalone servers are traced too; sites that
    // simulate time swap in their own via [`RmiServer::with_clock`].
    clock: Clock,
}

impl std::fmt::Debug for RmiServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RmiServer").finish_non_exhaustive()
    }
}

impl RmiServer {
    /// How long a duplicate request parks on an in-flight execution of the
    /// same id before degrading to executing itself. Only reachable when
    /// the executing worker died without publishing (a panic in a
    /// handler), so generous is fine.
    const IN_FLIGHT_WAIT: Duration = Duration::from_secs(5);

    /// Age past which a still-pending reply slot is presumed abandoned (its
    /// executor died, or a streaming client vanished before the terminal
    /// frame) and reclaimed. Twice the default client call budget: any
    /// legitimate retry of the id has long since given up by then, so no
    /// live waiter can be stranded by the reap.
    const PENDING_REAP_AGE: Duration = Duration::from_secs(60);

    /// Wraps a service in a message pump with default reply-cache bounds.
    pub fn new(service: Arc<dyn RmiService>) -> Self {
        Self::with_metrics(service, Metrics::new())
    }

    /// Like [`RmiServer::new`], but recording into an externally owned
    /// counter set.
    pub fn with_metrics(service: Arc<dyn RmiService>, metrics: Metrics) -> Self {
        RmiServer {
            service,
            replies: ReplyCache::new(ReplyCache::DEFAULT_CAPACITY),
            metrics,
            clock: Clock::new(ClockMode::VirtualOnly),
        }
    }

    /// Replaces the default virtual clock with the site clock, so
    /// `rpc.handle` spans share the site's timeline.
    pub fn with_clock(mut self, clock: Clock) -> Self {
        self.clock = clock;
        self
    }

    /// Server-side metrics (cached replies served, …).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The reply cache backing exactly-once retries.
    pub fn replies(&self) -> &ReplyCache {
        &self.replies
    }

    /// The one admission gate every request passes: asks the [`ReplyCache`]
    /// whether this worker executes the id, answers from the cache, or
    /// parks on a concurrent execution of it. Under concurrent dispatch
    /// (TCP serves each connection on its own thread) two copies of one
    /// request can race; `begin` admits exactly one
    /// executor per id and parks the rest: mutating requests stay
    /// exactly-once.
    ///
    /// `Continue(slot)`: run the request, then [`publish`](Self::publish)
    /// to `slot` (`None` runs uncached). `Break(frame)`: answer with
    /// `frame`, nothing runs. A cached reply is replayed only when it is
    /// the whole answer (`replay_cached`); a hit counts as a cached reply
    /// and marks the span 1 either way.
    fn admit(
        &self,
        from: SiteId,
        request: Option<RequestId>,
        replay_cached: bool,
        span: &mut SpanGuard,
    ) -> ControlFlow<Bytes, Option<RequestId>> {
        let now_nanos = self.clock.elapsed().as_nanos() as u64;
        // Reap slots older than `PENDING_REAP_AGE` first, piggy-backed on
        // frame arrival so an idle server costs nothing.
        let reaped = self.replies.reap_pending(now_nanos, Self::PENDING_REAP_AGE);
        if reaped > 0 {
            self.metrics.add_pending_slots_reaped(reaped as u64);
        }
        // Only cache under ids the sender itself issued: a relayed or
        // spoofed origin must not let one site poison another's retry
        // slots.
        let Some(id) = request.filter(|id| id.origin() == from) else {
            return ControlFlow::Continue(None);
        };
        let elided = match self.replies.begin(id, now_nanos) {
            Admit::Execute => return ControlFlow::Continue(Some(id)),
            Admit::Cached(cached) if replay_cached => ControlFlow::Break(cached),
            Admit::Cached(_) => ControlFlow::Continue(None),
            Admit::Wait(rx) => match rx.recv_timeout(Self::IN_FLIGHT_WAIT) {
                // A concurrent worker executed the same id: its reply.
                Ok(Some(frame)) => ControlFlow::Break(frame),
                // It ran the request but produced no reply frame; answer
                // with the same generic error it did, without re-running.
                Ok(None) => return ControlFlow::Break(no_reply(id)),
                // It vanished without publishing (handler panic): degrade
                // to executing ourselves, uncached.
                Err(_) => return ControlFlow::Continue(None),
            },
        };
        self.metrics.incr_cached_replies();
        span.set_value(1);
        elided
    }

    /// Completes the reply-cache slot [`RmiServer::admit`] handed out, if
    /// it handed one out, waking any duplicates parked on it.
    fn publish(&self, slot: Option<RequestId>, reply: Option<Bytes>) {
        if let Some(id) = slot {
            self.replies.complete(id, reply);
        }
    }

    /// Runs one decoded frame and returns its encoded reply, if it has one.
    /// A batch served to a `get` is written into its reply frame by the
    /// service; only an error reply goes through [`Message::encode`].
    fn dispatch(&self, from: SiteId, msg: Message) -> Option<Bytes> {
        let reply = match msg {
            Message::InvokeRequest {
                request,
                target,
                method,
                args,
            } => Message::InvokeReply {
                request,
                result: self.service.invoke(from, target, &method, args),
            },
            Message::GetRequest {
                request,
                target,
                mode,
            } => {
                return Some(match self.service.get_many(from, &[target], mode, ONE_FRAME) {
                    Ok(batch) => batch.into_reply(request, false),
                    Err(e) => Message::GetReply {
                        request,
                        result: Err(e),
                    }
                    .encode(),
                })
            }
            Message::GetManyRequest {
                request,
                targets,
                mode,
            } => {
                return Some(match self.service.get_many(from, &targets, mode, ONE_FRAME) {
                    Ok(batch) => batch.into_reply(request, true),
                    Err(e) => Message::GetManyReply {
                        request,
                        result: Err(e),
                    }
                    .encode(),
                })
            }
            Message::PutRequest { request, entries } => Message::PutReply {
                request,
                result: self.service.put(from, request, entries),
            },
            Message::NameRequest { request, op } => Message::NameReply {
                request,
                result: self.service.name_op(from, op),
            },
            Message::Subscribe {
                request,
                object,
                push,
            } => Message::Ack {
                request,
                result: self.service.subscribe(from, object, push),
            },
            Message::Ping { request } => Message::Pong { request },
            // Membership: the joiner's identity is the transport-level
            // `from` (like `Ping`), so a relayed frame cannot enroll a
            // third party.
            Message::JoinRequest { request } => Message::JoinAck {
                request,
                result: self.service.join(from),
            },
            Message::HandoffRequest {
                request,
                root,
                entries,
                applied,
            } => Message::HandoffAck {
                request,
                result: self.service.handoff(from, root, entries, applied),
            },
            Message::Leave { site } => {
                // Only a site's own leave drops its cached replies: a
                // relayed notice must not strip another site's exactly-once
                // guarantee.
                if site == from {
                    self.replies.retire_peer(site);
                }
                self.service.leave_notice(from, site);
                return None;
            }
            Message::Invalidate { objects } => {
                self.service.invalidate(from, objects);
                return None;
            }
            Message::UpdatePush { entries } => {
                self.service.update_push(from, entries);
                return None;
            }
            // Handled (cache pruning) in `handle` before dispatch; the arm
            // keeps the match exhaustive.
            Message::AckHorizon { .. } => return None,
            // Every transport hands a stream request to `handle_stream`; one
            // sent as a plain call runs nothing and is answered with the
            // generic no-reply error.
            Message::GetManyStreamRequest { .. } => return None,
            // Replies arriving here are protocol violations; the synchronous
            // transports never produce them, so drop silently.
            Message::InvokeReply { .. }
            | Message::GetReply { .. }
            | Message::GetManyReply { .. }
            | Message::GetManyChunk { .. }
            | Message::GetManyDone { .. }
            | Message::PutReply { .. }
            | Message::NameReply { .. }
            | Message::Ack { .. }
            | Message::Pong { .. }
            | Message::JoinAck { .. }
            | Message::HandoffAck { .. } => return None,
        };
        Some(reply.encode())
    }

    /// Executes one streamed `get_many`: the service writes the merged
    /// batch into `chunk`-replica frames, this stamps each one's
    /// [`Message::GetManyChunk`] header and pushes it through `sink`
    /// (skipping indices below `resume_from`), and returns the encoded
    /// [`Message::GetManyDone`] terminal.
    ///
    /// The [`RmiService::get_many`] call releases every shard guard before
    /// returning its batch, so no lock is ever held across a `sink` send.
    /// Every chunk exists before the first is sunk, so the transports, which
    /// all hold the sunk frames until this returns (TCP sends them and the
    /// terminal in one write), delay none of them.
    /// Only the *terminal* frame enters the [`ReplyCache`] — caching whole
    /// batches per request id would multiply the cache's footprint by the
    /// batch size. A retransmitted or resumed request id therefore
    /// re-executes the (read-only) `get_many` and writes fresh chunks:
    /// sound because the client's version-guarded materialization makes
    /// chunk re-delivery idempotent, and necessary so a resume actually
    /// receives the suffix it is missing rather than a chunkless cached
    /// terminal.
    #[allow(clippy::too_many_arguments)]
    fn stream_get_many(
        &self,
        from: SiteId,
        request: RequestId,
        targets: &[ObjId],
        mode: WireMode,
        chunk: u32,
        resume_from: u32,
        sink: &mut dyn FnMut(Bytes),
    ) -> Bytes {
        let mut span = trace::span(&self.clock, "rpc.handle").with_req(request);
        // An id already answered streams afresh anyway, uncached (see above:
        // a resume needs live chunks, which the cache deliberately does not
        // hold). A concurrent duplicate answers with the executor's
        // terminal, chunkless: the client that cares will resume.
        let slot = match self.admit(from, Some(request), false, &mut span) {
            ControlFlow::Continue(slot) => slot,
            ControlFlow::Break(frame) => return frame,
        };
        let terminal = match self.service.get_many(from, targets, mode, chunk as usize) {
            Ok(batch) => {
                // An empty batch is still one (empty) chunk, so the
                // frontier, which rides on the last, has a frame.
                let total_chunks = batch.chunk_count();
                for frame in batch.into_chunks(request, resume_from) {
                    sink(frame);
                }
                Message::GetManyDone {
                    request,
                    total_chunks,
                    result: Ok(()),
                }
            }
            Err(e) => Message::GetManyDone {
                request,
                total_chunks: 0,
                result: Err(e),
            },
        };
        let frame = terminal.encode();
        self.publish(slot, Some(frame.clone()));
        frame
    }
}

impl MessageHandler for RmiServer {
    fn handle_stream(
        &self,
        from: SiteId,
        frame: Bytes,
        sink: &mut dyn FnMut(Bytes),
    ) -> Option<Bytes> {
        // Only stream requests take the chunked path; every other frame —
        // including undecodable garbage — goes through the one-shot pump.
        if let Ok(Message::GetManyStreamRequest {
            request,
            targets,
            mode,
            chunk,
            resume_from,
        }) = Message::decode(&frame)
        {
            return Some(
                self.stream_get_many(from, request, &targets, mode, chunk, resume_from, sink),
            );
        }
        self.handle(from, frame)
    }

    fn handle(&self, from: SiteId, frame: Bytes) -> Option<Bytes> {
        match Message::decode(&frame) {
            Ok(Message::AckHorizon { up_to }) => {
                self.replies.ack_horizon(from, up_to);
                self.service.ack_horizon(from, up_to);
                None
            }
            Ok(msg) => {
                let is_request = msg.is_request();
                let request = msg.request_id();
                let mut span = trace::span(&self.clock, "rpc.handle");
                if let Some(id) = request {
                    span = span.with_req(id);
                }
                let slot = match self.admit(from, request, true, &mut span) {
                    ControlFlow::Continue(slot) => slot,
                    ControlFlow::Break(frame) => return Some(frame),
                };
                let reply = self.dispatch(from, msg);
                // One-way frames (and stray replies, which do carry a
                // request id) publish `None`, releasing the in-flight slot
                // if we took it.
                self.publish(slot, reply.clone());
                match reply {
                    // A request must always be answered; if dispatch produced
                    // nothing (cannot happen for well-formed requests), send
                    // a generic error rather than stalling the caller.
                    None if is_request => request.map(no_reply),
                    reply => reply,
                }
            }
            Err(e) => {
                // Can't correlate a reply without a request id; answer with
                // a null-correlated Ack so callers at least unblock. The
                // decode error is preserved in the payload.
                let request =
                    obiwan_util::RequestId::new(SiteId::new(u32::MAX), 0);
                Some(
                    Message::Ack {
                        request,
                        result: Err(e),
                    }
                    .encode(),
                )
            }
        }
    }
}

/// The generic error answering a request whose handler produced no reply
/// frame.
fn no_reply(request: RequestId) -> Bytes {
    Message::Ack {
        request,
        result: Err(ObiError::Internal("request produced no reply".into())),
    }
    .encode()
}

#[cfg(test)]
/// The unit tests' service: answers only `Ping` and echoes `Invoke` args.
#[derive(Debug, Default)]
pub(crate) struct EchoService;

#[cfg(test)]
impl RmiService for EchoService {
    fn invoke(
        &self,
        _from: SiteId,
        _target: obiwan_util::ObjId,
        _method: &str,
        args: obiwan_wire::ObiValue,
    ) -> obiwan_util::Result<obiwan_wire::ObiValue> {
        Ok(args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obiwan_util::{ObjId, RequestId};
    use obiwan_wire::{BatchWriter, FrontierEdge, ObiValue, WrittenBatch};

    fn server() -> RmiServer {
        RmiServer::new(Arc::new(EchoService))
    }

    fn rid() -> RequestId {
        RequestId::new(SiteId::new(1), 1)
    }

    fn oid() -> ObjId {
        ObjId::new(SiteId::new(2), 1)
    }

    #[test]
    fn ping_yields_pong() {
        let s = server();
        let frame = Message::Ping { request: rid() }.encode();
        let reply = s.handle(SiteId::new(1), frame).unwrap();
        assert_eq!(
            Message::decode(&reply).unwrap(),
            Message::Pong { request: rid() }
        );
    }

    #[test]
    fn invoke_routes_to_service() {
        let s = server();
        let frame = Message::InvokeRequest {
            request: rid(),
            target: oid(),
            method: "echo".into(),
            args: ObiValue::I64(5),
        }
        .encode();
        let reply = Message::decode(&s.handle(SiteId::new(1), frame).unwrap()).unwrap();
        match reply {
            Message::InvokeReply { request, result } => {
                assert_eq!(request, rid());
                assert_eq!(result.unwrap(), ObiValue::I64(5));
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn unsupported_request_yields_error_reply_not_silence() {
        let s = server();
        let frame = Message::GetRequest {
            request: rid(),
            target: oid(),
            mode: obiwan_wire::WireMode::Transitive,
        }
        .encode();
        let reply = Message::decode(&s.handle(SiteId::new(1), frame).unwrap()).unwrap();
        match reply {
            Message::GetReply { result, .. } => assert!(result.is_err()),
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn one_way_frames_yield_no_reply() {
        let s = server();
        let frame = Message::Invalidate { objects: vec![oid()] }.encode();
        assert!(s.handle(SiteId::new(1), frame).is_none());
    }

    #[test]
    fn garbage_yields_decode_error_reply() {
        let s = server();
        let reply = s.handle(SiteId::new(1), Bytes::from_static(b"\xff\xff")).unwrap();
        match Message::decode(&reply).unwrap() {
            Message::Ack { result, .. } => {
                assert!(matches!(result, Err(obiwan_util::ObiError::Decode(_))));
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn stray_replies_are_dropped() {
        let s = server();
        let frame = Message::Pong { request: rid() }.encode();
        assert!(s.handle(SiteId::new(1), frame).is_none());
    }

    /// A service whose `invoke` returns how many times it has run —
    /// any re-execution is visible in the reply.
    #[derive(Debug, Default)]
    struct CountingService {
        calls: std::sync::atomic::AtomicU64,
    }

    impl RmiService for CountingService {
        fn invoke(
            &self,
            _from: SiteId,
            _target: ObjId,
            _method: &str,
            _args: ObiValue,
        ) -> obiwan_util::Result<ObiValue> {
            let n = self
                .calls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Ok(ObiValue::I64(n as i64 + 1))
        }
    }

    fn invoke_frame(seq: u64) -> Bytes {
        Message::InvokeRequest {
            request: RequestId::new(SiteId::new(1), seq),
            target: oid(),
            method: "count".into(),
            args: ObiValue::Null,
        }
        .encode()
    }

    #[test]
    fn duplicate_request_is_served_from_the_reply_cache() {
        let svc = Arc::new(CountingService::default());
        let s = RmiServer::new(svc.clone());
        let first = s.handle(SiteId::new(1), invoke_frame(1)).unwrap();
        let second = s.handle(SiteId::new(1), invoke_frame(1)).unwrap();
        // Byte-identical replies, one execution, one cache hit.
        assert_eq!(first, second);
        assert_eq!(svc.calls.load(std::sync::atomic::Ordering::Relaxed), 1);
        assert_eq!(s.metrics().snapshot().cached_replies, 1);
        // A fresh id executes again.
        s.handle(SiteId::new(1), invoke_frame(2)).unwrap();
        assert_eq!(svc.calls.load(std::sync::atomic::Ordering::Relaxed), 2);
    }

    #[test]
    fn only_a_sites_own_leave_drops_its_cached_replies() {
        let s = server();
        s.handle(SiteId::new(1), invoke_frame(1)).unwrap();
        assert_eq!(s.replies().len(), 1);
        let leave = Message::Leave {
            site: SiteId::new(1),
        }
        .encode();
        assert!(s.handle(SiteId::new(2), leave.clone()).is_none());
        assert_eq!(s.replies().len(), 1, "a relayed leave dropped the reply");
        assert!(s.handle(SiteId::new(1), leave).is_none());
        assert!(s.replies().is_empty());
    }

    #[test]
    fn ack_horizon_prunes_cached_replies() {
        let svc = Arc::new(CountingService::default());
        let s = RmiServer::new(svc.clone());
        s.handle(SiteId::new(1), invoke_frame(1)).unwrap();
        assert_eq!(s.replies().len(), 1);
        let ack = Message::AckHorizon { up_to: 1 }.encode();
        assert!(s.handle(SiteId::new(1), ack).is_none());
        assert!(s.replies().is_empty());
        // After pruning, the same id re-executes — the client promised
        // never to send it again, so this only happens under test.
        s.handle(SiteId::new(1), invoke_frame(1)).unwrap();
        assert_eq!(svc.calls.load(std::sync::atomic::Ordering::Relaxed), 2);
    }

    #[test]
    fn mismatched_origin_is_never_cached() {
        let svc = Arc::new(CountingService::default());
        let s = RmiServer::new(svc.clone());
        // Site 3 sends a request stamped with site 1's origin: answered,
        // but not cached under site 1's retry slot.
        s.handle(SiteId::new(3), invoke_frame(1)).unwrap();
        assert!(s.replies().is_empty());
        s.handle(SiteId::new(3), invoke_frame(1)).unwrap();
        assert_eq!(svc.calls.load(std::sync::atomic::Ordering::Relaxed), 2);
    }

    /// A sender that never acknowledges its settled prefix (no `AckHorizon`
    /// frames at all) must still leave the server's reply cache within its
    /// LRU bound.
    #[test]
    fn unacked_traffic_keeps_the_reply_cache_within_its_bound() {
        let svc = Arc::new(CountingService::default());
        let capacity = ReplyCache::DEFAULT_CAPACITY;
        let s = RmiServer::new(svc);
        for seq in 1..=capacity as u64 + 500 {
            s.handle(SiteId::new(1), invoke_frame(seq)).unwrap();
            assert!(
                s.replies().len() <= capacity,
                "cache holds {} replies after {seq} unacked requests",
                s.replies().len()
            );
        }
        assert_eq!(s.replies().len(), capacity);
    }

    #[test]
    fn decode_failure_acks_are_not_cached() {
        let s = server();
        s.handle(SiteId::new(1), Bytes::from_static(b"\xff\xff")).unwrap();
        assert!(s.replies().is_empty());
    }

    /// The race `begin`/`complete` closes: many copies of one mutating
    /// request dispatched concurrently (one serving thread per TCP
    /// connection) must execute exactly once, every copy receiving the same
    /// reply bytes.
    #[test]
    fn concurrent_duplicates_execute_exactly_once() {
        let svc = Arc::new(CountingService::default());
        let s = Arc::new(RmiServer::new(svc.clone()));
        for round in 0..20u64 {
            let barrier = Arc::new(std::sync::Barrier::new(4));
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let s = s.clone();
                    let barrier = barrier.clone();
                    std::thread::spawn(move || {
                        barrier.wait();
                        s.handle(SiteId::new(1), invoke_frame(round + 1)).unwrap()
                    })
                })
                .collect();
            let replies: Vec<Bytes> =
                handles.into_iter().map(|h| h.join().unwrap()).collect();
            assert!(
                replies.iter().all(|r| *r == replies[0]),
                "round {round}: duplicates saw divergent replies"
            );
            assert_eq!(
                svc.calls.load(std::sync::atomic::Ordering::Relaxed),
                round + 1,
                "round {round}: a duplicate re-executed the handler"
            );
        }
        // 20 rounds x 3 losing duplicates, all served without execution.
        assert_eq!(s.metrics().snapshot().cached_replies, 60);
    }

    /// Regression for the pending-slot leak: a streaming client that dies
    /// before its terminal frame (or a handler that panics) leaves a
    /// `begin`ed slot that LRU pressure can never evict. The age-based reap
    /// must reclaim it so the id is admitted afresh.
    #[test]
    fn abandoned_pending_slot_is_reaped_and_the_id_re_executes() {
        let svc = Arc::new(CountingService::default());
        let clock = Clock::new(ClockMode::VirtualOnly);
        let s = RmiServer::new(svc.clone()).with_clock(clock.clone());
        // Forge the leak: an executor began but died before `complete`.
        let id = RequestId::new(SiteId::new(1), 1);
        assert!(matches!(s.replies().begin(id, 0), Admit::Execute));
        assert_eq!(s.replies().pending_len(), 1);
        // Unrelated traffic inside the age window must not reap it.
        s.handle(SiteId::new(1), invoke_frame(2)).unwrap();
        assert_eq!(s.replies().pending_len(), 1);
        // Past the horizon the next arrival reaps the slot, and the retried
        // id executes instead of parking on a reply that will never come.
        clock.charge(RmiServer::PENDING_REAP_AGE + Duration::from_secs(1));
        let reply = s.handle(SiteId::new(1), invoke_frame(1)).unwrap();
        assert!(matches!(
            Message::decode(&reply).unwrap(),
            Message::InvokeReply { result: Ok(_), .. }
        ));
        assert_eq!(s.replies().pending_len(), 0);
        assert_eq!(s.metrics().snapshot().pending_slots_reaped, 1);
        assert_eq!(svc.calls.load(std::sync::atomic::Ordering::Relaxed), 2);
    }

    #[test]
    fn join_and_handoff_dispatch_to_the_service() {
        let s = server();
        // EchoService keeps the trait defaults: joins are refused, handoffs
        // target no object — but both must answer with the paired ack.
        let reply = s
            .handle(SiteId::new(1), Message::JoinRequest { request: rid() }.encode())
            .unwrap();
        match Message::decode(&reply).unwrap() {
            Message::JoinAck { request, result } => {
                assert_eq!(request, rid());
                assert!(result.is_err());
            }
            other => panic!("unexpected reply {other:?}"),
        }
        // A fresh id: the JoinAck above is already cached under `rid()`.
        let hid = RequestId::new(SiteId::new(1), 2);
        let reply = s
            .handle(
                SiteId::new(1),
                Message::HandoffRequest {
                    request: hid,
                    root: oid(),
                    entries: Vec::new(),
                    applied: Vec::new(),
                }
                .encode(),
            )
            .unwrap();
        match Message::decode(&reply).unwrap() {
            Message::HandoffAck { request, result } => {
                assert_eq!(request, hid);
                assert!(result.is_err());
            }
            other => panic!("unexpected reply {other:?}"),
        }
        // Leave is one-way, and stray membership acks are dropped.
        assert!(s
            .handle(SiteId::new(1), Message::Leave { site: SiteId::new(9) }.encode())
            .is_none());
        assert!(s
            .handle(
                SiteId::new(1),
                Message::JoinAck {
                    request: RequestId::new(SiteId::new(1), 99),
                    result: Err(obiwan_util::ObiError::Internal("stray".into())),
                }
                .encode(),
            )
            .is_none());
    }

    /// A provider service answering `get_many` with a fixed-size batch and
    /// a two-edge frontier, counting executions so tests can see when a
    /// stream re-ran it.
    #[derive(Debug)]
    struct BatchService {
        objects: usize,
        calls: std::sync::atomic::AtomicU64,
    }

    impl BatchService {
        fn new(objects: usize) -> Self {
            BatchService {
                objects,
                calls: std::sync::atomic::AtomicU64::new(0),
            }
        }
    }

    impl crate::service::RmiService for BatchService {
        fn invoke(
            &self,
            _from: SiteId,
            _target: ObjId,
            _method: &str,
            _args: ObiValue,
        ) -> obiwan_util::Result<ObiValue> {
            Ok(ObiValue::Null)
        }

        fn get_many(
            &self,
            _from: SiteId,
            targets: &[ObjId],
            _mode: WireMode,
            per_chunk: usize,
        ) -> obiwan_util::Result<WrittenBatch> {
            self.calls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let root = targets.first().copied().unwrap_or_else(oid);
            let mut writer = BatchWriter::new(per_chunk);
            for i in 0..self.objects {
                let id = ObjId::new(SiteId::new(2), i as u64 + 1);
                writer.push(id, "Node", 1, |enc| enc.put_u8(b's'));
            }
            let frontier = [900, 901].map(|local| FrontierEdge {
                target: ObjId::new(SiteId::new(2), local),
                class: "Node".into(),
            });
            Ok(writer.finish(root, &frontier, None))
        }
    }

    fn stream_frame(seq: u64, chunk: u32, resume_from: u32) -> Bytes {
        Message::GetManyStreamRequest {
            request: RequestId::new(SiteId::new(1), seq),
            targets: vec![oid()],
            mode: obiwan_wire::WireMode::Incremental { batch: 8 },
            chunk,
            resume_from,
        }
        .encode()
    }

    fn collect_stream(s: &RmiServer, frame: Bytes) -> (Vec<Message>, Message) {
        let mut chunks = Vec::new();
        let terminal = s
            .handle_stream(SiteId::new(1), frame, &mut |raw| {
                chunks.push(Message::decode(&raw).unwrap());
            })
            .expect("stream requests always answer");
        (chunks, Message::decode(&terminal).unwrap())
    }

    #[test]
    fn stream_request_slices_chunks_with_the_frontier_on_the_last() {
        let s = RmiServer::new(Arc::new(BatchService::new(20)));
        let (chunks, terminal) = collect_stream(&s, stream_frame(1, 8, 0));
        // 20 objects at 8 per chunk: 8 + 8 + 4.
        assert_eq!(chunks.len(), 3);
        for (i, c) in chunks.iter().enumerate() {
            match c {
                Message::GetManyChunk {
                    chunk_index,
                    total_hint,
                    batch,
                    ..
                } => {
                    assert_eq!(*chunk_index, i as u32);
                    assert_eq!(*total_hint, 3);
                    let want = if i == 2 { 4 } else { 8 };
                    assert_eq!(batch.replicas.len(), want, "chunk {i}");
                    if i == 2 {
                        assert_eq!(batch.frontier.len(), 2, "frontier rides the last chunk");
                    } else {
                        assert!(batch.frontier.is_empty(), "chunk {i} must carry no frontier");
                    }
                }
                other => panic!("unexpected stream frame {other:?}"),
            }
        }
        match terminal {
            Message::GetManyDone {
                total_chunks,
                result,
                ..
            } => {
                assert_eq!(total_chunks, 3);
                assert!(result.is_ok());
            }
            other => panic!("unexpected terminal {other:?}"),
        }
    }

    #[test]
    fn resumed_stream_sends_only_the_missing_suffix() {
        let svc = Arc::new(BatchService::new(20));
        let s = RmiServer::new(svc.clone());
        let (first, _) = collect_stream(&s, stream_frame(1, 8, 0));
        assert_eq!(first.len(), 3);
        // The retry (same id, resume_from 2) hits the reply cache — an
        // elided *cached* execution — but still re-streams fresh frames for
        // the suffix, because the cache holds only the terminal.
        let (resumed, terminal) = collect_stream(&s, stream_frame(1, 8, 2));
        assert_eq!(resumed.len(), 1, "only chunk 2 is re-sent");
        assert!(matches!(
            resumed[0],
            Message::GetManyChunk { chunk_index: 2, .. }
        ));
        assert!(matches!(
            terminal,
            Message::GetManyDone { total_chunks: 3, result: Ok(()), .. }
        ));
        assert_eq!(s.metrics().snapshot().cached_replies, 1);
        assert_eq!(svc.calls.load(std::sync::atomic::Ordering::Relaxed), 2);
        // Only the terminal was cached: one entry however many chunks flowed.
        assert_eq!(s.replies().len(), 1);
    }

    /// The stream edition of `concurrent_duplicates_execute_exactly_once`:
    /// a duplicate of a stream request arriving while the first copy is
    /// still executing parks on the in-flight slot and answers with the
    /// executor's terminal, chunkless, without running the service.
    #[test]
    fn concurrent_stream_duplicate_parks_and_takes_the_executors_terminal() {
        /// `get_many` announces it is running, then waits to be released.
        struct GatedService {
            inner: BatchService,
            entered: crossbeam::channel::Sender<()>,
            release: crossbeam::channel::Receiver<()>,
        }
        impl crate::service::RmiService for GatedService {
            fn get_many(
                &self,
                from: SiteId,
                targets: &[ObjId],
                mode: WireMode,
                per_chunk: usize,
            ) -> obiwan_util::Result<WrittenBatch> {
                self.entered.send(()).unwrap();
                self.release.recv().unwrap();
                self.inner.get_many(from, targets, mode, per_chunk)
            }
        }
        let (entered_tx, entered_rx) = crossbeam::channel::bounded(1);
        let (release_tx, release_rx) = crossbeam::channel::bounded(1);
        let svc = Arc::new(GatedService {
            inner: BatchService::new(20),
            entered: entered_tx,
            release: release_rx,
        });
        let s = RmiServer::new(svc.clone());
        let id = RequestId::new(SiteId::new(1), 1);
        let ((exec_chunks, exec_terminal), (dup_chunks, dup_terminal)) =
            std::thread::scope(|scope| {
                let executor = scope.spawn(|| collect_stream(&s, stream_frame(1, 8, 0)));
                entered_rx.recv().unwrap();
                // The executor is inside the service, its slot in flight.
                let duplicate = scope.spawn(|| collect_stream(&s, stream_frame(1, 8, 0)));
                while s.replies().waiters_on(id) == 0 {
                    std::thread::yield_now();
                }
                release_tx.send(()).unwrap();
                (executor.join().unwrap(), duplicate.join().unwrap())
            });
        assert_eq!(exec_chunks.len(), 3);
        assert!(dup_chunks.is_empty(), "the parked duplicate streams nothing");
        assert!(matches!(
            dup_terminal,
            Message::GetManyDone { total_chunks: 3, result: Ok(()), .. }
        ));
        assert_eq!(dup_terminal, exec_terminal);
        assert_eq!(svc.inner.calls.load(std::sync::atomic::Ordering::Relaxed), 1);
        assert_eq!(s.metrics().snapshot().cached_replies, 1);
        assert_eq!(s.replies().pending_len(), 0);
    }

    #[test]
    fn empty_batch_streams_one_chunk_carrying_the_frontier() {
        let s = RmiServer::new(Arc::new(BatchService::new(0)));
        let (chunks, terminal) = collect_stream(&s, stream_frame(1, 8, 0));
        assert_eq!(chunks.len(), 1);
        match &chunks[0] {
            Message::GetManyChunk { batch, total_hint, .. } => {
                assert!(batch.replicas.is_empty());
                assert_eq!(batch.frontier.len(), 2);
                assert_eq!(*total_hint, 1);
            }
            other => panic!("unexpected frame {other:?}"),
        }
        assert!(matches!(
            terminal,
            Message::GetManyDone { total_chunks: 1, .. }
        ));
    }

    /// A stream request is answered only through `handle_stream`: sent
    /// as a plain call, it runs no `get_many`, caches nothing and gets the
    /// generic no-reply error.
    #[test]
    fn a_stream_request_through_the_one_shot_pump_runs_nothing() {
        let svc = Arc::new(BatchService::new(20));
        let s = RmiServer::new(svc.clone());
        let reply = s.handle(SiteId::new(1), stream_frame(1, 8, 0)).unwrap();
        assert_eq!(reply, no_reply(RequestId::new(SiteId::new(1), 1)));
        assert_eq!(svc.calls.load(std::sync::atomic::Ordering::Relaxed), 0);
        assert!(s.replies().is_empty(), "no reply-cache entry");
        assert_eq!(s.replies().pending_len(), 0);
    }

    #[test]
    fn non_stream_frames_fall_through_handle_stream_unchanged() {
        let s = server();
        let mut chunks = Vec::new();
        let reply = s
            .handle_stream(
                SiteId::new(1),
                Message::Ping { request: rid() }.encode(),
                &mut |raw| chunks.push(raw),
            )
            .unwrap();
        assert!(chunks.is_empty());
        assert_eq!(
            Message::decode(&reply).unwrap(),
            Message::Pong { request: rid() }
        );
    }

    /// `rpc.handle` spans record even on a server that was never given a
    /// site clock: the pump owns a virtual-only fallback.
    #[test]
    fn handle_traces_spans_without_an_attached_clock() {
        if !trace::trace_enabled() {
            return;
        }
        let s = server();
        s.handle(SiteId::new(1), Message::Ping { request: rid() }.encode())
            .unwrap();
        let recorded = trace::events()
            .iter()
            .any(|e| e.name == "rpc.handle" && e.req == Some(rid()));
        assert!(recorded, "no rpc.handle span reached the trace ring");
    }
}
