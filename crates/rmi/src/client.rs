//! The stub-side client API.

use crate::fault::{BreakerState, CircuitBreaker, Deadline, HorizonTracker, RetryPolicy};
use crate::remote_ref::RemoteRef;
use obiwan_net::Transport;
use obiwan_util::trace;
use obiwan_util::{
    Clock, ClockMode, CostModel, DetRng, Metrics, ObiError, ObjId, RequestId, Result, SiteId,
};
use obiwan_wire::{JoinInfo, Message, NameOp, ObiValue, ReplicaBatch, ReplicaState, WireMode};
use obiwan_util::sync::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Objects per chunk frame of a streamed demand, and the batch step above
/// which [`RmiClient::demand`] streams at all.
///
/// Small enough that the first chunk materializes within one link delay of
/// arriving, large enough that per-frame overhead stays a rounding error on
/// paper-testbed batches. Smaller batches keep the cheaper one-shot
/// exchange.
const STREAM_CHUNK_OBJECTS: u32 = 8;

/// What one attempt of a call came to (see [`RmiClient::retrying`]).
enum Attempt<T> {
    /// The call is over: a reply in hand, or an error retrying cannot help
    /// (disconnection, refusal, a server-side failure).
    Done(Result<T>),
    /// The exchange fell short (a frame lost or timed out, a stream left
    /// with a hole): retry, or fail with this once the budget is spent.
    Retry(ObiError),
}

impl<T> Attempt<T> {
    /// Classifies a transport outcome: loss and timeouts are retryable,
    /// anything else surfaces immediately.
    fn of(sent: Result<T>) -> Self {
        match sent {
            Err(e @ (ObiError::MessageLost { .. } | ObiError::Timeout { .. })) => Attempt::Retry(e),
            done => Attempt::Done(done),
        }
    }
}

/// Issues OBIWAN requests from one site and correlates their replies.
///
/// One client exists per site; it plays the role of every generated RMI stub
/// in the original system. CPU dispatch and marshalling costs are charged to
/// the shared [`Clock`] through the [`CostModel`] (a no-op under
/// [`ClockMode::Hybrid`](obiwan_util::ClockMode), where real CPU time flows
/// instead).
///
/// Every request — including mutating `invoke` and `put` — is retried on
/// message loss or timeout under a [`RetryPolicy`] with jittered backoff
/// and a per-call [`Deadline`] budget: the server's reply cache guarantees
/// a retransmitted request id is never re-executed, so retries have
/// exactly-once effect. A per-peer [`CircuitBreaker`] turns repeated
/// call-level failures into immediate `SiteUnreachable` errors without
/// touching the network, until a cooldown admits a probe again.
pub struct RmiClient {
    site: SiteId,
    transport: Arc<dyn Transport>,
    clock: Clock,
    costs: CostModel,
    metrics: Metrics,
    seq: AtomicU64,
    policy: Mutex<RetryPolicy>,
    breaker: CircuitBreaker,
    horizon: HorizonTracker,
    backoff_rng: Mutex<DetRng>,
}

impl std::fmt::Debug for RmiClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RmiClient").field("site", &self.site).finish()
    }
}

impl RmiClient {
    /// Creates a client for `site` over `transport`.
    pub fn new(
        site: SiteId,
        transport: Arc<dyn Transport>,
        clock: Clock,
        costs: CostModel,
    ) -> Self {
        Self::with_metrics(site, transport, clock, costs, Metrics::new())
    }

    /// Like [`RmiClient::new`], but recording into an externally owned
    /// counter set (so a process and its client share one metrics view).
    pub fn with_metrics(
        site: SiteId,
        transport: Arc<dyn Transport>,
        clock: Clock,
        costs: CostModel,
        metrics: Metrics,
    ) -> Self {
        RmiClient {
            site,
            transport,
            clock,
            costs,
            metrics,
            seq: AtomicU64::new(1),
            policy: Mutex::new(RetryPolicy::default()),
            breaker: CircuitBreaker::default(),
            horizon: HorizonTracker::new(),
            // Deterministic per-site stream so simulations replay exactly.
            backoff_rng: Mutex::new(DetRng::new(0x0BAC_00FF ^ site.as_u32() as u64)),
        }
    }

    /// Sets how many times requests are retried after a lost message or
    /// timeout. Applies to *all* requests — the server's reply cache makes
    /// retrying mutating requests (`invoke`, `put`) safe, with
    /// exactly-once effect.
    pub fn set_retries(&self, retries: u64) {
        self.policy.lock().max_retries = retries;
    }

    /// Replaces the whole retry policy (retries, deadline budget, backoff).
    pub fn set_rpc_policy(&self, policy: RetryPolicy) {
        *self.policy.lock() = policy;
    }

    /// The retry policy currently in force.
    pub fn rpc_policy(&self) -> RetryPolicy {
        *self.policy.lock()
    }

    /// The per-peer circuit breaker.
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    /// Current breaker state for `peer` (applying the open → half-open
    /// transition if its cooldown has elapsed).
    pub fn breaker_state(&self, peer: SiteId) -> BreakerState {
        self.breaker.state(peer, self.now_nanos())
    }

    fn now_nanos(&self) -> u64 {
        self.clock.elapsed().as_nanos() as u64
    }

    /// The site this client issues requests from.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// Client-side metrics (RMI counts, bytes marshalled).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn next_request(&self) -> RequestId {
        RequestId::new(self.site, self.seq.fetch_add(1, Ordering::Relaxed))
    }

    /// Allocates a request id without sending anything. The durability
    /// layer reserves the id, logs a put intent under it, and only then
    /// sends via [`RmiClient::put_with_request`] — so a crash-and-replay
    /// reuses the same id and the server's reply cache deduplicates it.
    /// The id stays unsettled, holding the acknowledgement horizon back,
    /// until the caller passes it to [`RmiClient::settle`].
    pub fn reserve_request(&self) -> RequestId {
        self.next_request()
    }

    /// The next unissued request sequence number (persisted as the client
    /// watermark so recovery can restore a non-colliding counter).
    pub fn request_seq(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Restores the request counter after recovery. Only ever moves the
    /// counter forward: sequence numbers already handed out stay unique.
    pub fn restore_request_seq(&self, next_seq: u64) {
        self.seq.fetch_max(next_seq, Ordering::Relaxed);
    }

    /// The client's settled-reply horizon tracker (persisted by the
    /// durability layer, restored after a crash).
    pub fn horizon_tracker(&self) -> &HorizonTracker {
        &self.horizon
    }

    fn round_trip(&self, to: SiteId, msg: &Message) -> Result<Message> {
        self.round_trip_inner(to, msg, None, true)
    }

    /// One call under the retry machinery: breaker admission, then
    /// `attempt` (told how many retries preceded it) re-run with jittered
    /// backoff while it reports [`Attempt::Retry`], all bounded by
    /// `deadline` (or the policy's default budget when `None`). One
    /// finished call is one breaker event and, when `settles`, settles
    /// `request`, however many attempts it took.
    fn retrying<T>(
        &self,
        to: SiteId,
        request: Option<RequestId>,
        settles: bool,
        deadline: Option<Deadline>,
        attempt: &mut dyn FnMut(u64) -> Attempt<T>,
    ) -> Result<T> {
        let mut span = trace::span(&self.clock, "rpc.round_trip").with_site(self.site);
        if let Some(id) = request {
            span = span.with_req(id);
        }
        let policy = *self.policy.lock();
        let deadline =
            deadline.unwrap_or_else(|| Deadline::after(&self.clock, policy.call_budget));
        if !self.breaker.admit(to, self.now_nanos()) {
            // Open breaker: fail fast, no frame, no clock charge.
            self.metrics.incr_breaker_fast_fails();
            return Err(ObiError::SiteUnreachable(to));
        }
        self.clock.charge_cpu(self.costs.rmi_dispatch);
        let mut retries = 0u64;
        let mut backoff = policy.base_backoff;
        let outcome = loop {
            let shortfall = match attempt(retries) {
                Attempt::Done(result) => break result,
                Attempt::Retry(e) => e,
            };
            if retries >= policy.max_retries {
                break Err(shortfall);
            }
            if deadline.expired(&self.clock) {
                break Err(ObiError::Timeout { to });
            }
            retries += 1;
            self.metrics.incr_rpc_retries();
            backoff = policy.next_backoff(backoff, &mut self.backoff_rng.lock());
            self.backoff_sleep(backoff.min(deadline.remaining(&self.clock)));
        };
        // The span's value is the number of retries this call needed.
        span.set_value(retries);
        match &outcome {
            Ok(_) => self.breaker.on_success(to),
            Err(e) if e.is_connectivity() => self.breaker.on_failure(to, self.now_nanos()),
            Err(_) => {}
        }
        // The id is settled either way — this client never resends it —
        // so the server may prune its cached reply.
        if let Some(id) = request.filter(|_| settles) {
            self.settle(to, id);
        }
        outcome
    }

    /// The one-shot exchange: `msg` out (marshalled once, re-sent per
    /// attempt), one reply frame back.
    fn round_trip_inner(
        &self,
        to: SiteId,
        msg: &Message,
        deadline: Option<Deadline>,
        settles: bool,
    ) -> Result<Message> {
        let frame = msg.encode();
        let reply = self.retrying(to, msg.request_id(), settles, deadline, &mut |retries| {
            if retries == 0 {
                self.clock.charge_cpu(self.costs.serialize(frame.len()));
            }
            self.metrics.add_bytes_sent(frame.len() as u64);
            Attempt::of(self.transport.call(self.site, to, frame.clone()))
        })?;
        self.clock.charge_cpu(self.costs.serialize(reply.len()));
        self.metrics.add_bytes_received(reply.len() as u64);
        Message::decode(&reply)
    }

    /// Backoff between attempts: virtual charge in simulation, a real
    /// sleep when real time is flowing.
    fn backoff_sleep(&self, d: Duration) {
        match self.clock.mode() {
            ClockMode::VirtualOnly => self.clock.charge(d),
            ClockMode::Hybrid => std::thread::sleep(d),
        }
    }

    /// Records `id` as settled — never to be sent again — and, when an
    /// announcement is due, tells the peer how far it may prune its reply
    /// cache. Best-effort: a lost announcement only delays pruning (LRU
    /// bounds the cache anyway). Every call settles its own id when it
    /// ends, except [`RmiClient::put_with_request`], whose caller does.
    pub fn settle(&self, to: SiteId, id: RequestId) {
        if let Some(up_to) = self.horizon.settle(id.seq()) {
            let _ = self
                .transport
                .cast(self.site, to, Message::AckHorizon { up_to }.encode());
        }
    }

    fn check_correlation(&self, sent: RequestId, got: Option<RequestId>) -> Result<()> {
        match got {
            Some(id) if id == sent => Ok(()),
            other => Err(ObiError::Internal(format!(
                "reply correlation mismatch: sent {sent}, got {other:?}"
            ))),
        }
    }

    /// Remote method invocation: the paper's RMI path through a proxy-in.
    pub fn invoke(
        &self,
        target: &RemoteRef,
        method: &str,
        args: ObiValue,
    ) -> Result<ObiValue> {
        let request = self.next_request();
        self.metrics.incr_rmi();
        let reply = self.round_trip(
            target.host(),
            &Message::InvokeRequest {
                request,
                target: target.id(),
                method: method.to_owned(),
                args,
            },
        )?;
        match reply {
            Message::InvokeReply { request: id, result } => {
                self.check_correlation(request, Some(id))?;
                result
            }
            other => Err(unexpected("InvokeReply", &other)),
        }
    }

    /// The demand entry point (`IDemandee::demand`, paper §2.2): asks `host`
    /// for the replica batch behind `targets` and picks the exchange.
    ///
    /// A caller that can take the batch in pieces passes `on_chunk`. An
    /// incremental batch above `STREAM_CHUNK_OBJECTS` (8) per target then
    /// arrives as a stream of chunk frames, each handed to `on_chunk` (in
    /// chunk order, exactly once) as it comes off the wire, so chunk *k*
    /// materializes while chunk *k + 1* is in flight; `Ok(None)` is
    /// returned. Every other demand is one request and one reply frame,
    /// returned whole as `Ok(Some(batch))`: a lone target travels as a
    /// `GetRequest` unless it is to be `merged` like a group, a group as
    /// one `GetManyRequest`.
    ///
    /// Either way it is one demand round-trip under one request id, one
    /// retry budget (`deadline`, or the policy default) and one breaker
    /// event. Stream chunks lost, duplicated or reordered in transit are
    /// reassembled here: out-of-order chunks park, duplicates drop, and a
    /// stream whose terminal reveals holes (or never arrives) is *resumed*
    /// under the same request id with `resume_from` at the reassembly
    /// frontier, so the provider re-streams only the missing suffix.
    pub fn demand(
        &self,
        host: SiteId,
        targets: &[ObjId],
        merged: bool,
        mode: WireMode,
        deadline: Option<Deadline>,
        on_chunk: Option<&mut dyn FnMut(u32, ReplicaBatch)>,
    ) -> Result<Option<ReplicaBatch>> {
        let request = self.next_request();
        self.metrics.incr_demand_round_trips();
        let large = matches!(mode, WireMode::Incremental { batch } if batch > STREAM_CHUNK_OBJECTS);
        if let Some(on_chunk) = on_chunk.filter(|_| large) {
            self.demand_stream(host, request, targets, mode, deadline, on_chunk)?;
            return Ok(None);
        }
        let (id, result) = match targets {
            &[target] if !merged => {
                let msg = Message::GetRequest {
                    request,
                    target,
                    mode,
                };
                match self.round_trip_inner(host, &msg, deadline, true)? {
                    Message::GetReply { request, result } => (request, result),
                    other => return Err(unexpected("GetReply", &other)),
                }
            }
            _ => {
                let msg = Message::GetManyRequest {
                    request,
                    targets: targets.to_vec(),
                    mode,
                };
                match self.round_trip_inner(host, &msg, deadline, true)? {
                    Message::GetManyReply { request, result } => (request, result),
                    other => return Err(unexpected("GetManyReply", &other)),
                }
            }
        };
        self.check_correlation(request, Some(id))?;
        result.map(Some)
    }

    /// The streamed exchange behind [`RmiClient::demand`]: each attempt
    /// sends one `GetManyStreamRequest` (marshalled per attempt, since
    /// `resume_from` moves) and drains chunk frames until the terminal.
    fn demand_stream(
        &self,
        host: SiteId,
        request: RequestId,
        targets: &[ObjId],
        mode: WireMode,
        deadline: Option<Deadline>,
        on_chunk: &mut dyn FnMut(u32, ReplicaBatch),
    ) -> Result<()> {
        // Reassembly state lives *outside* the attempts: chunks already
        // delivered stay delivered across resumes, and `next_expected` is
        // exactly the `resume_from` a retry asks the provider for.
        let mut next_expected: u32 = 0;
        let mut parked: std::collections::BTreeMap<u32, ReplicaBatch> =
            std::collections::BTreeMap::new();
        self.retrying(host, Some(request), true, deadline, &mut |retries| {
            if retries > 0 {
                self.metrics.incr_stream_resumes();
            }
            let frame = Message::GetManyStreamRequest {
                request,
                targets: targets.to_vec(),
                mode,
                chunk: STREAM_CHUNK_OBJECTS,
                resume_from: next_expected,
            }
            .encode();
            self.clock.charge_cpu(self.costs.serialize(frame.len()));
            self.metrics.add_bytes_sent(frame.len() as u64);
            let sent = self.transport.call_stream(self.site, host, frame, &mut |raw| {
                self.metrics.add_bytes_received(raw.len() as u64);
                self.clock.charge_cpu(self.costs.serialize(raw.len()));
                let Ok(Message::GetManyChunk {
                    request: id,
                    chunk_index,
                    batch,
                    ..
                }) = Message::decode(&raw)
                else {
                    // An undecodable or foreign frame is a lost chunk: the
                    // hole surfaces at the terminal and the resume heals it.
                    return;
                };
                if id != request
                    || chunk_index < next_expected
                    || parked.contains_key(&chunk_index)
                {
                    // Stray correlation or duplicate delivery: drop.
                    return;
                }
                parked.insert(chunk_index, batch);
                // Deliver the now-contiguous prefix in order.
                while let Some(batch) = parked.remove(&next_expected) {
                    let index = next_expected;
                    next_expected += 1;
                    self.metrics.incr_demand_chunks();
                    let mut chunk_span = trace::span(&self.clock, "rpc.chunk")
                        .with_site(self.site)
                        .with_req(request);
                    chunk_span.set_value(index as u64);
                    on_chunk(index, batch);
                }
            });
            let reply = match sent {
                Ok(reply) => reply,
                Err(e) => return Attempt::of(Err(e)),
            };
            self.clock.charge_cpu(self.costs.serialize(reply.len()));
            self.metrics.add_bytes_received(reply.len() as u64);
            // How many chunks the provider says the stream holds.
            let total_chunks = match Message::decode(&reply) {
                Ok(Message::GetManyDone {
                    request: id,
                    total_chunks,
                    result,
                }) => self
                    .check_correlation(request, Some(id))
                    .and(result)
                    .map(|()| total_chunks),
                // A transport with no streaming path degrades to the
                // one-shot merged reply: accept it as the whole stream in
                // one implicit chunk, with nothing further to wait for.
                Ok(Message::GetManyReply { request: id, result }) if next_expected == 0 => self
                    .check_correlation(request, Some(id))
                    .and(result)
                    .map(|batch| {
                        self.metrics.incr_demand_chunks();
                        on_chunk(0, batch);
                        0
                    }),
                Ok(other) => Err(unexpected("GetManyDone", &other)),
                Err(e) => Err(e),
            };
            match total_chunks {
                // Lost chunks left a hole below the terminal's count:
                // resume, don't restart.
                Ok(total) if next_expected < total => {
                    Attempt::Retry(ObiError::Timeout { to: host })
                }
                done => Attempt::Done(done.map(|_| ())),
            }
        })
    }

    /// `put`: send replica state back to the master site.
    pub fn put(&self, host: SiteId, entries: Vec<ReplicaState>) -> Result<Vec<(ObjId, u64)>> {
        self.put_inner(host, entries, self.next_request(), true)
    }

    /// `put` under a caller-chosen request id (from
    /// [`RmiClient::reserve_request`], possibly recovered from a durable
    /// put-intent record). Sending the same id twice is how crash-replay
    /// achieves exactly-once: the server's reply cache answers the second
    /// send from the cache instead of re-applying.
    ///
    /// Because the id may be sent again — a retry after a connectivity
    /// failure, a replay after a crash that lost the confirmation — the call
    /// does not settle it. The caller does ([`RmiClient::settle`]) once the
    /// intent is retired in its log; until then the server keeps the reply.
    pub fn put_with_request(
        &self,
        host: SiteId,
        entries: Vec<ReplicaState>,
        request: RequestId,
    ) -> Result<Vec<(ObjId, u64)>> {
        self.put_inner(host, entries, request, false)
    }

    fn put_inner(
        &self,
        host: SiteId,
        entries: Vec<ReplicaState>,
        request: RequestId,
        settles: bool,
    ) -> Result<Vec<(ObjId, u64)>> {
        self.metrics.incr_puts();
        let msg = Message::PutRequest { request, entries };
        match self.round_trip_inner(host, &msg, None, settles)? {
            Message::PutReply { request: id, result } => {
                self.check_correlation(request, Some(id))?;
                result
            }
            other => Err(unexpected("PutReply", &other)),
        }
    }

    fn name_request(&self, ns: SiteId, op: NameOp) -> Result<ObiValue> {
        let request = self.next_request();
        let reply = self.round_trip(ns, &Message::NameRequest { request, op })?;
        match reply {
            Message::NameReply { request: id, result } => {
                self.check_correlation(request, Some(id))?;
                result
            }
            other => Err(unexpected("NameReply", &other)),
        }
    }

    /// Binds `name` to an exported object at the name server on `ns`.
    pub fn bind(&self, ns: SiteId, name: &str, target: ObjId) -> Result<()> {
        self.name_request(
            ns,
            NameOp::Bind {
                name: name.to_owned(),
                target,
            },
        )
        .map(|_| ())
    }

    /// Looks `name` up at the name server on `ns`.
    pub fn lookup(&self, ns: SiteId, name: &str) -> Result<RemoteRef> {
        let v = self.name_request(ns, NameOp::Lookup { name: name.to_owned() })?;
        v.as_ref_id()
            .map(RemoteRef::to_master)
            .ok_or_else(|| ObiError::Internal(format!("lookup returned {}", v.kind())))
    }

    /// Removes a binding at the name server on `ns`.
    pub fn unbind(&self, ns: SiteId, name: &str) -> Result<()> {
        self.name_request(ns, NameOp::Unbind { name: name.to_owned() })
            .map(|_| ())
    }

    /// Lists all names bound at the name server on `ns`.
    pub fn list_names(&self, ns: SiteId) -> Result<Vec<String>> {
        let v = self.name_request(ns, NameOp::List)?;
        match v {
            ObiValue::List(items) => items
                .into_iter()
                .map(|i| match i {
                    ObiValue::Str(s) => Ok(s),
                    other => Err(ObiError::Internal(format!(
                        "name list contained {}",
                        other.kind()
                    ))),
                })
                .collect(),
            other => Err(ObiError::Internal(format!("list returned {}", other.kind()))),
        }
    }

    /// Subscribes this site to consistency traffic for `object` at its host.
    pub fn subscribe(&self, host: SiteId, object: ObjId, push: bool) -> Result<()> {
        let request = self.next_request();
        let reply = self.round_trip(
            host,
            &Message::Subscribe {
                request,
                object,
                push,
            },
        )?;
        match reply {
            Message::Ack { request: id, result } => {
                self.check_correlation(request, Some(id))?;
                result.map(|_| ())
            }
            other => Err(unexpected("Ack", &other)),
        }
    }

    /// One-way: notify `to` that its replicas of `objects` are stale.
    pub fn send_invalidate(&self, to: SiteId, objects: Vec<ObjId>) -> Result<()> {
        let frame = Message::Invalidate { objects }.encode();
        self.clock.charge_cpu(self.costs.serialize(frame.len()));
        self.transport.cast(self.site, to, frame)
    }

    /// One-way: push replica updates to `to`.
    pub fn send_update_push(&self, to: SiteId, entries: Vec<ReplicaState>) -> Result<()> {
        let frame = Message::UpdatePush { entries }.encode();
        self.clock.charge_cpu(self.costs.serialize(frame.len()));
        self.transport.cast(self.site, to, frame)
    }

    /// Membership join: asks the admission authority at `to` (normally the
    /// name-server site) to enroll this site, returning the world view it
    /// needs to bootstrap. Retried like any request; admission is
    /// idempotent, so a lost ack is harmless.
    pub fn join(&self, to: SiteId) -> Result<JoinInfo> {
        let request = self.next_request();
        let reply = self.round_trip(to, &Message::JoinRequest { request })?;
        match reply {
            Message::JoinAck { request: id, result } => {
                self.check_correlation(request, Some(id))?;
                result
            }
            other => Err(unexpected("JoinAck", &other)),
        }
    }

    /// Mastership handoff: installs `entries` (the closure rooted at
    /// `root`) at `to` and asks it to take over as master, returning the
    /// root's installed version. The same request id rides every retry, and
    /// the successor installs idempotently, so a handoff retried through
    /// loss never yields two masters.
    pub fn handoff(
        &self,
        to: SiteId,
        root: ObjId,
        entries: Vec<ReplicaState>,
    ) -> Result<u64> {
        let request = self.next_request();
        let reply = self.round_trip(
            to,
            &Message::HandoffRequest {
                request,
                root,
                entries,
            },
        )?;
        match reply {
            Message::HandoffAck { request: id, result } => {
                self.check_correlation(request, Some(id))?;
                result
            }
            other => Err(unexpected("HandoffAck", &other)),
        }
    }

    /// One-way: notify `to` that `site` has left the world.
    pub fn send_leave(&self, to: SiteId, site: SiteId) -> Result<()> {
        let frame = Message::Leave { site }.encode();
        self.clock.charge_cpu(self.costs.serialize(frame.len()));
        self.transport.cast(self.site, to, frame)
    }

    /// Round-trip connectivity probe.
    pub fn ping(&self, to: SiteId) -> Result<()> {
        let request = self.next_request();
        let reply = self.round_trip(to, &Message::Ping { request })?;
        match reply {
            Message::Pong { request: id } => self.check_correlation(request, Some(id)),
            other => Err(unexpected("Pong", &other)),
        }
    }
}

fn unexpected(wanted: &str, got: &Message) -> ObiError {
    // Decode-failure Acks from the server carry the real error; surface it.
    if let Message::Ack { result: Err(e), .. } = got {
        return e.clone();
    }
    ObiError::Internal(format!("expected {wanted}, got {got:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{EchoService, RmiServer};
    use obiwan_net::{conditions, SimTransport};
    use obiwan_util::ClockMode;
    use std::time::Duration;

    fn rig() -> (RmiClient, Arc<SimTransport>, Clock) {
        let clock = Clock::new(ClockMode::VirtualOnly);
        let net = Arc::new(SimTransport::new(clock.clone(), conditions::paper_lan()));
        net.register(
            SiteId::new(2),
            Arc::new(RmiServer::new(Arc::new(EchoService))),
        );
        let client = RmiClient::new(
            SiteId::new(1),
            net.clone(),
            clock.clone(),
            CostModel::paper_testbed(),
        );
        (client, net, clock)
    }

    #[test]
    fn invoke_round_trips_through_echo() {
        let (client, _net, _clock) = rig();
        let target = RemoteRef::to_master(ObjId::new(SiteId::new(2), 1));
        let out = client
            .invoke(&target, "anything", ObiValue::Str("v".into()))
            .unwrap();
        assert_eq!(out, ObiValue::Str("v".into()));
        assert_eq!(client.metrics().snapshot().rmi_count, 1);
    }

    #[test]
    fn rmi_cost_is_in_the_paper_ballpark() {
        let (client, _net, clock) = rig();
        let target = RemoteRef::to_master(ObjId::new(SiteId::new(2), 1));
        client.invoke(&target, "m", ObiValue::I64(0)).unwrap();
        let elapsed = clock.elapsed();
        // Paper §4.1: one RMI ≈ 2.8 ms. Accept 2–4 ms.
        assert!(elapsed >= Duration::from_millis(2), "{elapsed:?}");
        assert!(elapsed <= Duration::from_millis(4), "{elapsed:?}");
    }

    #[test]
    fn ping_pong() {
        let (client, _net, _clock) = rig();
        client.ping(SiteId::new(2)).unwrap();
        assert!(client.ping(SiteId::new(9)).is_err());
    }

    #[test]
    fn connectivity_failure_surfaces_as_connectivity_error() {
        let (client, net, _clock) = rig();
        net.disconnect(SiteId::new(2));
        let target = RemoteRef::to_master(ObjId::new(SiteId::new(2), 1));
        let err = client.invoke(&target, "m", ObiValue::Null).unwrap_err();
        assert!(err.is_connectivity());
    }

    #[test]
    fn unsupported_get_surfaces_server_error() {
        let (client, _net, _clock) = rig();
        let target = ObjId::new(SiteId::new(2), 1);
        let err = client
            .demand(SiteId::new(2), &[target], false, WireMode::Transitive, None, None)
            .unwrap_err();
        assert!(matches!(err, ObiError::NoSuchObject(_)));
    }

    #[test]
    fn request_ids_are_unique_per_client() {
        let (client, _net, _clock) = rig();
        let a = client.next_request();
        let b = client.next_request();
        assert_ne!(a, b);
        assert_eq!(a.origin(), SiteId::new(1));
    }
}

#[cfg(test)]
mod retry_tests {
    use super::*;
    use crate::fault::{BreakerConfig, CircuitBreaker, ANNOUNCE_EVERY};
    use crate::server::{EchoService, RmiServer};
    use crate::service::RmiService;
    use obiwan_net::{conditions, LinkModel, MessageHandler, SimTransport};
    use obiwan_util::ClockMode;

    /// `invoke` returns the number of times the service has executed, so
    /// any double-execution shows up in the reply stream.
    #[derive(Debug, Default)]
    struct CountingService {
        calls: AtomicU64,
    }

    impl RmiService for CountingService {
        fn invoke(
            &self,
            _from: SiteId,
            _target: ObjId,
            _method: &str,
            _args: ObiValue,
        ) -> Result<ObiValue> {
            Ok(ObiValue::I64(self.calls.fetch_add(1, Ordering::Relaxed) as i64 + 1))
        }
    }

    fn lossy_rig(loss: f64) -> (RmiClient, Arc<SimTransport>, Clock, Arc<CountingService>) {
        let clock = Clock::new(ClockMode::VirtualOnly);
        let net = Arc::new(SimTransport::new(clock.clone(), conditions::paper_lan()));
        net.reseed(99);
        net.with_topology_mut(|t| {
            t.set_link_symmetric(
                SiteId::new(1),
                SiteId::new(2),
                LinkModel::ideal().with_loss(loss),
            );
        });
        let svc = Arc::new(CountingService::default());
        net.register(SiteId::new(2), Arc::new(RmiServer::new(svc.clone())));
        let client = RmiClient::new(
            SiteId::new(1),
            net.clone(),
            clock.clone(),
            CostModel::free(),
        );
        (client, net, clock, svc)
    }

    #[test]
    fn requests_retry_through_moderate_loss() {
        let (client, _net, _clock, _svc) = lossy_rig(0.3);
        client.set_retries(10);
        // 50 pings through a 30%-lossy link: with 10 retries each, failure
        // odds are ~1e-13 per ping.
        for _ in 0..50 {
            client.ping(SiteId::new(2)).expect("ping should retry through loss");
        }
        assert!(client.metrics().snapshot().rpc_retries > 0);
    }

    #[test]
    fn mutating_invokes_retry_with_exactly_once_effect() {
        let (client, _net, _clock, svc) = lossy_rig(0.3);
        client.set_retries(10);
        let target = RemoteRef::to_master(ObjId::new(SiteId::new(2), 1));
        // The reply carries the service's execution count: if a retry ever
        // re-executed (instead of hitting the reply cache), some reply
        // would skip a number.
        for i in 1..=20i64 {
            let out = client.invoke(&target, "m", ObiValue::Null).unwrap();
            assert_eq!(out, ObiValue::I64(i), "execution {i} must happen exactly once");
        }
        assert_eq!(svc.calls.load(Ordering::Relaxed), 20);
    }

    #[test]
    fn zero_retries_fail_fast_on_total_loss() {
        let (client, _net, _clock, _svc) = lossy_rig(1.0);
        client.set_retries(0);
        assert!(matches!(
            client.ping(SiteId::new(2)),
            Err(ObiError::MessageLost { .. })
        ));
    }

    #[test]
    fn retries_do_not_mask_disconnection() {
        let (client, net, _clock, _svc) = lossy_rig(0.0);
        client.set_retries(10);
        net.disconnect(SiteId::new(2));
        let err = client.ping(SiteId::new(2)).unwrap_err();
        assert!(matches!(err, ObiError::Disconnected { .. }));
    }

    #[test]
    fn deadline_bounds_total_retry_time() {
        let (client, _net, clock, _svc) = lossy_rig(1.0);
        client.set_rpc_policy(RetryPolicy {
            max_retries: 1_000,
            call_budget: Duration::from_millis(50),
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(10),
        });
        let before = clock.elapsed();
        let err = client.ping(SiteId::new(2)).unwrap_err();
        assert!(matches!(err, ObiError::Timeout { to } if to == SiteId::new(2)));
        let spent = clock.elapsed() - before;
        // The budget, plus at most one final backoff, bounds the call.
        assert!(spent <= Duration::from_millis(60), "{spent:?}");
        assert!(spent >= Duration::from_millis(50), "{spent:?}");
    }

    #[test]
    fn breaker_opens_fast_fails_and_recovers_after_heal() {
        let (client, net, clock, _svc) = lossy_rig(1.0);
        client.set_rpc_policy(RetryPolicy {
            max_retries: 1,
            call_budget: Duration::from_millis(100),
            ..RetryPolicy::default()
        });
        let threshold = CircuitBreaker::default().config().failure_threshold;
        for _ in 0..threshold {
            assert!(matches!(
                client.ping(SiteId::new(2)),
                Err(ObiError::MessageLost { .. })
            ));
        }
        assert_eq!(client.breaker_state(SiteId::new(2)), BreakerState::Open);
        // Open breaker: immediate SiteUnreachable, no frame, no time.
        let frames_before = net.metrics().snapshot().messages_sent;
        let t_before = clock.elapsed();
        let err = client.ping(SiteId::new(2)).unwrap_err();
        assert!(matches!(err, ObiError::SiteUnreachable(s) if s == SiteId::new(2)));
        assert_eq!(net.metrics().snapshot().messages_sent, frames_before);
        assert_eq!(clock.elapsed(), t_before, "fast-fail must cost no time");
        assert_eq!(client.metrics().snapshot().breaker_fast_fails, 1);
        // Heal the link and wait out the cooldown: the half-open probe
        // succeeds and the breaker closes again.
        net.with_topology_mut(|t| {
            t.set_link_symmetric(SiteId::new(1), SiteId::new(2), LinkModel::ideal());
        });
        clock.charge(CircuitBreaker::default().config().cooldown);
        assert_eq!(client.breaker_state(SiteId::new(2)), BreakerState::HalfOpen);
        client.ping(SiteId::new(2)).expect("probe should close the breaker");
        assert_eq!(client.breaker_state(SiteId::new(2)), BreakerState::Closed);
    }

    #[test]
    fn ack_horizon_keeps_the_server_reply_cache_small() {
        let clock = Clock::new(ClockMode::VirtualOnly);
        let net = Arc::new(SimTransport::new(clock.clone(), conditions::paper_lan()));
        let server = Arc::new(RmiServer::new(Arc::new(EchoService)));
        net.register(SiteId::new(2), server.clone());
        let client = RmiClient::new(SiteId::new(1), net, clock, CostModel::free());
        let rounds = 2 * ANNOUNCE_EVERY;
        for _ in 0..rounds {
            client.ping(SiteId::new(2)).unwrap();
        }
        // Without horizon pruning the cache would hold every reply.
        assert!(
            (server.replies().len() as u64) <= ANNOUNCE_EVERY,
            "cache holds {} replies after {} calls",
            server.replies().len(),
            rounds
        );
    }

    /// A provider answering `get_many` with `objects` replicas and a
    /// one-edge frontier, counting executions.
    #[derive(Debug)]
    struct BatchService {
        objects: usize,
        calls: AtomicU64,
    }

    impl RmiService for BatchService {
        fn invoke(
            &self,
            _from: SiteId,
            _target: ObjId,
            _method: &str,
            _args: ObiValue,
        ) -> Result<ObiValue> {
            Ok(ObiValue::Null)
        }

        fn get_many(
            &self,
            _from: SiteId,
            targets: &[ObjId],
            _mode: WireMode,
        ) -> Result<ReplicaBatch> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            Ok(ReplicaBatch {
                root: targets[0],
                replicas: (0..self.objects)
                    .map(|i| ReplicaState {
                        id: ObjId::new(SiteId::new(2), i as u64 + 1),
                        class: "Node".into(),
                        version: 1,
                        state: bytes::Bytes::from_static(b"s"),
                    })
                    .collect(),
                frontier: vec![obiwan_wire::FrontierEdge {
                    target: ObjId::new(SiteId::new(2), 900),
                    class: "Node".into(),
                }],
                cluster: None,
            })
        }
    }

    fn stream_rig(
        objects: usize,
        link: LinkModel,
        seed: u64,
    ) -> (RmiClient, Arc<SimTransport>, Arc<BatchService>) {
        let clock = Clock::new(ClockMode::VirtualOnly);
        let net = Arc::new(SimTransport::new(clock.clone(), conditions::paper_lan()));
        net.reseed(seed);
        net.with_topology_mut(|t| {
            t.set_link_symmetric(SiteId::new(1), SiteId::new(2), link);
        });
        let svc = Arc::new(BatchService {
            objects,
            calls: AtomicU64::new(0),
        });
        net.register(SiteId::new(2), Arc::new(RmiServer::new(svc.clone())));
        let client = RmiClient::new(SiteId::new(1), net.clone(), clock, CostModel::free());
        (client, net, svc)
    }

    /// A piecewise demand of one `objects_expected`-object batch (above
    /// `STREAM_CHUNK_OBJECTS`, so the client streams it).
    fn collect_chunks(
        client: &RmiClient,
        objects_expected: usize,
    ) -> (Vec<u32>, Vec<u64>, usize) {
        let mut indices = Vec::new();
        let mut ids = Vec::new();
        let mut frontier_edges = 0usize;
        let whole = client
            .demand(
                SiteId::new(2),
                &[ObjId::new(SiteId::new(2), 1)],
                false,
                WireMode::Incremental {
                    batch: objects_expected as u32,
                },
                None,
                Some(&mut |index, batch| {
                    indices.push(index);
                    ids.extend(batch.replicas.iter().map(|r| r.id.local()));
                    frontier_edges += batch.frontier.len();
                }),
            )
            .expect("stream should complete");
        assert!(whole.is_none(), "a streamed batch arrives through on_chunk only");
        (indices, ids, frontier_edges)
    }

    #[test]
    fn streamed_demand_delivers_every_chunk_in_order_for_one_round_trip() {
        let (client, _net, svc) = stream_rig(20, LinkModel::ideal(), 5);
        let (indices, ids, frontier_edges) = collect_chunks(&client, 20);
        assert_eq!(indices, vec![0, 1, 2], "20 objects at 8/chunk is 3 chunks");
        assert_eq!(ids, (1..=20).collect::<Vec<u64>>(), "in order, no gaps");
        assert_eq!(frontier_edges, 1, "frontier arrives exactly once");
        assert_eq!(svc.calls.load(Ordering::Relaxed), 1);
        let snap = client.metrics().snapshot();
        assert_eq!(snap.demand_round_trips, 1, "one batch, one logical exchange");
        assert_eq!(snap.demand_chunks, 3);
        assert_eq!(snap.stream_resumes, 0);
    }

    #[test]
    fn streamed_demand_resumes_across_chunk_loss_without_double_delivery() {
        let (client, _net, svc) = stream_rig(
            64,
            LinkModel::ideal().with_chunk_loss(0.3),
            11,
        );
        client.set_retries(50);
        let (indices, ids, frontier_edges) = collect_chunks(&client, 64);
        // Exactly-once reassembly: every chunk delivered once, in order,
        // despite 30% of individual chunk frames vanishing.
        assert_eq!(indices, (0..8).collect::<Vec<u32>>());
        assert_eq!(ids, (1..=64).collect::<Vec<u64>>());
        assert_eq!(frontier_edges, 1);
        let snap = client.metrics().snapshot();
        assert_eq!(snap.demand_round_trips, 1, "resumes are not new round-trips");
        assert!(
            snap.stream_resumes > 0,
            "30% chunk loss over 8 chunks must force at least one resume"
        );
        assert_eq!(snap.rpc_retries, snap.stream_resumes);
        // Each resume re-executes the (read-only) provider service.
        assert_eq!(
            svc.calls.load(Ordering::Relaxed),
            1 + snap.stream_resumes
        );
    }

    #[test]
    fn streamed_demand_survives_chunk_duplication_and_reordering() {
        let (client, _net, _svc) = stream_rig(
            40,
            LinkModel::ideal()
                .with_chunk_duplicate(0.4)
                .with_chunk_reorder(0.4),
            23,
        );
        let (indices, ids, _) = collect_chunks(&client, 40);
        assert_eq!(indices, (0..5).collect::<Vec<u32>>());
        assert_eq!(ids, (1..=40).collect::<Vec<u64>>());
        assert_eq!(client.metrics().snapshot().demand_chunks, 5);
    }

    #[test]
    fn streamed_demand_degrades_to_one_shot_on_plain_handlers() {
        let (client, net, svc) = stream_rig(20, LinkModel::ideal(), 5);
        // Re-register site 2 behind a closure handler: its default
        // `handle_stream` never streams, so the server pump answers the
        // stream request with a one-shot merged reply.
        let server = Arc::new(RmiServer::new(svc.clone()));
        net.register(
            SiteId::new(2),
            Arc::new(move |from: SiteId, frame: bytes::Bytes| server.handle(from, frame)),
        );
        let (indices, ids, frontier_edges) = collect_chunks(&client, 20);
        assert_eq!(indices, vec![0], "the whole batch arrives as one chunk");
        assert_eq!(ids, (1..=20).collect::<Vec<u64>>());
        assert_eq!(frontier_edges, 1);
        assert_eq!(client.metrics().snapshot().demand_chunks, 1);
    }

    #[test]
    fn streamed_demand_surfaces_provider_errors() {
        let (client, net, _svc) = stream_rig(4, LinkModel::ideal(), 5);
        // A provider with no objects behind an EchoService: `get_many`
        // reports NoSuchObject through the stream terminal.
        net.register(SiteId::new(3), Arc::new(RmiServer::new(Arc::new(EchoService))));
        let err = client
            .demand(
                SiteId::new(3),
                &[ObjId::new(SiteId::new(3), 1)],
                true,
                WireMode::Incremental { batch: 20 },
                None,
                Some(&mut |_, _| panic!("no chunks on a failed stream")),
            )
            .unwrap_err();
        assert!(matches!(err, ObiError::NoSuchObject(_)));
    }

    /// The exchange the client picks: a stream only for a piecewise caller
    /// above the chunk size; otherwise one request frame, `GetRequest` for
    /// a lone target and `GetManyRequest` for a merged group, the reply
    /// returned whole.
    #[test]
    fn demand_streams_only_piecewise_batches_above_the_chunk_size() {
        let (client, net, svc) = stream_rig(20, LinkModel::ideal(), 5);
        let target = [ObjId::new(SiteId::new(2), 1)];
        let big = WireMode::Incremental { batch: 20 };
        let small = WireMode::Incremental { batch: STREAM_CHUNK_OBJECTS };
        let piecewise = |merged, mode| {
            let mut chunks = 0;
            let whole = client
                .demand(SiteId::new(2), &target, merged, mode, None, Some(&mut |_, _| chunks += 1))
                .unwrap();
            (whole.map(|b| b.replicas.len()), chunks)
        };
        assert_eq!(piecewise(false, big), (None, 3));
        assert_eq!(piecewise(true, big), (None, 3));
        assert_eq!(piecewise(false, small), (Some(20), 0));
        assert_eq!(piecewise(true, small), (Some(20), 0));
        assert_eq!(piecewise(false, WireMode::Transitive), (Some(20), 0));
        // No callback, no stream, whatever the step.
        let whole = client.demand(SiteId::new(2), &target, false, big, None, None);
        assert_eq!(whole.unwrap().map(|b| b.replicas.len()), Some(20));
        let snap = client.metrics().snapshot();
        assert_eq!(snap.demand_round_trips, 6);
        assert_eq!(snap.demand_chunks, 6);
        assert_eq!(svc.calls.load(Ordering::Relaxed), 6);
        // Two streams of 3 chunks + terminal, four one-shot replies.
        assert_eq!(net.metrics().snapshot().messages_sent, 6 + 2 * 4 + 4);
    }

    /// The retry engine is shared, so a streamed demand is one breaker
    /// event exactly like an `invoke`: the same number of failed calls
    /// opens the breaker, after which both fast-fail without a frame.
    #[test]
    fn streamed_demand_against_a_dead_peer_opens_the_breaker_like_invoke() {
        let threshold = CircuitBreaker::default().config().failure_threshold;
        let policy = RetryPolicy {
            max_retries: 1,
            call_budget: Duration::from_millis(100),
            ..RetryPolicy::default()
        };
        let target = RemoteRef::to_master(ObjId::new(SiteId::new(2), 1));
        let stream = |client: &RmiClient| {
            client.demand(
                SiteId::new(2),
                &[target.id()],
                false,
                WireMode::Incremental { batch: 20 },
                None,
                Some(&mut |_, _| panic!("a dead peer delivers no chunk")),
            )
        };

        let (invoker, _net, _svc) = stream_rig(20, LinkModel::ideal().with_loss(1.0), 5);
        invoker.set_rpc_policy(policy);
        let mut invokes_to_open = 0;
        while invoker.breaker_state(SiteId::new(2)) != BreakerState::Open {
            assert!(invoker.invoke(&target, "m", ObiValue::Null).is_err());
            invokes_to_open += 1;
        }
        assert_eq!(invokes_to_open, threshold);

        let (streamer, net, svc) = stream_rig(20, LinkModel::ideal().with_loss(1.0), 5);
        streamer.set_rpc_policy(policy);
        for _ in 0..invokes_to_open {
            assert_ne!(streamer.breaker_state(SiteId::new(2)), BreakerState::Open);
            assert!(matches!(stream(&streamer), Err(ObiError::MessageLost { .. })));
        }
        assert_eq!(streamer.breaker_state(SiteId::new(2)), BreakerState::Open);
        let snap = streamer.metrics().snapshot();
        assert_eq!(snap.rpc_retries, threshold, "one retry per failed call");
        assert_eq!(snap.stream_resumes, snap.rpc_retries);

        // Open breaker: immediate SiteUnreachable, no frame sent.
        let frames_before = net.metrics().snapshot().messages_sent;
        let err = stream(&streamer).unwrap_err();
        assert!(matches!(err, ObiError::SiteUnreachable(s) if s == SiteId::new(2)));
        assert_eq!(net.metrics().snapshot().messages_sent, frames_before);
        assert_eq!(streamer.metrics().snapshot().breaker_fast_fails, 1);
        assert_eq!(svc.calls.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn join_and_leave_enroll_exactly_once_through_loss() {
        let clock = Clock::new(ClockMode::VirtualOnly);
        let net = Arc::new(SimTransport::new(clock.clone(), conditions::paper_lan()));
        net.reseed(7);
        net.with_topology_mut(|t| {
            t.set_link_symmetric(
                SiteId::new(1),
                SiteId::new(0),
                LinkModel::ideal().with_loss(0.3),
            );
        });
        let ns = Arc::new(crate::NameServerService::new(crate::NameServer::new()));
        ns.registry()
            .bind("root", ObjId::new(SiteId::new(0), 1))
            .unwrap();
        net.register(SiteId::new(0), Arc::new(RmiServer::new(ns.clone())));
        let client = RmiClient::new(SiteId::new(1), net.clone(), clock, CostModel::free());
        client.set_retries(20);
        let info = client.join(SiteId::new(0)).expect("join retries through loss");
        assert!(info.peers.is_empty());
        assert_eq!(info.names.len(), 1);
        assert_eq!(ns.registry().roster(), vec![SiteId::new(1)]);
        // Leave is a one-way cast: fire it over a clean link and observe
        // the roster shrink.
        net.with_topology_mut(|t| {
            t.set_link_symmetric(SiteId::new(1), SiteId::new(0), LinkModel::ideal());
        });
        client.send_leave(SiteId::new(0), SiteId::new(1)).unwrap();
        assert!(ns.registry().roster().is_empty());
    }

    #[test]
    fn breaker_config_is_visible() {
        let b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 7,
            cooldown: Duration::from_secs(1),
        });
        assert_eq!(b.config().failure_threshold, 7);
    }
}
