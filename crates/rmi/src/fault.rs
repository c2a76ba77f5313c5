//! Fault-tolerance primitives for the RMI layer.
//!
//! Three cooperating pieces turn the at-most-once request/response protocol
//! into an exactly-once one that degrades gracefully when peers vanish:
//!
//! * [`ReplyCache`] — the server remembers the encoded reply for every
//!   request id it has answered, so a retransmitted request (the client
//!   gave up waiting, or the network duplicated the frame) is answered
//!   from the cache instead of re-executing the handler. Mutating
//!   requests (`put`, `invoke`) thereby become safe to retry. The cache
//!   is bounded (LRU) and pruned by client-announced
//!   [`AckHorizon`](obiwan_wire::Message::AckHorizon) frames. A put
//!   replayed after its reply left is answered by the master object's
//!   record of the latest put each origin applied to it (`obiwan-core`).
//! * [`RetryPolicy`] / [`Deadline`] — the client retries lost or timed-out
//!   calls under an explicit per-call time budget, sleeping an
//!   exponentially growing, decorrelated-jitter backoff between attempts
//!   (charged to the virtual clock, so simulations stay deterministic).
//! * [`CircuitBreaker`] — per-peer failure accounting. After a run of
//!   call-level connectivity failures the breaker *opens* and further
//!   calls fail immediately (no network attempt, no clock charge) until a
//!   cooldown elapses, at which point a single half-open probe decides
//!   between closing the breaker and re-opening it.

use bytes::Bytes;
use crossbeam::channel::{bounded, Receiver, Sender};
use obiwan_util::{Clock, DetRng, RequestId, SiteId};
use obiwan_util::sync::Mutex;
use std::collections::{BTreeSet, HashMap};
use std::time::Duration;

// ---------------------------------------------------------------------------
// Deadlines
// ---------------------------------------------------------------------------

/// An absolute point on the clock's timeline by which a call must
/// complete.
///
/// Deadlines are compared against [`Clock::elapsed`], which equals the
/// virtual charge under `ClockMode::VirtualOnly` (fully deterministic) and
/// additionally advances with real time under `Hybrid`, so the same
/// budget bounds TCP calls too.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Deadline {
    at_nanos: u64,
}

impl Deadline {
    /// A deadline `budget` from now on `clock`'s timeline.
    pub fn after(clock: &Clock, budget: Duration) -> Self {
        Deadline {
            at_nanos: (clock.elapsed().as_nanos() as u64)
                .saturating_add(budget.as_nanos() as u64),
        }
    }

    /// The absolute clock reading of this deadline.
    pub const fn nanos(self) -> u64 {
        self.at_nanos
    }

    /// True once the clock has reached (or passed) the deadline.
    pub fn expired(self, clock: &Clock) -> bool {
        clock.elapsed().as_nanos() as u64 >= self.at_nanos
    }

    /// Budget left before the deadline (zero when expired).
    pub fn remaining(self, clock: &Clock) -> Duration {
        Duration::from_nanos(
            self.at_nanos
                .saturating_sub(clock.elapsed().as_nanos() as u64),
        )
    }
}

// ---------------------------------------------------------------------------
// Retry policy
// ---------------------------------------------------------------------------

/// How the client retries calls that fail with a retryable error
/// (`MessageLost` or `Timeout`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Extra attempts after the first (0 = at most one attempt).
    pub max_retries: u64,
    /// Default per-call deadline budget when the caller supplies none.
    pub call_budget: Duration,
    /// First backoff sleep; also the lower bound of every jittered sleep.
    pub base_backoff: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            call_budget: Duration::from_secs(30),
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(200),
        }
    }
}

impl RetryPolicy {
    /// Next backoff sleep using *decorrelated jitter*: uniform in
    /// `[base, 3 * prev]`, clamped to `max_backoff`. Growing the window
    /// from the previous *sampled* sleep (rather than the attempt count)
    /// spreads retry storms from many clients apart.
    pub fn next_backoff(&self, prev: Duration, rng: &mut DetRng) -> Duration {
        let base = self.base_backoff.as_nanos() as u64;
        let hi = (prev.as_nanos() as u64).saturating_mul(3).max(base + 1);
        let sampled = rng.next_range(base, hi);
        Duration::from_nanos(sampled.min(self.max_backoff.as_nanos() as u64))
    }
}

// ---------------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------------

/// The three classic breaker states, tracked per peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Calls flow normally.
    Closed,
    /// Calls fail immediately without touching the network.
    Open,
    /// One probe call is admitted; its outcome closes or re-opens.
    HalfOpen,
}

/// Consecutive call-level connectivity failures before a [`CircuitBreaker`]
/// opens.
pub const BREAKER_THRESHOLD: u64 = 3;

/// Virtual time an open [`CircuitBreaker`] waits before admitting a probe.
pub const BREAKER_COOLDOWN: Duration = Duration::from_secs(5);

#[derive(Debug)]
struct PeerBreaker {
    state: BreakerState,
    consecutive_failures: u64,
    opened_at_nanos: u64,
}

impl PeerBreaker {
    fn new() -> Self {
        PeerBreaker {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            opened_at_nanos: 0,
        }
    }
}

/// Per-peer circuit breaker.
///
/// Failures are counted at *call* level — one failed `round_trip` after
/// all its internal retries is one failure — so a flaky link that still
/// gets through under retry never opens the breaker; only a peer that
/// repeatedly defeats the whole retry budget does.
#[derive(Debug, Default)]
pub struct CircuitBreaker {
    peers: Mutex<HashMap<SiteId, PeerBreaker>>,
}

impl CircuitBreaker {
    /// Current state for `peer`, applying the open → half-open transition
    /// if the cooldown has elapsed at virtual time `now_nanos`.
    pub fn state(&self, peer: SiteId, now_nanos: u64) -> BreakerState {
        let mut peers = self.peers.lock();
        let b = peers.entry(peer).or_insert_with(PeerBreaker::new);
        Self::tick(b, now_nanos);
        b.state
    }

    /// Whether a call to `peer` may proceed. `false` means the breaker is
    /// open: fail fast without touching the network.
    pub fn admit(&self, peer: SiteId, now_nanos: u64) -> bool {
        let mut peers = self.peers.lock();
        let b = peers.entry(peer).or_insert_with(PeerBreaker::new);
        Self::tick(b, now_nanos);
        !matches!(b.state, BreakerState::Open)
    }

    /// Record a successful call: the breaker closes and the failure run
    /// resets.
    pub fn on_success(&self, peer: SiteId) {
        let mut peers = self.peers.lock();
        let b = peers.entry(peer).or_insert_with(PeerBreaker::new);
        b.state = BreakerState::Closed;
        b.consecutive_failures = 0;
    }

    /// Record a call-level connectivity failure at virtual time
    /// `now_nanos`. A half-open probe failure re-opens immediately;
    /// otherwise the breaker opens once the failure run reaches the
    /// threshold.
    pub fn on_failure(&self, peer: SiteId, now_nanos: u64) {
        let mut peers = self.peers.lock();
        let b = peers.entry(peer).or_insert_with(PeerBreaker::new);
        b.consecutive_failures += 1;
        let opens = matches!(b.state, BreakerState::HalfOpen)
            || b.consecutive_failures >= BREAKER_THRESHOLD;
        if opens {
            b.state = BreakerState::Open;
            b.opened_at_nanos = now_nanos;
        }
    }

    fn tick(b: &mut PeerBreaker, now_nanos: u64) {
        if matches!(b.state, BreakerState::Open) {
            let cooled =
                now_nanos.saturating_sub(b.opened_at_nanos) >= BREAKER_COOLDOWN.as_nanos() as u64;
            if cooled {
                b.state = BreakerState::HalfOpen;
            }
        }
    }

    /// Forgets everything about `peer` (a graceful leave): its entry is
    /// removed rather than kept open forever. A later call involving the
    /// same site id (a rejoin) starts from a fresh closed breaker.
    pub fn retire_peer(&self, peer: SiteId) {
        self.peers.lock().remove(&peer);
    }

    /// Number of peers the breaker currently tracks. Retired peers do not
    /// count; without retirement this grows monotonically with every peer
    /// ever contacted.
    pub fn tracked_peers(&self) -> usize {
        self.peers.lock().len()
    }
}

// ---------------------------------------------------------------------------
// Reply cache (server side)
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct CachedReply {
    frame: Bytes,
    stamp: u64,
}

#[derive(Debug)]
struct PendingSlot {
    /// One sender per duplicate that arrived while the first copy was
    /// still running.
    waiters: Vec<Sender<Option<Bytes>>>,
    /// Clock reading when the slot was admitted, for the age-based reap.
    began_at_nanos: u64,
}

#[derive(Debug)]
struct ReplyCacheInner {
    entries: HashMap<(SiteId, u64), CachedReply>,
    /// Request ids currently executing.
    pending: HashMap<(SiteId, u64), PendingSlot>,
    stamp: u64,
}

impl ReplyCacheInner {
    /// Evicts the least recently used entry.
    fn evict_oldest(&mut self) {
        let oldest = self.entries.iter().min_by_key(|(_, e)| e.stamp).map(|(k, _)| *k);
        if let Some(oldest) = oldest {
            self.entries.remove(&oldest);
        }
    }
}

/// Verdict of [`ReplyCache::begin`] for a request id entering the pump.
///
/// Under concurrent dispatch (one serving thread per TCP connection) two
/// copies of the same request can race past a plain lookup-miss and both
/// execute — the check-then-act hole that `begin` closes by registering the
/// id as *in flight* atomically with the miss.
#[derive(Debug)]
pub enum Admit {
    /// First arrival: the caller must execute the request and then call
    /// [`ReplyCache::complete`] with the outcome (even a `None` outcome —
    /// waiters are parked until it does).
    Execute,
    /// Already answered: retransmit this cached frame.
    Cached(Bytes),
    /// Another worker is executing this id right now; block on the
    /// receiver for the reply it will publish (`None` if the execution
    /// produced no reply frame).
    Wait(Receiver<Option<Bytes>>),
}

/// Bounded server-side cache of encoded replies, keyed by
/// `(origin site, sequence number)` of the request id.
///
/// A hit means the request was already executed: the cached reply is
/// retransmitted and the handler is *not* run again — the mechanism that
/// upgrades client retries from at-most-once to exactly-once. Eviction is
/// LRU on [`begin`](ReplyCache::begin)/[`complete`](ReplyCache::complete)
/// order; clients additionally prune their own
/// settled prefix via [`ReplyCache::ack_horizon`].
///
/// A put's reply is an entry like any other: a replay that comes after
/// other traffic pushed it out is answered by the master object's record
/// of the latest put each origin applied to it.
#[derive(Debug)]
pub struct ReplyCache {
    capacity: usize,
    inner: Mutex<ReplyCacheInner>,
}

impl ReplyCache {
    /// Default bound on cached replies per server.
    pub const DEFAULT_CAPACITY: usize = 1024;

    /// Creates a cache holding at most `capacity` replies (min 1).
    pub fn new(capacity: usize) -> Self {
        ReplyCache {
            capacity: capacity.max(1),
            inner: Mutex::new(ReplyCacheInner {
                entries: HashMap::new(),
                pending: HashMap::new(),
                stamp: 0,
            }),
        }
    }

    /// Admits a request id for execution, atomically with the cache check.
    ///
    /// Exactly one caller per id gets [`Admit::Execute`] between cache
    /// misses; concurrent duplicates get [`Admit::Wait`] and park until the
    /// executor publishes via [`ReplyCache::complete`]. An id already
    /// answered gets [`Admit::Cached`] (refreshing its LRU stamp).
    ///
    /// `now_nanos` timestamps the in-flight slot so [`ReplyCache::reap_pending`]
    /// can reclaim it if the executor dies without ever publishing.
    pub fn begin(&self, id: RequestId, now_nanos: u64) -> Admit {
        let key = (id.origin(), id.seq());
        let mut inner = self.inner.lock();
        inner.stamp += 1;
        let stamp = inner.stamp;
        if let Some(entry) = inner.entries.get_mut(&key) {
            entry.stamp = stamp;
            return Admit::Cached(entry.frame.clone());
        }
        if let Some(slot) = inner.pending.get_mut(&key) {
            // Capacity 1: `complete` sends exactly one value per waiter and
            // never blocks doing so.
            let (tx, rx) = bounded(1);
            slot.waiters.push(tx);
            return Admit::Wait(rx);
        }
        inner.pending.insert(
            key,
            PendingSlot {
                waiters: Vec::new(),
                began_at_nanos: now_nanos,
            },
        );
        Admit::Execute
    }

    /// Reclaims in-flight slots older than `max_age` at clock reading
    /// `now_nanos`, waking their parked duplicates with `None` (they answer
    /// generically and the client retries afresh). Returns how many slots
    /// were reaped.
    ///
    /// In-flight slots are deliberately immune to LRU eviction, so an
    /// executor that dies without publishing — a client killed mid-stream,
    /// a handler panic — would otherwise leak its slot forever. The age
    /// bound should comfortably exceed any client's retry deadline horizon:
    /// past it, no legitimate retransmission of the id is coming, so the
    /// slot can only be garbage.
    pub fn reap_pending(&self, now_nanos: u64, max_age: Duration) -> usize {
        let max_age = max_age.as_nanos() as u64;
        let reaped: Vec<PendingSlot> = {
            let mut inner = self.inner.lock();
            let dead: Vec<(SiteId, u64)> = inner
                .pending
                .iter()
                .filter(|(_, slot)| {
                    now_nanos.saturating_sub(slot.began_at_nanos) > max_age
                })
                .map(|(k, _)| *k)
                .collect();
            dead.iter()
                .filter_map(|k| inner.pending.remove(k))
                .collect()
        };
        let count = reaped.len();
        for slot in reaped {
            for waiter in slot.waiters {
                let _ = waiter.send(None);
            }
        }
        count
    }

    /// Number of in-flight (admitted, not yet completed) slots.
    pub fn pending_len(&self) -> usize {
        self.inner.lock().pending.len()
    }

    /// Publishes the outcome of an execution admitted by
    /// [`ReplyCache::begin`]: caches `frame` (when `Some`) under `id`,
    /// evicting the least recently used reply past the capacity, and wakes
    /// every duplicate parked on [`Admit::Wait`].
    pub fn complete(&self, id: RequestId, frame: Option<Bytes>) {
        let key = (id.origin(), id.seq());
        let waiters = {
            let mut inner = self.inner.lock();
            let waiters = inner
                .pending
                .remove(&key)
                .map(|slot| slot.waiters)
                .unwrap_or_default();
            if let Some(frame) = &frame {
                inner.stamp += 1;
                let stamp = inner.stamp;
                inner.entries.insert(key, CachedReply { frame: frame.clone(), stamp });
                if inner.entries.len() > self.capacity {
                    inner.evict_oldest();
                }
            }
            waiters
        };
        for waiter in waiters {
            // A waiter that gave up and dropped its receiver is fine.
            let _ = waiter.send(frame.clone());
        }
    }

    /// Drops every entry from `origin` with sequence number `<= up_to`:
    /// the client has promised never to retransmit those requests.
    pub fn ack_horizon(&self, origin: SiteId, up_to: u64) {
        self.inner
            .lock()
            .entries
            .retain(|&(o, seq), _| o != origin || seq > up_to);
    }

    /// Drops every entry from `origin`: the server calls it when `origin`
    /// announces that it left the world.
    pub fn retire_peer(&self, origin: SiteId) {
        self.inner.lock().entries.retain(|&(o, _), _| o != origin);
    }

    /// Number of cached replies.
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// True when no replies are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// ---------------------------------------------------------------------------
// Horizon tracker (client side)
// ---------------------------------------------------------------------------

/// How many settlements accumulate before the client announces a new
/// acknowledgement horizon to the peer it is talking to.
pub const ANNOUNCE_EVERY: u64 = 32;

#[derive(Debug, Default)]
struct HorizonInner {
    /// Settled sequence numbers above the contiguous horizon.
    settled: BTreeSet<u64>,
    /// Every seq `<= horizon` is settled (never retransmitted again),
    /// except the `held` ones.
    horizon: u64,
    /// Seqs at or below `horizon` that may still be sent: the put intents
    /// a restarted client recovered pending, until each settles.
    held: BTreeSet<u64>,
    /// Settlements since the last announcement.
    since_announce: u64,
}

impl HorizonInner {
    /// The settled prefix: the horizon, or just below the first held seq.
    fn prefix(&self) -> u64 {
        let below_held = |&held: &u64| self.horizon.min(held.saturating_sub(1));
        self.held.first().map_or(self.horizon, below_held)
    }

    /// The horizon to announce, when an announcement is due.
    fn due(&self) -> Option<u64> {
        let prefix = self.prefix();
        (self.since_announce >= ANNOUNCE_EVERY && prefix > 0).then_some(prefix)
    }
}

/// Client-side tracker of which of its own request ids are *settled* —
/// finished for good (answered, or abandoned after the final retry) and
/// therefore never retransmitted again.
///
/// The contiguous settled prefix is the acknowledgement horizon; it is
/// announced, to the peer of the call that made it due, every
/// [`ANNOUNCE_EVERY`] settlements so the peer can prune its reply cache
/// ahead of LRU pressure and drop the put records the horizon covers. Each
/// announcement also passes a gate, asked outside the tracker's lock and
/// after the prefix it would announce is fixed: while the gate is closed
/// the announcement stays due, and the next
/// [`settle`](HorizonTracker::settle) or [`offer`](HorizonTracker::offer)
/// that finds it open sends it.
///
/// The announced prefix never passes a `held` seq
/// ([`restore`](HorizonTracker::restore)): a master drops a put record its
/// origin's horizon covers, and a held put will still be replayed.
#[derive(Debug, Default)]
pub struct HorizonTracker {
    inner: Mutex<HorizonInner>,
}

impl HorizonTracker {
    /// Creates an empty tracker (horizon 0: nothing settled).
    pub fn new() -> Self {
        HorizonTracker::default()
    }

    /// Marks `seq` settled. Returns `Some(horizon)` when enough
    /// settlements have accumulated that an announcement is due and `gate`
    /// lets it out.
    pub fn settle(&self, seq: u64, gate: impl FnOnce() -> bool) -> Option<u64> {
        let due = {
            let mut inner = self.inner.lock();
            inner.held.remove(&seq);
            if seq > inner.horizon {
                inner.settled.insert(seq);
            }
            // Advance the contiguous prefix.
            let mut next = inner.horizon + 1;
            while inner.settled.remove(&next) {
                next += 1;
            }
            inner.horizon = next - 1;
            inner.since_announce += 1;
            inner.due()
        };
        self.release(due?, gate)
    }

    /// The announcement a closed gate held back, if one is due and `gate`
    /// now lets it out.
    pub fn offer(&self, gate: impl FnOnce() -> bool) -> Option<u64> {
        let due = self.inner.lock().due();
        self.release(due?, gate)
    }

    /// Announces `horizon`, the prefix fixed before `gate` is asked, if the
    /// gate lets it out. Two callers that race may both announce; the peer
    /// prunes by the higher of the two either way.
    fn release(&self, horizon: u64, gate: impl FnOnce() -> bool) -> Option<u64> {
        gate().then(|| {
            self.inner.lock().since_announce = 0;
            horizon
        })
    }

    /// The current contiguous settled prefix.
    pub fn horizon(&self) -> u64 {
        self.inner.lock().prefix()
    }

    /// Restores the horizon after crash recovery: every seq up to
    /// `horizon` is settled except the `held` ones, which the restarted
    /// client may still send and which keep the announced prefix below
    /// them until each settles. The horizon only moves forward, and stray
    /// settlements at or below it are dropped.
    pub fn restore(&self, horizon: u64, held: impl IntoIterator<Item = u64>) {
        let mut inner = self.inner.lock();
        if horizon > inner.horizon {
            inner.horizon = horizon;
            inner.settled = inner.settled.split_off(&(horizon + 1));
        }
        inner.held.extend(held);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ReplyCache {
        /// Duplicates currently parked on `id`'s in-flight slot: lets a
        /// test (here or in `server.rs`) hold the executor back until a
        /// duplicate has provably parked.
        pub(crate) fn waiters_on(&self, id: RequestId) -> usize {
            let inner = self.inner.lock();
            inner.pending.get(&(id.origin(), id.seq())).map_or(0, |slot| slot.waiters.len())
        }
    }
    use obiwan_util::ClockMode;

    fn s(n: u32) -> SiteId {
        SiteId::new(n)
    }

    #[test]
    fn deadline_tracks_virtual_time() {
        let clock = Clock::new(ClockMode::VirtualOnly);
        let d = Deadline::after(&clock, Duration::from_millis(10));
        assert!(!d.expired(&clock));
        assert_eq!(d.remaining(&clock), Duration::from_millis(10));
        clock.charge(Duration::from_millis(9));
        assert!(!d.expired(&clock));
        clock.charge(Duration::from_millis(1));
        assert!(d.expired(&clock));
        assert_eq!(d.remaining(&clock), Duration::ZERO);
    }

    #[test]
    fn backoff_is_jittered_bounded_and_growing() {
        let policy = RetryPolicy::default();
        let mut rng = DetRng::new(7);
        let mut prev = policy.base_backoff;
        for _ in 0..50 {
            let next = policy.next_backoff(prev, &mut rng);
            assert!(next >= policy.base_backoff, "{next:?}");
            assert!(next <= policy.max_backoff, "{next:?}");
            prev = next;
        }
        // Two different rng streams disagree somewhere: jitter is real.
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let pa: Vec<_> = (0..8)
            .map(|_| policy.next_backoff(policy.max_backoff, &mut a))
            .collect();
        let pb: Vec<_> = (0..8)
            .map(|_| policy.next_backoff(policy.max_backoff, &mut b))
            .collect();
        assert_ne!(pa, pb);
    }

    #[test]
    fn breaker_opens_after_threshold_and_half_opens_after_cooldown() {
        let br = CircuitBreaker::default();
        let peer = s(2);
        assert_eq!(br.state(peer, 0), BreakerState::Closed);
        br.on_failure(peer, 0);
        br.on_failure(peer, 0);
        assert_eq!(br.state(peer, 0), BreakerState::Closed);
        assert!(br.admit(peer, 0));
        br.on_failure(peer, 100);
        assert_eq!(br.state(peer, 100), BreakerState::Open);
        assert!(!br.admit(peer, 100));
        // Cooldown elapses → half-open probe admitted.
        let later = 100 + Duration::from_secs(5).as_nanos() as u64;
        assert!(br.admit(peer, later));
        assert_eq!(br.state(peer, later), BreakerState::HalfOpen);
        // Probe failure re-opens at once; probe success closes.
        br.on_failure(peer, later);
        assert_eq!(br.state(peer, later), BreakerState::Open);
        let again = later + Duration::from_secs(5).as_nanos() as u64;
        assert!(br.admit(peer, again));
        br.on_success(peer);
        assert_eq!(br.state(peer, again), BreakerState::Closed);
    }

    #[test]
    fn breaker_success_resets_failure_run() {
        let br = CircuitBreaker::default();
        let peer = s(3);
        br.on_failure(peer, 0);
        br.on_failure(peer, 0);
        br.on_success(peer);
        br.on_failure(peer, 0);
        br.on_failure(peer, 0);
        // 2 + 2 failures with a success between: never reaches 3 in a row.
        assert_eq!(br.state(peer, 0), BreakerState::Closed);
    }

    #[test]
    fn breaker_isolates_peers() {
        let br = CircuitBreaker::default();
        for _ in 0..5 {
            br.on_failure(s(2), 0);
        }
        assert_eq!(br.state(s(2), 0), BreakerState::Open);
        assert_eq!(br.state(s(3), 0), BreakerState::Closed);
        assert!(br.admit(s(3), 0));
    }

    #[test]
    fn retired_peer_is_forgotten_and_rejoins_closed() {
        let br = CircuitBreaker::default();
        for _ in 0..5 {
            br.on_failure(s(2), 0);
        }
        br.on_failure(s(3), 0);
        assert_eq!(br.state(s(2), 0), BreakerState::Open);
        assert_eq!(br.tracked_peers(), 2);
        br.retire_peer(s(2));
        assert_eq!(br.tracked_peers(), 1);
        // A rejoin under the same site id starts from a clean slate: the
        // old open state must not haunt the new incarnation.
        assert_eq!(br.state(s(2), 0), BreakerState::Closed);
        assert!(br.admit(s(2), 0));
    }

    /// Caches `frame` as the reply to `id` the one way the server does:
    /// admitted, executed, completed.
    fn answer(cache: &ReplyCache, id: RequestId, frame: &'static [u8]) {
        assert!(matches!(cache.begin(id, 0), Admit::Execute), "{id:?} already admitted");
        cache.complete(id, Some(Bytes::from_static(frame)));
    }

    /// The cached reply to `id`, if any, as a retransmission sees it
    /// (refreshing its LRU stamp). A miss is admitted and completed with
    /// no reply, which caches nothing.
    fn cached(cache: &ReplyCache, id: RequestId) -> Option<Bytes> {
        match cache.begin(id, 0) {
            Admit::Cached(frame) => Some(frame),
            Admit::Execute => {
                cache.complete(id, None);
                None
            }
            Admit::Wait(_) => panic!("{id:?} is in flight"),
        }
    }

    #[test]
    fn reply_cache_hits_and_lru_evicts() {
        let cache = ReplyCache::new(2);
        let id = |n| RequestId::new(s(1), n);
        answer(&cache, id(1), b"one");
        answer(&cache, id(2), b"two");
        // Touch 1 so 2 becomes the LRU victim.
        assert_eq!(cached(&cache, id(1)).unwrap(), Bytes::from_static(b"one"));
        answer(&cache, id(3), b"three");
        assert_eq!(cache.len(), 2);
        assert!(cached(&cache, id(2)).is_none());
        assert!(cached(&cache, id(1)).is_some());
        assert!(cached(&cache, id(3)).is_some());
    }

    #[test]
    fn reply_cache_ack_horizon_prunes_only_that_origin() {
        let cache = ReplyCache::new(16);
        answer(&cache, RequestId::new(s(1), 1), b"a");
        answer(&cache, RequestId::new(s(1), 2), b"b");
        answer(&cache, RequestId::new(s(1), 5), b"c");
        answer(&cache, RequestId::new(s(9), 2), b"d");
        cache.ack_horizon(s(1), 2);
        assert!(cached(&cache, RequestId::new(s(1), 1)).is_none());
        assert!(cached(&cache, RequestId::new(s(1), 2)).is_none());
        assert!(cached(&cache, RequestId::new(s(1), 5)).is_some());
        assert!(cached(&cache, RequestId::new(s(9), 2)).is_some());
    }

    /// Audit: a client that *never* sends `AckHorizon` must not grow the
    /// cache past its LRU bound — `complete` evicts on every overflow, so
    /// sustained one-sided traffic (and traffic from many origins at once)
    /// stays within capacity without any cooperation from the client.
    #[test]
    fn reply_cache_stays_bounded_without_ack_horizon() {
        let capacity = 8;
        let cache = ReplyCache::new(capacity);
        for seq in 1..=10_000u64 {
            answer(&cache, RequestId::new(s(1), seq), b"r");
            assert!(
                cache.len() <= capacity,
                "cache grew to {} after {seq} unacked inserts",
                cache.len()
            );
        }
        // Only the most recent window survives.
        assert_eq!(cache.len(), capacity);
        assert!(cached(&cache, RequestId::new(s(1), 1)).is_none());
        assert!(cached(&cache, RequestId::new(s(1), 10_000)).is_some());
        // Many silent origins interleaved: the bound is global, not
        // per-origin.
        for seq in 1..=1_000u64 {
            for origin in 2..=5u32 {
                answer(&cache, RequestId::new(s(origin), seq), b"r");
            }
            assert!(cache.len() <= capacity);
        }
    }

    /// A put's reply takes its LRU turn like any other: capacity + 1 later
    /// replies push it out. A replay after that is the master object's
    /// record's to answer (`obiwan-core`), not the cache's.
    #[test]
    fn a_put_reply_is_an_ordinary_lru_entry() {
        let capacity = 8;
        let cache = ReplyCache::new(capacity);
        let put = RequestId::new(s(1), 1);
        let reply = obiwan_wire::Message::PutReply {
            request: put,
            result: Ok(vec![]),
        }
        .encode();
        assert!(matches!(cache.begin(put, 0), Admit::Execute));
        cache.complete(put, Some(reply.clone()));
        for seq in 1..=capacity as u64 {
            answer(&cache, RequestId::new(s(2), seq), b"r");
        }
        assert_eq!(cache.len(), capacity);
        assert!(cached(&cache, put).is_none(), "the oldest reply went first");
        assert!(cached(&cache, RequestId::new(s(2), 1)).is_some());
        // Its origin's horizon or leave drops one before LRU pressure does.
        answer(&cache, RequestId::new(s(1), 2), b"r");
        cache.ack_horizon(s(1), 2);
        assert!(cached(&cache, RequestId::new(s(1), 2)).is_none());
        answer(&cache, RequestId::new(s(1), 3), b"r");
        cache.retire_peer(s(1));
        assert!(cached(&cache, RequestId::new(s(1), 3)).is_none());
        assert_eq!(cache.len(), capacity - 1);
    }

    #[test]
    fn begin_admits_one_executor_and_caches_its_reply() {
        let cache = ReplyCache::new(8);
        let id = RequestId::new(s(1), 1);
        assert!(matches!(cache.begin(id, 0), Admit::Execute));
        // A duplicate arriving mid-execution parks instead of executing.
        let waiter = match cache.begin(id, 0) {
            Admit::Wait(rx) => rx,
            other => panic!("duplicate admitted as {other:?}"),
        };
        cache.complete(id, Some(Bytes::from_static(b"r")));
        assert_eq!(
            waiter.recv_timeout(Duration::from_secs(1)).unwrap(),
            Some(Bytes::from_static(b"r"))
        );
        // After completion the id is a plain cache hit.
        match cache.begin(id, 0) {
            Admit::Cached(frame) => assert_eq!(frame, Bytes::from_static(b"r")),
            other => panic!("settled id admitted as {other:?}"),
        }
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn complete_without_reply_wakes_waiters_and_caches_nothing() {
        let cache = ReplyCache::new(8);
        let id = RequestId::new(s(1), 7);
        assert!(matches!(cache.begin(id, 0), Admit::Execute));
        let a = match cache.begin(id, 0) {
            Admit::Wait(rx) => rx,
            other => panic!("{other:?}"),
        };
        let b = match cache.begin(id, 0) {
            Admit::Wait(rx) => rx,
            other => panic!("{other:?}"),
        };
        cache.complete(id, None);
        assert_eq!(a.recv_timeout(Duration::from_secs(1)).unwrap(), None);
        assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap(), None);
        assert!(cache.is_empty());
        // The slot is released: the next arrival executes afresh.
        assert!(matches!(cache.begin(id, 0), Admit::Execute));
        cache.complete(id, None);
    }

    /// Eviction pressure from completed entries must never evict a
    /// pending (in-flight) slot — waiters would hang forever.
    #[test]
    fn pending_slots_survive_lru_pressure() {
        let cache = ReplyCache::new(2);
        let inflight = RequestId::new(s(1), 100);
        assert!(matches!(cache.begin(inflight, 0), Admit::Execute));
        for seq in 1..=10 {
            let id = RequestId::new(s(2), seq);
            assert!(matches!(cache.begin(id, 0), Admit::Execute));
            cache.complete(id, Some(Bytes::from_static(b"x")));
        }
        assert_eq!(cache.len(), 2, "LRU bound holds for completed entries");
        // The in-flight slot is still registered: duplicates still park.
        assert!(matches!(cache.begin(inflight, 0), Admit::Wait(_)));
        cache.complete(inflight, Some(Bytes::from_static(b"y")));
        assert!(matches!(cache.begin(inflight, 0), Admit::Cached(_)));
    }

    /// Regression: a client that dies mid-stream leaves a `begin`ed slot
    /// behind (the executor never reaches the terminal `complete`). Pending
    /// slots are immune to LRU by design, so without an age-based reap the
    /// slot — and its `(origin, seq)` admission — leaks forever.
    #[test]
    fn reap_pending_reclaims_abandoned_slots_and_wakes_waiters() {
        let cache = ReplyCache::new(8);
        let leaked = RequestId::new(s(1), 9);
        let young = RequestId::new(s(1), 10);
        assert!(matches!(cache.begin(leaked, 0), Admit::Execute));
        let orphan = match cache.begin(leaked, 0) {
            Admit::Wait(rx) => rx,
            other => panic!("{other:?}"),
        };
        let max_age = Duration::from_secs(60);
        let later = max_age.as_nanos() as u64 + 1;
        assert!(matches!(cache.begin(young, later), Admit::Execute));
        // Nothing is old enough at t=max_age; the leaked slot is at t>max_age.
        assert_eq!(cache.reap_pending(max_age.as_nanos() as u64, max_age), 0);
        assert_eq!(cache.reap_pending(later, max_age), 1);
        assert_eq!(cache.pending_len(), 1, "young slot survives the reap");
        // Parked duplicates of the reaped slot are woken empty-handed so
        // they re-execute instead of hanging for a reply that never comes.
        assert_eq!(orphan.recv_timeout(Duration::from_secs(1)).unwrap(), None);
        // The reclaimed id is admitted afresh.
        assert!(matches!(cache.begin(leaked, later), Admit::Execute));
        cache.complete(leaked, None);
        cache.complete(young, None);
    }

    #[test]
    fn horizon_advances_contiguously_and_announces_periodically() {
        let t = HorizonTracker::new();
        assert!(t.settle(2, || true).is_none());
        assert_eq!(t.horizon(), 0, "gap at 1 blocks the horizon");
        assert!(t.settle(1, || true).is_none());
        assert_eq!(t.horizon(), 2, "prefix closes through the gap");
        let mut announced = None;
        for seq in 3..=ANNOUNCE_EVERY + 2 {
            if let Some(h) = t.settle(seq, || true) {
                announced = Some(h);
            }
        }
        let h = announced.expect("an announcement is due within the window");
        assert!(h >= ANNOUNCE_EVERY, "{h}");
        assert!(h <= t.horizon(), "announced horizon can only trail the live one");
    }

    #[test]
    fn a_closed_gate_holds_the_announcement_until_a_settle_or_offer_finds_it_open() {
        const A: u64 = ANNOUNCE_EVERY;
        let t = HorizonTracker::new();
        for seq in 1..=A {
            assert!(t.settle(seq, || false).is_none(), "seq {seq}: the gate is closed");
        }
        assert!(t.offer(|| false).is_none(), "still closed");
        // The held announcement goes out at the next settle that finds the
        // gate open, with the prefix as of that settle...
        assert_eq!(t.settle(A + 1, || true), Some(A + 1));
        assert!(t.offer(|| panic!("nothing is due")).is_none(), "announced once");
        // ... or at an offer.
        for seq in A + 2..=2 * A + 1 {
            assert!(t.settle(seq, || false).is_none());
        }
        assert_eq!(t.offer(|| true), Some(2 * A + 1));
        // Never above the settled prefix: a gap holds it however many ids
        // settle beyond.
        for seq in 2 * A + 3..=3 * A + 2 {
            assert!(t.settle(seq, || false).is_none());
        }
        // The prefix is fixed before the gate is asked, and the gate is
        // asked outside the tracker's lock: an id settled from inside it
        // (here the one closing the gap) is not in this announcement.
        let gap = 2 * A + 2;
        assert_eq!(t.offer(|| t.settle(gap, || false).is_none()), Some(2 * A + 1));
        assert_eq!(t.horizon(), 3 * A + 2);
    }

    #[test]
    fn horizon_restore_moves_forward_and_drops_stale_settlements() {
        let t = HorizonTracker::new();
        t.settle(1, || true);
        t.settle(5, || true); // stranded above the prefix
        assert_eq!(t.horizon(), 1);
        t.restore(4, []);
        assert_eq!(t.horizon(), 4);
        // Seq 5 was stranded; settling nothing new, the prefix absorbs it.
        t.settle(5, || true);
        assert_eq!(t.horizon(), 5);
        // Restore never moves backwards.
        t.restore(2, []);
        assert_eq!(t.horizon(), 5);
    }

    #[test]
    fn a_held_seq_keeps_the_announced_prefix_below_it_until_it_settles() {
        const A: u64 = ANNOUNCE_EVERY;
        let t = HorizonTracker::new();
        // A restart: seqs up to 1000 are spent, but 7 and 9 are put intents
        // that will be replayed.
        t.restore(1000, [7, 9]);
        assert_eq!(t.horizon(), 6);
        let mut announced = None;
        for seq in 1001..1001 + A {
            announced = announced.or(t.settle(seq, || true));
        }
        assert_eq!(announced, Some(6), "the prefix passed a held seq");
        t.settle(7, || true);
        assert_eq!(t.horizon(), 8);
        t.settle(9, || true);
        assert_eq!(t.horizon(), 1000 + A);
    }
}
