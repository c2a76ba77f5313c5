//! Link models, the network topology, and the one link leg every
//! in-process transport sends its frames across.

use bytes::Bytes;
use obiwan_util::sync::{Mutex, RwLock};
use obiwan_util::{Clock, DetRng, Metrics, ObiError, Result, SiteId};
use std::collections::HashMap;
use std::time::Duration;

/// Physical characteristics of one directed link.
///
/// The time to move a frame of `n` bytes across the link is
/// `latency + n*8/bandwidth + U(0, jitter)`, and each frame is independently
/// dropped with probability `loss`.
///
/// # Examples
///
/// ```
/// use obiwan_net::LinkModel;
/// use std::time::Duration;
///
/// let link = LinkModel::new(Duration::from_millis(1), 10_000_000);
/// // 1 ms propagation + 1000*8 bits / 10 Mb/s = 1.8 ms
/// let mut rng = obiwan_util::DetRng::new(1);
/// assert_eq!(link.transfer_time(1000, &mut rng), Duration::from_micros(1800));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinkModel {
    /// One-way propagation delay.
    pub latency: Duration,
    /// Bandwidth in bits per second; `0` means infinite.
    pub bandwidth_bps: u64,
    /// Maximum uniform jitter added per frame.
    pub jitter: Duration,
    /// Independent per-frame loss probability in `[0, 1]`.
    pub loss: f64,
    /// Additional loss probability in `[0, 1]` applied only to *reply*
    /// frames. Models the asymmetric failure where the request executed
    /// but its answer never came back — the case that forces the client
    /// to retry a request the server already ran, and thus the case the
    /// server-side reply cache exists for.
    pub reply_loss: f64,
    /// Probability in `[0, 1]` that a delivered frame arrives twice
    /// (retransmission artifacts; exercises duplicate suppression).
    pub duplicate: f64,
    /// Probability in `[0, 1]` that a one-way frame is held back and
    /// delivered after later traffic (reordering).
    pub reorder: f64,
    /// Independent loss probability in `[0, 1]` applied to each
    /// intermediate *chunk* frame of a streamed reply. The terminal frame
    /// uses `loss`/`reply_loss` like any other reply; dropping chunks
    /// leaves a hole the client must resume across.
    pub chunk_loss: f64,
    /// Probability in `[0, 1]` that a delivered reply chunk arrives twice.
    pub chunk_duplicate: f64,
    /// Probability in `[0, 1]` that a reply chunk is held back and
    /// delivered after the following chunk (pairwise reordering).
    pub chunk_reorder: f64,
}

impl Default for LinkModel {
    fn default() -> Self {
        LinkModel::ideal()
    }
}

impl LinkModel {
    /// A loss-free, jitter-free link with the given latency and bandwidth.
    pub fn new(latency: Duration, bandwidth_bps: u64) -> Self {
        LinkModel {
            latency,
            bandwidth_bps,
            jitter: Duration::ZERO,
            loss: 0.0,
            reply_loss: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            chunk_loss: 0.0,
            chunk_duplicate: 0.0,
            chunk_reorder: 0.0,
        }
    }

    /// An instantaneous, infinite-bandwidth, loss-free link.
    pub fn ideal() -> Self {
        LinkModel::new(Duration::ZERO, 0)
    }

    /// Returns a copy with the given jitter bound.
    pub fn with_jitter(mut self, jitter: Duration) -> Self {
        self.jitter = jitter;
        self
    }

    /// Returns a copy with the given loss probability (clamped to `[0, 1]`).
    pub fn with_loss(mut self, loss: f64) -> Self {
        self.loss = loss.clamp(0.0, 1.0);
        self
    }

    /// Returns a copy with the given reply-only loss probability (clamped
    /// to `[0, 1]`).
    pub fn with_reply_loss(mut self, reply_loss: f64) -> Self {
        self.reply_loss = reply_loss.clamp(0.0, 1.0);
        self
    }

    /// Returns a copy with the given duplication probability (clamped to
    /// `[0, 1]`).
    pub fn with_duplicate(mut self, duplicate: f64) -> Self {
        self.duplicate = duplicate.clamp(0.0, 1.0);
        self
    }

    /// Returns a copy with the given reordering probability (clamped to
    /// `[0, 1]`).
    pub fn with_reorder(mut self, reorder: f64) -> Self {
        self.reorder = reorder.clamp(0.0, 1.0);
        self
    }

    /// Returns a copy with the given per-chunk loss probability (clamped
    /// to `[0, 1]`).
    pub fn with_chunk_loss(mut self, chunk_loss: f64) -> Self {
        self.chunk_loss = chunk_loss.clamp(0.0, 1.0);
        self
    }

    /// Returns a copy with the given per-chunk duplication probability
    /// (clamped to `[0, 1]`).
    pub fn with_chunk_duplicate(mut self, chunk_duplicate: f64) -> Self {
        self.chunk_duplicate = chunk_duplicate.clamp(0.0, 1.0);
        self
    }

    /// Returns a copy with the given per-chunk reordering probability
    /// (clamped to `[0, 1]`).
    pub fn with_chunk_reorder(mut self, chunk_reorder: f64) -> Self {
        self.chunk_reorder = chunk_reorder.clamp(0.0, 1.0);
        self
    }

    /// Time for a frame of `bytes` to traverse the link, sampling jitter
    /// from `rng`.
    pub fn transfer_time(&self, bytes: usize, rng: &mut DetRng) -> Duration {
        let mut t = self.latency + self.serialization_delay(bytes);
        let jitter_ns = self.jitter.as_nanos() as u64;
        if jitter_ns > 0 {
            t += Duration::from_nanos(rng.next_below(jitter_ns));
        }
        t
    }

    /// The bandwidth-limited component alone (no latency, no jitter).
    pub fn serialization_delay(&self, bytes: usize) -> Duration {
        if self.bandwidth_bps == 0 {
            return Duration::ZERO;
        }
        let bits = bytes as u128 * 8;
        let nanos = bits * 1_000_000_000 / self.bandwidth_bps as u128;
        Duration::from_nanos(nanos as u64)
    }

    /// Samples whether a frame is lost.
    pub fn drops(&self, rng: &mut DetRng) -> bool {
        self.loss > 0.0 && rng.chance(self.loss)
    }

    /// Samples whether a *reply* frame is lost on the way back. The guard
    /// keeps a zero probability from consuming rng state, so enabling
    /// reply loss on one link never perturbs another link's samples.
    pub fn drops_reply(&self, rng: &mut DetRng) -> bool {
        self.reply_loss > 0.0 && rng.chance(self.reply_loss)
    }

    /// Samples whether a delivered frame is duplicated.
    pub fn duplicates(&self, rng: &mut DetRng) -> bool {
        self.duplicate > 0.0 && rng.chance(self.duplicate)
    }

    /// Samples whether a one-way frame is reordered (held back).
    pub fn reorders(&self, rng: &mut DetRng) -> bool {
        self.reorder > 0.0 && rng.chance(self.reorder)
    }

    /// Samples whether a streamed reply chunk is lost. As with
    /// [`LinkModel::drops_reply`], a zero probability never consumes rng
    /// state, so chunk faults on one link cannot perturb another link's
    /// samples.
    pub fn drops_chunk(&self, rng: &mut DetRng) -> bool {
        self.chunk_loss > 0.0 && rng.chance(self.chunk_loss)
    }

    /// Samples whether a delivered reply chunk is duplicated.
    pub fn duplicates_chunk(&self, rng: &mut DetRng) -> bool {
        self.chunk_duplicate > 0.0 && rng.chance(self.chunk_duplicate)
    }

    /// Samples whether a reply chunk is held back past its successor.
    pub fn reorders_chunk(&self, rng: &mut DetRng) -> bool {
        self.chunk_reorder > 0.0 && rng.chance(self.chunk_reorder)
    }
}

/// Administrative state of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LinkState {
    /// Frames flow.
    #[default]
    Up,
    /// Frames are refused (voluntary or involuntary disconnection).
    Down,
}

/// The set of links between sites.
///
/// A topology has a default link model; specific ordered pairs may override
/// it. Whole sites can be disconnected (every link touching them refuses
/// traffic), which is how examples and tests express the paper's mobility
/// scenarios.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    default_link: LinkModel,
    overrides: HashMap<(SiteId, SiteId), LinkModel>,
    down_pairs: HashMap<(SiteId, SiteId), ()>,
    down_sites: HashMap<SiteId, ()>,
}

impl Topology {
    /// A topology where every pair is joined by `default_link`.
    pub fn uniform(default_link: LinkModel) -> Self {
        Topology {
            default_link,
            ..Topology::default()
        }
    }

    /// Overrides the link model for the ordered pair `from -> to`.
    pub fn set_link(&mut self, from: SiteId, to: SiteId, link: LinkModel) {
        self.overrides.insert((from, to), link);
    }

    /// Overrides the link model in both directions.
    pub fn set_link_symmetric(&mut self, a: SiteId, b: SiteId, link: LinkModel) {
        self.set_link(a, b, link.clone());
        self.set_link(b, a, link);
    }

    /// The model governing `from -> to`.
    pub fn link(&self, from: SiteId, to: SiteId) -> &LinkModel {
        self.overrides.get(&(from, to)).unwrap_or(&self.default_link)
    }

    /// Sets the administrative state of the ordered pair `from -> to`.
    pub fn set_pair_state(&mut self, from: SiteId, to: SiteId, state: LinkState) {
        match state {
            LinkState::Up => {
                self.down_pairs.remove(&(from, to));
            }
            LinkState::Down => {
                self.down_pairs.insert((from, to), ());
            }
        }
    }

    /// Sets the state in both directions.
    pub fn set_pair_state_symmetric(&mut self, a: SiteId, b: SiteId, state: LinkState) {
        self.set_pair_state(a, b, state);
        self.set_pair_state(b, a, state);
    }

    /// Disconnects a site from everyone (a roaming device losing coverage,
    /// or a voluntary disconnection to save connection cost).
    pub fn disconnect(&mut self, site: SiteId) {
        self.down_sites.insert(site, ());
    }

    /// Reconnects a previously disconnected site.
    pub fn reconnect(&mut self, site: SiteId) {
        self.down_sites.remove(&site);
    }

    /// True when a frame may flow `from -> to` right now.
    pub fn is_up(&self, from: SiteId, to: SiteId) -> bool {
        !self.down_sites.contains_key(&from)
            && !self.down_sites.contains_key(&to)
            && !self.down_pairs.contains_key(&(from, to))
    }

    /// Cuts only the `from -> to` direction, leaving the reverse path up —
    /// an asymmetric partition (a mobile device that can hear the fixed
    /// network but not reach it, or vice versa).
    pub fn partition_oneway(&mut self, from: SiteId, to: SiteId) {
        self.set_pair_state(from, to, LinkState::Down);
    }

    /// Restores a direction cut by [`Topology::partition_oneway`].
    pub fn heal_oneway(&mut self, from: SiteId, to: SiteId) {
        self.set_pair_state(from, to, LinkState::Up);
    }

    /// Partitions the sites into two groups: no traffic crosses between
    /// `group_a` and the complement set `group_b` in either direction.
    pub fn partition(&mut self, group_a: &[SiteId], group_b: &[SiteId]) {
        for &a in group_a {
            for &b in group_b {
                self.set_pair_state_symmetric(a, b, LinkState::Down);
            }
        }
    }

    /// Heals a partition created by [`Topology::partition`].
    pub fn heal(&mut self, group_a: &[SiteId], group_b: &[SiteId]) {
        for &a in group_a {
            for &b in group_b {
                self.set_pair_state_symmetric(a, b, LinkState::Up);
            }
        }
    }
}

/// Which leg of an exchange a frame rides; selects the fault lotteries
/// drawn for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Leg {
    /// A request or one-way frame.
    Request,
    /// The (terminal) reply frame of a call.
    Reply,
    /// One intermediate chunk frame of a streamed reply.
    Chunk,
}

/// How one delivered frame arrives: `dup` twice, `hold` after its
/// successor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Arrival {
    pub(crate) dup: bool,
    pub(crate) hold: bool,
}

/// How a transport passes a leg's modeled delay.
pub(crate) enum Pace {
    /// Charged to a virtual clock.
    /// Handlers run on the caller's stack, where a request can arrive
    /// twice: request legs draw the duplicate lottery.
    Virtual(Clock),
    /// Slept, scaled by this factor (`0.0` = not at all). A request is
    /// queued to its receiver thread exactly once, so no duplicate lottery
    /// is drawn for it.
    Real(f64),
}

/// The modeled network under an in-process transport: its links, the
/// fault-lottery stream, and the counters every leg feeds.
pub(crate) struct LinkLayer {
    pub(crate) topology: RwLock<Topology>,
    pub(crate) rng: Mutex<DetRng>,
    pub(crate) metrics: Metrics,
    pace: Pace,
}

impl LinkLayer {
    pub(crate) fn new(topology: Topology, seed: u64, pace: Pace) -> Self {
        LinkLayer {
            topology: RwLock::new(topology),
            rng: Mutex::new(DetRng::new(seed)),
            metrics: Metrics::new(),
            pace,
        }
    }

    /// Sends one frame of `bytes` across `from -> to`: topology check,
    /// transfer time and fault lottery (drawn in a fixed order, so seeded
    /// runs replay), metrics.
    pub(crate) fn traverse(
        &self,
        from: SiteId,
        to: SiteId,
        bytes: usize,
        leg: Leg,
    ) -> Result<Arrival> {
        let (delay, lost, dup, hold) = {
            let topology = self.topology.read();
            if !topology.is_up(from, to) {
                return Err(ObiError::Disconnected { from, to });
            }
            let link = topology.link(from, to);
            let mut rng = self.rng.lock();
            let delay = link.transfer_time(bytes, &mut rng);
            let (lost, dup, hold) = match leg {
                Leg::Request => (
                    link.drops(&mut rng),
                    matches!(self.pace, Pace::Virtual(_)) && link.duplicates(&mut rng),
                    false,
                ),
                Leg::Reply => (
                    link.drops(&mut rng) || link.drops_reply(&mut rng),
                    false,
                    false,
                ),
                Leg::Chunk => (
                    link.drops(&mut rng) || link.drops_chunk(&mut rng),
                    link.duplicates_chunk(&mut rng),
                    link.reorders_chunk(&mut rng),
                ),
            };
            (delay, lost, dup, hold)
        };
        match &self.pace {
            Pace::Virtual(clock) => clock.charge(delay),
            Pace::Real(scale) if *scale > 0.0 => std::thread::sleep(delay.mul_f64(*scale)),
            Pace::Real(_) => {}
        }
        self.metrics.incr_messages_sent();
        self.metrics.add_bytes_sent(bytes as u64);
        if lost {
            return Err(ObiError::MessageLost { from, to });
        }
        self.metrics.incr_messages_received();
        self.metrics.add_bytes_received(bytes as u64);
        Ok(Arrival { dup, hold })
    }
}

/// Hands streamed reply chunks to the caller in arrival order. At most one
/// is held back at a time, delivering after its successor (pairwise
/// reordering); one whose leg failed is gone, a hole for the terminal frame.
#[derive(Default)]
pub(crate) struct ChunkDelivery {
    held: Option<Bytes>,
}

impl ChunkDelivery {
    /// Delivers `chunk` according to the `fate` its [`Leg::Chunk`] drew.
    pub(crate) fn deliver(
        &mut self,
        chunk: Bytes,
        fate: Result<Arrival>,
        on_frame: &mut dyn FnMut(Bytes),
    ) {
        let Ok(Arrival { dup, hold }) = fate else {
            return;
        };
        if hold {
            if let Some(prev) = self.held.replace(chunk) {
                on_frame(prev);
            }
        } else {
            on_frame(chunk.clone());
            if dup {
                on_frame(chunk);
            }
            self.close(on_frame);
        }
    }

    /// Releases a chunk still held when its successor (or the end of the
    /// stream) arrives: nothing later remains to overtake it.
    pub(crate) fn close(&mut self, on_frame: &mut dyn FnMut(Bytes)) {
        if let Some(prev) = self.held.take() {
            on_frame(prev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(n: u32) -> SiteId {
        SiteId::new(n)
    }

    #[test]
    fn transfer_time_combines_latency_and_bandwidth() {
        let link = LinkModel::new(Duration::from_millis(2), 8_000_000); // 1 MB/s
        let mut rng = DetRng::new(0);
        // 1000 bytes at 1 MB/s = 1 ms; plus 2 ms latency.
        assert_eq!(
            link.transfer_time(1000, &mut rng),
            Duration::from_millis(3)
        );
    }

    #[test]
    fn infinite_bandwidth_means_latency_only() {
        let link = LinkModel::new(Duration::from_micros(10), 0);
        let mut rng = DetRng::new(0);
        assert_eq!(
            link.transfer_time(1 << 20, &mut rng),
            Duration::from_micros(10)
        );
        assert_eq!(link.serialization_delay(1 << 30), Duration::ZERO);
    }

    #[test]
    fn jitter_bounds_hold() {
        let link = LinkModel::new(Duration::from_millis(1), 0)
            .with_jitter(Duration::from_millis(2));
        let mut rng = DetRng::new(42);
        for _ in 0..200 {
            let t = link.transfer_time(0, &mut rng);
            assert!(t >= Duration::from_millis(1));
            assert!(t < Duration::from_millis(3));
        }
    }

    #[test]
    fn loss_probability_zero_and_one() {
        let mut rng = DetRng::new(3);
        assert!(!LinkModel::ideal().drops(&mut rng));
        let lossy = LinkModel::ideal().with_loss(1.0);
        assert!(lossy.drops(&mut rng));
        let clamped = LinkModel::ideal().with_loss(7.5);
        assert_eq!(clamped.loss, 1.0);
    }

    #[test]
    fn loss_rate_is_near_nominal() {
        let lossy = LinkModel::ideal().with_loss(0.3);
        let mut rng = DetRng::new(11);
        let drops = (0..10_000).filter(|_| lossy.drops(&mut rng)).count();
        assert!((2500..3500).contains(&drops), "drops = {drops}");
    }

    #[test]
    fn topology_overrides_take_precedence() {
        let mut t = Topology::uniform(LinkModel::ideal());
        let fast = LinkModel::new(Duration::from_micros(1), 0);
        t.set_link(s(1), s(2), fast.clone());
        assert_eq!(t.link(s(1), s(2)), &fast);
        // Reverse direction still uses the default.
        assert_eq!(t.link(s(2), s(1)), &LinkModel::ideal());
    }

    #[test]
    fn symmetric_override_applies_both_ways() {
        let mut t = Topology::uniform(LinkModel::ideal());
        let slow = LinkModel::new(Duration::from_millis(50), 9600);
        t.set_link_symmetric(s(1), s(2), slow.clone());
        assert_eq!(t.link(s(1), s(2)), &slow);
        assert_eq!(t.link(s(2), s(1)), &slow);
    }

    #[test]
    fn disconnect_blocks_both_directions() {
        let mut t = Topology::uniform(LinkModel::ideal());
        assert!(t.is_up(s(1), s(2)));
        t.disconnect(s(2));
        assert!(!t.is_up(s(1), s(2)));
        assert!(!t.is_up(s(2), s(1)));
        // Unrelated pairs unaffected.
        assert!(t.is_up(s(1), s(3)));
        t.reconnect(s(2));
        assert!(t.is_up(s(1), s(2)));
    }

    #[test]
    fn pair_state_is_directional() {
        let mut t = Topology::uniform(LinkModel::ideal());
        t.set_pair_state(s(1), s(2), LinkState::Down);
        assert!(!t.is_up(s(1), s(2)));
        assert!(t.is_up(s(2), s(1)));
        t.set_pair_state(s(1), s(2), LinkState::Up);
        assert!(t.is_up(s(1), s(2)));
    }

    #[test]
    fn duplicate_and_reorder_sampling() {
        let mut rng = DetRng::new(5);
        let clean = LinkModel::ideal();
        assert!(!clean.duplicates(&mut rng));
        assert!(!clean.reorders(&mut rng));
        let faulty = LinkModel::ideal().with_duplicate(1.0).with_reorder(1.0);
        assert!(faulty.duplicates(&mut rng));
        assert!(faulty.reorders(&mut rng));
        // Clamping mirrors with_loss.
        assert_eq!(LinkModel::ideal().with_duplicate(9.0).duplicate, 1.0);
        assert_eq!(LinkModel::ideal().with_reorder(-2.0).reorder, 0.0);
        let dup = LinkModel::ideal().with_duplicate(0.3);
        let mut rng = DetRng::new(11);
        let hits = (0..10_000).filter(|_| dup.duplicates(&mut rng)).count();
        assert!((2500..3500).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn reply_loss_samples_independently_of_forward_loss() {
        let mut rng = DetRng::new(9);
        // Zero reply loss never drops and never consumes rng state: the
        // next sample from a fresh clone-equivalent stream must agree.
        let clean = LinkModel::ideal();
        assert!(!clean.drops_reply(&mut rng));
        let mut rng2 = DetRng::new(9);
        assert_eq!(rng.next_below(1000), rng2.next_below(1000));

        let lossy = LinkModel::ideal().with_reply_loss(0.3);
        assert_eq!(lossy.loss, 0.0, "forward path stays clean");
        let mut rng = DetRng::new(11);
        let drops = (0..10_000).filter(|_| lossy.drops_reply(&mut rng)).count();
        assert!((2500..3500).contains(&drops), "drops = {drops}");
        assert_eq!(LinkModel::ideal().with_reply_loss(3.0).reply_loss, 1.0);
    }

    #[test]
    fn chunk_faults_sample_independently_and_clamp() {
        // Zero-probability chunk knobs never consume rng state: a stream
        // with no chunk faults must leave every other sample untouched.
        let mut rng = DetRng::new(13);
        let clean = LinkModel::ideal();
        assert!(!clean.drops_chunk(&mut rng));
        assert!(!clean.duplicates_chunk(&mut rng));
        assert!(!clean.reorders_chunk(&mut rng));
        let mut rng2 = DetRng::new(13);
        assert_eq!(rng.next_below(1000), rng2.next_below(1000));

        let faulty = LinkModel::ideal()
            .with_chunk_loss(1.0)
            .with_chunk_duplicate(1.0)
            .with_chunk_reorder(1.0);
        let mut rng = DetRng::new(5);
        assert!(faulty.drops_chunk(&mut rng));
        assert!(faulty.duplicates_chunk(&mut rng));
        assert!(faulty.reorders_chunk(&mut rng));
        assert_eq!(LinkModel::ideal().with_chunk_loss(9.0).chunk_loss, 1.0);
        assert_eq!(
            LinkModel::ideal().with_chunk_duplicate(-1.0).chunk_duplicate,
            0.0
        );
        assert_eq!(LinkModel::ideal().with_chunk_reorder(2.0).chunk_reorder, 1.0);

        // Rates track their nominal probability, and the chunk path stays
        // independent of the frame-level knobs.
        let lossy = LinkModel::ideal().with_chunk_loss(0.3);
        assert_eq!(lossy.loss, 0.0, "frame path stays clean");
        let mut rng = DetRng::new(11);
        let drops = (0..10_000).filter(|_| lossy.drops_chunk(&mut rng)).count();
        assert!((2500..3500).contains(&drops), "drops = {drops}");
    }

    #[test]
    fn oneway_partition_is_asymmetric() {
        let mut t = Topology::uniform(LinkModel::ideal());
        t.partition_oneway(s(1), s(2));
        assert!(!t.is_up(s(1), s(2)));
        assert!(t.is_up(s(2), s(1)));
        t.heal_oneway(s(1), s(2));
        assert!(t.is_up(s(1), s(2)));
    }

    #[test]
    fn partition_and_heal() {
        let mut t = Topology::uniform(LinkModel::ideal());
        let a = [s(1), s(2)];
        let b = [s(3)];
        t.partition(&a, &b);
        assert!(!t.is_up(s(1), s(3)));
        assert!(!t.is_up(s(3), s(2)));
        assert!(t.is_up(s(1), s(2)));
        t.heal(&a, &b);
        assert!(t.is_up(s(1), s(3)));
    }
}
