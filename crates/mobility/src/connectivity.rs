//! Connectivity monitoring.
//!
//! Mobile applications must "handle disconnections gracefully and as
//! transparently as possible". Step one is knowing the link state:
//! [`ConnectivityMonitor`] actively probes peer sites and classifies each
//! link, so applications can choose between RMI and LMI *before* a call
//! fails.

use obiwan_core::{BreakerState, ObiProcess};
use obiwan_util::SiteId;
use std::collections::{HashMap, HashSet};
use std::time::Duration;

/// Observed health of a link to one peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkHealth {
    /// Probes succeed promptly.
    Connected,
    /// Probes succeed but round trips exceed the degradation threshold —
    /// prefer replicas over RMI.
    Degraded,
    /// Probes fail: work on local replicas only.
    Disconnected,
}

impl LinkHealth {
    /// True when some traffic gets through.
    pub fn is_usable(self) -> bool {
        !matches!(self, LinkHealth::Disconnected)
    }
}

/// Probes peers and remembers what it saw.
///
/// # Examples
///
/// ```
/// use obiwan_core::ObiWorld;
/// use obiwan_mobility::{ConnectivityMonitor, LinkHealth};
///
/// let mut world = ObiWorld::paper_testbed();
/// let s1 = world.add_site("S1");
/// let s2 = world.add_site("S2");
/// let mut monitor = ConnectivityMonitor::new(std::time::Duration::from_millis(50));
/// assert_eq!(monitor.probe(world.site(s1), s2), LinkHealth::Connected);
/// world.disconnect(s2);
/// assert_eq!(monitor.probe(world.site(s1), s2), LinkHealth::Disconnected);
/// ```
#[derive(Debug)]
pub struct ConnectivityMonitor {
    degraded_threshold: Duration,
    last_seen: HashMap<SiteId, LinkHealth>,
    /// Peers that left the world. A retired peer is not a failed peer: it
    /// never gets pinged (no probe budget spent on a site that told us it
    /// was going), never counts as a failure, and drops out of the
    /// disconnected list so sweep loops don't keep chasing it.
    retired: HashSet<SiteId>,
    probes: u64,
    failures: u64,
}

impl ConnectivityMonitor {
    /// A monitor that classifies round trips above `degraded_threshold` as
    /// [`LinkHealth::Degraded`].
    pub fn new(degraded_threshold: Duration) -> Self {
        ConnectivityMonitor {
            degraded_threshold,
            last_seen: HashMap::new(),
            retired: HashSet::new(),
            probes: 0,
            failures: 0,
        }
    }

    /// Marks `peer` as departed (a graceful leave, or a crash-leave
    /// confirmed out of band): its probe history is forgotten and later
    /// [`ConnectivityMonitor::probe`] calls classify it as
    /// [`LinkHealth::Disconnected`] without pinging or counting toward the
    /// probe and failure totals.
    pub fn retire_peer(&mut self, peer: SiteId) {
        self.retired.insert(peer);
        self.last_seen.remove(&peer);
    }

    /// Re-admits a previously retired peer (it rejoined the world); the
    /// next probe measures it from a clean slate.
    pub fn readmit_peer(&mut self, peer: SiteId) {
        self.retired.remove(&peer);
    }

    /// Peers currently marked as departed, sorted.
    pub fn retired_peers(&self) -> Vec<SiteId> {
        let mut v: Vec<SiteId> = self.retired.iter().copied().collect();
        v.sort();
        v
    }

    /// Probes `peer` from `process` and records the result.
    ///
    /// Round-trip time is measured against the process's shared clock, so
    /// in virtual-time worlds the classification follows the link model
    /// rather than wall time.
    ///
    /// The probe is breaker-aware: when the process's circuit breaker for
    /// `peer` is open, the ping fails fast without a network attempt and
    /// the link classifies as [`LinkHealth::Disconnected`] at near-zero
    /// cost; a successful ping would first have to pass a half-open probe,
    /// which classifies as [`LinkHealth::Degraded`] until the breaker is
    /// confirmed closed.
    pub fn probe(&mut self, process: &ObiProcess, peer: SiteId) -> LinkHealth {
        if self.retired.contains(&peer) {
            return LinkHealth::Disconnected;
        }
        self.probes += 1;
        let half_open = process.breaker_state(peer) == BreakerState::HalfOpen;
        let before = process.clock().elapsed();
        let health = match process.ping(peer) {
            Ok(()) => {
                let rtt = process.clock().elapsed().saturating_sub(before);
                if rtt > self.degraded_threshold || half_open {
                    LinkHealth::Degraded
                } else {
                    LinkHealth::Connected
                }
            }
            Err(_) => {
                self.failures += 1;
                LinkHealth::Disconnected
            }
        };
        self.last_seen.insert(peer, health);
        health
    }

    /// The last classification for `peer`, if it was ever probed.
    pub fn last_health(&self, peer: SiteId) -> Option<LinkHealth> {
        self.last_seen.get(&peer).copied()
    }

    /// Total probes issued.
    pub fn probe_count(&self) -> u64 {
        self.probes
    }

    /// Probes that failed.
    pub fn failure_count(&self) -> u64 {
        self.failures
    }

    /// Peers last seen as unusable.
    pub fn disconnected_peers(&self) -> Vec<SiteId> {
        let mut v: Vec<SiteId> = self
            .last_seen
            .iter()
            .filter(|(_, h)| !h.is_usable())
            .map(|(s, _)| *s)
            .collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obiwan_core::ObiWorld;

    #[test]
    fn connected_and_disconnected_classification() {
        let mut world = ObiWorld::loopback();
        let s1 = world.add_site("S1");
        let s2 = world.add_site("S2");
        let mut m = ConnectivityMonitor::new(Duration::from_secs(1));
        assert_eq!(m.probe(world.site(s1), s2), LinkHealth::Connected);
        assert_eq!(m.last_health(s2), Some(LinkHealth::Connected));
        world.disconnect(s2);
        assert_eq!(m.probe(world.site(s1), s2), LinkHealth::Disconnected);
        assert_eq!(m.disconnected_peers(), vec![s2]);
        world.reconnect(s2);
        assert_eq!(m.probe(world.site(s1), s2), LinkHealth::Connected);
        assert!(m.disconnected_peers().is_empty());
        assert_eq!(m.probe_count(), 3);
        assert_eq!(m.failure_count(), 1);
    }

    #[test]
    fn unknown_peer_counts_as_disconnected() {
        let mut world = ObiWorld::loopback();
        let s1 = world.add_site("S1");
        let mut m = ConnectivityMonitor::new(Duration::from_secs(1));
        assert_eq!(
            m.probe(world.site(s1), SiteId::new(99)),
            LinkHealth::Disconnected
        );
    }

    #[test]
    fn never_probed_peers_have_no_history() {
        let m = ConnectivityMonitor::new(Duration::from_secs(1));
        assert_eq!(m.last_health(SiteId::new(5)), None);
        assert_eq!(m.probe_count(), 0);
    }

    #[test]
    fn slow_links_classify_as_degraded() {
        // Paper-testbed RTT is ≈ 2.8 ms; a 1 µs threshold flags it.
        let mut world = ObiWorld::paper_testbed();
        let s1 = world.add_site("S1");
        let s2 = world.add_site("S2");
        let mut strict = ConnectivityMonitor::new(Duration::from_micros(1));
        assert_eq!(strict.probe(world.site(s1), s2), LinkHealth::Degraded);
        let mut lax = ConnectivityMonitor::new(Duration::from_secs(1));
        assert_eq!(lax.probe(world.site(s1), s2), LinkHealth::Connected);
    }

    #[test]
    fn open_breaker_probes_fail_fast_and_recover_through_half_open() {
        use obiwan_core::BreakerState;
        use obiwan_rmi::fault::{BREAKER_COOLDOWN, BREAKER_THRESHOLD};
        let mut world = ObiWorld::paper_testbed();
        let s1 = world.add_site("S1");
        let s2 = world.add_site("S2");
        let mut m = ConnectivityMonitor::new(Duration::from_secs(1));
        assert_eq!(m.probe(world.site(s1), s2), LinkHealth::Connected);
        world.disconnect(s2);
        let threshold = BREAKER_THRESHOLD;
        for _ in 0..threshold {
            assert_eq!(m.probe(world.site(s1), s2), LinkHealth::Disconnected);
        }
        assert_eq!(world.site(s1).breaker_state(s2), BreakerState::Open);
        // With the breaker open the probe never touches the network: zero
        // virtual time, and the fast-fail counter moves.
        let fails_before = world.site(s1).metrics().snapshot().breaker_fast_fails;
        let t_before = world.site(s1).clock().elapsed();
        assert_eq!(m.probe(world.site(s1), s2), LinkHealth::Disconnected);
        assert_eq!(world.site(s1).clock().elapsed(), t_before);
        assert_eq!(
            world.site(s1).metrics().snapshot().breaker_fast_fails,
            fails_before + 1
        );
        // Heal and wait out the cooldown: the half-open probe succeeds but
        // classifies cautiously as Degraded; the next one is Connected.
        world.reconnect(s2);
        world.site(s1).clock().charge(BREAKER_COOLDOWN);
        assert_eq!(m.probe(world.site(s1), s2), LinkHealth::Degraded);
        assert_eq!(m.probe(world.site(s1), s2), LinkHealth::Connected);
    }

    #[test]
    fn retired_peers_stop_consuming_probe_budget() {
        let mut world = ObiWorld::loopback();
        let s1 = world.add_site("S1");
        let s2 = world.add_site("S2");
        let mut m = ConnectivityMonitor::new(Duration::from_secs(1));
        assert_eq!(m.probe(world.site(s1), s2), LinkHealth::Connected);
        // s2 leaves gracefully. Before this fix the monitor kept pinging
        // the dead address forever, burning a probe (and, disconnected, a
        // failure) per sweep.
        m.retire_peer(s2);
        assert_eq!(m.last_health(s2), None, "history is forgotten");
        assert_eq!(m.retired_peers(), vec![s2]);
        let probes_before = m.probe_count();
        for _ in 0..10 {
            assert_eq!(m.probe(world.site(s1), s2), LinkHealth::Disconnected);
        }
        assert_eq!(m.probe_count(), probes_before, "no probe budget spent");
        assert_eq!(m.failure_count(), 0);
        assert!(m.disconnected_peers().is_empty(), "not chased as failed");
        // The site rejoins (new incarnation, same id): one readmit and the
        // monitor measures it fresh.
        m.readmit_peer(s2);
        assert_eq!(m.probe(world.site(s1), s2), LinkHealth::Connected);
        assert_eq!(m.probe_count(), probes_before + 1);
    }

    #[test]
    fn health_usability() {
        assert!(LinkHealth::Connected.is_usable());
        assert!(LinkHealth::Degraded.is_usable());
        assert!(!LinkHealth::Disconnected.is_usable());
    }
}
