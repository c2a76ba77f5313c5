//! [`ObiWorld`]: a convenience container wiring sites, transport, clock and
//! name server together.
//!
//! A world is the in-process equivalent of "a network of machines in which
//! one or more processes run" (§2): it owns a [`SimTransport`], hosts a
//! dedicated name-server site, and hands out [`ObiProcess`]es.

use crate::demo;
use crate::object::ClassRegistry;
use crate::process::ObiProcess;
use obiwan_net::{conditions, LinkModel, SimTransport, Transport};
use obiwan_rmi::{NameServer, NameServerService, RmiServer};
use obiwan_util::{Clock, ClockMode, CostModel, SiteId};
use std::collections::HashMap;
use std::sync::Arc;

/// The site id reserved for the world's name server.
pub const NAME_SERVER_SITE: SiteId = SiteId::new(0);

/// A self-contained network of OBIWAN sites over a simulated transport.
///
/// # Examples
///
/// ```
/// use obiwan_core::{ObiWorld, ReplicationMode};
/// use obiwan_core::demo::Counter;
///
/// # fn main() -> obiwan_util::Result<()> {
/// let mut world = ObiWorld::paper_testbed();
/// let s1 = world.add_site("S1");
/// let s2 = world.add_site("S2");
///
/// let counter = world.site(s2).create(Counter::new(0));
/// world.site(s2).export(counter, "hits")?;
///
/// let remote = world.site(s1).lookup("hits")?;
/// let replica = world.site(s1).get(&remote, ReplicationMode::incremental(1))?;
/// assert!(world.site(s1).is_replicated(replica));
/// # Ok(())
/// # }
/// ```
pub struct ObiWorld {
    transport: Arc<SimTransport>,
    clock: Clock,
    costs: CostModel,
    registry: ClassRegistry,
    processes: HashMap<SiteId, ObiProcess>,
    site_names: HashMap<SiteId, String>,
    next_site: u32,
}

impl std::fmt::Debug for ObiWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObiWorld")
            .field("sites", &self.processes.len())
            .field("virtual_nanos", &self.clock.virtual_nanos())
            .finish()
    }
}

impl ObiWorld {
    /// A world with an explicit clock mode, link model and cost model.
    ///
    /// The demo classes ([`crate::demo`]) are pre-registered; register
    /// application classes through [`ObiWorld::registry`].
    pub fn new(mode: ClockMode, link: LinkModel, costs: CostModel) -> Self {
        let clock = Clock::new(mode);
        let transport = Arc::new(SimTransport::new(clock.clone(), link));
        let registry = ClassRegistry::new();
        demo::register_all(&registry);
        let ns = Arc::new(NameServerService::new(NameServer::new()));
        transport.register(NAME_SERVER_SITE, Arc::new(RmiServer::new(ns)));
        ObiWorld {
            transport,
            clock,
            costs,
            registry,
            processes: HashMap::new(),
            site_names: HashMap::new(),
            next_site: 1,
        }
    }

    /// The paper's testbed: deterministic virtual time, 10 Mb/s LAN,
    /// calibrated cost model (LMI ≈ 2 µs, RMI ≈ 2.8 ms).
    pub fn paper_testbed() -> Self {
        ObiWorld::new(
            ClockMode::VirtualOnly,
            conditions::paper_lan(),
            CostModel::paper_testbed(),
        )
    }

    /// A free world: zero network cost, zero modeled CPU cost. Useful in
    /// tests that assert protocol behaviour rather than timing.
    pub fn loopback() -> Self {
        ObiWorld::new(
            ClockMode::VirtualOnly,
            conditions::loopback(),
            CostModel::free(),
        )
    }

    /// Adds a site named `name` whose links to every existing site use
    /// `link` (e.g. a GPRS device joining a LAN world).
    pub fn add_site_with_link(&mut self, name: &str, link: LinkModel) -> SiteId {
        let existing: Vec<SiteId> = self.sites();
        let site = self.add_site(name);
        self.transport.with_topology_mut(|t| {
            t.set_link_symmetric(site, NAME_SERVER_SITE, link.clone());
            for other in existing {
                t.set_link_symmetric(site, other, link.clone());
            }
        });
        site
    }

    /// Adds a site named `name`, returning its id.
    pub fn add_site(&mut self, name: &str) -> SiteId {
        let site = SiteId::new(self.next_site);
        self.next_site += 1;
        let process = ObiProcess::new(
            site,
            self.transport.clone() as Arc<dyn Transport>,
            self.clock.clone(),
            self.costs.clone(),
            self.registry.clone(),
            NAME_SERVER_SITE,
        );
        self.transport.register(site, process.message_handler());
        self.site_names.insert(site, name.to_owned());
        self.processes.insert(site, process);
        site
    }

    /// Simulates a crash-and-restart of `site`: the old process (with all
    /// its in-memory state — replicas, exports, request counters) is
    /// dropped and a fresh one takes over the same site id, name, and
    /// links. Registering the new message handler replaces the old one.
    ///
    /// The caller re-attaches durability and replays recovered state (see
    /// `ObiProcess::attach_durability` / `ObiProcess::recover_from`); a
    /// restart without a durability log models a site that lost
    /// everything.
    ///
    /// # Panics
    ///
    /// Panics when the site was not created by this world.
    pub fn restart_site(&mut self, site: SiteId) -> &ObiProcess {
        assert!(
            self.processes.contains_key(&site),
            "unknown site {site}"
        );
        let process = ObiProcess::new(
            site,
            self.transport.clone() as Arc<dyn Transport>,
            self.clock.clone(),
            self.costs.clone(),
            self.registry.clone(),
            NAME_SERVER_SITE,
        );
        self.transport.register(site, process.message_handler());
        self.processes.insert(site, process);
        self.site(site)
    }

    /// Removes `site` from the world entirely: its process (with all
    /// in-memory state) is dropped and its transport registration removed,
    /// so frames addressed to it fail like any unreachable site. This is
    /// the world-side half of a departure — call
    /// [`ObiProcess::leave`](crate::ObiProcess::leave) first for a graceful
    /// one, or skip it to model a crash-leave. Site ids are never reused;
    /// a returning site joins as a new one via [`ObiWorld::add_site`].
    ///
    /// # Panics
    ///
    /// Panics when the site was not created by this world.
    pub fn retire_site(&mut self, site: SiteId) {
        assert!(self.processes.contains_key(&site), "unknown site {site}");
        self.processes.remove(&site);
        self.site_names.remove(&site);
        self.transport.deregister(site);
    }

    /// The process running at `site`.
    ///
    /// # Panics
    ///
    /// Panics when the site was not created by this world.
    pub fn site(&self, site: SiteId) -> &ObiProcess {
        self.processes
            .get(&site)
            .unwrap_or_else(|| panic!("unknown site {site}"))
    }

    /// The human name given to `site` at creation.
    pub fn site_name(&self, site: SiteId) -> Option<&str> {
        self.site_names.get(&site).map(String::as_str)
    }

    /// All site ids, in creation order.
    pub fn sites(&self) -> Vec<SiteId> {
        let mut ids: Vec<SiteId> = self.processes.keys().copied().collect();
        ids.sort();
        ids
    }

    /// The shared clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The underlying transport (topology edits, traces, metrics).
    pub fn transport(&self) -> &SimTransport {
        &self.transport
    }

    /// The shared class registry.
    pub fn registry(&self) -> &ClassRegistry {
        &self.registry
    }

    /// Disconnects a site from the network (mobility: loss of coverage or a
    /// voluntary disconnection).
    pub fn disconnect(&self, site: SiteId) {
        self.transport.disconnect(site);
    }

    /// Reconnects a site and immediately delivers any one-way traffic that
    /// queued at its peers.
    pub fn reconnect(&self, site: SiteId) {
        self.transport.reconnect(site);
        self.pump();
    }

    /// Drains every process's deferred one-way messages (invalidations and
    /// pushes that arrived while a process was busy). Frames held back by
    /// reorder fault injection are released first so the drain sees them.
    pub fn pump(&self) {
        self.transport.flush_reordered();
        for process in self.processes.values() {
            process.drain_inbox();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo::Counter;

    #[test]
    fn sites_get_distinct_ids_starting_after_name_server() {
        let mut w = ObiWorld::loopback();
        let a = w.add_site("a");
        let b = w.add_site("b");
        assert_ne!(a, b);
        assert_ne!(a, NAME_SERVER_SITE);
        assert_eq!(w.sites(), vec![a, b]);
        assert_eq!(w.site_name(a), Some("a"));
    }

    #[test]
    fn export_and_lookup_through_world_name_server() {
        let mut w = ObiWorld::loopback();
        let s1 = w.add_site("S1");
        let s2 = w.add_site("S2");
        let c = w.site(s2).create(Counter::new(5));
        w.site(s2).export(c, "counter").unwrap();
        let found = w.site(s1).lookup("counter").unwrap();
        assert_eq!(found.id(), c.id());
        assert_eq!(found.host(), s2);
    }

    #[test]
    #[should_panic(expected = "unknown site")]
    fn unknown_site_panics() {
        let w = ObiWorld::loopback();
        let _ = w.site(SiteId::new(42));
    }

    #[test]
    fn constructor_variants_differ_as_documented() {
        use obiwan_util::ClockMode;
        assert_eq!(
            ObiWorld::paper_testbed().clock().mode(),
            ClockMode::VirtualOnly
        );
        // Loopback charges nothing for a lookup; the paper testbed does.
        let mut free = ObiWorld::loopback();
        let s = free.add_site("s");
        let _ = free.site(s).lookup("x");
        assert_eq!(free.clock().virtual_nanos(), 0);
        let mut paid = ObiWorld::paper_testbed();
        let s = paid.add_site("s");
        let _ = paid.site(s).lookup("x");
        assert!(paid.clock().virtual_nanos() > 0);
    }

    #[test]
    fn add_site_with_link_degrades_every_edge() {
        use obiwan_net::conditions;
        let mut w = ObiWorld::paper_testbed();
        let lan = w.add_site("lan");
        let pda = w.add_site_with_link("pda", conditions::gprs());
        // LAN->LAN round trip is milliseconds; anything touching the PDA
        // takes at least the 300 ms GPRS latency each way.
        let before = w.clock().virtual_nanos();
        let _ = w.site(lan).ping(pda);
        let gprs_rtt = w.clock().virtual_nanos() - before;
        assert!(gprs_rtt >= 600_000_000, "rtt {gprs_rtt} ns");
        // Even the PDA's name-server traffic is slow.
        let before = w.clock().virtual_nanos();
        let _ = w.site(pda).lookup("nothing");
        assert!(w.clock().virtual_nanos() - before >= 600_000_000);
    }

    #[test]
    fn disconnect_blocks_lookup() {
        let mut w = ObiWorld::loopback();
        let s1 = w.add_site("S1");
        w.disconnect(s1);
        assert!(w.site(s1).lookup("anything").unwrap_err().is_connectivity());
        w.reconnect(s1);
        // Now fails with NameNotBound instead of a connectivity error.
        assert!(!w.site(s1).lookup("anything").unwrap_err().is_connectivity());
    }
}
