//! Hoarding: replicate ahead of a disconnection.
//!
//! "As long as objects needed by an application (or by an agent) are
//! colocated, there is no need to be connected to the network." A
//! [`HoardProfile`] names everything the application will need and the mode
//! to fetch each graph with; [`Hoarder::hoard`] pulls it all in one sweep
//! and reports what made it.

use obiwan_core::{ObiProcess, ObjRef, ReplicationMode};
use obiwan_util::Result;

/// One named graph to hoard, with its replication mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HoardEntry {
    /// The name-server binding of the graph's root.
    pub name: String,
    /// How to replicate it. [`ReplicationMode::TransitiveClosure`] is the
    /// safe default before a disconnection; cluster modes trade memory for
    /// fault risk.
    pub mode: ReplicationMode,
}

/// Everything an application wants co-located before going offline.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HoardProfile {
    entries: Vec<HoardEntry>,
}

impl HoardProfile {
    /// An empty profile.
    pub fn new() -> Self {
        HoardProfile::default()
    }

    /// Adds a named graph (builder style).
    pub fn with(mut self, name: impl Into<String>, mode: ReplicationMode) -> Self {
        self.entries.push(HoardEntry {
            name: name.into(),
            mode,
        });
        self
    }

    /// Adds a named graph in place.
    pub fn add(&mut self, name: impl Into<String>, mode: ReplicationMode) {
        self.entries.push(HoardEntry {
            name: name.into(),
            mode,
        });
    }

    /// The configured entries.
    pub fn entries(&self) -> &[HoardEntry] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is configured.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// What one hoard sweep achieved.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HoardReport {
    /// Successfully hoarded roots, with their local references.
    pub hoarded: Vec<(String, ObjRef)>,
    /// Entries that failed (name unbound, master unreachable, …) with the
    /// error rendered; the sweep continues past failures.
    pub failed: Vec<(String, String)>,
    /// Replicas created by this sweep (from process metrics).
    pub replicas_created: u64,
}

impl HoardReport {
    /// True when every entry was hoarded.
    pub fn is_complete(&self) -> bool {
        self.failed.is_empty()
    }

    /// The local root for a hoarded name.
    pub fn root_of(&self, name: &str) -> Option<ObjRef> {
        self.hoarded
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, r)| *r)
    }
}

/// Executes hoard profiles against a process.
#[derive(Debug, Clone, Default)]
pub struct Hoarder {
    profile: HoardProfile,
}

impl Hoarder {
    /// A hoarder for `profile`.
    pub fn new(profile: HoardProfile) -> Self {
        Hoarder { profile }
    }

    /// Looks up and replicates every profile entry into `process`.
    ///
    /// Failures are per-entry: one unreachable graph does not abort the
    /// sweep (the user boards the plane with whatever was hoarded).
    pub fn hoard(&self, process: &ObiProcess) -> HoardReport {
        let before = process.metrics().snapshot();
        let mut report = HoardReport::default();
        for entry in self.profile.entries() {
            let outcome: Result<ObjRef> = process
                .lookup(&entry.name)
                .and_then(|remote| process.get(&remote, entry.mode));
            match outcome {
                Ok(root) => {
                    // Hoarded roots are application-held: protect them (and
                    // everything they reach) from replica GC.
                    process.add_root(root);
                    report.hoarded.push((entry.name.clone(), root));
                }
                Err(e) => report.failed.push((entry.name.clone(), e.to_string())),
            }
        }
        let after = process.metrics().snapshot();
        report.replicas_created = after.since(&before).replicas_created;
        report
    }

    /// Verifies that every hoarded root is still locally resolvable (e.g.
    /// after a GC) — a pre-flight check before going offline.
    pub fn verify(&self, process: &ObiProcess, report: &HoardReport) -> bool {
        report
            .hoarded
            .iter()
            .all(|(_, root)| process.is_replicated(*root))
            && report.hoarded.len() == self.profile.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obiwan_core::demo::{Document, LinkedItem};
    use obiwan_core::{ObiValue, ObiWorld};

    fn rig() -> (ObiWorld, obiwan_util::SiteId, obiwan_util::SiteId) {
        let mut world = ObiWorld::loopback();
        let s1 = world.add_site("laptop");
        let s2 = world.add_site("office");
        // Export a 3-item list and a document from the office.
        let c = world.site(s2).create(LinkedItem::new(3, "c"));
        let b = world.site(s2).create(LinkedItem::with_next(2, "b", c));
        let a = world.site(s2).create(LinkedItem::with_next(1, "a", b));
        world.site(s2).export(a, "tasks").unwrap();
        let doc = world.site(s2).create(Document::new("notes"));
        world.site(s2).export(doc, "notes").unwrap();
        (world, s1, s2)
    }

    #[test]
    fn hoard_replicates_every_entry() {
        let (world, s1, _s2) = rig();
        let profile = HoardProfile::new()
            .with("tasks", ReplicationMode::transitive())
            .with("notes", ReplicationMode::incremental(1));
        let hoarder = Hoarder::new(profile);
        let report = hoarder.hoard(world.site(s1));
        assert!(report.is_complete());
        assert_eq!(report.hoarded.len(), 2);
        assert_eq!(report.replicas_created, 4); // 3 list items + 1 doc
        assert!(hoarder.verify(world.site(s1), &report));
    }

    #[test]
    fn hoarded_graph_works_offline() {
        let (world, s1, _s2) = rig();
        let hoarder =
            Hoarder::new(HoardProfile::new().with("tasks", ReplicationMode::transitive()));
        let report = hoarder.hoard(world.site(s1));
        let root = report.root_of("tasks").unwrap();
        world.disconnect(s1);
        let sum = world
            .site(s1)
            .invoke(root, "sum_rest", ObiValue::Null)
            .unwrap();
        assert_eq!(sum, ObiValue::I64(6));
    }

    #[test]
    fn partial_failures_do_not_abort_the_sweep() {
        let (world, s1, _s2) = rig();
        let profile = HoardProfile::new()
            .with("tasks", ReplicationMode::transitive())
            .with("missing-name", ReplicationMode::transitive())
            .with("notes", ReplicationMode::transitive());
        let hoarder = Hoarder::new(profile);
        let report = hoarder.hoard(world.site(s1));
        assert!(!report.is_complete());
        assert_eq!(report.hoarded.len(), 2);
        assert_eq!(report.failed.len(), 1);
        assert_eq!(report.failed[0].0, "missing-name");
        assert!(!hoarder.verify(world.site(s1), &report));
    }

    #[test]
    fn incremental_hoard_leaves_frontier_proxies() {
        let (world, s1, _s2) = rig();
        let hoarder =
            Hoarder::new(HoardProfile::new().with("tasks", ReplicationMode::incremental(1)));
        let report = hoarder.hoard(world.site(s1));
        assert!(report.is_complete());
        assert_eq!(report.replicas_created, 1);
        assert_eq!(world.site(s1).proxy_count(), 1);
    }

    #[test]
    fn profile_builders() {
        let mut p = HoardProfile::new();
        assert!(p.is_empty());
        p.add("x", ReplicationMode::cluster(10));
        assert_eq!(p.len(), 1);
        assert_eq!(p.entries()[0].mode, ReplicationMode::cluster(10));
    }
}
