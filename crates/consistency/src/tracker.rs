//! Client-side staleness tracking.
//!
//! [`StaleTracker`] is the subscriber-side companion of the invalidation
//! protocol: it registers replicas for invalidation traffic and refreshes
//! whatever went stale, in one call — the "update dissemination" hook from
//! the paper's introduction, packaged as a library.

use obiwan_core::{ObiProcess, ObjRef};
use obiwan_util::{ObjId, Result};
use std::collections::BTreeSet;

/// Tracks a set of replicas and refreshes the stale ones on demand.
///
/// # Examples
///
/// See [`tracker` module tests](self) and the `virtual_enterprise` example.
#[derive(Debug, Default)]
pub struct StaleTracker {
    tracked: BTreeSet<ObjId>,
}

/// Outcome of a [`StaleTracker::refresh_stale`] sweep.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RefreshReport {
    /// Replicas that were stale and successfully refreshed.
    pub refreshed: Vec<ObjId>,
    /// Replicas that were stale but could not be refreshed (e.g. the master
    /// is unreachable); they remain stale.
    pub failed: Vec<ObjId>,
    /// Tracked replicas that were already fresh.
    pub fresh: usize,
}

impl StaleTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        StaleTracker::default()
    }

    /// Subscribes `target` (a local replica in `process`) to invalidations
    /// and starts tracking it.
    ///
    /// # Errors
    ///
    /// Fails when `target` is not a local replica or the master is
    /// unreachable.
    pub fn track(&mut self, process: &ObiProcess, target: ObjRef) -> Result<()> {
        process.subscribe(target, false)?;
        self.tracked.insert(target.id());
        Ok(())
    }

    /// Number of tracked replicas.
    pub fn len(&self) -> usize {
        self.tracked.len()
    }

    /// True when nothing is tracked.
    pub fn is_empty(&self) -> bool {
        self.tracked.is_empty()
    }

    /// Tracked replicas currently marked stale.
    pub fn stale_objects(&self, process: &ObiProcess) -> Vec<ObjId> {
        self.tracked
            .iter()
            .copied()
            .filter(|id| {
                process
                    .meta_of(ObjRef::new(*id))
                    .is_some_and(|m| m.stale)
            })
            .collect()
    }

    /// Refreshes every stale tracked replica, reporting what happened.
    pub fn refresh_stale(&self, process: &ObiProcess) -> RefreshReport {
        let mut report = RefreshReport::default();
        for &id in &self.tracked {
            let r = ObjRef::new(id);
            match process.meta_of(r) {
                Some(meta) if meta.stale => match process.refresh(r) {
                    Ok(()) => report.refreshed.push(id),
                    Err(_) => report.failed.push(id),
                },
                Some(_) => report.fresh += 1,
                None => report.failed.push(id),
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obiwan_core::demo::Counter;
    use obiwan_core::{ObiValue, ObiWorld, ReplicationMode};

    fn rig() -> (ObiWorld, obiwan_util::SiteId, obiwan_util::SiteId, ObjRef, ObjRef) {
        let mut world = ObiWorld::loopback();
        let s1 = world.add_site("S1");
        let s2 = world.add_site("S2");
        let master = world.site(s2).create(Counter::new(0));
        world.site(s2).export(master, "c").unwrap();
        let remote = world.site(s1).lookup("c").unwrap();
        let replica = world
            .site(s1)
            .get(&remote, ReplicationMode::incremental(1))
            .unwrap();
        (world, s1, s2, master, replica)
    }

    #[test]
    fn tracker_sees_staleness_and_refreshes() {
        let (world, s1, s2, master, replica) = rig();
        let mut tracker = StaleTracker::new();
        tracker.track(world.site(s1), replica).unwrap();
        assert_eq!(tracker.len(), 1);
        assert!(tracker.stale_objects(world.site(s1)).is_empty());

        world.site(s2).invoke(master, "incr", ObiValue::Null).unwrap();
        world.pump();
        assert_eq!(tracker.stale_objects(world.site(s1)), vec![replica.id()]);

        let report = tracker.refresh_stale(world.site(s1));
        assert_eq!(report.refreshed, vec![replica.id()]);
        assert!(report.failed.is_empty());
        let v = world.site(s1).invoke(replica, "read", ObiValue::Null).unwrap();
        assert_eq!(v, ObiValue::I64(1));
        // Second sweep: everything fresh.
        let report = tracker.refresh_stale(world.site(s1));
        assert_eq!(report.fresh, 1);
        assert!(report.refreshed.is_empty());
    }

    #[test]
    fn refresh_failure_keeps_replica_stale() {
        let (world, s1, s2, master, replica) = rig();
        let mut tracker = StaleTracker::new();
        tracker.track(world.site(s1), replica).unwrap();
        world.site(s2).invoke(master, "incr", ObiValue::Null).unwrap();
        world.pump();
        world.disconnect(s2);
        let report = tracker.refresh_stale(world.site(s1));
        assert_eq!(report.failed, vec![replica.id()]);
        assert!(world.site(s1).meta_of(replica).unwrap().stale);
        // Reconnect and retry.
        world.reconnect(s2);
        let report = tracker.refresh_stale(world.site(s1));
        assert_eq!(report.refreshed, vec![replica.id()]);
    }

    #[test]
    fn tracking_a_master_fails() {
        let (world, _s1, s2, master, _replica) = rig();
        let mut tracker = StaleTracker::new();
        assert!(tracker.track(world.site(s2), master).is_err());
        assert!(tracker.is_empty());
    }
}
