//! Master-side consistency policies (implementations of
//! [`ConsistencyHook`]).
//!
//! Plugged into a process with
//! [`ObiProcess::set_policy`](obiwan_core::ObiProcess::set_policy), these
//! decide the fate of replica write-backs:
//!
//! | Policy | Concurrent write-backs | Use when |
//! |---|---|---|
//! | [`AcceptAll`](obiwan_core::AcceptAll) | last writer wins by arrival | best-effort shared state |
//! | [`OptimisticDetect`] | rejected (first writer wins) | edits must not be silently lost |
//! | [`MonotonicVersions`] | rejected if based on an older state than the last accepted write | session-ish guarantees |

use obiwan_core::ConsistencyHook;
use obiwan_util::{ObiError, ObjId, Result};
use std::collections::HashMap;

/// First-writer-wins optimistic concurrency: a `put` is accepted only when
/// the replica's base version equals the master's current version, i.e. no
/// other write (local or remote) intervened since the replica was fetched.
///
/// Rejected writers keep their dirty replica and can
/// [`refresh`](obiwan_core::ObiProcess::refresh) + reapply.
#[derive(Debug, Clone, Copy, Default)]
pub struct OptimisticDetect;

impl OptimisticDetect {
    /// Creates the policy.
    pub fn new() -> Self {
        OptimisticDetect
    }
}

impl ConsistencyHook for OptimisticDetect {
    fn name(&self) -> &'static str {
        "optimistic-detect"
    }

    fn decide_put(&mut self, object: ObjId, master_version: u64, base_version: u64) -> Result<()> {
        if base_version == master_version {
            Ok(())
        } else {
            Err(ObiError::UpdateRejected {
                object,
                reason: format!(
                    "concurrent update: replica based on v{base_version}, master at v{master_version}"
                ),
            })
        }
    }
}

/// Monotonic write-backs: a `put` is accepted when it is based on a state at
/// least as new as the base of the last *accepted* write. Unlike
/// [`OptimisticDetect`], a master-side read-only bump or a lost race with a
/// slower writer does not permanently wedge clients — only genuinely older
/// bases are refused.
#[derive(Debug, Clone, Default)]
pub struct MonotonicVersions {
    last_accepted_base: HashMap<ObjId, u64>,
}

impl MonotonicVersions {
    /// Creates the policy.
    pub fn new() -> Self {
        MonotonicVersions::default()
    }
}

impl ConsistencyHook for MonotonicVersions {
    fn name(&self) -> &'static str {
        "monotonic-versions"
    }

    fn decide_put(&mut self, object: ObjId, _master_version: u64, base_version: u64) -> Result<()> {
        let floor = self.last_accepted_base.get(&object).copied().unwrap_or(0);
        if base_version >= floor {
            self.last_accepted_base.insert(object, base_version);
            Ok(())
        } else {
            Err(ObiError::UpdateRejected {
                object,
                reason: format!(
                    "stale write: based on v{base_version}, later write already accepted from v{floor}"
                ),
            })
        }
    }
}

/// Read-only masters: every write-back is refused. For published reference
/// data that roams freely but must never be modified from the edge.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReadOnly;

impl ReadOnly {
    /// Creates the policy.
    pub fn new() -> Self {
        ReadOnly
    }
}

impl ConsistencyHook for ReadOnly {
    fn name(&self) -> &'static str {
        "read-only"
    }

    fn decide_put(&mut self, object: ObjId, _mv: u64, _bv: u64) -> Result<()> {
        Err(ObiError::UpdateRejected {
            object,
            reason: "object is published read-only".into(),
        })
    }
}

/// Bounded divergence: a write-back is accepted as long as the replica's
/// base is at most `max_lag` versions behind the master — a middle ground
/// between [`AcceptAll`](obiwan_core::AcceptAll) (`max_lag = ∞`) and
/// [`OptimisticDetect`] (`max_lag = 0`). Suits counters and logs where a
/// small overwrite window is acceptable but month-old replicas should not
/// clobber fresh state after a long disconnection.
#[derive(Debug, Clone, Copy)]
pub struct BoundedDivergence {
    max_lag: u64,
}

impl BoundedDivergence {
    /// Accepts write-backs lagging at most `max_lag` versions.
    pub fn new(max_lag: u64) -> Self {
        BoundedDivergence { max_lag }
    }

    /// The configured window.
    pub fn max_lag(&self) -> u64 {
        self.max_lag
    }
}

impl ConsistencyHook for BoundedDivergence {
    fn name(&self) -> &'static str {
        "bounded-divergence"
    }

    fn decide_put(&mut self, object: ObjId, master_version: u64, base_version: u64) -> Result<()> {
        let lag = master_version.saturating_sub(base_version);
        if lag <= self.max_lag {
            Ok(())
        } else {
            Err(ObiError::UpdateRejected {
                object,
                reason: format!(
                    "replica lags {lag} versions behind the master (allowed: {})",
                    self.max_lag
                ),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obiwan_util::SiteId;

    fn oid(l: u64) -> ObjId {
        ObjId::new(SiteId::new(2), l)
    }

    #[test]
    fn optimistic_accepts_only_matching_base() {
        let mut p = OptimisticDetect::new();
        assert!(p.decide_put(oid(1), 5, 5).is_ok());
        assert!(matches!(
            p.decide_put(oid(1), 6, 5),
            Err(ObiError::UpdateRejected { .. })
        ));
        assert!(p.decide_put(oid(1), 5, 6).is_err());
        assert_eq!(p.name(), "optimistic-detect");
    }

    #[test]
    fn monotonic_tracks_per_object_floors() {
        let mut p = MonotonicVersions::new();
        assert!(p.decide_put(oid(1), 10, 3).is_ok());
        // Equal base: allowed (idempotent retry).
        assert!(p.decide_put(oid(1), 11, 3).is_ok());
        // Older base: refused.
        assert!(p.decide_put(oid(1), 12, 2).is_err());
        // Different object has its own floor.
        assert!(p.decide_put(oid(2), 12, 1).is_ok());
        // Newer base raises the floor.
        assert!(p.decide_put(oid(1), 13, 7).is_ok());
        assert!(p.decide_put(oid(1), 14, 6).is_err());
    }

    #[test]
    fn end_to_end_optimistic_conflict() {
        use obiwan_core::demo::Counter;
        use obiwan_core::{ObiValue, ObiWorld, ReplicationMode};

        let mut world = ObiWorld::loopback();
        let s1 = world.add_site("S1");
        let s2 = world.add_site("S2");
        let s3 = world.add_site("S3");
        let master = world.site(s2).create(Counter::new(0));
        world.site(s2).export(master, "c").unwrap();
        world.site(s2).set_policy(Box::new(OptimisticDetect::new()));

        let remote1 = world.site(s1).lookup("c").unwrap();
        let remote3 = world.site(s3).lookup("c").unwrap();
        let r1 = world
            .site(s1)
            .get(&remote1, ReplicationMode::incremental(1))
            .unwrap();
        let r3 = world
            .site(s3)
            .get(&remote3, ReplicationMode::incremental(1))
            .unwrap();
        world.site(s1).invoke(r1, "incr", ObiValue::Null).unwrap();
        world.site(s3).invoke(r3, "incr", ObiValue::Null).unwrap();
        // First writer wins…
        world.site(s1).put(r1).unwrap();
        // …second is a conflict.
        assert!(matches!(
            world.site(s3).put(r3),
            Err(ObiError::UpdateRejected { .. })
        ));
        // Loser refreshes and reapplies.
        world.site(s3).refresh(r3).unwrap();
        world.site(s3).invoke(r3, "incr", ObiValue::Null).unwrap();
        world.site(s3).put(r3).unwrap();
        let v = world
            .site(s2)
            .invoke(master, "read", ObiValue::Null)
            .unwrap();
        assert_eq!(v, ObiValue::I64(2));
    }
}

#[cfg(test)]
mod more_policy_tests {
    use super::*;
    use obiwan_util::SiteId;

    fn oid(l: u64) -> ObjId {
        ObjId::new(SiteId::new(2), l)
    }

    #[test]
    fn read_only_refuses_everything() {
        let mut p = ReadOnly::new();
        assert!(p.decide_put(oid(1), 1, 1).is_err());
        assert!(p.decide_put(oid(1), 9, 9).is_err());
        assert_eq!(p.name(), "read-only");
    }

    #[test]
    fn bounded_divergence_window() {
        let mut p = BoundedDivergence::new(2);
        assert_eq!(p.max_lag(), 2);
        assert!(p.decide_put(oid(1), 5, 5).is_ok()); // lag 0
        assert!(p.decide_put(oid(1), 5, 3).is_ok()); // lag 2
        assert!(p.decide_put(oid(1), 5, 2).is_err()); // lag 3
        // Replica ahead of master (post-accept race): lag saturates to 0.
        assert!(p.decide_put(oid(1), 3, 5).is_ok());
        // max_lag 0 behaves like OptimisticDetect.
        let mut strict = BoundedDivergence::new(0);
        assert!(strict.decide_put(oid(1), 5, 5).is_ok());
        assert!(strict.decide_put(oid(1), 5, 4).is_err());
    }

    #[test]
    fn read_only_end_to_end() {
        use obiwan_core::demo::Counter;
        use obiwan_core::{ObiValue, ObiWorld, ReplicationMode};

        let mut world = ObiWorld::loopback();
        let s1 = world.add_site("S1");
        let s2 = world.add_site("S2");
        let master = world.site(s2).create(Counter::new(42));
        world.site(s2).export(master, "ro").unwrap();
        world.site(s2).set_policy(Box::new(ReadOnly::new()));
        let remote = world.site(s1).lookup("ro").unwrap();
        let r = world
            .site(s1)
            .get(&remote, ReplicationMode::incremental(1))
            .unwrap();
        // Reading and even local edits are fine…
        world.site(s1).invoke(r, "incr", ObiValue::Null).unwrap();
        // …but the write-back is refused, and the master is untouched.
        assert!(world.site(s1).put(r).is_err());
        let v = world.site(s2).invoke(master, "read", ObiValue::Null).unwrap();
        assert_eq!(v, ObiValue::I64(42));
    }
}
