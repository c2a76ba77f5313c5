//! Disconnected sessions and reintegration.
//!
//! "Users should be able, as far as possible, to continue working as if
//! the network was still available. In particular, users should be able to
//! modify local replicas of global data." [`DisconnectedSession`] journals
//! that offline work and drives the write-back when connectivity returns,
//! reporting a per-object [`ReintegrationOutcome`].

use obiwan_core::{ObiProcess, ObiValue, ObjRef};
use obiwan_store::RecoveredState;
use obiwan_util::trace;
use obiwan_util::{ObiError, ObjId, Result};
use std::collections::{BTreeMap, BTreeSet};

/// One journaled offline operation.
#[derive(Debug, Clone, PartialEq)]
pub struct LoggedOp {
    /// Invoked object.
    pub target: ObjId,
    /// Method name.
    pub method: String,
    /// Arguments.
    pub args: ObiValue,
    /// Whether the invocation succeeded locally.
    pub succeeded: bool,
}

/// Per-object result of a reintegration pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReintegrationOutcome {
    /// Write-back accepted at the given master version.
    Pushed(u64),
    /// The master's policy rejected the write-back; the replica keeps the
    /// local state and stays dirty.
    Conflict(String),
    /// The master is unreachable; retry later.
    Unreachable,
}

/// What a reintegration pass achieved.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReintegrationReport {
    /// Outcome per dirty object, in id order.
    pub outcomes: Vec<(ObjId, ReintegrationOutcome)>,
}

impl ReintegrationReport {
    /// The latest outcome per object. An object can appear in `outcomes`
    /// more than once (multiple passes merged into one report, or an early
    /// conflict later resolved in the same pass); only the last word per
    /// id counts, otherwise `pushed`/`is_clean` double- or under-count.
    fn latest(&self) -> BTreeMap<ObjId, &ReintegrationOutcome> {
        self.outcomes.iter().map(|(id, o)| (*id, o)).collect()
    }

    /// Count of objects whose latest outcome is an accepted write-back.
    pub fn pushed(&self) -> usize {
        self.latest()
            .values()
            .filter(|o| matches!(o, ReintegrationOutcome::Pushed(_)))
            .count()
    }

    /// Ids whose latest outcome is a conflict, in id order.
    pub fn conflicts(&self) -> Vec<ObjId> {
        self.latest()
            .iter()
            .filter(|(_, o)| matches!(o, ReintegrationOutcome::Conflict(_)))
            .map(|(id, _)| *id)
            .collect()
    }

    /// True when every object's latest outcome is a push (nothing
    /// conflicted, nothing unreachable).
    pub fn is_clean(&self) -> bool {
        self.latest()
            .values()
            .all(|o| matches!(o, ReintegrationOutcome::Pushed(_)))
    }
}

/// A journal of offline work over one process's replicas.
///
/// The session does not block online use — it simply records which replicas
/// were touched so reintegration can be driven and reported precisely,
/// which a bare
/// [`put_all_dirty`](obiwan_core::ObiProcess::put_all_dirty) cannot do.
#[derive(Debug, Default)]
pub struct DisconnectedSession {
    log: Vec<LoggedOp>,
    touched: BTreeSet<ObjId>,
}

impl DisconnectedSession {
    /// Starts an empty session.
    pub fn new() -> Self {
        DisconnectedSession::default()
    }

    /// Rebuilds a session from state recovered after a crash (see
    /// `obiwan-store`): the journaled op log is restored, and every
    /// recovered dirty replica counts as touched — even one no recovered
    /// op names, dirtied by an invocation outside any session — so the
    /// next [`reintegrate`](DisconnectedSession::reintegrate) pushes it.
    pub fn resume(recovered: &RecoveredState) -> Self {
        let mut session = DisconnectedSession::new();
        for op in &recovered.ops {
            let args = op.args.first().cloned().unwrap_or(ObiValue::Null);
            if op.succeeded {
                session.touched.insert(op.target);
            }
            session.log.push(LoggedOp {
                target: op.target,
                method: op.method.clone(),
                args,
                succeeded: op.succeeded,
            });
        }
        session.touched.extend(recovered.dirty.keys().copied());
        session.touched.extend(recovered.pending_puts.keys().copied());
        session
    }

    /// Invokes a method through the session, journaling it.
    ///
    /// With durability attached to `process`, the journal entry is also
    /// written through to the log, by the invocation itself
    /// ([`ObiProcess::invoke_journaled`]): one record holding the op and
    /// the state of every replica it dirtied. A crash therefore keeps an
    /// operation and its effect or neither, and the journal a resumed
    /// session replays ([`resolve_replay_local`]) always accounts for
    /// exactly the dirty state recovered beside it.
    ///
    /// [`resolve_replay_local`]: DisconnectedSession::resolve_replay_local
    ///
    /// # Errors
    ///
    /// Propagates the invocation error (e.g. an unresolvable object fault
    /// while disconnected); failed operations are journaled too.
    pub fn invoke(
        &mut self,
        process: &ObiProcess,
        target: ObjRef,
        method: &str,
        args: ObiValue,
    ) -> Result<ObiValue> {
        let result = process.invoke_journaled(target, method, &args);
        self.log.push(LoggedOp {
            target: target.id(),
            method: method.to_owned(),
            args,
            succeeded: result.is_ok(),
        });
        if result.is_ok() {
            self.touched.insert(target.id());
        }
        result
    }

    /// The full journal.
    pub fn log(&self) -> &[LoggedOp] {
        &self.log
    }

    /// Objects touched by successful operations.
    pub fn touched(&self) -> Vec<ObjId> {
        self.touched.iter().copied().collect()
    }

    /// Number of journaled operations.
    pub fn len(&self) -> usize {
        self.log.len()
    }

    /// True when nothing was journaled.
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }

    /// Pushes every dirty touched replica back to its master as one grouped
    /// write-back ([`ObiProcess::put_many`]: with durability attached, one
    /// log sync per group of puts rather than one per object), classifying
    /// each object's outcome. Conflicted and unreachable replicas stay
    /// dirty; the session can reintegrate again later (successful pushes
    /// drop out of the dirty set by themselves).
    pub fn reintegrate(&self, process: &ObiProcess) -> ReintegrationReport {
        let mut pass = trace::span(process.clock(), "session.reintegrate")
            .with_site(process.site());
        let dirty: Vec<ObjRef> = self
            .touched
            .iter()
            .map(|&id| ObjRef::new(id))
            .filter(|&r| process.meta_of(r).is_some_and(|meta| meta.dirty))
            .collect();
        let outcomes = process.put_many(&dirty).into_iter().map(|(id, put)| {
            let outcome = match put {
                Ok(version) => ReintegrationOutcome::Pushed(version),
                Err(e) if e.is_connectivity() => ReintegrationOutcome::Unreachable,
                Err(ObiError::UpdateRejected { reason, .. }) => {
                    ReintegrationOutcome::Conflict(reason)
                }
                Err(e) => ReintegrationOutcome::Conflict(e.to_string()),
            };
            (id, outcome)
        });
        let report = ReintegrationReport {
            outcomes: outcomes.collect(),
        };
        pass.set_value(report.pushed() as u64);
        if let Some(durable) = process.durability() {
            if report.is_clean() {
                // Everything pushed — in this pass, or before a crash that
                // the session was resumed after: the op log and pending-put
                // markers are spent. Fold the WAL down so a later crash
                // replays only live state.
                let _ = durable.reset_session();
            } else {
                let _ = durable.commit();
            }
        }
        report
    }

    /// Resolves a conflicted object by forcing the local state onto the
    /// master: refresh the base version, re-apply the journaled operations
    /// for that object, then put.
    ///
    /// This is the classic "replay the log" reintegration; it only makes
    /// sense for operations that are meaningful against the refreshed state
    /// (e.g. commutative increments).
    pub fn resolve_replay_local(&self, process: &ObiProcess, id: ObjId) -> Result<u64> {
        process.refresh(ObjRef::new(id))?;
        for op in &self.log {
            if op.target == id && op.succeeded {
                process.invoke(ObjRef::new(id), &op.method, op.args.clone())?;
            }
        }
        process.put(ObjRef::new(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obiwan_consistency::OptimisticDetect;
    use obiwan_core::demo::Counter;
    use obiwan_core::{ObiWorld, ReplicationMode};
    use obiwan_util::SiteId;

    fn rig() -> (ObiWorld, SiteId, SiteId, ObjRef, ObjRef) {
        let mut world = ObiWorld::loopback();
        let s1 = world.add_site("pda");
        let s2 = world.add_site("server");
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
    fn offline_work_reintegrates_cleanly() {
        let (world, s1, s2, master, replica) = rig();
        world.disconnect(s1);
        let mut session = DisconnectedSession::new();
        for _ in 0..3 {
            session
                .invoke(world.site(s1), replica, "incr", ObiValue::Null)
                .unwrap();
        }
        assert_eq!(session.len(), 3);
        assert_eq!(session.touched(), vec![replica.id()]);
        // Reintegration while offline: unreachable, still dirty.
        let report = session.reintegrate(world.site(s1));
        assert_eq!(
            report.outcomes,
            vec![(replica.id(), ReintegrationOutcome::Unreachable)]
        );
        world.reconnect(s1);
        let report = session.reintegrate(world.site(s1));
        assert!(report.is_clean());
        assert_eq!(report.pushed(), 1);
        let v = world.site(s2).invoke(master, "read", ObiValue::Null).unwrap();
        assert_eq!(v, ObiValue::I64(3));
    }

    #[test]
    fn reintegration_rides_through_an_open_breaker() {
        use obiwan_core::BreakerState;
        use obiwan_rmi::fault::{BREAKER_COOLDOWN, BREAKER_THRESHOLD};
        let (world, s1, s2, master, replica) = rig();
        world.disconnect(s1);
        let mut session = DisconnectedSession::new();
        session
            .invoke(world.site(s1), replica, "incr", ObiValue::Null)
            .unwrap();
        // Enough failed passes trip the per-peer breaker.
        let threshold = BREAKER_THRESHOLD;
        for _ in 0..threshold {
            let report = session.reintegrate(world.site(s1));
            assert_eq!(
                report.outcomes,
                vec![(replica.id(), ReintegrationOutcome::Unreachable)]
            );
        }
        assert_eq!(world.site(s1).breaker_state(s2), BreakerState::Open);
        // Even after the link heals, the open breaker fast-fails — still
        // classified Unreachable, so the replica simply stays dirty.
        world.reconnect(s1);
        let report = session.reintegrate(world.site(s1));
        assert_eq!(
            report.outcomes,
            vec![(replica.id(), ReintegrationOutcome::Unreachable)]
        );
        // Once the cooldown admits a half-open probe, the push goes
        // through and reintegration completes.
        world.site(s1).clock().charge(BREAKER_COOLDOWN);
        let report = session.reintegrate(world.site(s1));
        assert!(report.is_clean());
        let v = world.site(s2).invoke(master, "read", ObiValue::Null).unwrap();
        assert_eq!(v, ObiValue::I64(1));
    }

    #[test]
    fn conflicts_are_classified_and_replay_resolves_them() {
        let (world, s1, s2, master, replica) = rig();
        world.site(s2).set_policy(Box::new(OptimisticDetect::new()));
        world.disconnect(s1);
        let mut session = DisconnectedSession::new();
        session
            .invoke(world.site(s1), replica, "add", ObiValue::I64(10))
            .unwrap();
        // Someone else updates the master meanwhile.
        world.site(s2).invoke(master, "incr", ObiValue::Null).unwrap();
        world.reconnect(s1);
        let report = session.reintegrate(world.site(s1));
        assert_eq!(report.conflicts(), vec![replica.id()]);
        assert!(!report.is_clean());
        // Replay the log over the fresh state.
        let version = session
            .resolve_replay_local(world.site(s1), replica.id())
            .unwrap();
        assert!(version > 2);
        let v = world.site(s2).invoke(master, "read", ObiValue::Null).unwrap();
        assert_eq!(v, ObiValue::I64(11)); // 1 (master incr) + 10 (replayed)
    }

    #[test]
    fn take_remote_discards_local_edits() {
        let (world, s1, s2, master, replica) = rig();
        world.site(s2).set_policy(Box::new(OptimisticDetect::new()));
        let mut session = DisconnectedSession::new();
        session
            .invoke(world.site(s1), replica, "add", ObiValue::I64(5))
            .unwrap();
        world.site(s2).invoke(master, "add", ObiValue::I64(100)).unwrap();
        let report = session.reintegrate(world.site(s1));
        assert_eq!(report.conflicts(), vec![replica.id()]);
        // Taking the remote side of a conflict is a plain `refresh`.
        world.site(s1).refresh(replica).unwrap();
        let v = world.site(s1).invoke(replica, "read", ObiValue::Null).unwrap();
        assert_eq!(v, ObiValue::I64(100));
        assert!(!world.site(s1).meta_of(replica).unwrap().dirty);
    }

    #[test]
    fn failed_operations_are_journaled_but_not_touched() {
        let (world, s1, _s2, _master, replica) = rig();
        let mut session = DisconnectedSession::new();
        assert!(session
            .invoke(world.site(s1), replica, "no_such_method", ObiValue::Null)
            .is_err());
        assert_eq!(session.len(), 1);
        assert!(!session.log()[0].succeeded);
        assert!(session.touched().is_empty());
        assert!(session.reintegrate(world.site(s1)).outcomes.is_empty());
    }

    #[test]
    fn reads_do_not_dirty_or_push() {
        let (world, s1, _s2, _master, replica) = rig();
        let mut session = DisconnectedSession::new();
        session
            .invoke(world.site(s1), replica, "read", ObiValue::Null)
            .unwrap();
        let report = session.reintegrate(world.site(s1));
        assert!(report.outcomes.is_empty());
    }

    #[test]
    fn report_accounting_dedupes_repeated_object_ids() {
        use obiwan_util::{ObjId, SiteId};
        let id = ObjId::new(SiteId::new(7), 1);
        let other = ObjId::new(SiteId::new(7), 2);
        // The same object appears twice: an early conflict superseded by a
        // successful push (e.g. two merged passes). Only the last outcome
        // per id may count.
        let report = ReintegrationReport {
            outcomes: vec![
                (id, ReintegrationOutcome::Conflict("stale".into())),
                (other, ReintegrationOutcome::Pushed(3)),
                (id, ReintegrationOutcome::Pushed(5)),
            ],
        };
        assert_eq!(report.pushed(), 2, "id counted once, at its final outcome");
        assert!(report.conflicts().is_empty());
        assert!(report.is_clean());
        // And the mirror case: a push later invalidated by a conflict.
        let report = ReintegrationReport {
            outcomes: vec![
                (id, ReintegrationOutcome::Pushed(5)),
                (id, ReintegrationOutcome::Conflict("rejected".into())),
            ],
        };
        assert_eq!(report.pushed(), 0);
        assert_eq!(report.conflicts(), vec![id]);
        assert!(!report.is_clean());
    }

    #[test]
    fn take_remote_while_disconnected_propagates_the_error() {
        let (world, s1, _s2, _master, replica) = rig();
        let mut session = DisconnectedSession::new();
        session
            .invoke(world.site(s1), replica, "incr", ObiValue::Null)
            .unwrap();
        world.disconnect(s1);
        // Conflict resolution needs the master; offline it must fail
        // without touching the dirty local state.
        let err = world.site(s1).refresh(replica).unwrap_err();
        assert!(err.is_connectivity(), "{err}");
        assert!(world.site(s1).meta_of(replica).unwrap().dirty);
        let v = world.site(s1).invoke(replica, "read", ObiValue::Null).unwrap();
        assert_eq!(v, ObiValue::I64(1), "local edits survive a failed resolve");
    }

    #[test]
    fn replay_local_reports_errors_from_the_replayed_ops() {
        let (world, s1, s2, _master, replica) = rig();
        world.site(s2).set_policy(Box::new(OptimisticDetect::new()));
        let mut session = DisconnectedSession::new();
        session
            .invoke(world.site(s1), replica, "add", ObiValue::I64(1))
            .unwrap();
        // A journaled op that cannot replay (method gone after refresh is
        // impossible here, so use a bad-arguments op journaled as failed —
        // failed ops are skipped, so replay still succeeds).
        let _ = session.invoke(world.site(s1), replica, "no_such_method", ObiValue::Null);
        world.site(s2).invoke(_master, "incr", ObiValue::Null).unwrap();
        let report = session.reintegrate(world.site(s1));
        assert_eq!(report.conflicts(), vec![replica.id()]);
        let version = session
            .resolve_replay_local(world.site(s1), replica.id())
            .unwrap();
        assert!(version > 0);
        let v = world.site(s2).invoke(_master, "read", ObiValue::Null).unwrap();
        assert_eq!(v, ObiValue::I64(2), "1 (master incr) + 1 (replayed add)");
    }

    #[test]
    fn durable_session_journals_ops_and_resumes() {
        use obiwan_store::{Durable, DurableOptions, MemStorage, Storage};
        use std::sync::Arc;
        let (world, s1, _s2, _master, replica) = rig();
        let mem = Arc::new(MemStorage::new());
        let (durable, recovered) = Durable::open(
            mem.clone() as Arc<dyn Storage>,
            DurableOptions::default(),
        )
        .unwrap();
        assert!(recovered.is_empty());
        world.site(s1).attach_durability(durable.clone());
        world.disconnect(s1);
        let mut session = DisconnectedSession::new();
        session
            .invoke(world.site(s1), replica, "add", ObiValue::I64(4))
            .unwrap();
        durable.commit().unwrap();
        // "Restart": recover from the same storage and resume the session.
        let (_d2, recovered) = Durable::open(
            mem as Arc<dyn Storage>,
            DurableOptions::default(),
        )
        .unwrap();
        assert_eq!(recovered.ops.len(), 1);
        assert_eq!(recovered.dirty.len(), 1, "the dirty delta was logged too");
        let resumed = DisconnectedSession::resume(&recovered);
        assert_eq!(resumed.len(), 1);
        assert_eq!(resumed.touched(), vec![replica.id()]);
        assert_eq!(resumed.log()[0].args, ObiValue::I64(4));
    }

    // -- one record per journaled invocation ----------------------------------

    use obiwan_store::{Durable, DurableOptions, MemStorage, Storage, WalRecord, WAL_FILE};
    use std::sync::Arc;

    /// [`rig`] with a fresh in-memory durability log attached to the client.
    fn durable_rig() -> (ObiWorld, SiteId, ObjRef, Arc<MemStorage>, Arc<Durable>) {
        let (world, s1, _s2, _master, replica) = rig();
        let (mem, durable) = attach_log(&world, s1);
        (world, s1, replica, mem, durable)
    }

    fn attach_log(world: &ObiWorld, site: SiteId) -> (Arc<MemStorage>, Arc<Durable>) {
        let mem = Arc::new(MemStorage::new());
        let (durable, recovered) =
            Durable::open(mem.clone() as Arc<dyn Storage>, DurableOptions::default()).unwrap();
        assert!(recovered.is_empty());
        world.site(site).attach_durability(durable.clone());
        (mem, durable)
    }

    /// Every record the WAL holds after the client watermark logged when
    /// the log was attached, synced or not.
    fn wal_records(mem: &MemStorage) -> Vec<WalRecord> {
        let replay = obiwan_store::replay(mem, WAL_FILE).unwrap();
        assert_eq!(replay.truncated, 0);
        let mut records: Vec<WalRecord> = replay
            .payloads
            .iter()
            .map(|p| WalRecord::decode(p).unwrap())
            .collect();
        assert!(
            matches!(records.first(), Some(WalRecord::ClientState { .. })),
            "{records:?}"
        );
        records.split_off(1)
    }

    #[test]
    fn sixteen_journaled_ops_are_sixteen_appends_and_two_syncs() {
        let (world, s1, replica, mem, durable) = durable_rig(); // group commit 8
        world.disconnect(s1);
        let mut session = DisconnectedSession::new();
        for i in 0..16 {
            session
                .invoke(world.site(s1), replica, "add", ObiValue::I64(i))
                .unwrap();
        }
        // The watermark logged (and synced) at attach, then one record per
        // op and one sync per group of 8.
        assert_eq!(durable.wal_stats().appends(), 1 + 16, "one record per op");
        assert_eq!(durable.wal_stats().syncs(), 1 + 2);
        assert_eq!(mem.sync_count(), 1 + 2);
        for (i, record) in wal_records(&mem).into_iter().enumerate() {
            let WalRecord::Op { args, succeeded, deltas, .. } = record else {
                panic!("record {i} is not an op: {record:?}");
            };
            assert_eq!(args, vec![ObiValue::I64(i as i64)]);
            assert!(succeeded);
            assert_eq!(deltas.len(), 1, "the op carries the state it produced");
            assert_eq!(deltas[0].1.id, replica.id());
        }
    }

    #[test]
    fn a_failed_op_is_journaled_without_a_delta_and_dirties_nothing() {
        use obiwan_core::demo::LinkedItem;
        let mut world = ObiWorld::loopback();
        let s1 = world.add_site("pda");
        let s2 = world.add_site("server");
        let tail = world.site(s2).create(LinkedItem::new(2, "tail"));
        let head = world.site(s2).create(LinkedItem::with_next(1, "head", tail));
        world.site(s2).export(head, "head").unwrap();
        let remote = world.site(s1).lookup("head").unwrap();
        let root = world
            .site(s1)
            .get(&remote, ReplicationMode::incremental(1))
            .unwrap();
        let (mem, durable) = attach_log(&world, s1);
        world.disconnect(s1);
        let mut session = DisconnectedSession::new();
        // A method the class does not have, and a fault on the
        // not-yet-replicated tail that cannot resolve while disconnected.
        assert!(session
            .invoke(world.site(s1), root, "no_such_method", ObiValue::Null)
            .is_err());
        let err = session
            .invoke(world.site(s1), tail, "set_value", ObiValue::I64(9))
            .unwrap_err();
        assert!(err.is_connectivity(), "{err}");
        assert_eq!(durable.wal_stats().appends(), 1 + 2, "every exit writes its one record");
        for record in wal_records(&mem) {
            assert!(
                matches!(&record, WalRecord::Op { succeeded: false, deltas, .. } if deltas.is_empty()),
                "{record:?}"
            );
        }
        assert!(!world.site(s1).meta_of(root).unwrap().dirty);
        assert!(session.touched().is_empty());
        durable.commit().unwrap();
        let (_d, recovered) =
            Durable::open(mem as Arc<dyn Storage>, DurableOptions::default()).unwrap();
        assert_eq!(recovered.ops.len(), 2);
        assert!(recovered.dirty.is_empty());
        assert!(DisconnectedSession::resume(&recovered).touched().is_empty());
    }

    obiwan_core::obi_class! {
        /// Gives from its own balance to a peer counter: one invocation
        /// that mutates two objects, the second through the context.
        pub class Purse {
            fields {
                balance: i64,
                peer: Option<ObjRef>,
            }
            mutating {
                fn give(this, ctx, args) {
                    let amount = args.as_i64().unwrap_or(0);
                    this.balance -= amount;
                    if let Some(peer) = this.peer {
                        ctx.invoke(peer, "add", &ObiValue::I64(amount))?;
                    }
                    Ok(ObiValue::I64(this.balance))
                }
            }
        }
    }

    #[test]
    fn an_invocation_that_mutates_two_replicas_logs_one_record_with_both_deltas() {
        let mut world = ObiWorld::loopback();
        Purse::register(world.registry());
        let s1 = world.add_site("pda");
        let s2 = world.add_site("server");
        let counter = world.site(s2).create(Counter::new(0));
        let purse = world.site(s2).create(Purse::from_fields(10, Some(counter)));
        world.site(s2).export(purse, "purse").unwrap();
        let remote = world.site(s1).lookup("purse").unwrap();
        let purse = world
            .site(s1)
            .get(&remote, ReplicationMode::transitive())
            .unwrap();
        let (mem, durable) = attach_log(&world, s1);
        world.disconnect(s1);
        let mut session = DisconnectedSession::new();
        let left = session
            .invoke(world.site(s1), purse, "give", ObiValue::I64(3))
            .unwrap();
        assert_eq!(left, ObiValue::I64(7));
        assert_eq!(durable.wal_stats().appends(), 1 + 1, "the attach-time watermark and the op");
        let records = wal_records(&mem);
        let [WalRecord::Op { target, deltas, succeeded: true, .. }] = &records[..] else {
            panic!("not one successful op: {records:?}");
        };
        assert_eq!(*target, purse.id());
        let mut dirtied: Vec<ObjId> = deltas.iter().map(|(_, state)| state.id).collect();
        dirtied.sort();
        let mut expected = vec![purse.id(), counter.id()];
        expected.sort();
        assert_eq!(dirtied, expected);
        assert!(deltas.iter().all(|(provider, _)| *provider == s2));
        durable.commit().unwrap();
        let (_d, recovered) =
            Durable::open(mem as Arc<dyn Storage>, DurableOptions::default()).unwrap();
        assert_eq!(recovered.dirty.len(), 2);
        assert_eq!(recovered.ops.len(), 1);
    }

    #[test]
    fn without_durability_a_session_invocation_is_a_plain_invocation() {
        // Two identical rigs, neither with a log: one driven through a
        // session, one through `ObiProcess::invoke` directly.
        let (journaled, j1, _, _, j_replica) = rig();
        let (plain, p1, _, _, p_replica) = rig();
        assert!(journaled.site(j1).durability().is_none());
        let mut session = DisconnectedSession::new();
        let calls = [("add", ObiValue::I64(4)), ("no_such_method", ObiValue::Null), ("read", ObiValue::Null)];
        for (method, args) in calls {
            assert_eq!(
                session.invoke(journaled.site(j1), j_replica, method, args.clone()),
                plain.site(p1).invoke(p_replica, method, args),
                "{method}"
            );
        }
        assert_eq!(session.len(), 3);
        assert_eq!(
            journaled.site(j1).meta_of(j_replica),
            plain.site(p1).meta_of(p_replica)
        );
        assert_eq!(
            journaled.site(j1).metrics().snapshot(),
            plain.site(p1).metrics().snapshot()
        );
    }
}
