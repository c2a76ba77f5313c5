//! Invocation: LMI with transparent object-fault resolution, classic RMI,
//! and what an invocation leaves behind (versions, dirty marks, log
//! records).

use super::demand::{demand_install, Enter, Handling, Take};
use super::update::queue_notifications;
use super::{ObiProcess, ProcessInner, ProcessShared};
use crate::object::ObiObject;
use crate::objref::ObjRef;
use crate::proxy::ProxyOut;
use crate::replication::replica_state_of;
use crate::space::{ReplicaKind, Resolution};
use obiwan_rmi::RemoteRef;
use obiwan_util::trace;
use obiwan_util::{LatencyKind, ObiError, ObjId, Result, SiteId};
use obiwan_wire::{ObiValue, ReplicaState};
use std::time::Duration;

/// Maximum nested invocation depth, bounding distributed recursion.
const MAX_INVOKE_DEPTH: usize = 256;


/// The execution context handed to every method body.
///
/// Through it a method reaches the rest of the platform: nested invocations
/// (with transparent fault resolution), object creation, and mutation
/// marking.
pub struct InvokeCtx<'a> {
    inner: &'a mut ProcessInner,
    shared: &'a ProcessShared,
    current: ObjId,
    modified: &'a mut Vec<ObjId>,
    depth: usize,
}

impl InvokeCtx<'_> {
    /// The site this invocation runs on.
    pub fn site(&self) -> SiteId {
        self.shared.site
    }

    /// The id of the object currently executing.
    pub fn self_id(&self) -> ObjId {
        self.current
    }

    /// Records that the current object mutated its state. Mutating methods
    /// declared in `obi_class!`'s `mutating` block call this automatically.
    pub fn mark_modified(&mut self) {
        self.modified.push(self.current);
    }

    /// Invokes a method on another object, resolving object faults
    /// transparently (the `BProxyOut.demand` path of §2.2).
    ///
    /// # Errors
    ///
    /// Propagates the callee's error; re-entrant cycles yield
    /// [`ObiError::ReentrantInvocation`].
    pub fn invoke(&mut self, target: ObjRef, method: &str, args: &ObiValue) -> Result<ObiValue> {
        if self.depth >= MAX_INVOKE_DEPTH {
            return Err(ObiError::Internal(format!(
                "invocation depth exceeded {MAX_INVOKE_DEPTH}"
            )));
        }
        invoke_inner(
            self.inner,
            self.shared,
            target.id(),
            method,
            args,
            self.modified,
            self.depth + 1,
        )
    }

    /// Creates a new master object in the local space.
    pub fn create(&mut self, object: Box<dyn ObiObject>) -> ObjRef {
        self.shared.space.create(object)
    }
}

/// Faults one invocation may raise on its own target. One resolution makes
/// the slot live, so a target still a proxy after this many is being taken
/// away as fast as it arrives (a budget evicting the freshly faulted
/// object, say): that must degrade to an error, not a livelock.
const MAX_FAULTS_PER_TARGET: u32 = 3;

/// Counts one more object fault on `target` against the bound above.
fn count_fault(shared: &ProcessShared, attempts: &mut u32, target: ObjId) -> Result<()> {
    *attempts += 1;
    if *attempts > MAX_FAULTS_PER_TARGET {
        return Err(ObiError::Internal(format!(
            "object {target} evaporates after every fault (budget too small?)"
        )));
    }
    shared.metrics.incr_object_faults();
    Ok(())
}

/// What one locked attempt of [`ObiProcess::invoke`] produced: a finished
/// invocation, or a proxy to fault in with the lock dropped.
enum InvokeOutcome {
    Done(Result<ObiValue>),
    Fault(ProxyOut),
}

pub(super) fn invoke_inner(
    inner: &mut ProcessInner,
    shared: &ProcessShared,
    target: ObjId,
    method: &str,
    args: &ObiValue,
    modified: &mut Vec<ObjId>,
    depth: usize,
) -> Result<ObiValue> {
    // Fault loop: at most one fault resolution is needed before the slot is
    // live, but a failed materialization surfaces as an error.
    let mut attempts = 0;
    loop {
        match shared.space.resolve(target) {
            Resolution::Object(_) => break,
            Resolution::Proxy(proxy) => {
                count_fault(shared, &mut attempts, target)?;
                // Raised inside a method body, which owns the process lock:
                // it stays held across the network wait, the batch is taken
                // whole and installs through the `inner` already in hand.
                let how = Handling {
                    swizzle: true,
                    fault: true,
                    ..Handling::default()
                };
                let target = std::slice::from_ref(&proxy.target);
                let enter: Enter<'_> = &mut |install| install(inner);
                demand_install(shared, enter, proxy.provider, target, proxy.mode, how)?;
            }
            Resolution::Busy => return Err(ObiError::ReentrantInvocation(target)),
            Resolution::Absent => return Err(ObiError::NoSuchObject(target)),
        }
    }

    let mut entry = shared.space.take_object(target)?;
    shared.clock.charge_cpu(shared.costs.lmi);
    shared.metrics.incr_lmi();
    let result = {
        let mut ctx = InvokeCtx {
            inner,
            shared,
            current: target,
            modified,
            depth,
        };
        entry.object.invoke(&mut ctx, method, args)
    };
    shared.space.restore_object(entry);
    result
}

/// Applies post-invocation bookkeeping: bump master versions, mark replicas
/// dirty, and queue notifications to subscribers. Returns the replicas
/// that went dirty, `(id, provider)` each, so the caller can append their
/// deltas to the durability log — *after* releasing the process lock: the
/// append can trigger a group fsync, and a stalled disk must slow this one
/// caller, not every invocation on the site.
#[must_use = "the dirty list must be logged (log_dirty_deltas, log_journaled_op) after the lock drops"]
pub(super) fn finish_invocation(
    inner: &mut ProcessInner,
    shared: &ProcessShared,
    modified: &[ObjId],
) -> Vec<(ObjId, SiteId)> {
    let mut seen = std::collections::HashSet::new();
    let mut dirtied = Vec::new();
    for &id in modified {
        if !seen.insert(id) {
            continue;
        }
        let Some(meta) = shared.space.meta(id) else {
            continue;
        };
        match meta.kind {
            ReplicaKind::Master => {
                let mut version = meta.version;
                shared.space.update_meta(id, |m| {
                    m.version += 1;
                    version = m.version;
                });
                inner.policy.on_master_updated(id, version);
                queue_notifications(inner, shared, id, shared.site);
            }
            ReplicaKind::Replica { provider } => {
                shared.space.update_meta(id, |m| m.dirty = true);
                dirtied.push((id, provider));
            }
        }
    }
    dirtied
}

/// The serialized state of each replica in `dirtied`, with its provider:
/// what the durability log holds for a replica that went dirty. Called
/// with the process lock and every shard guard released: each state is
/// re-read under a fresh short guard that is gone again before the state
/// is yielded, so whatever the caller appends, it appends guard-free.
fn dirty_states<'a>(
    shared: &'a ProcessShared,
    dirtied: &'a [(ObjId, SiteId)],
) -> impl Iterator<Item = (SiteId, ReplicaState)> + 'a {
    dirtied
        .iter()
        .filter_map(|&(id, provider)| Some((provider, replica_state_of(&shared.space, id).ok()?)))
}

/// Appends each dirtied replica's state to the durability log (when one is
/// attached) as a bare `ObjectDelta`: the write-through of an invocation
/// that no session journals. The WAL append (which can trigger a group
/// fsync) happens with no lock of this process held.
///
/// Best-effort by design: the in-memory replica is the source of truth and
/// stays dirty, so a failed append costs durability of this delta, not
/// correctness — the next mutation or the put path's strict intent logging
/// retries the state.
pub(super) fn log_dirty_deltas(shared: &ProcessShared, dirtied: &[(ObjId, SiteId)]) {
    if dirtied.is_empty() {
        return;
    }
    let Some(durable) = shared.durable.get() else {
        return;
    };
    for (provider, state) in dirty_states(shared, dirtied) {
        let _ = durable.log_dirty(provider, state);
    }
}

/// Appends one journaled invocation to the durability log (when one is
/// attached): the op and the state of every replica it dirtied, as **one**
/// record, so a crash keeps both or neither. Same locking and best-effort
/// contract as [`log_dirty_deltas`], whose place it takes: a journaled
/// invocation never also writes a bare delta.
fn log_journaled_op(
    shared: &ProcessShared,
    target: ObjId,
    method: &str,
    args: &ObiValue,
    succeeded: bool,
    dirtied: &[(ObjId, SiteId)],
) {
    let Some(durable) = shared.durable.get() else {
        return;
    };
    let deltas: Vec<(SiteId, ReplicaState)> = dirty_states(shared, dirtied).collect();
    let _ = durable.log_op(target, method, std::slice::from_ref(args), succeeded, deltas);
}

impl ObiProcess {
    /// Invokes `method` locally (LMI), transparently resolving object
    /// faults if `target` is not yet replicated.
    ///
    /// Top-level faults resolve through a *drop-lock window*: the proxy is
    /// snapshotted under the process lock, the lock is released for the
    /// network round-trip, then re-acquired to install the batch (with
    /// per-replica validation, since the world may have moved in the
    /// window). Invocations on local objects from other threads therefore
    /// proceed while this one waits on the provider. Nested faults — raised
    /// inside a method body, which owns the lock — still resolve under it.
    pub fn invoke(&self, target: ObjRef, method: &str, args: ObiValue) -> Result<ObiValue> {
        self.invoke_logged(target, method, &args, false)
    }

    /// [`invoke`](ObiProcess::invoke) for a disconnected session's journal:
    /// with durability attached, the invocation is written to the log as
    /// **one** record — the op (target, method, arguments, whether it
    /// succeeded) together with the state of every replica it dirtied —
    /// where `invoke` writes the states alone. Every exit writes exactly
    /// that one record, an object fault that cannot resolve while
    /// disconnected included (`succeeded: false`, nothing dirtied). With no
    /// durability attached this *is* `invoke`.
    pub fn invoke_journaled(
        &self,
        target: ObjRef,
        method: &str,
        args: &ObiValue,
    ) -> Result<ObiValue> {
        self.invoke_logged(target, method, args, true)
    }

    /// The body of [`invoke`](ObiProcess::invoke) and
    /// [`invoke_journaled`](ObiProcess::invoke_journaled), which differ
    /// only in the record the durability log gets once the lock is free.
    fn invoke_logged(
        &self,
        target: ObjRef,
        method: &str,
        args: &ObiValue,
        journal: bool,
    ) -> Result<ObiValue> {
        // Install chunks parked by an earlier streamed fault *before* this
        // invocation's latency window opens: their cost is real but must
        // not land in the caller-visible tail.
        self.pump_pending_chunks();
        let _span = trace::span(&self.shared.clock, "obi.invoke")
            .with_site(self.shared.site)
            .with_obj(target.id());
        let start = self.shared.clock.virtual_nanos();
        let mut dirtied: Vec<(ObjId, SiteId)> = Vec::new();
        let result = self.invoke_resolving(target, method, args, &mut dirtied);
        if journal {
            log_journaled_op(&self.shared, target.id(), method, args, result.is_ok(), &dirtied);
        } else {
            log_dirty_deltas(&self.shared, &dirtied);
        }
        self.shared.metrics.record_latency(
            LatencyKind::Invoke,
            Duration::from_nanos(self.shared.clock.virtual_nanos().saturating_sub(start)),
        );
        result
    }

    /// The fault-resolving LMI loop behind [`ObiProcess::invoke`]. Leaves
    /// in `dirtied` the replicas the invocation dirtied, for the caller to
    /// log now that the process lock is free again.
    fn invoke_resolving(
        &self,
        target: ObjRef,
        method: &str,
        args: &ObiValue,
        dirtied: &mut Vec<(ObjId, SiteId)>,
    ) -> Result<ObiValue> {
        let mut attempts = 0;
        loop {
            let outcome = self.with_inner(|inner| {
                Ok(match self.shared.space.resolve(target.id()) {
                    Resolution::Proxy(proxy) => InvokeOutcome::Fault(proxy),
                    _ => {
                        let mut modified = Vec::new();
                        let result = invoke_inner(
                            inner,
                            &self.shared,
                            target.id(),
                            method,
                            args,
                            &mut modified,
                            0,
                        );
                        *dirtied = finish_invocation(inner, &self.shared, &modified);
                        InvokeOutcome::Done(result)
                    }
                })
            })?;
            match outcome {
                InvokeOutcome::Done(result) => return result,
                InvokeOutcome::Fault(proxy) => {
                    count_fault(&self.shared, &mut attempts, target.id())?;
                    // Top-level: only the piece carrying the faulted root
                    // is installed before this invocation resumes.
                    let how = Handling {
                        deadline: Some(self.demand_deadline()),
                        take: Take::RootThenParked,
                        guard: true,
                        swizzle: true,
                        fault: true,
                    };
                    self.demand(proxy.provider, &[proxy.target], proxy.mode, how)?;
                }
            }
        }
    }

    /// Invokes `method` remotely (RMI) on the master via its proxy-in —
    /// "at any time, both replicas, the master and the local, can be freely
    /// invoked" (§2.1).
    pub fn invoke_rmi(&self, target: &RemoteRef, method: &str, args: ObiValue) -> Result<ObiValue> {
        let reply = self.shared.client.invoke(target, method, args)?;
        self.note_rpc_checkpoint()?;
        Ok(reply)
    }

    /// Counts one confirmed non-put RPC toward the durability layer's
    /// periodic `ClientState` checkpoint (see
    /// `DurableOptions::checkpoint_every_rpcs`). Puts refresh the persisted
    /// watermark on their own confirm path; invokes burn request seqs
    /// invisibly, so without this an RPC-heavy life between puts would lean
    /// on `SEQ_EPOCH_SKIP` alone to keep recovered seqs collision-free.
    fn note_rpc_checkpoint(&self) -> Result<()> {
        if let Some(durable) = self.shared.durable.get() {
            durable.note_confirmed_rpc(
                self.shared.client.request_seq(),
                self.shared.client.horizon_tracker().horizon(),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo::{Counter, TreeNode};
    use crate::process::testing::list_world;
    use crate::replication::ReplicationMode;
    use crate::world::ObiWorld;

    #[test]
    fn walking_the_list_faults_in_batches() {
        let (world, s1, _s2, refs) = list_world(10);
        let remote = world.site(s1).lookup("head").unwrap();
        let mut cur = world
            .site(s1)
            .get(&remote, ReplicationMode::incremental(2))
            .unwrap();
        // Walk the whole list via `touch`, which returns the next ref.
        let mut visited = 0;
        loop {
            let out = world.site(s1).invoke(cur, "touch", ObiValue::Null).unwrap();
            visited += 1;
            match out.as_ref_id() {
                Some(next) => cur = ObjRef::new(next),
                None => break,
            }
        }
        assert_eq!(visited, 10);
        let snap = world.site(s1).metrics().snapshot();
        // 10 objects in batches of 2, first 2 from the initial get: 4 faults.
        assert_eq!(snap.object_faults, 4);
        assert_eq!(snap.replicas_created, 10);
        assert_eq!(snap.lmi_count, 10);
        for r in &refs {
            assert!(world.site(s1).is_replicated(*r));
        }
        // Tail has no frontier; no proxies remain.
        assert_eq!(world.site(s1).proxy_count(), 0);
    }

    #[test]
    fn nested_invocation_faults_transparently() {
        let (world, s1, _s2, refs) = list_world(3);
        let remote = world.site(s1).lookup("head").unwrap();
        let root = world
            .site(s1)
            .get(&remote, ReplicationMode::incremental(1))
            .unwrap();
        // sum_rest recurses through two faults.
        let v = world
            .site(s1)
            .invoke(root, "sum_rest", ObiValue::Null)
            .unwrap();
        assert_eq!(v, ObiValue::I64(3)); // 0 + 1 + 2
        assert_eq!(world.site(s1).metrics().snapshot().object_faults, 2);
        assert!(world.site(s1).is_replicated(refs[2]));
    }

    #[test]
    fn tree_replication_faults_branches_independently() {
        let mut world = ObiWorld::loopback();
        let s1 = world.add_site("S1");
        let s2 = world.add_site("S2");
        let leaf1 = world.site(s2).create(TreeNode::new("l1"));
        let leaf2 = world.site(s2).create(TreeNode::new("l2"));
        let mid = world
            .site(s2)
            .create(TreeNode::with_children("mid", vec![leaf1, leaf2]));
        let root = world
            .site(s2)
            .create(TreeNode::with_children("root", vec![mid]));
        world.site(s2).export(root, "tree").unwrap();

        let remote = world.site(s1).lookup("tree").unwrap();
        let local = world
            .site(s1)
            .get(&remote, ReplicationMode::incremental(1))
            .unwrap();
        let count = world
            .site(s1)
            .invoke(local, "deep_count", ObiValue::Null)
            .unwrap();
        assert_eq!(count, ObiValue::I64(4));
        assert!(world.site(s1).is_replicated(leaf2));
    }

    #[test]
    fn faulting_while_disconnected_fails_but_replicated_prefix_works() {
        let (world, s1, _s2, refs) = list_world(4);
        let remote = world.site(s1).lookup("head").unwrap();
        let root = world
            .site(s1)
            .get(&remote, ReplicationMode::incremental(2))
            .unwrap();
        world.disconnect(s1);
        // First two objects are local.
        world.site(s1).invoke(root, "touch", ObiValue::Null).unwrap();
        world.site(s1).invoke(refs[1], "touch", ObiValue::Null).unwrap();
        // The third faults, and the fault cannot be resolved.
        let err = world
            .site(s1)
            .invoke(refs[2], "touch", ObiValue::Null)
            .unwrap_err();
        assert!(err.is_connectivity());
    }

    #[test]
    fn disconnected_work_on_colocated_objects() {
        // The paper's headline scenario: replicate, disconnect, keep
        // working, reconnect, reintegrate.
        let (world, s1, s2, refs) = list_world(5);
        let remote = world.site(s1).lookup("head").unwrap();
        let root = world
            .site(s1)
            .get(&remote, ReplicationMode::transitive())
            .unwrap();
        world.disconnect(s1);
        // LMI still works offline.
        for _ in 0..10 {
            world.site(s1).invoke(root, "touch", ObiValue::Null).unwrap();
        }
        world
            .site(s1)
            .invoke(root, "set_value", ObiValue::I64(5))
            .unwrap();
        // RMI fails with a connectivity error, as does put.
        assert!(world
            .site(s1)
            .invoke_rmi(&remote, "value", ObiValue::Null)
            .unwrap_err()
            .is_connectivity());
        assert!(world.site(s1).put(root).unwrap_err().is_connectivity());
        // Replica is still dirty, nothing was lost.
        assert!(world.site(s1).meta_of(root).unwrap().dirty);
        world.reconnect(s1);
        world.site(s1).put(root).unwrap();
        let v = world.site(s2).invoke(refs[0], "value", ObiValue::Null).unwrap();
        assert_eq!(v, ObiValue::I64(5));
    }

    #[test]
    fn unknown_method_is_reported_with_object_identity() {
        let (world, _s1, s2, refs) = list_world(1);
        let err = world
            .site(s2)
            .invoke(refs[0], "no_such", ObiValue::Null)
            .unwrap_err();
        match err {
            ObiError::NoSuchMethod { object, method } => {
                assert_eq!(object, refs[0].id());
                assert_eq!(method, "no_such");
            }
            other => panic!("{other}"),
        }
    }

    #[test]
    fn rmi_and_lmi_agree_on_results() {
        let (world, s1, _s2, _refs) = list_world(1);
        let remote = world.site(s1).lookup("head").unwrap();
        let via_rmi = world
            .site(s1)
            .invoke_rmi(&remote, "value", ObiValue::Null)
            .unwrap();
        let local = world
            .site(s1)
            .get(&remote, ReplicationMode::incremental(1))
            .unwrap();
        let via_lmi = world.site(s1).invoke(local, "value", ObiValue::Null).unwrap();
        assert_eq!(via_rmi, via_lmi);
        assert_eq!(world.site(s1).metrics().snapshot().lmi_count, 1);
    }

    #[test]
    fn master_can_still_be_invoked_via_rmi_after_replication() {
        // Paper §2.1: "at any time, both replicas, the master and the
        // local, can be freely invoked".
        let (world, s1, _s2, _refs) = list_world(1);
        let remote = world.site(s1).lookup("head").unwrap();
        let local = world
            .site(s1)
            .get(&remote, ReplicationMode::incremental(1))
            .unwrap();
        world
            .site(s1)
            .invoke(local, "set_value", ObiValue::I64(123))
            .unwrap();
        // The master is untouched until a put.
        let master_v = world
            .site(s1)
            .invoke_rmi(&remote, "value", ObiValue::Null)
            .unwrap();
        assert_eq!(master_v, ObiValue::I64(0));
    }

    #[test]
    fn counters_accumulate_via_rmi_from_many_sites() {
        let mut world = ObiWorld::loopback();
        let server = world.add_site("server");
        let clients: Vec<SiteId> = (0..4).map(|i| world.add_site(&format!("c{i}"))).collect();
        let counter = world.site(server).create(Counter::new(0));
        world.site(server).export(counter, "hits").unwrap();
        for c in &clients {
            let remote = world.site(*c).lookup("hits").unwrap();
            for _ in 0..5 {
                world
                    .site(*c)
                    .invoke_rmi(&remote, "incr", ObiValue::Null)
                    .unwrap();
            }
        }
        let v = world
            .site(server)
            .invoke(counter, "read", ObiValue::Null)
            .unwrap();
        assert_eq!(v, ObiValue::I64(20));
        // Master version bumped once per mutation.
        assert_eq!(world.site(server).meta_of(counter).unwrap().version, 21);
    }
}
