//! The [`Durable`] write-through wrapper and crash recovery.
//!
//! One `Durable` instance backs one site. The process calls `log_*`
//! methods at each state transition that must survive a crash (the
//! mobility layer only closes a session: `reset_session`, `commit`); the
//! wrapper appends a [`WalRecord`] to the WAL and mirrors the
//! resulting durable state in memory so periodic [`Durable::compact`]
//! passes can fold the log into a snapshot.
//!
//! # Files
//!
//! Two blobs in the [`Storage`] backend: `"snap"` (the last compacted
//! snapshot, replaced atomically) and `"wal"` (records appended since).
//! Recovery = replay snapshot records, then WAL records, in order.
//!
//! # Recovery invariants
//!
//! 1. **Only dirty replicas are persisted.** A clean replica can always be
//!    re-demanded from its master, so losing it costs a round trip, not
//!    data. The recovered state therefore contains exactly the replicas
//!    whose local updates had not reached their masters.
//! 2. **A put's intent is durable before its RPC leaves, and a seq is only
//!    ever reused for the exact state it covered.** A `PutIntent` record
//!    carries the request sequence number the `put` will use plus a
//!    fingerprint of the state it sends. A write-back goes out in groups
//!    (`ObiProcess::put_many`, at most 64 puts; one `put` is the group of
//!    one): the group's states are snapshotted, its intents are appended
//!    as one batch and made durable with one sync
//!    ([`Durable::log_put_intents`]), and only then do its RPCs leave, one
//!    per object, each carrying the snapshotted state its intent names. So
//!    every RPC is preceded by the sync that covers its intent, and what a
//!    group adds is one crash window: up to a group's worth of durable
//!    intents whose RPC never left, which the master simply admits as new
//!    when they are replayed. Replaying reintegration after a crash reuses
//!    an intent's sequence number *only while the replica still holds that
//!    state*, so the master's ReplyCache either serves the cached reply
//!    (the put had been applied) or admits it as new — applied exactly once
//!    either way. If the replica was mutated again before the retry
//!    (offline edits after a recovered intent, or between a connectivity
//!    failure and the next push), the old seq may already be spent at the
//!    master with the OLD state: reusing it would serve the cached ack
//!    without applying the new state, silently dropping it. The put path
//!    instead retires the stale intent (`PutAbandoned`, in the batch of the
//!    intent that replaces it) and logs a fresh one.
//!
//!    `PutConfirmed` and `ClientState` records are *not* forced. A lost
//!    confirmation replays its put under the intent's id, which the reply
//!    cache absorbs: the put path settles a put's request id — the signal
//!    that lets the master prune the reply — only after the record that
//!    retires the intent has been appended. A lost watermark only widens
//!    the skip of invariant 3. (A power failure, unlike a process kill,
//!    can drop an appended-but-unsynced confirmation after the reply was
//!    pruned; the replayed put then carries the same state a second time,
//!    which a version-checking master rejects as a conflict.)
//! 3. **Recovered request sequence numbers never collide with pre-crash
//!    ones.** Requests other than puts (demands, refreshes) consume
//!    sequence numbers without logging them, so recovery advances the
//!    restored counter past every persisted watermark *plus*
//!    [`SEQ_EPOCH_SKIP`]; replayed puts are the only deliberate reuses.
//! 4. **Torn tails are truncated, never guessed at** (see [`crate::wal`]).
//!    A record lost from the tail means the corresponding state change is
//!    re-done (a put retried, an op re-journaled) — never half-applied.

use crate::record::{encode_op, state_fingerprint, WalRecord};
use crate::storage::Storage;
use crate::wal::{self, Frames, Wal, WalOptions, WalStats};
use obiwan_util::sync::Mutex;
use obiwan_util::{ObjId, Result, SiteId};
use obiwan_wire::{ObiValue, ReplicaState};
use std::collections::BTreeMap;
use std::sync::Arc;

/// How far past every persisted sequence watermark the restored request
/// counter jumps (invariant 3 above). Pre-crash requests that were never
/// logged (demands, refreshes) number far fewer than this between two
/// `ClientState` records in any realistic session.
pub const SEQ_EPOCH_SKIP: u64 = 1 << 20;

/// Blob names used by the durability layer.
pub const WAL_FILE: &str = "wal";
pub const SNAP_FILE: &str = "snap";

/// Tuning knobs for [`Durable::open`].
#[derive(Debug, Clone)]
pub struct DurableOptions {
    /// Group-commit batch size for the WAL (see [`WalOptions`]).
    pub group_commit: usize,
    /// Compact (snapshot + truncate WAL) once this many records have been
    /// appended since the last snapshot. `0` disables auto-compaction.
    pub compact_every: u64,
    /// Log a `ClientState` checkpoint once this many confirmed RPCs have
    /// been counted via [`Durable::note_confirmed_rpc`] since the last
    /// checkpoint. Requests other than puts burn sequence numbers without
    /// logging them (recovery invariant 3), so between checkpoints the
    /// restored counter relies on [`SEQ_EPOCH_SKIP`] alone; this bounds
    /// the unlogged drift of an RPC-heavy life to N instead of a whole
    /// session. `0` disables periodic checkpoints.
    pub checkpoint_every_rpcs: u64,
}

impl Default for DurableOptions {
    fn default() -> Self {
        DurableOptions {
            group_commit: 8,
            compact_every: 1024,
            checkpoint_every_rpcs: 64,
        }
    }
}

/// A durable-but-unconfirmed put: the request sequence number the put
/// uses and the fingerprint of the serialized state that seq covers
/// ([`state_fingerprint`]). The seq may be reused only for that exact
/// state; any other state needs a fresh seq (recovery invariant 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingPut {
    pub seq: u64,
    pub fingerprint: u64,
}

/// One journaled disconnected-session invocation, as recovered.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredOp {
    pub target: ObjId,
    pub method: String,
    pub args: Vec<ObiValue>,
    pub succeeded: bool,
}

/// Everything a restarted site gets back from its log.
#[derive(Debug, Default)]
pub struct RecoveredState {
    /// Dirty replicas to reinstall, keyed by object: the master site and
    /// the latest serialized state. Clean replicas are absent by design
    /// (recovery invariant 1).
    pub dirty: BTreeMap<ObjId, (SiteId, ReplicaState)>,
    /// The journaled op log, in original order.
    pub ops: Vec<RecoveredOp>,
    /// Puts whose intent was durable but whose confirmation was not:
    /// object → the request seq the put used (or will use) and the
    /// fingerprint of the state that seq covers.
    pub pending_puts: BTreeMap<ObjId, PendingPut>,
    /// Restored RMI request counter (already epoch-skipped; invariant 3).
    pub next_request_seq: u64,
    /// Restored reply horizon for the client's `HorizonTracker`.
    pub horizon: u64,
    /// Mastership handoffs in flight or completed at crash time: root →
    /// (successor, completed). Recovery uses these directionally — a
    /// recovered replica of a handed-off root points its provider at the
    /// successor, and this site must never come back up mastering the root.
    pub handoffs: BTreeMap<ObjId, (SiteId, bool)>,
    /// Bytes dropped from the WAL's torn tail (0 for a clean shutdown).
    pub truncated_bytes: u64,
    /// Intact WAL records replayed (excludes the snapshot).
    pub wal_records: u64,
}

impl RecoveredState {
    /// True when the log held nothing to restore.
    pub fn is_empty(&self) -> bool {
        self.dirty.is_empty()
            && self.ops.is_empty()
            && self.pending_puts.is_empty()
            && self.next_request_seq == 0
    }
}

/// The in-memory mirror of durable state, maintained so compaction can
/// write a snapshot without re-reading the WAL.
#[derive(Default)]
struct Mirror {
    dirty: BTreeMap<ObjId, (SiteId, ReplicaState)>,
    ops: Vec<RecoveredOp>,
    pending_puts: BTreeMap<ObjId, PendingPut>,
    handoffs: BTreeMap<ObjId, (SiteId, bool)>,
    client: Option<(u64, u64)>, // (next_seq, horizon)
    records_since_compact: u64,
    rpcs_since_checkpoint: u64,
    max_seen_seq: u64,
}

impl Mirror {
    fn apply(&mut self, record: WalRecord) {
        match record {
            WalRecord::ObjectDelta { provider, state } => {
                self.dirty.insert(state.id, (provider, state));
            }
            WalRecord::Op {
                target,
                method,
                args,
                succeeded,
                deltas,
            } => {
                // The states an invocation dirtied and its journal entry
                // enter the mirror in one step, as they entered the log in
                // one record.
                for (provider, state) in deltas {
                    self.dirty.insert(state.id, (provider, state));
                }
                self.ops.push(RecoveredOp {
                    target,
                    method,
                    args,
                    succeeded,
                });
            }
            WalRecord::PutIntent { id, seq, fingerprint } => {
                self.pending_puts.insert(id, PendingPut { seq, fingerprint });
                self.max_seen_seq = self.max_seen_seq.max(seq);
            }
            WalRecord::PutConfirmed { id, fingerprint, .. } => {
                self.pending_puts.remove(&id);
                // The ack covers one exact state. A delta that no longer
                // fingerprints to it was logged by a mutation racing the
                // RPC — that state is still unsent and must stay
                // recoverable.
                if self
                    .dirty
                    .get(&id)
                    .is_some_and(|(_, s)| state_fingerprint(s) == fingerprint)
                {
                    self.dirty.remove(&id);
                }
            }
            WalRecord::PutAbandoned { id } => {
                // The seq is spent (the master cached a rejection for it)
                // but the state was NOT applied: keep the dirty delta.
                self.pending_puts.remove(&id);
            }
            WalRecord::Clean { id } => {
                self.dirty.remove(&id);
            }
            WalRecord::ClientState { next_seq, horizon } => {
                self.client = Some((next_seq, horizon));
                self.max_seen_seq = self.max_seen_seq.max(next_seq.saturating_sub(1));
            }
            WalRecord::HandoffIntent { root, successor } => {
                self.handoffs.insert(root, (successor, false));
            }
            WalRecord::HandoffComplete { root } => {
                if let Some(entry) = self.handoffs.get_mut(&root) {
                    entry.1 = true;
                }
            }
        }
    }

    /// The record sequence a snapshot of this mirror consists of.
    fn snapshot_records(&self) -> Vec<WalRecord> {
        let mut out = Vec::new();
        if let Some((next_seq, horizon)) = self.client {
            out.push(WalRecord::ClientState { next_seq, horizon });
        }
        for (provider, state) in self.dirty.values() {
            out.push(WalRecord::ObjectDelta {
                provider: *provider,
                state: state.clone(),
            });
        }
        for (id, pending) in &self.pending_puts {
            out.push(WalRecord::PutIntent {
                id: *id,
                seq: pending.seq,
                fingerprint: pending.fingerprint,
            });
        }
        for op in &self.ops {
            out.push(WalRecord::Op {
                target: op.target,
                method: op.method.clone(),
                args: op.args.clone(),
                succeeded: op.succeeded,
                // Their states are the `ObjectDelta`s above.
                deltas: Vec::new(),
            });
        }
        for (root, (successor, complete)) in &self.handoffs {
            out.push(WalRecord::HandoffIntent {
                root: *root,
                successor: *successor,
            });
            if *complete {
                out.push(WalRecord::HandoffComplete { root: *root });
            }
        }
        out
    }
}

/// Write-through durability for one site. See the module docs.
pub struct Durable {
    storage: Arc<dyn Storage>,
    wal: Wal,
    mirror: Mutex<Mirror>,
    compact_every: u64,
    checkpoint_every_rpcs: u64,
}

impl Durable {
    /// Opens (or creates) the log in `storage`, runs recovery, and returns
    /// the wrapper plus whatever state survived. The WAL's torn tail, if
    /// any, has been truncated by the time this returns.
    pub fn open(
        storage: Arc<dyn Storage>,
        opts: DurableOptions,
    ) -> Result<(Arc<Durable>, RecoveredState)> {
        // Snapshot first (it is never torn: `replace` is atomic), then the
        // WAL tail appended since that snapshot.
        let mut mirror = Mirror::default();
        let mut fold = |payload: &[u8]| WalRecord::decode(payload).map(|r| mirror.apply(r));
        let (snap_records, _) = wal::replay_decoded(storage.as_ref(), SNAP_FILE, &mut fold)?;
        let (wal_records, truncated) = wal::replay_decoded(storage.as_ref(), WAL_FILE, &mut fold)?;
        let blank = snap_records == 0 && wal_records == 0;

        let (logged_next_seq, horizon) = mirror.client.unwrap_or((0, 0));
        // Any surviving history means a previous process life issued RPCs,
        // and only put/client-state records log their seqs — lookups, gets
        // and invokes burn sequence numbers invisibly. Restarting the
        // counter low would collide with those, and the provider's reply
        // cache would answer brand-new requests with stale cached replies.
        // So any non-empty log forces a fresh seq epoch; only a genuinely
        // blank store keeps the natural counter.
        let next_request_seq = if blank {
            0 // nothing persisted: a fresh site keeps its natural counter
        } else {
            logged_next_seq.max(mirror.max_seen_seq + 1) + SEQ_EPOCH_SKIP
        };

        let recovered = RecoveredState {
            dirty: mirror.dirty.clone(),
            ops: mirror.ops.clone(),
            pending_puts: mirror.pending_puts.clone(),
            next_request_seq,
            horizon,
            handoffs: mirror.handoffs.clone(),
            truncated_bytes: truncated,
            wal_records,
        };

        let durable = Arc::new(Durable {
            wal: Wal::new(
                storage.clone(),
                WAL_FILE,
                WalOptions {
                    group_commit: opts.group_commit,
                },
            ),
            storage,
            mirror: Mutex::new(mirror),
            compact_every: opts.compact_every,
            checkpoint_every_rpcs: opts.checkpoint_every_rpcs,
        });
        Ok((durable, recovered))
    }

    /// Logs that the replica of `state.id` (mastered at `provider`) went
    /// dirty with the given serialized state.
    ///
    /// Callers must not hold any shard guard across this call (enforced by
    /// the `no-io-under-shard-guard` lint): the append can trigger a group
    /// sync, and I/O under a shard guard would serialize the striped table.
    pub fn log_dirty(&self, provider: SiteId, state: ReplicaState) -> Result<()> {
        self.log(WalRecord::ObjectDelta { provider, state })
    }

    /// Journals one disconnected-session invocation together with the
    /// replicas it dirtied (`(provider, state)` each): one record, so a
    /// crash keeps the op and its states or neither. The record is encoded
    /// from the borrowed arguments; only what the mirror keeps is owned.
    ///
    /// Like [`log_dirty`](Durable::log_dirty), never under a shard guard:
    /// read the states first, release the stripe, then call this.
    pub fn log_op(
        &self,
        target: ObjId,
        method: &str,
        args: &[ObiValue],
        succeeded: bool,
        deltas: Vec<(SiteId, ReplicaState)>,
    ) -> Result<()> {
        let mut frames = Frames::new();
        frames.push_with(|enc| encode_op(enc, target, method, args, succeeded, &deltas));
        let mut mirror = self.mirror.lock();
        self.wal.append_frames(&frames)?;
        let record = WalRecord::Op {
            target,
            method: method.to_string(),
            args: args.to_vec(),
            succeeded,
            deltas,
        };
        self.applied_locked(&mut mirror, [record])
    }

    /// Logs the intents of one write-back group — each id about to be put
    /// as request `seq`, carrying the state its `fingerprint` names — and
    /// makes all of them durable with one write and one sync. Must return
    /// `Ok` before the first of those RPCs leaves (recovery invariant 2).
    ///
    /// An id that still has a pending intent is listed because its state
    /// changed since: that intent is retired (`PutAbandoned`) in the same
    /// batch, ahead of the one that replaces it.
    pub fn log_put_intents(&self, intents: &[(ObjId, PendingPut)]) -> Result<()> {
        let mut mirror = self.mirror.lock();
        let mut records = Vec::with_capacity(intents.len());
        for &(id, PendingPut { seq, fingerprint }) in intents {
            if mirror.pending_puts.contains_key(&id) {
                records.push(WalRecord::PutAbandoned { id });
            }
            records.push(WalRecord::PutIntent { id, seq, fingerprint });
        }
        let mut frames = Frames::new();
        for record in &records {
            record.frame_into(&mut frames);
        }
        self.wal.append_batch(&frames)?;
        self.applied_locked(&mut mirror, records)
    }

    /// The one-intent group of [`log_put_intents`](Durable::log_put_intents).
    pub fn log_put_intent(&self, id: ObjId, seq: u64, fingerprint: u64) -> Result<()> {
        self.log_put_intents(&[(id, PendingPut { seq, fingerprint })])
    }

    /// Logs that the put for `id` was acknowledged at `version`;
    /// `fingerprint` names the state the ack covered, so the mirror only
    /// retires a dirty delta that still matches it.
    pub fn log_confirm(&self, id: ObjId, version: u64, fingerprint: u64) -> Result<()> {
        self.log(WalRecord::PutConfirmed { id, version, fingerprint })
    }

    /// Logs that the pending put intent for `id` must never be retried
    /// under its request seq: either the master *definitively rejected*
    /// the put (its reply cache holds the rejection, so reusing the seq
    /// would replay the cached error), or the replica's state changed
    /// since the intent was logged (the seq may be spent at the master
    /// with the OLD state, so reusing it would ack the new state without
    /// applying it). The replica stays dirty either way. Forced durable
    /// immediately, like the intent it cancels.
    pub fn log_put_abandoned(&self, id: ObjId) -> Result<()> {
        self.log(WalRecord::PutAbandoned { id })?;
        self.wal.commit()
    }

    /// Logs that the replica of `id` was refreshed from its master.
    pub fn log_clean(&self, id: ObjId) -> Result<()> {
        self.log(WalRecord::Clean { id })
    }

    /// Logs the intent to hand mastership of `root` to `successor`, then
    /// forces the record durable — it must be on disk before the handoff
    /// RPC leaves, so a crash mid-handoff recovers pointing at the
    /// successor rather than resurrecting local mastership.
    pub fn log_handoff_intent(&self, root: ObjId, successor: SiteId) -> Result<()> {
        self.log(WalRecord::HandoffIntent { root, successor })?;
        self.wal.commit()
    }

    /// Logs that the successor acknowledged the handoff of `root`. Forced
    /// durable like the intent it settles.
    pub fn log_handoff_complete(&self, root: ObjId) -> Result<()> {
        self.log(WalRecord::HandoffComplete { root })?;
        self.wal.commit()
    }

    /// Logs the RMI client watermark (request counter + reply horizon).
    pub fn log_client_state(&self, next_seq: u64, horizon: u64) -> Result<()> {
        self.log(WalRecord::ClientState { next_seq, horizon })
    }

    /// Counts one confirmed RPC against the periodic-checkpoint budget;
    /// every `checkpoint_every_rpcs`-th call logs a `ClientState` record
    /// carrying the watermark passed in. Returns whether a checkpoint was
    /// written.
    ///
    /// Puts persist the watermark on their own confirm path; this exists
    /// for the RPCs that don't (invokes, demands, refreshes), so a long
    /// RPC-heavy life between puts keeps its unlogged seq drift bounded by
    /// N rather than leaning on [`SEQ_EPOCH_SKIP`] for the whole session.
    pub fn note_confirmed_rpc(&self, next_seq: u64, horizon: u64) -> Result<bool> {
        if self.checkpoint_every_rpcs == 0 {
            return Ok(false);
        }
        let mut mirror = self.mirror.lock();
        mirror.rpcs_since_checkpoint += 1;
        if mirror.rpcs_since_checkpoint < self.checkpoint_every_rpcs {
            return Ok(false);
        }
        mirror.rpcs_since_checkpoint = 0;
        self.log_locked(&mut mirror, WalRecord::ClientState { next_seq, horizon })?;
        Ok(true)
    }

    /// Forces all buffered records durable now (group commit cut short).
    pub fn commit(&self) -> Result<()> {
        self.wal.commit()
    }

    /// The durable-but-unconfirmed put intent for `id`, if one exists. The
    /// put path reuses its seq — but only while the replica still holds
    /// the state the intent fingerprints — so a crash-replayed `put`
    /// carries the same request id as the original attempt.
    pub fn pending_put(&self, id: ObjId) -> Option<PendingPut> {
        self.mirror.lock().pending_puts.get(&id).copied()
    }

    /// Drops the journaled op log and pending-put markers after a completed
    /// reintegration, then compacts. Dirty-object deltas survive (objects
    /// that conflicted are still dirty). With neither ops nor markers in
    /// the log there is no session to drop, and the call only commits.
    pub fn reset_session(&self) -> Result<()> {
        let mut mirror = self.mirror.lock();
        if mirror.ops.is_empty() && mirror.pending_puts.is_empty() {
            return self.wal.commit();
        }
        mirror.ops.clear();
        mirror.pending_puts.clear();
        self.compact_locked(&mut mirror)
    }

    /// Folds the WAL into a fresh snapshot and truncates it.
    pub fn compact(&self) -> Result<()> {
        let mut mirror = self.mirror.lock();
        self.compact_locked(&mut mirror)
    }

    /// WAL counters (appends, syncs, bytes) for benches and tests.
    pub fn wal_stats(&self) -> &WalStats {
        self.wal.stats()
    }

    /// Current WAL length in bytes.
    pub fn wal_len(&self) -> Result<u64> {
        self.wal.len()
    }

    fn log(&self, record: WalRecord) -> Result<()> {
        let mut mirror = self.mirror.lock();
        self.log_locked(&mut mirror, record)
    }

    /// Append + mirror under an already-held mirror guard (the lock is not
    /// re-entrant, so paths that inspect the mirror before logging go
    /// through here).
    fn log_locked(&self, mirror: &mut Mirror, record: WalRecord) -> Result<()> {
        let mut frames = Frames::new();
        record.frame_into(&mut frames);
        self.wal.append_frames(&frames)?;
        self.applied_locked(mirror, [record])
    }

    /// Folds records the WAL now holds into the mirror, compacting once
    /// enough have accumulated.
    fn applied_locked(
        &self,
        mirror: &mut Mirror,
        records: impl IntoIterator<Item = WalRecord>,
    ) -> Result<()> {
        for record in records {
            mirror.apply(record);
            mirror.records_since_compact += 1;
        }
        if self.compact_every > 0 && mirror.records_since_compact >= self.compact_every {
            self.compact_locked(mirror)?;
        }
        Ok(())
    }

    fn compact_locked(&self, mirror: &mut Mirror) -> Result<()> {
        let mut frames = Frames::new();
        for record in mirror.snapshot_records() {
            record.frame_into(&mut frames);
        }
        // Snapshot becomes durable before the WAL is dropped; a crash
        // between the two replays both (snapshot then stale WAL), which is
        // idempotent because later records supersede earlier ones.
        self.storage.replace(SNAP_FILE, frames.as_bytes())?;
        self.wal.reset()?;
        mirror.records_since_compact = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;
    use bytes::Bytes;

    fn oid(site: u32, n: u64) -> ObjId {
        ObjId::new(SiteId::new(site), n)
    }

    fn rs(site: u32, n: u64, version: u64, byte: u8) -> ReplicaState {
        ReplicaState {
            id: oid(site, n),
            class: "Counter".into(),
            version,
            state: Bytes::from(vec![byte; 4]),
        }
    }

    fn open(mem: &Arc<MemStorage>) -> (Arc<Durable>, RecoveredState) {
        Durable::open(
            mem.clone() as Arc<dyn Storage>,
            DurableOptions {
                group_commit: 4,
                compact_every: 0,
                checkpoint_every_rpcs: 0,
            },
        )
        .unwrap()
    }

    /// A [`MemStorage`] that notes where each buffer it reads out lives.
    #[derive(Default)]
    struct ReadSpy {
        mem: MemStorage,
        reads: Mutex<Vec<std::ops::Range<usize>>>,
    }

    impl Storage for ReadSpy {
        fn read(&self, name: &str) -> Result<Vec<u8>> {
            let data = self.mem.read(name)?;
            let start = data.as_ptr() as usize;
            self.reads.lock().push(start..start + data.len());
            Ok(data)
        }
        fn len(&self, name: &str) -> Result<u64> {
            self.mem.len(name)
        }
        fn append(&self, name: &str, bytes: &[u8]) -> Result<()> {
            self.mem.append(name, bytes)
        }
        fn sync(&self, name: &str) -> Result<()> {
            self.mem.sync(name)
        }
        fn truncate(&self, name: &str, len: u64) -> Result<()> {
            self.mem.truncate(name, len)
        }
        fn replace(&self, name: &str, bytes: &[u8]) -> Result<()> {
            self.mem.replace(name, bytes)
        }
    }

    /// A recovered state is a copy: it never pins the buffer the log was
    /// read into (the wire decodes states as views of their frame; the log
    /// must not).
    #[test]
    fn recovered_states_do_not_point_into_the_log_buffer() {
        let spy = Arc::new(ReadSpy::default());
        let storage = spy.clone() as Arc<dyn Storage>;
        let opts = DurableOptions {
            group_commit: 1,
            compact_every: 0,
            checkpoint_every_rpcs: 0,
        };
        {
            let (d, _) = Durable::open(storage.clone(), opts.clone()).unwrap();
            d.log_dirty(SiteId::new(2), rs(2, 5, 10, 0xAA)).unwrap();
            d.log_dirty(SiteId::new(2), rs(2, 6, 11, 0xBB)).unwrap();
            d.commit().unwrap();
        }
        spy.reads.lock().clear();
        let (_d, recovered) = Durable::open(storage, opts).unwrap();
        assert_eq!(recovered.dirty.len(), 2);
        let reads = spy.reads.lock().clone();
        assert!(reads.iter().any(|r| r.len() > 8), "the log was read: {reads:?}");
        for (_, state) in recovered.dirty.values() {
            let at = state.state.as_ptr() as usize;
            assert!(!reads.iter().any(|r| r.contains(&at)), "{:?} points into the log", state.id);
        }
    }

    #[test]
    fn fresh_log_recovers_empty() {
        let mem = Arc::new(MemStorage::new());
        let (_d, recovered) = open(&mem);
        assert!(recovered.is_empty());
        assert_eq!(recovered.next_request_seq, 0);
    }

    #[test]
    fn dirty_then_confirm_leaves_nothing_pending() {
        let mem = Arc::new(MemStorage::new());
        {
            let (d, _) = open(&mem);
            let fp = state_fingerprint(&rs(2, 5, 10, 0xAA));
            d.log_dirty(SiteId::new(2), rs(2, 5, 10, 0xAA)).unwrap();
            d.log_put_intent(oid(2, 5), 31, fp).unwrap();
            d.log_confirm(oid(2, 5), 11, fp).unwrap();
            d.commit().unwrap();
        }
        let (_d, recovered) = open(&mem);
        assert!(recovered.dirty.is_empty(), "confirmed put leaves no dirty state");
        assert!(recovered.pending_puts.is_empty());
        // Seq 31 was seen, so the restored counter must clear it + skip.
        assert!(recovered.next_request_seq > 31 + SEQ_EPOCH_SKIP - 1);
    }

    #[test]
    fn any_surviving_history_forces_a_fresh_seq_epoch() {
        // Deltas and ops never carry request seqs, but their presence
        // proves a previous life ran — and it issued lookups/gets whose
        // seqs were never logged. The restored counter must skip ahead or
        // the provider's reply cache answers new requests with stale
        // cached replies.
        let mem = Arc::new(MemStorage::new());
        {
            let (d, _) = open(&mem);
            d.log_dirty(SiteId::new(2), rs(2, 5, 10, 0xAA)).unwrap();
            d.commit().unwrap();
        }
        let (_d, recovered) = open(&mem);
        assert!(
            recovered.next_request_seq >= SEQ_EPOCH_SKIP,
            "got {}",
            recovered.next_request_seq
        );
    }

    #[test]
    fn abandoned_put_drops_the_intent_but_keeps_the_dirty_delta() {
        let mem = Arc::new(MemStorage::new());
        {
            let (d, _) = open(&mem);
            let fp = state_fingerprint(&rs(2, 5, 10, 0xAA));
            d.log_dirty(SiteId::new(2), rs(2, 5, 10, 0xAA)).unwrap();
            d.log_put_intent(oid(2, 5), 31, fp).unwrap();
            // The master rejected the put: the seq is spent but the state
            // was never applied, so the delta must stay recoverable.
            d.log_put_abandoned(oid(2, 5)).unwrap();
        }
        let (_d, recovered) = open(&mem);
        assert!(recovered.pending_puts.is_empty(), "spent seq must not be reused");
        assert!(recovered.dirty.contains_key(&oid(2, 5)), "rejected put stays dirty");
        // Seq 31 was still burned; the restored counter clears it.
        assert!(recovered.next_request_seq > 31);
    }

    #[test]
    fn unconfirmed_intent_survives_with_its_seq_and_fingerprint() {
        let mem = Arc::new(MemStorage::new());
        let fp = state_fingerprint(&rs(2, 5, 10, 0xAA));
        {
            let (d, _) = open(&mem);
            d.log_dirty(SiteId::new(2), rs(2, 5, 10, 0xAA)).unwrap();
            d.log_put_intent(oid(2, 5), 31, fp).unwrap();
            // Crash before confirm: intent was fsynced by log_put_intent.
        }
        let (d2, recovered) = open(&mem);
        let pending = PendingPut { seq: 31, fingerprint: fp };
        assert_eq!(recovered.pending_puts.get(&oid(2, 5)), Some(&pending));
        assert_eq!(d2.pending_put(oid(2, 5)), Some(pending));
        assert_eq!(recovered.dirty.len(), 1);
        let (provider, state) = &recovered.dirty[&oid(2, 5)];
        assert_eq!(*provider, SiteId::new(2));
        assert_eq!(state.version, 10);
    }

    #[test]
    fn a_group_of_intents_is_one_sync_and_retires_the_intents_it_replaces() {
        let mem = Arc::new(MemStorage::new());
        let (d, _) = open(&mem); // group commit 4
        d.log_put_intent(oid(2, 1), 10, 0x111).unwrap();
        let (syncs, appends) = (mem.sync_count(), d.wal_stats().appends());
        // Ten intents; the first replaces the pending one, whose state moved on.
        let group: Vec<(ObjId, PendingPut)> = (1..=10)
            .map(|n| (oid(2, n), PendingPut { seq: 19 + n, fingerprint: 0x222 + n }))
            .collect();
        d.log_put_intents(&group).unwrap();
        assert_eq!(mem.sync_count(), syncs + 1, "ten records at group commit 4");
        assert_eq!(d.wal_stats().appends(), appends + 11, "ten intents, one PutAbandoned");
        assert_eq!(d.pending_put(oid(2, 1)), Some(group[0].1));
        // Every intent is durable when the call returns: a crash that keeps
        // only synced bytes recovers all ten.
        mem.crash_keeping(WAL_FILE, mem.synced_len(WAL_FILE));
        let (_d, recovered) = open(&mem);
        assert_eq!(recovered.pending_puts, group.into_iter().collect());
        assert!(recovered.next_request_seq > 29);
    }

    #[test]
    fn confirm_for_a_superseded_delta_keeps_the_newer_state() {
        // A mutation raced the put RPC: its delta (0xBB) landed after the
        // intent but before the confirmation, which acks the OLD state
        // (0xAA). The newer, unsent state must survive a crash.
        let mem = Arc::new(MemStorage::new());
        {
            let (d, _) = open(&mem);
            let sent = rs(2, 5, 10, 0xAA);
            let fp = state_fingerprint(&sent);
            d.log_dirty(SiteId::new(2), sent).unwrap();
            d.log_put_intent(oid(2, 5), 31, fp).unwrap();
            d.log_dirty(SiteId::new(2), rs(2, 5, 10, 0xBB)).unwrap();
            d.log_confirm(oid(2, 5), 11, fp).unwrap();
            d.commit().unwrap();
        }
        let (_d, recovered) = open(&mem);
        assert!(recovered.pending_puts.is_empty(), "the intent itself is settled");
        assert_eq!(
            recovered.dirty[&oid(2, 5)].1.state.as_ref(),
            &[0xBB; 4],
            "the unsent newer delta survives the stale confirm"
        );
    }

    #[test]
    fn later_deltas_supersede_earlier_ones() {
        let mem = Arc::new(MemStorage::new());
        {
            let (d, _) = open(&mem);
            d.log_dirty(SiteId::new(2), rs(2, 5, 10, 0xAA)).unwrap();
            d.log_dirty(SiteId::new(2), rs(2, 5, 10, 0xBB)).unwrap();
            d.commit().unwrap();
        }
        let (_d, recovered) = open(&mem);
        assert_eq!(recovered.dirty.len(), 1);
        assert_eq!(recovered.dirty[&oid(2, 5)].1.state.as_ref(), &[0xBB; 4]);
    }

    #[test]
    fn clean_record_drops_the_dirty_delta() {
        let mem = Arc::new(MemStorage::new());
        {
            let (d, _) = open(&mem);
            d.log_dirty(SiteId::new(2), rs(2, 5, 10, 0xAA)).unwrap();
            d.log_clean(oid(2, 5)).unwrap();
            d.commit().unwrap();
        }
        let (_d, recovered) = open(&mem);
        assert!(recovered.dirty.is_empty());
    }

    #[test]
    fn ops_and_client_state_recover_in_order() {
        let mem = Arc::new(MemStorage::new());
        {
            let (d, _) = open(&mem);
            d.log_client_state(40, 32).unwrap();
            d.log_op(oid(2, 5), "add", &[ObiValue::I64(1)], true, vec![]).unwrap();
            d.log_op(oid(2, 5), "add", &[ObiValue::I64(2)], false, vec![]).unwrap();
            d.commit().unwrap();
        }
        let (_d, recovered) = open(&mem);
        assert_eq!(recovered.ops.len(), 2);
        assert_eq!(recovered.ops[0].args, vec![ObiValue::I64(1)]);
        assert!(!recovered.ops[1].succeeded);
        assert_eq!(recovered.horizon, 32);
        assert_eq!(recovered.next_request_seq, 40 + SEQ_EPOCH_SKIP);
    }

    #[test]
    fn a_journaled_op_and_the_states_it_dirtied_are_one_record() {
        let mem = Arc::new(MemStorage::new());
        let (d, _) = open(&mem);
        d.log_op(oid(2, 5), "add", &[ObiValue::I64(1)], true, vec![]).unwrap();
        d.commit().unwrap();
        let before = mem.len(WAL_FILE).unwrap();
        let deltas = vec![(SiteId::new(2), rs(2, 5, 10, 0xAA)), (SiteId::new(3), rs(3, 8, 2, 0xBB))];
        d.log_op(oid(2, 5), "move_to", &[ObiValue::I64(2)], true, deltas).unwrap();
        assert_eq!(d.wal_stats().appends(), 2, "one record, whatever it dirtied");
        d.commit().unwrap();
        let full = mem.read(WAL_FILE).unwrap();
        // Torn anywhere, the second op and both its states are lost
        // together; whole, they are recovered together.
        for keep in before..=full.len() as u64 {
            mem.replace(WAL_FILE, &full).unwrap();
            mem.crash_keeping(WAL_FILE, keep);
            let (_d, recovered) = open(&mem);
            let whole = keep == full.len() as u64;
            assert_eq!(recovered.ops.len(), 1 + usize::from(whole), "keep={keep}");
            assert_eq!(recovered.dirty.len(), 2 * usize::from(whole), "keep={keep}");
        }
        let (_d, recovered) = open(&mem);
        assert_eq!(recovered.ops[1].method, "move_to");
        assert_eq!(recovered.dirty[&oid(2, 5)], (SiteId::new(2), rs(2, 5, 10, 0xAA)));
        assert_eq!(recovered.dirty[&oid(3, 8)], (SiteId::new(3), rs(3, 8, 2, 0xBB)));
    }

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect()
    }

    /// A snapshot and a WAL tail exactly as the commit before `Op` carried
    /// deltas wrote them (bare `ObjectDelta`s, delta-less `Op`s): watermark,
    /// two deltas, two ops and a put intent, compacted; then a delta, its
    /// op and a failed op in the WAL.
    const PARENT_SNAP: &str = "030000009b95b99f052820\
        120000002ced6df60002020507436f756e7465720a04aaaaaaaa\
        13000000967ba9a6000303ac0207436f756e7465720704bbbbbbbb\
        0e00000045fc48ae0203ac0229d3e0a7e9cf9cffb101\
        0b0000008f44d6bd0102050361646401030801\
        0d000000bb431c930103ac02037365740105017801";
    const PARENT_WAL: &str = "120000002dfa0c330002020507436f756e7465720a04cccccccc\
        0b000000c6ff146c0102050361646401030101\
        15000000d2cb57270102090e6e6f5f737563685f6d6574686f64010000";
    /// The snapshot that commit wrote for the state the two files hold.
    const PARENT_RESNAP: &str = "030000009b95b99f052820\
        120000002dfa0c330002020507436f756e7465720a04cccccccc\
        13000000967ba9a6000303ac0207436f756e7465720704bbbbbbbb\
        0e00000045fc48ae0203ac0229d3e0a7e9cf9cffb101\
        0b0000008f44d6bd0102050361646401030801\
        0d000000bb431c930103ac02037365740105017801\
        0b000000c6ff146c0102050361646401030101\
        15000000d2cb57270102090e6e6f5f737563685f6d6574686f64010000";

    #[test]
    fn a_log_in_the_format_before_op_deltas_recovers_unchanged() {
        let mem = Arc::new(MemStorage::new());
        mem.replace(SNAP_FILE, &unhex(PARENT_SNAP)).unwrap();
        mem.replace(WAL_FILE, &unhex(PARENT_WAL)).unwrap();
        let (d, recovered) = open(&mem);
        assert_eq!(recovered.truncated_bytes, 0);
        assert_eq!(recovered.wal_records, 3);
        let dirty: Vec<_> = recovered.dirty.values().cloned().collect();
        assert_eq!(
            dirty,
            vec![(SiteId::new(2), rs(2, 5, 10, 0xCC)), (SiteId::new(3), rs(3, 300, 7, 0xBB))]
        );
        let op = |target, method: &str, arg, succeeded| RecoveredOp {
            target,
            method: method.into(),
            args: vec![arg],
            succeeded,
        };
        assert_eq!(
            recovered.ops,
            vec![
                op(oid(2, 5), "add", ObiValue::I64(4), true),
                op(oid(3, 300), "set", ObiValue::Str("x".into()), true),
                op(oid(2, 5), "add", ObiValue::I64(-1), true),
                op(oid(2, 9), "no_such_method", ObiValue::Null, false),
            ]
        );
        let pending = PendingPut {
            seq: 41,
            fingerprint: state_fingerprint(&rs(3, 300, 7, 0xBB)),
        };
        assert_eq!(recovered.pending_puts, [(oid(3, 300), pending)].into());
        assert_eq!(recovered.next_request_seq, 42 + SEQ_EPOCH_SKIP);
        assert_eq!(recovered.horizon, 32);
        assert!(recovered.handoffs.is_empty());
        // And the snapshot of that state is, byte for byte, the one the
        // older commit wrote: ops in a snapshot carry no deltas.
        d.compact().unwrap();
        assert_eq!(mem.read(SNAP_FILE).unwrap(), unhex(PARENT_RESNAP));
    }

    #[test]
    fn a_snapshot_holds_each_state_once_however_it_was_logged() {
        // The same history through one record per op, and through a bare
        // delta followed by a delta-less op, folds to the same snapshot.
        let snapshot_of = |combined: bool| {
            let mem = Arc::new(MemStorage::new());
            let (d, _) = open(&mem);
            for i in 0..3u64 {
                let delta = (SiteId::new(2), rs(2, 5, 10, i as u8));
                let args = [ObiValue::I64(i as i64)];
                if combined {
                    d.log_op(oid(2, 5), "add", &args, true, vec![delta]).unwrap();
                } else {
                    d.log_dirty(delta.0, delta.1).unwrap();
                    d.log_op(oid(2, 5), "add", &args, true, vec![]).unwrap();
                }
            }
            d.compact().unwrap();
            mem.read(SNAP_FILE).unwrap()
        };
        assert_eq!(snapshot_of(true), snapshot_of(false));
    }

    #[test]
    fn compaction_preserves_recovery_and_shrinks_the_wal() {
        let mem = Arc::new(MemStorage::new());
        {
            let (d, _) = open(&mem);
            for i in 0..50 {
                d.log_dirty(SiteId::new(2), rs(2, 5, 10 + i, i as u8)).unwrap();
            }
            d.log_op(oid(2, 5), "add", &[], true, vec![]).unwrap();
            d.log_client_state(9, 4).unwrap();
            let before = d.wal_len().unwrap();
            d.compact().unwrap();
            let after = d.wal_len().unwrap();
            assert_eq!(after, 0, "WAL truncated after snapshot");
            assert!(before > 0);
        }
        let (_d, recovered) = open(&mem);
        assert_eq!(recovered.dirty.len(), 1, "52 records folded to 1 delta + op + state");
        assert_eq!(recovered.dirty[&oid(2, 5)].1.version, 59);
        assert_eq!(recovered.ops.len(), 1);
        assert_eq!(recovered.horizon, 4);
    }

    #[test]
    fn auto_compaction_triggers_on_record_count() {
        let mem = Arc::new(MemStorage::new());
        let (d, _) = Durable::open(
            mem.clone() as Arc<dyn Storage>,
            DurableOptions {
                group_commit: 1,
                compact_every: 10,
                checkpoint_every_rpcs: 0,
            },
        )
        .unwrap();
        for i in 0..25 {
            d.log_dirty(SiteId::new(2), rs(2, 5, i, 0)).unwrap();
        }
        // 25 records at compact_every=10: two compactions, 5 records left.
        let left = d.wal_len().unwrap();
        assert!(left > 0 && mem.len(SNAP_FILE).unwrap() > 0);
        let (_d2, recovered) = open(&mem);
        assert_eq!(recovered.dirty[&oid(2, 5)].1.version, 24);
    }

    #[test]
    fn every_nth_confirmed_rpc_checkpoints_the_client_watermark() {
        let mem = Arc::new(MemStorage::new());
        {
            let (d, _) = Durable::open(
                mem.clone() as Arc<dyn Storage>,
                DurableOptions {
                    group_commit: 1,
                    compact_every: 0,
                    checkpoint_every_rpcs: 4,
                },
            )
            .unwrap();
            // Three RPCs: under budget, nothing logged.
            for seq in 1..=3 {
                assert!(!d.note_confirmed_rpc(seq, 0).unwrap());
            }
            assert_eq!(d.wal_len().unwrap(), 0, "no checkpoint before the 4th RPC");
            // The 4th writes the checkpoint with the watermark it was given.
            assert!(d.note_confirmed_rpc(44, 40).unwrap());
            // The counter resets: three more stay quiet, the next fires.
            for seq in 45..=47 {
                assert!(!d.note_confirmed_rpc(seq, 40).unwrap());
            }
            assert!(d.note_confirmed_rpc(88, 80).unwrap());
        }
        let (_d, recovered) = open(&mem);
        // Recovery restores the *latest* checkpointed watermark, epoch-
        // skipped as usual (invariant 3).
        assert_eq!(recovered.next_request_seq, 88 + SEQ_EPOCH_SKIP);
        assert_eq!(recovered.horizon, 80);
    }

    #[test]
    fn zero_disables_periodic_checkpoints() {
        let mem = Arc::new(MemStorage::new());
        let (d, _) = open(&mem); // the test helper opens with 0
        for seq in 1..=100 {
            assert!(!d.note_confirmed_rpc(seq, 0).unwrap());
        }
        assert_eq!(d.wal_len().unwrap(), 0);
    }

    #[test]
    fn reset_session_clears_ops_but_keeps_dirty_state() {
        let mem = Arc::new(MemStorage::new());
        {
            let (d, _) = open(&mem);
            d.log_dirty(SiteId::new(2), rs(2, 5, 10, 0xAA)).unwrap();
            d.log_op(oid(2, 5), "add", &[], true, vec![]).unwrap();
            d.log_put_intent(oid(2, 5), 3, state_fingerprint(&rs(2, 5, 10, 0xAA)))
                .unwrap();
            d.reset_session().unwrap();
        }
        let (_d, recovered) = open(&mem);
        assert!(recovered.ops.is_empty());
        assert!(recovered.pending_puts.is_empty());
        assert_eq!(recovered.dirty.len(), 1, "conflicted dirty state survives");
    }

    #[test]
    fn handoff_intent_survives_a_crash_and_compaction() {
        let mem = Arc::new(MemStorage::new());
        {
            let (d, _) = open(&mem);
            // Crash after the intent but before the ack: recovery must
            // still know the successor, with the handoff marked incomplete.
            d.log_handoff_intent(oid(1, 7), SiteId::new(4)).unwrap();
        }
        let (_d, recovered) = open(&mem);
        assert_eq!(
            recovered.handoffs.get(&oid(1, 7)),
            Some(&(SiteId::new(4), false))
        );
        {
            let (d, _) = open(&mem);
            d.log_handoff_complete(oid(1, 7)).unwrap();
            // Completion must survive snapshot folding too.
            d.compact().unwrap();
        }
        let (_d, recovered) = open(&mem);
        assert_eq!(
            recovered.handoffs.get(&oid(1, 7)),
            Some(&(SiteId::new(4), true))
        );
    }

    #[test]
    fn crash_mid_append_truncates_and_recovers_prefix() {
        let mem = Arc::new(MemStorage::new());
        {
            let (d, _) = open(&mem);
            for i in 0..10 {
                d.log_dirty(SiteId::new(2), rs(2, i, 1, i as u8)).unwrap();
            }
            d.commit().unwrap();
        }
        let full = mem.len(WAL_FILE).unwrap();
        // Chop mid-record: some prefix of records survives, tail truncated.
        mem.crash_keeping(WAL_FILE, full - 5);
        let (_d, recovered) = open(&mem);
        assert!(recovered.truncated_bytes > 0);
        assert_eq!(recovered.dirty.len(), 9, "last record torn, first 9 intact");
    }

    #[test]
    fn storage_failure_during_log_surfaces() {
        let mem = Arc::new(MemStorage::new());
        let (d, _) = open(&mem);
        mem.fail_after(0);
        let err = d.log_clean(oid(1, 1)).unwrap_err();
        assert!(matches!(err, obiwan_util::ObiError::Storage(_)), "{err}");
    }
}
