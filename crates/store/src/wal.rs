//! Append-only write-ahead log with CRC framing and group commit: a site's
//! only file, which [`Wal::rewrite`] compacts in place.
//!
//! # Record framing
//!
//! Every record is framed as a fixed 8-byte header followed by the payload:
//!
//! ```text
//! | payload_len: u32 LE | crc32(payload): u32 LE | payload bytes |
//! ```
//!
//! Payloads themselves are encoded with the `obiwan-wire` codec (see
//! [`crate::record`]); the frame layer treats them as opaque bytes. The
//! fixed header keeps offset arithmetic trivial during recovery, and the
//! checksum is the zlib-compatible [`obiwan_wire::crc32`] so external
//! tooling can verify a log.
//!
//! # Group commit
//!
//! `fsync` dominates append cost, so the log batches it: appends buffer up
//! to [`WalOptions::group_commit`] records and one [`Storage::sync`] makes
//! the whole batch durable. [`Wal::commit`] forces the sync early — callers
//! use it before externally-visible actions. A caller with several records
//! that must *all* be durable before it acts (the put intents of one
//! write-back group) hands them to [`Wal::append_batch`] as one [`Frames`]:
//! one write and one sync, where the same records through [`Wal::append`]
//! would sync every `group_commit`-th of them. Records that may wait for
//! whatever sync comes next go through [`Wal::append_deferred`], which never
//! syncs; the caller learns when they are durable by comparing the log
//! position it returned with [`Wal::durable_position`].
//!
//! # Torn tails
//!
//! A crash can leave a partial frame at the end of the log. [`replay`]
//! scans from the start; the first frame that is short, overruns the file,
//! or fails its checksum is the torn tail, and the file is truncated at the
//! last good record. Everything before it is returned in order. A corrupt
//! *interior* record cannot be distinguished from a torn tail by this rule;
//! the records after it are dropped too, which is the safe direction (an
//! un-replayed record is re-done work, a mis-replayed one is corruption).

use crate::storage::Storage;
use obiwan_util::sync::Mutex;
use obiwan_util::{ObiError, Result};
use obiwan_wire::{crc32, Encoder};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Frame header size: `payload_len` (u32) + `crc` (u32).
pub const FRAME_HEADER: usize = 8;

/// Tuning knobs for a [`Wal`].
#[derive(Debug, Clone)]
pub struct WalOptions {
    /// How many records may accumulate before an append triggers a sync.
    /// `1` means sync-per-record (no batching).
    pub group_commit: usize,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions { group_commit: 8 }
    }
}

/// Counters exposed for benchmarks and tests.
#[derive(Debug, Default)]
pub struct WalStats {
    /// Records appended over the log's lifetime.
    pub appends: AtomicU64,
    /// `Storage::sync` calls issued (one per group-commit batch).
    pub syncs: AtomicU64,
    /// Payload + header bytes written.
    pub bytes: AtomicU64,
}

impl WalStats {
    pub fn appends(&self) -> u64 {
        self.appends.load(Ordering::Relaxed)
    }
    pub fn syncs(&self) -> u64 {
        self.syncs.load(Ordering::Relaxed)
    }
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

/// Framed records laid end to end, ready to be written in one piece. The
/// only way to build the bytes a [`Wal`] (or a snapshot) holds, so the
/// record count always matches them and every header is valid.
#[derive(Debug, Default)]
pub struct Frames {
    bytes: Vec<u8>,
    records: usize,
}

impl Frames {
    pub fn new() -> Self {
        Frames::default()
    }

    /// Frames `payload` as the next record.
    pub fn push(&mut self, payload: &[u8]) {
        self.bytes.reserve(FRAME_HEADER + payload.len());
        let at = self.open();
        self.bytes.extend_from_slice(payload);
        self.seal(at);
    }

    /// Frames whatever `encode` writes as the next record. The payload is
    /// encoded in place behind its header, which is filled in afterwards,
    /// so a record is written once and never copied.
    pub fn push_with(&mut self, encode: impl FnOnce(&mut Encoder)) {
        let at = self.open();
        let mut enc = Encoder::over(std::mem::take(&mut self.bytes));
        encode(&mut enc);
        self.bytes = enc.into_vec();
        self.seal(at);
    }

    /// Records framed so far.
    pub fn records(&self) -> usize {
        self.records
    }

    /// The frames, concatenated.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Reserves the next frame's header and returns its offset.
    fn open(&mut self) -> usize {
        let at = self.bytes.len();
        self.bytes.extend_from_slice(&[0; FRAME_HEADER]);
        at
    }

    /// Completes the frame opened at `at`: everything behind its header is
    /// the payload.
    fn seal(&mut self, at: usize) {
        let payload = &self.bytes[at + FRAME_HEADER..];
        let len = u32::try_from(payload.len()).expect("WAL payload exceeds u32::MAX");
        let crc = crc32(payload);
        self.bytes[at..at + 4].copy_from_slice(&len.to_le_bytes());
        self.bytes[at + 4..at + FRAME_HEADER].copy_from_slice(&crc.to_le_bytes());
        self.records += 1;
    }
}

struct WalState {
    /// Records appended since the last sync.
    unsynced: usize,
}

/// The append side of the write-ahead log.
///
/// Internally synchronized; clones of the `Arc` can append concurrently and
/// records never interleave mid-frame.
pub struct Wal {
    storage: Arc<dyn Storage>,
    name: String,
    opts: WalOptions,
    state: Mutex<WalState>,
    stats: WalStats,
    /// Records, counted over the log's lifetime, that no crash can take:
    /// the appends count as of the last sync or reset.
    durable: AtomicU64,
}

impl Wal {
    pub fn new(storage: Arc<dyn Storage>, name: impl Into<String>, opts: WalOptions) -> Self {
        Wal {
            storage,
            name: name.into(),
            opts,
            state: Mutex::new(WalState { unsynced: 0 }),
            stats: WalStats::default(),
            durable: AtomicU64::new(0),
        }
    }

    /// Frames `payload` and appends it. Durable only after the group's sync
    /// (triggered here when the batch fills, or explicitly by [`commit`]).
    ///
    /// [`commit`]: Wal::commit
    pub fn append(&self, payload: &[u8]) -> Result<()> {
        let mut frames = Frames::new();
        frames.push(payload);
        self.append_frames(&frames)
    }

    /// Appends already-framed records under the same rule as [`append`]:
    /// one write, and a sync once [`WalOptions::group_commit`] records
    /// have accumulated.
    ///
    /// [`append`]: Wal::append
    pub fn append_frames(&self, frames: &Frames) -> Result<()> {
        let mut state = self.state.lock();
        self.write_locked(&mut state, frames)?;
        if state.unsynced >= self.opts.group_commit.max(1) {
            self.sync_locked(&mut state)?;
        }
        Ok(())
    }

    /// Appends `frames` without ever syncing, however many records are
    /// buffered: they count as unsynced, so the next sync of any kind (a
    /// group commit other appends fill, [`append_batch`], [`commit`]) makes
    /// them durable. Returns the log position after them — records appended
    /// over the log's lifetime — which is durable once
    /// [`durable_position`](Wal::durable_position) reaches it.
    ///
    /// [`append_batch`]: Wal::append_batch
    /// [`commit`]: Wal::commit
    pub fn append_deferred(&self, frames: &Frames) -> Result<u64> {
        let mut state = self.state.lock();
        self.write_locked(&mut state, frames)?;
        Ok(self.stats.appends())
    }

    /// The log position (see [`append_deferred`](Wal::append_deferred))
    /// up to which every record is durable: synced, or folded into a
    /// [`rewrite`](Wal::rewrite).
    pub fn durable_position(&self) -> u64 {
        self.durable.load(Ordering::Acquire)
    }

    /// Appends `frames` and makes them durable before returning: one write
    /// and one sync however many records they hold (and whatever
    /// [`WalOptions::group_commit`] says), covering any records still
    /// buffered before them too. For callers whose next step is externally
    /// visible for every record of the batch at once.
    pub fn append_batch(&self, frames: &Frames) -> Result<()> {
        if frames.records() == 0 {
            return Ok(());
        }
        let mut state = self.state.lock();
        self.write_locked(&mut state, frames)?;
        self.sync_locked(&mut state)
    }

    /// Forces any buffered records to stable storage. No-op when the tail
    /// is already durable.
    pub fn commit(&self) -> Result<()> {
        let mut state = self.state.lock();
        if state.unsynced > 0 {
            self.sync_locked(&mut state)?;
        }
        Ok(())
    }

    /// Replaces the whole log with `frames` in one atomic, durable
    /// [`Storage::replace`] (not counted in [`WalStats`]). `frames` restate
    /// all the log held, so every record appended before counts as durable.
    pub fn rewrite(&self, frames: &Frames) -> Result<()> {
        let mut state = self.state.lock();
        self.storage.replace(&self.name, frames.as_bytes())?;
        self.mark_durable(&mut state);
        Ok(())
    }

    /// Current log length in bytes.
    pub fn len(&self) -> Result<u64> {
        self.storage.len(&self.name)
    }

    pub fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }

    pub fn stats(&self) -> &WalStats {
        &self.stats
    }

    fn write_locked(&self, state: &mut WalState, frames: &Frames) -> Result<()> {
        self.storage.append(&self.name, frames.as_bytes())?;
        self.stats.appends.fetch_add(frames.records() as u64, Ordering::Relaxed);
        self.stats.bytes.fetch_add(frames.as_bytes().len() as u64, Ordering::Relaxed);
        state.unsynced += frames.records();
        Ok(())
    }

    fn sync_locked(&self, state: &mut WalState) -> Result<()> {
        self.storage.sync(&self.name)?;
        self.stats.syncs.fetch_add(1, Ordering::Relaxed);
        self.mark_durable(state);
        Ok(())
    }

    /// Nothing buffered is left to lose.
    fn mark_durable(&self, state: &mut WalState) {
        state.unsynced = 0;
        self.durable.store(self.stats.appends(), Ordering::Release);
    }
}

/// The payload of the intact frame at the start of `bytes`, or `None` when
/// what is there is short, overruns `bytes` or fails its checksum: torn.
fn first_frame(bytes: &[u8]) -> Option<&[u8]> {
    let header = bytes.get(..FRAME_HEADER)?;
    let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
    let crc = u32::from_le_bytes(header[4..].try_into().expect("4 bytes"));
    let payload = bytes.get(FRAME_HEADER..FRAME_HEADER.checked_add(len)?)?;
    (crc32(payload) == crc).then_some(payload)
}

/// Where each intact frame at the start of `bytes` ends, up to the first
/// torn one: the record boundaries [`replay`] reads.
pub fn frame_ends(bytes: &[u8]) -> Vec<usize> {
    let next = |&end: &usize| first_frame(&bytes[end..]).map(|p| end + FRAME_HEADER + p.len());
    std::iter::successors(Some(0), next).skip(1).collect()
}

/// Outcome of scanning a log on recovery.
#[derive(Debug)]
pub struct Replay {
    /// Payloads of every intact record, in append order.
    pub payloads: Vec<Vec<u8>>,
    /// Bytes dropped from the torn tail (0 for a clean log).
    pub truncated: u64,
}

/// Scans the log named `name`, truncating any torn tail in place, and
/// returns the intact record payloads in append order.
pub fn replay(storage: &dyn Storage, name: &str) -> Result<Replay> {
    let mut payloads = Vec::new();
    let (_, truncated) = replay_decoded(storage, name, |payload| {
        payloads.push(payload.to_vec());
        Ok(())
    })?;
    Ok(Replay { payloads, truncated })
}

/// Like [`replay`] but hands each intact payload to `f` as it is found,
/// straight from the file's bytes, so the caller folds records into its
/// own state without a vector of them in between. Fails fast on a
/// CRC-valid record `f` rejects (version skew, not a torn tail). Returns
/// how many records `f` took and how many bytes the torn tail lost.
pub fn replay_decoded(
    storage: &dyn Storage,
    name: &str,
    mut f: impl FnMut(&[u8]) -> Result<()>,
) -> Result<(u64, u64)> {
    let bytes = storage.read(name)?;
    let ends = frame_ends(&bytes);
    let mut off = 0;
    for (records, &end) in ends.iter().enumerate() {
        f(&bytes[off + FRAME_HEADER..end]).map_err(|e| {
            ObiError::Storage(format!("record {records} of `{name}` is undecodable: {e}"))
        })?;
        off = end;
    }
    let truncated = (bytes.len() - off) as u64;
    if truncated > 0 {
        storage.truncate(name, off as u64)?;
    }
    Ok((ends.len() as u64, truncated))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;

    fn wal_over(mem: &Arc<MemStorage>, group: usize) -> Wal {
        Wal::new(
            mem.clone() as Arc<dyn Storage>,
            "wal",
            WalOptions { group_commit: group },
        )
    }

    #[test]
    fn append_then_replay_roundtrips_in_order() {
        let mem = Arc::new(MemStorage::new());
        let wal = wal_over(&mem, 4);
        for i in 0..10u8 {
            wal.append(&[i; 3]).unwrap();
        }
        wal.commit().unwrap();
        let replay = replay(mem.as_ref(), "wal").unwrap();
        assert_eq!(replay.truncated, 0);
        assert_eq!(replay.payloads.len(), 10);
        for (i, p) in replay.payloads.iter().enumerate() {
            assert_eq!(p, &vec![i as u8; 3]);
        }
    }

    #[test]
    fn group_commit_batches_syncs() {
        let mem = Arc::new(MemStorage::new());
        let wal = wal_over(&mem, 8);
        for _ in 0..16 {
            wal.append(b"r").unwrap();
        }
        // 16 appends at group size 8 => exactly 2 syncs.
        assert_eq!(wal.stats().syncs(), 2);
        assert_eq!(wal.stats().appends(), 16);
        wal.append(b"r").unwrap();
        assert_eq!(wal.stats().syncs(), 2, "partial group must not sync");
        wal.commit().unwrap();
        assert_eq!(wal.stats().syncs(), 3);
        wal.commit().unwrap();
        assert_eq!(wal.stats().syncs(), 3, "commit with clean tail is a no-op");
    }

    fn frames_of(payloads: &[&[u8]]) -> Frames {
        let mut frames = Frames::new();
        for payload in payloads {
            frames.push(payload);
        }
        frames
    }

    #[test]
    fn a_batch_is_one_write_and_one_sync_whatever_the_group_size() {
        let mem = Arc::new(MemStorage::new());
        let wal = wal_over(&mem, 8);
        // Two records already buffered: the batch's sync covers them too.
        wal.append(b"a").unwrap();
        wal.append(b"b").unwrap();
        let payloads: Vec<Vec<u8>> = (0..64u8).map(|i| vec![i; 5]).collect();
        let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
        wal.append_batch(&frames_of(&refs)).unwrap();
        assert_eq!(wal.stats().syncs(), 1, "64 records through `append` would be 8 syncs");
        assert_eq!(mem.sync_count(), 1);
        assert_eq!(wal.stats().appends(), 66);
        assert_eq!(wal.stats().bytes(), wal.len().unwrap());
        assert_eq!(mem.synced_len("wal"), wal.len().unwrap(), "nothing left unsynced");
        // The group-commit count starts over after the batch.
        for _ in 0..7 {
            wal.append(b"r").unwrap();
        }
        assert_eq!(wal.stats().syncs(), 1);
        wal.append(b"r").unwrap();
        assert_eq!(wal.stats().syncs(), 2);
        let replay = replay(mem.as_ref(), "wal").unwrap();
        assert_eq!(replay.payloads.len(), 74);
        assert_eq!(replay.payloads[2..66], payloads[..]);
        // An empty batch has nothing to make durable.
        wal.append_batch(&Frames::new()).unwrap();
        assert_eq!((wal.stats().syncs(), wal.stats().appends()), (2, 74));
    }

    #[test]
    fn a_deferred_append_waits_for_the_next_sync_of_any_kind() {
        let mem = Arc::new(MemStorage::new());
        let wal = wal_over(&mem, 2);
        // Never a sync of its own, however far past the group size.
        let mut at = 0;
        for i in 0..5u64 {
            at = wal.append_deferred(&frames_of(&[b"confirm"])).unwrap();
            assert_eq!(at, i + 1, "the position counts records");
        }
        assert_eq!((wal.stats().syncs(), mem.synced_len("wal")), (0, 0));
        assert!(wal.durable_position() < at);
        // Yet each counts as unsynced: the next ordinary append finds the
        // group full and its sync covers all six.
        wal.append(b"delta").unwrap();
        assert_eq!(wal.stats().syncs(), 1);
        assert_eq!(mem.synced_len("wal"), wal.len().unwrap());
        assert_eq!(wal.durable_position(), at + 1);
        // A batch's sync covers the deferred records before it...
        let at = wal.append_deferred(&frames_of(&[b"confirm"])).unwrap();
        let synced = mem.synced_len("wal");
        wal.append_batch(&frames_of(&[b"intent", b"intent"])).unwrap();
        assert_eq!(wal.durable_position(), at + 2);
        assert!(mem.synced_len("wal") > synced);
        // ... and so does a commit, which is not a no-op while one waits.
        let at = wal.append_deferred(&frames_of(&[b"state"])).unwrap();
        assert!(wal.durable_position() < at);
        wal.commit().unwrap();
        assert_eq!(wal.durable_position(), at);
        assert_eq!(mem.synced_len("wal"), wal.len().unwrap());
        assert_eq!(wal.stats().syncs(), 3);
        // A rewrite leaves nothing to lose either: one write, durable as
        // it lands, folding the deferred record.
        let at = wal.append_deferred(&frames_of(&[b"confirm"])).unwrap();
        let writes = mem.history("wal").len();
        wal.rewrite(&frames_of(&[b"folded"])).unwrap();
        assert_eq!(mem.history("wal").len(), writes + 1, "one write");
        assert_eq!(mem.synced_len("wal"), wal.len().unwrap());
        assert_eq!(wal.durable_position(), at);
        assert_eq!(wal.stats().syncs(), 3);
    }

    #[test]
    fn a_torn_batch_recovers_a_record_prefix_of_it() {
        let mem = Arc::new(MemStorage::new());
        let wal = wal_over(&mem, 8);
        wal.append(b"before").unwrap();
        let base = wal.len().unwrap();
        let payloads: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; (i as usize + 1) * 3]).collect();
        let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
        wal.append_batch(&frames_of(&refs)).unwrap();
        let original = mem.read("wal").unwrap();
        let mut boundary = base;
        let boundaries: Vec<u64> = payloads
            .iter()
            .map(|p| {
                boundary += (FRAME_HEADER + p.len()) as u64;
                boundary
            })
            .collect();
        for keep in base..=original.len() as u64 {
            mem.replace("wal", &original).unwrap();
            mem.crash_keeping("wal", keep);
            let replay = replay(mem.as_ref(), "wal").unwrap();
            let whole = boundaries.iter().filter(|&&b| b <= keep).count();
            assert_eq!(replay.payloads.len(), 1 + whole, "keep={keep}");
            assert_eq!(replay.payloads[1..], payloads[..whole], "keep={keep}");
        }
    }

    #[test]
    fn frames_encoded_in_place_equal_frames_of_the_same_payloads() {
        let mut in_place = Frames::new();
        in_place.push_with(|enc| enc.put_str("first"));
        in_place.push_with(|_| {});
        in_place.push_with(|enc| enc.put_varint(300));
        assert_eq!(in_place.records(), 3);
        let copied = frames_of(&[b"\x05first", b"", &[0xAC, 0x02]]);
        assert_eq!(in_place.as_bytes(), copied.as_bytes());
    }

    #[test]
    fn every_crash_offset_recovers_a_record_prefix() {
        let mem = Arc::new(MemStorage::new());
        let wal = wal_over(&mem, 1);
        let mut boundaries = vec![0u64]; // byte offset after each record
        for i in 0..6u8 {
            wal.append(&vec![i; (i as usize + 1) * 7]).unwrap();
            boundaries.push(wal.len().unwrap());
        }
        let total = *boundaries.last().unwrap();
        let original = mem.read("wal").unwrap();
        for keep in 0..=total {
            // Restore the full log, then crash at this offset.
            mem.replace("wal", &original).unwrap();
            mem.crash_keeping("wal", keep);
            let replay = replay(mem.as_ref(), "wal").unwrap();
            // Exactly the records wholly inside `keep` bytes survive.
            let expect = boundaries.iter().filter(|&&b| b > 0 && b <= keep).count();
            assert_eq!(replay.payloads.len(), expect, "keep={keep}");
            let good_end = boundaries[expect];
            assert_eq!(replay.truncated, keep - good_end, "keep={keep}");
            assert_eq!(mem.len("wal").unwrap(), good_end, "tail not truncated");
            for (i, p) in replay.payloads.iter().enumerate() {
                assert_eq!(p, &vec![i as u8; (i + 1) * 7]);
            }
        }
    }

    #[test]
    fn bit_flip_in_payload_drops_from_that_record() {
        let mem = Arc::new(MemStorage::new());
        let wal = wal_over(&mem, 1);
        for i in 0..4u8 {
            wal.append(&[i; 9]).unwrap();
        }
        let mut bytes = mem.read("wal").unwrap();
        // Flip one payload bit inside record 2.
        let record = FRAME_HEADER + 9;
        bytes[2 * record + FRAME_HEADER + 4] ^= 0x10;
        mem.replace("wal", &bytes).unwrap();
        let replay = replay(mem.as_ref(), "wal").unwrap();
        assert_eq!(replay.payloads.len(), 2, "records 0 and 1 survive");
        assert!(replay.truncated > 0);
    }

    #[test]
    fn a_rewrite_replaces_the_log_in_one_durable_write() {
        let mem = Arc::new(MemStorage::new());
        let wal = wal_over(&mem, 2);
        for payload in [b"abc", b"def", b"ghi"] {
            wal.append(payload).unwrap();
        }
        assert!(mem.synced_len("wal") < wal.len().unwrap(), "one record unsynced");
        let writes = mem.history("wal").len();
        let folded = frames_of(&[b"folded"]);
        wal.rewrite(&folded).unwrap();
        let history = mem.history("wal");
        assert_eq!(history.len(), writes + 1, "one write");
        assert_eq!(history.last().unwrap(), folded.as_bytes());
        assert_eq!(mem.synced_len("wal"), wal.len().unwrap());
        assert_eq!(wal.durable_position(), 3);
        assert_eq!(wal.stats().appends(), 3, "a rewrite is not an append");
        // Appends after it extend the rewritten log.
        wal.append(b"xyz").unwrap();
        wal.commit().unwrap();
        let payloads = replay(mem.as_ref(), "wal").unwrap().payloads;
        assert_eq!(payloads, vec![b"folded".to_vec(), b"xyz".to_vec()]);
        // Rewritten with nothing, the log is empty.
        wal.rewrite(&Frames::new()).unwrap();
        assert!(wal.is_empty().unwrap());
    }

    #[test]
    fn storage_failure_surfaces_as_storage_error() {
        let mem = Arc::new(MemStorage::new());
        let wal = wal_over(&mem, 1);
        mem.fail_after(0);
        let err = wal.append(b"doomed").unwrap_err();
        assert!(matches!(err, ObiError::Storage(_)), "{err}");
        let err = wal.append_batch(&frames_of(&[b"doomed", b"too"])).unwrap_err();
        assert!(matches!(err, ObiError::Storage(_)), "{err}");
        // A batch that is written but cannot be synced is not durable, and
        // says so.
        mem.heal();
        mem.fail_after(1);
        let err = wal.append_batch(&frames_of(&[b"written"])).unwrap_err();
        assert!(matches!(err, ObiError::Storage(_)), "{err}");
        assert_eq!(wal.stats().syncs(), 0);
    }
}
