//! Pluggable byte-level storage for the durability layer.
//!
//! The WAL never touches the filesystem directly; it goes through the
//! [`Storage`] trait. Two backends ship with the crate:
//!
//! * [`FileStorage`] — real files under a directory, with `fsync` mapped to
//!   [`std::fs::File::sync_data`] and replacement done as
//!   write-temp-then-rename so a crash never leaves a half-written file.
//! * [`MemStorage`] — an in-memory map, the one fault model of the crash
//!   tests. [`MemStorage::crash_keeping`] truncates a file to any byte
//!   offset (all written bytes: a SIGKILL; [`MemStorage::synced_len`]: a
//!   power loss), [`MemStorage::kill_at`] kills the writer as a file
//!   reaches a length, [`MemStorage::history`] replays every state the
//!   files passed through, and after an operation budget
//!   ([`MemStorage::fail_after`]) every write returns [`ObiError::Storage`].
//!
//! Files are flat, named blobs — there is no directory structure. The
//! durability layer uses one name per site: `"wal"`.

use obiwan_util::sync::Mutex;
use obiwan_util::{ObiError, Result};
use std::collections::BTreeMap;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;

/// Byte-level operations the durability layer needs from a backend.
///
/// All methods are `&self`: backends are internally synchronized so one
/// storage instance can be shared by the WAL writer and a compaction pass.
pub trait Storage: Send + Sync {
    /// Full contents of `name`; an empty vector if the file does not exist.
    fn read(&self, name: &str) -> Result<Vec<u8>>;

    /// Current length of `name` in bytes (0 if absent).
    fn len(&self, name: &str) -> Result<u64>;

    /// Appends `bytes` at the end of `name`, creating it if absent. The
    /// bytes are *not* durable until [`Storage::sync`] returns.
    fn append(&self, name: &str, bytes: &[u8]) -> Result<()>;

    /// Forces previously appended bytes of `name` to stable storage.
    fn sync(&self, name: &str) -> Result<()>;

    /// Truncates `name` to `len` bytes (used to drop a torn WAL tail).
    fn truncate(&self, name: &str, len: u64) -> Result<()>;

    /// Atomically replaces the contents of `name` with `bytes` and makes
    /// the replacement durable. A crash during `replace` leaves either the
    /// old contents or the new contents, never a mixture.
    fn replace(&self, name: &str, bytes: &[u8]) -> Result<()>;
}

// ---------------------------------------------------------------------------
// In-memory backend with fault injection
// ---------------------------------------------------------------------------

#[derive(Default)]
struct MemFile {
    data: Vec<u8>,
    /// Prefix length guaranteed durable (advanced by `sync`/`replace`).
    synced: usize,
}

#[derive(Default)]
struct MemInner {
    files: BTreeMap<String, MemFile>,
    /// `Some(n)`: the next `n` mutating operations succeed, after which
    /// every mutating operation fails with `ObiError::Storage`.
    budget: Option<u64>,
    syncs: u64,
    /// Every write: the file, the length it was cut to and the bytes then
    /// appended.
    record: Vec<(String, usize, Vec<u8>)>,
    /// The file length whose append kills its caller, when armed.
    kill_at: Option<usize>,
}

/// In-memory [`Storage`] with crash and write-failure injection.
#[derive(Default)]
pub struct MemStorage {
    inner: Mutex<MemInner>,
}

/// What the caller of an append unwinds with when a [`MemStorage`] kills
/// it (see [`MemStorage::kill_at`]).
#[derive(Debug)]
pub struct Killed;

impl MemStorage {
    pub fn new() -> Self {
        Self::default()
    }

    /// Simulates a SIGKILL/power-loss: the surviving contents of `name`
    /// become exactly its first `keep` bytes (clamped to the current
    /// length), regardless of sync state. Sweeping `keep` over every offset
    /// exercises recovery against every possible torn tail.
    pub fn crash_keeping(&self, name: &str, keep: u64) {
        let mut inner = self.inner.lock();
        let f = inner.rewrite(name, keep as usize, &[]);
        f.synced = f.data.len();
    }

    /// Arms one kill: the next append that takes a file (the durability
    /// layer appends only to its WAL) to `limit` bytes is cut there, and its
    /// caller unwinds with [`Killed`] (no panic hook runs), so nothing it
    /// would have done next happens.
    pub fn kill_at(&self, limit: u64) {
        self.inner.lock().kill_at = Some(limit as usize);
    }

    /// The contents of `name` after each write to any file, in order, from
    /// a record that holds each written byte once. A sync writes nothing.
    pub fn history(&self, name: &str) -> Vec<Vec<u8>> {
        let mut data = Vec::new();
        let inner = self.inner.lock();
        let history = inner.record.iter().map(|(file, keep, tail)| {
            if file == name {
                data.truncate(*keep);
                data.extend_from_slice(tail);
            }
            data.clone()
        });
        history.collect()
    }

    /// After `ops` more successful mutating operations, every subsequent
    /// mutating operation returns [`ObiError::Storage`].
    pub fn fail_after(&self, ops: u64) {
        self.inner.lock().budget = Some(ops);
    }

    /// Removes a previously armed failure budget.
    pub fn heal(&self) {
        self.inner.lock().budget = None;
    }

    /// Number of bytes of `name` that have been made durable by `sync`.
    /// Tests use this to assert group commit batches fsyncs.
    pub fn synced_len(&self, name: &str) -> u64 {
        self.inner
            .lock()
            .files
            .get(name)
            .map_or(0, |f| f.synced as u64)
    }

    /// Total number of `sync` calls served (fsync count for bench/tests).
    pub fn sync_count(&self) -> u64 {
        self.inner.lock().syncs
    }
}

impl MemInner {
    fn charge(&mut self) -> Result<()> {
        match &mut self.budget {
            None => Ok(()),
            Some(0) => Err(ObiError::Storage("injected write failure".into())),
            Some(n) => {
                *n -= 1;
                Ok(())
            }
        }
    }

    /// Cuts `name` to `keep` bytes and appends `tail`: every write is one
    /// of these, and the record keeps it.
    fn rewrite(&mut self, name: &str, keep: usize, tail: &[u8]) -> &mut MemFile {
        self.record.push((name.to_string(), keep, tail.to_vec()));
        let f = self.files.entry(name.to_string()).or_default();
        f.data.truncate(keep);
        f.data.extend_from_slice(tail);
        f.synced = f.synced.min(f.data.len());
        f
    }
}

impl Storage for MemStorage {
    fn read(&self, name: &str) -> Result<Vec<u8>> {
        Ok(self
            .inner
            .lock()
            .files
            .get(name)
            .map_or_else(Vec::new, |f| f.data.clone()))
    }

    fn len(&self, name: &str) -> Result<u64> {
        Ok(self
            .inner
            .lock()
            .files
            .get(name)
            .map_or(0, |f| f.data.len() as u64))
    }

    fn append(&self, name: &str, bytes: &[u8]) -> Result<()> {
        let mut inner = self.inner.lock();
        inner.charge()?;
        let len = inner.files.get(name).map_or(0, |f| f.data.len());
        let kill = inner.kill_at.take_if(|limit| *limit <= len + bytes.len());
        let cut = kill.map_or(bytes.len(), |limit| limit.saturating_sub(len));
        inner.rewrite(name, len, &bytes[..cut]);
        if kill.is_some() {
            drop(inner);
            std::panic::resume_unwind(Box::new(Killed));
        }
        Ok(())
    }

    fn sync(&self, name: &str) -> Result<()> {
        let mut inner = self.inner.lock();
        inner.charge()?;
        inner.syncs += 1;
        if let Some(f) = inner.files.get_mut(name) {
            f.synced = f.data.len();
        }
        Ok(())
    }

    fn truncate(&self, name: &str, len: u64) -> Result<()> {
        let mut inner = self.inner.lock();
        inner.charge()?;
        inner.rewrite(name, len as usize, &[]);
        Ok(())
    }

    fn replace(&self, name: &str, bytes: &[u8]) -> Result<()> {
        let mut inner = self.inner.lock();
        inner.charge()?;
        inner.syncs += 1;
        let f = inner.rewrite(name, 0, bytes);
        f.synced = f.data.len();
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Filesystem backend
// ---------------------------------------------------------------------------

/// [`Storage`] over real files under a root directory.
///
/// One append handle per name is cached so group commit pays one `write` +
/// one `sync_data` per batch, not an open/close per record.
pub struct FileStorage {
    root: PathBuf,
    handles: Mutex<BTreeMap<String, std::fs::File>>,
}

fn io_err(op: &str, e: std::io::Error) -> ObiError {
    ObiError::Storage(format!("{op}: {e}"))
}

impl FileStorage {
    /// Opens (and creates if needed) the directory the blobs live under.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root).map_err(|e| io_err("create storage dir", e))?;
        Ok(FileStorage {
            root,
            handles: Mutex::new(BTreeMap::new()),
        })
    }

    fn with_handle<T>(
        &self,
        name: &str,
        f: impl FnOnce(&mut std::fs::File) -> std::io::Result<T>,
    ) -> Result<T> {
        let mut handles = self.handles.lock();
        if !handles.contains_key(name) {
            let file = std::fs::OpenOptions::new()
                .read(true)
                .append(true)
                .create(true)
                .open(self.root.join(name))
                .map_err(|e| io_err("open", e))?;
            handles.insert(name.to_string(), file);
        }
        f(handles.get_mut(name).expect("just inserted")).map_err(|e| io_err(name, e))
    }
}

impl Storage for FileStorage {
    fn read(&self, name: &str) -> Result<Vec<u8>> {
        self.with_handle(name, |f| {
            let mut buf = Vec::new();
            f.seek(SeekFrom::Start(0))?;
            f.read_to_end(&mut buf)?;
            Ok(buf)
        })
    }

    fn len(&self, name: &str) -> Result<u64> {
        // By path: asking about an absent file must not create it.
        match std::fs::metadata(self.root.join(name)) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(0),
            meta => meta.map(|m| m.len()).map_err(|e| io_err(name, e)),
        }
    }

    fn append(&self, name: &str, bytes: &[u8]) -> Result<()> {
        // The handle is opened with O_APPEND, so every write lands at the
        // current end of file even after a truncate.
        self.with_handle(name, |f| f.write_all(bytes))
    }

    fn sync(&self, name: &str) -> Result<()> {
        self.with_handle(name, |f| f.sync_data())
    }

    fn truncate(&self, name: &str, len: u64) -> Result<()> {
        self.with_handle(name, |f| {
            f.set_len(len)?;
            f.sync_data()
        })
    }

    fn replace(&self, name: &str, bytes: &[u8]) -> Result<()> {
        let tmp = self.root.join(format!("{name}.tmp"));
        let path = self.root.join(name);
        {
            let mut f = std::fs::File::create(&tmp).map_err(|e| io_err("create tmp", e))?;
            f.write_all(bytes).map_err(|e| io_err("write tmp", e))?;
            f.sync_data().map_err(|e| io_err("sync tmp", e))?;
        }
        // Drop any cached handle: it points at the old inode.
        self.handles.lock().remove(name);
        std::fs::rename(&tmp, &path).map_err(|e| io_err("rename", e))?;
        // Durability of the rename itself needs the directory fsynced —
        // compaction counts everything the WAL held as durable as soon as
        // replace() returns Ok, so a swallowed failure here could lose it.
        let dir = std::fs::File::open(&self.root).map_err(|e| io_err("open dir", e))?;
        dir.sync_data().map_err(|e| io_err("sync dir", e))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_append_read_roundtrip() {
        let s = MemStorage::new();
        s.append("wal", b"hello ").unwrap();
        s.append("wal", b"world").unwrap();
        assert_eq!(s.read("wal").unwrap(), b"hello world");
        assert_eq!(s.len("wal").unwrap(), 11);
        assert_eq!(s.read("missing").unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn mem_sync_tracks_durable_prefix() {
        let s = MemStorage::new();
        s.append("wal", b"aaaa").unwrap();
        assert_eq!(s.synced_len("wal"), 0);
        s.sync("wal").unwrap();
        assert_eq!(s.synced_len("wal"), 4);
        s.append("wal", b"bb").unwrap();
        assert_eq!(s.synced_len("wal"), 4);
    }

    #[test]
    fn mem_crash_truncates_to_offset() {
        let s = MemStorage::new();
        s.append("wal", b"0123456789").unwrap();
        s.crash_keeping("wal", 4);
        assert_eq!(s.read("wal").unwrap(), b"0123");
        // Clamped, never extends.
        s.crash_keeping("wal", 400);
        assert_eq!(s.read("wal").unwrap(), b"0123");
    }

    #[test]
    fn mem_fault_budget_fails_writes_then_heals() {
        let s = MemStorage::new();
        s.fail_after(1);
        s.append("wal", b"ok").unwrap();
        let err = s.append("wal", b"no").unwrap_err();
        assert!(matches!(err, ObiError::Storage(_)), "{err}");
        assert!(s.sync("wal").is_err());
        s.heal();
        s.append("wal", b"yes").unwrap();
        assert_eq!(s.read("wal").unwrap(), b"okyes");
    }

    #[test]
    fn mem_replace_is_atomic_and_durable() {
        let s = MemStorage::new();
        s.append("snap", b"old").unwrap();
        s.replace("snap", b"new-snapshot").unwrap();
        assert_eq!(s.read("snap").unwrap(), b"new-snapshot");
        assert_eq!(s.synced_len("snap"), 12);
    }

    #[test]
    fn the_history_replays_every_state_both_files_passed_through() {
        let s = MemStorage::new();
        s.append("wal", b"ab").unwrap();
        s.append("wal", b"cd").unwrap();
        s.sync("wal").unwrap();
        // A write to another file is a state of this one too.
        s.replace("snap", b"abcd").unwrap();
        s.truncate("wal", 0).unwrap();
        s.append("wal", b"e").unwrap();
        s.crash_keeping("wal", 0);
        let bytes = |states: [&str; 6]| states.map(|state| state.as_bytes().to_vec());
        assert_eq!(
            s.history("snap"),
            bytes(["", "", "abcd", "abcd", "abcd", "abcd"])
        );
        assert_eq!(s.history("wal"), bytes(["ab", "abcd", "abcd", "", "e", ""]));
    }

    #[test]
    fn an_armed_kill_cuts_the_crossing_append_at_the_limit_and_unwinds_with_killed() {
        let s = MemStorage::new();
        let append = |bytes: &[u8]| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.append("wal", bytes)))
        };
        s.append("wal", b"0123").unwrap();
        s.kill_at(6);
        assert!(append(b"4567").unwrap_err().is::<Killed>());
        assert_eq!(s.read("wal").unwrap(), b"012345");
        // The kill fired once: a restarted writer appends through.
        append(b"67").unwrap().unwrap();
        // A limit the file already reached kills the next append whole.
        s.kill_at(2);
        assert!(append(b"89").unwrap_err().is::<Killed>());
        assert_eq!(s.read("wal").unwrap(), b"01234567");
    }

    #[test]
    fn a_kill_armed_past_every_write_changes_nothing() {
        let (armed, plain) = (MemStorage::new(), MemStorage::new());
        armed.kill_at(100);
        for s in [&armed, &plain] {
            s.append("wal", b"0123456789").unwrap();
            s.sync("wal").unwrap();
            s.append("wal", b"abc").unwrap();
            s.truncate("wal", 12).unwrap();
        }
        assert_eq!(armed.history("wal"), plain.history("wal"));
        assert_eq!(armed.synced_len("wal"), plain.synced_len("wal"));
        assert_eq!(armed.sync_count(), plain.sync_count());
    }

    #[test]
    fn frame_ends_read_through_the_wal_framing_are_the_offsets_the_wal_wrote() {
        use crate::wal::{frame_ends, Frames, Wal, WalOptions};
        let s = std::sync::Arc::new(MemStorage::new());
        let wal = Wal::new(s.clone(), "wal", WalOptions::default());
        let mut expected = Vec::new();
        for payload in [&b"one"[..], b"", b"three"] {
            let mut frames = Frames::new();
            frames.push(payload);
            wal.append_frames(&frames).unwrap();
            expected.push(wal.len().unwrap() as usize);
        }
        let (base, mut batch) = (expected[2], Frames::new());
        for payload in [&b"four"[..], b"fifty"] {
            batch.push(payload);
            expected.push(base + batch.as_bytes().len());
        }
        wal.append_batch(&batch).unwrap();
        let bytes = s.read("wal").unwrap();
        assert_eq!(frame_ends(&bytes), expected);
        assert_eq!(bytes.len(), expected[4]);
        // A torn tail ends the walk at the last whole frame.
        assert_eq!(frame_ends(&bytes[..bytes.len() - 1]), expected[..4]);
    }

    #[test]
    fn file_storage_roundtrip_truncate_replace() {
        let dir = std::env::temp_dir().join(format!(
            "obiwan-store-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let s = FileStorage::open(&dir).unwrap();
        s.append("wal", b"abcdef").unwrap();
        s.sync("wal").unwrap();
        assert_eq!(s.read("wal").unwrap(), b"abcdef");
        s.truncate("wal", 3).unwrap();
        assert_eq!(s.read("wal").unwrap(), b"abc");
        s.append("wal", b"XYZ").unwrap();
        assert_eq!(s.read("wal").unwrap(), b"abcXYZ");
        s.replace("snap", b"snapshot-bytes").unwrap();
        assert_eq!(s.read("snap").unwrap(), b"snapshot-bytes");
        assert_eq!(s.len("snap").unwrap(), 14);
        // Replacing a file that has an append handle: later appends go to
        // the new file, as a fresh handle sees.
        s.replace("wal", b"folded").unwrap();
        s.append("wal", b"+tail").unwrap();
        s.sync("wal").unwrap();
        assert_eq!(s.read("wal").unwrap(), b"folded+tail");
        assert_eq!(FileStorage::open(&dir).unwrap().read("wal").unwrap(), b"folded+tail");
        // Asking for the length of an absent file does not create it.
        assert_eq!(s.len("absent").unwrap(), 0);
        assert!(!dir.join("absent").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
