//! Durable object store for OBIWAN sites.
//!
//! The paper's disconnected-operation story assumes the mobile site keeps
//! its dirty replicas and op log in memory; this crate makes them survive a
//! crash, in the spirit of log-structured persistent object stores (ROADMAP
//! item 3). Three layers:
//!
//! * [`storage`] — the byte-level [`Storage`] trait with a real
//!   [`FileStorage`] backend and a fault-injecting [`MemStorage`] for
//!   crash testing.
//! * [`wal`] — CRC-framed append-only log with group commit and torn-tail
//!   truncation on replay.
//! * [`record`] / [`durable`] — typed durability events and the
//!   [`Durable`] write-through wrapper `ObiProcess` and
//!   `DisconnectedSession` log through, plus [`RecoveredState`] handed
//!   back after a restart.
//!
//! See `DESIGN.md` §4e for the record format and the recovery invariants.

pub mod durable;
pub mod record;
pub mod storage;
pub mod wal;

pub use durable::{
    Durable, DurableOptions, PendingPut, RecoveredOp, RecoveredState, SEQ_EPOCH_SKIP, SNAP_FILE,
    WAL_FILE,
};
pub use record::{fingerprint, state_fingerprint, WalRecord};
pub use storage::{FileStorage, Killed, MemStorage, Storage};
pub use wal::{replay, Frames, Replay, Wal, WalOptions, WalStats};
