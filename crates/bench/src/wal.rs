//! WAL durability bench: append throughput vs group-commit batch size,
//! and recovery (snapshot + log replay) time vs log length.
//!
//! Both sweeps run against the in-memory [`MemStorage`] backend, so the
//! numbers measure the durability machinery itself — framing, CRC,
//! group-commit batching, replay decoding — not a particular disk. The
//! *sync counts* are deterministic (they follow from record count and
//! batch size and are what group commit exists to shrink); elapsed times
//! are real wall-clock and vary machine to machine, so compare ratios,
//! not absolutes.

use bytes::Bytes;
use obiwan_store::{Durable, DurableOptions, MemStorage, Wal, WalOptions};
use obiwan_util::{ObjId, SiteId};
use obiwan_wire::ReplicaState;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The site id objects in the recovery sweep claim as their master.
const PROVIDER: SiteId = SiteId::new(1);

/// Distinct dirty objects the recovery log cycles over: enough that the
/// recovered dirty map is a real map, few enough that replay time is
/// dominated by log length, which is the axis under test.
const RECOVERY_OBJECTS: u64 = 256;

/// Shape of one WAL-bench run.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Payload bytes per appended record.
    pub payload_bytes: usize,
    /// Records appended per group-commit point.
    pub append_records: usize,
    /// Group-commit batch sizes to sweep (1 = sync every append).
    pub group_commits: Vec<usize>,
    /// Log lengths (record counts) to sweep in the recovery bench.
    pub recovery_lens: Vec<usize>,
}

impl WalConfig {
    /// The full sweep.
    pub fn full() -> Self {
        WalConfig {
            payload_bytes: 64,
            append_records: 50_000,
            group_commits: vec![1, 4, 16, 64],
            recovery_lens: vec![1_000, 10_000, 50_000, 100_000],
        }
    }

    /// A reduced sweep for CI smoke runs: same shape, ~10x smaller.
    pub fn smoke() -> Self {
        WalConfig {
            payload_bytes: 64,
            append_records: 5_000,
            group_commits: vec![1, 8, 64],
            recovery_lens: vec![500, 2_000, 8_000],
        }
    }
}

/// One append-bench point: `records` appends at one group-commit size.
#[derive(Debug, Clone)]
pub struct AppendPoint {
    /// Appends buffered per sync.
    pub group_commit: usize,
    /// Records appended.
    pub records: u64,
    /// Bytes written, frame headers included.
    pub bytes: u64,
    /// Sync (fsync-equivalent) calls issued — deterministic:
    /// `ceil(records / group_commit)`.
    pub syncs: u64,
    /// Wall-clock time for the whole point.
    pub elapsed: Duration,
}

impl AppendPoint {
    /// Records appended per wall-clock second.
    pub fn records_per_sec(&self) -> f64 {
        self.records as f64 / self.elapsed.as_secs_f64().max(f64::MIN_POSITIVE)
    }

    /// Payload + framing megabytes per wall-clock second.
    pub fn mb_per_sec(&self) -> f64 {
        (self.bytes as f64 / 1e6) / self.elapsed.as_secs_f64().max(f64::MIN_POSITIVE)
    }
}

/// One recovery-bench point: a cold [`Durable::open`] over a log of
/// `records` object-delta records.
#[derive(Debug, Clone)]
pub struct RecoveryPoint {
    /// WAL records replayed.
    pub records: u64,
    /// WAL bytes on "disk" at open time.
    pub wal_bytes: u64,
    /// Dirty replicas in the recovered state (bounded by
    /// `RECOVERY_OBJECTS`: later deltas supersede earlier ones).
    pub dirty_objects: usize,
    /// Wall-clock time for the open (replay + mirror rebuild).
    pub elapsed: Duration,
}

impl RecoveryPoint {
    /// Records replayed per wall-clock second.
    pub fn records_per_sec(&self) -> f64 {
        self.records as f64 / self.elapsed.as_secs_f64().max(f64::MIN_POSITIVE)
    }
}

fn delta(i: u64, payload_bytes: usize) -> ReplicaState {
    ReplicaState {
        id: ObjId::new(PROVIDER, i % RECOVERY_OBJECTS),
        class: "bench.Payload".into(),
        version: i,
        state: Bytes::from(vec![(i % 251) as u8; payload_bytes]),
    }
}

/// Appends `cfg.append_records` fixed-size records once per group-commit
/// size, measuring throughput and the sync count the batching buys down.
pub fn append_bench(cfg: &WalConfig) -> Vec<AppendPoint> {
    assert!(!cfg.group_commits.is_empty(), "nothing to sweep");
    let payload = vec![0xA5u8; cfg.payload_bytes];
    cfg.group_commits
        .iter()
        .map(|&group_commit| {
            let storage = Arc::new(MemStorage::new());
            let wal = Wal::new(
                storage as Arc<_>,
                "wal",
                WalOptions { group_commit },
            );
            let started = Instant::now();
            for _ in 0..cfg.append_records {
                wal.append(&payload).expect("append");
            }
            wal.commit().expect("final sync");
            AppendPoint {
                group_commit,
                records: wal.stats().appends(),
                bytes: wal.stats().bytes(),
                syncs: wal.stats().syncs(),
                elapsed: started.elapsed(),
            }
        })
        .collect()
}

/// Builds a log of `len` object-delta records (auto-compaction disabled so
/// the tail actually grows), then measures a cold [`Durable::open`] over
/// it — the crash-recovery path.
pub fn recovery_bench(cfg: &WalConfig) -> Vec<RecoveryPoint> {
    assert!(!cfg.recovery_lens.is_empty(), "nothing to sweep");
    cfg.recovery_lens
        .iter()
        .map(|&len| {
            let storage = Arc::new(MemStorage::new());
            let wal_bytes;
            {
                let (d, recovered) = Durable::open(
                    storage.clone(),
                    DurableOptions {
                        group_commit: 64,
                        compact_every: 0,
                        checkpoint_every_rpcs: 0,
                    },
                )
                .expect("open fresh");
                assert!(recovered.is_empty(), "fresh storage recovered state");
                for i in 0..len as u64 {
                    d.log_dirty(PROVIDER, delta(i, cfg.payload_bytes))
                        .expect("log_dirty");
                }
                d.commit().expect("commit");
                wal_bytes = d.wal_len().expect("wal_len");
            }
            let started = Instant::now();
            let (_d, recovered) = Durable::open(
                storage,
                DurableOptions {
                    group_commit: 64,
                    compact_every: 0,
                    checkpoint_every_rpcs: 0,
                },
            )
            .expect("reopen");
            let elapsed = started.elapsed();
            RecoveryPoint {
                records: recovered.wal_records,
                wal_bytes,
                dirty_objects: recovered.dirty.len(),
                elapsed,
            }
        })
        .collect()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `BENCH_wal.json` contents (schema `obiwan-bench-wal/1`).
///
/// `clock` is `"real"`: absolute numbers vary by machine; the deterministic
/// columns are `syncs` and `bytes`, and the figure of interest is how
/// throughput scales with `group_commit` and recovery time with `records`.
pub fn bench_wal_json(cfg: &WalConfig) -> String {
    use std::fmt::Write as _;
    let appends = append_bench(cfg);
    let recoveries = recovery_bench(cfg);
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"obiwan-bench-wal/1\",\n");
    out.push_str("  \"clock\": \"real\",\n");
    let _ = writeln!(
        out,
        "  \"workload\": {{\"storage\": \"mem\", \"payload_bytes\": {}, \
         \"append_records\": {}, \"recovery_objects\": {}}},",
        cfg.payload_bytes, cfg.append_records, RECOVERY_OBJECTS,
    );
    out.push_str("  \"append\": [\n");
    for (i, p) in appends.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"group_commit\": {}, \"records\": {}, \"bytes\": {}, \"syncs\": {}, \
             \"elapsed_ms\": {:.1}, \"records_per_sec\": {:.1}, \"mb_per_sec\": {:.2}}}",
            p.group_commit,
            p.records,
            p.bytes,
            p.syncs,
            ms(p.elapsed),
            p.records_per_sec(),
            p.mb_per_sec(),
        );
        out.push_str(if i + 1 < appends.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    out.push_str("  \"recovery\": [\n");
    for (i, p) in recoveries.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"records\": {}, \"wal_bytes\": {}, \"dirty_objects\": {}, \
             \"recovery_ms\": {:.2}, \"records_per_sec\": {:.1}}}",
            p.records,
            p.wal_bytes,
            p.dirty_objects,
            ms(p.elapsed),
            p.records_per_sec(),
        );
        out.push_str(if i + 1 < recoveries.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Writes `BENCH_wal.json` into `dir`; returns the path written.
pub fn write_wal_file(
    dir: &std::path::Path,
    cfg: &WalConfig,
) -> std::io::Result<std::path::PathBuf> {
    let path = dir.join("BENCH_wal.json");
    std::fs::write(&path, bench_wal_json(cfg))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> WalConfig {
        WalConfig {
            payload_bytes: 16,
            append_records: 200,
            group_commits: vec![1, 8],
            recovery_lens: vec![50, 400],
        }
    }

    #[test]
    fn group_commit_divides_the_sync_count() {
        let points = append_bench(&tiny());
        assert_eq!(points.len(), 2);
        for p in &points {
            assert_eq!(p.records, 200);
            assert!(p.bytes > 200 * 16, "frame headers add to payload bytes");
            assert!(p.records_per_sec() > 0.0);
        }
        // Deterministic: ceil(200/1) and ceil(200/8) syncs.
        assert_eq!(points[0].syncs, 200);
        assert_eq!(points[1].syncs, 25);
    }

    #[test]
    fn recovery_replays_the_whole_log_and_supersedes_deltas() {
        let points = recovery_bench(&tiny());
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].records, 50);
        assert_eq!(points[1].records, 400);
        // 50 deltas over 256 ids: all distinct. 400 deltas: capped at 256.
        assert_eq!(points[0].dirty_objects, 50);
        assert_eq!(points[1].dirty_objects, RECOVERY_OBJECTS as usize);
        assert!(points[1].wal_bytes > points[0].wal_bytes);
    }

    #[test]
    fn emitted_json_is_structurally_sound() {
        let json = bench_wal_json(&tiny());
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("}\n"));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
        assert!(json.contains("\"schema\": \"obiwan-bench-wal/1\""));
        assert!(json.contains("\"append\""));
        assert!(json.contains("\"recovery\""));
    }

    #[test]
    fn write_wal_file_creates_the_file() {
        let dir = std::env::temp_dir().join("obiwan_bench_wal_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = write_wal_file(&dir, &tiny()).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"schema\""));
    }
}
