//! What every workload shares: its inputs, what a measured phase yields,
//! and the interface the runner drives.

use crate::hist::Hist;
use crate::trace::{Folded, FrameTap, Tracer};
use obiwan_util::MetricsSnapshot;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

/// A failed correctness check; fatal to the run.
pub type Check<T> = std::result::Result<T, String>;

#[derive(Debug, Clone)]
pub struct Cfg {
    /// Drives list order, object choice, op-type shuffle and payload bytes.
    pub seed: u64,
    /// Sizes the measured phase: op counts are a fixed rate times this, so
    /// the same value gives the same work on every commit.
    pub seconds: f64,
    /// A directory of the run's own for the offline workload's files.
    pub tmp: PathBuf,
}

/// A tracer handed to a workload's set-up, with the tap that keeps frames.
pub type Tracing = Option<(Arc<Tracer>, FrameTap)>;

/// WAL counters of offline rounds (both process lives of each).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalCounts {
    pub appends: u64,
    pub syncs: u64,
    pub bytes: u64,
}

/// Everything one measured phase produced.
#[derive(Default)]
pub struct Measured {
    pub attempted: u64,
    pub failed: u64,
    /// Unit operations completed inside timed windows.
    pub ops: u64,
    /// Wall-clock nanoseconds of the timed windows, as they read, and
    /// scaled window by window to the reference host speed (see `cal`).
    /// Every latency below is scaled the same way.
    pub raw_ns: u64,
    pub timed_ns: u64,
    /// The three latency slots of the end-to-end metrics.
    pub lmi: Hist,
    pub remote: Hist,
    pub second: Hist,
    /// Further timings, printed for information.
    pub info: BTreeMap<&'static str, Hist>,
    /// Transport bytes over the timed windows and what to divide them by.
    pub wire_bytes: u64,
    pub wire_units: u64,
    /// Bytes of application payload the transport carried in those windows.
    pub payload_bytes: u64,
    /// Objects the transport carried, in either direction.
    pub objects_moved: u64,
    /// Demand operations the harness issued (gets, faults, refreshes).
    pub demand_ops: u64,
    /// Consumer-side platform counters over the phase.
    pub counters: MetricsSnapshot,
    /// Offline workload only.
    pub rounds: u64,
    pub wal: WalCounts,
    /// Bytes of the objects the offline work changed, and bytes handed to
    /// the storage (WAL and snapshots) to keep them, over the phase.
    pub user_bytes: u64,
    pub stored_bytes: u64,
    pub reintegrated: u64,
    pub reintegrate_ns: u64,
    /// Leaf harness calls of a traced phase, by span name.
    pub folded: BTreeMap<&'static str, Folded>,
}

impl Measured {
    pub fn record_info(&mut self, name: &'static str, nanos: u64) {
        self.info.entry(name).or_default().record(nanos);
    }

    /// Adds the platform counters the reports read.
    pub fn add_counters(&mut self, c: &MetricsSnapshot) {
        self.counters.demand_round_trips += c.demand_round_trips;
        self.counters.rpc_retries += c.rpc_retries;
        self.counters.cached_replies += c.cached_replies;
        self.counters.stream_resumes += c.stream_resumes;
    }

    /// Adds everything `other` measured to this.
    pub fn merge(&mut self, other: Measured) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.ops += other.ops;
        self.raw_ns += other.raw_ns;
        self.timed_ns += other.timed_ns;
        self.lmi.merge(&other.lmi);
        self.remote.merge(&other.remote);
        self.second.merge(&other.second);
        for (name, h) in &other.info {
            self.info.entry(name).or_default().merge(h);
        }
        self.wire_bytes += other.wire_bytes;
        self.wire_units += other.wire_units;
        self.payload_bytes += other.payload_bytes;
        self.objects_moved += other.objects_moved;
        self.demand_ops += other.demand_ops;
        self.add_counters(&other.counters);
        self.rounds += other.rounds;
        self.wal.appends += other.wal.appends;
        self.wal.syncs += other.wal.syncs;
        self.wal.bytes += other.wal.bytes;
        self.user_bytes += other.user_bytes;
        self.stored_bytes += other.stored_bytes;
        self.reintegrated += other.reintegrated;
        self.reintegrate_ns += other.reintegrate_ns;
        self.merge_folded(other.folded);
    }

    pub fn merge_folded(&mut self, folded: BTreeMap<&'static str, Folded>) {
        for (name, f) in folded {
            let slot = self.folded.entry(name).or_default();
            slot.count += f.count;
            slot.total_ns += f.total_ns;
        }
    }
}

/// Names one workload's three latency slots the way its own operations are
/// called, for the human-readable report.
pub struct Slots {
    pub ops: &'static str,
    pub lmi: &'static str,
    pub remote: &'static str,
    pub second: &'static str,
    pub wire_unit: &'static str,
}

pub trait Workload: Sized {
    const NAME: &'static str;
    const CLIENTS: u32;
    /// Equal slices the measured phase runs as; a timing is the median of
    /// its values on them.
    const SLICES: u64;
    const SLOTS: Slots;

    /// Builds the world, creates and replicates the objects and warms up.
    fn setup(cfg: &Cfg, tracing: Tracing) -> Check<Self>;

    /// Measured units (walks, op blocks, rounds) for `cfg.seconds`.
    fn units(cfg: &Cfg) -> u64;

    /// Runs `units` measured units.
    fn measure(&mut self, units: u64) -> Check<Measured>;

    /// Checks the final state against everything that was issued.
    fn verify(&mut self) -> Check<()>;
}

/// `rate × seconds`, at least `min`, rounded up to a multiple of `multiple`.
pub fn scaled(rate: f64, seconds: f64, min: u64, multiple: u64) -> u64 {
    let n = ((rate * seconds).round() as u64).max(min);
    n.div_ceil(multiple) * multiple
}
