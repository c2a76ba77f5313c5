//! Virtual and hybrid clocks, and the calibrated cost model.
//!
//! OBIWAN's evaluation ran on a 10 Mb/s LAN of Pentium II/III machines. We
//! cannot reproduce those absolute numbers, so time is accounted through a
//! [`Clock`] that supports two modes:
//!
//! * [`ClockMode::VirtualOnly`] — fully deterministic. Network *and* CPU
//!   costs are charged from a [`CostModel`]; identical runs yield identical
//!   timings. Used by tests and by the figure-regeneration harness.
//! * [`ClockMode::Hybrid`] — CPU time is real wall-clock time, network time
//!   is charged virtually from the link model. Used over the real
//!   transports (`obiwan-perf`, the TCP and threaded-memory test stacks),
//!   where real serialization/dispatch cost matters.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a [`Clock`] combines real and virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClockMode {
    /// All costs are charged virtually; runs are deterministic.
    #[default]
    VirtualOnly,
    /// Real elapsed time plus virtually charged network time.
    Hybrid,
}

/// A monotonically increasing clock combining virtual charges with optional
/// real elapsed time.
///
/// The clock is cheaply cloneable (`Arc` inside) so every component of a
/// simulated world shares the same notion of time.
///
/// # Examples
///
/// ```
/// use obiwan_util::{Clock, ClockMode};
/// use std::time::Duration;
///
/// let clock = Clock::new(ClockMode::VirtualOnly);
/// clock.charge(Duration::from_micros(3));
/// assert_eq!(clock.elapsed(), Duration::from_micros(3));
/// ```
#[derive(Debug, Clone)]
pub struct Clock {
    inner: Arc<ClockInner>,
}

#[derive(Debug)]
struct ClockInner {
    mode: ClockMode,
    virtual_nanos: AtomicU64,
    start: Instant,
}

impl Default for Clock {
    fn default() -> Self {
        Clock::new(ClockMode::VirtualOnly)
    }
}

impl Clock {
    /// Creates a clock in the given mode, starting at zero.
    pub fn new(mode: ClockMode) -> Self {
        Clock {
            inner: Arc::new(ClockInner {
                mode,
                virtual_nanos: AtomicU64::new(0),
                start: Instant::now(),
            }),
        }
    }

    /// The mode this clock was created with.
    pub fn mode(&self) -> ClockMode {
        self.inner.mode
    }

    /// Charges `d` of virtual time (network transfer, modeled CPU cost).
    pub fn charge(&self, d: Duration) {
        self.charge_nanos(d.as_nanos() as u64);
    }

    /// Charges `nanos` nanoseconds of virtual time.
    pub fn charge_nanos(&self, nanos: u64) {
        self.inner.virtual_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Charges a modeled CPU cost. In [`ClockMode::Hybrid`] this is a no-op
    /// because real CPU time is already flowing; in
    /// [`ClockMode::VirtualOnly`] the cost is charged virtually.
    pub fn charge_cpu(&self, d: Duration) {
        if self.inner.mode == ClockMode::VirtualOnly {
            self.charge(d);
        }
    }

    /// Virtual nanoseconds charged so far.
    pub fn virtual_nanos(&self) -> u64 {
        self.inner.virtual_nanos.load(Ordering::Relaxed)
    }

    /// Total elapsed time: virtual charges plus (in hybrid mode) real time.
    pub fn elapsed(&self) -> Duration {
        let v = Duration::from_nanos(self.virtual_nanos());
        match self.inner.mode {
            ClockMode::VirtualOnly => v,
            ClockMode::Hybrid => v + self.inner.start.elapsed(),
        }
    }

    /// Resets the virtual component (and the real epoch) to zero.
    ///
    /// Only meaningful between experiment repetitions; outstanding clones
    /// observe the reset too since state is shared.
    pub fn reset(&self) {
        self.inner.virtual_nanos.store(0, Ordering::Relaxed);
    }
}

/// Calibrated per-operation CPU costs, used in [`ClockMode::VirtualOnly`].
///
/// The defaults are calibrated to the constants the paper reports for its
/// testbed (§4.1): a local method invocation costs 2 µs and a remote method
/// invocation on the 10 Mb/s LAN costs 2.8 ms round trip. Serialization and
/// proxy-creation costs are derived from the step heights visible in the
/// paper's Figures 5 and 6.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Cost of one local method invocation (paper: 2 µs).
    pub lmi: Duration,
    /// Fixed CPU cost of issuing/dispatching one remote call, *excluding*
    /// network latency and transfer (stub + skeleton work).
    pub rmi_dispatch: Duration,
    /// Per-byte serialization cost (marshalling object state).
    pub serialize_per_byte: Duration,
    /// Fixed per-object cost of creating a replica from wire state.
    pub replica_create: Duration,
    /// Cost of creating one proxy-in/proxy-out pair (allocation plus
    /// registration on both sites).
    pub proxy_pair_create: Duration,
    /// Fractional extra pair cost per object co-serialized in the same
    /// batch, modelling the superlinear behaviour of Java serialization's
    /// handle tracking on large object graphs (the effect behind the
    /// paper's observation that replicating 1000 objects per step "is not
    /// efficient because of the high cost of creation and transference of
    /// the corresponding replicas and proxy-out/proxy-in pairs", §4.2).
    pub pair_batch_penalty: f64,
    /// Cost of one reference swizzle (`update_member`).
    pub swizzle: Duration,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::paper_testbed()
    }
}

impl CostModel {
    /// The cost model calibrated to the paper's testbed (§4).
    pub fn paper_testbed() -> Self {
        CostModel {
            lmi: Duration::from_micros(2),
            rmi_dispatch: Duration::from_micros(700),
            serialize_per_byte: Duration::from_nanos(25),
            replica_create: Duration::from_micros(120),
            // Creating a proxy pair in the original meant exporting a fresh
            // java.rmi UnicastRemoteObject — a multi-millisecond affair on
            // the paper's JDK/testbed (consistent with the per-object step
            // heights of its Figure 5).
            proxy_pair_create: Duration::from_millis(2),
            pair_batch_penalty: 1.0 / 2000.0,
            swizzle: Duration::from_nanos(300),
        }
    }

    /// A zero-cost model: only network physics are charged. Useful in tests
    /// isolating protocol behaviour from the cost model.
    pub fn free() -> Self {
        CostModel {
            lmi: Duration::ZERO,
            rmi_dispatch: Duration::ZERO,
            serialize_per_byte: Duration::ZERO,
            replica_create: Duration::ZERO,
            proxy_pair_create: Duration::ZERO,
            pair_batch_penalty: 0.0,
            swizzle: Duration::ZERO,
        }
    }

    /// Total serialization cost for `bytes` bytes of object state.
    pub fn serialize(&self, bytes: usize) -> Duration {
        self.serialize_per_byte * bytes as u32
    }

    /// Cost of creating `pairs` proxy pairs as part of a batch that
    /// serialized `batch_objects` objects together. The per-pair cost grows
    /// mildly with batch size (see [`CostModel::pair_batch_penalty`]).
    pub fn proxy_pairs(&self, pairs: usize, batch_objects: usize) -> Duration {
        let base = self.proxy_pair_create * pairs as u32;
        base + base.mul_f64(batch_objects as f64 * self.pair_batch_penalty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_accumulates_charges() {
        let c = Clock::new(ClockMode::VirtualOnly);
        c.charge(Duration::from_micros(10));
        c.charge_nanos(500);
        assert_eq!(c.virtual_nanos(), 10_500);
        assert_eq!(c.elapsed(), Duration::from_nanos(10_500));
    }

    #[test]
    fn clones_share_state() {
        let c = Clock::new(ClockMode::VirtualOnly);
        let c2 = c.clone();
        c2.charge_nanos(42);
        assert_eq!(c.virtual_nanos(), 42);
        c.reset();
        assert_eq!(c2.virtual_nanos(), 0);
    }

    #[test]
    fn charge_cpu_is_noop_in_hybrid_mode() {
        let c = Clock::new(ClockMode::Hybrid);
        c.charge_cpu(Duration::from_secs(100));
        assert_eq!(c.virtual_nanos(), 0);
        // Network charges still count.
        c.charge(Duration::from_micros(5));
        assert_eq!(c.virtual_nanos(), 5_000);
    }

    #[test]
    fn hybrid_elapsed_includes_real_time() {
        let c = Clock::new(ClockMode::Hybrid);
        c.charge(Duration::from_millis(1));
        // Real component is >= 0, so elapsed >= the charged 1 ms.
        assert!(c.elapsed() >= Duration::from_millis(1));
    }

    #[test]
    fn paper_testbed_matches_reported_constants() {
        let m = CostModel::paper_testbed();
        assert_eq!(m.lmi, Duration::from_micros(2));
        // RMI dispatch alone is well under the 2.8 ms round trip; the rest
        // comes from network latency in the link model.
        assert!(m.rmi_dispatch < Duration::from_millis(1));
    }

    #[test]
    fn serialize_cost_scales_linearly() {
        let m = CostModel::paper_testbed();
        assert_eq!(m.serialize(2000), m.serialize(1000) * 2);
        assert_eq!(CostModel::free().serialize(1 << 20), Duration::ZERO);
    }

    #[test]
    fn pair_cost_is_superlinear_in_batch_size() {
        let m = CostModel::paper_testbed();
        // Per-pair cost in a batch of 1000 exceeds 100 batches of 10.
        let big = m.proxy_pairs(1000, 1000);
        let small = m.proxy_pairs(10, 10) * 100;
        assert!(big > small, "{big:?} !> {small:?}");
        // A single pair in a large cluster batch stays cheap.
        let cluster = m.proxy_pairs(1, 1000);
        assert!(cluster < m.proxy_pairs(10, 10));
        // The free model charges nothing.
        assert_eq!(CostModel::free().proxy_pairs(1000, 1000), Duration::ZERO);
    }
}
