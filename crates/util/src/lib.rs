//! Shared foundation types for the OBIWAN platform.
//!
//! This crate contains the small, dependency-free vocabulary used by every
//! other OBIWAN crate:
//!
//! * [`ids`] — strongly typed identifiers for sites, objects, replicas and
//!   in-flight requests ([`SiteId`], [`ObjId`], …).
//! * [`error`] — the platform-wide [`ObiError`] type.
//! * [`clock`] — virtual/hybrid clocks used by the simulated network and the
//!   benchmark harness ([`Clock`], [`CostModel`]).
//! * [`metrics`] — lightweight counters recording messages, bytes, faults and
//!   replicas ([`Metrics`]).
//! * [`histogram`] — a log-bucketed latency [`Histogram`] for
//!   distribution-grade reporting.
//! * [`rng`] — a tiny deterministic PRNG for reproducible workloads.
//! * [`sync`] — the workspace lock facade (`Mutex`/`RwLock`); with
//!   `feature = "lockcheck"` the locks are instrumented by [`lockcheck`],
//!   a runtime lock-order (potential-deadlock) detector.
//! * [`trace`] — a feature-gated span tracer (`feature = "trace"`): named,
//!   virtual-clock-timestamped spans recorded into a process-global ring
//!   buffer, compiled to no-ops when the feature is off.
//!
//! # Examples
//!
//! ```
//! use obiwan_util::{SiteId, ObjId, Clock, ClockMode};
//!
//! let site = SiteId::new(1);
//! let obj = ObjId::new(site, 42);
//! assert_eq!(obj.site(), site);
//!
//! let clock = Clock::new(ClockMode::VirtualOnly);
//! clock.charge_nanos(1_500);
//! assert_eq!(clock.virtual_nanos(), 1_500);
//! ```

pub mod clock;
pub mod error;
pub mod histogram;
pub mod ids;
pub mod lockcheck;
pub mod metrics;
pub mod rng;
pub mod sync;
pub mod trace;

pub use clock::{Clock, ClockMode, CostModel};
pub use error::{ObiError, Result};
pub use histogram::Histogram;
pub use ids::{ClusterId, ObjId, RequestId, SiteId};
pub use metrics::{LatencyKind, LatencySnapshot, Metrics, MetricsSnapshot};
pub use rng::DetRng;
pub use trace::{SpanEvent, SpanGuard};
