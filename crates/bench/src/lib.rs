//! The OBIWAN benchmark harness.
//!
//! Regenerates every experimental artifact in the paper's evaluation
//! (§4): the LMI/RMI constants quoted in §4.1, the RMI-vs-LMI curves of
//! Figure 4, the incremental-replication curves of Figure 5, and the
//! cluster-replication curves of Figure 6 — plus shape checks asserting the
//! paper's qualitative conclusions hold on this implementation.
//!
//! Run `cargo run -p obiwan-bench --bin figures -- all` to print every
//! table. This crate is the virtual-clock instrument; real-CPU cost is
//! measured by `obiwan-perf` (`crates/perf`) and nowhere else.
//!
//! Experiments run in deterministic virtual time
//! ([`ClockMode::VirtualOnly`](obiwan_util::ClockMode)): network physics
//! follow the paper's 10 Mb/s LAN link model and CPU costs follow the
//! calibrated [`CostModel`](obiwan_util::CostModel), so the *shapes* (who
//! wins, by what factor, where crossovers fall) are reproducible on any
//! machine.

pub mod churn;
pub mod emit;
pub mod experiments;
pub mod report;
pub mod workload;

pub use emit::{
    bench_demand_json, bench_rpc_json, demand_bench, rpc_bench, write_bench_files, DemandPoint,
    RpcScenario,
};
pub use churn::{
    bench_churn_json, churn_bench, write_churn_file, ChurnConfig, ChurnReport, ChurnTick,
};
pub use experiments::{
    e1_constants, e6_prefetch, e7_latency_distributions, fig4, fig5_series, fig6_series,
    verify_shapes, E1Result, E6Result, E7Row,
    Fig4Row, SeriesPoint, ShapeReport, FIG4_COUNTS, FIG4_SIZES, FIG56_SIZES, FIG56_STEPS, LIST_LEN,
};
pub use workload::{payload_list, single_object, ListWorkload};
