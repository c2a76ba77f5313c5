//! The `BENCH_*.json` perf-trajectory emitter.
//!
//! Every run of `cargo run -p obiwan-bench --bin figures -- bench` rewrites
//! `BENCH_demand.json` and `BENCH_rpc.json` in the current directory (the
//! repo root, in CI). The numbers are deterministic virtual-time figures on
//! the paper-testbed model, so two runs on different machines produce the
//! same files — a diff against the committed copies *is* the perf
//! trajectory of the change under review.
//!
//! Schemas (documented in DESIGN.md §Observability):
//!
//! * `obiwan-bench-demand/1` — the paper's list walk per incremental step:
//!   ops/sec, demand/invoke p50/p99, and round-trips per demand batch.
//! * `obiwan-bench-rpc/1` — the RPC path per network scenario: ops/sec,
//!   caller-observed p50/p99, retries and reply-cache hits.

use crate::experiments::ms;
use crate::workload::{paper_list, single_object};
use crate::LIST_LEN;
use obiwan_core::{ReplicationMode, RetryPolicy};
use obiwan_net::conditions;
use obiwan_util::Histogram;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Payload size used by both benches, bytes.
pub const PAYLOAD_BYTES: usize = 64;

/// Incremental steps the demand bench sweeps. 100 and 250 exercise the
/// streaming reply path well past one chunk (8 objects per frame).
pub const DEMAND_STEPS: [usize; 5] = [1, 10, 50, 100, 250];

/// Payload sizes the demand bench sweeps at [`PAYLOAD_SWEEP_STEP`].
pub const PAYLOAD_SWEEP: [usize; 3] = [64, 256, 1024];

/// Incremental step held fixed for the payload sweep.
pub const PAYLOAD_SWEEP_STEP: usize = 50;

/// Calls per RPC scenario.
pub const RPC_CALLS: usize = 300;

/// One demand-bench point: a full list walk at one incremental step.
#[derive(Debug, Clone)]
pub struct DemandPoint {
    /// Objects fetched per demand batch.
    pub step: usize,
    /// Total virtual time for the walk.
    pub elapsed: Duration,
    /// Invocations performed (= list length).
    pub invocations: u64,
    /// Object faults taken.
    pub object_faults: u64,
    /// Demand round-trips spent (get/get_many exchanges).
    pub round_trips: u64,
    /// Demand (fault-resolution) latency distribution.
    pub demand: Histogram,
    /// Caller-observed invocation latency distribution.
    pub invoke: Histogram,
}

impl DemandPoint {
    /// Invocations per virtual second.
    pub fn ops_per_sec(&self) -> f64 {
        self.invocations as f64 / self.elapsed.as_secs_f64().max(f64::MIN_POSITIVE)
    }

    /// Demand round-trips per fault batch (1.0 = no retries, no waste).
    pub fn round_trips_per_batch(&self) -> f64 {
        self.round_trips as f64 / (self.object_faults as f64).max(1.0)
    }
}

/// One full list walk at `step` with `payload`-byte nodes, reading the
/// per-site latency recorders and counters afterwards.
fn demand_walk(step: usize, payload: usize) -> DemandPoint {
    let w = paper_list(payload);
    let site = w.site();
    let before = site.metrics().snapshot();
    let root = site
        .get(&w.head, ReplicationMode::incremental(step))
        .expect("initial get");
    let invocations = w.walk(root).count() as u64;
    let delta = site.metrics().snapshot().since(&before);
    let latency = site.metrics().latency_snapshot();
    DemandPoint {
        step,
        elapsed: w.world.clock().elapsed(),
        invocations,
        // The initial `get` is a demand round-trip too, but not an
        // object fault; count it on both sides of the ratio.
        object_faults: delta.object_faults + 1,
        round_trips: delta.demand_round_trips,
        demand: latency.demand,
        invoke: latency.invoke,
    }
}

/// Walks the paper's list once per step in [`DEMAND_STEPS`].
pub fn demand_bench() -> Vec<DemandPoint> {
    DEMAND_STEPS
        .iter()
        .map(|&step| demand_walk(step, PAYLOAD_BYTES))
        .collect()
}

/// Walks the list at [`PAYLOAD_SWEEP_STEP`] once per payload size in
/// [`PAYLOAD_SWEEP`]; returns `(payload_bytes, point)` pairs.
pub fn demand_payload_sweep() -> Vec<(usize, DemandPoint)> {
    PAYLOAD_SWEEP
        .iter()
        .map(|&payload| (payload, demand_walk(PAYLOAD_SWEEP_STEP, payload)))
        .collect()
}

/// One RPC-bench scenario: repeated RMIs under one network condition.
#[derive(Debug, Clone)]
pub struct RpcScenario {
    /// Scenario name (`clean_lan`, `lossy_lan_10pct`).
    pub name: &'static str,
    /// Calls issued.
    pub calls: u64,
    /// Total virtual time.
    pub elapsed: Duration,
    /// Caller-observed per-call latency.
    pub latency: Histogram,
    /// Request attempts re-issued after loss/timeout.
    pub retries: u64,
    /// Duplicate requests the server answered from its reply cache.
    pub cached_replies: u64,
}

impl RpcScenario {
    /// Calls per virtual second.
    pub fn ops_per_sec(&self) -> f64 {
        self.calls as f64 / self.elapsed.as_secs_f64().max(f64::MIN_POSITIVE)
    }
}

fn rpc_scenario(name: &'static str, loss: f64, reply_loss: f64) -> RpcScenario {
    let w = single_object(PAYLOAD_BYTES);
    if loss > 0.0 || reply_loss > 0.0 {
        // Deterministic loss stream: same seed, same drops, same JSON.
        w.world.transport().reseed(0xBE0C_0DE5);
        w.world.transport().with_topology_mut(|t| {
            t.set_link_symmetric(
                w.consumer,
                w.provider,
                conditions::paper_lan()
                    .with_loss(loss)
                    .with_reply_loss(reply_loss),
            );
        });
        w.site().set_rpc_policy(RetryPolicy {
            max_retries: 10,
            ..RetryPolicy::default()
        });
    }
    let before = w.site().metrics().snapshot();
    // Reply-cache hits are counted by the *answering* side: read them from
    // the provider's counters, not the caller's.
    let provider = w.world.site(w.provider).metrics();
    let provider_before = provider.snapshot();
    let mut latency = Histogram::new();
    for _ in 0..RPC_CALLS {
        latency.record(w.rmi("touch"));
    }
    let delta = w.site().metrics().snapshot().since(&before);
    let provider_delta = provider.snapshot().since(&provider_before);
    RpcScenario {
        name,
        calls: RPC_CALLS as u64,
        elapsed: w.world.clock().elapsed(),
        latency,
        retries: delta.rpc_retries,
        cached_replies: provider_delta.cached_replies,
    }
}

/// Runs the RPC scenarios: a clean paper LAN, the same link at 10% frame
/// loss, and a link that only loses *replies* (10%) — the asymmetric
/// failure where every retry reaches a server that already executed the
/// request, so the reply cache answers it.
pub fn rpc_bench() -> Vec<RpcScenario> {
    vec![
        rpc_scenario("clean_lan", 0.0, 0.0),
        rpc_scenario("lossy_lan_10pct", 0.10, 0.0),
        rpc_scenario("lossy_lan_reply_loss", 0.0, 0.10),
    ]
}

fn num(v: f64) -> String {
    // Stable, diff-friendly fixed precision.
    format!("{v:.4}")
}

fn demand_point_json(p: &DemandPoint) -> String {
    format!(
        "{{\"step\": {}, \"elapsed_ms\": {}, \"invocations\": {}, \"ops_per_sec\": {}, \
         \"object_faults\": {}, \"demand_round_trips\": {}, \"round_trips_per_batch\": {}, \
         \"demand_p50_ms\": {}, \"demand_p99_ms\": {}, \
         \"invoke_p50_ms\": {}, \"invoke_p99_ms\": {}}}",
        p.step,
        num(ms(p.elapsed)),
        p.invocations,
        num(p.ops_per_sec()),
        p.object_faults,
        p.round_trips,
        num(p.round_trips_per_batch()),
        num(ms(p.demand.quantile(0.5))),
        num(ms(p.demand.quantile(0.99))),
        num(ms(p.invoke.quantile(0.5))),
        num(ms(p.invoke.quantile(0.99))),
    )
}

/// Opens a `BENCH_*.json` body: its `schema`, the virtual clock, and the
/// `workload` object.
pub(crate) fn json_head(schema: &str, workload: &str) -> String {
    format!(
        "{{\n  \"schema\": \"{schema}\",\n  \"clock\": \"virtual\",\n  \"workload\": {workload},\n"
    )
}

/// Writes `  "name": [`, then `rows` one per line with commas between,
/// then `  ]`; the caller writes what follows the bracket.
pub(crate) fn push_array(out: &mut String, name: &str, rows: impl Iterator<Item = String>) {
    let rows: Vec<String> = rows.collect();
    let _ = writeln!(out, "  \"{name}\": [");
    if !rows.is_empty() {
        let _ = writeln!(out, "    {}", rows.join(",\n    "));
    }
    out.push_str("  ]");
}

/// `BENCH_demand.json` contents (schema `obiwan-bench-demand/2`: adds the
/// payload sweep and the 100/250 streaming steps).
pub fn bench_demand_json() -> String {
    let points = demand_bench();
    let sweep = demand_payload_sweep();
    let mut out = json_head(
        "obiwan-bench-demand/2",
        &format!("{{\"list_len\": {LIST_LEN}, \"payload_bytes\": {PAYLOAD_BYTES}}}"),
    );
    push_array(&mut out, "points", points.iter().map(demand_point_json));
    let _ = writeln!(out, ",\n  \"payload_sweep_step\": {PAYLOAD_SWEEP_STEP},");
    push_array(
        &mut out,
        "payload_sweep",
        sweep.iter().map(|(payload, p)| {
            format!("{{\"payload_bytes\": {payload}, \"point\": {}}}", demand_point_json(p))
        }),
    );
    out.push_str("\n}\n");
    out
}

/// `BENCH_rpc.json` contents (schema `obiwan-bench-rpc/1`).
pub fn bench_rpc_json() -> String {
    let scenarios = rpc_bench();
    let mut out = json_head(
        "obiwan-bench-rpc/1",
        &format!("{{\"calls\": {RPC_CALLS}, \"payload_bytes\": {PAYLOAD_BYTES}}}"),
    );
    push_array(
        &mut out,
        "scenarios",
        scenarios.iter().map(|s| {
            format!(
                "{{\"name\": \"{}\", \"calls\": {}, \"elapsed_ms\": {}, \"ops_per_sec\": {}, \
                 \"p50_ms\": {}, \"p99_ms\": {}, \"retries\": {}, \"cached_replies\": {}}}",
                s.name,
                s.calls,
                num(ms(s.elapsed)),
                num(s.ops_per_sec()),
                num(ms(s.latency.quantile(0.5))),
                num(ms(s.latency.quantile(0.99))),
                s.retries,
                s.cached_replies,
            )
        }),
    );
    out.push_str("\n}\n");
    out
}

/// Writes both `BENCH_*.json` files into `dir`; returns the paths written.
pub fn write_bench_files(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let demand = dir.join("BENCH_demand.json");
    std::fs::write(&demand, bench_demand_json())?;
    let rpc = dir.join("BENCH_rpc.json");
    std::fs::write(&rpc, bench_rpc_json())?;
    Ok(vec![demand, rpc])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demand_bench_round_trips_shrink_with_bigger_steps() {
        let points = demand_bench();
        assert_eq!(points.len(), DEMAND_STEPS.len());
        for p in &points {
            assert_eq!(p.invocations, LIST_LEN as u64);
            assert!(p.elapsed > Duration::ZERO);
            assert!(p.ops_per_sec() > 0.0);
            assert!(!p.demand.is_empty(), "demand recorder must have samples");
            assert!(!p.invoke.is_empty(), "invoke recorder must have samples");
            assert!(p.round_trips_per_batch() >= 0.99, "{}", p.round_trips_per_batch());
        }
        // Bigger steps mean fewer round-trips and more throughput.
        for w in points.windows(2) {
            assert!(
                w[0].round_trips > w[1].round_trips,
                "step {} -> {}: round trips must shrink",
                w[0].step,
                w[1].step
            );
        }
        assert!(points.last().unwrap().ops_per_sec() > points[0].ops_per_sec());
    }

    /// The tentpole property: streaming the reply keeps the caller-visible
    /// tail flat as the batch grows. One chunk materializes inside the
    /// fault window regardless of step, so the step-50 p99 stays within 2x
    /// of step 10 — and each batch still costs one round trip.
    #[test]
    fn streaming_keeps_big_step_tails_near_the_small_step_tail() {
        let points = demand_bench();
        let p99_at = |step: usize| {
            points
                .iter()
                .find(|p| p.step == step)
                .expect("step present")
                .invoke
                .quantile(0.99)
        };
        assert!(
            p99_at(50) <= 2 * p99_at(10),
            "invoke p99 step 50 ({:?}) > 2x step 10 ({:?})",
            p99_at(50),
            p99_at(10)
        );
        for p in &points {
            let r = p.round_trips_per_batch();
            assert!(
                (0.99..=1.05).contains(&r),
                "step {}: {r} round trips per batch",
                p.step
            );
        }
    }

    #[test]
    fn payload_sweep_covers_every_size_at_the_fixed_step() {
        let sweep = demand_payload_sweep();
        assert_eq!(sweep.len(), PAYLOAD_SWEEP.len());
        for ((payload, point), expect) in sweep.iter().zip(PAYLOAD_SWEEP) {
            assert_eq!(*payload, expect);
            assert_eq!(point.step, PAYLOAD_SWEEP_STEP);
            assert_eq!(point.invocations, LIST_LEN as u64);
        }
        // Bigger payloads cost serialize/install time: the walk slows down.
        assert!(sweep[0].1.elapsed < sweep.last().unwrap().1.elapsed);
    }

    #[test]
    fn rpc_bench_reports_retries_only_under_loss() {
        let scenarios = rpc_bench();
        assert_eq!(scenarios.len(), 3);
        let clean = &scenarios[0];
        let lossy = &scenarios[1];
        assert_eq!(clean.retries, 0);
        assert_eq!(clean.cached_replies, 0);
        assert!(lossy.retries > 0, "10% loss must force retries");
        assert!(clean.ops_per_sec() > lossy.ops_per_sec());
        // Retried calls stretch the tail past the clean p99.
        assert!(lossy.latency.quantile(0.99) > clean.latency.quantile(0.99));
    }

    /// The reply-loss scenario exists to light up the reply cache: the
    /// request executes, only the answer is lost, so every retry is a
    /// duplicate the server answers from cache.
    #[test]
    fn reply_loss_scenario_exercises_the_reply_cache() {
        let scenarios = rpc_bench();
        let reply_lossy = &scenarios[2];
        assert_eq!(reply_lossy.name, "lossy_lan_reply_loss");
        assert!(reply_lossy.retries > 0, "lost replies must force retries");
        assert!(
            reply_lossy.cached_replies > 0,
            "every retry after a lost reply is a cache hit"
        );
        // With no forward loss, every retried request reached the server
        // the first time: retries and cache hits must agree.
        assert_eq!(reply_lossy.cached_replies, reply_lossy.retries);
    }

    #[test]
    fn emitted_json_is_structurally_sound() {
        for json in [bench_demand_json(), bench_rpc_json()] {
            assert!(json.starts_with("{\n"));
            assert!(json.ends_with("}\n"));
            assert_eq!(
                json.matches('{').count(),
                json.matches('}').count(),
                "balanced braces"
            );
            assert!(json.contains("\"ops_per_sec\""));
            assert!(json.contains("\"clock\": \"virtual\""));
            // Determinism: a second run emits byte-identical output.
        }
        assert_eq!(bench_rpc_json(), bench_rpc_json());
    }

    #[test]
    fn write_bench_files_creates_both_files() {
        let dir = std::env::temp_dir().join("obiwan_bench_emit_test");
        std::fs::create_dir_all(&dir).unwrap();
        let paths = write_bench_files(&dir).unwrap();
        assert_eq!(paths.len(), 2);
        for p in &paths {
            let body = std::fs::read_to_string(p).unwrap();
            assert!(body.contains("\"schema\""), "{p:?}");
        }
    }
}
