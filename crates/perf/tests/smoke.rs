//! Every workload at about 1 % of its benchmark size, with all correctness
//! checks on, untraced and traced; the trace files are well formed; and the
//! names the harness emits are the names `BENCHMARK.json` declares.

use obiwan_perf::check::names_agree;
use obiwan_perf::json::{self, Json};
use obiwan_perf::run::{self, Options, END_TO_END, WORKLOADS};
use obiwan_perf::workload::Cfg;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// A directory of this test's own under the build directory.
fn scratch(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/perf-smoke")
        .join(format!("{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn options(test: &str, trace: bool) -> Options {
    let dir = scratch(test);
    Options {
        cfg: Cfg {
            seed: 42,
            seconds: 0.1,
            tmp: dir.join("tmp"),
        },
        trace,
        out: dir.join("out"),
        ledger_batch: Duration::from_micros(20),
    }
}

fn num(span: &Json, key: &str) -> u64 {
    span.get(key).and_then(Json::as_f64).expect(key) as u64
}

/// Every span has a parent in the file or is a root, and lies inside it.
fn assert_trace_well_formed(file: &Path) {
    let text = std::fs::read_to_string(file).unwrap();
    let doc = json::parse(&text).unwrap();
    let spans = doc.get("spans").and_then(Json::as_arr).unwrap();
    assert!(!spans.is_empty(), "{file:?} holds no span");
    assert_eq!(num(&doc, "total_spans") as usize, spans.len());
    let by_id: BTreeMap<u64, &Json> = spans.iter().map(|s| (num(s, "id"), s)).collect();
    assert_eq!(by_id.len(), spans.len(), "span ids repeat");
    for span in spans {
        assert!(span.get("name").and_then(Json::as_str).is_some());
        assert!(num(span, "thread") > 0);
        assert!(num(span, "start_ns") <= num(span, "end_ns"));
        match span.get("parent") {
            Some(Json::Null) => {}
            Some(Json::Num(parent)) => {
                let parent = by_id.get(&(*parent as u64)).expect("parent is in the file");
                assert!(num(parent, "start_ns") <= num(span, "start_ns"));
                assert!(num(span, "end_ns") <= num(parent, "end_ns"));
                assert_eq!(num(span, "op_id"), num(parent, "op_id"));
            }
            other => panic!("parent is {other:?}"),
        }
    }
}

fn smoke(workload: &str) {
    let o = options(workload, false);
    let untraced = run::run(workload, &o).unwrap();
    assert_eq!(untraced.failed, 0);
    assert!(untraced.attempted > 0);
    let names: Vec<&str> = untraced.metrics.iter().map(|m| m.name).collect();
    assert_eq!(names, END_TO_END.map(|(name, _)| name));
    for m in &untraced.metrics {
        assert!(m.value > 0.0, "{workload}: {} is {}", m.name, m.value);
    }
    let line = json::parse(&untraced.json_line()).unwrap();
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)));

    let o = options(workload, true);
    let traced = run::run(workload, &o).unwrap();
    assert_eq!(traced.failed, 0);
    let names: Vec<&str> = traced.metrics.iter().map(|m| m.name).collect();
    let declared: Vec<&str> = run::per_layer_names()
        .iter()
        .map(|(name, _)| *name)
        .collect();
    assert_eq!(names, declared);
    assert_eq!(traced.value("rmi.round_trips_per_batch"), Some(1.0));
    assert_eq!(traced.value("rmi.retries"), Some(0.0));
    assert_eq!(traced.value("rmi.stream_resumes"), Some(0.0));
    let store_used = workload == "offline_reintegrate";
    for name in ["store.appends", "store.syncs", "store.bytes", "share.store"] {
        let value = traced.value(name).unwrap();
        assert_eq!(value > 0.0, store_used, "{workload}: {name} is {value}");
    }
    let shares: f64 = ["core", "mobility", "net", "rmi", "store"]
        .iter()
        .map(|layer| traced.value(&format!("share.{layer}")).unwrap())
        .sum();
    assert!((shares - 1.0).abs() < 1e-9, "layer shares sum to {shares}");
    assert_trace_well_formed(&o.out.join(format!("{workload}.trace.json")));
    let _ = std::fs::remove_dir_all(scratch(workload));
}

#[test]
fn walk_small_runs_clean() {
    smoke("walk_small");
}

#[test]
fn walk_large_runs_clean() {
    smoke("walk_large");
}

#[test]
fn rpc_mix_runs_clean() {
    smoke("rpc_mix");
}

#[test]
fn rpc_fanin_runs_clean() {
    smoke("rpc_fanin");
}

#[test]
fn offline_reintegrate_runs_clean() {
    smoke("offline_reintegrate");
}

#[test]
fn unknown_workload_is_refused() {
    assert!(run::run("no_such_workload", &options("unknown", false)).is_err());
    assert_eq!(WORKLOADS.len(), 5);
}

#[test]
fn emitted_names_match_benchmark_json() {
    let benchmark = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    let bounds = names_agree(&benchmark).unwrap();
    assert!(bounds.iter().all(|(_, bound)| (0.0..=0.25).contains(bound)));
}
