//! `perf check`: is the benchmark fit to judge a change?
//!
//! It cross-checks the names the harness emits against the names
//! `BENCHMARK.json` declares, in both directions, then runs two full sets
//! (every workload, untraced and traced, each run a process of its own)
//! with the same seed. Any end-to-end
//! metric that differs between the sets by more than its bound fails the
//! check, and so does any exact count that differs at all.

use crate::json::{self, Json};
use crate::run::{self, Options, END_TO_END, WORKLOADS};
use crate::workload::Check;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::process::{Command, Stdio};

/// Counts that must repeat exactly between two runs with one seed. On
/// `rpc_fanin` two clients interleave freely, so a refresh may read a
/// counter one digit longer or shorter: there the bytes are compared under
/// the metric's bound like any timing, and the counts below still exactly.
const EXACT: [&str; 10] = [
    "wire_bytes_per_op",
    "net.calls",
    "net.stream_frames",
    "rmi.round_trips_per_batch",
    "rmi.retries",
    "rmi.cached_replies",
    "rmi.stream_resumes",
    "store.appends",
    "store.syncs",
    "store.bytes",
];

struct Declared {
    workloads: Vec<String>,
    end_to_end: Vec<(String, String, f64)>,
    per_layer: Vec<(String, String)>,
}

fn field<'a>(entry: &'a Json, key: &str) -> Check<&'a str> {
    entry
        .get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("BENCHMARK.json: an entry lacks \"{key}\""))
}

fn declared(path: &Path) -> Check<Declared> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path:?}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path:?}: {e}"))?;
    let list = |key: &str| {
        doc.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json: no \"{key}\" list"))
    };
    Ok(Declared {
        workloads: list("workloads")?
            .iter()
            .map(|w| field(w, "name").map(str::to_owned))
            .collect::<Check<_>>()?,
        end_to_end: list("end_to_end")?
            .iter()
            .map(|m| {
                let bound = m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("BENCHMARK.json: an end-to-end metric lacks \"bound\"")?;
                Ok((
                    field(m, "name")?.to_owned(),
                    field(m, "unit")?.to_owned(),
                    bound,
                ))
            })
            .collect::<Check<_>>()?,
        per_layer: list("per_layer")?
            .iter()
            .map(|m| Ok((field(m, "name")?.to_owned(), field(m, "unit")?.to_owned())))
            .collect::<Check<_>>()?,
    })
}

/// Fails unless both sides hold the same `(name, unit)` pairs.
fn same_names(what: &str, emitted: &[(&str, &str)], declared: &[(&str, &str)]) -> Check<()> {
    let emitted: BTreeSet<_> = emitted.iter().collect();
    let declared: BTreeSet<_> = declared.iter().collect();
    let undeclared: Vec<_> = emitted.difference(&declared).collect();
    let unemitted: Vec<_> = declared.difference(&emitted).collect();
    if undeclared.is_empty() && unemitted.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{what}: emitted but not declared in BENCHMARK.json: {undeclared:?}; declared but not emitted: {unemitted:?}"
        ))
    }
}

pub fn names_agree(path: &Path) -> Check<Vec<(String, f64)>> {
    let d = declared(path)?;
    same_names(
        "workloads",
        &WORKLOADS.map(|w| (w, "")),
        &d.workloads
            .iter()
            .map(|w| (w.as_str(), ""))
            .collect::<Vec<_>>(),
    )?;
    same_names(
        "end-to-end metrics",
        &END_TO_END,
        &d.end_to_end
            .iter()
            .map(|(n, u, _)| (n.as_str(), u.as_str()))
            .collect::<Vec<_>>(),
    )?;
    same_names(
        "per-layer metrics",
        &run::per_layer_names(),
        &d.per_layer
            .iter()
            .map(|(n, u)| (n.as_str(), u.as_str()))
            .collect::<Vec<_>>(),
    )?;
    Ok(d.end_to_end.into_iter().map(|(n, _, b)| (n, b)).collect())
}

/// The metrics of one run, by name.
type Values = BTreeMap<String, f64>;

/// Runs one workload in a process of its own, as the benchmark's driver
/// does (peak memory is per process), and reads its result line.
fn run_child(workload: &str, options: &Options, trace: bool) -> Check<Values> {
    let exe = std::env::current_exe().map_err(|e| format!("locating perf: {e}"))?;
    let output = Command::new(exe)
        .arg("run")
        .args(["--workload", workload])
        .args(["--seed", &options.cfg.seed.to_string()])
        .args(["--seconds", &options.cfg.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&options.out)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting perf run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    eprint!("{stdout}");
    if !output.status.success() {
        return Err(format!(
            "{workload} (trace {trace}) exited with {}",
            output.status
        ));
    }
    let line = stdout.lines().last().ok_or("perf run printed nothing")?;
    let result = json::parse(line).map_err(|e| format!("{workload}: result line: {e}"))?;
    if result.get("correct") != Some(&Json::Bool(true))
        || result.get("failed").and_then(Json::as_f64) != Some(0.0)
    {
        return Err(format!("{workload}: result line reports a failure: {line}"));
    }
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        return Err(format!("{workload}: result line has no metrics"));
    };
    Ok(metrics
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect())
}

fn full_set(options: &Options) -> Check<Vec<(Values, Values)>> {
    WORKLOADS
        .iter()
        .map(|name| {
            Ok((
                run_child(name, options, false)?,
                run_child(name, options, true)?,
            ))
        })
        .collect()
}

pub fn check(options: &Options, benchmark: &Path) -> Check<()> {
    let bounds = names_agree(benchmark)?;
    println!("names: the harness and {} agree", benchmark.display());
    let first = full_set(options)?;
    let second = full_set(options)?;

    let mut failures = Vec::new();
    println!(
        "{:<22} {:<28} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "set 1", "set 2", "spread", "bound"
    );
    let value = |values: &Values, name: &str| values.get(name).copied().unwrap_or(0.0);
    for (workload, ((u1, t1), (u2, t2))) in WORKLOADS.iter().zip(first.iter().zip(&second)) {
        let single_client = *workload != "rpc_fanin";
        for (name, bound) in &bounds {
            let (a, b) = (value(u1, name), value(u2, name));
            let spread = if a + b > 0.0 {
                (a - b).abs() / ((a + b) / 2.0)
            } else {
                0.0
            };
            let exact = single_client && EXACT.contains(&name.as_str());
            println!("{workload:<22} {name:<28} {a:>16.4} {b:>16.4} {spread:>9.4} {bound:>7}");
            if a <= 0.0 || b <= 0.0 {
                failures.push(format!("{workload}/{name} is zero"));
            } else if exact && a != b {
                failures.push(format!(
                    "{workload}/{name}: exact count differs, {a} vs {b}"
                ));
            } else if spread > *bound && name != "setup_s" {
                // One pair of runs cannot judge the set-up time: it is a
                // fraction of a second, and the benchmark's driver compares
                // medians of whole sets of runs for it.
                failures.push(format!(
                    "{workload}/{name}: spread {spread:.4} over bound {bound}"
                ));
            }
        }
        for name in EXACT.iter().skip(1) {
            let (a, b) = (value(t1, name), value(t2, name));
            println!(
                "{workload:<22} {name:<28} {a:>16.4} {b:>16.4} {:>9} {:>7}",
                "exact", ""
            );
            // Store bytes per round are totals over rounds of one process
            // each; they too are free of interleaving.
            if a != b {
                failures.push(format!(
                    "{workload}/{name}: exact count differs, {a} vs {b}"
                ));
            }
        }
    }
    if failures.is_empty() {
        println!("check: two sets agree");
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}
