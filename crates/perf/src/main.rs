//! `perf`: the benchmark's command line.
//!
//! ```text
//! perf run    [--workload W] [--seed S] [--seconds N] [--trace [0|1]] [--out DIR]
//! perf ledger
//! perf check  [--seed S] [--seconds N] [--benchmark PATH]
//! ```
//!
//! `run` prints every metric by name with its unit, then one JSON object on
//! the last line of its output, and exits non-zero when a check fails.

use obiwan_perf::alloc::CountingAlloc;
use obiwan_perf::run::{self, Options, WORKLOADS};
use obiwan_perf::workload::Cfg;
use obiwan_perf::{check, host, ledger};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str =
    "usage: perf run [--workload W] [--seed S] [--seconds N] [--trace [0|1]] [--out DIR]
       perf ledger
       perf check [--seed S] [--seconds N] [--benchmark PATH]";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    benchmark: PathBuf,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: None,
        benchmark: "BENCHMARK.json".into(),
    };
    let mut pending: Option<String> = None;
    loop {
        let Some(flag) = pending.take().or_else(|| args.next()) else {
            return Ok(parsed);
        };
        let mut value = |what: &str| args.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value("a name")?),
            "--seed" => {
                parsed.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                parsed.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--out" => parsed.out = Some(value("a directory")?.into()),
            "--benchmark" => parsed.benchmark = value("a path")?.into(),
            // `--trace` alone turns tracing on; `--trace 0` and `--trace 1`
            // are how the benchmark driver spells it.
            "--trace" => match args.next() {
                Some(v) if v == "0" => parsed.trace = false,
                Some(v) if v == "1" => parsed.trace = true,
                other => {
                    parsed.trace = true;
                    pending = other;
                }
            },
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
}

/// Everything the benchmark writes goes under the build directory, which
/// is inside the checkout and ignored by git.
fn scratch() -> PathBuf {
    PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().unwrap_or_default();
    let args = match parse(argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let tmp = scratch()
        .join("perf-tmp")
        .join(std::process::id().to_string());
    let options = Options {
        cfg: Cfg {
            seed: args.seed,
            seconds: args.seconds,
            tmp: tmp.clone(),
        },
        trace: args.trace,
        out: args.out.unwrap_or_else(|| scratch().join("perf-out")),
        ledger_batch: Duration::from_millis(1),
    };
    // Before any thread is spawned, so that all of them inherit it.
    match (host::pin_to_one_cpu(), host::keep_freed_memory()) {
        (Some(cpu), true) => eprintln!("perf: pinned to CPU {cpu}, freed memory kept (src/host.rs)"),
        (cpu, kept) => eprintln!(
            "perf: host not steadied (pinned to {cpu:?}, freed memory kept: {kept}); timings will be noisier"
        ),
    }
    let result = match command.as_str() {
        "run" => {
            let names: Vec<&str> = match &args.workload {
                Some(name) => vec![name.as_str()],
                None => WORKLOADS.to_vec(),
            };
            names.into_iter().try_for_each(|name| {
                let outcome = run::run(name, &options)?;
                print!("{}", outcome.table());
                println!("{}", outcome.json_line());
                Ok(())
            })
        }
        "ledger" => ledger::run(options.ledger_batch, &tmp).map(|rows| {
            for row in rows {
                let unit = run::ledger_unit(row.name);
                let value = if unit == "us" {
                    row.nanos / 1e3
                } else {
                    row.nanos
                };
                println!("{:<40} {value:>16.4} {unit}", row.name);
            }
        }),
        "check" => check::check(&options, &args.benchmark),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let _ = std::fs::remove_dir_all(&tmp);
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perf: FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}
