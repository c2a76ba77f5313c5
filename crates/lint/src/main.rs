//! `obiwan-lint` binary: scan the workspace, print diagnostics, exit
//! nonzero when any rule fires or the run is over its time budget.
//!
//! ```text
//! cargo run -p obiwan-lint            # analyze the containing workspace
//! cargo run -p obiwan-lint -- <dir>   # analyze another tree (used by the
//!                                     # fixture tests)
//! cargo run -p obiwan-lint -- --emit-lock-graph LOCK_GRAPH.json
//!                                     # also write the static lock graph
//!                                     # of the same pass (what CI runs)
//! ```

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The analyzer stays on the tier-1 path only while it is quick: a full
/// run takes ≈ 0.1 s in a release build and ≈ 0.7 s in a debug one, so
/// going over this means an analysis went quadratic, not that the
/// workspace grew.
const BUDGET: Duration = Duration::from_secs(5);

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut emit: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--emit-lock-graph" => match args.next() {
                Some(p) => emit = Some(PathBuf::from(p)),
                None => return usage("--emit-lock-graph needs a path"),
            },
            _ if root.is_none() => root = Some(PathBuf::from(arg)),
            _ => return usage("at most one root directory"),
        }
    }
    let root = root.unwrap_or_else(obiwan_lint::default_root);

    let started = Instant::now();
    let files = match obiwan_lint::scan_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("obiwan-lint: failed to scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let analysis = obiwan_lint::analyze(&files);
    if let Some(path) = emit {
        if let Err(e) = std::fs::write(&path, analysis.lock_graph.to_json()) {
            eprintln!("obiwan-lint: failed to write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("obiwan-lint: lock graph written to {}", path.display());
    }
    let spent = started.elapsed();

    for d in &analysis.diagnostics {
        println!("{d}");
    }
    if spent > BUDGET {
        eprintln!(
            "obiwan-lint: took {} ms, over the {} ms budget",
            spent.as_millis(),
            BUDGET.as_millis()
        );
        return ExitCode::from(2);
    }
    if analysis.diagnostics.is_empty() {
        println!("obiwan-lint: clean ({}) in {} ms", root.display(), spent.as_millis());
        ExitCode::SUCCESS
    } else {
        println!("obiwan-lint: {} violation(s)", analysis.diagnostics.len());
        ExitCode::FAILURE
    }
}

fn usage(err: &str) -> ExitCode {
    eprintln!("obiwan-lint: {err}\nusage: obiwan-lint [ROOT] [--emit-lock-graph PATH]");
    ExitCode::from(2)
}
