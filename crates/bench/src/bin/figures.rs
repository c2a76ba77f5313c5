//! Regenerates every table and figure of the paper's evaluation section.
//!
//! ```text
//! cargo run -p obiwan-bench --bin figures -- [e1|fig4|fig5|fig6|verify|bench|churn|all]
//! ```
//!
//! `bench` writes the machine-readable perf trajectory (`BENCH_demand.json`
//! and `BENCH_rpc.json`) into the current directory instead of printing.
//! `churn` writes `BENCH_churn.json` (live join + mastership handoff under
//! loss, virtual time); `churn smoke` runs the CI-sized world.
//!
//! All numbers are deterministic virtual-time milliseconds on the
//! paper-testbed model (10 Mb/s LAN, LMI ≈ 2 µs, RMI ≈ 2.8 ms).

use obiwan_bench::report::{fmt_ms, Table};
use obiwan_bench::{
    e1_constants, e6_prefetch, e7_latency_distributions, fig4, fig5_series, fig6_series,
    verify_shapes, FIG56_SIZES, FIG56_STEPS, FIG4_SIZES, LIST_LEN,
};
use std::time::Duration;

fn print_e1() {
    let e1 = e1_constants();
    println!("## E1 — §4.1 constants (paper: LMI = 2 us, RMI = 2.8 ms)\n");
    let mut t = Table::new(["invocation kind", "paper", "measured"]);
    t.row([
        "LMI (local, on replica)",
        "0.002 ms",
        &format!("{} ms", fmt_ms(e1.lmi)),
    ]);
    t.row(["RMI (remote)", "2.8 ms", &format!("{} ms", fmt_ms(e1.rmi))]);
    println!("{}", t.render());
}

fn print_fig4() {
    println!("## Figure 4 — RMI vs LMI, total time (ms) vs number of invocations\n");
    println!("LMI includes replica creation and the final put back to the master.\n");
    let rows = fig4();
    let mut header: Vec<String> = vec!["invocations".into(), "RMI".into()];
    for s in FIG4_SIZES {
        header.push(format!("LMI {}", size_label(*s)));
    }
    let mut t = Table::new(header);
    for row in &rows {
        let mut cells: Vec<String> = vec![row.invocations.to_string(), fmt_ms(row.rmi)];
        for (_, d) in &row.lmi {
            cells.push(fmt_ms(*d));
        }
        t.row(cells);
    }
    println!("{}", t.render());
}

fn size_label(bytes: usize) -> String {
    if bytes >= 1024 && bytes.is_multiple_of(1024) {
        format!("{}K", bytes / 1024)
    } else {
        format!("{bytes}B")
    }
}

fn print_series(
    title: &str,
    note: &str,
    series_fn: impl Fn(usize, usize) -> Vec<obiwan_bench::SeriesPoint>,
) {
    println!("{title}\n");
    println!("{note}\n");
    for &size in FIG56_SIZES {
        println!("### {} objects, list of {LIST_LEN}\n", size_label(size));
        let curves: Vec<(usize, Vec<obiwan_bench::SeriesPoint>)> = FIG56_STEPS
            .iter()
            .map(|&step| (step, series_fn(size, step)))
            .collect();
        let mut header: Vec<String> = vec!["invocation".into()];
        for (step, _) in &curves {
            header.push(format!("step {step}"));
        }
        let mut t = Table::new(header);
        let checkpoints: Vec<usize> = (1..=10).map(|i| i * LIST_LEN / 10).collect();
        let mut rows_iter = std::iter::once(1usize).chain(checkpoints);
        // Deduplicate if LIST_LEN/10 == 1.
        let mut seen = std::collections::BTreeSet::new();
        for cp in &mut rows_iter {
            if !seen.insert(cp) {
                continue;
            }
            let mut cells: Vec<String> = vec![cp.to_string()];
            for (_, series) in &curves {
                cells.push(fmt_ms(series[cp - 1].cumulative));
            }
            t.row(cells);
        }
        println!("{}", t.render());
        let mut totals = Table::new(["step", "total (ms)", "time to 1st invocation (ms)"]);
        for (step, series) in &curves {
            totals.row([
                step.to_string(),
                fmt_ms(series.last().unwrap().cumulative),
                fmt_ms(series[0].cumulative),
            ]);
        }
        println!("{}", totals.render());
    }
}

fn print_e6() {
    println!("## E6 (extension) — prefetching during think time (paper §2.1, footnote)\n");
    println!("64 B objects, list of {LIST_LEN}, step 10. Latency = what one invocation");
    println!("costs the caller; prefetch moves fetch work into think time.\n");
    let r = e6_prefetch();
    let mut t = Table::new(["strategy", "worst invocation latency", "total elapsed"]);
    t.row([
        "fault on demand",
        &format!("{} ms", fmt_ms(r.on_demand_worst)),
        &format!("{} ms", fmt_ms(r.on_demand_total)),
    ]);
    t.row([
        "prefetch ahead",
        &format!("{} ms", fmt_ms(r.prefetch_worst)),
        &format!("{} ms", fmt_ms(r.prefetch_total)),
    ]);
    println!("{}", t.render());
}

fn print_e7() {
    println!("## E7 (extension) — per-invocation latency distributions (ms)\n");
    println!("64 B objects, list of {LIST_LEN}: what one invocation costs the caller,");
    println!("across strategies. Figure 5's cumulative view hides these tails.\n");
    let rows = e7_latency_distributions();
    let mut t = Table::new(["strategy", "p50", "p90", "p99", "max", "mean"]);
    for r in &rows {
        t.row([
            r.strategy.clone(),
            fmt_ms(r.latency.quantile(0.5)),
            fmt_ms(r.latency.quantile(0.9)),
            fmt_ms(r.latency.quantile(0.99)),
            fmt_ms(r.latency.max()),
            fmt_ms(r.latency.mean()),
        ]);
    }
    println!("{}", t.render());
}

/// Tidy machine-readable dump of every curve, for external plotting:
/// `experiment,size_bytes,series,x,ms`.
fn print_csv() {
    println!("experiment,size_bytes,series,x,ms");
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    for row in fig4() {
        println!("fig4,0,RMI,{},{}", row.invocations, ms(row.rmi));
        for (size, d) in &row.lmi {
            println!("fig4,{size},LMI,{},{}", row.invocations, ms(*d));
        }
    }
    for &size in FIG56_SIZES {
        for &step in FIG56_STEPS {
            for p in fig5_series(size, step) {
                println!("fig5,{size},step{step},{},{}", p.invocation, ms(p.cumulative));
            }
            for p in fig6_series(size, step) {
                println!("fig6,{size},step{step},{},{}", p.invocation, ms(p.cumulative));
            }
        }
    }
}

fn print_verify() -> bool {
    println!("## E5 — shape verification (the paper's §4 conclusions)\n");
    let report = verify_shapes();
    let mut t = Table::new(["ok", "claim", "evidence"]);
    for c in &report.checks {
        t.row([
            if c.pass { "PASS" } else { "FAIL" },
            c.claim.as_str(),
            c.evidence.as_str(),
        ]);
    }
    println!("{}", t.render());
    println!(
        "{} of {} checks passed\n",
        report.checks.iter().filter(|c| c.pass).count(),
        report.checks.len()
    );
    report.all_pass()
}

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".to_owned());
    let started = std::time::Instant::now();
    let mut ok = true;
    match which.as_str() {
        "e1" => print_e1(),
        "fig4" => print_fig4(),
        "fig5" => print_series(
            "## Figure 5 — incremental replication (per-object proxy pairs), cumulative ms",
            "Each object carries its own proxy-in/proxy-out pair and can be individually updated.",
            fig5_series,
        ),
        "fig6" => print_series(
            "## Figure 6 — cluster replication (one proxy pair per cluster), cumulative ms",
            "Objects are replicated in clusters sharing a single proxy pair; members cannot be individually updated.",
            fig6_series,
        ),
        "e6" => print_e6(),
        "e7" => print_e7(),
        "csv" => {
            print_csv();
            return;
        }
        "verify" => ok = print_verify(),
        "bench" => {
            let cwd = std::env::current_dir().expect("cwd");
            let paths = obiwan_bench::write_bench_files(&cwd).expect("write BENCH_*.json");
            for p in &paths {
                println!("wrote {}", p.display());
            }
        }
        "churn" => {
            let cfg = match std::env::args().nth(2).as_deref() {
                Some("smoke") => obiwan_bench::ChurnConfig::smoke(),
                _ => obiwan_bench::ChurnConfig::full(),
            };
            println!(
                "churn: {} sites, {} counters, {} ticks, loss {} (virtual time)",
                cfg.sites,
                cfg.counters,
                cfg.total_ticks(),
                cfg.loss
            );
            let cwd = std::env::current_dir().expect("cwd");
            let path = obiwan_bench::write_churn_file(&cwd, &cfg).expect("write BENCH_churn.json");
            println!("wrote {}", path.display());
        }
        "all" => {
            print_e1();
            print_fig4();
            print_series(
                "## Figure 5 — incremental replication (per-object proxy pairs), cumulative ms",
                "Each object carries its own proxy-in/proxy-out pair and can be individually updated.",
                fig5_series,
            );
            print_series(
                "## Figure 6 — cluster replication (one proxy pair per cluster), cumulative ms",
                "Objects are replicated in clusters sharing a single proxy pair; members cannot be individually updated.",
                fig6_series,
            );
            print_e6();
            print_e7();
            ok = print_verify();
        }
        other => {
            eprintln!("unknown experiment `{other}`; expected e1|fig4|fig5|fig6|e6|e7|csv|verify|bench|churn|all");
            std::process::exit(2);
        }
    }
    let elapsed = started.elapsed();
    println!(
        "(regenerated in {} of real time)",
        human(elapsed)
    );
    if !ok {
        std::process::exit(1);
    }
}

fn human(d: Duration) -> String {
    if d >= Duration::from_secs(1) {
        format!("{:.1} s", d.as_secs_f64())
    } else {
        format!("{} ms", d.as_millis())
    }
}
