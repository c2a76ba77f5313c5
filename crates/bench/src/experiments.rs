//! The paper's experiments, one function per table/figure.
//!
//! | Function | Paper artifact |
//! |---|---|
//! | [`e1_constants`] | §4.1 text: LMI = 2 µs, RMI = 2.8 ms |
//! | [`fig4`] | Figure 4: RMI vs LMI over invocation counts and sizes |
//! | [`fig5_series`] | Figure 5: incremental replication, per-object proxies |
//! | [`fig6_series`] | Figure 6: cluster replication, one proxy pair per cluster |
//! | [`verify_shapes`] | §4's bullet conclusions, asserted |

use crate::workload::{paper_list, single_object};
use obiwan_core::{ObiValue, ReplicationMode};
use obiwan_util::Histogram;
use std::time::Duration;

/// List length used by Figures 5 and 6 (paper: 1000).
pub const LIST_LEN: usize = 1000;

/// Object sizes of Figure 4 (paper: 16 B … 64 KB).
pub const FIG4_SIZES: &[usize] = &[16, 1024, 4096, 16384, 65536];

/// Invocation counts of Figure 4.
pub const FIG4_COUNTS: &[usize] = &[1, 10, 100, 1000, 10000];

/// Object sizes of Figures 5 and 6 (paper: 64 B, 1 KB, 16 KB).
pub const FIG56_SIZES: &[usize] = &[64, 1024, 16384];

/// Step sizes (objects replicated per fault) of Figures 5 and 6.
pub const FIG56_STEPS: &[usize] = &[1, 10, 100, 1000];

/// Total virtual time of `count` RMIs on one `size`-byte object.
fn rmi_total(size: usize, count: usize) -> Duration {
    let w = single_object(size);
    (0..count).map(|_| w.rmi("index")).sum()
}

/// §4.1's two constants, measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct E1Result {
    /// One local method invocation on a replica.
    pub lmi: Duration,
    /// One remote method invocation.
    pub rmi: Duration,
}

/// Measures the §4.1 constants on the paper-testbed world.
pub fn e1_constants() -> E1Result {
    // LMI: invoke on an existing local replica.
    let w = single_object(64);
    let site = w.site();
    let replica = site
        .get(&w.head, ReplicationMode::incremental(1))
        .expect("replicate");
    w.world.clock().reset();
    site.invoke(replica, "index", ObiValue::Null).expect("lmi");
    let lmi = w.world.clock().elapsed();

    // RMI: invoke the master remotely.
    let rmi = single_object(64).rmi("index");
    E1Result { lmi, rmi }
}

/// One row of Figure 4: a fixed invocation count, the RMI total, and the
/// LMI total per object size.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Row {
    /// Number of invocations performed.
    pub invocations: usize,
    /// Total time invoking via RMI (size-independent).
    pub rmi: Duration,
    /// Total time per size via LMI, *including replica creation and the
    /// final put back to the master* (paper: "the execution time of LMI
    /// includes the cost due to the creation of the replica and to update
    /// it back in the master site").
    pub lmi: Vec<(usize, Duration)>,
}

/// Total virtual time of replicating one `size`-byte object, invoking it
/// locally `count` times, and putting it back to its master.
fn lmi_total(size: usize, count: usize) -> Duration {
    let w = single_object(size);
    let site = w.site();
    let replica = site
        .get(&w.head, ReplicationMode::incremental(1))
        .expect("replicate");
    for _ in 0..count {
        site.invoke(replica, "index", ObiValue::Null).expect("lmi");
    }
    // Mark dirty so the put carries real state, as in the paper's
    // update-back-to-master accounting.
    site.invoke(replica, "set_index", ObiValue::I64(1)).expect("dirty");
    site.put(replica).expect("put");
    w.world.clock().elapsed()
}

/// Regenerates Figure 4.
pub fn fig4() -> Vec<Fig4Row> {
    FIG4_COUNTS
        .iter()
        .map(|&count| Fig4Row {
            invocations: count,
            // RMI series: object size is irrelevant (only the invocation
            // crosses the wire); use the smallest.
            rmi: rmi_total(16, count),
            lmi: FIG4_SIZES
                .iter()
                .map(|&size| (size, lmi_total(size, count)))
                .collect(),
        })
        .collect()
}

/// One point of a Figure 5/6 curve: cumulative time after the i-th list
/// invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesPoint {
    /// 1-based invocation index.
    pub invocation: usize,
    /// Cumulative elapsed time at that point.
    pub cumulative: Duration,
}

fn walk_series(size: usize, mode: ReplicationMode) -> Vec<SeriesPoint> {
    let w = paper_list(size);
    let root = w.site().get(&w.head, mode).expect("initial get");
    let points: Vec<SeriesPoint> = w
        .walk(root)
        .zip(1..)
        .map(|(_, invocation)| SeriesPoint {
            invocation,
            cumulative: w.world.clock().elapsed(),
        })
        .collect();
    assert_eq!(points.len(), LIST_LEN, "walked the whole list");
    points
}

/// Regenerates one Figure 5 curve: incremental replication (per-object
/// proxy pairs), objects of `size` bytes, `step` objects per fault.
pub fn fig5_series(size: usize, step: usize) -> Vec<SeriesPoint> {
    walk_series(size, ReplicationMode::incremental(step))
}

/// Regenerates one Figure 6 curve: cluster replication (one proxy pair per
/// cluster), objects of `size` bytes, clusters of `step` objects.
pub fn fig6_series(size: usize, step: usize) -> Vec<SeriesPoint> {
    walk_series(size, ReplicationMode::cluster(step))
}

/// One shape check: name, pass/fail, human-readable evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeCheck {
    /// What the paper claims.
    pub claim: String,
    /// Whether this implementation reproduces it.
    pub pass: bool,
    /// The numbers behind the verdict.
    pub evidence: String,
}

/// The collected verdicts over every §4 conclusion.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShapeReport {
    /// Individual checks, in paper order.
    pub checks: Vec<ShapeCheck>,
}

impl ShapeReport {
    fn check(&mut self, claim: &str, pass: bool, evidence: String) {
        self.checks.push(ShapeCheck {
            claim: claim.to_owned(),
            pass,
            evidence,
        });
    }

    /// True when every check passed.
    pub fn all_pass(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }
}

pub(crate) fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Asserts the paper's qualitative conclusions (§4.1–§4.3) against fresh
/// runs of every experiment.
pub fn verify_shapes() -> ShapeReport {
    let mut report = ShapeReport::default();

    // --- §4.1 constants -----------------------------------------------------
    let e1 = e1_constants();
    report.check(
        "§4.1: one LMI costs about 2 µs",
        e1.lmi >= Duration::from_micros(1) && e1.lmi <= Duration::from_micros(10),
        format!("measured {:?}", e1.lmi),
    );
    report.check(
        "§4.1: one RMI costs about 2.8 ms",
        e1.rmi >= Duration::from_micros(2200) && e1.rmi <= Duration::from_micros(3500),
        format!("measured {:?}", e1.rmi),
    );

    // --- Figure 4 -----------------------------------------------------------
    let rows = fig4();
    let by_count = |c: usize| rows.iter().find(|r| r.invocations == c).unwrap();
    let lmi_at = |row: &Fig4Row, size: usize| {
        row.lmi
            .iter()
            .find(|(s, _)| *s == size)
            .map(|(_, d)| *d)
            .unwrap()
    };

    let r1k = by_count(1000);
    let r10k = by_count(10000);
    let linear_ratio = ms(r10k.rmi) / ms(r1k.rmi);
    report.check(
        "Fig 4: RMI time grows linearly with invocation count",
        (8.0..=12.0).contains(&linear_ratio),
        format!("t(10000)/t(1000) = {linear_ratio:.2}"),
    );

    let lmi_small_10k = lmi_at(r10k, 16);
    report.check(
        "Fig 4: LMI beats RMI for many invocations and small objects",
        ms(r10k.rmi) / ms(lmi_small_10k) > 10.0,
        format!(
            "RMI {:.1} ms vs LMI(16 B) {:.1} ms at 10000 invocations",
            ms(r10k.rmi),
            ms(lmi_small_10k)
        ),
    );

    let r1 = by_count(1);
    let lmi_small_1 = lmi_at(r1, 16);
    let few_ratio = ms(lmi_small_1) / ms(r1.rmi);
    report.check(
        "Fig 4: for small objects and few invocations RMI and LMI are comparable",
        (0.5..=5.0).contains(&few_ratio),
        format!(
            "LMI(16 B) {:.2} ms vs RMI {:.2} ms at 1 invocation (ratio {few_ratio:.2})",
            ms(lmi_small_1),
            ms(r1.rmi)
        ),
    );

    let lmi_large_1 = lmi_at(r1, 65536);
    report.check(
        "Fig 4: replica creation dominates for large objects at few invocations",
        lmi_large_1 > r1.rmi * 5,
        format!(
            "LMI(64 KB) {:.1} ms vs RMI {:.2} ms at 1 invocation",
            ms(lmi_large_1),
            ms(r1.rmi)
        ),
    );

    // RMI is size-independent: compare two single-object RMI runs.
    let size_ratio = ms(rmi_total(65536, 100)) / ms(rmi_total(16, 100));
    report.check(
        "Fig 4: with RMI, object size has no influence on invocation time",
        (0.95..=1.05).contains(&size_ratio),
        format!("100 RMIs: 64 KB/16 B time ratio = {size_ratio:.3}"),
    );

    // --- Figure 5 -----------------------------------------------------------
    // A 64 B curve's time to first invocation and its total.
    let ends = |curve: Vec<SeriesPoint>| (curve[0].cumulative, curve[LIST_LEN - 1].cumulative);
    let (first_1, t1) = ends(fig5_series(64, 1));
    let (_, t10) = ends(fig5_series(64, 10));
    let (_, t100) = ends(fig5_series(64, 100));
    let (first_1000, t1000) = ends(fig5_series(64, 1000));
    report.check(
        "Fig 5: replicating one object per fault is the least efficient",
        t1 > t10 && t1 > t100 && t1 > t1000,
        format!(
            "64 B totals: step1 {:.0} ms, step10 {:.0} ms, step100 {:.0} ms, step1000 {:.0} ms",
            ms(t1),
            ms(t10),
            ms(t100),
            ms(t1000)
        ),
    );
    report.check(
        "Fig 5: 10-100 objects per fault is the most efficient regime",
        t10.min(t100) < t1 && t10.min(t100) < t1000,
        format!(
            "min(step10, step100) = {:.0} ms vs step1 {:.0} ms, step1000 {:.0} ms",
            ms(t10.min(t100)),
            ms(t1),
            ms(t1000)
        ),
    );
    report.check(
        "Fig 5: very large steps pay a proxy-pair creation penalty",
        t1000 > t100,
        format!("step1000 {:.0} ms > step100 {:.0} ms", ms(t1000), ms(t100)),
    );
    report.check(
        "Fig 5 (motivation §2.1): incremental replication lowers first-invocation latency",
        first_1 * 5 < first_1000,
        format!(
            "time to first invocation: step1 {:.1} ms vs step1000 {:.1} ms",
            ms(first_1),
            ms(first_1000)
        ),
    );

    // --- Figure 6 -----------------------------------------------------------
    let (_, c10) = ends(fig6_series(64, 10));
    let (_, c100) = ends(fig6_series(64, 100));
    let (_, c1000) = ends(fig6_series(64, 1000));
    report.check(
        "Fig 6: clustering beats per-object proxies at the same step size",
        c10 < t10 && c100 < t100 && c1000 < t1000,
        format!(
            "64 B totals, cluster vs incremental: step10 {:.0}/{:.0} ms, step100 {:.0}/{:.0} ms, step1000 {:.0}/{:.0} ms",
            ms(c10),
            ms(t10),
            ms(c100),
            ms(t100),
            ms(c1000),
            ms(t1000)
        ),
    );
    // "The curves are closer": the absolute spread across steps 10..1000
    // (the vertical distance between the curves, as drawn on the paper's
    // shared axis scale) shrinks with clustering because the dominant
    // per-pair cost is gone.
    let spread = |hi: Duration, lo: Duration| ms(hi) - ms(lo);
    let inc_spread = spread(t10.max(t100).max(t1000), t10.min(t100).min(t1000));
    let clu_spread = spread(c10.max(c100).max(c1000), c10.min(c100).min(c1000));
    report.check(
        "Fig 6: the curves are closer than Fig 5's (less sensitive to step size)",
        clu_spread < inc_spread,
        format!(
            "spread over steps 10-1000: cluster {clu_spread:.0} ms vs incremental {inc_spread:.0} ms"
        ),
    );

    report
}

/// E6 (extension): prefetching during think time eliminates fault latency.
///
/// The paper's footnote to §2.1 claims "a perfect mechanism of pre-fetching
/// in the background can completely eliminate the latency" of incremental
/// replication. We walk the Figure-5 list (64 B objects, step 10) twice:
/// faulting on demand, and prefetching one step ahead during think time.
/// Reported per-invocation latency excludes think time — exactly what the
/// application user experiences.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct E6Result {
    /// Worst per-invocation latency, faulting on demand (≈ one batch fetch).
    pub on_demand_worst: Duration,
    /// Worst per-invocation latency with prefetch-ahead (≈ pure LMI).
    pub prefetch_worst: Duration,
    /// Total elapsed time on demand (faults included).
    pub on_demand_total: Duration,
    /// Total elapsed with prefetch (prefetch time included — the work does
    /// not disappear, it moves out of the invocation path).
    pub prefetch_total: Duration,
}

/// Objects E6 and E7 replicate per fault, and prefetch per think time.
const PREFETCH_STEP: usize = 10;

/// Walks a fresh 64 B list in `mode`, prefetching [`PREFETCH_STEP`]
/// objects during each think time when `prefetch` is set; returns every
/// touch's latency and the total elapsed time, think time included.
fn latency_walk(mode: ReplicationMode, prefetch: bool) -> (Histogram, Duration) {
    let w = paper_list(64);
    let site = w.site();
    let root = site.get(&w.head, mode).expect("get");
    // Think time: pull one step ahead (charged to the clock, but not to
    // the invocation latency the user perceives).
    let think = || {
        if prefetch {
            let _ = site.prefetch(root, PREFETCH_STEP);
        }
    };
    let mut latency = Histogram::new();
    for d in w.walk_thinking(root, think) {
        latency.record(d);
    }
    (latency, w.world.clock().elapsed())
}

/// Runs the E6 prefetch experiment.
pub fn e6_prefetch() -> E6Result {
    let mode = ReplicationMode::incremental(PREFETCH_STEP);
    let (on_demand, on_demand_total) = latency_walk(mode, false);
    let (prefetch, prefetch_total) = latency_walk(mode, true);
    E6Result {
        on_demand_worst: on_demand.max(),
        prefetch_worst: prefetch.max(),
        on_demand_total,
        prefetch_total,
    }
}

/// E7 (extension): per-invocation latency distributions.
///
/// The paper's Figure 5 shows *cumulative* time, which hides what a user
/// feels: most invocations are 2 µs LMIs, but the faulting ones stall for a
/// whole batch fetch. This experiment reports the full latency
/// distribution per replication strategy (64 B objects, 1000-element
/// list) — the long-tail view of the same data.
#[derive(Debug, Clone)]
pub struct E7Row {
    /// Strategy label.
    pub strategy: String,
    /// Latency distribution over all 1000 invocations.
    pub latency: Histogram,
}

/// Runs the E7 latency-distribution experiment.
pub fn e7_latency_distributions() -> Vec<E7Row> {
    [
        ("incremental step 1", ReplicationMode::incremental(1), false),
        ("incremental step 10", ReplicationMode::incremental(10), false),
        ("cluster step 100", ReplicationMode::cluster(100), false),
        ("transitive", ReplicationMode::transitive(), false),
        ("incremental 10 + prefetch", ReplicationMode::incremental(10), true),
    ]
    .into_iter()
    .map(|(strategy, mode, prefetch)| E7Row {
        strategy: strategy.into(),
        latency: latency_walk(mode, prefetch).0,
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_reproduces_the_section_4_1_constants() {
        let e1 = e1_constants();
        assert_eq!(e1.lmi, Duration::from_micros(2));
        assert!(e1.rmi > Duration::from_millis(2), "{:?}", e1.rmi);
        assert!(e1.rmi < Duration::from_micros(3500), "{:?}", e1.rmi);
    }

    #[test]
    fn fig4_has_full_grid() {
        let rows = fig4();
        assert_eq!(rows.len(), FIG4_COUNTS.len());
        for row in &rows {
            assert_eq!(row.lmi.len(), FIG4_SIZES.len());
            assert!(row.rmi > Duration::ZERO);
        }
        // Totals increase with invocation count.
        for pair in rows.windows(2) {
            assert!(pair[1].rmi > pair[0].rmi);
        }
    }

    #[test]
    fn fig5_series_shows_steps_at_batch_boundaries() {
        let series = fig5_series(64, 100);
        assert_eq!(series.len(), LIST_LEN);
        // Step 100 exceeds the reply chunk size, so the batch boundary is
        // a two-invocation ramp: invocation 101 takes the fault (round
        // trip + first chunk installed inline), invocation 102 pumps the
        // parked tail chunks, and from 103 on the walk is plain LMI.
        let fault_jump = series[100].cumulative - series[99].cumulative;
        let pump = series[101].cumulative - series[100].cumulative;
        let smooth = series[103].cumulative - series[102].cumulative;
        assert!(
            fault_jump > smooth * 100,
            "fault {fault_jump:?} vs smooth {smooth:?}"
        );
        assert!(
            pump > fault_jump,
            "materializing the 92-object parked tail ({pump:?}) is the bulk \
             of the batch, deferred out of the fault window ({fault_jump:?})"
        );
    }

    #[test]
    fn series_are_deterministic() {
        let a = fig5_series(64, 10);
        let b = fig5_series(64, 10);
        assert_eq!(a, b);
    }

    #[test]
    fn cluster_series_beats_incremental_for_same_step() {
        let inc = fig5_series(64, 10).last().unwrap().cumulative;
        let clu = fig6_series(64, 10).last().unwrap().cumulative;
        assert!(clu < inc, "cluster {clu:?} vs incremental {inc:?}");
    }

    #[test]
    fn all_shapes_hold() {
        let report = verify_shapes();
        for c in &report.checks {
            assert!(c.pass, "FAILED: {} — {}", c.claim, c.evidence);
        }
        assert!(report.checks.len() >= 10);
    }
}

#[cfg(test)]
mod e6_tests {
    use super::*;

    #[test]
    fn prefetch_eliminates_fault_latency() {
        let r = e6_prefetch();
        // On demand, the worst invocation pays a whole batch fetch (tens of
        // ms); with prefetch it pays only LMI (µs).
        assert!(r.on_demand_worst > Duration::from_millis(10), "{r:?}");
        assert!(r.prefetch_worst < Duration::from_micros(50), "{r:?}");
        // The work itself does not vanish: totals are comparable.
        let ratio =
            r.prefetch_total.as_secs_f64() / r.on_demand_total.as_secs_f64();
        assert!((0.8..1.6).contains(&ratio), "total ratio {ratio}");
    }
}

#[cfg(test)]
mod e7_tests {
    use super::*;

    #[test]
    fn latency_distributions_show_the_expected_tails() {
        let rows = e7_latency_distributions();
        let by_name = |n: &str| {
            rows.iter()
                .find(|r| r.strategy.starts_with(n))
                .unwrap_or_else(|| panic!("{n} missing"))
        };
        for r in &rows {
            assert_eq!(r.latency.len(), LIST_LEN as u64);
        }
        // With step 1 every `touch` of a new node faults, so even the
        // median is a whole fetch.
        let s1 = by_name("incremental step 1");
        assert!(s1.latency.quantile(0.5) > Duration::from_millis(1));
        // For every other strategy the median is a plain LMI.
        for r in &rows {
            if r.strategy.starts_with("incremental step 1 ")
                || r.strategy == "incremental step 1"
            {
                continue;
            }
            assert!(
                r.latency.quantile(0.5) < Duration::from_micros(10),
                "{}: median {:?}",
                r.strategy,
                r.latency.quantile(0.5)
            );
        }
        // Step 10: the tail is a batch fetch, the median is an LMI.
        let s10 = by_name("incremental step 10");
        assert!(s10.latency.quantile(0.99) > Duration::from_millis(5));
        // Transitive and prefetch have no fault tail at all.
        let t = by_name("transitive");
        assert!(t.latency.max() < Duration::from_micros(50));
        let p = by_name("incremental 10 + prefetch");
        assert!(p.latency.max() < Duration::from_micros(50));
    }
}
