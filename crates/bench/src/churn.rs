//! Membership-churn bench: a site joins a live world and mastership is
//! handed off, while the rest of the world keeps serving.
//!
//! The world is the paper testbed (deterministic virtual time, 10 Mb/s
//! LAN, RMI ≈ 2.8 ms). One provider masters a set of counters; a fleet of
//! client sites replicates them and runs a steady `incr` + `put`
//! write-back workload, measured in ticks. The scenario then scripts the
//! two churn events the acceptance criteria name:
//!
//! * **Join.** After a warmup, a new site joins over a lossy link
//!   (default 20% frame loss) and bootstraps every exported counter
//!   through the ordinary demand pipeline — `join` → `lookup` → `get` —
//!   a few counters per tick, while the veterans keep putting. The bench
//!   records the joiner's *time to first serve* (virtual time from the
//!   `join` call to its first successful local read) and the throughput
//!   dip its bootstrap traffic causes.
//! * **Handoff.** After the join phase, the provider hands mastership of
//!   one counter to a successor site over a link degraded to the same
//!   loss rate. Clients keep writing that counter throughout: their next
//!   put is answered with `MovedMaster` and transparently redirected.
//!
//! Put accounting is by *version continuity*: every acknowledged put
//! advances the master version of its counter by exactly one, so for each
//! counter `final_version == 1 + acked_puts` iff no put was lost (applied
//! nowhere) or duplicated (applied twice). The summary reports `lost` and
//! `duplicated` across the handoff — both must be zero.
//!
//! All numbers are deterministic virtual time: shapes and ratios are
//! reproducible on any machine for a given seed.

use crate::emit::{json_head, push_array};
use obiwan_core::demo::Counter;
use obiwan_core::{ObiProcess, ObiValue, ObiWorld, ReplicationMode, RetryPolicy};
use obiwan_net::conditions;
use obiwan_util::{ObjId, SiteId};

/// Shape of one churn-bench run.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Total sites in the world once the joiner has arrived: one
    /// provider, one handoff successor, one joiner, and the rest steady
    /// clients (the name server rides outside this count).
    pub sites: usize,
    /// Counters mastered at the provider (the joiner bootstraps all of
    /// them; counter 0 is the one handed off).
    pub counters: usize,
    /// Steady-state ticks before the join — the throughput baseline.
    pub warmup_ticks: usize,
    /// Ticks of the join phase; the joiner's bootstrap is spread across
    /// them, a few counters per tick.
    pub join_ticks: usize,
    /// Ticks after the handoff (the handoff itself is scripted at the
    /// start of the first post tick).
    pub post_ticks: usize,
    /// Write-backs per steady client per tick (the joiner ramps up at
    /// one put per bootstrapped replica per tick instead).
    pub ops_per_tick: usize,
    /// Frame-loss probability on the joiner's links and on the
    /// provider–successor link during the handoff.
    pub loss: f64,
    /// Seed for the transport's loss/jitter stream.
    pub seed: u64,
}

impl ChurnConfig {
    /// The acceptance-criteria world: 128 sites, 20% loss.
    pub fn full() -> Self {
        ChurnConfig {
            sites: 128,
            counters: 8,
            warmup_ticks: 5,
            join_ticks: 5,
            post_ticks: 5,
            ops_per_tick: 1,
            loss: 0.2,
            seed: 42,
        }
    }

    /// A reduced world for CI smoke runs: same phases, 12 sites.
    pub fn smoke() -> Self {
        ChurnConfig {
            sites: 12,
            counters: 4,
            warmup_ticks: 3,
            join_ticks: 3,
            post_ticks: 3,
            ops_per_tick: 6,
            loss: 0.2,
            seed: 42,
        }
    }

    /// Steady client sites (total minus provider, successor and joiner).
    pub fn clients(&self) -> usize {
        self.sites.saturating_sub(3)
    }

    /// Ticks in the whole run.
    pub fn total_ticks(&self) -> usize {
        self.warmup_ticks + self.join_ticks + self.post_ticks
    }
}

/// One measured tick.
#[derive(Debug, Clone)]
pub struct ChurnTick {
    /// Tick index from 0.
    pub tick: usize,
    /// `"warmup"`, `"join"` or `"post"`.
    pub phase: &'static str,
    /// Acknowledged puts in this tick.
    pub acked: u64,
    /// Virtual time the tick took.
    pub virtual_ms: f64,
    /// Acknowledged puts per virtual second.
    pub ops_per_sec: f64,
}

/// The whole run, ticks plus the summary the acceptance criteria read.
#[derive(Debug, Clone)]
pub struct ChurnReport {
    /// Per-tick throughput trace.
    pub ticks: Vec<ChurnTick>,
    /// Mean throughput over the warmup ticks.
    pub baseline_ops_per_sec: f64,
    /// Worst tick throughput after the join begins, as a fraction of the
    /// baseline. The acceptance floor is 0.7.
    pub min_throughput_ratio: f64,
    /// Virtual ms from the joiner's `join` call to its first successful
    /// local read of a bootstrapped replica.
    pub time_to_first_serve_ms: f64,
    /// Puts the joiner itself got acknowledged (it serves, not just
    /// bootstraps).
    pub joiner_acked: u64,
    /// `handoff` calls the provider needed under loss (retries inside
    /// the RPC layer are not counted — this is scripted-level attempts).
    pub handoff_attempts: u64,
    /// `MovedMaster` redirects clients absorbed after the handoff,
    /// summed across all sites.
    pub moved_master_redirects: u64,
    /// Puts acknowledged but never applied (version gap). Must be 0.
    pub lost_puts: u64,
    /// Puts applied more than once (version overshoot). Must be 0.
    pub duplicated_puts: u64,
    /// Puts that returned an error (expected 0 with the patient retry
    /// policy the bench installs).
    pub put_errors: u64,
}

fn patient(site: &ObiProcess) {
    // 20% per-frame loss means ~36% of calls lose a frame somewhere;
    // 25 retries push the chance of exhausting them below 0.36^26.
    site.set_rpc_policy(RetryPolicy {
        max_retries: 25,
        ..RetryPolicy::default()
    });
}

fn counter_name(i: usize) -> String {
    format!("ctr{i}")
}

fn counter_index(name: &str) -> usize {
    name.strip_prefix("ctr")
        .and_then(|s| s.parse().ok())
        .expect("bench names are ctr{i}")
}

/// Runs the scenario and returns the full report.
pub fn churn_bench(cfg: &ChurnConfig) -> ChurnReport {
    assert!(cfg.sites >= 4, "need provider, successor, joiner and a client");
    assert!(cfg.counters >= 1 && cfg.counters <= cfg.clients());
    assert!(cfg.warmup_ticks >= 1 && cfg.join_ticks >= 1 && cfg.post_ticks >= 1);

    let mut world = ObiWorld::paper_testbed();
    world.transport().reseed(cfg.seed);
    let provider = world.add_site("provider");
    let successor = world.add_site("successor");
    let clients: Vec<SiteId> = (0..cfg.clients())
        .map(|i| world.add_site(&format!("c{i}")))
        .collect();
    // Everyone enrolls, so the joiner's ack carries the live roster.
    for site in world.sites() {
        world.site(site).join().expect("join");
    }
    patient(world.site(provider));
    for &c in &clients {
        patient(world.site(c));
    }

    let roots: Vec<_> = (0..cfg.counters)
        .map(|i| {
            let root = world.site(provider).create(Counter::new(0));
            world
                .site(provider)
                .export(root, &counter_name(i))
                .expect("export");
            root
        })
        .collect();

    // Each client replicates one counter, round-robin.
    let mut workers = Vec::with_capacity(clients.len());
    for (i, &c) in clients.iter().enumerate() {
        let k = i % cfg.counters;
        let remote = world.site(c).lookup(&counter_name(k)).expect("lookup");
        let replica = world
            .site(c)
            .get(&remote, ReplicationMode::incremental(1))
            .expect("bootstrap get");
        workers.push((c, replica, k));
    }

    // Version-continuity ledger: masters are created at version 1 and
    // every acknowledged put must advance by exactly one.
    let mut acked = vec![0u64; cfg.counters];
    let mut final_version = vec![1u64; cfg.counters];
    let mut put_errors = 0u64;

    let mut joiner: Option<SiteId> = None;
    let mut joiner_replicas: Vec<(obiwan_core::ObjRef, usize)> = Vec::new();
    let mut pending: Vec<(String, ObjId)> = Vec::new();
    let boot_per_tick = cfg.counters.div_ceil(cfg.join_ticks);
    let mut first_serve_ms = f64::NAN;
    let mut join_t0 = 0u64;
    let mut joiner_acked = 0u64;
    let mut handoff_attempts = 0u64;

    let mut ticks = Vec::with_capacity(cfg.total_ticks());
    for tick in 0..cfg.total_ticks() {
        let phase = if tick < cfg.warmup_ticks {
            "warmup"
        } else if tick < cfg.warmup_ticks + cfg.join_ticks {
            "join"
        } else {
            "post"
        };
        let t_start = world.clock().virtual_nanos();
        let mut tick_acked = 0u64;

        if tick == cfg.warmup_ticks {
            // The join begins: a new site arrives over lossy links to the
            // whole world (name server included) and enrolls.
            let j = world.add_site_with_link("joiner", conditions::paper_lan().with_loss(cfg.loss));
            patient(world.site(j));
            join_t0 = world.clock().virtual_nanos();
            let info = world.site(j).join().expect("joiner join");
            pending = info.names;
            pending.reverse(); // pop() bootstraps in name order
            joiner = Some(j);
        }

        if tick == cfg.warmup_ticks + cfg.join_ticks {
            // The handoff: the provider-successor link degrades to the
            // scenario's loss rate, then mastership of counter 0 moves.
            world.transport().with_topology_mut(|t| {
                t.set_link_symmetric(
                    provider,
                    successor,
                    conditions::paper_lan().with_loss(cfg.loss),
                )
            });
            loop {
                handoff_attempts += 1;
                match world.site(provider).handoff(roots[0], successor) {
                    Ok(_version) => break,
                    Err(e) if e.is_connectivity() => continue,
                    Err(e) => panic!("handoff failed definitively: {e}"),
                }
            }
        }

        if let Some(j) = joiner {
            // Bootstrap a slice of the remaining names through the demand
            // pipeline, serving (a local read) as soon as each lands.
            for _ in 0..boot_per_tick {
                let Some((name, _id)) = pending.pop() else { break };
                let remote = world.site(j).lookup(&name).expect("joiner lookup");
                let replica = world
                    .site(j)
                    .get(&remote, ReplicationMode::incremental(1))
                    .expect("joiner get");
                world
                    .site(j)
                    .invoke(replica, "read", ObiValue::Null)
                    .expect("joiner first read");
                if first_serve_ms.is_nan() {
                    first_serve_ms =
                        (world.clock().virtual_nanos() - join_t0) as f64 / 1e6;
                }
                joiner_replicas.push((replica, counter_index(&name)));
            }
        }

        // The steady workload: every client mutates its replica and
        // writes it back; the joiner ramps at one put per replica.
        let steady = workers
            .iter()
            .flat_map(|&w| std::iter::repeat_n(w, cfg.ops_per_tick));
        let ramp = joiner
            .into_iter()
            .flat_map(|j| joiner_replicas.iter().map(move |&(replica, k)| (j, replica, k)));
        for (site, replica, k) in steady.chain(ramp) {
            world
                .site(site)
                .invoke(replica, "incr", ObiValue::Null)
                .expect("incr");
            match world.site(site).put(replica) {
                Ok(version) => {
                    acked[k] += 1;
                    final_version[k] = final_version[k].max(version);
                    tick_acked += 1;
                    joiner_acked += u64::from(Some(site) == joiner);
                }
                Err(_) => put_errors += 1,
            }
        }

        let virtual_ms = (world.clock().virtual_nanos() - t_start) as f64 / 1e6;
        let ops_per_sec = tick_acked as f64 / (virtual_ms / 1e3).max(f64::MIN_POSITIVE);
        ticks.push(ChurnTick {
            tick,
            phase,
            acked: tick_acked,
            virtual_ms,
            ops_per_sec,
        });
    }

    let baseline_ops_per_sec = ticks[..cfg.warmup_ticks]
        .iter()
        .map(|t| t.ops_per_sec)
        .sum::<f64>()
        / cfg.warmup_ticks as f64;
    let min_throughput_ratio = ticks[cfg.warmup_ticks..]
        .iter()
        .map(|t| t.ops_per_sec / baseline_ops_per_sec.max(f64::MIN_POSITIVE))
        .fold(f64::INFINITY, f64::min);

    let mut lost_puts = 0u64;
    let mut duplicated_puts = 0u64;
    for k in 0..cfg.counters {
        let expected = 1 + acked[k];
        lost_puts += expected.saturating_sub(final_version[k]);
        duplicated_puts += final_version[k].saturating_sub(expected);
    }
    let moved_master_redirects = world
        .sites()
        .into_iter()
        .map(|s| world.site(s).metrics().snapshot().moved_master_redirects)
        .sum();

    ChurnReport {
        ticks,
        baseline_ops_per_sec,
        min_throughput_ratio,
        time_to_first_serve_ms: first_serve_ms,
        joiner_acked,
        handoff_attempts,
        moved_master_redirects,
        lost_puts,
        duplicated_puts,
        put_errors,
    }
}

/// `BENCH_churn.json` contents (schema `obiwan-bench-churn/1`).
///
/// `clock` is `"virtual"`: every number is deterministic for a given
/// seed, so the summary fields are comparable across machines.
pub fn bench_churn_json(cfg: &ChurnConfig) -> String {
    use std::fmt::Write as _;
    let report = churn_bench(cfg);
    let workload = format!(
        "{{\"sites\": {}, \"counters\": {}, \"warmup_ticks\": {}, \"join_ticks\": {}, \
         \"post_ticks\": {}, \"ops_per_tick\": {}, \"loss\": {}, \"seed\": {}}}",
        cfg.sites,
        cfg.counters,
        cfg.warmup_ticks,
        cfg.join_ticks,
        cfg.post_ticks,
        cfg.ops_per_tick,
        cfg.loss,
        cfg.seed,
    );
    let mut out = json_head("obiwan-bench-churn/1", &workload);
    push_array(
        &mut out,
        "ticks",
        report.ticks.iter().map(|t| {
            format!(
                "{{\"tick\": {}, \"phase\": \"{}\", \"acked\": {}, \"virtual_ms\": {:.3}, \
                 \"ops_per_sec\": {:.1}}}",
                t.tick, t.phase, t.acked, t.virtual_ms, t.ops_per_sec,
            )
        }),
    );
    out.push_str(",\n");
    let _ = writeln!(
        out,
        "  \"summary\": {{\"baseline_ops_per_sec\": {:.1}, \"min_throughput_ratio\": {:.3}, \
         \"time_to_first_serve_ms\": {:.3}, \"joiner_acked\": {}, \"handoff_attempts\": {}, \
         \"moved_master_redirects\": {}, \"lost_puts\": {}, \"duplicated_puts\": {}, \
         \"put_errors\": {}}}",
        report.baseline_ops_per_sec,
        report.min_throughput_ratio,
        report.time_to_first_serve_ms,
        report.joiner_acked,
        report.handoff_attempts,
        report.moved_master_redirects,
        report.lost_puts,
        report.duplicated_puts,
        report.put_errors,
    );
    out.push_str("}\n");
    out
}

/// Writes `BENCH_churn.json` into `dir`; returns the path written.
pub fn write_churn_file(
    dir: &std::path::Path,
    cfg: &ChurnConfig,
) -> std::io::Result<std::path::PathBuf> {
    let path = dir.join("BENCH_churn.json");
    std::fs::write(&path, bench_churn_json(cfg))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_meets_the_acceptance_floors() {
        let cfg = ChurnConfig::smoke();
        let report = churn_bench(&cfg);
        assert_eq!(report.ticks.len(), cfg.total_ticks());
        assert_eq!(report.put_errors, 0);
        // The joiner served while the world kept putting...
        assert!(report.time_to_first_serve_ms > 0.0);
        assert!(report.joiner_acked > 0);
        // ...and the dip its bootstrap caused stayed above the floor.
        assert!(
            report.min_throughput_ratio >= 0.7,
            "throughput dipped to {:.3} of baseline",
            report.min_throughput_ratio
        );
        // The handoff under loss moved counter 0 exactly-once: version
        // continuity holds for every counter.
        assert!(report.handoff_attempts >= 1);
        assert!(report.moved_master_redirects >= 1, "no client was redirected");
        assert_eq!(report.lost_puts, 0);
        assert_eq!(report.duplicated_puts, 0);
    }

    #[test]
    fn churn_is_deterministic_for_a_seed() {
        let cfg = ChurnConfig {
            sites: 6,
            counters: 2,
            warmup_ticks: 2,
            join_ticks: 2,
            post_ticks: 2,
            ops_per_tick: 3,
            loss: 0.2,
            seed: 7,
        };
        let a = bench_churn_json(&cfg);
        let b = bench_churn_json(&cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn churn_json_is_structurally_sound() {
        let json = bench_churn_json(&ChurnConfig {
            sites: 5,
            counters: 2,
            warmup_ticks: 1,
            join_ticks: 1,
            post_ticks: 1,
            ops_per_tick: 2,
            loss: 0.1,
            seed: 3,
        });
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("}\n"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"schema\": \"obiwan-bench-churn/1\""));
        assert!(json.contains("\"clock\": \"virtual\""));
        assert!(json.contains("\"phase\": \"warmup\""));
        assert!(json.contains("\"phase\": \"join\""));
        assert!(json.contains("\"phase\": \"post\""));
        assert!(json.contains("\"min_throughput_ratio\""));
        assert!(json.contains("\"time_to_first_serve_ms\""));
        assert!(json.contains("\"lost_puts\": 0"));
        assert!(json.contains("\"duplicated_puts\": 0"));
    }
}
