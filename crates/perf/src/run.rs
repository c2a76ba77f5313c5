//! Runs one workload, untraced for the end-to-end metrics or traced for the
//! per-layer ones, and turns what it measured into named metrics.

use crate::alloc;
use crate::cal;
use crate::hist::{median_of, Hist};
use crate::ledger;
use crate::offline::Offline;
use crate::rpc::{Fanin, Mix, Rpc};
use crate::trace::{self, FrameTap, NameTotals, Span, Tracer};
use crate::walk::{Large, Small, Walk};
use crate::workload::{Cfg, Check, Measured, Workload};
use bytes::Bytes;
use obiwan_wire::Message;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

pub const WORKLOADS: [&str; 5] = [
    "walk_small",
    "walk_large",
    "rpc_mix",
    "rpc_fanin",
    "offline_reintegrate",
];

/// Name and unit of every end-to-end metric, as `BENCHMARK.json` declares
/// them. Every workload reports every one.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("lmi_p50_ns", "ns"),
    ("remote_p50_us", "us"),
    ("remote_tail_us", "us"),
    ("second_p50_us", "us"),
    ("wire_bytes_per_op", "B"),
    ("peak_rss_mb", "MB"),
];

/// Name and unit of every per-layer metric of the traced phase and the
/// frame replay; the ledger rows and `ledger.residual_frac` follow them.
pub const TRACED: [(&str, &str); 33] = [
    ("core.client_self_us_per_op", "us"),
    ("core.lmi_ns", "ns"),
    ("net.call_self_us", "us"),
    ("net.calls", "count"),
    ("net.stream_frames", "count"),
    ("net.bytes_per_s", "B/s"),
    ("rmi.serve_us", "us"),
    ("rmi.serve_stream_us_per_frame", "us"),
    ("rmi.round_trips_per_batch", "count"),
    ("rmi.retries", "count"),
    ("rmi.cached_replies", "count"),
    ("rmi.stream_resumes", "count"),
    ("store.append_us", "us"),
    ("store.sync_us", "us"),
    ("store.appends", "count"),
    ("store.syncs", "count"),
    ("store.bytes", "B"),
    ("store.bytes_per_user_byte", "B/B"),
    ("store.replay_ms", "ms"),
    ("mobility.session_self_ns_per_op", "ns"),
    ("mobility.reintegrate_self_us_per_obj", "us"),
    ("alloc.count_per_op", "count"),
    ("alloc.bytes_per_op", "B"),
    ("trace.overhead_frac", "frac"),
    ("share.core", "frac"),
    ("share.mobility", "frac"),
    ("share.net", "frac"),
    ("share.rmi", "frac"),
    ("share.store", "frac"),
    ("wire.decode_ns_per_obj", "ns"),
    ("wire.encode_ns_per_obj", "ns"),
    ("wire.decode_mb_per_s", "MB/s"),
    ("wire.overhead_bytes_per_obj", "B"),
];

/// The unit of a ledger row, which its name carries.
pub fn ledger_unit(name: &str) -> &'static str {
    if name.contains("_us") {
        "us"
    } else {
        "ns"
    }
}

/// Every per-layer metric name with its unit.
pub fn per_layer_names() -> Vec<(&'static str, &'static str)> {
    let mut names = TRACED.to_vec();
    names.extend(ledger::ROWS.iter().map(|&n| (n, ledger_unit(n))));
    names.push(("ledger.residual_frac", "frac"));
    names
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value, where that means something.
    pub samples: u64,
    /// What the value is on this workload, for the reader.
    pub note: String,
}

pub struct Outcome {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    /// The declared metrics: end-to-end or per-layer.
    pub metrics: Vec<Metric>,
    /// Further lines for the reader, not part of the benchmark's contract.
    pub info: Vec<String>,
}

impl Outcome {
    /// The contract's result line.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":true,\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }

    pub fn table(&self) -> String {
        let mut out = format!(
            "== {} : attempted_ops {} failed_ops {}\n",
            self.workload, self.attempted, self.failed
        );
        for m in &self.metrics {
            out.push_str(&line(m.name, m.value, m.unit, m.samples, &m.note));
        }
        for info in &self.info {
            out.push_str(info);
        }
        out
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

fn line(name: &str, value: f64, unit: &str, samples: u64, note: &str) -> String {
    let samples = if samples > 0 {
        format!("n={samples}")
    } else {
        String::new()
    };
    format!("{name:<40} {value:>16.4} {unit:<6} {samples:<12} {note}\n")
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples: 0,
        note: String::new(),
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Set-ups per untraced run, `setup_s` being their median: at least
/// `MIN_SETUPS`, then more while they have taken under `SETUP_BUDGET_S`.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET_S: f64 = 3.0;

/// The untraced run: every end-to-end metric.
fn run_untraced<W: Workload>(cfg: &Cfg) -> Check<Outcome> {
    let mut setups = Vec::new();
    let mut workload = None;
    let setting_up = Instant::now();
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && setting_up.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        drop(workload.take());
        let before = cal::factor_now();
        let started = Instant::now();
        workload = Some(W::setup(cfg, None)?);
        let seconds = started.elapsed().as_secs_f64();
        setups.push(seconds / ((before + cal::factor_now()) / 2.0));
    }
    let mut workload = workload.expect("MIN_SETUPS is at least one");
    // The measured phase runs as `W::SLICES` equal slices, and a timing is
    // the median of its values on the slices: something else on the host
    // that slows part of a run then moves no metric, where over the whole
    // run it would move every tail. Counts and bytes are totals.
    let per_slice = (W::units(cfg) / W::SLICES).max(1);
    let slices = (0..W::SLICES)
        .map(|_| workload.measure(per_slice))
        .collect::<Check<Vec<Measured>>>()?;
    workload.verify()?;
    drop(workload);
    let over_slices =
        |f: &dyn Fn(&Measured) -> f64| median_of(&slices.iter().map(f).collect::<Vec<f64>>());
    let ops_per_s = over_slices(&|m| ratio(m.ops as f64, m.timed_ns as f64 / 1e9));
    let lmi_p50 = over_slices(&|m| m.lmi.quantile(0.5));
    let remote_p50 = over_slices(&|m| m.remote.quantile(0.5));
    let remote_tail = over_slices(&|m| m.remote.tail().1);
    let second_p50 = over_slices(&|m| m.second.quantile(0.5));
    let tail_percent = slices[0].remote.tail().0 * 100.0;
    let mut m = Measured::default();
    for slice in slices {
        m.merge(slice);
    }

    // Every timing in `m` is already scaled to the reference host speed
    // (see `cal`); the factor the run saw overall is reported beside them.
    let slots = W::SLOTS;
    let factor = ratio(m.raw_ns as f64, m.timed_ns as f64);
    let seconds = m.timed_ns as f64 / 1e9;
    let mut metrics = vec![
        Metric {
            samples: setups.len() as u64,
            note: "median; world, objects, replication, warm-up; at reference speed".into(),
            ..metric("setup_s", "s", median_of(&setups))
        },
        Metric {
            samples: m.ops,
            note: format!(
                "{}, {} client(s), {seconds:.2} s timed in {} slice(s)",
                slots.ops,
                W::CLIENTS,
                W::SLICES
            ),
            ..metric("ops_per_s", "1/s", ops_per_s)
        },
        Metric {
            samples: m.lmi.len(),
            note: format!("{}; includes the timer pair", slots.lmi),
            ..metric("lmi_p50_ns", "ns", lmi_p50)
        },
        Metric {
            samples: m.remote.len(),
            note: format!("{}, p50", slots.remote),
            ..metric("remote_p50_us", "us", remote_p50 / 1e3)
        },
        Metric {
            samples: m.remote.len(),
            note: format!("{}, p{tail_percent:.0}", slots.remote),
            ..metric("remote_tail_us", "us", remote_tail / 1e3)
        },
        Metric {
            samples: m.second.len(),
            note: slots.second.into(),
            ..metric("second_p50_us", "us", second_p50 / 1e3)
        },
        Metric {
            samples: m.wire_units,
            note: format!("{}; bytes sent + received at both ends", slots.wire_unit),
            ..metric(
                "wire_bytes_per_op",
                "B",
                ratio(m.wire_bytes as f64, m.wire_units as f64),
            )
        },
        Metric {
            note: "VmHWM".into(),
            ..metric("peak_rss_mb", "MB", peak_rss_mb())
        },
    ];
    debug_assert!(metrics
        .iter()
        .map(|m| m.name)
        .eq(END_TO_END.iter().map(|d| d.0)));
    for metric in &mut metrics {
        if !metric.value.is_finite() {
            metric.value = 0.0;
        }
    }
    let tail_line = |what: &str, h: &Hist| {
        let (q, value) = h.tail();
        line(
            &format!("  {what}_p{:.0}_us", q * 100.0),
            value / 1e3,
            "us",
            h.len(),
            "",
        )
    };
    let mut info = vec![
        line(
            "  host_speed_factor",
            factor,
            "x",
            0,
            "raw time = factor x reported time",
        ),
        tail_line(slots.lmi, &m.lmi),
        tail_line(slots.second, &m.second),
    ];
    for (name, h) in &m.info {
        let p50 = h.quantile(0.5) / 1e3;
        info.push(line(&format!("  {name}_p50_us"), p50, "us", h.len(), ""));
        info.push(tail_line(name, h));
    }
    if m.reintegrated > 0 {
        let rate = ratio(m.reintegrated as f64, m.reintegrate_ns as f64 / 1e9);
        info.push(line(
            "  reintegrate_objs_per_s",
            rate,
            "1/s",
            m.reintegrated,
            "",
        ));
    }
    Ok(Outcome {
        workload: W::NAME,
        attempted: m.attempted,
        failed: m.failed,
        metrics,
        info,
    })
}

/// Most bytes of frames the traced phase keeps for the codec replay.
const FRAME_BUDGET: u64 = 32 << 20;

struct Replay {
    decode_ns_per_obj: f64,
    encode_ns_per_obj: f64,
    decode_mb_per_s: f64,
}

fn objects_in(msg: &Message) -> usize {
    match msg {
        Message::GetReply {
            result: Ok(batch), ..
        }
        | Message::GetManyReply {
            result: Ok(batch), ..
        }
        | Message::GetManyChunk { batch, .. } => batch.replicas.len(),
        Message::PutRequest { entries, .. } | Message::UpdatePush { entries } => entries.len(),
        _ => 0,
    }
}

/// Times `Message::decode` and `Message::encode` over the kept frames,
/// three passes, and reports the median pass.
fn replay(frames: &[Bytes]) -> Replay {
    let mut decode = Vec::new();
    let mut encode = Vec::new();
    let mut decode_obj = Vec::new();
    let mut objects = 0usize;
    let bytes: usize = frames.iter().map(Bytes::len).sum();
    for _ in 0..3 {
        let (mut dec_ns, mut enc_ns, mut dec_obj_ns) = (0u64, 0u64, 0u64);
        objects = 0;
        for frame in frames {
            let started = Instant::now();
            let msg = Message::decode(black_box(frame));
            let ns = started.elapsed().as_nanos() as u64;
            dec_ns += ns;
            let Ok(msg) = msg else { continue };
            let carried = objects_in(&msg);
            if carried > 0 {
                objects += carried;
                dec_obj_ns += ns;
                let started = Instant::now();
                black_box(black_box(&msg).encode());
                enc_ns += started.elapsed().as_nanos() as u64;
            }
        }
        decode.push(dec_ns as f64);
        encode.push(enc_ns as f64);
        decode_obj.push(dec_obj_ns as f64);
    }
    Replay {
        decode_ns_per_obj: ratio(median_of(&decode_obj), objects as f64),
        encode_ns_per_obj: ratio(median_of(&encode), objects as f64),
        decode_mb_per_s: ratio(bytes as f64 / 1e6, median_of(&decode) / 1e9),
    }
}

/// Totals of one span name, zero when the trace has none.
fn totals(by_name: &BTreeMap<&'static str, NameTotals>, name: &str) -> NameTotals {
    by_name.get(name).cloned().unwrap_or_default()
}

/// The layer a span name belongs to: its prefix.
fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// The traced run: a short untraced phase for reference, the traced phase,
/// the frame replay, the ledger, and every per-layer metric.
fn run_traced<W: Workload>(cfg: &Cfg, out: &Path, ledger_batch: Duration) -> Check<Outcome> {
    let (tracer, sink) = Tracer::new();
    let (tap, kept) = FrameTap::new(FRAME_BUDGET);
    let mut workload = W::setup(cfg, Some((tracer.clone(), tap)))?;
    let units = W::units(cfg);
    let reference_units = (units * 3 / 10).max(1);
    let reference = workload.measure(reference_units)?;
    tracer.set_enabled(true);
    alloc::arm(true);
    let traced = workload.measure((units - reference_units).max(1));
    alloc::arm(false);
    tracer.set_enabled(false);
    let t = traced?;
    workload.verify()?;
    drop(workload);

    let spans: Vec<Span> = sink.drain();
    trace::check_well_formed(&spans)?;
    let by_name = trace::analyze(&spans);
    std::fs::create_dir_all(out).map_err(|e| format!("creating {out:?}: {e}"))?;
    let file = out.join(format!("{}.trace.json", W::NAME));
    std::fs::write(&file, trace::to_json(W::NAME, &spans, &t.folded))
        .map_err(|e| format!("writing {file:?}: {e}"))?;
    drop(spans);

    // Self time per layer: stored spans plus the folded leaf calls, whose
    // whole time is their own.
    let mut layer_ns: BTreeMap<&str, f64> = BTreeMap::new();
    for (name, totals) in &by_name {
        *layer_ns.entry(layer_of(name)).or_default() += totals.self_ns as f64;
    }
    for (name, folded) in &t.folded {
        *layer_ns.entry(layer_of(name)).or_default() += folded.total_ns as f64;
    }
    let all_ns: f64 = layer_ns.values().sum();
    let share = |layer: &str| ratio(layer_ns.get(layer).copied().unwrap_or(0.0), all_ns);

    let ops = t.ops as f64;
    let lmi = t.folded.get("core.invoke").cloned().unwrap_or_default();
    let call = totals(&by_name, "net.call");
    let call_stream = totals(&by_name, "net.call_stream");
    let calls = (call.count + call_stream.count) as f64;
    let frames = totals(&by_name, "core.on_frame").count as f64;
    let serve = totals(&by_name, "rmi.serve");
    let serve_stream = totals(&by_name, "rmi.serve_stream");
    let sinks = totals(&by_name, "net.sink").count as f64;
    let append = totals(&by_name, "store.append");
    let sync = totals(&by_name, "store.sync");
    let recover = totals(&by_name, "store.recover");
    let session = totals(&by_name, "mobility.session_invoke");
    let session_folded = t
        .folded
        .get("mobility.session_invoke")
        .cloned()
        .unwrap_or_default();
    let reintegrate = totals(&by_name, "mobility.reintegrate");
    let rounds = t.rounds as f64;
    let (alloc_count, alloc_bytes) = alloc::counts();
    // Scaled times: the two phases ran at different times, maybe at
    // different host speeds.
    let throughput = |m: &Measured| ratio(m.ops as f64, m.timed_ns as f64);
    let kept: Vec<Bytes> = kept.try_iter().collect();
    let replayed = replay(&kept);
    drop(kept);

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::from([
        (
            "core.client_self_us_per_op",
            ratio(layer_ns.get("core").copied().unwrap_or(0.0), ops) / 1e3,
        ),
        // The median, as the folded mean would mix in the invocations that
        // install parked chunks.
        ("core.lmi_ns", t.lmi.quantile(0.5)),
        (
            "net.call_self_us",
            ratio((call.self_ns + call_stream.self_ns) as f64, calls) / 1e3,
        ),
        ("net.calls", calls),
        ("net.stream_frames", frames),
        (
            "net.bytes_per_s",
            ratio(t.wire_bytes as f64, t.raw_ns as f64 / 1e9),
        ),
        (
            "rmi.serve_us",
            ratio(serve.self_ns as f64, serve.count as f64) / 1e3,
        ),
        (
            "rmi.serve_stream_us_per_frame",
            ratio(serve_stream.self_ns as f64, sinks) / 1e3,
        ),
        (
            "rmi.round_trips_per_batch",
            ratio(t.counters.demand_round_trips as f64, t.demand_ops as f64),
        ),
        ("rmi.retries", t.counters.rpc_retries as f64),
        ("rmi.cached_replies", t.counters.cached_replies as f64),
        ("rmi.stream_resumes", t.counters.stream_resumes as f64),
        (
            "store.append_us",
            ratio(append.total_ns as f64, append.count as f64) / 1e3,
        ),
        (
            "store.sync_us",
            ratio(sync.total_ns as f64, sync.count as f64) / 1e3,
        ),
        ("store.appends", ratio(t.wal.appends as f64, rounds)),
        ("store.syncs", ratio(t.wal.syncs as f64, rounds)),
        ("store.bytes", ratio(t.wal.bytes as f64, rounds)),
        (
            "store.bytes_per_user_byte",
            ratio(t.stored_bytes as f64, t.user_bytes as f64),
        ),
        (
            "store.replay_ms",
            ratio(recover.total_ns as f64, recover.count as f64) / 1e6,
        ),
        (
            "mobility.session_self_ns_per_op",
            ratio(
                (session.self_ns + session_folded.total_ns) as f64,
                (session.count + session_folded.count) as f64,
            ),
        ),
        (
            "mobility.reintegrate_self_us_per_obj",
            ratio(reintegrate.self_ns as f64, t.reintegrated as f64) / 1e3,
        ),
        ("alloc.count_per_op", ratio(alloc_count as f64, ops)),
        ("alloc.bytes_per_op", ratio(alloc_bytes as f64, ops)),
        (
            "trace.overhead_frac",
            1.0 - ratio(throughput(&t), throughput(&reference)),
        ),
        ("share.core", share("core")),
        ("share.mobility", share("mobility")),
        ("share.net", share("net")),
        ("share.rmi", share("rmi")),
        ("share.store", share("store")),
        ("wire.decode_ns_per_obj", replayed.decode_ns_per_obj),
        ("wire.encode_ns_per_obj", replayed.encode_ns_per_obj),
        ("wire.decode_mb_per_s", replayed.decode_mb_per_s),
        (
            "wire.overhead_bytes_per_obj",
            ratio(
                t.wire_bytes as f64 / 2.0 - t.payload_bytes as f64,
                t.wire_units as f64,
            ),
        ),
    ]);

    let rows = ledger::run(ledger_batch, &cfg.tmp)?;
    // What the ledger's prices, times the trace's counts, explain of one
    // operation of the untraced reference phase.
    let price = |name: &str| ledger::row(&rows, name);
    let harness_calls = t.folded.values().map(|f| f.count).sum::<u64>() as f64
        + by_name
            .iter()
            .filter(|(name, _)| matches!(layer_of(name), "core" | "mobility" | "store"))
            .map(|(_, totals)| totals.count)
            .sum::<u64>() as f64;
    let per_object = (price("wire.batch_encode_ns.8") + price("wire.batch_decode_ns.8")) / 8.0
        + price("core.build_batch_ns_per_obj")
        + price("core.shards.install_ns_per_obj");
    let explained = lmi.count as f64 * price("core.lmi_floor_ns")
        + harness_calls * price("util.timer_pair_ns")
        + call.count as f64 * price("net.tcp.echo_us.64B")
        + (frames + call_stream.count as f64) * price("net.tcp.stream_us_per_frame")
        + t.objects_moved as f64 * per_object
        + calls * price("rmi.replycache.begin_complete_ns")
        + append.count as f64 * price("store.wal.append_ns.gc8");
    // Raw time, like the ledger's rows. The process is pinned to one CPU,
    // so wall time per operation is the work per operation whatever the
    // number of clients.
    let per_op_reference = ratio(reference.raw_ns as f64, reference.ops as f64);
    let residual = 1.0 - ratio(ratio(explained, ops), per_op_reference);

    let mut metrics = Vec::new();
    for (name, unit) in per_layer_names() {
        let value = match values.remove(name) {
            Some(v) => v,
            None if name == "ledger.residual_frac" => residual,
            None => {
                let nanos = ledger::row(&rows, name);
                if unit == "us" {
                    nanos / 1e3
                } else {
                    nanos
                }
            }
        };
        metrics.push(metric(
            name,
            unit,
            if value.is_finite() { value } else { 0.0 },
        ));
    }
    Ok(Outcome {
        workload: W::NAME,
        attempted: reference.attempted + t.attempted,
        failed: reference.failed + t.failed,
        metrics,
        info: vec![format!(
            "  {} spans; trace written to {}\n",
            by_name.values().map(|t| t.count).sum::<u64>(),
            file.display()
        )],
    })
}

#[derive(Debug, Clone)]
pub struct Options {
    pub cfg: Cfg,
    pub trace: bool,
    /// Where a traced run writes `<workload>.trace.json`.
    pub out: std::path::PathBuf,
    /// How long one batch of a ledger row runs.
    pub ledger_batch: Duration,
}

/// Runs the workload called `name`.
pub fn run(name: &str, o: &Options) -> Check<Outcome> {
    fn go<W: Workload>(o: &Options) -> Check<Outcome> {
        if o.trace {
            run_traced::<W>(&o.cfg, &o.out, o.ledger_batch)
        } else {
            run_untraced::<W>(&o.cfg)
        }
    }
    match name {
        "walk_small" => go::<Walk<Small>>(o),
        "walk_large" => go::<Walk<Large>>(o),
        "rpc_mix" => go::<Rpc<Mix>>(o),
        "rpc_fanin" => go::<Rpc<Fanin>>(o),
        "offline_reintegrate" => go::<Offline>(o),
        other => Err(format!("unknown workload {other:?}; one of {WORKLOADS:?}")),
    }
}
