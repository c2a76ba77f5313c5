//! The layer ledger: direct calls into each layer's public functions, each
//! row the median nanoseconds per operation over at least thirty batches.
//! The rows price the steps an end-to-end operation is made of; the trace
//! says how many of each step it took.

use crate::classes::{self, PerfNode};
use crate::hist::median_of;
use bytes::Bytes;
use obiwan_core::replication::build_batch_many;
use obiwan_core::space::ObjectEntry;
use obiwan_core::{ObiObject, ObiProcess, ObiValue, ObjRef, ObjectMeta, ShardedSpace};
use obiwan_net::{MemTransport, MessageHandler, TcpTransport, Transport};
use obiwan_rmi::fault::ANNOUNCE_EVERY;
use obiwan_rmi::ReplyCache;
use obiwan_store::{FileStorage, Storage, Wal, WalOptions};
use obiwan_util::{
    Clock, ClockMode, ClusterId, CostModel, DetRng, Histogram, ObjId, RequestId, SiteId,
};
use obiwan_wire::{Encoder, FrontierEdge, Message, ReplicaBatch, ReplicaState, WireMode};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const BATCHES: usize = 31;

/// One ledger row: nanoseconds per operation.
#[derive(Debug, Clone)]
pub struct Row {
    pub name: &'static str,
    pub nanos: f64,
}

/// Every row name, in report order.
pub const ROWS: [&str; 22] = [
    "wire.batch_encode_ns.8",
    "wire.batch_encode_ns.64",
    "wire.batch_encode_ns.512",
    "wire.batch_decode_ns.8",
    "wire.batch_decode_ns.64",
    "wire.batch_decode_ns.512",
    "core.shards.install_ns_per_obj",
    "core.shards.resolve_ns",
    "core.shards.with_object_ns",
    "core.build_batch_ns_per_obj",
    "rmi.replycache.begin_complete_ns",
    "rmi.replycache.hit_ns",
    "net.mem.echo_us.64B",
    "net.tcp.echo_us.64B",
    "net.tcp.echo_us.128KiB",
    "net.tcp.stream_us_per_frame",
    "store.wal.append_ns.gc1",
    "store.wal.append_ns.gc8",
    "store.file.sync_us",
    "util.timer_pair_ns",
    "util.histogram.record_ns",
    "core.lmi_floor_ns",
];

/// Times `batch(iters)` [`BATCHES`] times, after sizing `iters` so one
/// batch takes about `target`; returns the median nanoseconds per iteration.
fn median_ns(target: Duration, mut batch: impl FnMut(u64)) -> f64 {
    let started = Instant::now();
    batch(1);
    let once = started.elapsed().as_nanos().max(1) as f64;
    let iters = ((target.as_nanos() as f64 / once) as u64).clamp(1, 1_000_000);
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let started = Instant::now();
            batch(iters);
            started.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median_of(&samples)
}

const SITE: SiteId = SiteId::new(1);
const PEER: SiteId = SiteId::new(2);

fn node(index: usize, next: Option<u64>) -> PerfNode {
    PerfNode {
        index: index as i64,
        payload: Bytes::from(vec![index as u8; 64]),
        next: next.map(|n| ObjRef::new(ObjId::new(SITE, n))),
    }
}

/// A `GetReply` carrying `objects` 64-byte nodes, as the demand path ships.
fn batch_message(objects: usize) -> Message {
    let replicas = (0..objects)
        .map(|i| {
            let mut enc = Encoder::new();
            enc.put_value(&node(i, Some(i as u64 + 201)).state());
            ReplicaState {
                id: ObjId::new(SITE, i as u64 + 200),
                class: PerfNode::CLASS.to_owned(),
                version: 1,
                state: enc.finish(),
            }
        })
        .collect();
    Message::GetReply {
        request: RequestId::new(PEER, 300),
        result: Ok(ReplicaBatch {
            root: ObjId::new(SITE, 200),
            replicas,
            frontier: vec![FrontierEdge {
                target: ObjId::new(SITE, objects as u64 + 200),
                class: PerfNode::CLASS.to_owned(),
            }],
            cluster: None,
        }),
    }
}

struct Echo;
impl MessageHandler for Echo {
    fn handle(&self, _from: SiteId, frame: Bytes) -> Option<Bytes> {
        Some(frame)
    }

    /// Seven chunk frames of one eight-object batch each, then the
    /// terminal reply: the shape of one step-50 demand reply.
    fn handle_stream(
        &self,
        _from: SiteId,
        frame: Bytes,
        sink: &mut dyn FnMut(Bytes),
    ) -> Option<Bytes> {
        for _ in 0..STREAM_FRAMES - 1 {
            sink(frame.clone());
        }
        Some(frame)
    }
}
const STREAM_FRAMES: u64 = 8;

fn wire_rows(target: Duration, rows: &mut Vec<Row>) {
    for (objects, enc_name, dec_name) in [
        (8, "wire.batch_encode_ns.8", "wire.batch_decode_ns.8"),
        (64, "wire.batch_encode_ns.64", "wire.batch_decode_ns.64"),
        (512, "wire.batch_encode_ns.512", "wire.batch_decode_ns.512"),
    ] {
        let msg = batch_message(objects);
        let frame = msg.encode();
        let encode = median_ns(target, |n| {
            for _ in 0..n {
                black_box(black_box(&msg).encode());
            }
        });
        let decode = median_ns(target, |n| {
            for _ in 0..n {
                black_box(Message::decode(black_box(&frame)).is_ok());
            }
        });
        rows.push(Row {
            name: enc_name,
            nanos: encode,
        });
        rows.push(Row {
            name: dec_name,
            nanos: decode,
        });
    }
}

fn core_rows(target: Duration, rows: &mut Vec<Row>) {
    const OBJECTS: u64 = 4096;
    let entries = || -> Vec<ObjectEntry> {
        (0..OBJECTS)
            .map(|i| ObjectEntry {
                object: Box::new(node(i as usize, None)),
                meta: ObjectMeta::replica(ObjId::new(PEER, i + 1), PEER, 1),
            })
            .collect()
    };
    // Install: each batch fills a fresh table, the entries built untimed.
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let space = ShardedSpace::new(SITE);
            let batch = entries();
            let started = Instant::now();
            for entry in batch {
                space.insert_object(entry);
            }
            started.elapsed().as_nanos() as f64 / OBJECTS as f64
        })
        .collect();
    rows.push(Row {
        name: "core.shards.install_ns_per_obj",
        nanos: median_of(&samples),
    });

    let space = ShardedSpace::new(SITE);
    for entry in entries() {
        space.insert_object(entry);
    }
    let mut rng = DetRng::new(7);
    let mut pick = move || ObjId::new(PEER, rng.next_below(OBJECTS) + 1);
    let resolve = median_ns(target, |n| {
        for _ in 0..n {
            black_box(space.resolve(pick()));
        }
    });
    rows.push(Row {
        name: "core.shards.resolve_ns",
        nanos: resolve,
    });
    let mut rng = DetRng::new(8);
    let mut pick = move || ObjId::new(PEER, rng.next_below(OBJECTS) + 1);
    let with_object = median_ns(target, |n| {
        for _ in 0..n {
            black_box(
                space
                    .with_object(pick(), |o, _| o.class_name().len())
                    .is_ok(),
            );
        }
    });
    rows.push(Row {
        name: "core.shards.with_object_ns",
        nanos: with_object,
    });

    // The provider's side of a step-50 demand over a list of masters.
    let masters = ShardedSpace::new(SITE);
    let mut next = None;
    let mut head = ObjId::new(SITE, 0);
    for i in (0..1000usize).rev() {
        head = masters.create(Box::new(node(i, next))).id();
        next = Some(head.local());
    }
    let build = median_ns(target, |n| {
        for _ in 0..n {
            let batch = build_batch_many(
                &masters,
                &[head],
                WireMode::Incremental { batch: 50 },
                || ClusterId::new(SITE, 0),
            );
            black_box(batch.is_ok());
        }
    });
    rows.push(Row {
        name: "core.build_batch_ns_per_obj",
        nanos: build / 50.0,
    });
}

fn rmi_rows(target: Duration, rows: &mut Vec<Row>) {
    let frame = Bytes::from(vec![0u8; 32]);
    let cache = ReplyCache::new(ReplyCache::DEFAULT_CAPACITY);
    let mut seq = 0u64;
    // As in a live run, the client's horizon announcements prune the cache
    // every ANNOUNCE_EVERY requests, so it never fills.
    let begin_complete = median_ns(target, |n| {
        for _ in 0..n {
            seq += 1;
            let id = RequestId::new(PEER, seq);
            black_box(cache.begin(id, 0));
            cache.complete(id, Some(frame.clone()));
            if seq.is_multiple_of(ANNOUNCE_EVERY) {
                cache.ack_horizon(PEER, seq);
            }
        }
    });
    rows.push(Row {
        name: "rmi.replycache.begin_complete_ns",
        nanos: begin_complete,
    });
    let id = RequestId::new(PEER, seq + 1);
    let _ = cache.begin(id, 0);
    cache.complete(id, Some(frame));
    let hit = median_ns(target, |n| {
        for _ in 0..n {
            black_box(cache.begin(id, 0));
        }
    });
    rows.push(Row {
        name: "rmi.replycache.hit_ns",
        nanos: hit,
    });
}

fn net_rows(target: Duration, rows: &mut Vec<Row>) {
    let small = Bytes::from(vec![7u8; 64]);
    let large = Bytes::from(vec![7u8; 128 * 1024]);
    // One chunk of eight 64-byte nodes.
    let chunk = batch_message(8).encode();

    let mem = MemTransport::new();
    mem.register(SITE, Arc::new(Echo));
    let echo = median_ns(target, |n| {
        for _ in 0..n {
            black_box(mem.call(PEER, SITE, small.clone()).is_ok());
        }
    });
    mem.shutdown();
    rows.push(Row {
        name: "net.mem.echo_us.64B",
        nanos: echo,
    });

    let tcp = TcpTransport::new();
    tcp.register(SITE, Arc::new(Echo));
    for (name, frame) in [
        ("net.tcp.echo_us.64B", &small),
        ("net.tcp.echo_us.128KiB", &large),
    ] {
        let echo = median_ns(target, |n| {
            for _ in 0..n {
                black_box(tcp.call(PEER, SITE, frame.clone()).is_ok());
            }
        });
        rows.push(Row { name, nanos: echo });
    }
    let stream = median_ns(target, |n| {
        for _ in 0..n {
            let mut frames = 0u64;
            let done = tcp.call_stream(PEER, SITE, chunk.clone(), &mut |f| {
                frames += 1;
                black_box(f);
            });
            black_box((done.is_ok(), frames));
        }
    });
    tcp.shutdown();
    rows.push(Row {
        name: "net.tcp.stream_us_per_frame",
        nanos: stream / STREAM_FRAMES as f64,
    });
}

fn store_rows(target: Duration, tmp: &Path, rows: &mut Vec<Row>) -> Result<(), String> {
    let dir = tmp.join("ledger");
    let _ = std::fs::remove_dir_all(&dir);
    let storage: Arc<dyn Storage> = Arc::new(FileStorage::open(&dir).map_err(|e| e.to_string())?);
    // The size of one journaled delta of a 256-byte node.
    let record = vec![9u8; 300];
    for (name, file, group_commit) in [
        ("store.wal.append_ns.gc1", "wal-gc1", 1),
        ("store.wal.append_ns.gc8", "wal-gc8", 8),
    ] {
        let wal = Wal::new(storage.clone(), file, WalOptions { group_commit });
        let mut failed = false;
        let append = median_ns(target, |n| {
            for _ in 0..n {
                failed |= wal.append(&record).is_err();
            }
        });
        if failed {
            return Err(format!("ledger: WAL append to {dir:?} failed"));
        }
        rows.push(Row {
            name,
            nanos: append,
        });
    }
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let appended = storage.append("sync", &record);
            let started = Instant::now();
            let synced = storage.sync("sync");
            let nanos = started.elapsed().as_nanos() as f64;
            appended
                .and(synced)
                .map(|()| nanos)
                .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    rows.push(Row {
        name: "store.file.sync_us",
        nanos: median_of(&samples),
    });
    drop(storage);
    std::fs::remove_dir_all(&dir).map_err(|e| format!("ledger: removing {dir:?}: {e}"))
}

fn util_rows(target: Duration, rows: &mut Vec<Row>) {
    let timer = median_ns(target, |n| {
        for _ in 0..n {
            black_box(Instant::now().elapsed());
        }
    });
    rows.push(Row {
        name: "util.timer_pair_ns",
        nanos: timer,
    });
    let mut hist = Histogram::new();
    let mut rng = DetRng::new(9);
    let record = median_ns(target, |n| {
        for _ in 0..n {
            hist.record(Duration::from_nanos(rng.next_below(1 << 20)));
        }
    });
    black_box(hist.len());
    rows.push(Row {
        name: "util.histogram.record_ns",
        nanos: record,
    });
}

/// An LMI hit with nothing else running: a process with no transport
/// traffic invoking `touch` on a local master. What `lmi_p50_ns` cannot go
/// below, timer pair excluded.
fn lmi_row(target: Duration, rows: &mut Vec<Row>) {
    let net: Arc<dyn Transport> = Arc::new(MemTransport::new());
    let process = ObiProcess::new(
        SITE,
        net,
        Clock::new(ClockMode::Hybrid),
        CostModel::free(),
        classes::registry(),
        SiteId::new(0),
    );
    let target_obj = process.create(node(1, None));
    let lmi = median_ns(target, |n| {
        for _ in 0..n {
            black_box(process.invoke(target_obj, "touch", ObiValue::Null).is_ok());
        }
    });
    rows.push(Row {
        name: "core.lmi_floor_ns",
        nanos: lmi,
    });
}

/// Runs every row. `target` is the time one batch of a row should take:
/// about a millisecond in a benchmark run, less in a smoke test.
pub fn run(target: Duration, tmp: &Path) -> Result<Vec<Row>, String> {
    let mut rows = Vec::with_capacity(ROWS.len());
    wire_rows(target, &mut rows);
    core_rows(target, &mut rows);
    rmi_rows(target, &mut rows);
    net_rows(target, &mut rows);
    store_rows(target, tmp, &mut rows)?;
    util_rows(target, &mut rows);
    lmi_row(target, &mut rows);
    rows.sort_by_key(|r| ROWS.iter().position(|n| *n == r.name));
    debug_assert_eq!(rows.len(), ROWS.len());
    Ok(rows)
}

/// Looks a row up by name (0 when absent).
pub fn row(rows: &[Row], name: &str) -> f64 {
    rows.iter()
        .find(|r| r.name == name)
        .map_or(0.0, |r| r.nanos)
}
