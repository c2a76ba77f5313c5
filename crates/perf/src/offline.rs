//! `offline_reintegrate`: the paper's title path, made durable. One round:
//! hoard a list, disconnect, work offline through a journaled session,
//! commit, crash, reopen the log and recover, reconnect, reintegrate.
//!
//! Durability is `Durable` with default `DurableOptions` (group commit of
//! 8) over `FileStorage`, whose sync is `File::sync_data`. The crash cuts
//! the WAL back to its last synced length before it is reopened, so
//! recovery sees only flushed bytes. Sync latency is this sandbox's file
//! system's, not a device's.
//!
//! Every round uses a fresh site id and a fresh directory, so every round
//! starts from the same state and its WAL counts repeat exactly.

use crate::classes::{PerfCounter, PerfNode, Touched};
use crate::trace::{Probe, TracedStorage, Tracer};
use crate::workload::{scaled, Cfg, Check, Measured, Slots, Tracing, WalCounts, Workload};
use crate::world::{World, PROVIDER};
use bytes::Bytes;
use obiwan_core::{ObiProcess, ObiValue, ObjRef, ReplicationMode};
use obiwan_mobility::DisconnectedSession;
use obiwan_rmi::RemoteRef;
use obiwan_store::{Durable, DurableOptions, FileStorage, RecoveredState, Storage};
use obiwan_util::{DetRng, ObjId, SiteId};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

pub const NODES: usize = 500;
pub const PAYLOAD: usize = 256;
pub const STEP: usize = 50;
pub const OFFLINE_OPS: usize = 4000;
/// Lists the rounds rotate over, so no master's version (one more per
/// round that writes it) outgrows a one-byte varint within a run.
const LISTS: usize = 4;
/// Every index ever stored is `INDEX_BASE` plus a small number, so its
/// varint has the same length in every round.
const INDEX_BASE: i64 = 1 << 20;
/// Two-byte varints for any run length.
const FIRST_CONSUMER_SITE: u32 = 1000;
const ROUNDS_PER_SECOND: f64 = 4.0;
/// Offline operations in one timed window: a few milliseconds.
const CAL_EVERY: usize = 256;

struct List {
    head: RemoteRef,
    masters: Vec<ObjRef>,
}

pub struct Offline {
    world: World,
    provider: ObiProcess,
    lists: Vec<List>,
    rng: DetRng,
    tracer: Option<Arc<Tracer>>,
    probe: Probe,
    tmp: PathBuf,
    rounds_done: u32,
    writes_done: i64,
    /// WAL appends and syncs of the first round, which every later round
    /// must repeat. (Bytes repeat only run to run: a put record holds a
    /// hash of the state as a varint, whose length follows the values.)
    wal_reference: Option<(u64, u64)>,
}

fn wal_counts(durable: &Durable) -> WalCounts {
    let stats = durable.wal_stats();
    WalCounts {
        appends: stats.appends(),
        syncs: stats.syncs(),
        bytes: stats.bytes(),
    }
}

/// Opens (or reopens) the log under `dir` and runs recovery.
fn open_log(
    tracer: &Option<Arc<Tracer>>,
    dir: &Path,
) -> Check<(Arc<TracedStorage>, Arc<Durable>, RecoveredState)> {
    let files: Arc<dyn Storage> = Arc::new(FileStorage::open(dir).map_err(|e| e.to_string())?);
    let storage = Arc::new(TracedStorage::new(files, tracer.clone()).map_err(|e| e.to_string())?);
    let (durable, recovered) = Durable::open(
        storage.clone() as Arc<dyn Storage>,
        DurableOptions::default(),
    )
    .map_err(|e| e.to_string())?;
    Ok((storage, durable, recovered))
}

impl Offline {
    /// Ends the timed window that began at `window`, at the host speed it
    /// ran at, takes the speed again, and begins the next window.
    fn close_window(&mut self, m: &mut Measured, window: &mut Instant) {
        let raw_ns = window.elapsed().as_nanos() as u64;
        m.raw_ns += raw_ns;
        m.timed_ns += self.probe.cal.scale(raw_ns);
        self.probe.cal.tick();
        *window = Instant::now();
    }

    fn round(&mut self, m: &mut Measured) -> Check<()> {
        let site = SiteId::new(FIRST_CONSUMER_SITE + self.rounds_done);
        let dir = self.tmp.join(format!("offline-{}", self.rounds_done));
        self.rounds_done += 1;
        // A run that died may have left this directory behind.
        let _ = std::fs::remove_dir_all(&dir);
        let list = self.rng.next_below(LISTS as u64) as usize;
        let head = self.lists[list].head;

        // Life A: hoard while connected, then work offline.
        let tracer = self.tracer.clone();
        let (storage, durable, recovered) = open_log(&tracer, &dir)?;
        if !recovered.is_empty() {
            return Err("offline: a fresh log recovered state".into());
        }
        let consumer = self.world.process(site);
        consumer.attach_durability(durable.clone());

        let mut window = Instant::now();
        m.attempted += 1;
        let (root, ns) = self.probe.op("core.get", || {
            consumer.get(&head, ReplicationMode::incremental(STEP))
        });
        let root = root.map_err(|e| format!("offline: hoard get failed: {e}"))?;
        m.record_info("hoard_fetch", ns);
        let mut replicas = Vec::with_capacity(NODES);
        let mut cur = root;
        for i in 0..NODES {
            m.attempted += 1;
            let (word, ns) = self.probe.op("core.invoke", || {
                consumer.invoke(cur, "touch", ObiValue::Null)
            });
            let Ok(ObiValue::I64(word)) = word else {
                return Err(format!("offline: hoard walk failed at node {i}: {word:?}"));
            };
            if i > 0 && i % STEP == 0 {
                m.record_info("hoard_fetch", ns);
            }
            replicas.push(cur);
            let next = Touched::unpack(word).next_local;
            if next == 0 {
                break;
            }
            cur = ObjRef::new(ObjId::new(PROVIDER, next));
        }
        self.close_window(m, &mut window);
        if replicas.len() != NODES {
            return Err(format!(
                "offline: hoarded {} nodes, not {NODES}",
                replicas.len()
            ));
        }
        m.demand_ops += (NODES / STEP) as u64;

        self.world.tcp.disconnect(site);
        window = Instant::now();
        let mut session = DisconnectedSession::new();
        let mut last_write = vec![0i64; NODES];
        // A seeded permutation, repeated: every node is written equally
        // often, so every round reintegrates all of them.
        let mut order: Vec<usize> = (0..NODES).collect();
        for i in (1..NODES).rev() {
            order.swap(i, self.rng.next_below(i as u64 + 1) as usize);
        }
        for k in 0..OFFLINE_OPS {
            if k % CAL_EVERY == CAL_EVERY - 1 {
                self.close_window(m, &mut window);
            }
            let node = order[k % NODES];
            self.writes_done += 1;
            let value = INDEX_BASE + self.writes_done;
            m.attempted += 1;
            let (r, ns) = self.probe.op("mobility.session_invoke", || {
                session.invoke(&consumer, replicas[node], "set_index", ObiValue::I64(value))
            });
            if r.is_ok() {
                m.lmi.record(ns);
                last_write[node] = value;
            } else {
                m.failed += 1;
            }
        }
        let (committed, ns) = self.probe.op("store.commit", || durable.commit());
        committed.map_err(|e| format!("offline: commit failed: {e}"))?;
        m.record_info("commit", ns);
        self.close_window(m, &mut window);
        let mut wal = wal_counts(&durable);
        let mut stored = storage.written();
        m.add_counters(&consumer.metrics().snapshot());

        // Crash: the process and its log handle go away, and the file
        // loses whatever was not synced.
        drop(session);
        drop(consumer);
        drop(durable);
        storage.crash().map_err(|e| e.to_string())?;
        drop(storage);

        // Life B: reopen, recover, reconnect, reintegrate.
        window = Instant::now();
        let (opened, replay_ns) = self.probe.op("store.recover", || open_log(&tracer, &dir));
        let (storage, durable, recovered) = opened?;
        m.record_info("replay", replay_ns);
        let consumer = self.world.process(site);
        consumer.attach_durability(durable.clone());
        let (installed, install_ns) = self
            .probe
            .op("core.recover_from", || consumer.recover_from(&recovered));
        let installed = installed.map_err(|e| format!("offline: recover_from failed: {e}"))?;
        let (session, resume_ns) = self.probe.op("mobility.resume", || {
            DisconnectedSession::resume(&recovered)
        });
        m.second.record(replay_ns + install_ns + resume_ns);
        if installed != NODES || session.len() != OFFLINE_OPS {
            return Err(format!(
                "offline: recovered {installed} replicas and {} ops, not {NODES} and {OFFLINE_OPS}",
                session.len()
            ));
        }
        self.world.tcp.reconnect(site);
        self.close_window(m, &mut window);
        m.attempted += 1;
        let (report, reintegrate_ns) = self
            .probe
            .op("mobility.reintegrate", || session.reintegrate(&consumer));
        self.close_window(m, &mut window);
        if !report.is_clean() || report.pushed() != NODES {
            return Err(format!(
                "offline: reintegration pushed {} of {NODES}, conflicts {:?}",
                report.pushed(),
                report.conflicts()
            ));
        }
        m.remote.record(reintegrate_ns / NODES as u64);
        m.reintegrated += NODES as u64;
        m.reintegrate_ns += reintegrate_ns;
        m.add_counters(&consumer.metrics().snapshot());
        let life_b = wal_counts(&durable);
        wal.appends += life_b.appends;
        wal.syncs += life_b.syncs;
        wal.bytes += life_b.bytes;
        stored += storage.written();

        // The round's checks, untimed.
        for (node, &master) in self.lists[list].masters.iter().enumerate() {
            let got = self.provider.invoke(master, "index", ObiValue::Null);
            if got != Ok(ObiValue::I64(last_write[node])) {
                return Err(format!(
                    "offline: master {node} holds {got:?}, last offline write was {}",
                    last_write[node]
                ));
            }
        }
        let reference = *self.wal_reference.get_or_insert((wal.appends, wal.syncs));
        if reference != (wal.appends, wal.syncs) {
            return Err(format!(
                "offline: WAL {wal:?} differs from the first round's (appends, syncs) {reference:?}"
            ));
        }
        drop(consumer);
        drop(durable);
        drop(storage);
        let (_, _, left) = open_log(&self.tracer, &dir)?;
        if !(left.dirty.is_empty() && left.ops.is_empty() && left.pending_puts.is_empty()) {
            return Err(format!(
                "offline: after a clean reintegration the log still holds {} dirty, {} ops, {} puts",
                left.dirty.len(),
                left.ops.len(),
                left.pending_puts.len()
            ));
        }
        self.world.net.deregister(site);
        std::fs::remove_dir_all(&dir).map_err(|e| format!("offline: removing {dir:?}: {e}"))?;

        m.ops += (OFFLINE_OPS + NODES) as u64;
        m.rounds += 1;
        m.wal.appends += wal.appends;
        m.wal.syncs += wal.syncs;
        m.wal.bytes += wal.bytes;
        m.stored_bytes += stored;
        m.user_bytes += (NODES * (PAYLOAD + 8)) as u64;
        m.wire_units += NODES as u64;
        m.payload_bytes += 2 * (NODES * PAYLOAD) as u64;
        m.objects_moved += 2 * NODES as u64;
        Ok(())
    }
}

impl Workload for Offline {
    const NAME: &'static str = "offline_reintegrate";
    const CLIENTS: u32 = 1;
    // One slice: a round yields one reintegration and one recovery sample,
    // and their tail percentile needs all the rounds of a run.
    const SLICES: u64 = 1;
    const SLOTS: Slots = Slots {
        ops: "round_ops_per_s",
        lmi: "offline_op_p50_ns",
        remote: "reintegrate_per_obj",
        second: "recover_p50_us",
        wire_unit: "wire_bytes_per_reintegrated_obj",
    };

    fn setup(cfg: &Cfg, tracing: Tracing) -> Check<Self> {
        let tracer = tracing.as_ref().map(|(t, _)| t.clone());
        let world = World::new(tracing);
        let provider = world.process(PROVIDER);
        let mut rng = DetRng::new(cfg.seed);
        // Local ids below 128 encode in one byte; burn them so every node
        // id, and with it every round's WAL, has the same length.
        for _ in 0..128 {
            provider.create(PerfCounter { count: 0 });
        }
        let mut lists = Vec::new();
        for k in 0..LISTS {
            let mut masters = vec![ObjRef::new(ObjId::new(PROVIDER, 0)); NODES];
            let mut next = None;
            for i in (0..NODES).rev() {
                let mut bytes = vec![0u8; PAYLOAD];
                rng.fill_bytes(&mut bytes);
                let node = provider.create(PerfNode {
                    index: INDEX_BASE,
                    payload: Bytes::from(bytes),
                    next,
                });
                masters[i] = node;
                next = Some(node);
            }
            let name = format!("offline-{k}");
            provider
                .export(masters[0], &name)
                .map_err(|e| e.to_string())?;
            // Any site may resolve the name; the provider does it here so
            // the rounds need no name-server traffic.
            let head = provider.lookup(&name).map_err(|e| e.to_string())?;
            lists.push(List { head, masters });
        }
        std::fs::create_dir_all(&cfg.tmp).map_err(|e| format!("creating {:?}: {e}", cfg.tmp))?;
        let mut offline = Offline {
            world,
            provider,
            lists,
            rng,
            probe: Probe::new(tracer.clone()),
            tracer,
            tmp: cfg.tmp.clone(),
            rounds_done: 0,
            writes_done: 0,
            wal_reference: None,
        };
        // Warm-up: one round is over 2 % of any run shorter than 12 s, and
        // longer runs scale it.
        let warm = (Self::units(cfg) / 50).max(1);
        let mut discard = Measured::default();
        for _ in 0..warm {
            offline.round(&mut discard)?;
        }
        if discard.failed > 0 {
            return Err(format!(
                "offline: {} operations failed in warm-up",
                discard.failed
            ));
        }
        Ok(offline)
    }

    fn units(cfg: &Cfg) -> u64 {
        scaled(ROUNDS_PER_SECOND, cfg.seconds, 2, 1)
    }

    fn measure(&mut self, units: u64) -> Check<Measured> {
        let mut m = Measured::default();
        let served_before = self.provider.metrics().snapshot();
        // Only the hoard and the reintegration use the network.
        let bytes_before = self.world.wire_bytes();
        for _ in 0..units {
            self.round(&mut m)?;
        }
        m.wire_bytes = self.world.wire_bytes() - bytes_before;
        // Reply-cache hits are counted where they are served.
        m.counters.cached_replies = self
            .provider
            .metrics()
            .snapshot()
            .since(&served_before)
            .cached_replies;
        m.merge_folded(self.probe.take_folded());
        Ok(m)
    }

    fn verify(&mut self) -> Check<()> {
        // Every round checked the masters, the WAL counts and the final log.
        Ok(())
    }
}
