//! `rpc_mix` and `rpc_fanin`: the per-message write and RPC path. Each
//! client runs blocks of four remote operations in a seeded order: two
//! `invoke_rmi("incr")`, one LMI `incr` followed by `put`, one `refresh`.
//!
//! RMI and refresh go to a set of counters all clients share; each client
//! puts to counters only it writes. A put replaces the master's state with
//! the replica's, so a counter that took both RMI increments and puts could
//! not be checked against what was issued.

use crate::classes::PerfCounter;
use crate::trace::Probe;
use crate::workload::{scaled, Cfg, Check, Measured, Slots, Tracing, Workload};
use crate::world::{World, PROVIDER};
use obiwan_core::{ObiProcess, ObiValue, ObjRef, ReplicationMode};
use obiwan_rmi::RemoteRef;
use obiwan_util::{DetRng, SiteId};
use std::sync::Barrier;
use std::time::Instant;

/// The two shapes of the RPC workload.
pub trait RpcShape {
    const NAME: &'static str;
    const CLIENTS: u32;
    /// Counters every client invokes remotely and refreshes.
    const SHARED: usize;
    /// Counters each client alone puts to.
    const OWN: usize;
    /// Measured blocks per client per second of `--seconds`.
    const BLOCKS_PER_SECOND: f64;
}

pub struct Mix;
impl RpcShape for Mix {
    const NAME: &'static str = "rpc_mix";
    const CLIENTS: u32 = 1;
    const SHARED: usize = 512;
    const OWN: usize = 512;
    const BLOCKS_PER_SECOND: f64 = 22_000.0;
}

pub struct Fanin;
impl RpcShape for Fanin {
    const NAME: &'static str = "rpc_fanin";
    const CLIENTS: u32 = 2;
    const SHARED: usize = 64;
    const OWN: usize = 512;
    const BLOCKS_PER_SECOND: f64 = 11_000.0;
}

/// Blocks between two calibration loops: a few milliseconds.
const CAL_EVERY: u64 = 64;

#[derive(Clone, Copy)]
enum Op {
    Rmi,
    Put,
    Refresh,
}

struct Client {
    process: ObiProcess,
    shared: Vec<(RemoteRef, ObjRef)>,
    own: Vec<ObjRef>,
    rng: DetRng,
    probe: Probe,
    /// Increments issued so far, warm-up included, per counter.
    rmi_issued: Vec<u64>,
    put_issued: Vec<u64>,
}

impl Client {
    fn run(&mut self, blocks: u64) -> Measured {
        let mut m = Measured::default();
        let before = self.process.metrics().snapshot();
        let process = &self.process;
        let mut window = Instant::now();
        for k in 0..blocks {
            if k % CAL_EVERY == 0 {
                // Close the timed window at the speed it ran at, then take
                // the speed for the next one.
                let raw_ns = window.elapsed().as_nanos() as u64;
                m.raw_ns += raw_ns;
                m.timed_ns += self.probe.cal.scale(raw_ns);
                self.probe.cal.tick();
                window = Instant::now();
            }
            let mut block = [Op::Rmi, Op::Rmi, Op::Put, Op::Refresh];
            for i in (1..block.len()).rev() {
                block.swap(i, self.rng.next_below(i as u64 + 1) as usize);
            }
            for op in block {
                m.attempted += 1;
                match op {
                    Op::Rmi => {
                        let j = self.rng.next_below(self.shared.len() as u64) as usize;
                        let target = self.shared[j].0;
                        let (r, ns) = self.probe.op("core.invoke_rmi", || {
                            process.invoke_rmi(&target, "incr", ObiValue::Null)
                        });
                        if r.is_ok() {
                            m.remote.record(ns);
                            self.rmi_issued[j] += 1;
                        } else {
                            m.failed += 1;
                        }
                    }
                    Op::Put => {
                        let j = self.rng.next_below(self.own.len() as u64) as usize;
                        let replica = self.own[j];
                        let (r, ns) = self.probe.op("core.invoke", || {
                            process.invoke(replica, "incr", ObiValue::Null)
                        });
                        if r.is_err() {
                            m.failed += 1;
                            continue;
                        }
                        m.lmi.record(ns);
                        let (r, ns) = self.probe.op("core.put", || process.put(replica));
                        if r.is_ok() {
                            m.second.record(ns);
                            m.objects_moved += 1;
                            self.put_issued[j] += 1;
                        } else {
                            m.failed += 1;
                        }
                    }
                    Op::Refresh => {
                        let j = self.rng.next_below(self.shared.len() as u64) as usize;
                        let replica = self.shared[j].1;
                        let (r, ns) = self.probe.op("core.refresh", || process.refresh(replica));
                        if r.is_ok() {
                            m.record_info("refresh", ns);
                            m.objects_moved += 1;
                            m.demand_ops += 1;
                        } else {
                            m.failed += 1;
                        }
                    }
                }
            }
        }
        let raw_ns = window.elapsed().as_nanos() as u64;
        m.raw_ns += raw_ns;
        m.timed_ns += self.probe.cal.scale(raw_ns);
        m.ops = m.attempted - m.failed;
        m.counters = self.process.metrics().snapshot().since(&before);
        m.merge_folded(self.probe.take_folded());
        m
    }
}

pub struct Rpc<S: RpcShape> {
    world: World,
    provider: ObiProcess,
    shared_masters: Vec<ObjRef>,
    own_masters: Vec<Vec<ObjRef>>,
    clients: Vec<Client>,
    _shape: std::marker::PhantomData<S>,
}

impl<S: RpcShape> Rpc<S> {
    /// Runs `blocks` blocks on every client at once and merges what they
    /// measured. The clients start together and do the same work, so the
    /// timed window is the mean of the wall-clock times they each took.
    fn run(&mut self, blocks: u64) -> Measured {
        let bytes_before = self.world.wire_bytes();
        let served_before = self.provider.metrics().snapshot();
        let barrier = Barrier::new(self.clients.len() + 1);
        let parts = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .map(|client| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        client.run(blocks)
                    })
                })
                .collect();
            barrier.wait();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect::<Vec<Measured>>()
        });
        let mut m = Measured::default();
        let clients = parts.len() as u64;
        for part in parts {
            m.merge(part);
        }
        m.raw_ns /= clients;
        m.timed_ns /= clients;
        m.wire_bytes = self.world.wire_bytes() - bytes_before;
        m.wire_units = m.ops;
        // Reply-cache hits are counted where they are served.
        m.counters.cached_replies = self
            .provider
            .metrics()
            .snapshot()
            .since(&served_before)
            .cached_replies;
        m
    }
}

impl<S: RpcShape> Workload for Rpc<S> {
    const NAME: &'static str = S::NAME;
    const CLIENTS: u32 = S::CLIENTS;
    const SLICES: u64 = 10;
    const SLOTS: Slots = Slots {
        ops: "rpc_ops_per_s",
        lmi: "lmi_incr_p50_ns",
        remote: "rmi",
        second: "put_p50_us",
        wire_unit: "wire_bytes_per_remote_op",
    };

    fn setup(cfg: &Cfg, tracing: Tracing) -> Check<Self> {
        let tracer = tracing.as_ref().map(|(t, _)| t.clone());
        let world = World::new(tracing);
        let provider = world.process(PROVIDER);
        let export = |master: ObjRef| provider.export_anonymous(master).map_err(|e| e.to_string());
        let shared_masters: Vec<ObjRef> = (0..S::SHARED)
            .map(|_| provider.create(PerfCounter { count: 0 }))
            .collect();
        let shared_refs: Vec<RemoteRef> = shared_masters
            .iter()
            .map(|&m| export(m))
            .collect::<Check<_>>()?;
        let mut own_masters = Vec::new();
        let mut clients = Vec::new();
        for c in 0..S::CLIENTS {
            let process = world.process(SiteId::new(2 + c));
            let replicate = |remote: &RemoteRef| {
                process
                    .get(remote, ReplicationMode::incremental(1))
                    .map_err(|e| e.to_string())
            };
            let shared = shared_refs
                .iter()
                .map(|r| Ok((*r, replicate(r)?)))
                .collect::<Check<Vec<_>>>()?;
            let masters: Vec<ObjRef> = (0..S::OWN)
                .map(|_| provider.create(PerfCounter { count: 0 }))
                .collect();
            let own = masters
                .iter()
                .map(|&m| replicate(&export(m)?))
                .collect::<Check<Vec<_>>>()?;
            own_masters.push(masters);
            clients.push(Client {
                process,
                shared,
                own,
                rng: DetRng::new(cfg.seed ^ (u64::from(c) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                probe: Probe::new(tracer.clone()),
                rmi_issued: vec![0; S::SHARED],
                put_issued: vec![0; S::OWN],
            });
        }
        let mut rpc = Rpc {
            world,
            provider,
            shared_masters,
            own_masters,
            clients,
            _shape: std::marker::PhantomData,
        };
        // Warm-up: 2 % of the measured blocks.
        let warm = rpc.run((Self::units(cfg) / 50).max(8));
        if warm.failed > 0 {
            return Err(format!(
                "{}: {} operations failed in warm-up",
                S::NAME,
                warm.failed
            ));
        }
        Ok(rpc)
    }

    fn units(cfg: &Cfg) -> u64 {
        scaled(
            S::BLOCKS_PER_SECOND,
            cfg.seconds,
            8 * Self::SLICES,
            Self::SLICES,
        )
    }

    fn measure(&mut self, units: u64) -> Check<Measured> {
        let m = self.run(units);
        if m.counters.rpc_retries != 0 {
            return Err(format!(
                "{}: {} RPC retries on a clean loopback",
                S::NAME,
                m.counters.rpc_retries
            ));
        }
        Ok(m)
    }

    /// Every master counter must equal what was issued against it: nothing
    /// lost, nothing applied twice.
    fn verify(&mut self) -> Check<()> {
        let read = |master: ObjRef| -> Check<u64> {
            match self.provider.invoke(master, "read", ObiValue::Null) {
                Ok(ObiValue::I64(v)) => Ok(v as u64),
                other => Err(format!(
                    "{}: reading a master counter gave {other:?}",
                    S::NAME
                )),
            }
        };
        for (j, &master) in self.shared_masters.iter().enumerate() {
            let issued: u64 = self.clients.iter().map(|c| c.rmi_issued[j]).sum();
            let got = read(master)?;
            if got != issued {
                return Err(format!(
                    "{}: shared counter {j} is {got} after {issued} remote increments",
                    S::NAME
                ));
            }
        }
        for (c, masters) in self.own_masters.iter().enumerate() {
            for (j, &master) in masters.iter().enumerate() {
                let issued = self.clients[c].put_issued[j];
                let got = read(master)?;
                if got != issued {
                    return Err(format!(
                        "{}: counter {j} of client {c} is {got} after {issued} puts",
                        S::NAME
                    ));
                }
            }
        }
        Ok(())
    }
}
