//! Concurrency of the demand pipeline: an object fault releases the
//! process lock while the demand RPC is in flight, so unrelated local
//! invocations proceed instead of queueing behind the network.
//!
//! The test wraps the TCP transport in a gate that blocks the first
//! demand (`GetRequest`/`GetManyRequest`) frame from a chosen site until
//! released, then proves another thread completes an LMI on a local
//! object *while* the faulting thread is parked inside the RPC.

use bytes::Bytes;
use obiwan::core::demo::{register_all, Counter, LinkedItem};
use obiwan::core::{ClassRegistry, ObiProcess, ObiValue, ReplicationMode};
use obiwan::net::{MessageHandler, TcpTransport, Transport};
use obiwan::rmi::{NameServer, NameServerService, RmiServer};
use obiwan::util::{Clock, ClockMode, CostModel, Result, SiteId};
use obiwan::wire::Message;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

const NS: SiteId = SiteId::new(0);
const WATCHDOG: Duration = Duration::from_secs(10);

/// A transport decorator that parks the first demand call from
/// `gated_from` (once armed) until [`GatedTransport::release`].
struct GatedTransport {
    inner: Arc<TcpTransport>,
    gated_from: SiteId,
    armed: AtomicBool,
    entered: Mutex<Option<mpsc::Sender<()>>>,
    release: (Mutex<bool>, Condvar),
}

impl GatedTransport {
    fn new(inner: Arc<TcpTransport>, gated_from: SiteId) -> GatedTransport {
        GatedTransport {
            inner,
            gated_from,
            armed: AtomicBool::new(false),
            entered: Mutex::new(None),
            release: (Mutex::new(false), Condvar::new()),
        }
    }

    /// Arms the gate for the next demand call; a signal on the returned
    /// channel means a caller is parked inside the RPC.
    fn arm(&self) -> mpsc::Receiver<()> {
        let (tx, rx) = mpsc::channel();
        *self.entered.lock().unwrap() = Some(tx);
        *self.release.0.lock().unwrap() = false;
        self.armed.store(true, Ordering::SeqCst);
        rx
    }

    fn release(&self) {
        let mut open = self.release.0.lock().unwrap();
        *open = true;
        self.release.1.notify_all();
    }

    fn is_demand(frame: &Bytes) -> bool {
        matches!(
            Message::decode(frame),
            Ok(Message::GetRequest { .. }) | Ok(Message::GetManyRequest { .. })
        )
    }
}

impl Transport for GatedTransport {
    fn register(&self, site: SiteId, handler: Arc<dyn MessageHandler>) {
        self.inner.register(site, handler);
    }

    fn deregister(&self, site: SiteId) {
        self.inner.deregister(site);
    }

    fn call(&self, from: SiteId, to: SiteId, frame: Bytes) -> Result<Bytes> {
        if from == self.gated_from
            && Self::is_demand(&frame)
            && self.armed.swap(false, Ordering::SeqCst)
        {
            if let Some(tx) = self.entered.lock().unwrap().take() {
                let _ = tx.send(());
            }
            let open = self.release.0.lock().unwrap();
            // Bounded wait: a stuck gate should fail the test, not hang it.
            let (_guard, timeout) = self
                .release
                .1
                .wait_timeout_while(open, WATCHDOG, |open| !*open)
                .unwrap();
            assert!(!timeout.timed_out(), "gate never released");
        }
        self.inner.call(from, to, frame)
    }

    fn call_stream(
        &self,
        from: SiteId,
        to: SiteId,
        frame: Bytes,
        on_frame: &mut dyn FnMut(Bytes),
    ) -> Result<Bytes> {
        self.inner.call_stream(from, to, frame, on_frame)
    }

    fn cast(&self, from: SiteId, to: SiteId, frame: Bytes) -> Result<()> {
        self.inner.cast(from, to, frame)
    }

    fn is_reachable(&self, from: SiteId, to: SiteId) -> bool {
        self.inner.is_reachable(from, to)
    }
}

struct Rig {
    tcp: Arc<TcpTransport>,
    gate: Arc<GatedTransport>,
    processes: Vec<ObiProcess>,
}

impl Rig {
    fn new(sites: u32, gated_from: SiteId) -> Rig {
        let tcp = Arc::new(TcpTransport::new());
        let gate = Arc::new(GatedTransport::new(tcp.clone(), gated_from));
        let clock = Clock::new(ClockMode::Hybrid);
        let registry = ClassRegistry::new();
        register_all(&registry);
        gate.register(
            NS,
            Arc::new(RmiServer::new(Arc::new(NameServerService::new(
                NameServer::new(),
            )))),
        );
        let mut processes = Vec::new();
        for i in 1..=sites {
            let site = SiteId::new(i);
            let p = ObiProcess::new(
                site,
                gate.clone() as Arc<dyn Transport>,
                clock.clone(),
                CostModel::free(),
                registry.clone(),
                NS,
            );
            gate.register(site, p.message_handler());
            processes.push(p);
        }
        Rig {
            tcp,
            gate,
            processes,
        }
    }

    fn site(&self, i: usize) -> &ObiProcess {
        &self.processes[i - 1]
    }
}

impl Drop for Rig {
    fn drop(&mut self) {
        self.tcp.shutdown();
    }
}

#[test]
fn local_invocation_completes_while_a_fault_is_in_flight() {
    let rig = Arc::new(Rig::new(2, SiteId::new(1)));

    // Site 2 owns a two-node list; site 1 replicates only the head, so the
    // tail is a frontier proxy on site 1.
    let tail = rig.site(2).create(LinkedItem::new(7, "tail"));
    let head = rig.site(2).create(LinkedItem::with_next(1, "head", tail));
    rig.site(2).export(head, "head").unwrap();
    let remote = rig.site(1).lookup("head").unwrap();
    rig.site(1)
        .get(&remote, ReplicationMode::incremental(1))
        .unwrap();

    // A purely local object on site 1, untouched by the fault.
    let counter = rig.site(1).create(Counter::new(0));

    // Thread A invokes on the proxy: it faults, and the demand RPC parks
    // at the gate with the process lock *dropped*.
    let entered = rig.gate.arm();
    let faulter = {
        let rig = rig.clone();
        std::thread::spawn(move || rig.site(1).invoke(tail, "value", ObiValue::Null))
    };
    entered
        .recv_timeout(WATCHDOG)
        .expect("fault RPC never reached the gate");

    // Thread B performs an LMI on the local counter while A is parked. If
    // the fault held the lock across the RPC this would block until the
    // watchdog trips instead of completing.
    let (done_tx, done_rx) = mpsc::channel();
    let lmi = {
        let rig = rig.clone();
        std::thread::spawn(move || {
            let r = rig.site(1).invoke(counter, "incr", ObiValue::Null);
            done_tx.send(r).unwrap();
        })
    };
    let lmi_result = done_rx
        .recv_timeout(WATCHDOG)
        .expect("LMI queued behind an in-flight fault: the lock was not dropped");
    assert_eq!(lmi_result.unwrap(), ObiValue::I64(1));
    lmi.join().unwrap();

    // Unblock the fault; the invocation on the (now materialized) tail
    // must still produce the right answer.
    rig.gate.release();
    let faulted = faulter.join().unwrap().unwrap();
    assert_eq!(faulted, ObiValue::I64(7));

    let snap = rig.site(1).metrics().snapshot();
    assert_eq!(snap.object_faults, 1);
    assert!(snap.lmi_count >= 2, "lmi_count = {}", snap.lmi_count);
    assert!(snap.fault_nanos > 0 || snap.demand_round_trips > 0);
    obiwan::util::sync::assert_no_lock_order_violations();
    obiwan::util::sync::assert_observed_edges_in_static_graph();
}

#[test]
fn concurrent_faults_from_two_threads_both_resolve() {
    // No gate armed here: two threads fault different proxies at once and
    // both must materialize and answer correctly.
    let rig = Arc::new(Rig::new(3, SiteId::new(99)));
    let x = rig.site(3).create(LinkedItem::new(10, "x"));
    let y = rig.site(3).create(LinkedItem::new(20, "y"));
    let root = {
        let mut item = LinkedItem::new(0, "root");
        item.set_extra(vec![x, y]);
        rig.site(3).create(item)
    };
    rig.site(3).export(root, "root").unwrap();

    for i in 1..=2usize {
        let remote = rig.site(i).lookup("root").unwrap();
        rig.site(i)
            .get(&remote, ReplicationMode::incremental(1))
            .unwrap();
    }

    let mut joins = Vec::new();
    for (i, target) in [(1usize, x), (2usize, y)] {
        let rig = rig.clone();
        joins.push(std::thread::spawn(move || {
            rig.site(i).invoke(target, "value", ObiValue::Null)
        }));
    }
    let values: Vec<ObiValue> = joins
        .into_iter()
        .map(|j| j.join().unwrap().unwrap())
        .collect();
    assert_eq!(values, vec![ObiValue::I64(10), ObiValue::I64(20)]);
    obiwan::util::sync::assert_no_lock_order_violations();
    obiwan::util::sync::assert_observed_edges_in_static_graph();
}
