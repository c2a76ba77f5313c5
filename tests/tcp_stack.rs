//! The full OBIWAN stack over real TCP sockets: name service, RMI,
//! incremental replication, faulting, write-back and subscriptions, with
//! every frame crossing the loopback interface and every site serving its
//! connections on its own threads.

use obiwan::core::demo::{register_all, Counter, LinkedItem};
use obiwan::core::{ClassRegistry, ObiProcess, ObiValue, ObiWorld, ReplicationMode};
use obiwan::net::{TcpTransport, Transport};
use obiwan::rmi::{NameServer, NameServerService, RmiServer};
use obiwan::util::{Clock, ClockMode, CostModel, SiteId};
use std::sync::Arc;

const NS: SiteId = SiteId::new(0);

struct Net {
    transport: Arc<TcpTransport>,
    processes: Vec<ObiProcess>,
}

impl Net {
    fn new(sites: u32) -> Net {
        let transport = Arc::new(TcpTransport::new());
        let clock = Clock::new(ClockMode::Hybrid);
        let registry = ClassRegistry::new();
        register_all(&registry);
        transport.register(
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
                transport.clone() as Arc<dyn Transport>,
                clock.clone(),
                CostModel::free(),
                registry.clone(),
                NS,
            );
            transport.register(site, p.message_handler());
            processes.push(p);
        }
        Net {
            transport,
            processes,
        }
    }

    fn site(&self, i: usize) -> &ObiProcess {
        &self.processes[i - 1]
    }
}

impl Drop for Net {
    fn drop(&mut self) {
        self.transport.shutdown();
    }
}

#[test]
fn incremental_replication_over_tcp() {
    let net = Net::new(2);
    let c = net.site(2).create(LinkedItem::new(3, "C"));
    let b = net.site(2).create(LinkedItem::with_next(2, "B", c));
    let a = net.site(2).create(LinkedItem::with_next(1, "A", b));
    net.site(2).export(a, "graph").unwrap();

    let remote = net.site(1).lookup("graph").unwrap();
    let a1 = net
        .site(1)
        .get(&remote, ReplicationMode::incremental(1))
        .unwrap();
    let sum = net.site(1).invoke(a1, "sum_rest", ObiValue::Null).unwrap();
    assert_eq!(sum, ObiValue::I64(6));
    assert_eq!(net.site(1).metrics().snapshot().object_faults, 2);
    // Real bytes crossed real sockets.
    assert!(net.transport.metrics().snapshot().bytes_sent > 0);
}

#[test]
fn rmi_and_put_over_tcp() {
    let net = Net::new(3);
    let counter = net.site(1).create(Counter::new(0));
    net.site(1).export(counter, "hits").unwrap();

    let remote = net.site(2).lookup("hits").unwrap();
    net.site(2)
        .invoke_rmi(&remote, "incr", ObiValue::Null)
        .unwrap();

    let remote3 = net.site(3).lookup("hits").unwrap();
    let r3 = net
        .site(3)
        .get(&remote3, ReplicationMode::incremental(1))
        .unwrap();
    net.site(3).invoke(r3, "add", ObiValue::I64(10)).unwrap();
    net.site(3).put(r3).unwrap();

    let v = net.site(1).invoke(counter, "read", ObiValue::Null).unwrap();
    assert_eq!(v, ObiValue::I64(11));
}

#[test]
fn subscriptions_push_over_tcp() {
    let net = Net::new(2);
    let master = net.site(1).create(Counter::new(0));
    net.site(1).export(master, "c").unwrap();
    let remote = net.site(2).lookup("c").unwrap();
    let replica = net
        .site(2)
        .get(&remote, ReplicationMode::incremental(1))
        .unwrap();
    net.site(2).subscribe(replica, true).unwrap();
    net.site(1).invoke(master, "incr", ObiValue::Null).unwrap();
    // The push is asynchronous over a real socket: poll briefly.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(3);
    loop {
        net.site(2).drain_inbox();
        let v = net.site(2).invoke(replica, "read", ObiValue::Null).unwrap();
        if v == ObiValue::I64(1) {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "push never arrived");
        std::thread::yield_now();
    }
}

#[test]
fn concurrent_clients_over_tcp() {
    let net = Arc::new(Net::new(4));
    let counter = net.site(1).create(Counter::new(0));
    net.site(1).export(counter, "shared").unwrap();
    let mut joins = Vec::new();
    for i in 2..=4usize {
        let net = net.clone();
        joins.push(std::thread::spawn(move || {
            let remote = net.site(i).lookup("shared").unwrap();
            for _ in 0..20 {
                net.site(i)
                    .invoke_rmi(&remote, "incr", ObiValue::Null)
                    .unwrap();
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    let v = net.site(1).invoke(counter, "read", ObiValue::Null).unwrap();
    assert_eq!(v, ObiValue::I64(60));
}

#[test]
fn concurrent_puts_with_default_policy_all_land() {
    let net = Arc::new(Net::new(4));
    let master = net.site(1).create(Counter::new(0));
    net.site(1).export(master, "c").unwrap();

    // Each client replicates, edits, puts — last writer wins, but every put
    // must succeed and bump the version.
    let mut joins = Vec::new();
    for i in 2..=4usize {
        let net = net.clone();
        joins.push(std::thread::spawn(move || {
            let remote = net.site(i).lookup("c").unwrap();
            let r = net
                .site(i)
                .get(&remote, ReplicationMode::incremental(1))
                .unwrap();
            net.site(i)
                .invoke(r, "add", ObiValue::I64(i as i64))
                .unwrap();
            net.site(i).put(r).unwrap()
        }));
    }
    let mut versions: Vec<u64> = joins.into_iter().map(|j| j.join().unwrap()).collect();
    versions.sort_unstable();
    assert_eq!(versions, vec![2, 3, 4]);
    let meta = net.site(1).meta_of(master).unwrap();
    assert_eq!(meta.version, 4);
}

#[test]
fn invalidations_flow_between_threads() {
    let net = Net::new(3);
    let master = net.site(1).create(Counter::new(0));
    net.site(1).export(master, "c").unwrap();
    let r2 = {
        let remote = net.site(2).lookup("c").unwrap();
        net.site(2)
            .get(&remote, ReplicationMode::incremental(1))
            .unwrap()
    };
    net.site(2).subscribe(r2, false).unwrap();
    // A third site updates through RMI; S2's replica must go stale.
    let remote = net.site(3).lookup("c").unwrap();
    net.site(3)
        .invoke_rmi(&remote, "incr", ObiValue::Null)
        .unwrap();
    // The one-way invalidate races the assertion; poll briefly.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(3);
    loop {
        net.site(2).drain_inbox();
        if net.site(2).meta_of(r2).map(|m| m.stale).unwrap_or(false) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "invalidation never arrived"
        );
        std::thread::yield_now();
    }
}

#[test]
fn same_program_runs_on_both_transports() {
    // The API is transport-agnostic: identical results over the simulated
    // transport and real sockets.
    let run_tcp = || {
        let net = Net::new(2);
        let x = net.site(2).create(Counter::new(5));
        net.site(2).export(x, "x").unwrap();
        let remote = net.site(1).lookup("x").unwrap();
        let r = net
            .site(1)
            .get(&remote, ReplicationMode::incremental(1))
            .unwrap();
        net.site(1).invoke(r, "add", ObiValue::I64(10)).unwrap();
        net.site(1).put(r).unwrap();
        net.site(2).invoke(x, "read", ObiValue::Null).unwrap()
    };
    let run_sim = || {
        let mut world = ObiWorld::loopback();
        let s1 = world.add_site("S1");
        let s2 = world.add_site("S2");
        let x = world.site(s2).create(Counter::new(5));
        world.site(s2).export(x, "x").unwrap();
        let remote = world.site(s1).lookup("x").unwrap();
        let r = world
            .site(s1)
            .get(&remote, ReplicationMode::incremental(1))
            .unwrap();
        world.site(s1).invoke(r, "add", ObiValue::I64(10)).unwrap();
        world.site(s1).put(r).unwrap();
        world.site(s2).invoke(x, "read", ObiValue::Null).unwrap()
    };
    assert_eq!(run_tcp(), run_sim());
    assert_eq!(run_tcp(), ObiValue::I64(15));
}
