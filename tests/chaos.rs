//! Chaos testing: random interleavings of every platform operation across
//! three sites and a shared object graph, under random disconnections.
//!
//! Whatever the sequence, the invariants must hold:
//!
//! * no operation panics — failures are `Err` values;
//! * the handle graph stays closed (live replicas never hold edges that
//!   resolve to nothing while their provider still exists);
//! * replica metadata stays sane (masters never dirty/stale, versions
//!   never go backwards on a given site);
//! * after healing the network, pushing all dirty state and refreshing,
//!   every replica agrees with its master.

use obiwan::core::demo::{Counter, LinkedItem};
use obiwan::core::space::Resolution;
use obiwan::core::{ObiValue, ObiWorld, ObjRef, ReplicationMode};
use obiwan::rmi::fault::BREAKER_COOLDOWN;
use obiwan::net::LinkModel;
use obiwan::util::SiteId;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Get { site: usize, node: usize, mode: u8, step: usize },
    Invoke { site: usize, node: usize, mutate: bool },
    Put { site: usize, node: usize },
    Refresh { site: usize, node: usize },
    Subscribe { site: usize, node: usize, push: bool },
    Disconnect { site: usize },
    Reconnect { site: usize },
    Gc { site: usize },
    Pump,
    Prefetch { site: usize, node: usize },
    /// Toggle frame duplication on a client↔provider link: the reply
    /// cache must keep duplicated mutations exactly-once.
    Duplicate { site: usize, on: bool },
    /// Toggle one-way reorder-holding on a client↔provider link:
    /// invalidations/pushes arrive late but must never corrupt state.
    Reorder { site: usize, on: bool },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..2, 0usize..6, 0u8..3, 1usize..4)
            .prop_map(|(site, node, mode, step)| Op::Get { site, node, mode, step }),
        (0usize..2, 0usize..6, proptest::bool::ANY)
            .prop_map(|(site, node, mutate)| Op::Invoke { site, node, mutate }),
        (0usize..2, 0usize..6).prop_map(|(site, node)| Op::Put { site, node }),
        (0usize..2, 0usize..6).prop_map(|(site, node)| Op::Refresh { site, node }),
        (0usize..2, 0usize..6, proptest::bool::ANY)
            .prop_map(|(site, node, push)| Op::Subscribe { site, node, push }),
        (0usize..2).prop_map(|site| Op::Disconnect { site }),
        (0usize..2).prop_map(|site| Op::Reconnect { site }),
        (0usize..2).prop_map(|site| Op::Gc { site }),
        Just(Op::Pump),
        (0usize..2, 0usize..6).prop_map(|(site, node)| Op::Prefetch { site, node }),
        (0usize..2, proptest::bool::ANY).prop_map(|(site, on)| Op::Duplicate { site, on }),
        (0usize..2, proptest::bool::ANY).prop_map(|(site, on)| Op::Reorder { site, on }),
    ]
}

struct Chaos {
    world: ObiWorld,
    clients: [SiteId; 2],
    provider: SiteId,
    nodes: Vec<ObjRef>,
    counter: ObjRef,
    /// Current (duplicate, reorder) fault toggles per client link.
    faults: [std::cell::Cell<(bool, bool)>; 2],
}

fn build() -> Chaos {
    let mut world = ObiWorld::loopback();
    let c1 = world.add_site("c1");
    let c2 = world.add_site("c2");
    let provider = world.add_site("provider");
    // A 5-node list plus a counter, all exported.
    let mut nodes = Vec::new();
    let mut next = None;
    for i in (0..5).rev() {
        let mut item = LinkedItem::new(i as i64, format!("n{i}"));
        item.set_next(next);
        let r = world.site(provider).create(item);
        next = Some(r);
        nodes.push(r);
    }
    nodes.reverse();
    world.site(provider).export(nodes[0], "head").unwrap();
    let counter = world.site(provider).create(Counter::new(0));
    world.site(provider).export(counter, "counter").unwrap();
    Chaos {
        world,
        clients: [c1, c2],
        provider,
        nodes,
        counter,
        faults: [
            std::cell::Cell::new((false, false)),
            std::cell::Cell::new((false, false)),
        ],
    }
}

impl Chaos {
    fn object(&self, node: usize) -> ObjRef {
        if node < self.nodes.len() {
            self.nodes[node]
        } else {
            self.counter
        }
    }

    fn apply(&self, op: &Op) {
        match *op {
            Op::Get { site, node, mode, step } => {
                let site = self.clients[site];
                let target = self.object(node);
                let mode = match mode {
                    0 => ReplicationMode::incremental(step),
                    1 => ReplicationMode::cluster(step),
                    _ => ReplicationMode::transitive(),
                };
                let remote = obiwan::rmi::RemoteRef::new(target.id(), self.provider);
                let _ = self.world.site(site).get(&remote, mode);
            }
            Op::Invoke { site, node, mutate } => {
                let site = self.clients[site];
                let target = self.object(node);
                let method = if node < self.nodes.len() {
                    if mutate { "set_value" } else { "touch" }
                } else if mutate {
                    "incr"
                } else {
                    "read"
                };
                let args = if method == "set_value" {
                    ObiValue::I64(7)
                } else {
                    ObiValue::Null
                };
                let _ = self.world.site(site).invoke(target, method, args);
            }
            Op::Put { site, node } => {
                let _ = self.world.site(self.clients[site]).put(self.object(node));
            }
            Op::Refresh { site, node } => {
                let _ = self.world.site(self.clients[site]).refresh(self.object(node));
            }
            Op::Subscribe { site, node, push } => {
                let _ = self
                    .world
                    .site(self.clients[site])
                    .subscribe(self.object(node), push);
            }
            Op::Disconnect { site } => self.world.disconnect(self.clients[site]),
            Op::Reconnect { site } => self.world.reconnect(self.clients[site]),
            Op::Gc { site } => {
                let _ = self.world.site(self.clients[site]).collect_garbage(false);
            }
            Op::Pump => self.world.pump(),
            Op::Prefetch { site, node } => {
                let _ = self
                    .world
                    .site(self.clients[site])
                    .prefetch(self.object(node), 3);
            }
            Op::Duplicate { site, on } => self.set_faults(site, Some(on), None),
            Op::Reorder { site, on } => self.set_faults(site, None, Some(on)),
        }
    }

    /// Rebuilds one client↔provider link from the current fault toggles.
    fn set_faults(&self, site: usize, dup: Option<bool>, reorder: Option<bool>) {
        let (mut d, mut r) = self.faults[site].get();
        if let Some(v) = dup {
            d = v;
        }
        if let Some(v) = reorder {
            r = v;
        }
        self.faults[site].set((d, r));
        let mut model = LinkModel::ideal();
        if d {
            model = model.with_duplicate(0.5);
        }
        if r {
            model = model.with_reorder(0.5);
        }
        let (s, p) = (self.clients[site], self.provider);
        self.world
            .transport()
            .with_topology_mut(|t| t.set_link_symmetric(s, p, model));
    }

    fn check_invariants(&self) {
        for &site in &self.clients {
            for node in 0..=self.nodes.len() {
                let target = self.object(node.min(self.nodes.len()));
                if let Some(meta) = self.world.site(site).meta_of(target) {
                    if meta.kind.is_master() {
                        panic!("client site holds a master for {target:?}");
                    }
                    assert!(meta.version >= 1);
                    // Closure: every edge resolves to something.
                    if let Ok(state) = self.world.site(site).state_of(target) {
                        let mut refs = Vec::new();
                        state.collect_refs(&mut refs);
                        for r in refs {
                            let res = self.world.site(site).resolution(ObjRef::new(r));
                            assert!(
                                !matches!(res, Resolution::Absent),
                                "dangling edge {r} at {site}"
                            );
                        }
                    }
                }
            }
            // Masters at the provider are never dirty or stale.
            for node in 0..=self.nodes.len() {
                let target = self.object(node.min(self.nodes.len()));
                if let Some(meta) = self.world.site(self.provider).meta_of(target) {
                    assert!(meta.kind.is_master());
                    assert!(!meta.dirty);
                    assert!(!meta.stale);
                }
            }
        }
    }

    fn check_convergence(&self) {
        // Heal everything: clear fault injection, reconnect, release any
        // reorder-held frames, and wait out breaker cooldowns so calls to
        // previously dead peers are admitted again (half-open probes).
        for site in 0..self.clients.len() {
            self.set_faults(site, Some(false), Some(false));
        }
        for &site in &self.clients {
            self.world.reconnect(site);
        }
        self.world.pump();
        self.world
            .site(self.clients[0])
            .clock()
            .charge(BREAKER_COOLDOWN);
        for &site in &self.clients {
            self.world
                .site(site)
                .put_all_dirty()
                .expect("put_all_dirty after heal");
        }
        for &site in &self.clients {
            for node in 0..=self.nodes.len() {
                let target = self.object(node.min(self.nodes.len()));
                if self.world.site(site).is_replicated(target) {
                    self.world.site(site).refresh(target).expect("refresh");
                    let local = self.world.site(site).state_of(target).unwrap();
                    let master = self.world.site(self.provider).state_of(target).unwrap();
                    assert_eq!(local, master, "replica diverged after convergence");
                }
            }
        }
    }
}

/// Case count: 48 by default, overridable via `PROPTEST_CASES` (the CI
/// `chaos-extended` job runs 256).
fn configured_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(48)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(configured_cases()))]

    #[test]
    fn random_op_sequences_preserve_invariants(
        ops in proptest::collection::vec(arb_op(), 1..60),
    ) {
        let chaos = build();
        for op in &ops {
            chaos.apply(op);
            chaos.check_invariants();
        }
        chaos.check_convergence();
        // Every lock taken during the run fed the lock-order graph; any
        // inversion the interleaving exposed is a latent deadlock.
        obiwan::util::sync::assert_no_lock_order_violations();
        obiwan::util::sync::assert_observed_edges_in_static_graph();
    }
}

#[test]
fn a_known_nasty_sequence() {
    // A hand-picked interleaving that once covered every code path:
    // replicate, mutate on both clients, disconnect mid-put, heal, put,
    // cross-subscribe, GC under proxies.
    let chaos = build();
    let seq = [
        Op::Get { site: 0, node: 0, mode: 0, step: 2 },
        Op::Get { site: 1, node: 0, mode: 1, step: 3 },
        Op::Invoke { site: 0, node: 0, mutate: true },
        Op::Invoke { site: 1, node: 1, mutate: false },
        Op::Disconnect { site: 0 },
        Op::Put { site: 0, node: 0 },
        Op::Invoke { site: 0, node: 0, mutate: true },
        Op::Reconnect { site: 0 },
        Op::Put { site: 0, node: 0 },
        Op::Subscribe { site: 1, node: 0, push: true },
        Op::Invoke { site: 0, node: 5, mutate: true },
        Op::Pump,
        Op::Gc { site: 0 },
        Op::Gc { site: 1 },
        Op::Prefetch { site: 0, node: 0 },
        // Fault injection: mutate through a duplicating link, push and
        // subscribe through a reordering one.
        Op::Duplicate { site: 0, on: true },
        Op::Invoke { site: 0, node: 2, mutate: true },
        Op::Put { site: 0, node: 2 },
        Op::Reorder { site: 1, on: true },
        Op::Subscribe { site: 1, node: 2, push: true },
        Op::Invoke { site: 1, node: 5, mutate: true },
        Op::Put { site: 1, node: 5 },
        Op::Pump,
        Op::Duplicate { site: 0, on: false },
        Op::Reorder { site: 1, on: false },
        Op::Get { site: 1, node: 2, mode: 0, step: 1 },
    ];
    for op in &seq {
        chaos.apply(op);
        chaos.check_invariants();
    }
    chaos.check_convergence();
    obiwan::util::sync::assert_no_lock_order_violations();
    obiwan::util::sync::assert_observed_edges_in_static_graph();
}
