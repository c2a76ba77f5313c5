//! Membership churn: sites join a live world, hand mastership off, and
//! leave (gracefully or by crashing) — all without quiescing, and all
//! under frame loss.
//!
//! The invariants:
//!
//! * a joiner enrolls exactly once and bootstraps through the ordinary
//!   demand pipeline while the rest of the world keeps serving;
//! * at most one site masters a root at any time, and after healing
//!   exactly one does;
//! * no put is lost or duplicated across a mastership handoff — the
//!   master version advances by exactly one per acknowledged put,
//!   through redirects and retries alike;
//! * departed peers stop consuming connectivity state (breaker slots,
//!   probe budget) at every site that hears the leave, and stop being sent
//!   consistency notices.

use obiwan::core::demo::Counter;
use obiwan::core::{
    BreakerState, ObiProcess, ObiValue, ObiWorld, ObjRef, ReplicationMode, RetryPolicy,
};
use obiwan::net::LinkModel;
use obiwan::rmi::fault::BREAKER_THRESHOLD;
use obiwan::util::SiteId;
use proptest::prelude::*;

/// 20% independent per-frame loss — the scenario the acceptance criteria
/// script. Retries are sized so the chance of exhausting them is
/// negligible (0.2^26) and every operation is expected to land.
const LOSS: f64 = 0.2;

fn lossy(world: &ObiWorld, a: SiteId, b: SiteId, loss: f64) {
    world
        .transport()
        .with_topology_mut(|t| t.set_link_symmetric(a, b, LinkModel::ideal().with_loss(loss)));
}

fn patient(site: &ObiProcess) {
    site.set_rpc_policy(RetryPolicy {
        max_retries: 25,
        ..RetryPolicy::default()
    });
}

#[test]
fn joiner_enrolls_once_and_bootstraps_under_loss() {
    let mut world = ObiWorld::loopback();
    let s1 = world.add_site("veteran");
    world.site(s1).join().unwrap();
    let ctr = world.site(s1).create(Counter::new(41));
    world.site(s1).export(ctr, "hits").unwrap();

    let s2 = world.add_site("joiner");
    world.transport().reseed(11);
    lossy(&world, s2, obiwan::core::NAME_SERVER_SITE, LOSS);
    lossy(&world, s2, s1, LOSS);
    patient(world.site(s2));

    // Join retries under loss dedupe at the name server: one roster entry,
    // and the ack carries the full bootstrap view.
    let info = world.site(s2).join().unwrap();
    assert_eq!(info.peers, vec![s1]);
    assert_eq!(info.names, vec![("hits".to_string(), ctr.id())]);

    // The joiner replicates and writes back through the same lossy links
    // while the veteran keeps serving; the put applies exactly once.
    let remote = world.site(s2).lookup("hits").unwrap();
    let replica = world
        .site(s2)
        .get(&remote, ReplicationMode::incremental(1))
        .unwrap();
    world.site(s2).invoke(replica, "incr", ObiValue::Null).unwrap();
    assert_eq!(world.site(s2).put(replica).unwrap(), 2);
    assert_eq!(
        world.site(s1).invoke(ctr, "read", ObiValue::Null).unwrap(),
        ObiValue::I64(42)
    );

    obiwan::util::sync::assert_no_lock_order_violations();
    obiwan::util::sync::assert_observed_edges_in_static_graph();
}

#[test]
fn graceful_leave_retires_the_peer_everywhere() {
    let mut world = ObiWorld::loopback();
    let s1 = world.add_site("stayer");
    let s2 = world.add_site("leaver");
    world.site(s1).join().unwrap();
    world.site(s2).join().unwrap();
    assert!(world.site(s1).ping(s2).is_ok());

    // The leave announcement itself rides a healed link (a site planning a
    // graceful exit waits for connectivity; a lost frame degrades to the
    // crash-leave path below, never to corruption).
    world.site(s2).leave(&[s1]);
    world.pump();
    assert_eq!(world.site(s1).metrics().snapshot().peers_retired, 1);
    world.retire_site(s2);

    // The name server dropped the leaver: a later joiner doesn't see it,
    // and the stayer's breaker starts clean if the id ever returns.
    let s3 = world.add_site("late");
    assert_eq!(world.site(s3).join().unwrap().peers, vec![s1]);
    assert_eq!(world.site(s1).breaker_state(s2), BreakerState::Closed);

    obiwan::util::sync::assert_no_lock_order_violations();
    obiwan::util::sync::assert_observed_edges_in_static_graph();
}

/// A subscriber that leaves is sent nothing more: its `Leave` ends its
/// subscriptions at the master, whose next writes push to no one. (The
/// site stays registered with the transport, which would not count a send
/// to a site it no longer knows.)
#[test]
fn a_subscriber_that_leaves_is_sent_no_more_notices() {
    let mut world = ObiWorld::loopback();
    let c = world.add_site("subscriber");
    let p = world.add_site("master");
    let ctr = world.site(p).create(Counter::new(0));
    world.site(p).export(ctr, "ctr").unwrap();
    let remote = world.site(c).lookup("ctr").unwrap();
    let local = world
        .site(c)
        .get(&remote, ReplicationMode::incremental(1))
        .unwrap();
    world.site(c).subscribe(local, true).unwrap();
    world.site(c).leave(&[p]);
    world.pump();

    let sent = || world.transport().metrics().snapshot().messages_sent;
    let before = sent();
    for _ in 0..10 {
        world.site(p).invoke(ctr, "incr", ObiValue::Null).unwrap();
    }
    world.pump();
    assert_eq!(sent() - before, 0, "the master still pushes to a site that left");

    obiwan::util::sync::assert_no_lock_order_violations();
    obiwan::util::sync::assert_observed_edges_in_static_graph();
}

#[test]
fn crash_leave_is_noticed_and_retired_under_loss() {
    let mut world = ObiWorld::loopback();
    let s1 = world.add_site("survivor");
    let s2 = world.add_site("victim");
    world.site(s1).join().unwrap();
    world.site(s2).join().unwrap();
    world.transport().reseed(13);
    lossy(&world, s1, s2, LOSS);
    assert!(world.site(s1).ping(s2).is_ok());

    // The victim vanishes without a word: no Leave frame, no roster
    // cleanup. The survivor's breaker opens after repeated failures...
    world.retire_site(s2);
    let threshold = BREAKER_THRESHOLD;
    for _ in 0..threshold {
        assert!(world.site(s1).ping(s2).is_err());
    }
    assert_eq!(world.site(s1).breaker_state(s2), BreakerState::Open);
    // ...and once the departure is confirmed out of band, retiring the
    // peer frees its slot instead of probing a dead address forever.
    world.site(s1).retire_peer(s2);
    assert_eq!(world.site(s1).metrics().snapshot().peers_retired, 1);
    assert_eq!(world.site(s1).breaker_state(s2), BreakerState::Closed);

    // A crash leaves the roster stale by design — only an explicit leave
    // (from anyone who confirmed the death) scrubs it.
    let s3 = world.add_site("late");
    assert_eq!(world.site(s3).join().unwrap().peers, vec![s1, s2]);

    obiwan::util::sync::assert_no_lock_order_violations();
    obiwan::util::sync::assert_observed_edges_in_static_graph();
}

#[test]
fn handoff_under_loss_loses_and_duplicates_nothing() {
    let mut world = ObiWorld::loopback();
    let c = world.add_site("client");
    let m1 = world.add_site("master-1");
    let m2 = world.add_site("master-2");
    world.transport().reseed(17);
    for (a, b) in [(c, m1), (c, m2), (m1, m2)] {
        lossy(&world, a, b, LOSS);
    }
    patient(world.site(c));
    patient(world.site(m1));

    let root = world.site(m1).create(Counter::new(0));
    world.site(m1).export(root, "ctr").unwrap();
    let remote = world.site(c).lookup("ctr").unwrap();
    let replica = world
        .site(c)
        .get(&remote, ReplicationMode::incremental(1))
        .unwrap();

    // Ten write-backs through 20% loss, with mastership migrating mid-run.
    // Exactly-once shows in the version sequence: each acknowledged put
    // advances the master version by precisely one — a lost put would
    // stall it, a duplicated one (replayed frame, blind retry, or a
    // re-application across the redirect) would overshoot.
    const ROUNDS: u64 = 10;
    for round in 1..=ROUNDS {
        world.site(c).invoke(replica, "incr", ObiValue::Null).unwrap();
        let version = world.site(c).put(replica).unwrap();
        assert_eq!(version, 1 + round, "put must apply exactly once");
        if round == ROUNDS / 2 {
            // The handoff RPC rides the same lossy link; its retries
            // dedupe at the successor exactly like a put's.
            let v = world.site(m1).handoff(root, m2).unwrap();
            assert_eq!(v, 1 + round);
            assert!(world.site(m2).meta_of(root).unwrap().kind.is_master());
        }
    }
    // One redirect moved the client to the successor; the state arrived
    // intact: every increment is accounted for at the new master.
    assert_eq!(world.site(c).metrics().snapshot().moved_master_redirects, 1);
    assert_eq!(
        world.site(m2).invoke(root, "read", ObiValue::Null).unwrap(),
        ObiValue::I64(ROUNDS as i64)
    );
    let masters = [m1, m2]
        .iter()
        .filter(|&&s| world.site(s).meta_of(root).is_some_and(|m| m.kind.is_master()))
        .count();
    assert_eq!(masters, 1, "exactly one master after the handoff");

    obiwan::util::sync::assert_no_lock_order_violations();
    obiwan::util::sync::assert_observed_edges_in_static_graph();
}

// ---------------------------------------------------------------------------
// Property: any interleaving of handoffs and retried puts applies each put
// exactly once, on exactly one master.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum ChurnOp {
    /// Mutate the client replica and write it back (with retries).
    IncrPut,
    /// Hand mastership from wherever it is to the other master site.
    Handoff,
    /// Toggle 20% loss on every link.
    Loss(bool),
}

fn arb_churn_op() -> impl Strategy<Value = ChurnOp> {
    prop_oneof![
        Just(ChurnOp::IncrPut),
        Just(ChurnOp::IncrPut),
        Just(ChurnOp::Handoff),
        proptest::bool::ANY.prop_map(ChurnOp::Loss),
    ]
}

struct ChurnRig {
    world: ObiWorld,
    client: SiteId,
    masters: [SiteId; 2],
    root: ObjRef,
    replica: ObjRef,
    /// Where mastership currently is (index into `masters`), as far as a
    /// completed handoff reports; a failed handoff leaves it unchanged and
    /// records the attempt for the healing phase.
    at: usize,
    pending_handoff: Option<usize>,
    version: u64,
    increments: i64,
}

impl ChurnRig {
    fn build(seed: u64) -> Self {
        let mut world = ObiWorld::loopback();
        let client = world.add_site("client");
        let m1 = world.add_site("m1");
        let m2 = world.add_site("m2");
        world.transport().reseed(seed);
        for s in [client, m1, m2] {
            patient(world.site(s));
        }
        let root = world.site(m1).create(Counter::new(0));
        world.site(m1).export(root, "ctr").unwrap();
        let remote = world.site(client).lookup("ctr").unwrap();
        let replica = world
            .site(client)
            .get(&remote, ReplicationMode::incremental(1))
            .unwrap();
        ChurnRig {
            world,
            client,
            masters: [m1, m2],
            root,
            replica,
            at: 0,
            pending_handoff: None,
            version: 1,
            increments: 0,
        }
    }

    fn master_count(&self) -> usize {
        self.masters
            .iter()
            .filter(|&&s| {
                self.world
                    .site(s)
                    .meta_of(self.root)
                    .is_some_and(|m| m.kind.is_master())
            })
            .count()
    }

    fn set_loss(&self, loss: f64) {
        for (a, b) in [
            (self.client, self.masters[0]),
            (self.client, self.masters[1]),
            (self.masters[0], self.masters[1]),
        ] {
            lossy(&self.world, a, b, loss);
        }
    }

    fn apply(&mut self, op: &ChurnOp) {
        match *op {
            ChurnOp::IncrPut => {
                self.world
                    .site(self.client)
                    .invoke(self.replica, "incr", ObiValue::Null)
                    .unwrap();
                self.increments += 1;
                match self.world.site(self.client).put(self.replica) {
                    Ok(v) => {
                        // The heart of the property: an acknowledged put
                        // advanced the master version by exactly one, no
                        // matter how many retries, redirects, or handoffs
                        // its frames crossed.
                        assert_eq!(v, self.version + 1, "put applied other than once");
                        self.version = v;
                    }
                    // A put can fail definitively only while the root is
                    // orphaned mid-handoff (redirect points at a successor
                    // that hasn't installed yet). The replica stays dirty;
                    // nothing is lost and nothing applied.
                    Err(_) => assert!(
                        self.pending_handoff.is_some(),
                        "puts only fail while a handoff is in flight"
                    ),
                }
            }
            ChurnOp::Handoff => {
                let (from, to) = match self.pending_handoff {
                    // Retry the interrupted attempt toward the same
                    // successor — the predecessor's demoted replicas still
                    // hold the state and the install is idempotent.
                    Some(to) => (1 - to, to),
                    None => (self.at, 1 - self.at),
                };
                match self
                    .world
                    .site(self.masters[from])
                    .handoff(self.root, self.masters[to])
                {
                    Ok(v) => {
                        assert_eq!(v, self.version, "handoff must preserve the version");
                        self.at = to;
                        self.pending_handoff = None;
                    }
                    Err(_) => self.pending_handoff = Some(to),
                }
            }
            ChurnOp::Loss(on) => self.set_loss(if on { LOSS } else { 0.0 }),
        }
        // At-most-one master at every step: the demote-first ordering can
        // leave zero masters mid-handoff, but never two.
        assert!(self.master_count() <= 1, "two masters for one root");
    }

    fn heal_and_converge(mut self) {
        self.set_loss(0.0);
        // Finish any interrupted handoff on the healed network.
        while let Some(to) = self.pending_handoff {
            self.apply(&ChurnOp::Handoff);
            if self.pending_handoff == Some(to) {
                panic!("handoff retry failed on a loss-free network");
            }
        }
        assert_eq!(self.master_count(), 1, "exactly one master after healing");
        // Flush whatever the client still holds dirty (the counter state
        // is absolute, so one successful put carries every local increment,
        // including those whose earlier put failed mid-handoff), then
        // compare: every increment is accounted for at the single master —
        // none lost, none double-counted.
        self.apply(&ChurnOp::IncrPut);
        let master = self.masters[self.at];
        assert_eq!(
            self.world
                .site(master)
                .invoke(self.root, "read", ObiValue::Null)
                .unwrap(),
            ObiValue::I64(self.increments),
            "master diverged from the client's increment count"
        );
    }
}

/// Case count: 16 by default (each case builds a three-site world),
/// overridable via `PROPTEST_CASES` for the CI chaos-extended job.
fn configured_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(16)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(configured_cases()))]

    #[test]
    fn handoffs_and_retried_puts_apply_exactly_once(
        seed in 0u64..1024,
        ops in proptest::collection::vec(arb_churn_op(), 1..25),
    ) {
        let mut rig = ChurnRig::build(seed);
        for op in &ops {
            rig.apply(op);
        }
        rig.heal_and_converge();
        obiwan::util::sync::assert_no_lock_order_violations();
        obiwan::util::sync::assert_observed_edges_in_static_graph();
    }
}
