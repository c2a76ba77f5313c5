//! End-to-end mobility scenarios from the paper's introduction: roaming
//! devices, voluntary and involuntary disconnections, partitions, hoarding
//! and reintegration, and degraded-link behaviour.

use obiwan::consistency::{OptimisticDetect, StaleTracker};
use obiwan::core::demo::{Counter, Document, LinkedItem};
use obiwan::core::{ObiValue, ObiWorld, ReplicationMode};
use obiwan::mobility::{
    ConnectivityMonitor, DisconnectedSession, HoardProfile, Hoarder, LinkHealth, MobileAgent,
    ReintegrationOutcome,
};
use obiwan::net::conditions;
use std::time::Duration;

#[test]
fn the_office_laptop_pda_roundtrip() {
    // The user edits the same document from three devices, carrying it as
    // a replica; every edit survives.
    let mut world = ObiWorld::paper_testbed();
    let server = world.add_site("file-server");
    let office = world.add_site("office-pc");
    let laptop = world.add_site("laptop");
    let pda = world.add_site("pda");
    world.transport().with_topology_mut(|t| {
        t.set_link_symmetric(server, laptop, conditions::wifi());
        t.set_link_symmetric(server, pda, conditions::gprs());
    });

    let doc = world.site(server).create(Document::new("report"));
    world.site(server).export(doc, "report").unwrap();

    for (site, line) in [
        (office, "intro (office)"),
        (laptop, "analysis (airport)"),
        (pda, "conclusion (taxi)"),
    ] {
        let remote = world.site(site).lookup("report").unwrap();
        let replica = world
            .site(site)
            .get(&remote, ReplicationMode::incremental(1))
            .unwrap();
        world
            .site(site)
            .invoke(replica, "append", ObiValue::from(line))
            .unwrap();
        world.site(site).put(replica).unwrap();
    }

    let content = world.site(server).invoke(doc, "content", ObiValue::Null).unwrap();
    let text = content.as_str().unwrap();
    assert!(text.contains("office"));
    assert!(text.contains("airport"));
    assert!(text.contains("taxi"));
}

#[test]
fn partition_heals_and_both_sides_reintegrate() {
    let mut world = ObiWorld::paper_testbed();
    let hub = world.add_site("hub");
    let east = world.add_site("east");
    let west = world.add_site("west");

    let counter = world.site(hub).create(Counter::new(0));
    world.site(hub).export(counter, "tally").unwrap();

    // Both sides replicate, then the network partitions: east keeps the
    // hub, west is cut off.
    let re = world.site(east).lookup("tally").unwrap();
    let rw = world.site(west).lookup("tally").unwrap();
    let east_replica = world
        .site(east)
        .get(&re, ReplicationMode::incremental(1))
        .unwrap();
    let west_replica = world
        .site(west)
        .get(&rw, ReplicationMode::incremental(1))
        .unwrap();
    world.transport().with_topology_mut(|t| {
        t.partition(&[west], &[hub, east]);
    });

    // Both sides work. East can reach the hub, west cannot.
    world
        .site(east)
        .invoke(east_replica, "add", ObiValue::I64(10))
        .unwrap();
    world.site(east).put(east_replica).unwrap();
    world
        .site(west)
        .invoke(west_replica, "add", ObiValue::I64(5))
        .unwrap();
    assert!(world.site(west).put(west_replica).unwrap_err().is_connectivity());

    // Heal; west reintegrates. Default policy: last writer wins, so west's
    // state (base 1 + 5) overwrites east's push.
    world.transport().with_topology_mut(|t| {
        t.heal(&[west], &[hub, east]);
    });
    world.site(west).put(west_replica).unwrap();
    let v = world.site(hub).invoke(counter, "read", ObiValue::Null).unwrap();
    assert_eq!(v, ObiValue::I64(5));
}

#[test]
fn partition_with_conflict_detection_preserves_both_updates() {
    let mut world = ObiWorld::paper_testbed();
    let hub = world.add_site("hub");
    let west = world.add_site("west");
    world.site(hub).set_policy(Box::new(OptimisticDetect::new()));

    let counter = world.site(hub).create(Counter::new(0));
    world.site(hub).export(counter, "tally").unwrap();
    let rw = world.site(west).lookup("tally").unwrap();
    let west_replica = world
        .site(west)
        .get(&rw, ReplicationMode::incremental(1))
        .unwrap();

    world.disconnect(west);
    let mut session = DisconnectedSession::new();
    session
        .invoke(world.site(west), west_replica, "add", ObiValue::I64(5))
        .unwrap();
    // Hub-side concurrent change.
    world
        .site(hub)
        .invoke(counter, "add", ObiValue::I64(100))
        .unwrap();

    world.reconnect(west);
    let report = session.reintegrate(world.site(west));
    assert!(matches!(
        report.outcomes[0].1,
        ReintegrationOutcome::Conflict(_)
    ));
    // Replay resolves: both deltas survive.
    session
        .resolve_replay_local(world.site(west), west_replica.id())
        .unwrap();
    let v = world.site(hub).invoke(counter, "read", ObiValue::Null).unwrap();
    assert_eq!(v, ObiValue::I64(105));
}

#[test]
fn hoard_then_fly_then_reintegrate_everything() {
    let mut world = ObiWorld::paper_testbed();
    let hq = world.add_site("hq");
    let laptop = world.add_site("laptop");

    // Publish three graphs.
    let t3 = world.site(hq).create(LinkedItem::new(3, "t3"));
    let t2 = world.site(hq).create(LinkedItem::with_next(2, "t2", t3));
    let t1 = world.site(hq).create(LinkedItem::with_next(1, "t1", t2));
    world.site(hq).export(t1, "tasks").unwrap();
    let doc = world.site(hq).create(Document::new("minutes"));
    world.site(hq).export(doc, "minutes").unwrap();
    let tally = world.site(hq).create(Counter::new(0));
    world.site(hq).export(tally, "tally").unwrap();

    let hoarder = Hoarder::new(
        HoardProfile::new()
            .with("tasks", ReplicationMode::transitive())
            .with("minutes", ReplicationMode::incremental(1))
            .with("tally", ReplicationMode::incremental(1)),
    );
    let report = hoarder.hoard(world.site(laptop));
    assert!(report.is_complete());
    assert!(hoarder.verify(world.site(laptop), &report));

    world.disconnect(laptop);
    // Touch everything offline.
    let tasks = report.root_of("tasks").unwrap();
    let minutes = report.root_of("minutes").unwrap();
    let tally_r = report.root_of("tally").unwrap();
    let sum = world
        .site(laptop)
        .invoke(tasks, "sum_rest", ObiValue::Null)
        .unwrap();
    assert_eq!(sum, ObiValue::I64(6));
    world
        .site(laptop)
        .invoke(minutes, "append", ObiValue::from("decisions made at 30,000 ft"))
        .unwrap();
    world
        .site(laptop)
        .invoke(tally_r, "incr", ObiValue::Null)
        .unwrap();

    world.reconnect(laptop);
    let pushed = world.site(laptop).put_all_dirty().unwrap();
    assert_eq!(pushed, 2); // minutes + tally (tasks untouched)
    let text = world
        .site(hq)
        .invoke(doc, "content", ObiValue::Null)
        .unwrap();
    assert!(text.as_str().unwrap().contains("30,000 ft"));
}

#[test]
fn a_cluster_edited_offline_reintegrates_whole() {
    // The paper updates a cluster as a whole (§4.3): offline edits to one
    // member go back as one put of every member.
    let mut world = ObiWorld::paper_testbed();
    let hq = world.add_site("hq");
    let pda = world.add_site("pda");
    let n3 = world.site(hq).create(LinkedItem::new(3, "n3"));
    let n2 = world.site(hq).create(LinkedItem::with_next(2, "n2", n3));
    let n1 = world.site(hq).create(LinkedItem::with_next(1, "n1", n2));
    world.site(hq).export(n1, "list").unwrap();
    let remote = world.site(pda).lookup("list").unwrap();
    let root = world
        .site(pda)
        .get(&remote, ReplicationMode::cluster(3))
        .unwrap();

    world.disconnect(pda);
    let mut session = DisconnectedSession::new();
    session
        .invoke(world.site(pda), root, "set_value", ObiValue::I64(42))
        .unwrap();
    world.reconnect(pda);
    let report = session.reintegrate(world.site(pda));
    assert!(report.is_clean(), "{report:?}");
    assert_eq!(report.pushed(), 3, "every member goes back with the edited one");
    let v = world.site(hq).invoke(n1, "value", ObiValue::Null).unwrap();
    assert_eq!(v, ObiValue::I64(42));
    assert!(!world.site(pda).meta_of(root).unwrap().dirty);
}

#[test]
fn monitor_guides_rmi_vs_lmi_choice() {
    // The run-time decision the paper advertises: probe first, then pick
    // the invocation mechanism.
    let mut world = ObiWorld::paper_testbed();
    let server = world.add_site("server");
    let device = world.add_site("device");
    let obj = world.site(server).create(Counter::new(7));
    world.site(server).export(obj, "data").unwrap();
    let remote = world.site(device).lookup("data").unwrap();

    let mut monitor = ConnectivityMonitor::new(Duration::from_millis(100));
    // Healthy LAN: RMI is fine.
    assert_eq!(monitor.probe(world.site(device), server), LinkHealth::Connected);
    let v = world
        .site(device)
        .invoke_rmi(&remote, "read", ObiValue::Null)
        .unwrap();
    assert_eq!(v, ObiValue::I64(7));

    // Degrade to GPRS: the monitor says switch to a replica.
    world.transport().with_topology_mut(|t| {
        t.set_link_symmetric(server, device, conditions::gprs());
    });
    let health = monitor.probe(world.site(device), server);
    assert_eq!(health, LinkHealth::Degraded);
    let replica = world
        .site(device)
        .get(&remote, ReplicationMode::incremental(1))
        .unwrap();
    // From here on, reads are local regardless of the link.
    world.disconnect(device);
    let v = world
        .site(device)
        .invoke(replica, "read", ObiValue::Null)
        .unwrap();
    assert_eq!(v, ObiValue::I64(7));
}

#[test]
fn stale_tracker_keeps_a_fleet_of_replicas_fresh() {
    let mut world = ObiWorld::paper_testbed();
    let hq = world.add_site("hq");
    let dev = world.add_site("dev");
    let mut masters = Vec::new();
    let mut replicas = Vec::new();
    let mut tracker = StaleTracker::new();
    for i in 0..5 {
        let m = world.site(hq).create(Counter::new(i));
        world.site(hq).export(m, &format!("c{i}")).unwrap();
        masters.push(m);
        let remote = world.site(dev).lookup(&format!("c{i}")).unwrap();
        let r = world
            .site(dev)
            .get(&remote, ReplicationMode::incremental(1))
            .unwrap();
        tracker.track(world.site(dev), r).unwrap();
        replicas.push(r);
    }
    // Mutate three masters.
    for m in &masters[..3] {
        world.site(hq).invoke(*m, "incr", ObiValue::Null).unwrap();
    }
    world.pump();
    assert_eq!(tracker.stale_objects(world.site(dev)).len(), 3);
    let report = tracker.refresh_stale(world.site(dev));
    assert_eq!(report.refreshed.len(), 3);
    assert_eq!(report.fresh, 2);
    assert!(tracker.stale_objects(world.site(dev)).is_empty());
}

#[test]
fn agent_itinerary_across_mixed_links() {
    let mut world = ObiWorld::paper_testbed();
    let home = world.add_site("home");
    let stops: Vec<_> = (0..3).map(|i| world.add_site(&format!("stop{i}"))).collect();
    world.transport().with_topology_mut(|t| {
        t.set_link_symmetric(home, stops[1], conditions::wifi());
        t.set_link_symmetric(home, stops[2], conditions::wan());
    });
    let log = world.site(home).create(Counter::new(0));
    world.site(home).export(log, "log").unwrap();

    let mut agent = MobileAgent::new(
        "courier",
        HoardProfile::new().with("log", ReplicationMode::transitive()),
    );
    for stop in &stops {
        agent
            .visit(world.site(*stop), |p, r| {
                p.invoke(r.root_of("log").unwrap(), "incr", ObiValue::Null)?;
                Ok(())
            })
            .unwrap();
    }
    assert_eq!(agent.trail().len(), 3);
    let v = world.site(home).invoke(log, "read", ObiValue::Null).unwrap();
    assert_eq!(v, ObiValue::I64(3));
}

#[test]
fn scripted_commute_day() {
    // A scripted connectivity day: the commuter's device loses the network
    // at fixed virtual times (train tunnels), regains it between them, and
    // application work simply flows around the gaps.
    use obiwan::net::ScheduledChange;

    let mut world = ObiWorld::paper_testbed();
    let office = world.add_site("office");
    let device = world.add_site("commuter");
    let doc = world.site(office).create(Document::new("journal"));
    world.site(office).export(doc, "journal").unwrap();

    let remote = world.site(device).lookup("journal").unwrap();
    let replica = world
        .site(device)
        .get(&remote, ReplicationMode::incremental(1))
        .unwrap();

    // Tunnels at +20 ms and +60 ms, each 20 ms long.
    let t0 = world.clock().virtual_nanos();
    let ms = 1_000_000u64;
    world
        .transport()
        .schedule_change(t0 + 20 * ms, ScheduledChange::Disconnect(device));
    world
        .transport()
        .schedule_change(t0 + 40 * ms, ScheduledChange::Reconnect(device));
    world
        .transport()
        .schedule_change(t0 + 60 * ms, ScheduledChange::Disconnect(device));
    world
        .transport()
        .schedule_change(t0 + 80 * ms, ScheduledChange::Reconnect(device));

    // Work loop: append locally, try to push; pushes fail inside tunnels
    // and succeed between them. Each iteration advances virtual time.
    let mut pushed = 0;
    let mut failed = 0;
    for i in 0..40 {
        world
            .site(device)
            .invoke(replica, "append", ObiValue::from(format!("entry {i}")))
            .unwrap();
        match world.site(device).put(replica) {
            Ok(_) => pushed += 1,
            Err(e) if e.is_connectivity() => {
                failed += 1;
                // Local work continues; nudge time forward like real work.
                world.clock().charge_nanos(2 * ms);
            }
            Err(e) => panic!("{e}"),
        }
    }
    assert!(pushed > 0, "no push ever succeeded");
    assert!(failed > 0, "the scripted tunnels never fired");
    // The tunnels tripped the device's circuit breaker towards the office;
    // wait out the cooldown so the end-of-day reconciliation probe is
    // admitted, then reconcile what is left.
    world
        .clock()
        .charge(obiwan::core::BreakerConfig::default().cooldown);
    world.site(device).put_all_dirty().unwrap();
    let content = world.site(office).invoke(doc, "content", ObiValue::Null).unwrap();
    let text = content.as_str().unwrap().to_owned();
    // Every entry eventually reached the office.
    for i in 0..40 {
        assert!(text.contains(&format!("entry {i}")), "entry {i} lost");
    }
}
