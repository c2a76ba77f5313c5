//! Crash/restart chaos: SIGKILL-equivalent drops at arbitrary WAL offsets
//! mid-disconnection and mid-put, followed by restart, recovery, and
//! reintegration.
//!
//! Whatever the crash point, the invariants must hold:
//!
//! * recovery never errors — a torn tail is truncated, not guessed at;
//! * the recovered state is an exact record prefix: the master ends up at
//!   the value of the last durable delta, never more, never less;
//! * no lost dirty replica — if any delta survived, reintegration pushes it;
//! * no double-apply — a put whose confirmation was lost in the crash is
//!   replayed with its persisted request seq, and the provider's reply
//!   cache answers it without re-executing.
//!
//! Every fault comes from `MemStorage`, the store's one fault storage: a
//! restart keeps what `crash_keeping` leaves of the WAL (every written byte
//! for a SIGKILL, `synced_len` of them for a power loss), `kill_at` kills
//! the client mid-write-back the moment the WAL reaches a length, and
//! `history` is every state the WAL passed through. Frame boundaries
//! are read with the WAL's own framing (`wal::frame_ends`).

use obiwan::core::demo::{Counter, LinkedItem};
use obiwan::core::{ObiValue, ObiWorld, ObjRef, ReplicationMode, RetryPolicy};
use obiwan::mobility::session::{DisconnectedSession, ReintegrationReport};
use obiwan::net::LinkModel;
use obiwan::rmi::fault::ANNOUNCE_EVERY;
use obiwan::rmi::ReplyCache;
use obiwan::store::{
    Durable, DurableOptions, Killed, MemStorage, RecoveredState, Storage, SEQ_EPOCH_SKIP, WAL_FILE,
};
use obiwan::util::SiteId;
use proptest::prelude::*;
use std::sync::atomic::Ordering;
use std::sync::Arc;

fn set_link(world: &ObiWorld, a: SiteId, b: SiteId, model: LinkModel) {
    world
        .transport()
        .with_topology_mut(|t| t.set_link_symmetric(a, b, model));
}

/// Attaches a fresh durability log to `site`.
fn attach_log(world: &ObiWorld, site: SiteId, opts: DurableOptions) -> Arc<MemStorage> {
    let storage = Arc::new(MemStorage::new());
    let (durable, recovered) = Durable::open(storage.clone(), opts).unwrap();
    assert!(recovered.is_empty());
    world.site(site).attach_durability(durable);
    storage
}

/// The crash: cuts the WAL to its first `keep` bytes, drops `site`'s
/// process, and brings a fresh one up over the surviving storage. Returns
/// what it recovered.
fn restart(
    world: &mut ObiWorld,
    site: SiteId,
    storage: &Arc<MemStorage>,
    keep: u64,
) -> RecoveredState {
    storage.crash_keeping(WAL_FILE, keep);
    let process = world.restart_site(site);
    let (durable, recovered) = Durable::open(storage.clone(), DurableOptions::default()).unwrap();
    process.attach_durability(durable);
    let restored = process.recover_from(&recovered).unwrap();
    assert_eq!(restored, recovered.dirty.len(), "every dirty replica restores");
    recovered
}

/// Runs `work` until `storage` kills it at WAL length `limit`. Unlike
/// cutting back the log of a run that finished, this leaves the master
/// holding exactly the puts that had reached it when the log was that long.
fn until_killed_at<T: std::fmt::Debug>(storage: &MemStorage, limit: u64, work: impl FnOnce() -> T) {
    storage.kill_at(limit);
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(work)) {
        Ok(done) => panic!("limit={limit}: the write-back ran to its end: {done:?}"),
        Err(payload) if payload.is::<Killed>() => {}
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

/// The value of `counter` read at `site`.
fn count(world: &ObiWorld, site: SiteId, counter: ObjRef) -> i64 {
    match world.site(site).invoke(counter, "read", ObiValue::Null).unwrap() {
        ObiValue::I64(v) => v,
        other => panic!("counter read returned {other:?}"),
    }
}

/// One disconnected-session scenario over a durable client site.
struct Rig {
    world: ObiWorld,
    client: SiteId,
    server: SiteId,
    master: ObjRef,
    replica: ObjRef,
    storage: Arc<MemStorage>,
}

/// Builds the rig: a counter mastered at the server, replicated at the
/// client, with a fresh in-memory durability log attached to the client.
fn build() -> Rig {
    build_with(DurableOptions::default())
}

/// [`build`], with explicit durability tuning (checkpoint cadence tests
/// need a denominator small enough to hit inside a short test).
fn build_with(opts: DurableOptions) -> Rig {
    let mut world = ObiWorld::loopback();
    let client = world.add_site("pda");
    let server = world.add_site("server");
    let master = world.site(server).create(Counter::new(0));
    world.site(server).export(master, "c").unwrap();
    let remote = world.site(client).lookup("c").unwrap();
    let replica = world
        .site(client)
        .get(&remote, ReplicationMode::incremental(1))
        .unwrap();
    let storage = attach_log(&world, client, opts);
    Rig {
        world,
        client,
        server,
        master,
        replica,
        storage,
    }
}

impl Rig {
    /// Journals `ops` increments through a disconnected session, each one
    /// writing its dirty delta and op record through to the WAL.
    fn disconnected_adds(&self, ops: usize) -> DisconnectedSession {
        self.world.disconnect(self.client);
        let mut session = DisconnectedSession::new();
        for _ in 0..ops {
            session
                .invoke(
                    self.world.site(self.client),
                    self.replica,
                    "add",
                    ObiValue::I64(1),
                )
                .unwrap();
        }
        self.durable().commit().unwrap();
        session
    }

    fn durable(&self) -> Arc<Durable> {
        self.world.site(self.client).durability().unwrap().clone()
    }

    /// [`restart`] over the first `keep` bytes of the WAL. Returns the
    /// resumed session.
    fn crash_and_restart(&mut self, keep: u64) -> DisconnectedSession {
        DisconnectedSession::resume(&restart(&mut self.world, self.client, &self.storage, keep))
    }

    fn master_value(&self) -> i64 {
        count(&self.world, self.server, self.master)
    }

    fn client_value(&self) -> i64 {
        count(&self.world, self.client, self.replica)
    }
}

/// Crash mid-disconnection at *every* WAL byte offset: the recovered state
/// must always be a record prefix of the session, and reintegration must
/// push exactly that prefix — monotone in the crash point, complete at the
/// full log, zero when nothing survived.
#[test]
fn every_crash_offset_mid_disconnection_reintegrates_a_prefix() {
    const OPS: usize = 3;
    let wal_len = {
        let rig = build();
        rig.disconnected_adds(OPS);
        rig.durable().wal_len().unwrap()
    };
    assert!(wal_len > 0, "the session must have journaled something");
    let mut last_pushed = 0i64;
    for keep in 0..=wal_len {
        let mut rig = build();
        rig.disconnected_adds(OPS);
        let session = rig.crash_and_restart(keep);
        rig.world.reconnect(rig.client);
        let report = session.reintegrate(rig.world.site(rig.client));
        let value = rig.master_value();
        if session.touched().is_empty() {
            assert!(report.outcomes.is_empty());
            assert_eq!(value, 0, "keep={keep}: nothing recovered, nothing pushed");
        } else {
            assert!(report.is_clean(), "keep={keep}: {report:?}");
            assert_eq!(report.pushed(), 1, "keep={keep}");
            assert_eq!(
                value,
                rig.client_value(),
                "keep={keep}: master and recovered replica agree"
            );
            assert!(
                (1..=OPS as i64).contains(&value),
                "keep={keep}: pushed value {value} outside the session's range"
            );
        }
        assert!(
            value >= last_pushed,
            "keep={keep}: longer surviving log pushed less ({value} < {last_pushed})"
        );
        last_pushed = value;
    }
    assert_eq!(
        last_pushed, OPS as i64,
        "an untouched log must recover the whole session"
    );
    obiwan::util::sync::assert_no_lock_order_violations();
    obiwan::util::sync::assert_observed_edges_in_static_graph();
}

/// Crash mid-put at every offset between "intent durable" and "confirmation
/// durable": the server already executed the put, so the replay must reuse
/// the persisted request seq and be answered from the reply cache — master
/// version unchanged — while a crash that tore even the intent falls back
/// to a fresh put of the same state. Either way the value is applied
/// exactly once.
#[test]
fn put_replay_after_crash_is_answered_from_the_reply_cache() {
    let (intent_base, wal_after_put) = {
        let rig = build();
        rig.disconnected_adds(1);
        let base = rig.durable().wal_len().unwrap();
        rig.world.reconnect(rig.client);
        rig.world.site(rig.client).put(rig.replica).unwrap();
        (base, rig.durable().wal_len().unwrap())
    };
    assert!(wal_after_put > intent_base, "the put must journal intent + confirm");
    let mut cache_hits = 0u64;
    for keep in intent_base..wal_after_put {
        let mut rig = build();
        rig.disconnected_adds(1);
        rig.world.reconnect(rig.client);
        rig.world.site(rig.client).put(rig.replica).unwrap();
        assert_eq!(rig.master_value(), 1);
        let version_after_put = rig
            .world
            .site(rig.server)
            .meta_of(rig.master)
            .unwrap()
            .version;
        let cached_before = rig
            .world
            .site(rig.server)
            .metrics()
            .snapshot()
            .cached_replies;

        let session = rig.crash_and_restart(keep);
        // The op record precedes the put protocol in the log, so the
        // resumed session always knows the object was touched.
        assert_eq!(session.touched(), vec![rig.replica.id()]);
        let intent_survived = rig
            .durable()
            .pending_put(rig.replica.id())
            .is_some();
        let dirty_restored = rig
            .world
            .site(rig.client)
            .meta_of(rig.replica)
            .is_some_and(|m| m.dirty);
        let report = session.reintegrate(rig.world.site(rig.client));
        assert!(report.is_clean(), "keep={keep}: {report:?}");

        assert_eq!(rig.master_value(), 1, "keep={keep}: applied exactly once");
        let cached_delta = rig
            .world
            .site(rig.server)
            .metrics()
            .snapshot()
            .cached_replies
            - cached_before;
        let version_now = rig
            .world
            .site(rig.server)
            .meta_of(rig.master)
            .unwrap()
            .version;
        if intent_survived {
            // Same request id as the pre-crash put: the reply cache answers
            // it and the master is not re-executed.
            assert_eq!(cached_delta, 1, "keep={keep}: replay must hit the cache");
            assert_eq!(
                version_now, version_after_put,
                "keep={keep}: a cached reply must not bump the version"
            );
            cache_hits += 1;
        } else if dirty_restored {
            // The intent was torn too: a fresh put (fresh seq, past the
            // epoch skip) re-writes the same state. Idempotent on value,
            // visible on version.
            assert_eq!(cached_delta, 0, "keep={keep}");
            assert_eq!(version_now, version_after_put + 1, "keep={keep}");
        } else {
            // The confirmation itself survived: the delta is settled and
            // reintegration has nothing to push.
            assert!(report.outcomes.is_empty(), "keep={keep}: {report:?}");
            assert_eq!(cached_delta, 0, "keep={keep}");
            assert_eq!(version_now, version_after_put, "keep={keep}");
        }
    }
    assert!(
        cache_hits > 0,
        "some offset must leave the intent durable but the confirm torn"
    );
    obiwan::util::sync::assert_no_lock_order_violations();
    obiwan::util::sync::assert_observed_edges_in_static_graph();
}

/// A power loss after a connected life of edits and puts: every settled
/// put whose reply the master was told to forget (`AckHorizon`) must have a
/// durable confirmation, or the power loss takes the confirmation, the
/// replay finds no cached reply, and the master applies the put twice.
/// Seventy puts carry the horizon past two announcements.
#[test]
fn a_power_loss_never_replays_a_put_whose_reply_was_pruned() {
    for n in 1..=70 {
        let mut rig = build();
        let mut acked = 0;
        for _ in 0..n {
            let client = rig.world.site(rig.client);
            client.invoke(rig.replica, "add", ObiValue::I64(1)).unwrap();
            acked = client.put(rig.replica).unwrap();
        }
        let synced = rig.storage.synced_len(WAL_FILE);
        restart(&mut rig.world, rig.client, &rig.storage, synced);
        rig.world.site(rig.client).put_all_dirty().unwrap();
        let master = rig.world.site(rig.server).meta_of(rig.master).unwrap();
        assert_eq!(master.version, acked, "N={n}: the master applied a put twice");
        assert_eq!(rig.master_value(), n as i64, "N={n}");
    }
    obiwan::util::sync::assert_no_lock_order_violations();
    obiwan::util::sync::assert_observed_edges_in_static_graph();
}

/// One lost put reply, then capacity + 1 other puts to the same master
/// (which push the reply out of its reply cache), then a power loss: the
/// restart keeps only the synced log, so the lost put and the puts whose
/// confirmations were not yet synced are all replayed. Each is applied
/// once: the master objects' records answer the replays.
#[test]
fn a_put_replayed_after_a_power_loss_and_capacity_plus_one_other_puts_applies_once() {
    let mut rig = build();
    let (client, server) = (rig.client, rig.server);
    let mut next = None;
    let mut nodes: Vec<ObjRef> = (0..=ReplyCache::DEFAULT_CAPACITY)
        .map(|i| {
            let mut item = LinkedItem::new(i as i64, format!("n{i}"));
            item.set_next(next);
            let node = rig.world.site(server).create(item);
            next = Some(node);
            node
        })
        .collect();
    nodes.reverse();
    rig.world.site(server).export(nodes[0], "list").unwrap();

    // The put reaches the master and is applied; its reply never returns.
    let process = rig.world.site(client);
    process.invoke(rig.replica, "incr", ObiValue::Null).unwrap();
    rig.world.transport().partition_oneway(server, client);
    assert!(process.put(rig.replica).unwrap_err().is_connectivity());
    rig.world.transport().heal_oneway(server, client);
    let remote = process.lookup("list").unwrap();
    process.get(&remote, ReplicationMode::transitive()).unwrap();
    for &node in &nodes {
        process.invoke(node, "set_value", ObiValue::I64(-1)).unwrap();
    }
    assert!(process.put_many(&nodes).iter().all(|(_, put)| put.is_ok()));

    let synced = rig.storage.synced_len(WAL_FILE);
    let recovered = restart(&mut rig.world, client, &rig.storage, synced);
    assert!(recovered.pending_puts.contains_key(&rig.replica.id()));
    rig.world.site(client).put_all_dirty().unwrap();
    assert_eq!(
        rig.world.site(server).meta_of(rig.master).unwrap().version,
        2,
        "the master applied the put twice"
    );
    assert_eq!(rig.master_value(), 1);
    for &node in &nodes {
        let master = rig.world.site(server).meta_of(node).unwrap();
        assert_eq!(master.version, 2, "{node:?} was applied twice");
    }
    obiwan::util::sync::assert_no_lock_order_violations();
    obiwan::util::sync::assert_observed_edges_in_static_graph();
}

/// A put whose reply is lost leaves its intent pending with the seq spent
/// at the master. If the replica is mutated again before the retry, the
/// retry must NOT reuse that seq — the master's reply cache would serve
/// the cached ack without applying the newer state, and the client would
/// mark it clean, silently dropping it. The stale intent is retired and
/// the new state goes out under a fresh seq.
#[test]
fn retry_after_reply_loss_with_new_mutations_takes_a_fresh_seq() {
    let rig = build();
    rig.world.transport().reseed(7);
    rig.world
        .site(rig.client)
        .invoke(rig.replica, "add", ObiValue::I64(1))
        .unwrap();
    // Every reply is lost: the master executes the put, the client sees
    // only a connectivity failure.
    set_link(
        &rig.world,
        rig.client,
        rig.server,
        LinkModel::ideal().with_reply_loss(1.0),
    );
    rig.world.site(rig.client).set_rpc_policy(RetryPolicy {
        max_retries: 2,
        ..RetryPolicy::default()
    });
    let err = rig.world.site(rig.client).put(rig.replica).unwrap_err();
    assert!(err.is_connectivity(), "{err}");
    assert_eq!(rig.master_value(), 1, "the master applied the lost-reply put");
    let stale = rig
        .durable()
        .pending_put(rig.replica.id())
        .expect("a connectivity failure keeps the intent pending");

    // Mutate again before retrying, then heal the link and push.
    rig.world
        .site(rig.client)
        .invoke(rig.replica, "add", ObiValue::I64(1))
        .unwrap();
    set_link(&rig.world, rig.client, rig.server, LinkModel::ideal());
    rig.world.site(rig.client).put(rig.replica).unwrap();

    assert_eq!(rig.master_value(), 2, "newer state applied, not cache-acked away");
    assert_eq!(rig.client_value(), 2);
    let settled = rig.durable().pending_put(rig.replica.id());
    assert_ne!(settled.map(|p| p.seq), Some(stale.seq), "spent seq not reused");
    assert!(settled.is_none(), "fresh intent confirmed and settled");
    assert!(
        rig.world
            .site(rig.client)
            .meta_of(rig.replica)
            .is_some_and(|m| !m.dirty),
        "acked state matches the replica, so it is clean"
    );
    obiwan::util::sync::assert_no_lock_order_violations();
    obiwan::util::sync::assert_observed_edges_in_static_graph();
}

/// The post-crash flavour of the same bug: a recovered put intent plus new
/// offline mutations. Reintegration must push the merged offline state
/// under a fresh seq instead of letting the reply cache ack it away.
#[test]
fn recovered_intent_with_new_offline_mutations_is_not_marked_clean() {
    let mut rig = build();
    rig.world.transport().reseed(7);
    rig.disconnected_adds(1);
    rig.world.reconnect(rig.client);
    set_link(
        &rig.world,
        rig.client,
        rig.server,
        LinkModel::ideal().with_reply_loss(1.0),
    );
    rig.world.site(rig.client).set_rpc_policy(RetryPolicy {
        max_retries: 2,
        ..RetryPolicy::default()
    });
    let err = rig.world.site(rig.client).put(rig.replica).unwrap_err();
    assert!(err.is_connectivity(), "{err}");
    assert_eq!(rig.master_value(), 1);

    // Crash keeping the whole log: the pending intent survives recovery.
    let wal_len = rig.durable().wal_len().unwrap();
    let mut session = rig.crash_and_restart(wal_len);
    assert!(rig.durable().pending_put(rig.replica.id()).is_some());

    // More offline work after the restart, then reintegrate over a healed
    // link. The pushed state differs from what the recovered intent
    // covered, so it must not ride the spent seq.
    rig.world.disconnect(rig.client);
    session
        .invoke(
            rig.world.site(rig.client),
            rig.replica,
            "add",
            ObiValue::I64(1),
        )
        .unwrap();
    set_link(&rig.world, rig.client, rig.server, LinkModel::ideal());
    rig.world.reconnect(rig.client);
    let report = session.reintegrate(rig.world.site(rig.client));
    assert!(report.is_clean(), "{report:?}");
    assert_eq!(
        rig.master_value(),
        2,
        "post-crash offline mutation must reach the master"
    );
    assert_eq!(rig.client_value(), 2);
    obiwan::util::sync::assert_no_lock_order_violations();
    obiwan::util::sync::assert_observed_edges_in_static_graph();
}

/// Restart in the middle of a conflict story: offline edits survive the
/// crash, the master moves on meanwhile, and the resumed session's journal
/// still drives `resolve_replay_local` to an exactly-once merge.
#[test]
fn replay_after_restart_resolves_conflicts_exactly_once() {
    use obiwan::consistency::OptimisticDetect;
    let mut rig = build();
    rig.world
        .site(rig.server)
        .set_policy(Box::new(OptimisticDetect::new()));
    rig.disconnected_adds(2);
    // Crash keeping everything: the journal itself survives intact.
    let wal_len = rig.durable().wal_len().unwrap();
    let session = rig.crash_and_restart(wal_len);
    assert_eq!(session.len(), 2, "both ops resume from the journal");
    // The master moved on while the client was down.
    rig.world
        .site(rig.server)
        .invoke(rig.master, "incr", ObiValue::Null)
        .unwrap();
    rig.world.reconnect(rig.client);
    let report = session.reintegrate(rig.world.site(rig.client));
    assert_eq!(report.conflicts(), vec![rig.replica.id()]);
    // Replay the recovered journal over the refreshed state.
    session
        .resolve_replay_local(rig.world.site(rig.client), rig.replica.id())
        .unwrap();
    assert_eq!(
        rig.master_value(),
        3,
        "1 (concurrent incr) + 2 (replayed ops), each applied once"
    );
    obiwan::util::sync::assert_no_lock_order_violations();
    obiwan::util::sync::assert_observed_edges_in_static_graph();
}

/// A long RPC-heavy life between puts: invokes burn request seqs with no
/// per-request log record, so only the periodic `ClientState` checkpoints
/// (every N confirmed RPCs, here N = 4) keep the persisted watermark near
/// the live counter. After a crash the restored counter must clear every
/// seq the pre-crash life used — post-restart requests have to be new to
/// the master's reply cache, not answered from stale cached replies.
#[test]
fn rpc_heavy_life_is_checkpointed_every_n_confirmed_rpcs() {
    let mut rig = build_with(DurableOptions {
        group_commit: 1,
        compact_every: 0,
        checkpoint_every_rpcs: 4,
    });
    let remote = rig.world.site(rig.client).lookup("c").unwrap();
    for i in 1..=10i64 {
        let got = rig
            .world
            .site(rig.client)
            .invoke_rmi(&remote, "add", ObiValue::I64(1))
            .unwrap();
        assert_eq!(got, ObiValue::I64(i));
    }

    // Crash keeping the whole log. No put ever ran: the WAL holds the
    // watermark logged when the log was attached, then the checkpoints.
    let wal_len = rig.durable().wal_len().unwrap();
    rig.storage.crash_keeping(WAL_FILE, wal_len);
    rig.world.restart_site(rig.client);
    let (durable, recovered) = Durable::open(
        rig.storage.clone() as Arc<dyn Storage>,
        DurableOptions::default(),
    )
    .unwrap();
    assert_eq!(
        recovered.wal_records,
        1 + 2,
        "the attach-time watermark, then ten confirmed RPCs at N = 4 checkpoint exactly twice"
    );
    assert!(recovered.next_request_seq >= SEQ_EPOCH_SKIP);
    let process = rig.world.site(rig.client);
    process.attach_durability(durable);
    process.recover_from(&recovered).unwrap();

    // The restored counter cleared the checkpointed watermark, and the
    // epoch skip covers the ≤ N seqs burned after the last checkpoint:
    // fresh requests are new to the reply cache and execute for real.
    let remote = process.lookup("c").unwrap();
    assert_eq!(
        process.invoke_rmi(&remote, "add", ObiValue::I64(1)).unwrap(),
        ObiValue::I64(11),
        "post-restart RPC must execute, not replay a stale cached reply"
    );
    assert_eq!(rig.master_value(), 11);
    obiwan::util::sync::assert_no_lock_order_violations();
    obiwan::util::sync::assert_observed_edges_in_static_graph();
}

/// A world of a client and a server mastering counter `c`, with a fresh
/// durability log (default options) attached to the client before its
/// first request.
fn logged_from_the_start() -> (ObiWorld, SiteId, Arc<MemStorage>) {
    let mut world = ObiWorld::loopback();
    let client = world.add_site("pda");
    let server = world.add_site("server");
    let master = world.site(server).create(Counter::new(0));
    world.site(server).export(master, "c").unwrap();
    let storage = attach_log(&world, client, DurableOptions::default());
    (world, client, storage)
}

/// Lives that only make RPCs log nothing of their own before their
/// `checkpoint_every_rpcs`-th call. Each restart must still skip past the
/// life before: a log left blank keeps the new process's low counter, and
/// one that never records the epoch a recovery skipped to sends the next
/// recovery to that same epoch. Either way the master's reply cache then
/// answers fresh requests with an earlier life's replies.
#[test]
fn rpc_only_lives_in_a_row_each_restart_past_the_last() {
    let (mut world, client, storage) = logged_from_the_start();
    for life in 0..3i64 {
        if life > 0 {
            let kept = storage.len(WAL_FILE).unwrap();
            restart(&mut world, client, &storage, kept);
        }
        let process = world.site(client);
        let remote = process.lookup("c").unwrap();
        for i in 1..=10 {
            assert_eq!(
                process.invoke_rmi(&remote, "add", ObiValue::I64(1)).unwrap(),
                ObiValue::I64(10 * life + i),
                "life {life}: every RPC must execute, not replay a stale cached reply"
            );
        }
    }
}

/// Demands (a `get`, `refresh`es) count toward the periodic `ClientState`
/// checkpoint like `invoke_rmi`s, so a demand-heavy life between puts
/// loses at most `checkpoint_every_rpcs` request ids from its logged
/// watermark, not all of them.
#[test]
fn demands_count_toward_the_client_state_checkpoint() {
    let (mut world, client, storage) = logged_from_the_start();
    let every = DurableOptions::default().checkpoint_every_rpcs;
    let process = world.site(client);
    let remote = process.lookup("c").unwrap();
    let replica = process.get(&remote, ReplicationMode::incremental(1)).unwrap();
    for _ in 0..100 {
        process.refresh(replica).unwrap();
    }
    // The lookup, the get and each refresh took one request id; counting
    // starts at 1, so a watermark that covers them all is `minted + 1`.
    let minted = 1 + 1 + 100;
    let kept = storage.len(WAL_FILE).unwrap();
    let recovered = restart(&mut world, client, &storage, kept);
    let logged = recovered.next_request_seq - SEQ_EPOCH_SKIP;
    assert!(
        minted + 1 - logged <= every,
        "the logged watermark {logged} leaves more than {every} of {minted} minted ids unlogged"
    );
}

/// Below a restarted client's counter every seq is spent except its pending
/// put intents, so once the new life's puts settle, its horizon must pass
/// the epoch skip: a horizon stuck below the skip stops the master from
/// ever pruning the client's replies and put records again. A pending
/// intent still holds the announced horizon below its own seq until its
/// replay settles, so the master keeps the record that answers the replay.
#[test]
fn a_restarted_client_horizon_passes_the_seq_skip_but_not_a_pending_put() {
    let mut rig = build();
    let (client, server) = (rig.client, rig.server);
    let other = rig.world.site(server).create(Counter::new(0));
    rig.world.site(server).export(other, "d").unwrap();

    // Life A: a put the master applies but whose reply never returns.
    rig.world
        .site(client)
        .invoke(rig.replica, "incr", ObiValue::Null)
        .unwrap();
    rig.world.transport().partition_oneway(server, client);
    assert!(rig
        .world
        .site(client)
        .put(rig.replica)
        .unwrap_err()
        .is_connectivity());
    rig.world.transport().heal_oneway(server, client);
    assert_eq!(
        rig.world.site(server).meta_of(rig.master).unwrap().version,
        2
    );

    let wal_len = rig.durable().wal_len().unwrap();
    let recovered = restart(&mut rig.world, client, &rig.storage, wal_len);
    assert_eq!(recovered.pending_puts.len(), 1);
    let epoch = recovered.next_request_seq;

    // Life B: enough puts of another object for horizon announcements,
    // none of which may cover the pending put; then its replay, answered
    // from the reply cache.
    let process = rig.world.site(client);
    let remote = process.lookup("d").unwrap();
    let replica = process
        .get(&remote, ReplicationMode::incremental(1))
        .unwrap();
    for _ in 0..2 * ANNOUNCE_EVERY {
        process.invoke(replica, "incr", ObiValue::Null).unwrap();
        process.put(replica).unwrap();
    }
    // More replies than the master's reply cache holds: the pending put's
    // cached reply goes, and only the counter's record of it, kept because
    // no horizon it heard covers the put, stops a second apply.
    for _ in 0..=ReplyCache::DEFAULT_CAPACITY {
        process.invoke_rmi(&remote, "read", ObiValue::Null).unwrap();
    }
    assert_eq!(process.put(rig.replica).unwrap(), 2);
    assert_eq!(
        rig.world.site(server).meta_of(rig.master).unwrap().version,
        2,
        "the replay ran again: an announcement covered its pending seq"
    );
    process.invoke(replica, "incr", ObiValue::Null).unwrap();
    process.put(replica).unwrap();

    let wal_len = rig.durable().wal_len().unwrap();
    let again = restart(&mut rig.world, client, &rig.storage, wal_len);
    assert!(
        again.horizon >= epoch,
        "the horizon stayed at {} below the epoch {epoch}",
        again.horizon
    );
    obiwan::util::sync::assert_no_lock_order_violations();
    obiwan::util::sync::assert_observed_edges_in_static_graph();
}

// -- journal/state agreement --------------------------------------------------

/// Three counters for a session whose journal must account for its state.
const TRIO_BASE: [i64; 3] = [100, 200, 300];

/// Small enough that a session of [`TRIO_ADDS`] ops compacts twice.
fn trio_options() -> DurableOptions {
    DurableOptions {
        group_commit: 8,
        compact_every: 10,
        ..DurableOptions::default()
    }
}

/// Counters mastered at a server, one per base value, each replicated at
/// a client. Built the same way every time, so object ids repeat.
struct Counters {
    world: ObiWorld,
    client: SiteId,
    server: SiteId,
    masters: Vec<ObjRef>,
    replicas: Vec<ObjRef>,
}

fn build_counters(bases: &[i64]) -> Counters {
    let mut world = ObiWorld::loopback();
    let client = world.add_site("pda");
    let server = world.add_site("server");
    let mut masters = Vec::with_capacity(bases.len());
    let mut replicas = Vec::with_capacity(bases.len());
    for &base in bases {
        let master = world.site(server).create(Counter::new(base));
        let remote = world.site(server).export_anonymous(master).unwrap();
        masters.push(master);
        replicas.push(
            world
                .site(client)
                .get(&remote, ReplicationMode::incremental(1))
                .unwrap(),
        );
    }
    Counters {
        world,
        client,
        server,
        masters,
        replicas,
    }
}

/// The [`TRIO_BASE`] counters.
fn build_trio() -> Counters {
    build_counters(&TRIO_BASE)
}

/// `add`s in the filmed session: enough that its sweep has more than 1000
/// crash states.
const TRIO_ADDS: i64 = 27;

/// The offline session under test, filmed: [`TRIO_ADDS`] `add`s of
/// distinct amounts dealt round-robin over the trio, and in the middle one
/// `add` whose argument is rejected — it fails, yet marks its replica
/// modified.
/// Returns the WAL after every write, so a sweep can put a restarted site
/// in front of any state the storage ever passed through, each
/// compaction's rewrite included.
fn film_the_trio_session() -> Vec<Vec<u8>> {
    let trio = build_trio();
    let storage = attach_log(&trio.world, trio.client, trio_options());
    let process = trio.world.site(trio.client);
    trio.world.disconnect(trio.client);
    let mut session = DisconnectedSession::new();
    for k in 0..TRIO_ADDS {
        if k == TRIO_ADDS / 2 {
            let failed = session.invoke(process, trio.replicas[0], "add", ObiValue::Null);
            assert!(failed.is_err());
        }
        let replica = trio.replicas[k as usize % 3];
        session.invoke(process, replica, "add", ObiValue::I64(k + 1)).unwrap();
    }
    process.durability().unwrap().commit().unwrap();
    storage.history(WAL_FILE)
}

/// The states a crash during the filmed session can leave the WAL in:
/// every appended byte torn off in turn, and each compaction's rewrite,
/// which is atomic and so leaves the whole old log or the whole new one.
fn crash_states(frames: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let mut states = vec![Vec::new()];
    let mut compactions = 0;
    let mut prev: &[u8] = &[];
    for wal in frames {
        if wal.starts_with(prev) {
            for keep in prev.len() + 1..wal.len() {
                states.push(wal[..keep].to_vec());
            }
        } else {
            compactions += 1;
        }
        states.push(wal.clone());
        prev = wal;
    }
    assert!(compactions >= 2, "the sweep must cross a compaction");
    states
}

/// Crash a journaled session at every WAL byte offset, across the
/// compactions it runs into. What `Durable::open`
/// returns must always be a state and a journal that agree — every dirty
/// counter stands at its base plus the recovered successful `add`s, and a
/// counter no recovered op names is not dirty — because an op and the
/// state it produced are one record. Then resume, reconnect, reintegrate:
/// the masters converge on exactly what the journal accounts for.
#[test]
fn every_crash_offset_recovers_a_journal_that_accounts_for_its_state() {
    use obiwan::core::DecodableObject;
    use obiwan::wire::Decoder;
    let states = crash_states(&film_the_trio_session());
    assert!(states.len() > 1000, "{} crash states", states.len());
    let mut last_ops = 0usize;
    let mut with_a_failed_op = 0;
    for (n, wal) in states.iter().enumerate() {
        let mut trio = build_trio();
        let storage = Arc::new(MemStorage::new());
        storage.replace(WAL_FILE, wal).unwrap();
        storage.crash_keeping(WAL_FILE, wal.len() as u64);
        let (durable, recovered) =
            Durable::open(storage.clone() as Arc<dyn Storage>, trio_options()).unwrap();

        // The journal is a prefix of the session, longer with every state.
        assert!(recovered.ops.len() >= last_ops, "state {n}: the journal shrank");
        last_ops = recovered.ops.len();
        with_a_failed_op += usize::from(recovered.ops.iter().any(|op| !op.succeeded));
        let mut expected = TRIO_BASE;
        for (i, replica) in trio.replicas.iter().enumerate() {
            let ops = || recovered.ops.iter().filter(|op| op.target == replica.id());
            expected[i] += ops()
                .filter(|op| op.succeeded && op.method == "add")
                .map(|op| op.args[0].as_i64().unwrap())
                .sum::<i64>();
            match recovered.dirty.get(&replica.id()) {
                Some((provider, state)) => {
                    assert_eq!(*provider, trio.server);
                    assert_eq!(
                        Counter::decode_from(&mut Decoder::new(&state.state)).unwrap().count,
                        expected[i],
                        "state {n}: counter {i}'s recovered state and journal disagree"
                    );
                }
                None => assert_eq!(
                    ops().count(),
                    0,
                    "state {n}: counter {i} has recovered ops but no recovered state"
                ),
            }
        }
        assert_eq!(
            recovered.dirty.len(),
            trio.replicas.iter().filter(|r| recovered.dirty.contains_key(&r.id())).count(),
            "state {n}: a recovered state belongs to no counter of the session"
        );

        // Restart over that log and write back.
        trio.world.restart_site(trio.client);
        let process = trio.world.site(trio.client);
        process.attach_durability(durable);
        assert_eq!(process.recover_from(&recovered).unwrap(), recovered.dirty.len());
        let session = DisconnectedSession::resume(&recovered);
        assert_eq!(session.len(), recovered.ops.len());
        let report = session.reintegrate(process);
        assert!(report.is_clean(), "state {n}: {report:?}");
        assert_eq!(report.pushed(), recovered.dirty.len(), "state {n}");
        for (i, &master) in trio.masters.iter().enumerate() {
            let value = trio.world.site(trio.server).invoke(master, "read", ObiValue::Null);
            assert_eq!(value, Ok(ObiValue::I64(expected[i])), "state {n}: master {i}");
        }
    }
    assert_eq!(last_ops as i64, TRIO_ADDS + 1, "an untouched log recovers the whole session");
    assert!(with_a_failed_op > 0);
    obiwan::util::sync::assert_no_lock_order_violations();
    obiwan::util::sync::assert_observed_edges_in_static_graph();
}

// -- grouped write-back -------------------------------------------------------

/// Counters enough for a write-back of more than two groups (`put_many`
/// makes 64 put intents durable per sync).
const FLEET: usize = 130;

/// [`FLEET`] counters mastered at the server, each replicated at a durable
/// client and incremented once offline: a write-back waiting to happen.
struct Fleet {
    world: ObiWorld,
    client: SiteId,
    server: SiteId,
    masters: Vec<ObjRef>,
    replicas: Vec<ObjRef>,
    storage: Arc<MemStorage>,
    session: DisconnectedSession,
    /// Every master's version before any write-back.
    base_version: u64,
}

fn build_fleet() -> Fleet {
    let Counters {
        world,
        client,
        server,
        masters,
        replicas,
    } = build_counters(&[0; FLEET]);
    let base_version = world.site(server).meta_of(masters[0]).unwrap().version;
    let storage = attach_log(&world, client, DurableOptions::default());
    world.disconnect(client);
    let mut session = DisconnectedSession::new();
    for &replica in &replicas {
        session
            .invoke(world.site(client), replica, "add", ObiValue::I64(1))
            .unwrap();
    }
    world.site(client).durability().unwrap().commit().unwrap();
    world.reconnect(client);
    Fleet {
        world,
        client,
        server,
        masters,
        replicas,
        storage,
        session,
        base_version,
    }
}

impl Fleet {
    fn durable(&self) -> Arc<Durable> {
        self.world.site(self.client).durability().unwrap().clone()
    }

    fn reintegrate(&self) -> ReintegrationReport {
        self.session.reintegrate(self.world.site(self.client))
    }

    /// Reintegrates until the WAL reaches `limit` bytes and the process is
    /// killed there.
    fn reintegrate_until_killed_at(&self, limit: u64) {
        until_killed_at(&self.storage, limit, || self.reintegrate());
    }

    /// [`restart`] over the first `keep` bytes of the dead process's WAL,
    /// resuming its session.
    fn restart_keeping(&mut self, keep: u64) {
        let recovered = restart(&mut self.world, self.client, &self.storage, keep);
        self.session = DisconnectedSession::resume(&recovered);
    }

    fn master_version(&self, i: usize) -> u64 {
        let meta = self.world.site(self.server).meta_of(self.masters[i]);
        meta.unwrap().version
    }

    fn master_value(&self, i: usize) -> ObiValue {
        self.world
            .site(self.server)
            .invoke(self.masters[i], "read", ObiValue::Null)
            .unwrap()
    }

    /// Version continuity: every master took its counter's one offline
    /// increment in exactly one put.
    fn assert_every_put_applied_exactly_once(&self, context: &str) {
        for i in 0..FLEET {
            assert_eq!(self.master_value(i), ObiValue::I64(1), "{context}: master {i}");
            assert_eq!(
                self.master_version(i),
                self.base_version + 1,
                "{context}: master {i} applied its put more or less than once"
            );
        }
    }

    /// What a restart now would find in the log.
    fn log_contents(&self) -> RecoveredState {
        Durable::open(self.storage.clone(), DurableOptions::default()).unwrap().1
    }

    fn pending_intents(&self) -> usize {
        let durable = self.durable();
        let pending = |r: &&ObjRef| durable.pending_put(r.id()).is_some();
        self.replicas.iter().filter(pending).count()
    }
}

/// Maps a write-back from a run nobody kills: the WAL length it starts
/// at, and where each frame it appends ends, read with the WAL's own
/// framing off the longest the WAL grew.
fn map_write_back(storage: &MemStorage, write_back: impl FnOnce()) -> (u64, Vec<u64>) {
    let start = storage.len(WAL_FILE).unwrap();
    write_back();
    let history = storage.history(WAL_FILE);
    let peak = history.iter().max_by_key(|wal| wal.len()).unwrap();
    let ends = obiwan::store::wal::frame_ends(peak).into_iter().map(|end| end as u64);
    (start, ends.filter(|&end| end > start).collect())
}

/// [`map_write_back`] of the fleet's reintegration.
fn write_back_map() -> &'static (u64, Vec<u64>) {
    static MAP: std::sync::OnceLock<(u64, Vec<u64>)> = std::sync::OnceLock::new();
    MAP.get_or_init(|| {
        let fleet = build_fleet();
        map_write_back(&fleet.storage, || {
            let report = fleet.reintegrate();
            assert!(report.is_clean() && report.pushed() == FLEET, "{report:?}");
            fleet.assert_every_put_applied_exactly_once("unkilled");
        })
    })
}

/// The process is killed at *every* WAL length the grouped write-back
/// passes through — inside a group's batch of intents, after the batch but
/// before its sync and first RPC, inside or after any confirmation, so
/// between any two RPCs of a group and between groups. Whatever had left
/// by then, the restarted site's next pass completes the write-back with
/// every put applied exactly once.
#[test]
fn a_kill_at_every_wal_offset_of_a_grouped_write_back_applies_each_put_exactly_once() {
    let (start, frame_ends) = write_back_map();
    assert_eq!(frame_ends.len(), 2 * FLEET + FLEET.div_ceil(64));
    let mut replayed = 0u64;
    for limit in kill_limits(*start, frame_ends) {
        let mut fleet = build_fleet();
        fleet.reintegrate_until_killed_at(limit);
        fleet.restart_keeping(limit);
        let cached_before = fleet.world.site(fleet.server).metrics().snapshot().cached_replies;
        let report = fleet.reintegrate();
        assert!(report.is_clean(), "limit={limit}: {report:?}");
        fleet.assert_every_put_applied_exactly_once(&format!("limit={limit}"));
        let left = fleet.log_contents();
        assert!(
            left.dirty.is_empty() && left.ops.is_empty() && left.pending_puts.is_empty(),
            "limit={limit}: the log still holds {} dirty, {} ops, {} pending puts",
            left.dirty.len(),
            left.ops.len(),
            left.pending_puts.len()
        );
        replayed +=
            fleet.world.site(fleet.server).metrics().snapshot().cached_replies - cached_before;
    }
    assert!(
        replayed > 0,
        "some kill must fall between a put's arrival and its confirmation"
    );
    obiwan::util::sync::assert_no_lock_order_violations();
    obiwan::util::sync::assert_observed_edges_in_static_graph();
}

/// The same sweep under a power loss: killed at every WAL length the
/// write-back passes through, the site restarts over only what it had
/// synced. Confirmations wait for the next group's sync, so the loss takes
/// up to a whole group of them, and the puts they settled go out again;
/// every one must still find its reply cached, because the client never
/// told the master to forget a reply whose confirmation was unsynced. The
/// master runs `AcceptAll`, so a put applied twice would show as a version
/// step.
#[test]
fn a_power_loss_at_every_wal_offset_of_a_grouped_write_back_applies_each_put_exactly_once() {
    let (start, frame_ends) = write_back_map();
    let (mut replayed, mut lost_confirmations) = (0u64, 0usize);
    for limit in kill_limits(*start, frame_ends) {
        let mut fleet = build_fleet();
        fleet.reintegrate_until_killed_at(limit);
        let synced = fleet.storage.synced_len(WAL_FILE);
        let pending_as_written = fleet.log_contents().pending_puts.len();
        fleet.restart_keeping(synced);
        let lost = fleet.pending_intents().saturating_sub(pending_as_written);
        lost_confirmations = lost_confirmations.max(lost);
        let cached_before = fleet.world.site(fleet.server).metrics().snapshot().cached_replies;
        let report = fleet.reintegrate();
        assert!(report.is_clean(), "limit={limit}, synced={synced}: {report:?}");
        fleet.assert_every_put_applied_exactly_once(&format!("limit={limit}, synced={synced}"));
        replayed +=
            fleet.world.site(fleet.server).metrics().snapshot().cached_replies - cached_before;
    }
    assert!(
        lost_confirmations > 8,
        "some power loss must take more confirmations than a group commit holds \
         ({lost_confirmations})"
    );
    assert!(replayed > 0, "some replay must be answered from the reply cache");
    obiwan::util::sync::assert_no_lock_order_violations();
    obiwan::util::sync::assert_observed_edges_in_static_graph();
}

/// One sync per group of intents, not one per put: three groups' batches,
/// and the snapshot that closes a clean session. The confirmations and
/// watermarks never sync on their own: each group's sync carries the
/// previous group's, and the snapshot the last one's.
#[test]
fn a_grouped_write_back_syncs_once_per_group_of_intents() {
    let fleet = build_fleet();
    let syncs_before = fleet.storage.sync_count();
    let appends_before = fleet.durable().wal_stats().appends();
    let report = fleet.reintegrate();
    assert!(report.is_clean() && report.pushed() == FLEET, "{report:?}");
    let syncs = fleet.storage.sync_count() - syncs_before;
    let groups = FLEET.div_ceil(64) as u64;
    assert_eq!(syncs, groups + 1, "{syncs} syncs for {FLEET} puts");
    assert_eq!(
        fleet.durable().wal_stats().appends() - appends_before,
        2 * FLEET as u64 + groups,
        "an intent and a confirmation per put, a watermark per group"
    );
}

/// The link starts losing replies part-way through the first group. The
/// pass leaves that group's unanswered intents pending and plans no further
/// group for the unreachable master; the next pass sends exactly those
/// requests again, so the master answers the ones it had applied from its
/// reply cache, and only the objects never planned take new ids.
#[test]
fn a_pass_that_goes_unreachable_mid_group_leaves_one_groups_intents_and_reuses_them() {
    use obiwan::rmi::fault::BREAKER_COOLDOWN;
    let fleet = build_fleet();
    fleet.world.transport().reseed(11);
    set_link(
        &fleet.world,
        fleet.client,
        fleet.server,
        LinkModel::ideal().with_reply_loss(0.4),
    );
    fleet.world.site(fleet.client).set_rpc_policy(RetryPolicy {
        max_retries: 0,
        ..RetryPolicy::default()
    });
    let report = fleet.reintegrate();
    let unreachable = report.outcomes.len() - report.pushed();
    assert_eq!(report.outcomes.len(), FLEET);
    assert!(report.pushed() > 0 && unreachable > FLEET - 64, "{report:?}");
    assert!(report.conflicts().is_empty(), "{report:?}");
    let pending = fleet.pending_intents();
    assert!(pending > 0 && pending <= 64, "{pending} intents left pending");
    assert_eq!(
        pending + report.pushed(),
        64,
        "only the first group was planned: its puts were acked or are pending"
    );
    // Applied at the master, but the ack never arrived.
    let landed = (0..FLEET)
        .filter(|&i| fleet.master_version(i) > fleet.base_version)
        .count()
        - report.pushed();
    assert!(landed > 0 && landed <= pending);
    let next_seq_before = fleet.log_contents().next_request_seq;

    set_link(&fleet.world, fleet.client, fleet.server, LinkModel::ideal());
    fleet
        .world
        .site(fleet.client)
        .clock()
        .charge(BREAKER_COOLDOWN);
    let cached_before = fleet.world.site(fleet.server).metrics().snapshot().cached_replies;
    let report = fleet.reintegrate();
    assert!(report.is_clean(), "{report:?}");
    assert_eq!(report.pushed(), unreachable);
    assert_eq!(
        fleet.world.site(fleet.server).metrics().snapshot().cached_replies - cached_before,
        landed as u64,
        "every put that had landed is answered from the reply cache"
    );
    assert_eq!(
        fleet.log_contents().next_request_seq - next_seq_before,
        (unreachable - pending) as u64,
        "the pending intents kept their ids; only never-planned puts reserved new ones"
    );
    fleet.assert_every_put_applied_exactly_once("after the second pass");
    obiwan::util::sync::assert_no_lock_order_violations();
    obiwan::util::sync::assert_observed_edges_in_static_graph();
}

/// A replica mutated after its group was snapshotted but before its own put
/// is acked: the ack covers the snapshotted state only, so the replica
/// stays dirty, and the next pass pushes the newer state under a fresh id.
#[test]
fn a_replica_mutated_between_the_group_snapshot_and_its_ack_stays_dirty() {
    use obiwan::net::Transport;
    use obiwan::wire::Message;
    let fleet = build_fleet();
    let late = fleet.replicas[5];
    // The first put request to reach the server finds the client mutating
    // replica 5 — whose own put is still to come, carrying the old state.
    let server = fleet.world.site(fleet.server).message_handler();
    let client = fleet.world.site(fleet.client).clone();
    let mutated = std::sync::atomic::AtomicBool::new(false);
    fleet.world.transport().register(
        fleet.server,
        Arc::new(move |from: SiteId, frame: bytes::Bytes| {
            let is_put = matches!(Message::decode(&frame), Ok(Message::PutRequest { .. }));
            if is_put && !mutated.swap(true, Ordering::Relaxed) {
                client.invoke(late, "add", ObiValue::I64(10)).unwrap();
            }
            server.handle(from, frame)
        }),
    );
    let report = fleet.reintegrate();
    assert!(report.is_clean() && report.pushed() == FLEET, "{report:?}");
    assert_eq!(fleet.master_value(5), ObiValue::I64(1), "the snapshotted state was sent");
    let meta = fleet.world.site(fleet.client).meta_of(late).unwrap();
    assert!(meta.dirty, "the ack did not cover the newer state");
    assert!(fleet.durable().pending_put(late.id()).is_none(), "the sent state's intent is settled");
    let left = fleet.log_contents();
    assert_eq!(left.dirty.keys().collect::<Vec<_>>(), [&late.id()], "and it is still durable");
    let next_seq_before = left.next_request_seq;

    let report = fleet.reintegrate();
    assert_eq!(report.outcomes.len(), 1, "{report:?}");
    assert!(report.is_clean(), "{report:?}");
    assert_eq!(fleet.master_value(5), ObiValue::I64(11));
    assert_eq!(fleet.master_version(5), fleet.base_version + 2);
    assert_eq!(fleet.log_contents().next_request_seq, next_seq_before + 1, "one fresh id");
    assert!(!fleet.world.site(fleet.client).meta_of(late).unwrap().dirty);
    obiwan::util::sync::assert_no_lock_order_violations();
    obiwan::util::sync::assert_observed_edges_in_static_graph();
}

// -- cluster write-back -------------------------------------------------------

/// Nodes of the list the cluster write-back carries.
const LIST: usize = 3;

/// A [`LIST`]-node list mastered at the server, cluster-replicated at a
/// durable client, and every member edited there: one cluster write-back
/// waiting to happen.
struct ClusterRig {
    world: ObiWorld,
    client: SiteId,
    server: SiteId,
    nodes: Vec<ObjRef>,
    storage: Arc<MemStorage>,
    /// Every master's version before the write-back.
    base_version: u64,
}

fn build_cluster_rig() -> ClusterRig {
    use obiwan::core::demo::LinkedItem;
    let mut world = ObiWorld::loopback();
    let client = world.add_site("pda");
    let server = world.add_site("server");
    let mut nodes = vec![world.site(server).create(LinkedItem::new(0, "tail"))];
    for i in 1..LIST {
        let next = nodes[i - 1];
        nodes.push(world.site(server).create(LinkedItem::with_next(0, "node", next)));
    }
    nodes.reverse();
    world.site(server).export(nodes[0], "list").unwrap();
    let remote = world.site(client).lookup("list").unwrap();
    world
        .site(client)
        .get(&remote, ReplicationMode::cluster(LIST))
        .unwrap();
    let base_version = world.site(server).meta_of(nodes[0]).unwrap().version;
    let storage = attach_log(&world, client, DurableOptions::default());
    for (i, &node) in nodes.iter().enumerate() {
        let value = ObiValue::I64(100 + i as i64);
        world.site(client).invoke(node, "set_value", value).unwrap();
    }
    world.site(client).durability().unwrap().commit().unwrap();
    ClusterRig {
        world,
        client,
        server,
        nodes,
        storage,
        base_version,
    }
}

impl ClusterRig {
    fn write_back(&self) -> obiwan::util::Result<usize> {
        self.world.site(self.client).put_all_dirty()
    }

    /// Writes the cluster back until the WAL reaches `limit` bytes and the
    /// process is killed there.
    fn write_back_until_killed_at(&self, limit: u64) {
        until_killed_at(&self.storage, limit, || self.write_back());
    }

    /// [`restart`] over the first `keep` bytes of the dead process's WAL.
    /// What it recovers are plain replicas: the log does not record cluster
    /// membership.
    fn restart_keeping(&mut self, keep: u64) {
        restart(&mut self.world, self.client, &self.storage, keep);
    }

    /// Version continuity: every master took its node's edit in exactly one
    /// put.
    fn assert_every_member_applied_exactly_once(&self, context: &str) {
        let server = self.world.site(self.server);
        for (i, &node) in self.nodes.iter().enumerate() {
            let value = server.invoke(node, "value", ObiValue::Null).unwrap();
            assert_eq!(value, ObiValue::I64(100 + i as i64), "{context}: node {i}");
            assert_eq!(
                server.meta_of(node).unwrap().version,
                self.base_version + 1,
                "{context}: node {i} applied its put more or less than once"
            );
        }
    }
}

/// [`map_write_back`] of the cluster write-back.
fn cluster_write_back_map() -> &'static (u64, Vec<u64>) {
    static MAP: std::sync::OnceLock<(u64, Vec<u64>)> = std::sync::OnceLock::new();
    MAP.get_or_init(|| {
        let rig = build_cluster_rig();
        map_write_back(&rig.storage, || {
            assert_eq!(rig.write_back().unwrap(), LIST);
            rig.assert_every_member_applied_exactly_once("unkilled");
        })
    })
}

/// The WAL lengths a sweep from `start` to the last of `frame_ends` kills
/// at. Kills inside one frame all tear the same record, and the WAL's own
/// sweeps tear records byte by byte, so a debug build — tier 1 — kills on
/// either side of every frame's end, and a release build — CI's chaos job —
/// at every byte.
fn kill_limits(start: u64, frame_ends: &[u64]) -> Vec<u64> {
    let peak = *frame_ends.last().unwrap();
    if !cfg!(debug_assertions) {
        return (start..=peak).collect();
    }
    let around = frame_ends.iter().flat_map(|&end| [end - 1, end, end + 1]);
    let mut limits: Vec<u64> = std::iter::once(start).chain(around).collect();
    limits.retain(|limit| (start..=peak).contains(limit));
    limits.dedup();
    limits
}

/// A cluster write-back is one put, with one intent per member under its
/// one request id. The process is killed at every WAL length the write-back
/// passes through: inside the batch of intents, after it but before its
/// sync and RPC, inside or after any confirmation. The restarted site
/// recovers the members as plain replicas, and its next write-back sends
/// the intents that survived together again, as the one put they were: the
/// master takes each member's edit exactly once, from the reply cache when
/// the put had already landed.
#[test]
fn a_kill_at_every_wal_offset_of_a_cluster_write_back_applies_each_member_exactly_once() {
    let (start, frame_ends) = cluster_write_back_map();
    let mut replayed = 0u64;
    for limit in kill_limits(*start, frame_ends) {
        let mut rig = build_cluster_rig();
        rig.write_back_until_killed_at(limit);
        rig.restart_keeping(limit);
        let server = rig.world.site(rig.server);
        let cached_before = server.metrics().snapshot().cached_replies;
        rig.write_back().unwrap();
        rig.assert_every_member_applied_exactly_once(&format!("limit={limit}"));
        let storage = rig.storage.clone() as Arc<dyn Storage>;
        let left = Durable::open(storage, DurableOptions::default()).unwrap().1;
        assert!(
            left.dirty.is_empty() && left.pending_puts.is_empty(),
            "limit={limit}: the log still holds {} dirty, {} pending puts",
            left.dirty.len(),
            left.pending_puts.len()
        );
        replayed += server.metrics().snapshot().cached_replies - cached_before;
    }
    assert!(
        replayed > 0,
        "some kill must fall between the put's arrival and its confirmations"
    );
    assert_eq!(
        frame_ends.len(),
        2 * LIST + 1,
        "an intent and a confirmation per member, and one watermark"
    );
    obiwan::util::sync::assert_no_lock_order_violations();
    obiwan::util::sync::assert_observed_edges_in_static_graph();
}

/// Case count mirrors tests/chaos.rs: 48 by default, `PROPTEST_CASES` in CI.
fn configured_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(48)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(configured_cases()))]

    /// The random dimension: any op count, any crash fraction, crash
    /// before or after reconnecting. Recovery must never error, never
    /// over-push, and a second crash-free reintegration must converge.
    ///
    /// The master runs `OptimisticDetect`: a crash that keeps a stale
    /// delta but loses the put intent replays under a *fresh* seq (the
    /// reply cache cannot vouch for it), and only version detection stops
    /// that stale state from rolling the master back. Pushes whose intent
    /// survived dedupe through the reply cache as usual.
    #[test]
    fn random_crash_points_recover_exactly_once(
        ops in 1usize..5,
        keep_pct in 0u64..=100,
        crash_after_reconnect in proptest::bool::ANY,
    ) {
        let mut rig = build();
        rig.world
            .site(rig.server)
            .set_policy(Box::new(obiwan::consistency::OptimisticDetect::new()));
        rig.disconnected_adds(ops);
        if crash_after_reconnect {
            rig.world.reconnect(rig.client);
            rig.world.site(rig.client).put(rig.replica).unwrap();
        }
        let wal_len = rig.durable().wal_len().unwrap();
        let keep = wal_len * keep_pct / 100;
        let session = rig.crash_and_restart(keep);
        rig.world.reconnect(rig.client);
        let report = session.reintegrate(rig.world.site(rig.client));
        let expected_max = ops as i64;
        let value = rig.master_value();
        prop_assert!(
            (0..=expected_max).contains(&value),
            "master at {} after {} ops, keep {}/{}",
            value, ops, keep, wal_len
        );
        let had_conflict = !report.conflicts().is_empty();
        if crash_after_reconnect {
            // The full session was pushed before the crash; whatever the
            // crash point, replaying must not move the master's value.
            // Either the surviving intent dedupes through the reply cache,
            // or the stale delta goes out under a fresh seq and version
            // detection rejects it — never a rollback, never double-apply.
            prop_assert_eq!(value, expected_max);
        } else {
            // Mid-disconnection crash: the master never moved, so the
            // recovered prefix is always based on the current version.
            prop_assert!(!had_conflict, "unexpected conflicts: {:?}", report);
        }
        for (_, outcome) in &report.outcomes {
            prop_assert!(
                !matches!(outcome, obiwan::mobility::session::ReintegrationOutcome::Unreachable),
                "reconnected reintegration must reach the master"
            );
        }
        // A second pass converges: nothing left to push, except a stale
        // conflicted replica, which stays dirty (and stays rejected) until
        // the application resolves it.
        let again = session.reintegrate(rig.world.site(rig.client));
        if had_conflict {
            prop_assert_eq!(again.conflicts(), report.conflicts());
        } else {
            prop_assert!(again.outcomes.is_empty(), "dirty state must drain: {:?}", again);
        }
        prop_assert_eq!(rig.master_value(), value);
        obiwan::util::sync::assert_no_lock_order_violations();
        obiwan::util::sync::assert_observed_edges_in_static_graph();
    }

    /// The same dimension over a grouped write-back: killed anywhere in it,
    /// and restarted over either everything it had written (a SIGKILL) or
    /// only what it had synced (a power loss). Confirmations are not
    /// forced, so a power loss can take a group of them, but the master is
    /// never told to forget a reply whose confirmation is unsynced: every
    /// such put is answered from the reply cache, and neither kind of crash
    /// leaves a conflict behind.
    #[test]
    fn random_kills_of_a_grouped_write_back_recover_exactly_once(
        kill_pct in 0u64..=100,
        power_loss in proptest::bool::ANY,
    ) {
        let mut fleet = build_fleet();
        fleet.world
            .site(fleet.server)
            .set_policy(Box::new(obiwan::consistency::OptimisticDetect::new()));
        let (start, frame_ends) = write_back_map();
        let limit = start + (frame_ends.last().unwrap() - start) * kill_pct / 100;
        fleet.reintegrate_until_killed_at(limit);
        let keep = if power_loss { fleet.storage.synced_len(WAL_FILE) } else { limit };
        fleet.restart_keeping(keep);
        let report = fleet.reintegrate();
        prop_assert!(report.is_clean(), "limit {}, keep {}: {:?}", limit, keep, report);
        for (_, outcome) in &report.outcomes {
            prop_assert!(
                !matches!(outcome, obiwan::mobility::session::ReintegrationOutcome::Unreachable),
                "reconnected reintegration must reach the master"
            );
        }
        fleet.assert_every_put_applied_exactly_once(&format!("limit {limit}, keep {keep}"));
        // A second pass converges: nothing left but the conflicts, which
        // stay rejected until the application resolves them.
        let again = fleet.reintegrate();
        prop_assert_eq!(again.conflicts(), report.conflicts());
        prop_assert_eq!(again.outcomes.len(), report.conflicts().len());
        obiwan::util::sync::assert_no_lock_order_violations();
        obiwan::util::sync::assert_observed_edges_in_static_graph();
    }
}
