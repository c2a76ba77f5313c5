use super::*;

fn lib(path: &str, body: &str) -> SourceFile {
    SourceFile::new(path, body)
}

fn rules_fired(diags: &[Diagnostic]) -> Vec<&'static str> {
    diags.iter().map(|d| d.rule).collect()
}

// -- guard-across-transport --------------------------------------------------

#[test]
fn live_guard_across_call_is_flagged_with_both_lines() {
    let f = lib(
        "crates/demo/src/lib.rs",
        r#"
impl S {
    pub fn bad(&self) {
        let guard = self.state.lock();
        self.transport.call(1, 2, frame);
    }
}
"#,
    );
    let diags = check(&[f]);
    assert_eq!(rules_fired(&diags), vec![RULE_GUARD_ACROSS_TRANSPORT]);
    assert_eq!(diags[0].line, 5);
    assert!(diags[0].message.contains("`guard`"));
    assert!(diags[0].message.contains("line 4"));
}

#[test]
fn same_statement_guard_temporary_is_flagged() {
    let f = lib(
        "crates/demo/src/lib.rs",
        "fn f(t: &T) { t.peer.send(t.frame.lock().clone()); }\n",
    );
    let diags = check(&[f]);
    assert_eq!(rules_fired(&diags), vec![RULE_GUARD_ACROSS_TRANSPORT]);
}

#[test]
fn dropped_guard_is_not_flagged() {
    let f = lib(
        "crates/demo/src/lib.rs",
        r#"
fn f(s: &S) {
    let guard = s.state.lock();
    let frame = guard.frame();
    drop(guard);
    s.transport.call(frame);
}
"#,
    );
    assert!(check(&[f]).is_empty());
}

#[test]
fn guard_scoped_in_block_is_not_flagged() {
    let f = lib(
        "crates/demo/src/lib.rs",
        r#"
fn f(s: &S) {
    let frame = {
        let topology = s.topology.read();
        topology.frame()
    };
    s.transport.call(frame);
}
"#,
    );
    assert!(check(&[f]).is_empty());
}

#[test]
fn deref_copy_is_not_a_guard() {
    let f = lib(
        "crates/demo/src/lib.rs",
        r#"
fn f(s: &S) {
    let policy = *s.policy.lock();
    s.transport.call(policy.deadline);
}
"#,
    );
    assert!(check(&[f]).is_empty());
}

#[test]
fn multiline_let_binding_is_tracked() {
    let f = lib(
        "crates/demo/src/lib.rs",
        r#"
fn f(s: &S) {
    let guard = s
        .state
        .lock();
    s.transport.recv(1);
}
"#,
    );
    let diags = check(&[f]);
    assert_eq!(rules_fired(&diags), vec![RULE_GUARD_ACROSS_TRANSPORT]);
    assert_eq!(diags[0].line, 6);
}

#[test]
fn tokens_inside_strings_and_comments_are_ignored() {
    let f = lib(
        "crates/demo/src/lib.rs",
        r#"
fn f(s: &S) {
    // let guard = s.state.lock(); then s.transport.call(..)
    let doc = "how to .lock() and .call( things";
    s.log(doc);
}
"#,
    );
    assert!(check(&[f]).is_empty());
}

#[test]
fn test_module_and_integration_tests_are_exempt() {
    let in_mod = lib(
        "crates/demo/src/lib.rs",
        r#"
#[cfg(test)]
mod tests {
    fn f(s: &S) {
        let guard = s.state.lock();
        s.transport.call(1);
    }
}
"#,
    );
    let in_tests_dir = lib(
        "tests/demo.rs",
        "fn f(s: &S) {\n    let guard = s.state.lock();\n    s.transport.call(1);\n}\n",
    );
    assert!(check(&[in_mod, in_tests_dir]).is_empty());
}

#[test]
fn allow_comment_on_same_or_previous_line_suppresses() {
    let same = lib(
        "crates/demo/src/lib.rs",
        r#"
fn f(s: &S) {
    let guard = s.state.lock();
    s.transport.call(1); // lint:allow(guard-across-transport) nested faults
}
"#,
    );
    let above = lib(
        "crates/other/src/lib.rs",
        r#"
fn f(s: &S) {
    let guard = s.state.lock();
    // lint:allow(guard-across-transport) fixture: hold is deliberate here
    s.transport.call(1);
}
"#,
    );
    assert!(check(&[same, above]).is_empty());
}

#[test]
fn allow_for_a_different_rule_does_not_suppress() {
    let f = lib(
        "crates/demo/src/lib.rs",
        r#"
fn f(s: &S) {
    let guard = s.state.lock();
    s.transport.call(1); // lint:allow(no-unwrap-on-lock-or-decode) wrong rule on purpose
}
"#,
    );
    assert_eq!(check(&[f]).len(), 1);
}

// -- single-shard-guard ------------------------------------------------------

#[test]
fn second_shard_guard_while_one_is_held_is_flagged() {
    let f = lib(
        "crates/demo/src/lib.rs",
        r#"
impl Space {
    fn transfer(&self, a: ObjId, b: ObjId) {
        let src = self.shard(a).write();
        let dst = self.shard(b).write();
        dst.put(src.take());
    }
}
"#,
    );
    let diags = check(&[f]);
    assert_eq!(rules_fired(&diags), vec![RULE_SINGLE_SHARD_GUARD]);
    assert_eq!(diags[0].line, 5);
    assert!(diags[0].message.contains("`src`"));
    assert!(diags[0].message.contains("line 4"));
    assert!(diags[0].message.contains("lock_pair"));
}

#[test]
fn two_shard_guards_in_one_statement_are_flagged() {
    let f = lib(
        "crates/demo/src/lib.rs",
        "fn f(s: &Space) { merge(s.shard(a).write(), s.shard(b).write()); }\n",
    );
    let diags = check(&[f]);
    assert_eq!(rules_fired(&diags), vec![RULE_SINGLE_SHARD_GUARD]);
    assert!(diags[0].message.contains("one statement"));
}

#[test]
fn lock_pair_and_lock_many_are_the_sanctioned_paths() {
    let f = lib(
        "crates/demo/src/lib.rs",
        r#"
fn pair(s: &Space, a: ObjId, b: ObjId) {
    let (ga, gb) = lock_pair(s.shard(a), s.shard(b));
}

fn all(s: &Space) {
    let mut guards = lock_many(&s.shards);
}
"#,
    );
    assert!(check(&[f]).is_empty());
}

#[test]
fn sequential_scoped_shard_guards_are_clean() {
    let f = lib(
        "crates/demo/src/lib.rs",
        r#"
fn f(s: &Space, a: ObjId, b: ObjId) {
    let moved = {
        let g = s.shard(a).write();
        g.take()
    };
    let g = s.shard(b).write();
    g.put(moved);
}
"#,
    );
    assert!(check(&[f]).is_empty());
}

#[test]
fn dropping_the_shard_guard_releases_it_for_the_rule() {
    let f = lib(
        "crates/demo/src/lib.rs",
        r#"
fn f(s: &Space, a: ObjId, b: ObjId) {
    let g = s.shard(a).write();
    drop(g);
    let h = s.shard(b).write();
}
"#,
    );
    assert!(check(&[f]).is_empty());
}

#[test]
fn non_shard_lock_while_shard_guard_held_is_not_this_rules_business() {
    // Holding a shard guard plus an unrelated lock is governed by the
    // runtime lockcheck order graph, not this rule.
    let f = lib(
        "crates/demo/src/lib.rs",
        r#"
fn f(s: &Space, a: ObjId) {
    let g = s.shard(a).write();
    let exports = s.exports.read();
}
"#,
    );
    assert!(check(&[f]).is_empty());
}

#[test]
fn shard_guard_dies_with_its_function_scope() {
    let f = lib(
        "crates/demo/src/lib.rs",
        r#"
impl Space {
    fn first(&self, a: ObjId) {
        let g = self.shard(a).write();
    }

    fn second(&self, b: ObjId) {
        let g = self.shard(b).write();
    }
}
"#,
    );
    assert!(check(&[f]).is_empty());
}

#[test]
fn allow_comment_suppresses_single_shard_guard() {
    let f = lib(
        "crates/demo/src/lib.rs",
        r#"
fn f(s: &Space, a: ObjId, b: ObjId) {
    let src = s.shard(a).write();
    // lint:allow(single-shard-guard) ids pre-sorted by caller
    let dst = s.shard(b).write();
}
"#,
    );
    assert!(check(&[f]).is_empty());
}

// -- no-io-under-shard-guard -------------------------------------------------

#[test]
fn wal_append_while_shard_guard_held_is_flagged() {
    let f = lib(
        "crates/demo/src/lib.rs",
        r#"
impl Space {
    fn bad(&self, a: ObjId) {
        let g = self.shard(a).write();
        self.wal.append(&g.frame());
    }
}
"#,
    );
    let diags = check(&[f]);
    assert_eq!(rules_fired(&diags), vec![RULE_NO_IO_UNDER_SHARD_GUARD]);
    assert_eq!(diags[0].line, 5);
    assert!(diags[0].message.contains("`g`"));
    assert!(diags[0].message.contains("line 4"));
    assert!(diags[0].message.contains("`wal.append(`"));
}

#[test]
fn a_deferred_wal_append_under_a_shard_guard_is_still_io() {
    // It never syncs, but it writes: the stripe would wait on storage.
    let f = lib(
        "crates/demo/src/lib.rs",
        r#"
impl Durable {
    fn confirm(&self, s: &Space, a: ObjId) {
        let g = s.shard(a).read();
        self.wal.append_deferred(&g.frames());
    }
}
"#,
    );
    let diags = check(&[f]);
    assert_eq!(rules_fired(&diags), vec![RULE_NO_IO_UNDER_SHARD_GUARD]);
    assert_eq!(diags[0].line, 5);
    assert!(diags[0].message.contains("`wal.append_deferred(`"), "{}", diags[0].message);
}

#[test]
fn vec_append_under_shard_guard_is_not_durability_io() {
    // Only receiver-qualified append/sync/commit count as WAL I/O; a plain
    // `Vec::append` (or any unrelated `.commit()`) under a shard guard is
    // the shard's own business.
    let f = lib(
        "crates/demo/src/lib.rs",
        r#"
fn collect(s: &Space, a: ObjId, out: &mut Vec<ObjId>) {
    let g = s.shard(a).write();
    let mut batch = g.touched_ids();
    out.append(&mut batch);
    g.txn().commit();
}
"#,
    );
    assert!(check(&[f]).is_empty());
}

#[test]
fn log_call_in_the_same_statement_as_a_shard_acquire_is_flagged() {
    let f = lib(
        "crates/demo/src/lib.rs",
        "fn f(s: &Space, d: &Durable, a: ObjId) { d.log_dirty(a, s.shard(a).read().state()); }\n",
    );
    let diags = check(&[f]);
    assert_eq!(rules_fired(&diags), vec![RULE_NO_IO_UNDER_SHARD_GUARD]);
    assert!(diags[0].message.contains("same statement"));
}

#[test]
fn logging_after_the_guard_is_released_is_clean() {
    let f = lib(
        "crates/demo/src/lib.rs",
        r#"
fn scoped(s: &Space, d: &Durable, a: ObjId) {
    let state = {
        let g = s.shard(a).read();
        g.state()
    };
    d.log_dirty(a, state);
}

fn dropped(s: &Space, d: &Durable, a: ObjId) {
    let g = s.shard(a).write();
    let state = g.state();
    drop(g);
    d.log_op(a, state);
    d.commit();
}
"#,
    );
    assert!(check(&[f]).is_empty());
}

#[test]
fn io_with_no_shard_guard_in_sight_is_clean() {
    // Non-shard locks are the runtime lockcheck's business; the WAL's own
    // internal mutex in particular must not trip this rule.
    let f = lib(
        "crates/demo/src/lib.rs",
        r#"
fn f(w: &Wal, frame: &[u8]) {
    let state = w.state.lock();
    w.storage.append("wal", frame);
    w.storage.sync("wal");
}
"#,
    );
    assert!(check(&[f]).is_empty());
}

#[test]
fn allow_comment_suppresses_no_io_under_shard_guard() {
    let f = lib(
        "crates/demo/src/lib.rs",
        r#"
fn f(s: &Space, durable: &Durable, a: ObjId) {
    let g = s.shard(a).write();
    // lint:allow(no-io-under-shard-guard) fixture: documented deliberate hold
    durable.commit();
}
"#,
    );
    assert!(check(&[f]).is_empty());
}

// -- what the shared walk sees that the line scanners could not --------------

#[test]
fn guards_the_line_scanners_were_blind_to() {
    let cases: &[(&str, &str, &[&str])] = &[
        (
            "a match scrutinee's guard lives through the arms",
            r#"
fn f(s: &S) {
    match s.state.lock().peer() {
        Some(to) => s.transport.call(to, 1),
        None => {}
    }
}
"#,
            &[RULE_GUARD_ACROSS_TRANSPORT],
        ),
        (
            "an `if let` head's guard lives through the block",
            r#"
fn f(s: &S) {
    if let Some(to) = s.routes.read().get(1) {
        s.transport.call(to, 1);
    }
}
"#,
            &[RULE_GUARD_ACROSS_TRANSPORT],
        ),
        (
            "a guard handed back by a callee is this fn's guard",
            r#"
impl P {
    fn enter(&self) -> ProcessGuard<'_> {
        self.inner.lock()
    }

    fn notify(&self, to: SiteId) {
        let g = self.enter();
        self.transport.cast(to, g.frame());
    }
}
"#,
            &[RULE_GUARD_ACROSS_TRANSPORT],
        ),
        (
            "dropping the handed-back guard releases it",
            r#"
impl P {
    fn enter(&self) -> ProcessGuard<'_> {
        self.inner.lock()
    }

    fn notify(&self, to: SiteId) {
        let g = self.enter();
        let frame = g.frame();
        drop(g);
        self.transport.cast(to, frame);
    }
}
"#,
            &[],
        ),
        (
            "a drop that only some paths run releases nothing",
            r#"
fn f(s: &S, early: bool) {
    let g = s.state.lock();
    if early {
        drop(g);
    }
    s.transport.call(1);
}
"#,
            &[RULE_GUARD_ACROSS_TRANSPORT],
        ),
        (
            "a closure runs under the shard guard of the fn it is passed to",
            r#"
impl Space {
    fn with_entry<R>(&self, id: ObjId, f: impl FnOnce(&Entry) -> R) -> R {
        let g = self.shard(id).read();
        f(g.entry(id))
    }

    fn journal(&self, d: &Durable, id: ObjId) {
        self.with_entry(id, |e| {
            d.log_dirty(id, e.state());
        });
    }
}
"#,
            &[RULE_NO_IO_UNDER_SHARD_GUARD],
        ),
        (
            "the same closure may touch what is not the log",
            r#"
impl Space {
    fn with_entry<R>(&self, id: ObjId, f: impl FnOnce(&Entry) -> R) -> R {
        let g = self.shard(id).read();
        f(g.entry(id))
    }

    fn peek(&self, out: &mut Vec<State>, id: ObjId) {
        self.with_entry(id, |e| {
            out.push(e.state());
        });
    }
}
"#,
            &[],
        ),
    ];
    for (what, body, expected) in cases {
        let diags = check(&[lib("crates/demo/src/lib.rs", body)]);
        assert_eq!(&rules_fired(&diags), expected, "{what}: {diags:?}");
    }
}

// -- no-unwrap-on-lock-or-decode --------------------------------------------

#[test]
fn expect_on_decode_is_flagged_and_the_lock_half_is_the_compilers() {
    // `lock().unwrap()` does not compile against either lock facade, so no
    // rule looks for it; `decode(..).expect(..)` does compile.
    let f = lib(
        "crates/demo/src/lib.rs",
        r#"
fn f(s: &S) {
    let n = *s.state.lock().unwrap();
    let m = Message::decode(&frame).expect("decodes");
    let e = ObiError::read_field(&mut dec).unwrap();
}
"#,
    );
    let diags = check(&[f]);
    assert_eq!(rules_fired(&diags), vec![RULE_NO_UNWRAP, RULE_NO_UNWRAP]);
    assert_eq!((diags[0].line, diags[1].line), (4, 5));
}

#[test]
fn unwrap_in_tests_and_on_other_results_is_fine() {
    let f = lib(
        "crates/demo/src/lib.rs",
        r#"
fn f(s: &S) {
    let v: u32 = "7".parse().unwrap();
    let b = s.buffer.try_into().unwrap();
}

#[cfg(test)]
mod tests {
    fn g(s: &S) {
        let n = *s.state.lock().unwrap();
        let m = Message::decode(&frame).unwrap();
    }
}
"#,
    );
    assert!(check(&[f]).is_empty());
}

// -- metrics-coverage --------------------------------------------------------

fn metrics_rs() -> SourceFile {
    lib(
        "crates/util/src/metrics.rs",
        r#"
macro_rules! counters {
    ($($(#[$doc:meta])* $incr:ident, $add:ident, $field:ident;)*) => {
        impl Metrics {
            pub fn snapshot(&self) -> MetricsSnapshot { todo!() }
            pub fn reset(&self) { todo!() }
        }
    };
}

counters! {
    incr_messages_sent, add_messages_sent, messages_sent;
    incr_orphaned, add_orphaned, orphaned_counter;
}
"#,
    )
}

#[test]
fn unincremented_counter_is_reported_at_its_registration_line() {
    let user = lib(
        "crates/net/src/mem.rs",
        "fn f(m: &Metrics) { m.incr_messages_sent(); }\n",
    );
    let diags = check(&[metrics_rs(), user]);
    assert_eq!(rules_fired(&diags), vec![RULE_METRICS_COVERAGE]);
    assert!(diags[0].message.contains("`orphaned_counter`"));
    assert_eq!(diags[0].line, 13);
}

#[test]
fn add_variant_counts_as_usage() {
    let user = lib(
        "crates/net/src/mem.rs",
        "fn f(m: &Metrics) { m.incr_messages_sent(); m.add_orphaned(3); }\n",
    );
    assert!(check(&[metrics_rs(), user]).is_empty());
}

#[test]
fn snapshot_inside_the_macro_definition_is_not_drift() {
    // The base fixture defines `fn snapshot`/`fn reset` inside the
    // `macro_rules! counters` template; that is the generator, not drift.
    let user = lib(
        "crates/net/src/mem.rs",
        "fn f(m: &Metrics) { m.incr_messages_sent(); m.add_orphaned(3); }\n",
    );
    assert!(check(&[metrics_rs(), user]).is_empty());
}

#[test]
fn hand_written_snapshot_outside_the_macro_is_drift() {
    let metrics = lib(
        "crates/util/src/metrics.rs",
        r#"
counters! {
    incr_messages_sent, add_messages_sent, messages_sent;
}

impl Metrics {
    pub fn since(&self) -> MetricsSnapshot { todo!() }
}
"#,
    );
    let user = lib(
        "crates/net/src/mem.rs",
        "fn f(m: &Metrics) { m.incr_messages_sent(); }\n",
    );
    let diags = check(&[metrics, user]);
    assert_eq!(rules_fired(&diags), vec![RULE_METRICS_COVERAGE]);
    assert!(diags[0].message.contains("`fn since`"));
    assert!(diags[0].message.contains("drift"));
    assert_eq!(diags[0].line, 7);
}

#[test]
fn missing_counters_invocation_is_reported() {
    let metrics = lib(
        "crates/util/src/metrics.rs",
        "impl Metrics { pub fn new() -> Self { todo!() } }\n",
    );
    let diags = check(&[metrics]);
    assert_eq!(rules_fired(&diags), vec![RULE_METRICS_COVERAGE]);
    assert!(diags[0].message.contains("no `counters!` invocation"));
}

// -- lock-order-cycle --------------------------------------------------------

#[test]
fn interprocedural_lock_inversion_is_flagged_at_the_first_site() {
    // Neither fn acquires both locks directly — the AB/BA pair only exists
    // through the call graph.
    let f = lib(
        "crates/demo/src/lib.rs",
        r#"
impl Registry {
    pub fn flush(&self) {
        let meta = self.meta.lock();
        self.touch_data();
        meta.mark();
    }

    fn touch_data(&self) {
        self.data.lock().mark();
    }

    pub fn reindex(&self) {
        let data = self.data.lock();
        self.touch_meta();
        data.mark();
    }

    fn touch_meta(&self) {
        self.meta.lock().mark();
    }
}
"#,
    );
    let diags = check(&[f]);
    assert_eq!(rules_fired(&diags), vec![RULE_LOCK_ORDER_CYCLE]);
    assert_eq!(diags[0].line, 4);
    assert!(diags[0].message.contains("Registry::meta"));
    assert!(diags[0].message.contains("Registry::data"));
    assert!(diags[0].message.contains("crates/demo/src/lib.rs:4"));
}

#[test]
fn consistent_lock_order_is_clean() {
    let f = lib(
        "crates/demo/src/lib.rs",
        r#"
impl Registry {
    pub fn flush(&self) {
        let meta = self.meta.lock();
        self.touch_data();
        meta.mark();
    }

    fn touch_data(&self) {
        self.data.lock().mark();
    }

    pub fn reindex(&self) {
        let meta = self.meta.lock();
        self.touch_data();
        meta.mark();
    }
}
"#,
    );
    assert!(check(&[f]).is_empty());
}

#[test]
fn allow_on_the_anchor_line_suppresses_lock_order_cycle() {
    let f = lib(
        "crates/demo/src/lib.rs",
        r#"
impl Registry {
    pub fn flush(&self) {
        // lint:allow(lock-order-cycle) runtime order is fixed by an index comparison
        let meta = self.meta.lock();
        self.touch_data();
        meta.mark();
    }

    fn touch_data(&self) {
        self.data.lock().mark();
    }

    pub fn reindex(&self) {
        let data = self.data.lock();
        self.touch_meta();
        data.mark();
    }

    fn touch_meta(&self) {
        self.meta.lock().mark();
    }
}
"#,
    );
    assert!(check(&[f]).is_empty());
}

#[test]
fn spawned_closures_are_a_thread_barrier_not_a_hold() {
    // `start` holds `meta` textually "across" the spawn, but the closure
    // body runs on another thread with an empty held set — without the
    // barrier this would pair with `opposite` into a false AB/BA cycle.
    let f = lib(
        "crates/demo/src/lib.rs",
        r#"
impl Hub {
    pub fn start(&self) {
        let g = self.meta.lock();
        spawn(move || {
            self.data.lock().touch();
        });
        g.mark();
    }

    pub fn opposite(&self) {
        let d = self.data.lock();
        self.grab_meta();
        d.mark();
    }

    fn grab_meta(&self) {
        self.meta.lock().mark();
    }
}
"#,
    );
    assert!(check(&[f]).is_empty());
}

#[test]
fn guard_returning_callee_holds_its_lock_in_the_caller() {
    // `enter` returns a guard, so its acquisition outlives the call and is
    // held across `touch_aux` — that direction plus `opposite` is a real
    // interprocedural inversion the virtual-hold mechanism must see.
    let f = lib(
        "crates/demo/src/lib.rs",
        r#"
impl P {
    fn enter(&self) -> SpaceGuard<'_> {
        self.inner.lock()
    }

    pub fn use_both(&self) {
        let g = self.enter();
        self.touch_aux();
        g.mark();
    }

    fn touch_aux(&self) {
        self.aux.lock().mark();
    }

    pub fn opposite(&self) {
        let a = self.aux.lock();
        self.grab_inner();
        a.mark();
    }

    fn grab_inner(&self) {
        self.inner.lock().mark();
    }
}
"#,
    );
    let diags = check(&[f]);
    assert_eq!(rules_fired(&diags), vec![RULE_LOCK_ORDER_CYCLE]);
    assert!(diags[0].message.contains("P::inner"));
    assert!(diags[0].message.contains("P::aux"));
}

#[test]
fn data_returning_callee_releases_its_locks_at_the_call() {
    // `peek_class` let-binds a read guard internally, but returns plain
    // data: by the time `combine` takes `other`, the classes lock is gone
    // (the expire-at-`)` mechanism). Only the `opposite` direction exists,
    // so no cycle.
    let f = lib(
        "crates/demo/src/lib.rs",
        r#"
impl Reg {
    fn peek_class(&self) -> u32 {
        let g = self.classes.read();
        g.val()
    }

    pub fn combine(&self) -> u32 {
        self.peek_class() + self.other.lock().val()
    }

    pub fn opposite(&self) {
        let o = self.other.lock();
        let v = self.peek_class();
        o.put(v);
    }
}
"#,
    );
    assert!(check(&[f]).is_empty());
}

#[test]
fn callee_statement_temps_are_not_held_around_block_heads() {
    // `flag_now`'s read guard never escapes its own statement in the
    // callee, so it is not held inside the `if` block — without the
    // escaping-guard refinement this fabricated classes -> other, closing
    // a false cycle against `opposite`.
    let f = lib(
        "crates/demo/src/lib.rs",
        r#"
impl Sp {
    fn flag_now(&self) -> bool {
        self.classes.read().flagged()
    }

    pub fn gate(&self) {
        if self.flag_now() {
            self.other.lock().mark();
        }
    }

    pub fn opposite(&self) {
        let o = self.other.lock();
        self.peek();
        o.mark();
    }

    fn peek(&self) {
        self.classes.read().mark();
    }
}
"#,
    );
    assert!(check(&[f]).is_empty());
}

#[test]
fn lock_graph_has_file_line_sites_and_a_class_level_export() {
    let f = lib(
        "crates/demo/src/lib.rs",
        r#"impl R {
    pub fn outer(&self) {
        let g = self.meta.lock();
        self.inner_take();
        g.mark();
    }

    fn inner_take(&self) {
        self.data.lock().mark();
    }
}
"#,
    );
    let g = lock_graph(&[f]);
    assert_eq!(g.edges.len(), 1);
    let site = |i: usize| (g.sites[i].file.as_str(), g.sites[i].line);
    let (held, acquired) = g.edges[0];
    assert_eq!(site(held), ("crates/demo/src/lib.rs", 3));
    assert_eq!(site(acquired), ("crates/demo/src/lib.rs", 9));
    assert_eq!(
        g.to_json(),
        "{\n  \"classes\": [\n    \"R::data\",\n    \"R::meta\"\n  ],\n  \
         \"edges\": [\n    \"R::meta -> R::data\"\n  ]\n}\n"
    );
}

/// The committed export is class-level, so an edit that only shifts lines
/// leaves it byte-identical while the sites the runtime cross-check matches
/// (rebuilt from the same sources in the same process) move with the text.
#[test]
fn shifting_lines_moves_sites_but_not_the_class_level_export() {
    let tree = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/clean_tree");
    let mut files = scan_workspace(&tree).expect("scan fixture tree");
    let before = lock_graph(&files);
    assert!(!before.edges.is_empty(), "fixture tree has lock edges");

    let locks = files
        .iter_mut()
        .find(|f| f.path == "crates/demo/src/locks.rs")
        .expect("fixture has locks.rs");
    locks.text = format!("\n//! A doc comment that shifts every line.\n{}", locks.text);
    let after = lock_graph(&files);

    assert_eq!(before.to_json(), after.to_json());
    let lines = |g: &lockgraph::LockGraph| -> Vec<u32> {
        let mut l: Vec<u32> = g
            .sites
            .iter()
            .filter(|s| s.file == "crates/demo/src/locks.rs")
            .map(|s| s.line)
            .collect();
        l.sort_unstable();
        l
    };
    let shifted: Vec<u32> = lines(&before).iter().map(|l| l + 2).collect();
    assert_eq!(lines(&after), shifted);
}

/// Free-fn lock classes are named by crate and fn, never by file, so moving
/// a fn to a sibling file of the same crate is not a change to the export.
#[test]
fn moving_a_free_fn_between_files_of_a_crate_keeps_the_export() {
    let drain = r#"
pub fn drain(shared: &Shared) {
    let inbox = shared.inbox.lock();
    shared.exports.read().notify(&inbox);
}
"#;
    let here = lock_graph(&[
        lib("crates/demo/src/process.rs", drain),
        lib("crates/demo/src/serve.rs", ""),
    ]);
    let there = lock_graph(&[
        lib("crates/demo/src/process.rs", ""),
        lib("crates/demo/src/serve.rs", drain),
    ]);
    let export = here.to_json();
    assert!(
        export.contains("\"demo::drain::shared.inbox -> demo::drain::shared.exports\""),
        "unexpected export:\n{export}"
    );
    assert_eq!(export, there.to_json());
    assert_ne!(here.sites[0].file, there.sites[0].file);
}

// -- wal-intent-lifecycle ----------------------------------------------------

#[test]
fn a_group_of_intents_needs_a_retire_per_id_or_a_handoff() {
    let f = lib(
        "crates/demo/src/lib.rs",
        r#"
pub fn forgets(d: &Durable, group: &[Put]) -> Status {
    d.log_put_intents(&seqs_of(group));
    send_all(group);
    Status::Done
}

pub fn confirms_one(d: &Durable, group: &[Put]) -> Status {
    d.log_put_intents(&seqs_of(group));
    send_all(group);
    d.log_confirm(group[0].seq);
    Status::Done
}

pub fn returns_early(d: &Durable, group: &[Put]) -> Status {
    d.log_put_intents(&seqs_of(group));
    if throttled() {
        return Status::Busy;
    }
    for put in group {
        d.log_confirm(put.seq);
    }
    Status::Done
}
"#,
    );
    let diags = check(&[f]);
    assert_eq!(rules_fired(&diags), vec![RULE_WAL_INTENT_LIFECYCLE; 3]);
    assert_eq!(diags.iter().map(|d| d.line).collect::<Vec<_>>(), vec![3, 9, 16]);
    assert!(diags[0].message.contains("per listed id"), "{}", diags[0].message);
}

#[test]
fn group_retires_in_a_loop_err_exits_and_handoffs_are_sanctioned() {
    let f = lib(
        "crates/demo/src/lib.rs",
        r#"
pub fn confirms_each(d: &Durable, group: &[Put]) -> Status {
    d.log_put_intents(&seqs_of(group));
    for put in group {
        if send(put) {
            d.log_confirm(put.seq);
        } else {
            d.log_put_abandoned(put.seq);
        }
    }
    Status::Done
}

pub fn drains(d: &Durable, mut group: Vec<Put>) {
    d.log_put_intents(&seqs_of(&group));
    while let Some(put) = group.pop() {
        d.log_confirm(put.seq);
    }
}

pub fn errs(d: &Durable, group: &[Put]) -> Result<Status, WalError> {
    d.log_put_intents(&seqs_of(group))?;
    if oversized(group) {
        return Err(WalError::Oversized);
    }
    for put in group {
        d.log_confirm(put.seq);
    }
    Ok(Status::Done)
}

pub fn hands_off(d: &Durable, group: Vec<Put>) -> Vec<Put> {
    d.log_put_intents(&seqs_of(&group));
    group
}

impl Durable {
    pub fn log_put_intents(&self, intents: &[(ObjId, u64)]) {
        self.wal.append_batch(intents)
    }
}
"#,
    );
    assert!(check(&[f]).is_empty());
}

#[test]
fn intent_definition_and_test_code_are_exempt_from_lifecycle() {
    let f = lib(
        "crates/demo/src/lib.rs",
        r#"
impl Durable {
    pub fn log_put_intents(&self, intents: &[(ObjId, u64)]) -> u64 {
        self.wal.append_intents(intents)
    }
}

#[cfg(test)]
mod tests {
    fn leaky_on_purpose(d: &Durable) {
        let seq = d.log_put_intents(&[(1, 2)]);
        let _ = seq;
    }
}
"#,
    );
    assert!(check(&[f]).is_empty());
}

#[test]
fn allow_suppresses_wal_intent_lifecycle() {
    let f = lib(
        "crates/demo/src/lib.rs",
        r#"
pub fn pinned(d: &Durable, id: ObjId) {
    // lint:allow(wal-intent-lifecycle) recovery table parks the seqs at append time
    let seqs = d.log_put_intents(&[(id, 7)]);
    let _ = seqs;
}
"#,
    );
    assert!(check(&[f]).is_empty());
}

// -- hook-without-fn ---------------------------------------------------------

/// A tree whose product code defines every durability hook but `skip`,
/// which a test file and a string literal mention instead.
fn hooks_but(skip: &str) -> Vec<SourceFile> {
    let fns: String = guardrules::LOG_HOOKS
        .iter()
        .filter(|hook| **hook != skip)
        .map(|hook| format!("    pub fn {hook}(&self) {{}}\n"))
        .collect();
    vec![
        lib("crates/store/src/durable.rs", &format!("impl Durable {{\n{fns}}}\n")),
        lib(
            "crates/store/tests/durable.rs",
            &format!("fn {skip}() {{}}\nconst NAME: &str = \"fn {skip}() {{}}\";\n"),
        ),
    ]
}

#[test]
fn a_durability_hook_no_product_fn_has_is_reported_by_name() {
    assert!(analyze(&hooks_but("")).diagnostics.is_empty());
    let diags = analyze(&hooks_but("log_clean")).diagnostics;
    assert_eq!(rules_fired(&diags), vec![RULE_HOOK_WITHOUT_FN]);
    assert_eq!(diags[0].file, "crates/lint/src/guardrules.rs");
    assert!(diags[0].message.starts_with("`log_clean`"), "{}", diags[0].message);
    // A handful of files, as the other rules' tests give, is not a tree.
    assert!(check(&hooks_but("log_clean")).is_empty());
}

#[test]
fn the_intent_rule_watches_durability_hooks() {
    let retires = lifecycle::RETIRE.iter().filter(|name| name.starts_with("log_"));
    for name in std::iter::once(&lifecycle::INTENT).chain(retires) {
        assert!(guardrules::LOG_HOOKS.contains(name), "{name}");
    }
}

// -- allow-without-rationale -------------------------------------------------

#[test]
fn bare_allow_is_flagged_but_still_suppresses_its_target() {
    let f = lib(
        "crates/demo/src/lib.rs",
        r#"
fn f(s: &S) {
    let guard = s.state.lock();
    // lint:allow(guard-across-transport)
    s.transport.call(1);
}
"#,
    );
    let diags = check(&[f]);
    assert_eq!(rules_fired(&diags), vec![RULE_ALLOW_AUDIT]);
    assert_eq!(diags[0].line, 4);
    assert!(diags[0].message.contains("guard-across-transport"));
}

#[test]
fn rationale_after_the_closing_paren_satisfies_the_audit() {
    let f = lib(
        "crates/demo/src/lib.rs",
        r#"
fn f(s: &S) {
    let guard = s.state.lock();
    /* lint:allow(guard-across-transport) handler never re-enters this lock */
    s.transport.call(1);
}
"#,
    );
    assert!(check(&[f]).is_empty());
}

// -- item model --------------------------------------------------------------

#[test]
fn returns_guard_keys_on_the_return_type_not_parameters() {
    let src = r#"
impl Space {
    pub fn enter(&self) -> ShardGuard<'_> { self.inner.lock() }
    pub fn reindex(&self, g: &mut ShardGuard<'_>) { g.mark(); }
    pub fn count(&self) -> usize { self.inner.lock().len() }
}
"#;
    let tokens = lexer::lex(src);
    let m = model::build(src, &tokens);
    let rg: Vec<(&str, bool)> = m
        .fns
        .iter()
        .map(|f| (f.name.as_str(), f.returns_guard))
        .collect();
    assert_eq!(
        rg,
        vec![("enter", true), ("reindex", false), ("count", false)]
    );
}

#[test]
fn model_recovers_impls_nested_test_mods_and_fn_bodies() {
    let src = r#"
impl Wal {
    pub fn append(&mut self, frame: &[u8]) -> u64 {
        self.seq += 1;
        self.seq
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn appends() {
        let w = Wal::default();
    }
}

pub fn free_standing() {}
"#;
    let tokens = lexer::lex(src);
    let m = model::build(src, &tokens);
    let names: Vec<(&str, Option<&str>, bool)> = m
        .fns
        .iter()
        .map(|f| (f.name.as_str(), f.impl_type.as_deref(), f.in_test))
        .collect();
    assert_eq!(
        names,
        vec![
            ("append", Some("Wal"), false),
            ("appends", None, true),
            ("free_standing", None, false),
        ]
    );
    assert!(m.line_in_test(12));
    assert!(!m.line_in_test(3));
}

// -- call graph --------------------------------------------------------------

#[test]
fn short_receivers_prefer_same_file_definitions() {
    let parse = |rel: &str, src: &str| {
        callgraph::Unit::parse(std::path::PathBuf::from(rel), rel.into(), src.into())
    };
    let sim = parse(
        "crates/net/src/sim.rs",
        r#"
impl SimTransport {
    pub fn disconnect(&self) { self.topology.write().cut(); }
    pub fn drive(&self) { helper(|t| t.disconnect()); }
}
"#,
    );
    let tcp = parse(
        "crates/net/src/tcp.rs",
        r#"
impl TcpTransport {
    pub fn disconnect(&self) { self.sessions.lock().cut(); }
}
"#,
    );
    let other = parse("crates/core/src/lib.rs", "pub fn unrelated() {}\n");
    let units = vec![sim, tcp, other];
    let graph = callgraph::CallGraph::build(&units);
    let targets = graph.by_name.get("disconnect").expect("two defs");
    let q = callgraph::Qualifier::Named("t".into());

    // `|t| t.disconnect()` in sim.rs resolves to sim.rs's definition only.
    let picked = callgraph::filter_targets(&units, 0, Some("SimTransport"), &q, targets);
    assert_eq!(picked.len(), 1);
    assert_eq!(picked[0].0, 0);
    // The same shape in tcp.rs picks tcp.rs's definition.
    let picked = callgraph::filter_targets(&units, 1, Some("TcpTransport"), &q, targets);
    assert_eq!(picked.len(), 1);
    assert_eq!(picked[0].0, 1);
    // A file defining no candidate falls back to all of them.
    let picked = callgraph::filter_targets(&units, 2, None, &q, targets);
    assert_eq!(picked.len(), 2);
}

// -- removed false positives -------------------------------------------------

#[test]
fn multiline_string_literals_do_not_fabricate_guards() {
    // The pre-token-stream linter sanitized line by line, so the interior
    // of a multi-line string literal (legal Rust) looked like code — this
    // exact shape used to flag guard-across-transport. The lexer masks it.
    let f = lib(
        "crates/demo/src/lib.rs",
        "fn f(s: &S) {\n    let doc = \"\n    let guard = s.state.lock();\n    s.transport.call(1, 2, guard.frame());\n    \";\n    s.log(doc);\n}\n",
    );
    assert!(check(&[f]).is_empty());
}

// -- output format -----------------------------------------------------------

#[test]
fn diagnostics_render_as_file_line_rule() {
    let d = Diagnostic {
        file: "crates/demo/src/lib.rs".into(),
        line: 12,
        rule: RULE_NO_UNWRAP,
        message: "boom".into(),
    };
    assert_eq!(
        d.to_string(),
        "crates/demo/src/lib.rs:12: [no-unwrap-on-lock-or-decode] boom"
    );
}

/// The root package's tests run with `CARGO_MANIFEST_DIR` at the workspace
/// root itself, a member's at its own directory: both find the workspace,
/// and a directory with no workspace above it finds none.
#[test]
fn the_default_root_is_the_workspace_above_the_running_package() {
    // The run-time variable, as `default_root` reads it: a checkout that
    // reuses another checkout's `target/` runs a binary whose compile-time
    // path names the other checkout.
    let manifest = PathBuf::from(std::env::var_os("CARGO_MANIFEST_DIR").unwrap());
    let workspace = manifest.parent().and_then(Path::parent).unwrap();
    assert_eq!(workspace_above(workspace).as_deref(), Some(workspace));
    assert_eq!(workspace_above(&manifest.join("src")).as_deref(), Some(workspace));
    assert_eq!(workspace_above(Path::new("/")), None);
    assert_eq!(default_root(), workspace);
}
