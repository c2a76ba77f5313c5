//! Deliberately violating fixture: `obiwan-lint` must exit nonzero on this
//! tree and point at the lines below. Not a compiled workspace member — the
//! analyzer scans text, so stub types are unnecessary.

pub fn guard_across_boundary(s: &Service) {
    let guard = s.state.lock();
    s.transport.call(1, 2, guard.frame());
}

// Lines 10-12 held the `lock().unwrap()` seed of the lock half of
// `no-unwrap-on-lock-or-decode`, which the compiler enforces and the rule no
// longer checks. A comment of the same height keeps the lines below pinned.

pub fn unwrap_on_decode(frame: &[u8]) -> Message {
    Message::decode(frame).expect("fixture decodes")
}

pub fn two_shard_guards(s: &Space, a: ObjId, b: ObjId) {
    let src = s.shard(a).write();
    let dst = s.shard(b).write();
    dst.put(src.take());
}

pub fn shard_pair_in_one_statement(s: &Space, a: ObjId, b: ObjId) {
    s.merge(s.shard(a).write(), s.shard(b).write());
}

pub fn wal_append_under_shard_guard(s: &Space, a: ObjId) {
    let g = s.shard(a).write();
    s.wal.append(&g.frame());
}

pub fn log_in_same_statement_as_shard_acquire(s: &Space, d: &Durable, a: ObjId) {
    d.log_dirty(a, s.shard(a).read().state());
}

pub fn bare_allow_without_reason(s: &Service) {
    let guard = s.state.lock();
    // lint:allow(guard-across-transport)
    s.transport.call(1, 2, guard.frame());
}

pub fn journal_op_under_shard_guard(s: &Space, d: &Durable, a: ObjId, args: &[Value]) {
    let g = s.shard(a).read();
    let deltas = vec![(g.provider(), g.state())];
    d.log_op(a, "add", args, true, deltas);
}
