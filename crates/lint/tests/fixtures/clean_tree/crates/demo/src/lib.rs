//! Clean fixture: `obiwan-lint` must exit 0 on this tree.

pub fn narrow_critical_section(s: &Service) {
    let frame = {
        let guard = s.state.lock();
        guard.frame()
    };
    s.transport.call(1, 2, frame);
}

pub fn allowed_hold(s: &Service) {
    let guard = s.state.lock();
    // lint:allow(guard-across-transport) fixture: documented deliberate hold
    s.transport.call(1, 2, guard.frame());
}

pub fn sanctioned_shard_pair(s: &Space, a: ObjId, b: ObjId) {
    let (src, dst) = lock_pair(s.shard(a), s.shard(b));
    dst.put(src.take());
}

pub fn one_shard_at_a_time(s: &Space, a: ObjId, b: ObjId) {
    let moved = {
        let g = s.shard(a).write();
        g.take()
    };
    s.shard(b).write().put(moved);
}

pub fn log_outside_the_shard_guard(s: &Space, d: &Durable, a: ObjId) {
    let state = {
        let g = s.shard(a).read();
        g.state()
    };
    d.log_dirty(a, state);
    d.commit();
}

pub fn vec_append_under_shard_guard(s: &Space, a: ObjId, out: &mut Vec<ObjId>) {
    let g = s.shard(a).write();
    let mut batch = g.touched_ids();
    out.append(&mut batch);
}

pub fn journal_op_outside_the_shard_guard(s: &Space, d: &Durable, a: ObjId, args: &[Value]) {
    let deltas = {
        let g = s.shard(a).read();
        vec![(g.provider(), g.state())]
    };
    d.log_op(a, "add", args, true, deltas);
}
