//! Seeded `wal-intent-lifecycle` violations: one intent is dropped on the
//! floor before the tail exit, another before an early `return`. Neither
//! path confirms, abandons, nor hands the pending seq upward.

pub fn put_forgets_retirement(d: &Durable, id: ObjId, state: Frame) -> Status {
    let seq = d.log_put_intent(id, state.frame_bytes());
    apply_locally(id, state);
    let _ = seq;
    Status::Done
}

pub fn put_early_return_skips_confirm(d: &Durable, id: ObjId, state: Frame) -> Status {
    let seq = d.log_put_intent(id, state.frame_bytes());
    if throttled() {
        return Status::Busy;
    }
    d.log_confirm(seq);
    Status::Done
}

// The group form, one obligation per listed id: the first function retires
// none of them, the second a single id outside any loop over the group.

pub fn put_group_forgets_retirement(d: &Durable, group: &[Put]) -> Status {
    d.log_put_intents(&seqs_of(group));
    let sent = send_all(group);
    Status::Sent(sent)
}

pub fn put_group_confirms_only_one(d: &Durable, group: &[Put]) -> Status {
    d.log_put_intents(&seqs_of(group));
    send_all(group);
    d.log_confirm(group[0].seq);
    Status::Done
}
