//! Seeded `wal-intent-lifecycle` violations, one obligation per listed id:
//! the first function retires none of its intents before the tail exit,
//! the second leaves by an early `return` before its loop of confirms, and
//! the third retires a single id outside any loop over the group.

pub fn put_group_forgets_retirement(d: &Durable, group: &[Put]) -> Status {
    d.log_put_intents(&seqs_of(group));
    let sent = send_all(group);
    Status::Sent(sent)
}

pub fn put_group_early_return_skips_confirms(d: &Durable, group: &[Put]) -> Status {
    d.log_put_intents(&seqs_of(group));
    if throttled() {
        return Status::Busy;
    }
    for put in group {
        d.log_confirm(put.seq);
    }
    Status::Done
}

pub fn put_group_confirms_only_one(d: &Durable, group: &[Put]) -> Status {
    d.log_put_intents(&seqs_of(group));
    send_all(group);
    d.log_confirm(group[0].seq);
    Status::Done
}
