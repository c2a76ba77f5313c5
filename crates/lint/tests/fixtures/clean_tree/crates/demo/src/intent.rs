//! Compliant `wal-intent-lifecycle` shapes: a group of intents retired id
//! by id in a loop (confirmed, or abandoned on failure), `Err`-shaped early
//! exits (recovery replays or abandons a pending intent with full
//! knowledge), and the group handed upward whole so the caller inherits
//! the retirement obligation.

pub fn put_group_confirms_each(d: &Durable, group: &[Put]) -> Status {
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

pub fn put_group_propagates_errors(d: &Durable, group: &[Put]) -> Result<Status, WalError> {
    d.log_put_intents(&seqs_of(group))?;
    if oversized(group) {
        return Err(WalError::Oversized);
    }
    for put in group {
        d.log_confirm(put.seq);
    }
    Ok(Status::Done)
}

pub fn put_group_hands_off(d: &Durable, group: Vec<Put>) -> Vec<Put> {
    d.log_put_intents(&seqs_of(&group));
    group
}
