//! Compliant `wal-intent-lifecycle` shapes: confirm on the happy path,
//! abandon on failure, `Err`-shaped early exits (recovery replays or
//! abandons a pending intent with full knowledge), and handing the pending
//! put upward so the caller inherits the retirement obligation. A group of
//! intents is retired id by id in a loop, or handed upward whole.

pub fn put_confirms(d: &Durable, id: ObjId, state: Frame) -> Status {
    let seq = d.log_put_intent(id, state.frame_bytes());
    apply_locally(id, state);
    d.log_confirm(seq);
    Status::Done
}

pub fn put_abandons_on_failure(d: &Durable, id: ObjId, state: Frame) -> Status {
    let seq = d.log_put_intent(id, state.frame_bytes());
    if !apply_checked(id, state) {
        d.log_put_abandoned(seq);
        return Status::Failed;
    }
    d.log_confirm(seq);
    Status::Done
}

pub fn put_propagates_errors(d: &Durable, id: ObjId, state: Frame) -> Result<Status, WalError> {
    let seq = d.log_put_intent(id, state.frame_bytes())?;
    if state.oversized() {
        return Err(WalError::Oversized);
    }
    d.log_confirm(seq);
    Ok(Status::Done)
}

pub fn put_hands_off(d: &Durable, id: ObjId, state: Frame) -> PendingPut {
    let seq = d.log_put_intent(id, state.frame_bytes());
    PendingPut { id, seq }
}

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

pub fn put_group_hands_off(d: &Durable, group: Vec<Put>) -> Vec<Put> {
    d.log_put_intents(&seqs_of(&group));
    group
}
