//! Every write-through hook the lint is configured to watch defined once,
//! so `hook-without-fn` has nothing to report.

impl Durable {
    pub fn log_dirty(&self, provider: SiteId, state: State) {}
    pub fn log_op(&self, target: ObjId, method: &str, deltas: Vec<State>) {}
    pub fn log_put_intents(&self, intents: &[(ObjId, u64)]) {}
    pub fn log_put_abandoned(&self, id: ObjId) {}
    pub fn log_confirm(&self, id: ObjId, version: u64) {}
    pub fn log_clean(&self, id: ObjId) {}
    pub fn log_client_state(&self, next_seq: u64, horizon: u64) {}
}
