//! Seeded `hook-without-fn` violation: `log_clean` was renamed here, so the
//! configured hook of that name matches no fn, and a guard held across
//! `log_refreshed` would go unreported.

impl Durable {
    pub fn log_dirty(&self, provider: SiteId, state: State) {}
    pub fn log_op(&self, target: ObjId, method: &str, deltas: Vec<State>) {}
    pub fn log_put_intents(&self, intents: &[(ObjId, u64)]) {}
    pub fn log_put_abandoned(&self, id: ObjId) {}
    pub fn log_confirm(&self, id: ObjId, version: u64) {}
    pub fn log_refreshed(&self, id: ObjId) {}
    pub fn log_client_state(&self, next_seq: u64, horizon: u64) {}
}
