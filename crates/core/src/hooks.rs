//! Consistency hooks (paper §1, item iv).
//!
//! OBIWAN deliberately "leaves the responsibility of maintaining (or not)
//! the consistency of replicas to the programmer", but provides hooks where
//! a consistency-protocol library plugs in. [`ConsistencyHook`] is that
//! hook: the master site consults it on every incoming `put`, entry by
//! entry, before it applies any. The `obiwan-consistency` crate ships a
//! library of policies implementing this trait; [`AcceptAll`] is the
//! laissez-faire default.

use obiwan_util::{ObjId, Result};

/// Decides whether replica write-backs are accepted.
///
/// Implementations run under the process lock; they must not block on the
/// network.
pub trait ConsistencyHook: Send {
    /// Called before applying a `put` of `object`: `master_version` is the
    /// master's current version, `base_version` the version the replica was
    /// based on.
    ///
    /// # Errors
    ///
    /// Returning an error (typically
    /// [`ObiError::UpdateRejected`](obiwan_util::ObiError::UpdateRejected))
    /// rejects the whole `put`.
    fn decide_put(&mut self, object: ObjId, master_version: u64, base_version: u64) -> Result<()> {
        let _ = (object, master_version, base_version);
        Ok(())
    }
}

/// The default policy: every `put` wins (last writer wins, by arrival).
#[derive(Debug, Clone, Copy, Default)]
pub struct AcceptAll;

impl ConsistencyHook for AcceptAll {}

#[cfg(test)]
mod tests {
    use super::*;
    use obiwan_util::SiteId;

    #[test]
    fn accept_all_accepts_everything() {
        let mut hook = AcceptAll;
        let id = ObjId::new(SiteId::new(1), 1);
        assert!(hook.decide_put(id, 10, 1).is_ok());
        assert!(hook.decide_put(id, 1, 10).is_ok());
    }

    #[test]
    fn hook_is_object_safe() {
        fn _takes(_: &mut dyn ConsistencyHook) {}
    }
}
