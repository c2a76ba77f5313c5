//! The platform-wide error type.

use crate::ids::{ObjId, SiteId};
use std::fmt;

/// Convenience alias used across all OBIWAN crates.
pub type Result<T> = std::result::Result<T, ObiError>;

/// Errors produced by the OBIWAN platform.
///
/// The variants mirror the failure modes the paper's motivation section calls
/// out: disconnections and unreachable sites surface as
/// [`ObiError::Disconnected`] / [`ObiError::SiteUnreachable`] rather than
/// aborting the application, so callers can fall back to local replicas.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ObiError {
    /// The target site cannot be reached (no route, site not registered).
    SiteUnreachable(SiteId),
    /// The link to the target site is administratively or physically down.
    Disconnected { from: SiteId, to: SiteId },
    /// A message was dropped by the (lossy) network after all retries.
    MessageLost { from: SiteId, to: SiteId },
    /// The call's deadline budget (or an I/O timeout) expired before a
    /// reply arrived. Distinct from [`ObiError::SiteUnreachable`]: the peer
    /// may be alive but slow, so retrying a fresh call can succeed.
    Timeout { to: SiteId },
    /// No object with this id exists in the addressed object space.
    NoSuchObject(ObjId),
    /// The object exists but does not export the requested method.
    NoSuchMethod { object: ObjId, method: String },
    /// A name-server lookup failed.
    NameNotBound(String),
    /// A name-server bind collided with an existing binding.
    NameAlreadyBound(String),
    /// Re-entrant invocation of an object already on the call stack.
    ReentrantInvocation(ObjId),
    /// Wire-format decode failure.
    Decode(String),
    /// Method arguments did not match what the callee expected.
    BadArguments(String),
    /// A `put` was rejected by the master's consistency policy.
    UpdateRejected { object: ObjId, reason: String },
    /// The object is part of a cluster and cannot be individually updated
    /// (paper §4.3: cluster members share a single proxy pair).
    ClusterMember(ObjId),
    /// The object has no local replica and the caller asked for local-only
    /// resolution (e.g. while disconnected).
    NotReplicated(ObjId),
    /// The addressed site no longer masters `object`: mastership was handed
    /// off to `to`. Definitive for the request as addressed (the old master
    /// will never apply it), but retryable against the new master — the put
    /// path re-targets `to` with a fresh request id.
    MovedMaster { object: ObjId, to: SiteId },
    /// An application-level error raised inside an invoked method.
    Application(String),
    /// The durable storage backend failed (write error, out of space, or a
    /// simulated crash in fault-injection tests). Distinct from
    /// [`ObiError::Internal`]: storage failures are environmental and the
    /// in-memory state is still consistent — only durability is degraded.
    Storage(String),
    /// Internal invariant violation; indicates a platform bug.
    Internal(String),
}

impl fmt::Display for ObiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObiError::SiteUnreachable(s) => write!(f, "site {s} is unreachable"),
            ObiError::Disconnected { from, to } => {
                write!(f, "link {from} -> {to} is disconnected")
            }
            ObiError::MessageLost { from, to } => {
                write!(f, "message from {from} to {to} was lost")
            }
            ObiError::Timeout { to } => {
                write!(f, "call to {to} timed out before its deadline")
            }
            ObiError::NoSuchObject(o) => write!(f, "no object {o} in this space"),
            ObiError::NoSuchMethod { object, method } => {
                write!(f, "object {object} has no method `{method}`")
            }
            ObiError::NameNotBound(n) => write!(f, "name `{n}` is not bound"),
            ObiError::NameAlreadyBound(n) => write!(f, "name `{n}` is already bound"),
            ObiError::ReentrantInvocation(o) => {
                write!(f, "re-entrant invocation of object {o}")
            }
            ObiError::Decode(m) => write!(f, "wire decode error: {m}"),
            ObiError::BadArguments(m) => write!(f, "bad method arguments: {m}"),
            ObiError::UpdateRejected { object, reason } => {
                write!(f, "update of {object} rejected: {reason}")
            }
            ObiError::ClusterMember(o) => {
                write!(f, "object {o} is a cluster member and cannot be individually updated")
            }
            ObiError::NotReplicated(o) => write!(f, "object {o} has no local replica"),
            ObiError::MovedMaster { object, to } => {
                write!(f, "mastership of {object} moved to site {to}")
            }
            ObiError::Application(m) => write!(f, "application error: {m}"),
            ObiError::Storage(m) => write!(f, "storage error: {m}"),
            ObiError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for ObiError {}

impl ObiError {
    /// True when the failure is a connectivity problem that may heal, i.e.
    /// the cases the paper says applications should survive by working on
    /// local replicas.
    pub fn is_connectivity(&self) -> bool {
        matches!(
            self,
            ObiError::SiteUnreachable(_)
                | ObiError::Disconnected { .. }
                | ObiError::MessageLost { .. }
                | ObiError::Timeout { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ObjId, SiteId};

    #[test]
    fn display_is_lowercase_without_trailing_punctuation() {
        let errs: Vec<ObiError> = vec![
            ObiError::SiteUnreachable(SiteId::new(1)),
            ObiError::NameNotBound("root".into()),
            ObiError::NoSuchObject(ObjId::new(SiteId::new(1), 2)),
            ObiError::Internal("oops".into()),
        ];
        for e in errs {
            let s = e.to_string();
            assert!(!s.ends_with('.'), "{s}");
            assert!(s.chars().next().unwrap().is_lowercase() || s.starts_with("site"));
        }
    }

    #[test]
    fn connectivity_classification() {
        let s1 = SiteId::new(1);
        let s2 = SiteId::new(2);
        assert!(ObiError::SiteUnreachable(s1).is_connectivity());
        assert!(ObiError::Disconnected { from: s1, to: s2 }.is_connectivity());
        assert!(ObiError::MessageLost { from: s1, to: s2 }.is_connectivity());
        assert!(ObiError::Timeout { to: s2 }.is_connectivity());
        assert!(!ObiError::NameNotBound("x".into()).is_connectivity());
        assert!(!ObiError::NoSuchObject(ObjId::new(s1, 0)).is_connectivity());
        // A moved master is a definitive answer from a live peer, not a
        // connectivity fault: the caller re-targets instead of backing off.
        assert!(!ObiError::MovedMaster {
            object: ObjId::new(s1, 0),
            to: s2
        }
        .is_connectivity());
    }

    #[test]
    fn error_is_send_sync_static() {
        fn assert_bounds<T: Send + Sync + 'static + std::error::Error>() {}
        assert_bounds::<ObiError>();
    }
}
