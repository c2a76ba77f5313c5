//! The name server.
//!
//! In the paper's running example "only object `AProxyIn` is registered in a
//! name server" and site S1 bootstraps by looking it up. [`NameServer`] is
//! that registry; [`NameServerService`] exposes it as an [`RmiService`] so a
//! site can host it stand-alone (object-space hosts embed the same
//! structure).

use crate::service::RmiService;
use obiwan_util::{ObiError, ObjId, Result, SiteId};
use obiwan_wire::{JoinInfo, NameOp, ObiValue};
use obiwan_util::sync::RwLock;
use std::collections::{BTreeMap, BTreeSet};

/// A thread-safe name-to-object registry.
///
/// # Examples
///
/// ```
/// use obiwan_rmi::NameServer;
/// use obiwan_util::{ObjId, SiteId};
///
/// # fn main() -> obiwan_util::Result<()> {
/// let ns = NameServer::new();
/// let obj = ObjId::new(SiteId::new(1), 4);
/// ns.bind("catalog", obj)?;
/// assert_eq!(ns.lookup("catalog")?, obj);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct NameServer {
    bindings: RwLock<BTreeMap<String, ObjId>>,
    // The membership roster: sites currently in the world. The name server
    // doubles as the admission authority because it is the one address
    // every site already knows.
    roster: RwLock<BTreeSet<SiteId>>,
}

impl NameServer {
    /// Creates an empty registry.
    pub fn new() -> Self {
        NameServer::default()
    }

    /// Binds `name` to `target`.
    ///
    /// # Errors
    ///
    /// [`ObiError::NameAlreadyBound`] when the name is taken; `unbind` it
    /// first to overwrite.
    pub fn bind(&self, name: &str, target: ObjId) -> Result<()> {
        let mut b = self.bindings.write();
        if b.contains_key(name) {
            return Err(ObiError::NameAlreadyBound(name.to_owned()));
        }
        b.insert(name.to_owned(), target);
        Ok(())
    }

    /// Resolves `name`.
    ///
    /// # Errors
    ///
    /// [`ObiError::NameNotBound`] when the name is unknown.
    pub fn lookup(&self, name: &str) -> Result<ObjId> {
        self.bindings
            .read()
            .get(name)
            .copied()
            .ok_or_else(|| ObiError::NameNotBound(name.to_owned()))
    }

    /// Removes a binding.
    ///
    /// # Errors
    ///
    /// [`ObiError::NameNotBound`] when the name is unknown.
    pub fn unbind(&self, name: &str) -> Result<ObjId> {
        self.bindings
            .write()
            .remove(name)
            .ok_or_else(|| ObiError::NameNotBound(name.to_owned()))
    }

    /// All bound names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.bindings.read().keys().cloned().collect()
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.bindings.read().len()
    }

    /// True when no names are bound.
    pub fn is_empty(&self) -> bool {
        self.bindings.read().is_empty()
    }

    /// All bindings as `(name, target)` pairs, sorted by name — the
    /// bootstrap catalog handed to a joining site.
    pub fn bindings(&self) -> Vec<(String, ObjId)> {
        self.bindings
            .read()
            .iter()
            .map(|(n, t)| (n.clone(), *t))
            .collect()
    }

    /// Admits `site` to the roster and returns the world view it needs to
    /// bootstrap: every *other* member plus the bound-name catalog.
    /// Idempotent — a joiner retrying under loss gets the same answer.
    pub fn join_site(&self, site: SiteId) -> JoinInfo {
        // Catalog first, roster second: never hold both locks at once.
        let names = self.bindings();
        let mut roster = self.roster.write();
        roster.insert(site);
        JoinInfo {
            peers: roster.iter().copied().filter(|s| *s != site).collect(),
            names,
        }
    }

    /// Removes `site` from the roster. Idempotent; unknown sites are a
    /// no-op (a crash-leave may race its own graceful leave).
    pub fn leave_site(&self, site: SiteId) {
        self.roster.write().remove(&site);
    }

    /// The current roster, sorted.
    pub fn roster(&self) -> Vec<SiteId> {
        self.roster.read().iter().copied().collect()
    }

    /// Answers a wire-level [`NameOp`].
    pub fn handle_op(&self, op: NameOp) -> Result<ObiValue> {
        match op {
            NameOp::Bind { name, target } => {
                self.bind(&name, target)?;
                Ok(ObiValue::Null)
            }
            NameOp::Lookup { name } => Ok(ObiValue::Ref(self.lookup(&name)?)),
            NameOp::Unbind { name } => {
                self.unbind(&name)?;
                Ok(ObiValue::Null)
            }
            NameOp::List => Ok(ObiValue::List(
                self.names().into_iter().map(ObiValue::Str).collect(),
            )),
        }
    }
}

/// Hosts a [`NameServer`] as a stand-alone [`RmiService`] (all non-name
/// operations keep their rejecting defaults).
#[derive(Debug, Default)]
pub struct NameServerService {
    inner: NameServer,
}

impl NameServerService {
    /// Wraps a registry.
    pub fn new(inner: NameServer) -> Self {
        NameServerService { inner }
    }

    /// The wrapped registry.
    pub fn registry(&self) -> &NameServer {
        &self.inner
    }
}

impl RmiService for NameServerService {
    fn name_op(&self, _from: SiteId, op: NameOp) -> Result<ObiValue> {
        self.inner.handle_op(op)
    }

    fn join(&self, from: SiteId) -> Result<JoinInfo> {
        Ok(self.inner.join_site(from))
    }

    fn leave_notice(&self, _from: SiteId, site: SiteId) {
        self.inner.leave_site(site);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oid(l: u64) -> ObjId {
        ObjId::new(SiteId::new(1), l)
    }

    #[test]
    fn bind_lookup_unbind_cycle() {
        let ns = NameServer::new();
        ns.bind("a", oid(1)).unwrap();
        assert_eq!(ns.lookup("a").unwrap(), oid(1));
        assert_eq!(ns.unbind("a").unwrap(), oid(1));
        assert!(matches!(ns.lookup("a"), Err(ObiError::NameNotBound(_))));
    }

    #[test]
    fn double_bind_is_rejected() {
        let ns = NameServer::new();
        ns.bind("a", oid(1)).unwrap();
        assert!(matches!(
            ns.bind("a", oid(2)),
            Err(ObiError::NameAlreadyBound(_))
        ));
        assert_eq!(ns.lookup("a").unwrap(), oid(1));
    }

    #[test]
    fn names_are_sorted_and_counted() {
        let ns = NameServer::new();
        assert!(ns.is_empty());
        ns.bind("zebra", oid(1)).unwrap();
        ns.bind("apple", oid(2)).unwrap();
        assert_eq!(ns.names(), vec!["apple".to_string(), "zebra".to_string()]);
        assert_eq!(ns.len(), 2);
    }

    #[test]
    fn handle_op_covers_all_operations() {
        let ns = NameServer::new();
        assert_eq!(
            ns.handle_op(NameOp::Bind {
                name: "x".into(),
                target: oid(3)
            })
            .unwrap(),
            ObiValue::Null
        );
        assert_eq!(
            ns.handle_op(NameOp::Lookup { name: "x".into() }).unwrap(),
            ObiValue::Ref(oid(3))
        );
        assert_eq!(
            ns.handle_op(NameOp::List).unwrap(),
            ObiValue::List(vec![ObiValue::Str("x".into())])
        );
        assert_eq!(
            ns.handle_op(NameOp::Unbind { name: "x".into() }).unwrap(),
            ObiValue::Null
        );
        assert!(ns
            .handle_op(NameOp::Lookup { name: "x".into() })
            .is_err());
    }

    #[test]
    fn service_delegates_only_name_ops() {
        let svc = NameServerService::new(NameServer::new());
        svc.name_op(
            SiteId::new(1),
            NameOp::Bind {
                name: "n".into(),
                target: oid(1),
            },
        )
        .unwrap();
        assert_eq!(svc.registry().lookup("n").unwrap(), oid(1));
        // Non-name operations keep the rejecting default.
        assert!(svc
            .invoke(SiteId::new(1), oid(1), "m", ObiValue::Null)
            .is_err());
    }

    #[test]
    fn join_returns_peers_and_catalog_and_is_idempotent() {
        let ns = NameServer::new();
        ns.bind("root", oid(7)).unwrap();
        let a = SiteId::new(10);
        let b = SiteId::new(11);
        let first = ns.join_site(a);
        assert!(first.peers.is_empty(), "the first member sees no peers");
        assert_eq!(first.names, vec![("root".to_string(), oid(7))]);
        let second = ns.join_site(b);
        assert_eq!(second.peers, vec![a]);
        // A lost JoinAck makes the joiner retry: same answer, no dup entry.
        let retried = ns.join_site(b);
        assert_eq!(retried.peers, vec![a]);
        assert_eq!(ns.roster(), vec![a, b]);
        ns.leave_site(b);
        ns.leave_site(b); // idempotent
        assert_eq!(ns.roster(), vec![a]);
    }

    #[test]
    fn service_admits_joins_and_processes_leave_notices() {
        let svc = NameServerService::new(NameServer::new());
        let info = svc.join(SiteId::new(5)).unwrap();
        assert!(info.peers.is_empty());
        assert_eq!(svc.registry().roster(), vec![SiteId::new(5)]);
        svc.leave_notice(SiteId::new(5), SiteId::new(5));
        assert!(svc.registry().roster().is_empty());
    }

    #[test]
    fn concurrent_binds_do_not_corrupt() {
        use std::sync::Arc;
        let ns = Arc::new(NameServer::new());
        let mut joins = Vec::new();
        for t in 0..8u64 {
            let ns = ns.clone();
            joins.push(std::thread::spawn(move || {
                for i in 0..100u64 {
                    ns.bind(&format!("{t}-{i}"), oid(t * 1000 + i)).unwrap();
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(ns.len(), 800);
    }
}
