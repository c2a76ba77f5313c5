//! Workload builders matching the paper's evaluation setup.
//!
//! §4.2: "We use a list with 1000 objects (all with the same size) that is
//! created in site S2. This list is then replicated into another site S1."
//! These builders create exactly that world: a consumer site S1, a provider
//! site S2, and a payload list exported under a well-known name; §4.1's
//! single object is a list of one.
//! [`ListWorkload::walk`] is the one walk over it: the figures, the
//! `BENCH_*` emitters and the root test suites all build and walk the list
//! here.

use crate::LIST_LEN;
use obiwan_core::demo::PayloadNode;
use obiwan_core::{ObiProcess, ObiValue, ObiWorld, ObjRef};
use obiwan_rmi::RemoteRef;
use obiwan_util::SiteId;
use std::time::Duration;

/// Name the list head is exported under.
pub const LIST_NAME: &str = "list";

/// A consumer/provider pair with an exported payload list.
pub struct ListWorkload {
    /// The world the list was built in.
    pub world: ObiWorld,
    /// The replicating site (the paper's S1).
    pub consumer: SiteId,
    /// The providing site (the paper's S2).
    pub provider: SiteId,
    /// Remote reference to the list head.
    pub head: RemoteRef,
    /// Local (provider-side) references to every node, head first.
    pub nodes: Vec<ObjRef>,
}

/// Builds the paper's list workload in `world`: `n` [`PayloadNode`]s of
/// `size` bytes each, created at the provider and exported under
/// [`LIST_NAME`]. The clock starts at zero once the head is looked up.
///
/// # Panics
///
/// Panics if `n` is zero.
pub fn payload_list(mut world: ObiWorld, n: usize, size: usize) -> ListWorkload {
    assert!(n > 0, "list must have at least one node");
    let consumer = world.add_site("S1");
    let provider = world.add_site("S2");

    let mut nodes: Vec<ObjRef> = Vec::with_capacity(n);
    let mut next: Option<ObjRef> = None;
    for i in (0..n).rev() {
        let mut node = PayloadNode::sized(i as i64, size);
        node.set_next(next);
        let r = world.site(provider).create(node);
        next = Some(r);
        nodes.push(r);
    }
    nodes.reverse();
    world
        .site(provider)
        .export(nodes[0], LIST_NAME)
        .expect("export list head");
    let head = world
        .site(consumer)
        .lookup(LIST_NAME)
        .expect("lookup list head");
    // Setup traffic (binds, lookups) must not pollute measurements.
    world.clock().reset();
    ListWorkload {
        world,
        consumer,
        provider,
        head,
        nodes,
    }
}

impl ListWorkload {
    /// The consumer's process.
    pub fn site(&self) -> &ObiProcess {
        self.world.site(self.consumer)
    }

    /// Invokes `method` on the head by RMI from the consumer; returns the
    /// call's virtual latency.
    pub fn rmi(&self, method: &str) -> Duration {
        let before = self.world.clock().elapsed();
        self.site()
            .invoke_rmi(&self.head, method, ObiValue::Null)
            .expect("rmi");
        self.world.clock().elapsed() - before
    }

    /// Walks the list at the consumer from `root` to the tail, one `touch`
    /// per node.
    pub fn walk(&self, root: ObjRef) -> Walk<'_, fn()> {
        self.walk_thinking(root, || {})
    }

    /// [`walk`](Self::walk), running `think` before each touch: the user's
    /// think time, outside the touch's latency.
    pub fn walk_thinking<T: FnMut()>(&self, root: ObjRef, think: T) -> Walk<'_, T> {
        Walk {
            site: self.site(),
            next: Some(root),
            think,
        }
    }
}

/// A list walk in progress: each item is one node's `touch`, yielding its
/// virtual latency, in list order. Taking fewer items stops the walk early.
#[must_use = "a walk touches nothing until it is iterated"]
pub struct Walk<'w, T> {
    site: &'w ObiProcess,
    next: Option<ObjRef>,
    think: T,
}

impl<T: FnMut()> Iterator for Walk<'_, T> {
    type Item = Duration;

    fn next(&mut self) -> Option<Duration> {
        let cur = self.next?;
        (self.think)();
        let before = self.site.clock().elapsed();
        let out = self.site.invoke(cur, "touch", ObiValue::Null).expect("touch");
        self.next = out.as_ref_id().map(ObjRef::from);
        Some(self.site.clock().elapsed() - before)
    }
}

/// The list of Figures 5 and 6: [`LIST_LEN`] `size`-byte nodes on the paper
/// testbed.
pub(crate) fn paper_list(size: usize) -> ListWorkload {
    payload_list(ObiWorld::paper_testbed(), LIST_LEN, size)
}

/// The single-object workload of §4.1: a list of one `size`-byte node on
/// the paper testbed.
pub fn single_object(size: usize) -> ListWorkload {
    payload_list(ObiWorld::paper_testbed(), 1, size)
}

#[cfg(test)]
mod tests {
    use super::*;
    use obiwan_core::ReplicationMode;

    #[test]
    fn list_workload_links_all_nodes() {
        let w = payload_list(ObiWorld::paper_testbed(), 5, 64);
        assert_eq!(w.nodes.len(), 5);
        assert_eq!(w.head.id(), w.nodes[0].id());
        // Each node, touched at the provider, names its successor.
        for (i, node) in w.nodes.iter().enumerate() {
            let out = w
                .world
                .site(w.provider)
                .invoke(*node, "touch", ObiValue::Null)
                .unwrap();
            let next = w.nodes.get(i + 1).map_or(ObiValue::Null, |n| ObiValue::Ref(n.id()));
            assert_eq!(out, next);
        }
    }

    #[test]
    fn walk_touches_every_node_and_stops_early_on_request() {
        let w = payload_list(ObiWorld::paper_testbed(), 5, 64);
        let root = w.site().get(&w.head, ReplicationMode::incremental(2)).unwrap();
        let mut thoughts = 0;
        assert_eq!(w.walk_thinking(root, || thoughts += 1).take(3).count(), 3);
        assert_eq!(thoughts, 3);
        let latencies: Vec<Duration> = w.walk(root).collect();
        assert_eq!(latencies.len(), 5);
        assert!(latencies.iter().all(|d| *d > Duration::ZERO));
    }

    #[test]
    fn workload_clock_starts_at_zero() {
        let w = payload_list(ObiWorld::paper_testbed(), 3, 64);
        assert_eq!(w.world.clock().virtual_nanos(), 0);
        let s = single_object(64);
        assert_eq!(s.world.clock().virtual_nanos(), 0);
    }

    #[test]
    fn single_workload_round_trips() {
        let s = single_object(1024);
        let replica = s
            .world
            .site(s.consumer)
            .get(&s.head, ReplicationMode::incremental(1))
            .unwrap();
        let len = s
            .world
            .site(s.consumer)
            .invoke(replica, "payload_len", ObiValue::Null)
            .unwrap();
        assert_eq!(len, ObiValue::I64(1024));
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_list_is_rejected() {
        let _ = payload_list(ObiWorld::paper_testbed(), 0, 64);
    }
}
