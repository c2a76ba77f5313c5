//! The in-process transport the perf harness names: an ideal
//! [`SimTransport`].
//!
//! [`MemTransport`] is a [`SimTransport`] over instantaneous, loss-free
//! links and a virtual-only clock. Handlers run on the caller's stack, so a
//! call costs the framework and no thread hop. Real concurrency between
//! sites is [`TcpTransport`](crate::TcpTransport)'s.

use crate::link::LinkModel;
use crate::sim::SimTransport;
use crate::transport::{MessageHandler, Transport};
use bytes::Bytes;
use obiwan_util::{Clock, ClockMode, Result, SiteId};
use std::sync::Arc;

/// A [`SimTransport`] with ideal links and a clock nothing reads.
///
/// # Examples
///
/// ```
/// use obiwan_net::{MemTransport, Transport, MessageHandler};
/// use obiwan_util::SiteId;
/// use bytes::Bytes;
/// use std::sync::Arc;
///
/// # fn main() -> obiwan_util::Result<()> {
/// let net = MemTransport::new();
/// net.register(
///     SiteId::new(2),
///     Arc::new(|_from: SiteId, f: Bytes| -> Option<Bytes> { Some(f) }),
/// );
/// let reply = net.call(SiteId::new(1), SiteId::new(2), Bytes::from_static(b"hi"))?;
/// assert_eq!(&reply[..], b"hi");
/// net.shutdown();
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct MemTransport(SimTransport);

impl Default for MemTransport {
    fn default() -> Self {
        MemTransport::new()
    }
}

impl MemTransport {
    /// Creates a transport with instantaneous, loss-free links.
    pub fn new() -> Self {
        MemTransport(SimTransport::new(
            Clock::new(ClockMode::VirtualOnly),
            LinkModel::ideal(),
        ))
    }

    /// Nothing to stop: no thread serves this transport. Kept so callers
    /// tear down every transport alike.
    pub fn shutdown(&self) {}
}

impl Transport for MemTransport {
    fn register(&self, site: SiteId, handler: Arc<dyn MessageHandler>) {
        self.0.register(site, handler);
    }

    fn deregister(&self, site: SiteId) {
        self.0.deregister(site);
    }

    fn call(&self, from: SiteId, to: SiteId, frame: Bytes) -> Result<Bytes> {
        self.0.call(from, to, frame)
    }

    fn call_stream(
        &self,
        from: SiteId,
        to: SiteId,
        frame: Bytes,
        on_frame: &mut dyn FnMut(Bytes),
    ) -> Result<Bytes> {
        self.0.call_stream(from, to, frame, on_frame)
    }

    fn cast(&self, from: SiteId, to: SiteId, frame: Bytes) -> Result<()> {
        self.0.cast(from, to, frame)
    }

    fn is_reachable(&self, from: SiteId, to: SiteId) -> bool {
        self.0.is_reachable(from, to)
    }
}
