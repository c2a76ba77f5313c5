//! Threaded in-memory transport.
//!
//! [`MemTransport`] gives each registered site its own receiver thread fed
//! by a crossbeam channel, so multiple sites run under real concurrency —
//! the closest in-process equivalent of the paper's LAN of separate
//! machines. Link latency is modeled but never slept: frames move as fast
//! as the threads do. A call's receiver thread runs the handler to
//! completion and sends back what it served, a stream's chunks and terminal
//! together; the caller passes each across the modeled reply link, one
//! fault lottery per chunk.

use crate::link::{deliver_reply, Leg, LinkLayer, Pace, Topology};
use crate::transport::{serve, MessageHandler, Served, Transport};
use bytes::Bytes;
use crossbeam::channel::{bounded, unbounded, Sender};
use obiwan_util::{Metrics, ObiError, Result, SiteId};
use obiwan_util::sync::RwLock;
use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

enum Envelope {
    Request {
        from: SiteId,
        frame: Bytes,
        stream: bool,
        reply: Sender<Served>,
    },
    OneWay {
        from: SiteId,
        frame: Bytes,
    },
}

struct SiteHandle {
    tx: Sender<Envelope>,
    thread: JoinHandle<()>,
}

impl SiteHandle {
    /// Closes the site's inbox and waits for its receiver to drain it.
    fn stop(self) {
        drop(self.tx);
        let _ = self.thread.join();
    }
}

/// A transport whose sites are live threads exchanging frames over
/// channels.
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
#[derive(Clone)]
pub struct MemTransport {
    inner: Arc<MemInner>,
}

struct MemInner {
    links: LinkLayer,
    sites: RwLock<HashMap<SiteId, SiteHandle>>,
}

/// How long a caller waits for the handler to serve its call, the chunks
/// of a stream and the terminal together.
const CALL_TIMEOUT: Duration = Duration::from_secs(5);

impl Default for MemTransport {
    fn default() -> Self {
        MemTransport::new()
    }
}

impl std::fmt::Debug for MemTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemTransport")
            .field("sites", &self.inner.sites.read().len())
            .finish()
    }
}

impl MemTransport {
    /// Creates a transport with an ideal (instant) topology and a 5-second
    /// call timeout.
    pub fn new() -> Self {
        MemTransport {
            inner: Arc::new(MemInner {
                links: LinkLayer::new(Topology::default(), 0xD15C_0CAF_E000_0001, Pace::Real),
                sites: RwLock::new(HashMap::new()),
            }),
        }
    }

    /// Transport-level metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.inner.links.metrics
    }

    /// Runs `f` with mutable access to the topology.
    pub fn with_topology_mut<R>(&self, f: impl FnOnce(&mut Topology) -> R) -> R {
        f(&mut self.inner.links.topology.write())
    }

    /// Convenience: disconnect `site` from everyone.
    pub fn disconnect(&self, site: SiteId) {
        self.with_topology_mut(|t| t.disconnect(site));
    }

    /// Convenience: reconnect `site`.
    pub fn reconnect(&self, site: SiteId) {
        self.with_topology_mut(|t| t.reconnect(site));
    }

    /// Stops every receiver thread and waits for them to finish.
    ///
    /// Dropping the last clone also stops the threads (their channels
    /// disconnect) but does not wait for them; call `shutdown` for a clean
    /// teardown in tests.
    pub fn shutdown(&self) {
        let mut sites = self.inner.sites.write();
        let handles: Vec<SiteHandle> = sites.drain().map(|(_, h)| h).collect();
        drop(sites);
        for h in handles {
            h.stop();
        }
    }

    /// One call, streamed or not: the request leg, one envelope to `to`'s
    /// receiver thread, which runs the handler to completion, then what it
    /// served delivered across the reply link.
    fn exchange(
        &self,
        from: SiteId,
        to: SiteId,
        frame: Bytes,
        stream: bool,
        on_frame: &mut dyn FnMut(Bytes),
    ) -> Result<Bytes> {
        let tx = self.sender_for(to)?;
        self.inner.links.traverse(from, to, frame.len(), Leg::Request)?;
        let (reply_tx, reply_rx) = bounded(1);
        tx.send(Envelope::Request {
            from,
            frame,
            stream,
            reply: reply_tx,
        })
        .map_err(|_| ObiError::SiteUnreachable(to))?;
        let served = reply_rx
            .recv_timeout(CALL_TIMEOUT)
            .map_err(|_| ObiError::SiteUnreachable(to))?;
        deliver_reply(served, to, on_frame, |bytes, leg| {
            self.inner.links.traverse(to, from, bytes, leg)
        })
    }

    fn sender_for(&self, site: SiteId) -> Result<Sender<Envelope>> {
        self.inner
            .sites
            .read()
            .get(&site)
            .map(|h| h.tx.clone())
            .ok_or(ObiError::SiteUnreachable(site))
    }
}

impl Transport for MemTransport {
    fn register(&self, site: SiteId, handler: Arc<dyn MessageHandler>) {
        // One receiver: envelopes are handled strictly in arrival order,
        // which `cast` fire-and-forget semantics and several tests rely on.
        let (tx, rx) = unbounded::<Envelope>();
        let thread = std::thread::Builder::new()
            .name(format!("obiwan-site-{}", site.as_u32()))
            .spawn(move || {
                while let Ok(envelope) = rx.recv() {
                    match envelope {
                        Envelope::Request {
                            from,
                            frame,
                            stream,
                            reply,
                        } => {
                            // Caller may have timed out; ignore send failure.
                            let _ = reply.send(serve(&*handler, from, frame, stream));
                        }
                        Envelope::OneWay { from, frame } => {
                            serve(&*handler, from, frame, false);
                        }
                    }
                }
            })
            .expect("spawn site receiver thread");
        let old = self
            .inner
            .sites
            .write()
            .insert(site, SiteHandle { tx, thread });
        if let Some(old) = old {
            old.stop();
        }
    }

    fn deregister(&self, site: SiteId) {
        if let Some(h) = self.inner.sites.write().remove(&site) {
            h.stop();
        }
    }

    fn call(&self, from: SiteId, to: SiteId, frame: Bytes) -> Result<Bytes> {
        self.exchange(from, to, frame, false, &mut |_| {})
    }

    fn call_stream(
        &self,
        from: SiteId,
        to: SiteId,
        frame: Bytes,
        on_frame: &mut dyn FnMut(Bytes),
    ) -> Result<Bytes> {
        self.exchange(from, to, frame, true, on_frame)
    }

    fn cast(&self, from: SiteId, to: SiteId, frame: Bytes) -> Result<()> {
        let tx = self.sender_for(to)?;
        match self.inner.links.traverse(from, to, frame.len(), Leg::Request) {
            Ok(_) => {
                tx.send(Envelope::OneWay { from, frame })
                    .map_err(|_| ObiError::SiteUnreachable(to))?;
                Ok(())
            }
            Err(ObiError::MessageLost { .. }) => Ok(()),
            Err(e) => Err(e),
        }
    }

    fn is_reachable(&self, from: SiteId, to: SiteId) -> bool {
        self.inner.sites.read().contains_key(&to)
            && self.inner.links.topology.read().is_up(from, to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn s(n: u32) -> SiteId {
        SiteId::new(n)
    }

    struct Echo;
    impl MessageHandler for Echo {
        fn handle(&self, _from: SiteId, frame: Bytes) -> Option<Bytes> {
            Some(frame)
        }
    }

    #[test]
    fn call_round_trips_across_threads() {
        let net = MemTransport::new();
        net.register(s(2), Arc::new(Echo));
        let reply = net.call(s(1), s(2), Bytes::from_static(b"x")).unwrap();
        assert_eq!(&reply[..], b"x");
        net.shutdown();
    }

    #[test]
    fn concurrent_callers_are_serviced() {
        let net = MemTransport::new();
        net.register(s(9), Arc::new(Echo));
        let mut joins = Vec::new();
        for i in 0..8u32 {
            let net = net.clone();
            joins.push(std::thread::spawn(move || {
                for j in 0..50u32 {
                    let payload = Bytes::from(format!("{i}:{j}"));
                    let reply = net.call(s(i), s(9), payload.clone()).unwrap();
                    assert_eq!(reply, payload);
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        net.shutdown();
    }

    #[test]
    fn cast_is_fire_and_forget() {
        let net = MemTransport::new();
        let hits = Arc::new(AtomicUsize::new(0));
        let hits2 = hits.clone();
        net.register(
            s(2),
            Arc::new(move |_f: SiteId, _b: Bytes| -> Option<Bytes> {
                hits2.fetch_add(1, Ordering::SeqCst);
                None
            }),
        );
        for _ in 0..10 {
            net.cast(s(1), s(2), Bytes::new()).unwrap();
        }
        // Drain: a call after the casts guarantees they were processed
        // because the receiver handles envelopes in order.
        net.register(s(3), Arc::new(Echo));
        let _ = net.call(s(1), s(2), Bytes::new());
        assert_eq!(hits.load(Ordering::SeqCst), 11);
        net.shutdown();
    }

    #[test]
    fn chunk_loss_drops_stream_frames_but_not_the_terminal() {
        use crate::link::LinkModel;
        struct Chunky;
        impl MessageHandler for Chunky {
            fn handle(&self, _from: SiteId, frame: Bytes) -> Option<Bytes> {
                Some(frame)
            }
            fn handle_stream(
                &self,
                _from: SiteId,
                frame: Bytes,
                sink: &mut dyn FnMut(Bytes),
            ) -> Option<Bytes> {
                for i in 0..50u8 {
                    sink(Bytes::from(vec![i]));
                }
                Some(frame)
            }
        }
        let net = MemTransport::new();
        net.with_topology_mut(|t| *t = Topology::uniform(LinkModel::ideal().with_chunk_loss(0.4)));
        net.register(s(2), Arc::new(Chunky));
        let mut delivered = 0usize;
        let reply = net.call_stream(s(1), s(2), Bytes::from_static(b"t"), &mut |_| {
            delivered += 1
        });
        assert!(reply.is_ok(), "terminal is not subject to chunk loss");
        assert!(delivered < 50, "some chunks must drop");
        assert!(delivered > 10, "most of the stream still lands: {delivered}");
        net.shutdown();
    }

    #[test]
    fn disconnect_refuses_and_reconnect_heals() {
        let net = MemTransport::new();
        net.register(s(2), Arc::new(Echo));
        net.disconnect(s(2));
        assert!(net.call(s(1), s(2), Bytes::new()).unwrap_err().is_connectivity());
        net.reconnect(s(2));
        assert!(net.call(s(1), s(2), Bytes::new()).is_ok());
        net.shutdown();
    }

    #[test]
    fn deregister_stops_service() {
        let net = MemTransport::new();
        net.register(s(2), Arc::new(Echo));
        net.deregister(s(2));
        assert_eq!(
            net.call(s(1), s(2), Bytes::new()).unwrap_err(),
            ObiError::SiteUnreachable(s(2))
        );
        net.shutdown();
    }

    #[test]
    fn reregistering_replaces_handler() {
        let net = MemTransport::new();
        net.register(s(2), Arc::new(Echo));
        net.register(
            s(2),
            Arc::new(|_f: SiteId, _b: Bytes| -> Option<Bytes> {
                Some(Bytes::from_static(b"new"))
            }),
        );
        let reply = net.call(s(1), s(2), Bytes::from_static(b"old")).unwrap();
        assert_eq!(&reply[..], b"new");
        net.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent() {
        let net = MemTransport::new();
        net.register(s(2), Arc::new(Echo));
        net.shutdown();
        net.shutdown();
        assert!(!net.is_reachable(s(1), s(2)));
    }
}
