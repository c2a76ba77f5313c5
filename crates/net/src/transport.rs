//! The transport abstraction.

use bytes::Bytes;
use obiwan_util::{Result, SiteId};
use std::sync::Arc;

/// A per-site message handler: the upper layer's dispatch entry point.
///
/// For request frames the handler returns `Some(reply)`; for one-way frames
/// it returns `None`. Handlers must be `Send + Sync` because the threaded
/// transport invokes them from receiver threads.
pub trait MessageHandler: Send + Sync {
    /// Handles a frame arriving from `from`, optionally producing a reply.
    fn handle(&self, from: SiteId, frame: Bytes) -> Option<Bytes>;

    /// Handles a frame that may produce a *stream* of reply frames before
    /// the final one: intermediate frames go through `sink` (in order), and
    /// the return value is the terminal reply, exactly as for
    /// [`MessageHandler::handle`].
    ///
    /// A transport may hold sunk frames until the handler returns:
    /// [`TcpTransport`](crate::TcpTransport) then sends them and the
    /// terminal in one write. So a handler must not wait for its caller to
    /// have seen a chunk, and one that produces chunks slowly delays them
    /// all. [`SimTransport`](crate::SimTransport) (each frame with its own
    /// fault lottery) and [`MemTransport`](crate::MemTransport) still
    /// deliver each frame as it is sunk.
    ///
    /// The default ignores the sink and degrades to the one-shot path, so
    /// handlers that never stream need no changes.
    fn handle_stream(
        &self,
        from: SiteId,
        frame: Bytes,
        sink: &mut dyn FnMut(Bytes),
    ) -> Option<Bytes> {
        let _ = sink;
        self.handle(from, frame)
    }
}

impl<F> MessageHandler for F
where
    F: Fn(SiteId, Bytes) -> Option<Bytes> + Send + Sync,
{
    fn handle(&self, from: SiteId, frame: Bytes) -> Option<Bytes> {
        self(from, frame)
    }
}

/// A bidirectional message transport between sites.
///
/// The three implementations are [`SimTransport`](crate::SimTransport)
/// (deterministic virtual time), [`MemTransport`](crate::MemTransport)
/// (real threads) and [`TcpTransport`](crate::TcpTransport) (real
/// sockets). Upper layers are written against this trait so every protocol
/// runs identically on all three.
pub trait Transport: Send + Sync {
    /// Registers the handler receiving frames addressed to `site`.
    ///
    /// Re-registering a site replaces its handler.
    fn register(&self, site: SiteId, handler: Arc<dyn MessageHandler>);

    /// Removes a site's handler; subsequent frames to it fail with
    /// [`ObiError::SiteUnreachable`](obiwan_util::ObiError::SiteUnreachable).
    fn deregister(&self, site: SiteId);

    /// Synchronous request/response: sends `frame` from `from` to `to` and
    /// waits for the reply.
    ///
    /// # Errors
    ///
    /// Connectivity failures ([`ObiError::Disconnected`],
    /// [`ObiError::SiteUnreachable`], [`ObiError::MessageLost`]) surface so
    /// callers can fall back to local replicas; see
    /// [`ObiError::is_connectivity`](obiwan_util::ObiError::is_connectivity).
    ///
    /// [`ObiError::Disconnected`]: obiwan_util::ObiError::Disconnected
    /// [`ObiError::SiteUnreachable`]: obiwan_util::ObiError::SiteUnreachable
    /// [`ObiError::MessageLost`]: obiwan_util::ObiError::MessageLost
    fn call(&self, from: SiteId, to: SiteId, frame: Bytes) -> Result<Bytes>;

    /// Streaming request/response: like [`Transport::call`], but the remote
    /// handler may emit intermediate reply frames, each delivered to
    /// `on_frame` in arrival order before the terminal reply is returned.
    ///
    /// Intermediate frames ride the same reply link and are subject to the
    /// transport's fault model (loss/duplication/reordering of individual
    /// chunks); callers own reassembly. The default degrades to the
    /// one-shot [`Transport::call`], which never invokes `on_frame` — the
    /// correct behavior for transports that have no streaming path.
    fn call_stream(
        &self,
        from: SiteId,
        to: SiteId,
        frame: Bytes,
        on_frame: &mut dyn FnMut(Bytes),
    ) -> Result<Bytes> {
        let _ = on_frame;
        self.call(from, to, frame)
    }

    /// One-way send (invalidations, update pushes). Delivery is best-effort
    /// on lossy links; an `Ok` return means the frame was accepted for
    /// delivery, not that it arrived.
    fn cast(&self, from: SiteId, to: SiteId, frame: Bytes) -> Result<()>;

    /// True when `from` can currently reach `to`.
    fn is_reachable(&self, from: SiteId, to: SiteId) -> bool;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closures_are_handlers() {
        let h: Arc<dyn MessageHandler> =
            Arc::new(|_from: SiteId, frame: Bytes| -> Option<Bytes> { Some(frame) });
        let out = h.handle(SiteId::new(1), Bytes::from_static(b"x"));
        assert_eq!(out.unwrap(), Bytes::from_static(b"x"));
    }

    #[test]
    fn handler_trait_is_object_safe() {
        fn _takes(_: &dyn MessageHandler) {}
        fn _takes_transport(_: &dyn Transport) {}
    }

    #[test]
    fn default_handle_stream_degrades_to_one_shot() {
        let h: Arc<dyn MessageHandler> =
            Arc::new(|_from: SiteId, frame: Bytes| -> Option<Bytes> { Some(frame) });
        let mut chunks = Vec::new();
        let out = h.handle_stream(SiteId::new(1), Bytes::from_static(b"y"), &mut |c| {
            chunks.push(c)
        });
        assert_eq!(out.unwrap(), Bytes::from_static(b"y"));
        assert!(chunks.is_empty(), "one-shot handlers emit no chunks");
    }
}
