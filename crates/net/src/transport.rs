//! The transport abstraction.

use bytes::Bytes;
use obiwan_util::{Result, SiteId};
use std::sync::Arc;

/// A per-site message handler: the upper layer's dispatch entry point.
///
/// For request frames the handler returns `Some(reply)`; for one-way frames
/// it returns `None`. Handlers must be `Send + Sync` because the TCP
/// transport invokes them from its connection threads.
pub trait MessageHandler: Send + Sync {
    /// Handles a frame arriving from `from`, optionally producing a reply.
    fn handle(&self, from: SiteId, frame: Bytes) -> Option<Bytes>;

    /// Handles a frame that may produce a *stream* of reply frames before
    /// the final one: intermediate frames go through `sink` (in order), and
    /// the return value is the terminal reply, exactly as for
    /// [`MessageHandler::handle`].
    ///
    /// Every transport keeps one contract: sunk frames leave after the
    /// handler returns, in sink order, before the terminal. So a handler
    /// must not wait for its caller to have seen a chunk, and one that
    /// produces chunks slowly delays them all.
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
/// The two implementations are [`SimTransport`](crate::SimTransport)
/// (deterministic virtual time, handlers on the caller's stack) and
/// [`TcpTransport`](crate::TcpTransport) (real sockets and threads);
/// [`MemTransport`](crate::MemTransport) is an ideal `SimTransport` under
/// another name. Upper layers are written against this trait so every
/// protocol runs identically on both.
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
    /// handler runs through [`MessageHandler::handle_stream`], and the
    /// frames it sinks are handed to `on_frame`, in sink order, once it has
    /// returned and before the terminal reply is returned.
    ///
    /// Intermediate frames ride the same reply link, where a modeled link
    /// may lose any of them ([`LinkModel::chunk_loss`]): each reaches
    /// `on_frame` at most once and in sink order, and a lost one is a hole
    /// the caller sees only against the terminal reply.
    ///
    /// [`LinkModel::chunk_loss`]: crate::LinkModel::chunk_loss
    fn call_stream(
        &self,
        from: SiteId,
        to: SiteId,
        frame: Bytes,
        on_frame: &mut dyn FnMut(Bytes),
    ) -> Result<Bytes>;

    /// One-way send (invalidations, update pushes). Delivery is best-effort
    /// on lossy links; an `Ok` return means the frame was accepted for
    /// delivery, not that it arrived.
    fn cast(&self, from: SiteId, to: SiteId, frame: Bytes) -> Result<()>;

    /// True when `from` can currently reach `to`.
    fn is_reachable(&self, from: SiteId, to: SiteId) -> bool;
}

/// What a handler made of one incoming frame: the frames it sank, in sink
/// order, and its terminal reply.
pub(crate) struct Served {
    pub(crate) chunks: Vec<Bytes>,
    pub(crate) reply: Option<Bytes>,
}

/// Runs `handler` on a frame from `from` to completion, through
/// [`MessageHandler::handle_stream`] when the caller asked for a `stream`
/// and [`MessageHandler::handle`] otherwise. The one place a transport
/// calls its handler, so every transport answers alike.
pub(crate) fn serve(
    handler: &dyn MessageHandler,
    from: SiteId,
    frame: Bytes,
    stream: bool,
) -> Served {
    let mut chunks = Vec::new();
    let reply = if stream {
        handler.handle_stream(from, frame, &mut |chunk| chunks.push(chunk))
    } else {
        handler.handle(from, frame)
    };
    Served { chunks, reply }
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
