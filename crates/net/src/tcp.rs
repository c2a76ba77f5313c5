//! TCP transport: real sockets.
//!
//! [`TcpTransport`] carries OBIWAN frames over TCP, making the middleware
//! genuinely network-distributed (the simulated transport never leaves
//! the process). Each registered site binds a listener on
//! `127.0.0.1` (an OS-assigned port by default); outgoing calls use a small
//! per-destination connection pool, one exclusive connection per in-flight
//! request, so correlation is positional and the protocol stays simple.
//!
//! ## Wire framing
//!
//! Every request frame is
//!
//! ```text
//! magic  0xB1  kind(u8: 1=call, 2=cast, 3=stream call)  from(u32 BE)  len(u32 BE)  payload
//! ```
//!
//! and a call's reply is `len(u32 BE) payload` on the same connection.
//! Frames above [`MAX_FRAME`] are rejected on both sides, and so is a
//! request header of any other magic or kind, before its payload is read.
//!
//! A *streaming* call (`kind = 3`) answers with a sequence of kind-tagged
//! reply frames on the same connection — `frame_kind(u8: 2=chunk, 3=done)
//! len(u32 BE) payload` — so the caller consumes each chunk as it arrives
//! and the `done` frame closes the exchange.
//!
//! The [`Topology`] still applies: administrative disconnections are
//! enforced at the sender *and* receiver, so tests can cut a site off
//! without tearing sockets down.
//!
//! ## Syscalls and wake-ups
//!
//! Sockets are `TCP_NODELAY`, so every write is a segment that wakes the
//! peer. A frame therefore leaves in one vectored write (header and payload
//! together, the payload never copied) and is read through a 16 KiB buffer
//! per connection, which takes a header and its payload in one read:
//!
//! * `call`: 4 syscalls (a write and a read on each side), 2 hand-overs;
//! * `cast`: 2 syscalls, 1 hand-over;
//! * a streamed reply: 1 write for all its frames, chunks and `done`
//!   together (one slice per header and one per payload, none copied), and
//!   as few reads as the bytes need: small frames that arrive together are
//!   parsed out of one read, so a 50-object fault is 2 hand-overs, not 9.
//!
//! A payload larger than the buffer costs further reads, straight into its
//! own allocation: no intermediate copy and no zero-fill. A write the
//! socket takes only part of, or one of more slices than `IOV_MAX`, goes on
//! where it stopped.
//!
//! Two invariants keep this safe. *Leftover bytes live with the connection*:
//! the buffer is part of the `Conn` the pool stores and the server loop
//! owns, so bytes read past one frame start the next frame of the same
//! socket, and a poisoned connection is dropped buffer and all. *A streamed
//! reply is written when its handler returns, chunk 0 first*: the contract
//! every transport keeps (see [`MessageHandler::handle_stream`]). The one
//! stream producer, `RmiServer`'s `get_many`, builds every chunk before it
//! sinks the first, so holding them delays no byte, and chunk 0's bytes
//! still arrive first, which is what the caller's fault window waits on.

use crate::link::Topology;
use crate::transport::{serve, MessageHandler, Served, Transport};
use bytes::Bytes;
use obiwan_util::{Metrics, ObiError, Result, SiteId};
use obiwan_util::sync::{Mutex, RwLock};
use std::collections::HashMap;
use std::io::{self, BufReader, ErrorKind, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Maximum frame payload accepted (64 MiB).
pub const MAX_FRAME: u32 = 64 << 20;

/// Size of a connection's read buffer: a frame that fits is read in one
/// syscall, header and payload together.
const READ_BUF: usize = 16 << 10;

/// Maps an I/O failure talking to `to` onto the platform error taxonomy:
/// timeouts become [`ObiError::Timeout`] (the peer may be alive but slow —
/// retry), a frame the framer refused [`ObiError::Decode`], everything else
/// [`ObiError::SiteUnreachable`] (give up or wait for reconnection).
fn classify_io(e: &io::Error, to: SiteId) -> ObiError {
    match e.kind() {
        ErrorKind::TimedOut | ErrorKind::WouldBlock => ObiError::Timeout { to },
        ErrorKind::InvalidData => ObiError::Decode(e.to_string()),
        _ => ObiError::SiteUnreachable(to),
    }
}

const MAGIC: u8 = 0xB1;
const KIND_CALL: u8 = 1;
const KIND_CAST: u8 = 2;
/// Request kind opening a streamed reply sequence.
const KIND_STREAM_CALL: u8 = 3;
/// Reply-frame kind: one intermediate chunk of a streamed reply.
const FRAME_CHUNK: u8 = 2;
/// Reply-frame kind: the terminal reply closing a streamed exchange.
const FRAME_DONE: u8 = 3;

/// One end of a connection: the socket and the bytes already read from it
/// past the current frame. The pool stores these and the server loop owns
/// one, so leftover bytes never outlive or leave their socket.
struct Conn {
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Conn {
            reader: BufReader::with_capacity(READ_BUF, stream),
        }
    }

    /// Sends `prefix`, the payload's length and the payload in one vectored
    /// write, so the peer wakes once per frame and the payload is not
    /// copied.
    fn write_frame(&mut self, prefix: &[u8], payload: &[u8]) -> io::Result<()> {
        let mut header = [0u8; 10];
        let header = &mut header[..prefix.len() + 4];
        header[..prefix.len()].copy_from_slice(prefix);
        header[prefix.len()..].copy_from_slice(&frame_len(payload)?.to_be_bytes());
        self.write_frames(&mut [IoSlice::new(header), IoSlice::new(payload)])
    }

    /// Sends every byte of `slices` in one vectored write, looping only
    /// when the socket takes part of them or there are more than the
    /// kernel's `IOV_MAX` (the standard library passes at most that many
    /// to one `writev`). No payload is copied.
    fn write_frames(&mut self, mut slices: &mut [IoSlice<'_>]) -> io::Result<()> {
        let stream = self.reader.get_mut();
        while !slices.is_empty() {
            match stream.write_vectored(slices) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => IoSlice::advance_slices(&mut slices, n),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Reads one frame whose `N`-byte header ends in the payload's length.
    /// The header must pass `accept` and the length [`MAX_FRAME`] *before*
    /// anything is allocated or a payload byte is read (`InvalidData`
    /// otherwise); the payload is then read into an exact, unzeroed buffer.
    fn read_frame<const N: usize>(
        &mut self,
        accept: impl FnOnce(&[u8; N]) -> bool,
    ) -> io::Result<([u8; N], Bytes)> {
        let mut header = [0u8; N];
        self.reader.read_exact(&mut header)?;
        let len = u32::from_be_bytes(header[N - 4..].try_into().expect("4-byte slice"));
        if !accept(&header) || len > MAX_FRAME {
            let refused = format!("refused frame header {header:02x?}");
            return Err(io::Error::new(ErrorKind::InvalidData, refused));
        }
        let mut payload = Vec::with_capacity(len as usize);
        let read = (&mut self.reader)
            .take(u64::from(len))
            .read_to_end(&mut payload)?;
        if read < len as usize {
            return Err(ErrorKind::UnexpectedEof.into());
        }
        Ok((header, Bytes::from(payload)))
    }
}

/// A payload's length as its frame header carries it.
fn frame_len(payload: &[u8]) -> io::Result<u32> {
    u32::try_from(payload.len())
        .map_err(|_| io::Error::new(ErrorKind::InvalidInput, "frame length exceeds u32"))
}

struct ListenerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

struct TcpInner {
    addresses: RwLock<HashMap<SiteId, SocketAddr>>,
    handlers: RwLock<HashMap<SiteId, Arc<dyn MessageHandler>>>,
    listeners: Mutex<HashMap<SiteId, ListenerHandle>>,
    pool: Mutex<HashMap<SiteId, Vec<Conn>>>,
    topology: RwLock<Topology>,
    metrics: Metrics,
    io_timeout: Duration,
}

impl TcpInner {
    /// Writes one frame and counts it as sent.
    fn send(&self, conn: &mut Conn, prefix: &[u8], payload: &[u8]) -> io::Result<()> {
        conn.write_frame(prefix, payload)?;
        self.count_sent(payload);
        Ok(())
    }

    /// Sends what a streamed call's handler served: a `chunk` frame per
    /// sunk chunk, then the `done` frame, in one vectored write (a slice
    /// per header and one per payload, none copied), and counts each frame
    /// as sent.
    fn send_stream(&self, conn: &mut Conn, Served { chunks, reply }: Served) -> io::Result<()> {
        let done = reply.unwrap_or_default();
        let frames = chunks.iter().map(|c| (FRAME_CHUNK, c)).chain([(FRAME_DONE, &done)]);
        let mut headers = Vec::with_capacity(chunks.len() + 1);
        for (kind, payload) in frames.clone() {
            let [a, b, c, d] = frame_len(payload)?.to_be_bytes();
            headers.push([kind, a, b, c, d]);
        }
        let mut slices: Vec<IoSlice<'_>> = headers
            .iter()
            .zip(frames.clone())
            .flat_map(|(header, (_, payload))| [IoSlice::new(header), IoSlice::new(payload)])
            .collect();
        conn.write_frames(&mut slices)?;
        for (_, payload) in frames {
            self.count_sent(payload);
        }
        Ok(())
    }

    fn count_sent(&self, payload: &[u8]) {
        self.metrics.incr_messages_sent();
        self.metrics.add_bytes_sent(payload.len() as u64);
    }

    fn count_received(&self, payload: &Bytes) {
        self.metrics.incr_messages_received();
        self.metrics.add_bytes_received(payload.len() as u64);
    }
}

/// A transport whose frames cross real TCP sockets on the loopback
/// interface.
///
/// # Examples
///
/// ```
/// use obiwan_net::{TcpTransport, Transport};
/// use obiwan_util::SiteId;
/// use bytes::Bytes;
/// use std::sync::Arc;
///
/// # fn main() -> obiwan_util::Result<()> {
/// let net = TcpTransport::new();
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
pub struct TcpTransport {
    inner: Arc<TcpInner>,
}

impl Default for TcpTransport {
    fn default() -> Self {
        TcpTransport::new()
    }
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("sites", &self.inner.addresses.read().len())
            .finish()
    }
}

impl TcpTransport {
    /// Creates a transport with a 5-second I/O timeout.
    pub fn new() -> Self {
        Self::with_timeout(Duration::from_secs(5))
    }

    /// Creates a transport with an explicit per-operation I/O timeout.
    pub fn with_timeout(io_timeout: Duration) -> Self {
        TcpTransport {
            inner: Arc::new(TcpInner {
                addresses: RwLock::new(HashMap::new()),
                handlers: RwLock::new(HashMap::new()),
                listeners: Mutex::new(HashMap::new()),
                pool: Mutex::new(HashMap::new()),
                topology: RwLock::new(Topology::default()),
                metrics: Metrics::new(),
                io_timeout,
            }),
        }
    }

    /// The socket address a registered site listens on.
    pub fn address_of(&self, site: SiteId) -> Option<SocketAddr> {
        self.inner.addresses.read().get(&site).copied()
    }

    /// Adds a remote site's address without hosting it locally (for true
    /// cross-process deployments where the peer registered in another
    /// process and its address is distributed out of band).
    pub fn add_peer(&self, site: SiteId, addr: SocketAddr) {
        self.inner.addresses.write().insert(site, addr);
    }

    /// Transport-level metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.inner.metrics
    }

    /// Runs `f` with mutable access to the (administrative) topology.
    pub fn with_topology_mut<R>(&self, f: impl FnOnce(&mut Topology) -> R) -> R {
        f(&mut self.inner.topology.write())
    }

    /// Convenience: administratively disconnect `site`.
    pub fn disconnect(&self, site: SiteId) {
        self.with_topology_mut(|t| t.disconnect(site));
    }

    /// Convenience: reconnect `site`.
    pub fn reconnect(&self, site: SiteId) {
        self.with_topology_mut(|t| t.reconnect(site));
    }

    /// Stops every listener and closes pooled connections.
    pub fn shutdown(&self) {
        let handles: Vec<ListenerHandle> = {
            let mut listeners = self.inner.listeners.lock();
            let sites: Vec<SiteId> = listeners.keys().copied().collect();
            sites
                .into_iter()
                .filter_map(|s| listeners.remove(&s))
                .collect()
        };
        for mut h in handles {
            h.stop.store(true, Ordering::SeqCst);
            // Wake the accept loop.
            let _ = TcpStream::connect(h.addr);
            if let Some(t) = h.thread.take() {
                let _ = t.join();
            }
        }
        self.inner.pool.lock().clear();
        self.inner.handlers.write().clear();
        self.inner.addresses.write().clear();
    }

    fn checkout(&self, to: SiteId) -> Result<Conn> {
        if let Some(conn) = self
            .inner
            .pool
            .lock()
            .get_mut(&to)
            .and_then(|v| v.pop())
        {
            return Ok(conn);
        }
        let addr = self
            .inner
            .addresses
            .read()
            .get(&to)
            .copied()
            .ok_or(ObiError::SiteUnreachable(to))?;
        let stream = TcpStream::connect_timeout(&addr, self.inner.io_timeout)
            .map_err(|e| classify_io(&e, to))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(self.inner.io_timeout)))
            .and_then(|()| stream.set_write_timeout(Some(self.inner.io_timeout)))
            .map_err(|e| classify_io(&e, to))?;
        Ok(Conn::new(stream))
    }

    fn checkin(&self, to: SiteId, conn: Conn) {
        const POOL_PER_PEER: usize = 8;
        let mut pool = self.inner.pool.lock();
        let slot = pool.entry(to).or_default();
        if slot.len() < POOL_PER_PEER {
            slot.push(conn);
        }
    }

    fn check_up(&self, from: SiteId, to: SiteId) -> Result<()> {
        if self.inner.topology.read().is_up(from, to) {
            Ok(())
        } else {
            Err(ObiError::Disconnected { from, to })
        }
    }

    /// Opens an exchange: takes a connection to `to` and sends the request
    /// frame on it. A connection whose write failed is dropped, not pooled.
    fn request(&self, kind: u8, from: SiteId, to: SiteId, frame: &[u8]) -> Result<Conn> {
        self.check_up(from, to)?;
        if frame.len() as u64 > u64::from(MAX_FRAME) {
            return Err(ObiError::BadArguments(format!(
                "frame of {} bytes exceeds MAX_FRAME",
                frame.len()
            )));
        }
        let mut conn = self.checkout(to)?;
        let [a, b, c, d] = from.as_u32().to_be_bytes();
        self.inner
            .send(&mut conn, &[MAGIC, kind, a, b, c, d], frame)
            .map_err(|e| classify_io(&e, to))?;
        Ok(conn)
    }

    /// Reads one reply frame of an exchange with `to` and counts it. On an
    /// error the caller drops the poisoned connection instead of pooling it.
    fn reply<const N: usize>(
        &self,
        conn: &mut Conn,
        to: SiteId,
        accept: impl FnOnce(&[u8; N]) -> bool,
    ) -> Result<([u8; N], Bytes)> {
        let (header, payload) = conn.read_frame(accept).map_err(|e| classify_io(&e, to))?;
        self.inner.count_received(&payload);
        Ok((header, payload))
    }
}

/// Serves one accepted connection until it ends: `Err` for a clean EOF, a
/// broken socket, a refused header or a stalled write, `Ok` when this side
/// turns the peer away. Either way the connection closes, and whatever else
/// the peer wrote goes with it; nobody reads the reason.
fn serve_connection(inner: &TcpInner, site: SiteId, stream: TcpStream) -> io::Result<()> {
    stream.set_nodelay(true)?;
    // Reads stay blocking (an idle pooled connection is legitimate); writes
    // time out, or a peer that asks for a large reply and stops reading
    // would pin this thread forever.
    stream.set_write_timeout(Some(inner.io_timeout))?;
    let mut conn = Conn::new(stream);
    loop {
        let (header, payload) = conn.read_frame(|h: &[u8; 10]| {
            h[0] == MAGIC && matches!(h[1], KIND_CALL | KIND_CAST | KIND_STREAM_CALL)
        })?;
        let kind = header[1];
        let from = SiteId::new(u32::from_be_bytes(
            header[2..6].try_into().expect("4-byte slice"),
        ));
        // Administrative disconnection applies at the receiver too.
        if !inner.topology.read().is_up(from, site) {
            // For calls the peer is waiting: answer with a zero-length
            // reply is ambiguous, so just drop the connection; the caller
            // maps the I/O error to unreachable.
            return Ok(());
        }
        let Some(handler) = inner.handlers.read().get(&site).cloned() else {
            return Ok(());
        };
        inner.count_received(&payload);
        let served = serve(&*handler, from, payload, kind == KIND_STREAM_CALL);
        // A failed write below poisons the connection: it is closed, and the
        // caller maps the broken exchange to an I/O error and retries.
        match kind {
            KIND_STREAM_CALL => inner.send_stream(&mut conn, served)?,
            KIND_CALL => inner.send(&mut conn, &[], &served.reply.unwrap_or_default())?,
            // `KIND_CAST`, the one kind left that the header check admits:
            // no reply.
            _ => {}
        }
    }
}

impl Transport for TcpTransport {
    fn register(&self, site: SiteId, handler: Arc<dyn MessageHandler>) {
        self.inner.handlers.write().insert(site, handler);
        let mut listeners = self.inner.listeners.lock();
        if listeners.contains_key(&site) {
            return; // keep the existing socket; only the handler changed
        }
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind loopback listener");
        let addr = listener.local_addr().expect("listener address");
        self.inner.addresses.write().insert(site, addr);
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let inner = self.inner.clone();
        let thread = std::thread::Builder::new()
            .name(format!("obiwan-tcp-{}", site.as_u32()))
            .spawn(move || {
                for stream in listener.incoming() {
                    if stop2.load(Ordering::SeqCst) {
                        return;
                    }
                    let Ok(stream) = stream else { continue };
                    let inner = inner.clone();
                    std::thread::spawn(move || serve_connection(&inner, site, stream));
                }
            })
            .expect("spawn accept thread");
        listeners.insert(
            site,
            ListenerHandle {
                addr,
                stop,
                thread: Some(thread),
            },
        );
    }

    fn deregister(&self, site: SiteId) {
        self.inner.handlers.write().remove(&site);
        self.inner.addresses.write().remove(&site);
        if let Some(mut h) = self.inner.listeners.lock().remove(&site) {
            h.stop.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(h.addr);
            if let Some(t) = h.thread.take() {
                let _ = t.join();
            }
        }
        self.inner.pool.lock().remove(&site);
    }

    fn call(&self, from: SiteId, to: SiteId, frame: Bytes) -> Result<Bytes> {
        let mut conn = self.request(KIND_CALL, from, to, &frame)?;
        let (_, reply) = self.reply(&mut conn, to, |_: &[u8; 4]| true)?;
        self.checkin(to, conn);
        Ok(reply)
    }

    fn call_stream(
        &self,
        from: SiteId,
        to: SiteId,
        frame: Bytes,
        on_frame: &mut dyn FnMut(Bytes),
    ) -> Result<Bytes> {
        let mut conn = self.request(KIND_STREAM_CALL, from, to, &frame)?;
        loop {
            let ([frame_kind, ..], payload) = self.reply(&mut conn, to, |h: &[u8; 5]| {
                matches!(h[0], FRAME_CHUNK | FRAME_DONE)
            })?;
            if frame_kind == FRAME_DONE {
                self.checkin(to, conn);
                return Ok(payload);
            }
            on_frame(payload);
        }
    }

    fn cast(&self, from: SiteId, to: SiteId, frame: Bytes) -> Result<()> {
        let conn = self.request(KIND_CAST, from, to, &frame)?;
        self.checkin(to, conn);
        Ok(())
    }

    fn is_reachable(&self, from: SiteId, to: SiteId) -> bool {
        self.inner.addresses.read().contains_key(&to)
            && self.inner.topology.read().is_up(from, to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

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
    fn call_round_trips_over_real_sockets() {
        let net = TcpTransport::new();
        net.register(s(2), Arc::new(Echo));
        let reply = net.call(s(1), s(2), Bytes::from_static(b"over tcp")).unwrap();
        assert_eq!(&reply[..], b"over tcp");
        assert!(net.address_of(s(2)).is_some());
        net.shutdown();
    }

    #[test]
    fn large_frames_cross_intact() {
        let net = TcpTransport::new();
        net.register(s(2), Arc::new(Echo));
        let payload: Vec<u8> = (0..1_000_000u32).map(|i| i as u8).collect();
        let reply = net.call(s(1), s(2), Bytes::from(payload.clone())).unwrap();
        assert_eq!(&reply[..], &payload[..]);
        net.shutdown();
    }

    #[test]
    fn concurrent_callers_share_the_pool() {
        let net = TcpTransport::new();
        net.register(s(9), Arc::new(Echo));
        let mut joins = Vec::new();
        for i in 0..8u32 {
            let net = net.clone();
            joins.push(std::thread::spawn(move || {
                for j in 0..40u32 {
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
    fn call_stream_delivers_chunks_then_terminal_over_sockets() {
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
                for i in 0..5u8 {
                    sink(Bytes::from(vec![i; 3]));
                }
                Some(frame)
            }
        }
        let net = TcpTransport::new();
        net.register(s(2), Arc::new(Chunky));
        let mut chunks = Vec::new();
        let reply = net
            .call_stream(s(1), s(2), Bytes::from_static(b"term"), &mut |c| {
                chunks.push(c)
            })
            .unwrap();
        assert_eq!(&reply[..], b"term");
        assert_eq!(chunks.len(), 5);
        for (i, c) in chunks.iter().enumerate() {
            assert_eq!(&c[..], &[i as u8; 3]);
        }
        // The pooled connection survives the stream: a plain call reuses it.
        let reply = net.call(s(1), s(2), Bytes::from_static(b"again")).unwrap();
        assert_eq!(&reply[..], b"again");
        net.shutdown();
    }

    #[test]
    fn cast_is_one_way() {
        let net = TcpTransport::new();
        let hits = Arc::new(AtomicUsize::new(0));
        let hits2 = hits.clone();
        net.register(
            s(2),
            Arc::new(move |_f: SiteId, _b: Bytes| -> Option<Bytes> {
                hits2.fetch_add(1, Ordering::SeqCst);
                None
            }),
        );
        for _ in 0..5 {
            net.cast(s(1), s(2), Bytes::from_static(b"x")).unwrap();
        }
        // Casts and the final call share one pooled connection, so the
        // call drains everything queued before it.
        let _ = net.call(s(1), s(2), Bytes::new());
        assert_eq!(hits.load(Ordering::SeqCst), 6);
        net.shutdown();
    }

    #[test]
    fn unknown_site_is_unreachable() {
        let net = TcpTransport::new();
        assert_eq!(
            net.call(s(1), s(7), Bytes::new()).unwrap_err(),
            ObiError::SiteUnreachable(s(7))
        );
        assert!(!net.is_reachable(s(1), s(7)));
        net.shutdown();
    }

    #[test]
    fn administrative_disconnect_refuses_without_closing_sockets() {
        let net = TcpTransport::new();
        net.register(s(2), Arc::new(Echo));
        assert!(net.call(s(1), s(2), Bytes::new()).is_ok());
        net.disconnect(s(2));
        assert!(net.call(s(1), s(2), Bytes::new()).unwrap_err().is_connectivity());
        net.reconnect(s(2));
        assert!(net.call(s(1), s(2), Bytes::new()).is_ok());
        net.shutdown();
    }

    #[test]
    fn deregister_then_call_fails() {
        let net = TcpTransport::new();
        net.register(s(2), Arc::new(Echo));
        net.deregister(s(2));
        assert!(net.call(s(1), s(2), Bytes::new()).is_err());
        net.shutdown();
    }

    #[test]
    fn io_errors_classify_into_timeout_decode_or_unreachable() {
        let to = s(3);
        let classify = |kind: ErrorKind| classify_io(&kind.into(), to);
        assert_eq!(classify(ErrorKind::TimedOut), ObiError::Timeout { to });
        assert_eq!(classify(ErrorKind::WouldBlock), ObiError::Timeout { to });
        for kind in [
            ErrorKind::ConnectionRefused,
            ErrorKind::ConnectionReset,
            ErrorKind::BrokenPipe,
            ErrorKind::UnexpectedEof,
        ] {
            assert_eq!(classify(kind), ObiError::SiteUnreachable(to));
        }
        // Both classifications are retryable connectivity failures.
        assert!(classify(ErrorKind::TimedOut).is_connectivity());
        assert!(classify(ErrorKind::BrokenPipe).is_connectivity());
        // A frame the framer refused is a protocol error, not an outage.
        assert!(matches!(
            classify(ErrorKind::InvalidData),
            ObiError::Decode(_)
        ));
        assert!(!classify(ErrorKind::InvalidData).is_connectivity());
    }

    #[test]
    fn read_timeout_surfaces_as_typed_timeout() {
        // A handler that stalls longer than the transport's I/O timeout:
        // the caller must see `Timeout`, not a generic unreachable.
        let net = TcpTransport::with_timeout(Duration::from_millis(100));
        net.register(
            s(2),
            Arc::new(|_f: SiteId, b: Bytes| -> Option<Bytes> {
                std::thread::sleep(Duration::from_millis(400));
                Some(b)
            }),
        );
        let err = net.call(s(1), s(2), Bytes::from_static(b"slow")).unwrap_err();
        assert_eq!(err, ObiError::Timeout { to: s(2) });
        net.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_and_releases_ports() {
        let net = TcpTransport::new();
        net.register(s(2), Arc::new(Echo));
        let addr = net.address_of(s(2)).unwrap();
        net.shutdown();
        net.shutdown();
        // The port is released: we can bind it again.
        let rebind = TcpListener::bind(addr);
        assert!(rebind.is_ok());
    }
}
