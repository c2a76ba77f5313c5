//! Raw-socket tests of the `net::tcp` framer.
//!
//! Each of these drives a registered listener (or a pooled client) with
//! bytes written by hand, so the wire format documented in `tcp.rs` is
//! pinned here byte by byte, and each targets something a buffered reader
//! can get wrong that exact-length reads cannot: frames that share a
//! segment, frames split across segments, many frames per read, and bytes
//! that are no frame at all.

use bytes::Bytes;
use obiwan_net::tcp::MAX_FRAME;
use obiwan_net::{MessageHandler, TcpTransport, Transport};
use obiwan_util::{ObiError, SiteId};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Once};
use std::thread::JoinHandle;
use std::time::Duration;

const MAGIC: u8 = 0xB1;
const CALL: u8 = 1;
const CAST: u8 = 2;
const STREAM_CALL: u8 = 3;

/// The largest single allocation any thread of this test binary asked for:
/// the only way to see that a hostile length never reached the allocator.
static LARGEST_ALLOC: AtomicUsize = AtomicUsize::new(0);

struct RecordingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; recording the size touches no memory.
unsafe impl GlobalAlloc for RecordingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST_ALLOC.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST_ALLOC.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout` (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST_ALLOC.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout` (see `alloc`).
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: RecordingAlloc = RecordingAlloc;

fn assert_no_allocation_past_max_frame() {
    let largest = LARGEST_ALLOC.load(Ordering::Relaxed);
    assert!(
        largest <= MAX_FRAME as usize,
        "a single allocation of {largest} bytes exceeds MAX_FRAME"
    );
}

/// Panics on any thread of this test binary, connection threads included
/// (they are detached, so a panic there is otherwise invisible).
static PANICS: AtomicUsize = AtomicUsize::new(0);

fn count_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            PANICS.fetch_add(1, Ordering::SeqCst);
            default(info);
        }));
    });
}

fn s(n: u32) -> SiteId {
    SiteId::new(n)
}

/// Echoes every frame and records it, in arrival order.
#[derive(Default)]
struct Recorder {
    seen: Mutex<Vec<Bytes>>,
}

impl MessageHandler for Recorder {
    fn handle(&self, _from: SiteId, frame: Bytes) -> Option<Bytes> {
        self.seen.lock().unwrap().push(frame.clone());
        Some(frame)
    }
}

fn recording_site() -> (TcpTransport, Arc<Recorder>, SocketAddr) {
    let net = TcpTransport::new();
    let recorder = Arc::new(Recorder::default());
    net.register(s(2), recorder.clone());
    let addr = net.address_of(s(2)).unwrap();
    (net, recorder, addr)
}

/// `magic kind from(u32 BE) len(u32 BE)`, with whatever length is claimed.
fn request_header(kind: u8, len: u32) -> Vec<u8> {
    let mut header = vec![MAGIC, kind];
    header.extend_from_slice(&1u32.to_be_bytes());
    header.extend_from_slice(&len.to_be_bytes());
    header
}

fn request(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut frame = request_header(kind, payload.len() as u32);
    frame.extend_from_slice(payload);
    frame
}

/// A raw client socket. The read timeout turns "the server is waiting for
/// bytes it should have refused" into a test failure instead of a hang.
fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
}

/// Reads one `len(u32 BE) payload` call reply.
fn read_reply(stream: &mut TcpStream) -> Vec<u8> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).unwrap();
    let mut payload = vec![0u8; u32::from_be_bytes(len) as usize];
    stream.read_exact(&mut payload).unwrap();
    payload
}

/// Reads until the server closes the connection and returns what came
/// first. A reset is a close too: the server dropped bytes it had not read.
fn read_until_closed(stream: &mut TcpStream) -> Vec<u8> {
    let mut got = Vec::new();
    let mut buf = vec![0u8; 64 << 10];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => return got,
            Ok(n) => got.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == ErrorKind::ConnectionReset => return got,
            Err(e) => panic!("the server kept the connection open: {e}"),
        }
    }
}

#[test]
fn frames_sharing_one_segment_arrive_separately_and_in_order() {
    let (net, recorder, addr) = recording_site();
    let mut wire = request(CAST, b"first");
    wire.extend(request(CAST, b""));
    wire.extend(request(CALL, b"third, and the only one answered"));
    let mut client = connect(addr);
    client.write_all(&wire).unwrap();
    assert_eq!(read_reply(&mut client), b"third, and the only one answered");
    let seen = recorder.seen.lock().unwrap();
    assert_eq!(seen.len(), 3);
    assert_eq!(&seen[0][..], b"first");
    assert_eq!(&seen[1][..], b"");
    assert_eq!(&seen[2][..], b"third, and the only one answered");
    drop(seen);
    net.shutdown();
}

#[test]
fn a_request_split_mid_header_and_mid_payload_reassembles() {
    let (net, _recorder, addr) = recording_site();
    // Larger than the connection's read buffer, so the tail of the payload
    // also takes the direct-read path.
    let payload: Vec<u8> = (0..40_000u32).map(|i| (i * 7) as u8).collect();
    let wire = request(CALL, &payload);
    let mut client = connect(addr);
    for part in [&wire[..3], &wire[3..10 + 5], &wire[10 + 5..]] {
        client.write_all(part).unwrap();
        // Each part must reach the server as its own segment.
        std::thread::sleep(Duration::from_millis(30));
    }
    assert_eq!(read_reply(&mut client), payload);
    // The connection is still in frame: a second request on it works.
    client.write_all(&request(CALL, b"next")).unwrap();
    assert_eq!(read_reply(&mut client), b"next");
    net.shutdown();
}

#[test]
fn many_small_chunks_then_a_large_one_stream_in_order() {
    // More chunks than one `writev` takes slices (`IOV_MAX`, 1024), at two
    // slices a frame.
    const SMALL: usize = 1500;
    const LARGE: usize = 1 << 20;
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
            for i in 0..SMALL {
                sink(Bytes::from(vec![(i >> 8) as u8, i as u8, 0xCC]));
            }
            sink(Bytes::from(vec![0xEE; LARGE]));
            Some(frame)
        }
    }
    let net = TcpTransport::new();
    net.register(s(2), Arc::new(Chunky));
    let mut chunks = Vec::new();
    let done = net
        .call_stream(s(1), s(2), Bytes::from_static(b"done"), &mut |c| {
            chunks.push(c)
        })
        .unwrap();
    assert_eq!(&done[..], b"done");
    assert_eq!(chunks.len(), SMALL + 1);
    for (i, chunk) in chunks[..SMALL].iter().enumerate() {
        assert_eq!(&chunk[..], &[(i >> 8) as u8, i as u8, 0xCC]);
    }
    assert_eq!(chunks[SMALL].len(), LARGE);
    assert!(chunks[SMALL].iter().all(|&b| b == 0xEE));
    // Nothing of the stream is left in the pooled connection's buffer.
    let reply = net.call(s(1), s(2), Bytes::from_static(b"plain")).unwrap();
    assert_eq!(&reply[..], b"plain");
    net.shutdown();
}

/// Streams `count` chunks of `len` bytes each, chunk `i` filled with its
/// index's low bytes, then answers `done`.
struct Numbered {
    count: usize,
    len: usize,
}

impl Numbered {
    fn chunk(&self, i: usize) -> Vec<u8> {
        (0..self.len)
            .map(|at| (i >> (8 * (at % 3))) as u8)
            .collect()
    }
}

impl MessageHandler for Numbered {
    fn handle(&self, _from: SiteId, frame: Bytes) -> Option<Bytes> {
        Some(frame)
    }
    fn handle_stream(
        &self,
        _from: SiteId,
        _frame: Bytes,
        sink: &mut dyn FnMut(Bytes),
    ) -> Option<Bytes> {
        for i in 0..self.count {
            sink(Bytes::from(self.chunk(i)));
        }
        Some(Bytes::from_static(b"done"))
    }
}

#[test]
fn a_stream_larger_than_the_socket_buffers_reaches_a_slow_reader_whole() {
    // 12 MiB, more than loopback buffers hold, so the server's write
    // blocks; the reader's pauses add up to twice the write timeout, so
    // writes also return part-way and resume where they stopped.
    let numbered = Arc::new(Numbered {
        count: 48,
        len: 256 << 10,
    });
    let net = TcpTransport::with_timeout(Duration::from_millis(500));
    net.register(s(2), numbered.clone());
    let mut chunks = Vec::new();
    let done = net
        .call_stream(s(1), s(2), Bytes::new(), &mut |c| {
            std::thread::sleep(Duration::from_millis(20));
            chunks.push(c);
        })
        .unwrap();
    assert_eq!(&done[..], b"done");
    assert_eq!(chunks.len(), numbered.count);
    for (i, chunk) in chunks.iter().enumerate() {
        assert!(chunk[..] == numbered.chunk(i)[..], "chunk {i} differs");
    }
    // Nothing of the stream is left in the pooled connection's buffer.
    let reply = net.call(s(1), s(2), Bytes::from_static(b"plain")).unwrap();
    assert_eq!(&reply[..], b"plain");
    net.shutdown();
}

#[test]
fn a_stream_reply_of_small_chunks_is_one_read_for_the_client() {
    let numbered = Numbered { count: 8, len: 3 };
    let mut expected = Vec::new();
    for i in 0..numbered.count {
        expected.extend_from_slice(&[2, 0, 0, 0, 3]);
        expected.extend(numbered.chunk(i));
    }
    expected.extend_from_slice(&[3, 0, 0, 0, 4]);
    expected.extend_from_slice(b"done");
    let net = TcpTransport::new();
    net.register(s(2), Arc::new(numbered));
    let mut client = connect(net.address_of(s(2)).unwrap());
    client.write_all(&request(STREAM_CALL, b"")).unwrap();
    let mut buf = vec![0u8; 64 << 10];
    let n = client.read(&mut buf).unwrap();
    assert_eq!(buf[..n], expected[..], "one read returned {n} bytes");
    net.shutdown();
}

#[test]
fn a_refused_request_header_closes_the_connection_before_any_payload() {
    let (net, recorder, addr) = recording_site();
    let mut bad_magic = request_header(CALL, 8);
    bad_magic[0] = 0xB0;
    let unknown_kind = request_header(7, 8);
    for header in [request_header(CALL, MAX_FRAME + 1), bad_magic, unknown_kind] {
        // Only the header is sent. A server that waited for the payload it
        // announces would hold the connection until the read times out.
        let mut client = connect(addr);
        client.write_all(&header).unwrap();
        assert!(read_until_closed(&mut client).is_empty());
    }
    // An unknown kind with its payload: refused too, never handled as a cast.
    let mut client = connect(addr);
    client.write_all(&request(7, b"kind 7!!")).unwrap();
    assert!(read_until_closed(&mut client).is_empty());
    assert!(recorder.seen.lock().unwrap().is_empty());
    assert_no_allocation_past_max_frame();
    net.shutdown();
}

/// A peer that answers the first connection's request with `bad_reply` and
/// keeps that connection open, then echoes one call on a second connection.
/// It never reads the first connection again, so a client that pooled it
/// gets no answer to its next request.
fn lying_server(bad_reply: Vec<u8>) -> (SocketAddr, JoinHandle<()>) {
    fn read_request(stream: &mut TcpStream) -> Vec<u8> {
        let mut header = [0u8; 10];
        stream.read_exact(&mut header).unwrap();
        assert_eq!(header[0], MAGIC);
        let mut payload = vec![0u8; u32::from_be_bytes(header[6..].try_into().unwrap()) as usize];
        stream.read_exact(&mut payload).unwrap();
        payload
    }
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (mut first, _) = listener.accept().unwrap();
        read_request(&mut first);
        first.write_all(&bad_reply).unwrap();
        let (mut second, _) = listener.accept().unwrap();
        let payload = read_request(&mut second);
        second
            .write_all(&(payload.len() as u32).to_be_bytes())
            .unwrap();
        second.write_all(&payload).unwrap();
        drop(first);
    });
    (addr, server)
}

#[test]
fn an_oversized_reply_is_a_decode_error_and_the_connection_is_not_pooled() {
    let (addr, server) = lying_server((MAX_FRAME + 1).to_be_bytes().to_vec());
    let net = TcpTransport::with_timeout(Duration::from_secs(2));
    net.add_peer(s(2), addr);
    let err = net.call(s(1), s(2), Bytes::from_static(b"x")).unwrap_err();
    assert!(matches!(err, ObiError::Decode(_)), "{err:?}");
    assert_no_allocation_past_max_frame();
    let reply = net.call(s(1), s(2), Bytes::from_static(b"again")).unwrap();
    assert_eq!(&reply[..], b"again");
    server.join().unwrap();
}

#[test]
fn an_unknown_stream_frame_kind_is_a_decode_error_and_the_connection_is_not_pooled() {
    // frame_kind 9, then a length and payload that would otherwise be fine.
    let (addr, server) = lying_server(vec![9, 0, 0, 0, 1, 0xFF]);
    let net = TcpTransport::with_timeout(Duration::from_secs(2));
    net.add_peer(s(2), addr);
    let err = net
        .call_stream(s(1), s(2), Bytes::from_static(b"x"), &mut |_| {
            panic!("no chunk was sent")
        })
        .unwrap_err();
    assert!(matches!(err, ObiError::Decode(_)), "{err:?}");
    let reply = net.call(s(1), s(2), Bytes::from_static(b"again")).unwrap();
    assert_eq!(&reply[..], b"again");
    server.join().unwrap();
}

#[test]
fn a_peer_that_stops_reading_is_dropped_after_the_write_timeout() {
    const REPLY: usize = 16 << 20;
    let net = TcpTransport::with_timeout(Duration::from_millis(100));
    net.register(
        s(2),
        Arc::new(|_from: SiteId, _frame: Bytes| -> Option<Bytes> {
            Some(Bytes::from(vec![7u8; REPLY]))
        }),
    );
    let mut client = connect(net.address_of(s(2)).unwrap());
    client.write_all(&request(CALL, b"big")).unwrap();
    // Not reading: the socket buffers fill and the server's write stalls
    // for ten times its timeout.
    std::thread::sleep(Duration::from_secs(1));
    // Whatever was buffered arrives, then the close; without the timeout
    // the whole reply arrives and the connection stays open.
    let got = read_until_closed(&mut client);
    assert!(
        got.len() < 4 + REPLY,
        "the server wrote all {} bytes",
        got.len()
    );
    net.shutdown();
}

#[test]
fn a_stream_peer_that_stops_reading_is_dropped_after_the_write_timeout() {
    let numbered = Numbered {
        count: 16,
        len: 1 << 20,
    };
    let whole = numbered.count * (5 + numbered.len) + 5 + 4;
    let net = TcpTransport::with_timeout(Duration::from_millis(100));
    net.register(s(2), Arc::new(numbered));
    let mut client = connect(net.address_of(s(2)).unwrap());
    client.write_all(&request(STREAM_CALL, b"big")).unwrap();
    // Not reading: the socket buffers fill and the server's write stalls
    // for ten times its timeout.
    std::thread::sleep(Duration::from_secs(1));
    let got = read_until_closed(&mut client);
    assert!(
        got.len() < whole,
        "the server wrote all {} bytes",
        got.len()
    );
    net.shutdown();
}

/// Byte strings that get past each stage of the framer about equally often:
/// no frame at all, a request header with an arbitrary length, and a header
/// whose length is small enough for the bytes that follow to complete it.
fn hostile_bytes() -> impl Strategy<Value = Vec<u8>> {
    (proptest::collection::vec(any::<u8>(), 0..400), 0u8..3).prop_map(|(mut bytes, stage)| {
        if stage >= 1 && !bytes.is_empty() {
            bytes[0] = MAGIC;
        }
        if stage == 2 && bytes.len() >= 10 {
            bytes[1] = [CALL, CAST, STREAM_CALL][bytes[1] as usize % 3];
            bytes[6..9].fill(0);
        }
        bytes
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic_or_overallocate_a_connection_thread(bytes in hostile_bytes()) {
        count_panics();
        let panics = PANICS.load(Ordering::SeqCst);
        let (net, _recorder, addr) = recording_site();
        let mut client = connect(addr);
        client.write_all(&bytes).unwrap();
        // End of input: a server waiting for the rest of a frame gives up.
        let _ = client.shutdown(Shutdown::Write);
        // The connection thread has finished, one way or the other, once
        // the socket closes.
        read_until_closed(&mut client);
        prop_assert_eq!(PANICS.load(Ordering::SeqCst), panics);
        assert_no_allocation_past_max_frame();
        let mut fresh = connect(addr);
        fresh.write_all(&request(CALL, b"still serving")).unwrap();
        prop_assert_eq!(read_reply(&mut fresh), b"still serving".to_vec());
        net.shutdown();
    }
}
