//! The streamed-reply contract, checked on every transport: the handler runs
//! to completion, then its sunk frames reach the caller in sink order, then
//! the terminal. Re-registering a site replaces its handler on each.

use bytes::Bytes;
use obiwan_net::{LinkModel, MessageHandler, SimTransport, TcpTransport, Transport};
use obiwan_util::{Clock, ClockMode, SiteId};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const CALLER: SiteId = SiteId::new(1);
const STREAMER: SiteId = SiteId::new(2);
const PLAIN: SiteId = SiteId::new(3);

/// Sinks three chunks, pausing after the first, and marks itself returned
/// just before it hands back the terminal. A transport that delivered a
/// chunk while the handler still ran would hand it over unmarked.
#[derive(Default)]
struct Streamer {
    returned: AtomicBool,
}

impl MessageHandler for Streamer {
    fn handle(&self, _from: SiteId, frame: Bytes) -> Option<Bytes> {
        Some(frame)
    }

    fn handle_stream(
        &self,
        _from: SiteId,
        frame: Bytes,
        sink: &mut dyn FnMut(Bytes),
    ) -> Option<Bytes> {
        self.returned.store(false, Ordering::SeqCst);
        sink(Bytes::from_static(b"chunk 0"));
        std::thread::sleep(Duration::from_millis(50));
        sink(Bytes::from_static(b"chunk 1"));
        sink(Bytes::from_static(b"chunk 2"));
        self.returned.store(true, Ordering::SeqCst);
        Some(frame)
    }
}

/// One arrival at the caller: a chunk, with whether the handler had
/// returned when it arrived, or the terminal.
#[derive(Debug, PartialEq)]
enum Seen {
    Chunk(Bytes, bool),
    Terminal(Bytes),
}

fn keeps_the_contract(net: &dyn Transport) {
    let streamer = Arc::new(Streamer::default());
    net.register(STREAMER, streamer.clone());
    net.register(
        PLAIN,
        Arc::new(|_from: SiteId, frame: Bytes| -> Option<Bytes> { Some(frame) }),
    );

    let mut seen = Vec::new();
    let terminal = net
        .call_stream(
            CALLER,
            STREAMER,
            Bytes::from_static(b"done"),
            &mut |chunk| {
                seen.push(Seen::Chunk(chunk, streamer.returned.load(Ordering::SeqCst)));
            },
        )
        .unwrap();
    seen.push(Seen::Terminal(terminal));
    let chunk = |payload: &'static [u8]| Seen::Chunk(Bytes::from_static(payload), true);
    assert_eq!(
        seen,
        [
            chunk(b"chunk 0"),
            chunk(b"chunk 1"),
            chunk(b"chunk 2"),
            Seen::Terminal(Bytes::from_static(b"done")),
        ],
        "every chunk after the handler returned, in sink order, then the terminal"
    );

    let mut chunks = 0;
    let reply = net
        .call_stream(CALLER, PLAIN, Bytes::from_static(b"plain"), &mut |_| {
            chunks += 1
        })
        .unwrap();
    assert_eq!(
        (&reply[..], chunks),
        (&b"plain"[..], 0),
        "a plain handler streams no chunks"
    );

    let reply = net
        .call(CALLER, STREAMER, Bytes::from_static(b"again"))
        .unwrap();
    assert_eq!(&reply[..], b"again", "a plain call after the stream");

    net.register(
        STREAMER,
        Arc::new(|_from: SiteId, _frame: Bytes| -> Option<Bytes> {
            Some(Bytes::from_static(b"new"))
        }),
    );
    let reply = net
        .call(CALLER, STREAMER, Bytes::from_static(b"old"))
        .unwrap();
    assert_eq!(&reply[..], b"new", "re-registering replaces the handler");
}

#[test]
fn sim_keeps_the_streamed_reply_contract() {
    let net = SimTransport::new(Clock::new(ClockMode::VirtualOnly), LinkModel::ideal());
    keeps_the_contract(&net);
}

#[test]
fn tcp_keeps_the_streamed_reply_contract() {
    let net = TcpTransport::new();
    keeps_the_contract(&net);
    net.shutdown();
}
