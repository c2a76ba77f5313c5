//! Spans recorded from outside the program, at the seams its public API
//! offers: a [`Transport`] decorator, a [`MessageHandler`] decorator, a
//! [`Storage`] decorator, and a top-level span around each call the harness
//! makes ([`Probe::op`]).
//!
//! Nesting on one thread comes from a thread-local "current span". A server
//! thread finds the client span that caused its work through a slot per
//! calling site, which is valid because every site has one call outstanding
//! at a time. Spans travel to the collecting thread over a channel, so this
//! module takes no lock.

use crate::cal::Calibrator;
use bytes::Bytes;
use obiwan_net::{MessageHandler, Transport};
use obiwan_store::{Storage, WAL_FILE};
use obiwan_util::{Result, SiteId};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::Instant;

/// One recorded interval. `parent` and `op` are span ids; 0 means none.
/// Every span caused by one harness call carries that call's span id as `op`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub op: u32,
    pub thread: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span the current thread is inside. A harness call opens with
/// `span == 0` and gets its id only when a child asks for it: a call that
/// never leaves the client (an LMI hit) costs no id and is folded into a
/// per-name total instead of being stored.
#[derive(Clone, Copy)]
struct Cur {
    span: u32,
    op: u32,
    lazy: bool,
}

thread_local! {
    static CUR: Cell<Cur> = const { Cell::new(Cur { span: 0, op: 0, lazy: false }) };
    static THREAD: Cell<u32> = const { Cell::new(0) };
}

/// Sites alive at once are a handful (name server, provider, one or two
/// consumers), so a site's slot is its id modulo this.
const CALLER_SLOTS: usize = 64;

pub struct Tracer {
    epoch: Instant,
    enabled: AtomicBool,
    next_span: AtomicU32,
    next_thread: AtomicU32,
    /// Per calling site: `op << 32 | span` of its outstanding call.
    callers: Vec<AtomicU64>,
    tx: Sender<Span>,
}

/// The receiving end of a [`Tracer`]; stays with the thread that reports.
pub struct SpanSink {
    rx: Receiver<Span>,
}

impl SpanSink {
    /// Every span sent so far.
    pub fn drain(&self) -> Vec<Span> {
        self.rx.try_iter().collect()
    }
}

/// An entered, not yet exited span.
pub struct Open {
    id: u32,
    parent: u32,
    op: u32,
    name: &'static str,
    start_ns: u64,
    saved: Cur,
}

impl Tracer {
    pub fn new() -> (Arc<Tracer>, SpanSink) {
        let (tx, rx) = channel();
        let tracer = Arc::new(Tracer {
            epoch: Instant::now(),
            enabled: AtomicBool::new(false),
            next_span: AtomicU32::new(1),
            next_thread: AtomicU32::new(1),
            callers: (0..CALLER_SLOTS).map(|_| AtomicU64::new(0)).collect(),
            tx,
        });
        (tracer, SpanSink { rx })
    }

    /// Spans are recorded only between `set_enabled(true)` and
    /// `set_enabled(false)`; the decorators pass straight through otherwise.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn new_id(&self) -> u32 {
        self.next_span.fetch_add(1, Ordering::Relaxed)
    }

    fn thread_index(&self) -> u32 {
        THREAD.with(|t| {
            if t.get() == 0 {
                t.set(self.next_thread.fetch_add(1, Ordering::Relaxed));
            }
            t.get()
        })
    }

    /// Enters a span under whatever this thread is inside.
    pub fn enter(&self, name: &'static str) -> Open {
        let mut cur = CUR.with(Cell::get);
        if cur.lazy && cur.span == 0 {
            let id = self.new_id();
            cur = Cur {
                span: id,
                op: id,
                lazy: true,
            };
            CUR.with(|c| c.set(cur));
        }
        self.enter_under(name, cur.span, cur.op)
    }

    /// Enters a span under an explicit parent (a server thread's handler
    /// span under the client's call span).
    pub fn enter_under(&self, name: &'static str, parent: u32, op: u32) -> Open {
        let id = self.new_id();
        let saved = CUR.with(|c| {
            c.replace(Cur {
                span: id,
                op,
                lazy: false,
            })
        });
        Open {
            id,
            parent,
            op,
            name,
            start_ns: self.now(),
            saved,
        }
    }

    pub fn exit(&self, open: Open) {
        let end_ns = self.now();
        CUR.with(|c| c.set(open.saved));
        let _ = self.tx.send(Span {
            id: open.id,
            parent: open.parent,
            op: open.op,
            thread: self.thread_index(),
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
        });
    }

    fn caller_slot(&self, site: SiteId) -> &AtomicU64 {
        &self.callers[site.as_u32() as usize % CALLER_SLOTS]
    }
}

// ---------------------------------------------------------------------------
// Top-level spans around harness calls
// ---------------------------------------------------------------------------

/// Count and total time of the harness calls of one name that had no child
/// span, so were not stored one by one.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Folded {
    pub count: u64,
    pub total_ns: u64,
}

/// Times each harness call and, in a traced run, records its top-level
/// span. One per client thread. The times it returns are scaled to the
/// reference host speed (see [`crate::cal`]); the spans keep raw times.
pub struct Probe {
    tracer: Option<Arc<Tracer>>,
    folded: BTreeMap<&'static str, Folded>,
    pub cal: Calibrator,
}

impl Probe {
    pub fn new(tracer: Option<Arc<Tracer>>) -> Self {
        Probe {
            tracer,
            folded: BTreeMap::new(),
            cal: Calibrator::default(),
        }
    }

    /// Runs `f` and returns its result with the nanoseconds it took, at
    /// reference speed. The time includes the pair of clock reads around it.
    pub fn op<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        let tracer = match &self.tracer {
            Some(t) if t.enabled() => t,
            _ => {
                let start = Instant::now();
                let result = f();
                return (result, self.cal.scale(start.elapsed().as_nanos() as u64));
            }
        };
        let saved = CUR.with(|c| {
            c.replace(Cur {
                span: 0,
                op: 0,
                lazy: true,
            })
        });
        let start_ns = tracer.now();
        let result = f();
        let end_ns = tracer.now();
        let cur = CUR.with(|c| c.replace(saved));
        if cur.span == 0 {
            let slot = self.folded.entry(name).or_default();
            slot.count += 1;
            slot.total_ns += end_ns - start_ns;
        } else {
            let _ = tracer.tx.send(Span {
                id: cur.span,
                parent: 0,
                op: cur.span,
                thread: tracer.thread_index(),
                name,
                start_ns,
                end_ns,
            });
        }
        (result, self.cal.scale(end_ns - start_ns))
    }

    /// The folded totals recorded so far, leaving none behind.
    pub fn take_folded(&mut self) -> BTreeMap<&'static str, Folded> {
        std::mem::take(&mut self.folded)
    }
}

// ---------------------------------------------------------------------------
// Transport decorator
// ---------------------------------------------------------------------------

/// Request and reply frames of the traced phase, kept for the codec replay,
/// up to a byte budget.
pub struct FrameTap {
    budget: AtomicU64,
    tx: Sender<Bytes>,
}

impl FrameTap {
    pub fn new(budget_bytes: u64) -> (FrameTap, Receiver<Bytes>) {
        let (tx, rx) = channel();
        (
            FrameTap {
                budget: AtomicU64::new(budget_bytes),
                tx,
            },
            rx,
        )
    }

    fn keep(&self, frame: &Bytes) {
        let len = frame.len() as u64;
        let had = self
            .budget
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| b.checked_sub(len));
        if had.is_ok() {
            let _ = self.tx.send(frame.clone());
        }
    }
}

/// Wraps the shared transport: a span around every `call`, `call_stream`
/// and `cast`, one around every streamed frame handed to the caller, and
/// the handler decorator around every handler registered through it.
pub struct TracedTransport {
    inner: Arc<dyn Transport>,
    tracer: Arc<Tracer>,
    tap: FrameTap,
}

impl TracedTransport {
    pub fn new(inner: Arc<dyn Transport>, tracer: Arc<Tracer>, tap: FrameTap) -> Self {
        TracedTransport { inner, tracer, tap }
    }

    fn publish_call(&self, from: SiteId, open: &Open) {
        self.tracer.caller_slot(from).store(
            u64::from(open.op) << 32 | u64::from(open.id),
            Ordering::SeqCst,
        );
    }

    fn retire_call(&self, from: SiteId) {
        self.tracer.caller_slot(from).store(0, Ordering::SeqCst);
    }
}

impl Transport for TracedTransport {
    fn register(&self, site: SiteId, handler: Arc<dyn MessageHandler>) {
        self.inner.register(
            site,
            Arc::new(TracedHandler {
                inner: handler,
                tracer: self.tracer.clone(),
            }),
        );
    }

    fn deregister(&self, site: SiteId) {
        self.inner.deregister(site);
    }

    fn call(&self, from: SiteId, to: SiteId, frame: Bytes) -> Result<Bytes> {
        if !self.tracer.enabled() {
            return self.inner.call(from, to, frame);
        }
        self.tap.keep(&frame);
        let open = self.tracer.enter("net.call");
        self.publish_call(from, &open);
        let reply = self.inner.call(from, to, frame);
        self.retire_call(from);
        self.tracer.exit(open);
        if let Ok(reply) = &reply {
            self.tap.keep(reply);
        }
        reply
    }

    fn call_stream(
        &self,
        from: SiteId,
        to: SiteId,
        frame: Bytes,
        on_frame: &mut dyn FnMut(Bytes),
    ) -> Result<Bytes> {
        if !self.tracer.enabled() {
            return self.inner.call_stream(from, to, frame, on_frame);
        }
        self.tap.keep(&frame);
        let open = self.tracer.enter("net.call_stream");
        self.publish_call(from, &open);
        let reply = self.inner.call_stream(from, to, frame, &mut |chunk| {
            self.tap.keep(&chunk);
            // The callback is the caller's code (decode, install), running
            // inside the transport call: its own span keeps that time out
            // of the transport's self time.
            let inner = self.tracer.enter("core.on_frame");
            on_frame(chunk);
            self.tracer.exit(inner);
        });
        self.retire_call(from);
        self.tracer.exit(open);
        if let Ok(reply) = &reply {
            self.tap.keep(reply);
        }
        reply
    }

    fn cast(&self, from: SiteId, to: SiteId, frame: Bytes) -> Result<()> {
        if !self.tracer.enabled() {
            return self.inner.cast(from, to, frame);
        }
        let open = self.tracer.enter("net.cast");
        let sent = self.inner.cast(from, to, frame);
        self.tracer.exit(open);
        sent
    }

    fn is_reachable(&self, from: SiteId, to: SiteId) -> bool {
        self.inner.is_reachable(from, to)
    }
}

// ---------------------------------------------------------------------------
// Handler decorator
// ---------------------------------------------------------------------------

/// Wraps a site's message handler: a span around every `handle` and
/// `handle_stream`, and one around every streamed frame it writes out.
pub struct TracedHandler {
    inner: Arc<dyn MessageHandler>,
    tracer: Arc<Tracer>,
}

impl TracedHandler {
    fn enter(&self, name: &'static str, from: SiteId) -> Open {
        let caller = self.tracer.caller_slot(from).load(Ordering::SeqCst);
        self.tracer
            .enter_under(name, caller as u32, (caller >> 32) as u32)
    }

    /// A frame that produced no reply was one-way: it was not caused by the
    /// call now in its sender's slot, so its span is a root.
    fn exit(&self, mut open: Open, replied: bool) {
        if !replied {
            open.parent = 0;
            open.op = 0;
            open.name = "rmi.serve_cast";
        }
        self.tracer.exit(open);
    }
}

impl MessageHandler for TracedHandler {
    fn handle(&self, from: SiteId, frame: Bytes) -> Option<Bytes> {
        if !self.tracer.enabled() {
            return self.inner.handle(from, frame);
        }
        let open = self.enter("rmi.serve", from);
        let reply = self.inner.handle(from, frame);
        self.exit(open, reply.is_some());
        reply
    }

    fn handle_stream(
        &self,
        from: SiteId,
        frame: Bytes,
        sink: &mut dyn FnMut(Bytes),
    ) -> Option<Bytes> {
        if !self.tracer.enabled() {
            return self.inner.handle_stream(from, frame, sink);
        }
        let open = self.enter("rmi.serve_stream", from);
        let reply = self.inner.handle_stream(from, frame, &mut |chunk| {
            // The sink is the transport writing the frame out.
            let inner = self.tracer.enter("net.sink");
            sink(chunk);
            self.tracer.exit(inner);
        });
        self.exit(open, reply.is_some());
        reply
    }
}

// ---------------------------------------------------------------------------
// Storage decorator
// ---------------------------------------------------------------------------

/// Wraps the real file storage. It always tracks how much of the WAL has
/// been synced, so the benchmark's crash can cut the file back to the bytes
/// that were flushed (dropping a process keeps the OS cache, which would
/// hide a missing sync). In a traced run it also records a span per call.
pub struct TracedStorage {
    inner: Arc<dyn Storage>,
    tracer: Option<Arc<Tracer>>,
    wal_len: AtomicU64,
    wal_synced: AtomicU64,
    written: AtomicU64,
}

impl TracedStorage {
    pub fn new(inner: Arc<dyn Storage>, tracer: Option<Arc<Tracer>>) -> Result<Self> {
        let len = inner.len(WAL_FILE)?;
        Ok(TracedStorage {
            inner,
            tracer,
            wal_len: AtomicU64::new(len),
            wal_synced: AtomicU64::new(len),
            written: AtomicU64::new(0),
        })
    }

    /// Bytes handed to `append` and `replace` so far: WAL and snapshots.
    pub fn written(&self) -> u64 {
        self.written.load(Ordering::SeqCst)
    }

    /// Cuts the WAL back to its last synced length, as a power loss would.
    /// Returns how many unsynced bytes were dropped.
    pub fn crash(&self) -> Result<u64> {
        let synced = self.wal_synced.load(Ordering::SeqCst);
        let len = self.inner.len(WAL_FILE)?;
        self.inner.truncate(WAL_FILE, synced.min(len))?;
        Ok(len.saturating_sub(synced))
    }

    fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        match &self.tracer {
            Some(t) if t.enabled() => {
                let open = t.enter(name);
                let result = f();
                t.exit(open);
                result
            }
            _ => f(),
        }
    }
}

impl Storage for TracedStorage {
    fn read(&self, name: &str) -> Result<Vec<u8>> {
        self.span("store.read", || self.inner.read(name))
    }

    fn len(&self, name: &str) -> Result<u64> {
        self.inner.len(name)
    }

    fn append(&self, name: &str, bytes: &[u8]) -> Result<()> {
        self.span("store.append", || self.inner.append(name, bytes))?;
        self.written
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        if name == WAL_FILE {
            self.wal_len.fetch_add(bytes.len() as u64, Ordering::SeqCst);
        }
        Ok(())
    }

    fn sync(&self, name: &str) -> Result<()> {
        // Read the length first: bytes appended while the sync runs are not
        // covered by it.
        let covered = self.wal_len.load(Ordering::SeqCst);
        self.span("store.sync", || self.inner.sync(name))?;
        if name == WAL_FILE {
            self.wal_synced.fetch_max(covered, Ordering::SeqCst);
        }
        Ok(())
    }

    fn truncate(&self, name: &str, len: u64) -> Result<()> {
        self.span("store.truncate", || self.inner.truncate(name, len))?;
        if name == WAL_FILE {
            self.wal_len.store(len, Ordering::SeqCst);
            self.wal_synced.store(len, Ordering::SeqCst);
        }
        Ok(())
    }

    fn replace(&self, name: &str, bytes: &[u8]) -> Result<()> {
        self.span("store.replace", || self.inner.replace(name, bytes))?;
        self.written
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Analysis
// ---------------------------------------------------------------------------

/// Totals of the spans of one name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the time covered by child spans.
    pub self_ns: u64,
}

/// Time inside `[start, end]` covered by the union of `children`, which
/// must be sorted by start.
pub fn covered_ns(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut covered = 0;
    let mut reach = start;
    for &(s, e) in children {
        let s = s.max(reach);
        let e = e.min(end);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// Per-name totals and self times of a set of spans.
pub fn analyze(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut children: Vec<(u32, u64, u64)> = spans
        .iter()
        .filter(|s| s.parent != 0)
        .map(|s| (s.parent, s.start_ns, s.end_ns))
        .collect();
    children.sort_unstable();
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    let mut intervals = Vec::new();
    for span in spans {
        let from = children.partition_point(|c| c.0 < span.id);
        intervals.clear();
        intervals.extend(
            children[from..]
                .iter()
                .take_while(|c| c.0 == span.id)
                .map(|c| (c.1, c.2)),
        );
        let totals = out.entry(span.name).or_default();
        totals.count += 1;
        totals.total_ns += span.nanos();
        totals.self_ns += span.nanos() - covered_ns(span.start_ns, span.end_ns, &intervals);
    }
    out
}

/// Checks that every span's parent exists and that the span lies inside it.
pub fn check_well_formed(spans: &[Span]) -> std::result::Result<(), String> {
    let by_id: BTreeMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    if by_id.len() != spans.len() {
        return Err("duplicate span id".into());
    }
    for span in spans {
        if span.end_ns < span.start_ns {
            return Err(format!("span {} ends before it starts", span.id));
        }
        if span.parent == 0 {
            continue;
        }
        let Some(parent) = by_id.get(&span.parent) else {
            return Err(format!(
                "span {} ({}) has no parent {}",
                span.id, span.name, span.parent
            ));
        };
        if span.start_ns < parent.start_ns || span.end_ns > parent.end_ns {
            return Err(format!(
                "span {} ({}) [{}, {}] leaves its parent {} ({}) [{}, {}]",
                span.id,
                span.name,
                span.start_ns,
                span.end_ns,
                parent.id,
                parent.name,
                parent.start_ns,
                parent.end_ns
            ));
        }
    }
    Ok(())
}

/// Most spans one trace file holds; the totals use all of them.
pub const MAX_WRITTEN_SPANS: usize = 50_000;

/// The trace file of one workload, as JSON.
pub fn to_json(workload: &str, spans: &[Span], folded: &BTreeMap<&'static str, Folded>) -> String {
    let mut out = String::with_capacity(spans.len().min(MAX_WRITTEN_SPANS) * 120 + 256);
    let _ = write!(
        out,
        "{{\"workload\":\"{workload}\",\"total_spans\":{},\"folded\":[",
        spans.len()
    );
    for (i, (name, f)) in folded.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}{{\"name\":\"{name}\",\"count\":{},\"total_ns\":{}}}",
            f.count, f.total_ns
        );
    }
    out.push_str("],\"spans\":[\n");
    for (i, s) in spans.iter().take(MAX_WRITTEN_SPANS).enumerate() {
        let sep = if i == 0 { "" } else { ",\n" };
        let parent = if s.parent == 0 {
            "null".to_owned()
        } else {
            s.parent.to_string()
        };
        let _ = write!(
            out,
            "{sep}{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"id\":{},\"parent\":{parent},\"op_id\":{},\"thread\":{}}}",
            s.name, s.start_ns, s.end_ns, s.id, s.op, s.thread
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            thread: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Two children overlap on [30, 40]; one grandchild.
        let spans = vec![
            span(1, 0, "top", 0, 100),
            span(2, 1, "call", 10, 40),
            span(3, 1, "frame", 30, 60),
            span(4, 2, "serve", 15, 35),
        ];
        let totals = analyze(&spans);
        assert_eq!(totals["top"].self_ns, 100 - 50);
        assert_eq!(totals["call"].self_ns, 30 - 20);
        assert_eq!(totals["frame"].self_ns, 30);
        assert_eq!(totals["serve"].self_ns, 20);
        assert_eq!(totals["top"].total_ns, 100);
    }

    #[test]
    fn covered_time_is_clipped_to_the_parent() {
        assert_eq!(covered_ns(10, 20, &[(0, 12), (18, 30)]), 4);
        assert_eq!(covered_ns(10, 20, &[]), 0);
        assert_eq!(covered_ns(10, 20, &[(11, 13), (12, 13), (13, 15)]), 4);
    }

    #[test]
    fn well_formedness_rejects_orphans_and_escapes() {
        assert!(check_well_formed(&[span(1, 0, "a", 0, 10), span(2, 1, "b", 2, 8)]).is_ok());
        assert!(check_well_formed(&[span(2, 1, "b", 2, 8)]).is_err());
        assert!(check_well_formed(&[span(1, 0, "a", 0, 10), span(2, 1, "b", 2, 12)]).is_err());
    }

    #[test]
    fn leaf_calls_are_folded_and_parents_are_stored() {
        let (tracer, sink) = Tracer::new();
        tracer.set_enabled(true);
        let mut probe = Probe::new(Some(tracer.clone()));
        probe.op("leaf", || ());
        probe.op("parent", || {
            let child = tracer.enter("child");
            tracer.exit(child);
        });
        let spans = sink.drain();
        assert_eq!(spans.len(), 2);
        let parent = spans.iter().find(|s| s.name == "parent").unwrap();
        let child = spans.iter().find(|s| s.name == "child").unwrap();
        assert_eq!(child.parent, parent.id);
        assert_eq!(child.op, parent.id);
        assert!(check_well_formed(&spans).is_ok());
        let folded = probe.take_folded();
        assert_eq!(folded["leaf"].count, 1);
        assert!(!folded.contains_key("parent"));
    }
}
