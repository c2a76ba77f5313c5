//! Protocol messages exchanged between OBIWAN sites.
//!
//! Every cross-site interaction in the platform is one of these messages:
//! remote method invocation (the RMI path), incremental/cluster replication
//! (`get`), replica write-back (`put`), name-server operations, and the
//! one-way consistency traffic (invalidations and update pushes).
//!
//! Messages encode to a tagged binary frame via [`Message::encode`] and are
//! restored with [`Message::decode`]; the pair is the identity on all valid
//! messages. Each type's layout is declared once, in the [`wire_layout!`]
//! block below, and both directions are derived from it. Decoding copies
//! nothing it can share: every [`ReplicaState::state`] of a decoded message
//! is a view of its frame. Within one frame a class name is written out
//! once per run of entries of that class, and a repeat is one zero byte
//! (`ClassName` in [`field`](crate::field)); a `WalRecord` still writes
//! every class out.
//!
//! [`wire_layout!`]: crate::wire_layout

use crate::codec::{Decoder, Encoder};
use crate::field::{ClassName, Classes, Field};
use crate::value::ObiValue;
use bytes::Bytes;
use obiwan_util::{ClusterId, ObiError, ObjId, RequestId, Result, SiteId};

/// The replication mode requested by a `get`, as it crosses the wire.
///
/// This mirrors the `mode` argument of the paper's
/// `IProvideRemote::get(mode)`: the application chooses, at run time, between
/// incremental replication, run-time-sized clusters, and full transitive
/// closure (§2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireMode {
    /// Replicate `batch` objects per fault, each with its own proxy pair.
    Incremental {
        /// Objects materialized per object fault (≥ 1).
        batch: u32,
    },
    /// Replicate clusters of `size` objects sharing a single proxy pair.
    Cluster {
        /// Objects per cluster (≥ 1).
        size: u32,
    },
    /// Replicate the whole reachability graph in one step.
    Transitive,
}

/// The serialized state of one object replica.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaState {
    /// The master object's identity.
    pub id: ObjId,
    /// Class name, resolved against the receiving site's class registry.
    pub class: String,
    /// Master version at serialization time (monotonic per object).
    pub version: u64,
    /// Field state as produced by the object's own `encode_state`. Decoded
    /// off the wire, a view of the frame it arrived in.
    pub state: Bytes,
}

/// An out-edge of a replica batch pointing at an object that was *not*
/// included: the receiver must create a proxy-out for it (paper §2.2 step 3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrontierEdge {
    /// The not-yet-replicated object the proxy-out will stand in for.
    pub target: ObjId,
    /// Its class name (so faulting can be validated early).
    pub class: String,
}

/// The payload of a successful `get`: replicas plus the frontier of
/// references left as proxy-outs.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaBatch {
    /// The object the `get` was addressed to.
    pub root: ObjId,
    /// Materialized replicas, in traversal order (root first).
    pub replicas: Vec<ReplicaState>,
    /// Out-edges to objects not in the batch.
    pub frontier: Vec<FrontierEdge>,
    /// When set, the whole batch is one cluster sharing a single proxy pair;
    /// members cannot be individually updated (paper §4.3).
    pub cluster: Option<ClusterId>,
}

/// What a joiner learns from the name-server site when it enters a live
/// world: the current peer roster and every bound name, so it can bootstrap
/// replicas through the ordinary incremental/cluster demand pipeline while
/// the masters keep serving.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct JoinInfo {
    /// Sites already in the world (excluding the joiner), sorted.
    pub peers: Vec<SiteId>,
    /// Current name bindings (`name -> exported root`), in name order.
    pub names: Vec<(String, ObjId)>,
}

/// The latest put one origin applied to a master object, as a handoff
/// carries it to the successor, which answers a replay with `version`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppliedPut {
    /// The master object the put was applied to.
    pub object: ObjId,
    /// The site that sent the put (its request id's origin).
    pub origin: SiteId,
    /// The put's request sequence number.
    pub seq: u64,
    /// The master version the put produced.
    pub version: u64,
}

/// A name-server operation (the paper's registration of `AProxyIn` in a name
/// server, §2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NameOp {
    /// Bind `name` to an exported object.
    Bind { name: String, target: ObjId },
    /// Resolve `name` to an object id.
    Lookup { name: String },
    /// Remove a binding.
    Unbind { name: String },
    /// Enumerate all bound names.
    List,
}

/// A protocol message.
///
/// Request/reply pairs correlate through their [`RequestId`];
/// [`Message::Invalidate`] and [`Message::UpdatePush`] are one-way.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Remote method invocation (the RMI path through a proxy-in).
    InvokeRequest {
        request: RequestId,
        target: ObjId,
        method: String,
        args: ObiValue,
    },
    /// Result of a remote invocation.
    InvokeReply {
        request: RequestId,
        result: std::result::Result<ObiValue, ObiError>,
    },
    /// `IProvideRemote::get(mode)` — demand a replica batch.
    GetRequest {
        request: RequestId,
        target: ObjId,
        mode: WireMode,
    },
    /// Replica batch (or failure) answering a [`Message::GetRequest`].
    GetReply {
        request: RequestId,
        result: std::result::Result<ReplicaBatch, ObiError>,
    },
    /// Batched demand: materialize several frontier proxies in a single
    /// round-trip. The provider answers with one merged batch rooted at the
    /// first live target, so N faults cost one network exchange.
    GetManyRequest {
        request: RequestId,
        targets: Vec<ObjId>,
        mode: WireMode,
    },
    /// Merged replica batch (or failure) answering a
    /// [`Message::GetManyRequest`].
    GetManyReply {
        request: RequestId,
        result: std::result::Result<ReplicaBatch, ObiError>,
    },
    /// Streaming variant of [`Message::GetManyRequest`]: the provider
    /// answers with a sequence of [`Message::GetManyChunk`] frames (each a
    /// slice of the merged batch, `chunk` objects per frame) closed by one
    /// [`Message::GetManyDone`]. A retry of the same request sets
    /// `resume_from` to the first chunk index the client has not yet
    /// materialized, so a resumed stream re-sends only the missing suffix.
    GetManyStreamRequest {
        request: RequestId,
        targets: Vec<ObjId>,
        mode: WireMode,
        /// Objects per chunk frame (≥ 1).
        chunk: u32,
        /// First chunk index the provider should send (0 on first attempt).
        resume_from: u32,
    },
    /// One slice of a streamed batch. The batch carried here holds the
    /// chunk's replicas; the frontier rides on the final chunk only.
    GetManyChunk {
        request: RequestId,
        /// Zero-based position of this slice in the stream.
        chunk_index: u32,
        /// Total number of chunks the provider intends to send (fixed for
        /// the lifetime of one stream attempt).
        total_hint: u32,
        batch: ReplicaBatch,
    },
    /// Terminal frame of a streamed batch: carries the authoritative chunk
    /// count so the client can detect holes, or the error that aborted the
    /// stream.
    GetManyDone {
        request: RequestId,
        total_chunks: u32,
        result: std::result::Result<(), ObiError>,
    },
    /// `IProvideRemote::put` — write replica state back to the master site.
    PutRequest {
        request: RequestId,
        entries: Vec<ReplicaState>,
    },
    /// Per-object accepted versions (or a failure) answering a put.
    PutReply {
        request: RequestId,
        result: std::result::Result<Vec<(ObjId, u64)>, ObiError>,
    },
    /// Name-server operation.
    NameRequest { request: RequestId, op: NameOp },
    /// Name-server response (`Lookup` yields `Ref`, `List` yields a list of
    /// strings, `Bind`/`Unbind` yield `Null`).
    NameReply {
        request: RequestId,
        result: std::result::Result<ObiValue, ObiError>,
    },
    /// Subscribe to consistency traffic for an object (`push = false` means
    /// invalidations only, `true` means full update pushes).
    Subscribe {
        request: RequestId,
        object: ObjId,
        push: bool,
    },
    /// Generic acknowledgement for fire-and-confirm requests.
    Ack {
        request: RequestId,
        result: std::result::Result<ObiValue, ObiError>,
    },
    /// One-way: the listed master objects changed; local replicas are stale.
    Invalidate { objects: Vec<ObjId> },
    /// One-way: pushed replica updates (update dissemination hook).
    UpdatePush { entries: Vec<ReplicaState> },
    /// Connectivity probe.
    Ping { request: RequestId },
    /// Probe response.
    Pong { request: RequestId },
    /// One-way: the sender has settled every request it issued with
    /// sequence number `<= up_to`, so the receiver's reply cache may
    /// discard the corresponding cached replies (the client-driven
    /// acknowledgement horizon of the exactly-once retry protocol).
    AckHorizon { up_to: u64 },
    /// Membership: the sender asks to join the live world. Served by the
    /// name-server site, which adds the sender to its roster and answers
    /// with a [`Message::JoinAck`].
    JoinRequest { request: RequestId },
    /// Roster and name bindings (or failure) answering a
    /// [`Message::JoinRequest`].
    JoinAck {
        request: RequestId,
        result: std::result::Result<JoinInfo, ObiError>,
    },
    /// Membership: the sender transfers mastership of `root` (and every
    /// reachable master listed in `entries`) to the receiver, which
    /// installs them as masters (with their put records, `applied`) and
    /// becomes the new proxy-in host.
    HandoffRequest {
        request: RequestId,
        root: ObjId,
        entries: Vec<ReplicaState>,
        applied: Vec<AppliedPut>,
    },
    /// Number of masters installed (or failure) answering a
    /// [`Message::HandoffRequest`].
    HandoffAck {
        request: RequestId,
        result: std::result::Result<u64, ObiError>,
    },
    /// One-way: `site` has left the world gracefully; receivers retire its
    /// breaker/monitor state and stop expecting it to answer.
    Leave { site: SiteId },
}

/// The tags of the replies the batch writer stamps itself.
pub(crate) const MSG_GET_REP: u8 = 4;
pub(crate) const MSG_GET_MANY_REP: u8 = 16;
pub(crate) const MSG_GET_MANY_CHUNK: u8 = 19;

crate::wire_layout! {
    enum WireMode {
        Incremental = 0 { batch },
        Cluster = 1 { size },
        Transitive = 2 {},
    }
    struct ReplicaState { id, class as ClassName, version, state }
    struct FrontierEdge { target, class as ClassName }
    struct ReplicaBatch { root, replicas, frontier, cluster }
    struct JoinInfo { peers, names }
    struct AppliedPut { object, origin, seq, version }
    enum NameOp {
        Bind = 0 { name, target },
        Lookup = 1 { name },
        Unbind = 2 { name },
        List = 3 {},
    }
    enum Message {
        InvokeRequest = 1 { request, target, method, args },
        InvokeReply = 2 { request, result },
        GetRequest = 3 { request, target, mode },
        GetReply = MSG_GET_REP { request, result },
        PutRequest = 5 { request, entries },
        PutReply = 6 { request, result },
        NameRequest = 7 { request, op },
        NameReply = 8 { request, result },
        Subscribe = 9 { request, object, push },
        Ack = 10 { request, result },
        Invalidate = 11 { objects },
        UpdatePush = 12 { entries },
        Ping = 13 { request },
        Pong = 14 { request },
        GetManyRequest = 15 { request, targets, mode },
        GetManyReply = MSG_GET_MANY_REP { request, result },
        AckHorizon = 17 { up_to },
        GetManyStreamRequest = 18 { request, targets, mode, chunk, resume_from },
        GetManyChunk = MSG_GET_MANY_CHUNK { request, chunk_index, total_hint, batch },
        GetManyDone = 20 { request, total_chunks, result },
        JoinRequest = 21 { request },
        JoinAck = 22 { request, result },
        HandoffRequest = 23 { request, root, entries, applied },
        HandoffAck = 24 { request, result },
        Leave = 25 { site },
    }
}

/// Approximate frame size of a batch, used to pre-size encoders so hot
/// replies do not grow their buffer repeatedly. It counts every class in
/// full, though one that repeats the class before it takes a byte: an upper
/// bound, which is what a buffer that should not grow wants.
fn batch_size_hint(batch: &ReplicaBatch) -> usize {
    let replicas: usize = batch
        .replicas
        .iter()
        .map(|r| r.state.len() + r.class.len() + 24)
        .sum();
    let frontier: usize = batch.frontier.iter().map(|f| f.class.len() + 12).sum();
    32 + replicas + frontier
}

/// [`batch_size_hint`] for the entries of a put, a push or a handoff.
fn entries_size_hint(entries: &[ReplicaState]) -> usize {
    16 + entries
        .iter()
        .map(|e| e.state.len() + e.class.len() + 24)
        .sum::<usize>()
}

impl Message {
    /// Approximate encoded size, used to pre-allocate the frame buffer.
    /// Exact for fixed-width parts, slightly generous for varints.
    pub fn encoded_size_hint(&self) -> usize {
        match self {
            Message::GetReply { result: Ok(batch), .. }
            | Message::GetManyReply { result: Ok(batch), .. } => 16 + batch_size_hint(batch),
            Message::GetManyChunk { batch, .. } => 32 + batch_size_hint(batch),
            Message::PutRequest { entries, .. } | Message::UpdatePush { entries } => {
                entries_size_hint(entries)
            }
            Message::GetManyRequest { targets, .. }
            | Message::GetManyStreamRequest { targets, .. } => 24 + targets.len() * 12,
            Message::HandoffRequest { entries, .. } => 24 + entries_size_hint(entries),
            Message::JoinAck { result: Ok(info), .. } => {
                32 + info.peers.len() * 8
                    + info
                        .names
                        .iter()
                        .map(|(n, _)| n.len() + 16)
                        .sum::<usize>()
            }
            _ => 64,
        }
    }

    /// Serializes the message to a self-contained frame.
    pub fn encode(&self) -> Bytes {
        let mut enc = Encoder::with_capacity(self.encoded_size_hint());
        enc.classes = Classes::Run(None);
        self.write_field(&mut enc);
        enc.finish()
    }

    /// Deserializes a frame produced by [`Message::encode`]. Replica
    /// states come out as views of `frame`, not copies: whoever keeps one
    /// keeps the frame's allocation alive.
    ///
    /// # Errors
    ///
    /// Returns [`ObiError::Decode`] on any malformed input, including
    /// trailing garbage after a valid message.
    pub fn decode(frame: &Bytes) -> Result<Message> {
        let mut dec = Decoder::over_frame(frame);
        dec.classes = Classes::Run(None);
        let msg = Message::read_field(&mut dec)?;
        if !dec.is_exhausted() {
            return Err(ObiError::Decode(format!(
                "{} trailing bytes after message",
                dec.remaining()
            )));
        }
        Ok(msg)
    }

    /// The request id carried by this message, if it has one.
    pub fn request_id(&self) -> Option<RequestId> {
        match self {
            Message::InvokeRequest { request, .. }
            | Message::InvokeReply { request, .. }
            | Message::GetRequest { request, .. }
            | Message::GetReply { request, .. }
            | Message::GetManyRequest { request, .. }
            | Message::GetManyReply { request, .. }
            | Message::GetManyStreamRequest { request, .. }
            | Message::GetManyChunk { request, .. }
            | Message::GetManyDone { request, .. }
            | Message::PutRequest { request, .. }
            | Message::PutReply { request, .. }
            | Message::NameRequest { request, .. }
            | Message::NameReply { request, .. }
            | Message::Subscribe { request, .. }
            | Message::Ack { request, .. }
            | Message::JoinRequest { request }
            | Message::JoinAck { request, .. }
            | Message::HandoffRequest { request, .. }
            | Message::HandoffAck { request, .. }
            | Message::Ping { request }
            | Message::Pong { request } => Some(*request),
            Message::Invalidate { .. }
            | Message::UpdatePush { .. }
            | Message::AckHorizon { .. }
            | Message::Leave { .. } => None,
        }
    }

    /// True for messages that expect a reply.
    pub fn is_request(&self) -> bool {
        matches!(
            self,
            Message::InvokeRequest { .. }
                | Message::GetRequest { .. }
                | Message::GetManyRequest { .. }
                | Message::GetManyStreamRequest { .. }
                | Message::PutRequest { .. }
                | Message::NameRequest { .. }
                | Message::Subscribe { .. }
                | Message::JoinRequest { .. }
                | Message::HandoffRequest { .. }
                | Message::Ping { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obiwan_util::SiteId;

    fn rid(seq: u64) -> RequestId {
        RequestId::new(SiteId::new(1), seq)
    }

    fn oid(l: u64) -> ObjId {
        ObjId::new(SiteId::new(2), l)
    }

    fn sample_state(l: u64) -> ReplicaState {
        ReplicaState {
            id: oid(l),
            class: "Item".into(),
            version: l * 3,
            state: Bytes::from(vec![l as u8; 16]),
        }
    }

    fn sample_batch() -> ReplicaBatch {
        ReplicaBatch {
            root: oid(1),
            replicas: vec![sample_state(1), sample_state(2)],
            frontier: vec![FrontierEdge {
                target: oid(3),
                class: "Item".into(),
            }],
            cluster: Some(ClusterId::new(SiteId::new(2), 4)),
        }
    }

    fn all_messages() -> Vec<Message> {
        vec![
            Message::InvokeRequest {
                request: rid(1),
                target: oid(1),
                method: "touch".into(),
                args: ObiValue::List(vec![1i64.into(), "x".into()]),
            },
            Message::InvokeReply {
                request: rid(1),
                result: Ok(ObiValue::I64(7)),
            },
            Message::InvokeReply {
                request: rid(2),
                result: Err(ObiError::NoSuchObject(oid(9))),
            },
            Message::GetRequest {
                request: rid(3),
                target: oid(1),
                mode: WireMode::Incremental { batch: 10 },
            },
            Message::GetRequest {
                request: rid(3),
                target: oid(1),
                mode: WireMode::Cluster { size: 100 },
            },
            Message::GetRequest {
                request: rid(3),
                target: oid(1),
                mode: WireMode::Transitive,
            },
            Message::GetReply {
                request: rid(3),
                result: Ok(sample_batch()),
            },
            Message::GetReply {
                request: rid(3),
                result: Err(ObiError::Disconnected {
                    from: SiteId::new(1),
                    to: SiteId::new(2),
                }),
            },
            Message::GetManyRequest {
                request: rid(8),
                targets: vec![oid(1), oid(2), oid(3)],
                mode: WireMode::Incremental { batch: 4 },
            },
            Message::GetManyRequest {
                request: rid(8),
                targets: vec![],
                mode: WireMode::Transitive,
            },
            Message::GetManyReply {
                request: rid(8),
                result: Ok(sample_batch()),
            },
            Message::GetManyReply {
                request: rid(8),
                result: Err(ObiError::NoSuchObject(oid(3))),
            },
            Message::GetManyStreamRequest {
                request: rid(9),
                targets: vec![oid(1), oid(2)],
                mode: WireMode::Incremental { batch: 16 },
                chunk: 8,
                resume_from: 0,
            },
            Message::GetManyStreamRequest {
                request: rid(9),
                targets: vec![],
                mode: WireMode::Transitive,
                chunk: 1,
                resume_from: 3,
            },
            Message::GetManyChunk {
                request: rid(9),
                chunk_index: 2,
                total_hint: 5,
                batch: sample_batch(),
            },
            Message::GetManyDone {
                request: rid(9),
                total_chunks: 5,
                result: Ok(()),
            },
            Message::GetManyDone {
                request: rid(9),
                total_chunks: 0,
                result: Err(ObiError::NoSuchObject(oid(3))),
            },
            Message::PutRequest {
                request: rid(4),
                entries: vec![sample_state(5)],
            },
            Message::PutReply {
                request: rid(4),
                result: Ok(vec![(oid(5), 16)]),
            },
            Message::PutReply {
                request: rid(4),
                result: Err(ObiError::UpdateRejected {
                    object: oid(5),
                    reason: "conflict".into(),
                }),
            },
            Message::NameRequest {
                request: rid(5),
                op: NameOp::Bind {
                    name: "root".into(),
                    target: oid(1),
                },
            },
            Message::NameRequest {
                request: rid(5),
                op: NameOp::Lookup { name: "root".into() },
            },
            Message::NameRequest {
                request: rid(5),
                op: NameOp::Unbind { name: "root".into() },
            },
            Message::NameRequest {
                request: rid(5),
                op: NameOp::List,
            },
            Message::NameReply {
                request: rid(5),
                result: Ok(ObiValue::Ref(oid(1))),
            },
            Message::Subscribe {
                request: rid(6),
                object: oid(1),
                push: true,
            },
            Message::Ack {
                request: rid(6),
                result: Ok(ObiValue::Null),
            },
            Message::Invalidate {
                objects: vec![oid(1), oid(2)],
            },
            Message::UpdatePush {
                entries: vec![sample_state(1)],
            },
            Message::Ping { request: rid(7) },
            Message::Pong { request: rid(7) },
            Message::AckHorizon { up_to: 300 },
            Message::JoinRequest { request: rid(10) },
            Message::JoinAck {
                request: rid(10),
                result: Ok(JoinInfo {
                    peers: vec![SiteId::new(1), SiteId::new(2)],
                    names: vec![("root".into(), oid(1)), ("aux".into(), oid(2))],
                }),
            },
            Message::JoinAck {
                request: rid(10),
                result: Ok(JoinInfo::default()),
            },
            Message::JoinAck {
                request: rid(10),
                result: Err(ObiError::NameNotBound("*".into())),
            },
            Message::HandoffRequest {
                request: rid(11),
                root: oid(1),
                entries: vec![sample_state(1), sample_state(2)],
                applied: vec![AppliedPut {
                    object: oid(1),
                    origin: SiteId::new(3),
                    seq: 40,
                    version: 7,
                }],
            },
            Message::HandoffRequest {
                request: rid(11),
                root: oid(1),
                entries: vec![],
                applied: vec![],
            },
            Message::HandoffAck {
                request: rid(11),
                result: Ok(2),
            },
            Message::HandoffAck {
                request: rid(11),
                result: Err(ObiError::NoSuchObject(oid(1))),
            },
            Message::Leave {
                site: SiteId::new(7),
            },
        ]
    }

    #[test]
    fn every_message_roundtrips() {
        for msg in all_messages() {
            let frame = msg.encode();
            let back = Message::decode(&frame).unwrap_or_else(|e| panic!("{msg:?}: {e}"));
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn truncation_anywhere_fails_cleanly() {
        for msg in all_messages() {
            let frame = msg.encode();
            for cut in 0..frame.len() {
                assert!(
                    Message::decode(&frame.slice(..cut)).is_err(),
                    "{msg:?} decoded from truncated frame of {cut} bytes"
                );
            }
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut frame = Message::Ping { request: rid(1) }.encode().to_vec();
        frame.push(0xAB);
        assert!(Message::decode(&Bytes::from(frame)).is_err());
    }

    #[test]
    fn request_classification() {
        assert!(Message::Ping { request: rid(1) }.is_request());
        assert!(!Message::Pong { request: rid(1) }.is_request());
        assert!(!Message::Invalidate { objects: vec![] }.is_request());
        assert_eq!(
            Message::Invalidate { objects: vec![] }.request_id(),
            None
        );
        assert_eq!(Message::Ping { request: rid(3) }.request_id(), Some(rid(3)));
        assert!(!Message::AckHorizon { up_to: 9 }.is_request());
        assert_eq!(Message::AckHorizon { up_to: 9 }.request_id(), None);
        // Stream frames: only the request opens a stream; chunk and done
        // frames are replies correlated through the same id.
        let stream_req = Message::GetManyStreamRequest {
            request: rid(9),
            targets: vec![oid(1)],
            mode: WireMode::Incremental { batch: 4 },
            chunk: 2,
            resume_from: 0,
        };
        assert!(stream_req.is_request());
        assert_eq!(stream_req.request_id(), Some(rid(9)));
        let chunk = Message::GetManyChunk {
            request: rid(9),
            chunk_index: 0,
            total_hint: 1,
            batch: sample_batch(),
        };
        assert!(!chunk.is_request());
        assert_eq!(chunk.request_id(), Some(rid(9)));
        let done = Message::GetManyDone {
            request: rid(9),
            total_chunks: 1,
            result: Ok(()),
        };
        assert!(!done.is_request());
        assert_eq!(done.request_id(), Some(rid(9)));
        // Membership frames: join/handoff are request/reply pairs, Leave is
        // one-way like Invalidate.
        let join = Message::JoinRequest { request: rid(10) };
        assert!(join.is_request());
        assert_eq!(join.request_id(), Some(rid(10)));
        let join_ack = Message::JoinAck {
            request: rid(10),
            result: Ok(JoinInfo::default()),
        };
        assert!(!join_ack.is_request());
        assert_eq!(join_ack.request_id(), Some(rid(10)));
        let handoff = Message::HandoffRequest {
            request: rid(11),
            root: oid(1),
            entries: vec![],
            applied: vec![],
        };
        assert!(handoff.is_request());
        assert_eq!(handoff.request_id(), Some(rid(11)));
        let handoff_ack = Message::HandoffAck {
            request: rid(11),
            result: Ok(0),
        };
        assert!(!handoff_ack.is_request());
        assert_eq!(handoff_ack.request_id(), Some(rid(11)));
        let leave = Message::Leave { site: SiteId::new(3) };
        assert!(!leave.is_request());
        assert_eq!(leave.request_id(), None);
    }

    /// Error tag 13 belonged to a variant nothing ever constructed; it was
    /// retired, not reassigned, so a frame carrying it no longer decodes.
    #[test]
    fn retired_error_tag_13_is_a_decode_error() {
        let ack = Message::Ack { request: rid(1), result: Err(ObiError::NoSuchObject(oid(4))) };
        let mut frame = ack.encode().to_vec();
        // `[tag, origin, seq]`, the `Err` flag, then the error's tag.
        assert_eq!(frame[4], 3, "the error tag moved");
        frame[4] = 13;
        match Message::decode(&Bytes::from(frame)) {
            Err(ObiError::Decode(_)) => {}
            other => panic!("error tag 13 decoded as {other:?}"),
        }
    }

    #[test]
    fn unknown_message_tag_is_rejected() {
        assert!(Message::decode(&Bytes::from_static(&[0xF0])).is_err());
        assert!(Message::decode(&Bytes::new()).is_err());
    }

    /// `message`'s frame with the one-byte varint at `at` (which must read
    /// `expect`) replaced by `value`.
    fn with_varint_at(message: &Message, at: usize, expect: u8, value: u64) -> Bytes {
        let frame = message.encode();
        assert_eq!(frame[at], expect, "the field under test moved");
        let mut enc = Encoder::new();
        enc.put_varint(value);
        let mut out = frame[..at].to_vec();
        out.extend_from_slice(&enc.finish());
        out.extend_from_slice(&frame[at + 1..]);
        Bytes::from(out)
    }

    /// Sets the u32 field at byte `at` of `message`'s frame (one varint
    /// byte, `value`) to `2^32 + 8`: a decode error, not an `8`.
    fn assert_u32_field_rejects(message: Message, at: usize, value: u32) {
        // The same splice with the field's own value decodes unchanged.
        let same = with_varint_at(&message, at, value as u8, u64::from(value));
        assert_eq!(Message::decode(&same).unwrap(), message);
        let hostile = with_varint_at(&message, at, value as u8, (1 << 32) + 8);
        match Message::decode(&hostile) {
            Err(ObiError::Decode(_)) => {}
            other => panic!("2^32 + 8 decoded as {other:?}"),
        }
    }

    // Offsets: `[tag, origin, seq]` heads every message below, an `oid`
    // is two bytes, and a mode tag one.

    fn get(mode: WireMode) -> Message {
        Message::GetRequest {
            request: rid(3),
            target: oid(1),
            mode,
        }
    }

    #[test]
    fn incremental_batch_above_u32_is_a_decode_error() {
        assert_u32_field_rejects(get(WireMode::Incremental { batch: 10 }), 6, 10);
    }

    #[test]
    fn cluster_size_above_u32_is_a_decode_error() {
        assert_u32_field_rejects(get(WireMode::Cluster { size: 100 }), 6, 100);
    }

    fn stream(chunk: u32, resume_from: u32) -> Message {
        Message::GetManyStreamRequest {
            request: rid(9),
            targets: vec![],
            mode: WireMode::Transitive,
            chunk,
            resume_from,
        }
    }

    #[test]
    fn stream_chunk_above_u32_is_a_decode_error() {
        assert_u32_field_rejects(stream(5, 0), 5, 5);
    }

    #[test]
    fn stream_resume_from_above_u32_is_a_decode_error() {
        assert_u32_field_rejects(stream(5, 7), 6, 7);
    }

    fn chunk() -> Message {
        Message::GetManyChunk {
            request: rid(9),
            chunk_index: 2,
            total_hint: 5,
            batch: sample_batch(),
        }
    }

    #[test]
    fn chunk_index_above_u32_is_a_decode_error() {
        assert_u32_field_rejects(chunk(), 3, 2);
    }

    #[test]
    fn chunk_total_hint_above_u32_is_a_decode_error() {
        assert_u32_field_rejects(chunk(), 4, 5);
    }

    #[test]
    fn done_total_chunks_above_u32_is_a_decode_error() {
        let done = Message::GetManyDone {
            request: rid(9),
            total_chunks: 5,
            result: Ok(()),
        };
        assert_u32_field_rejects(done, 3, 5);
    }

    #[test]
    fn decoded_states_are_views_of_the_frame() {
        let frame = Message::GetManyChunk {
            request: rid(9),
            chunk_index: 0,
            total_hint: 1,
            batch: sample_batch(),
        }
        .encode();
        let Message::GetManyChunk { batch, .. } = Message::decode(&frame).unwrap() else {
            panic!("not a chunk");
        };
        let start = frame.as_ptr() as usize;
        for r in &batch.replicas {
            let at = r.state.as_ptr() as usize;
            assert!(start <= at && at + r.state.len() <= start + frame.len());
        }
        assert_eq!(batch, sample_batch());
        // A state outlives the message and the frame handle it came from.
        let state = batch.replicas[0].state.clone();
        drop((batch, frame));
        assert_eq!(state, sample_state(1).state);
    }
}
