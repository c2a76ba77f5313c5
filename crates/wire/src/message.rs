//! Protocol messages exchanged between OBIWAN sites.
//!
//! Every cross-site interaction in the platform is one of these messages:
//! remote method invocation (the RMI path), incremental/cluster replication
//! (`get`), replica write-back (`put`), name-server operations, and the
//! one-way consistency traffic (invalidations and update pushes).
//!
//! Messages encode to a tagged binary frame via [`Message::encode`] and are
//! restored with [`Message::decode`]; the pair is the identity on all valid
//! messages. Decoding copies nothing it can share: every
//! [`ReplicaState::state`] of a decoded message is a view of its frame.

use crate::codec::{Decoder, Encoder};
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

impl WireMode {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            WireMode::Incremental { batch } => {
                enc.put_u8(0);
                enc.put_varint(u64::from(*batch));
            }
            WireMode::Cluster { size } => {
                enc.put_u8(1);
                enc.put_varint(u64::from(*size));
            }
            WireMode::Transitive => enc.put_u8(2),
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(match dec.take_u8()? {
            0 => WireMode::Incremental {
                batch: dec.take_u32()?,
            },
            1 => WireMode::Cluster {
                size: dec.take_u32()?,
            },
            2 => WireMode::Transitive,
            tag => return Err(ObiError::Decode(format!("unknown mode tag {tag}"))),
        })
    }
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

impl ReplicaState {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_obj_id(self.id);
        enc.put_str(&self.class);
        enc.put_varint(self.version);
        enc.put_bytes(&self.state);
    }

    /// Reads one state out of `frame`, which `dec` reads: the state bytes
    /// stay where they are and the result holds a view of them.
    fn decode(dec: &mut Decoder<'_>, frame: &Bytes) -> Result<Self> {
        let id = dec.take_obj_id()?;
        let class = dec.take_str_ref()?.to_owned();
        let version = dec.take_varint()?;
        let state = frame.slice_ref(dec.take_bytes_ref()?);
        Ok(ReplicaState {
            id,
            class,
            version,
            state,
        })
    }

    /// A count-prefixed list of states (a put, a push, a handoff, a batch).
    fn decode_all(dec: &mut Decoder<'_>, frame: &Bytes) -> Result<Vec<Self>> {
        let n = dec.take_varint()? as usize;
        let mut states = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            states.push(ReplicaState::decode(dec, frame)?);
        }
        Ok(states)
    }
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

impl FrontierEdge {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_obj_id(self.target);
        enc.put_str(&self.class);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        let target = dec.take_obj_id()?;
        let class = dec.take_str_ref()?.to_owned();
        Ok(FrontierEdge { target, class })
    }
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

impl ReplicaBatch {
    /// Total serialized object-state bytes in the batch (excluding framing).
    pub fn state_bytes(&self) -> usize {
        self.replicas.iter().map(|r| r.state.len()).sum()
    }

    fn encode(&self, enc: &mut Encoder) {
        enc.put_obj_id(self.root);
        enc.put_varint(self.replicas.len() as u64);
        for r in &self.replicas {
            r.encode(enc);
        }
        enc.put_varint(self.frontier.len() as u64);
        for f in &self.frontier {
            f.encode(enc);
        }
        match self.cluster {
            None => enc.put_u8(0),
            Some(c) => {
                enc.put_u8(1);
                enc.put_cluster_id(c);
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>, frame: &Bytes) -> Result<Self> {
        let root = dec.take_obj_id()?;
        let replicas = ReplicaState::decode_all(dec, frame)?;
        let m = dec.take_varint()? as usize;
        let mut frontier = Vec::with_capacity(m.min(4096));
        for _ in 0..m {
            frontier.push(FrontierEdge::decode(dec)?);
        }
        let cluster = match dec.take_u8()? {
            0 => None,
            1 => Some(dec.take_cluster_id()?),
            tag => return Err(ObiError::Decode(format!("bad cluster flag {tag}"))),
        };
        Ok(ReplicaBatch {
            root,
            replicas,
            frontier,
            cluster,
        })
    }
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

impl JoinInfo {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_varint(self.peers.len() as u64);
        for p in &self.peers {
            enc.put_site(*p);
        }
        enc.put_varint(self.names.len() as u64);
        for (name, target) in &self.names {
            enc.put_str(name);
            enc.put_obj_id(*target);
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        let n = dec.take_varint()? as usize;
        let mut peers = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            peers.push(dec.take_site()?);
        }
        let m = dec.take_varint()? as usize;
        let mut names = Vec::with_capacity(m.min(4096));
        for _ in 0..m {
            let name = dec.take_str()?;
            let target = dec.take_obj_id()?;
            names.push((name, target));
        }
        Ok(JoinInfo { peers, names })
    }
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

impl NameOp {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            NameOp::Bind { name, target } => {
                enc.put_u8(0);
                enc.put_str(name);
                enc.put_obj_id(*target);
            }
            NameOp::Lookup { name } => {
                enc.put_u8(1);
                enc.put_str(name);
            }
            NameOp::Unbind { name } => {
                enc.put_u8(2);
                enc.put_str(name);
            }
            NameOp::List => enc.put_u8(3),
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(match dec.take_u8()? {
            0 => NameOp::Bind {
                name: dec.take_str()?,
                target: dec.take_obj_id()?,
            },
            1 => NameOp::Lookup {
                name: dec.take_str()?,
            },
            2 => NameOp::Unbind {
                name: dec.take_str()?,
            },
            3 => NameOp::List,
            tag => return Err(ObiError::Decode(format!("unknown name op {tag}"))),
        })
    }
}

fn encode_result_value(enc: &mut Encoder, r: &std::result::Result<ObiValue, ObiError>) {
    match r {
        Ok(v) => {
            enc.put_u8(0);
            enc.put_value(v);
        }
        Err(e) => {
            enc.put_u8(1);
            enc.put_error(e);
        }
    }
}

fn decode_result_value(dec: &mut Decoder<'_>) -> Result<std::result::Result<ObiValue, ObiError>> {
    Ok(match dec.take_u8()? {
        0 => Ok(dec.take_value()?),
        1 => Err(dec.take_error()?),
        tag => return Err(ObiError::Decode(format!("bad result flag {tag}"))),
    })
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
    /// installs them as masters and becomes the new proxy-in host.
    HandoffRequest {
        request: RequestId,
        root: ObjId,
        entries: Vec<ReplicaState>,
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

const MSG_INVOKE_REQ: u8 = 1;
const MSG_INVOKE_REP: u8 = 2;
const MSG_GET_REQ: u8 = 3;
const MSG_GET_REP: u8 = 4;
const MSG_PUT_REQ: u8 = 5;
const MSG_PUT_REP: u8 = 6;
const MSG_NAME_REQ: u8 = 7;
const MSG_NAME_REP: u8 = 8;
const MSG_SUBSCRIBE: u8 = 9;
const MSG_ACK: u8 = 10;
const MSG_INVALIDATE: u8 = 11;
const MSG_UPDATE_PUSH: u8 = 12;
const MSG_PING: u8 = 13;
const MSG_PONG: u8 = 14;
const MSG_GET_MANY_REQ: u8 = 15;
const MSG_GET_MANY_REP: u8 = 16;
const MSG_ACK_HORIZON: u8 = 17;
const MSG_GET_MANY_STREAM_REQ: u8 = 18;
const MSG_GET_MANY_CHUNK: u8 = 19;
const MSG_GET_MANY_DONE: u8 = 20;
const MSG_JOIN_REQ: u8 = 21;
const MSG_JOIN_ACK: u8 = 22;
const MSG_HANDOFF_REQ: u8 = 23;
const MSG_HANDOFF_ACK: u8 = 24;
const MSG_LEAVE: u8 = 25;

/// Approximate frame size of a batch, used to pre-size encoders so hot
/// replies do not grow their buffer repeatedly.
fn batch_size_hint(batch: &ReplicaBatch) -> usize {
    let replicas: usize = batch
        .replicas
        .iter()
        .map(|r| r.state.len() + r.class.len() + 24)
        .sum();
    let frontier: usize = batch.frontier.iter().map(|f| f.class.len() + 12).sum();
    32 + replicas + frontier
}

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
        match self {
            Message::InvokeRequest {
                request,
                target,
                method,
                args,
            } => {
                enc.put_u8(MSG_INVOKE_REQ);
                enc.put_request_id(*request);
                enc.put_obj_id(*target);
                enc.put_str(method);
                enc.put_value(args);
            }
            Message::InvokeReply { request, result } => {
                enc.put_u8(MSG_INVOKE_REP);
                enc.put_request_id(*request);
                encode_result_value(&mut enc, result);
            }
            Message::GetRequest {
                request,
                target,
                mode,
            } => {
                enc.put_u8(MSG_GET_REQ);
                enc.put_request_id(*request);
                enc.put_obj_id(*target);
                mode.encode(&mut enc);
            }
            Message::GetReply { request, result } => {
                enc.put_u8(MSG_GET_REP);
                enc.put_request_id(*request);
                match result {
                    Ok(batch) => {
                        enc.put_u8(0);
                        batch.encode(&mut enc);
                    }
                    Err(e) => {
                        enc.put_u8(1);
                        enc.put_error(e);
                    }
                }
            }
            Message::GetManyRequest {
                request,
                targets,
                mode,
            } => {
                enc.put_u8(MSG_GET_MANY_REQ);
                enc.put_request_id(*request);
                enc.put_varint(targets.len() as u64);
                for t in targets {
                    enc.put_obj_id(*t);
                }
                mode.encode(&mut enc);
            }
            Message::GetManyReply { request, result } => {
                enc.put_u8(MSG_GET_MANY_REP);
                enc.put_request_id(*request);
                match result {
                    Ok(batch) => {
                        enc.put_u8(0);
                        batch.encode(&mut enc);
                    }
                    Err(e) => {
                        enc.put_u8(1);
                        enc.put_error(e);
                    }
                }
            }
            Message::GetManyStreamRequest {
                request,
                targets,
                mode,
                chunk,
                resume_from,
            } => {
                enc.put_u8(MSG_GET_MANY_STREAM_REQ);
                enc.put_request_id(*request);
                enc.put_varint(targets.len() as u64);
                for t in targets {
                    enc.put_obj_id(*t);
                }
                mode.encode(&mut enc);
                enc.put_varint(u64::from(*chunk));
                enc.put_varint(u64::from(*resume_from));
            }
            Message::GetManyChunk {
                request,
                chunk_index,
                total_hint,
                batch,
            } => {
                enc.put_u8(MSG_GET_MANY_CHUNK);
                enc.put_request_id(*request);
                enc.put_varint(u64::from(*chunk_index));
                enc.put_varint(u64::from(*total_hint));
                batch.encode(&mut enc);
            }
            Message::GetManyDone {
                request,
                total_chunks,
                result,
            } => {
                enc.put_u8(MSG_GET_MANY_DONE);
                enc.put_request_id(*request);
                enc.put_varint(u64::from(*total_chunks));
                match result {
                    Ok(()) => enc.put_u8(0),
                    Err(e) => {
                        enc.put_u8(1);
                        enc.put_error(e);
                    }
                }
            }
            Message::PutRequest { request, entries } => {
                enc.put_u8(MSG_PUT_REQ);
                enc.put_request_id(*request);
                enc.put_varint(entries.len() as u64);
                for e in entries {
                    e.encode(&mut enc);
                }
            }
            Message::PutReply { request, result } => {
                enc.put_u8(MSG_PUT_REP);
                enc.put_request_id(*request);
                match result {
                    Ok(versions) => {
                        enc.put_u8(0);
                        enc.put_varint(versions.len() as u64);
                        for (id, v) in versions {
                            enc.put_obj_id(*id);
                            enc.put_varint(*v);
                        }
                    }
                    Err(e) => {
                        enc.put_u8(1);
                        enc.put_error(e);
                    }
                }
            }
            Message::NameRequest { request, op } => {
                enc.put_u8(MSG_NAME_REQ);
                enc.put_request_id(*request);
                op.encode(&mut enc);
            }
            Message::NameReply { request, result } => {
                enc.put_u8(MSG_NAME_REP);
                enc.put_request_id(*request);
                encode_result_value(&mut enc, result);
            }
            Message::Subscribe {
                request,
                object,
                push,
            } => {
                enc.put_u8(MSG_SUBSCRIBE);
                enc.put_request_id(*request);
                enc.put_obj_id(*object);
                enc.put_u8(u8::from(*push));
            }
            Message::Ack { request, result } => {
                enc.put_u8(MSG_ACK);
                enc.put_request_id(*request);
                encode_result_value(&mut enc, result);
            }
            Message::Invalidate { objects } => {
                enc.put_u8(MSG_INVALIDATE);
                enc.put_varint(objects.len() as u64);
                for o in objects {
                    enc.put_obj_id(*o);
                }
            }
            Message::UpdatePush { entries } => {
                enc.put_u8(MSG_UPDATE_PUSH);
                enc.put_varint(entries.len() as u64);
                for e in entries {
                    e.encode(&mut enc);
                }
            }
            Message::Ping { request } => {
                enc.put_u8(MSG_PING);
                enc.put_request_id(*request);
            }
            Message::Pong { request } => {
                enc.put_u8(MSG_PONG);
                enc.put_request_id(*request);
            }
            Message::AckHorizon { up_to } => {
                enc.put_u8(MSG_ACK_HORIZON);
                enc.put_varint(*up_to);
            }
            Message::JoinRequest { request } => {
                enc.put_u8(MSG_JOIN_REQ);
                enc.put_request_id(*request);
            }
            Message::JoinAck { request, result } => {
                enc.put_u8(MSG_JOIN_ACK);
                enc.put_request_id(*request);
                match result {
                    Ok(info) => {
                        enc.put_u8(0);
                        info.encode(&mut enc);
                    }
                    Err(e) => {
                        enc.put_u8(1);
                        enc.put_error(e);
                    }
                }
            }
            Message::HandoffRequest {
                request,
                root,
                entries,
            } => {
                enc.put_u8(MSG_HANDOFF_REQ);
                enc.put_request_id(*request);
                enc.put_obj_id(*root);
                enc.put_varint(entries.len() as u64);
                for e in entries {
                    e.encode(&mut enc);
                }
            }
            Message::HandoffAck { request, result } => {
                enc.put_u8(MSG_HANDOFF_ACK);
                enc.put_request_id(*request);
                match result {
                    Ok(installed) => {
                        enc.put_u8(0);
                        enc.put_varint(*installed);
                    }
                    Err(e) => {
                        enc.put_u8(1);
                        enc.put_error(e);
                    }
                }
            }
            Message::Leave { site } => {
                enc.put_u8(MSG_LEAVE);
                enc.put_site(*site);
            }
        }
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
        let mut dec = Decoder::new(frame);
        let msg = Self::decode_inner(&mut dec, frame)?;
        if !dec.is_exhausted() {
            return Err(ObiError::Decode(format!(
                "{} trailing bytes after message",
                dec.remaining()
            )));
        }
        Ok(msg)
    }

    fn decode_inner(dec: &mut Decoder<'_>, frame: &Bytes) -> Result<Message> {
        Ok(match dec.take_u8()? {
            MSG_INVOKE_REQ => Message::InvokeRequest {
                request: dec.take_request_id()?,
                target: dec.take_obj_id()?,
                method: dec.take_str()?,
                args: dec.take_value()?,
            },
            MSG_INVOKE_REP => Message::InvokeReply {
                request: dec.take_request_id()?,
                result: decode_result_value(dec)?,
            },
            MSG_GET_REQ => Message::GetRequest {
                request: dec.take_request_id()?,
                target: dec.take_obj_id()?,
                mode: WireMode::decode(dec)?,
            },
            MSG_GET_REP => {
                let request = dec.take_request_id()?;
                let result = match dec.take_u8()? {
                    0 => Ok(ReplicaBatch::decode(dec, frame)?),
                    1 => Err(dec.take_error()?),
                    tag => return Err(ObiError::Decode(format!("bad result flag {tag}"))),
                };
                Message::GetReply { request, result }
            }
            MSG_GET_MANY_REQ => {
                let request = dec.take_request_id()?;
                let n = dec.take_varint()? as usize;
                let mut targets = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    targets.push(dec.take_obj_id()?);
                }
                let mode = WireMode::decode(dec)?;
                Message::GetManyRequest {
                    request,
                    targets,
                    mode,
                }
            }
            MSG_GET_MANY_REP => {
                let request = dec.take_request_id()?;
                let result = match dec.take_u8()? {
                    0 => Ok(ReplicaBatch::decode(dec, frame)?),
                    1 => Err(dec.take_error()?),
                    tag => return Err(ObiError::Decode(format!("bad result flag {tag}"))),
                };
                Message::GetManyReply { request, result }
            }
            MSG_GET_MANY_STREAM_REQ => {
                let request = dec.take_request_id()?;
                let n = dec.take_varint()? as usize;
                let mut targets = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    targets.push(dec.take_obj_id()?);
                }
                let mode = WireMode::decode(dec)?;
                let chunk = dec.take_u32()?;
                let resume_from = dec.take_u32()?;
                Message::GetManyStreamRequest {
                    request,
                    targets,
                    mode,
                    chunk,
                    resume_from,
                }
            }
            MSG_GET_MANY_CHUNK => Message::GetManyChunk {
                request: dec.take_request_id()?,
                chunk_index: dec.take_u32()?,
                total_hint: dec.take_u32()?,
                batch: ReplicaBatch::decode(dec, frame)?,
            },
            MSG_GET_MANY_DONE => {
                let request = dec.take_request_id()?;
                let total_chunks = dec.take_u32()?;
                let result = match dec.take_u8()? {
                    0 => Ok(()),
                    1 => Err(dec.take_error()?),
                    tag => return Err(ObiError::Decode(format!("bad result flag {tag}"))),
                };
                Message::GetManyDone {
                    request,
                    total_chunks,
                    result,
                }
            }
            MSG_PUT_REQ => Message::PutRequest {
                request: dec.take_request_id()?,
                entries: ReplicaState::decode_all(dec, frame)?,
            },
            MSG_PUT_REP => {
                let request = dec.take_request_id()?;
                let result = match dec.take_u8()? {
                    0 => {
                        let n = dec.take_varint()? as usize;
                        let mut versions = Vec::with_capacity(n.min(4096));
                        for _ in 0..n {
                            let id = dec.take_obj_id()?;
                            let v = dec.take_varint()?;
                            versions.push((id, v));
                        }
                        Ok(versions)
                    }
                    1 => Err(dec.take_error()?),
                    tag => return Err(ObiError::Decode(format!("bad result flag {tag}"))),
                };
                Message::PutReply { request, result }
            }
            MSG_NAME_REQ => Message::NameRequest {
                request: dec.take_request_id()?,
                op: NameOp::decode(dec)?,
            },
            MSG_NAME_REP => Message::NameReply {
                request: dec.take_request_id()?,
                result: decode_result_value(dec)?,
            },
            MSG_SUBSCRIBE => Message::Subscribe {
                request: dec.take_request_id()?,
                object: dec.take_obj_id()?,
                push: dec.take_u8()? != 0,
            },
            MSG_ACK => Message::Ack {
                request: dec.take_request_id()?,
                result: decode_result_value(dec)?,
            },
            MSG_INVALIDATE => {
                let n = dec.take_varint()? as usize;
                let mut objects = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    objects.push(dec.take_obj_id()?);
                }
                Message::Invalidate { objects }
            }
            MSG_UPDATE_PUSH => Message::UpdatePush {
                entries: ReplicaState::decode_all(dec, frame)?,
            },
            MSG_PING => Message::Ping {
                request: dec.take_request_id()?,
            },
            MSG_PONG => Message::Pong {
                request: dec.take_request_id()?,
            },
            MSG_ACK_HORIZON => Message::AckHorizon {
                up_to: dec.take_varint()?,
            },
            MSG_JOIN_REQ => Message::JoinRequest {
                request: dec.take_request_id()?,
            },
            MSG_JOIN_ACK => {
                let request = dec.take_request_id()?;
                let result = match dec.take_u8()? {
                    0 => Ok(JoinInfo::decode(dec)?),
                    1 => Err(dec.take_error()?),
                    tag => return Err(ObiError::Decode(format!("bad result flag {tag}"))),
                };
                Message::JoinAck { request, result }
            }
            MSG_HANDOFF_REQ => Message::HandoffRequest {
                request: dec.take_request_id()?,
                root: dec.take_obj_id()?,
                entries: ReplicaState::decode_all(dec, frame)?,
            },
            MSG_HANDOFF_ACK => {
                let request = dec.take_request_id()?;
                let result = match dec.take_u8()? {
                    0 => Ok(dec.take_varint()?),
                    1 => Err(dec.take_error()?),
                    tag => return Err(ObiError::Decode(format!("bad result flag {tag}"))),
                };
                Message::HandoffAck { request, result }
            }
            MSG_LEAVE => Message::Leave {
                site: dec.take_site()?,
            },
            tag => return Err(ObiError::Decode(format!("unknown message tag {tag}"))),
        })
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
            },
            Message::HandoffRequest {
                request: rid(11),
                root: oid(1),
                entries: vec![],
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

    #[test]
    fn batch_state_bytes_sums_replica_payloads() {
        let batch = sample_batch();
        assert_eq!(batch.state_bytes(), 32);
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
