//! Golden bytes: the exact frame of every `Message` variant (each result
//! both `Ok` and `Err`), of every `WalRecord` variant (`Op` with no, one
//! and two deltas) and of every `ObiError` variant, as hex. Every site
//! and `u32` field is `u32::MAX` or just below it, and every `u64` is
//! `u64::MAX` or just below it, so each varint takes its longest form.
//! Fields next to each other hold different values, so two fields that
//! trade places in a layout move bytes.
//!
//! A roundtrip test passes when encoder and decoder change together; these
//! do not. Each value must encode to its hex, and the hex must decode back
//! to the value. On a mismatch the test prints every row's bytes as they
//! now are.
//!
//! Inside a message frame a class that repeats the one before it is the one
//! byte `00`, and a class written out is `len + 1` and the name (`05` then
//! `Node`); a `WalRecord`'s delta writes `len` and the name (`04`).

use bytes::Bytes;
use obiwan::store::WalRecord;
use obiwan::util::{ClusterId, ObiError, ObjId, RequestId, SiteId};
use obiwan::wire::{
    FrontierEdge, JoinInfo, Message, NameOp, ObiValue, ReplicaBatch, ReplicaState, WireMode,
};
use std::fmt::Debug;

const SITE: SiteId = SiteId::new(u32::MAX);
const REQUEST: RequestId = RequestId::new(SITE, u64::MAX - 100);

fn oid(below_max: u64) -> ObjId {
    ObjId::new(SITE, u64::MAX - below_max)
}

fn state(below_max: u64) -> ReplicaState {
    ReplicaState {
        id: oid(below_max),
        class: "Node".into(),
        version: u64::MAX - 200 - below_max,
        state: Bytes::from(vec![0xA0 | below_max as u8; 3]),
    }
}

fn batch() -> ReplicaBatch {
    ReplicaBatch {
        root: oid(0),
        replicas: vec![state(0), state(1)],
        frontier: vec![FrontierEdge {
            target: oid(2),
            class: "Node".into(),
        }],
        cluster: Some(ClusterId::new(SITE, u64::MAX - 300)),
    }
}

fn value() -> ObiValue {
    ObiValue::List(vec![
        ObiValue::Null,
        ObiValue::Bool(false),
        ObiValue::Bool(true),
        ObiValue::I64(i64::MIN),
        ObiValue::F64(-1.5),
        ObiValue::Str("s".into()),
        ObiValue::Bytes(Bytes::from_static(b"\x01\x02")),
        ObiValue::Map(vec![("k".into(), ObiValue::Ref(oid(0)))]),
    ])
}

fn error() -> ObiError {
    ObiError::NoSuchObject(oid(0))
}

/// Every `ObiError` variant, named, with the golden hex of its bytes as an
/// `Ack`'s `Err` carries them.
fn errors() -> Vec<(&'static str, ObiError, &'static str)> {
    vec![
        (
            "SiteUnreachable",
            ObiError::SiteUnreachable(SITE),
            "00ffffffff0f",
        ),
        (
            "Disconnected",
            ObiError::Disconnected {
                from: SITE,
                to: SiteId::new(u32::MAX - 1),
            },
            "01ffffffff0ffeffffff0f",
        ),
        (
            "MessageLost",
            ObiError::MessageLost {
                from: SITE,
                to: SiteId::new(u32::MAX - 1),
            },
            "02ffffffff0ffeffffff0f",
        ),
        (
            "NoSuchObject",
            ObiError::NoSuchObject(oid(0)),
            "03ffffffff0fffffffffffffffffff01",
        ),
        (
            "NoSuchMethod",
            ObiError::NoSuchMethod {
                object: oid(0),
                method: "m".into(),
            },
            "04ffffffff0fffffffffffffffffff01016d",
        ),
        ("NameNotBound", ObiError::NameNotBound("n".into()), "05016e"),
        (
            "NameAlreadyBound",
            ObiError::NameAlreadyBound("n".into()),
            "06016e",
        ),
        (
            "ReentrantInvocation",
            ObiError::ReentrantInvocation(oid(0)),
            "07ffffffff0fffffffffffffffffff01",
        ),
        ("Decode", ObiError::Decode("d".into()), "080164"),
        ("BadArguments", ObiError::BadArguments("b".into()), "090162"),
        (
            "UpdateRejected",
            ObiError::UpdateRejected {
                object: oid(0),
                reason: "r".into(),
            },
            "0affffffff0fffffffffffffffffff010172",
        ),
        (
            "ClusterMember",
            ObiError::ClusterMember(oid(0)),
            "0bffffffff0fffffffffffffffffff01",
        ),
        (
            "NotReplicated",
            ObiError::NotReplicated(oid(0)),
            "0cffffffff0fffffffffffffffffff01",
        ),
        ("Application", ObiError::Application("a".into()), "0e0161"),
        ("Internal", ObiError::Internal("i".into()), "0f0169"),
        ("Timeout", ObiError::Timeout { to: SITE }, "10ffffffff0f"),
        ("Storage", ObiError::Storage("s".into()), "110173"),
        (
            "MovedMaster",
            ObiError::MovedMaster {
                object: oid(0),
                to: SITE,
            },
            "12ffffffff0fffffffffffffffffff01ffffffff0f",
        ),
    ]
}

/// Every `Message` variant, named, with its golden hex.
fn messages() -> Vec<(&'static str, Message, &'static str)> {
    let join = JoinInfo {
        peers: vec![SITE],
        names: vec![("n".into(), oid(0))],
    };
    let (request, mode) = (REQUEST, WireMode::Incremental { batch: u32::MAX });
    vec![
        (
            "InvokeRequest",
            Message::InvokeRequest { request, target: oid(0), method: "m".into(), args: value() },
            "01ffffffff0f9bffffffffffffffff01ffffffff0fffffffffffffffffff01016d070800010203ffffffffffffffffff0104000000000000f8bf050173060201020801016b09ffffffff0fffffffffffffffffff01",
        ),
        (
            "InvokeReply Ok",
            Message::InvokeReply { request, result: Ok(value()) },
            "02ffffffff0f9bffffffffffffffff0100070800010203ffffffffffffffffff0104000000000000f8bf050173060201020801016b09ffffffff0fffffffffffffffffff01",
        ),
        (
            "InvokeReply Err",
            Message::InvokeReply { request, result: Err(error()) },
            "02ffffffff0f9bffffffffffffffff010103ffffffff0fffffffffffffffffff01",
        ),
        (
            "GetRequest Incremental",
            Message::GetRequest { request, target: oid(0), mode },
            "03ffffffff0f9bffffffffffffffff01ffffffff0fffffffffffffffffff0100ffffffff0f",
        ),
        (
            "GetRequest Cluster",
            Message::GetRequest { request, target: oid(0), mode: WireMode::Cluster { size: u32::MAX } },
            "03ffffffff0f9bffffffffffffffff01ffffffff0fffffffffffffffffff0101ffffffff0f",
        ),
        (
            "GetRequest Transitive",
            Message::GetRequest { request, target: oid(0), mode: WireMode::Transitive },
            "03ffffffff0f9bffffffffffffffff01ffffffff0fffffffffffffffffff0102",
        ),
        (
            "GetReply Ok",
            Message::GetReply { request, result: Ok(batch()) },
            "04ffffffff0f9bffffffffffffffff0100ffffffff0fffffffffffffffffff0102ffffffff0fffffffffffffffffff01054e6f6465b7feffffffffffffff0103a0a0a0ffffffff0ffeffffffffffffffff0100b6feffffffffffffff0103a1a1a101ffffffff0ffdffffffffffffffff010001ffffffff0fd3fdffffffffffffff01",
        ),
        (
            "GetReply Err",
            Message::GetReply { request, result: Err(error()) },
            "04ffffffff0f9bffffffffffffffff010103ffffffff0fffffffffffffffffff01",
        ),
        (
            "GetManyRequest",
            Message::GetManyRequest { request, targets: vec![oid(0), oid(1)], mode },
            "0fffffffff0f9bffffffffffffffff0102ffffffff0fffffffffffffffffff01ffffffff0ffeffffffffffffffff0100ffffffff0f",
        ),
        (
            "GetManyReply Ok",
            Message::GetManyReply { request, result: Ok(batch()) },
            "10ffffffff0f9bffffffffffffffff0100ffffffff0fffffffffffffffffff0102ffffffff0fffffffffffffffffff01054e6f6465b7feffffffffffffff0103a0a0a0ffffffff0ffeffffffffffffffff0100b6feffffffffffffff0103a1a1a101ffffffff0ffdffffffffffffffff010001ffffffff0fd3fdffffffffffffff01",
        ),
        (
            "GetManyReply Err",
            Message::GetManyReply { request, result: Err(error()) },
            "10ffffffff0f9bffffffffffffffff010103ffffffff0fffffffffffffffffff01",
        ),
        (
            "GetManyStreamRequest",
            Message::GetManyStreamRequest {
                request,
                targets: vec![oid(0)],
                mode,
                chunk: u32::MAX,
                resume_from: u32::MAX - 1,
            },
            "12ffffffff0f9bffffffffffffffff0101ffffffff0fffffffffffffffffff0100ffffffff0fffffffff0ffeffffff0f",
        ),
        (
            "GetManyChunk",
            Message::GetManyChunk {
                request,
                chunk_index: u32::MAX - 1,
                total_hint: u32::MAX,
                batch: batch(),
            },
            "13ffffffff0f9bffffffffffffffff01feffffff0fffffffff0fffffffff0fffffffffffffffffff0102ffffffff0fffffffffffffffffff01054e6f6465b7feffffffffffffff0103a0a0a0ffffffff0ffeffffffffffffffff0100b6feffffffffffffff0103a1a1a101ffffffff0ffdffffffffffffffff010001ffffffff0fd3fdffffffffffffff01",
        ),
        (
            "GetManyDone Ok",
            Message::GetManyDone { request, total_chunks: u32::MAX, result: Ok(()) },
            "14ffffffff0f9bffffffffffffffff01ffffffff0f00",
        ),
        (
            "GetManyDone Err",
            Message::GetManyDone { request, total_chunks: u32::MAX, result: Err(error()) },
            "14ffffffff0f9bffffffffffffffff01ffffffff0f0103ffffffff0fffffffffffffffffff01",
        ),
        (
            "PutRequest",
            Message::PutRequest { request, entries: vec![state(0)] },
            "05ffffffff0f9bffffffffffffffff0101ffffffff0fffffffffffffffffff01054e6f6465b7feffffffffffffff0103a0a0a0",
        ),
        (
            "PutReply Ok",
            Message::PutReply { request, result: Ok(vec![(oid(0), u64::MAX - 1)]) },
            "06ffffffff0f9bffffffffffffffff010001ffffffff0fffffffffffffffffff01feffffffffffffffff01",
        ),
        (
            "PutReply Err",
            Message::PutReply { request, result: Err(error()) },
            "06ffffffff0f9bffffffffffffffff010103ffffffff0fffffffffffffffffff01",
        ),
        (
            "NameRequest Bind",
            Message::NameRequest { request, op: NameOp::Bind { name: "n".into(), target: oid(0) } },
            "07ffffffff0f9bffffffffffffffff0100016effffffff0fffffffffffffffffff01",
        ),
        (
            "NameRequest Lookup",
            Message::NameRequest { request, op: NameOp::Lookup { name: "n".into() } },
            "07ffffffff0f9bffffffffffffffff0101016e",
        ),
        (
            "NameRequest Unbind",
            Message::NameRequest { request, op: NameOp::Unbind { name: "n".into() } },
            "07ffffffff0f9bffffffffffffffff0102016e",
        ),
        (
            "NameRequest List",
            Message::NameRequest { request, op: NameOp::List },
            "07ffffffff0f9bffffffffffffffff0103",
        ),
        (
            "NameReply Ok",
            Message::NameReply { request, result: Ok(ObiValue::Ref(oid(0))) },
            "08ffffffff0f9bffffffffffffffff010009ffffffff0fffffffffffffffffff01",
        ),
        (
            "NameReply Err",
            Message::NameReply { request, result: Err(error()) },
            "08ffffffff0f9bffffffffffffffff010103ffffffff0fffffffffffffffffff01",
        ),
        (
            "Subscribe push",
            Message::Subscribe { request, object: oid(0), push: true },
            "09ffffffff0f9bffffffffffffffff01ffffffff0fffffffffffffffffff0101",
        ),
        (
            "Subscribe invalidate",
            Message::Subscribe { request, object: oid(0), push: false },
            "09ffffffff0f9bffffffffffffffff01ffffffff0fffffffffffffffffff0100",
        ),
        (
            "Ack Ok",
            Message::Ack { request, result: Ok(ObiValue::Null) },
            "0affffffff0f9bffffffffffffffff010000",
        ),
        (
            "Ack Err",
            Message::Ack { request, result: Err(error()) },
            "0affffffff0f9bffffffffffffffff010103ffffffff0fffffffffffffffffff01",
        ),
        (
            "Invalidate",
            Message::Invalidate { objects: vec![oid(0), oid(1)] },
            "0b02ffffffff0fffffffffffffffffff01ffffffff0ffeffffffffffffffff01",
        ),
        (
            "UpdatePush",
            Message::UpdatePush { entries: vec![state(0), state(1)] },
            "0c02ffffffff0fffffffffffffffffff01054e6f6465b7feffffffffffffff0103a0a0a0ffffffff0ffeffffffffffffffff0100b6feffffffffffffff0103a1a1a1",
        ),
        (
            "UpdatePush of two classes",
            Message::UpdatePush {
                entries: vec![
                    state(0),
                    ReplicaState { class: "Leaf".into(), ..state(1) },
                    ReplicaState { class: "Leaf".into(), ..state(2) },
                    state(3),
                ],
            },
            "0c04ffffffff0fffffffffffffffffff01054e6f6465b7feffffffffffffff0103a0a0a0ffffffff0ffeffffffffffffffff01054c656166b6feffffffffffffff0103a1a1a1ffffffff0ffdffffffffffffffff0100b5feffffffffffffff0103a2a2a2ffffffff0ffcffffffffffffffff01054e6f6465b4feffffffffffffff0103a3a3a3",
        ),
        ("Ping", Message::Ping { request }, "0dffffffff0f9bffffffffffffffff01"),
        ("Pong", Message::Pong { request }, "0effffffff0f9bffffffffffffffff01"),
        ("AckHorizon", Message::AckHorizon { up_to: u64::MAX - 1 }, "11feffffffffffffffff01"),
        ("JoinRequest", Message::JoinRequest { request }, "15ffffffff0f9bffffffffffffffff01"),
        (
            "JoinAck Ok",
            Message::JoinAck { request, result: Ok(join) },
            "16ffffffff0f9bffffffffffffffff010001ffffffff0f01016effffffff0fffffffffffffffffff01",
        ),
        (
            "JoinAck Err",
            Message::JoinAck { request, result: Err(error()) },
            "16ffffffff0f9bffffffffffffffff010103ffffffff0fffffffffffffffffff01",
        ),
        (
            "HandoffRequest",
            Message::HandoffRequest { request, root: oid(0), entries: vec![state(0)] },
            "17ffffffff0f9bffffffffffffffff01ffffffff0fffffffffffffffffff0101ffffffff0fffffffffffffffffff01054e6f6465b7feffffffffffffff0103a0a0a0",
        ),
        (
            "HandoffAck Ok",
            Message::HandoffAck { request, result: Ok(u64::MAX - 1) },
            "18ffffffff0f9bffffffffffffffff0100feffffffffffffffff01",
        ),
        (
            "HandoffAck Err",
            Message::HandoffAck { request, result: Err(error()) },
            "18ffffffff0f9bffffffffffffffff010103ffffffff0fffffffffffffffffff01",
        ),
        ("Leave", Message::Leave { site: SITE }, "19ffffffff0f"),
    ]
}

/// Every `WalRecord` variant, named, with its golden hex.
fn records() -> Vec<(&'static str, WalRecord, &'static str)> {
    let op = |deltas: Vec<(SiteId, ReplicaState)>| WalRecord::Op {
        target: oid(0),
        method: "m".into(),
        args: vec![ObiValue::I64(i64::MAX), ObiValue::Str("s".into())],
        succeeded: true,
        deltas,
    };
    let delta = |below_max| (SiteId::new(u32::MAX - below_max as u32), state(below_max));
    vec![
        (
            "ObjectDelta",
            WalRecord::ObjectDelta { provider: SiteId::new(u32::MAX - 2), state: state(0) },
            "00fdffffff0fffffffff0fffffffffffffffffff01044e6f6465b7feffffffffffffff0103a0a0a0",
        ),
        (
            "Op, no deltas",
            op(vec![]),
            "01ffffffff0fffffffffffffffffff01016d0203feffffffffffffffff0105017301",
        ),
        (
            "Op, one delta",
            op(vec![delta(0)]),
            "01ffffffff0fffffffffffffffffff01016d0203feffffffffffffffff010501730101ffffffff0fffffffff0fffffffffffffffffff01044e6f6465b7feffffffffffffff0103a0a0a0",
        ),
        (
            "Op, two deltas",
            op(vec![delta(0), delta(1)]),
            "01ffffffff0fffffffffffffffffff01016d0203feffffffffffffffff010501730102ffffffff0fffffffff0fffffffffffffffffff01044e6f6465b7feffffffffffffff0103a0a0a0feffffff0fffffffff0ffeffffffffffffffff01044e6f6465b6feffffffffffffff0103a1a1a1",
        ),
        (
            "PutIntent",
            WalRecord::PutIntent { id: oid(0), seq: u64::MAX - 1, fingerprint: u64::MAX - 2 },
            "02ffffffff0fffffffffffffffffff01feffffffffffffffff01fdffffffffffffffff01",
        ),
        (
            "PutConfirmed",
            WalRecord::PutConfirmed { id: oid(0), version: u64::MAX - 1, fingerprint: u64::MAX - 2 },
            "03ffffffff0fffffffffffffffffff01feffffffffffffffff01fdffffffffffffffff01",
        ),
        ("PutAbandoned", WalRecord::PutAbandoned { id: oid(0) }, "06ffffffff0fffffffffffffffffff01"),
        ("Clean", WalRecord::Clean { id: oid(0) }, "04ffffffff0fffffffffffffffffff01"),
        (
            "ClientState",
            WalRecord::ClientState { next_seq: u64::MAX - 1, horizon: u64::MAX - 2 },
            "05feffffffffffffffff01fdffffffffffffffff01",
        ),
        (
            "HandoffIntent",
            WalRecord::HandoffIntent { root: oid(0), successor: SiteId::new(u32::MAX - 2) },
            "07ffffffff0fffffffffffffffffff01fdffffff0f",
        ),
        ("HandoffComplete", WalRecord::HandoffComplete { root: oid(0) }, "08ffffffff0fffffffffffffffffff01"),
    ]
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("golden hex"))
        .collect()
}

/// Each row's value must encode to its golden hex, and the hex decode back
/// to the value. Fails listing every row whose bytes moved, with the bytes
/// it has now.
fn check<T: PartialEq + Debug>(
    rows: Vec<(&str, T, &str)>,
    encode: impl Fn(&T) -> Vec<u8>,
    decode: impl Fn(Vec<u8>) -> obiwan::util::Result<T>,
) {
    let moved: Vec<String> = rows
        .iter()
        .filter_map(|(name, value, golden)| {
            let got = hex(&encode(value));
            (got != *golden).then(|| format!("{name}:\n  want {golden}\n  got  {got}"))
        })
        .collect();
    assert!(
        moved.is_empty(),
        "{} of {} rows moved:\n{}",
        moved.len(),
        rows.len(),
        moved.join("\n")
    );
    for (name, value, golden) in &rows {
        assert_eq!(
            decode(unhex(golden)).as_ref(),
            Ok(value),
            "{name}: the golden bytes decode to another value"
        );
    }
}

#[test]
fn every_message_variant_keeps_its_bytes() {
    let rows = messages();
    let mut variants: Vec<&str> = rows
        .iter()
        .map(|(name, ..)| name.split(' ').next().unwrap())
        .collect();
    variants.dedup();
    assert_eq!(
        variants.len(),
        25,
        "a row for every Message variant: {variants:?}"
    );
    check(
        rows,
        |m| m.encode().to_vec(),
        |bytes| Message::decode(&Bytes::from(bytes)),
    );
}

/// An error's bytes are what follows its `Ack`'s head: the tag, the
/// request id and the `Err` flag, 17 bytes.
#[test]
fn every_error_variant_keeps_its_bytes() {
    let ack = |e: &ObiError| {
        Message::Ack {
            request: REQUEST,
            result: Err(e.clone()),
        }
        .encode()
    };
    let head = ack(&error()).slice(..17);
    let decode = |bytes: Vec<u8>| match Message::decode(&Bytes::from([&head[..], &bytes].concat()))?
    {
        Message::Ack { result: Err(e), .. } => Ok(e),
        other => panic!("not an error ack: {other:?}"),
    };
    check(errors(), |e| ack(e)[17..].to_vec(), decode);
}

#[test]
fn every_wal_record_variant_keeps_its_bytes() {
    check(records(), WalRecord::encode, |bytes| {
        WalRecord::decode(&bytes)
    });
}
