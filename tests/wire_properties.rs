//! Property-based tests of the wire format: arbitrary values, messages of
//! every variant and WAL records round-trip exactly, and the decoders never
//! panic on arbitrary bytes. Each layout is declared once
//! (`obiwan_wire::wire_layout!`), so this roundtrip, with the golden bytes
//! of `tests/wire_golden.rs`, is what holds writer and reader to it. Class
//! names run within a frame (a repeat is one zero byte), so the classes
//! drawn here repeat often, the empty one included, and hostile class bytes
//! and mixed runs have tests of their own, the batch writer's frames too.

use bytes::Bytes;
use obiwan::store::WalRecord;
use obiwan::util::{ClusterId, ObiError, ObjId, RequestId, SiteId};
use obiwan::wire::{
    BatchWriter, Decoder, Encoder, Field, FrontierEdge, JoinInfo, Message, NameOp, ObiValue,
    ReplicaBatch, ReplicaState, WireMode,
};
use proptest::prelude::*;

fn arb_obj_id() -> impl Strategy<Value = ObjId> {
    (arb_site(), prop_oneof![0u64..100_000, Just(u64::MAX)]).prop_map(|(s, l)| ObjId::new(s, l))
}

fn arb_value() -> impl Strategy<Value = ObiValue> {
    let leaf = prop_oneof![
        Just(ObiValue::Null),
        any::<bool>().prop_map(ObiValue::Bool),
        any::<i64>().prop_map(ObiValue::I64),
        // NaN breaks PartialEq-based comparison; use finite floats.
        (-1e300f64..1e300).prop_map(ObiValue::F64),
        ".{0,40}".prop_map(ObiValue::Str),
        proptest::collection::vec(any::<u8>(), 0..100)
            .prop_map(|v| ObiValue::Bytes(Bytes::from(v))),
        arb_obj_id().prop_map(ObiValue::Ref),
    ];
    leaf.prop_recursive(3, 64, 8, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..8).prop_map(ObiValue::List),
            proptest::collection::vec(("[a-z]{1,8}", inner), 0..8)
                .prop_map(ObiValue::Map),
        ]
    })
}

/// A class name: often one of a few, so lists hold runs of one class and
/// changes between them, sometimes the empty name, sometimes a random one.
fn arb_class() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        Just("A".to_owned()),
        Just("Node".to_owned()),
        "[A-Za-z]{1,16}",
    ]
}

fn arb_replica_state() -> impl Strategy<Value = ReplicaState> {
    (
        arb_obj_id(),
        arb_class(),
        any::<u64>(),
        proptest::collection::vec(any::<u8>(), 0..200),
    )
        .prop_map(|(id, class, version, state)| ReplicaState {
            id,
            class,
            version,
            state: Bytes::from(state),
        })
}

fn arb_mode() -> impl Strategy<Value = WireMode> {
    prop_oneof![
        (1u32..10_000).prop_map(|batch| WireMode::Incremental { batch }),
        (1u32..10_000).prop_map(|size| WireMode::Cluster { size }),
        Just(WireMode::Transitive),
    ]
}

fn arb_request_id() -> impl Strategy<Value = RequestId> {
    (0u32..100, any::<u64>()).prop_map(|(s, q)| RequestId::new(SiteId::new(s), q))
}

fn arb_site() -> impl Strategy<Value = SiteId> {
    prop_oneof![0u32..1000, Just(u32::MAX)].prop_map(SiteId::new)
}

fn arb_error() -> impl Strategy<Value = ObiError> {
    let text = || ".{0,12}";
    prop_oneof![
        arb_site().prop_map(ObiError::SiteUnreachable),
        (arb_site(), arb_site()).prop_map(|(from, to)| ObiError::Disconnected { from, to }),
        (arb_site(), arb_site()).prop_map(|(from, to)| ObiError::MessageLost { from, to }),
        arb_site().prop_map(|to| ObiError::Timeout { to }),
        arb_obj_id().prop_map(ObiError::NoSuchObject),
        (arb_obj_id(), text()).prop_map(|(object, method)| ObiError::NoSuchMethod { object, method }),
        text().prop_map(ObiError::NameNotBound),
        text().prop_map(ObiError::NameAlreadyBound),
        arb_obj_id().prop_map(ObiError::ReentrantInvocation),
        text().prop_map(ObiError::Decode),
        text().prop_map(ObiError::BadArguments),
        (arb_obj_id(), text()).prop_map(|(object, reason)| ObiError::UpdateRejected { object, reason }),
        arb_obj_id().prop_map(ObiError::ClusterMember),
        arb_obj_id().prop_map(ObiError::NotReplicated),
        (arb_obj_id(), arb_site()).prop_map(|(object, to)| ObiError::MovedMaster { object, to }),
        text().prop_map(ObiError::Application),
        text().prop_map(ObiError::Storage),
        text().prop_map(ObiError::Internal),
    ]
}

/// `Ok` from `ok`, or an arbitrary error.
fn arb_result<T: 'static>(
    ok: impl Strategy<Value = T> + 'static,
) -> impl Strategy<Value = Result<T, ObiError>> {
    prop_oneof![ok.prop_map(Ok), arb_error().prop_map(Err)]
}

fn arb_batch() -> impl Strategy<Value = ReplicaBatch> {
    let cluster = prop_oneof![
        Just(None),
        (arb_site(), any::<u64>()).prop_map(|(s, seq)| Some(ClusterId::new(s, seq))),
    ];
    (
        arb_obj_id(),
        proptest::collection::vec(arb_replica_state(), 0..5),
        proptest::collection::vec((arb_obj_id(), arb_class()), 0..5),
        cluster,
    )
        .prop_map(|(root, replicas, frontier, cluster)| ReplicaBatch {
            root,
            replicas,
            frontier: frontier
                .into_iter()
                .map(|(target, class)| FrontierEdge { target, class })
                .collect(),
            cluster,
        })
}

fn arb_name_op() -> impl Strategy<Value = NameOp> {
    prop_oneof![
        ("[a-z]{0,8}", arb_obj_id()).prop_map(|(name, target)| NameOp::Bind { name, target }),
        "[a-z]{0,8}".prop_map(|name| NameOp::Lookup { name }),
        "[a-z]{0,8}".prop_map(|name| NameOp::Unbind { name }),
        Just(NameOp::List),
    ]
}

fn arb_join_info() -> impl Strategy<Value = JoinInfo> {
    (
        proptest::collection::vec(arb_site(), 0..4),
        proptest::collection::vec(("[a-z]{0,8}", arb_obj_id()), 0..4),
    )
        .prop_map(|(peers, names)| JoinInfo { peers, names })
}

fn arb_states() -> impl Strategy<Value = Vec<ReplicaState>> {
    proptest::collection::vec(arb_replica_state(), 0..5)
}

fn arb_targets() -> impl Strategy<Value = Vec<ObjId>> {
    proptest::collection::vec(arb_obj_id(), 0..8)
}

/// Every `Message` variant, results `Ok` and `Err`, clusters `None` and
/// `Some`.
fn arb_message() -> impl Strategy<Value = Message> {
    let rid = arb_request_id;
    prop_oneof![
        (rid(), arb_obj_id(), "[a-z_]{1,12}", arb_value()).prop_map(
            |(request, target, method, args)| Message::InvokeRequest {
                request,
                target,
                method,
                args
            }
        ),
        (rid(), arb_result(arb_value()))
            .prop_map(|(request, result)| Message::InvokeReply { request, result }),
        (rid(), arb_obj_id(), arb_mode())
            .prop_map(|(request, target, mode)| Message::GetRequest { request, target, mode }),
        (rid(), arb_result(arb_batch()))
            .prop_map(|(request, result)| Message::GetReply { request, result }),
        (rid(), arb_targets(), arb_mode())
            .prop_map(|(request, targets, mode)| Message::GetManyRequest { request, targets, mode }),
        (rid(), arb_result(arb_batch()))
            .prop_map(|(request, result)| Message::GetManyReply { request, result }),
        (rid(), arb_targets(), arb_mode(), any::<u32>(), any::<u32>()).prop_map(
            |(request, targets, mode, chunk, resume_from)| Message::GetManyStreamRequest {
                request,
                targets,
                mode,
                chunk,
                resume_from,
            }
        ),
        (rid(), any::<u32>(), any::<u32>(), arb_batch()).prop_map(
            |(request, chunk_index, total_hint, batch)| Message::GetManyChunk {
                request,
                chunk_index,
                total_hint,
                batch,
            }
        ),
        (rid(), any::<u32>(), arb_result(Just(()))).prop_map(
            |(request, total_chunks, result)| Message::GetManyDone { request, total_chunks, result }
        ),
        (rid(), arb_states()).prop_map(|(request, entries)| Message::PutRequest { request, entries }),
        (rid(), arb_result(proptest::collection::vec((arb_obj_id(), any::<u64>()), 0..5)))
            .prop_map(|(request, result)| Message::PutReply { request, result }),
        (rid(), arb_name_op()).prop_map(|(request, op)| Message::NameRequest { request, op }),
        (rid(), arb_result(arb_value()))
            .prop_map(|(request, result)| Message::NameReply { request, result }),
        (rid(), arb_obj_id(), any::<bool>())
            .prop_map(|(request, object, push)| Message::Subscribe { request, object, push }),
        (rid(), arb_result(arb_value())).prop_map(|(request, result)| Message::Ack { request, result }),
        arb_targets().prop_map(|objects| Message::Invalidate { objects }),
        arb_states().prop_map(|entries| Message::UpdatePush { entries }),
        rid().prop_map(|request| Message::Ping { request }),
        rid().prop_map(|request| Message::Pong { request }),
        any::<u64>().prop_map(|up_to| Message::AckHorizon { up_to }),
        rid().prop_map(|request| Message::JoinRequest { request }),
        (rid(), arb_result(arb_join_info()))
            .prop_map(|(request, result)| Message::JoinAck { request, result }),
        (rid(), arb_obj_id(), arb_states())
            .prop_map(|(request, root, entries)| Message::HandoffRequest { request, root, entries }),
        (rid(), arb_result(any::<u64>()))
            .prop_map(|(request, result)| Message::HandoffAck { request, result }),
        arb_site().prop_map(|site| Message::Leave { site }),
    ]
}

fn arb_wal_record() -> impl Strategy<Value = WalRecord> {
    let delta = (arb_site(), arb_replica_state());
    prop_oneof![
        (arb_site(), arb_replica_state())
            .prop_map(|(provider, state)| WalRecord::ObjectDelta { provider, state }),
        (
            arb_obj_id(),
            "[a-z_]{0,12}",
            proptest::collection::vec(arb_value(), 0..4),
            any::<bool>(),
            proptest::collection::vec(delta, 0..3),
        )
            .prop_map(|(target, method, args, succeeded, deltas)| WalRecord::Op {
                target,
                method,
                args,
                succeeded,
                deltas,
            }),
        (arb_obj_id(), any::<u64>(), any::<u64>())
            .prop_map(|(id, seq, fingerprint)| WalRecord::PutIntent { id, seq, fingerprint }),
        (arb_obj_id(), any::<u64>(), any::<u64>()).prop_map(|(id, version, fingerprint)| {
            WalRecord::PutConfirmed { id, version, fingerprint }
        }),
        arb_obj_id().prop_map(|id| WalRecord::PutAbandoned { id }),
        arb_obj_id().prop_map(|id| WalRecord::Clean { id }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(next_seq, horizon)| WalRecord::ClientState { next_seq, horizon }),
        (arb_obj_id(), arb_site())
            .prop_map(|(root, successor)| WalRecord::HandoffIntent { root, successor }),
        arb_obj_id().prop_map(|root| WalRecord::HandoffComplete { root }),
    ]
}

/// Cases per property: 256, or `PROPTEST_CASES` (CI's `chaos-extended`
/// job runs 1024).
fn configured_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(configured_cases()))]

    #[test]
    fn values_roundtrip(v in arb_value()) {
        let mut enc = Encoder::new();
        enc.put_value(&v);
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        let back = dec.take_value().unwrap();
        prop_assert!(dec.is_exhausted());
        prop_assert_eq!(back, v);
    }

    #[test]
    fn messages_roundtrip(m in arb_message()) {
        let frame = m.encode();
        let back = Message::decode(&frame).unwrap();
        prop_assert_eq!(back, m);
    }

    #[test]
    fn decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        // Whatever happens, it must be Ok or Err — never a panic.
        let bytes = Bytes::from(bytes);
        let _ = Message::decode(&bytes);
        let _ = Decoder::new(&bytes).take_value();
        let _ = ObiError::read_field(&mut Decoder::new(&bytes));
        let _ = WalRecord::decode(&bytes);
        let _ = Decoder::new(&bytes).take_str();
    }

    #[test]
    fn random_tag_and_payload_fail_only_with_decode_errors(
        tag in any::<u8>(),
        payload in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        // Every `unknown … tag` path in message.rs, plus every take_* length
        // check behind a *valid* tag, must surface as ObiError::Decode — any
        // panic or any other error variant means a malformed frame can take
        // down (or confuse) a server.
        let mut frame = Vec::with_capacity(payload.len() + 1);
        frame.push(tag);
        frame.extend_from_slice(&payload);
        if let Err(e) = Message::decode(&Bytes::from(frame)) {
            prop_assert!(
                matches!(e, ObiError::Decode(_)),
                "malformed frame yielded non-Decode error: {e:?}"
            );
        }
    }

    #[test]
    fn wal_records_roundtrip(r in arb_wal_record()) {
        prop_assert_eq!(WalRecord::decode(&r.encode()).unwrap(), r);
    }

    #[test]
    fn random_wal_payloads_fail_only_with_decode_errors(
        tag in 0u8..12,
        payload in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        // Tags 0..=8 are records, 9.. are not: both must end in a record
        // or a Decode error, never a panic or another error.
        let mut bytes = vec![tag];
        bytes.extend_from_slice(&payload);
        if let Err(e) = WalRecord::decode(&bytes) {
            prop_assert!(matches!(e, ObiError::Decode(_)), "non-Decode error: {e:?}");
        }
    }

    #[test]
    fn truncated_valid_messages_never_decode(m in arb_message(), cut_frac in 0.0f64..1.0) {
        let frame = m.encode();
        let cut = ((frame.len() as f64) * cut_frac) as usize;
        if cut < frame.len() {
            prop_assert!(Message::decode(&frame.slice(..cut)).is_err());
        }
    }

    #[test]
    fn varints_roundtrip(v in any::<u64>()) {
        let mut enc = Encoder::new();
        enc.put_varint(v);
        let b = enc.finish();
        prop_assert_eq!(Decoder::new(&b).take_varint().unwrap(), v);
        // Encoding is minimal: at most 10 bytes, shorter for small values.
        prop_assert!(b.len() <= 10);
        if v < 128 {
            prop_assert_eq!(b.len(), 1);
        }
    }

    #[test]
    fn signed_varints_roundtrip(v in any::<i64>()) {
        let mut enc = Encoder::new();
        enc.put_i64(v);
        let b = enc.finish();
        prop_assert_eq!(Decoder::new(&b).take_i64().unwrap(), v);
    }
}

/// Deterministic sweep of all 256 tag bytes with no payload: the known tags
/// fail on truncation, the unknown ones on the tag itself — every one a
/// clean `ObiError::Decode`.
#[test]
fn every_bare_tag_byte_fails_with_a_decode_error() {
    for tag in 0u8..=255 {
        match Message::decode(&Bytes::copy_from_slice(&[tag])) {
            Ok(m) => panic!("bare tag {tag} decoded to {m:?}"),
            Err(ObiError::Decode(_)) => {}
            Err(e) => panic!("bare tag {tag} yielded non-Decode error {e:?}"),
        }
    }
}

const SITE: SiteId = SiteId::new(2);
const REQUEST: RequestId = RequestId::new(SiteId::new(1), 7);

fn entry(local: u64, class: &str) -> ReplicaState {
    ReplicaState {
        id: ObjId::new(SITE, local),
        class: class.into(),
        version: local * 3,
        state: Bytes::from(vec![local as u8; local as usize]),
    }
}

/// Runs of one class and changes between them (`A, A, B, A`, then the
/// empty class twice), and a frontier that starts with the empty class a
/// provider writes for an edge it could not name.
fn mixed_batch() -> ReplicaBatch {
    let classes = ["A", "A", "B", "A", "", "", "A", "A", "B"];
    let edge = |local: u64, class: &str| FrontierEdge {
        target: ObjId::new(SITE, local),
        class: class.into(),
    };
    ReplicaBatch {
        root: ObjId::new(SITE, 1),
        replicas: classes.iter().zip(1..).map(|(class, local)| entry(local, class)).collect(),
        frontier: vec![edge(20, ""), edge(21, "B"), edge(22, "B")],
        cluster: None,
    }
}

/// The bytes of a `ReplicaState` whose class is the raw bytes `class`
/// (a varint and what follows it), as a message frame lays it out.
fn raw_entry(enc: &mut Encoder, class: &[u8]) {
    enc.put_obj_id(ObjId::new(SITE, 1));
    class.iter().for_each(|&b| enc.put_u8(b));
    enc.put_varint(1);
    enc.put_bytes(b"s");
}

fn decode_error(frame: Vec<u8>) -> String {
    match Message::decode(&Bytes::from(frame)) {
        Err(ObiError::Decode(why)) => why,
        other => panic!("decoded to {other:?}"),
    }
}

/// Every message kind that carries a list of replica states, with one
/// entry whose class bytes are `class`, and the `GetManyChunk` frame of
/// a resumed stream's second chunk, whose first entry is too.
fn frames_with_first_class(class: &[u8]) -> Vec<Vec<u8>> {
    let head = |tag: u8| {
        let mut enc = Encoder::new();
        enc.put_u8(tag);
        enc
    };
    let mut put = head(5);
    put.put_request_id(REQUEST);
    put.put_varint(1);
    raw_entry(&mut put, class);
    let mut push = head(12);
    push.put_varint(1);
    raw_entry(&mut push, class);
    let mut handoff = head(23);
    handoff.put_request_id(REQUEST);
    handoff.put_obj_id(ObjId::new(SITE, 1));
    handoff.put_varint(1);
    raw_entry(&mut handoff, class);
    let mut chunk = head(19);
    chunk.put_request_id(REQUEST);
    chunk.put_varint(1);
    chunk.put_varint(2);
    chunk.put_obj_id(ObjId::new(SITE, 1));
    chunk.put_varint(1);
    raw_entry(&mut chunk, class);
    chunk.put_varint(0);
    chunk.put_u8(0);
    // A batch of no replica whose one frontier edge has the class.
    let mut edge = head(4);
    edge.put_request_id(REQUEST);
    edge.put_u8(0);
    edge.put_obj_id(ObjId::new(SITE, 1));
    edge.put_varint(0);
    edge.put_varint(1);
    edge.put_obj_id(ObjId::new(SITE, 9));
    class.iter().for_each(|&b| edge.put_u8(b));
    edge.put_u8(0);
    [put, push, handoff, chunk, edge].map(|enc| enc.finish().to_vec()).to_vec()
}

#[test]
fn hostile_class_bytes_fail_with_decode_errors() {
    // The frames are well formed: with a class written out they decode.
    for frame in frames_with_first_class(b"\x02A") {
        Message::decode(&Bytes::from(frame)).unwrap();
    }
    // A repeat with nothing before it in its frame.
    for frame in frames_with_first_class(&[0]) {
        assert_eq!(decode_error(frame), "class 0 with no class before it in its frame");
    }
    // A name that runs past the end of the frame, by a little and by more
    // than a frame may hold.
    for (class, why) in [
        (&b"\x09Node"[..], "need 8 bytes, have 4"),
        (&[0xff, 0xff, 0xff, 0xff, 0x0f], "length 4294967295 exceeds limit"),
    ] {
        for mut frame in frames_with_first_class(class) {
            let at = frame.windows(class.len()).position(|w| w == class).unwrap();
            frame.truncate(at + class.len());
            assert_eq!(decode_error(frame), why);
        }
    }
    // A name that is not UTF-8.
    for frame in frames_with_first_class(&[3, 0xff, 0xfe]) {
        assert!(decode_error(frame).starts_with("invalid utf-8"));
    }
}

#[test]
fn mixed_class_lists_roundtrip_through_messages_and_the_batch_writer() {
    let batch = mixed_batch();
    let entries = batch.replicas.clone();
    for m in [
        Message::GetReply { request: REQUEST, result: Ok(batch.clone()) },
        Message::GetManyReply { request: REQUEST, result: Ok(batch.clone()) },
        Message::PutRequest { request: REQUEST, entries: entries.clone() },
        Message::UpdatePush { entries: entries.clone() },
        Message::HandoffRequest { request: REQUEST, root: batch.root, entries },
    ] {
        assert_eq!(Message::decode(&m.encode()).unwrap(), m);
    }

    let write = |per_chunk| {
        let mut writer = BatchWriter::new(per_chunk);
        for r in &batch.replicas {
            writer.push(r.id, &r.class, r.version, |enc| {
                r.state.iter().for_each(|&b| enc.put_u8(b))
            });
        }
        writer.finish(batch.root, &batch.frontier, batch.cluster)
    };
    for many in [false, true] {
        let frame = write(usize::MAX).into_reply(REQUEST, many);
        let result = Ok(batch.clone());
        let want = if many {
            Message::GetManyReply { request: REQUEST, result }
        } else {
            Message::GetReply { request: REQUEST, result }
        };
        assert_eq!(frame, want.encode());
        assert_eq!(Message::decode(&frame).unwrap(), want);
    }
    for per_chunk in 1..=9 {
        let slices: Vec<&[ReplicaState]> = batch.replicas.chunks(per_chunk).collect();
        let total = slices.len() as u32;
        let want: Vec<Message> = slices
            .iter()
            .zip(0..)
            .map(|(replicas, chunk_index)| Message::GetManyChunk {
                request: REQUEST,
                chunk_index,
                total_hint: total,
                batch: ReplicaBatch {
                    replicas: replicas.to_vec(),
                    frontier: if chunk_index + 1 == total {
                        batch.frontier.clone()
                    } else {
                        Vec::new()
                    },
                    ..batch.clone()
                },
            })
            .collect();
        for resume_from in 0..=total {
            let frames: Vec<Bytes> = write(per_chunk).into_chunks(REQUEST, resume_from).collect();
            let want = &want[resume_from as usize..];
            assert_eq!(frames.len(), want.len(), "{per_chunk} per chunk from {resume_from}");
            for (frame, want) in frames.iter().zip(want) {
                assert_eq!(*frame, want.encode(), "{per_chunk} per chunk from {resume_from}");
                assert_eq!(Message::decode(frame).unwrap(), *want);
            }
        }
    }
}
