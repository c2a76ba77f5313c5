//! Property-based tests of the wire format: arbitrary values, messages of
//! every variant and WAL records round-trip exactly, and the decoders never
//! panic on arbitrary bytes. Each layout is declared once
//! (`obiwan_wire::wire_layout!`), so this roundtrip, with the golden bytes
//! of `tests/wire_golden.rs`, is what holds writer and reader to it.

use bytes::Bytes;
use obiwan::store::WalRecord;
use obiwan::util::{ClusterId, ObiError, ObjId, RequestId, SiteId};
use obiwan::wire::{
    Decoder, Encoder, Field, FrontierEdge, JoinInfo, Message, NameOp, ObiValue, ReplicaBatch,
    ReplicaState, WireMode,
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

fn arb_replica_state() -> impl Strategy<Value = ReplicaState> {
    (
        arb_obj_id(),
        "[A-Za-z]{1,16}",
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
        proptest::collection::vec((arb_obj_id(), "[A-Z][a-z]{0,10}"), 0..5),
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
