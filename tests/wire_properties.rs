//! Property-based tests of the wire format: arbitrary values and messages
//! round-trip exactly, and the decoder never panics on arbitrary bytes.

use bytes::Bytes;
use obiwan::util::{ObiError, ObjId, RequestId, SiteId};
use obiwan::wire::{Decoder, Encoder, FrontierEdge, Message, ObiValue, ReplicaBatch, ReplicaState, WireMode};
use proptest::prelude::*;

fn arb_obj_id() -> impl Strategy<Value = ObjId> {
    (0u32..1000, 0u64..100_000).prop_map(|(s, l)| ObjId::new(SiteId::new(s), l))
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

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        (arb_request_id(), arb_obj_id(), "[a-z_]{1,12}", arb_value()).prop_map(
            |(request, target, method, args)| Message::InvokeRequest {
                request,
                target,
                method,
                args
            }
        ),
        (arb_request_id(), arb_value())
            .prop_map(|(request, v)| Message::InvokeReply { request, result: Ok(v) }),
        (arb_request_id(), arb_obj_id(), arb_mode()).prop_map(|(request, target, mode)| {
            Message::GetRequest {
                request,
                target,
                mode,
            }
        }),
        (
            arb_request_id(),
            arb_obj_id(),
            proptest::collection::vec(arb_replica_state(), 0..5),
            proptest::collection::vec((arb_obj_id(), "[A-Z][a-z]{0,10}"), 0..5),
        )
            .prop_map(|(request, root, replicas, frontier)| Message::GetReply {
                request,
                result: Ok(ReplicaBatch {
                    root,
                    replicas,
                    frontier: frontier
                        .into_iter()
                        .map(|(target, class)| FrontierEdge { target, class })
                        .collect(),
                    cluster: None,
                }),
            }),
        (arb_request_id(), proptest::collection::vec(arb_replica_state(), 0..5))
            .prop_map(|(request, entries)| Message::PutRequest { request, entries }),
        (
            arb_request_id(),
            proptest::collection::vec(arb_obj_id(), 0..8),
            arb_mode(),
        )
            .prop_map(|(request, targets, mode)| Message::GetManyRequest {
                request,
                targets,
                mode,
            }),
        (
            arb_request_id(),
            arb_obj_id(),
            proptest::collection::vec(arb_replica_state(), 0..5),
            proptest::collection::vec((arb_obj_id(), "[A-Z][a-z]{0,10}"), 0..5),
        )
            .prop_map(|(request, root, replicas, frontier)| Message::GetManyReply {
                request,
                result: Ok(ReplicaBatch {
                    root,
                    replicas,
                    frontier: frontier
                        .into_iter()
                        .map(|(target, class)| FrontierEdge { target, class })
                        .collect(),
                    cluster: None,
                }),
            }),
        (
            arb_request_id(),
            proptest::collection::vec(arb_obj_id(), 0..8),
            arb_mode(),
            1u32..64,
            0u32..16,
        )
            .prop_map(|(request, targets, mode, chunk, resume_from)| {
                Message::GetManyStreamRequest {
                    request,
                    targets,
                    mode,
                    chunk,
                    resume_from,
                }
            }),
        (
            arb_request_id(),
            0u32..16,
            0u32..16,
            arb_obj_id(),
            proptest::collection::vec(arb_replica_state(), 0..5),
            proptest::collection::vec((arb_obj_id(), "[A-Z][a-z]{0,10}"), 0..5),
        )
            .prop_map(|(request, chunk_index, total_hint, root, replicas, frontier)| {
                Message::GetManyChunk {
                    request,
                    chunk_index,
                    total_hint,
                    batch: ReplicaBatch {
                        root,
                        replicas,
                        frontier: frontier
                            .into_iter()
                            .map(|(target, class)| FrontierEdge { target, class })
                            .collect(),
                        cluster: None,
                    },
                }
            }),
        (arb_request_id(), 0u32..16).prop_map(|(request, total_chunks)| {
            Message::GetManyDone {
                request,
                total_chunks,
                result: Ok(()),
            }
        }),
        proptest::collection::vec(arb_obj_id(), 0..10)
            .prop_map(|objects| Message::Invalidate { objects }),
        arb_request_id().prop_map(|request| Message::Ping { request }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

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
        let _ = Decoder::new(&bytes).take_error();
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
