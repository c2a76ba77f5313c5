//! Typed WAL record payloads.
//!
//! Each [`WalRecord`] is one logical durability event; it encodes to the
//! payload bytes of one [`crate::wal`] frame using the `obiwan-wire`
//! codec (tag byte + fields). Snapshots use the same record vocabulary,
//! so there is exactly one decode path for both files.
//!
//! The record set mirrors what a mobile site must not lose across a crash:
//!
//! * [`WalRecord::ObjectDelta`] — the serialized state of a replica that
//!   went dirty (an incremental delta in the log-structured sense: later
//!   deltas for the same object supersede earlier ones). Written bare by
//!   an invocation *outside* a session on a site with durability attached
//!   (`ObiProcess::invoke`, an invocation served over RMI), and by
//!   snapshots, which hold every dirty replica as one.
//! * [`WalRecord::Op`] — one journaled `DisconnectedSession` invocation,
//!   *with* the deltas of whatever it dirtied (`deltas`, one
//!   `ObjectDelta`'s worth each). The op and the states it produced are
//!   one event, so they are one record and one frame: a tear anywhere
//!   loses both or neither, and a recovered journal always accounts for
//!   exactly the dirty state recovered beside it. The deltas are encoded
//!   after `succeeded` and left out when there are none — an invocation
//!   that dirtied nothing (read-only, or failed before it mutated), an
//!   `Op` in a snapshot (whose states travel as `ObjectDelta`s), and every
//!   `Op` written before the field existed — so older logs decode
//!   unchanged.
//! * [`WalRecord::PutIntent`] — "about to send `put` for `id` as request
//!   `seq`, carrying the state whose fingerprint is `fingerprint`".
//!   Written and fsynced — with the other intents of its write-back group,
//!   in one batch — *before* the RPC leaves, so a replayed reintegration
//!   reuses the same request id and the server's ReplyCache deduplicates
//!   it (exactly-once). The fingerprint ties the seq to the
//!   exact state it covered: a retry whose state has since changed must
//!   NOT reuse the seq (the cached reply would ack without applying), so
//!   the put path retires the stale intent and takes a fresh one.
//! * [`WalRecord::PutConfirmed`] — the put was acknowledged at `version`;
//!   the intent is settled, and the dirty delta is superseded *if it still
//!   fingerprints to the state the ack covered* (a delta logged by a
//!   mutation racing the RPC stays recoverable).
//! * [`WalRecord::PutAbandoned`] — the put was *definitively rejected*
//!   (an application-level error, not a connectivity failure). The master
//!   processed the request and cached the rejection, so the intent's seq
//!   is spent: reusing it would replay the cached error forever. The
//!   replica stays dirty; only the pending intent is dropped.
//! * [`WalRecord::Clean`] — the replica was refreshed from the master
//!   (conflict resolution or explicit refresh); pending deltas are moot.
//! * [`WalRecord::ClientState`] — RMI client watermark: next request
//!   sequence number and the settled reply horizon.

use crate::wal::Frames;
use bytes::Bytes;
use obiwan_util::{ObiError, ObjId, Result, SiteId};
use obiwan_wire::{crc32, Decoder, Encoder, ObiValue, ReplicaState};

/// Fingerprint of the serialized state a put carries: CRC of the state
/// bytes in the high word, length/version mixed into the low word. Two
/// puts of the same replica carry the same fingerprint iff they carry the
/// same bytes — the encoder is deterministic (`ObiValue::Map` preserves
/// order), so "same fingerprint" means "same state" for retry purposes.
pub fn state_fingerprint(state: &ReplicaState) -> u64 {
    let crc = u64::from(crc32(&state.state));
    let mix = (state.state.len() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ state.version;
    (crc << 32) ^ mix
}

/// One durability event. See the module docs for the lifecycle.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A replica of an object mastered at `provider` went dirty with the
    /// given serialized state.
    ObjectDelta {
        provider: SiteId,
        state: ReplicaState,
    },
    /// One journaled disconnected-session invocation and the replicas it
    /// dirtied: `(provider, state)` each, exactly what an `ObjectDelta`
    /// holds.
    Op {
        target: ObjId,
        method: String,
        args: Vec<ObiValue>,
        succeeded: bool,
        deltas: Vec<(SiteId, ReplicaState)>,
    },
    /// A `put` for `id` is about to be sent as request `seq`, carrying the
    /// state fingerprinted by `fingerprint` (see [`state_fingerprint`]).
    PutIntent { id: ObjId, seq: u64, fingerprint: u64 },
    /// The `put` for `id` was acknowledged at `version`; `fingerprint`
    /// names the state the ack covered.
    PutConfirmed { id: ObjId, version: u64, fingerprint: u64 },
    /// The `put` for `id` was definitively rejected; its request seq is
    /// spent but the replica remains dirty.
    PutAbandoned { id: ObjId },
    /// The replica of `id` was refreshed from its master; it is clean.
    Clean { id: ObjId },
    /// RMI client watermark state.
    ClientState { next_seq: u64, horizon: u64 },
    /// Mastership of `root` is being handed off to `successor`. Written
    /// and fsynced *before* the handoff RPC leaves. Masters are never
    /// persisted (recovery always demotes to dirty replicas), so this
    /// record's job is directional: recovery points the demoted replica's
    /// provider at `successor` instead of the original master, and a
    /// half-completed handoff can never resurrect a second master here.
    HandoffIntent { root: ObjId, successor: SiteId },
    /// The successor acknowledged the handoff of `root`; the intent is
    /// settled and this site serves `root` as an ordinary replica.
    HandoffComplete { root: ObjId },
}

impl WalRecord {
    /// Encodes this record to a WAL frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        self.encode_into(&mut enc);
        enc.into_vec()
    }

    /// Frames this record as the next one of `frames`, encoding it in place
    /// behind its header.
    pub fn frame_into(&self, frames: &mut Frames) {
        frames.push_with(|enc| self.encode_into(enc));
    }

    /// Writes this record's frame payload at the end of `enc`.
    pub fn encode_into(&self, enc: &mut Encoder) {
        match self {
            WalRecord::ObjectDelta { provider, state } => {
                enc.put_u8(0);
                put_delta(enc, *provider, state);
            }
            WalRecord::Op {
                target,
                method,
                args,
                succeeded,
                deltas,
            } => encode_op(enc, *target, method, args, *succeeded, deltas),
            WalRecord::PutIntent { id, seq, fingerprint } => {
                enc.put_u8(2);
                enc.put_obj_id(*id);
                enc.put_varint(*seq);
                enc.put_varint(*fingerprint);
            }
            WalRecord::PutConfirmed { id, version, fingerprint } => {
                enc.put_u8(3);
                enc.put_obj_id(*id);
                enc.put_varint(*version);
                enc.put_varint(*fingerprint);
            }
            WalRecord::Clean { id } => {
                enc.put_u8(4);
                enc.put_obj_id(*id);
            }
            WalRecord::ClientState { next_seq, horizon } => {
                enc.put_u8(5);
                enc.put_varint(*next_seq);
                enc.put_varint(*horizon);
            }
            WalRecord::PutAbandoned { id } => {
                enc.put_u8(6);
                enc.put_obj_id(*id);
            }
            WalRecord::HandoffIntent { root, successor } => {
                enc.put_u8(7);
                enc.put_obj_id(*root);
                enc.put_site(*successor);
            }
            WalRecord::HandoffComplete { root } => {
                enc.put_u8(8);
                enc.put_obj_id(*root);
            }
        }
    }

    /// Decodes a WAL frame payload. A CRC-valid payload that fails here is
    /// format skew, not a torn tail, and recovery reports it as an error.
    pub fn decode(payload: &[u8]) -> Result<WalRecord> {
        let mut dec = Decoder::new(payload);
        let record = match dec.take_u8()? {
            0 => {
                let (provider, state) = take_delta(&mut dec)?;
                WalRecord::ObjectDelta { provider, state }
            }
            1 => {
                let target = dec.take_obj_id()?;
                let method = dec.take_str()?;
                let n = dec.take_varint()? as usize;
                let mut args = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    args.push(dec.take_value()?);
                }
                let succeeded = dec.take_u8()? != 0;
                // The payload ending here is the delta-less form.
                let n = if dec.is_exhausted() { 0 } else { dec.take_varint()? as usize };
                let mut deltas = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    deltas.push(take_delta(&mut dec)?);
                }
                WalRecord::Op {
                    target,
                    method,
                    args,
                    succeeded,
                    deltas,
                }
            }
            2 => WalRecord::PutIntent {
                id: dec.take_obj_id()?,
                seq: dec.take_varint()?,
                fingerprint: dec.take_varint()?,
            },
            3 => WalRecord::PutConfirmed {
                id: dec.take_obj_id()?,
                version: dec.take_varint()?,
                fingerprint: dec.take_varint()?,
            },
            4 => WalRecord::Clean {
                id: dec.take_obj_id()?,
            },
            5 => WalRecord::ClientState {
                next_seq: dec.take_varint()?,
                horizon: dec.take_varint()?,
            },
            6 => WalRecord::PutAbandoned {
                id: dec.take_obj_id()?,
            },
            7 => WalRecord::HandoffIntent {
                root: dec.take_obj_id()?,
                successor: dec.take_site()?,
            },
            8 => WalRecord::HandoffComplete {
                root: dec.take_obj_id()?,
            },
            tag => {
                return Err(ObiError::Decode(format!("unknown WAL record tag {tag}")))
            }
        };
        Ok(record)
    }
}

/// Writes an [`WalRecord::Op`] payload from borrowed parts, so the caller
/// that journals an invocation ([`crate::Durable::log_op`]) encodes it
/// without first building an owned record.
pub(crate) fn encode_op(
    enc: &mut Encoder,
    target: ObjId,
    method: &str,
    args: &[ObiValue],
    succeeded: bool,
    deltas: &[(SiteId, ReplicaState)],
) {
    enc.put_u8(1);
    enc.put_obj_id(target);
    enc.put_str(method);
    enc.put_varint(args.len() as u64);
    for a in args {
        enc.put_value(a);
    }
    enc.put_u8(u8::from(succeeded));
    if !deltas.is_empty() {
        enc.put_varint(deltas.len() as u64);
        for (provider, state) in deltas {
            put_delta(enc, *provider, state);
        }
    }
}

/// The fields of one delta: the body of an `ObjectDelta`, and one element
/// of an `Op`'s delta list.
fn put_delta(enc: &mut Encoder, provider: SiteId, state: &ReplicaState) {
    enc.put_site(provider);
    enc.put_obj_id(state.id);
    enc.put_str(&state.class);
    enc.put_varint(state.version);
    enc.put_bytes(&state.state);
}

fn take_delta(dec: &mut Decoder<'_>) -> Result<(SiteId, ReplicaState)> {
    let provider = dec.take_site()?;
    let id = dec.take_obj_id()?;
    let class = dec.take_str()?;
    let version = dec.take_varint()?;
    let state = Bytes::copy_from_slice(dec.take_bytes_ref()?);
    Ok((
        provider,
        ReplicaState {
            id,
            class,
            version,
            state,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oid(site: u32, n: u64) -> ObjId {
        ObjId::new(SiteId::new(site), n)
    }

    #[test]
    fn all_records_round_trip() {
        let records = vec![
            WalRecord::ObjectDelta {
                provider: SiteId::new(3),
                state: ReplicaState {
                    id: oid(3, 7),
                    class: "Counter".into(),
                    version: 42,
                    state: Bytes::from_static(b"\x01\x02\x03"),
                },
            },
            WalRecord::Op {
                target: oid(3, 7),
                method: "add".into(),
                args: vec![ObiValue::I64(5), ObiValue::Str("x".into())],
                succeeded: true,
                deltas: vec![],
            },
            WalRecord::Op {
                target: oid(1, 1),
                method: "fail".into(),
                args: vec![],
                succeeded: false,
                deltas: vec![],
            },
            WalRecord::PutIntent { id: oid(3, 7), seq: 19, fingerprint: 0xDEAD_BEEF },
            WalRecord::PutConfirmed { id: oid(3, 7), version: 43, fingerprint: 0xDEAD_BEEF },
            WalRecord::Clean { id: oid(2, 9) },
            WalRecord::ClientState { next_seq: 77, horizon: 70 },
            WalRecord::PutAbandoned { id: oid(3, 7) },
            WalRecord::HandoffIntent {
                root: oid(3, 7),
                successor: SiteId::new(4),
            },
            WalRecord::HandoffComplete { root: oid(3, 7) },
        ];
        for r in records {
            let bytes = r.encode();
            assert_eq!(WalRecord::decode(&bytes).unwrap(), r, "{r:?}");
        }
    }

    fn delta(site: u32, n: u64, byte: u8) -> (SiteId, ReplicaState) {
        let state = ReplicaState {
            id: oid(site, n),
            class: "Counter".into(),
            version: 300 + n,
            state: Bytes::from(vec![byte; 5]),
        };
        (SiteId::new(site), state)
    }

    fn op_with(deltas: Vec<(SiteId, ReplicaState)>) -> WalRecord {
        WalRecord::Op {
            target: oid(3, 7),
            method: "add".into(),
            args: vec![ObiValue::I64(5)],
            succeeded: true,
            deltas,
        }
    }

    #[test]
    fn an_op_round_trips_with_no_one_and_two_deltas() {
        let bare = op_with(vec![]).encode();
        for deltas in [vec![], vec![delta(3, 7, 0xAA)], vec![delta(3, 7, 0xAA), delta(4, 9, 0xBB)]] {
            let record = op_with(deltas.clone());
            let bytes = record.encode();
            assert_eq!(WalRecord::decode(&bytes).unwrap(), record);
            // The deltas follow the delta-less form, which is what the
            // parent wrote: nothing before them moved.
            assert_eq!(bytes[..bare.len()], bare[..]);
            assert_eq!(bytes.len() == bare.len(), deltas.is_empty());
        }
    }

    #[test]
    fn an_op_cut_inside_its_delta_list_is_a_decode_error() {
        let bare = op_with(vec![]).encode();
        let full = op_with(vec![delta(3, 7, 0xAA), delta(4, 9, 0xBB)]).encode();
        for cut in 0..full.len() {
            let decoded = WalRecord::decode(&full[..cut]);
            if cut == bare.len() {
                // Exactly after `succeeded`: the delta-less record.
                assert_eq!(decoded.unwrap(), op_with(vec![]));
            } else {
                assert!(matches!(decoded, Err(ObiError::Decode(_))), "cut={cut}: {decoded:?}");
            }
        }
    }

    #[test]
    fn unknown_tag_is_a_decode_error() {
        let err = WalRecord::decode(&[200]).unwrap_err();
        assert!(matches!(err, ObiError::Decode(_)), "{err}");
    }

    #[test]
    fn truncated_payload_is_a_decode_error() {
        let full = WalRecord::PutIntent { id: oid(1, 2), seq: 3, fingerprint: 9 }.encode();
        for cut in 0..full.len() {
            assert!(WalRecord::decode(&full[..cut]).is_err(), "cut={cut}");
        }
        let full = WalRecord::HandoffIntent {
            root: oid(1, 2),
            successor: SiteId::new(3),
        }
        .encode();
        for cut in 0..full.len() {
            assert!(WalRecord::decode(&full[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn fingerprint_distinguishes_states_and_is_stable() {
        let s1 = ReplicaState {
            id: oid(1, 1),
            class: "Counter".into(),
            version: 7,
            state: Bytes::from_static(b"\x01\x02\x03"),
        };
        let mut s2 = s1.clone();
        s2.state = Bytes::from_static(b"\x01\x02\x04");
        assert_eq!(state_fingerprint(&s1), state_fingerprint(&s1.clone()));
        assert_ne!(state_fingerprint(&s1), state_fingerprint(&s2));
    }
}
