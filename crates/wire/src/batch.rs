//! Replica batches written straight into their reply frames: the provider
//! encodes each state once, into the frame it leaves in (DESIGN.md, "Who
//! copies what"). Every frame is byte for byte what
//! [`Message::encode`](crate::Message::encode) writes for the same batch cut
//! into the same chunks.

use crate::codec::{varint_len, write_varint, Encoder, MAX_VARINT};
use crate::message::{put_batch_tail, put_replica_head, FrontierEdge};
use crate::message::{MSG_GET_MANY_CHUNK, MSG_GET_MANY_REP, MSG_GET_REP};
use bytes::Bytes;
use obiwan_util::{ClusterId, ObjId, RequestId};

/// Free bytes in front of each chunk for its frame header, which is written
/// once the batch is closed. The largest header, a tag, a request id, a
/// chunk index and total, the root and a replica count, is
/// 1 + 15 + 10 + 15 + 10 = 51 bytes.
const HEADROOM: usize = 64;

/// The trailer of a chunk with no frontier: its count, the cluster flag and
/// a cluster id.
const TRAILER: usize = 2 + 5 + MAX_VARINT;

/// Entries a chunk buffer is sized for at most (a one-frame reply may hold a
/// whole graph), and the first buffer, before any entry could size it.
const SIZE_AHEAD: usize = 64;
const FIRST_GUESS: usize = 4096;

#[derive(Debug)]
struct Chunk {
    /// The headroom, the chunk's entries and, once closed, its trailer.
    buf: Vec<u8>,
    replicas: usize,
}

impl Chunk {
    /// Writes the header (`tag`, `request`, `fields`, `root`, the replica
    /// count) at the end of the headroom and returns the frame from there.
    fn frame(self, tag: u8, request: RequestId, fields: &[u64], root: ObjId) -> Bytes {
        let ids = [u64::from(request.origin().as_u32()), request.seq()];
        let closing = [u64::from(root.site().as_u32()), root.local(), self.replicas as u64];
        let mut head = [tag; HEADROOM];
        let mut len = 1;
        for &v in ids.iter().chain(fields).chain(&closing) {
            len += write_varint(&mut head[len..], v);
        }
        let (start, mut buf) = (HEADROOM - len, self.buf);
        buf[start..HEADROOM].copy_from_slice(&head[..len]);
        Bytes::from(buf).slice(start..)
    }
}

/// Writes a batch's replicas into their frames, `per_chunk` to a frame
/// (`usize::MAX`: one frame).
///
/// An entry is what the wire has: id, class, version, then the state behind
/// its length prefix. The prefix is written first, at the width the
/// previous state's length took; a state that needs another width (where
/// neighbours straddle 128 or 16 384 bytes) is moved once. A chunk's buffer
/// is sized from the entry before it, so no frame grows by doubling.
#[derive(Debug, Default)]
pub struct BatchWriter {
    per_chunk: usize,
    chunks: Vec<Chunk>,
    /// Bytes of the last entry written, and of its state.
    last_entry: usize,
    last_state: usize,
    state_bytes: usize,
}

impl BatchWriter {
    /// A writer of `per_chunk` replicas (at least one) to a frame.
    pub fn new(per_chunk: usize) -> Self {
        BatchWriter { per_chunk: per_chunk.max(1), ..Self::default() }
    }

    /// Appends one replica: `id`, `class`, `version`, and the state that
    /// `state` writes at the end of the encoder it is given.
    pub fn push(&mut self, id: ObjId, class: &str, version: u64, state: impl FnOnce(&mut Encoder)) {
        let guess = varint_len(self.last_state as u64);
        let chunk = self.open_chunk();
        let start = chunk.buf.len();
        let mut enc = Encoder::over(std::mem::take(&mut chunk.buf));
        put_replica_head(&mut enc, id, class, version);
        let prefix = enc.len();
        (0..guess).for_each(|_| enc.put_u8(0));
        state(&mut enc);
        let mut buf = enc.into_vec();
        let len = buf.len() - prefix - guess;
        let width = varint_len(len as u64);
        if width != guess {
            buf.resize(buf.len().max(prefix + width + len), 0);
            buf.copy_within(prefix + guess..prefix + guess + len, prefix + width);
            buf.truncate(prefix + width + len);
        }
        write_varint(&mut buf[prefix..], len as u64);
        let entry = buf.len() - start;
        chunk.buf = buf;
        chunk.replicas += 1;
        (self.last_entry, self.last_state) = (entry, len);
        self.state_bytes += len;
    }

    /// The chunk the next entry goes into, with room for it: a new chunk is
    /// sized for `per_chunk` entries like the last, and one short of room
    /// for another gets room for the rest of its entries at once.
    fn open_chunk(&mut self) -> &mut Chunk {
        let (per_chunk, entry) = (self.per_chunk, self.last_entry);
        let room = |entries: usize| match entry {
            0 => FIRST_GUESS,
            _ => entries.min(SIZE_AHEAD) * entry + TRAILER,
        };
        if self.chunks.last().is_none_or(|c| c.replicas == per_chunk) {
            let mut buf = Vec::with_capacity(HEADROOM + room(per_chunk));
            buf.resize(HEADROOM, 0);
            self.chunks.push(Chunk { buf, replicas: 0 });
        }
        let last = self.chunks.len() - 1;
        let chunk = &mut self.chunks[last];
        if chunk.buf.capacity() - chunk.buf.len() < entry {
            chunk.buf.reserve(room(per_chunk - chunk.replicas));
        }
        chunk
    }

    /// Closes the batch rooted at `root`: each chunk gets its trailer (the
    /// frontier on the last, `cluster` on all). A batch with no replica is
    /// one empty chunk, so the frontier has a frame.
    pub fn finish(
        mut self,
        root: ObjId,
        frontier: &[FrontierEdge],
        cluster: Option<ClusterId>,
    ) -> WrittenBatch {
        if self.chunks.is_empty() {
            self.chunks.push(Chunk { buf: vec![0; HEADROOM], replicas: 0 });
        }
        let last = self.chunks.len() - 1;
        for (i, chunk) in self.chunks.iter_mut().enumerate() {
            let mut enc = Encoder::over(std::mem::take(&mut chunk.buf));
            put_batch_tail(&mut enc, if i == last { frontier } else { &[] }, cluster);
            chunk.buf = enc.into_vec();
        }
        WrittenBatch { root, chunks: self.chunks, state_bytes: self.state_bytes }
    }
}

/// A batch [`BatchWriter`] wrote, one buffer per frame, waiting for the
/// header that says which request its frames answer.
#[derive(Debug)]
pub struct WrittenBatch {
    root: ObjId,
    chunks: Vec<Chunk>,
    state_bytes: usize,
}

impl WrittenBatch {
    /// Number of chunk frames.
    pub fn chunk_count(&self) -> u32 {
        u32::try_from(self.chunks.len()).expect("every chunk holds a replica, so fewer than 2^32")
    }

    /// Total bytes of replica state, framing and length prefixes excluded.
    pub fn state_bytes(&self) -> usize {
        self.state_bytes
    }

    /// The one frame answering `request` with the whole batch: a
    /// `GetManyReply` when `many`, else a `GetReply`.
    ///
    /// # Panics
    ///
    /// When the batch was written as more than one chunk.
    pub fn into_reply(self, request: RequestId, many: bool) -> Bytes {
        let [chunk] = <[Chunk; 1]>::try_from(self.chunks)
            .unwrap_or_else(|c| panic!("a one-frame reply written as {} chunks", c.len()));
        let tag = if many { MSG_GET_MANY_REP } else { MSG_GET_REP };
        // After the request id, the `Ok` flag: a zero byte, as varint 0 is.
        chunk.frame(tag, request, &[0], self.root)
    }

    /// The `GetManyChunk` frames answering `request`, from chunk
    /// `resume_from` on.
    pub fn into_chunks(self, request: RequestId, resume_from: u32) -> impl Iterator<Item = Bytes> {
        let (root, total) = (self.root, self.chunk_count());
        let chunks = self.chunks.into_iter().zip(0..total).skip(resume_from as usize);
        chunks.map(move |(chunk, index)| {
            chunk.frame(MSG_GET_MANY_CHUNK, request, &[index.into(), total.into()], root)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Message, ReplicaBatch, ReplicaState};
    use obiwan_util::SiteId;

    const MAX_SITE: SiteId = SiteId::new(u32::MAX);

    fn replica(local: u64, len: usize) -> ReplicaState {
        ReplicaState {
            id: ObjId::new(SiteId::new(2), local),
            class: "Node".into(),
            version: local * 7,
            state: Bytes::from(vec![local as u8; len]),
        }
    }

    fn write(batch: &ReplicaBatch, per_chunk: usize) -> WrittenBatch {
        let mut writer = BatchWriter::new(per_chunk);
        for r in &batch.replicas {
            writer.push(r.id, &r.class, r.version, |enc| {
                r.state.iter().for_each(|&b| enc.put_u8(b))
            });
        }
        writer.finish(batch.root, &batch.frontier, batch.cluster)
    }

    /// The reference frames: the batch cut into `per_chunk`-replica chunks
    /// (at least one), the frontier on the last and the cluster id on all,
    /// each encoded as a message.
    fn sliced(batch: &ReplicaBatch, per_chunk: usize, request: RequestId) -> Vec<Bytes> {
        let total = batch.replicas.len().div_ceil(per_chunk).max(1);
        (0..total)
            .map(|i| {
                let last = i + 1 == total;
                let replicas = batch.replicas.iter().skip(i * per_chunk).take(per_chunk);
                Message::GetManyChunk {
                    request,
                    chunk_index: i as u32,
                    total_hint: total as u32,
                    batch: ReplicaBatch {
                        root: batch.root,
                        replicas: replicas.cloned().collect(),
                        frontier: if last {
                            batch.frontier.clone()
                        } else {
                            Vec::new()
                        },
                        cluster: batch.cluster,
                    },
                }
                .encode()
            })
            .collect()
    }

    #[test]
    fn the_largest_header_fits_the_headroom() {
        let mut enc = Encoder::new();
        enc.put_u8(MSG_GET_MANY_CHUNK);
        enc.put_request_id(RequestId::new(MAX_SITE, u64::MAX));
        enc.put_varint(u64::from(u32::MAX));
        enc.put_varint(u64::from(u32::MAX));
        enc.put_obj_id(ObjId::new(MAX_SITE, u64::MAX));
        enc.put_varint(u64::MAX);
        assert_eq!(enc.len(), 51);
        assert!(enc.len() <= HEADROOM);
        assert_eq!(TRAILER, {
            let mut tail = Encoder::new();
            put_batch_tail(&mut tail, &[], Some(ClusterId::new(MAX_SITE, u64::MAX)));
            tail.len()
        });
    }

    /// States on either side of the one-, two- and three-byte length
    /// prefixes, in an order that makes the width guess miss both ways.
    #[test]
    fn frames_equal_the_sliced_messages_across_prefix_widths() {
        let lens = [0, 127, 128, 127, 16_383, 16_384, 1, 16_384, 16_383, 128, 3];
        let batch = ReplicaBatch {
            root: ObjId::new(MAX_SITE, u64::MAX),
            replicas: lens
                .iter()
                .enumerate()
                .map(|(i, &len)| replica(i as u64 + 1, len))
                .collect(),
            frontier: vec![FrontierEdge {
                target: ObjId::new(MAX_SITE, u64::MAX - 1),
                class: "Node".into(),
            }],
            cluster: Some(ClusterId::new(MAX_SITE, u64::MAX)),
        };
        let request = RequestId::new(MAX_SITE, u64::MAX);
        for per_chunk in 1..=lens.len() + 1 {
            let want = sliced(&batch, per_chunk, request);
            let written = write(&batch, per_chunk);
            assert_eq!(written.state_bytes(), lens.iter().sum::<usize>());
            assert_eq!(written.chunk_count() as usize, want.len());
            let got: Vec<Bytes> = written.into_chunks(request, 0).collect();
            assert_eq!(got, want, "{per_chunk} per chunk");
            for resume_from in 0..=want.len() as u32 + 1 {
                let got: Vec<Bytes> = write(&batch, per_chunk)
                    .into_chunks(request, resume_from)
                    .collect();
                assert_eq!(got, want[want.len().min(resume_from as usize)..]);
            }
        }
        for many in [false, true] {
            let reply = write(&batch, usize::MAX).into_reply(request, many);
            let result = Ok(batch.clone());
            let want = if many {
                Message::GetManyReply { request, result }
            } else {
                Message::GetReply { request, result }
            };
            assert_eq!(reply, want.encode());
        }
    }

    #[test]
    fn an_empty_batch_is_one_empty_chunk_carrying_the_frontier() {
        let batch = ReplicaBatch {
            root: ObjId::new(SiteId::new(2), 1),
            replicas: Vec::new(),
            frontier: vec![FrontierEdge {
                target: ObjId::new(SiteId::new(2), 9),
                class: "Node".into(),
            }],
            cluster: None,
        };
        let request = RequestId::new(SiteId::new(1), 4);
        let written = write(&batch, 8);
        assert_eq!(written.chunk_count(), 1);
        assert_eq!(written.state_bytes(), 0);
        let got: Vec<Bytes> = written.into_chunks(request, 0).collect();
        assert_eq!(got, sliced(&batch, 8, request));
    }

    #[test]
    #[should_panic(expected = "a one-frame reply written as 2 chunks")]
    fn a_multi_chunk_batch_is_no_one_frame_reply() {
        let mut writer = BatchWriter::new(1);
        for local in 1..=2 {
            writer.push(ObjId::new(SiteId::new(2), local), "Node", 1, |enc| {
                enc.put_u8(0)
            });
        }
        let batch = writer.finish(ObjId::new(SiteId::new(2), 1), &[], None);
        let _ = batch.into_reply(RequestId::new(SiteId::new(1), 1), false);
    }
}
