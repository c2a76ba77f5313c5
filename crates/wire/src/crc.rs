//! CRC-32 (IEEE 802.3 polynomial) for framing durable log records.
//!
//! The WAL in `obiwan-store` frames every record as
//! `len | crc32(payload) | payload`; on recovery a record whose checksum
//! does not match is the torn tail of an interrupted append and everything
//! from it onward is truncated. The checksum lives here, next to the codec
//! the payloads are encoded with, so store and any future readers of the
//! on-disk format share one definition.
//!
//! The function is the standard reflected CRC-32 (polynomial `0xEDB88320`,
//! init and final XOR `0xFFFFFFFF`) — the same function as zlib's `crc32`,
//! chosen so external tooling can verify records.
//!
//! Implementation: slice-by-8. Recovery checksums every byte of the WAL
//! tail it replays, and a journaled offline operation's record carries the
//! replica states it dirtied, so the checksum is on the recovery path's
//! critical bytes. Eight 256-entry tables (built at compile time) let the
//! loop fold eight input bytes per step with independent lookups instead
//! of one dependent lookup per byte; the head is read with
//! `from_le_bytes`, so the input needs no alignment, and the tail of fewer
//! than eight bytes goes through the classic one-table step. The test
//! module keeps that byte-at-a-time loop as the oracle.

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 of `bytes` (IEEE polynomial, zlib-compatible).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ crc;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The oracle: the byte-at-a-time, bit-at-a-time definition, sharing
    /// no table with the implementation.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        // Standard check values for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn every_short_length_at_every_offset_matches_the_bytewise_oracle() {
        // Lengths on both sides of one, two, … eight 8-byte steps, starting
        // at every offset into the buffer: unaligned heads, every tail size.
        let buffer: Vec<u8> = (0..80u32).map(|i| (i.wrapping_mul(167) ^ 0x5A) as u8).collect();
        for offset in 0..8 {
            for len in 0..=64 {
                let slice = &buffer[offset..offset + len];
                assert_eq!(crc32(slice), crc32_bytewise(slice), "offset {offset}, len {len}");
            }
        }
    }

    proptest! {
        #[test]
        fn arbitrary_bytes_match_the_bytewise_oracle(
            bytes in proptest::collection::vec(any::<u8>(), 0..600),
            skip in 0usize..8,
        ) {
            let slice = &bytes[skip.min(bytes.len())..];
            prop_assert_eq!(crc32(slice), crc32_bytewise(slice));
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let payload = b"obiwan wal record payload";
        let base = crc32(payload);
        let mut copy = payload.to_vec();
        for byte in 0..copy.len() {
            for bit in 0..8 {
                copy[byte] ^= 1 << bit;
                assert_ne!(crc32(&copy), base, "flip at {byte}:{bit} undetected");
                copy[byte] ^= 1 << bit;
            }
        }
        assert_eq!(crc32(&copy), base);
    }

    #[test]
    fn truncation_changes_the_checksum() {
        let payload = b"truncation test payload";
        let full = crc32(payload);
        for cut in 0..payload.len() {
            assert_ne!(crc32(&payload[..cut]), full, "cut at {cut} undetected");
        }
    }
}
