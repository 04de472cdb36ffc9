//! Hand-rolled CRC32 (IEEE 802.3, reflected polynomial `0xEDB88320`)
//! used by the histogram persistence envelope, the server wire frames
//! and the statistics store. The workspace vendors no checksum crate,
//! and it needs only the one classic variant, so the lookup tables are
//! built at compile time right here — this module is the workspace's
//! single CRC32 implementation, re-exported as `sj_core::crc`.
//!
//! The loop is slicing-by-8: table `k` maps a byte to its CRC after `k`
//! further zero bytes, so eight lookups fold one 8-byte word into the
//! running CRC at once; a tail shorter than eight bytes takes the
//! classic bytewise step. Both steps are exact rewritings of the
//! bytewise recurrence, so every checksum is unchanged.

/// Reflected CRC32 polynomial (IEEE 802.3 / zlib / PNG).
const POLY: u32 = 0xEDB8_8320;

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0usize;
    while i < 256 {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "i < 256 fits u32; u32::try_from is not const"
        )]
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1usize;
    while k < 8 {
        let mut i = 0usize;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// Table lookup for the low byte of `x` in table `k`.
fn lookup(k: usize, x: u32) -> u32 {
    TABLES[k][(x & 0xFF) as usize]
}

/// CRC32 checksum of `data` (init `0xFFFF_FFFF`, final XOR, reflected).
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        let lo = crc ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        crc = lookup(7, lo)
            ^ lookup(6, lo >> 8)
            ^ lookup(5, lo >> 16)
            ^ lookup(4, lo >> 24)
            ^ lookup(3, hi)
            ^ lookup(2, hi >> 8)
            ^ lookup(1, hi >> 16)
            ^ lookup(0, hi >> 24);
    }
    for &byte in words.remainder() {
        crc = (crc >> 8) ^ lookup(0, crc ^ u32::from(byte));
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The canonical check value of the IEEE CRC32 variant.
    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// All-ones and all-zeros blocks exercise the table's extremes; the
    /// expected values are cross-checked against zlib's `crc32()`.
    #[test]
    fn saturated_blocks() {
        assert_eq!(crc32(&[0xFF]), 0xFF00_0000);
        assert_eq!(crc32(&[0xFF; 32]), 0xFF6C_AB0B);
        assert_eq!(crc32(&[0x00; 32]), 0x190A_55AD);
    }

    /// Incremental property the envelope relies on: a CRC mismatch on a
    /// prefix never cancels out when more bytes are appended unchanged.
    #[test]
    fn prefix_corruption_persists() {
        let clean = b"header|payload|trailer".to_vec();
        let mut dirty = clean.clone();
        dirty[0] ^= 0x80;
        assert_ne!(crc32(&clean), crc32(&dirty));
        let mut clean_ext = clean;
        let mut dirty_ext = dirty;
        clean_ext.extend_from_slice(b"....");
        dirty_ext.extend_from_slice(b"....");
        assert_ne!(crc32(&clean_ext), crc32(&dirty_ext));
    }

    /// The classic one-table bytewise loop the sliced loop replaces.
    fn bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &byte in data {
            crc = (crc >> 8) ^ lookup(0, crc ^ u32::from(byte));
        }
        !crc
    }

    /// Slicing-by-8 is bit-identical to the bytewise loop at every
    /// length (each tail length, many whole words) and every start
    /// offset within a word.
    #[test]
    fn sliced_matches_bytewise_at_every_length_and_offset() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let data: Vec<u8> = (0..1024 + 8)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state.to_le_bytes()[0]
            })
            .collect();
        for offset in 0..8 {
            for len in 0..=1024 {
                let slice = &data[offset..offset + len];
                assert_eq!(crc32(slice), bytewise(slice), "offset {offset}, len {len}");
            }
        }
    }

    #[test]
    fn sensitive_to_any_single_bit() {
        let base = b"selectivity".to_vec();
        let reference = crc32(&base);
        for pos in 0..base.len() {
            for bit in 0..8u8 {
                let mut flipped = base.clone();
                flipped[pos] ^= 1 << bit;
                assert_ne!(crc32(&flipped), reference, "flip at {pos}:{bit}");
            }
        }
    }
}
