//! Hand-rolled CRC32 (IEEE 802.3, reflected polynomial `0xEDB88320`)
//! used by the histogram persistence envelope, the server wire frames
//! and the statistics store. The workspace vendors no checksum crate,
//! and it needs only the one classic variant, so the 256-entry table is
//! built at compile time right here — this module is the workspace's
//! single CRC32 implementation, re-exported as `sj_core::crc` (the
//! self-contained copy in `sj_lint::fingerprint` is deliberate: the
//! checker of this code must not depend on it).

/// Reflected CRC32 polynomial (IEEE 802.3 / zlib / PNG).
const POLY: u32 = 0xEDB8_8320;

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
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
        table[i] = crc;
        i += 1;
    }
    table
}

static TABLE: [u32; 256] = build_table();

/// CRC32 checksum of `data` (init `0xFFFF_FFFF`, final XOR, reflected).
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in data {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "keeping only the low byte of the running CRC is the table lookup"
        )]
        let idx = usize::from((crc as u8) ^ byte);
        crc = (crc >> 8) ^ TABLE[idx];
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
