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
//!
//! One sliced loop is a single dependency chain: each word waits for
//! the CRC of the word before it. An input longer than `LANE_FLOOR`
//! (64 KiB: a compacted `<table>.base` or a level-7 `.hist` envelope,
//! not the wire frame, WAL record or delta of an ordinary batch) is cut
//! into three equal lanes of whole words plus a tail, and one loop folds
//! a word of each lane per step, so three independent chains overlap in
//! the CPU. The lanes are then joined exactly. The CRC register update
//! is linear over GF(2) in the register and the input together, so the
//! register after `A ‖ B` is the register after `A`, advanced over `|B|`
//! zero bytes, XOR the register after `B` started from zero. Advancing
//! over `n` zero bytes is multiplication by `x^(8n) mod P` in the
//! reflected representation — the identity behind zlib's
//! `crc32_combine`. The lanes therefore give the bytewise loop's
//! checksum bit for bit, at every length and alignment (the tests check
//! both).
//!
//! The same identity is public as two functions: [`resume`] continues a
//! raw register over more input, and [`shift`] advances one over zero
//! bytes. A caller that keeps the register of bytes that have not
//! changed since it last hashed them (the row section of a compacted
//! `<table>.base`, DESIGN.md §13.3) hashes only the bytes that did.

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

/// Inputs longer than this many bytes fold in three lanes. Below it
/// the lane join (a few hundred shifts and XORs) is not worth paying.
const LANE_FLOOR: usize = 64 * 1024;

/// `a · b mod P` over GF(2), both in the reflected representation
/// (bit 31 is `x^0`).
const fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut product = 0u32;
    let mut m = 1u32 << 31;
    while m != 0 {
        if a & m != 0 {
            product ^= b;
        }
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
        m >>= 1;
    }
    product
}

/// `X2N[k] = x^(2^k) mod P`, reflected: squaring `x` repeatedly.
const fn build_x2n() -> [u32; 64] {
    let mut table = [0u32; 64];
    let mut p = 1u32 << 30; // x^1
    let mut k = 0usize;
    while k < 64 {
        table[k] = p;
        p = multmodp(p, p);
        k += 1;
    }
    table
}

static X2N: [u32; 64] = build_x2n();

/// `x^(8n) mod P`, reflected: the operator that advances a CRC register
/// over `n` zero bytes (`8n = n · 2^3`, so bit `j` of `n` selects
/// `x^(2^(j+3))`).
fn zero_bytes_operator(mut n: usize) -> u32 {
    let mut p = 1u32 << 31; // x^0
    let mut k = 3usize;
    while n != 0 {
        if n & 1 != 0 {
            p = multmodp(X2N[k % 64], p);
        }
        n >>= 1;
        k += 1;
    }
    p
}

/// Folds one 8-byte word into the running register.
fn fold_word(crc: u32, word: &[u8; 8]) -> u32 {
    let [b0, b1, b2, b3, b4, b5, b6, b7] = *word;
    let lo = crc ^ u32::from_le_bytes([b0, b1, b2, b3]);
    let hi = u32::from_le_bytes([b4, b5, b6, b7]);
    lookup(7, lo)
        ^ lookup(6, lo >> 8)
        ^ lookup(5, lo >> 16)
        ^ lookup(4, lo >> 24)
        ^ lookup(3, hi)
        ^ lookup(2, hi >> 8)
        ^ lookup(1, hi >> 16)
        ^ lookup(0, hi >> 24)
}

/// The register after `data`, starting from `crc`: whole words sliced,
/// then the tail bytewise.
fn sliced(mut crc: u32, data: &[u8]) -> u32 {
    let (words, tail) = data.as_chunks::<8>();
    for word in words {
        crc = fold_word(crc, word);
    }
    for &byte in tail {
        crc = (crc >> 8) ^ lookup(0, crc ^ u32::from(byte));
    }
    crc
}

/// The register after `data`, starting from `crc`, with the input cut
/// into three lanes of `len / 24` words each, folded side by side and
/// joined (module docs), then the tail sliced. Exact at every length.
fn laned(crc: u32, data: &[u8]) -> u32 {
    let lane = data.len() / 24 * 8;
    let (a, rest) = data.split_at(lane);
    let (b, rest) = rest.split_at(lane);
    let (c, tail) = rest.split_at(lane);
    let (mut ra, mut rb, mut rc) = (crc, 0u32, 0u32);
    for ((wa, wb), wc) in a
        .as_chunks::<8>()
        .0
        .iter()
        .zip(b.as_chunks::<8>().0)
        .zip(c.as_chunks::<8>().0)
    {
        ra = fold_word(ra, wa);
        rb = fold_word(rb, wb);
        rc = fold_word(rc, wc);
    }
    let shift = zero_bytes_operator(lane);
    let joined = multmodp(shift, multmodp(shift, ra) ^ rb) ^ rc;
    sliced(joined, tail)
}

/// CRC32 checksum of `data` (init `0xFFFF_FFFF`, final XOR, reflected).
/// Inputs longer than 64 KiB fold in three lanes; the checksum
/// is the same either way. `!crc32(a)` is the raw register after `a`,
/// which [`resume`] continues.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    !resume(0xFFFF_FFFF, data)
}

/// The raw register (no final XOR) after `data`, continuing from
/// `register`: `!resume(!crc32(a), b)` is `crc32` of `a ‖ b`, and
/// `resume(0, b)` is the register of `b` alone, which [`shift`] joins
/// to the register before it.
#[must_use]
pub fn resume(register: u32, data: &[u8]) -> u32 {
    if data.len() > LANE_FLOOR {
        laned(register, data)
    } else {
        sliced(register, data)
    }
}

/// `register` advanced over `n` zero bytes. The register after `a ‖ b`
/// is `shift(register after a, |b|) ^ resume(0, b)` (module docs), so a
/// cached register of `b` joins whatever comes before it without
/// rehashing `b`.
#[must_use]
pub fn shift(register: u32, n: usize) -> u32 {
    multmodp(zero_bytes_operator(n), register)
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

    /// `len` xorshift bytes.
    fn xorshift_bytes(len: usize) -> Vec<u8> {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state.to_le_bytes()[0]
            })
            .collect()
    }

    /// The bytewise checksum of every prefix `data[..len]`, one pass.
    fn bytewise_prefixes(data: &[u8]) -> Vec<u32> {
        let mut crc = 0xFFFF_FFFFu32;
        let mut out = vec![!crc];
        for &byte in data {
            crc = (crc >> 8) ^ lookup(0, crc ^ u32::from(byte));
            out.push(!crc);
        }
        out
    }

    /// Slicing-by-8 is bit-identical to the bytewise loop at every
    /// length (each tail length, many whole words) and every start
    /// offset within a word.
    #[test]
    fn sliced_matches_bytewise_at_every_length_and_offset() {
        let data = xorshift_bytes(1024 + 8);
        for offset in 0..8 {
            for len in 0..=1024 {
                let slice = &data[offset..offset + len];
                assert_eq!(crc32(slice), bytewise(slice), "offset {offset}, len {len}");
            }
        }
    }

    /// The three-lane fold equals the bytewise loop at every length
    /// from 0 to a few words past three lanes of 128 words (every lane
    /// length, every tail length, lanes of zero words) and at every
    /// start offset within a word. `laned` has no floor of its own, so
    /// a small span covers every way a length splits into lanes.
    #[test]
    fn laned_matches_bytewise_at_every_length_and_offset() {
        let span = 3 * 1024 + 5 * 8;
        let data = xorshift_bytes(span + 8);
        for offset in 0..8 {
            let want = bytewise_prefixes(&data[offset..]);
            for len in 0..=span {
                let got = !laned(0xFFFF_FFFF, &data[offset..offset + len]);
                assert_eq!(got, want[len], "offset {offset}, len {len}");
            }
        }
    }

    /// `crc32` itself at every length within a few words of the lane
    /// floor and of three times it — where it switches to lanes and
    /// where the lanes first hold more than a floor's worth — at every
    /// start offset.
    #[test]
    fn crc32_matches_bytewise_around_the_lane_floor() {
        let data = xorshift_bytes(3 * LANE_FLOOR + 64 + 8);
        for offset in 0..8 {
            let want = bytewise_prefixes(&data[offset..]);
            for centre in [LANE_FLOOR, 3 * LANE_FLOOR] {
                for len in centre - 40..=centre + 40 {
                    let got = crc32(&data[offset..offset + len]);
                    assert_eq!(got, want[len], "offset {offset}, len {len}");
                }
            }
        }
    }

    /// A compacted base's size: 6 MB through the lanes.
    #[test]
    fn crc32_matches_bytewise_on_six_megabytes() {
        let data = xorshift_bytes(6 << 20);
        assert_eq!(crc32(&data), bytewise(&data));
        assert_eq!(crc32(&data[3..]), bytewise(&data[3..]));
    }

    /// The join operator: advancing over `n` zero bytes equals folding
    /// `n` zero bytes bytewise, from any register.
    #[test]
    fn zero_bytes_operator_advances_over_zeros() {
        for n in [0usize, 1, 7, 8, 9, 100, 4096, 65_537] {
            for start in [0u32, 1, 0xFFFF_FFFF, 0x1234_5678] {
                let mut want = start;
                for _ in 0..n {
                    want = (want >> 8) ^ lookup(0, want);
                }
                assert_eq!(shift(start, n), want, "n {n}");
            }
        }
    }

    /// `a ‖ b` two ways from its parts: `resume` continuing the
    /// register of `a` over `b`, and `shift` joining the register of
    /// `b` alone to it. Both must give `crc32` of the whole.
    fn assert_split_composes(data: &[u8], at: usize, want: u32) {
        let (a, b) = data.split_at(at);
        let head = !crc32(a);
        assert_eq!(
            !resume(head, b),
            want,
            "resume, len {}, split {at}",
            data.len()
        );
        let joined = shift(head, b.len()) ^ resume(0, b);
        assert_eq!(!joined, want, "shift, len {}, split {at}", data.len());
    }

    /// Every split of every length up to a few words past three lanes
    /// of a short input composes exactly.
    #[test]
    fn every_split_of_short_inputs_composes() {
        let data = xorshift_bytes(200);
        let want = bytewise_prefixes(&data);
        for len in 0..=data.len() {
            for at in 0..=len {
                assert_split_composes(&data[..len], at, want[len]);
            }
        }
    }

    /// Splits whose parts sit on either side of the lane floor and of
    /// the three-lane cut of the whole or of either part: wherever
    /// `resume` switches between one chain and three, the parts still
    /// compose to the whole.
    #[test]
    fn splits_around_the_lane_floor_and_cut_compose() {
        for len in [LANE_FLOOR + 1, 2 * LANE_FLOOR + 33, 3 * LANE_FLOOR + 64] {
            let data = xorshift_bytes(len);
            let want = crc32(&data);
            assert_eq!(want, bytewise(&data), "len {len}");
            let cut = len / 24 * 8;
            let mut points = vec![0, len];
            for centre in [
                LANE_FLOOR,
                len - LANE_FLOOR,
                cut,
                2 * cut,
                3 * cut,
                len - cut,
            ] {
                points.extend(centre.saturating_sub(9)..=(centre + 9).min(len));
            }
            for at in points {
                assert_split_composes(&data, at, want);
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
