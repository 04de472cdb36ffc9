//! The sparse histogram file for [`GhHistogram`]: only occupied cells,
//! in a CRC32-framed envelope of its own.
//!
//! The paper observes that the (dense) histogram file size depends only
//! on the grid level and spikes build times once it no longer fits in
//! memory. On clustered data most cells are empty at high levels, so a
//! sparse encoding — only cells with non-zero mass, keyed by flat index —
//! can be far smaller. Estimation still runs on the dense in-memory form;
//! sparsity is purely a storage and interchange concern.
//!
//! The file uses the framing of the `.hist` envelope (`traits.rs`),
//! with its own magic and [`SPARSE_VERSION`], so truncation and
//! bit-flips are typed errors, never a different histogram. `crates/server/tests/format_golden.rs` pins this file's
//! bytes under `SPARSE_VERSION`. All little-endian:
//!
//! ```text
//! magic "SJSP" u32 | version u32 | kind tag u32 (GH) | payload_len u64 | payload | crc32 u32
//! payload: level u32 | extent 4 × f64 | n u64 | occupied u64
//!   | occupied × (index u32, strictly ascending | c u32 | o, h, v: 16-byte masses)
//! ```
//!
//! Version 1 is the only layout read. The unframed sparse files of
//! earlier builds (magic "SJGS", no length frame or checksum) fail the
//! magic check like any other foreign file.

#![warn(clippy::indexing_slicing)]

use crate::mass::Mass;
use crate::schema::Family;
use crate::traits::{open_envelope, seal_envelope};
use crate::{CorruptSection, GhHistogram, HistogramError, HistogramKind};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Envelope magic of sparse GH histogram files.
pub const SPARSE_MAGIC: u32 = 0x534a_5350; // "SJSP"
/// Sparse-file format version; bump on incompatible layout changes.
/// Version 1 is the first framed layout and the only one read.
pub const SPARSE_VERSION: u32 = 1;

/// Payload bytes before the cell records: level, extent, `n`, count.
pub(crate) const PAYLOAD_HEADER_LEN: usize = 4 + 32 + 8 + 8;
/// Bytes of one cell record: index, `c`, then `o`, `h`, `v`.
pub(crate) const RECORD_LEN: usize = 4 + 4 + 3 * 16;

impl GhHistogram {
    /// Number of cells with any non-zero statistic.
    #[must_use]
    pub fn occupied_cells(&self) -> usize {
        (0..self.c.len()).filter(|&i| self.occupied(i)).count()
    }

    /// Whether cell `i` holds any non-zero statistic.
    fn occupied(&self, i: usize) -> bool {
        self.c.get(i).is_some_and(|c| *c != 0)
            || [&self.o, &self.h, &self.v]
                .iter()
                .any(|m| m.get(i).is_some_and(|m| !m.is_zero()))
    }

    /// Serializes the sparse histogram file: only occupied cells, framed
    /// and checksummed. Decodable by [`Self::from_sparse_bytes`] to the
    /// identical histogram.
    #[must_use]
    pub fn to_sparse_bytes(&self) -> Bytes {
        to_bytes(self)
    }

    /// Size of the sparse file in bytes (data-dependent, unlike
    /// [`Self::size_bytes`]).
    #[must_use]
    pub fn sparse_size_bytes(&self) -> usize {
        24 + PAYLOAD_HEADER_LEN + self.occupied_cells() * RECORD_LEN
    }

    /// Decodes a sparse histogram file written by
    /// [`Self::to_sparse_bytes`], verifying its length frame and CRC32
    /// before the payload is read.
    ///
    /// # Errors
    /// Returns [`HistogramError::Corrupt`] on malformed input, including
    /// a foreign magic (such as the unframed sparse layout of earlier
    /// builds), another version or kind, a failed checksum, or cell
    /// records that are out of range or not strictly ascending.
    pub fn from_sparse_bytes(full: &[u8]) -> Result<Self, HistogramError> {
        from_bytes(full)
    }
}

/// Writes the sparse file of `h`.
fn to_bytes(h: &GhHistogram) -> Bytes {
    let occupied = h.occupied_cells();
    let mut buf = BytesMut::with_capacity(PAYLOAD_HEADER_LEN + occupied * RECORD_LEN);
    let grid = Family::grid(h);
    buf.put_u32_le(grid.level());
    let e = grid.extent().rect();
    for val in [e.xlo, e.ylo, e.xhi, e.yhi] {
        buf.put_f64_le(val);
    }
    buf.put_u64_le(h.n);
    buf.put_u64_le(occupied as u64);
    for i in (0..h.c.len()).filter(|&i| h.occupied(i)) {
        let (Some(c), Some(o), Some(hh), Some(v)) =
            (h.c.get(i), h.o.get(i), h.h.get(i), h.v.get(i))
        else {
            continue;
        };
        // Cell indices are below 4^MAX_LEVEL < 2^32.
        buf.put_u32_le(u32::try_from(i).unwrap_or(u32::MAX));
        buf.put_u32_le(*c);
        o.put_le(&mut buf);
        hh.put_le(&mut buf);
        v.put_le(&mut buf);
    }
    seal_envelope(SPARSE_MAGIC, SPARSE_VERSION, HistogramKind::Gh, &buf)
}

/// Reads a sparse file written by [`to_bytes`].
fn from_bytes(full: &[u8]) -> Result<GhHistogram, HistogramError> {
    let (kind, mut data) = open_envelope(full, SPARSE_MAGIC, SPARSE_VERSION, "sparse file")?;
    let corrupt = |s: CorruptSection, m: &str| HistogramError::corrupt(s, m);
    if kind != HistogramKind::Gh {
        return Err(corrupt(
            CorruptSection::Envelope,
            "sparse files hold revised GH histograms only",
        ));
    }
    if data.remaining() < PAYLOAD_HEADER_LEN {
        return Err(corrupt(CorruptSection::Header, "truncated header"));
    }
    let level = data.get_u32_le();
    let coords = (
        data.get_f64_le(),
        data.get_f64_le(),
        data.get_f64_le(),
        data.get_f64_le(),
    );
    let grid = crate::grid::grid_from_header(level, coords)?;
    let n = data.get_u64_le();
    let occupied = data.get_u64_le();
    let occupied = usize::try_from(occupied)
        .ok()
        .filter(|o| *o <= grid.num_cells())
        .ok_or_else(|| corrupt(CorruptSection::Payload, "occupied count exceeds cell count"))?;
    if data.remaining() != occupied * RECORD_LEN {
        return Err(corrupt(CorruptSection::Payload, "payload size mismatch"));
    }
    let mut h = GhHistogram::zeroed(grid);
    h.n = n;
    let mut last_idx: Option<u32> = None;
    for _ in 0..occupied {
        let idx = data.get_u32_le();
        if last_idx.is_some_and(|prev| idx <= prev) {
            return Err(corrupt(
                CorruptSection::Payload,
                "cell indices must be strictly increasing",
            ));
        }
        last_idx = Some(idx);
        let slot = crate::grid::ix(idx);
        let (Some(c), Some(o), Some(hh), Some(v)) = (
            h.c.get_mut(slot),
            h.o.get_mut(slot),
            h.h.get_mut(slot),
            h.v.get_mut(slot),
        ) else {
            return Err(corrupt(CorruptSection::Payload, "cell index out of range"));
        };
        *c = data.get_u32_le();
        *o = Mass::get_le(&mut data);
        *hh = Mass::get_le(&mut data);
        *v = Mass::get_le(&mut data);
    }
    Ok(h)
}
