//! The [`SpatialHistogram`] trait: one mergeable-sketch interface over
//! all four histogram families, plus versioned persistence envelopes.
//!
//! Every family's per-cell statistics are pure sums over the input MBRs,
//! so any two histograms of the same kind on the same grid can be merged
//! by adding their statistics — and because the fractional masses are
//! accumulated exactly ([`crate::mass`]), merging *any* sharding of a
//! dataset (row bands or rectangle ranges) reproduces the serial build
//! bit-for-bit. The trait packages that contract behind one object-safe
//! interface so the estimator, catalog and CLI layers can treat the
//! families uniformly.
//!
//! Persistence wraps each family's native byte format in a small
//! versioned envelope so a single [`load_histogram`] call can revive any
//! kind. The envelope (version 2, the only accepted layout) is
//! length-framed and checksummed:
//!
//! ```text
//! magic u32 | version u32 | kind tag u32 | payload_len u64 | payload | crc32 u32
//! ```
//!
//! The trailing CRC32 covers every preceding byte, so truncation and
//! bit-flips surface as typed [`HistogramError::Corrupt`] values instead
//! of panics or silently-wrong statistics. Any other version is rejected
//! the same way.

#![warn(clippy::indexing_slicing)]

use crate::crc::crc32;
use crate::delta::HistogramDelta;
use crate::schema::Family;
use crate::{
    CorruptSection, EulerHistogram, GhBasicHistogram, GhHistogram, Grid, HistogramError,
    PhHistogram, SelectivityEstimate,
};
use bytes::{Buf, BufMut, Bytes};
use sj_geo::Rect;
use std::any::Any;

/// Envelope magic for persisted histograms of any kind.
const ENVELOPE_MAGIC: u32 = 0x534a_5348; // "SJSH"
/// Envelope format version; bump on incompatible layout changes.
/// Version 2 added the payload length frame and the trailing CRC32.
const ENVELOPE_VERSION: u32 = 2;

/// Identifies one of the four histogram families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HistogramKind {
    /// Parametric Histogram (paper Section 3.1.2).
    Ph,
    /// Basic Geometric Histogram (paper Eq. 4).
    GhBasic,
    /// Revised Geometric Histogram — the paper's headline scheme (Eq. 5).
    Gh,
    /// Euler histogram (exact cell-resolution counting).
    Euler,
}

impl HistogramKind {
    /// All four kinds, in tag order.
    pub const ALL: [HistogramKind; 4] = [
        HistogramKind::Ph,
        HistogramKind::GhBasic,
        HistogramKind::Gh,
        HistogramKind::Euler,
    ];

    /// Stable lowercase name, matching the CLI `--kind` spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            HistogramKind::Ph => "ph",
            HistogramKind::GhBasic => "gh-basic",
            HistogramKind::Gh => "gh",
            HistogramKind::Euler => "euler",
        }
    }

    /// Stable numeric tag used in the persistence envelope.
    #[must_use]
    pub fn tag(self) -> u32 {
        match self {
            HistogramKind::Ph => 1,
            HistogramKind::GhBasic => 2,
            HistogramKind::Gh => 3,
            HistogramKind::Euler => 4,
        }
    }

    /// Inverse of [`Self::tag`].
    #[must_use]
    pub fn from_tag(tag: u32) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.tag() == tag)
    }
}

impl std::fmt::Display for HistogramKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for HistogramKind {
    type Err = HistogramError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::ALL
            .into_iter()
            .find(|k| k.name() == s)
            .ok_or_else(|| {
                HistogramError::corrupt(
                    CorruptSection::Envelope,
                    format!("unknown histogram kind {s:?}"),
                )
            })
    }
}

/// A grid histogram usable as a mergeable sketch: buildable from MBRs,
/// mergeable with another same-kind/same-grid histogram, able to estimate
/// join selectivity against its own kind, and persistable.
///
/// Implemented by [`PhHistogram`], [`GhBasicHistogram`], [`GhHistogram`]
/// and [`EulerHistogram`]. Merging shard builds is *bit-for-bit* equal to
/// building serially over the concatenated input — see the row-band driver in `band.rs`.
///
/// # Examples
///
/// Build two shard histograms, merge them, and check the result is
/// byte-identical to one serial build over all the data — then round-trip
/// it through the persistence envelope and estimate a join:
///
/// ```
/// use sj_geo::{Extent, Rect};
/// use sj_histogram::{load_histogram, Grid, GhHistogram, SpatialHistogram};
///
/// let grid = Grid::new(4, Extent::unit())?;
/// let shard_a = vec![Rect::new(0.10, 0.10, 0.22, 0.18)];
/// let shard_b = vec![Rect::new(0.15, 0.05, 0.20, 0.30)];
/// let all: Vec<Rect> = shard_a.iter().chain(&shard_b).copied().collect();
///
/// // Shard-and-merge equals the serial build, bit for bit.
/// let mut merged = GhHistogram::build_from(grid, &shard_a);
/// merged.merge(&GhHistogram::build_from(grid, &shard_b))?;
/// let serial = GhHistogram::build_from(grid, &all);
/// assert_eq!(merged.to_bytes(), serial.to_bytes());
///
/// // Persistence round trip through the versioned envelope.
/// let revived = load_histogram(&merged.persist())?;
/// assert_eq!(revived.kind(), merged.kind());
/// assert_eq!(revived.to_bytes(), merged.to_bytes());
///
/// // The two crossing MBRs intersect: the join estimate sees them.
/// let est = revived.estimate_join(&serial)?;
/// assert!(est.pairs > 0.0);
/// # Ok::<(), sj_histogram::HistogramError>(())
/// ```
pub trait SpatialHistogram: std::fmt::Debug + Send + Sync {
    /// Which family this histogram belongs to.
    fn kind(&self) -> HistogramKind;

    /// The grid the histogram was built on.
    fn grid(&self) -> Grid;

    /// Cardinality of the summarized dataset.
    fn dataset_len(&self) -> usize;

    /// Size of the native histogram file in bytes — the paper's space
    /// cost.
    fn space_bytes(&self) -> usize;

    /// Serializes the family's native (un-enveloped) byte format.
    fn to_bytes(&self) -> Bytes;

    /// Adds `other`'s statistics into `self`.
    ///
    /// # Errors
    /// [`HistogramError::KindMismatch`] when `other` is a different
    /// family, [`HistogramError::GridMismatch`] when the grids differ.
    fn merge(&mut self, other: &dyn SpatialHistogram) -> Result<(), HistogramError>;

    /// Estimates the join selectivity against `other`.
    ///
    /// # Errors
    /// [`HistogramError::KindMismatch`] when `other` is a different
    /// family, [`HistogramError::GridMismatch`] when the grids differ.
    fn estimate_join(
        &self,
        other: &dyn SpatialHistogram,
    ) -> Result<SelectivityEstimate, HistogramError>;

    /// Upcast for kind-checked downcasting (used by [`Self::merge`] and
    /// [`Self::estimate_join`] implementations).
    fn as_any(&self) -> &dyn Any;

    /// Clones into a boxed trait object.
    fn clone_box(&self) -> Box<dyn SpatialHistogram>;

    /// Applies a signed batch delta in place, exactly: after this
    /// returns `Ok`, the histogram is byte-identical to a fresh build
    /// over the mutated dataset (`build(D ∪ Δ⁺ ∖ Δ⁻)`).
    ///
    /// Application is atomic — every statistic update is range-checked
    /// before any is written, so on error the histogram is untouched.
    ///
    /// # Errors
    /// [`HistogramError::KindMismatch`] / [`HistogramError::GridMismatch`]
    /// when the delta was built for a different family or grid;
    /// [`HistogramError::DeltaOutOfRange`] when an update would push a
    /// counter or scalar outside its representable range (e.g. a
    /// delete batch covering objects this histogram never counted);
    /// [`HistogramError::Corrupt`] when the delta's statistic shape does
    /// not match the family (unreachable once kind and grid match).
    fn apply_delta(&mut self, delta: &HistogramDelta) -> Result<(), HistogramError>;

    /// Builds the histogram of `rects` on `grid` (serial).
    #[must_use]
    fn build_from(grid: Grid, rects: &[Rect]) -> Self
    where
        Self: Sized;

    /// Appends the envelope [`Self::persist`] returns to `out`, encoding
    /// the payload in place and checksumming it there: no intermediate
    /// payload buffer and no copy. A caller that embeds the envelope in
    /// a larger file (a compacted `<table>.base`) sizes `out` with
    /// [`Self::persist_len`] first.
    fn persist_into(&self, out: &mut Vec<u8>);

    /// Length in bytes of the envelope [`Self::persist`] returns: the
    /// payload ([`Self::space_bytes`]) plus the 24 bytes of framing.
    fn persist_len(&self) -> usize {
        ENVELOPE_FRAMING + self.space_bytes()
    }

    /// Serializes into the versioned kind-tagged envelope decodable by
    /// [`load_histogram`], regardless of family: a 20-byte header (magic,
    /// version, kind tag, payload length), the native payload, and a
    /// trailing CRC32 over everything before it. The encoder of
    /// [`Self::persist_into`], writing into a fresh buffer.
    fn persist(&self) -> Bytes {
        let mut out = Vec::with_capacity(self.persist_len());
        self.persist_into(&mut out);
        Bytes::from(out)
    }
}

impl Clone for Box<dyn SpatialHistogram> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Downcasts `other` to `H`, reporting a kind mismatch otherwise.
fn same_kind<H: SpatialHistogram + 'static>(
    left: HistogramKind,
    other: &dyn SpatialHistogram,
) -> Result<&H, HistogramError> {
    other
        .as_any()
        .downcast_ref::<H>()
        .ok_or(HistogramError::KindMismatch {
            left,
            right: other.kind(),
        })
}

/// Shared [`SpatialHistogram::merge`] implementation: kind check, grid
/// check, then the declared statistics' exact addition.
fn merge_impl<H>(this: &mut H, other: &dyn SpatialHistogram) -> Result<(), HistogramError>
where
    H: SpatialHistogram + Family + 'static,
{
    let other = same_kind::<H>(H::SCHEMA.kind, other)?;
    let (left, right) = (Family::grid(this), Family::grid(other));
    if !left.compatible(&right) {
        return Err(HistogramError::GridMismatch {
            left_level: left.level(),
            right_level: right.level(),
        });
    }
    crate::schema::merge_same_grid(this, other);
    Ok(())
}

/// Evaluates `$body` with `$H` naming the concrete family type of
/// `$kind` — the one dispatch from a [`HistogramKind`] to its type.
macro_rules! with_family {
    ($kind:expr, $H:ident => $body:expr) => {
        match $kind {
            $crate::HistogramKind::Ph => {
                type $H = $crate::PhHistogram;
                $body
            }
            $crate::HistogramKind::GhBasic => {
                type $H = $crate::GhBasicHistogram;
                $body
            }
            $crate::HistogramKind::Gh => {
                type $H = $crate::GhHistogram;
                $body
            }
            $crate::HistogramKind::Euler => {
                type $H = $crate::EulerHistogram;
                $body
            }
        }
    };
}
pub(crate) use with_family;

macro_rules! impl_spatial_histogram {
    ($ty:ty) => {
        impl SpatialHistogram for $ty {
            fn kind(&self) -> HistogramKind {
                <$ty as Family>::SCHEMA.kind
            }

            fn grid(&self) -> Grid {
                <$ty>::grid(self)
            }

            fn dataset_len(&self) -> usize {
                <$ty>::dataset_len(self)
            }

            fn space_bytes(&self) -> usize {
                self.size_bytes()
            }

            fn to_bytes(&self) -> Bytes {
                <$ty>::to_bytes(self)
            }

            fn persist_into(&self, out: &mut Vec<u8>) {
                seal_envelope_into(out, ENVELOPE_MAGIC, ENVELOPE_VERSION, self.kind(), |out| {
                    crate::schema::encode_into(self, out)
                });
            }

            fn merge(&mut self, other: &dyn SpatialHistogram) -> Result<(), HistogramError> {
                merge_impl(self, other)
            }

            fn estimate_join(
                &self,
                other: &dyn SpatialHistogram,
            ) -> Result<SelectivityEstimate, HistogramError> {
                let other = same_kind::<$ty>(self.kind(), other)?;
                self.estimate(other)
            }

            fn as_any(&self) -> &dyn Any {
                self
            }

            fn clone_box(&self) -> Box<dyn SpatialHistogram> {
                Box::new(self.clone())
            }

            fn apply_delta(&mut self, delta: &HistogramDelta) -> Result<(), HistogramError> {
                crate::delta::apply_impl(self, delta)
            }

            fn build_from(grid: Grid, rects: &[Rect]) -> Self {
                <$ty>::build(grid, rects)
            }
        }
    };
}

impl_spatial_histogram!(PhHistogram);
impl_spatial_histogram!(GhBasicHistogram);
impl_spatial_histogram!(GhHistogram);
impl_spatial_histogram!(EulerHistogram);

/// Builds a boxed histogram of the given `kind` (serial).
#[must_use]
pub fn build_histogram(
    kind: HistogramKind,
    grid: Grid,
    rects: &[Rect],
) -> Box<dyn SpatialHistogram> {
    build_histogram_parallel(kind, grid, rects, 1)
}

/// Builds a boxed histogram of the given `kind`, banding grid rows across
/// `threads` workers; bit-identical to the serial build for every thread
/// count.
#[must_use]
pub fn build_histogram_parallel(
    kind: HistogramKind,
    grid: Grid,
    rects: &[Rect],
    threads: usize,
) -> Box<dyn SpatialHistogram> {
    with_family!(kind, H => Box::new(H::build_parallel(grid, rects, threads)))
}

/// Builds each rectangle shard independently and merges the shard
/// histograms — bit-identical to one serial build over the concatenated
/// shards (exact accumulation makes the merge order irrelevant). An empty
/// shard list yields an empty histogram.
#[must_use]
pub fn build_histogram_sharded(
    kind: HistogramKind,
    grid: Grid,
    shards: &[&[Rect]],
) -> Box<dyn SpatialHistogram> {
    fn sharded<H: SpatialHistogram + Family>(grid: Grid, shards: &[&[Rect]]) -> H {
        let mut acc = H::build_from(grid, shards.first().copied().unwrap_or(&[]));
        for shard in shards.iter().skip(1) {
            // Same kind and grid by construction, so the checked `merge`
            // entry point is unnecessary (and its error path unreachable).
            crate::schema::merge_same_grid(&mut acc, &H::build_from(grid, shard));
        }
        acc
    }
    with_family!(kind, H => Box::new(sharded::<H>(grid, shards)))
}

/// Decodes a histogram of any kind from the envelope written by
/// [`SpatialHistogram::persist`]. The envelope is verified against its
/// length frame and trailing CRC32 before the payload is touched.
///
/// # Errors
/// Returns [`HistogramError::Corrupt`] on malformed input, a version
/// other than the current one, an unknown kind tag, a length-frame
/// mismatch, or a failed checksum.
pub fn load_histogram(full: &[u8]) -> Result<Box<dyn SpatialHistogram>, HistogramError> {
    let (kind, payload) = open_envelope(full, ENVELOPE_MAGIC, ENVELOPE_VERSION, "envelope")?;
    with_family!(kind, H => Ok(Box::new(crate::schema::from_bytes::<H>(payload)?)))
}

/// Bytes an envelope adds around its payload: a 20-byte header and a
/// 4-byte CRC32 trailer.
const ENVELOPE_FRAMING: usize = 24;

/// Writes the framing shared by `.hist` and sparse GH files:
/// `magic u32 | version u32 | kind tag u32 | payload_len u64 | payload |
/// crc32 u32`, the CRC32 covering every byte before it.
pub(crate) fn seal_envelope(
    magic: u32,
    version: u32,
    kind: HistogramKind,
    payload: &[u8],
) -> Bytes {
    let mut out = Vec::with_capacity(ENVELOPE_FRAMING + payload.len());
    seal_envelope_into(&mut out, magic, version, kind, |out| {
        out.extend_from_slice(payload);
    });
    Bytes::from(out)
}

/// Appends the [`seal_envelope`] framing to `out` around the payload
/// `write_payload` appends in place: the header goes first with a zero
/// length, the length is patched once the payload is written, and the
/// CRC32 runs over the envelope's own bytes in `out`.
pub(crate) fn seal_envelope_into(
    out: &mut Vec<u8>,
    magic: u32,
    version: u32,
    kind: HistogramKind,
    write_payload: impl FnOnce(&mut Vec<u8>),
) {
    let start = out.len();
    out.put_u32_le(magic);
    out.put_u32_le(version);
    out.put_u32_le(kind.tag());
    out.put_u64_le(0);
    write_payload(out);
    let payload_len = (out.len() - start - 20) as u64;
    if let Some(frame) = out.get_mut(start + 12..start + 20) {
        frame.copy_from_slice(&payload_len.to_le_bytes());
    }
    let checksum = crc32(out.get(start..).unwrap_or_default());
    out.put_u32_le(checksum);
}

/// Opens the framing written by [`seal_envelope`] —
/// `magic u32 | version u32 | kind tag u32 | payload_len u64 | payload |
/// crc32 u32` — and returns the kind and payload once the magic, the
/// version (exactly `version`: no other is read), the kind tag, the
/// length frame and the CRC32 all check out. `what` names the envelope
/// in error messages.
pub(crate) fn open_envelope<'a>(
    full: &'a [u8],
    magic: u32,
    version: u32,
    what: &str,
) -> Result<(HistogramKind, &'a [u8]), HistogramError> {
    let envelope = |detail: String| HistogramError::corrupt(CorruptSection::Envelope, detail);
    let mut data = full;
    if data.remaining() < 24 {
        return Err(envelope(format!(
            "truncated {what}: {} bytes, need at least 24",
            full.len()
        )));
    }
    if data.get_u32_le() != magic {
        return Err(envelope(format!("bad {what} magic")));
    }
    let found = data.get_u32_le();
    if found != version {
        return Err(envelope(format!("unsupported {what} version {found}")));
    }
    let tag = data.get_u32_le();
    let kind = HistogramKind::from_tag(tag)
        .ok_or_else(|| envelope(format!("unknown histogram kind tag {tag}")))?;
    let payload_len = data.get_u64_le();
    let framed_total = payload_len
        .checked_add(24)
        .ok_or_else(|| envelope(format!("absurd payload length {payload_len}")))?;
    if framed_total != full.len() as u64 {
        return Err(envelope(format!(
            "length frame mismatch: header says {payload_len} payload bytes \
             but the {what} holds {}",
            full.len()
        )));
    }
    // framed_total == full.len() >= 24 here, so the trailer and the
    // 20-byte header prefix are both in range; the fallible accessors
    // keep the decoder panic-free regardless.
    let (body, tail) = full.split_at(full.len().saturating_sub(4));
    let stored = u32::from_le_bytes(tail.try_into().unwrap_or([0; 4]));
    let computed = crc32(body);
    if stored != computed {
        return Err(HistogramError::corrupt(
            CorruptSection::Checksum,
            format!("CRC32 mismatch: stored {stored:#010x}, computed {computed:#010x}"),
        ));
    }
    let payload = body
        .get(20..)
        .ok_or_else(|| envelope(format!("{what} shorter than its fixed header")))?;
    Ok((kind, payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sj_geo::Extent;

    fn unit_grid(level: u32) -> Grid {
        Grid::new(level, Extent::unit()).unwrap()
    }

    fn uniform(n: usize, seed: u64, side: f64) -> Vec<Rect> {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let x = rng.random_range(0.0..1.0 - side);
                let y = rng.random_range(0.0..1.0 - side);
                Rect::new(
                    x,
                    y,
                    x + rng.random_range(0.0..side),
                    y + rng.random_range(0.0..side),
                )
            })
            .collect()
    }

    #[test]
    fn kind_names_tags_roundtrip() {
        for kind in HistogramKind::ALL {
            assert_eq!(kind.name().parse::<HistogramKind>().unwrap(), kind);
            assert_eq!(HistogramKind::from_tag(kind.tag()), Some(kind));
            assert_eq!(kind.to_string(), kind.name());
        }
        assert!("nope".parse::<HistogramKind>().is_err());
        assert_eq!(HistogramKind::from_tag(0), None);
        assert_eq!(HistogramKind::from_tag(99), None);
    }

    #[test]
    fn envelope_roundtrip_every_kind() {
        let a = uniform(200, 140, 0.06);
        let b = uniform(250, 141, 0.05);
        let g = unit_grid(4);
        for kind in HistogramKind::ALL {
            let ha = build_histogram(kind, g, &a);
            let hb = build_histogram(kind, g, &b);
            let expected = ha.estimate_join(hb.as_ref()).unwrap();

            let back = load_histogram(&ha.persist()).unwrap();
            assert_eq!(back.kind(), kind);
            assert_eq!(back.to_bytes(), ha.to_bytes(), "{kind}: lossless");
            assert_eq!(
                back.estimate_join(hb.as_ref()).unwrap(),
                expected,
                "{kind}: identical estimates after reload"
            );
        }
    }

    #[test]
    fn envelope_rejects_corruption() {
        let h = build_histogram(HistogramKind::Gh, unit_grid(2), &uniform(30, 142, 0.1));
        let bytes = h.persist();
        assert!(load_histogram(&bytes[..8]).is_err());
        let mut bad_magic = bytes.to_vec();
        bad_magic[0] ^= 1;
        assert!(load_histogram(&bad_magic).is_err());
        // Only the current version decodes: the retired pre-checksum
        // version 1 is rejected like any unknown one.
        for version in [0u8, 1, 3, 99] {
            let mut bad_version = bytes.to_vec();
            bad_version[4] = version;
            assert!(
                matches!(
                    load_histogram(&bad_version),
                    Err(HistogramError::Corrupt {
                        section: CorruptSection::Envelope,
                        ..
                    })
                ),
                "envelope version {version} must be rejected"
            );
        }
        let mut bad_tag = bytes.to_vec();
        bad_tag[8] = 99;
        assert!(load_histogram(&bad_tag).is_err());
        // A bare family file is not an envelope.
        assert!(load_histogram(&h.to_bytes()).is_err());
        // A flipped payload byte fails the checksum with a typed error.
        let mut bad_payload = bytes.to_vec();
        let mid = bad_payload.len() / 2;
        bad_payload[mid] ^= 0x10;
        assert!(matches!(
            load_histogram(&bad_payload),
            Err(HistogramError::Corrupt {
                section: CorruptSection::Checksum,
                ..
            })
        ));
        // Trailing garbage breaks the length frame.
        let mut padded = bytes.to_vec();
        padded.push(0);
        assert!(matches!(
            load_histogram(&padded),
            Err(HistogramError::Corrupt {
                section: CorruptSection::Envelope,
                ..
            })
        ));
    }

    #[test]
    fn merge_rejects_kind_and_grid_mismatch() {
        let rects = uniform(50, 143, 0.08);
        let g = unit_grid(3);
        let mut gh = build_histogram(HistogramKind::Gh, g, &rects);
        let ph = build_histogram(HistogramKind::Ph, g, &rects);
        let err = gh.merge(ph.as_ref()).unwrap_err();
        assert!(
            err.to_string().contains("common scheme"),
            "kind mismatch message: {err}"
        );
        assert!(matches!(err, HistogramError::KindMismatch { .. }));
        let other_grid = build_histogram(HistogramKind::Gh, unit_grid(4), &rects);
        assert!(matches!(
            gh.merge(other_grid.as_ref()),
            Err(HistogramError::GridMismatch { .. })
        ));
        assert!(matches!(
            gh.estimate_join(ph.as_ref()),
            Err(HistogramError::KindMismatch { .. })
        ));
    }

    #[test]
    fn sharded_build_matches_serial_for_every_kind() {
        let rects = uniform(400, 144, 0.07);
        let g = unit_grid(4);
        for kind in HistogramKind::ALL {
            let serial = build_histogram(kind, g, &rects);
            for pieces in [1usize, 2, 3, 8] {
                let chunk = rects.len().div_ceil(pieces);
                let shards: Vec<&[Rect]> = rects.chunks(chunk).collect();
                let merged = build_histogram_sharded(kind, g, &shards);
                assert_eq!(
                    merged.to_bytes(),
                    serial.to_bytes(),
                    "{kind} sharded into {pieces} must be byte-identical"
                );
                assert_eq!(merged.dataset_len(), rects.len());
            }
        }
    }

    #[test]
    fn boxed_clone_is_independent() {
        let rects = uniform(60, 145, 0.08);
        let g = unit_grid(3);
        let original = build_histogram(HistogramKind::Euler, g, &rects);
        let mut copy = original.clone();
        copy.merge(original.as_ref()).unwrap();
        assert_eq!(copy.dataset_len(), 2 * original.dataset_len());
        assert_eq!(original.dataset_len(), rects.len(), "original untouched");
    }
}
