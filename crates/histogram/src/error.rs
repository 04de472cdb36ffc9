#![warn(clippy::exhaustive_enums)]

use std::fmt;

/// Which structural section of a persisted histogram failed to decode.
///
/// Reported inside [`HistogramError::Corrupt`] so callers (and the CLI's
/// JSON provenance) can tell an unreadable envelope from a failed
/// checksum or a malformed family payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[expect(
    clippy::exhaustive_enums,
    reason = "closed: the four sections are the whole envelope layout a decode walks"
)]
pub enum CorruptSection {
    /// The outer envelope: magic, version, kind tag or length framing.
    Envelope,
    /// The CRC32 trailer did not match the envelope contents.
    Checksum,
    /// A family payload header (magic, grid level, extent, cardinality).
    Header,
    /// The per-cell statistics payload.
    Payload,
}

impl CorruptSection {
    /// Stable lowercase name, used in error messages and provenance.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CorruptSection::Envelope => "envelope",
            CorruptSection::Checksum => "checksum",
            CorruptSection::Header => "header",
            CorruptSection::Payload => "payload",
        }
    }
}

impl fmt::Display for CorruptSection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Errors produced by histogram construction, estimation and
/// (de)serialization.
///
/// `#[non_exhaustive]`: future PRs add failure modes (e.g. resource
/// limits) without a semver break; downstream matches keep a `_` arm.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum HistogramError {
    /// The two histograms being combined were built on different grids
    /// (level and extent must match exactly).
    GridMismatch {
        /// Level of the left histogram.
        left_level: u32,
        /// Level of the right histogram.
        right_level: u32,
    },
    /// The two histograms being combined belong to different families
    /// (e.g. merging a PH into a GH).
    KindMismatch {
        /// Family of the left histogram.
        left: crate::HistogramKind,
        /// Family of the right histogram.
        right: crate::HistogramKind,
    },
    /// A histogram file failed to decode.
    Corrupt {
        /// The structural section that failed.
        section: CorruptSection,
        /// What exactly was wrong with it.
        detail: String,
    },
    /// The requested grid level is above [`crate::Grid::MAX_LEVEL`].
    LevelTooLarge(u32),
    /// Applying a signed delta would push a statistic outside its
    /// representable range — e.g. a delete batch covering objects the
    /// histogram never counted would drive a per-cell counter below
    /// zero. The application is rejected atomically (the histogram is
    /// left untouched), never wrapped or debug-panicked.
    DeltaOutOfRange {
        /// Field name of the out-of-range statistic.
        statistic: &'static str,
        /// Row-major index of the offending cell; `None` for scalars.
        cell: Option<usize>,
        /// The value the update would have produced.
        value: i128,
    },
}

impl HistogramError {
    /// Builds a [`HistogramError::Corrupt`] for `section`.
    #[must_use]
    pub fn corrupt(section: CorruptSection, detail: impl Into<String>) -> Self {
        HistogramError::Corrupt {
            section,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for HistogramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HistogramError::GridMismatch {
                left_level,
                right_level,
            } => write!(
                f,
                "histogram grids are incompatible (levels {left_level} vs {right_level}, \
                 or differing extents)"
            ),
            HistogramError::KindMismatch { left, right } => write!(
                f,
                "histograms do not share a common scheme ({} vs {})",
                left.name(),
                right.name()
            ),
            HistogramError::Corrupt { section, detail } => {
                write!(f, "corrupt histogram file ({section} section): {detail}")
            }
            HistogramError::LevelTooLarge(l) => write!(
                f,
                "grid level {l} exceeds the maximum of {}",
                crate::Grid::MAX_LEVEL
            ),
            HistogramError::DeltaOutOfRange {
                statistic,
                cell,
                value,
            } => match cell {
                Some(index) => write!(
                    f,
                    "delta application rejected: statistic `{statistic}` at cell index \
                     {index} would become {value}, outside its representable range"
                ),
                None => write!(
                    f,
                    "delta application rejected: scalar statistic `{statistic}` would \
                     become {value}, outside its representable range"
                ),
            },
        }
    }
}

impl std::error::Error for HistogramError {}

// Public errors implement `Display` and `Error`; this fails to compile otherwise.
const _: fn(&HistogramError) -> &dyn std::error::Error = |e| e;
