//! Histogram-based spatial join selectivity estimators (paper Section 3).
//!
//! Three estimator families are provided, all operating on a regular grid
//! over the spatial extent ([`Grid`], `4^h` cells at level `h`):
//!
//! * [`parametric_selectivity`] — the prior parametric model of Aref &
//!   Samet (paper Eq. 1–2): a closed-form formula assuming uniformly
//!   distributed data. This is the baseline the paper compares against,
//!   and is exactly the `h = 0` point of the PH curves in Figure 7.
//! * [`PhHistogram`] — the paper's *Parametric Histogram*: per-cell
//!   parametric statistics split into fully-contained and
//!   boundary-crossing MBR groups (Table 1), combined with the four-case
//!   estimation `Sa..Sd` and the `AvgSpan` multiple-counting correction
//!   (Eq. 3).
//! * [`GhBasicHistogram`] / [`GhHistogram`] — the paper's *Geometric
//!   Histogram*: every pairwise MBR intersection contributes exactly four
//!   "intersection points" (corners of one MBR inside the other, or
//!   horizontal×vertical edge crossings — Figure 2); the schemes estimate
//!   the total number of intersection points and divide by four. The
//!   basic variant keeps integer counts per cell (Eq. 4); the revised
//!   variant keeps fractional clipped masses (Table 2, Eq. 5) and is the
//!   headline "GH" of the paper.
//!
//! All histograms serialize to a compact *histogram file* byte format
//! ([`SpatialHistogram::to_bytes`]) whose size — dependent only on the
//! grid level, never on the dataset — is the paper's space-cost metric.
//! Each family declares its statistics once (name, count or mass,
//! lattice, file order); that one declaration drives the file codec, its
//! size, the exact merge, [`first_divergence`] and [`HistogramDelta`].
//! Revised GH also has a sparse, checksummed file
//! ([`GhHistogram::to_sparse_bytes`]) that stores only occupied cells.
//!
//! All four families additionally implement the [`SpatialHistogram`]
//! trait: they are *mergeable sketches* whose per-cell statistics are
//! pure sums over the input MBRs, so shard builds merge — bit-for-bit
//! identically to a serial build — and any kind round-trips through the
//! versioned [`SpatialHistogram::persist`] / [`load_histogram`] envelope.

#![warn(
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_sign_loss
)]

mod band;
pub mod crc;
mod delta;
mod diff;
mod error;
mod euler;
mod gh;
mod grid;
pub mod kernel;
mod mass;
mod parametric;
mod ph;
mod schema;
mod sparse;
mod traits;

pub use delta::HistogramDelta;
pub use diff::{first_divergence, CellLocation, Divergence};
pub use error::{CorruptSection, HistogramError};
pub use euler::EulerHistogram;
pub use gh::{GhBasicHistogram, GhHistogram};
pub use grid::Grid;
pub use mass::Mass;
pub use parametric::{parametric_result_size, parametric_selectivity, ParametricInputs};
pub use ph::PhHistogram;
pub use sparse::{SPARSE_MAGIC, SPARSE_VERSION};
pub use traits::{
    build_histogram, build_histogram_parallel, build_histogram_sharded, load_histogram,
    HistogramKind, SpatialHistogram,
};

/// A selectivity estimate together with the implied result size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectivityEstimate {
    /// Estimated join selectivity in `[0, 1]` (clamped).
    pub selectivity: f64,
    /// Estimated number of intersecting pairs (`selectivity · N1 · N2`).
    pub pairs: f64,
}

impl SelectivityEstimate {
    /// Builds an estimate from a raw (possibly slightly negative or
    /// super-unit) selectivity value and the two cardinalities.
    #[must_use]
    pub fn from_selectivity(raw: f64, n1: usize, n2: usize) -> Self {
        let selectivity = raw.clamp(0.0, 1.0);
        #[allow(clippy::cast_precision_loss)]
        let pairs = selectivity * n1 as f64 * n2 as f64;
        Self { selectivity, pairs }
    }
}
