//! 2-D geometry primitives for spatial join selectivity estimation.
//!
//! This crate provides the shared geometric substrate used by every other
//! crate in the workspace:
//!
//! * [`Point`] — a 2-D point.
//! * [`Rect`] — an axis-parallel rectangle, the Minimum Bounding Rectangle
//!   (MBR) abstraction of a spatial object. All join predicates in the
//!   workspace operate on MBRs, mirroring the *filter step* of spatial join
//!   processing (Orenstein, 1986).
//! * [`Extent`] — the spatial universe a dataset lives in, with helpers to
//!   normalize coordinates and to compute the universe of a set of MBRs.
//! * [`HEdge`] / [`VEdge`] — the horizontal/vertical edges of an MBR, used
//!   by the Geometric Histogram scheme, which counts edge crossings and
//!   corner containments.
//!
//! # Conventions
//!
//! * Rectangle intersection is **closed**: two MBRs that merely touch (share
//!   a boundary point) are considered intersecting. This matches the filter
//!   step semantics used by R-tree joins.
//! * Degenerate rectangles (zero width and/or height) are first-class: point
//!   datasets are represented as zero-extent MBRs. A degenerate MBR still
//!   has four (coincident) corners and four (zero-length) edges, which keeps
//!   the Geometric Histogram's "intersection points / 4" identity unbiased.

mod extent;
mod point;
mod rect;
mod validate;

pub use extent::Extent;
pub use point::Point;
pub use rect::{HEdge, Rect, VEdge};
pub use validate::{
    apply_policy, check_raw_rect, RectIssue, Validated, ValidationPolicy, ValidationReport,
};

/// Workspace-wide floating point comparison slack for geometry tests.
///
/// Production code paths never compare with an epsilon (the estimators are
/// statistical, and the exact join uses closed-interval comparisons), but
/// tests validating algebraic identities need a tolerance.
pub const EPSILON: f64 = 1e-9;

/// Returns `true` if `a` and `b` are within [`EPSILON`] of each other,
/// scaled by magnitude for large values.
#[must_use]
pub fn approx_eq(a: f64, b: f64) -> bool {
    let scale = a.abs().max(b.abs()).max(1.0);
    (a - b).abs() <= EPSILON * scale
}
