//! Cell-level divergence localization between two same-kind histograms.
//!
//! Byte comparison of two persisted histograms answers *whether* a
//! shard-and-merge build reproduced the serial build, but not *where* it
//! went wrong. This module walks the per-family statistics in their
//! serialization order and reports the first place two histograms
//! disagree — the statistic's name and, for per-cell statistics, the grid
//! cell — so `sj-lint verify-equivalence` (and any other conformance harness)
//! can print "cell (3, 7) of `cov_x` differs" instead of "bytes differ".
//!
//! The statistic names are the ones each family declares in its
//! `histogram_family!` list (`schema.rs`), which are its struct fields:
//!
//! * PH — scalars `n`, `span_total`, `span_rects`; per-cell `num`,
//!   `num_x` (counts) and `cov`, `xsum`, `ysum`, `cov_x`, `xsum_x`,
//!   `ysum_x` (exact fixed-point masses). Paper Table 1.
//! * basic GH — scalar `n`; per-cell counts `c`, `i`, `v`, `h`
//!   (paper Eq. 4).
//! * revised GH — scalar `n`; per-cell `c` (count) and `o`, `h`, `v`
//!   (masses; paper Table 2 / Eq. 5).
//! * Euler — scalar `n`; per-face counts `faces`, `v_edges`, `h_edges`,
//!   `vertices` (each face class has its own grid dimensions).
//!
//! Fixed-point masses are reported in raw 2⁻⁷⁵ units (exact) with an
//! approximate decimal rendering alongside.

use crate::mass::Mass;
use crate::schema::{Column, Family};
use crate::{HistogramError, SpatialHistogram};

/// Grid location of a diverging per-cell statistic.
///
/// For PH/GH statistics `col`/`row` are grid-cell coordinates. For the
/// Euler face classes they index that class's own lattice (e.g. a
/// `v_edges` entry at `(col, row)` is the interior edge between cells
/// `(col, row)` and `(col + 1, row)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellLocation {
    /// Row-major index into the statistic's array.
    pub index: usize,
    /// Column (x) coordinate within the statistic's lattice.
    pub col: u32,
    /// Row (y) coordinate within the statistic's lattice.
    pub row: u32,
}

impl std::fmt::Display for CellLocation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cell ({}, {}) [index {}]",
            self.col, self.row, self.index
        )
    }
}

/// The first difference found between two same-kind, same-grid
/// histograms, localized to a statistic and (when per-cell) a grid cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Field name of the differing statistic (see the module docs for
    /// the per-family name lists).
    pub statistic: &'static str,
    /// The diverging cell; `None` for dataset-level scalars such as `n`.
    pub cell: Option<CellLocation>,
    /// The left histogram's value, rendered exactly (raw 2⁻⁷⁵ units for
    /// fixed-point masses).
    pub left: String,
    /// The right histogram's value, rendered like `left`.
    pub right: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.cell {
            Some(cell) => write!(
                f,
                "statistic `{}` at {}: {} != {}",
                self.statistic, cell, self.left, self.right
            ),
            None => write!(
                f,
                "scalar statistic `{}`: {} != {}",
                self.statistic, self.left, self.right
            ),
        }
    }
}

/// Exact rendering of a mass: raw fixed-point units plus an approximate
/// decimal value.
fn render_mass(m: Mass) -> String {
    format!("{}·2^-75 (≈{:.6e})", m.raw_units(), m.to_f64())
}

/// `(col, row)` of `index` in a row-major lattice `width` cells wide.
fn locate(index: usize, width: usize) -> CellLocation {
    let (col, row) = if width == 0 {
        (0, 0)
    } else {
        (index % width, index / width)
    };
    CellLocation {
        index,
        col: u32::try_from(col).unwrap_or(u32::MAX),
        row: u32::try_from(row).unwrap_or(u32::MAX),
    }
}

/// The first index where `left` and `right` differ, with both values
/// rendered.
fn first_difference<T: Copy + PartialEq>(
    left: &[T],
    right: &[T],
    render: impl Fn(T) -> String,
) -> Option<(usize, String, String)> {
    left.iter()
        .zip(right)
        .enumerate()
        .find(|(_, (a, b))| a != b)
        .map(|(i, (a, b))| (i, render(*a), render(*b)))
}

/// First divergence between two same-family histograms, walking the
/// declared scalars then per-cell arrays in file order.
fn compare<H: Family>(left: &H, right: &H) -> Option<Divergence> {
    let schema = &H::SCHEMA;
    for ((name, lv), rv) in schema
        .scalars
        .iter()
        .zip(left.scalars())
        .zip(right.scalars())
    {
        if lv != rv {
            return Some(Divergence {
                statistic: name,
                cell: None,
                left: lv.to_string(),
                right: rv.to_string(),
            });
        }
    }
    let grid = left.grid();
    for (stat, (l, r)) in schema
        .arrays
        .iter()
        .zip(left.columns().into_iter().zip(right.columns()))
    {
        let found = match (l, r) {
            (Column::Count(l), Column::Count(r)) => first_difference(l, r, |v| v.to_string()),
            (Column::Mass(l), Column::Mass(r)) => first_difference(l, r, render_mass),
            // Unreachable: both sides come from one declaration.
            _ => None,
        };
        if let Some((index, left, right)) = found {
            return Some(Divergence {
                statistic: stat.name,
                cell: Some(locate(index, stat.lattice.dims(&grid).0)),
                left,
                right,
            });
        }
    }
    None
}

/// Downcasts both sides to `H` and compares their statistics.
fn compare_as<H: Family + 'static>(
    left: &dyn SpatialHistogram,
    right: &dyn SpatialHistogram,
) -> Option<Divergence> {
    match (
        left.as_any().downcast_ref::<H>(),
        right.as_any().downcast_ref::<H>(),
    ) {
        (Some(l), Some(r)) => compare(l, r),
        // Unreachable after the kind check in `first_divergence`; report
        // nothing rather than panic.
        _ => None,
    }
}

/// Finds the first statistic (and cell, for per-cell statistics) where
/// two same-kind, same-grid histograms differ, in serialization order.
/// Returns `Ok(None)` when every statistic matches — which, for these
/// families, implies the persisted bytes are identical too.
///
/// # Errors
/// [`HistogramError::KindMismatch`] when the histograms belong to
/// different families, [`HistogramError::GridMismatch`] when their grids
/// differ (different-shaped statistics cannot be compared cell-wise).
///
/// # Examples
/// ```
/// use sj_geo::{Extent, Rect};
/// use sj_histogram::{build_histogram, first_divergence, Grid, HistogramKind};
///
/// let grid = Grid::new(2, Extent::unit())?;
/// let a = vec![Rect::new(0.10, 0.10, 0.15, 0.15)]; // cell (0, 0)
/// let b = vec![Rect::new(0.60, 0.60, 0.65, 0.65)]; // cell (2, 2)
/// let ha = build_histogram(HistogramKind::GhBasic, grid, &a);
/// let hb = build_histogram(HistogramKind::GhBasic, grid, &b);
///
/// // A histogram never diverges from itself.
/// assert!(first_divergence(ha.as_ref(), ha.as_ref())?.is_none());
///
/// // Different data: the first differing statistic is localized.
/// let d = first_divergence(ha.as_ref(), hb.as_ref())?.unwrap();
/// assert_eq!(d.statistic, "c");
/// let cell = d.cell.unwrap();
/// assert_eq!((cell.col, cell.row), (0, 0));
/// # Ok::<(), sj_histogram::HistogramError>(())
/// ```
pub fn first_divergence(
    left: &dyn SpatialHistogram,
    right: &dyn SpatialHistogram,
) -> Result<Option<Divergence>, HistogramError> {
    if left.kind() != right.kind() {
        return Err(HistogramError::KindMismatch {
            left: left.kind(),
            right: right.kind(),
        });
    }
    let (lg, rg) = (left.grid(), right.grid());
    if !lg.compatible(&rg) {
        return Err(HistogramError::GridMismatch {
            left_level: lg.level(),
            right_level: rg.level(),
        });
    }
    Ok(crate::traits::with_family!(left.kind(), H => compare_as::<H>(left, right)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_histogram, Grid, HistogramKind};
    use sj_geo::{Extent, Rect};

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
    fn identical_histograms_have_no_divergence() {
        let rects = uniform(300, 7101, 0.08);
        let g = unit_grid(4);
        for kind in HistogramKind::ALL {
            let a = build_histogram(kind, g, &rects);
            let b = build_histogram(kind, g, &rects);
            assert_eq!(
                first_divergence(a.as_ref(), b.as_ref()).unwrap(),
                None,
                "{kind}"
            );
        }
    }

    #[test]
    fn cardinality_difference_reports_scalar_n() {
        let rects = uniform(50, 7102, 0.05);
        let g = unit_grid(3);
        for kind in HistogramKind::ALL {
            let full = build_histogram(kind, g, &rects);
            let short = build_histogram(kind, g, &rects[..49]);
            let d = first_divergence(full.as_ref(), short.as_ref())
                .unwrap()
                .expect("must diverge");
            assert_eq!(d.statistic, "n", "{kind}: scalars come first");
            assert_eq!(d.cell, None);
            assert_eq!(d.left, "50");
            assert_eq!(d.right, "49");
        }
    }

    #[test]
    fn moved_rect_is_localized_to_its_cell() {
        // Same cardinality, one rect moved between known cells: the
        // divergence must be per-cell, at the lower of the two indices.
        let g = unit_grid(2); // 4×4 cells of side 0.25
        let stay = Rect::new(0.30, 0.55, 0.33, 0.58); // cell (1, 2)
        let from = Rect::new(0.05, 0.05, 0.08, 0.08); // cell (0, 0)
        let to = Rect::new(0.80, 0.80, 0.83, 0.83); // cell (3, 3)
        let first_stat = |kind: HistogramKind| match kind {
            HistogramKind::Ph => "num",
            HistogramKind::GhBasic | HistogramKind::Gh => "c",
            HistogramKind::Euler => "faces",
        };
        for kind in HistogramKind::ALL {
            let a = build_histogram(kind, g, &[stay, from]);
            let b = build_histogram(kind, g, &[stay, to]);
            let d = first_divergence(a.as_ref(), b.as_ref())
                .unwrap()
                .expect("must diverge");
            assert_eq!(d.statistic, first_stat(kind), "{kind}");
            let cell = d.cell.expect("per-cell statistic");
            assert_eq!((cell.col, cell.row), (0, 0), "{kind}: lower cell first");
        }
    }

    #[test]
    fn mass_statistics_render_raw_units() {
        // Equal cardinality and equal counts, different geometry inside
        // one cell: for revised GH the count `c` (4 corners in the cell)
        // matches and the first divergence is the clipped-area mass `o`.
        let g = unit_grid(1); // 2×2 cells of side 0.5
        let a = build_histogram(HistogramKind::Gh, g, &[Rect::new(0.1, 0.1, 0.2, 0.2)]);
        let b = build_histogram(HistogramKind::Gh, g, &[Rect::new(0.1, 0.1, 0.3, 0.3)]);
        let d = first_divergence(a.as_ref(), b.as_ref())
            .unwrap()
            .expect("must diverge");
        assert_eq!(d.statistic, "o");
        assert_eq!(d.cell.map(|c| (c.col, c.row)), Some((0, 0)));
        assert!(d.left.contains("2^-75"), "raw units rendered: {}", d.left);
        assert!(d.to_string().contains("statistic `o`"), "{d}");
    }

    #[test]
    fn mismatches_are_typed_errors() {
        let rects = uniform(30, 7103, 0.06);
        let gh = build_histogram(HistogramKind::Gh, unit_grid(3), &rects);
        let ph = build_histogram(HistogramKind::Ph, unit_grid(3), &rects);
        assert!(matches!(
            first_divergence(gh.as_ref(), ph.as_ref()),
            Err(HistogramError::KindMismatch { .. })
        ));
        let other = build_histogram(HistogramKind::Gh, unit_grid(4), &rects);
        assert!(matches!(
            first_divergence(gh.as_ref(), other.as_ref()),
            Err(HistogramError::GridMismatch { .. })
        ));
    }

    #[test]
    fn euler_edge_statistics_use_their_own_lattice() {
        // One rect spanning cells (0,0)..(1,0) horizontally: its interior
        // vertical edge crossing lives in `v_edges`, a (n-1)-wide lattice.
        let g = unit_grid(1); // 2×2
        let a = build_histogram(HistogramKind::Euler, g, &[Rect::new(0.1, 0.1, 0.9, 0.4)]);
        let b = build_histogram(HistogramKind::Euler, g, &[Rect::new(0.1, 0.1, 0.4, 0.4)]);
        let d = first_divergence(a.as_ref(), b.as_ref())
            .unwrap()
            .expect("must diverge");
        // Both rects occupy cell (0,0); the wide one also covers (1,0),
        // so `faces` diverges there first.
        assert_eq!(d.statistic, "faces");
        assert_eq!(d.cell.map(|c| (c.col, c.row)), Some((1, 0)));
    }
}
