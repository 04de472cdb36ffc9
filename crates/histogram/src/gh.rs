//! The Geometric Histogram (GH) scheme — paper Section 3.2.
//!
//! The key observation (paper Figure 2): whenever two MBRs intersect, the
//! intersection is a rectangle with exactly four corners, and each corner
//! is either (a) a corner of one MBR falling inside the other MBR, or
//! (b) a horizontal edge of one MBR crossing a vertical edge of the other.
//! Estimating the total number of such *intersection points* between two
//! datasets and dividing by four yields the join result size.
//!
//! * [`GhBasicHistogram`] (Section 3.2.1, Eq. 4) keeps, per cell, integer
//!   counts: corners `C`, intersecting MBRs `I`, vertical edges `V`,
//!   horizontal edges `H`, and estimates
//!   `N = Σ C₁·I₂ + I₁·C₂ + V₁·H₂ + H₁·V₂`. It over/under-counts when a
//!   cell is coarse (Figure 4).
//! * [`GhHistogram`] (Section 3.2.2, Eq. 5 — the paper's headline scheme)
//!   replaces the coincidence assumption with a uniformity assumption
//!   *within* each cell, keeping fractional masses (Table 2): corner
//!   count `C`, clipped-area ratio `O`, clipped horizontal edge length
//!   over cell width `H`, clipped vertical edge length over cell height
//!   `V`, and estimates `IP = Σ C₁·O₂ + C₂·O₁ + H₁·V₂ + H₂·V₁`.

use crate::band::RowBanded;
use crate::grid::Grid;
use crate::mass::Mass;
use crate::schema::{Family, Schema, Sink};
use crate::{HistogramError, SelectivityEstimate};
use sj_geo::Rect;

/// Basic Geometric Histogram: per-cell integer counts (paper Eq. 4).
#[derive(Debug, Clone, PartialEq)]
pub struct GhBasicHistogram {
    grid: Grid,
    // `pub(crate)` so `kernel::GhBasicView` can decode the counts into
    // SoA slices.
    pub(crate) n: u64,
    /// Corners of MBRs falling in each cell.
    pub(crate) c: Vec<u32>,
    /// MBRs intersecting each cell.
    pub(crate) i: Vec<u32>,
    /// Vertical MBR edges passing through each cell.
    pub(crate) v: Vec<u32>,
    /// Horizontal MBR edges passing through each cell.
    pub(crate) h: Vec<u32>,
}

crate::schema::histogram_family! {
    GhBasicHistogram: GhBasic, magic 0x534a_4742, // "SJGB"
    scalars [n],
    arrays [c: Count @ Cells, i: Count @ Cells, v: Count @ Cells, h: Count @ Cells],
}

impl GhBasicHistogram {
    /// Estimated number of intersection points against `other` (Eq. 4).
    ///
    /// Dispatches through the SoA kernel layer
    /// ([`crate::kernel::GhBasicView`], DESIGN.md §16); bit-identical to
    /// [`Self::intersection_points_scalar`].
    ///
    /// # Errors
    /// Returns [`HistogramError::GridMismatch`] on incompatible grids.
    pub fn intersection_points(&self, other: &Self) -> Result<f64, HistogramError> {
        crate::kernel::GhBasicView::new(self)
            .intersection_points(&crate::kernel::GhBasicView::new(other))
    }

    /// The retained scalar reference loop of
    /// [`Self::intersection_points`]: iterates every cell of the dense
    /// count vectors directly, in the kernel's blocked order — one
    /// partial per 64-cell mask word from `+0.0`, then the partials in
    /// ascending word order (DESIGN.md §16.3). Kept (and exercised by
    /// the `kernel_agreement` test) as the oracle the kernel path must
    /// match bit-for-bit.
    ///
    /// # Errors
    /// Returns [`HistogramError::GridMismatch`] on incompatible grids.
    pub fn intersection_points_scalar(&self, other: &Self) -> Result<f64, HistogramError> {
        if !self.grid.compatible(&other.grid) {
            return Err(HistogramError::GridMismatch {
                left_level: self.grid.level(),
                right_level: other.grid.level(),
            });
        }
        let mut total = 0.0f64;
        for run in crate::kernel::word_runs(&self.grid) {
            let mut partial = 0.0f64;
            for idx in run {
                partial += f64::from(self.c[idx]) * f64::from(other.i[idx])
                    + f64::from(self.i[idx]) * f64::from(other.c[idx])
                    + f64::from(self.v[idx]) * f64::from(other.h[idx])
                    + f64::from(self.h[idx]) * f64::from(other.v[idx]);
            }
            total += partial;
        }
        Ok(total)
    }

    /// Scalar-path estimate: [`Self::intersection_points_scalar`] with the
    /// same `/ 4 / (N₁·N₂)` tail as [`Self::estimate`].
    ///
    /// # Errors
    /// Returns [`HistogramError::GridMismatch`] on incompatible grids.
    pub fn estimate_scalar(&self, other: &Self) -> Result<SelectivityEstimate, HistogramError> {
        let ip = self.intersection_points_scalar(other)?;
        #[allow(clippy::cast_precision_loss)]
        let denom = (self.n as f64) * (other.n as f64);
        let raw = if denom == 0.0 { 0.0 } else { ip / 4.0 / denom };
        Ok(SelectivityEstimate::from_selectivity(
            raw,
            self.dataset_len(),
            other.dataset_len(),
        ))
    }

    /// Estimates the join selectivity: intersection points / 4 / (N₁·N₂).
    ///
    /// # Errors
    /// Returns [`HistogramError::GridMismatch`] on incompatible grids.
    pub fn estimate(&self, other: &Self) -> Result<SelectivityEstimate, HistogramError> {
        crate::kernel::GhBasicView::new(self).estimate(&crate::kernel::GhBasicView::new(other))
    }
}

#[warn(clippy::float_arithmetic)]
impl RowBanded for GhBasicHistogram {
    fn build_rows(grid: Grid, rects: &[Rect], lo: u32, hi: u32, sink: &mut impl Sink) {
        const SCHEMA: &Schema = &GhBasicHistogram::SCHEMA;
        const N: usize = SCHEMA.scalar("n");
        const C: usize = SCHEMA.array("c");
        const I: usize = SCHEMA.array("i");
        const V: usize = SCHEMA.array("v");
        const H: usize = SCHEMA.array("h");
        let bg = crate::kernel::BinGrid::new(&grid);
        for r in rects {
            // Every contribution of `r` lands in rows r0..=r1 (corner and
            // h-edge rows are r0 or r1), so rects outside the band are
            // skipped outright; the band owning the bottom row counts the
            // rect itself.
            let (c0, c1, r0, r1) = grid.cell_range(r);
            if r1 < lo || r0 >= hi {
                continue;
            }
            if (lo..hi).contains(&r0) {
                sink.add_scalar(N, 1);
            }
            for corner in r.corners() {
                let (col, row) = grid.cell_of_point(corner);
                if (lo..hi).contains(&row) {
                    sink.add_count(C, grid.flat_index(col, row));
                }
            }
            let rows = (r0.max(lo), r1.min(hi - 1));
            crate::kernel::bin_count_block(&bg, (c0, c1), rows, sink, I);
            // Two vertical edges: each occupies one column, rows r0..=r1.
            for edge in r.v_edges() {
                let col = grid.col_of(edge.x);
                crate::kernel::bin_count_col(&bg, col, rows, sink, V);
            }
            // Two horizontal edges: each occupies one row, cols c0..=c1.
            for edge in r.h_edges() {
                let row = grid.row_of(edge.y);
                if (lo..hi).contains(&row) {
                    crate::kernel::bin_count_row(&bg, (c0, c1), row, sink, H);
                }
            }
        }
    }
}

/// Revised Geometric Histogram — the paper's headline "GH" scheme
/// (Table 2, Eq. 5).
///
/// ```
/// use sj_geo::{Extent, Rect};
/// use sj_histogram::{GhHistogram, Grid};
///
/// let grid = Grid::new(5, Extent::unit())?;
/// let streams = vec![Rect::new(0.10, 0.10, 0.30, 0.12)];
/// let roads = vec![Rect::new(0.12, 0.05, 0.14, 0.40)];
/// let hs = GhHistogram::build(grid, &streams);
/// let hr = GhHistogram::build(grid, &roads);
/// let est = hs.estimate(&hr)?;
/// assert!(est.pairs > 0.9 && est.pairs < 1.1, "one crossing pair");
/// # Ok::<(), sj_histogram::HistogramError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GhHistogram {
    grid: Grid,
    // `pub(crate)` so `kernel::GhView` can decode the masses into SoA
    // slices.
    pub(crate) n: u64,
    /// `C(i,j)`: number of MBR corner points falling in the cell.
    pub(crate) c: Vec<u32>,
    /// `O(i,j)`: Σ (area of MBR ∩ cell) / cell area, exactly accumulated.
    pub(crate) o: Vec<Mass>,
    /// `H(i,j)`: Σ (length of horizontal edge ∩ cell) / cell width.
    pub(crate) h: Vec<Mass>,
    /// `V(i,j)`: Σ (length of vertical edge ∩ cell) / cell height.
    pub(crate) v: Vec<Mass>,
}

crate::schema::histogram_family! {
    GhHistogram: Gh, magic 0x534a_4748, // "SJGH"
    scalars [n],
    arrays [c: Count @ Cells, o: Mass @ Cells, h: Mass @ Cells, v: Mass @ Cells],
}

impl GhHistogram {
    /// Estimated number of intersection points against `other` (Eq. 5):
    /// `IP = Σ C₁·O₂ + C₂·O₁ + H₁·V₂ + H₂·V₁`.
    ///
    /// Dispatches through the SoA kernel layer
    /// ([`crate::kernel::GhView`], DESIGN.md §16); bit-identical to
    /// [`Self::intersection_points_scalar`].
    ///
    /// # Errors
    /// Returns [`HistogramError::GridMismatch`] on incompatible grids.
    pub fn intersection_points(&self, other: &Self) -> Result<f64, HistogramError> {
        crate::kernel::GhView::new(self).intersection_points(&crate::kernel::GhView::new(other))
    }

    /// The retained scalar reference loop of
    /// [`Self::intersection_points`]: iterates every cell of the dense
    /// mass vectors directly, decoding the fixed-point masses on the fly,
    /// in the kernel's blocked order — one partial per 64-cell mask word
    /// from `+0.0`, then the partials in ascending word order (DESIGN.md
    /// §16.3). Kept (and exercised by the `kernel_agreement` test plus the
    /// `latency_server` kernel gate) as the oracle the kernel path must
    /// match bit-for-bit.
    ///
    /// # Errors
    /// Returns [`HistogramError::GridMismatch`] on incompatible grids.
    pub fn intersection_points_scalar(&self, other: &Self) -> Result<f64, HistogramError> {
        if !self.grid.compatible(&other.grid) {
            return Err(HistogramError::GridMismatch {
                left_level: self.grid.level(),
                right_level: other.grid.level(),
            });
        }
        let mut total = 0.0f64;
        for run in crate::kernel::word_runs(&self.grid) {
            let mut partial = 0.0f64;
            for idx in run {
                partial += f64::from(self.c[idx]) * other.o[idx].to_f64()
                    + f64::from(other.c[idx]) * self.o[idx].to_f64()
                    + self.h[idx].to_f64() * other.v[idx].to_f64()
                    + other.h[idx].to_f64() * self.v[idx].to_f64();
            }
            total += partial;
        }
        Ok(total)
    }

    /// Scalar-path estimate: [`Self::intersection_points_scalar`] with the
    /// same `/ 4 / (N₁·N₂)` tail as [`Self::estimate`].
    ///
    /// # Errors
    /// Returns [`HistogramError::GridMismatch`] on incompatible grids.
    pub fn estimate_scalar(&self, other: &Self) -> Result<SelectivityEstimate, HistogramError> {
        let ip = self.intersection_points_scalar(other)?;
        #[allow(clippy::cast_precision_loss)]
        let denom = (self.n as f64) * (other.n as f64);
        let raw = if denom == 0.0 { 0.0 } else { ip / 4.0 / denom };
        Ok(SelectivityEstimate::from_selectivity(
            raw,
            self.dataset_len(),
            other.dataset_len(),
        ))
    }

    /// Estimates the join selectivity: `IP / 4 / (N₁·N₂)`.
    ///
    /// # Errors
    /// Returns [`HistogramError::GridMismatch`] on incompatible grids.
    pub fn estimate(&self, other: &Self) -> Result<SelectivityEstimate, HistogramError> {
        crate::kernel::GhView::new(self).estimate(&crate::kernel::GhView::new(other))
    }

    /// **Extension beyond the paper** (its introduction's motivating
    /// scenario): estimates the number of intersecting pairs whose
    /// intersection falls inside `window`, without re-histogramming.
    ///
    /// The Eq. 5 sum is restricted to grid cells overlapping the window,
    /// each weighted by the fraction of the cell the window covers (the
    /// within-cell uniformity assumption GH already makes). A pair whose
    /// intersection straddles the window boundary contributes
    /// fractionally, in proportion to how many of its four intersection
    /// points land inside.
    ///
    /// **Extension beyond the paper**: estimates how many MBRs of the
    /// summarized dataset intersect a query rectangle — range-query
    /// selectivity (the problem of the paper's refs [14, 15]) answered
    /// from the *same* GH histogram file used for join estimation.
    ///
    /// The query window is treated as a one-element dataset: its per-cell
    /// GH masses (corners, clipped area, clipped edges) are computed on
    /// the fly and combined with the stored masses via Eq. 5, and the
    /// estimated intersection-point total is divided by four.
    #[must_use]
    pub fn estimate_window_count(&self, query: &Rect) -> f64 {
        let grid = self.grid();
        let cell_area = grid.cell_area();
        let cell_w = grid.cell_width();
        let cell_h = grid.cell_height();
        let mut total = 0.0f64;

        // C_q · O_ds: each query corner falling in a cell, against the
        // dataset's clipped-area mass there.
        for corner in query.corners() {
            let (col, row) = grid.cell_of_point(corner);
            total += self.o[grid.flat_index(col, row)].to_f64();
        }

        let (c0, c1, r0, r1) = grid.cell_range(query);
        for row in r0..=r1 {
            for col in c0..=c1 {
                let idx = grid.flat_index(col, row);
                let cell = grid.cell_rect(col, row);
                // C_ds · O_q.
                let o_q = query.intersection_area(&cell) / cell_area;
                total += f64::from(self.c[idx]) * o_q;
            }
        }
        // H_q · V_ds and V_q · H_ds: the query's 4 edges, clipped per cell.
        for edge in query.h_edges() {
            let row = grid.row_of(edge.y);
            for col in c0..=c1 {
                let idx = grid.flat_index(col, row);
                let h_q = edge.clipped_len(&grid.cell_rect(col, row)) / cell_w;
                total += h_q * self.v[idx].to_f64();
            }
        }
        for edge in query.v_edges() {
            let col = grid.col_of(edge.x);
            for row in r0..=r1 {
                let idx = grid.flat_index(col, row);
                let v_q = edge.clipped_len(&grid.cell_rect(col, row)) / cell_h;
                total += v_q * self.h[idx].to_f64();
            }
        }
        (total / 4.0).max(0.0)
    }

    /// Returns the estimated *pair count* (`IP_window / 4`) of the join
    /// restricted to `window`, not a selectivity — a windowed selectivity
    /// has no canonical denominator. See the type-level docs; this is the
    /// windowed variant of [`Self::estimate`].
    ///
    /// # Errors
    /// Returns [`HistogramError::GridMismatch`] on incompatible grids.
    pub fn estimate_pairs_in_window(
        &self,
        other: &Self,
        window: &Rect,
    ) -> Result<f64, HistogramError> {
        if !self.grid.compatible(&other.grid) {
            return Err(HistogramError::GridMismatch {
                left_level: self.grid.level(),
                right_level: other.grid.level(),
            });
        }
        let grid = self.grid();
        let cell_area = grid.cell_area();
        let (c0, c1, r0, r1) = grid.cell_range(window);
        let mut total = 0.0f64;
        for row in r0..=r1 {
            for col in c0..=c1 {
                let idx = grid.flat_index(col, row);
                let cell = grid.cell_rect(col, row);
                let weight = window.intersection_area(&cell) / cell_area;
                if weight == 0.0 {
                    continue;
                }
                total += weight
                    * (f64::from(self.c[idx]) * other.o[idx].to_f64()
                        + f64::from(other.c[idx]) * self.o[idx].to_f64()
                        + self.h[idx].to_f64() * other.v[idx].to_f64()
                        + other.h[idx].to_f64() * self.v[idx].to_f64());
            }
        }
        Ok((total / 4.0).max(0.0))
    }

    #[cfg(test)]
    pub(crate) fn masses(&self, grid: &Grid, col: u32, row: u32) -> (u32, f64, f64, f64) {
        let idx = grid.flat_index(col, row);
        (
            self.c[idx],
            self.o[idx].to_f64(),
            self.h[idx].to_f64(),
            self.v[idx].to_f64(),
        )
    }
}

#[warn(clippy::float_arithmetic)]
impl RowBanded for GhHistogram {
    fn build_rows(grid: Grid, rects: &[Rect], lo: u32, hi: u32, sink: &mut impl Sink) {
        const SCHEMA: &Schema = &GhHistogram::SCHEMA;
        const N: usize = SCHEMA.scalar("n");
        const C: usize = SCHEMA.array("c");
        const O: usize = SCHEMA.array("o");
        const H: usize = SCHEMA.array("h");
        const V: usize = SCHEMA.array("v");
        // Flattened grid geometry: cell sizes and row bases hoisted out of
        // the per-cell binning loops (same expressions, so bit-identical).
        let bg = crate::kernel::BinGrid::new(&grid);
        for r in rects {
            let (c0, c1, r0, r1) = grid.cell_range(r);
            if r1 < lo || r0 >= hi {
                continue;
            }
            if (lo..hi).contains(&r0) {
                sink.add_scalar(N, 1);
            }
            for corner in r.corners() {
                let (col, row) = grid.cell_of_point(corner);
                if (lo..hi).contains(&row) {
                    sink.add_count(C, grid.flat_index(col, row));
                }
            }
            let rows = (r0.max(lo), r1.min(hi - 1));
            crate::kernel::bin_gh_overlap(&bg, r, (c0, c1), rows, sink, O);
            for edge in r.h_edges() {
                let row = grid.row_of(edge.y);
                if (lo..hi).contains(&row) {
                    crate::kernel::bin_gh_hedge(&bg, &edge, (c0, c1), row, sink, H);
                }
            }
            for edge in r.v_edges() {
                let col = grid.col_of(edge.x);
                crate::kernel::bin_gh_vedge(&bg, &edge, col, rows, sink, V);
            }
        }
    }
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

    /// Paper Figure 3 / Section 3.2.1: with gridding fine enough that the
    /// four intersection points of a pair fall in distinct cells, basic GH
    /// counts exactly 4 intersection points.
    #[test]
    fn basic_gh_counts_exactly_four_points_when_resolved() {
        let g = unit_grid(3); // 8×8 cells
        let a = vec![Rect::new(0.1, 0.1, 0.6, 0.6)];
        let b = vec![Rect::new(0.4, 0.4, 0.9, 0.9)];
        let ha = GhBasicHistogram::build(g, &a);
        let hb = GhBasicHistogram::build(g, &b);
        let ip = ha.intersection_points(&hb).unwrap();
        assert!(
            (ip - 4.0).abs() < 1e-12,
            "expected 4 intersection points, got {ip}"
        );
        let est = ha.estimate(&hb).unwrap();
        assert!((est.selectivity - 1.0).abs() < 1e-12);
        assert!((est.pairs - 1.0).abs() < 1e-12);
    }

    /// All four containment-flavored cases of Figure 2 behave: contained
    /// MBR pairs also produce 4 corner points.
    #[test]
    fn basic_gh_containment_case() {
        let g = unit_grid(3);
        let outer = vec![Rect::new(0.05, 0.05, 0.95, 0.95)];
        let inner = vec![Rect::new(0.3, 0.3, 0.55, 0.55)];
        let ho = GhBasicHistogram::build(g, &outer);
        let hi = GhBasicHistogram::build(g, &inner);
        // All 4 corners of inner fall inside outer; no edge crossings.
        let ip = ho.intersection_points(&hi).unwrap();
        assert!((ip - 4.0).abs() < 1e-12, "containment: got {ip}");
    }

    /// Paper Figure 4 (left pair): coarse cells make basic GH multiple- or
    /// false-count; refining the grid removes the inaccuracy.
    #[test]
    fn basic_gh_improves_with_level() {
        // Disjoint rects sharing a cell at level 1 but not intersecting:
        // false counting at the coarse level, correct at a fine level.
        let a = vec![Rect::new(0.02, 0.02, 0.1, 0.1)];
        let b = vec![Rect::new(0.3, 0.3, 0.4, 0.4)];
        let coarse_a = GhBasicHistogram::build(unit_grid(1), &a);
        let coarse_b = GhBasicHistogram::build(unit_grid(1), &b);
        let fine_a = GhBasicHistogram::build(unit_grid(5), &a);
        let fine_b = GhBasicHistogram::build(unit_grid(5), &b);
        let coarse = coarse_a.intersection_points(&coarse_b).unwrap();
        let fine = fine_a.intersection_points(&fine_b).unwrap();
        assert!(
            coarse > 0.0,
            "coarse grid falsely counts co-located disjoint MBRs"
        );
        assert!(
            (fine - 0.0).abs() < 1e-12,
            "fine grid resolves the false count"
        );
    }

    /// Revised GH mass conservation: Σ_cells C = 4N, Σ O = coverage ×
    /// num_cells, Σ H = 2·ΣW / cell width, Σ V = 2·ΣH / cell height.
    #[test]
    fn revised_gh_mass_conservation() {
        let rects = uniform(500, 31, 0.1);
        let g = unit_grid(4);
        let h = GhHistogram::build(g, &rects);
        let sum_c: u64 = h.c.iter().map(|&x| u64::from(x)).sum();
        assert_eq!(sum_c, 4 * rects.len() as u64);

        let sum_o: f64 = h.o.iter().map(|m| m.to_f64()).sum();
        let coverage: f64 = rects.iter().map(Rect::area).sum::<f64>() / g.cell_area();
        assert!((sum_o - coverage).abs() < 1e-9 * coverage.max(1.0));

        let sum_h: f64 = h.h.iter().map(|m| m.to_f64()).sum();
        let total_w: f64 = 2.0 * rects.iter().map(Rect::width).sum::<f64>() / g.cell_width();
        assert!((sum_h - total_w).abs() < 1e-9 * total_w.max(1.0));

        let sum_v: f64 = h.v.iter().map(|m| m.to_f64()).sum();
        let total_h: f64 = 2.0 * rects.iter().map(Rect::height).sum::<f64>() / g.cell_height();
        assert!((sum_v - total_h).abs() < 1e-9 * total_h.max(1.0));
    }

    /// Figure 5 semantics: for a single MBR clipped by a cell, O is the
    /// shaded-area ratio and H/V the clipped edge ratios.
    #[test]
    fn revised_gh_per_cell_masses() {
        let g = unit_grid(1); // 2×2 cells of side 0.5
                              // MBR overlapping cell (0,0) by [0.25..0.5] × [0.25..0.5].
        let r = vec![Rect::new(0.25, 0.25, 0.75, 0.75)];
        let h = GhHistogram::build(g, &r);
        let (c, o, hh, vv) = h.masses(&g, 0, 0);
        assert_eq!(c, 1, "one corner (0.25, 0.25) in cell (0,0)");
        assert!(
            (o - (0.25 * 0.25) / 0.25).abs() < 1e-12,
            "clipped area ratio"
        );
        // Only the bottom h-edge passes through cell (0,0); clipped length
        // 0.25 over cell width 0.5.
        assert!((hh - 0.5).abs() < 1e-12);
        assert!((vv - 0.5).abs() < 1e-12);
    }

    /// On uniform data, revised GH at a modest level is accurate.
    #[test]
    fn revised_gh_accuracy_on_uniform_data() {
        let a = uniform(3000, 32, 0.02);
        let b = uniform(3000, 33, 0.02);
        let actual = sj_sweep::sweep_join_selectivity(&a, &b);
        let g = unit_grid(5);
        let ha = GhHistogram::build(g, &a);
        let hb = GhHistogram::build(g, &b);
        let est = ha.estimate(&hb).unwrap().selectivity;
        let err = (est - actual).abs() / actual;
        assert!(
            err < 0.1,
            "revised GH error {err:.3} (est {est:.3e}, actual {actual:.3e})"
        );
    }

    /// The paper's headline property: revised GH errors decrease
    /// monotonically (in practice: are non-increasing within noise) as the
    /// grid level grows.
    #[test]
    fn revised_gh_error_shrinks_with_level() {
        let a = uniform(2000, 34, 0.05);
        let b = uniform(2000, 35, 0.05);
        let actual = sj_sweep::sweep_join_selectivity(&a, &b);
        let err_at = |level: u32| {
            let g = unit_grid(level);
            let ha = GhHistogram::build(g, &a);
            let hb = GhHistogram::build(g, &b);
            (ha.estimate(&hb).unwrap().selectivity - actual).abs() / actual
        };
        let e1 = err_at(1);
        let e4 = err_at(4);
        let e7 = err_at(7);
        assert!(
            e4 <= e1 * 1.05,
            "level 4 ({e4:.4}) should improve on level 1 ({e1:.4})"
        );
        assert!(
            e7 <= e4 * 1.05,
            "level 7 ({e7:.4}) should improve on level 4 ({e7:.4})"
        );
        assert!(
            e7 < 0.05,
            "revised GH at level 7 must be <5% on uniform data: {e7:.4}"
        );
    }

    /// Point ⋈ box joins: the degenerate-corner convention (4 coincident
    /// corners per point) keeps IP/4 unbiased.
    #[test]
    fn revised_gh_point_box_join() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(36);
        let pts: Vec<Rect> = (0..4000)
            .map(|_| {
                Rect::from_point(sj_geo::Point::new(
                    rng.random_range(0.0..1.0),
                    rng.random_range(0.0..1.0),
                ))
            })
            .collect();
        let boxes = uniform(1500, 37, 0.08);
        let actual = sj_sweep::sweep_join_selectivity(&pts, &boxes);
        let g = unit_grid(5);
        let hp = GhHistogram::build(g, &pts);
        let hb = GhHistogram::build(g, &boxes);
        let est = hp.estimate(&hb).unwrap().selectivity;
        let err = (est - actual).abs() / actual;
        assert!(err < 0.1, "point⋈box GH error {err:.3}");
    }

    #[test]
    fn estimates_are_symmetric() {
        let a = uniform(800, 38, 0.05);
        let b = uniform(900, 39, 0.03);
        let g = unit_grid(4);
        let (ha, hb) = (GhHistogram::build(g, &a), GhHistogram::build(g, &b));
        let ab = ha.estimate(&hb).unwrap();
        let ba = hb.estimate(&ha).unwrap();
        assert!((ab.selectivity - ba.selectivity).abs() < 1e-15);
        let (ba_, bb_) = (
            GhBasicHistogram::build(g, &a),
            GhBasicHistogram::build(g, &b),
        );
        assert_eq!(
            ba_.estimate(&bb_).unwrap().selectivity,
            bb_.estimate(&ba_).unwrap().selectivity
        );
    }

    #[test]
    fn grid_mismatch_errors() {
        let a = uniform(10, 40, 0.1);
        let h2 = GhHistogram::build(unit_grid(2), &a);
        let h3 = GhHistogram::build(unit_grid(3), &a);
        assert!(matches!(
            h2.estimate(&h3),
            Err(HistogramError::GridMismatch { .. })
        ));
        let b2 = GhBasicHistogram::build(unit_grid(2), &a);
        let b3 = GhBasicHistogram::build(unit_grid(3), &a);
        assert!(matches!(
            b2.estimate(&b3),
            Err(HistogramError::GridMismatch { .. })
        ));
    }

    #[test]
    fn empty_datasets_estimate_zero() {
        let g = unit_grid(3);
        let he = GhHistogram::build(g, &[]);
        let hb = GhHistogram::build(g, &uniform(100, 41, 0.05));
        assert_eq!(he.estimate(&hb).unwrap().selectivity, 0.0);
    }

    #[test]
    fn bytes_roundtrip_both_variants() {
        let rects = uniform(300, 42, 0.06);
        let g = unit_grid(3);
        let basic = GhBasicHistogram::build(g, &rects);
        let bytes = basic.to_bytes();
        assert_eq!(bytes.len(), basic.size_bytes());
        assert_eq!(GhBasicHistogram::from_bytes(&bytes).unwrap(), basic);

        let revised = GhHistogram::build(g, &rects);
        let bytes = revised.to_bytes();
        assert_eq!(bytes.len(), revised.size_bytes());
        assert_eq!(GhHistogram::from_bytes(&bytes).unwrap(), revised);
    }

    #[test]
    fn from_bytes_rejects_corruption() {
        let rects = uniform(50, 43, 0.05);
        let h = GhHistogram::build(unit_grid(2), &rects);
        let bytes = h.to_bytes();
        assert!(GhHistogram::from_bytes(&bytes[..10]).is_err());
        let mut wrong_magic = bytes.to_vec();
        wrong_magic[0] ^= 1;
        assert!(GhHistogram::from_bytes(&wrong_magic).is_err());
        // A basic-GH file is not a revised-GH file.
        let basic = GhBasicHistogram::build(unit_grid(2), &rects);
        assert!(GhHistogram::from_bytes(&basic.to_bytes()).is_err());
    }

    /// The paper argues GH needs less space than PH at the same level.
    #[test]
    fn gh_smaller_than_ph() {
        let rects = uniform(100, 44, 0.05);
        let g = unit_grid(5);
        let gh = GhHistogram::build(g, &rects);
        let ph = crate::PhHistogram::build(g, &rects);
        assert!(gh.size_bytes() < ph.size_bytes());
    }
}

#[cfg(test)]
mod extension_tests {
    use super::*;
    use crate::parametric::{parametric_selectivity, ParametricInputs};
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

    /// An algebraic identity worth pinning down: at level 0 the revised
    /// GH estimate collapses to the Aref–Samet parametric formula.
    /// With one cell, C = 4N, O = coverage, H = 2ΣW/extent width,
    /// V = 2ΣH/extent height, so
    /// IP/4 = N₁C₂ + N₂C₁ + N₁N₂(W̄₁H̄₂ + W̄₂H̄₁)/A — exactly Eq. 1.
    #[test]
    fn gh_level_zero_equals_parametric_model() {
        let a = uniform(700, 50, 0.05);
        let b = uniform(500, 51, 0.08);
        let g = unit_grid(0);
        let (ha, hb) = (GhHistogram::build(g, &a), GhHistogram::build(g, &b));
        let gh = ha.estimate(&hb).unwrap().selectivity;

        let stats = |v: &[Rect]| ParametricInputs {
            count: v.len(),
            coverage: v.iter().map(Rect::area).sum::<f64>(),
            avg_width: v.iter().map(Rect::width).sum::<f64>() / v.len() as f64,
            avg_height: v.iter().map(Rect::height).sum::<f64>() / v.len() as f64,
        };
        let pm = parametric_selectivity(&stats(&a), &stats(&b), 1.0);
        assert!(
            (gh - pm).abs() < 1e-12 * pm.max(1e-300),
            "GH level 0 ({gh:e}) must equal the parametric model ({pm:e})"
        );
    }

    /// The 12 relative positions of Figure 2, each resolved on a fine
    /// grid: basic GH must count exactly 4 intersection points per case.
    /// Coordinates avoid all grid lines at level 5 (multiples of 1/32).
    #[test]
    fn figure2_cases_all_count_four_points() {
        let g = unit_grid(5);
        let a = Rect::new(0.3001, 0.3001, 0.6002, 0.6002);
        // One representative per Figure 2 family (corner overlaps, edge
        // spans, crossings, containments), expressed as b-rects against a.
        let cases: Vec<(&str, Rect)> = vec![
            ("corner NE", Rect::new(0.5003, 0.5004, 0.8005, 0.8006)),
            ("corner NW", Rect::new(0.1007, 0.5008, 0.4009, 0.8011)),
            ("corner SE", Rect::new(0.5012, 0.1013, 0.8014, 0.4015)),
            ("corner SW", Rect::new(0.1016, 0.1017, 0.4018, 0.4019)),
            (
                "vertical band through a",
                Rect::new(0.4021, 0.2022, 0.5023, 0.7024),
            ),
            (
                "horizontal band through a",
                Rect::new(0.2025, 0.4026, 0.7027, 0.5028),
            ),
            (
                "edge notch from north",
                Rect::new(0.4029, 0.5031, 0.5032, 0.7033),
            ),
            (
                "edge notch from south",
                Rect::new(0.4034, 0.2035, 0.5036, 0.4037),
            ),
            (
                "edge notch from east",
                Rect::new(0.5038, 0.4039, 0.7041, 0.5042),
            ),
            (
                "edge notch from west",
                Rect::new(0.2043, 0.4044, 0.4045, 0.5046),
            ),
            ("b inside a", Rect::new(0.4047, 0.4048, 0.5049, 0.5051)),
            ("a inside b", Rect::new(0.2052, 0.2053, 0.7054, 0.7055)),
        ];
        for (name, b) in cases {
            assert!(a.intersects(&b), "fixture {name} must intersect");
            let ha = GhBasicHistogram::build(g, &[a]);
            let hb = GhBasicHistogram::build(g, &[b]);
            let ip = ha.intersection_points(&hb).unwrap();
            assert!(
                (ip - 4.0).abs() < 1e-12,
                "case {name:?}: expected 4 intersection points, got {ip}"
            );
        }
    }

    #[test]
    fn window_estimate_full_window_matches_global() {
        let a = uniform(2000, 52, 0.04);
        let b = uniform(2000, 53, 0.04);
        let g = unit_grid(5);
        let (ha, hb) = (GhHistogram::build(g, &a), GhHistogram::build(g, &b));
        let global = ha.estimate(&hb).unwrap().pairs;
        let windowed = ha
            .estimate_pairs_in_window(&hb, &Rect::new(0.0, 0.0, 1.0, 1.0))
            .unwrap();
        assert!(
            (global - windowed).abs() < 1e-9 * global.max(1.0),
            "full-extent window must reproduce the global estimate: {global} vs {windowed}"
        );
    }

    #[test]
    fn window_estimate_tracks_exact_windowed_count() {
        let a = uniform(3000, 54, 0.03);
        let b = uniform(3000, 55, 0.03);
        let g = unit_grid(6);
        let (ha, hb) = (GhHistogram::build(g, &a), GhHistogram::build(g, &b));
        let window = Rect::new(0.2, 0.2, 0.7, 0.6);
        let est = ha.estimate_pairs_in_window(&hb, &window).unwrap();
        // Exact: pairs whose intersection touches the window.
        let mut exact = 0u64;
        for ra in &a {
            for rb in &b {
                if let Some(i) = ra.intersection(rb) {
                    if i.intersects(&window) {
                        exact += 1;
                    }
                }
            }
        }
        let err = (est - exact as f64).abs() / exact as f64;
        assert!(
            err < 0.15,
            "windowed estimate err {err:.3} (est {est:.0}, exact {exact})"
        );
    }

    #[test]
    fn window_estimates_are_additive() {
        // Disjoint windows partitioning the extent must sum to the global
        // estimate (linearity of the weighted Eq. 5 sum).
        let a = uniform(1000, 56, 0.05);
        let b = uniform(1000, 57, 0.05);
        let g = unit_grid(4);
        let (ha, hb) = (GhHistogram::build(g, &a), GhHistogram::build(g, &b));
        let left = ha
            .estimate_pairs_in_window(&hb, &Rect::new(0.0, 0.0, 0.5, 1.0))
            .unwrap();
        let right = ha
            .estimate_pairs_in_window(&hb, &Rect::new(0.5, 0.0, 1.0, 1.0))
            .unwrap();
        let global = ha.estimate(&hb).unwrap().pairs;
        assert!(
            (left + right - global).abs() < 1e-9 * global.max(1.0),
            "window halves must sum to the whole: {left} + {right} vs {global}"
        );
    }

    #[test]
    fn window_outside_extent_estimates_zero() {
        let a = uniform(200, 58, 0.05);
        let g = unit_grid(3);
        let h = GhHistogram::build(g, &a);
        // A window that clips to zero overlap with every cell it maps to.
        let est = h
            .estimate_pairs_in_window(&h, &Rect::new(2.0, 2.0, 3.0, 3.0))
            .unwrap();
        assert_eq!(est, 0.0);
    }

    /// Affine invariance: scaling/translating the world (datasets +
    /// extent together) must not change GH estimates — the masses are all
    /// ratios to cell dimensions.
    #[test]
    fn gh_estimates_are_affine_invariant() {
        let a = uniform(800, 59, 0.05);
        let b = uniform(800, 60, 0.05);
        let g1 = unit_grid(4);
        let e1 = GhHistogram::build(g1, &a)
            .estimate(&GhHistogram::build(g1, &b))
            .unwrap()
            .selectivity;

        let transform = |r: &Rect| r.scaled(12.5, 0.25).translated(-40.0, 7.0);
        let a2: Vec<Rect> = a.iter().map(&transform).collect();
        let b2: Vec<Rect> = b.iter().map(&transform).collect();
        let world = Extent::new(transform(&Rect::new(0.0, 0.0, 1.0, 1.0)));
        let g2 = Grid::new(4, world).unwrap();
        let e2 = GhHistogram::build(g2, &a2)
            .estimate(&GhHistogram::build(g2, &b2))
            .unwrap()
            .selectivity;
        assert!(
            (e1 - e2).abs() < 1e-9 * e1.max(1e-300),
            "affine transform changed the estimate: {e1:e} vs {e2:e}"
        );
    }
}

#[cfg(test)]
mod window_count_tests {
    use super::*;
    use sj_geo::Extent;

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
    fn window_count_tracks_exact_range_query() {
        let rects = uniform(5000, 61, 0.03);
        let g = Grid::new(6, Extent::unit()).unwrap();
        let h = GhHistogram::build(g, &rects);
        for (qx0, qy0, qx1, qy1) in [
            (0.1, 0.1, 0.4, 0.3),
            (0.5, 0.5, 0.9, 0.95),
            (0.0, 0.0, 1.0, 1.0),
        ] {
            let q = Rect::new(qx0, qy0, qx1, qy1);
            let est = h.estimate_window_count(&q);
            let exact = rects.iter().filter(|r| r.intersects(&q)).count() as f64;
            let err = (est - exact).abs() / exact;
            assert!(
                err < 0.05,
                "window {q:?}: est {est:.0} vs exact {exact} (err {err:.3})"
            );
        }
    }

    #[test]
    fn window_count_on_clustered_point_data() {
        // Degenerate MBRs: the window count degenerates to point counting.
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(62);
        let pts: Vec<Rect> = (0..4000)
            .map(|_| {
                let x: f64 = rng.random_range(0.0..1.0);
                Rect::from_point(sj_geo::Point::new(x * x, rng.random_range(0.0..1.0)))
            })
            .collect();
        let g = Grid::new(7, Extent::unit()).unwrap();
        let h = GhHistogram::build(g, &pts);
        let q = Rect::new(0.0, 0.2, 0.25, 0.8);
        let est = h.estimate_window_count(&q);
        let exact = pts.iter().filter(|r| r.intersects(&q)).count() as f64;
        let err = (est - exact).abs() / exact;
        assert!(
            err < 0.05,
            "point window count err {err:.3} ({est:.0} vs {exact})"
        );
    }

    #[test]
    fn window_count_of_empty_region_is_small() {
        let rects = vec![Rect::new(0.8, 0.8, 0.9, 0.9); 50];
        let g = Grid::new(5, Extent::unit()).unwrap();
        let h = GhHistogram::build(g, &rects);
        let est = h.estimate_window_count(&Rect::new(0.0, 0.0, 0.2, 0.2));
        assert!(est < 1.0, "empty region should estimate ~0, got {est}");
    }

    #[test]
    fn window_count_whole_extent_counts_everything() {
        let rects = uniform(800, 63, 0.05);
        let g = Grid::new(4, Extent::unit()).unwrap();
        let h = GhHistogram::build(g, &rects);
        let est = h.estimate_window_count(&Rect::new(0.0, 0.0, 1.0, 1.0));
        // Whole-extent query intersects every MBR; boundary mass makes the
        // estimate approximate but close.
        let err = (est - 800.0).abs() / 800.0;
        assert!(err < 0.05, "whole-extent count {est:.0} (err {err:.3})");
    }
}

#[cfg(test)]
mod sparse_tests {
    use super::*;
    use crate::crc::crc32;
    use crate::sparse::{PAYLOAD_HEADER_LEN, RECORD_LEN, SPARSE_MAGIC, SPARSE_VERSION};
    use crate::traits::seal_envelope;
    use crate::{CorruptSection, HistogramKind};
    use sj_geo::{Extent, Point};

    fn clustered(n: usize, seed: u64) -> Vec<Rect> {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let x = 0.3 + rng.random_range(0.0..0.05);
                let y = 0.6 + rng.random_range(0.0..0.05);
                Rect::centered(Point::new(x, y), 0.002, 0.002)
            })
            .collect()
    }

    /// Re-frames `payload` as a sparse file of `kind` with a valid CRC.
    fn reframe(kind: HistogramKind, payload: &[u8]) -> Vec<u8> {
        seal_envelope(SPARSE_MAGIC, SPARSE_VERSION, kind, payload).to_vec()
    }

    #[test]
    fn sparse_roundtrip_is_exact() {
        let rects = clustered(400, 80);
        let g = Grid::new(7, Extent::unit()).unwrap();
        let h = GhHistogram::build(g, &rects);
        let bytes = h.to_sparse_bytes();
        assert_eq!(bytes.len(), h.sparse_size_bytes());
        let back = GhHistogram::from_sparse_bytes(&bytes).unwrap();
        assert_eq!(back, h, "sparse roundtrip must be lossless");
    }

    #[test]
    fn sparse_much_smaller_on_clustered_data_at_high_levels() {
        let rects = clustered(1000, 81);
        let g = Grid::new(8, Extent::unit()).unwrap();
        let h = GhHistogram::build(g, &rects);
        let dense = h.size_bytes();
        let sparse = h.sparse_size_bytes();
        assert!(
            sparse * 20 < dense,
            "clustered data at level 8 should compress >20x: {sparse} vs {dense}"
        );
    }

    #[test]
    fn sparse_larger_per_cell_when_fully_occupied() {
        // Dense uniform data occupying every cell: sparse pays the index
        // overhead and loses — the tradeoff is data-dependent by design.
        let g = Grid::new(2, Extent::unit()).unwrap();
        let h = GhHistogram::build(g, &[Rect::new(0.0, 0.0, 1.0, 1.0)]);
        assert_eq!(h.occupied_cells(), g.num_cells());
        assert!(h.sparse_size_bytes() > h.size_bytes());
    }

    #[test]
    fn sparse_rejects_corruption() {
        let rects = clustered(50, 82);
        let g = Grid::new(4, Extent::unit()).unwrap();
        let h = GhHistogram::build(g, &rects);
        let bytes = h.to_sparse_bytes();
        assert!(GhHistogram::from_sparse_bytes(&bytes[..bytes.len() - 4]).is_err());
        assert!(GhHistogram::from_sparse_bytes(&bytes[..20]).is_err());
        let mut bad_magic = bytes.to_vec();
        bad_magic[0] ^= 1;
        assert!(GhHistogram::from_sparse_bytes(&bad_magic).is_err());
        // A flipped record byte fails the checksum.
        let mut flipped = bytes.to_vec();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x04;
        assert!(matches!(
            GhHistogram::from_sparse_bytes(&flipped),
            Err(HistogramError::Corrupt {
                section: CorruptSection::Checksum,
                ..
            })
        ));
        // A dense file is not a sparse file and vice versa.
        assert!(GhHistogram::from_sparse_bytes(&h.to_bytes()).is_err());
        assert!(GhHistogram::from_bytes(&h.to_sparse_bytes()).is_err());
        // Another kind tag is refused even with a valid checksum.
        let payload = &bytes[20..bytes.len() - 4];
        assert!(matches!(
            GhHistogram::from_sparse_bytes(&reframe(HistogramKind::Ph, payload)),
            Err(HistogramError::Corrupt {
                section: CorruptSection::Envelope,
                ..
            })
        ));
    }

    /// The unframed layout of earlier builds — magic "SJGS" followed by
    /// the same fields, no frame or checksum — is a typed error.
    #[test]
    fn unframed_sparse_files_are_typed_errors() {
        let g = Grid::new(3, Extent::unit()).unwrap();
        let h = GhHistogram::build(g, &clustered(30, 84));
        let bytes = h.to_sparse_bytes();
        let mut legacy = 0x534a_4753u32.to_le_bytes().to_vec();
        legacy.extend_from_slice(&bytes[20..bytes.len() - 4]);
        assert!(matches!(
            GhHistogram::from_sparse_bytes(&legacy),
            Err(HistogramError::Corrupt {
                section: CorruptSection::Envelope,
                ..
            })
        ));
        assert!(crate::load_histogram(&legacy).is_err());
    }

    #[test]
    fn sparse_rejects_out_of_order_indices() {
        let rects = clustered(50, 83);
        let g = Grid::new(3, Extent::unit()).unwrap();
        let h = GhHistogram::build(g, &rects);
        let bytes = h.to_sparse_bytes();
        let mut payload = bytes[20..bytes.len() - 4].to_vec();
        // Duplicate the first cell record over the second (indices no
        // longer strictly increasing), then re-frame with a valid CRC.
        let (header, record) = (PAYLOAD_HEADER_LEN, RECORD_LEN);
        assert!(payload.len() >= header + 2 * record, "two occupied cells");
        let (first, rest) = payload.split_at_mut(header + record);
        rest[..record].copy_from_slice(&first[header..header + record]);
        let forged = reframe(HistogramKind::Gh, &payload);
        assert_eq!(
            u32::from_le_bytes(forged[forged.len() - 4..].try_into().unwrap()),
            crc32(&forged[..forged.len() - 4])
        );
        assert!(matches!(
            GhHistogram::from_sparse_bytes(&forged),
            Err(HistogramError::Corrupt {
                section: CorruptSection::Payload,
                ..
            })
        ));
    }

    #[test]
    fn empty_histogram_sparse_roundtrip() {
        let g = Grid::new(3, Extent::unit()).unwrap();
        let h = GhHistogram::build(g, &[]);
        assert_eq!(h.occupied_cells(), 0);
        let back = GhHistogram::from_sparse_bytes(&h.to_sparse_bytes()).unwrap();
        assert_eq!(back, h);
    }
}
