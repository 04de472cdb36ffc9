//! Euler histogram: exact distinct-object range counting at grid
//! resolution (Beigel & Tanin 1998; Sun, Agrawal & El Abbadi, 2002).
//!
//! **Extension beyond the paper**, included as the classical *exact*
//! counterpart to the Geometric Histogram's statistical window counting:
//! both summarize a dataset on the same grid, but where GH estimates, the
//! Euler histogram is exact for cell-aligned query windows.
//!
//! The idea is inclusion–exclusion via the Euler characteristic. Each
//! object's MBR covers a rectangular block of grid cells. The histogram
//! maintains, per grid *face*, how many objects' blocks contain it:
//!
//! * `F` — per cell (2-dimensional faces),
//! * `Ev` — per interior vertical edge between horizontally adjacent
//!   cells, `Eh` — per interior horizontal edge,
//! * `V` — per interior vertex where four cells meet.
//!
//! For a query window `Q` spanning a block of cells, each object whose
//! block intersects `Q` contributes a non-empty rectangular sub-block,
//! whose Euler characteristic (#cells − #interior edges + #interior
//! vertices) is exactly 1. Summing the stored counts with the same signs
//! over `Q`'s interior therefore counts each intersecting object exactly
//! once — no double counting, the problem PH fights with `AvgSpan`.

use crate::band::RowBanded;
use crate::grid::Grid;
use crate::schema::{Family, Schema, Sink};
use crate::{HistogramError, SelectivityEstimate};
use sj_geo::Rect;

/// An Euler histogram over a grid.
#[derive(Debug, Clone, PartialEq)]
pub struct EulerHistogram {
    grid: Grid,
    n: u64,
    /// Per-cell coverage counts, `n × n` row-major.
    faces: Vec<u32>,
    /// Interior vertical edges: `(n-1) × n` (col boundary c|c+1, row r),
    /// indexed `row * (n-1) + col`.
    v_edges: Vec<u32>,
    /// Interior horizontal edges: `n × (n-1)` (col c, row boundary r|r+1),
    /// indexed `row * n + col`.
    h_edges: Vec<u32>,
    /// Interior vertices: `(n-1) × (n-1)`, indexed `row * (n-1) + col`.
    vertices: Vec<u32>,
}

crate::schema::histogram_family! {
    EulerHistogram: Euler, magic 0x534a_4555, // "SJEU"
    scalars [n],
    arrays [
        faces: Count @ Cells,
        v_edges: Count @ VEdges,
        h_edges: Count @ HEdges,
        vertices: Count @ Vertices,
    ],
}

impl EulerHistogram {
    /// Counts the objects whose cell blocks intersect the cell block of
    /// `window`. **Exact** when both the data MBRs and the window are
    /// aligned to cell boundaries; otherwise exact at cell resolution
    /// (an object partially sharing a cell with the window counts even if
    /// the two never touch inside it).
    #[must_use]
    pub fn count_in_window(&self, window: &Rect) -> u64 {
        let grid = self.grid();
        let n = crate::grid::ix(grid.cells_per_axis());
        let (c0, c1, r0, r1) = grid.cell_range(window);
        let (c0, c1, r0, r1) = (
            crate::grid::ix(c0),
            crate::grid::ix(c1),
            crate::grid::ix(r0),
            crate::grid::ix(r1),
        );
        let mut total: i64 = 0;
        for row in r0..=r1 {
            for col in c0..=c1 {
                total += i64::from(self.faces[row * n + col]);
            }
            for col in c0..c1 {
                total -= i64::from(self.v_edges[row * (n - 1) + col]);
            }
        }
        for row in r0..r1 {
            for col in c0..=c1 {
                total -= i64::from(self.h_edges[row * n + col]);
            }
            for col in c0..c1 {
                total += i64::from(self.vertices[row * (n - 1) + col]);
            }
        }
        debug_assert!(total >= 0, "Euler sum must be non-negative");
        u64::try_from(total.max(0)).unwrap_or(0)
    }

    /// Total number of objects (full-extent query; sanity identity).
    #[must_use]
    pub fn total_count(&self) -> u64 {
        self.count_in_window(&self.grid.extent().rect())
    }

    /// Counts the pairs of objects (one from each histogram) whose cell
    /// blocks intersect — the Euler-characteristic join. For every pair
    /// with intersecting blocks, the shared sub-block's Euler
    /// characteristic (#faces − #edges + #vertices) is exactly 1, so the
    /// signed sum of per-face count products counts each such pair once:
    /// **exact** at cell resolution, with no multiple counting.
    ///
    /// # Errors
    /// Returns [`HistogramError::GridMismatch`] on incompatible grids.
    pub fn intersection_pairs(&self, other: &Self) -> Result<u64, HistogramError> {
        if !self.grid.compatible(&other.grid) {
            return Err(HistogramError::GridMismatch {
                left_level: self.grid.level(),
                right_level: other.grid.level(),
            });
        }
        let mut total: i128 = 0;
        for (a, b) in self.faces.iter().zip(&other.faces) {
            total += i128::from(*a) * i128::from(*b);
        }
        for (a, b) in self.v_edges.iter().zip(&other.v_edges) {
            total -= i128::from(*a) * i128::from(*b);
        }
        for (a, b) in self.h_edges.iter().zip(&other.h_edges) {
            total -= i128::from(*a) * i128::from(*b);
        }
        for (a, b) in self.vertices.iter().zip(&other.vertices) {
            total += i128::from(*a) * i128::from(*b);
        }
        debug_assert!(total >= 0, "Euler join sum must be non-negative");
        Ok(u64::try_from(total.max(0)).unwrap_or(u64::MAX))
    }

    /// Estimates the join selectivity as block-intersecting pairs over
    /// `N₁·N₂`. A slight overcount of the true MBR join: pairs sharing a
    /// cell without touching inside it are included (cell-resolution
    /// semantics, like [`Self::count_in_window`]).
    ///
    /// # Errors
    /// Returns [`HistogramError::GridMismatch`] on incompatible grids.
    pub fn estimate(&self, other: &Self) -> Result<SelectivityEstimate, HistogramError> {
        let pairs = self.intersection_pairs(other)?;
        #[allow(clippy::cast_precision_loss)]
        let denom = (self.n as f64) * (other.n as f64);
        #[allow(clippy::cast_precision_loss)]
        let raw = if denom == 0.0 {
            0.0
        } else {
            pairs as f64 / denom
        };
        Ok(SelectivityEstimate::from_selectivity(
            raw,
            self.dataset_len(),
            other.dataset_len(),
        ))
    }
}

#[warn(clippy::float_arithmetic)]
impl RowBanded for EulerHistogram {
    fn build_rows(grid: Grid, rects: &[Rect], lo: u32, hi: u32, sink: &mut impl Sink) {
        const SCHEMA: &Schema = &EulerHistogram::SCHEMA;
        const N: usize = SCHEMA.scalar("n");
        const FACES: usize = SCHEMA.array("faces");
        const V_EDGES: usize = SCHEMA.array("v_edges");
        const H_EDGES: usize = SCHEMA.array("h_edges");
        const VERTICES: usize = SCHEMA.array("vertices");
        let n = crate::grid::ix(grid.cells_per_axis());
        let (lo, hi) = (crate::grid::ix(lo), crate::grid::ix(hi));
        for r in rects {
            let (c0, c1, r0, r1) = grid.cell_range(r);
            let (c0, c1, r0, r1) = (
                crate::grid::ix(c0),
                crate::grid::ix(c1),
                crate::grid::ix(r0),
                crate::grid::ix(r1),
            );
            if r1 < lo || r0 >= hi {
                continue;
            }
            if (lo..hi).contains(&r0) {
                sink.add_scalar(N, 1);
            }
            for row in r0.max(lo)..=r1.min(hi - 1) {
                for col in c0..=c1 {
                    sink.add_count(FACES, row * n + col);
                }
                for col in c0..c1 {
                    sink.add_count(V_EDGES, row * (n - 1) + col);
                }
            }
            // Horizontal edges and vertices live on row boundaries r0..r1,
            // always below the last grid row.
            for row in r0.max(lo)..r1.min(hi) {
                for col in c0..=c1 {
                    sink.add_count(H_EDGES, row * n + col);
                }
                for col in c0..c1 {
                    sink.add_count(VERTICES, row * (n - 1) + col);
                }
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

    /// Brute-force reference: objects whose cell block intersects the
    /// window's cell block.
    fn snapped_count(grid: &Grid, rects: &[Rect], window: &Rect) -> u64 {
        let (qc0, qc1, qr0, qr1) = grid.cell_range(window);
        rects
            .iter()
            .filter(|r| {
                let (c0, c1, r0, r1) = grid.cell_range(r);
                c0 <= qc1 && qc0 <= c1 && r0 <= qr1 && qr0 <= r1
            })
            .count() as u64
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
    fn single_spanning_object_counts_once() {
        // The motivating case: one object spanning 3×2 cells must count
        // exactly once from any window covering part of its block.
        let g = unit_grid(2); // 4×4 cells of side 0.25
        let rects = vec![Rect::new(0.05, 0.05, 0.70, 0.30)]; // cols 0..2, rows 0..1
        let h = EulerHistogram::build(g, &rects);
        assert_eq!(h.count_in_window(&Rect::new(0.0, 0.0, 1.0, 1.0)), 1);
        assert_eq!(h.count_in_window(&Rect::new(0.0, 0.0, 0.25, 0.25)), 1);
        assert_eq!(h.count_in_window(&Rect::new(0.5, 0.25, 0.75, 0.5)), 1);
        // A window over cells the object does not touch.
        assert_eq!(h.count_in_window(&Rect::new(0.80, 0.80, 0.95, 0.95)), 0);
    }

    #[test]
    fn matches_snapped_brute_force_on_random_data() {
        let rects = uniform(800, 90, 0.12);
        for level in [1u32, 3, 5] {
            let g = unit_grid(level);
            let h = EulerHistogram::build(g, &rects);
            for (qx0, qy0, qx1, qy1) in [
                (0.0, 0.0, 1.0, 1.0),
                (0.1, 0.2, 0.6, 0.7),
                (0.5, 0.5, 0.52, 0.52),
                (0.0, 0.9, 1.0, 1.0),
            ] {
                let q = Rect::new(qx0, qy0, qx1, qy1);
                assert_eq!(
                    h.count_in_window(&q),
                    snapped_count(&g, &rects, &q),
                    "level {level}, window {q:?}"
                );
            }
        }
    }

    #[test]
    fn exact_for_aligned_data_and_windows() {
        // Cell-aligned rects + cell-aligned window: the count is the true
        // intersecting-object count, not just a cell-resolution one.
        let g = unit_grid(2);
        let rects = vec![
            Rect::new(0.0, 0.0, 0.25, 0.25),
            Rect::new(0.25, 0.25, 0.75, 0.75),
            Rect::new(0.75, 0.75, 1.0, 1.0),
        ];
        let h = EulerHistogram::build(g, &rects);
        // Note: aligned rects *touch* cell boundaries; the half-open cell
        // assignment puts the shared boundary in the upper cell, so the
        // snapped blocks still reflect closed-intersection semantics.
        let q = Rect::new(0.25, 0.25, 0.5, 0.5);
        let expected = rects.iter().filter(|r| r.intersects(&q)).count() as u64;
        assert_eq!(h.count_in_window(&q), expected);
    }

    #[test]
    fn total_count_identity() {
        let rects = uniform(500, 91, 0.08);
        let h = EulerHistogram::build(unit_grid(4), &rects);
        assert_eq!(h.total_count(), 500);
        assert_eq!(h.dataset_len(), 500);
    }

    #[test]
    fn level_zero_degenerates_to_cardinality() {
        let rects = uniform(77, 92, 0.1);
        let h = EulerHistogram::build(unit_grid(0), &rects);
        assert_eq!(h.count_in_window(&Rect::new(0.4, 0.4, 0.6, 0.6)), 77);
    }

    #[test]
    fn empty_dataset() {
        let h = EulerHistogram::build(unit_grid(3), &[]);
        assert_eq!(h.total_count(), 0);
        assert_eq!(h.count_in_window(&Rect::new(0.0, 0.0, 0.5, 0.5)), 0);
    }

    #[test]
    fn bytes_roundtrip() {
        let rects = uniform(300, 93, 0.1);
        let h = EulerHistogram::build(unit_grid(4), &rects);
        let bytes = h.to_bytes();
        assert_eq!(bytes.len(), h.size_bytes());
        assert_eq!(EulerHistogram::from_bytes(&bytes).unwrap(), h);
        assert!(EulerHistogram::from_bytes(&bytes[..10]).is_err());
        let mut garbled = bytes.to_vec();
        garbled[0] ^= 0xFF;
        assert!(EulerHistogram::from_bytes(&garbled).is_err());
    }

    /// The Euler join is exact at cell resolution: it must equal the
    /// brute-force count of pairs whose cell blocks intersect.
    #[test]
    fn join_counts_block_intersecting_pairs_exactly() {
        let a = uniform(300, 95, 0.1);
        let b = uniform(400, 96, 0.08);
        for level in [0u32, 1, 3, 5] {
            let g = unit_grid(level);
            let (ha, hb) = (EulerHistogram::build(g, &a), EulerHistogram::build(g, &b));
            let mut exact = 0u64;
            for ra in &a {
                let (c0, c1, r0, r1) = g.cell_range(ra);
                for rb in &b {
                    let (d0, d1, s0, s1) = g.cell_range(rb);
                    if c0 <= d1 && d0 <= c1 && r0 <= s1 && s0 <= r1 {
                        exact += 1;
                    }
                }
            }
            assert_eq!(ha.intersection_pairs(&hb).unwrap(), exact, "level {level}");
            assert_eq!(hb.intersection_pairs(&ha).unwrap(), exact, "symmetry");
        }
    }

    /// On a fine grid the cell-resolution overcount shrinks and the join
    /// estimate approaches the true selectivity from above.
    #[test]
    fn join_estimate_close_on_fine_grid() {
        // Objects large relative to the cells, so snapping their blocks to
        // cell boundaries dilates each pair test only slightly.
        let a = uniform(700, 97, 0.1);
        let b = uniform(700, 98, 0.1);
        let actual = sj_sweep::sweep_join_selectivity(&a, &b);
        let g = unit_grid(9);
        let est = EulerHistogram::build(g, &a)
            .estimate(&EulerHistogram::build(g, &b))
            .unwrap()
            .selectivity;
        let err = (est - actual).abs() / actual;
        assert!(
            err < 0.15,
            "euler join err {err:.3} (est {est:.3e}, actual {actual:.3e})"
        );
        assert!(est >= actual * 0.999, "cell-resolution join overcounts");
    }

    #[test]
    fn join_grid_mismatch_is_an_error() {
        let rects = uniform(20, 99, 0.1);
        let h2 = EulerHistogram::build(unit_grid(2), &rects);
        let h3 = EulerHistogram::build(unit_grid(3), &rects);
        assert!(matches!(
            h2.estimate(&h3),
            Err(HistogramError::GridMismatch { .. })
        ));
    }

    /// Compare against GH's statistical window count: on the same grid,
    /// Euler is exact at cell resolution while GH approximates — but both
    /// should be close for small objects.
    #[test]
    fn euler_vs_gh_window_counts() {
        let rects = uniform(3000, 94, 0.02);
        let g = unit_grid(6);
        let euler = EulerHistogram::build(g, &rects);
        let gh = crate::GhHistogram::build(g, &rects);
        let q = Rect::new(0.2, 0.3, 0.7, 0.8);
        let exact = rects.iter().filter(|r| r.intersects(&q)).count() as f64;
        // Euler is exact for its snapped (cell-resolution) semantics and
        // slightly over the raw count: boundary-band objects that share a
        // cell with the window without touching it are included.
        assert_eq!(euler.count_in_window(&q), snapped_count(&g, &rects, &q));
        let euler_raw_err = (euler.count_in_window(&q) as f64 - exact) / exact;
        assert!(
            (0.0..0.12).contains(&euler_raw_err),
            "euler should overcount raw slightly: {euler_raw_err:.4}"
        );
        let gh_err = (gh.estimate_window_count(&q) - exact).abs() / exact;
        assert!(gh_err < 0.05, "gh err {gh_err:.4}");
    }
}
