//! The Parametric Histogram (PH) scheme — paper Section 3.1.2.
//!
//! PH grids the extent and keeps, per cell, the parametric-model
//! statistics of Table 1, split into two groups:
//!
//! * `Cont(i,j)` — MBRs fully contained in the cell: count `Num`,
//!   coverage `Cov`, average width/height `Xavg`/`Yavg`;
//! * `Isect(i,j)` — MBRs intersecting the cell but crossing its boundary:
//!   count `Num'`, clipped coverage `Cov'`, and the average width/height
//!   of the *intersections* with the cell, `Xavg'`/`Yavg'`.
//!
//! Estimation evaluates the four cases `Sa..Sd` per cell (Cont×Cont,
//! Cont×Isect, Isect×Cont, Isect×Isect) with the parametric formula and
//! divides the summed `Sd` by the mean `AvgSpan` of the two datasets to
//! correct the multiple counting of boundary-crossing × boundary-crossing
//! intersections (paper Eq. 3 and Figure 1).

use crate::band::RowBanded;
use crate::grid::Grid;
use crate::mass::Mass;
use crate::schema::{Family, Schema, Sink};
use crate::{HistogramError, SelectivityEstimate};
use sj_geo::Rect;

/// Per-dataset Parametric Histogram.
///
/// All statistics are stored as mergeable *sums* (exact fixed point for
/// fractional masses); Table 1's averages `Xavg`/`Yavg` and the scalar
/// `AvgSpan` are derived at estimate time. This is what makes PH a
/// mergeable sketch like the other families.
#[derive(Debug, Clone, PartialEq)]
pub struct PhHistogram {
    grid: Grid,
    /// Dataset cardinality (read by the SoA kernel views).
    pub(crate) n: u64,
    /// Total cells spanned by boundary-crossing MBRs (`AvgSpan`
    /// numerator).
    span_total: u64,
    /// Number of boundary-crossing MBRs (`AvgSpan` denominator).
    span_rects: u64,
    // Cont group, per cell: count, coverage sum, width/height sums.
    // `pub(crate)` so `kernel::PhView` can decode them into SoA slices.
    pub(crate) num: Vec<u32>,
    pub(crate) cov: Vec<Mass>,
    pub(crate) xsum: Vec<Mass>,
    pub(crate) ysum: Vec<Mass>,
    // Isect group, per cell, over clipped intersections.
    pub(crate) num_x: Vec<u32>,
    pub(crate) cov_x: Vec<Mass>,
    pub(crate) xsum_x: Vec<Mass>,
    pub(crate) ysum_x: Vec<Mass>,
}

crate::schema::histogram_family! {
    PhHistogram: Ph, magic 0x534a_5048, // "SJPH"
    scalars [n, span_total, span_rects],
    arrays [
        num: Count @ Cells,
        num_x: Count @ Cells,
        cov: Mass @ Cells,
        xsum: Mass @ Cells,
        ysum: Mass @ Cells,
        cov_x: Mass @ Cells,
        xsum_x: Mass @ Cells,
        ysum_x: Mass @ Cells,
    ],
}

impl PhHistogram {
    /// `AvgSpan`: mean number of cells spanned by boundary-crossing MBRs;
    /// `1.0` when no MBR crosses a cell boundary.
    #[must_use]
    pub fn avg_span(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        if self.span_rects == 0 {
            1.0
        } else {
            self.span_total as f64 / self.span_rects as f64
        }
    }

    /// Estimates the join selectivity between the datasets summarized by
    /// `self` and `other` (paper Eq. 3, with the `AvgSpan` correction).
    ///
    /// Dispatches through the SoA kernel layer ([`crate::kernel::PhView`],
    /// DESIGN.md §16); bit-identical to [`Self::estimate_scalar`].
    ///
    /// # Errors
    /// Returns [`HistogramError::GridMismatch`] when the histograms were
    /// built on different grids.
    pub fn estimate(&self, other: &PhHistogram) -> Result<SelectivityEstimate, HistogramError> {
        crate::kernel::PhView::new(self).estimate(&crate::kernel::PhView::new(other))
    }

    /// Estimates *without* dividing the `Sd` sum by the mean `AvgSpan` —
    /// the naive per-cell parametric sum that multiple-counts
    /// boundary-crossing × boundary-crossing intersections (paper
    /// Figure 1). Exposed for the ablation harness; always at least as
    /// large as [`Self::estimate`].
    ///
    /// # Errors
    /// Returns [`HistogramError::GridMismatch`] when the histograms were
    /// built on different grids.
    pub fn estimate_uncorrected(
        &self,
        other: &PhHistogram,
    ) -> Result<SelectivityEstimate, HistogramError> {
        crate::kernel::PhView::new(self).estimate_uncorrected(&crate::kernel::PhView::new(other))
    }

    /// The retained scalar reference loop of [`Self::estimate`]: iterates
    /// every cell of the dense per-statistic vectors directly, in the
    /// kernel's blocked order — `sum_abc` and `sum_d` each get one partial
    /// per 64-cell mask word from `+0.0`, added in ascending word order
    /// before the span-correction tail (DESIGN.md §16.3). Kept (and
    /// exercised by the `kernel_agreement` test) as the oracle the kernel
    /// path must match bit-for-bit.
    ///
    /// # Errors
    /// Returns [`HistogramError::GridMismatch`] when the histograms were
    /// built on different grids.
    pub fn estimate_scalar(
        &self,
        other: &PhHistogram,
    ) -> Result<SelectivityEstimate, HistogramError> {
        self.estimate_inner(other, true)
    }

    /// Scalar reference loop of [`Self::estimate_uncorrected`]; see
    /// [`Self::estimate_scalar`].
    ///
    /// # Errors
    /// Returns [`HistogramError::GridMismatch`] when the histograms were
    /// built on different grids.
    pub fn estimate_uncorrected_scalar(
        &self,
        other: &PhHistogram,
    ) -> Result<SelectivityEstimate, HistogramError> {
        self.estimate_inner(other, false)
    }

    fn estimate_inner(
        &self,
        other: &PhHistogram,
        correct_spans: bool,
    ) -> Result<SelectivityEstimate, HistogramError> {
        if !self.grid.compatible(&other.grid) {
            return Err(HistogramError::GridMismatch {
                left_level: self.grid.level(),
                right_level: other.grid.level(),
            });
        }
        let cell_area = self.grid.cell_area();
        // The parametric kernel of Eq. 1 evaluated on per-cell statistics:
        // n1*c2 + c1*n2 + n1*n2*(w1*h2 + w2*h1)/cell_area.
        let kernel = |n1: f64, c1: f64, w1: f64, h1: f64, n2: f64, c2: f64, w2: f64, h2: f64| {
            n1 * c2 + c1 * n2 + n1 * n2 * (w1 * h2 + w2 * h1) / cell_area
        };

        // Table 1 averages, derived on the fly from the stored sums.
        let avg = |sum: Mass, count: u32| {
            if count == 0 {
                0.0
            } else {
                sum.to_f64() / f64::from(count)
            }
        };
        let mut sum_abc = 0.0f64;
        let mut sum_d = 0.0f64;
        for run in crate::kernel::word_runs(&self.grid) {
            let (mut abc, mut d) = (0.0f64, 0.0f64);
            for idx in run {
                let (n1, c1, w1, h1) = (
                    f64::from(self.num[idx]),
                    self.cov[idx].to_f64(),
                    avg(self.xsum[idx], self.num[idx]),
                    avg(self.ysum[idx], self.num[idx]),
                );
                let (n1x, c1x, w1x, h1x) = (
                    f64::from(self.num_x[idx]),
                    self.cov_x[idx].to_f64(),
                    avg(self.xsum_x[idx], self.num_x[idx]),
                    avg(self.ysum_x[idx], self.num_x[idx]),
                );
                let (n2, c2, w2, h2) = (
                    f64::from(other.num[idx]),
                    other.cov[idx].to_f64(),
                    avg(other.xsum[idx], other.num[idx]),
                    avg(other.ysum[idx], other.num[idx]),
                );
                let (n2x, c2x, w2x, h2x) = (
                    f64::from(other.num_x[idx]),
                    other.cov_x[idx].to_f64(),
                    avg(other.xsum_x[idx], other.num_x[idx]),
                    avg(other.ysum_x[idx], other.num_x[idx]),
                );
                // Sa: Cont1 × Cont2; Sb: Cont1 × Isect2; Sc: Isect1 × Cont2.
                abc += kernel(n1, c1, w1, h1, n2, c2, w2, h2);
                abc += kernel(n1, c1, w1, h1, n2x, c2x, w2x, h2x);
                abc += kernel(n1x, c1x, w1x, h1x, n2, c2, w2, h2);
                // Sd: Isect1 × Isect2 — the only multi-counted case.
                d += kernel(n1x, c1x, w1x, h1x, n2x, c2x, w2x, h2x);
            }
            sum_abc += abc;
            sum_d += d;
        }
        let span_correction = if correct_spans {
            (self.avg_span() + other.avg_span()) / 2.0
        } else {
            1.0
        };
        let size = sum_abc + sum_d / span_correction;
        #[allow(clippy::cast_precision_loss)]
        let denom = (self.n as f64) * (other.n as f64);
        let raw = if denom == 0.0 { 0.0 } else { size / denom };
        Ok(SelectivityEstimate::from_selectivity(
            raw,
            self.dataset_len(),
            other.dataset_len(),
        ))
    }

    #[cfg(test)]
    pub(crate) fn cont_count(&self, col: u32, row: u32) -> u32 {
        self.num[self.grid.flat_index(col, row)]
    }

    #[cfg(test)]
    pub(crate) fn isect_count(&self, col: u32, row: u32) -> u32 {
        self.num_x[self.grid.flat_index(col, row)]
    }
}

#[warn(clippy::float_arithmetic)]
impl RowBanded for PhHistogram {
    fn build_rows(grid: Grid, rects: &[Rect], lo: u32, hi: u32, sink: &mut impl Sink) {
        const SCHEMA: &Schema = &PhHistogram::SCHEMA;
        const N: usize = SCHEMA.scalar("n");
        const SPAN_TOTAL: usize = SCHEMA.scalar("span_total");
        const SPAN_RECTS: usize = SCHEMA.scalar("span_rects");
        const CONT: [usize; 4] = [
            SCHEMA.array("num"),
            SCHEMA.array("cov"),
            SCHEMA.array("xsum"),
            SCHEMA.array("ysum"),
        ];
        const ISECT: [usize; 4] = [
            SCHEMA.array("num_x"),
            SCHEMA.array("cov_x"),
            SCHEMA.array("xsum_x"),
            SCHEMA.array("ysum_x"),
        ];
        // Flattened grid geometry: cell sizes and row bases hoisted out of
        // the per-cell binning loops (same expressions, so bit-identical).
        let bg = crate::kernel::BinGrid::new(&grid);
        for r in rects {
            let (c0, c1, r0, r1) = grid.cell_range(r);
            if r1 < lo || r0 >= hi {
                continue;
            }
            // Scalar statistics go to the band owning the bottom row, so
            // band builds partition them exactly.
            if (lo..hi).contains(&r0) {
                sink.add_scalar(N, 1);
                if !(c0 == c1 && r0 == r1) {
                    sink.add_scalar(SPAN_TOTAL, u64::from(c1 - c0 + 1) * u64::from(r1 - r0 + 1));
                    sink.add_scalar(SPAN_RECTS, 1);
                }
            }
            if c0 == c1 && r0 == r1 {
                if (lo..hi).contains(&r0) {
                    crate::kernel::bin_ph_cont(&bg, r, (c0, r0), sink, CONT);
                }
            } else {
                let rows = (r0.max(lo), r1.min(hi - 1));
                crate::kernel::bin_ph_isect(&bg, r, (c0, c1), rows, sink, ISECT);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parametric::{parametric_selectivity, ParametricInputs};
    use sj_geo::Extent;

    fn unit_grid(level: u32) -> Grid {
        Grid::new(level, Extent::unit()).unwrap()
    }

    fn stats_of(rects: &[Rect]) -> ParametricInputs {
        #[allow(clippy::cast_precision_loss)]
        let n = rects.len() as f64;
        ParametricInputs {
            count: rects.len(),
            coverage: rects.iter().map(Rect::area).sum::<f64>(),
            avg_width: rects.iter().map(Rect::width).sum::<f64>() / n,
            avg_height: rects.iter().map(Rect::height).sum::<f64>() / n,
        }
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
    fn level_zero_reduces_to_parametric_model() {
        let a = uniform(500, 1, 0.04);
        let b = uniform(700, 2, 0.03);
        let ha = PhHistogram::build(unit_grid(0), &a);
        let hb = PhHistogram::build(unit_grid(0), &b);
        let est = ha.estimate(&hb).unwrap();
        let expected = parametric_selectivity(&stats_of(&a), &stats_of(&b), 1.0);
        assert!(
            (est.selectivity - expected).abs() < 1e-12,
            "PH level 0 must equal Eq. 1/2: {} vs {expected}",
            est.selectivity
        );
    }

    #[test]
    fn contained_vs_spanning_accounting() {
        let g = unit_grid(1); // 2×2 cells of side 0.5
        let rects = vec![
            Rect::new(0.1, 0.1, 0.2, 0.2), // contained in (0,0)
            Rect::new(0.4, 0.1, 0.6, 0.2), // spans (0,0)-(1,0)
            Rect::new(0.6, 0.6, 0.9, 0.9), // contained in (1,1)
        ];
        let h = PhHistogram::build(g, &rects);
        assert_eq!(h.cont_count(0, 0), 1);
        assert_eq!(h.cont_count(1, 1), 1);
        assert_eq!(h.isect_count(0, 0), 1);
        assert_eq!(h.isect_count(1, 0), 1);
        assert_eq!(h.isect_count(0, 1), 0);
        assert!(
            (h.avg_span() - 2.0).abs() < 1e-12,
            "one spanner over 2 cells"
        );
    }

    #[test]
    fn avg_span_defaults_to_one() {
        let h = PhHistogram::build(unit_grid(2), &[Rect::new(0.1, 0.1, 0.12, 0.12)]);
        assert!((h.avg_span() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn estimate_accuracy_on_uniform_data_improves_then_degrades_mildly() {
        // On uniform data PH is already decent at level 0; the estimate
        // must stay sane (within 2× of truth) across levels.
        let a = uniform(3000, 3, 0.02);
        let b = uniform(3000, 4, 0.02);
        let actual = sj_sweep::sweep_join_selectivity(&a, &b);
        for level in 0..=6 {
            let ha = PhHistogram::build(unit_grid(level), &a);
            let hb = PhHistogram::build(unit_grid(level), &b);
            let est = ha.estimate(&hb).unwrap().selectivity;
            let ratio = est / actual;
            assert!(
                (0.5..2.0).contains(&ratio),
                "level {level}: est {est:.3e} vs actual {actual:.3e}"
            );
        }
    }

    #[test]
    fn estimate_on_clustered_data_beats_level_zero() {
        // The motivating case: clustered data breaks the global uniformity
        // assumption; gridding must improve the estimate.
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(9);
        // Minimal Box–Muller so this fixture needs no sj-datagen dep.
        fn normal(rng: &mut StdRng, mu: f64, sigma: f64) -> f64 {
            let u1: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
            let u2: f64 = rng.random_range(0.0..1.0);
            mu + sigma * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
        }
        let clustered = |rng: &mut StdRng, cx: f64, cy: f64, n: usize| -> Vec<Rect> {
            (0..n)
                .map(|_| {
                    let x = (cx + normal(rng, 0.0, 0.05)).clamp(0.0, 0.99);
                    let y = (cy + normal(rng, 0.0, 0.05)).clamp(0.0, 0.99);
                    let w = rng.random_range(0.0..0.01);
                    let h = rng.random_range(0.0..0.01);
                    Rect::new(x, y, (x + w).min(1.0), (y + h).min(1.0))
                })
                .collect()
        };
        let a = clustered(&mut rng, 0.3, 0.3, 2000);
        let b = clustered(&mut rng, 0.32, 0.32, 2000);
        let actual = sj_sweep::sweep_join_selectivity(&a, &b);
        let err = |level: u32| {
            let ha = PhHistogram::build(unit_grid(level), &a);
            let hb = PhHistogram::build(unit_grid(level), &b);
            let est = ha.estimate(&hb).unwrap().selectivity;
            (est - actual).abs() / actual
        };
        let e0 = err(0);
        let e4 = err(4);
        assert!(
            e4 < e0,
            "gridding should beat the uniform assumption on clustered data: \
             level0 err {e0:.3}, level4 err {e4:.3}"
        );
        assert!(
            e4 < 0.5,
            "level-4 PH error too high on clustered data: {e4:.3}"
        );
    }

    #[test]
    fn grid_mismatch_is_an_error() {
        let a = PhHistogram::build(unit_grid(2), &uniform(10, 5, 0.1));
        let b = PhHistogram::build(unit_grid(3), &uniform(10, 6, 0.1));
        assert!(matches!(
            a.estimate(&b),
            Err(HistogramError::GridMismatch { .. })
        ));
    }

    #[test]
    fn empty_dataset_estimates_zero() {
        let a = PhHistogram::build(unit_grid(2), &[]);
        let b = PhHistogram::build(unit_grid(2), &uniform(100, 7, 0.05));
        let est = a.estimate(&b).unwrap();
        assert_eq!(est.selectivity, 0.0);
        assert_eq!(est.pairs, 0.0);
    }

    #[test]
    fn bytes_roundtrip() {
        let h = PhHistogram::build(unit_grid(3), &uniform(500, 8, 0.05));
        let bytes = h.to_bytes();
        assert_eq!(bytes.len(), h.size_bytes());
        let back = PhHistogram::from_bytes(&bytes).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn from_bytes_rejects_corruption() {
        let h = PhHistogram::build(unit_grid(1), &uniform(50, 9, 0.05));
        let bytes = h.to_bytes();
        assert!(PhHistogram::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        assert!(PhHistogram::from_bytes(&bytes[1..]).is_err());
        assert!(PhHistogram::from_bytes(&[]).is_err());
        let mut garbled = bytes.to_vec();
        garbled[0] ^= 0xFF;
        assert!(PhHistogram::from_bytes(&garbled).is_err());
    }

    #[test]
    fn size_depends_only_on_level() {
        let small = PhHistogram::build(unit_grid(4), &uniform(10, 10, 0.01));
        let large = PhHistogram::build(unit_grid(4), &uniform(5000, 11, 0.01));
        assert_eq!(small.size_bytes(), large.size_bytes());
        let finer = PhHistogram::build(unit_grid(5), &uniform(10, 12, 0.01));
        // 4× the cells at the next level ⇒ 4× the payload (64-byte header).
        assert_eq!(finer.size_bytes() - 64, (small.size_bytes() - 64) * 4);
    }
}

#[cfg(test)]
mod correction_tests {
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

    /// The AvgSpan correction only ever shrinks the estimate (it divides
    /// the non-negative Sd sum by a value >= 1).
    #[test]
    fn corrected_never_exceeds_uncorrected() {
        let a = uniform(1500, 70, 0.08);
        let b = uniform(1500, 71, 0.08);
        for level in 1..=6 {
            let g = unit_grid(level);
            let (ha, hb) = (PhHistogram::build(g, &a), PhHistogram::build(g, &b));
            let corrected = ha.estimate(&hb).unwrap().selectivity;
            let uncorrected = ha.estimate_uncorrected(&hb).unwrap().selectivity;
            assert!(
                corrected <= uncorrected + 1e-15,
                "level {level}: corrected {corrected:e} > uncorrected {uncorrected:e}"
            );
        }
    }

    /// At fine grids where most MBRs span cell boundaries, the correction
    /// is what keeps PH from drifting into gross overestimation
    /// (paper Figure 1's multiple-counting problem).
    #[test]
    fn correction_improves_accuracy_at_fine_grids() {
        // Large rects relative to cells => heavy spanning at level 6.
        let a = uniform(1200, 72, 0.1);
        let b = uniform(1200, 73, 0.1);
        let actual = sj_sweep::sweep_join_selectivity(&a, &b);
        let g = unit_grid(6);
        let (ha, hb) = (PhHistogram::build(g, &a), PhHistogram::build(g, &b));
        let corrected = ha.estimate(&hb).unwrap().selectivity;
        let uncorrected = ha.estimate_uncorrected(&hb).unwrap().selectivity;
        let err_c = (corrected - actual).abs() / actual;
        let err_u = (uncorrected - actual).abs() / actual;
        assert!(
            err_c < err_u,
            "correction should help on spanning-heavy data: corrected {err_c:.3} vs \
             uncorrected {err_u:.3}"
        );
        assert!(
            uncorrected / actual > 1.5,
            "without the correction the estimate should overshoot: {:.2}x",
            uncorrected / actual
        );
    }

    /// When nothing spans a boundary (AvgSpan = 1), the two estimates
    /// coincide.
    #[test]
    fn correction_is_identity_without_spanners() {
        // Tiny rects placed strictly inside level-2 cells.
        let rects: Vec<Rect> = (0..4)
            .flat_map(|i| {
                (0..4).map(move |j| {
                    let x = f64::from(i) * 0.25 + 0.1;
                    let y = f64::from(j) * 0.25 + 0.1;
                    Rect::new(x, y, x + 0.05, y + 0.05)
                })
            })
            .collect();
        let g = unit_grid(2);
        let h = PhHistogram::build(g, &rects);
        assert!((h.avg_span() - 1.0).abs() < f64::EPSILON);
        let c = h.estimate(&h).unwrap().selectivity;
        let u = h.estimate_uncorrected(&h).unwrap().selectivity;
        assert_eq!(c, u);
    }
}

#[cfg(test)]
mod fuzz_tests {
    use super::*;
    use proptest::prelude::*;
    use sj_geo::Extent;

    proptest! {
        /// Decoding must never panic: arbitrary bytes either decode or
        /// return a Corrupt/LevelTooLarge error.
        #[test]
        fn from_bytes_never_panics(data in proptest::collection::vec(any::<u8>(), 0..512)) {
            let _ = PhHistogram::from_bytes(&data);
            let _ = crate::GhHistogram::from_bytes(&data);
            let _ = crate::GhBasicHistogram::from_bytes(&data);
        }

        /// Truncating a valid file at any point must error, not panic or
        /// mis-decode.
        #[test]
        fn truncated_files_error(cut in 0usize..1000) {
            let grid = Grid::new(2, Extent::unit()).unwrap();
            let h = PhHistogram::build(grid, &[Rect::new(0.1, 0.1, 0.4, 0.6)]);
            let bytes = h.to_bytes();
            let cut = cut.min(bytes.len().saturating_sub(1));
            prop_assert!(PhHistogram::from_bytes(&bytes[..cut]).is_err());
        }

        /// Flipping any single byte of the header is detected (payload
        /// flips may legitimately decode to different-but-valid stats).
        #[test]
        fn header_bitflips_detected_or_roundtrip(pos in 0usize..4) {
            let grid = Grid::new(1, Extent::unit()).unwrap();
            let h = PhHistogram::build(grid, &[Rect::new(0.1, 0.1, 0.2, 0.2)]);
            let mut bytes = h.to_bytes().to_vec();
            bytes[pos] ^= 0xA5;
            // Magic bytes: must be rejected.
            prop_assert!(PhHistogram::from_bytes(&bytes).is_err());
        }
    }
}
