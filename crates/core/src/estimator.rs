//! One entry point for every estimator evaluated in the paper.

use crate::{Dataset, Extent, Parallelism};
use serde::Serialize;
use sj_histogram::{
    build_histogram_parallel, parametric_selectivity, Grid, HistogramKind, ParametricInputs,
    SelectivityEstimate,
};
use sj_sampling::{JoinBackend, SamplingEstimator, SamplingTechnique};
use std::time::{Duration, Instant};

/// A selectivity estimate plus the implied result size.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Estimate {
    /// Estimated selectivity in `[0, 1]`.
    pub selectivity: f64,
    /// Estimated number of intersecting pairs.
    pub pairs: f64,
}

/// Everything an estimation run produces: the estimate plus the raw costs
/// from which the paper's relative metrics are computed.
#[derive(Debug, Clone, Serialize)]
pub struct EstimationReport {
    /// Human-readable estimator label, e.g. `"GH(level=7)"`.
    pub estimator: String,
    /// The estimate.
    pub estimate: Estimate,
    /// Time spent building per-dataset auxiliary structures (histogram
    /// files). Zero for sampling, whose whole cost is per-query.
    pub build_time: Duration,
    /// Time spent answering the estimation query. For sampling this
    /// includes drawing the samples, indexing them and joining them.
    pub estimate_time: Duration,
    /// Bytes of auxiliary state: the two histogram files, or the two
    /// samples (16 bytes would undercount — 40 bytes/entry matches the
    /// R-tree entry model used for the space baseline).
    pub space_bytes: usize,
}

/// Every estimator from the paper, selectable by value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EstimatorKind {
    /// The prior parametric model (Aref & Samet; paper Eq. 1–2).
    Parametric,
    /// Parametric Histogram at grid level `level` (paper Section 3.1.2).
    Ph {
        /// Gridding level `h` (`4^h` cells).
        level: u32,
    },
    /// Basic Geometric Histogram (paper Section 3.2.1, Eq. 4).
    GhBasic {
        /// Gridding level `h`.
        level: u32,
    },
    /// Revised Geometric Histogram — the paper's headline scheme
    /// (Section 3.2.2, Eq. 5).
    Gh {
        /// Gridding level `h`.
        level: u32,
    },
    /// Euler histogram (exact block-intersection counting at cell
    /// resolution; extension beyond the paper).
    Euler {
        /// Gridding level `h`.
        level: u32,
    },
    /// Sampling with the given technique and per-side sample percentages.
    Sampling {
        /// RS, RSWR or SS.
        technique: SamplingTechnique,
        /// Left sample size in percent `(0, 100]`.
        percent_left: f64,
        /// Right sample size in percent `(0, 100]`.
        percent_right: f64,
    },
}

/// Modeled bytes per stored sample rectangle (MBR + id), aligned with the
/// R-tree entry model so sampling space costs are comparable.
const SAMPLE_ENTRY_BYTES: usize = 40;

impl EstimatorKind {
    /// Label used in reports and figure output.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            EstimatorKind::Parametric => "Parametric".to_string(),
            EstimatorKind::Ph { level } => format!("PH(level={level})"),
            EstimatorKind::GhBasic { level } => format!("GH-basic(level={level})"),
            EstimatorKind::Gh { level } => format!("GH(level={level})"),
            EstimatorKind::Euler { level } => format!("Euler(level={level})"),
            EstimatorKind::Sampling {
                technique,
                percent_left,
                percent_right,
            } => {
                format!("{}({percent_left}%/{percent_right}%)", technique.name())
            }
        }
    }

    /// The histogram family and grid level behind this estimator, when it
    /// is histogram-based (`None` for the parametric model and sampling).
    #[must_use]
    pub fn histogram_config(&self) -> Option<(HistogramKind, u32)> {
        match *self {
            EstimatorKind::Ph { level } => Some((HistogramKind::Ph, level)),
            EstimatorKind::GhBasic { level } => Some((HistogramKind::GhBasic, level)),
            EstimatorKind::Gh { level } => Some((HistogramKind::Gh, level)),
            EstimatorKind::Euler { level } => Some((HistogramKind::Euler, level)),
            EstimatorKind::Parametric | EstimatorKind::Sampling { .. } => None,
        }
    }

    /// Runs the estimator on a pair of datasets, using the joint extent of
    /// the two datasets' declared extents. Histogram builds run serially —
    /// use [`Self::run_par`] to shard them across threads.
    ///
    /// # Panics
    /// Panics if a histogram level exceeds [`Grid::MAX_LEVEL`] — levels are
    /// caller-chosen configuration, not data.
    #[must_use]
    pub fn run(&self, left: &Dataset, right: &Dataset) -> EstimationReport {
        let extent = Extent::new(left.extent.rect().union(&right.extent.rect()));
        self.run_in_extent(left, right, &extent)
    }

    /// [`Self::run`] with an explicit [`Parallelism`] for the histogram
    /// builds. Histogram builds are bit-identical across thread counts
    /// (row-band accumulation), so only `build_time` changes; sampling and
    /// the parametric model are unaffected by `par`.
    #[must_use]
    pub fn run_par(&self, left: &Dataset, right: &Dataset, par: Parallelism) -> EstimationReport {
        let extent = Extent::new(left.extent.rect().union(&right.extent.rect()));
        self.run_in_extent_par(left, right, &extent, par)
    }

    /// Runs the estimator within an explicit extent (the join universe),
    /// serially.
    #[must_use]
    pub fn run_in_extent(
        &self,
        left: &Dataset,
        right: &Dataset,
        extent: &Extent,
    ) -> EstimationReport {
        self.run_in_extent_par(left, right, extent, Parallelism::serial())
    }

    /// [`Self::run_in_extent`] with an explicit [`Parallelism`] for the
    /// histogram builds.
    #[must_use]
    pub fn run_in_extent_par(
        &self,
        left: &Dataset,
        right: &Dataset,
        extent: &Extent,
        par: Parallelism,
    ) -> EstimationReport {
        let threads = par.threads();
        // Every histogram family goes through the one SpatialHistogram
        // code path; the families only differ by the boxed builder.
        if let Some((kind, level)) = self.histogram_config() {
            #[expect(
                clippy::expect_used,
                reason = "every EstimatorKind level is validated <= Grid::MAX_LEVEL at construction"
            )]
            let grid = Grid::new(level, *extent).expect("level within Grid::MAX_LEVEL");
            #[expect(
                clippy::disallowed_methods,
                reason = "wall-clock measures reported build cost, never estimator input"
            )]
            let t0 = Instant::now();
            let ha = build_histogram_parallel(kind, grid, &left.rects, threads);
            let hb = build_histogram_parallel(kind, grid, &right.rects, threads);
            let build_time = t0.elapsed();
            #[expect(
                clippy::disallowed_methods,
                reason = "wall-clock measures reported estimate cost, never estimator input"
            )]
            let t1 = Instant::now();
            #[expect(
                clippy::expect_used,
                reason = "both histograms share kind and grid by construction two lines up"
            )]
            let est = ha
                .estimate_join(hb.as_ref())
                .expect("same kind and grid by construction");
            let estimate_time = t1.elapsed();
            return EstimationReport {
                estimator: self.label(),
                estimate: est.into(),
                build_time,
                estimate_time,
                space_bytes: ha.space_bytes() + hb.space_bytes(),
            };
        }
        match *self {
            EstimatorKind::Parametric => {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "wall-clock measures reported build cost, never estimator input"
                )]
                let t0 = Instant::now();
                // DatasetStats::coverage is relative to the dataset's own
                // extent; re-express it against the join extent.
                let to_inputs = |s: crate::DatasetStats, own: &Extent| ParametricInputs {
                    count: s.count,
                    coverage: s.coverage * own.area() / extent.area(),
                    avg_width: s.avg_width,
                    avg_height: s.avg_height,
                };
                let ia = to_inputs(left.stats(), &left.extent);
                let ib = to_inputs(right.stats(), &right.extent);
                let build_time = t0.elapsed();
                #[expect(
                    clippy::disallowed_methods,
                    reason = "wall-clock measures reported estimate cost, never estimator input"
                )]
                let t1 = Instant::now();
                let selectivity = parametric_selectivity(&ia, &ib, extent.area());
                let estimate_time = t1.elapsed();
                EstimationReport {
                    estimator: self.label(),
                    estimate: Estimate::from_selectivity(selectivity, left.len(), right.len()),
                    build_time,
                    estimate_time,
                    // N, C, W, H per dataset: 4 × 8 bytes each.
                    space_bytes: 2 * 32,
                }
            }
            #[expect(
                clippy::unreachable,
                reason = "histogram_config() returned Some for these kinds, so the early return above fired"
            )]
            EstimatorKind::Ph { .. }
            | EstimatorKind::GhBasic { .. }
            | EstimatorKind::Gh { .. }
            | EstimatorKind::Euler { .. } => {
                unreachable!("histogram kinds are handled by the trait path above")
            }
            EstimatorKind::Sampling {
                technique,
                percent_left,
                percent_right,
            } => {
                let est = SamplingEstimator {
                    backend: JoinBackend::RTree,
                    ..SamplingEstimator::new(technique, percent_left, percent_right)
                };
                let out = est.estimate(&left.rects, &right.rects, extent);
                EstimationReport {
                    estimator: self.label(),
                    estimate: Estimate {
                        selectivity: out.selectivity,
                        pairs: out.pairs,
                    },
                    build_time: Duration::ZERO,
                    estimate_time: out.timings.total(),
                    space_bytes: (out.sample_sizes.0 + out.sample_sizes.1) * SAMPLE_ENTRY_BYTES,
                }
            }
        }
    }
}

impl Estimate {
    /// Builds an estimate from a raw selectivity and cardinalities.
    /// Delegates to [`SelectivityEstimate::from_selectivity`] so the
    /// clamping convention lives in exactly one place.
    #[must_use]
    pub fn from_selectivity(raw: f64, n1: usize, n2: usize) -> Self {
        SelectivityEstimate::from_selectivity(raw, n1, n2).into()
    }
}

impl From<SelectivityEstimate> for Estimate {
    fn from(est: SelectivityEstimate) -> Self {
        Self {
            selectivity: est.selectivity,
            pairs: est.pairs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{presets, JoinBaseline};

    fn pair() -> (Dataset, Dataset) {
        // 5 % scale ≈ 5000 × 5000 rects: enough actual pairs (~10³) that
        // relative error reflects the estimator, not join-size noise.
        presets::PaperJoin::ScrcSura.datasets(0.05)
    }

    #[test]
    fn labels() {
        assert_eq!(EstimatorKind::Parametric.label(), "Parametric");
        assert_eq!(EstimatorKind::Gh { level: 7 }.label(), "GH(level=7)");
        assert_eq!(EstimatorKind::Ph { level: 5 }.label(), "PH(level=5)");
        assert_eq!(
            EstimatorKind::GhBasic { level: 3 }.label(),
            "GH-basic(level=3)"
        );
        assert_eq!(EstimatorKind::Euler { level: 4 }.label(), "Euler(level=4)");
        let s = EstimatorKind::Sampling {
            technique: SamplingTechnique::RandomWithReplacement,
            percent_left: 10.0,
            percent_right: 10.0,
        };
        assert_eq!(s.label(), "RSWR(10%/10%)");
    }

    #[test]
    fn all_estimators_run_and_report() {
        let (a, b) = pair();
        let baseline = JoinBaseline::compute(&a, &b);
        assert!(baseline.pairs > 0, "fixture join must be non-empty");
        let kinds = [
            EstimatorKind::Parametric,
            EstimatorKind::Ph { level: 4 },
            EstimatorKind::GhBasic { level: 4 },
            EstimatorKind::Gh { level: 4 },
            EstimatorKind::Euler { level: 4 },
            EstimatorKind::Sampling {
                technique: SamplingTechnique::Regular,
                percent_left: 10.0,
                percent_right: 10.0,
            },
        ];
        for kind in kinds {
            let r = kind.run(&a, &b);
            assert!(
                r.estimate.selectivity.is_finite() && r.estimate.selectivity >= 0.0,
                "{}: bad selectivity",
                r.estimator
            );
            assert!(r.space_bytes > 0, "{}: no space accounted", r.estimator);
        }
    }

    #[test]
    fn gh_beats_parametric_on_clustered_join() {
        // The paper's core claim in miniature: when *both* sides are
        // clustered (TS ⋈ TCB), the global uniformity assumption
        // underestimates badly, while GH at a decent level stays accurate.
        // (On clustered ⋈ uniform joins like SCRC ⋈ SURA the parametric
        // model is actually fine — the paper notes this for Figure 7d.)
        let (a, b) = presets::PaperJoin::TsTcb.datasets(0.02);
        let baseline = JoinBaseline::compute(&a, &b);
        let gh = EstimatorKind::Gh { level: 6 }.run(&a, &b);
        let pm = EstimatorKind::Parametric.run(&a, &b);
        let gh_err = crate::error_pct(gh.estimate.selectivity, baseline.selectivity);
        let pm_err = crate::error_pct(pm.estimate.selectivity, baseline.selectivity);
        assert!(
            gh_err < pm_err,
            "GH ({gh_err:.1}%) should beat parametric ({pm_err:.1}%)"
        );
        assert!(gh_err < 15.0, "GH level-6 error too high: {gh_err:.1}%");
    }

    #[test]
    fn histograms_report_build_and_estimate_times() {
        let (a, b) = pair();
        let r = EstimatorKind::Gh { level: 5 }.run(&a, &b);
        assert!(r.build_time > Duration::ZERO);
        // Sampling charges everything to estimate_time.
        let s = EstimatorKind::Sampling {
            technique: SamplingTechnique::Regular,
            percent_left: 5.0,
            percent_right: 5.0,
        }
        .run(&a, &b);
        assert_eq!(s.build_time, Duration::ZERO);
        assert!(s.estimate_time > Duration::ZERO);
    }

    #[test]
    fn ph_level_zero_equals_parametric_kind() {
        let (a, b) = pair();
        let ph0 = EstimatorKind::Ph { level: 0 }.run(&a, &b);
        let pm = EstimatorKind::Parametric.run(&a, &b);
        // Same unit extent for both datasets, so coverages line up exactly.
        assert!(
            (ph0.estimate.selectivity - pm.estimate.selectivity).abs()
                < 1e-12 * pm.estimate.selectivity.max(1e-300),
            "PH level 0 ({}) must equal the parametric model ({})",
            ph0.estimate.selectivity,
            pm.estimate.selectivity
        );
    }
}
