//! Spatial join selectivity estimation — the unified public API.
//!
//! This crate reproduces *"Selectivity Estimation for Spatial Joins"*
//! (An, Yang & Sivasubramaniam, ICDE 2001): given two datasets of
//! axis-parallel rectangles (MBRs), estimate the fraction of the cross
//! product whose MBRs intersect — without running the join.
//!
//! # Quick start
//!
//! ```
//! use sj_core::{presets, EstimatorKind, JoinBaseline, error_pct};
//!
//! // Two synthetic datasets from the paper (scaled down for the doctest).
//! let (left, right) = presets::PaperJoin::ScrcSura.datasets(0.01);
//!
//! // The exact join (the oracle estimators are judged against).
//! let baseline = JoinBaseline::compute(&left, &right);
//!
//! // The paper's headline estimator: the Geometric Histogram at level 5.
//! let report = EstimatorKind::Gh { level: 5 }.run(&left, &right);
//!
//! let err = error_pct(report.estimate.selectivity, baseline.selectivity);
//! assert!(err < 25.0, "GH error was {err:.1}%");
//! ```
//!
//! # What's inside
//!
//! * [`EstimatorKind`] — every estimator evaluated in the paper behind
//!   one entry point: the prior parametric model, the Parametric
//!   Histogram (PH), the basic and revised Geometric Histograms (GH),
//!   and the three sampling schemes (RS / RSWR / SS).
//! * [`JoinBaseline`] — the exact filter-step join with R-tree build and
//!   join timings, the denominator of every relative metric in the paper.
//! * [`experiment`] — runners that regenerate the paper's Figure 6
//!   (sampling) and Figure 7 (histograms) series.
//! * Re-exports of the substrate crates: geometry ([`Rect`], [`Extent`]),
//!   [`Dataset`] and generators ([`presets`]), the R-tree, the
//!   plane-sweep oracle, and the histogram/sampling implementations.

pub mod estimator;
pub mod exact;
pub mod experiment;
pub mod metrics;
pub mod parallel;
pub mod sync;

pub use estimator::{Estimate, EstimationReport, EstimatorKind};
pub use exact::{ExactBackend, JoinBaseline};
pub use metrics::{error_pct, ratio_pct};
pub use parallel::{parallel_map, Parallelism, ParallelismError};
pub use sync::{LockRank, OrderedMutex, OrderedRwLock, SeqCstBool, SeqCstU64};

/// The workspace's single CRC32-IEEE implementation (canonical home:
/// `sj_histogram::crc`, re-exported here so every crate shares one
/// table and one set of known-answer tests).
pub use sj_histogram::crc;

// Substrate re-exports: the whole workspace is usable through sj-core.
pub use sj_datagen::{presets, Dataset, DatasetError, DatasetStats, Generator, SizeModel};
pub use sj_geo::{
    apply_policy, check_raw_rect, Extent, Point, Rect, RectIssue, Validated, ValidationPolicy,
    ValidationReport,
};
pub use sj_histogram::{
    build_histogram, build_histogram_parallel, build_histogram_sharded, load_histogram,
    parametric_selectivity, CorruptSection, EulerHistogram, GhBasicHistogram, GhHistogram, Grid,
    HistogramDelta, HistogramError, HistogramKind, ParametricInputs, PhHistogram,
    SelectivityEstimate, SpatialHistogram, SPARSE_MAGIC,
};
pub use sj_rtree::{
    join_count, join_count_parallel, join_pairs, RTree, RTreeConfig, SplitAlgorithm,
};
pub use sj_sampling::{
    draw_sample, JoinBackend, SamplingEstimator, SamplingOutcome, SamplingTechnique,
    ALL_TECHNIQUES, PAPER_TECHNIQUES,
};
pub use sj_sweep::{
    sweep_join_count, sweep_join_count_parallel, sweep_join_count_tiled, sweep_join_pairs,
    sweep_join_selectivity, tile_sweep, SweepTile, TiledSweep,
};
