//! The exact filter-step join: the oracle all estimators are judged
//! against, and the source of the baseline timings for the paper's
//! relative metrics.

use crate::{Dataset, Parallelism};
use serde::Serialize;
use sj_rtree::{join_count_parallel, RTree, RTreeConfig};
use std::time::{Duration, Instant};

/// Algorithm used to compute the exact join.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExactBackend {
    /// Bulk-load an R-tree per dataset, then synchronized-traversal join —
    /// the paper's reference implementation and the timing baseline.
    #[default]
    RTree,
    /// Forward plane sweep (no index). Produces identical pair counts;
    /// useful when no baseline timings are needed.
    PlaneSweep,
}

/// The exact join result plus the baseline costs of the paper's metrics:
///
/// * *Estimation time* is reported relative to [`JoinBaseline::join_time`]
///   (the join itself, R-trees already built);
/// * *Est. Time 1* for sampling adds [`JoinBaseline::rtree_build_time`]
///   to the denominator (R-trees not available);
/// * *Building time* is relative to [`JoinBaseline::rtree_build_time`];
/// * *Space cost* is relative to [`JoinBaseline::rtree_bytes`].
#[derive(Debug, Clone, Copy, Serialize)]
pub struct JoinBaseline {
    /// Number of intersecting MBR pairs (filter-step result size).
    pub pairs: u64,
    /// Exact selectivity `pairs / (N₁·N₂)`.
    pub selectivity: f64,
    /// Time to bulk-load the two R-trees.
    pub rtree_build_time: Duration,
    /// Time to run the R-tree join (trees already built).
    pub join_time: Duration,
    /// Combined modeled size of the two R-trees in bytes.
    pub rtree_bytes: usize,
}

impl JoinBaseline {
    /// Computes the exact join with the default R-tree configuration,
    /// using all available hardware threads for the join traversal. Pair
    /// counts are integers, so the result is identical at every thread
    /// count; only the timings change.
    #[must_use]
    pub fn compute(left: &Dataset, right: &Dataset) -> Self {
        Self::compute_with(left, right, RTreeConfig::default())
    }

    /// Computes the exact join with an explicit R-tree configuration
    /// (default [`Parallelism`]).
    #[must_use]
    pub fn compute_with(left: &Dataset, right: &Dataset, cfg: RTreeConfig) -> Self {
        Self::compute_with_parallelism(left, right, cfg, Parallelism::default())
    }

    /// Computes the exact join with an explicit R-tree configuration and
    /// thread count. The per-phase timings keep their meaning: build time
    /// covers the two bulk loads, join time the (parallel) traversal.
    #[must_use]
    pub fn compute_with_parallelism(
        left: &Dataset,
        right: &Dataset,
        cfg: RTreeConfig,
        par: Parallelism,
    ) -> Self {
        #[expect(
            clippy::disallowed_methods,
            reason = "wall-clock measures reported build cost, never join input"
        )]
        let t0 = Instant::now();
        let ta = RTree::bulk_load_str(cfg, &left.rects);
        let tb = RTree::bulk_load_str(cfg, &right.rects);
        let rtree_build_time = t0.elapsed();
        #[expect(
            clippy::disallowed_methods,
            reason = "wall-clock measures reported join cost, never join input"
        )]
        let t1 = Instant::now();
        let pairs = join_count_parallel(&ta, &tb, par.threads());
        let join_time = t1.elapsed();
        Self::from_parts(
            pairs,
            left.len(),
            right.len(),
            rtree_build_time,
            join_time,
            ta.size_bytes() + tb.size_bytes(),
        )
    }

    /// Computes the exact pair count with the chosen backend. The
    /// plane-sweep backend leaves the R-tree timings at zero.
    #[must_use]
    pub fn compute_with_backend(left: &Dataset, right: &Dataset, backend: ExactBackend) -> Self {
        Self::compute_with_backend_parallelism(left, right, backend, Parallelism::default())
    }

    /// [`Self::compute_with_backend`] with an explicit thread count.
    #[must_use]
    pub fn compute_with_backend_parallelism(
        left: &Dataset,
        right: &Dataset,
        backend: ExactBackend,
        par: Parallelism,
    ) -> Self {
        match backend {
            ExactBackend::RTree => {
                Self::compute_with_parallelism(left, right, RTreeConfig::default(), par)
            }
            ExactBackend::PlaneSweep => {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "wall-clock measures reported join cost, never join input"
                )]
                let t0 = Instant::now();
                // Partition-based parallel plane sweep: tile the joint
                // extent, sweep tiles independently through the shared
                // `parallel_map` pool, dedup by reference point. Pair
                // counts are integers, so the result is identical to the
                // serial sweep at every thread count.
                let plan = sj_sweep::tile_sweep(&left.rects, &right.rects, 4 * par.threads());
                let tiles = plan.into_tiles();
                let pairs: u64 = crate::parallel_map(tiles, par, |tile| tile.count())
                    .into_iter()
                    .sum();
                let join_time = t0.elapsed();
                Self::from_parts(pairs, left.len(), right.len(), Duration::ZERO, join_time, 0)
            }
        }
    }

    fn from_parts(
        pairs: u64,
        n1: usize,
        n2: usize,
        rtree_build_time: Duration,
        join_time: Duration,
        rtree_bytes: usize,
    ) -> Self {
        #[allow(clippy::cast_precision_loss)]
        let denom = n1 as f64 * n2 as f64;
        #[allow(clippy::cast_precision_loss)]
        let selectivity = if denom == 0.0 {
            0.0
        } else {
            pairs as f64 / denom
        };
        Self {
            pairs,
            selectivity,
            rtree_build_time,
            join_time,
            rtree_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{presets, Extent};
    use sj_geo::Rect;

    fn tiny_pair() -> (Dataset, Dataset) {
        presets::PaperJoin::ScrcSura.datasets(0.005)
    }

    #[test]
    fn backends_agree() {
        let (a, b) = tiny_pair();
        let rt = JoinBaseline::compute(&a, &b);
        let ps = JoinBaseline::compute_with_backend(&a, &b, ExactBackend::PlaneSweep);
        assert_eq!(rt.pairs, ps.pairs);
        assert_eq!(rt.selectivity, ps.selectivity);
        assert!(rt.rtree_bytes > 0);
        assert_eq!(ps.rtree_bytes, 0);
    }

    #[test]
    fn selectivity_definition() {
        let a = Dataset::new(
            "a",
            Extent::unit(),
            vec![Rect::new(0.0, 0.0, 0.5, 0.5), Rect::new(0.6, 0.6, 0.7, 0.7)],
        );
        let b = Dataset::new("b", Extent::unit(), vec![Rect::new(0.4, 0.4, 0.65, 0.65)]);
        let r = JoinBaseline::compute(&a, &b);
        assert_eq!(r.pairs, 2);
        assert!((r.selectivity - 1.0).abs() < 1e-15);
    }

    #[test]
    fn empty_dataset_baseline() {
        let a = Dataset::new("a", Extent::unit(), vec![]);
        let b = Dataset::new("b", Extent::unit(), vec![Rect::new(0.0, 0.0, 1.0, 1.0)]);
        let r = JoinBaseline::compute(&a, &b);
        assert_eq!(r.pairs, 0);
        assert_eq!(r.selectivity, 0.0);
    }
}
