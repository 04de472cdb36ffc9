//! Sampling-based spatial join selectivity estimation (paper Section 2).
//!
//! A sample is drawn from each input dataset, the samples are joined
//! (by default with an R-tree join, which the paper found preferable to a
//! direct plane sweep even for samples), and the sample selectivity is
//! used directly as the estimate — for samples of `x%` and `y%` the
//! scaled result size is `pairs · (100/x) · (100/y)`, which divided by
//! `N₁·N₂` is exactly `pairs / (n₁·n₂)`.
//!
//! The paper's three sampling techniques are implemented, plus two
//! extensions:
//!
//! * [`SamplingTechnique::Regular`] (RS) — every `k`-th item,
//!   `k = ⌈N/n⌉`.
//! * [`SamplingTechnique::RandomWithReplacement`] (RSWR) — `n` uniform
//!   draws with replacement.
//! * [`SamplingTechnique::Sorted`] (SS) — like RS, but the dataset is
//!   first sorted by the Hilbert value of each MBR's center. The sort cost
//!   is charged to the drawing phase, which is why the paper finds SS
//!   unattractive.
//! * [`SamplingTechnique::RandomWithoutReplacement`] (RSWOR, extension) —
//!   a uniform subset via partial Fisher–Yates.
//! * [`SamplingTechnique::Stratified`] (extension) — proportional
//!   per-grid-cell allocation, reducing variance on clustered data.
//!
//! The estimator reports phase timings (draw / index build / join) so the
//! experiment runner can compute the paper's *Est. Time 1* (R-trees on
//! the base data not available) and *Est. Time 2* (available) metrics.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sj_geo::{Extent, Rect};
use sj_rtree::{join_count, RTree, RTreeConfig};
use std::time::{Duration, Instant};

/// How sample elements are selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplingTechnique {
    /// RS: every `k`-th element in input order.
    Regular,
    /// RSWR: uniform draws with replacement.
    RandomWithReplacement,
    /// SS: every `k`-th element in Hilbert order of MBR centers.
    Sorted,
    /// RSWOR: a uniform sample *without* replacement (Fisher–Yates
    /// partial shuffle). **Extension beyond the paper** — removes RSWR's
    /// duplicate draws, which matter at large sample fractions.
    RandomWithoutReplacement,
    /// Stratified spatial sampling: the extent is gridded and each
    /// stratum (cell) contributes samples proportional to its population,
    /// picked uniformly within the stratum. **Extension beyond the
    /// paper** — reduces estimator variance on clustered data.
    Stratified {
        /// Gridding level of the strata (`4^level` cells).
        level: u32,
    },
}

impl SamplingTechnique {
    /// Short display name used in figure output (paper legend names).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SamplingTechnique::Regular => "RS",
            SamplingTechnique::RandomWithReplacement => "RSWR",
            SamplingTechnique::Sorted => "SS",
            SamplingTechnique::RandomWithoutReplacement => "RSWOR",
            SamplingTechnique::Stratified { .. } => "STRAT",
        }
    }
}

/// The three techniques evaluated in the paper (Figure 6), in the
/// paper's legend order.
pub const PAPER_TECHNIQUES: [SamplingTechnique; 3] = [
    SamplingTechnique::RandomWithReplacement,
    SamplingTechnique::Regular,
    SamplingTechnique::Sorted,
];

/// Every technique the crate implements: the paper's three plus the
/// RSWOR and stratified extensions. Iterate [`PAPER_TECHNIQUES`] instead
/// when regenerating a figure from the paper.
pub const ALL_TECHNIQUES: [SamplingTechnique; 5] = [
    SamplingTechnique::RandomWithReplacement,
    SamplingTechnique::Regular,
    SamplingTechnique::Sorted,
    SamplingTechnique::RandomWithoutReplacement,
    SamplingTechnique::Stratified { level: 3 },
];

/// Join algorithm used on the two samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinBackend {
    /// Build an R-tree on each sample and run the synchronized-traversal
    /// join — the paper's choice.
    #[default]
    RTree,
    /// Forward plane sweep directly on the samples.
    PlaneSweep,
}

/// Number of sample elements for a dataset of `n` items at `percent`.
/// Never zero for a non-empty dataset, and never above `n`.
///
/// # Panics
/// Panics unless `0 < percent <= 100`.
#[must_use]
pub fn sample_size(n: usize, percent: f64) -> usize {
    assert!(
        percent > 0.0 && percent <= 100.0,
        "percent must be in (0, 100], got {percent}"
    );
    if n == 0 {
        return 0;
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let k = (n as f64 * percent / 100.0).round() as usize;
    k.clamp(1, n)
}

/// Draws a sample of `percent`% from `rects` with the given technique.
///
/// `extent` is needed by Sorted Sampling for Hilbert keys; `seed` only
/// affects RSWR (RS and SS are deterministic given the input order).
#[must_use]
pub fn draw_sample(
    technique: SamplingTechnique,
    rects: &[Rect],
    percent: f64,
    extent: &Extent,
    seed: u64,
) -> Vec<Rect> {
    if rects.is_empty() {
        return Vec::new();
    }
    let n = sample_size(rects.len(), percent);
    match technique {
        SamplingTechnique::Regular => every_kth(rects, None, n),
        SamplingTechnique::RandomWithReplacement => {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..n)
                .map(|_| rects[rng.random_range(0..rects.len())])
                .collect()
        }
        SamplingTechnique::Sorted => {
            let perm = sj_hilbert::sort_by_hilbert(sj_hilbert::DEFAULT_ORDER, extent, rects);
            every_kth(rects, Some(&perm), n)
        }
        SamplingTechnique::RandomWithoutReplacement => {
            let mut rng = StdRng::seed_from_u64(seed);
            // Partial Fisher-Yates: after i swaps, indices[..i] is a
            // uniform i-subset.
            let mut indices: Vec<usize> = (0..rects.len()).collect();
            for i in 0..n {
                let j = rng.random_range(i..indices.len());
                indices.swap(i, j);
            }
            indices[..n].iter().map(|&i| rects[i]).collect()
        }
        SamplingTechnique::Stratified { level } => stratified_sample(rects, n, extent, level, seed),
    }
}

/// Proportional stratified sampling: bucket objects by the grid cell of
/// their MBR center, give each stratum `floor(share)` samples plus
/// largest-remainder rounding to hit `n` exactly, and draw uniformly
/// without replacement within each stratum.
fn stratified_sample(
    rects: &[Rect],
    n: usize,
    extent: &Extent,
    level: u32,
    seed: u64,
) -> Vec<Rect> {
    let mut rng = StdRng::seed_from_u64(seed);
    let cells_per_axis = 1u32 << level.min(12);
    let cell_of = |r: &Rect| -> usize {
        let c = r.center();
        let nx = ((c.x - extent.rect().xlo) / extent.width() * f64::from(cells_per_axis))
            .floor()
            .clamp(0.0, f64::from(cells_per_axis - 1));
        let ny = ((c.y - extent.rect().ylo) / extent.height() * f64::from(cells_per_axis))
            .floor()
            .clamp(0.0, f64::from(cells_per_axis - 1));
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        {
            (ny as usize) * cells_per_axis as usize + nx as usize
        }
    };
    let mut strata: std::collections::BTreeMap<usize, Vec<usize>> =
        std::collections::BTreeMap::new();
    for (i, r) in rects.iter().enumerate() {
        strata.entry(cell_of(r)).or_default().push(i);
    }
    #[allow(clippy::cast_precision_loss)]
    let total = rects.len() as f64;
    // Largest-remainder apportionment of the n samples over the strata.
    let mut quotas: Vec<(usize, usize, f64)> = strata
        .iter()
        .map(|(&cell, members)| {
            #[allow(clippy::cast_precision_loss)]
            let share = n as f64 * members.len() as f64 / total;
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let base = (share.floor() as usize).min(members.len());
            (cell, base, share - share.floor())
        })
        .collect();
    let mut assigned: usize = quotas.iter().map(|q| q.1).sum();
    quotas.sort_by(|a, b| b.2.total_cmp(&a.2));
    for q in &mut quotas {
        if assigned >= n {
            break;
        }
        if q.1 < strata[&q.0].len() {
            q.1 += 1;
            assigned += 1;
        }
    }
    let mut out = Vec::with_capacity(n);
    for (cell, quota, _) in quotas {
        let members = &strata[&cell];
        // Uniform without replacement within the stratum.
        let mut idx: Vec<usize> = members.clone();
        for i in 0..quota.min(idx.len()) {
            let j = rng.random_range(i..idx.len());
            idx.swap(i, j);
            out.push(rects[idx[i]]);
        }
    }
    out
}

/// Takes every `k`-th element (`k = ⌈N/n⌉`) in input order, or in the
/// order of `perm` when given.
fn every_kth(rects: &[Rect], perm: Option<&[usize]>, n: usize) -> Vec<Rect> {
    let k = rects.len().div_ceil(n);
    match perm {
        None => rects.iter().copied().step_by(k).collect(),
        Some(p) => p.iter().step_by(k).map(|&i| rects[i]).collect(),
    }
}

/// Wall-clock cost breakdown of one sampling estimation.
#[derive(Debug, Clone, Copy, Default)]
pub struct SampleTimings {
    /// Drawing the two samples (includes the Hilbert sort for SS).
    pub draw: Duration,
    /// Building R-trees on the samples (zero for the plane-sweep backend).
    pub build: Duration,
    /// Joining the samples.
    pub join: Duration,
}

impl SampleTimings {
    /// Total estimation time.
    #[must_use]
    pub fn total(&self) -> Duration {
        self.draw + self.build + self.join
    }
}

/// The outcome of a sampling estimation.
#[derive(Debug, Clone, Copy)]
pub struct SamplingOutcome {
    /// Estimated join selectivity (`sample_pairs / (n₁·n₂)`).
    pub selectivity: f64,
    /// Estimated result size (`selectivity · N₁·N₂`).
    pub pairs: f64,
    /// Drawn sample sizes.
    pub sample_sizes: (usize, usize),
    /// Intersecting pairs found between the samples.
    pub sample_pairs: u64,
    /// Phase timings.
    pub timings: SampleTimings,
}

/// A configured sampling estimator.
///
/// ```
/// use sj_geo::{Extent, Rect};
/// use sj_sampling::{SamplingEstimator, SamplingTechnique};
///
/// let a: Vec<Rect> = (0..100)
///     .map(|i| Rect::new(i as f64 / 100.0, 0.4, i as f64 / 100.0 + 0.01, 0.6))
///     .collect();
/// let est = SamplingEstimator::new(SamplingTechnique::Regular, 100.0, 100.0);
/// let out = est.estimate(&a, &a, &Extent::unit());
/// assert_eq!(out.sample_sizes, (100, 100));
/// assert!(out.selectivity > 0.0, "self join is non-empty");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SamplingEstimator {
    /// Sample selection technique.
    pub technique: SamplingTechnique,
    /// Sample size for the left dataset, in percent `(0, 100]`.
    pub percent_left: f64,
    /// Sample size for the right dataset, in percent `(0, 100]`.
    pub percent_right: f64,
    /// Join backend for the samples.
    pub backend: JoinBackend,
    /// R-tree configuration for the sample indexes.
    pub rtree_config: RTreeConfig,
    /// RNG seed (RSWR only).
    pub seed: u64,
}

impl SamplingEstimator {
    /// Creates an estimator with default backend (R-tree join) and config.
    #[must_use]
    pub fn new(technique: SamplingTechnique, percent_left: f64, percent_right: f64) -> Self {
        Self {
            technique,
            percent_left,
            percent_right,
            backend: JoinBackend::default(),
            rtree_config: RTreeConfig::default(),
            seed: 0x5EED,
        }
    }

    /// Runs the estimation on two datasets sharing `extent`.
    #[must_use]
    pub fn estimate(&self, left: &[Rect], right: &[Rect], extent: &Extent) -> SamplingOutcome {
        #[expect(
            clippy::disallowed_methods,
            reason = "wall-clock measures reported draw cost; sampling itself is seeded"
        )]
        let t0 = Instant::now();
        let sa = draw_sample(self.technique, left, self.percent_left, extent, self.seed);
        let sb = draw_sample(
            self.technique,
            right,
            self.percent_right,
            extent,
            self.seed ^ 0x9E37,
        );
        let draw = t0.elapsed();

        let (sample_pairs, build, join) = match self.backend {
            JoinBackend::RTree => {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "wall-clock measures reported build cost, never estimator input"
                )]
                let t1 = Instant::now();
                let ta = RTree::bulk_load_str(self.rtree_config, &sa);
                let tb = RTree::bulk_load_str(self.rtree_config, &sb);
                let build = t1.elapsed();
                #[expect(
                    clippy::disallowed_methods,
                    reason = "wall-clock measures reported join cost, never estimator input"
                )]
                let t2 = Instant::now();
                let pairs = join_count(&ta, &tb);
                (pairs, build, t2.elapsed())
            }
            JoinBackend::PlaneSweep => {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "wall-clock measures reported join cost, never estimator input"
                )]
                let t2 = Instant::now();
                let pairs = sj_sweep::sweep_join_count(&sa, &sb);
                (pairs, Duration::ZERO, t2.elapsed())
            }
        };

        #[allow(clippy::cast_precision_loss)]
        let denom = sa.len() as f64 * sb.len() as f64;
        #[allow(clippy::cast_precision_loss)]
        let selectivity = if denom == 0.0 {
            0.0
        } else {
            (sample_pairs as f64 / denom).clamp(0.0, 1.0)
        };
        #[allow(clippy::cast_precision_loss)]
        let pairs = selectivity * left.len() as f64 * right.len() as f64;
        SamplingOutcome {
            selectivity,
            pairs,
            sample_sizes: (sa.len(), sb.len()),
            sample_pairs,
            timings: SampleTimings { draw, build, join },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sj_geo::Point;

    fn uniform(n: usize, seed: u64, side: f64) -> Vec<Rect> {
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
    fn sample_size_boundaries() {
        assert_eq!(sample_size(1000, 10.0), 100);
        assert_eq!(sample_size(1000, 0.1), 1);
        assert_eq!(
            sample_size(3, 0.1),
            1,
            "non-empty datasets yield non-empty samples"
        );
        assert_eq!(sample_size(1000, 100.0), 1000);
        assert_eq!(sample_size(0, 10.0), 0);
    }

    #[test]
    #[should_panic(expected = "percent")]
    fn sample_size_rejects_out_of_range() {
        let _ = sample_size(10, 150.0);
    }

    #[test]
    fn regular_sampling_takes_every_kth() {
        let rects: Vec<Rect> = (0..10)
            .map(|i| Rect::from_point(Point::new(f64::from(i), 0.0)))
            .collect();
        let s = draw_sample(SamplingTechnique::Regular, &rects, 30.0, &Extent::unit(), 0);
        // n = 3, k = ceil(10/3) = 4 → indices 0, 4, 8.
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].xlo, 0.0);
        assert_eq!(s[1].xlo, 4.0);
        assert_eq!(s[2].xlo, 8.0);
    }

    #[test]
    fn full_percent_returns_whole_dataset() {
        let rects = uniform(100, 1, 0.1);
        for t in ALL_TECHNIQUES {
            let s = draw_sample(t, &rects, 100.0, &Extent::unit(), 7);
            assert_eq!(s.len(), 100, "{t:?} at 100% must return N items");
        }
        // RS at 100% is the identity.
        let s = draw_sample(
            SamplingTechnique::Regular,
            &rects,
            100.0,
            &Extent::unit(),
            0,
        );
        assert_eq!(s, rects);
    }

    #[test]
    fn rswr_is_seed_deterministic_and_from_dataset() {
        let rects = uniform(50, 2, 0.1);
        let e = Extent::unit();
        let a = draw_sample(
            SamplingTechnique::RandomWithReplacement,
            &rects,
            20.0,
            &e,
            9,
        );
        let b = draw_sample(
            SamplingTechnique::RandomWithReplacement,
            &rects,
            20.0,
            &e,
            9,
        );
        let c = draw_sample(
            SamplingTechnique::RandomWithReplacement,
            &rects,
            20.0,
            &e,
            10,
        );
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|r| rects.contains(r)));
    }

    #[test]
    fn sorted_sampling_is_hilbert_ordered() {
        let rects = uniform(200, 3, 0.01);
        let e = Extent::unit();
        let s = draw_sample(SamplingTechnique::Sorted, &rects, 10.0, &e, 0);
        let keys: Vec<u64> = s
            .iter()
            .map(|r| sj_hilbert::rect_key(sj_hilbert::DEFAULT_ORDER, &e, r))
            .collect();
        assert!(
            keys.windows(2).all(|w| w[0] <= w[1]),
            "SS sample must be Hilbert-sorted"
        );
        assert_eq!(s.len(), 20);
    }

    #[test]
    fn estimator_exact_at_full_samples() {
        // 100/100 sampling with a deterministic technique gives the exact
        // selectivity, whatever the backend.
        let a = uniform(300, 4, 0.05);
        let b = uniform(300, 5, 0.05);
        let exact = sj_sweep::sweep_join_selectivity(&a, &b);
        for backend in [JoinBackend::RTree, JoinBackend::PlaneSweep] {
            let est = SamplingEstimator {
                backend,
                ..SamplingEstimator::new(SamplingTechnique::Regular, 100.0, 100.0)
            };
            let out = est.estimate(&a, &b, &Extent::unit());
            assert!(
                (out.selectivity - exact).abs() < 1e-15,
                "{backend:?}: {} vs {exact}",
                out.selectivity
            );
            assert_eq!(out.sample_pairs, sj_sweep::sweep_join_count(&a, &b));
        }
    }

    #[test]
    fn estimator_close_at_large_samples() {
        let a = uniform(4000, 6, 0.03);
        let b = uniform(4000, 7, 0.03);
        let exact = sj_sweep::sweep_join_selectivity(&a, &b);
        let est = SamplingEstimator::new(SamplingTechnique::RandomWithReplacement, 30.0, 30.0);
        let out = est.estimate(&a, &b, &Extent::unit());
        let err = (out.selectivity - exact).abs() / exact;
        assert!(err < 0.25, "30% RSWR error {err:.3}");
        assert_eq!(out.sample_sizes, (1200, 1200));
        assert!(out.pairs > 0.0);
    }

    #[test]
    fn estimator_handles_empty_inputs() {
        let a = uniform(10, 8, 0.1);
        let est = SamplingEstimator::new(SamplingTechnique::Regular, 50.0, 50.0);
        let out = est.estimate(&a, &[], &Extent::unit());
        assert_eq!(out.selectivity, 0.0);
        assert_eq!(out.pairs, 0.0);
        assert_eq!(out.sample_sizes.1, 0);
    }

    #[test]
    fn backends_agree_on_pair_counts() {
        let a = uniform(500, 9, 0.05);
        let b = uniform(500, 10, 0.05);
        let mk = |backend| SamplingEstimator {
            backend,
            ..SamplingEstimator::new(SamplingTechnique::Regular, 20.0, 20.0)
        };
        let rtree = mk(JoinBackend::RTree).estimate(&a, &b, &Extent::unit());
        let sweep = mk(JoinBackend::PlaneSweep).estimate(&a, &b, &Extent::unit());
        assert_eq!(rtree.sample_pairs, sweep.sample_pairs);
        assert_eq!(sweep.timings.build, Duration::ZERO);
    }

    #[test]
    fn asymmetric_percentages() {
        let a = uniform(1000, 11, 0.02);
        let b = uniform(2000, 12, 0.02);
        let est = SamplingEstimator::new(SamplingTechnique::Regular, 1.0, 10.0);
        let out = est.estimate(&a, &b, &Extent::unit());
        assert_eq!(out.sample_sizes, (10, 200));
    }

    #[test]
    fn technique_names() {
        assert_eq!(SamplingTechnique::Regular.name(), "RS");
        assert_eq!(SamplingTechnique::RandomWithReplacement.name(), "RSWR");
        assert_eq!(SamplingTechnique::Sorted.name(), "SS");
    }
}

#[cfg(test)]
mod extension_tests {
    use super::*;
    use sj_geo::Point;

    fn uniform(n: usize, seed: u64, side: f64) -> Vec<Rect> {
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
    fn rswor_has_no_duplicates() {
        // Distinct source rects => a without-replacement sample has no
        // repeated elements (RSWR would, at this 50% fraction).
        let rects: Vec<Rect> = (0..100)
            .map(|i| Rect::from_point(Point::new(f64::from(i), 0.0)))
            .collect();
        let s = draw_sample(
            SamplingTechnique::RandomWithoutReplacement,
            &rects,
            50.0,
            &Extent::unit(),
            3,
        );
        assert_eq!(s.len(), 50);
        let mut xs: Vec<f64> = s.iter().map(|r| r.xlo).collect();
        xs.sort_by(f64::total_cmp);
        assert!(
            xs.windows(2).all(|w| w[0] != w[1]),
            "duplicates in RSWOR sample"
        );
    }

    #[test]
    fn rswor_full_fraction_is_a_permutation() {
        let rects = uniform(60, 4, 0.05);
        let mut s = draw_sample(
            SamplingTechnique::RandomWithoutReplacement,
            &rects,
            100.0,
            &Extent::unit(),
            5,
        );
        assert_eq!(s.len(), 60);
        let mut expected = rects.clone();
        let key = |r: &Rect| (r.xlo, r.ylo, r.xhi, r.yhi);
        s.sort_by(|a, b| key(a).partial_cmp(&key(b)).unwrap());
        expected.sort_by(|a, b| key(a).partial_cmp(&key(b)).unwrap());
        assert_eq!(s, expected);
    }

    #[test]
    fn stratified_sample_hits_exact_size_and_covers_strata() {
        // Two clusters: proportional allocation must sample both.
        let mut rects = Vec::new();
        for i in 0..300 {
            let t = f64::from(i % 100) / 1000.0;
            rects.push(Rect::centered(Point::new(0.1 + t, 0.1 + t), 0.002, 0.002));
        }
        for i in 0..100 {
            let t = f64::from(i) / 1000.0;
            rects.push(Rect::centered(Point::new(0.9 - t, 0.9 - t), 0.002, 0.002));
        }
        let s = draw_sample(
            SamplingTechnique::Stratified { level: 2 },
            &rects,
            10.0,
            &Extent::unit(),
            6,
        );
        assert_eq!(s.len(), 40, "exact proportional size");
        let near_a = s.iter().filter(|r| r.center().x < 0.5).count();
        let near_b = s.len() - near_a;
        // 3:1 population ratio must be approximately preserved.
        assert!((28..=32).contains(&near_a), "cluster A got {near_a}/40");
        assert!((8..=12).contains(&near_b), "cluster B got {near_b}/40");
    }

    #[test]
    fn stratified_estimator_runs_end_to_end() {
        let a = uniform(2000, 7, 0.03);
        let b = uniform(2000, 8, 0.03);
        let exact = sj_sweep::sweep_join_selectivity(&a, &b);
        let est = SamplingEstimator::new(SamplingTechnique::Stratified { level: 3 }, 20.0, 20.0);
        let out = est.estimate(&a, &b, &Extent::unit());
        assert_eq!(out.sample_sizes, (400, 400));
        let err = (out.selectivity - exact).abs() / exact;
        assert!(err < 0.35, "stratified estimate err {err:.3}");
    }

    /// The motivation for stratification: on clustered data its
    /// estimates vary less across seeds than RSWR's at the same size.
    #[test]
    fn stratified_variance_below_rswr_on_clustered_data() {
        // Clustered ⋈ clustered join.
        let mk = |seed: u64| -> Vec<Rect> {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..3000)
                .map(|_| {
                    let cluster = rng.random_range(0..3usize);
                    let (cx, cy) = [(0.2, 0.2), (0.5, 0.8), (0.85, 0.4)][cluster];
                    let x = (cx + rng.random_range(-0.06..0.06f64)).clamp(0.0, 0.99);
                    let y = (cy + rng.random_range(-0.06..0.06f64)).clamp(0.0, 0.99);
                    Rect::new(x, y, x + 0.008, y + 0.008)
                })
                .collect()
        };
        let a = mk(9);
        let b = mk(10);
        let spread = |technique: SamplingTechnique| -> f64 {
            let estimates: Vec<f64> = (0..12)
                .map(|seed| {
                    let est = SamplingEstimator {
                        seed,
                        ..SamplingEstimator::new(technique, 5.0, 5.0)
                    };
                    est.estimate(&a, &b, &Extent::unit()).selectivity
                })
                .collect();
            let mean = estimates.iter().sum::<f64>() / estimates.len() as f64;
            (estimates.iter().map(|e| (e - mean).powi(2)).sum::<f64>() / estimates.len() as f64)
                .sqrt()
                / mean
        };
        let rswr = spread(SamplingTechnique::RandomWithReplacement);
        let strat = spread(SamplingTechnique::Stratified { level: 3 });
        assert!(
            strat < rswr,
            "stratification should cut seed-to-seed spread: STRAT {strat:.4} vs RSWR {rswr:.4}"
        );
    }
}
