//! Exact agreement between the serial and parallel code paths.
//!
//! Every parallelized stage in the workspace must produce results
//! *identical* to its serial counterpart — integer pair counts agree
//! trivially, and the histogram builds are bit-for-bit equal because the
//! row-band partitioning preserves the per-cell `f64` accumulation
//! order. These tests pin that contract across thread counts, including
//! oversubscribed ones, and on degenerate inputs.

#![expect(
    clippy::expect_used,
    reason = "integration-test helpers run outside #[test] fns; a failed setup step must fail the test loudly"
)]

use proptest::prelude::*;
use sj_core::{
    presets, EulerHistogram, Extent, GhBasicHistogram, GhHistogram, Grid, PhHistogram, RTree,
    RTreeConfig, Rect,
};

const THREAD_COUNTS: [usize; 4] = [1, 2, 3, 8];

fn unit_grid(level: u32) -> Grid {
    Grid::new(level, Extent::unit()).expect("grid level in range")
}

/// Deterministic pseudo-random rects in the unit square (no RNG state
/// shared with the estimators under test).
fn scattered_rects(n: usize, seed: u64, max_side: f64) -> Vec<Rect> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|_| {
            let x = next() * (1.0 - max_side);
            let y = next() * (1.0 - max_side);
            Rect::new(x, y, x + next() * max_side, y + next() * max_side)
        })
        .collect()
}

#[test]
fn rtree_join_parallel_matches_serial_on_presets() {
    for join in presets::ALL_JOINS {
        let (a, b) = join.datasets(0.01);
        let ta = RTree::bulk_load_str(RTreeConfig::default(), &a.rects);
        let tb = RTree::bulk_load_str(RTreeConfig::default(), &b.rects);
        let serial = sj_core::join_count(&ta, &tb);
        for threads in THREAD_COUNTS {
            assert_eq!(
                sj_core::join_count_parallel(&ta, &tb, threads),
                serial,
                "{} at {threads} threads",
                join.name()
            );
        }
    }
}

#[test]
fn sweep_join_parallel_matches_serial() {
    let a = scattered_rects(400, 3, 0.05);
    let b = scattered_rects(300, 4, 0.05);
    let serial = sj_core::sweep_join_count(&a, &b);
    for threads in THREAD_COUNTS {
        assert_eq!(sj_core::sweep_join_count_parallel(&a, &b, threads), serial);
    }
}

#[test]
fn histogram_builds_are_bit_identical_across_thread_counts() {
    let rects = scattered_rects(1200, 7, 0.08);
    for level in [0u32, 1, 3, 5] {
        let grid = unit_grid(level);
        let gh = GhHistogram::build(grid, &rects);
        let gh_basic = GhBasicHistogram::build(grid, &rects);
        let ph = PhHistogram::build(grid, &rects);
        let euler = EulerHistogram::build(grid, &rects);
        for threads in THREAD_COUNTS {
            assert_eq!(GhHistogram::build_parallel(grid, &rects, threads), gh);
            assert_eq!(
                GhBasicHistogram::build_parallel(grid, &rects, threads),
                gh_basic
            );
            assert_eq!(PhHistogram::build_parallel(grid, &rects, threads), ph);
            assert_eq!(EulerHistogram::build_parallel(grid, &rects, threads), euler);
        }
    }
}

#[test]
fn histogram_parallel_handles_degenerate_inputs() {
    let one_cell: Vec<Rect> = (0..50)
        .map(|i| {
            let off = f64::from(i) * 1e-6;
            Rect::new(0.001 + off, 0.001, 0.002 + off, 0.002)
        })
        .collect();
    let cases: [(&str, Vec<Rect>); 3] = [
        ("empty", vec![]),
        ("single rect", vec![Rect::new(0.2, 0.3, 0.4, 0.5)]),
        ("all in one cell", one_cell),
    ];
    for (label, rects) in cases {
        for level in [0u32, 4] {
            let grid = unit_grid(level);
            let gh = GhHistogram::build(grid, &rects);
            let gh_basic = GhBasicHistogram::build(grid, &rects);
            let ph = PhHistogram::build(grid, &rects);
            let euler = EulerHistogram::build(grid, &rects);
            for threads in THREAD_COUNTS {
                assert_eq!(
                    GhHistogram::build_parallel(grid, &rects, threads),
                    gh,
                    "GH {label} level {level} threads {threads}"
                );
                assert_eq!(
                    GhBasicHistogram::build_parallel(grid, &rects, threads),
                    gh_basic,
                    "GH-basic {label} level {level} threads {threads}"
                );
                assert_eq!(
                    PhHistogram::build_parallel(grid, &rects, threads),
                    ph,
                    "PH {label} level {level} threads {threads}"
                );
                assert_eq!(
                    EulerHistogram::build_parallel(grid, &rects, threads),
                    euler,
                    "Euler {label} level {level} threads {threads}"
                );
            }
        }
    }
}

#[test]
fn baseline_pair_counts_identical_at_every_thread_count() {
    let (a, b) = presets::PaperJoin::TsTcb.datasets(0.01);
    let reference = sj_core::JoinBaseline::compute_with_parallelism(
        &a,
        &b,
        RTreeConfig::default(),
        sj_core::Parallelism::serial(),
    );
    for threads in THREAD_COUNTS {
        let par = sj_core::JoinBaseline::compute_with_parallelism(
            &a,
            &b,
            RTreeConfig::default(),
            sj_core::Parallelism::saturating_new(threads),
        );
        assert_eq!(par.pairs, reference.pairs);
        assert_eq!(par.selectivity, reference.selectivity);
        assert_eq!(par.rtree_bytes, reference.rtree_bytes);
    }
}

#[test]
fn more_threads_than_rows_or_rects_is_safe() {
    let rects = scattered_rects(5, 11, 0.1);
    let grid = unit_grid(1); // 2x2 grid: fewer rows than threads below.
    let serial = GhHistogram::build(grid, &rects);
    assert_eq!(GhHistogram::build_parallel(grid, &rects, 64), serial);

    let a = scattered_rects(3, 12, 0.2);
    let b = scattered_rects(2, 13, 0.2);
    assert_eq!(
        sj_core::sweep_join_count_parallel(&a, &b, 64),
        sj_core::sweep_join_count(&a, &b)
    );
}

#[test]
fn estimator_reports_agree_serial_vs_parallel() {
    let (a, b) = presets::PaperJoin::SpSpg.datasets(0.01);
    let extent = a.extent;
    for kind in [
        sj_core::EstimatorKind::Gh { level: 4 },
        sj_core::EstimatorKind::GhBasic { level: 4 },
        sj_core::EstimatorKind::Ph { level: 4 },
    ] {
        let serial = kind.run_in_extent(&a, &b, &extent);
        for threads in THREAD_COUNTS {
            let par = kind.run_in_extent_par(
                &a,
                &b,
                &extent,
                sj_core::Parallelism::saturating_new(threads),
            );
            assert_eq!(
                par.estimate.selectivity, serial.estimate.selectivity,
                "{kind:?} at {threads} threads"
            );
            assert_eq!(par.estimate.pairs, serial.estimate.pairs);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random rect sets: parallel joins and histogram builds agree with
    /// serial for every thread count.
    #[test]
    fn prop_parallel_join_and_histograms_match_serial(
        seed_a in 0u64..500,
        seed_b in 0u64..500,
        na in 0usize..120,
        nb in 0usize..120,
        level in 0u32..5,
        threads in 1usize..9,
    ) {
        let a = scattered_rects(na, seed_a, 0.2);
        let b = scattered_rects(nb, seed_b, 0.2);

        let ta = RTree::bulk_load_str(RTreeConfig::default(), &a);
        let tb = RTree::bulk_load_str(RTreeConfig::default(), &b);
        prop_assert_eq!(
            sj_core::join_count_parallel(&ta, &tb, threads),
            sj_core::join_count(&ta, &tb)
        );
        prop_assert_eq!(
            sj_core::sweep_join_count_parallel(&a, &b, threads),
            sj_core::sweep_join_count(&a, &b)
        );

        let grid = unit_grid(level);
        prop_assert_eq!(
            GhHistogram::build_parallel(grid, &a, threads),
            GhHistogram::build(grid, &a)
        );
        prop_assert_eq!(
            PhHistogram::build_parallel(grid, &a, threads),
            PhHistogram::build(grid, &a)
        );
        prop_assert_eq!(
            EulerHistogram::build_parallel(grid, &a, threads),
            EulerHistogram::build(grid, &a)
        );
    }
}

/// The outer experiment fan-out must not change any row content.
#[test]
fn experiment_rows_identical_serial_vs_parallel() {
    let (a, b) = presets::PaperJoin::CasCar.datasets(0.005);
    let ctx = sj_core::experiment::JoinContext::prepare("CAS with CAR", a, b);

    let serial6 = sj_core::experiment::fig6_rows(&ctx);
    let par6 = sj_core::experiment::fig6_rows_par(&ctx, sj_core::Parallelism::saturating_new(4));
    assert_eq!(serial6.len(), 27, "fig6 must keep the paper's 27 rows");
    assert_eq!(serial6.len(), par6.len());
    for (s, p) in serial6.iter().zip(&par6) {
        assert_eq!(s.technique, p.technique);
        assert_eq!(s.combo, p.combo);
        assert_eq!(
            s.estimated, p.estimated,
            "fig6 row {}/{}",
            s.combo, s.technique
        );
        assert_eq!(p.threads, 4);
    }

    let serial7 = sj_core::experiment::fig7_rows(&ctx, 0..=4);
    let par7 =
        sj_core::experiment::fig7_rows_par(&ctx, 0..=4, sj_core::Parallelism::saturating_new(3));
    assert_eq!(serial7.len(), par7.len());
    for (s, p) in serial7.iter().zip(&par7) {
        assert_eq!(s.scheme, p.scheme);
        assert_eq!(s.level, p.level);
        assert_eq!(
            s.estimated, p.estimated,
            "fig7 row {}/{}",
            s.scheme, s.level
        );
    }
}

/// `Dataset` is moved into worker closures by the runners; make sure the
/// preset loader really produces the advertised extent so banding sees
/// the same grid on every path.
#[test]
fn preset_extents_round_trip_through_grid() {
    let (a, _) = presets::PaperJoin::ScrcSura.datasets(0.002);
    let grid = Grid::new(3, a.extent).expect("preset extent grids");
    let serial = GhHistogram::build(grid, &a.rects);
    for threads in THREAD_COUNTS {
        assert_eq!(GhHistogram::build_parallel(grid, &a.rects, threads), serial);
    }
}
