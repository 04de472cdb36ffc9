//! Old-vs-new agreement: the SoA kernel estimate path must be
//! **bit-identical** to the retained scalar reference loops across the
//! verify-equivalence scenario matrix (all gridded families, every
//! ordered dataset pair including self-joins and an empty dataset), at
//! levels {0, 3, 6, 7}: one cell, a partial mask word per row, exactly
//! one word per row, and two words per row (the level the daemon
//! serves). A pair of striped datasets whose occupancy is mostly
//! disjoint makes the dense-run kernels sum many `±0.0` terms. This is
//! the pin for DESIGN.md §16's bit-identity argument; CI runs it as its
//! own named step, in debug and in release.

#![expect(
    clippy::unwrap_used,
    reason = "integration-test helpers run outside #[test] fns; a failed setup step must fail the test loudly"
)]

use sj_datagen::presets::verify_scenarios;
use sj_geo::{Extent, Rect};
use sj_histogram::kernel::{GhBasicView, GhView, PhView};
use sj_histogram::{
    GhBasicHistogram, GhHistogram, Grid, HistogramError, PhHistogram, SelectivityEstimate,
    SpatialHistogram,
};

const SCALE: f64 = 0.5;
const LEVELS: [u32; 4] = [0, 3, 6, 7];

fn bits(e: SelectivityEstimate) -> (u64, u64) {
    (e.selectivity.to_bits(), e.pairs.to_bits())
}

/// The scenario matrix: both verify presets plus the empty dataset.
fn scenario_rects() -> Vec<(String, Vec<Rect>)> {
    let mut out: Vec<(String, Vec<Rect>)> = verify_scenarios(SCALE)
        .into_iter()
        .map(|d| (d.name, d.rects))
        .collect();
    out.push(("empty".to_string(), Vec::new()));
    out
}

fn unit_grid(level: u32) -> Grid {
    Grid::new(level, Extent::unit()).unwrap()
}

#[test]
fn ph_kernel_is_bit_identical_to_scalar() {
    for level in LEVELS {
        let grid = unit_grid(level);
        let hists: Vec<(String, PhHistogram)> = scenario_rects()
            .into_iter()
            .map(|(name, rects)| (name, PhHistogram::build(grid, &rects)))
            .collect();
        for (na, ha) in &hists {
            for (nb, hb) in &hists {
                let ctx = format!("level {level}, {na} x {nb}");
                assert_eq!(
                    bits(ha.estimate(hb).unwrap()),
                    bits(ha.estimate_scalar(hb).unwrap()),
                    "corrected estimate diverged: {ctx}"
                );
                assert_eq!(
                    bits(ha.estimate_uncorrected(hb).unwrap()),
                    bits(ha.estimate_uncorrected_scalar(hb).unwrap()),
                    "uncorrected estimate diverged: {ctx}"
                );
                // The trait path dispatches through the same kernel.
                assert_eq!(
                    bits(ha.estimate_join(hb).unwrap()),
                    bits(ha.estimate_scalar(hb).unwrap()),
                    "trait path diverged: {ctx}"
                );
                // Reused views (the warm-serving pattern) agree too.
                let (va, vb) = (PhView::new(ha), PhView::new(hb));
                assert_eq!(
                    bits(va.estimate(&vb).unwrap()),
                    bits(ha.estimate_scalar(hb).unwrap()),
                    "view path diverged: {ctx}"
                );
            }
        }
    }
}

#[test]
fn gh_revised_kernel_is_bit_identical_to_scalar() {
    for level in LEVELS {
        let grid = unit_grid(level);
        let hists: Vec<(String, GhHistogram)> = scenario_rects()
            .into_iter()
            .map(|(name, rects)| (name, GhHistogram::build(grid, &rects)))
            .collect();
        for (na, ha) in &hists {
            for (nb, hb) in &hists {
                let ctx = format!("level {level}, {na} x {nb}");
                assert_eq!(
                    ha.intersection_points(hb).unwrap().to_bits(),
                    ha.intersection_points_scalar(hb).unwrap().to_bits(),
                    "Eq. 5 total diverged: {ctx}"
                );
                assert_eq!(
                    bits(ha.estimate(hb).unwrap()),
                    bits(ha.estimate_scalar(hb).unwrap()),
                    "estimate diverged: {ctx}"
                );
                assert_eq!(
                    bits(ha.estimate_join(hb).unwrap()),
                    bits(ha.estimate_scalar(hb).unwrap()),
                    "trait path diverged: {ctx}"
                );
                let (va, vb) = (GhView::new(ha), GhView::new(hb));
                assert_eq!(
                    va.intersection_points(&vb).unwrap().to_bits(),
                    ha.intersection_points_scalar(hb).unwrap().to_bits(),
                    "view path diverged: {ctx}"
                );
            }
        }
    }
}

#[test]
fn gh_basic_kernel_is_bit_identical_to_scalar() {
    for level in LEVELS {
        let grid = unit_grid(level);
        let hists: Vec<(String, GhBasicHistogram)> = scenario_rects()
            .into_iter()
            .map(|(name, rects)| (name, GhBasicHistogram::build(grid, &rects)))
            .collect();
        for (na, ha) in &hists {
            for (nb, hb) in &hists {
                let ctx = format!("level {level}, {na} x {nb}");
                assert_eq!(
                    ha.intersection_points(hb).unwrap().to_bits(),
                    ha.intersection_points_scalar(hb).unwrap().to_bits(),
                    "Eq. 4 total diverged: {ctx}"
                );
                assert_eq!(
                    bits(ha.estimate(hb).unwrap()),
                    bits(ha.estimate_scalar(hb).unwrap()),
                    "estimate diverged: {ctx}"
                );
                assert_eq!(
                    bits(ha.estimate_join(hb).unwrap()),
                    bits(ha.estimate_scalar(hb).unwrap()),
                    "trait path diverged: {ctx}"
                );
                let (va, vb) = (GhBasicView::new(ha), GhBasicView::new(hb));
                assert_eq!(
                    va.intersection_points(&vb).unwrap().to_bits(),
                    ha.intersection_points_scalar(hb).unwrap().to_bits(),
                    "view path diverged: {ctx}"
                );
            }
        }
    }
}

/// Small rectangles inside the cells of every column `col` with
/// `keep(col)`, one per cell, at `level`.
fn striped(level: u32, keep: impl Fn(u32) -> bool) -> Vec<Rect> {
    let cpa = 1u32 << level;
    let w = 1.0 / f64::from(cpa);
    let mut out = Vec::new();
    for row in 0..cpa {
        for col in (0..cpa).filter(|&c| keep(c)) {
            let (x, y) = (f64::from(col) * w, f64::from(row) * w);
            out.push(Rect::new(
                x + 0.3 * w,
                y + 0.2 * w,
                x + 0.6 * w,
                y + 0.7 * w,
            ));
        }
    }
    out
}

#[test]
fn mostly_disjoint_occupancy_is_bit_identical() {
    for level in LEVELS {
        let grid = unit_grid(level);
        // The two operands share only every sixteenth column, so every
        // joint 64-cell run is mostly cells that one side lacks.
        let a = striped(level, |c| c % 4 == 0);
        let b = striped(level, |c| c % 4 != 0 || c % 16 == 0);
        for (x, y, ctx) in [(&a, &b, "a x b"), (&b, &a, "b x a")] {
            let ctx = format!("level {level}, {ctx}");
            let (px, py) = (PhHistogram::build(grid, x), PhHistogram::build(grid, y));
            assert_eq!(
                bits(px.estimate(&py).unwrap()),
                bits(px.estimate_scalar(&py).unwrap()),
                "PH diverged: {ctx}"
            );
            let (gx, gy) = (GhHistogram::build(grid, x), GhHistogram::build(grid, y));
            assert_eq!(
                gx.intersection_points(&gy).unwrap().to_bits(),
                gx.intersection_points_scalar(&gy).unwrap().to_bits(),
                "GH diverged: {ctx}"
            );
            let (bx, by) = (
                GhBasicHistogram::build(grid, x),
                GhBasicHistogram::build(grid, y),
            );
            assert_eq!(
                bx.intersection_points(&by).unwrap().to_bits(),
                bx.intersection_points_scalar(&by).unwrap().to_bits(),
                "GH-basic diverged: {ctx}"
            );
            assert!(
                gx.intersection_points(&gy).unwrap() > 0.0,
                "{ctx}: shared cells"
            );
        }
    }
}

#[test]
fn kernel_path_reports_the_same_grid_mismatch() {
    let rects = vec![Rect::new(0.1, 0.1, 0.2, 0.2)];
    let a = PhHistogram::build(unit_grid(3), &rects);
    let b = PhHistogram::build(unit_grid(6), &rects);
    for result in [a.estimate(&b), a.estimate_scalar(&b)] {
        assert!(matches!(
            result,
            Err(HistogramError::GridMismatch {
                left_level: 3,
                right_level: 6,
            })
        ));
    }
    let ga = GhHistogram::build(unit_grid(3), &rects);
    let gb = GhHistogram::build(unit_grid(6), &rects);
    assert!(matches!(
        ga.intersection_points(&gb),
        Err(HistogramError::GridMismatch { .. })
    ));
    let ba = GhBasicHistogram::build(unit_grid(3), &rects);
    let bb = GhBasicHistogram::build(unit_grid(6), &rects);
    assert!(matches!(
        ba.intersection_points(&bb),
        Err(HistogramError::GridMismatch { .. })
    ));
}
