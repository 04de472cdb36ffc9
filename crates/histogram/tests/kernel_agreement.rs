//! Old-vs-new agreement: the SoA kernel estimate path must be
//! **bit-identical** to the retained scalar reference loops across the
//! verify-equivalence scenario matrix (all gridded families, every
//! ordered dataset pair including self-joins and an empty dataset), at
//! levels {0, 3, 6, 7}: one cell, a partial mask word per row, exactly
//! one word per row, and two words per row (the level the daemon
//! serves). A pair of striped datasets whose occupancy is mostly
//! disjoint makes the dense-run kernels sum many `±0.0` terms. Both
//! sides sum in the blocked order (one partial per 64-cell mask word,
//! then the words in ascending order), so a last test also checks every
//! path against a reference that decodes the `.hist` payloads by hand
//! and writes that order out from the grid shape alone. This is the pin
//! for DESIGN.md §16's bit-identity argument; CI runs it as its own
//! named step, in debug and in release.

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

// ---------------------------------------------------------------------
// An independent blocked reference
// ---------------------------------------------------------------------

/// A `.hist` payload decoded by hand (layout: DESIGN.md §10, `schema.rs`):
/// the `u64` scalars, then each per-cell array as `f64`, counts widened
/// exactly and masses scaled from their `i128` fixed-point units by
/// 2⁻⁷⁵.
struct Decoded {
    scalars: Vec<u64>,
    arrays: Vec<Vec<f64>>,
}

/// Decodes `payload` with `scalars` scalars and one array per entry of
/// `masses` (`true`: a 16-byte mass, `false`: a `u32` count).
fn decode(payload: &[u8], level: u32, scalars: usize, masses: &[bool]) -> Decoded {
    let cells = 1usize << (2 * level);
    let mut at = 4 + 4 + 32;
    let mut take = |n: usize| {
        let bytes = &payload[at..at + n];
        at += n;
        bytes
    };
    let scalars = (0..scalars)
        .map(|_| u64::from_le_bytes(take(8).try_into().unwrap()))
        .collect();
    let arrays = masses
        .iter()
        .map(|&mass| {
            (0..cells)
                .map(|_| {
                    if mass {
                        let units = i128::from_le_bytes(take(16).try_into().unwrap());
                        #[allow(clippy::cast_precision_loss)]
                        let units = units as f64;
                        units * 2f64.powi(-75)
                    } else {
                        f64::from(u32::from_le_bytes(take(4).try_into().unwrap()))
                    }
                })
                .collect()
        })
        .collect();
    assert_eq!(at, payload.len(), "the whole payload decodes");
    Decoded { scalars, arrays }
}

/// The blocked order, written out from the grid shape alone: for each
/// row, for each 64-cell stretch of it, `K` partials from `+0.0` that
/// `cell` adds each cell's terms to in ascending order; the partials
/// are added to the totals in ascending order.
fn blocked<const K: usize>(level: u32, cell: impl Fn(usize, &mut [f64; K])) -> [f64; K] {
    let cols = 1usize << level;
    let mut totals = [0.0f64; K];
    for row in 0..cols {
        for start in (0..cols).step_by(64) {
            let mut partials = [0.0f64; K];
            for col in start..cols.min(start + 64) {
                cell(row * cols + col, &mut partials);
            }
            for (t, p) in totals.iter_mut().zip(partials) {
                *t += p;
            }
        }
    }
    totals
}

fn gh_reference(level: u32, a: &GhHistogram, b: &GhHistogram) -> f64 {
    let masses = [false, true, true, true]; // c, o, h, v
    let (x, y) = (
        decode(&a.to_bytes(), level, 1, &masses),
        decode(&b.to_bytes(), level, 1, &masses),
    );
    let [c1, o1, h1, v1] = [0, 1, 2, 3].map(|k| &x.arrays[k]);
    let [c2, o2, h2, v2] = [0, 1, 2, 3].map(|k| &y.arrays[k]);
    let [ip] = blocked(level, |i, p: &mut [f64; 1]| {
        p[0] += c1[i] * o2[i] + c2[i] * o1[i] + h1[i] * v2[i] + h2[i] * v1[i];
    });
    ip
}

fn gh_basic_reference(level: u32, a: &GhBasicHistogram, b: &GhBasicHistogram) -> f64 {
    let masses = [false; 4]; // c, i, v, h
    let (x, y) = (
        decode(&a.to_bytes(), level, 1, &masses),
        decode(&b.to_bytes(), level, 1, &masses),
    );
    let [c1, i1, v1, h1] = [0, 1, 2, 3].map(|k| &x.arrays[k]);
    let [c2, i2, v2, h2] = [0, 1, 2, 3].map(|k| &y.arrays[k]);
    let [ip] = blocked(level, |i, p: &mut [f64; 1]| {
        p[0] += c1[i] * i2[i] + i1[i] * c2[i] + v1[i] * h2[i] + h1[i] * v2[i];
    });
    ip
}

fn ph_reference(level: u32, a: &PhHistogram, b: &PhHistogram) -> SelectivityEstimate {
    // num, num_x, cov, xsum, ysum, cov_x, xsum_x, ysum_x.
    let masses = [false, false, true, true, true, true, true, true];
    let (x, y) = (
        decode(&a.to_bytes(), level, 3, &masses),
        decode(&b.to_bytes(), level, 3, &masses),
    );
    let cell_area = unit_grid(level).cell_area();
    let avg = |sum: f64, count: f64| if count == 0.0 { 0.0 } else { sum / count };
    // Per cell: (n, c, w, h) of the Cont group and of the Isect group.
    let groups = |d: &Decoded, i: usize| {
        let s = |k: usize| d.arrays[k][i];
        (
            (s(0), s(2), avg(s(3), s(0)), avg(s(4), s(0))),
            (s(1), s(5), avg(s(6), s(1)), avg(s(7), s(1))),
        )
    };
    let eq1 = |(n1, c1, w1, h1): (f64, f64, f64, f64), (n2, c2, w2, h2): (f64, f64, f64, f64)| {
        n1 * c2 + c1 * n2 + n1 * n2 * (w1 * h2 + w2 * h1) / cell_area
    };
    let [sum_abc, sum_d] = blocked(level, |i, p: &mut [f64; 2]| {
        let ((cont1, isect1), (cont2, isect2)) = (groups(&x, i), groups(&y, i));
        p[0] += eq1(cont1, cont2);
        p[0] += eq1(cont1, isect2);
        p[0] += eq1(isect1, cont2);
        p[1] += eq1(isect1, isect2);
    });
    #[allow(clippy::cast_precision_loss)]
    let f = |v: u64| v as f64;
    let avg_span = |d: &Decoded| {
        if d.scalars[2] == 0 {
            1.0
        } else {
            f(d.scalars[1]) / f(d.scalars[2])
        }
    };
    let size = sum_abc + sum_d / ((avg_span(&x) + avg_span(&y)) / 2.0);
    let denom = f(x.scalars[0]) * f(y.scalars[0]);
    let raw = if denom == 0.0 { 0.0 } else { size / denom };
    SelectivityEstimate::from_selectivity(raw, a.dataset_len(), b.dataset_len())
}

/// Every kernel path and scalar reference equals the blocked reference
/// above bit for bit, at one cell, a partial word per row, one word per
/// row and two words per row.
#[test]
fn every_path_equals_an_independent_blocked_reference() {
    for level in LEVELS {
        let grid = unit_grid(level);
        let data = scenario_rects();
        for (na, ra) in &data {
            for (nb, rb) in &data {
                let ctx = format!("level {level}, {na} x {nb}");
                let (ga, gb) = (GhHistogram::build(grid, ra), GhHistogram::build(grid, rb));
                let want = gh_reference(level, &ga, &gb).to_bits();
                let (va, vb) = (GhView::new(&ga), GhView::new(&gb));
                for (path, got) in [
                    ("kernel", ga.intersection_points(&gb).unwrap()),
                    ("scalar", ga.intersection_points_scalar(&gb).unwrap()),
                    ("view", va.intersection_points(&vb).unwrap()),
                ] {
                    assert_eq!(got.to_bits(), want, "GH {path}: {ctx}");
                }

                let (ba, bb) = (
                    GhBasicHistogram::build(grid, ra),
                    GhBasicHistogram::build(grid, rb),
                );
                let want = gh_basic_reference(level, &ba, &bb).to_bits();
                let (va, vb) = (GhBasicView::new(&ba), GhBasicView::new(&bb));
                for (path, got) in [
                    ("kernel", ba.intersection_points(&bb).unwrap()),
                    ("scalar", ba.intersection_points_scalar(&bb).unwrap()),
                    ("view", va.intersection_points(&vb).unwrap()),
                ] {
                    assert_eq!(got.to_bits(), want, "GH-basic {path}: {ctx}");
                }

                let (pa, pb) = (PhHistogram::build(grid, ra), PhHistogram::build(grid, rb));
                let want = bits(ph_reference(level, &pa, &pb));
                for (path, got) in [
                    ("kernel", pa.estimate(&pb).unwrap()),
                    ("scalar", pa.estimate_scalar(&pb).unwrap()),
                    (
                        "view",
                        PhView::new(&pa).estimate(&PhView::new(&pb)).unwrap(),
                    ),
                ] {
                    assert_eq!(bits(got), want, "PH {path}: {ctx}");
                }
            }
        }
    }
}
