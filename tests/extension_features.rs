//! Integration coverage for the beyond-the-paper extensions, exercised
//! through the sj-core public API on the preset workloads: windowed
//! estimation, range counting (GH statistical vs Euler exact), the
//! parallel join, and sparse histogram files.

use sj_core::{
    error_pct, presets, EulerHistogram, Extent, GhHistogram, Grid, RTree, RTreeConfig, Rect,
};

#[test]
fn windowed_join_estimates_on_preset_data() {
    let (a, b) = presets::PaperJoin::CasCar.datasets(0.02);
    let grid = Grid::new(6, Extent::unit()).unwrap();
    let (ha, hb) = (
        GhHistogram::build(grid, &a.rects),
        GhHistogram::build(grid, &b.rects),
    );
    let window = Rect::new(0.2, 0.2, 0.8, 0.8);
    let est = ha.estimate_pairs_in_window(&hb, &window).unwrap();
    // Exact: pairs whose intersection touches the window.
    let mut exact = 0u64;
    sj_core::sweep_join_pairs(&a.rects, &b.rects, |i, j| {
        if let Some(overlap) = a.rects[i].intersection(&b.rects[j]) {
            if overlap.intersects(&window) {
                exact += 1;
            }
        }
    });
    assert!(exact > 0);
    let err = error_pct(est, exact as f64);
    assert!(
        err < 20.0,
        "windowed estimate err {err:.1}% (est {est:.0} vs {exact})"
    );
}

#[test]
fn gh_and_euler_range_counts_agree_on_presets() {
    let ds = presets::tcb(0.02);
    let grid = Grid::new(6, Extent::unit()).unwrap();
    let gh = GhHistogram::build(grid, &ds.rects);
    let euler = EulerHistogram::build(grid, &ds.rects);
    for win in [
        Rect::new(0.1, 0.1, 0.45, 0.4),
        Rect::new(0.5, 0.5, 0.95, 0.9),
        Rect::new(0.0, 0.0, 1.0, 1.0),
    ] {
        let exact = ds.rects.iter().filter(|r| r.intersects(&win)).count() as f64;
        if exact == 0.0 {
            continue;
        }
        let gh_err = error_pct(gh.estimate_window_count(&win), exact);
        let euler_err = error_pct(euler.count_in_window(&win) as f64, exact);
        assert!(gh_err < 10.0, "GH range count err {gh_err:.1}% on {win:?}");
        // Euler only overcounts at boundary-cell resolution.
        assert!(
            euler_err < 10.0,
            "Euler range count err {euler_err:.1}% on {win:?}"
        );
    }
}

#[test]
fn parallel_join_on_presets_matches_sequential() {
    let (a, b) = presets::PaperJoin::TsTcb.datasets(0.02);
    let ta = RTree::bulk_load_str(RTreeConfig::default(), &a.rects);
    let tb = RTree::bulk_load_str(RTreeConfig::default(), &b.rects);
    let sequential = sj_core::join_count(&ta, &tb);
    assert!(sequential > 0);
    assert_eq!(sj_core::join_count_parallel(&ta, &tb, 4), sequential);
}

#[test]
fn sparse_files_roundtrip_preset_histograms() {
    let ds = presets::scrc(0.02);
    let grid = Grid::new(7, Extent::unit()).unwrap();
    let h = GhHistogram::build(grid, &ds.rects);
    let sparse = h.to_sparse_bytes();
    let dense = h.to_bytes();
    assert!(
        sparse.len() * 4 < dense.len(),
        "clustered SCRC at level 7 should compress well: {} vs {}",
        sparse.len(),
        dense.len()
    );
    assert_eq!(GhHistogram::from_sparse_bytes(&sparse).unwrap(), h);
}
