//! End-to-end pipeline tests through the sj-core public API: estimator
//! dispatch, histogram-file round-trips across process boundaries, and
//! the experiment runner's row schemas (including JSON output).

use sj_core::experiment::{fig6_rows, fig7_rows, JoinContext};
use sj_core::{
    presets, EstimatorKind, Extent, GhHistogram, Grid, JoinBaseline, PhHistogram, SamplingTechnique,
};

fn ctx() -> JoinContext {
    let (a, b) = presets::PaperJoin::SpSpg.datasets(0.02);
    JoinContext::prepare(presets::PaperJoin::SpSpg.name(), a, b)
}

#[test]
fn histogram_files_roundtrip_through_disk() {
    // Build histogram files for both datasets, write them to disk, read
    // them back in a "different session", and estimate from the files —
    // the workflow of a query optimizer consulting precomputed stats.
    let (a, b) = presets::PaperJoin::TsTcb.datasets(0.01);
    let extent = Extent::new(a.extent.rect().union(&b.extent.rect()));
    let grid = Grid::new(5, extent).unwrap();

    let dir = std::env::temp_dir().join(format!("sj_pipeline_test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let pa = dir.join("a.ghh");
    let pb = dir.join("b.ghh");
    std::fs::write(&pa, GhHistogram::build(grid, &a.rects).to_bytes()).unwrap();
    std::fs::write(&pb, GhHistogram::build(grid, &b.rects).to_bytes()).unwrap();

    let ha = GhHistogram::from_bytes(&std::fs::read(&pa).unwrap()).unwrap();
    let hb = GhHistogram::from_bytes(&std::fs::read(&pb).unwrap()).unwrap();
    let est = ha.estimate(&hb).unwrap();

    // Must agree exactly with the in-memory estimate.
    let fresh = EstimatorKind::Gh { level: 5 }.run_in_extent(&a, &b, &extent);
    assert!((est.selectivity - fresh.estimate.selectivity).abs() < 1e-15);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ph_files_roundtrip_and_estimate() {
    let (a, b) = presets::PaperJoin::ScrcSura.datasets(0.01);
    let extent = Extent::new(a.extent.rect().union(&b.extent.rect()));
    let grid = Grid::new(4, extent).unwrap();
    let ha = PhHistogram::from_bytes(&PhHistogram::build(grid, &a.rects).to_bytes()).unwrap();
    let hb = PhHistogram::from_bytes(&PhHistogram::build(grid, &b.rects).to_bytes()).unwrap();
    let est = ha.estimate(&hb).unwrap();
    let baseline = JoinBaseline::compute(&a, &b);
    assert!(est.selectivity > 0.0);
    assert!(sj_core::error_pct(est.selectivity, baseline.selectivity) < 100.0);
}

#[test]
fn fig6_rows_serialize_to_json() {
    let rows = fig6_rows(&ctx());
    assert_eq!(rows.len(), 27);
    let json = serde_json::to_string(&rows).unwrap();
    let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
    assert_eq!(parsed.as_array().unwrap().len(), 27);
    let first = &parsed[0];
    for key in [
        "join",
        "technique",
        "combo",
        "estimated",
        "actual",
        "error_pct",
        "est_time_1_pct",
    ] {
        assert!(first.get(key).is_some(), "missing key {key}");
    }
}

#[test]
fn fig7_rows_serialize_to_json() {
    let rows = fig7_rows(&ctx(), 0..=4);
    assert_eq!(rows.len(), 10);
    let json = serde_json::to_string(&rows).unwrap();
    let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
    for row in parsed.as_array().unwrap() {
        assert!(row["level"].as_u64().unwrap() <= 4);
        let scheme = row["scheme"].as_str().unwrap();
        assert!(scheme == "PH" || scheme == "GH");
    }
}

#[test]
fn every_estimator_kind_produces_a_sane_report() {
    let (a, b) = presets::PaperJoin::CasCar.datasets(0.005);
    let baseline = JoinBaseline::compute(&a, &b);
    assert!(baseline.pairs > 0);
    let kinds = [
        EstimatorKind::Parametric,
        EstimatorKind::Ph { level: 0 },
        EstimatorKind::Ph { level: 5 },
        EstimatorKind::GhBasic { level: 5 },
        EstimatorKind::Gh { level: 0 },
        EstimatorKind::Gh { level: 5 },
        EstimatorKind::Sampling {
            technique: SamplingTechnique::RandomWithReplacement,
            percent_left: 10.0,
            percent_right: 10.0,
        },
        EstimatorKind::Sampling {
            technique: SamplingTechnique::Sorted,
            percent_left: 5.0,
            percent_right: 5.0,
        },
    ];
    for kind in kinds {
        let r = kind.run(&a, &b);
        assert!(r.estimate.selectivity >= 0.0 && r.estimate.selectivity <= 1.0);
        assert!(r.estimate.pairs >= 0.0);
        assert_eq!(r.estimator, kind.label());
        // No estimator should be catastrophically wrong on this join at
        // moderate settings (within 10× of truth).
        if matches!(
            kind,
            EstimatorKind::Gh { level: 5 } | EstimatorKind::Ph { level: 5 }
        ) {
            let err = sj_core::error_pct(r.estimate.selectivity, baseline.selectivity);
            assert!(err < 900.0, "{}: error {err:.0}%", r.estimator);
        }
    }
}

#[test]
fn estimates_are_stable_across_runs() {
    // Determinism: the same estimator on the same data gives bit-identical
    // estimates (sampling included — seeds are fixed).
    let (a, b) = presets::PaperJoin::SpSpg.datasets(0.01);
    for kind in [
        EstimatorKind::Gh { level: 4 },
        EstimatorKind::Ph { level: 4 },
        EstimatorKind::Sampling {
            technique: SamplingTechnique::RandomWithReplacement,
            percent_left: 10.0,
            percent_right: 10.0,
        },
    ] {
        let r1 = kind.run(&a, &b);
        let r2 = kind.run(&a, &b);
        assert_eq!(
            r1.estimate.selectivity, r2.estimate.selectivity,
            "{} not deterministic",
            r1.estimator
        );
    }
}

#[test]
fn dataset_csv_roundtrip_preserves_estimates() {
    let (a, _) = presets::PaperJoin::ScrcSura.datasets(0.005);
    let mut buf = Vec::new();
    a.write_csv(&mut buf).unwrap();
    let a2 = sj_core::Dataset::read_csv("SCRC", &buf[..]).unwrap();
    assert_eq!(a.rects, a2.rects);
}
