//! Quickstart: estimate a spatial join's selectivity without running it.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

#![expect(
    clippy::disallowed_methods,
    reason = "example program: prints wall-clock timings"
)]

use sj_core::{error_pct, presets, EstimatorKind, JoinBaseline};
use std::time::Instant;

fn main() {
    // The paper's synthetic workload: 100k clustered rects ⋈ 100k uniform
    // rects (scaled to 20% here so the example runs in a blink).
    let scale = 0.2;
    let (clustered, uniform) = presets::PaperJoin::ScrcSura.datasets(scale);
    println!(
        "datasets: {} ({} rects)  ⋈  {} ({} rects)",
        clustered.name,
        clustered.len(),
        uniform.name,
        uniform.len()
    );

    // Ground truth: the exact filter-step join (R-tree build + join).
    let t = Instant::now();
    let baseline = JoinBaseline::compute(&clustered, &uniform);
    let exact_elapsed = t.elapsed();
    println!(
        "exact join: {} pairs, selectivity {:.3e}  ({:.1?} incl. R-tree build)",
        baseline.pairs, baseline.selectivity, exact_elapsed
    );

    // The paper's headline estimator: the Geometric Histogram at level 7.
    let t = Instant::now();
    let report = EstimatorKind::Gh { level: 7 }.run(&clustered, &uniform);
    let est_elapsed = t.elapsed();
    println!(
        "{}: estimated {:.0} pairs, selectivity {:.3e}  ({:.1?}: build {:.1?} + estimate {:.1?})",
        report.estimator,
        report.estimate.pairs,
        report.estimate.selectivity,
        est_elapsed,
        report.build_time,
        report.estimate_time
    );

    let err = error_pct(report.estimate.selectivity, baseline.selectivity);
    println!("estimation error: {err:.2}%");

    // For contrast: the prior parametric model (uniformity assumption).
    let pm = EstimatorKind::Parametric.run(&clustered, &uniform);
    println!(
        "parametric model [Aref & Samet]: selectivity {:.3e} (error {:.2}%)",
        pm.estimate.selectivity,
        error_pct(pm.estimate.selectivity, baseline.selectivity)
    );
}
