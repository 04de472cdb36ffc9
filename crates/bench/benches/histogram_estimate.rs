//! Estimation-query cost from prebuilt histogram files: the paper's
//! *Estimation Time* metric in absolute terms. This is the per-query cost
//! a query optimizer pays; the paper reports it at ~1% of the join.

#![expect(
    missing_docs,
    clippy::expect_used,
    reason = "benchmark harness: `criterion_group!` generates an undocumented `pub fn`, and a failed setup step aborts the run"
)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sj_core::{presets, Extent, GhBasicHistogram, GhHistogram, Grid, PhHistogram};
use std::hint::black_box;

fn bench_estimate(c: &mut Criterion) {
    let (a, b) = presets::PaperJoin::TsTcb.datasets(0.05);
    let extent = Extent::unit();

    let mut g = c.benchmark_group("histogram_estimate_ts_tcb_5pct");
    for level in [3u32, 6, 9] {
        let grid = Grid::new(level, extent).expect("level in range");
        let (gha, ghb) = (
            GhHistogram::build(grid, &a.rects),
            GhHistogram::build(grid, &b.rects),
        );
        let (gba, gbb) = (
            GhBasicHistogram::build(grid, &a.rects),
            GhBasicHistogram::build(grid, &b.rects),
        );
        let (pha, phb) = (
            PhHistogram::build(grid, &a.rects),
            PhHistogram::build(grid, &b.rects),
        );

        g.bench_with_input(BenchmarkId::new("gh_revised", level), &level, |bench, _| {
            bench.iter(|| black_box(gha.estimate(&ghb).expect("same grid")));
        });
        g.bench_with_input(BenchmarkId::new("gh_basic", level), &level, |bench, _| {
            bench.iter(|| black_box(gba.estimate(&gbb).expect("same grid")));
        });
        g.bench_with_input(BenchmarkId::new("ph", level), &level, |bench, _| {
            bench.iter(|| black_box(pha.estimate(&phb).expect("same grid")));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_estimate);
criterion_main!(benches);
