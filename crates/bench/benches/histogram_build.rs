//! Histogram-file construction cost: the paper's *Building Time* metric
//! in absolute terms, per scheme and level.

#![expect(
    missing_docs,
    clippy::expect_used,
    reason = "benchmark harness: `criterion_group!` generates an undocumented `pub fn`, and a failed setup step aborts the run"
)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sj_core::{presets, Extent, GhBasicHistogram, GhHistogram, Grid, PhHistogram};
use std::hint::black_box;

fn bench_build(c: &mut Criterion) {
    let ts = presets::ts(0.05);
    let extent = Extent::unit();

    let mut g = c.benchmark_group("histogram_build_ts_5pct");
    g.sample_size(10);
    for level in [3u32, 6, 9] {
        let grid = Grid::new(level, extent).expect("level in range");
        g.bench_with_input(BenchmarkId::new("gh_revised", level), &grid, |b, grid| {
            b.iter(|| black_box(GhHistogram::build(*grid, &ts.rects)));
        });
        g.bench_with_input(BenchmarkId::new("gh_basic", level), &grid, |b, grid| {
            b.iter(|| black_box(GhBasicHistogram::build(*grid, &ts.rects)));
        });
        g.bench_with_input(BenchmarkId::new("ph", level), &grid, |b, grid| {
            b.iter(|| black_box(PhHistogram::build(*grid, &ts.rects)));
        });
    }
    g.finish();
}

fn bench_serialization(c: &mut Criterion) {
    let ts = presets::ts(0.05);
    let grid = Grid::new(7, Extent::unit()).expect("level in range");
    let gh = GhHistogram::build(grid, &ts.rects);
    let bytes = gh.to_bytes();

    let mut g = c.benchmark_group("histogram_file_io");
    g.bench_function("gh_to_bytes_level7", |b| {
        b.iter(|| black_box(gh.to_bytes()));
    });
    g.bench_function("gh_from_bytes_level7", |b| {
        b.iter(|| black_box(GhHistogram::from_bytes(&bytes).expect("valid")));
    });
    g.finish();
}

criterion_group!(benches, bench_build, bench_serialization);
criterion_main!(benches);
