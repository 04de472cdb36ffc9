//! Thread-scaling benchmarks for the parallel execution layer.
//!
//! The headline measurement is the acceptance gate for the parallel
//! join: a 100k × 100k exact R-tree join (SCRC ⋈ SURA at scale 1.0)
//! must be at least 2× faster at 4 threads than at 1. The run prints
//! an explicit speedup line alongside the per-thread-count timings.

#![expect(
    missing_docs,
    clippy::disallowed_methods,
    clippy::expect_used,
    reason = "benchmark harness: `criterion_group!` generates an undocumented `pub fn`, wall-clock timing is what it measures, and a failed setup step aborts the run"
)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sj_core::{presets, RTree, RTreeConfig};
use std::hint::black_box;
use std::time::Instant;

fn bench_join_scaling(c: &mut Criterion) {
    let smoke = std::env::args().any(|a| a == "--test");
    let scale = if smoke { 0.01 } else { 1.0 };
    let (a, b) = presets::PaperJoin::ScrcSura.datasets(scale);
    let ta = RTree::bulk_load_str(RTreeConfig::default(), &a.rects);
    let tb = RTree::bulk_load_str(RTreeConfig::default(), &b.rects);

    let mut g = c.benchmark_group("join_scaling");
    g.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        g.bench_with_input(
            BenchmarkId::new("scrc_sura_100k", threads),
            &threads,
            |bench, &threads| {
                bench.iter(|| black_box(sj_core::join_count_parallel(&ta, &tb, threads)));
            },
        );
    }
    g.finish();

    // The acceptance measurement: best-of-3 at 1 thread vs 4 threads.
    let time_it = |threads: usize| {
        (0..3)
            .map(|_| {
                let t0 = Instant::now();
                black_box(sj_core::join_count_parallel(&ta, &tb, threads));
                t0.elapsed()
            })
            .min()
            .expect("three timed runs")
    };
    let serial = time_it(1);
    let four = time_it(4);
    let speedup = serial.as_secs_f64() / four.as_secs_f64().max(f64::MIN_POSITIVE);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "join_scaling/speedup: {}x at 4 threads ({serial:?} serial vs {four:?}) on \
         {}x{} rects, {cores} host cores",
        (speedup * 100.0).round() / 100.0,
        a.rects.len(),
        b.rects.len(),
    );
    // The 2x gate is only meaningful on hosts that can actually run four
    // workers, and only at full scale — soft-skip (warn) otherwise.
    if cores >= 4 && !smoke {
        assert!(
            speedup >= 2.0,
            "join_scaling/speedup: expected >= 2x at 4 threads on a {cores}-core host, got {speedup:.2}x"
        );
    } else {
        println!(
            "join_scaling/speedup: skipping the 2x acceptance gate \
             ({cores} host core(s), smoke={smoke}); measured {speedup:.2}x"
        );
    }
}

fn bench_histogram_scaling(c: &mut Criterion) {
    let smoke = std::env::args().any(|a| a == "--test");
    let scale = if smoke { 0.01 } else { 0.5 };
    let (a, _) = presets::PaperJoin::TsTcb.datasets(scale);
    let grid = sj_core::Grid::new(6, a.extent).expect("level 6 grid");

    let mut g = c.benchmark_group("histogram_scaling");
    g.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        g.bench_with_input(
            BenchmarkId::new("gh_build_ts", threads),
            &threads,
            |bench, &threads| {
                bench.iter(|| {
                    black_box(sj_core::GhHistogram::build_parallel(
                        grid, &a.rects, threads,
                    ))
                });
            },
        );
    }
    g.finish();
}

fn bench_sweep_scaling(c: &mut Criterion) {
    let smoke = std::env::args().any(|a| a == "--test");
    let scale = if smoke { 0.01 } else { 0.2 };
    let (a, b) = presets::PaperJoin::ScrcSura.datasets(scale);

    let mut g = c.benchmark_group("sweep_scaling");
    g.sample_size(10);
    for threads in [1usize, 4] {
        g.bench_with_input(
            BenchmarkId::new("plane_sweep_scrc_sura", threads),
            &threads,
            |bench, &threads| {
                bench.iter(|| {
                    black_box(sj_core::sweep_join_count_parallel(
                        &a.rects, &b.rects, threads,
                    ))
                });
            },
        );
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_join_scaling,
    bench_histogram_scaling,
    bench_sweep_scaling
);
criterion_main!(benches);
