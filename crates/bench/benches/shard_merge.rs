//! Shard-and-merge build cost for every histogram family.
//!
//! Builds a histogram over `k` rectangle shards (each shard built
//! independently, then merged) and compares against the one-shot serial
//! build. The merged result is asserted byte-identical to the serial
//! build — the mergeable-sketch contract the `SpatialHistogram` trait
//! guarantees — so the benchmark doubles as an end-to-end check.

#![expect(
    missing_docs,
    clippy::expect_used,
    reason = "benchmark harness: `criterion_group!` generates an undocumented `pub fn`, and a failed setup step aborts the run"
)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sj_core::{build_histogram, build_histogram_sharded, presets, Extent, Grid, HistogramKind};
use sj_geo::Rect;
use std::hint::black_box;

fn bench_shard_merge(c: &mut Criterion) {
    let smoke = std::env::args().any(|a| a == "--test");
    let ts = presets::ts(if smoke { 0.01 } else { 0.05 });
    let grid = Grid::new(6, Extent::unit()).expect("level 6 grid");

    let mut g = c.benchmark_group("shard_merge_ts");
    g.sample_size(10);
    for kind in HistogramKind::ALL {
        // Correctness first: the merged build must equal the serial one.
        let serial = build_histogram(kind, grid, &ts.rects);
        for shards in [2usize, 8] {
            let pieces = chunked(&ts.rects, shards);
            let merged = build_histogram_sharded(kind, grid, &pieces);
            assert_eq!(
                merged.to_bytes(),
                serial.to_bytes(),
                "{kind}: merge of {shards} shards must be byte-identical to serial"
            );
        }

        g.bench_with_input(BenchmarkId::new("serial", kind), &kind, |b, &kind| {
            b.iter(|| black_box(build_histogram(kind, grid, &ts.rects)));
        });
        for shards in [2usize, 8] {
            g.bench_with_input(
                BenchmarkId::new(format!("{shards}_shards"), kind),
                &kind,
                |b, &kind| {
                    b.iter(|| {
                        let pieces = chunked(&ts.rects, shards);
                        black_box(build_histogram_sharded(kind, grid, &pieces))
                    });
                },
            );
        }
    }
    g.finish();
}

fn chunked(rects: &[Rect], shards: usize) -> Vec<&[Rect]> {
    let chunk = rects.len().div_ceil(shards).max(1);
    rects.chunks(chunk).collect()
}

criterion_group!(benches, bench_shard_merge);
criterion_main!(benches);
