//! Microbenchmarks of the exact-join backends: the timing baseline all of
//! the paper's relative metrics stand on.

#![expect(
    missing_docs,
    reason = "benchmark harness: `criterion_group!` generates an undocumented `pub fn`"
)]

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use sj_core::{presets, RTree, RTreeConfig};
use std::hint::black_box;

fn bench_joins(c: &mut Criterion) {
    let (a, b) = presets::PaperJoin::ScrcSura.datasets(0.05);
    let ta = RTree::bulk_load_str(RTreeConfig::default(), &a.rects);
    let tb = RTree::bulk_load_str(RTreeConfig::default(), &b.rects);

    let mut g = c.benchmark_group("exact_join");
    g.sample_size(20);
    g.bench_function("rtree_join_scrc_sura_5pct", |bench| {
        bench.iter(|| black_box(sj_core::join_count(&ta, &tb)));
    });
    g.bench_function("plane_sweep_scrc_sura_5pct", |bench| {
        bench.iter(|| black_box(sj_core::sweep_join_count(&a.rects, &b.rects)));
    });
    g.finish();
}

fn bench_builds(c: &mut Criterion) {
    let (a, _) = presets::PaperJoin::TsTcb.datasets(0.05);
    let mut g = c.benchmark_group("rtree_build");
    g.sample_size(10);
    g.bench_function("str_bulk_load_ts_5pct", |bench| {
        bench.iter(|| black_box(RTree::bulk_load_str(RTreeConfig::default(), &a.rects)));
    });
    g.bench_function("hilbert_bulk_load_ts_5pct", |bench| {
        bench.iter(|| black_box(RTree::bulk_load_hilbert(RTreeConfig::default(), &a.rects)));
    });
    g.bench_function("dynamic_insert_ts_5pct", |bench| {
        bench.iter_batched(
            || a.rects.clone(),
            |rects| {
                let mut t = RTree::with_defaults();
                for (i, r) in rects.iter().enumerate() {
                    t.insert(*r, i as u64);
                }
                black_box(t)
            },
            BatchSize::LargeInput,
        );
    });
    g.finish();
}

criterion_group!(benches, bench_joins, bench_builds);
criterion_main!(benches);
