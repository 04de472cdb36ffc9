//! The mutation path's in-process cost on a paper-scale table: the
//! prepare and commit phases of a 32-rectangle delete and insert on TS
//! (194,971 rows) in a GH level-7 catalog, and a delete's cold first
//! prepare, which builds the table's delete index (DESIGN.md §13.2).
//!
//! Reading the rows: `prepare/delete_32` is a delete's resolution
//! against the built index; `first_prepare/delete_32` minus it is the
//! index build; `commit/insert_32` minus `commit/insert_32_unindexed`
//! is the index upkeep an insert pays. `--test` runs every benchmark
//! once on TS at scale 0.01.

#![expect(
    missing_docs,
    clippy::expect_used,
    reason = "benchmark harness: `criterion_group!` generates an undocumented `pub fn`, and a failed setup step aborts the run"
)]

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use sj_core::presets;
use sj_datagen::Dataset;
use sj_geo::Rect;
use sj_query::{Catalog, MutationId, PreparedDelta, PreparedOutcome};
use std::cell::{Cell, RefCell};
use std::hint::black_box;

const BATCH: usize = 32;

fn catalog(ts: &Dataset) -> Catalog {
    let mut c = Catalog::with_level(7);
    c.register(ts.clone()).expect("registering TS");
    c
}

fn prepare(c: &Catalog, inserts: &[Rect], deletes: &[Rect]) -> PreparedDelta {
    let outcome = c
        .prepare_delta("TS", inserts, deletes, MutationId::UNSTAMPED)
        .expect("the batch resolves");
    match outcome {
        PreparedOutcome::Fresh(p) => Some(*p),
        PreparedOutcome::Duplicate(_) => None,
    }
    .expect("an unstamped batch is never a duplicate")
}

fn bench_delete_resolution(c: &mut Criterion) {
    let smoke = std::env::args().any(|a| a == "--test");
    let ts = presets::ts(if smoke { 0.01 } else { 1.0 });
    // Rows spread over the table, and new rectangles no row equals.
    let stride = (ts.rects.len() / BATCH).max(1);
    let resident: Vec<Rect> = ts
        .rects
        .iter()
        .step_by(stride)
        .take(BATCH)
        .copied()
        .collect();
    let fresh: Vec<Rect> = (0..BATCH)
        .map(|i| {
            let t = (i as f64 + 0.5) / BATCH as f64 * 0.9;
            Rect::new(t, t, t + 0.013, t + 0.017)
        })
        .collect();

    let mut g = c.benchmark_group("delete_resolution_ts");
    g.sample_size(10);
    g.bench_function("first_prepare/delete_32", |b| {
        b.iter_batched(
            || catalog(&ts),
            |cat| black_box(prepare(&cat, &[], &resident).table().len()),
            BatchSize::PerIteration,
        );
    });

    let cat = RefCell::new(catalog(&ts));
    black_box(prepare(&cat.borrow(), &[], &resident));
    g.bench_function("prepare/delete_32", |b| {
        b.iter(|| black_box(prepare(&cat.borrow(), &[], &resident).table().len()));
    });
    g.bench_function("prepare/insert_32", |b| {
        b.iter(|| black_box(prepare(&cat.borrow(), &fresh, &[]).table().len()));
    });
    // Each setup undoes the previous iteration's commit, so every
    // iteration commits against the same table: the insert bench leaves
    // the fresh rectangles in, the delete bench starts from them.
    let undo = Cell::new(false);
    g.bench_function("commit/insert_32", |b| {
        b.iter_batched(
            || {
                if undo.replace(true) {
                    cat.borrow_mut()
                        .apply_delta("TS", &[], &fresh)
                        .expect("undo");
                }
                prepare(&cat.borrow(), &fresh, &[])
            },
            |p| black_box(cat.borrow_mut().commit_prepared(p).expect("commit").inserts),
            BatchSize::PerIteration,
        );
    });
    undo.set(false);
    g.bench_function("commit/delete_32", |b| {
        b.iter_batched(
            || {
                if undo.replace(true) {
                    cat.borrow_mut()
                        .apply_delta("TS", &fresh, &[])
                        .expect("undo");
                }
                prepare(&cat.borrow(), &[], &fresh)
            },
            |p| black_box(cat.borrow_mut().commit_prepared(p).expect("commit").deletes),
            BatchSize::PerIteration,
        );
    });
    // A table no delete has reached has no index to keep.
    let unindexed = RefCell::new(catalog(&ts));
    g.bench_function("commit/insert_32_unindexed", |b| {
        b.iter_batched(
            || prepare(&unindexed.borrow(), &fresh, &[]),
            |p| {
                black_box(
                    unindexed
                        .borrow_mut()
                        .commit_prepared(p)
                        .expect("commit")
                        .inserts,
                )
            },
            BatchSize::PerIteration,
        );
    });
    g.finish();
}

criterion_group!(benches, bench_delete_resolution);
criterion_main!(benches);
