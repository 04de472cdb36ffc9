//! The daemon's start-up in process: the four paper presets (SCRC,
//! SURA, TS, SPG; 474,578 rows at scale 1) loaded from CSV and
//! registered in a GH level-7 catalog, serially and one table per
//! worker of `sj_core::parallel_map` at the machine's available
//! parallelism, which is what `sjsel serve` does (DESIGN.md §6a).
//!
//! Reading the rows: `load/*` reads and validates the four CSV files;
//! `build/*` prepares the four tables (histogram and resident view) from
//! datasets already in memory; `load_build/*` is both per worker, then
//! the inserts in argument order, the daemon's whole table start-up.
//! `serial` against `available` is the gain of the second and later
//! cores. `--test` runs every benchmark once at scale 0.01.

#![expect(
    missing_docs,
    clippy::expect_used,
    reason = "benchmark harness: `criterion_group!` generates an undocumented `pub fn`, and a failed setup step aborts the run"
)]

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use sj_core::{parallel_map, presets, Parallelism, ValidationPolicy};
use sj_datagen::Dataset;
use sj_query::Catalog;
use std::path::{Path, PathBuf};

const LEVEL: u32 = 7;

fn load(path: &Path) -> Dataset {
    Dataset::load_csv_validated(path, ValidationPolicy::Strict, None)
        .expect("a generated preset loads")
        .0
}

fn bench_startup(c: &mut Criterion) {
    let smoke = std::env::args().any(|a| a == "--test");
    let scale = if smoke { 0.01 } else { 1.0 };
    let dir = std::env::temp_dir().join(format!("sj-startup-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("creating the bench directory");
    let datasets = [
        presets::scrc(scale),
        presets::sura(scale),
        presets::ts(scale),
        presets::spg(scale),
    ];
    let paths: Vec<PathBuf> = datasets
        .iter()
        .map(|ds| {
            let path = dir.join(format!("{}.csv", ds.name));
            ds.save_csv(&path).expect("writing a preset");
            path
        })
        .collect();

    let mut g = c.benchmark_group("startup_presets");
    g.sample_size(10);
    for (label, par) in [
        ("serial", Parallelism::serial()),
        ("available", Parallelism::available()),
    ] {
        g.bench_function(format!("load/{label}"), |b| {
            b.iter(|| parallel_map(paths.iter().collect(), par, |p| load(p).len()));
        });
        g.bench_function(format!("build/{label}"), |b| {
            let catalog = Catalog::with_level(LEVEL);
            b.iter_batched(
                || datasets.to_vec(),
                |ds| parallel_map(ds, par, |d| catalog.prepare_table(d)).len(),
                BatchSize::PerIteration,
            );
        });
        g.bench_function(format!("load_build/{label}"), |b| {
            b.iter(|| {
                let mut catalog = Catalog::with_level(LEVEL);
                let shared = &catalog;
                let prepared = parallel_map(paths.iter().collect(), par, |p| {
                    shared.prepare_table(load(p))
                });
                for table in prepared {
                    catalog.insert_prepared(table).expect("preset names differ");
                }
                catalog.table_names().len()
            });
        });
    }
    g.finish();
    println!(
        "startup_presets: {} rows, {} available thread(s)",
        datasets.iter().map(Dataset::len).sum::<usize>(),
        Parallelism::available().threads()
    );
    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(benches, bench_startup);
criterion_main!(benches);
