//! Cost of sampling-based estimation end-to-end (draw + index + join),
//! per technique and sample size — the numerator of the paper's Est. Time
//! metrics in Figure 6.

#![expect(
    missing_docs,
    reason = "benchmark harness: `criterion_group!` generates an undocumented `pub fn`"
)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sj_core::{presets, Extent, JoinBackend, SamplingEstimator, SamplingTechnique};
use std::hint::black_box;

fn bench_sampling(c: &mut Criterion) {
    let (a, b) = presets::PaperJoin::ScrcSura.datasets(0.1);
    let extent = Extent::unit();

    let mut g = c.benchmark_group("sampling_estimate_scrc_sura_10pct");
    g.sample_size(10);
    for percent in [1.0f64, 10.0] {
        for technique in [
            SamplingTechnique::RandomWithReplacement,
            SamplingTechnique::Regular,
            SamplingTechnique::Sorted,
        ] {
            let id = format!("{}_{percent}pct", technique.name());
            g.bench_with_input(
                BenchmarkId::new(id, percent as u32),
                &percent,
                |bench, &p| {
                    let est = SamplingEstimator::new(technique, p, p);
                    bench.iter(|| black_box(est.estimate(&a.rects, &b.rects, &extent)));
                },
            );
        }
    }
    // Backend comparison at a fixed size: R-tree join vs plane sweep on
    // the samples (the paper argues for the R-tree join).
    for backend in [JoinBackend::RTree, JoinBackend::PlaneSweep] {
        let label = format!("backend_{backend:?}_10pct");
        g.bench_function(&label, |bench| {
            let est = SamplingEstimator {
                backend,
                ..SamplingEstimator::new(SamplingTechnique::Regular, 10.0, 10.0)
            };
            bench.iter(|| black_box(est.estimate(&a.rects, &b.rects, &extent)));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_sampling);
criterion_main!(benches);
