//! Vendored stand-in for the subset of the `criterion` crate API used by
//! this workspace's benches: groups, `bench_function` /
//! `bench_with_input`, `iter` / `iter_batched`, and the two entry macros.
//!
//! Statistics are intentionally minimal — each benchmark is timed over a
//! handful of iterations and the mean is printed. Passing `--test` (as
//! `cargo test` does for `harness = false` bench targets) runs every
//! benchmark exactly once as a smoke test.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![expect(
    clippy::disallowed_methods,
    reason = "the benchmark shim measures wall-clock time by design"
)]

use std::fmt::Display;
use std::time::{Duration, Instant};

/// The benchmark driver handed to every `criterion_group!` target.
pub struct Criterion {
    smoke_test: bool,
}

impl Default for Criterion {
    fn default() -> Self {
        let smoke_test = std::env::args().any(|a| a == "--test");
        Self { smoke_test }
    }
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: 10,
            criterion: self,
        }
    }
}

/// A named set of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets how many timed samples to aim for. The stand-in caps actual
    /// samples low to keep full runs fast.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n;
        self
    }

    /// Runs one benchmark.
    pub fn bench_function<F>(&mut self, id: impl Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.run(&id.to_string(), &mut f);
        self
    }

    /// Runs one benchmark parameterized by `input`.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        I: ?Sized,
        F: FnMut(&mut Bencher, &I),
    {
        let label = id.to_string();
        self.run(&label, &mut |b: &mut Bencher| f(b, input));
        self
    }

    /// Finishes the group.
    pub fn finish(self) {}

    fn run(&mut self, label: &str, f: &mut dyn FnMut(&mut Bencher)) {
        let samples = if self.criterion.smoke_test {
            1
        } else {
            self.sample_size.clamp(1, 10)
        };
        let mut bencher = Bencher {
            iterations: 0,
            elapsed: Duration::ZERO,
            samples,
            warmup: !self.criterion.smoke_test,
        };
        f(&mut bencher);
        let mean = if bencher.iterations == 0 {
            Duration::ZERO
        } else {
            bencher.elapsed / u32::try_from(bencher.iterations).unwrap_or(u32::MAX)
        };
        println!(
            "{}/{label}: {mean:?} mean over {} iterations",
            self.name, bencher.iterations
        );
    }
}

/// How `iter_batched` amortizes setup cost; the stand-in treats all
/// variants identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One setup per iteration.
    PerIteration,
}

/// A benchmark id made of a function name and a parameter.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// Creates an id such as `name/parameter`.
    pub fn new(name: impl Display, parameter: impl Display) -> Self {
        Self {
            label: format!("{name}/{parameter}"),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label)
    }
}

/// Times closures for one benchmark.
pub struct Bencher {
    iterations: u64,
    elapsed: Duration,
    samples: usize,
    warmup: bool,
}

impl Bencher {
    /// Times `routine` over the sample budget.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut routine: F) {
        if self.warmup {
            std::hint::black_box(routine());
        }
        for _ in 0..self.samples {
            let start = Instant::now();
            std::hint::black_box(routine());
            self.elapsed += start.elapsed();
            self.iterations += 1;
        }
    }

    /// Times `routine` over fresh inputs from `setup`, excluding setup
    /// time from the measurement.
    pub fn iter_batched<I, R, S, F>(&mut self, mut setup: S, mut routine: F, _size: BatchSize)
    where
        S: FnMut() -> I,
        F: FnMut(I) -> R,
    {
        if self.warmup {
            std::hint::black_box(routine(setup()));
        }
        for _ in 0..self.samples {
            let input = setup();
            let start = Instant::now();
            std::hint::black_box(routine(input));
            self.elapsed += start.elapsed();
            self.iterations += 1;
        }
    }
}

/// Declares a group function that runs each benchmark target in order.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `main` to run the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmarks_run_and_count_iterations() {
        let mut c = Criterion { smoke_test: true };
        let mut g = c.benchmark_group("g");
        g.sample_size(50);
        let mut runs = 0u64;
        g.bench_function("f", |b| b.iter(|| runs += 1));
        let mut batched = 0u64;
        g.bench_with_input(BenchmarkId::new("with_input", 3), &4u32, |b, &x| {
            b.iter_batched(|| x, |v| batched += u64::from(v), BatchSize::LargeInput);
        });
        g.finish();
        assert_eq!(runs, 1, "smoke test mode runs exactly once, no warmup");
        assert_eq!(batched, 4);
    }

    #[test]
    fn benchmark_id_formats_as_name_slash_param() {
        assert_eq!(BenchmarkId::new("gh", 7).to_string(), "gh/7");
    }
}
