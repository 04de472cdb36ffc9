//! Perf baseline for the statistics daemon: writes `BENCH_5.json`
//! (every `BENCH_4.json` field preserved for comparability, plus the
//! SoA-kernel `kernels` section).
//!
//! `BENCH_<n>.json` naming rule (see [`sj_bench::BENCH5_SECTIONS`]):
//! each PR that adds a section bumps `<n>` and carries every prior
//! section forward unchanged. `BENCH_3.json` is the one on-disk gap —
//! the lock-rank PR renamed that report to `BENCH_4.json` rather than
//! leaving both files; the schema lineage skips nothing.
//!
//! Records, on a fixed seeded workload (SCRC ⋈ SURA at a fixed scale
//! and grid level):
//!
//! - **statistics build time** — wall time to build each dataset's GH
//!   histogram, the work a cold CLI run repeats on every invocation and
//!   a warm server pays exactly once;
//! - **cold-CLI estimate latency** — p50/p99 of full end-to-end
//!   `sjsel catalog-estimate` runs (CSV parse + histogram build +
//!   estimate) driven in-process through `sj_cli::run`;
//! - **warm-server estimate latency** — p50/p99 of `estimate` requests
//!   over a persistent [`sj_server::Client`] connection against a live
//!   daemon that loaded the catalog once;
//! - **batch amortization** — per-item latency of one `batch-estimate`
//!   frame versus the same pairs as sequential single requests;
//! - **merge throughput** — rectangles/sec and merges/sec of the
//!   sharded histogram build (`build_histogram_sharded`), the merge
//!   path `sj-lint verify-equivalence` proves bit-identical;
//! - **delta maintenance** — per-operation cost of the incremental
//!   path (`HistogramDelta::build` + `apply_delta`, the path `sj-lint
//!   verify-equivalence` proves rebuild-equivalent) versus a full histogram
//!   rebuild over the mutated dataset, at several dataset scales with
//!   a fixed small mutation batch;
//! - **mutation-path overhead** — warm per-op `insert-batch` /
//!   `delete-batch` latency through the hardened path (client-stamped
//!   mutation IDs, the retrying client, server deadlines and a
//!   connection ceiling — DESIGN.md §14) versus the unstamped,
//!   no-deadline baseline, measured in interleaved rounds against two
//!   live daemons so clock drift cancels;
//! - **sync-layer overhead** — per-op lock/unlock cost of the ranked
//!   `sj_core::sync::OrderedMutex` (DESIGN.md §15) versus a raw
//!   `std::sync::Mutex`, min-of-trials so scheduler noise cannot
//!   inflate either side;
//! - **kernel speedups** — p50/p99 estimate latency of the SoA kernel
//!   path (`sj_histogram::kernel`, DESIGN.md §16) with the views built
//!   once and reused, versus the retained scalar reference loops
//!   (`estimate_scalar`), per histogram family and dataset scale, plus
//!   build throughput through the `BinGrid`-hoisted binning kernels;
//!   every timed kernel estimate is asserted bit-identical to its
//!   scalar twin before either side is clocked.
//!
//! Five acceptance gates asserted by CI: warm-server p50 must sit at
//! least 5× below cold-CLI p50 (`meets_5x_floor`) — residency is the
//! entire point of the daemon; delta-apply throughput must be at
//! least 10× full-rebuild throughput at the largest benchmarked scale
//! (`delta.meets_10x_floor`) — constant-in-|D| maintenance is the
//! entire point of the incremental path; the hardened mutation
//! path must cost at most 5% over the baseline
//! (`mutation_path.meets_5pct_ceiling`) — durability and exactly-once
//! semantics must not tax the common case; and in release builds the
//! ranked wrapper must cost at most 2% over the raw lock
//! (`sync_layer.meets_2pct_ceiling`, with a small absolute-ns guard
//! against timer granularity) — the debug-only rank discipline must
//! compile away where performance counts; and the kernel estimate path
//! must run at least 1.5× faster than the scalar loop at the largest
//! benchmarked scale (`kernels.meets_1_5x_floor`) — the SoA layer must
//! pay for its existence where occupancy is densest.
//!
//! ```sh
//! cargo run --release -p sj-bench --bin latency_server -- --out BENCH_5.json
//! ```

#![expect(
    clippy::disallowed_methods,
    clippy::expect_used,
    clippy::panic,
    reason = "benchmark harness: wall-clock timing is what it measures, and a failed setup step aborts the run"
)]

use sj_datagen::presets;
use sj_geo::{Extent, Rect};
use sj_histogram::{build_histogram, build_histogram_sharded, Grid, HistogramDelta, HistogramKind};
use sj_server::{wire, Client, Frame, Opcode};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Fixed workload parameters: everything that shapes the numbers is
/// pinned here so two runs of the bench measure the same work.
const SCALE: f64 = 0.02;
const LEVEL: u32 = 6;
const COLD_ITERS: usize = 20;
const WARM_ITERS: usize = 2000;
const WARM_WARMUP: usize = 100;
const BATCH_SIZE: usize = 64;
const MERGE_SHARDS: usize = 8;
const MERGE_ROUNDS: usize = 5;
/// Dataset scales for the delta-maintenance section, smallest to
/// largest; the 10× floor is asserted at the last (largest) scale,
/// where a full rebuild is most expensive and the fixed-size batch
/// cheapest in proportion.
const DELTA_SCALES: [f64; 3] = [0.01, 0.05, 0.2];
const DELTA_INSERTS: usize = 64;
const DELTA_DELETES: usize = 32;
const DELTA_ROUNDS: usize = 15;
/// Mutation-path overhead section: batch size per operation, measured
/// insert+delete pairs per interleaved round, rounds, and warmup pairs
/// per path before any sample is kept.
const MUT_BATCH: usize = 32;
const MUT_PAIRS_PER_ROUND: usize = 5;
const MUT_ROUNDS: usize = 40;
const MUT_WARMUP_PAIRS: usize = 20;
/// Sync-layer microbench: uncontended lock/unlock pairs per trial and
/// trial count (the best trial wins — the floor is the honest signal
/// for an uncontended fast path; means smear in scheduler noise).
const SYNC_OPS: usize = 1_000_000;
const SYNC_TRIALS: usize = 7;
/// Absolute-ns guard on the 2% gate: at single-digit-ns per op, a 2%
/// relative window is below timer granularity, so a difference this
/// small passes regardless of the ratio.
const SYNC_NOISE_NS: f64 = 2.0;
/// Kernel-vs-scalar microbench (DESIGN.md §16): dataset scales smallest
/// to largest — the ≥1.5× floor is asserted at the last scale, where
/// occupancy is densest and the bitmap skip helps least, making it the
/// honest worst case for the kernel — plus calls per timed sample
/// (short estimates are batched so timer granularity cannot dominate),
/// samples per side, warmup calls, and build-throughput rounds.
const KERNEL_SCALES: [f64; 2] = [0.005, 0.02];
const KERNEL_REPS: usize = 8;
const KERNEL_SAMPLES: usize = 200;
const KERNEL_WARMUP: usize = 32;
const KERNEL_BUILD_ROUNDS: usize = 3;
const KERNEL_FLOOR: f64 = 1.5;

#[derive(serde::Serialize)]
struct LatencyStats {
    iters: usize,
    p50_us: f64,
    p99_us: f64,
    mean_us: f64,
}

impl LatencyStats {
    fn from_samples(mut us: Vec<f64>) -> Self {
        us.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let iters = us.len();
        let pick = |q: f64| {
            let idx = ((iters as f64 * q) as usize).min(iters.saturating_sub(1));
            us.get(idx).copied().unwrap_or(f64::NAN)
        };
        let mean = us.iter().sum::<f64>() / iters.max(1) as f64;
        LatencyStats {
            iters,
            p50_us: pick(0.50),
            p99_us: pick(0.99),
            mean_us: mean,
        }
    }
}

#[derive(serde::Serialize)]
struct BuildStats {
    dataset: String,
    objects: usize,
    build_ms: f64,
}

#[derive(serde::Serialize)]
struct BatchStats {
    batch_size: usize,
    batch_per_item_us: f64,
    single_per_item_us: f64,
    amortization: f64,
}

#[derive(serde::Serialize)]
struct MergeStats {
    shards: usize,
    rects: usize,
    rounds: usize,
    sharded_build_ms: f64,
    rects_per_sec: f64,
    merges_per_sec: f64,
}

#[derive(serde::Serialize)]
struct Workload {
    datasets: Vec<String>,
    scale: f64,
    level: u32,
}

/// One dataset scale of the delta-maintenance comparison: mean cost of
/// a full rebuild over the mutated dataset versus one incremental
/// operation (`HistogramDelta::build` over the batch + `apply_delta`).
#[derive(serde::Serialize)]
struct DeltaScaleStats {
    scale: f64,
    objects: usize,
    batch_inserts: usize,
    batch_deletes: usize,
    rounds: usize,
    rebuild_ms: f64,
    delta_apply_ms: f64,
    rebuild_per_sec: f64,
    delta_per_sec: f64,
    speedup: f64,
}

#[derive(serde::Serialize)]
struct DeltaStats {
    kind: String,
    level: u32,
    scales: Vec<DeltaScaleStats>,
    largest_scale_speedup: f64,
    meets_10x_floor: bool,
}

/// The hardened-vs-baseline mutation comparison (DESIGN.md §14.3):
/// per-op latency of stamped, deadline-bounded `insert-batch` /
/// `delete-batch` requests against an admission-limited daemon, versus
/// unstamped requests with no deadlines against a default daemon.
#[derive(serde::Serialize)]
struct MutationPathStats {
    batch_size: usize,
    ops_per_path: usize,
    baseline: LatencyStats,
    hardened: LatencyStats,
    overhead_ratio_p50: f64,
    meets_5pct_ceiling: bool,
}

/// The ranked-lock overhead comparison (DESIGN.md §15): per-op cost of
/// an uncontended `OrderedMutex` lock/unlock versus a raw
/// `std::sync::Mutex`. In release builds the wrapper is a type alias
/// over the std lock and must measure free; debug builds carry the
/// rank discipline and report honestly without gating.
#[derive(serde::Serialize)]
struct SyncLayerStats {
    ops: usize,
    trials: usize,
    raw_ns_per_op: f64,
    ordered_ns_per_op: f64,
    overhead_ratio: f64,
    overhead_ns_per_op: f64,
    release_mode: bool,
    meets_2pct_ceiling: bool,
}

/// One family × scale cell of the kernel-vs-scalar estimate comparison
/// (DESIGN.md §16): the retained scalar reference loop versus the SoA
/// kernel path with the views built once and reused — the way a warm
/// server holds statistics resident.
#[derive(serde::Serialize)]
struct KernelEstimateStats {
    family: String,
    scale: f64,
    cells: usize,
    occupied_left: usize,
    occupied_right: usize,
    scalar: LatencyStats,
    kernel: LatencyStats,
    speedup_p50: f64,
}

/// Build throughput through the `BinGrid`-hoisted binning kernels (the
/// only build path — the hoisting itself is what the SoA layer buys the
/// build side, so this is a throughput record, not an A/B).
#[derive(serde::Serialize)]
struct KernelBuildStats {
    family: String,
    scale: f64,
    objects: usize,
    build_ms: f64,
    rects_per_sec: f64,
}

/// The `kernels` section: per-family estimate A/B and build throughput,
/// gated at the largest scale.
#[derive(serde::Serialize)]
struct KernelStats {
    level: u32,
    scales: Vec<f64>,
    reps_per_sample: usize,
    estimate: Vec<KernelEstimateStats>,
    build: Vec<KernelBuildStats>,
    floor: f64,
    gated_family: String,
    largest_scale_speedup_p50: f64,
    meets_1_5x_floor: bool,
}

/// The `BENCH_5.json` report: every `BENCH_4.json` field, unchanged,
/// plus the `kernels` section. Field order is pinned by
/// [`sj_bench::BENCH5_SECTIONS`] and asserted at run time.
#[derive(serde::Serialize)]
struct Bench5 {
    bench: String,
    workload: Workload,
    statistics_build: Vec<BuildStats>,
    cold_cli: LatencyStats,
    warm_server: LatencyStats,
    batch: BatchStats,
    merge: MergeStats,
    speedup_p50: f64,
    meets_5x_floor: bool,
    delta: DeltaStats,
    mutation_path: MutationPathStats,
    sync_layer: SyncLayerStats,
    kernels: KernelStats,
}

/// Measures the sync-layer overhead. Both sides run the identical
/// loop shape — acquire, mutate the protected counter, release — and
/// trials interleave raw/ordered so thermal drift cancels. The best
/// (minimum) per-op time of each side is compared.
fn sync_layer() -> SyncLayerStats {
    use sj_core::sync::{LockRank, OrderedMutex};
    #[expect(
        clippy::disallowed_types,
        reason = "the raw std lock IS the benchmark's comparison baseline; ranking it would measure the wrapper against itself"
    )]
    let raw = std::sync::Mutex::new(0u64);
    let ordered = OrderedMutex::new(LockRank::Catalog, "bench.sync_layer", 0u64);
    let mut raw_best_ns = f64::INFINITY;
    let mut ordered_best_ns = f64::INFINITY;
    for _ in 0..SYNC_TRIALS {
        let t = Instant::now();
        for i in 0..SYNC_OPS {
            *raw.lock().expect("bench mutex") += i as u64 & 1;
        }
        raw_best_ns = raw_best_ns.min(t.elapsed().as_secs_f64() * 1e9 / SYNC_OPS as f64);
        let t = Instant::now();
        for i in 0..SYNC_OPS {
            *ordered.lock() += i as u64 & 1;
        }
        ordered_best_ns = ordered_best_ns.min(t.elapsed().as_secs_f64() * 1e9 / SYNC_OPS as f64);
    }
    // Keep the counters observable so the loops cannot be elided.
    let raw_total = *std::hint::black_box(&raw).lock().expect("bench mutex");
    let ordered_total = *std::hint::black_box(&ordered).lock();
    assert_eq!(raw_total, ordered_total, "both sides did the same work");
    let overhead_ratio = ordered_best_ns / raw_best_ns;
    let overhead_ns_per_op = ordered_best_ns - raw_best_ns;
    let release_mode = !cfg!(debug_assertions);
    SyncLayerStats {
        ops: SYNC_OPS,
        trials: SYNC_TRIALS,
        raw_ns_per_op: raw_best_ns,
        ordered_ns_per_op: ordered_best_ns,
        overhead_ratio,
        overhead_ns_per_op,
        release_mode,
        // The gate is a release-build contract: debug builds carry the
        // rank discipline by design and only report.
        meets_2pct_ceiling: !release_mode
            || overhead_ratio <= 1.02
            || overhead_ns_per_op <= SYNC_NOISE_NS,
    }
}

/// Times a short operation: `KERNEL_REPS` calls per sample so timer
/// granularity cannot dominate sub-microsecond kernel estimates, with a
/// warmup pass before any sample is kept.
fn time_kernel_us<F: FnMut()>(mut f: F) -> LatencyStats {
    for _ in 0..KERNEL_WARMUP {
        f();
    }
    let mut us = Vec::with_capacity(KERNEL_SAMPLES);
    for _ in 0..KERNEL_SAMPLES {
        let t = Instant::now();
        for _ in 0..KERNEL_REPS {
            f();
        }
        us.push(secs_to_us(t.elapsed()) / KERNEL_REPS as f64);
    }
    LatencyStats::from_samples(us)
}

/// Times one family's typed build over `rects`, returning the
/// throughput record for the `BinGrid`-hoisted binning path.
fn kernel_build_stats<H>(
    family: &str,
    scale: f64,
    rects: &[Rect],
    build: impl Fn() -> H,
) -> KernelBuildStats {
    let t = Instant::now();
    for _ in 0..KERNEL_BUILD_ROUNDS {
        std::hint::black_box(build());
    }
    let secs = t.elapsed().as_secs_f64() / KERNEL_BUILD_ROUNDS as f64;
    #[allow(clippy::cast_precision_loss)]
    let rects_per_sec = rects.len() as f64 / secs;
    KernelBuildStats {
        family: family.to_string(),
        scale,
        objects: rects.len(),
        build_ms: secs * 1e3,
        rects_per_sec,
    }
}

/// Measures the SoA-kernel estimate path against the retained scalar
/// reference loops (DESIGN.md §16), per histogram family and dataset
/// scale, plus build throughput. Each kernel result is asserted
/// bit-identical to its scalar twin before either side is clocked — a
/// fast wrong kernel must fail here, not report a speedup.
fn kernels(grid: Grid) -> KernelStats {
    use sj_histogram::kernel::{GhBasicView, GhView, PhView};
    use sj_histogram::{GhBasicHistogram, GhHistogram, PhHistogram};
    let mut estimate = Vec::new();
    let mut build = Vec::new();
    for &scale in &KERNEL_SCALES {
        let a = presets::scrc(scale).rects;
        let b = presets::sura(scale).rects;

        let (h1, h2) = (PhHistogram::build(grid, &a), PhHistogram::build(grid, &b));
        let (v1, v2) = (PhView::new(&h1), PhView::new(&h2));
        let scalar_est = h1.estimate_scalar(&h2).expect("grids match");
        let kernel_est = v1.estimate(&v2).expect("grids match");
        assert_eq!(
            kernel_est.selectivity.to_bits(),
            scalar_est.selectivity.to_bits(),
            "PH kernel estimate must be bit-identical to the scalar loop"
        );
        let scalar = time_kernel_us(|| {
            std::hint::black_box(h1.estimate_scalar(&h2).expect("grids match"));
        });
        let kernel = time_kernel_us(|| {
            std::hint::black_box(v1.estimate(&v2).expect("grids match"));
        });
        estimate.push(KernelEstimateStats {
            family: "ph".to_string(),
            scale,
            cells: grid.num_cells(),
            occupied_left: v1.occupied_cells(),
            occupied_right: v2.occupied_cells(),
            speedup_p50: scalar.p50_us / kernel.p50_us,
            scalar,
            kernel,
        });
        build.push(kernel_build_stats("ph", scale, &a, || {
            PhHistogram::build(grid, &a)
        }));

        let (g1, g2) = (GhHistogram::build(grid, &a), GhHistogram::build(grid, &b));
        let (w1, w2) = (GhView::new(&g1), GhView::new(&g2));
        let scalar_est = g1.estimate_scalar(&g2).expect("grids match");
        let kernel_est = w1.estimate(&w2).expect("grids match");
        assert_eq!(
            kernel_est.selectivity.to_bits(),
            scalar_est.selectivity.to_bits(),
            "GH kernel estimate must be bit-identical to the scalar loop"
        );
        let scalar = time_kernel_us(|| {
            std::hint::black_box(g1.estimate_scalar(&g2).expect("grids match"));
        });
        let kernel = time_kernel_us(|| {
            std::hint::black_box(w1.estimate(&w2).expect("grids match"));
        });
        estimate.push(KernelEstimateStats {
            family: "gh".to_string(),
            scale,
            cells: grid.num_cells(),
            occupied_left: w1.occupied_cells(),
            occupied_right: w2.occupied_cells(),
            speedup_p50: scalar.p50_us / kernel.p50_us,
            scalar,
            kernel,
        });
        build.push(kernel_build_stats("gh", scale, &a, || {
            GhHistogram::build(grid, &a)
        }));

        let (k1, k2) = (
            GhBasicHistogram::build(grid, &a),
            GhBasicHistogram::build(grid, &b),
        );
        let (u1, u2) = (GhBasicView::new(&k1), GhBasicView::new(&k2));
        let scalar_est = k1.estimate_scalar(&k2).expect("grids match");
        let kernel_est = u1.estimate(&u2).expect("grids match");
        assert_eq!(
            kernel_est.selectivity.to_bits(),
            scalar_est.selectivity.to_bits(),
            "basic-GH kernel estimate must be bit-identical to the scalar loop"
        );
        let scalar = time_kernel_us(|| {
            std::hint::black_box(k1.estimate_scalar(&k2).expect("grids match"));
        });
        let kernel = time_kernel_us(|| {
            std::hint::black_box(u1.estimate(&u2).expect("grids match"));
        });
        estimate.push(KernelEstimateStats {
            family: "gh_basic".to_string(),
            scale,
            cells: grid.num_cells(),
            occupied_left: u1.occupied_cells(),
            occupied_right: u2.occupied_cells(),
            speedup_p50: scalar.p50_us / kernel.p50_us,
            scalar,
            kernel,
        });
        build.push(kernel_build_stats("gh_basic", scale, &a, || {
            GhBasicHistogram::build(grid, &a)
        }));
    }
    // The gate reads the revised GH family — the paper's headline
    // estimator and the production estimate path — at the last
    // (largest, densest) scale.
    let gated_family = "gh";
    let largest_scale = KERNEL_SCALES[KERNEL_SCALES.len() - 1];
    let largest_scale_speedup_p50 = estimate
        .iter()
        .find(|e| e.family == gated_family && e.scale == largest_scale)
        .map_or(0.0, |e| e.speedup_p50);
    KernelStats {
        level: grid.level(),
        scales: KERNEL_SCALES.to_vec(),
        reps_per_sample: KERNEL_REPS,
        estimate,
        build,
        floor: KERNEL_FLOOR,
        gated_family: gated_family.to_string(),
        largest_scale_speedup_p50,
        meets_1_5x_floor: largest_scale_speedup_p50 >= KERNEL_FLOOR,
    }
}

/// Measures one scale of the delta-maintenance comparison. The timed
/// incremental operation is the whole maintenance path a WAL replay or
/// tier append pays — build the signed delta from the batch, then
/// apply it — alternating a forward and an inverse batch so the
/// histogram under maintenance returns to its base state every other
/// operation (no untimed clone in the loop).
fn delta_scale(grid: Grid, scale: f64) -> DeltaScaleStats {
    let base = presets::scrc(scale).rects;
    let donor = presets::sura(scale).rects;
    let inserts: Vec<Rect> = donor.iter().copied().take(DELTA_INSERTS).collect();
    let deletes: Vec<Rect> = base.iter().copied().take(DELTA_DELETES).collect();
    let target: Vec<Rect> = base
        .iter()
        .skip(DELTA_DELETES)
        .chain(&inserts)
        .copied()
        .collect();

    // Full rebuild over the mutated dataset, DELTA_ROUNDS times.
    let t = Instant::now();
    for _ in 0..DELTA_ROUNDS {
        let h = build_histogram(HistogramKind::Gh, grid, &target);
        assert_eq!(h.dataset_len(), target.len());
    }
    let rebuild_secs = t.elapsed().as_secs_f64() / DELTA_ROUNDS as f64;

    // Incremental maintenance: forward batch, then its inverse, each a
    // full build-delta-and-apply operation (2 ops per round).
    let mut maintained = build_histogram(HistogramKind::Gh, grid, &base);
    let before = maintained.persist();
    let ops = 2 * DELTA_ROUNDS;
    let t = Instant::now();
    for _ in 0..DELTA_ROUNDS {
        let forward = HistogramDelta::build(HistogramKind::Gh, grid, &inserts, &deletes);
        maintained.apply_delta(&forward).expect("forward applies");
        let inverse = HistogramDelta::build(HistogramKind::Gh, grid, &deletes, &inserts);
        maintained.apply_delta(&inverse).expect("inverse applies");
    }
    let delta_secs = t.elapsed().as_secs_f64() / ops as f64;
    assert_eq!(
        maintained.persist(),
        before,
        "forward/inverse maintenance must return to the base state"
    );

    DeltaScaleStats {
        scale,
        objects: base.len(),
        batch_inserts: inserts.len(),
        batch_deletes: deletes.len(),
        rounds: DELTA_ROUNDS,
        rebuild_ms: rebuild_secs * 1e3,
        delta_apply_ms: delta_secs * 1e3,
        rebuild_per_sec: 1.0 / rebuild_secs,
        delta_per_sec: 1.0 / delta_secs,
        speedup: rebuild_secs / delta_secs,
    }
}

fn secs_to_us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The mutation batch both paths insert and then delete: fresh
/// rectangles in a band the seeded datasets leave sparse, so each
/// forward+inverse pair returns the daemon to its base state.
fn mutation_batch() -> Vec<Rect> {
    (0..MUT_BATCH)
        .map(|j| {
            let x = (j as f64 * 0.0171) % 0.9 + 0.01;
            Rect::new(x, 0.93, x + 0.012, 0.96)
        })
        .collect()
}

/// One timed round-trip of the **baseline** mutation path: a hand-built
/// wire-v3 frame with the unstamped `(0, 0)` mutation ID — exactly the
/// bytes the pre-hardening client sent — over a plain socket with no
/// deadlines, against a daemon with no admission limits. Encoding sits
/// inside the timed region to mirror what the real client pays.
fn baseline_mutation_us(stream: &mut TcpStream, op: Opcode, table: &str, rects: &[Rect]) -> f64 {
    let t = Instant::now();
    let mut p = Vec::new();
    wire::put_str(&mut p, table);
    wire::put_u64(&mut p, 0); // unstamped token
    wire::put_u64(&mut p, 0); // unstamped seq
    wire::put_u32(
        &mut p,
        u32::try_from(rects.len()).expect("batch fits in u32"),
    );
    for r in rects {
        wire::put_f64(&mut p, r.xlo);
        wire::put_f64(&mut p, r.ylo);
        wire::put_f64(&mut p, r.xhi);
        wire::put_f64(&mut p, r.yhi);
    }
    Frame::request(op, p)
        .write_to(stream)
        .expect("write request");
    let reply = Frame::read_from(stream).expect("read reply");
    assert_eq!(
        reply.opcode,
        op.response(),
        "baseline mutation must answer with its success opcode"
    );
    secs_to_us(t.elapsed())
}

/// One timed round-trip of the **hardened** mutation path: the real
/// client stamps a fresh mutation ID, wraps the call in the retry loop,
/// and both sides run under I/O deadlines.
fn hardened_mutation_us(client: &mut Client, insert: bool, table: &str, rects: &[Rect]) -> f64 {
    let t = Instant::now();
    let reply = if insert {
        client.insert_batch_with_retry(table, rects)
    } else {
        client.delete_batch_with_retry(table, rects)
    }
    .expect("hardened mutation must succeed");
    assert!(!reply.deduplicated, "fresh stamps never dedup");
    secs_to_us(t.elapsed())
}

fn argv(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| (*s).to_string()).collect()
}

fn cli(parts: &[&str]) -> sj_cli::CliOutput {
    match sj_cli::run(&argv(parts)) {
        Ok(out) => out,
        Err(e) => panic!("cli {parts:?} failed: {e:?}"),
    }
}

/// Scratch directory for the seeded CSVs and the daemon ready-file.
fn scratch() -> PathBuf {
    let dir = std::env::temp_dir().join("sjsel_bench_latency");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Boots the daemon over the CSVs on an OS-assigned port, returning the
/// address and its join handle.
fn boot(
    a_csv: &str,
    b_csv: &str,
) -> (
    String,
    std::thread::JoinHandle<Result<sj_cli::CliOutput, sj_cli::CliError>>,
) {
    boot_with(a_csv, b_csv, &[], "ready.txt")
}

/// [`boot`] with extra `serve` flags and a caller-chosen ready-file
/// name, so two daemons (baseline and hardened) can run side by side.
fn boot_with(
    a_csv: &str,
    b_csv: &str,
    extra: &[&str],
    ready_name: &str,
) -> (
    String,
    std::thread::JoinHandle<Result<sj_cli::CliOutput, sj_cli::CliError>>,
) {
    let ready = scratch().join(ready_name);
    drop(std::fs::remove_file(&ready));
    let level = LEVEL.to_string();
    let ready_path = ready.to_string_lossy().into_owned();
    let mut parts = vec![
        "serve",
        a_csv,
        b_csv,
        "--level",
        &level,
        "--addr",
        "127.0.0.1:0",
        "--ready-file",
        &ready_path,
    ];
    parts.extend_from_slice(extra);
    let args = argv(&parts);
    let daemon = std::thread::spawn(move || sj_cli::run(&args));
    let mut tries = 0;
    let addr = loop {
        match std::fs::read_to_string(&ready) {
            Ok(s) if s.ends_with('\n') => break s.trim().to_string(),
            _ if tries > 1000 => panic!("server never became ready"),
            _ => {
                tries += 1;
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    };
    (addr, daemon)
}

fn main() {
    let mut out_path = "BENCH_5.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            other => panic!("unknown argument {other:?} (only --out is accepted)"),
        }
    }

    let dir = scratch();
    let a_csv = dir.join("bench_a.csv").to_string_lossy().into_owned();
    let b_csv = dir.join("bench_b.csv").to_string_lossy().into_owned();
    let scale = SCALE.to_string();
    let level = LEVEL.to_string();
    cli(&["generate", "scrc", "--scale", &scale, "--out", &a_csv]);
    cli(&["generate", "sura", "--scale", &scale, "--out", &b_csv]);

    // --- statistics build time -------------------------------------
    let grid = Grid::new(LEVEL, Extent::unit()).expect("level within bounds");
    let a = presets::scrc(SCALE);
    let b = presets::sura(SCALE);
    let mut statistics_build = Vec::new();
    for ds in [&a, &b] {
        let t = Instant::now();
        let h = build_histogram(HistogramKind::Gh, grid, &ds.rects);
        let build_ms = t.elapsed().as_secs_f64() * 1e3;
        assert_eq!(h.dataset_len(), ds.rects.len());
        statistics_build.push(BuildStats {
            dataset: ds.name.clone(),
            objects: ds.rects.len(),
            build_ms,
        });
        println!(
            "build {:>6}: {} objects in {:.1} ms",
            ds.name,
            ds.rects.len(),
            build_ms
        );
    }

    // --- cold CLI: full end-to-end runs ----------------------------
    let mut cold_us = Vec::with_capacity(COLD_ITERS);
    for _ in 0..COLD_ITERS {
        let t = Instant::now();
        let out = cli(&["catalog-estimate", &a_csv, &b_csv, "--level", &level]);
        cold_us.push(secs_to_us(t.elapsed()));
        assert!(out.stdout.contains("selectivity"), "{}", out.stdout);
    }
    let cold_cli = LatencyStats::from_samples(cold_us);
    println!(
        "cold  cli: p50 {:.0} us  p99 {:.0} us  ({} iters)",
        cold_cli.p50_us, cold_cli.p99_us, cold_cli.iters
    );

    // --- warm server: persistent connection ------------------------
    let (addr, daemon) = boot(&a_csv, &b_csv);
    let mut client = Client::connect(addr.as_str()).expect("connect");
    for _ in 0..WARM_WARMUP {
        client.estimate("bench_a", "bench_b").expect("warmup");
    }
    let mut warm_us = Vec::with_capacity(WARM_ITERS);
    for _ in 0..WARM_ITERS {
        let t = Instant::now();
        let r = client.estimate("bench_a", "bench_b").expect("estimate");
        warm_us.push(secs_to_us(t.elapsed()));
        assert!(r.selectivity.is_finite());
    }
    let warm_server = LatencyStats::from_samples(warm_us);
    println!(
        "warm  srv: p50 {:.0} us  p99 {:.0} us  ({} iters)",
        warm_server.p50_us, warm_server.p99_us, warm_server.iters
    );

    // --- batch amortization: one frame for N estimates --------------
    let pairs: Vec<(String, String)> = (0..BATCH_SIZE)
        .map(|_| ("bench_a".to_string(), "bench_b".to_string()))
        .collect();
    let t = Instant::now();
    let replies = client.batch_estimate(&pairs).expect("batch");
    let batch_per_item_us = secs_to_us(t.elapsed()) / BATCH_SIZE as f64;
    assert!(replies.iter().all(Result::is_ok));
    let t = Instant::now();
    for _ in 0..BATCH_SIZE {
        client.estimate("bench_a", "bench_b").expect("single");
    }
    let single_per_item_us = secs_to_us(t.elapsed()) / BATCH_SIZE as f64;
    let batch = BatchStats {
        batch_size: BATCH_SIZE,
        batch_per_item_us,
        single_per_item_us,
        amortization: single_per_item_us / batch_per_item_us,
    };
    println!(
        "batch    : {:.1} us/item batched vs {:.1} us/item single ({:.1}x)",
        batch.batch_per_item_us, batch.single_per_item_us, batch.amortization
    );

    // --- mutation-path overhead: hardened vs baseline ----------------
    // A second daemon runs with the full hardening switched on; the
    // first (default-config) daemon doubles as the baseline target.
    // Rounds interleave the two paths so clock drift and cache state
    // cancel instead of biasing one side.
    let (hard_addr, hard_daemon) = boot_with(
        &a_csv,
        &b_csv,
        &["--max-connections", "64", "--io-timeout-ms", "5000"],
        "ready_hardened.txt",
    );
    let mut hardened_client = Client::connect(hard_addr.as_str()).expect("connect hardened");
    hardened_client
        .set_io_timeout(Some(Duration::from_millis(5000)))
        .expect("client deadline");
    let mut baseline_stream = TcpStream::connect(addr.as_str()).expect("connect baseline");
    let rects = mutation_batch();
    for _ in 0..MUT_WARMUP_PAIRS {
        baseline_mutation_us(&mut baseline_stream, Opcode::InsertBatch, "bench_a", &rects);
        baseline_mutation_us(&mut baseline_stream, Opcode::DeleteBatch, "bench_a", &rects);
        hardened_mutation_us(&mut hardened_client, true, "bench_a", &rects);
        hardened_mutation_us(&mut hardened_client, false, "bench_a", &rects);
    }
    let ops_per_path = MUT_ROUNDS * MUT_PAIRS_PER_ROUND * 2;
    let mut base_us = Vec::with_capacity(ops_per_path);
    let mut hard_us = Vec::with_capacity(ops_per_path);
    for _ in 0..MUT_ROUNDS {
        for _ in 0..MUT_PAIRS_PER_ROUND {
            base_us.push(baseline_mutation_us(
                &mut baseline_stream,
                Opcode::InsertBatch,
                "bench_a",
                &rects,
            ));
            base_us.push(baseline_mutation_us(
                &mut baseline_stream,
                Opcode::DeleteBatch,
                "bench_a",
                &rects,
            ));
        }
        for _ in 0..MUT_PAIRS_PER_ROUND {
            hard_us.push(hardened_mutation_us(
                &mut hardened_client,
                true,
                "bench_a",
                &rects,
            ));
            hard_us.push(hardened_mutation_us(
                &mut hardened_client,
                false,
                "bench_a",
                &rects,
            ));
        }
    }
    drop(baseline_stream);
    hardened_client
        .shutdown_server()
        .expect("shutdown hardened");
    hard_daemon
        .join()
        .expect("join hardened")
        .expect("hardened daemon exit");
    let baseline = LatencyStats::from_samples(base_us);
    let hardened = LatencyStats::from_samples(hard_us);
    let overhead_ratio_p50 = hardened.p50_us / baseline.p50_us;
    println!(
        "mutation : baseline p50 {:.1} us vs hardened p50 {:.1} us ({:.3}x)",
        baseline.p50_us, hardened.p50_us, overhead_ratio_p50
    );
    let mutation_path = MutationPathStats {
        batch_size: MUT_BATCH,
        ops_per_path,
        baseline,
        hardened,
        overhead_ratio_p50,
        meets_5pct_ceiling: overhead_ratio_p50 <= 1.05,
    };

    client.shutdown_server().expect("shutdown");
    daemon.join().expect("join").expect("daemon exit");

    // --- merge throughput: the sharded build path -------------------
    let rects = &a.rects;
    let chunk = rects.len().div_ceil(MERGE_SHARDS).max(1);
    let shards: Vec<&[sj_geo::Rect]> = rects.chunks(chunk).collect();
    let t = Instant::now();
    for _ in 0..MERGE_ROUNDS {
        let merged = build_histogram_sharded(HistogramKind::Gh, grid, &shards);
        assert_eq!(merged.dataset_len(), rects.len());
    }
    let elapsed = t.elapsed().as_secs_f64();
    let merge = MergeStats {
        shards: shards.len(),
        rects: rects.len(),
        rounds: MERGE_ROUNDS,
        sharded_build_ms: elapsed * 1e3 / MERGE_ROUNDS as f64,
        rects_per_sec: (rects.len() * MERGE_ROUNDS) as f64 / elapsed,
        merges_per_sec: (shards.len().saturating_sub(1) * MERGE_ROUNDS) as f64 / elapsed,
    };
    println!(
        "merge    : {} shards, {:.1} ms/build, {:.0} rects/s",
        merge.shards, merge.sharded_build_ms, merge.rects_per_sec
    );

    // --- delta maintenance vs full rebuild --------------------------
    let scales: Vec<DeltaScaleStats> = DELTA_SCALES
        .iter()
        .map(|&scale| {
            let s = delta_scale(grid, scale);
            println!(
                "delta    : scale {:.3} ({} objects): rebuild {:.2} ms vs \
                 delta op {:.2} ms ({:.1}x)",
                s.scale, s.objects, s.rebuild_ms, s.delta_apply_ms, s.speedup
            );
            s
        })
        .collect();
    let largest_scale_speedup = scales.last().map_or(0.0, |s| s.speedup);
    let delta = DeltaStats {
        kind: "gh".to_string(),
        level: LEVEL,
        scales,
        largest_scale_speedup,
        meets_10x_floor: largest_scale_speedup >= 10.0,
    };

    // --- sync-layer overhead: ranked wrapper vs raw std lock ---------
    let sync_stats = sync_layer();
    println!(
        "sync     : raw {:.2} ns/op vs ordered {:.2} ns/op ({:.3}x, {})",
        sync_stats.raw_ns_per_op,
        sync_stats.ordered_ns_per_op,
        sync_stats.overhead_ratio,
        if sync_stats.release_mode {
            "release"
        } else {
            "debug"
        }
    );

    // --- kernel estimate/build: SoA views vs scalar loops ------------
    let kernel_stats = kernels(grid);
    for e in &kernel_stats.estimate {
        println!(
            "kernels  : {:>8} scale {:.3}: scalar p50 {:.2} us vs kernel p50 {:.2} us ({:.2}x, {}+{} of {} cells occupied)",
            e.family,
            e.scale,
            e.scalar.p50_us,
            e.kernel.p50_us,
            e.speedup_p50,
            e.occupied_left,
            e.occupied_right,
            e.cells
        );
    }
    for bs in &kernel_stats.build {
        println!(
            "kernels  : {:>8} scale {:.3}: build {:.1} ms ({:.0} rects/s)",
            bs.family, bs.scale, bs.build_ms, bs.rects_per_sec
        );
    }

    let speedup_p50 = cold_cli.p50_us / warm_server.p50_us;
    let report = Bench5 {
        bench: "latency_server".to_string(),
        workload: Workload {
            datasets: vec![a.name.clone(), b.name.clone()],
            scale: SCALE,
            level: LEVEL,
        },
        statistics_build,
        cold_cli,
        warm_server,
        batch,
        merge,
        speedup_p50,
        meets_5x_floor: speedup_p50 >= 5.0,
        delta,
        mutation_path,
        sync_layer: sync_stats,
        kernels: kernel_stats,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize");
    // Top-level keys of the pretty JSON sit at exactly two spaces of
    // indentation; pin them against the documented section list so a
    // silent schema drift fails here and in the docs-sync test alike.
    let keys: Vec<&str> = json
        .lines()
        .filter_map(|l| l.strip_prefix("  \"")?.split_once('"').map(|(k, _)| k))
        .collect();
    assert_eq!(
        keys,
        sj_bench::BENCH5_SECTIONS,
        "BENCH_5.json top-level sections drifted from sj_bench::BENCH5_SECTIONS"
    );
    std::fs::write(&out_path, json).expect("write BENCH_5.json");
    let overhead = report.mutation_path.overhead_ratio_p50;
    let sync_overhead = report.sync_layer.overhead_ratio;
    let kernel_speedup = report.kernels.largest_scale_speedup_p50;
    println!(
        "\nspeedup p50: {speedup_p50:.1}x (floor 5x: {})\n\
         delta speedup at largest scale: {largest_scale_speedup:.1}x (floor 10x: {})\n\
         hardened mutation overhead p50: {overhead:.3}x (ceiling 1.05x: {})\n\
         sync-layer overhead: {sync_overhead:.3}x (release ceiling 1.02x: {})\n\
         kernel estimate speedup at largest scale: {kernel_speedup:.2}x (floor 1.5x: {})\n\
         wrote {out_path}",
        if report.meets_5x_floor {
            "PASS"
        } else {
            "FAIL"
        },
        if report.delta.meets_10x_floor {
            "PASS"
        } else {
            "FAIL"
        },
        if report.mutation_path.meets_5pct_ceiling {
            "PASS"
        } else {
            "FAIL"
        },
        if report.sync_layer.meets_2pct_ceiling {
            "PASS"
        } else {
            "FAIL"
        },
        if report.kernels.meets_1_5x_floor {
            "PASS"
        } else {
            "FAIL"
        }
    );
    assert!(
        report.meets_5x_floor,
        "warm-server p50 must be at least 5x below cold-CLI p50, got {speedup_p50:.2}x"
    );
    assert!(
        report.delta.meets_10x_floor,
        "delta-apply throughput must be at least 10x full-rebuild throughput \
         at the largest benchmarked scale, got {largest_scale_speedup:.2}x"
    );
    assert!(
        report.mutation_path.meets_5pct_ceiling,
        "the hardened mutation path must cost at most 5% over the \
         unstamped/no-deadline baseline, got {overhead:.3}x"
    );
    assert!(
        report.sync_layer.meets_2pct_ceiling,
        "the ranked lock wrapper must cost at most 2% over the raw std \
         lock in release builds, got {sync_overhead:.3}x"
    );
    assert!(
        report.kernels.meets_1_5x_floor,
        "the SoA kernel estimate path must run at least 1.5x faster than \
         the scalar loop at the largest benchmarked scale, got {kernel_speedup:.2}x"
    );
}
