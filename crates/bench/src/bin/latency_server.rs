//! Perf gates for the statistics daemon and its estimate kernels.
//!
//! Each gate times one A/B pair on a fixed seeded workload (SCRC ⋈
//! SURA) and checks their ratio against a bound, the way the paper
//! reports every cost relative to a baseline:
//!
//! - **residency** — A: in-process `sjsel catalog-estimate` runs (CSV
//!   parse + histogram build + estimate); B: warm `estimate` calls over
//!   a socket to a daemon that loaded the catalog once, which answers
//!   the repeated pair from its pair memo. p50 A/B ≥ 5×: residency is
//!   the entire point of the daemon.
//! - **delta** — A: a full GH rebuild over the mutated dataset; B: one
//!   incremental operation (`HistogramDelta::build` + `apply_delta`).
//!   Mean A/B ≥ 10× at the largest scale: constant-in-|D| maintenance
//!   is the entire point of the incremental path.
//! - **mutation** — A: unstamped, no-deadline `insert-batch` /
//!   `delete-batch` frames against a default daemon; B: the hardened
//!   path (client-stamped mutation IDs, the retrying client, server
//!   deadlines and a connection ceiling — DESIGN.md §14) against a
//!   second daemon, in interleaved rounds so clock drift cancels. p50
//!   B/A ≤ 1.05×: exactly-once semantics must not tax the common case.
//! - **sync** — A: a raw `std::sync::Mutex` lock/unlock; B: the ranked
//!   `sj_core::sync::OrderedMutex` (DESIGN.md §15), min-of-trials so
//!   scheduler noise cannot inflate either side. B/A ≤ 1.02× or B − A
//!   ≤ 2 ns, in release builds only: the debug-only rank discipline
//!   must compile away where performance counts.
//! - **kernel** — A: the retained scalar reference loop
//!   (`estimate_scalar`); B: the GH SoA kernel (DESIGN.md §16) with its
//!   views built once and reused, as a warm server holds them. p50 A/B
//!   ≥ 1.5× at the densest scale, where skipping empty mask words helps
//!   least.
//!
//! Before anything is timed, the GH kernel estimate is asserted
//! bit-identical to the scalar loop and one forward-then-inverse delta
//! operation is asserted to return the histogram to its base state: a
//! fast wrong path must fail here, not report a speedup.
//!
//! Prints one line per gate (A, B, ratio, bound, PASS/FAIL) and exits 1
//! after all five lines if any gate fails:
//!
//! ```sh
//! cargo run --release -p sj-bench --bin latency_server
//! ```

#![expect(
    clippy::disallowed_methods,
    clippy::expect_used,
    clippy::panic,
    reason = "benchmark harness: wall-clock timing is what it measures, and a failed setup step aborts the run"
)]

use sj_datagen::presets;
use sj_geo::{Extent, Rect};
use sj_histogram::kernel::GhView;
use sj_histogram::{
    build_histogram, GhHistogram, Grid, HistogramDelta, HistogramKind, SpatialHistogram,
};
use sj_server::{wire, Client, Frame, Opcode};
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// Fixed workload parameters: everything that shapes the numbers is
/// pinned here so two runs of the bench measure the same work.
const SCALE: f64 = 0.02;
const LEVEL: u32 = 6;
const COLD_ITERS: usize = 20;
const WARM_ITERS: usize = 2000;
const WARM_WARMUP: usize = 100;
/// Delta gate: dataset scale — large, where a full rebuild is most
/// expensive and the fixed-size batch cheapest in proportion — batch
/// size, and rounds (one forward and one inverse operation each).
const DELTA_SCALE: f64 = 0.2;
const DELTA_INSERTS: usize = 64;
const DELTA_DELETES: usize = 32;
const DELTA_ROUNDS: usize = 15;
/// Mutation gate: batch size per operation, measured insert+delete
/// pairs per interleaved round, rounds, and warmup pairs per path
/// before any sample is kept.
const MUT_BATCH: usize = 32;
const MUT_PAIRS_PER_ROUND: usize = 5;
const MUT_ROUNDS: usize = 40;
const MUT_WARMUP_PAIRS: usize = 20;
/// Sync gate: uncontended lock/unlock pairs per trial and trial count
/// (the best trial wins — the floor is the honest signal for an
/// uncontended fast path; means smear in scheduler noise).
const SYNC_OPS: usize = 1_000_000;
const SYNC_TRIALS: usize = 7;
/// Absolute-ns guard on the sync gate: at single-digit-ns per op, a 2%
/// relative window is below timer granularity, so a difference this
/// small passes regardless of the ratio.
const SYNC_NOISE_NS: f64 = 2.0;
/// Kernel gate: dataset scale — occupancy is densest here, so the
/// bitmap skip helps least and this is the honest worst case for the
/// kernel — calls per timed sample (short estimates are batched so
/// timer granularity cannot dominate), samples per side, warmup calls.
const KERNEL_SCALE: f64 = 0.02;
const KERNEL_REPS: usize = 8;
const KERNEL_SAMPLES: usize = 200;
const KERNEL_WARMUP: usize = 32;

const RESIDENCY: Bound = Bound::Speedup(5.0);
const DELTA: Bound = Bound::Speedup(10.0);
const MUTATION: Bound = Bound::Overhead(1.05);
const SYNC: Bound = Bound::Overhead(1.02);
const KERNEL: Bound = Bound::Speedup(1.5);

/// What a gate requires of its A/B pair.
#[derive(Clone, Copy)]
enum Bound {
    /// B is a fast path for A's work: A/B must be at least this.
    Speedup(f64),
    /// B is A plus a safety layer: B/A must be at most this.
    Overhead(f64),
}

impl Bound {
    fn ratio(self, a: f64, b: f64) -> f64 {
        match self {
            Bound::Speedup(_) => a / b,
            Bound::Overhead(_) => b / a,
        }
    }

    fn admits(self, ratio: f64) -> bool {
        match self {
            Bound::Speedup(floor) => ratio >= floor,
            Bound::Overhead(ceiling) => ratio <= ceiling,
        }
    }
}

impl std::fmt::Display for Bound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Bound::Speedup(floor) => write!(f, "A/B >= {floor}x"),
            Bound::Overhead(ceiling) => write!(f, "B/A <= {ceiling}x"),
        }
    }
}

/// The sync gate's check: release builds must meet [`SYNC`] or stay
/// within [`SYNC_NOISE_NS`]; debug builds carry the rank discipline by
/// design and always pass.
fn sync_admits(release: bool, ratio: f64, extra_ns: f64) -> bool {
    !release || SYNC.admits(ratio) || extra_ns <= SYNC_NOISE_NS
}

/// One measured gate and its verdict.
struct Gate {
    name: &'static str,
    unit: &'static str,
    a: f64,
    b: f64,
    ratio: f64,
    bound: String,
    pass: bool,
}

impl Gate {
    fn new(name: &'static str, unit: &'static str, bound: Bound, a: f64, b: f64) -> Self {
        let ratio = bound.ratio(a, b);
        Gate {
            name,
            unit,
            a,
            b,
            ratio,
            bound: bound.to_string(),
            pass: bound.admits(ratio),
        }
    }
}

impl std::fmt::Display for Gate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let Gate {
            name,
            unit,
            a,
            b,
            ratio,
            bound,
            pass,
        } = self;
        let verdict = if *pass { "PASS" } else { "FAIL" };
        write!(
            f,
            "{name:<9} A {a:.2} {unit}  B {b:.2} {unit}  ratio {ratio:.3}x  bound {bound}  {verdict}"
        )
    }
}

fn secs_to_us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn p50(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples.get(samples.len() / 2).copied().unwrap_or(f64::NAN)
}

/// p50 of a short operation: `KERNEL_REPS` calls per sample so timer
/// granularity cannot dominate, after a warmup pass.
fn time_kernel_us(mut f: impl FnMut()) -> f64 {
    for _ in 0..KERNEL_WARMUP {
        f();
    }
    let samples = (0..KERNEL_SAMPLES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..KERNEL_REPS {
                f();
            }
            secs_to_us(t.elapsed()) / KERNEL_REPS as f64
        })
        .collect();
    p50(samples)
}

/// Builds the kernel gate's GH histograms and views at [`KERNEL_SCALE`]
/// and asserts, untimed, that the kernel estimate is bit-identical to
/// the scalar loop. The returned run times both sides.
fn kernel_gate(grid: Grid) -> impl FnOnce() -> Gate {
    let left = GhHistogram::build(grid, &presets::scrc(KERNEL_SCALE).rects);
    let right = GhHistogram::build(grid, &presets::sura(KERNEL_SCALE).rects);
    let (left_view, right_view) = (GhView::new(&left), GhView::new(&right));
    let scalar = left.estimate_scalar(&right).expect("grids match");
    let kernel = left_view.estimate(&right_view).expect("grids match");
    assert_eq!(
        kernel.selectivity.to_bits(),
        scalar.selectivity.to_bits(),
        "GH kernel estimate must be bit-identical to the scalar loop"
    );
    move || {
        let scalar = time_kernel_us(|| {
            std::hint::black_box(left.estimate_scalar(&right).expect("grids match"));
        });
        let kernel = time_kernel_us(|| {
            std::hint::black_box(left_view.estimate(&right_view).expect("grids match"));
        });
        Gate::new("kernel", "us", KERNEL, scalar, kernel)
    }
}

/// Two full build-delta-and-apply operations — the whole path a WAL
/// replay or tier append pays — that leave `h` where they found it, so
/// the timed loop needs no untimed clone.
fn forward_and_inverse(grid: Grid, h: &mut dyn SpatialHistogram, ins: &[Rect], del: &[Rect]) {
    for (ins, del) in [(ins, del), (del, ins)] {
        let delta = HistogramDelta::build(HistogramKind::Gh, grid, ins, del);
        h.apply_delta(&delta).expect("delta applies");
    }
}

/// Builds the delta gate's workload at [`DELTA_SCALE`] and asserts,
/// untimed, that one forward then inverse operation returns the
/// histogram to its base state. The returned run times the mean of a
/// full rebuild over the mutated dataset against one such operation.
fn delta_gate(grid: Grid) -> impl FnOnce() -> Gate {
    let base = presets::scrc(DELTA_SCALE).rects;
    let inserts: Vec<Rect> = presets::sura(DELTA_SCALE).rects[..DELTA_INSERTS].to_vec();
    let deletes = base[..DELTA_DELETES].to_vec();
    let target: Vec<Rect> = base[DELTA_DELETES..]
        .iter()
        .chain(&inserts)
        .copied()
        .collect();
    let mut maintained = build_histogram(HistogramKind::Gh, grid, &base);
    let base_state = maintained.persist();
    forward_and_inverse(grid, &mut *maintained, &inserts, &deletes);
    let at_base = "forward/inverse maintenance must return to the base state";
    assert_eq!(maintained.persist(), base_state, "{at_base}");
    move || {
        let t = Instant::now();
        for _ in 0..DELTA_ROUNDS {
            let h = build_histogram(HistogramKind::Gh, grid, &target);
            assert_eq!(h.dataset_len(), target.len());
        }
        let rebuild_ms = t.elapsed().as_secs_f64() * 1e3 / DELTA_ROUNDS as f64;
        let t = Instant::now();
        for _ in 0..DELTA_ROUNDS {
            forward_and_inverse(grid, &mut *maintained, &inserts, &deletes);
        }
        let delta_ms = t.elapsed().as_secs_f64() * 1e3 / (2 * DELTA_ROUNDS) as f64;
        assert_eq!(maintained.persist(), base_state, "{at_base}");
        Gate::new("delta", "ms", DELTA, rebuild_ms, delta_ms)
    }
}

/// Best per-op ns of a raw and a ranked lock/unlock. Both sides run the
/// identical loop shape — acquire, mutate the protected counter,
/// release — and trials interleave raw/ordered so thermal drift
/// cancels.
fn sync_gate() -> Gate {
    use sj_core::sync::{LockRank, OrderedMutex};
    #[expect(
        clippy::disallowed_types,
        reason = "the raw std lock IS the benchmark's comparison baseline; ranking it would measure the wrapper against itself"
    )]
    let raw = std::sync::Mutex::new(0u64);
    let ordered = OrderedMutex::new(LockRank::Catalog, "bench.sync_layer", 0u64);
    let mut raw_ns = f64::INFINITY;
    let mut ordered_ns = f64::INFINITY;
    for _ in 0..SYNC_TRIALS {
        let t = Instant::now();
        for i in 0..SYNC_OPS {
            *raw.lock().expect("bench mutex") += i as u64 & 1;
        }
        raw_ns = raw_ns.min(t.elapsed().as_secs_f64() * 1e9 / SYNC_OPS as f64);
        let t = Instant::now();
        for i in 0..SYNC_OPS {
            *ordered.lock() += i as u64 & 1;
        }
        ordered_ns = ordered_ns.min(t.elapsed().as_secs_f64() * 1e9 / SYNC_OPS as f64);
    }
    // Keep the counters observable so the loops cannot be elided.
    let raw_total = *std::hint::black_box(&raw).lock().expect("bench mutex");
    let ordered_total = *std::hint::black_box(&ordered).lock();
    assert_eq!(raw_total, ordered_total, "both sides did the same work");
    let release = !cfg!(debug_assertions);
    let gate = Gate::new("sync", "ns", SYNC, raw_ns, ordered_ns);
    Gate {
        pass: sync_admits(release, gate.ratio, ordered_ns - raw_ns),
        bound: format!("{SYNC} or B-A <= {SYNC_NOISE_NS} ns, release builds only"),
        ..gate
    }
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

/// One timed insert+delete pair of the **baseline** mutation path: a
/// hand-built wire frame with the unstamped `(0, 0)` mutation ID —
/// exactly the bytes the pre-hardening client sent — over a plain
/// socket with no deadlines, against a daemon with no admission limits.
/// Encoding sits inside the timed region to mirror what the real client
/// pays.
fn baseline_pair_us(stream: &mut TcpStream, rects: &[Rect]) -> [f64; 2] {
    [Opcode::InsertBatch, Opcode::DeleteBatch].map(|op| {
        let t = Instant::now();
        let mut p = Vec::new();
        wire::put_str(&mut p, "bench_a");
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
    })
}

/// One timed insert+delete pair of the **hardened** mutation path: the
/// real client stamps a fresh mutation ID, wraps the call in the retry
/// loop, and both sides run under I/O deadlines.
fn hardened_pair_us(client: &mut Client, rects: &[Rect]) -> [f64; 2] {
    [true, false].map(|insert| {
        let t = Instant::now();
        let reply = if insert {
            client.insert_batch_with_retry("bench_a", rects)
        } else {
            client.delete_batch_with_retry("bench_a", rects)
        }
        .expect("hardened mutation must succeed");
        assert!(!reply.deduplicated, "fresh stamps never dedup");
        secs_to_us(t.elapsed())
    })
}

fn cli(parts: &[&str]) -> sj_cli::CliOutput {
    let args: Vec<String> = parts.iter().map(|s| (*s).to_string()).collect();
    match sj_cli::run(&args) {
        Ok(out) => out,
        Err(e) => panic!("cli {parts:?} failed: {e:?}"),
    }
}

type Daemon = std::thread::JoinHandle<Result<sj_cli::CliOutput, sj_cli::CliError>>;

/// Boots `sjsel serve` over the CSVs on an OS-assigned port in a thread
/// of this process, with extra `serve` flags and its own ready-file so
/// two daemons can run side by side. Returns the address the ready-file
/// names; a daemon that exits first panics the run with its own error.
fn boot(dir: &Path, csvs: [&str; 2], extra: &[&str], ready_name: &str) -> (String, Daemon) {
    let ready = dir.join(ready_name);
    drop(std::fs::remove_file(&ready));
    let level = LEVEL.to_string();
    let ready_path = ready.to_string_lossy().into_owned();
    let mut parts = vec!["serve", csvs[0], csvs[1], "--level", &level];
    parts.extend(["--addr", "127.0.0.1:0", "--ready-file", &ready_path]);
    parts.extend_from_slice(extra);
    let args: Vec<String> = parts.iter().map(|s| (*s).to_string()).collect();
    let daemon = std::thread::spawn(move || sj_cli::run(&args));
    for _ in 0..1000 {
        if let Ok(s) = std::fs::read_to_string(&ready) {
            if s.ends_with('\n') {
                return (s.trim().to_string(), daemon);
            }
        }
        if daemon.is_finished() {
            match daemon.join() {
                Ok(Err(e)) => panic!("daemon {ready_name} failed to start: {e:?}"),
                Ok(Ok(out)) => panic!("daemon {ready_name} exited before ready: {out:?}"),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("daemon {ready_name} never became ready within 10 s");
}

/// The two socket gates. The default daemon serves the residency gate's
/// warm side and doubles as the mutation gate's baseline target; a
/// second daemon runs with the full hardening switched on. Mutation
/// rounds interleave the two paths so clock drift and cache state
/// cancel instead of biasing one side.
fn daemon_gates(dir: &Path) -> [Gate; 2] {
    let a_csv = dir.join("bench_a.csv").to_string_lossy().into_owned();
    let b_csv = dir.join("bench_b.csv").to_string_lossy().into_owned();
    let (scale, level) = (SCALE.to_string(), LEVEL.to_string());
    cli(&["generate", "scrc", "--scale", &scale, "--out", &a_csv]);
    cli(&["generate", "sura", "--scale", &scale, "--out", &b_csv]);

    let cold_us = (0..COLD_ITERS)
        .map(|_| {
            let t = Instant::now();
            let out = cli(&["catalog-estimate", &a_csv, &b_csv, "--level", &level]);
            let us = secs_to_us(t.elapsed());
            assert!(out.stdout.contains("selectivity"), "{}", out.stdout);
            us
        })
        .collect();
    let (addr, daemon) = boot(dir, [&a_csv, &b_csv], &[], "ready.txt");
    let mut client = Client::connect(addr.as_str()).expect("connect");
    for _ in 0..WARM_WARMUP {
        client.estimate("bench_a", "bench_b").expect("warmup");
    }
    let warm_us = (0..WARM_ITERS)
        .map(|_| {
            let t = Instant::now();
            let r = client.estimate("bench_a", "bench_b").expect("estimate");
            let us = secs_to_us(t.elapsed());
            assert!(r.selectivity.is_finite());
            us
        })
        .collect();
    let residency = Gate::new("residency", "us", RESIDENCY, p50(cold_us), p50(warm_us));

    let hardening = ["--max-connections", "64", "--io-timeout-ms", "5000"];
    let (hard_addr, hard_daemon) = boot(dir, [&a_csv, &b_csv], &hardening, "ready_hardened.txt");
    let mut hardened = Client::connect(hard_addr.as_str()).expect("connect hardened");
    hardened
        .set_io_timeout(Some(Duration::from_millis(5000)))
        .expect("client deadline");
    let mut baseline = TcpStream::connect(addr.as_str()).expect("connect baseline");
    let rects = mutation_batch();
    for _ in 0..MUT_WARMUP_PAIRS {
        baseline_pair_us(&mut baseline, &rects);
        hardened_pair_us(&mut hardened, &rects);
    }
    let mut base_us = Vec::new();
    let mut hard_us = Vec::new();
    for _ in 0..MUT_ROUNDS {
        for _ in 0..MUT_PAIRS_PER_ROUND {
            base_us.extend(baseline_pair_us(&mut baseline, &rects));
        }
        for _ in 0..MUT_PAIRS_PER_ROUND {
            hard_us.extend(hardened_pair_us(&mut hardened, &rects));
        }
    }
    drop(baseline);
    hardened.shutdown_server().expect("shutdown hardened");
    hard_daemon
        .join()
        .expect("join hardened")
        .expect("hardened daemon exit");
    client.shutdown_server().expect("shutdown");
    daemon.join().expect("join").expect("daemon exit");
    let mutation = Gate::new("mutation", "us", MUTATION, p50(base_us), p50(hard_us));
    [residency, mutation]
}

fn main() {
    let grid = Grid::new(LEVEL, Extent::unit()).expect("level within bounds");
    // Both correctness checks run here, before anything is timed.
    let kernel = kernel_gate(grid);
    let delta = delta_gate(grid);

    // Per-process, so two concurrent runs keep their ready-files apart.
    let dir = std::env::temp_dir().join(format!("sjsel_bench_latency_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let [residency, mutation] = daemon_gates(&dir);
    drop(std::fs::remove_dir_all(&dir));

    let gates = [residency, delta(), mutation, sync_gate(), kernel()];
    for gate in &gates {
        println!("{gate}");
    }
    if gates.iter().any(|g| !g.pass) {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each gate passes exactly at its bound and fails one ulp past it,
    /// so inverting a comparison or loosening a bound fails here.
    #[test]
    fn each_gate_passes_at_its_bound_and_fails_just_past_it() {
        for (bound, at, past) in [
            (RESIDENCY, 5.0, 5.0f64.next_down()),
            (DELTA, 10.0, 10.0f64.next_down()),
            (MUTATION, 1.05, 1.05f64.next_up()),
            (KERNEL, 1.5, 1.5f64.next_down()),
        ] {
            assert!(bound.admits(at), "{bound} must admit {at}");
            assert!(!bound.admits(past), "{bound} must reject {past}");
        }
        // Sync, release build: the ratio ceiling with the ns guard out
        // of reach, then the ns guard with the ratio out of reach.
        assert!(sync_admits(true, 1.02, 3.0));
        assert!(!sync_admits(true, 1.02f64.next_up(), 3.0));
        assert!(sync_admits(true, 3.0, 2.0));
        assert!(!sync_admits(true, 3.0, 2.0f64.next_up()));
        // Debug builds only report.
        assert!(sync_admits(false, 3.0, 100.0));
    }

    #[test]
    fn a_gate_reads_its_ratio_in_the_bound_direction() {
        let speedup = Gate::new("s", "us", RESIDENCY, 50.0, 10.0);
        assert_eq!(speedup.ratio, 5.0);
        assert!(speedup.pass);
        let overhead = Gate::new("o", "us", MUTATION, 10.0, 12.0);
        assert_eq!(overhead.ratio, 1.2);
        assert!(!overhead.pass);
    }
}
