//! End-to-end benchmark of the `sjsel serve` statistics daemon.
//!
//! One invocation runs one workload on inputs generated from `--seed`:
//! with `--trace 0` it spawns the daemon, drives it in a closed loop
//! over one connection for `--seconds`, checks every reply and prints
//! the end-to-end metrics; with `--trace 1` it replays the same
//! operations in process, layer by layer, and prints per-layer metrics.
//! The last line of standard output is one JSON object; see README.md.
//!
//! ```text
//! perfbench --workload estimate-single --seed 1 --seconds 10 --trace 0 \
//!           --sjsel .bench_build/release/sjsel --work .bench_work
//! ```

mod calib;
mod daemon;
mod data;
mod stats;
mod trace;
mod workload;

use daemon::Daemon;
use data::Inputs;
use stats::quantile;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;
use workload::{closed_loop, Expected, Op, Tally, Workload};

/// Daemon spawns per untraced run; `setup_s` is their median.
const SETUP_SPAWNS: usize = 5;
/// Mutation-only rounds after an estimate workload's timed window.
const MUTATION_ROUNDS: usize = 12;
/// Table scale: the paper's cardinalities.
const SCALE: f64 = 1.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    sjsel: PathBuf,
    work: PathBuf,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut map: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(flag, value);
    }
    let mut take = |k: &str| map.remove(k).ok_or_else(|| format!("missing {k}"));
    let workload = take("--workload")?;
    let args = Args {
        workload: Workload::parse(&workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?,
        seed: take("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: take("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: take("--trace")? == "1",
        sjsel: take("--sjsel")?.into(),
        work: take("--work")?.into(),
        commit: take("--commit").unwrap_or_else(|_| "unknown".to_string()),
    };
    if let Some(extra) = map.keys().next() {
        return Err(format!("unknown flag {extra}"));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    /// The value as timed on this host, when `value` is speed-scaled.
    raw: Option<f64>,
    unit: &'static str,
    samples: usize,
}

#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
    /// Reported but not gated; not part of the JSON result.
    info: Vec<Metric>,
    /// Median host-speed probe pass of the run, µs.
    host_probe_us: f64,
    tally: Tally,
    /// A failure the tally does not carry (e.g. counts that did not repeat).
    broken: Option<String>,
}

impl Report {
    fn add(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            raw: None,
            unit,
            samples,
        });
    }

    /// Adds a timing measured on this host, scaled by `speed` to the
    /// reference host speed.
    fn add_scaled(
        &mut self,
        name: &'static str,
        raw: f64,
        speed: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.metrics.push(Metric {
            name,
            value: raw * speed,
            raw: Some(raw),
            unit,
            samples,
        });
    }

    fn correct(&self) -> bool {
        self.tally.failed == 0
            && self.broken.is_none()
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { -1.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.tally.attempted.max(1),
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some(calib::SERVE_FLAG) {
        if let Err(e) = calib::serve() {
            eprintln!("perfbench probe: {e}");
            std::process::exit(1);
        }
        return;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload estimate-single|estimate-batch|ingest-mixed \
                 --seed N --seconds S --trace 0|1 --sjsel PATH --work DIR [--commit ID]"
            );
            std::process::exit(2);
        }
    };
    let run_dir = args.work.join(format!(
        "run-{}-s{}-t{}-{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        std::process::id()
    ));
    match run(&args, &run_dir) {
        Ok(report) => {
            for line in provenance(&args, &run_dir) {
                println!("# {line}");
            }
            println!(
                "# host probe median {:.1} us; reference {:.1} us",
                report.host_probe_us,
                calib::REFERENCE_PROBE_US
            );
            for m in &report.metrics {
                let raw = m
                    .raw
                    .map_or(String::new(), |r| format!("  (as timed: {r:.4})"));
                println!(
                    "{:<36} {:>14.4} {:<6} n={}{raw}",
                    m.name, m.value, m.unit, m.samples
                );
            }
            for m in &report.info {
                println!(
                    "{:<36} {:>14.4} {:<6} n={}  (as timed; not gated)",
                    m.name, m.value, m.unit, m.samples
                );
            }
            let t = &report.tally;
            println!(
                "ops_failed_ratio {} ({} of {} attempted)",
                t.failed as f64 / t.attempted.max(1) as f64,
                t.failed,
                t.attempted
            );
            if let Some(e) = t.first_error.as_ref().or(report.broken.as_ref()) {
                println!("# first failure: {e}");
            }
            println!("{}", report.json());
            if report.correct() {
                let _ = std::fs::remove_dir_all(&run_dir);
            } else {
                eprintln!(
                    "perfbench: wrong answers; run files kept in {}",
                    run_dir.display()
                );
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e} (run files kept in {})", run_dir.display());
            std::process::exit(1);
        }
    }
}

fn run(args: &Args, run_dir: &Path) -> Result<Report, String> {
    std::fs::create_dir_all(run_dir).map_err(|e| format!("creating {}: {e}", run_dir.display()))?;
    let inputs = data::generate(&run_dir.join("tables"), args.seed, SCALE)
        .map_err(|e| format!("generating tables: {e}"))?;
    let expect = workload::expected(&inputs)?;
    if args.trace {
        trace::run(args, run_dir, &inputs, &expect)
    } else {
        untraced(args, run_dir, &inputs, &expect)
    }
}

fn q(samples: &[f64], p: f64) -> f64 {
    quantile(samples, p).unwrap_or(f64::NAN)
}

fn untraced(
    args: &Args,
    run_dir: &Path,
    inputs: &Inputs,
    expect: &Expected,
) -> Result<Report, String> {
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let cache = args.work.join("cache");
    std::fs::create_dir_all(&cache).map_err(|e| format!("creating {}: {e}", cache.display()))?;
    let exact = data::exact_counts(
        &inputs.rects,
        threads,
        &cache.join(format!("exact-s{}-x{}.txt", args.seed, SCALE)),
    )
    .map_err(|e| format!("exact counts: {e}"))?;

    let mut report = Report::default();
    let mut probe = calib::Probe::spawn()?;
    let mut setups = Vec::new();
    let mut loaded_rss = Vec::new();
    let mut live = None;
    for i in 0..SETUP_SPAWNS {
        let d = Daemon::spawn(&args.sjsel, &inputs.csvs, run_dir, &i.to_string())?;
        setups.push(d.setup.as_secs_f64());
        loaded_rss.push(d.peak_rss_mb()?);
        if i + 1 < SETUP_SPAWNS {
            d.stop()?;
        } else {
            live = Some(d);
        }
    }
    let mut d = live.ok_or("no daemon")?;
    workload::warm_up(&mut d.client, inputs, expect, args.seed, &mut report.tally);

    let n = inputs.names.len();
    let ops = workload::round(args.workload, n, args.seed);
    let meter = d.meter();
    let cpu0 = meter.cpu_us()?;
    let (main, wall) = closed_loop(
        &mut d.client,
        &ops,
        inputs,
        expect,
        Duration::from_secs_f64(args.seconds),
        false,
        &mut probe,
        Some(meter),
    )?;
    let cpu = meter.cpu_us()? - cpu0;
    let main_ops = main.estimates + main.mutations;
    let estimates_per_s = main.estimates as f64 / wall.as_secs_f64();
    let estimate_us = main.estimate_us.clone();
    // The estimate workloads carry no writes; their mutation metrics
    // come from mutation-only rounds after the timed window.
    let (writes, write_wall) = if args.workload == Workload::IngestMixed {
        (main, wall)
    } else {
        report.tally.absorb(main);
        let rounds: Vec<Op> = (0..MUTATION_ROUNDS)
            .flat_map(|_| workload::mutation_round(n, args.seed))
            .collect();
        closed_loop(
            &mut d.client,
            &rounds,
            inputs,
            expect,
            Duration::ZERO,
            true,
            &mut probe,
            Some(meter),
        )?
    };
    let rss = d.peak_rss_mb()?;
    let stderr_log = d.stderr_log.clone();
    d.stop()
        .map_err(|e| format!("{e}; stderr:\n{}", daemon::tail(&stderr_log)))?;
    let mutations_per_s = writes.mutations as f64 / write_wall.as_secs_f64();
    let (inserts, deletes, mutation_cpu) = (
        writes.insert_us.clone(),
        writes.delete_us.clone(),
        writes.mutation_cpu_us.clone(),
    );
    report.tally.absorb(writes);

    let mut errors = Vec::new();
    for (a, row) in exact.iter().enumerate() {
        for (b, &count) in row.iter().enumerate() {
            if count > 0 {
                errors.push((expect.base[a][b].pairs - count as f64).abs() / count as f64 * 100.0);
            }
        }
    }

    // Gated times are reported at the reference host speed: raw × the
    // ratio of the reference probe time to this run's median probe time.
    let speed = calib::REFERENCE_PROBE_US / q(&probe.samples_us, 0.5);
    report.host_probe_us = q(&probe.samples_us, 0.5);
    let mutation_cpu_mean = mutation_cpu.iter().sum::<f64>() / mutation_cpu.len().max(1) as f64;
    report.add_scaled("setup_s", q(&setups, 0.5), speed, "s", setups.len());
    report.add_scaled(
        "estimate_p50_us",
        q(&estimate_us, 0.5),
        speed,
        "us",
        estimate_us.len(),
    );
    report.add_scaled(
        "daemon_cpu_us_per_op",
        cpu / main_ops.max(1) as f64,
        speed,
        "us",
        main_ops as usize,
    );
    report.add_scaled(
        "mutation_cpu_us",
        mutation_cpu_mean,
        speed,
        "us",
        mutation_cpu.len(),
    );
    report.add(
        "daemon_rss_mb",
        q(&loaded_rss, 0.5),
        "MiB",
        loaded_rss.len(),
    );
    report.add(
        "estimate_error_pct",
        errors.iter().sum::<f64>() / errors.len().max(1) as f64,
        "%",
        errors.len(),
    );
    // Wall-clock throughput, tails and mutation latencies: reported as
    // timed, not gated (run-to-run spread on a shared host exceeds any
    // usable bound; see README.md).
    let mut info = |name: &'static str, value: f64, unit: &'static str, samples: usize| {
        report.info.push(Metric {
            name,
            value,
            raw: None,
            unit,
            samples,
        });
    };
    info("estimates_per_s", estimates_per_s, "1/s", estimate_us.len());
    info(
        "estimate_p90_us",
        q(&estimate_us, 0.9),
        "us",
        estimate_us.len(),
    );
    info(
        "mutations_per_s",
        mutations_per_s,
        "1/s",
        inserts.len() + deletes.len(),
    );
    info("insert_p50_us", q(&inserts, 0.5), "us", inserts.len());
    info("insert_p90_us", q(&inserts, 0.9), "us", inserts.len());
    info("delete_p50_us", q(&deletes, 0.5), "us", deletes.len());
    info("delete_p90_us", q(&deletes, 0.9), "us", deletes.len());
    info("daemon_peak_rss_mb", rss, "MiB", 1);
    Ok(report)
}

/// Where and how the numbers were produced.
fn provenance(args: &Args, run_dir: &Path) -> Vec<String> {
    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_default();
    let cpu = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let dir = std::fs::canonicalize(run_dir.parent().unwrap_or(run_dir)).unwrap_or_default();
    let fs_type = read("/proc/mounts")
        .lines()
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f.len() > 2 && dir.starts_with(f[1])).then(|| (f[1].len(), f[2].to_string()))
        })
        .max()
        .map_or_else(|| "unknown".to_string(), |(_, t)| t);
    vec![
        format!(
            "workload={} seed={} scale={} level={} seconds={} trace={}",
            args.workload.name(),
            args.seed,
            SCALE,
            daemon::LEVEL,
            args.seconds,
            u8::from(args.trace)
        ),
        format!(
            "stats_dir_fs={fs_type} nproc={} cpu={cpu}",
            std::thread::available_parallelism().map_or(1, usize::from)
        ),
        format!(
            "profile={} commit={}",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            args.commit
        ),
    ]
}
