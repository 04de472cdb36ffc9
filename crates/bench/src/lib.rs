//! Shared harness utilities for the figure-regeneration binaries.
//!
//! Each binary accepts:
//!
//! * `--scale <f64>` — dataset scale relative to the paper cardinalities
//!   (default 0.2; pass `1.0` for the full-size run recorded in
//!   EXPERIMENTS.md).
//! * `--levels <a>..<b>` — histogram gridding levels (default `0..9`,
//!   the paper's sweep).
//! * `--out <dir>` — directory for machine-readable JSON results
//!   (default `results/`).
//! * `--join <name>` — restrict to one join (`ts-tcb`, `cas-car`,
//!   `sp-spg`, `scrc-sura`).
//! * `--threads <n>` — worker threads for context preparation and the
//!   experiment runners (default: available parallelism).

#![expect(
    clippy::expect_used,
    reason = "benchmark harness: a failed setup step aborts the run"
)]

use sj_core::experiment::JoinContext;
use sj_core::presets::{self, PaperJoin};
use sj_core::{parallel_map, Parallelism};
use std::fmt::Write as _;
use std::ops::RangeInclusive;
use std::path::PathBuf;

/// Parsed command-line configuration shared by the harness binaries.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Dataset scale (1.0 = paper cardinalities).
    pub scale: f64,
    /// Gridding levels for histogram sweeps.
    pub levels: RangeInclusive<u32>,
    /// Output directory for JSON results.
    pub out_dir: PathBuf,
    /// Joins to run.
    pub joins: Vec<PaperJoin>,
    /// Worker threads for context preparation and experiment runners.
    pub parallelism: Parallelism,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        Self {
            scale: 0.2,
            levels: 0..=9,
            out_dir: PathBuf::from("results"),
            joins: presets::ALL_JOINS.to_vec(),
            parallelism: Parallelism::default(),
        }
    }
}

impl HarnessConfig {
    /// Parses `std::env::args`, exiting with a usage message on error.
    #[must_use]
    pub fn from_args() -> Self {
        let mut cfg = Self::default();
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            let need_value = |i: usize| {
                args.get(i + 1).map(String::as_str).unwrap_or_else(|| {
                    eprintln!("missing value for {}", args[i]);
                    std::process::exit(2);
                })
            };
            match args[i].as_str() {
                "--scale" => {
                    cfg.scale = need_value(i).parse().unwrap_or_else(|e| {
                        eprintln!("bad --scale: {e}");
                        std::process::exit(2);
                    });
                    i += 2;
                }
                "--levels" => {
                    let v = need_value(i);
                    let Some((a, b)) = v.split_once("..") else {
                        eprintln!("bad --levels (expected a..b): {v}");
                        std::process::exit(2);
                    };
                    let lo: u32 = a.parse().unwrap_or(0);
                    let hi: u32 = b.trim_start_matches('=').parse().unwrap_or(9);
                    cfg.levels = lo..=hi;
                    i += 2;
                }
                "--out" => {
                    cfg.out_dir = PathBuf::from(need_value(i));
                    i += 2;
                }
                "--join" => {
                    cfg.joins = vec![match need_value(i) {
                        "ts-tcb" => PaperJoin::TsTcb,
                        "cas-car" => PaperJoin::CasCar,
                        "sp-spg" => PaperJoin::SpSpg,
                        "scrc-sura" => PaperJoin::ScrcSura,
                        other => {
                            eprintln!("unknown join {other}");
                            std::process::exit(2);
                        }
                    }];
                    i += 2;
                }
                "--threads" => {
                    let n: usize = need_value(i).parse().unwrap_or_else(|e| {
                        eprintln!("bad --threads: {e}");
                        std::process::exit(2);
                    });
                    cfg.parallelism = Parallelism::try_new(n).unwrap_or_else(|e| {
                        eprintln!("bad --threads: {e}");
                        std::process::exit(2);
                    });
                    i += 2;
                }
                "--help" | "-h" => {
                    eprintln!(
                        "usage: [--scale F] [--levels A..B] [--out DIR] \
                         [--join ts-tcb|cas-car|sp-spg|scrc-sura] [--threads N]"
                    );
                    std::process::exit(0);
                }
                other => {
                    eprintln!("unknown argument {other}");
                    std::process::exit(2);
                }
            }
        }
        cfg
    }

    /// Prepares the configured joins in parallel (each needs a full exact
    /// join, the expensive part of the harness).
    #[must_use]
    pub fn prepare_contexts(&self) -> Vec<JoinContext> {
        let scale = self.scale;
        parallel_map(self.joins.clone(), self.parallelism, move |join| {
            let (a, b) = join.datasets(scale);
            JoinContext::prepare(join.name(), a, b)
        })
    }

    /// Writes a serializable value as pretty JSON under the output dir.
    pub fn write_json<T: serde::Serialize>(&self, name: &str, value: &T) {
        std::fs::create_dir_all(&self.out_dir).expect("create output dir");
        let path = self.out_dir.join(name);
        let json = serde_json::to_string_pretty(value).expect("serialize results");
        std::fs::write(&path, json).expect("write results file");
        println!("\nwrote {}", path.display());
    }
}

/// Renders an aligned text table: `headers` then `rows`, every row the
/// same arity as the headers.
#[must_use]
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row arity mismatch");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.chars().count());
        }
    }
    let mut out = String::new();
    let fmt_row = |out: &mut String, cells: &[String]| {
        for (i, cell) in cells.iter().enumerate() {
            let pad = widths[i] - cell.chars().count();
            if i > 0 {
                out.push_str("  ");
            }
            // Right-align numeric-looking cells, left-align labels.
            if i != 0
                && cell
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_digit() || c == '-')
            {
                let _ = write!(out, "{}{}", " ".repeat(pad), cell);
            } else {
                let _ = write!(out, "{}{}", cell, " ".repeat(pad));
            }
        }
        out.push('\n');
    };
    let headers_owned: Vec<String> = headers.iter().map(|s| (*s).to_string()).collect();
    fmt_row(&mut out, &headers_owned);
    let _ = writeln!(
        out,
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1))
    );
    for row in rows {
        fmt_row(&mut out, row);
    }
    out
}

/// Formats a percentage for tables: `n/a` for NaN, sensible precision
/// otherwise.
#[must_use]
pub fn pct(v: f64) -> String {
    if v.is_nan() {
        "n/a".to_string()
    } else if v == f64::INFINITY {
        "inf".to_string()
    } else if v >= 100.0 {
        format!("{v:.0}%")
    } else if v >= 1.0 {
        format!("{v:.1}%")
    } else {
        format!("{v:.3}%")
    }
}

/// Prints the standard harness banner.
pub fn banner(title: &str, cfg: &HarnessConfig) {
    println!("=== {title} ===");
    println!(
        "scale {} (paper = 1.0) | joins: {} | threads: {}",
        cfg.scale,
        cfg.joins
            .iter()
            .map(|j| j.name())
            .collect::<Vec<_>>()
            .join(", "),
        cfg.parallelism.threads()
    );
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_table_aligns() {
        let t = render_table(
            &["join", "error"],
            &[
                vec!["TS with TCB".to_string(), "1.2%".to_string()],
                vec!["x".to_string(), "10.0%".to_string()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("join"));
        assert!(lines[2].contains("TS with TCB"));
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(f64::NAN), "n/a");
        assert_eq!(pct(0.123), "0.123%");
        assert_eq!(pct(12.34), "12.3%");
        assert_eq!(pct(1234.0), "1234%");
        assert_eq!(pct(f64::INFINITY), "inf");
    }

    #[test]
    fn default_config() {
        let cfg = HarnessConfig::default();
        assert_eq!(cfg.joins.len(), 4);
        assert_eq!(cfg.levels, 0..=9);
    }

    #[test]
    fn prepare_contexts_preserves_order() {
        let cfg = HarnessConfig {
            scale: 0.002,
            ..Default::default()
        };
        let ctxs = cfg.prepare_contexts();
        let names: Vec<&str> = ctxs.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "TS with TCB",
                "CAS with CAR",
                "SP with SPG",
                "SCRC with SURA"
            ]
        );
    }
}
