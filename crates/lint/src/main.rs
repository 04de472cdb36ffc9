//! `sj-lint` binary: the `verify-equivalence`, `verify-recovery` and
//! `verify-locks` subcommands.
//!
//! Exit codes: `0` clean, `1` verifier divergences, `2` usage error.

use sj_lint::report::Format;
use sj_lint::verify::{run_verify, Fault, VerifyConfig};
use sj_lint::verify_locks::{run_verify_locks, LockFault, LocksConfig};
use sj_lint::verify_recovery::{run_verify_recovery, RecoveryConfig, RecoveryFault};
use std::process::ExitCode;

const USAGE: &str = "\
sj-lint — workspace invariant verifiers

USAGE:
    sj-lint verify-equivalence [--format human|json] [--scale <f>]
                               [--levels <l,..>] [--shards <n,..>]
                               [--inject drop-last-rect|nudge-first-rect]
    sj-lint verify-recovery [--format human|json] [--scale <f>]
                            [--levels <l>]
                            [--inject drop-wal-tail|skip-wal-replay]
    sj-lint verify-locks [--format human|json] [--scale <f>]
                         [--inject invert-ranks|hold-across-fsync]

The static rules are rustc's and clippy's, configured in clippy.toml,
[workspace.lints] and per-module lint attributes (DESIGN.md §10). A
flag the chosen subcommand does not read is a usage error.

verify-equivalence  every histogram family, built a second way (sharded
                    and merged, or through a signed delta), must be
                    byte-identical to its baseline (the serial build, or
                    a full rebuild over the mutated data)
verify-recovery     a crash at every mutating store operation must
                    recover to an acknowledged crash-free prefix state
verify-locks        a concurrent daemon workload must keep lock ranks
                    increasing, the lock-order graph acyclic and WAL/fsync
                    I/O out from under the catalog lock (debug builds)

Divergences are localized to a cell and statistic (or a lock pair);
--inject breaks a verifier's input on purpose to prove the check bites.
Exit codes: 0 clean, 1 divergences, 2 usage error. docs/CLI.md is the
full reference.";

/// The flags `command` reads — exactly those its synopsis lines in
/// [`USAGE`] show — or `None` for an unknown command. Any other flag is
/// a usage error, so nothing is silently ignored.
fn accepted_flags(command: &str) -> Option<Vec<&'static str>> {
    let mut current = None;
    let mut flags = None;
    let synopsis = USAGE.lines().map(str::trim).skip_while(|l| *l != "USAGE:");
    for line in synopsis.skip(1).take_while(|l| !l.is_empty()) {
        if let Some(rest) = line.strip_prefix("sj-lint ") {
            current = rest.split_whitespace().next();
        }
        if current == Some(command) {
            let words = line.split(['[', ']', ' ']);
            flags
                .get_or_insert_with(Vec::new)
                .extend(words.filter(|w| w.starts_with("--")));
        }
    }
    flags
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    run(&args).unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        ExitCode::from(2)
    })
}

/// Parsed command line. `None` means "the subcommand's default".
#[derive(Default)]
struct Cli {
    format: Format,
    scale: Option<f64>,
    levels: Option<Vec<u32>>,
    shards: Option<Vec<usize>>,
    inject: Option<String>,
}

/// Parses a comma-separated numeric list for `--levels` / `--shards`.
fn parse_num_list<T: std::str::FromStr>(flag: &str, value: &str) -> Result<Vec<T>, String> {
    value
        .split(',')
        .map(|part| {
            part.trim()
                .parse::<T>()
                .map_err(|_| format!("{flag}: `{part}` is not a valid number"))
        })
        .collect()
}

/// Parses the flags after the subcommand, rejecting any flag the
/// subcommand does not read.
fn parse_flags(command: &str, accepted: &[&str], args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let flag = arg.as_str();
        if !accepted.contains(&flag) {
            return Err(format!(
                "`{flag}` is not an option of `{command}` (see `sj-lint --help`)"
            ));
        }
        let mut value_of = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--format" => {
                cli.format = match value_of()?.as_str() {
                    "human" => Format::Human,
                    "json" => Format::Json,
                    other => return Err(format!("unknown format `{other}`")),
                }
            }
            "--scale" => {
                let value = value_of()?;
                cli.scale = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or_else(|| format!("--scale: `{value}` is not a positive number"))?,
                );
            }
            "--levels" => cli.levels = Some(parse_num_list(flag, &value_of()?)?),
            "--shards" => {
                let shards: Vec<usize> = parse_num_list(flag, &value_of()?)?;
                if shards.contains(&0) {
                    return Err("--shards: shard counts must be positive".to_string());
                }
                cli.shards = Some(shards);
            }
            "--inject" => cli.inject = Some(value_of()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(cli)
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return Ok(ExitCode::from(2));
    };
    if args.iter().any(|a| a == "--help" || a == "-h") || command == "help" {
        println!("{USAGE}");
        return Ok(ExitCode::SUCCESS);
    }
    let Some(accepted) = accepted_flags(command) else {
        return Err(format!("unknown command `{command}`"));
    };
    let cli = parse_flags(command, &accepted, args.get(1..).unwrap_or_default())?;
    match command.as_str() {
        "verify-equivalence" => cmd_verify_equivalence(&cli),
        "verify-recovery" => cmd_verify_recovery(&cli),
        "verify-locks" => cmd_verify_locks(&cli),
        other => Err(format!("unknown command `{other}`")),
    }
}

/// Exit status of a verifier run.
fn verdict(clean: bool) -> ExitCode {
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Resolves `--inject` against one verifier's fault vocabulary.
fn fault<F>(cli: &Cli, parse: fn(&str) -> Option<F>, known: &str) -> Result<Option<F>, String> {
    cli.inject
        .as_deref()
        .map(|name| {
            parse(name).ok_or_else(|| format!("--inject: unknown fault `{name}` ({known})"))
        })
        .transpose()
}

fn cmd_verify_equivalence(cli: &Cli) -> Result<ExitCode, String> {
    let defaults = VerifyConfig::default();
    let config = VerifyConfig {
        scale: cli.scale.unwrap_or(defaults.scale),
        levels: cli.levels.clone().unwrap_or(defaults.levels),
        shard_counts: cli.shards.clone().unwrap_or(defaults.shard_counts),
        fault: fault(cli, Fault::parse, "drop-last-rect, nudge-first-rect")?,
    };
    let report = run_verify(&config)
        .map_err(|e| format!("invalid verify-equivalence configuration: {e}"))?;
    print!("{}", report.render(cli.format));
    Ok(verdict(report.is_clean()))
}

fn cmd_verify_recovery(cli: &Cli) -> Result<ExitCode, String> {
    let mut config = RecoveryConfig::default();
    if let Some(scale) = cli.scale {
        config.scale = scale;
    }
    if let Some(levels) = &cli.levels {
        // The crash matrix is one build per trial — a single level.
        let [level] = levels[..] else {
            return Err(
                "verify-recovery runs at a single level: pass one --levels value".to_string(),
            );
        };
        config.level = level;
    }
    config.fault = fault(cli, RecoveryFault::parse, "drop-wal-tail, skip-wal-replay")?;
    let report = run_verify_recovery(&config)?;
    print!("{}", report.render(cli.format));
    Ok(verdict(report.is_clean()))
}

fn cmd_verify_locks(cli: &Cli) -> Result<ExitCode, String> {
    let mut config = LocksConfig::default();
    if let Some(scale) = cli.scale {
        config.scale = scale;
    }
    config.fault = fault(cli, LockFault::parse, "invert-ranks, hold-across-fsync")?;
    let report = run_verify_locks(&config)?;
    print!("{}", report.render(cli.format));
    Ok(verdict(report.is_clean()))
}
