//! Implementation of the `sjsel` command-line tool.
//!
//! Subcommands:
//!
//! * `generate <preset> [--scale F] --out FILE.csv` — materialize one of
//!   the paper's datasets (ts, tcb, cas, car, sp, spg, scrc, sura).
//! * `stats FILE.csv` — cardinality, coverage, average extents.
//! * `build-histogram FILE.csv --level L --out FILE.hist
//!   [--kind ph|gh-basic|gh|euler] [--shards N] [--extent x0,y0,x1,y1]` —
//!   build and persist a histogram file of any family; with `--shards N`
//!   the input is split into N rectangle ranges built independently and
//!   merged, byte-identical to the direct build.
//! * `merge-histogram A.hist B.hist [...] --out FILE.hist` — merge
//!   histogram files of the same kind and grid into one.
//! * `estimate A.hist B.hist` — estimate the join selectivity from two
//!   histogram files (kinds must match; grids must be compatible).
//! * `catalog-estimate A.csv B.csv [--stats-dir DIR] [--json]` — estimate
//!   through the catalog's graceful-degradation ladder: saved statistics
//!   when usable, otherwise PH rebuild → parametric → sampling, with the
//!   serving tier reported as provenance (JSON `provenance` field under
//!   `--json`) and every degradation surfaced as a stderr warning.
//! * `exact-join A.csv B.csv [--backend rtree|sweep]` — run the exact
//!   filter-step join.
//! * `window-count FILE.hist --window x0,y0,x1,y1` — estimate how many
//!   objects intersect a window (GH files only).
//! * `apply-delta BASE.hist --inserts I.csv --deletes D.csv --out OUT` —
//!   fold a signed insert/delete statistics delta into a histogram file
//!   offline, byte-identical to a full rebuild over the mutated data.
//! * `serve FILES... [--addr HOST:PORT] [--stats-dir DIR]` — load the
//!   catalog once and answer estimate requests over TCP until a client
//!   sends `shutdown` (the paper's estimates are cheap only once the
//!   statistics are resident; this keeps them resident).
//! * `client --addr HOST:PORT <op> [...]` — query a running daemon;
//!   output is byte-identical to the corresponding cold subcommand and
//!   remote failures reuse the same exit codes.
//!
//! Dataset-reading commands accept `--validate strict|repair|skip`
//! (default `strict`): CSV records with non-finite coordinates, inverted
//! corners or out-of-extent rectangles are rejected with the offending
//! line and field, repaired where well-defined, or dropped — repairs and
//! drops are reported as warnings on stderr.
//!
//! Failures exit with a documented nonzero code (see [`exit_code`]) and a
//! single human-readable stderr line — never a backtrace.
//!
//! The logic lives in this library crate so it is unit-testable; the
//! binary (`src/main.rs`) is a thin wrapper.

#![warn(clippy::indexing_slicing)]

use sj_core::sync::{LockRank, OrderedRwLock};
use sj_core::{
    build_histogram_parallel, build_histogram_sharded, load_histogram, parallel_map, presets,
    Dataset, DatasetError, Extent, GhHistogram, Grid, HistogramError, HistogramKind, JoinBaseline,
    Parallelism, RTreeConfig, Rect, SpatialHistogram, ValidationPolicy, SPARSE_MAGIC,
};
use sj_query::{
    Catalog, CatalogConfig, CompactionPolicy, DegradationPolicy, PreparedTable, QueryError,
};
use sj_server::{CatalogService, Client, ClientError, RemoteOutcome, Server, ServerConfig};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

/// Documented process exit codes. Each failure category maps to one code
/// so scripts can react without parsing stderr text.
pub mod exit_code {
    /// Generic runtime failure not covered by a more specific code.
    pub const RUNTIME: i32 = 1;
    /// Bad command line: unknown command/flag/value, missing argument.
    pub const USAGE: i32 = 2;
    /// The filesystem failed: a file could not be read or written.
    pub const IO: i32 = 3;
    /// A histogram/statistics file is corrupt (bad envelope, failed
    /// checksum, malformed payload, stale cardinality).
    pub const CORRUPT: i32 = 4;
    /// Histogram kind or grid mismatch between the supplied files.
    pub const MISMATCH: i32 = 5;
    /// A dataset file is invalid: malformed record, failed validation
    /// under `--validate strict`, or no surviving records.
    pub const INVALID_DATA: i32 = 6;
    /// Every tier of the estimation ladder was disabled or failed.
    pub const EXHAUSTED: i32 = 7;
    /// The statistics daemon refused the connection at its admission
    /// ceiling (wire status `overloaded`).
    pub const OVERLOADED: i32 = 8;
}

/// A CLI failure: message for stderr plus an exit code.
#[derive(Debug)]
pub struct CliError {
    /// Human-readable message.
    pub message: String,
    /// Process exit code (see [`exit_code`]).
    pub code: i32,
}

impl CliError {
    fn usage(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            code: exit_code::USAGE,
        }
    }

    fn runtime(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            code: exit_code::RUNTIME,
        }
    }

    fn io(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            code: exit_code::IO,
        }
    }

    /// Maps a histogram-layer error onto the exit-code taxonomy.
    fn from_histogram(context: &str, e: &HistogramError) -> Self {
        let code = match e {
            HistogramError::Corrupt { .. } => exit_code::CORRUPT,
            HistogramError::KindMismatch { .. } | HistogramError::GridMismatch { .. } => {
                exit_code::MISMATCH
            }
            HistogramError::LevelTooLarge(_) => exit_code::USAGE,
            HistogramError::DeltaOutOfRange { .. } => exit_code::INVALID_DATA,
            // Future (non_exhaustive) histogram errors: a conservative
            // runtime failure until a dedicated exit code exists.
            _ => exit_code::RUNTIME,
        };
        Self {
            message: format!("{context}: {e}"),
            code,
        }
    }

    /// Maps a query-layer error onto the exit-code taxonomy.
    fn from_query(context: &str, e: &QueryError) -> Self {
        match e {
            QueryError::Histogram(h) => Self::from_histogram(context, h),
            QueryError::EstimatorsExhausted(_) => Self {
                message: format!("{context}: {e}"),
                code: exit_code::EXHAUSTED,
            },
            QueryError::StatisticsUnavailable { .. } => Self {
                message: format!("{context}: {e}"),
                code: exit_code::CORRUPT,
            },
            QueryError::TooFewTables(_) => Self::usage(format!("{context}: {e}")),
            QueryError::DeleteNotFound { .. } | QueryError::InvalidRect { .. } => Self {
                message: format!("{context}: {e}"),
                code: exit_code::INVALID_DATA,
            },
            QueryError::Io(_) => Self::io(format!("{context}: {e}")),
            QueryError::UnknownTable(_)
            | QueryError::DuplicateTable(_)
            | QueryError::ResultTooLarge { .. } => Self::runtime(format!("{context}: {e}")),
            // Future (non_exhaustive) query errors default to runtime.
            _ => Self::runtime(format!("{context}: {e}")),
        }
    }

    /// Maps a dataset-ingestion error onto the exit-code taxonomy.
    fn from_dataset(path: &str, e: &DatasetError) -> Self {
        match e {
            DatasetError::Io(_) => Self::io(format!("failed to load {path}: {e}")),
            DatasetError::Parse { .. } | DatasetError::Invalid { .. } | DatasetError::Empty => {
                Self {
                    message: format!("{path}: {e}"),
                    code: exit_code::INVALID_DATA,
                }
            }
            // Future (non_exhaustive) ingestion errors count as bad data.
            _ => Self {
                message: format!("{path}: {e}"),
                code: exit_code::INVALID_DATA,
            },
        }
    }
}

/// A successful command's output: the stdout payload plus any warnings
/// the binary prints to stderr (validation repairs/drops, degraded
/// estimates) so that piping stdout stays clean.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliOutput {
    /// Payload for stdout.
    pub stdout: String,
    /// Warnings for stderr, in emission order.
    pub warnings: Vec<String>,
}

impl CliOutput {
    fn new(stdout: impl Into<String>) -> Self {
        Self {
            stdout: stdout.into(),
            warnings: Vec::new(),
        }
    }

    fn with_warnings(stdout: impl Into<String>, warnings: Vec<String>) -> Self {
        Self {
            stdout: stdout.into(),
            warnings,
        }
    }
}

impl std::ops::Deref for CliOutput {
    type Target = String;

    fn deref(&self) -> &String {
        &self.stdout
    }
}

impl std::fmt::Display for CliOutput {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.stdout)
    }
}

/// Runs the CLI on pre-split arguments (excluding `argv[0]`) and returns
/// the stdout payload plus warnings.
///
/// # Errors
/// Returns a [`CliError`] carrying one of the documented [`exit_code`]s.
pub fn run(args: &[String]) -> Result<CliOutput, CliError> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(CliError::usage(USAGE.to_string()));
    };
    match cmd.as_str() {
        "generate" => cmd_generate(rest),
        "stats" => cmd_stats(rest),
        "build-histogram" => cmd_build_histogram(rest),
        "merge-histogram" => cmd_merge_histogram(rest),
        "estimate" => cmd_estimate(rest),
        "catalog-estimate" => cmd_catalog_estimate(rest),
        "exact-join" => cmd_exact_join(rest),
        "window-count" => cmd_window_count(rest),
        "apply-delta" => cmd_apply_delta(rest),
        "serve" => cmd_serve(rest),
        "client" => cmd_client(rest),
        "--help" | "-h" | "help" => Ok(CliOutput::new(USAGE)),
        other => Err(CliError::usage(format!(
            "unknown command {other:?}\n\n{USAGE}"
        ))),
    }
}

/// Top-level usage text.
pub const USAGE: &str = "\
sjsel — spatial join selectivity toolkit

USAGE:
  sjsel generate <ts|tcb|cas|car|sp|spg|scrc|sura> [--scale F] --out FILE.{csv|bin}
  sjsel stats FILE.csv [--validate strict|repair|skip]
  sjsel build-histogram FILE.csv --level L --out FILE.hist
        [--kind ph|gh-basic|gh|euler] [--shards N] [--sparse]
        [--extent x0,y0,x1,y1] [--threads N] [--validate P]
  sjsel merge-histogram A.hist B.hist [MORE.hist ...] --out FILE.hist
  sjsel estimate A.hist B.hist
  sjsel catalog-estimate A.csv B.csv [--kind K] [--level L]
        [--stats-dir DIR] [--json] [--validate P]
        [--no-ph-rebuild] [--no-parametric] [--no-sampling]
        [--sample-percent F] [--ph-level L]
  sjsel exact-join A.csv B.csv [--backend rtree|sweep] [--threads N] [--validate P]
  sjsel window-count FILE.hist --window x0,y0,x1,y1
  sjsel apply-delta BASE.hist --out FILE.hist [--inserts FILE.csv]
        [--deletes FILE.csv] [--threads N] [--validate P]
  sjsel serve FILE.csv [MORE.csv ...] [--addr HOST:PORT] [--kind K] [--level L]
        [--stats-dir DIR] [--validate P] [--ready-file PATH]
        [--max-connections N] [--io-timeout-ms MS]
  sjsel client --addr HOST:PORT [--timeout-ms MS] <ping|tables|shutdown>
  sjsel client --addr HOST:PORT estimate TABLE_A TABLE_B
  sjsel client --addr HOST:PORT catalog-estimate TABLE_A TABLE_B [--json]
  sjsel client --addr HOST:PORT window-count TABLE --window x0,y0,x1,y1
  sjsel client --addr HOST:PORT explain TABLE_A TABLE_B [MORE ...]
  sjsel client --addr HOST:PORT batch-estimate A,B [C,D ...]
  sjsel client --addr HOST:PORT insert-batch TABLE FILE.csv [--validate P]
  sjsel client --addr HOST:PORT delete-batch TABLE FILE.csv [--validate P]
  sjsel client --addr HOST:PORT compact TABLE

serve registers each dataset under its file stem as the table name and
answers until a client sends shutdown; with --addr ending in :0 the OS
picks the port and --ready-file receives the bound address. client
output is byte-identical to the matching cold subcommand; remote
failures exit with the cold path's exit code.

apply-delta builds the signed statistics delta of an insert/delete
batch and folds it into a histogram file — byte-identical to a full
rebuild over the mutated dataset. client insert-batch /
delete-batch apply the same batches to a live daemon's tables without
a restart, and client compact folds a table's logged batches into its
base file; with --stats-dir the daemon write-ahead-logs every batch
and replays the log on the next start.

--threads defaults to the machine's available parallelism (must be >= 1);
results are identical at every thread count.

serve admits at most --max-connections concurrent clients (default 64;
excess connections get a typed `overloaded` error) and, with
--io-timeout-ms, disconnects a client that stalls a read or write past
the deadline. client --timeout-ms bounds each request round-trip the
same way. All three must be >= 1.

EXIT CODES:
  0 success       1 runtime failure   2 usage error      3 I/O failure
  4 corrupt file  5 kind/grid mismatch  6 invalid dataset  7 estimators exhausted
  8 server overloaded";

/// Pulls the value following a `--flag`, removing both from `args`.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, CliError> {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        if pos + 1 >= args.len() {
            return Err(CliError::usage(format!("missing value for {flag}")));
        }
        let value = args.remove(pos + 1);
        args.remove(pos);
        Ok(Some(value))
    } else {
        Ok(None)
    }
}

/// Removes a boolean `--flag`, reporting whether it was present.
fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    let present = args.iter().any(|a| a == flag);
    args.retain(|a| a != flag);
    present
}

/// Parses `--threads N` (default: available parallelism). Zero threads is
/// a usage error, not a panic or a silent clamp.
fn take_threads(args: &mut Vec<String>) -> Result<Parallelism, CliError> {
    match take_flag(args, "--threads")? {
        Some(s) => {
            let n: usize = s
                .parse()
                .map_err(|e| CliError::usage(format!("bad --threads: {e}")))?;
            Parallelism::try_new(n).map_err(|e| CliError::usage(format!("bad --threads: {e}")))
        }
        None => Ok(Parallelism::default()),
    }
}

/// Parses a positive-integer flag. Zero is a usage error, not a silent
/// clamp — the `--threads 0` precedent.
fn take_positive(args: &mut Vec<String>, flag: &str) -> Result<Option<u64>, CliError> {
    match take_flag(args, flag)? {
        Some(s) => {
            let n: u64 = s
                .parse()
                .map_err(|e| CliError::usage(format!("bad {flag}: {e}")))?;
            if n == 0 {
                return Err(CliError::usage(format!("bad {flag}: must be >= 1")));
            }
            Ok(Some(n))
        }
        None => Ok(None),
    }
}

/// Parses `--validate strict|repair|skip` (default: strict).
fn take_validation(args: &mut Vec<String>) -> Result<ValidationPolicy, CliError> {
    match take_flag(args, "--validate")? {
        Some(s) => ValidationPolicy::parse(&s).map_err(CliError::usage),
        None => Ok(ValidationPolicy::Strict),
    }
}

fn parse_rect(spec: &str) -> Result<Rect, CliError> {
    let parts: Vec<&str> = spec.split(',').collect();
    if parts.len() != 4 {
        return Err(CliError::usage(format!(
            "expected x0,y0,x1,y1 — got {spec:?}"
        )));
    }
    let mut vals = [0f64; 4];
    for (v, p) in vals.iter_mut().zip(&parts) {
        *v = p
            .trim()
            .parse()
            .map_err(|e| CliError::usage(format!("bad coordinate {p:?}: {e}")))?;
    }
    Ok(Rect::new(vals[0], vals[1], vals[2], vals[3]))
}

/// Loads a dataset file under `policy`. Binary files carry their own
/// strict internal validation; CSV files go through the policy-driven
/// validated reader, pushing a warning when records were repaired or
/// dropped.
fn load_dataset(
    path: &str,
    policy: ValidationPolicy,
    warnings: &mut Vec<String>,
) -> Result<Dataset, CliError> {
    let p = Path::new(path);
    if p.extension().is_some_and(|e| e == "bin") {
        return Dataset::load_bin(p)
            .map_err(|e| CliError::io(format!("failed to load {path}: {e}")));
    }
    let (ds, report) = Dataset::load_csv_validated(p, policy, None)
        .map_err(|e| CliError::from_dataset(path, &e))?;
    if report.repaired > 0 || report.skipped > 0 {
        warnings.push(format!(
            "{path}: {} record(s) repaired, {} dropped of {} checked (--validate {})",
            report.repaired,
            report.skipped,
            report.checked,
            policy.name()
        ));
    }
    Ok(ds)
}

fn cmd_generate(args: &[String]) -> Result<CliOutput, CliError> {
    let mut args = args.to_vec();
    let scale: f64 = take_flag(&mut args, "--scale")?.map_or(Ok(1.0), |s| {
        s.parse()
            .map_err(|e| CliError::usage(format!("bad --scale: {e}")))
    })?;
    let out = take_flag(&mut args, "--out")?
        .ok_or_else(|| CliError::usage("generate requires --out FILE.csv"))?;
    let [preset] = args.as_slice() else {
        return Err(CliError::usage("generate takes exactly one preset name"));
    };
    let dataset = match preset.as_str() {
        "ts" => presets::ts(scale),
        "tcb" => presets::tcb(scale),
        "cas" => presets::cas(scale),
        "car" => presets::car(scale),
        "sp" => presets::sp(scale),
        "spg" => presets::spg(scale),
        "scrc" => presets::scrc(scale),
        "sura" => presets::sura(scale),
        other => return Err(CliError::usage(format!("unknown preset {other:?}"))),
    };
    let out_path = Path::new(&out);
    if out_path.extension().is_some_and(|e| e == "bin") {
        dataset.save_bin(out_path)
    } else {
        dataset.save_csv(out_path)
    }
    .map_err(|e| CliError::io(format!("failed to write {out}: {e}")))?;
    Ok(CliOutput::new(format!(
        "wrote {} rects ({}) to {out}",
        dataset.len(),
        dataset.name
    )))
}

fn cmd_stats(args: &[String]) -> Result<CliOutput, CliError> {
    let mut args = args.to_vec();
    let policy = take_validation(&mut args)?;
    let [path] = args.as_slice() else {
        return Err(CliError::usage("stats takes exactly one CSV path"));
    };
    let mut warnings = Vec::new();
    let ds = load_dataset(path, policy, &mut warnings)?;
    let s = ds.stats();
    let mut out = String::new();
    let _ = writeln!(out, "dataset        {}", ds.name);
    let _ = writeln!(out, "count          {}", s.count);
    let _ = writeln!(out, "coverage       {:.6}", s.coverage);
    let _ = writeln!(out, "avg width      {:.6}", s.avg_width);
    let _ = writeln!(out, "avg height     {:.6}", s.avg_height);
    let _ = write!(out, "degenerate     {:.1}%", s.degenerate_fraction * 100.0);
    Ok(CliOutput::with_warnings(out, warnings))
}

/// Human-facing label for a histogram family.
fn kind_label(kind: HistogramKind) -> &'static str {
    match kind {
        HistogramKind::Ph => "PH",
        HistogramKind::GhBasic => "GH-basic",
        HistogramKind::Gh => "GH",
        HistogramKind::Euler => "Euler",
    }
}

fn cmd_build_histogram(args: &[String]) -> Result<CliOutput, CliError> {
    let mut args = args.to_vec();
    let level: u32 = take_flag(&mut args, "--level")?
        .ok_or_else(|| CliError::usage("build-histogram requires --level"))?
        .parse()
        .map_err(|e| CliError::usage(format!("bad --level: {e}")))?;
    let out = take_flag(&mut args, "--out")?
        .ok_or_else(|| CliError::usage("build-histogram requires --out"))?;
    let kind_name = take_flag(&mut args, "--kind")?.unwrap_or_else(|| "gh".to_string());
    let kind: HistogramKind = kind_name.parse().map_err(|_| {
        CliError::usage(format!(
            "unknown kind {kind_name:?} (expected ph, gh-basic, gh or euler)"
        ))
    })?;
    let shards: usize = take_flag(&mut args, "--shards")?.map_or(Ok(0), |s| {
        s.parse()
            .map_err(|e| CliError::usage(format!("bad --shards: {e}")))
    })?;
    let par = take_threads(&mut args)?;
    let policy = take_validation(&mut args)?;
    let sparse = take_switch(&mut args, "--sparse");
    let extent = match take_flag(&mut args, "--extent")? {
        Some(spec) => Extent::new(parse_rect(&spec)?),
        None => Extent::unit(),
    };
    let [path] = args.as_slice() else {
        return Err(CliError::usage(
            "build-histogram takes exactly one CSV path",
        ));
    };
    if sparse && kind != HistogramKind::Gh {
        return Err(CliError::usage("--sparse is only supported for --kind gh"));
    }
    let mut warnings = Vec::new();
    let ds = load_dataset(path, policy, &mut warnings)?;
    let grid = Grid::new(level, extent).map_err(|e| CliError::usage(format!("bad grid: {e}")))?;
    // Shard-and-merge and direct builds are byte-identical, so --shards
    // is purely a demonstration/testing knob for the merge path.
    let hist = if shards > 1 {
        let chunk = ds.rects.len().div_ceil(shards).max(1);
        let pieces: Vec<&[Rect]> = ds.rects.chunks(chunk).collect();
        build_histogram_sharded(kind, grid, &pieces)
    } else {
        build_histogram_parallel(kind, grid, &ds.rects, par.threads())
    };
    let (bytes, label) = if sparse {
        let gh = hist
            .as_any()
            .downcast_ref::<GhHistogram>()
            .ok_or_else(|| CliError::runtime("internal: --sparse on a non-GH histogram"))?;
        (gh.to_sparse_bytes(), "GH (sparse)".to_string())
    } else {
        (hist.persist(), kind_label(kind).to_string())
    };
    std::fs::write(&out, &bytes)
        .map_err(|e| CliError::io(format!("failed to write {out}: {e}")))?;
    Ok(CliOutput::with_warnings(
        format!(
            "built {label} histogram (level {level}, {} bytes) from {} rects -> {out}",
            bytes.len(),
            ds.len()
        ),
        warnings,
    ))
}

/// Decodes a histogram file by its magic: the checksummed sparse GH file
/// that `build-histogram --sparse` writes, or otherwise the checksummed
/// envelope of any kind. No other layout is read, so every decode
/// failure is the typed error of the one reader the magic names.
fn decode_histogram(path: &str, bytes: &[u8]) -> Result<Box<dyn SpatialHistogram>, CliError> {
    let magic = bytes.get(..4).and_then(|m| m.try_into().ok());
    let decoded = if magic == Some(SPARSE_MAGIC.to_le_bytes()) {
        GhHistogram::from_sparse_bytes(bytes).map(|h| Box::new(h) as Box<dyn SpatialHistogram>)
    } else {
        load_histogram(bytes)
    };
    decoded.map_err(|e| CliError::from_histogram(path, &e))
}

fn cmd_estimate(args: &[String]) -> Result<CliOutput, CliError> {
    let [a_path, b_path] = args else {
        return Err(CliError::usage(
            "estimate takes exactly two histogram paths",
        ));
    };
    let read =
        |p: &String| std::fs::read(p).map_err(|e| CliError::io(format!("failed to read {p}: {e}")));
    let (a, b) = (
        decode_histogram(a_path, &read(a_path)?)?,
        decode_histogram(b_path, &read(b_path)?)?,
    );
    let est = a
        .estimate_join(b.as_ref())
        .map_err(|e| CliError::from_histogram("estimation failed", &e))?;

    Ok(CliOutput::new(format!(
        "selectivity {:.6e}\nestimated pairs {:.0}",
        est.selectivity, est.pairs
    )))
}

/// Escapes a string for embedding in a JSON document.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders a ladder outcome as the documented JSON document with its
/// `provenance` field. Takes the wire-flattened [`RemoteOutcome`] so the
/// cold `catalog-estimate` path and the warm `client catalog-estimate`
/// path are byte-identical by construction — both render through here.
fn outcome_json(outcome: &RemoteOutcome) -> String {
    let skipped = outcome
        .skipped
        .iter()
        .map(|(tier, reason)| {
            format!(
                "{{\"tier\":\"{tier}\",\"reason\":\"{}\"}}",
                json_escape(reason)
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"pairs\":{},\"selectivity\":{},\"provenance\":{{\"tier\":\"{}\",\
         \"degraded\":{},\"skipped\":[{}]}}}}",
        outcome.pairs, outcome.selectivity, outcome.tier_name, outcome.degraded, skipped
    )
}

/// Renders a ladder outcome as the documented text report (shared by the
/// cold and warm `catalog-estimate` paths).
fn outcome_text(outcome: &RemoteOutcome) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "selectivity {:.6e}", outcome.selectivity);
    let _ = writeln!(out, "estimated pairs {:.0}", outcome.pairs);
    let _ = write!(out, "tier {}", outcome.tier_display);
    for (tier, reason) in &outcome.skipped {
        let _ = write!(out, "\nskipped {tier}: {reason}");
    }
    out
}

/// The stderr warning emitted when a fallback tier served the estimate
/// (shared by the cold and warm `catalog-estimate` paths).
fn outcome_warning(outcome: &RemoteOutcome) -> Option<String> {
    if !outcome.degraded {
        return None;
    }
    let reasons = outcome
        .skipped
        .iter()
        .map(|(tier, reason)| format!("{tier}: {reason}"))
        .collect::<Vec<_>>()
        .join("; ");
    Some(format!(
        "estimate degraded to the {} tier ({reasons})",
        outcome.tier_display
    ))
}

/// Where `serve` and `catalog-estimate` look for a table's saved
/// statistics.
#[derive(Clone, Copy)]
struct SavedStatistics<'a> {
    /// `--stats-dir`: a `<stem>.hist` there is read, leniently, instead
    /// of building statistics.
    dir: Option<&'a Path>,
    /// `serve` only: a `<stem>.base` there means the table's
    /// authoritative state lives in the statistics store (folded
    /// mutations mean the dataset file no longer describes it), so its
    /// statistics are deferred to `open_stats_store`, which installs them
    /// from the base file, instead of being loaded or built only to be
    /// replaced.
    defer_to_base: bool,
}

/// One table's start-up work, everything that depends on its own file
/// alone: reads and validates the dataset, then builds its statistics,
/// reads its saved `.hist` (unusable statistics become a warning and a
/// degraded table, not a failure) or defers to its `.base`. Returns the
/// prepared table and its warnings in the order they arose.
fn prepare_table(
    catalog: &Catalog,
    path: &str,
    name: String,
    validate: ValidationPolicy,
    saved: SavedStatistics<'_>,
) -> Result<(PreparedTable, Vec<String>), CliError> {
    let mut warnings = Vec::new();
    let mut ds = load_dataset(path, validate, &mut warnings)?;
    ds.name = name;
    let Some(dir) = saved.dir else {
        return Ok((catalog.prepare_table(ds), warnings));
    };
    let stem = table_name_for(path);
    if saved.defer_to_base && dir.join(format!("{stem}.base")).exists() {
        return Ok((Catalog::prepare_deferred(ds), warnings));
    }
    let file = dir.join(format!("{stem}.hist"));
    if !file.exists() {
        return Ok((catalog.prepare_table(ds), warnings));
    }
    let bytes = std::fs::read(&file)
        .map_err(|e| CliError::io(format!("failed to read {}: {e}", file.display())))?;
    let (prepared, reason) = catalog.prepare_with_statistics_lenient(ds, &bytes);
    if let Some(reason) = reason {
        warnings.push(format!(
            "statistics {} unusable for table {:?}: {reason}; estimation will degrade",
            file.display(),
            prepared.name()
        ));
    }
    Ok((prepared, warnings))
}

/// Loads `(path, table name)` pairs into `catalog`: each path's
/// [`prepare_table`] runs on a worker of `par` (DESIGN.md §6a), then the
/// tables are inserted in argument order. Table slots, the warnings and
/// the error returned are the serial order's at every thread count: the
/// first failing path in argument order decides the error.
fn load_tables(
    catalog: &mut Catalog,
    tables: Vec<(&str, String)>,
    validate: ValidationPolicy,
    saved: SavedStatistics<'_>,
    par: Parallelism,
    warnings: &mut Vec<String>,
) -> Result<(), CliError> {
    let shared = &*catalog;
    let prepared = parallel_map(tables, par, |(path, name)| {
        prepare_table(shared, path, name, validate, saved)
    });
    for result in prepared {
        let (table, table_warnings) = result?;
        warnings.extend(table_warnings);
        catalog
            .insert_prepared(table)
            .map_err(|e| CliError::from_query("registration failed", &e))?;
    }
    Ok(())
}

fn cmd_catalog_estimate(args: &[String]) -> Result<CliOutput, CliError> {
    let mut args = args.to_vec();
    let level: u32 = take_flag(&mut args, "--level")?.map_or(Ok(6), |s| {
        s.parse()
            .map_err(|e| CliError::usage(format!("bad --level: {e}")))
    })?;
    let kind: HistogramKind = match take_flag(&mut args, "--kind")? {
        Some(name) => name.parse().map_err(|_| {
            CliError::usage(format!(
                "unknown kind {name:?} (expected ph, gh-basic, gh or euler)"
            ))
        })?,
        None => HistogramKind::Gh,
    };
    let stats_dir = take_flag(&mut args, "--stats-dir")?;
    let json = take_switch(&mut args, "--json");
    let validate = take_validation(&mut args)?;

    let mut policy = DegradationPolicy::default();
    if take_switch(&mut args, "--no-ph-rebuild") {
        policy.allow_ph_rebuild = false;
    }
    if take_switch(&mut args, "--no-parametric") {
        policy.allow_parametric = false;
    }
    if take_switch(&mut args, "--no-sampling") {
        policy.sampling_percent = None;
    }
    if let Some(p) = take_flag(&mut args, "--sample-percent")? {
        let p: f64 = p
            .parse()
            .map_err(|e| CliError::usage(format!("bad --sample-percent: {e}")))?;
        policy.sampling_percent = Some(p);
    }
    if let Some(l) = take_flag(&mut args, "--ph-level")? {
        policy.ph_level = l
            .parse()
            .map_err(|e| CliError::usage(format!("bad --ph-level: {e}")))?;
    }

    let [a_path, b_path] = args.as_slice() else {
        return Err(CliError::usage(
            "catalog-estimate takes exactly two dataset paths",
        ));
    };

    let mut catalog = Catalog::try_new(CatalogConfig {
        kind,
        grid_level: level,
        ..CatalogConfig::default()
    })
    .map_err(|e| CliError::from_query("bad catalog configuration", &e))?;
    // Joining a dataset file against itself is legitimate; keep the
    // catalog names unique. A table's saved statistics are
    // `<stem>.hist` in --stats-dir. The daemon's compactions write only
    // `<stem>.base`, so a saved `.hist` keeps describing the dataset file
    // it was built from, and no `.base` is consulted here.
    let name_a = format!("{}#a", table_name_for(a_path));
    let name_b = format!("{}#b", table_name_for(b_path));
    let mut warnings = Vec::new();
    load_tables(
        &mut catalog,
        vec![(a_path, name_a.clone()), (b_path, name_b.clone())],
        validate,
        SavedStatistics {
            dir: stats_dir.as_deref().map(Path::new),
            defer_to_base: false,
        },
        Parallelism::available(),
        &mut warnings,
    )?;

    let outcome = catalog
        .estimate_join_pairs_detailed(&name_a, &name_b, &policy)
        .map_err(|e| CliError::from_query("estimation failed", &e))?;
    // Flatten to the wire representation so this output goes through the
    // exact renderers the warm `client catalog-estimate` path uses.
    let outcome = RemoteOutcome::from_outcome(&outcome);

    if let Some(w) = outcome_warning(&outcome) {
        warnings.push(w);
    }
    let stdout = if json {
        outcome_json(&outcome)
    } else {
        outcome_text(&outcome)
    };
    Ok(CliOutput::with_warnings(stdout, warnings))
}

fn cmd_merge_histogram(args: &[String]) -> Result<CliOutput, CliError> {
    let mut args = args.to_vec();
    let out = take_flag(&mut args, "--out")?
        .ok_or_else(|| CliError::usage("merge-histogram requires --out"))?;
    let (first, rest) = match args.as_slice() {
        [first, rest @ ..] if !rest.is_empty() => (first, rest),
        _ => {
            return Err(CliError::usage(
                "merge-histogram takes at least two histogram paths",
            ))
        }
    };
    let read =
        |p: &String| std::fs::read(p).map_err(|e| CliError::io(format!("failed to read {p}: {e}")));
    let mut acc = decode_histogram(first, &read(first)?)?;
    for path in rest {
        let h = decode_histogram(path, &read(path)?)?;
        acc.merge(h.as_ref())
            .map_err(|e| CliError::from_histogram(&format!("cannot merge {path}"), &e))?;
    }
    let bytes = acc.persist();
    std::fs::write(&out, &bytes)
        .map_err(|e| CliError::io(format!("failed to write {out}: {e}")))?;
    Ok(CliOutput::new(format!(
        "merged {} {} histograms ({} objects, {} bytes) -> {out}",
        args.len(),
        kind_label(acc.kind()),
        acc.dataset_len(),
        bytes.len()
    )))
}

fn cmd_exact_join(args: &[String]) -> Result<CliOutput, CliError> {
    let mut args = args.to_vec();
    let backend = take_flag(&mut args, "--backend")?.unwrap_or_else(|| "rtree".to_string());
    let par = take_threads(&mut args)?;
    let policy = take_validation(&mut args)?;
    let [a_path, b_path] = args.as_slice() else {
        return Err(CliError::usage("exact-join takes exactly two CSV paths"));
    };
    let mut warnings = Vec::new();
    let (a, b) = (
        load_dataset(a_path, policy, &mut warnings)?,
        load_dataset(b_path, policy, &mut warnings)?,
    );
    let baseline = match backend.as_str() {
        "rtree" => JoinBaseline::compute_with_parallelism(&a, &b, RTreeConfig::default(), par),
        "sweep" => JoinBaseline::compute_with_backend_parallelism(
            &a,
            &b,
            sj_core::ExactBackend::PlaneSweep,
            par,
        ),
        other => return Err(CliError::usage(format!("unknown backend {other:?}"))),
    };
    Ok(CliOutput::with_warnings(
        format!(
            "pairs {}\nselectivity {:.6e}\njoin time {:?}",
            baseline.pairs, baseline.selectivity, baseline.join_time
        ),
        warnings,
    ))
}

fn cmd_window_count(args: &[String]) -> Result<CliOutput, CliError> {
    let mut args = args.to_vec();
    let window = take_flag(&mut args, "--window")?
        .ok_or_else(|| CliError::usage("window-count requires --window x0,y0,x1,y1"))?;
    let window = parse_rect(&window)?;
    let [path] = args.as_slice() else {
        return Err(CliError::usage(
            "window-count takes exactly one histogram path",
        ));
    };
    let bytes =
        std::fs::read(path).map_err(|e| CliError::io(format!("failed to read {path}: {e}")))?;
    let h = decode_histogram(path, &bytes)?;
    let gh = h
        .as_any()
        .downcast_ref::<GhHistogram>()
        .ok_or_else(|| CliError {
            message: format!(
                "{path}: not a GH histogram file (found kind {})",
                kind_label(h.kind())
            ),
            code: exit_code::MISMATCH,
        })?;
    Ok(CliOutput::new(format!(
        "estimated objects intersecting window: {:.0}",
        gh.estimate_window_count(&window)
    )))
}

/// The table name a dataset path registers under in `serve`: the file
/// stem, matching the `<stem>.hist` convention of `--stats-dir`.
fn table_name_for(path: &str) -> String {
    Path::new(path).file_stem().map_or_else(
        || "dataset".to_string(),
        |s| s.to_string_lossy().into_owned(),
    )
}

fn cmd_apply_delta(args: &[String]) -> Result<CliOutput, CliError> {
    let mut args = args.to_vec();
    let out = take_flag(&mut args, "--out")?
        .ok_or_else(|| CliError::usage("apply-delta requires --out"))?;
    let inserts_path = take_flag(&mut args, "--inserts")?;
    let deletes_path = take_flag(&mut args, "--deletes")?;
    let par = take_threads(&mut args)?;
    let policy = take_validation(&mut args)?;
    let [base_path] = args.as_slice() else {
        return Err(CliError::usage(
            "apply-delta takes exactly one base histogram path",
        ));
    };
    if inserts_path.is_none() && deletes_path.is_none() {
        return Err(CliError::usage(
            "apply-delta requires --inserts and/or --deletes",
        ));
    }
    let mut warnings = Vec::new();
    let bytes = std::fs::read(base_path)
        .map_err(|e| CliError::io(format!("failed to read {base_path}: {e}")))?;
    let mut hist = decode_histogram(base_path, &bytes)?;
    let load_batch = |path: &Option<String>, warnings: &mut Vec<String>| match path {
        Some(p) => Ok(load_dataset(p, policy, warnings)?.rects),
        None => Ok(Vec::new()),
    };
    let inserts = load_batch(&inserts_path, &mut warnings)?;
    let deletes = load_batch(&deletes_path, &mut warnings)?;
    let delta = sj_core::HistogramDelta::build_parallel(
        hist.kind(),
        hist.grid(),
        &inserts,
        &deletes,
        par.threads(),
    );
    hist.apply_delta(&delta)
        .map_err(|e| CliError::from_histogram(base_path, &e))?;
    let out_bytes = hist.persist();
    std::fs::write(&out, &out_bytes)
        .map_err(|e| CliError::io(format!("failed to write {out}: {e}")))?;
    Ok(CliOutput::with_warnings(
        format!(
            "applied delta (+{} -{} rects) to {} ({} bytes) -> {out}",
            delta.inserts(),
            delta.deletes(),
            kind_label(hist.kind()),
            out_bytes.len()
        ),
        warnings,
    ))
}

fn cmd_serve(args: &[String]) -> Result<CliOutput, CliError> {
    let mut args = args.to_vec();
    let addr = take_flag(&mut args, "--addr")?.unwrap_or_else(|| "127.0.0.1:7878".to_string());
    let level: u32 = take_flag(&mut args, "--level")?.map_or(Ok(6), |s| {
        s.parse()
            .map_err(|e| CliError::usage(format!("bad --level: {e}")))
    })?;
    let kind: HistogramKind = match take_flag(&mut args, "--kind")? {
        Some(name) => name.parse().map_err(|_| {
            CliError::usage(format!(
                "unknown kind {name:?} (expected ph, gh-basic, gh or euler)"
            ))
        })?,
        None => HistogramKind::Gh,
    };
    let stats_dir = take_flag(&mut args, "--stats-dir")?;
    let validate = take_validation(&mut args)?;
    let ready_file = take_flag(&mut args, "--ready-file")?;
    let mut server_config = ServerConfig::default();
    if let Some(n) = take_positive(&mut args, "--max-connections")? {
        server_config.max_connections = usize::try_from(n)
            .map_err(|_| CliError::usage("bad --max-connections: value too large"))?;
    }
    if let Some(ms) = take_positive(&mut args, "--io-timeout-ms")? {
        server_config.io_timeout = Some(std::time::Duration::from_millis(ms));
    }
    if args.is_empty() {
        return Err(CliError::usage("serve takes at least one dataset path"));
    }

    // Load the catalog ONCE, the entire point of the daemon: every
    // request after this point pays only the estimation arithmetic. The
    // tables load and build concurrently, one worker per core, and are
    // inserted in argument order, so the catalog is the serial one.
    let mut warnings = Vec::new();
    let mut catalog = Catalog::try_new(CatalogConfig {
        kind,
        grid_level: level,
        ..CatalogConfig::default()
    })
    .map_err(|e| CliError::from_query("bad catalog configuration", &e))?;
    load_tables(
        &mut catalog,
        args.iter()
            .map(|p| (p.as_str(), table_name_for(p)))
            .collect(),
        validate,
        SavedStatistics {
            dir: stats_dir.as_deref().map(Path::new),
            defer_to_base: true,
        },
        Parallelism::available(),
        &mut warnings,
    )?;

    // With a statistics directory the daemon keeps a per-table
    // write-ahead delta log there: mutations survive a crash and are
    // replayed into the in-memory statistics on the next start.
    if let Some(dir) = &stats_dir {
        let recovery = catalog
            .open_stats_store(Path::new(dir), CompactionPolicy::default())
            .map_err(|e| CliError::from_query("failed to open statistics store", &e))?;
        if recovery.installed > 0 || recovery.replayed > 0 || recovery.torn_tails > 0 {
            warnings.push(format!(
                "recovered statistics from {dir}: {} snapshot(s) installed, \
                 {} WAL record(s) replayed, {} already-folded record(s) skipped, \
                 {} torn tail(s) discarded",
                recovery.installed, recovery.replayed, recovery.skipped, recovery.torn_tails
            ));
        }
    }

    let service = CatalogService::new(
        Arc::new(OrderedRwLock::new(
            LockRank::Catalog,
            "serve.catalog",
            catalog,
        )),
        DegradationPolicy::default(),
    );
    let server = Server::bind_with_config(addr.as_str(), service, server_config)
        .map_err(|e| CliError::io(format!("serve: {e}")))?;
    let local = server
        .local_addr()
        .map_err(|e| CliError::io(format!("serve: {e}")))?;
    // The readiness signal for scripts and tests: written only after the
    // bind succeeded, carrying the OS-assigned port of an `:0` bind.
    if let Some(rf) = &ready_file {
        std::fs::write(rf, format!("{local}\n"))
            .map_err(|e| CliError::io(format!("failed to write {rf}: {e}")))?;
    }
    // Announce on stderr immediately: stdout is returned only after the
    // daemon stops, and piping stdout must stay clean.
    for w in &warnings {
        eprintln!("warning: {w}");
    }
    warnings.clear();
    eprintln!(
        "sj-server listening on {local} ({} table(s)); stop with: sjsel client --addr {local} shutdown",
        args.len()
    );
    server
        .run()
        .map_err(|e| CliError::runtime(format!("serve: {e}")))?;
    Ok(CliOutput::new(format!("server on {local} stopped")))
}

/// Maps a client-layer failure onto the exit-code taxonomy: remote
/// failures carry the status the cold path would have exited with, wire
/// failures use the codec's own status mapping.
fn from_client(e: ClientError) -> CliError {
    match e {
        ClientError::Remote { status, message } => CliError {
            message,
            code: i32::from(status),
        },
        ClientError::Wire(w) => CliError {
            message: w.to_string(),
            code: i32::from(w.status()),
        },
        ClientError::Protocol(why) => CliError::runtime(format!("protocol violation: {why}")),
        // Future (non_exhaustive) client errors default to runtime.
        _ => CliError::runtime(e.to_string()),
    }
}

fn cmd_client(args: &[String]) -> Result<CliOutput, CliError> {
    let mut args = args.to_vec();
    let addr = take_flag(&mut args, "--addr")?
        .ok_or_else(|| CliError::usage("client requires --addr HOST:PORT"))?;
    let json = take_switch(&mut args, "--json");
    let window = take_flag(&mut args, "--window")?;
    let validate = take_validation(&mut args)?;
    let timeout_ms = take_positive(&mut args, "--timeout-ms")?;
    let Some((op, rest)) = args.split_first() else {
        return Err(CliError::usage(
            "client requires an operation (ping, tables, estimate, catalog-estimate, \
             window-count, explain, batch-estimate, insert-batch, delete-batch, \
             compact, shutdown)",
        ));
    };
    // Retry on the fixed backoff schedule: a daemon that is still
    // binding (scripts often start both at once) is reached without a
    // race, while a permanently absent one still fails with the I/O
    // exit code after the bounded schedule runs out.
    let mut client = Client::connect_with_retry(addr.as_str()).map_err(from_client)?;
    if let Some(ms) = timeout_ms {
        client
            .set_io_timeout(Some(std::time::Duration::from_millis(ms)))
            .map_err(from_client)?;
    }
    match (op.as_str(), rest) {
        ("ping", []) => {
            client.ping().map_err(from_client)?;
            Ok(CliOutput::new("pong"))
        }
        ("tables", []) => {
            let names = client.tables().map_err(from_client)?;
            Ok(CliOutput::new(names.join("\n")))
        }
        ("estimate", [a, b]) => {
            let reply = client.estimate(a, b).map_err(from_client)?;
            Ok(CliOutput::new(format!(
                "selectivity {:.6e}\nestimated pairs {:.0}",
                reply.selectivity, reply.pairs
            )))
        }
        ("catalog-estimate", [a, b]) => {
            let outcome = client.catalog_estimate(a, b).map_err(from_client)?;
            let stdout = if json {
                outcome_json(&outcome)
            } else {
                outcome_text(&outcome)
            };
            let warnings = outcome_warning(&outcome).into_iter().collect();
            Ok(CliOutput::with_warnings(stdout, warnings))
        }
        ("window-count", [table]) => {
            let window =
                window.ok_or_else(|| CliError::usage("client window-count requires --window"))?;
            let rect = parse_rect(&window)?;
            let count = client.window_count(table, &rect).map_err(from_client)?;
            Ok(CliOutput::new(format!(
                "estimated objects intersecting window: {count:.0}"
            )))
        }
        ("explain", tables) if tables.len() >= 2 => {
            let text = client.explain(tables).map_err(from_client)?;
            Ok(CliOutput::new(text))
        }
        ("batch-estimate", specs) if !specs.is_empty() => {
            let mut pairs = Vec::with_capacity(specs.len());
            for spec in specs {
                let Some((a, b)) = spec.split_once(',') else {
                    return Err(CliError::usage(format!(
                        "batch-estimate items are TABLE_A,TABLE_B — got {spec:?}"
                    )));
                };
                pairs.push((a.trim().to_string(), b.trim().to_string()));
            }
            let items = client.batch_estimate(&pairs).map_err(from_client)?;
            let mut out = String::new();
            let mut warnings = Vec::new();
            for ((a, b), item) in pairs.iter().zip(&items) {
                match item {
                    Ok(reply) => {
                        let _ = writeln!(
                            out,
                            "{a} {b} selectivity {:.6e} pairs {:.0}",
                            reply.selectivity, reply.pairs
                        );
                    }
                    Err(failure) => {
                        let _ = writeln!(out, "{a} {b} error {}", failure.message);
                        warnings.push(format!("batch item {a},{b} failed: {}", failure.message));
                    }
                }
            }
            out.truncate(out.trim_end_matches('\n').len());
            Ok(CliOutput::with_warnings(out, warnings))
        }
        ("insert-batch" | "delete-batch", [table, file]) => {
            let mut warnings = Vec::new();
            let ds = load_dataset(file, validate, &mut warnings)?;
            // The retrying path: the batch is stamped once and resent
            // verbatim after an ambiguous connection failure, and the
            // server's dedup ring makes the retry exactly-once.
            let reply = if op == "insert-batch" {
                client.insert_batch_with_retry(table, &ds.rects)
            } else {
                client.delete_batch_with_retry(table, &ds.rects)
            }
            .map_err(from_client)?;
            Ok(CliOutput::with_warnings(
                format!(
                    "{op} applied {} rect(s) to {table}; {} pending delta tier(s){}{}",
                    reply.applied,
                    reply.pending_tiers,
                    if reply.compacted {
                        " (auto-compacted)"
                    } else {
                        ""
                    },
                    if reply.deduplicated {
                        " (already applied; retry deduplicated)"
                    } else {
                        ""
                    }
                ),
                warnings,
            ))
        }
        ("compact", [table]) => {
            let reply = client.compact(table).map_err(from_client)?;
            Ok(CliOutput::new(format!(
                "compacted {table}: {} tier(s) folded{}",
                reply.tiers_folded,
                if reply.persisted {
                    "; statistics file rewritten"
                } else {
                    ""
                }
            )))
        }
        ("shutdown", []) => {
            client.shutdown_server().map_err(from_client)?;
            Ok(CliOutput::new("server shut down"))
        }
        (other, _) => Err(CliError::usage(format!(
            "unknown or malformed client operation {other:?} (see sjsel --help)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| (*s).to_string()).collect()
    }

    /// A scratch directory private to one test of one process, so
    /// concurrent runs never share files; removed when dropped.
    pub(super) struct Scratch(std::path::PathBuf);

    impl Scratch {
        pub(super) fn new(test: &str) -> Self {
            let dir = std::env::temp_dir().join(format!("sjsel-{}-{test}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            std::fs::create_dir_all(&dir).unwrap();
            Scratch(dir)
        }

        /// The path of `name` inside the scratch directory.
        pub(super) fn file(&self, name: &str) -> String {
            self.0.join(name).to_string_lossy().into_owned()
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.0).ok();
        }
    }

    #[test]
    fn help_and_unknown_command() {
        assert!(run(&argv(&["--help"])).unwrap().contains("USAGE"));
        let err = run(&argv(&["frobnicate"])).unwrap_err();
        assert_eq!(err.code, exit_code::USAGE);
        assert!(err.message.contains("unknown command"));
        assert_eq!(run(&[]).unwrap_err().code, exit_code::USAGE);
    }

    #[test]
    fn generate_stats_roundtrip() {
        let scratch = Scratch::new("generate_stats_roundtrip");
        let csv = scratch.file("scrc_small.csv");
        let out = run(&argv(&[
            "generate", "scrc", "--scale", "0.001", "--out", &csv,
        ]))
        .unwrap();
        assert!(out.contains("100 rects"), "{out}");
        let stats = run(&argv(&["stats", &csv])).unwrap();
        assert!(stats.contains("count          100"), "{stats}");
        assert!(stats.warnings.is_empty(), "{:?}", stats.warnings);
    }

    #[test]
    fn full_pipeline_generate_build_estimate() {
        let scratch = Scratch::new("full_pipeline_generate_build_estimate");
        let a_csv = scratch.file("pipe_a.csv");
        let b_csv = scratch.file("pipe_b.csv");
        run(&argv(&[
            "generate", "scrc", "--scale", "0.01", "--out", &a_csv,
        ]))
        .unwrap();
        run(&argv(&[
            "generate", "sura", "--scale", "0.01", "--out", &b_csv,
        ]))
        .unwrap();

        let a_hist = scratch.file("pipe_a.hist");
        let b_hist = scratch.file("pipe_b.hist");
        run(&argv(&[
            "build-histogram",
            &a_csv,
            "--level",
            "5",
            "--out",
            &a_hist,
        ]))
        .unwrap();
        run(&argv(&[
            "build-histogram",
            &b_csv,
            "--level",
            "5",
            "--out",
            &b_hist,
        ]))
        .unwrap();

        let est = run(&argv(&["estimate", &a_hist, &b_hist])).unwrap();
        assert!(est.contains("selectivity"), "{est}");

        let exact = run(&argv(&["exact-join", &a_csv, &b_csv])).unwrap();
        assert!(exact.contains("pairs"), "{exact}");
        let exact_sweep =
            run(&argv(&["exact-join", &a_csv, &b_csv, "--backend", "sweep"])).unwrap();
        let pairs_of = |s: &str| {
            s.lines()
                .find_map(|l| l.strip_prefix("pairs "))
                .unwrap()
                .to_string()
        };
        assert_eq!(pairs_of(&exact), pairs_of(&exact_sweep));
    }

    #[test]
    fn window_count_command() {
        let scratch = Scratch::new("window_count_command");
        let csv = scratch.file("wc.csv");
        run(&argv(&[
            "generate", "sura", "--scale", "0.01", "--out", &csv,
        ]))
        .unwrap();
        let hist = scratch.file("wc.hist");
        run(&argv(&[
            "build-histogram",
            &csv,
            "--level",
            "5",
            "--out",
            &hist,
        ]))
        .unwrap();
        let out = run(&argv(&["window-count", &hist, "--window", "0,0,0.5,0.5"])).unwrap();
        assert!(out.contains("estimated objects"), "{out}");
    }

    #[test]
    fn scheme_mismatch_is_an_error() {
        let scratch = Scratch::new("scheme_mismatch_is_an_error");
        let csv = scratch.file("mix.csv");
        run(&argv(&[
            "generate", "sura", "--scale", "0.005", "--out", &csv,
        ]))
        .unwrap();
        let gh = scratch.file("mix_gh.hist");
        let ph = scratch.file("mix_ph.hist");
        run(&argv(&[
            "build-histogram",
            &csv,
            "--level",
            "3",
            "--out",
            &gh,
        ]))
        .unwrap();
        run(&argv(&[
            "build-histogram",
            &csv,
            "--level",
            "3",
            "--kind",
            "ph",
            "--out",
            &ph,
        ]))
        .unwrap();
        let err = run(&argv(&["estimate", &gh, &ph])).unwrap_err();
        assert_eq!(err.code, exit_code::MISMATCH);
        assert!(err.message.contains("common scheme"), "{}", err.message);
    }

    #[test]
    fn bad_arguments_are_usage_errors() {
        assert_eq!(
            run(&argv(&["generate", "nope", "--out", "/tmp/x"]))
                .unwrap_err()
                .code,
            exit_code::USAGE
        );
        assert_eq!(
            run(&argv(&["generate", "ts"])).unwrap_err().code,
            exit_code::USAGE
        );
        assert_eq!(
            run(&argv(&["build-histogram", "x.csv", "--out", "y"]))
                .unwrap_err()
                .code,
            exit_code::USAGE,
            "missing --level"
        );
        assert_eq!(
            run(&argv(&["window-count", "x", "--window", "1,2,3"]))
                .unwrap_err()
                .code,
            exit_code::USAGE,
            "malformed window"
        );
        assert_eq!(
            run(&argv(&["stats", "/nonexistent/x.csv"]))
                .unwrap_err()
                .code,
            exit_code::IO
        );
    }

    #[test]
    fn threads_zero_is_a_clean_usage_error() {
        let scratch = Scratch::new("threads_zero_is_a_clean_usage_error");
        let csv = scratch.file("t0.csv");
        run(&argv(&[
            "generate", "sura", "--scale", "0.002", "--out", &csv,
        ]))
        .unwrap();
        for cmd in [
            argv(&[
                "build-histogram",
                &csv,
                "--level",
                "3",
                "--threads",
                "0",
                "--out",
                &scratch.file("t0.hist"),
            ]),
            argv(&["exact-join", &csv, &csv, "--threads", "0"]),
        ] {
            let err = run(&cmd).unwrap_err();
            assert_eq!(err.code, exit_code::USAGE, "{}", err.message);
            assert!(err.message.contains("--threads"), "{}", err.message);
        }
    }

    #[test]
    fn admission_flags_reject_zero_and_garbage() {
        // All three parse before any socket or file is touched, so a
        // bad value is a clean usage error even with no daemon running.
        for (cmd, flag) in [
            (
                argv(&["serve", "absent.csv", "--max-connections", "0"]),
                "--max-connections",
            ),
            (
                argv(&["serve", "absent.csv", "--io-timeout-ms", "0"]),
                "--io-timeout-ms",
            ),
            (
                argv(&["serve", "absent.csv", "--max-connections", "lots"]),
                "--max-connections",
            ),
            (
                argv(&[
                    "client",
                    "--addr",
                    "127.0.0.1:1",
                    "--timeout-ms",
                    "0",
                    "ping",
                ]),
                "--timeout-ms",
            ),
        ] {
            let err = run(&cmd).unwrap_err();
            assert_eq!(err.code, exit_code::USAGE, "{}", err.message);
            assert!(err.message.contains(flag), "{}", err.message);
        }
    }

    #[test]
    fn corrupt_histogram_files_exit_with_corrupt_code() {
        let scratch = Scratch::new("corrupt_histogram_files_exit_with_corrupt_code");
        let csv = scratch.file("cor.csv");
        run(&argv(&[
            "generate", "scrc", "--scale", "0.005", "--out", &csv,
        ]))
        .unwrap();
        let hist = scratch.file("cor.hist");
        run(&argv(&[
            "build-histogram",
            &csv,
            "--level",
            "4",
            "--out",
            &hist,
        ]))
        .unwrap();

        // Bit-flip the payload: the CRC32 must catch it, exit code 4.
        let mut bytes = std::fs::read(&hist).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x08;
        let flipped = scratch.file("cor_flipped.hist");
        std::fs::write(&flipped, &bytes).unwrap();
        let err = run(&argv(&["estimate", &flipped, &hist])).unwrap_err();
        assert_eq!(err.code, exit_code::CORRUPT, "{}", err.message);
        assert!(err.message.contains("corrupt"), "{}", err.message);

        // Truncation breaks the length frame, exit code 4.
        let full = std::fs::read(&hist).unwrap();
        let truncated = scratch.file("cor_trunc.hist");
        std::fs::write(&truncated, &full[..full.len() / 2]).unwrap();
        let err = run(&argv(&["window-count", &truncated, "--window", "0,0,1,1"])).unwrap_err();
        assert_eq!(err.code, exit_code::CORRUPT, "{}", err.message);

        // Unreadable files are I/O errors, not corruption.
        let err = run(&argv(&["estimate", "/nonexistent/a.hist", &hist])).unwrap_err();
        assert_eq!(err.code, exit_code::IO);
    }

    #[test]
    fn invalid_datasets_exit_with_data_code_and_location() {
        let scratch = Scratch::new("invalid_datasets_exit_with_data_code_and_location");
        let bad = scratch.file("bad_field.csv");
        std::fs::write(&bad, "0,0,1,1\n0.1,0.2,oops,0.4\n").unwrap();
        let err = run(&argv(&["stats", &bad])).unwrap_err();
        assert_eq!(err.code, exit_code::INVALID_DATA);
        assert!(
            err.message.contains("line 2") && err.message.contains("field xhi"),
            "{}",
            err.message
        );

        let inverted = scratch.file("bad_inverted.csv");
        std::fs::write(&inverted, "0,0,1,1\n0.9,0.0,0.1,1.0\n").unwrap();
        let err = run(&argv(&["stats", &inverted])).unwrap_err();
        assert_eq!(err.code, exit_code::INVALID_DATA);
        assert!(err.message.contains("line 2"), "{}", err.message);

        let empty = scratch.file("empty.csv");
        std::fs::write(&empty, "\n\n").unwrap();
        let err = run(&argv(&["stats", &empty])).unwrap_err();
        assert_eq!(err.code, exit_code::INVALID_DATA);
        assert!(err.message.contains("empty"), "{}", err.message);
    }

    #[test]
    fn validation_policies_repair_and_skip_with_warnings() {
        let scratch = Scratch::new("validation_policies_repair_and_skip_with_warnings");
        let path = scratch.file("val_mixed.csv");
        std::fs::write(&path, "0,0,1,1\n0.9,0.0,0.1,1.0\nnan,0,1,1\n").unwrap();

        let out = run(&argv(&["stats", &path, "--validate", "repair"])).unwrap();
        assert!(out.contains("count          2"), "{out}");
        assert_eq!(out.warnings.len(), 1, "{:?}", out.warnings);
        assert!(
            out.warnings[0].contains("1 record(s) repaired, 1 dropped"),
            "{:?}",
            out.warnings
        );

        let out = run(&argv(&["stats", &path, "--validate", "skip"])).unwrap();
        assert!(out.contains("count          1"), "{out}");
        assert!(out.warnings[0].contains("2 dropped"), "{:?}", out.warnings);

        let err = run(&argv(&["stats", &path, "--validate", "lenient"])).unwrap_err();
        assert_eq!(err.code, exit_code::USAGE);
    }

    #[test]
    fn catalog_estimate_healthy_serves_primary() {
        let scratch = Scratch::new("catalog_estimate_healthy_serves_primary");
        let a_csv = scratch.file("ce_a.csv");
        let b_csv = scratch.file("ce_b.csv");
        run(&argv(&[
            "generate", "scrc", "--scale", "0.01", "--out", &a_csv,
        ]))
        .unwrap();
        run(&argv(&[
            "generate", "sura", "--scale", "0.01", "--out", &b_csv,
        ]))
        .unwrap();

        let out = run(&argv(&["catalog-estimate", &a_csv, &b_csv, "--level", "4"])).unwrap();
        assert!(out.contains("tier primary (gh)"), "{out}");
        assert!(out.warnings.is_empty(), "{:?}", out.warnings);

        let json = run(&argv(&[
            "catalog-estimate",
            &a_csv,
            &b_csv,
            "--level",
            "4",
            "--json",
        ]))
        .unwrap();
        assert!(json.contains("\"provenance\""), "{json}");
        assert!(json.contains("\"tier\":\"primary\""), "{json}");
        assert!(json.contains("\"degraded\":false"), "{json}");
        assert!(json.contains("\"skipped\":[]"), "{json}");

        // Self-join of one file works (unique table names).
        let selfjoin = run(&argv(&["catalog-estimate", &a_csv, &a_csv, "--level", "4"])).unwrap();
        assert!(selfjoin.contains("tier primary"), "{selfjoin}");
    }

    #[test]
    fn catalog_estimate_degrades_on_corrupt_statistics() {
        let scratch = Scratch::new("catalog_estimate_degrades_on_corrupt_statistics");
        let a_csv = scratch.file("ced_a.csv");
        let b_csv = scratch.file("ced_b.csv");
        run(&argv(&[
            "generate", "scrc", "--scale", "0.01", "--out", &a_csv,
        ]))
        .unwrap();
        run(&argv(&[
            "generate", "sura", "--scale", "0.01", "--out", &b_csv,
        ]))
        .unwrap();

        // A statistics directory whose `ced_a.hist` is bit-flipped.
        let stats_dir = scratch.file("ced_stats");
        std::fs::create_dir_all(&stats_dir).unwrap();
        let a_hist = format!("{stats_dir}/ced_a.hist");
        let b_hist = format!("{stats_dir}/ced_b.hist");
        run(&argv(&[
            "build-histogram",
            &a_csv,
            "--level",
            "4",
            "--out",
            &a_hist,
        ]))
        .unwrap();
        run(&argv(&[
            "build-histogram",
            &b_csv,
            "--level",
            "4",
            "--out",
            &b_hist,
        ]))
        .unwrap();
        let mut bytes = std::fs::read(&a_hist).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(&a_hist, &bytes).unwrap();

        // Default ladder: degrade to the PH rebuild with a warning.
        let out = run(&argv(&[
            "catalog-estimate",
            &a_csv,
            &b_csv,
            "--level",
            "4",
            "--stats-dir",
            &stats_dir,
        ]))
        .unwrap();
        assert!(out.contains("tier ph-rebuild"), "{out}");
        assert!(
            out.warnings.iter().any(|w| w.contains("corrupt")),
            "{:?}",
            out.warnings
        );
        assert!(
            out.warnings.iter().any(|w| w.contains("degraded")),
            "{:?}",
            out.warnings
        );

        // With the rebuild disabled the parametric tier answers; the JSON
        // provenance names both the tier and the corruption reason.
        let json = run(&argv(&[
            "catalog-estimate",
            &a_csv,
            &b_csv,
            "--level",
            "4",
            "--stats-dir",
            &stats_dir,
            "--no-ph-rebuild",
            "--json",
        ]))
        .unwrap();
        assert!(json.contains("\"tier\":\"parametric\""), "{json}");
        assert!(json.contains("\"degraded\":true"), "{json}");
        assert!(json.contains("corrupt"), "{json}");

        // Everything disabled: the ladder is exhausted, exit code 7.
        let err = run(&argv(&[
            "catalog-estimate",
            &a_csv,
            &b_csv,
            "--level",
            "4",
            "--stats-dir",
            &stats_dir,
            "--no-ph-rebuild",
            "--no-parametric",
            "--no-sampling",
        ]))
        .unwrap_err();
        assert_eq!(err.code, exit_code::EXHAUSTED, "{}", err.message);
        assert!(err.message.contains("corrupt"), "{}", err.message);
    }

    #[test]
    fn wire_status_codes_mirror_exit_codes() {
        use sj_server::status;
        // The daemon's wire status taxonomy IS the exit-code taxonomy:
        // a remote failure exits the client with the cold path's code.
        assert_eq!(i32::from(status::OK), 0);
        assert_eq!(i32::from(status::RUNTIME), exit_code::RUNTIME);
        assert_eq!(i32::from(status::USAGE), exit_code::USAGE);
        assert_eq!(i32::from(status::IO), exit_code::IO);
        assert_eq!(i32::from(status::CORRUPT), exit_code::CORRUPT);
        assert_eq!(i32::from(status::MISMATCH), exit_code::MISMATCH);
        assert_eq!(i32::from(status::INVALID_DATA), exit_code::INVALID_DATA);
        assert_eq!(i32::from(status::EXHAUSTED), exit_code::EXHAUSTED);
    }

    #[test]
    fn serve_and_client_round_trip() {
        let scratch = Scratch::new("serve_and_client_round_trip");
        let a_csv = scratch.file("srv_a.csv");
        let b_csv = scratch.file("srv_b.csv");
        run(&argv(&[
            "generate", "scrc", "--scale", "0.01", "--out", &a_csv,
        ]))
        .unwrap();
        run(&argv(&[
            "generate", "sura", "--scale", "0.01", "--out", &b_csv,
        ]))
        .unwrap();

        let ready = scratch.file("srv_ready.txt");
        let serve_args = argv(&[
            "serve",
            &a_csv,
            &b_csv,
            "--level",
            "4",
            "--addr",
            "127.0.0.1:0",
            "--ready-file",
            &ready,
        ]);
        let daemon = std::thread::spawn(move || run(&serve_args));

        // Wait for the readiness file to learn the OS-assigned port.
        let addr = {
            let mut tries = 0;
            loop {
                match std::fs::read_to_string(&ready) {
                    Ok(s) if s.ends_with('\n') => break s.trim().to_string(),
                    _ if tries > 500 => panic!("server never became ready"),
                    _ => {
                        tries += 1;
                        std::thread::sleep(std::time::Duration::from_millis(10));
                    }
                }
            }
        };

        let out = run(&argv(&["client", "--addr", &addr, "ping"])).unwrap();
        assert_eq!(out.stdout, "pong");

        let tables = run(&argv(&["client", "--addr", &addr, "tables"])).unwrap();
        assert!(tables.contains("srv_a"), "{tables}");
        assert!(tables.contains("srv_b"), "{tables}");

        let est = run(&argv(&[
            "client", "--addr", &addr, "estimate", "srv_a", "srv_b",
        ]))
        .unwrap();
        assert!(est.contains("selectivity"), "{est}");

        // Warm catalog-estimate matches the cold text shape.
        let warm = run(&argv(&[
            "client",
            "--addr",
            &addr,
            "catalog-estimate",
            "srv_a",
            "srv_b",
        ]))
        .unwrap();
        assert!(warm.contains("tier primary (gh)"), "{warm}");
        assert!(warm.warnings.is_empty(), "{:?}", warm.warnings);

        // Remote failures carry the cold exit code (unknown table -> 1).
        let err = run(&argv(&[
            "client", "--addr", &addr, "estimate", "nope", "srv_b",
        ]))
        .unwrap_err();
        assert_eq!(err.code, exit_code::RUNTIME, "{}", err.message);
        assert!(err.message.contains("nope"), "{}", err.message);

        // Batched estimates: per-item status wrapping.
        let batch = run(&argv(&[
            "client",
            "--addr",
            &addr,
            "batch-estimate",
            "srv_a,srv_b",
            "srv_a,missing",
        ]))
        .unwrap();
        assert!(batch.contains("srv_a srv_b selectivity"), "{batch}");
        assert!(batch.contains("srv_a missing error"), "{batch}");
        assert_eq!(batch.warnings.len(), 1, "{:?}", batch.warnings);

        let stop = run(&argv(&["client", "--addr", &addr, "shutdown"])).unwrap();
        assert_eq!(stop.stdout, "server shut down");
        let served = daemon.join().unwrap().unwrap();
        assert!(served.contains("stopped"), "{served}");
    }

    #[test]
    fn apply_delta_matches_full_rebuild() {
        let scratch = Scratch::new("apply_delta_matches_full_rebuild");
        let base_csv = scratch.file("delta_base.csv");
        let extra_csv = scratch.file("delta_extra.csv");
        run(&argv(&[
            "generate", "scrc", "--scale", "0.01", "--out", &base_csv,
        ]))
        .unwrap();
        run(&argv(&[
            "generate", "sura", "--scale", "0.005", "--out", &extra_csv,
        ]))
        .unwrap();
        // The ground truth: a histogram built from base ∪ extra in one go
        // (the CSV format is headerless rows, so concatenation unions).
        let union_csv = scratch.file("delta_union.csv");
        let both = format!(
            "{}{}",
            std::fs::read_to_string(&base_csv).unwrap(),
            std::fs::read_to_string(&extra_csv).unwrap()
        );
        std::fs::write(&union_csv, both).unwrap();
        for kind in ["ph", "gh-basic", "gh", "euler"] {
            let base_hist = scratch.file(&format!("delta_base_{kind}.hist"));
            let union_hist = scratch.file(&format!("delta_union_{kind}.hist"));
            let updated_hist = scratch.file(&format!("delta_updated_{kind}.hist"));
            for (src, out) in [(&base_csv, &base_hist), (&union_csv, &union_hist)] {
                run(&argv(&[
                    "build-histogram",
                    src,
                    "--level",
                    "4",
                    "--kind",
                    kind,
                    "--out",
                    out,
                ]))
                .unwrap();
            }
            let out = run(&argv(&[
                "apply-delta",
                &base_hist,
                "--inserts",
                &extra_csv,
                "--out",
                &updated_hist,
            ]))
            .unwrap();
            assert!(out.contains("applied delta"), "{out}");
            assert_eq!(
                std::fs::read(&updated_hist).unwrap(),
                std::fs::read(&union_hist).unwrap(),
                "apply-delta diverged from the full rebuild for {kind}"
            );
            // Deleting the inserts again restores the base bytes.
            let restored_hist = scratch.file(&format!("delta_restored_{kind}.hist"));
            run(&argv(&[
                "apply-delta",
                &updated_hist,
                "--deletes",
                &extra_csv,
                "--out",
                &restored_hist,
            ]))
            .unwrap();
            assert_eq!(
                std::fs::read(&restored_hist).unwrap(),
                std::fs::read(&base_hist).unwrap(),
                "delete delta did not invert the insert delta for {kind}"
            );
        }
    }

    #[test]
    fn apply_delta_underflow_is_typed() {
        let scratch = Scratch::new("apply_delta_underflow_is_typed");
        let base_csv = scratch.file("uflow_base.csv");
        run(&argv(&[
            "generate", "scrc", "--scale", "0.005", "--out", &base_csv,
        ]))
        .unwrap();
        let base_hist = scratch.file("uflow_base.hist");
        run(&argv(&[
            "build-histogram",
            &base_csv,
            "--level",
            "4",
            "--out",
            &base_hist,
        ]))
        .unwrap();
        // Deleting the dataset twice over must underflow: typed exit
        // code, not a panic or wrapped counters.
        let doubled = format!(
            "{}{}",
            std::fs::read_to_string(&base_csv).unwrap(),
            std::fs::read_to_string(&base_csv).unwrap()
        );
        let doubled_csv = scratch.file("uflow_doubled.csv");
        std::fs::write(&doubled_csv, doubled).unwrap();
        let err = run(&argv(&[
            "apply-delta",
            &base_hist,
            "--deletes",
            &doubled_csv,
            "--out",
            &scratch.file("uflow_out.hist"),
        ]))
        .unwrap_err();
        assert_eq!(err.code, exit_code::INVALID_DATA, "{}", err.message);
        assert!(
            err.message.contains("delta application rejected"),
            "{}",
            err.message
        );
    }

    /// Batches are kept only as rectangles: there is no statistics-delta
    /// file to save or to fold offline, so both spellings are usage
    /// errors that write nothing.
    #[test]
    fn delta_files_are_not_a_cli_format() {
        let scratch = Scratch::new("delta_files_are_not_a_cli_format");
        let csv = scratch.file("nodelta.csv");
        let hist = scratch.file("nodelta.hist");
        run(&argv(&[
            "generate", "scrc", "--scale", "0.001", "--out", &csv,
        ]))
        .unwrap();
        run(&argv(&[
            "build-histogram",
            &csv,
            "--level",
            "3",
            "--out",
            &hist,
        ]))
        .unwrap();
        let saved = scratch.file("nodelta.delta");
        let out = scratch.file("nodelta_out.hist");
        let err = run(&argv(&[
            "apply-delta",
            &hist,
            "--inserts",
            &csv,
            "--out",
            &out,
            "--save-delta",
            &saved,
        ]))
        .unwrap_err();
        assert_eq!(err.code, exit_code::USAGE, "{}", err.message);
        let err = run(&argv(&["compact", &hist, &saved, "--out", &out])).unwrap_err();
        assert_eq!(err.code, exit_code::USAGE, "{}", err.message);
        assert!(err.message.contains("unknown command"), "{}", err.message);
        for path in [&saved, &out] {
            assert!(!Path::new(path).exists(), "{path} was written");
        }
    }

    #[test]
    fn serve_absorbs_mutations_without_restart() {
        let scratch = Scratch::new("serve_absorbs_mutations_without_restart");
        let a_csv = scratch.file("mut_a.csv");
        let b_csv = scratch.file("mut_b.csv");
        run(&argv(&[
            "generate", "scrc", "--scale", "0.01", "--out", &a_csv,
        ]))
        .unwrap();
        run(&argv(&[
            "generate", "sura", "--scale", "0.005", "--out", &b_csv,
        ]))
        .unwrap();
        let stats_dir = scratch.file("mut_stats");
        let ready = scratch.file("mut_ready.txt");
        let serve_args = argv(&[
            "serve",
            &a_csv,
            &b_csv,
            "--level",
            "4",
            "--addr",
            "127.0.0.1:0",
            "--stats-dir",
            &stats_dir,
            "--ready-file",
            &ready,
        ]);
        let daemon = std::thread::spawn(move || run(&serve_args));
        let addr = {
            let mut tries = 0;
            loop {
                match std::fs::read_to_string(&ready) {
                    Ok(s) if s.ends_with('\n') => break s.trim().to_string(),
                    _ if tries > 500 => panic!("server never became ready"),
                    _ => {
                        tries += 1;
                        std::thread::sleep(std::time::Duration::from_millis(10));
                    }
                }
            }
        };

        let before = run(&argv(&[
            "client", "--addr", &addr, "estimate", "mut_a", "mut_b",
        ]))
        .unwrap();

        // Insert the whole B dataset into table A, then estimate again:
        // the daemon absorbed the write without restarting.
        let ins = run(&argv(&[
            "client",
            "--addr",
            &addr,
            "insert-batch",
            "mut_a",
            &b_csv,
        ]))
        .unwrap();
        assert!(ins.contains("insert-batch applied"), "{ins}");
        let after = run(&argv(&[
            "client", "--addr", &addr, "estimate", "mut_a", "mut_b",
        ]))
        .unwrap();
        assert_ne!(before.stdout, after.stdout, "estimate ignored the insert");

        // The WAL records the batch on disk.
        let wal = Path::new(&stats_dir).join("mut_a.wal");
        assert!(wal.exists(), "no WAL at {}", wal.display());

        // Deleting it again restores the original estimate.
        let del = run(&argv(&[
            "client",
            "--addr",
            &addr,
            "delete-batch",
            "mut_a",
            &b_csv,
        ]))
        .unwrap();
        assert!(del.contains("delete-batch applied"), "{del}");
        let restored = run(&argv(&[
            "client", "--addr", &addr, "estimate", "mut_a", "mut_b",
        ]))
        .unwrap();
        assert_eq!(before.stdout, restored.stdout);

        // A delete that matches nothing is refused with the data code.
        let err = run(&argv(&[
            "client",
            "--addr",
            &addr,
            "delete-batch",
            "mut_b",
            &a_csv,
        ]))
        .unwrap_err();
        assert_eq!(err.code, exit_code::INVALID_DATA, "{}", err.message);

        // So is a rectangle outside the catalog extent.
        let far = scratch.file("mut_far.csv");
        std::fs::write(&far, "5,5,6,6\n").unwrap();
        let err = run(&argv(&[
            "client",
            "--addr",
            &addr,
            "insert-batch",
            "mut_a",
            &far,
        ]))
        .unwrap_err();
        assert_eq!(err.code, exit_code::INVALID_DATA, "{}", err.message);
        assert!(err.message.contains("outside"), "{}", err.message);

        // Compaction folds the pending tiers and rewrites the base file.
        let comp = run(&argv(&["client", "--addr", &addr, "compact", "mut_a"])).unwrap();
        assert!(comp.contains("compacted mut_a"), "{comp}");
        assert!(
            Path::new(&stats_dir).join("mut_a.base").exists(),
            "compaction did not persist the base file"
        );
        assert!(
            !Path::new(&stats_dir).join("mut_a.hist").exists(),
            "compaction must write no statistics file beside the base file"
        );
        assert!(!wal.exists(), "compaction did not truncate the WAL");

        run(&argv(&["client", "--addr", &addr, "shutdown"])).unwrap();
        daemon.join().unwrap().unwrap();
    }

    #[test]
    fn client_usage_errors_do_not_need_a_server() {
        // Missing --addr fails before any connection attempt.
        let err = run(&argv(&["client", "ping"])).unwrap_err();
        assert_eq!(err.code, exit_code::USAGE);
        // Connection refused maps to the I/O exit code.
        let err = run(&argv(&["client", "--addr", "127.0.0.1:1", "ping"])).unwrap_err();
        assert_eq!(err.code, exit_code::IO, "{}", err.message);
    }

    #[test]
    fn serve_requires_datasets() {
        let err = run(&argv(&["serve", "--addr", "127.0.0.1:0"])).unwrap_err();
        assert_eq!(err.code, exit_code::USAGE);
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\ny"), "x\\ny");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn parse_rect_accepts_whitespace() {
        let r = parse_rect("0.1, 0.2, 0.5, 0.6").unwrap();
        assert_eq!(r, Rect::new(0.1, 0.2, 0.5, 0.6));
    }

    #[test]
    fn every_kind_builds_and_estimates() {
        let scratch = Scratch::new("every_kind_builds_and_estimates");
        let csv = scratch.file("kinds.csv");
        run(&argv(&[
            "generate", "scrc", "--scale", "0.005", "--out", &csv,
        ]))
        .unwrap();
        for kind in ["ph", "gh-basic", "gh", "euler"] {
            let hist = scratch.file(&format!("kinds_{kind}.hist"));
            let out = run(&argv(&[
                "build-histogram",
                &csv,
                "--level",
                "4",
                "--kind",
                kind,
                "--out",
                &hist,
            ]))
            .unwrap();
            assert!(out.contains("built"), "{out}");
            let est = run(&argv(&["estimate", &hist, &hist])).unwrap();
            assert!(est.contains("selectivity"), "{kind}: {est}");
        }
        let err = run(&argv(&[
            "build-histogram",
            &csv,
            "--level",
            "4",
            "--kind",
            "voronoi",
            "--out",
            &scratch.file("nope.hist"),
        ]))
        .unwrap_err();
        assert_eq!(err.code, exit_code::USAGE);
    }

    #[test]
    fn sharded_build_writes_identical_file() {
        let scratch = Scratch::new("sharded_build_writes_identical_file");
        let csv = scratch.file("shards.csv");
        run(&argv(&[
            "generate", "sura", "--scale", "0.01", "--out", &csv,
        ]))
        .unwrap();
        for kind in ["ph", "gh-basic", "gh", "euler"] {
            let direct = scratch.file(&format!("shards_{kind}_direct.hist"));
            let merged = scratch.file(&format!("shards_{kind}_merged.hist"));
            run(&argv(&[
                "build-histogram",
                &csv,
                "--level",
                "4",
                "--kind",
                kind,
                "--out",
                &direct,
            ]))
            .unwrap();
            run(&argv(&[
                "build-histogram",
                &csv,
                "--level",
                "4",
                "--kind",
                kind,
                "--shards",
                "5",
                "--out",
                &merged,
            ]))
            .unwrap();
            assert_eq!(
                std::fs::read(&direct).unwrap(),
                std::fs::read(&merged).unwrap(),
                "{kind}: --shards must produce a byte-identical file"
            );
        }
    }

    #[test]
    fn merge_histogram_command() {
        let scratch = Scratch::new("merge_histogram_command");
        let csv = scratch.file("mh.csv");
        run(&argv(&[
            "generate", "scrc", "--scale", "0.005", "--out", &csv,
        ]))
        .unwrap();
        let hist = scratch.file("mh.hist");
        run(&argv(&[
            "build-histogram",
            &csv,
            "--level",
            "4",
            "--out",
            &hist,
        ]))
        .unwrap();
        // Merging a histogram with itself doubles the object count.
        let merged = scratch.file("mh_merged.hist");
        let out = run(&argv(&["merge-histogram", &hist, &hist, "--out", &merged])).unwrap();
        assert!(out.contains("merged 2 GH histograms"), "{out}");
        assert!(out.contains("1000 objects"), "{out}");
        let est = run(&argv(&["estimate", &merged, &hist])).unwrap();
        assert!(est.contains("selectivity"), "{est}");

        // Mixed kinds refuse to merge with the mismatch exit code.
        let ph = scratch.file("mh_ph.hist");
        run(&argv(&[
            "build-histogram",
            &csv,
            "--level",
            "4",
            "--kind",
            "ph",
            "--out",
            &ph,
        ]))
        .unwrap();
        let err = run(&argv(&["merge-histogram", &hist, &ph, "--out", &merged])).unwrap_err();
        assert_eq!(err.code, exit_code::MISMATCH);
        assert!(err.message.contains("common scheme"), "{}", err.message);

        // Fewer than two inputs is a usage error.
        assert_eq!(
            run(&argv(&["merge-histogram", &hist, "--out", &merged]))
                .unwrap_err()
                .code,
            exit_code::USAGE
        );
    }

    #[test]
    fn window_count_rejects_non_gh_kinds() {
        let scratch = Scratch::new("window_count_rejects_non_gh_kinds");
        let csv = scratch.file("wc_euler.csv");
        run(&argv(&[
            "generate", "sura", "--scale", "0.005", "--out", &csv,
        ]))
        .unwrap();
        let hist = scratch.file("wc_euler.hist");
        run(&argv(&[
            "build-histogram",
            &csv,
            "--level",
            "4",
            "--kind",
            "euler",
            "--out",
            &hist,
        ]))
        .unwrap();
        let err = run(&argv(&["window-count", &hist, "--window", "0,0,0.5,0.5"])).unwrap_err();
        assert_eq!(err.code, exit_code::MISMATCH);
        assert!(
            err.message.contains("not a GH histogram"),
            "{}",
            err.message
        );
    }
}

#[cfg(test)]
mod format_tests {
    use super::tests::Scratch;
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn binary_dataset_pipeline() {
        let scratch = Scratch::new("binary_dataset_pipeline");
        let bin = scratch.file("ds.bin");
        run(&argv(&[
            "generate", "sura", "--scale", "0.005", "--out", &bin,
        ]))
        .unwrap();
        let stats = run(&argv(&["stats", &bin])).unwrap();
        assert!(stats.contains("count          500"), "{stats}");
        // Binary file feeds histogram building and exact joins too.
        let hist = scratch.file("ds.hist");
        run(&argv(&[
            "build-histogram",
            &bin,
            "--level",
            "4",
            "--out",
            &hist,
        ]))
        .unwrap();
        let out = run(&argv(&["exact-join", &bin, &bin])).unwrap();
        assert!(out.contains("pairs"), "{out}");
    }

    #[test]
    fn sparse_and_dense_gh_files_estimate_identically() {
        let scratch = Scratch::new("sparse_and_dense_gh_files_estimate_identically");
        let csv = scratch.file("sp.csv");
        run(&argv(&[
            "generate", "scrc", "--scale", "0.005", "--out", &csv,
        ]))
        .unwrap();
        let dense = scratch.file("sp_dense.hist");
        let sparse = scratch.file("sp_sparse.hist");
        run(&argv(&[
            "build-histogram",
            &csv,
            "--level",
            "5",
            "--out",
            &dense,
        ]))
        .unwrap();
        let out = run(&argv(&[
            "build-histogram",
            &csv,
            "--level",
            "5",
            "--sparse",
            "--out",
            &sparse,
        ]))
        .unwrap();
        assert!(out.contains("sparse"), "{out}");
        let e1 = run(&argv(&["estimate", &dense, &dense])).unwrap();
        let e2 = run(&argv(&["estimate", &sparse, &dense])).unwrap();
        let e3 = run(&argv(&["estimate", &sparse, &sparse])).unwrap();
        assert_eq!(e1, e2);
        assert_eq!(e1, e3);
        // Sparse file on clustered data should be smaller than dense.
        let ds = std::fs::metadata(&dense).unwrap().len();
        let sp = std::fs::metadata(&sparse).unwrap().len();
        assert!(sp < ds, "sparse {sp} !< dense {ds}");
        // window-count accepts sparse files.
        let wc = run(&argv(&[
            "window-count",
            &sparse,
            "--window",
            "0.3,0.6,0.5,0.8",
        ]))
        .unwrap();
        assert!(wc.contains("estimated objects"), "{wc}");
        // The magic picks the reader: a damaged sparse file fails its
        // checksum, and the unframed layout of earlier builds (magic
        // "SJGS", no checksum) is refused, both as corrupt input.
        let bytes = std::fs::read(&sparse).unwrap();
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x01;
        let mut unframed = 0x534a_4753u32.to_le_bytes().to_vec();
        unframed.extend_from_slice(&bytes[20..bytes.len() - 4]);
        for (name, damaged) in [("sp_flipped.hist", flipped), ("sp_unframed.hist", unframed)] {
            let path = scratch.file(name);
            std::fs::write(&path, damaged).unwrap();
            let err = run(&argv(&["estimate", &path, &dense])).unwrap_err();
            assert_eq!(err.code, exit_code::CORRUPT, "{name}: {}", err.message);
        }
    }

    #[test]
    fn sparse_rejected_for_other_schemes() {
        let scratch = Scratch::new("sparse_rejected_for_other_schemes");
        let csv = scratch.file("ph.csv");
        run(&argv(&[
            "generate", "sura", "--scale", "0.002", "--out", &csv,
        ]))
        .unwrap();
        let err = run(&argv(&[
            "build-histogram",
            &csv,
            "--level",
            "3",
            "--kind",
            "ph",
            "--sparse",
            "--out",
            &scratch.file("ph.hist"),
        ]))
        .unwrap_err();
        assert_eq!(err.code, exit_code::USAGE);
    }
}

#[cfg(test)]
mod startup_tests {
    use super::tests::Scratch;
    use super::*;
    use std::hash::{Hash as _, Hasher as _};
    use std::io::Write as _;

    /// What a loaded catalog answers: each table's length and persisted
    /// statistics (or why it has none), and every ordered pair's
    /// primary estimate.
    fn snapshot(catalog: &Catalog) -> Vec<String> {
        let names = catalog.table_names();
        let mut out = Vec::new();
        for a in &names {
            let stats = catalog.histogram(a).map(|h| {
                let mut hasher = std::hash::DefaultHasher::new();
                h.persist().hash(&mut hasher);
                hasher.finish()
            });
            out.push(format!("{a} {:?} {stats:?}", catalog.table_len(a)));
            for b in &names {
                out.push(format!("{a} x {b} {:?}", catalog.primary_estimate(a, b)));
            }
        }
        out
    }

    type Loaded = Result<(Vec<String>, Vec<String>), (i32, String)>;

    /// `serve`'s start-up over `paths` at `par`: the catalog's snapshot
    /// and the warnings, or the error's code and message.
    fn start(paths: &[String], stats_dir: &str, par: Parallelism) -> Loaded {
        let mut catalog = Catalog::with_level(4);
        let mut warnings = Vec::new();
        load_tables(
            &mut catalog,
            paths
                .iter()
                .map(|p| (p.as_str(), table_name_for(p)))
                .collect(),
            ValidationPolicy::Repair,
            SavedStatistics {
                dir: Some(Path::new(stats_dir)),
                defer_to_base: true,
            },
            par,
            &mut warnings,
        )
        .map_err(|e| (e.code, e.message))?;
        Ok((snapshot(&catalog), warnings))
    }

    fn write_csv(path: &str, ds: &Dataset, tail: &str) {
        let mut f = std::fs::File::create(path).unwrap();
        ds.write_csv(&mut f).unwrap();
        f.write_all(tail.as_bytes()).unwrap();
    }

    #[test]
    fn startup_is_the_same_at_every_thread_count() {
        let scratch = Scratch::new("startup_is_the_same_at_every_thread_count");
        let stats = scratch.file("stats");
        std::fs::create_dir_all(scratch.file("other")).unwrap();
        std::fs::create_dir_all(&stats).unwrap();
        // The first table is the slowest to load and build, so at two or
        // more threads the later ones finish before it.
        let big = sj_core::presets::ts(0.1);
        let small = sj_core::presets::sura(0.01);
        let repaired = scratch.file("repaired.csv");
        write_csv(&repaired, &big, "0.9,0.2,0.8,0.3\n");
        let bin = scratch.file("binary.bin");
        small.save_bin(Path::new(&bin)).unwrap();
        let saved = scratch.file("saved.csv");
        write_csv(&saved, &small, "");
        let mut builder = Catalog::with_level(4);
        builder
            .register(Dataset::new("saved", small.extent, small.rects.clone()))
            .unwrap();
        builder.save_statistics(Path::new(&stats)).unwrap();
        let unusable = scratch.file("unusable.csv");
        write_csv(&unusable, &small, "");
        std::fs::write(format!("{stats}/unusable.hist"), b"not statistics").unwrap();
        let deferred = scratch.file("deferred.csv");
        write_csv(&deferred, &small, "");
        std::fs::write(format!("{stats}/deferred.base"), b"").unwrap();
        let same_stem = scratch.file("other/repaired.csv");
        write_csv(&same_stem, &small, "");
        // Two bad files: one that fails at its last line, late, and one
        // that fails at once.
        let bad_late = scratch.file("bad_late.csv");
        write_csv(&bad_late, &big, "0.1,0.1,oops,0.2\n");
        let bad_early = scratch.file("bad_early.csv");
        std::fs::write(&bad_early, "0.1,0.1\n").unwrap();

        let good = [&repaired, &bin, &saved, &unusable, &deferred];
        let with = |before: &[&String], after: &[&String]| -> Vec<String> {
            before
                .iter()
                .chain(&good)
                .chain(after)
                .map(|p| (*p).clone())
                .collect()
        };
        let cases = [
            with(&[], &[]),
            with(&[], &[&same_stem]),
            with(&[], &[&same_stem, &bad_early]),
            with(&[&bad_late, &bad_early], &[]),
            with(&[&bad_late], &[&bad_early]),
        ];
        for paths in &cases {
            let serial = start(paths, &stats, Parallelism::serial());
            for threads in [2, 3, 8] {
                let par = Parallelism::saturating_new(threads);
                assert_eq!(
                    start(paths, &stats, par),
                    serial,
                    "{threads} threads over {paths:?}"
                );
            }
        }

        // The serial oracle itself: tables, warnings and errors as the
        // inputs ask.
        let (tables, warnings) = start(&cases[0], &stats, Parallelism::serial()).unwrap();
        assert_eq!(warnings.len(), 2, "{warnings:?}");
        assert!(warnings[0].contains("1 record(s) repaired"), "{warnings:?}");
        assert!(
            warnings[1].contains("unusable for table \"unusable\""),
            "{warnings:?}"
        );
        let table = |name: &str| tables.iter().find(|t| t.starts_with(name)).unwrap();
        assert!(table("deferred Ok(").contains("deferred to the statistics store"));
        assert!(table("saved Ok(").contains(") Ok("));
        let first_error = |paths| start(paths, &stats, Parallelism::serial()).unwrap_err();
        let (code, message) = first_error(&cases[2]);
        assert_eq!(code, exit_code::RUNTIME, "{message}");
        assert!(message.contains("repaired"), "{message}");
        let (code, message) = first_error(&cases[3]);
        assert_eq!(code, exit_code::INVALID_DATA, "{message}");
        assert!(message.contains("bad_late.csv"), "{message}");
    }
}
