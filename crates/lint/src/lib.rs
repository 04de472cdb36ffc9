//! `sj-lint` — the workspace invariant checker.
//!
//! A static-analysis driver (self-contained: only in-tree workspace
//! crates, nothing external) that walks the workspace's `crates/*/src`
//! trees and mechanically enforces the reproducibility and robustness
//! rules the estimator stack relies on and clippy cannot express: no
//! floats in shard-merge paths, no unchecked indexing in statistics
//! decoders, suppression and error-taxonomy hygiene, and I/O and
//! atomic-ordering discipline around locks. The wall-clock ban,
//! the raw-lock ban, unwrap/expect/panic freedom, cast discipline, the
//! `unsafe` ban and doc coverage are rustc's and clippy's, configured in
//! the workspace `clippy.toml`, `[workspace.lints]` and the sj-histogram
//! and sj-query crate roots. See [`rules`] for the rule-by-rule
//! rationale and DESIGN.md §10 for the full write-up.
//!
//! The static rules are complemented by *dynamic* analyses: [`verify`]
//! builds every histogram family a second way on seeded datasets —
//! sharded and merged, or incrementally through a signed delta — and
//! asserts the result's envelope bytes equal the baseline's (localizing
//! any divergence to the first differing cell and statistic),
//! [`verify_recovery`] crash-tests the statistics store's durability,
//! and [`verify_locks`] replays a concurrent daemon workload under the
//! ranked-lock instrumentation of `sj_core::sync` and rejects rank
//! inversions, observed lock-order cycles and file I/O under the
//! catalog lock.
//!
//! Run the static rules with `cargo run -p sj-lint -- check` (per-line
//! suppressions use `// sj-lint: allow(<rule>, <reason>)` with the
//! reason mandatory) and the dynamic checks with
//! `cargo run -p sj-lint -- verify-equivalence` (and its
//! `verify-recovery`, `verify-locks` siblings).
//!
//! The vendored `compat/*` shims are out of scope: they reproduce
//! external crate APIs verbatim and are exercised only through the
//! workspace crates that this checker does cover.

pub mod report;
pub mod rules;
pub mod scan;
pub mod verify;
pub mod verify_locks;
pub mod verify_recovery;

use rules::{Finding, RuleId, Severity};
use scan::SourceFile;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One workspace crate's scanned sources.
#[derive(Debug, Clone)]
pub struct CrateView {
    /// Directory name under `crates/` (e.g. `histogram`).
    pub name: String,
    /// Scanned `.rs` files under `src/`, in path order.
    pub files: Vec<SourceFile>,
}

/// The scanned workspace.
#[derive(Debug, Clone)]
pub struct Workspace {
    /// Scanned crates, in name order.
    pub crates: Vec<CrateView>,
}

impl Workspace {
    /// Loads and scans every `crates/*/src/**/*.rs` under `root`.
    ///
    /// # Errors
    /// Propagates I/O failures reading the tree.
    pub fn load(root: &Path) -> io::Result<Workspace> {
        let crates_dir = root.join("crates");
        let mut crates = Vec::new();
        let mut names: Vec<(String, PathBuf)> = Vec::new();
        for entry in fs::read_dir(&crates_dir)? {
            let entry = entry?;
            let path = entry.path();
            if path.is_dir() && path.join("Cargo.toml").is_file() && path.join("src").is_dir() {
                names.push((entry.file_name().to_string_lossy().into_owned(), path));
            }
        }
        names.sort();
        for (name, dir) in names {
            let mut rel_files = Vec::new();
            collect_rs_files(&dir.join("src"), &mut rel_files)?;
            rel_files.sort();
            let mut files = Vec::new();
            for abs in rel_files {
                let source = fs::read_to_string(&abs)?;
                let rel = rel_path(root, &abs);
                files.push(SourceFile::scan(&rel, &source));
            }
            crates.push(CrateView { name, files });
        }
        Ok(Workspace { crates })
    }

    /// Builds a workspace from in-memory sources — fixture tests use
    /// this with pseudo-paths like `crates/histogram/src/band.rs` to
    /// exercise rule scoping without touching the filesystem.
    #[must_use]
    pub fn from_sources(sources: &[(&str, &str)]) -> Workspace {
        let mut crates: Vec<CrateView> = Vec::new();
        for (path, text) in sources {
            let name = path
                .strip_prefix("crates/")
                .and_then(|p| p.split('/').next())
                .unwrap_or("unknown")
                .to_string();
            let file = SourceFile::scan(path, text);
            match crates.iter_mut().find(|c| c.name == name) {
                Some(c) => c.files.push(file),
                None => crates.push(CrateView {
                    name,
                    files: vec![file],
                }),
            }
        }
        crates.sort_by(|a, b| a.name.cmp(&b.name));
        Workspace { crates }
    }
}

/// Recursively collects `.rs` files under `dir`.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Workspace-relative `/`-separated path of `abs`.
fn rel_path(root: &Path, abs: &Path) -> String {
    abs.strip_prefix(root)
        .unwrap_or(abs)
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Which rules run and at what severity.
#[derive(Debug, Clone)]
pub struct Selection {
    /// Rules to run (default: all).
    pub enabled: Vec<RuleId>,
    /// Per-rule severity (default: deny).
    pub severity: Vec<(RuleId, Severity)>,
}

impl Default for Selection {
    fn default() -> Self {
        Selection {
            enabled: RuleId::ALL.to_vec(),
            severity: RuleId::ALL.iter().map(|&r| (r, Severity::Deny)).collect(),
        }
    }
}

impl Selection {
    /// Severity of `rule` under this selection.
    #[must_use]
    pub fn severity_of(&self, rule: RuleId) -> Severity {
        self.severity
            .iter()
            .find(|(r, _)| *r == rule)
            .map_or(Severity::Deny, |(_, s)| *s)
    }

    /// Sets `rule` to `severity`.
    pub fn set(&mut self, rule: RuleId, severity: Severity) {
        match self.severity.iter_mut().find(|(r, _)| *r == rule) {
            Some(slot) => slot.1 = severity,
            None => self.severity.push((rule, severity)),
        }
    }
}

/// Runs the selected rules over the workspace and returns findings
/// sorted by path, line, then rule.
#[must_use]
pub fn run_check(ws: &Workspace, selection: &Selection) -> Vec<Finding> {
    let mut findings = Vec::new();
    for rule in &selection.enabled {
        run_rule(*rule, ws, &mut findings);
    }
    for f in &mut findings {
        f.severity = selection.severity_of(f.rule);
    }
    findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    findings.dedup_by(|a, b| {
        a.path == b.path && a.line == b.line && a.rule == b.rule && a.message == b.message
    });
    findings
}

/// Runs a single rule — the fixture tests drive rules individually.
pub fn run_rule(rule: RuleId, ws: &Workspace, out: &mut Vec<Finding>) {
    match rule {
        RuleId::FixedPoint => rules::check_fixed_point(ws, out),
        RuleId::PanicFree => rules::check_panic_free(ws, out),
        RuleId::Hygiene => rules::check_hygiene(ws, out),
        RuleId::ErrorTaxonomy => rules::check_error_taxonomy(ws, out),
        RuleId::IoUnderLock => rules::check_io_under_lock(ws, out),
        RuleId::AtomicOrdering => rules::check_atomic_ordering(ws, out),
    }
}

/// Findings of `rule` when run alone over in-memory sources — the
/// fixture-test entry point.
#[must_use]
pub fn check_sources(rule: RuleId, sources: &[(&str, &str)]) -> Vec<Finding> {
    let ws = Workspace::from_sources(sources);
    let mut out = Vec::new();
    run_rule(rule, &ws, &mut out);
    out
}

/// Locates the workspace root: ascends from `start` until a directory
/// holds a `Cargo.toml` containing `[workspace]`.
#[must_use]
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
