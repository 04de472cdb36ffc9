//! Fixture-driven integration tests: for every rule, one fixture that
//! must pass clean and one that must trip the rule, exercised through
//! the same [`sj_lint::check_sources`] path the driver uses. The final
//! test loads the real workspace and requires it to be lint-clean —
//! the repository itself is the ultimate "good" fixture.

use sj_lint::rules::{Finding, RuleId};
use sj_lint::{check_sources, Selection, Workspace};

/// Findings of `rule` over a single fixture mounted at `path`.
fn run_fixture(rule: RuleId, path: &str, text: &str) -> Vec<Finding> {
    check_sources(rule, &[(path, text)])
}

fn lines_of(findings: &[Finding]) -> Vec<usize> {
    findings.iter().map(|f| f.line).collect()
}

// ------------------------------------------------------------------
// R2 — fixed-point merge paths
// ------------------------------------------------------------------

#[test]
fn r2_good_fixture_is_clean() {
    let f = run_fixture(
        RuleId::FixedPoint,
        "crates/histogram/src/band.rs",
        include_str!("fixtures/r2_good.rs"),
    );
    assert_eq!(f, Vec::new(), "integer/Mass merges must pass");
}

#[test]
fn r2_bad_fixture_flags_floats_in_merge() {
    let f = run_fixture(
        RuleId::FixedPoint,
        "crates/histogram/src/band.rs",
        include_str!("fixtures/r2_bad.rs"),
    );
    assert_eq!(f.len(), 2, "{f:?}");
    assert_eq!(lines_of(&f), vec![3, 5], "f64 signature + 0.5 literal");
}

#[test]
fn r2_kernel_good_fixture_is_clean() {
    let f = run_fixture(
        RuleId::FixedPoint,
        "crates/histogram/src/kernel.rs",
        include_str!("fixtures/r2_kernel_good.rs"),
    );
    assert_eq!(f, Vec::new(), "Mass-only bin_* kernels must pass");
}

#[test]
fn r2_kernel_bad_fixture_flags_floats_in_bin_fns() {
    let f = run_fixture(
        RuleId::FixedPoint,
        "crates/histogram/src/kernel.rs",
        include_str!("fixtures/r2_kernel_bad.rs"),
    );
    assert_eq!(f.len(), 2, "{f:?}");
    assert_eq!(lines_of(&f), vec![3, 5], "f64 signature + 0.5 literal");
}

#[test]
fn r2_kernel_estimate_views_are_out_of_scope() {
    // The estimate-side SoA kernels decode Mass to f64 by design — only
    // the bin_* accumulation kernels carry the fixed-point contract.
    let src =
        "impl PhView {\n    pub fn estimate(&self) -> f64 {\n        self.c[0] * 2.0\n    }\n}\n";
    let f = run_fixture(RuleId::FixedPoint, "crates/histogram/src/kernel.rs", src);
    assert_eq!(f, Vec::new());
}

/// Inserts `line` after every line of `src` containing `after`, and
/// returns the edited source with the 1-based numbers of the inserts.
fn insert_after(src: &str, after: &str, line: &str) -> (String, Vec<usize>) {
    let mut lines: Vec<&str> = Vec::new();
    let mut inserted = Vec::new();
    for l in src.lines() {
        lines.push(l);
        if l.contains(after) {
            lines.push(line);
            inserted.push(lines.len());
        }
    }
    (lines.join("\n"), inserted)
}

#[test]
fn r2_covers_the_generic_merge_of_the_real_schema() {
    // The one merge every family uses is written once in schema.rs; an
    // f64 accumulation slipped into it must be flagged where it lands,
    // and the file as committed must be clean.
    let path = "crates/histogram/src/schema.rs";
    let real = include_str!("../../histogram/src/schema.rs");
    assert_eq!(run_fixture(RuleId::FixedPoint, path, real), Vec::new());
    let (edited, lines) = insert_after(
        real,
        "fn merge_same_grid<H: Family>(",
        "    let mut drift = 0.0f64; drift += 0.5;",
    );
    assert_eq!(lines.len(), 1, "one generic merge");
    let f = run_fixture(RuleId::FixedPoint, path, &edited);
    assert_eq!(lines_of(&f), lines, "{f:?}");
}

#[test]
fn r2_covers_every_family_build_rows() {
    for (path, real) in [
        (
            "crates/histogram/src/ph.rs",
            include_str!("../../histogram/src/ph.rs"),
        ),
        (
            "crates/histogram/src/gh.rs",
            include_str!("../../histogram/src/gh.rs"),
        ),
        (
            "crates/histogram/src/euler.rs",
            include_str!("../../histogram/src/euler.rs"),
        ),
    ] {
        assert_eq!(run_fixture(RuleId::FixedPoint, path, real), Vec::new());
        // A float after every build_rows header (gh.rs holds two).
        let (edited, expected) =
            insert_after(real, "fn build_rows(", "        let weight = 0.5f64;");
        assert!(!expected.is_empty(), "{path} has a build_rows");
        let f = run_fixture(RuleId::FixedPoint, path, &edited);
        assert_eq!(lines_of(&f), expected, "{path}: {f:?}");
    }
}

#[test]
fn r2_floats_outside_merge_scope_are_fine() {
    // The same float-heavy source under a non-merge path/function name is
    // out of R2's scope: floats are only banned on the merge paths.
    let src = "pub fn quantize(w: f64) -> u64 {\n    (w * 2.0) as u64\n}\n";
    let f = run_fixture(RuleId::FixedPoint, "crates/histogram/src/gh.rs", src);
    assert_eq!(f, Vec::new());
}

// ------------------------------------------------------------------
// R3 — panic-freedom
// ------------------------------------------------------------------

#[test]
fn r3_good_fixture_is_clean() {
    let f = run_fixture(
        RuleId::PanicFree,
        "crates/rtree/src/codec.rs",
        include_str!("fixtures/r3_good.rs"),
    );
    assert_eq!(
        f,
        Vec::new(),
        "fallible accessors and reasoned indexing pass"
    );
}

#[test]
fn r3_bad_fixture_flags_decoder_indexing() {
    let f = run_fixture(
        RuleId::PanicFree,
        "crates/rtree/src/codec.rs",
        include_str!("fixtures/r3_bad.rs"),
    );
    assert_eq!(lines_of(&f), vec![4, 9], "{f:?}");
    assert!(f.iter().all(|x| x.message.contains("slice indexing")));
}

#[test]
fn r3_leaves_unwrap_and_panics_to_clippy() {
    // `[workspace.lints]` owns unwrap/expect/panic!; r3 only polices
    // indexing inside decoders.
    let src = "pub fn decode(v: Option<u8>) -> u8 {\n    v.unwrap()\n}\n\
               pub fn first(v: &[u8]) -> u8 {\n    panic!(\"never\")\n}\n";
    let f = run_fixture(RuleId::PanicFree, "crates/rtree/src/codec.rs", src);
    assert_eq!(f, Vec::new());
}

#[test]
fn r3_indexing_outside_decoders_is_not_flagged() {
    let src = "pub fn hot_loop(cells: &[u64], i: usize) -> u64 {\n    cells[i]\n}\n";
    let f = run_fixture(RuleId::PanicFree, "crates/histogram/src/gh.rs", src);
    assert_eq!(f, Vec::new(), "indexing is only policed inside decoders");
}

// ------------------------------------------------------------------
// R5 — suppression hygiene
// ------------------------------------------------------------------

#[test]
fn r5_good_fixture_is_clean() {
    let f = run_fixture(
        RuleId::Hygiene,
        "crates/widget/src/lib.rs",
        include_str!("fixtures/r5_good.rs"),
    );
    assert_eq!(f, Vec::new(), "a suppression naming a live rule passes");
}

#[test]
fn r5_bad_fixture_flags_an_unknown_rule() {
    let f = run_fixture(
        RuleId::Hygiene,
        "crates/widget/src/lib.rs",
        include_str!("fixtures/r5_bad.rs"),
    );
    assert_eq!(f.len(), 1, "{f:?}");
    assert!(f[0].message.contains("unknown rule `made-up-rule`"));
}

#[test]
fn r5_flags_suppressions_of_the_retired_rules() {
    // r1, r4, r8 and r9 moved to rustc and clippy, and r7 gave way to
    // the byte goldens: a leftover suppression naming any of them is an
    // unknown rule, so nothing migrates silently.
    let retired = [
        "determinism",
        "lock-discipline",
        "cast",
        "persistence",
        "docs",
    ];
    let src: String = std::iter::once("//! Crate.\n".to_string())
        .chain(
            retired
                .iter()
                .map(|rule| format!("// sj-lint: allow({rule}, a reason)\n")),
        )
        .collect();
    let f = run_fixture(RuleId::Hygiene, "crates/widget/src/lib.rs", &src);
    assert_eq!(lines_of(&f), vec![2, 3, 4, 5, 6], "{f:?}");
    for (finding, rule) in f.iter().zip(retired) {
        let unknown = format!("unknown rule `{rule}`");
        assert!(finding.message.contains(&unknown), "{finding:?}");
    }
}

// ------------------------------------------------------------------
// R6 — error taxonomy
// ------------------------------------------------------------------

#[test]
fn r6_good_fixture_is_clean() {
    let f = run_fixture(
        RuleId::ErrorTaxonomy,
        "crates/widget/src/error.rs",
        include_str!("fixtures/r6_good.rs"),
    );
    assert_eq!(f, Vec::new(), "non_exhaustive + Display + Error passes");
}

#[test]
fn r6_bad_fixture_flags_all_three_obligations() {
    let f = run_fixture(
        RuleId::ErrorTaxonomy,
        "crates/widget/src/error.rs",
        include_str!("fixtures/r6_bad.rs"),
    );
    assert_eq!(f.len(), 3, "{f:?}");
    assert!(f[0].message.contains("non_exhaustive"));
    assert!(f[1].message.contains("Display"));
    assert!(f[2].message.contains("std::error::Error"));
}

// ------------------------------------------------------------------
// R10 — blocking I/O under a held lock guard
// ------------------------------------------------------------------

#[test]
fn r10_bad_fixture_flags_fsync_under_guard() {
    let src = "pub fn persist(&self) {\n\
               \x20   let guard = self.catalog.write();\n\
               \x20   let f = File::create(path);\n\
               \x20   f.sync_all();\n\
               }\n";
    let f = run_fixture(RuleId::IoUnderLock, "crates/query/src/store.rs", src);
    assert_eq!(lines_of(&f), vec![3, 4], "{f:?}");
    assert!(f[0].message.contains("lock-guard region"), "{f:?}");
}

#[test]
fn r10_region_ends_with_the_enclosing_block() {
    let src = "pub fn ok(&self) {\n\
               \x20   {\n\
               \x20       let guard = self.catalog.read();\n\
               \x20       let n = guard.len();\n\
               \x20   }\n\
               \x20   let f = File::create(path);\n\
               \x20   f.sync_all();\n\
               }\n";
    let f = run_fixture(RuleId::IoUnderLock, "crates/query/src/store.rs", src);
    assert_eq!(f, Vec::new(), "I/O after the guard's block is fine");
}

#[test]
fn r10_temporary_guards_are_not_regions() {
    // The guard of `queue.lock().next()` drops at the semicolon; only a
    // retained `let g = x.lock();` binding opens a region.
    let src = "pub fn pump(&self) {\n\
               \x20   let next = self.queue.lock().next();\n\
               \x20   let f = File::create(path);\n\
               }\n";
    let f = run_fixture(RuleId::IoUnderLock, "crates/core/src/parallel.rs", src);
    assert_eq!(f, Vec::new(), "temporary guards must not open regions");
}

#[test]
fn r10_suppression_documents_an_early_release() {
    let src = "pub fn tricky(&self) {\n\
               \x20   let guard = self.catalog.write();\n\
               \x20   drop(guard);\n\
               \x20   // sj-lint: allow(io-under-lock, guard dropped on the line above)\n\
               \x20   let f = File::create(path);\n\
               }\n";
    let f = run_fixture(RuleId::IoUnderLock, "crates/query/src/store.rs", src);
    assert_eq!(f, Vec::new(), "drop(guard) sites document themselves");
}

// ------------------------------------------------------------------
// R11 — atomic ordering discipline
// ------------------------------------------------------------------

#[test]
fn r11_bad_fixture_flags_weak_orderings() {
    let src = "pub fn bump(c: &AtomicU64, f: &AtomicBool) {\n\
               \x20   c.fetch_add(1, Ordering::Relaxed);\n\
               \x20   f.store(true, Ordering::Release);\n\
               \x20   c.load(Ordering::SeqCst);\n\
               }\n";
    let f = run_fixture(RuleId::AtomicOrdering, "crates/server/src/server.rs", src);
    assert_eq!(lines_of(&f), vec![2, 3], "SeqCst is always clean: {f:?}");
}

#[test]
fn r11_cmp_ordering_and_suppressions_are_clean() {
    let src = "pub fn sort_key(a: u64, b: u64) -> std::cmp::Ordering {\n\
               \x20   if a < b { std::cmp::Ordering::Less } else { std::cmp::Ordering::Greater }\n\
               }\n\
               pub fn bump(c: &AtomicU64) {\n\
               \x20   // sj-lint: allow(atomic-ordering, monotonic counter needs no cross-variable ordering)\n\
               \x20   c.fetch_add(1, Ordering::Relaxed);\n\
               }\n";
    let f = run_fixture(RuleId::AtomicOrdering, "crates/server/src/server.rs", src);
    assert_eq!(f, Vec::new(), "{f:?}");
}

// ------------------------------------------------------------------
// The landed tree itself must be clean
// ------------------------------------------------------------------

#[test]
fn real_workspace_is_lint_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let ws = Workspace::load(&root).expect("workspace scans");
    let findings = sj_lint::run_check(&ws, &Selection::default());
    assert_eq!(
        findings,
        Vec::new(),
        "the checked-in tree must satisfy every sj-lint rule"
    );
}

#[test]
fn every_crate_opts_into_the_workspace_lints() {
    // `unsafe_code`, `missing_docs` and the clippy bans live in
    // `[workspace.lints]`, which binds only crates that opt in: a new
    // crate without the opt-in would silently escape all of them.
    let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut missing = Vec::new();
    for entry in std::fs::read_dir(&crates).expect("crates/ is readable") {
        let entry = entry.expect("crates/ entry");
        let Ok(text) = std::fs::read_to_string(entry.path().join("Cargo.toml")) else {
            continue;
        };
        let opted_in = text
            .lines()
            .map(str::trim)
            .skip_while(|l| *l != "[lints]")
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .any(|l| l.split_whitespace().collect::<String>() == "workspace=true");
        if !opted_in {
            missing.push(entry.file_name().to_string_lossy().into_owned());
        }
    }
    assert_eq!(
        missing,
        Vec::<String>::new(),
        "these crates' Cargo.toml lacks `[lints] workspace = true`"
    );
}
