//! Documentation drift guard for the perf reports.
//!
//! docs/KERNELS.md documents the top-level sections of `BENCH_5.json`
//! as a markdown table. This test parses that table out of the prose
//! and diffs it against [`sj_bench::BENCH5_SECTIONS`] — the same
//! constant the bench binary asserts its serialized keys against at
//! run time — so the guide, the schema constant, and the artifact
//! cannot silently drift apart. The committed `BENCH_5.json` at the
//! repo root is held to the same key list, in the same order.

#![expect(
    clippy::panic,
    reason = "integration-test helpers run outside #[test] fns; a failed setup step must fail the test loudly"
)]

use std::path::PathBuf;

fn repo_root() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench; docs/ sits at the workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn docs_kernels_md() -> String {
    let path = repo_root().join("docs/KERNELS.md");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// First-column backticked cells of the first markdown table after the
/// given heading.
fn table_first_column(doc: &str, heading: &str) -> Vec<String> {
    let start = doc
        .find(heading)
        .unwrap_or_else(|| panic!("docs/KERNELS.md lost its {heading:?} section"));
    let mut rows = Vec::new();
    let mut in_table = false;
    for line in doc[start..].lines().skip(1) {
        let line = line.trim();
        if line.starts_with('|') {
            in_table = true;
            let first = line
                .trim_matches('|')
                .split('|')
                .next()
                .unwrap_or("")
                .trim();
            if first.starts_with('`') {
                rows.push(first.trim_matches('`').to_string());
            }
        } else if in_table {
            break;
        }
    }
    assert!(!rows.is_empty(), "no table rows found after {heading:?}");
    rows
}

#[test]
fn documented_sections_match_bench5_sections() {
    let doc = docs_kernels_md();
    let documented = table_first_column(&doc, "## Sections of `BENCH_5.json`");
    assert_eq!(
        documented,
        sj_bench::BENCH5_SECTIONS,
        "the docs/KERNELS.md section table diverges from sj_bench::BENCH5_SECTIONS"
    );
}

#[test]
fn committed_bench5_artifact_has_the_documented_keys_in_order() {
    let path = repo_root().join("BENCH_5.json");
    let json = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    // Top-level keys of the pretty-printed report sit at exactly two
    // spaces of indentation — the same textual scan the bench binary
    // runs before writing the file.
    let keys: Vec<&str> = json
        .lines()
        .filter_map(|l| l.strip_prefix("  \"")?.split_once('"').map(|(k, _)| k))
        .collect();
    assert_eq!(
        keys,
        sj_bench::BENCH5_SECTIONS,
        "the committed BENCH_5.json diverges from sj_bench::BENCH5_SECTIONS"
    );
}

#[test]
fn trajectory_table_covers_every_bench_number() {
    let doc = docs_kernels_md();
    let reports = table_first_column(&doc, "## The `BENCH_<n>.json` trajectory");
    assert_eq!(
        reports,
        [
            "BENCH_1.json",
            "BENCH_2.json",
            "BENCH_3.json",
            "BENCH_4.json",
            "BENCH_5.json"
        ],
        "the docs/KERNELS.md trajectory table must cover every report number, gap included"
    );
    // The artifacts the trajectory calls committed must exist; the one
    // it calls never-committed must not.
    for present in [
        "BENCH_1.json",
        "BENCH_2.json",
        "BENCH_4.json",
        "BENCH_5.json",
    ] {
        assert!(
            repo_root().join(present).is_file(),
            "{present} is documented as committed but is missing from the repo root"
        );
    }
    assert!(
        !repo_root().join("BENCH_3.json").exists(),
        "BENCH_3.json is documented as the never-committed gap, but it exists"
    );
}
