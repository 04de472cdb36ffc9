//! Documentation drift guards.
//!
//! `docs/CLI.md` documents the `sjsel` exit-code taxonomy and the wire
//! status codes as markdown tables. These tests parse those tables out
//! of the prose and diff them against the actual constants
//! (`sj_cli::exit_code`, `sj_server::wire::status`), so the doc cannot
//! silently drift from the code. The in-binary `USAGE` text is checked
//! the same way: every subcommand documented in docs/CLI.md must appear
//! in `sjsel --help` and vice versa.

#![expect(
    clippy::panic,
    reason = "integration-test helpers run outside #[test] fns; a failed setup step must fail the test loudly"
)]

use std::collections::BTreeMap;
use std::path::PathBuf;

fn docs_cli_md() -> String {
    // CARGO_MANIFEST_DIR = crates/cli; docs/ sits at the workspace root.
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../docs/CLI.md");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// Parses the first markdown table following the given heading, keyed
/// by the integer in the first column; the value is the second column.
fn table_after(doc: &str, heading: &str) -> BTreeMap<i64, String> {
    let start = doc
        .find(heading)
        .unwrap_or_else(|| panic!("docs/CLI.md lost its {heading:?} section"));
    let mut rows = BTreeMap::new();
    let mut in_table = false;
    for line in doc[start..].lines().skip(1) {
        let line = line.trim();
        if line.starts_with('|') {
            in_table = true;
            let cells: Vec<&str> = line.trim_matches('|').split('|').map(str::trim).collect();
            let Some(code) = cells.first().and_then(|c| c.parse::<i64>().ok()) else {
                continue; // header or separator row
            };
            let meaning = cells.get(1).copied().unwrap_or_default();
            assert!(
                rows.insert(code, meaning.to_string()).is_none(),
                "{heading}: duplicate code {code}"
            );
        } else if in_table {
            break; // table ended
        }
    }
    assert!(!rows.is_empty(), "no table found after {heading:?}");
    rows
}

#[test]
fn exit_code_table_matches_the_exit_code_module() {
    let doc = docs_cli_md();
    let table = table_after(&doc, "### Exit codes");

    let expected: &[(i64, &str)] = &[
        (0, "success"),
        (i64::from(sj_cli::exit_code::RUNTIME), "runtime"),
        (i64::from(sj_cli::exit_code::USAGE), "usage"),
        (i64::from(sj_cli::exit_code::IO), "I/O"),
        (i64::from(sj_cli::exit_code::CORRUPT), "corrupt"),
        (i64::from(sj_cli::exit_code::MISMATCH), "mismatch"),
        (
            i64::from(sj_cli::exit_code::INVALID_DATA),
            "invalid dataset",
        ),
        (i64::from(sj_cli::exit_code::EXHAUSTED), "tier"),
        (i64::from(sj_cli::exit_code::OVERLOADED), "overloaded"),
    ];
    assert_eq!(
        table.keys().copied().collect::<Vec<_>>(),
        expected.iter().map(|(c, _)| *c).collect::<Vec<_>>(),
        "documented exit codes diverge from sj_cli::exit_code: {table:?}"
    );
    for (code, needle) in expected {
        let meaning = &table[code];
        assert!(
            meaning.to_lowercase().contains(&needle.to_lowercase()),
            "exit code {code} documented as {meaning:?}, expected it to mention {needle:?}"
        );
    }
}

#[test]
fn wire_status_table_matches_the_wire_status_module() {
    use sj_server::wire::status;
    let doc = docs_cli_md();
    let table = table_after(&doc, "### Wire status codes");

    // The wire table's second column is the constant's name in backticks.
    let codes: &[u8] = &[
        status::OK,
        status::RUNTIME,
        status::USAGE,
        status::IO,
        status::CORRUPT,
        status::MISMATCH,
        status::INVALID_DATA,
        status::EXHAUSTED,
        status::OVERLOADED,
    ];
    assert_eq!(
        table.keys().copied().collect::<Vec<_>>(),
        codes.iter().map(|c| i64::from(*c)).collect::<Vec<_>>(),
        "documented wire statuses diverge from sj_server::wire::status: {table:?}"
    );
    for code in codes {
        let documented = &table[&i64::from(*code)];
        let expected = status::name(*code).replace('-', "_").to_uppercase();
        assert_eq!(
            documented.trim_matches('`'),
            expected,
            "wire status {code} documented under the wrong name"
        );
    }
}

#[test]
fn every_documented_subcommand_is_in_the_usage_text_and_vice_versa() {
    let doc = docs_cli_md();
    // The usage fence right under the `## sjsel` heading.
    let start = doc.find("## `sjsel`").expect("sjsel section");
    let fence = &doc[start..];
    let open = fence.find("```").expect("usage fence opens") + 3;
    let close = open + fence[open..].find("```").expect("usage fence closes");
    let documented: Vec<&str> = fence[open..close]
        .lines()
        .filter_map(|l| l.trim().strip_prefix("sjsel "))
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert!(!documented.is_empty(), "no sjsel usage lines found");

    let help: Vec<&str> = sj_cli::USAGE
        .lines()
        .filter_map(|l| l.trim().strip_prefix("sjsel "))
        .filter_map(|l| l.split_whitespace().next())
        // Drop the banner line ("sjsel — ..."): subcommands are
        // ascii-lowercase words.
        .filter(|s| s.chars().all(|c| c.is_ascii_lowercase() || c == '-'))
        .collect();
    for sub in &documented {
        assert!(
            help.contains(sub),
            "docs/CLI.md documents `sjsel {sub}` but the --help text does not"
        );
    }
    for sub in &help {
        assert!(
            documented.contains(sub),
            "--help lists `sjsel {sub}` but docs/CLI.md does not document it"
        );
    }
    for sub in [
        "serve",
        "client",
        "estimate",
        "catalog-estimate",
        "apply-delta",
    ] {
        assert!(
            documented.contains(&sub),
            "expected `sjsel {sub}` documented"
        );
    }
}

#[test]
fn admission_control_flags_are_documented_everywhere() {
    // The serve/client admission flags must appear in both the
    // in-binary usage text and docs/CLI.md — a flag that exists in only
    // one place is doc drift.
    let doc = docs_cli_md();
    for flag in ["--max-connections", "--io-timeout-ms", "--timeout-ms"] {
        assert!(
            sj_cli::USAGE.contains(flag),
            "sjsel --help lost the {flag} flag"
        );
        assert!(
            doc.contains(flag),
            "docs/CLI.md does not document the {flag} flag"
        );
    }
}

#[test]
fn wire_opcode_table_matches_opcode_all() {
    use sj_server::Opcode;
    let doc = docs_cli_md();
    let table = table_after(&doc, "### Wire opcodes");

    let actual: Vec<(i64, String)> = Opcode::ALL
        .iter()
        .map(|op| (i64::from(op.code()), format!("{op:?}")))
        .collect();
    assert_eq!(
        table.keys().copied().collect::<Vec<_>>(),
        actual.iter().map(|(c, _)| *c).collect::<Vec<_>>(),
        "documented opcodes diverge from sj_server::Opcode::ALL: {table:?}"
    );
    for (code, name) in &actual {
        let documented = table[code].trim_matches('`');
        assert_eq!(
            documented, name,
            "opcode {code} documented as {documented:?}, the enum calls it {name:?}"
        );
    }
}

#[test]
fn subcommand_table_matches_the_usage_text() {
    let doc = docs_cli_md();
    // The `### Subcommands` table's first column is the subcommand in
    // backticks; diff it against the subcommands `--help` advertises.
    let start = doc
        .find("### Subcommands")
        .expect("docs/CLI.md lost its Subcommands section");
    let mut tabled = Vec::new();
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
                tabled.push(first.trim_matches('`').to_string());
            }
        } else if in_table {
            break;
        }
    }
    assert!(!tabled.is_empty(), "no subcommand table rows found");

    let help: Vec<&str> = sj_cli::USAGE
        .lines()
        .filter_map(|l| l.trim().strip_prefix("sjsel "))
        .filter_map(|l| l.split_whitespace().next())
        .filter(|s| s.chars().all(|c| c.is_ascii_lowercase() || c == '-'))
        .collect();
    for sub in &tabled {
        assert!(
            help.contains(&sub.as_str()),
            "subcommand table documents `{sub}` but --help does not list it"
        );
    }
    for sub in &help {
        assert!(
            tabled.iter().any(|t| t == sub),
            "--help lists `sjsel {sub}` but the subcommand table lacks a row for it"
        );
    }
}
