//! The `sj-lint` command line through the built binary: exit codes for
//! usage errors, and the docs/CLI.md synopsis kept in step with
//! `--help`.

#![expect(
    clippy::expect_used,
    reason = "integration-test helpers run outside #[test] fns; a failed setup step must fail the test loudly"
)]

use std::path::Path;
use std::process::{Command, Output};

fn sj_lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sj-lint"))
        .args(args)
        .output()
        .expect("sj-lint runs")
}

/// A flag the chosen subcommand does not read is a usage error, never
/// silently ignored; so is a second level for the single-level crash
/// matrix, and so are the retired `fingerprint`, `check`, `rules` and
/// `verify-locks` subcommands.
#[test]
fn flags_a_subcommand_does_not_read_are_usage_errors() {
    let cases: [(&[&str], &str); 9] = [
        (&["verify-recovery", "--levels", "3,9"], "single level"),
        (
            &["verify-recovery", "--shards", "2"],
            "`--shards` is not an option of `verify-recovery`",
        ),
        (
            &["verify-equivalence", "--root", "."],
            "`--root` is not an option of `verify-equivalence`",
        ),
        (&["fingerprint"], "unknown command `fingerprint`"),
        (&["check"], "unknown command `check`"),
        (&["rules"], "unknown command `rules`"),
        (&["verify-locks"], "unknown command `verify-locks`"),
        (
            &["verify-locks", "--scale", "1"],
            "unknown command `verify-locks`",
        ),
        (
            &["verify-locks", "--inject", "invert-ranks"],
            "unknown command `verify-locks`",
        ),
    ];
    for (args, message) in cases {
        let out = sj_lint(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(message), "{args:?}: {stderr}");
    }
}

/// The synopsis lines of `sj-lint --help` (the indented block under
/// `USAGE:`), dedented.
fn help_synopsis() -> Vec<String> {
    let out = sj_lint(&["--help"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .skip_while(|l| l.trim() != "USAGE:")
        .skip(1)
        .take_while(|l| !l.trim().is_empty())
        .map(|l| l.strip_prefix("    ").unwrap_or(l).to_string())
        .collect()
}

/// The fenced usage block under docs/CLI.md's `## \`sj-lint\`` heading.
fn documented_synopsis() -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../docs/CLI.md");
    let doc = std::fs::read_to_string(&path).expect("docs/CLI.md is readable");
    doc.lines()
        .skip_while(|l| l.trim() != "## `sj-lint`")
        .skip_while(|l| l.trim() != "```")
        .skip(1)
        .take_while(|l| l.trim() != "```")
        .map(str::to_string)
        .collect()
}

#[test]
fn documented_synopsis_matches_help() {
    let help = help_synopsis();
    assert!(
        help.iter()
            .any(|l| l.starts_with("sj-lint verify-equivalence")),
        "{help:#?}"
    );
    assert_eq!(
        documented_synopsis(),
        help,
        "the sj-lint usage block in docs/CLI.md diverges from `sj-lint --help`"
    );
}
