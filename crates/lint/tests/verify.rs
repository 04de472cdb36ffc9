//! Self-tests proving `verify-equivalence` actually catches broken
//! merges and deltas — and names the right cell and statistic, not just
//! "bytes differ".

use sj_lint::report::Format;
use sj_lint::verify::{run_verify, Fault, Outcome, VerifyConfig, Way};
use std::process::Command;

/// A small but complete matrix: both scenarios, one level, two shard
/// counts, all four ways, all four kinds.
fn config(fault: Option<Fault>) -> VerifyConfig {
    VerifyConfig {
        scale: 0.1,
        levels: vec![3],
        shard_counts: vec![2, 5],
        fault,
    }
}

#[test]
fn clean_workspace_build_passes() {
    let report = run_verify(&config(None)).unwrap();
    assert_eq!(report.trials.len(), 2 * 4 * 4 * 2);
    assert!(report.is_clean(), "{}", report.render(Format::Human));
}

/// A second build that loses a rectangle (the dropped boundary-group
/// count of a merge, or a lost insert of a delta) must be flagged on
/// *every* trial. Every merge trial names the scalar statistic `n` with
/// both values; the delta trials localize it too.
#[test]
fn dropped_rect_is_flagged_as_scalar_n_on_every_family() {
    let report = run_verify(&config(Some(Fault::DropLastRect))).unwrap();
    assert!(!report.is_clean());
    assert_eq!(report.divergent().count(), report.trials.len());
    for trial in report.trials.iter().filter(|t| !t.way.is_delta()) {
        match &trial.outcome {
            Outcome::Diverged(d) => {
                assert_eq!(d.statistic, "n", "trial {}", trial.coordinate());
                assert_eq!(d.cell, None, "n is a scalar, not a cell statistic");
                assert_eq!(d.left, "300");
                assert_eq!(d.right, "299");
            }
            other => panic!("trial {} not localized: {other:?}", trial.coordinate()),
        }
    }
    assert!(
        report
            .trials
            .iter()
            .filter(|t| t.way.is_delta())
            .all(|t| { matches!(&t.outcome, Outcome::Diverged(_)) }),
        "every delta trial is localized"
    );
    assert!(
        report.trials.iter().any(|t| t.way.is_delta()
            && matches!(&t.outcome, Outcome::Diverged(d) if d.statistic == "n")),
        "a delta trial names the lost insert's cardinality"
    );
    let human = report.render(Format::Human);
    assert!(
        human.contains("scalar statistic `n`: 300 != 299"),
        "{human}"
    );
}

/// A merge with float-accumulation-style drift (one coordinate nudged
/// by 1e-7) must be flagged on the mass-carrying families and localized
/// to the cell holding the tampered rectangle: PH's boundary-group
/// coverage `cov` and revised GH's overlap mass `o`. The integer-count
/// families are insensitive to sub-cell geometry by design and stay
/// clean. A nudged delta insert is localized to a cell as well.
#[test]
fn nudged_rect_is_localized_to_cell_and_mass_statistic() {
    let report = run_verify(&config(Some(Fault::NudgeFirstRect))).unwrap();
    assert!(!report.is_clean());
    for trial in report.trials.iter().filter(|t| !t.way.is_delta()) {
        let kind = trial.kind.name();
        match (&trial.outcome, kind) {
            (Outcome::Diverged(d), "ph") => {
                assert_eq!(d.statistic, "cov", "trial {}", trial.coordinate());
                let cell = d.cell.expect("mass divergence carries a cell");
                assert!(cell.index < 64, "level-3 grid has 64 cells");
                assert!(d.left.contains("2^-75"), "exact fixed-point rendering");
                assert_ne!(d.left, d.right);
            }
            (Outcome::Diverged(d), "gh") => {
                assert_eq!(d.statistic, "o", "trial {}", trial.coordinate());
                assert!(d.cell.is_some());
            }
            (Outcome::Identical, "gh-basic" | "euler") => {}
            (outcome, kind) => {
                panic!("{kind} trial {}: {outcome:?}", trial.coordinate())
            }
        }
    }
    // Both partitions of both mass families diverged, at every shard
    // count — the fault is caught everywhere it can manifest.
    for way in [Way::RowBand, Way::RectRange] {
        let caught = report.divergent().filter(|t| t.way == way).count();
        assert_eq!(caught, 2 * 2 * 2, "way {}", way.name());
    }
    assert!(
        report
            .divergent()
            .any(|t| t.way.is_delta()
                && matches!(&t.outcome, Outcome::Diverged(d) if d.cell.is_some())),
        "no delta divergence was localized to a cell"
    );
}

/// The JSON report carries the same localization: statistic name and
/// (col, row, index) cell coordinates.
#[test]
fn json_report_names_cell_and_statistic() {
    let report = run_verify(&VerifyConfig {
        scale: 0.1,
        levels: vec![3],
        shard_counts: vec![2],
        fault: Some(Fault::NudgeFirstRect),
    })
    .unwrap();
    let json = report.render(Format::Json);
    assert!(json.contains("\"clean\": false"), "{json}");
    assert!(json.contains("\"fault\": \"nudge-first-rect\""), "{json}");
    assert!(json.contains("\"statistic\": \"cov\""), "{json}");
    assert!(json.contains("\"statistic\": \"o\""), "{json}");
    assert!(json.contains("\"way\": \"rect-range\""), "{json}");
    assert!(json.contains("\"col\": "), "{json}");
    assert!(json.contains("\"row\": "), "{json}");
}

/// End-to-end through the binary: exit 0 on a clean run, 1 when an
/// injected fault makes a second build diverge, 2 on a usage error —
/// the exit-code contract every `sj-lint` subcommand shares.
#[test]
fn binary_exit_codes_match_check_contract() {
    let bin = env!("CARGO_BIN_EXE_sj-lint");
    let small = ["--scale", "0.05", "--levels", "3", "--shards", "2"];

    let clean = Command::new(bin)
        .arg("verify-equivalence")
        .args(small)
        .output()
        .unwrap();
    assert_eq!(clean.status.code(), Some(0), "{clean:?}");
    let stdout = String::from_utf8_lossy(&clean.stdout);
    assert!(stdout.contains("clean (32 trials"), "{stdout}");

    let broken = Command::new(bin)
        .arg("verify-equivalence")
        .args(small)
        .args(["--inject", "drop-last-rect", "--format", "json"])
        .output()
        .unwrap();
    assert_eq!(broken.status.code(), Some(1), "{broken:?}");
    let stdout = String::from_utf8_lossy(&broken.stdout);
    assert!(stdout.contains("\"statistic\": \"n\""), "{stdout}");

    for args in [
        &["verify-equivalence", "--inject", "bogus"][..],
        &["verify-merge"][..],
        &["verify-delta"][..],
    ] {
        let usage = Command::new(bin).args(args).output().unwrap();
        assert_eq!(usage.status.code(), Some(2), "{args:?}: {usage:?}");
    }
}
