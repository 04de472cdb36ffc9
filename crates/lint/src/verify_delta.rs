//! Self-tests of the equivalence driver's delta ways
//! ([`crate::verify::Way::DeltaMixed`],
//! [`crate::verify::Way::DeltaDeleteHeavy`]): a signed delta applied to
//! a base build must be byte-identical to a full rebuild over
//! `D ∪ Δ⁺ ∖ Δ⁻`, and a tampered insert batch must be caught and
//! localized. The driver itself lives in [`crate::verify`]; this module
//! holds tests only.

#[cfg(test)]
mod tests {
    use crate::report::Format;
    use crate::verify::tests::small;
    use crate::verify::{run_verify, Fault, Outcome, Trial, VerifyReport};

    /// The delta-way trials of a run, in matrix order.
    fn delta_trials(report: &VerifyReport) -> Vec<&Trial> {
        report.trials.iter().filter(|t| t.way.is_delta()).collect()
    }

    #[test]
    fn incremental_updates_are_rebuild_equivalent() {
        let report = run_verify(&small(None)).unwrap();
        let deltas = delta_trials(&report);
        // 2 scenarios × 4 kinds × 2 delta ways × 2 shard counts.
        assert_eq!(deltas.len(), 2 * 4 * 2 * 2, "full delta matrix ran");
        assert!(
            deltas.iter().all(|t| t.outcome == Outcome::Identical),
            "{}",
            report.render(Format::Human)
        );
        let human = report.render(Format::Human);
        assert!(human.contains("clean"), "{human}");
        let json = report.render(Format::Json);
        assert!(json.contains("\"clean\": true"), "{json}");
    }

    #[test]
    fn report_is_deterministic() {
        let a = run_verify(&small(None)).unwrap();
        let b = run_verify(&small(None)).unwrap();
        assert_eq!(delta_trials(&a), delta_trials(&b), "identical run-to-run");
    }

    #[test]
    fn injected_faults_are_caught_and_localized() {
        // Dropping the last insert: every delta trial diverges, and the
        // integer families localize to the scalar cardinality.
        let report = run_verify(&small(Some(Fault::DropLastRect))).unwrap();
        let deltas = delta_trials(&report);
        assert!(
            deltas.iter().all(|t| t.outcome != Outcome::Identical),
            "every delta trial should notice a lost insert"
        );
        assert!(
            deltas.iter().any(|t| matches!(
                &t.outcome,
                Outcome::Diverged(d) if d.statistic == "n"
            )),
            "no delta trial localized the lost insert to the cardinality"
        );

        // Nudging a coordinate: the mass-carrying families catch it at
        // cell granularity; integer-only families may legitimately not
        // see a sub-cell nudge.
        let report = run_verify(&small(Some(Fault::NudgeFirstRect))).unwrap();
        let caught: Vec<&Trial> = delta_trials(&report)
            .into_iter()
            .filter(|t| t.outcome != Outcome::Identical)
            .collect();
        assert!(!caught.is_empty(), "nudge-first-rect went unnoticed");
        assert!(
            caught.iter().any(|t| matches!(
                &t.outcome,
                Outcome::Diverged(d) if d.cell.is_some()
            )),
            "no delta divergence was localized to a cell"
        );
    }
}
