//! Dynamic equivalence verification — the `verify-equivalence`
//! subcommand.
//!
//! Clippy's `float_arithmetic` scopes guard the static precondition of
//! bit-identical histogram maintenance (no float arithmetic in merge
//! paths). This
//! module executes the contract end-to-end: for seeded uniform and
//! skewed datasets, every [`HistogramKind`], grid level and shard count,
//! it builds each histogram a second way ([`Way`]: a sharded merge, or a
//! signed delta applied to a base build) and asserts the result's
//! `.hist` envelope bytes equal a baseline's — the serial build for a
//! merge, `build(D ∪ Δ⁺ ∖ Δ⁻)` for a delta. The default matrix is
//! 2 scenarios × 2 levels × 4 kinds × 4 ways × 4 shard counts = **256
//! trials**. A mismatch is localized with [`first_divergence`] to the
//! first differing cell and statistic, never reported as a bare "bytes
//! differ". Everything is deterministic (fixed seeds, fixed batch
//! strides, no clock): two runs produce identical reports.
//!
//! Fault injection ([`Fault`]) tampers whatever input the second way
//! sees — the merged input, or the delta's insert batch — while the
//! baseline keeps the untampered data, so the self-tests (and `--inject`
//! on the CLI) can prove the verifier catches a broken build and names
//! the right cell and statistic.

use crate::report::{escape, render_verdicts, DivergentTrial, Format, Verdicts};
use sj_datagen::{presets, Dataset};
use sj_geo::Rect;
use sj_histogram::{
    build_histogram, build_histogram_parallel, build_histogram_sharded, first_divergence,
    Divergence, Grid, HistogramDelta, HistogramError, HistogramKind, SpatialHistogram,
};

/// The second way to build a histogram, compared against a baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Way {
    /// Grid rows banded across scoped worker threads
    /// ([`build_histogram_parallel`] with `shards` threads), against a
    /// serial build.
    RowBand,
    /// The rectangle array split into `shards` contiguous ranges, each
    /// built independently and merged ([`build_histogram_sharded`]),
    /// against a serial build.
    RectRange,
    /// A delta that deletes every 3rd base rectangle and inserts a
    /// reflection of every 4th — the steady-state mix of an updating
    /// table — applied to a base build, against a full rebuild.
    DeltaMixed,
    /// A delta that deletes the entire first half of the base data and
    /// inserts only a handful — drives the per-cell counts down hard, the
    /// regime where an unchecked subtraction would underflow.
    DeltaDeleteHeavy,
}

impl Way {
    /// Every way, in report order.
    pub const ALL: [Way; 4] = [
        Way::RowBand,
        Way::RectRange,
        Way::DeltaMixed,
        Way::DeltaDeleteHeavy,
    ];

    /// Stable name used in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Way::RowBand => "row-band",
            Way::RectRange => "rect-range",
            Way::DeltaMixed => "delta-mixed",
            Way::DeltaDeleteHeavy => "delta-delete-heavy",
        }
    }

    /// Whether this way applies a signed delta (baseline: a rebuild over
    /// the mutated data) rather than merging shards (baseline: a serial
    /// build).
    #[must_use]
    pub fn is_delta(self) -> bool {
        matches!(self, Way::DeltaMixed | Way::DeltaDeleteHeavy)
    }
}

/// A deliberately broken input, injected into the second build of every
/// trial (the baseline stays untouched) so self-tests can prove the
/// verifier catches real faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Drop the final rectangle — the moral equivalent of a merge that
    /// loses one shard's boundary-group count, or a delta that loses an
    /// insert. Caught by every family as a scalar `n` divergence.
    DropLastRect,
    /// Nudge one coordinate of the first rectangle by `1e-7` — the moral
    /// equivalent of float-accumulation drift in a fractional statistic.
    /// Caught by the mass-carrying families (PH, revised GH) as a
    /// cell-level divergence; the integer-only families are insensitive
    /// to sub-cell geometry by design.
    NudgeFirstRect,
}

impl Fault {
    /// Stable name accepted by `--inject` and used in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Fault::DropLastRect => "drop-last-rect",
            Fault::NudgeFirstRect => "nudge-first-rect",
        }
    }

    /// Resolves an `--inject` argument.
    #[must_use]
    pub fn parse(name: &str) -> Option<Fault> {
        [Fault::DropLastRect, Fault::NudgeFirstRect]
            .into_iter()
            .find(|f| f.name() == name)
    }

    /// Tampers `rects` in place.
    fn apply(self, rects: &mut Vec<Rect>) {
        match self {
            Fault::DropLastRect => {
                rects.pop();
            }
            Fault::NudgeFirstRect => {
                if let Some(first) = rects.first_mut() {
                    *first = Rect::new(first.xlo + 1e-7, first.ylo, first.xhi, first.yhi);
                }
            }
        }
    }
}

/// The scenario matrix the verifier runs.
#[derive(Debug, Clone)]
pub struct VerifyConfig {
    /// Scale factor on the scenario cardinalities
    /// ([`presets::VERIFY_COUNT`] at `1.0`).
    pub scale: f64,
    /// Grid levels to build at (`4^level` cells each).
    pub levels: Vec<u32>,
    /// Shard counts: thread counts for row-band builds and delta
    /// builds, range counts for rect-range builds.
    pub shard_counts: Vec<usize>,
    /// Optional fault injected into the second build of every trial.
    pub fault: Option<Fault>,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        VerifyConfig {
            scale: 1.0,
            levels: vec![3, 6],
            shard_counts: vec![2, 3, 5, 8],
            fault: None,
        }
    }
}

/// Result of one trial's byte comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// The second build's envelope is byte-identical to the baseline's.
    Identical,
    /// The envelopes differ; the first differing cell/statistic.
    Diverged(Divergence),
    /// The envelopes differ but no statistic divergence was located —
    /// envelope-level disagreement that should be unreachable.
    BytesOnly,
    /// `apply_delta` rejected the batch (e.g. a range violation) — a
    /// failure for a well-formed trial, surfaced typed instead of lost.
    Rejected(String),
}

/// One (scenario, kind, level, way, shard-count) comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Trial {
    /// Scenario dataset name (`verify-uniform`, `verify-skewed`).
    pub scenario: String,
    /// Histogram family under test.
    pub kind: HistogramKind,
    /// Grid level of the build.
    pub level: u32,
    /// How the second build was made.
    pub way: Way,
    /// Thread count (row-band, delta) or range count (rect-range).
    pub shards: usize,
    /// Whether the second build matched the baseline.
    pub outcome: Outcome,
}

impl Trial {
    /// `scenario/kind/L<level>/<way>x<shards>` — the stable trial
    /// coordinate used in reports.
    #[must_use]
    pub fn coordinate(&self) -> String {
        format!(
            "{}/{}/L{}/{}x{}",
            self.scenario,
            self.kind.name(),
            self.level,
            self.way.name(),
            self.shards
        )
    }

    /// The trial as a report line, or `None` when it passed.
    fn report_line(&self) -> Option<DivergentTrial> {
        let claim = if self.way.is_delta() {
            "incremental update differs from full rebuild"
        } else {
            "merged envelope differs from serial build"
        };
        let (detail, statistic) = match &self.outcome {
            Outcome::Identical => return None,
            Outcome::Diverged(d) => (
                d.to_string(),
                format!(
                    "\"statistic\": \"{}\", \"cell\": {}, \
                     \"left\": \"{}\", \"right\": \"{}\"",
                    escape(d.statistic),
                    d.cell.map_or("null".to_string(), |c| format!(
                        "{{\"col\": {}, \"row\": {}, \"index\": {}}}",
                        c.col, c.row, c.index
                    )),
                    escape(&d.left),
                    escape(&d.right)
                ),
            ),
            Outcome::BytesOnly => (
                "persisted bytes differ but no statistic divergence was located".to_string(),
                "\"statistic\": null, \"cell\": null, \"left\": null, \"right\": null".to_string(),
            ),
            Outcome::Rejected(why) => (
                format!("apply_delta rejected the batch: {why}"),
                format!(
                    "\"statistic\": \"rejected: {}\", \
                     \"cell\": null, \"left\": null, \"right\": null",
                    escape(why)
                ),
            ),
        };
        Some(DivergentTrial {
            coordinate: self.coordinate(),
            message: format!("{claim}: {detail}"),
            json_fields: format!(
                "\"scenario\": \"{}\", \"kind\": \"{}\", \"level\": {}, \"way\": \"{}\", \
                 \"shards\": {}, {statistic}",
                escape(&self.scenario),
                self.kind.name(),
                self.level,
                self.way.name(),
                self.shards
            ),
        })
    }
}

/// The full verification run: every trial in matrix order.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// All trials, in deterministic matrix order.
    pub trials: Vec<Trial>,
    /// The fault injected into the second builds, if any.
    pub fault: Option<Fault>,
}

impl VerifyReport {
    /// Trials whose second build differed from the baseline.
    pub fn divergent(&self) -> impl Iterator<Item = &Trial> {
        self.trials
            .iter()
            .filter(|t| t.outcome != Outcome::Identical)
    }

    /// Whether every trial was byte-identical.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.divergent().next().is_none()
    }

    /// Renders the report in the selected format (see
    /// [`crate::report`]).
    #[must_use]
    pub fn render(&self, format: Format) -> String {
        let verdicts = Verdicts {
            command: "verify-equivalence",
            fault: self.fault.map(|f| {
                (
                    f.name(),
                    "into every second build (the merged input, or the delta's insert batch)",
                )
            }),
            trials: self.trials.len(),
            divergent: self.trials.iter().filter_map(Trial::report_line).collect(),
            clean_claim: "every second build byte-identical to its baseline",
        };
        render_verdicts(&verdicts, format)
    }
}

/// Reflects `r` through the center of `extent` — a deterministic source
/// of "fresh" insert rectangles that stay inside the extent and are
/// (for the verify scenarios) almost never bitwise-equal to a base
/// rectangle, so a rebuild baseline genuinely unions them in.
pub(crate) fn reflect(r: Rect, extent: Rect) -> Rect {
    let sx = extent.xlo + extent.xhi;
    let sy = extent.ylo + extent.yhi;
    Rect::new(sx - r.xhi, sy - r.yhi, sx - r.xlo, sy - r.ylo)
}

/// The mutated dataset `D ∪ Δ⁺ ∖ Δ⁻` a delta way's baseline is built
/// over: each delete removes the first not-yet-removed exact match.
fn mutated(base: &[Rect], inserts: &[Rect], deletes: &[Rect]) -> Vec<Rect> {
    let mut live = vec![true; base.len()];
    for d in deletes {
        if let Some(i) = base.iter().enumerate().position(|(i, r)| live[i] && r == d) {
            live[i] = false;
        }
    }
    let mut out: Vec<Rect> = base
        .iter()
        .zip(&live)
        .filter_map(|(r, keep)| keep.then_some(*r))
        .collect();
    out.extend_from_slice(inserts);
    out
}

/// What one way sees of one scenario.
struct WayInput {
    way: Way,
    /// Data of the baseline build; `None` for the scenario itself (the
    /// serial build).
    rebuilt: Option<Vec<Rect>>,
    /// What the second build consumes — the merged input or the delta's
    /// insert batch — tampered under `--inject`.
    input: Vec<Rect>,
    /// The delta's delete batch (empty for merge ways).
    deletes: Vec<Rect>,
}

impl WayInput {
    /// Derives a way's batches from the scenario by fixed index strides.
    /// The baseline unions the real batch; the fault (if any) tampers
    /// only what the second build sees.
    fn new(way: Way, dataset: &Dataset, fault: Option<Fault>) -> WayInput {
        let base = &dataset.rects;
        let (mut input, deletes) = match way {
            Way::RowBand | Way::RectRange => (base.clone(), Vec::new()),
            Way::DeltaMixed | Way::DeltaDeleteHeavy => {
                let (insert_stride, deletes) = if way == Way::DeltaMixed {
                    (4, base.iter().step_by(3).copied().collect())
                } else {
                    (16, base[..base.len() / 2].to_vec())
                };
                let extent = dataset.extent.rect();
                let inserts: Vec<Rect> = base
                    .iter()
                    .step_by(insert_stride)
                    .map(|r| reflect(*r, extent))
                    .collect();
                (inserts, deletes)
            }
        };
        let rebuilt = way.is_delta().then(|| mutated(base, &input, &deletes));
        if let Some(f) = fault {
            f.apply(&mut input);
        }
        WayInput {
            way,
            rebuilt,
            input,
            deletes,
        }
    }

    /// Builds the histogram the second way: merges `shards` shard builds,
    /// or applies a delta built across `shards` threads to `base`.
    fn build(
        &self,
        kind: HistogramKind,
        grid: Grid,
        base: &dyn SpatialHistogram,
        shards: usize,
    ) -> Result<Box<dyn SpatialHistogram>, HistogramError> {
        match self.way {
            Way::RowBand => Ok(build_histogram_parallel(kind, grid, &self.input, shards)),
            Way::RectRange => {
                let chunk = self.input.len().div_ceil(shards).max(1);
                let ranges: Vec<&[Rect]> = self.input.chunks(chunk).collect();
                Ok(build_histogram_sharded(kind, grid, &ranges))
            }
            Way::DeltaMixed | Way::DeltaDeleteHeavy => {
                let delta =
                    HistogramDelta::build_parallel(kind, grid, &self.input, &self.deletes, shards);
                let mut updated = base.clone_box();
                updated.apply_delta(&delta)?;
                Ok(updated)
            }
        }
    }
}

/// Runs the full scenario matrix: for every seeded scenario dataset,
/// grid level and histogram family, builds the serial build once, then
/// compares every (way, shard-count) second build byte-for-byte against
/// that way's baseline.
///
/// # Errors
/// Returns [`HistogramError`] when a configured grid level is invalid
/// (the builds and comparisons themselves cannot fail).
pub fn run_verify(config: &VerifyConfig) -> Result<VerifyReport, HistogramError> {
    let mut trials = Vec::new();
    for dataset in presets::verify_scenarios(config.scale) {
        let ways: Vec<WayInput> = Way::ALL
            .iter()
            .map(|&way| WayInput::new(way, &dataset, config.fault))
            .collect();
        for &level in &config.levels {
            let grid = Grid::new(level, dataset.extent)?;
            for kind in HistogramKind::ALL {
                let serial = build_histogram(kind, grid, &dataset.rects);
                for w in &ways {
                    let rebuilt = w.rebuilt.as_ref().map(|r| build_histogram(kind, grid, r));
                    let baseline = rebuilt.as_deref().unwrap_or(serial.as_ref());
                    let expected = baseline.persist();
                    for &shards in &config.shard_counts {
                        let outcome = match w.build(kind, grid, serial.as_ref(), shards) {
                            Err(e) => Outcome::Rejected(e.to_string()),
                            Ok(built) if built.persist() == expected => Outcome::Identical,
                            Ok(built) => match first_divergence(baseline, built.as_ref())? {
                                Some(d) => Outcome::Diverged(d),
                                None => Outcome::BytesOnly,
                            },
                        };
                        trials.push(Trial {
                            scenario: dataset.name.clone(),
                            kind,
                            level,
                            way: w.way,
                            shards,
                            outcome,
                        });
                    }
                }
            }
        }
    }
    Ok(VerifyReport {
        trials,
        fault: config.fault,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small matrix for fast tests: one level, two shard counts.
    fn small(fault: Option<Fault>) -> VerifyConfig {
        VerifyConfig {
            scale: 0.1,
            levels: vec![4],
            shard_counts: vec![2, 5],
            fault,
        }
    }

    #[test]
    fn real_builds_are_merge_equivalent() {
        let report = run_verify(&small(None)).unwrap();
        assert_eq!(report.trials.len(), 2 * 4 * 4 * 2, "full matrix ran");
        assert!(report.is_clean(), "{}", report.render(Format::Human));
        let human = report.render(Format::Human);
        assert!(human.contains("clean"), "{human}");
        let json = report.render(Format::Json);
        assert!(json.contains("\"clean\": true"), "{json}");
        assert!(json.contains("\"divergent\": 0"), "{json}");
    }

    #[test]
    fn default_config_is_the_documented_256_trial_matrix() {
        // 2 scenarios × 2 levels × 4 kinds × 4 ways × 4 shard counts.
        let config = VerifyConfig::default();
        let expected = presets::verify_scenarios(0.01).len()
            * config.levels.len()
            * HistogramKind::ALL.len()
            * Way::ALL.len()
            * config.shard_counts.len();
        assert_eq!(expected, 256);
    }

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
    }

    #[test]
    fn report_is_deterministic() {
        let a = run_verify(&small(None)).unwrap();
        let b = run_verify(&small(None)).unwrap();
        assert_eq!(a.trials, b.trials, "identical run-to-run");
    }

    #[test]
    fn delta_report_is_deterministic() {
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

    #[test]
    fn fault_parse_roundtrip() {
        for fault in [Fault::DropLastRect, Fault::NudgeFirstRect] {
            assert_eq!(Fault::parse(fault.name()), Some(fault));
        }
        assert_eq!(Fault::parse("nope"), None);
    }
}
