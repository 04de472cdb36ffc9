//! Dynamic crash-recovery verification — the `verify-recovery`
//! subcommand.
//!
//! `verify-equivalence` proves shard merges equal serial builds and
//! incremental updates equal full rebuilds; this module proves the
//! *durability* leg of the same contract: after a process crash at
//! **any** point of the statistics store's mutation pipeline (WAL
//! append → tier fold → compaction write/sync/rename → WAL truncation),
//! reopening the store recovers statistics byte-identical to some
//! crash-free prefix of the same workload:
//!
//! ```text
//! recover(crash(workload, op k, mode)) ∈ { state(step 0), …, state(step N) }
//! ```
//!
//! and at least every *acknowledged* step must survive — a state older
//! than the last step whose receipt the caller saw is lost durability,
//! a state matching no prefix at all is corruption. Divergences are
//! localized with [`first_divergence`] to a cell and statistic.
//!
//! The harness injects crashes through [`sj_query::StoreIo`]: a
//! [`FaultIo`] implementation buffers written-but-unsynced bytes in
//! memory (a simulated page cache) and discards them at the crash
//! point, so an unsynced write is provably *not* durable — renaming a
//! file whose data was never synced leaves a torn target on "disk",
//! which is exactly the power-loss window the store's sync-before-
//! rename discipline must close. Every trial is deterministic:
//! fixed datasets, a fixed four-step workload, and an exhaustive
//! crash matrix of every mutating I/O operation × three crash modes.
//!
//! Fault injection (`--inject`) sabotages the *recovery input* instead
//! — dropping the WAL's final record or skipping WAL replay entirely —
//! to prove the verifier detects a recovery that silently loses
//! acknowledged work.

use crate::report::{escape, render_verdicts, DivergentTrial, Format, Verdicts};
use crate::verify::reflect;
use sj_datagen::presets;
use sj_geo::Rect;
use sj_histogram::{first_divergence, Divergence, HistogramKind, SpatialHistogram};
use sj_query::{
    wal_record_ends, Catalog, CompactionPolicy, MutationId, QueryError, RealStoreIo, StoreIo,
};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// When, relative to the targeted I/O operation, the simulated process
/// death strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashMode {
    /// The operation fails without any effect — crash on entry.
    Before,
    /// The operation applies a *partial* durable effect (half a WAL
    /// append, half a sync's pages) and then fails — a torn write.
    Torn,
    /// The operation completes, then the process dies — every later
    /// operation fails.
    After,
}

impl CrashMode {
    /// All modes, in report order.
    pub const ALL: [CrashMode; 3] = [CrashMode::Before, CrashMode::Torn, CrashMode::After];

    /// Stable name used in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CrashMode::Before => "before",
            CrashMode::Torn => "torn",
            CrashMode::After => "after",
        }
    }
}

/// A seeded crash point: die at the `at_op`-th mutating store
/// operation, in the given mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint {
    /// Zero-based index into the run's mutating-operation sequence.
    pub at_op: usize,
    /// How the targeted operation dies.
    pub mode: CrashMode,
}

/// A deliberately broken *recovery*, injected via `--inject` so the
/// self-tests can prove the verifier catches lost durability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryFault {
    /// Truncate the surviving WAL by its final complete record before
    /// recovery — the moral equivalent of a replay that stops early.
    DropWalTail,
    /// Recover as if no WAL existed at all (the file is removed before
    /// recovery) — acknowledged batches that were only WAL-durable
    /// silently vanish.
    SkipWalReplay,
}

impl RecoveryFault {
    /// Stable name accepted by `--inject` and used in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RecoveryFault::DropWalTail => "drop-wal-tail",
            RecoveryFault::SkipWalReplay => "skip-wal-replay",
        }
    }

    /// Parses an `--inject` argument.
    #[must_use]
    pub fn parse(name: &str) -> Option<RecoveryFault> {
        [RecoveryFault::DropWalTail, RecoveryFault::SkipWalReplay]
            .into_iter()
            .find(|f| f.name() == name)
    }
}

/// The matrix the verifier runs.
#[derive(Debug, Clone)]
pub struct RecoveryConfig {
    /// Scale factor on the scenario cardinality
    /// ([`presets::VERIFY_COUNT`] at `1.0`).
    pub scale: f64,
    /// Grid level of every build (`4^level` cells).
    pub level: u32,
    /// Optional sabotage applied to the recovery input of every trial.
    pub fault: Option<RecoveryFault>,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            scale: 0.2,
            level: 4,
            fault: None,
        }
    }
}

/// Result of one trial's recovery comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryOutcome {
    /// Recovery produced a crash-free prefix state no older than the
    /// last acknowledged step.
    Identical,
    /// Recovery produced statistics matching no admissible prefix; the
    /// first differing cell/statistic against the last acknowledged
    /// state.
    Diverged(Divergence),
    /// Recovery matched no admissible prefix but no statistic
    /// divergence was located (e.g. only the dataset differs).
    StateMismatch(String),
    /// Reopening the store after the crash failed outright.
    RecoveryFailed(String),
    /// The crashed run itself failed *before* the injected crash fired
    /// — a harness or store bug, surfaced instead of miscounted.
    RunFailed(String),
}

/// One (kind, crash-op, crash-mode) trial.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryTrial {
    /// Scenario dataset name.
    pub scenario: String,
    /// Histogram family under test.
    pub kind: HistogramKind,
    /// Grid level of the build.
    pub level: u32,
    /// Index of the mutating store operation the crash targeted.
    pub at_op: usize,
    /// Crash mode at that operation.
    pub mode: CrashMode,
    /// Steps of the workload acknowledged before the crash.
    pub acknowledged: usize,
    /// The comparison result.
    pub outcome: RecoveryOutcome,
}

impl RecoveryTrial {
    /// The trial as a report line, or `None` when it recovered exactly.
    fn report_line(&self) -> Option<DivergentTrial> {
        let detail = match &self.outcome {
            RecoveryOutcome::Identical => return None,
            RecoveryOutcome::Diverged(d) => d.to_string(),
            RecoveryOutcome::StateMismatch(why) => why.clone(),
            RecoveryOutcome::RecoveryFailed(why) => format!("store reopen failed: {why}"),
            RecoveryOutcome::RunFailed(why) => {
                format!("workload failed before the injected crash: {why}")
            }
        };
        Some(DivergentTrial {
            coordinate: self.coordinate(),
            message: format!(
                "recovered state differs from every crash-free prefix \
                 (acknowledged {} steps): {detail}",
                self.acknowledged
            ),
            json_fields: format!(
                "\"scenario\": \"{}\", \"kind\": \"{}\", \"level\": {}, \"op\": {}, \
                 \"mode\": \"{}\", \"acknowledged\": {}, \"detail\": \"{}\"",
                escape(&self.scenario),
                self.kind.name(),
                self.level,
                self.at_op,
                self.mode.name(),
                self.acknowledged,
                escape(&detail)
            ),
        })
    }

    /// `scenario/kind/L<level>/op<k>-<mode>` — the stable trial
    /// coordinate used in reports.
    #[must_use]
    pub fn coordinate(&self) -> String {
        format!(
            "{}/{}/L{}/op{}-{}",
            self.scenario,
            self.kind.name(),
            self.level,
            self.at_op,
            self.mode.name()
        )
    }
}

/// The full verification run: every trial in deterministic matrix order.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// All trials, kinds outermost, then crash op, then mode.
    pub trials: Vec<RecoveryTrial>,
    /// The sabotage injected into every trial's recovery, if any.
    pub fault: Option<RecoveryFault>,
}

impl RecoveryReport {
    /// Trials whose recovery did not reproduce an admissible state.
    pub fn divergent(&self) -> impl Iterator<Item = &RecoveryTrial> {
        self.trials
            .iter()
            .filter(|t| t.outcome != RecoveryOutcome::Identical)
    }

    /// Whether every trial recovered exactly.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.divergent().next().is_none()
    }

    /// Renders the report in the selected format (see
    /// [`crate::report`]).
    #[must_use]
    pub fn render(&self, format: Format) -> String {
        let verdicts = Verdicts {
            command: "verify-recovery",
            fault: self
                .fault
                .map(|f| (f.name(), "into every trial's recovery")),
            trials: self.trials.len(),
            divergent: self
                .trials
                .iter()
                .filter_map(RecoveryTrial::report_line)
                .collect(),
            clean_claim: "every crash point recovered to an acknowledged crash-free state",
        };
        render_verdicts(&verdicts, format)
    }
}

/// What the targeted operation should do once [`FaultIo`] decides its
/// fate.
enum OpFate {
    /// Run normally.
    Run,
    /// Apply a partial effect, then fail.
    Torn,
    /// Run normally; the process is dead afterwards.
    CrashAfter,
}

/// Crash-injecting [`StoreIo`]: durable bytes live on the real
/// filesystem, written-but-unsynced bytes live in an in-memory "page
/// cache" that the crash discards. Reads during the run see cache ∪
/// disk (the live process observes its own writes); recovery — a fresh
/// [`RealStoreIo`] over the same directory — sees only what was
/// actually made durable.
pub struct FaultIo {
    plan: Option<CrashPoint>,
    #[expect(
        clippy::disallowed_types,
        reason = "the fault harness holds exactly one lock and runs only inside the verifier; ranking it would drag the harness into the hierarchy it exists to test"
    )]
    state: std::sync::Mutex<FaultState>,
}

struct FaultState {
    /// Mutating operations executed so far (the crash-point index).
    ops: usize,
    /// Once set, every operation fails: the process is dead.
    crashed: bool,
    /// Written-but-unsynced file contents, discarded at the crash.
    cache: HashMap<PathBuf, Vec<u8>>,
}

impl FaultIo {
    /// A harness I/O layer that crashes at `plan` (or never, if `None` —
    /// used for the op-counting probe and the crash-free baseline).
    #[must_use]
    pub fn new(plan: Option<CrashPoint>) -> Self {
        #[expect(
            clippy::disallowed_types,
            reason = "the fault harness holds exactly one lock and runs only inside the verifier; ranking it would drag the harness into the hierarchy it exists to test"
        )]
        let state = std::sync::Mutex::new(FaultState {
            ops: 0,
            crashed: false,
            cache: HashMap::new(),
        });
        FaultIo { plan, state }
    }

    /// Mutating operations seen so far.
    pub fn ops(&self) -> usize {
        self.lock().ops
    }

    /// Whether the planned crash fired.
    pub fn crashed(&self) -> bool {
        self.lock().crashed
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FaultState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn dead() -> std::io::Error {
        std::io::Error::other("injected crash: process is dead")
    }

    /// Counts one mutating operation and decides its fate. Sets the
    /// crashed flag when the planned point is reached.
    fn begin_op(&self) -> std::io::Result<OpFate> {
        let mut s = self.lock();
        if s.crashed {
            return Err(Self::dead());
        }
        let here = s.ops;
        s.ops += 1;
        match self.plan {
            Some(p) if p.at_op == here => {
                s.crashed = true;
                // The crash drops the page cache: whatever was written
                // but never synced is gone, exactly like power loss.
                s.cache.clear();
                match p.mode {
                    CrashMode::Before => Err(Self::dead()),
                    CrashMode::Torn => Ok(OpFate::Torn),
                    CrashMode::After => Ok(OpFate::CrashAfter),
                }
            }
            _ => Ok(OpFate::Run),
        }
    }

    /// Fails non-mutating operations once the process is dead.
    fn alive(&self) -> std::io::Result<()> {
        if self.lock().crashed {
            Err(Self::dead())
        } else {
            Ok(())
        }
    }
}

impl StoreIo for FaultIo {
    fn create_dir_all(&self, dir: &Path) -> std::io::Result<()> {
        self.alive()?;
        std::fs::create_dir_all(dir)
    }

    fn exists(&self, path: &Path) -> bool {
        if self.lock().crashed {
            return false;
        }
        self.lock().cache.contains_key(path) || path.exists()
    }

    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        self.alive()?;
        if let Some(bytes) = self.lock().cache.get(path) {
            return Ok(bytes.clone());
        }
        std::fs::read(path)
    }

    fn append_wal(&self, path: &Path, record: &[u8]) -> std::io::Result<()> {
        // Append+fsync is one durable operation by contract, so its
        // torn mode is the canonical torn WAL tail: half the record
        // reaches disk.
        let fate = self.begin_op()?;
        let durable = match fate {
            OpFate::Torn => &record[..record.len() / 2],
            _ => record,
        };
        RealStoreIo.append_wal(path, durable)?;
        match fate {
            OpFate::Torn => Err(Self::dead()),
            _ => Ok(()),
        }
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        // Writes land in the page cache only; durability comes from
        // sync_file. A torn unsynced write is indistinguishable from no
        // write after the crash, so torn degrades to before.
        match self.begin_op()? {
            OpFate::Torn => Err(Self::dead()),
            _ => {
                self.lock().cache.insert(path.to_path_buf(), bytes.to_vec());
                Ok(())
            }
        }
    }

    fn sync_file(&self, path: &Path) -> std::io::Result<()> {
        let fate = self.begin_op()?;
        let pending = self.lock().cache.remove(path);
        if let Some(bytes) = pending {
            let durable = match fate {
                // A failed fsync after partial writeback: half the
                // pages made it to disk.
                OpFate::Torn => &bytes[..bytes.len() / 2],
                _ => &bytes[..],
            };
            std::fs::write(path, durable)?;
        }
        match fate {
            OpFate::Torn => Err(Self::dead()),
            _ => Ok(()),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        let fate = self.begin_op()?;
        if matches!(fate, OpFate::Torn) {
            // A rename is atomic in the namespace: torn degrades to
            // crash-on-entry.
            return Err(Self::dead());
        }
        let unsynced = self.lock().cache.remove(from);
        match unsynced {
            None => std::fs::rename(from, to)?,
            Some(bytes) => {
                // Renaming a file whose data was never synced: the
                // namespace points at `to`, but only half the data
                // survives the eventual crash — THE torn-base hazard
                // the store's sync-before-rename discipline prevents.
                std::fs::write(to, &bytes[..bytes.len() / 2])?;
                if from.exists() {
                    std::fs::remove_file(from)?;
                }
                // The live process still sees the full content.
                self.lock().cache.insert(to.to_path_buf(), bytes);
            }
        }
        Ok(())
    }

    fn remove(&self, path: &Path) -> std::io::Result<()> {
        let _fate = self.begin_op()?;
        self.lock().cache.remove(path);
        std::fs::remove_file(path)
    }

    fn sync_dir(&self, _dir: &Path) -> std::io::Result<()> {
        // Metadata durability is not a counted crash point: the store
        // treats this as best-effort and ignores failures, so a crash
        // seeded here would never fire.
        self.alive()
    }
}

/// The table name every trial uses.
const TABLE: &str = "verify-uniform";

/// Compaction policy of every trial: two records force an automatic
/// compaction inside step 2, so the matrix covers the auto-compact path
/// as well as the explicit one.
const POLICY: CompactionPolicy = CompactionPolicy { max_tiers: 2 };

/// Number of workload steps (each acknowledged by a receipt).
const STEPS: usize = 4;

/// The insert/delete batch of workload step `step` (1-based), derived
/// from the base data by fixed index strides. Delete strides use
/// disjoint residue classes so no rectangle is deleted twice across
/// steps. Step 1 also inserts a copy of `base[0]` and step 3 deletes
/// one copy: first-match resolution claims the original row, so a
/// replay that claimed the copy would leave the rows in another order.
fn step_batch(step: usize, base: &[Rect], extent: Rect) -> (Vec<Rect>, Vec<Rect>) {
    let mut inserts: Vec<Rect> = base
        .iter()
        .skip(step * 5)
        .step_by(97)
        .take(8)
        .map(|r| reflect(*r, extent))
        .collect();
    let mut deletes: Vec<Rect> = base
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 13 == step)
        .map(|(_, r)| *r)
        .take(6)
        .collect();
    match (step, base.first()) {
        (1, Some(&first)) => inserts.push(first),
        (3, Some(&first)) => deletes.push(first),
        _ => {}
    }
    (inserts, deletes)
}

/// A captured crash-free prefix state: the persisted statistics
/// envelope, the dataset, and a live histogram for divergence
/// localization.
struct Expected {
    bytes: Vec<u8>,
    rects: Vec<Rect>,
    hist: Box<dyn SpatialHistogram>,
}

/// A fresh catalog with the scenario registered.
fn fresh_catalog(
    dataset: &sj_datagen::Dataset,
    kind: HistogramKind,
    level: u32,
) -> Result<Catalog, QueryError> {
    let mut c = Catalog::with_kind(kind, level);
    c.register(dataset.clone())?;
    Ok(c)
}

/// Runs the four-step workload, stopping at the first error. Returns
/// the number of fully acknowledged steps and the terminating error.
fn run_steps(
    c: &mut Catalog,
    base: &[Rect],
    extent: Rect,
    mut capture: Option<&mut Vec<Expected>>,
) -> (usize, Option<QueryError>) {
    if let Some(out) = capture.as_deref_mut() {
        if let Err(e) = snapshot_state(c, out) {
            return (0, Some(e));
        }
    }
    for step in 1..=STEPS {
        let result = if step == STEPS {
            c.compact(TABLE).map(|_| ())
        } else {
            let (inserts, deletes) = step_batch(step, base, extent);
            let id = MutationId::new(0xC0FFEE, step as u64);
            c.apply_delta_idempotent(TABLE, &inserts, &deletes, id)
                .map(|_| ())
        };
        if let Err(e) = result {
            return (step - 1, Some(e));
        }
        if let Some(out) = capture.as_deref_mut() {
            if let Err(e) = snapshot_state(c, out) {
                return (step, Some(e));
            }
        }
    }
    (STEPS, None)
}

/// Appends the catalog's current (statistics, dataset) state.
fn snapshot_state(c: &Catalog, out: &mut Vec<Expected>) -> Result<(), QueryError> {
    let h = c.histogram(TABLE)?;
    out.push(Expected {
        bytes: h.persist().to_vec(),
        rects: c.dataset(TABLE)?.rects.clone(),
        hist: h.clone_box(),
    });
    Ok(())
}

/// Applies the configured recovery sabotage to the crashed directory.
fn sabotage(fault: RecoveryFault, dir: &Path) -> Result<(), String> {
    let wal = dir.join(format!("{TABLE}.wal"));
    if !wal.exists() {
        return Ok(());
    }
    match fault {
        RecoveryFault::SkipWalReplay => {
            std::fs::remove_file(&wal).map_err(|e| format!("hiding WAL: {e}"))
        }
        RecoveryFault::DropWalTail => {
            let data = std::fs::read(&wal).map_err(|e| format!("reading WAL to sabotage: {e}"))?;
            let ends = wal_record_ends(&data).map_err(|e| e.to_string())?;
            // Drop the final complete record (ends are cumulative byte
            // offsets; the second-to-last is the truncation point).
            let keep = if ends.len() >= 2 {
                ends[ends.len() - 2]
            } else {
                0
            };
            std::fs::write(&wal, &data[..keep]).map_err(|e| format!("truncating WAL: {e}"))
        }
    }
}

/// Numbers scratch directories within one process, so concurrent runs
/// (the unit tests run the matrix on parallel threads) never share one.
static NEXT_TRIAL_DIR: AtomicU64 = AtomicU64::new(0);

/// A scratch directory unique to this process, call and trial.
fn trial_dir(tag: &str) -> PathBuf {
    let n = NEXT_TRIAL_DIR.fetch_add(1, Ordering::SeqCst);
    let dir = std::env::temp_dir().join(format!(
        "sj-verify-recovery-{}-{n}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs one crash trial and judges its recovery.
fn run_trial(
    dataset: &sj_datagen::Dataset,
    kind: HistogramKind,
    level: u32,
    point: CrashPoint,
    expected: &[Expected],
    fault: Option<RecoveryFault>,
) -> Result<RecoveryTrial, String> {
    let extent = dataset.extent.rect();
    let dir = trial_dir(&format!(
        "{}-op{}-{}",
        kind.name(),
        point.at_op,
        point.mode.name()
    ));
    let io = Arc::new(FaultIo::new(Some(point)));
    let trial = |acknowledged, outcome| RecoveryTrial {
        scenario: dataset.name.clone(),
        kind,
        level,
        at_op: point.at_op,
        mode: point.mode,
        acknowledged,
        outcome,
    };

    // The crashed run.
    let mut c = fresh_catalog(dataset, kind, level).map_err(|e| e.to_string())?;
    let (acknowledged, run_error) =
        match c.open_stats_store_with_io(&dir, POLICY, Arc::clone(&io) as Arc<dyn StoreIo>) {
            Ok(_) => run_steps(&mut c, &dataset.rects, extent, None),
            Err(e) => (0, Some(e)),
        };
    drop(c);
    if run_error.is_some() && !io.crashed() {
        let why = run_error.map(|e| e.to_string()).unwrap_or_default();
        let _ = std::fs::remove_dir_all(&dir);
        return Ok(trial(acknowledged, RecoveryOutcome::RunFailed(why)));
    }

    // Optional sabotage, then recovery over the surviving bytes.
    if let Some(f) = fault {
        sabotage(f, &dir)?;
    }
    let mut rc = fresh_catalog(dataset, kind, level).map_err(|e| e.to_string())?;
    let outcome = match rc.open_stats_store_with_io(&dir, POLICY, Arc::new(RealStoreIo)) {
        Err(e) => RecoveryOutcome::RecoveryFailed(e.to_string()),
        Ok(_) => judge(&rc, acknowledged, expected)?,
    };
    let _ = std::fs::remove_dir_all(&dir);
    Ok(trial(acknowledged, outcome))
}

/// Compares the recovered catalog against every admissible crash-free
/// prefix state (`acknowledged..=STEPS`).
fn judge(
    rc: &Catalog,
    acknowledged: usize,
    expected: &[Expected],
) -> Result<RecoveryOutcome, String> {
    let hist = rc.histogram(TABLE).map_err(|e| e.to_string())?;
    let bytes = hist.persist().to_vec();
    let rects = &rc.dataset(TABLE).map_err(|e| e.to_string())?.rects;
    let admissible = &expected[acknowledged..];
    if admissible
        .iter()
        .any(|e| e.bytes == bytes && &e.rects == rects)
    {
        return Ok(RecoveryOutcome::Identical);
    }
    // Localize against the last acknowledged state — the one the caller
    // is entitled to. Fall back over later prefixes so a pure
    // statistics drift still names a cell.
    for e in admissible {
        match first_divergence(e.hist.as_ref(), hist).map_err(|e| e.to_string())? {
            Some(d) => return Ok(RecoveryOutcome::Diverged(d)),
            None => continue,
        }
    }
    Ok(RecoveryOutcome::StateMismatch(format!(
        "statistics envelopes match an admissible prefix but the dataset does not \
         ({} rectangles recovered)",
        rects.len()
    )))
}

/// Runs the full crash matrix: for every histogram family, a probe run
/// counts the workload's mutating store operations and captures the
/// crash-free prefix states, then every (operation, mode) pair runs as
/// an independent crash trial.
///
/// # Errors
/// Returns a message when the harness itself fails (scratch-directory
/// I/O, an invalid grid level) — never for a divergence, which is
/// reported in the [`RecoveryReport`].
pub fn run_verify_recovery(config: &RecoveryConfig) -> Result<RecoveryReport, String> {
    let dataset = presets::verify_uniform(config.scale);
    let extent = dataset.extent.rect();
    let mut trials = Vec::new();
    for kind in HistogramKind::ALL {
        // Probe + baseline in one crash-free run through the very same
        // FaultIo semantics the trials use.
        let dir = trial_dir(&format!("{}-baseline", kind.name()));
        let io = Arc::new(FaultIo::new(None));
        let mut c = fresh_catalog(&dataset, kind, config.level).map_err(|e| e.to_string())?;
        c.open_stats_store_with_io(&dir, POLICY, Arc::clone(&io) as Arc<dyn StoreIo>)
            .map_err(|e| format!("baseline open failed: {e}"))?;
        let mut expected = Vec::with_capacity(STEPS + 1);
        let (acked, err) = run_steps(&mut c, &dataset.rects, extent, Some(&mut expected));
        drop(c);
        let _ = std::fs::remove_dir_all(&dir);
        if let Some(e) = err {
            return Err(format!("crash-free baseline failed at step {acked}: {e}"));
        }
        let total_ops = io.ops();
        for at_op in 0..total_ops {
            for mode in CrashMode::ALL {
                trials.push(run_trial(
                    &dataset,
                    kind,
                    config.level,
                    CrashPoint { at_op, mode },
                    &expected,
                    config.fault,
                )?);
            }
        }
    }
    Ok(RecoveryReport {
        trials,
        fault: config.fault,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(fault: Option<RecoveryFault>) -> RecoveryConfig {
        RecoveryConfig {
            scale: 0.05,
            level: 3,
            fault,
        }
    }

    #[test]
    fn every_crash_point_recovers_to_an_acknowledged_state() {
        let report = run_verify_recovery(&small(None)).unwrap();
        // 4 kinds × ops × 3 modes; the op count is an implementation
        // detail, but the matrix must be non-trivial and mode-complete.
        assert!(
            report.trials.len() >= 4 * 10 * 3,
            "suspiciously small matrix: {} trials",
            report.trials.len()
        );
        assert!(report.is_clean(), "{}", report.render(Format::Human));
        let human = report.render(Format::Human);
        assert!(human.contains("clean"), "{human}");
        let json = report.render(Format::Json);
        assert!(json.contains("\"clean\": true"), "{json}");
    }

    #[test]
    fn matrix_covers_acknowledged_loss_window() {
        // At least one trial must crash with work acknowledged but not
        // yet compacted — the window where WAL replay is load-bearing.
        let report = run_verify_recovery(&small(None)).unwrap();
        assert!(
            report
                .trials
                .iter()
                .any(|t| t.acknowledged > 0 && t.acknowledged < STEPS),
            "no trial exercised the partially-acknowledged window"
        );
    }

    #[test]
    fn report_is_deterministic() {
        let a = run_verify_recovery(&small(None)).unwrap();
        let b = run_verify_recovery(&small(None)).unwrap();
        assert_eq!(a.trials, b.trials, "identical run-to-run");
    }

    #[test]
    fn sabotaged_recovery_is_caught() {
        for fault in [RecoveryFault::DropWalTail, RecoveryFault::SkipWalReplay] {
            let report = run_verify_recovery(&small(Some(fault))).unwrap();
            assert!(
                !report.is_clean(),
                "{}: sabotaged recovery went unnoticed",
                fault.name()
            );
        }
    }

    #[test]
    fn fault_names_round_trip() {
        for fault in [RecoveryFault::DropWalTail, RecoveryFault::SkipWalReplay] {
            assert_eq!(RecoveryFault::parse(fault.name()), Some(fault));
        }
        assert_eq!(RecoveryFault::parse("nope"), None);
    }
}
