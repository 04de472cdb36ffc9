use crate::degrade::{DegradationPolicy, EstimateOutcome, EstimateTier, SkippedTier};
use crate::error::QueryError;
use crate::plan::{ChainJoinQuery, Plan, Planner};
use sj_datagen::Dataset;
use sj_geo::Extent;
use sj_histogram::kernel::{ResidentHistogram, WordPartials};
use sj_histogram::{
    build_histogram, load_histogram, parametric_result_size, GhHistogram, Grid, HistogramDelta,
    HistogramKind, ParametricInputs, PhHistogram, SelectivityEstimate, SpatialHistogram,
};
use sj_rtree::{RTree, RTreeConfig};
use sj_sampling::{SamplingEstimator, SamplingTechnique};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Catalog configuration.
#[derive(Debug, Clone, Copy)]
pub struct CatalogConfig {
    /// Histogram family used for every table's statistics file.
    pub kind: HistogramKind,
    /// Gridding level for the per-table histogram files.
    pub grid_level: u32,
    /// R-tree configuration for table indexes.
    pub rtree: RTreeConfig,
    /// Extent every registered table must live in (the join universe).
    pub extent: Extent,
    /// Execution guard: abort a plan when an intermediate result exceeds
    /// this many tuples.
    pub tuple_budget: usize,
    /// Fallback ladder for estimation when primary statistics cannot
    /// serve (see [`DegradationPolicy`]).
    pub degradation: DegradationPolicy,
}

impl Default for CatalogConfig {
    fn default() -> Self {
        Self {
            kind: HistogramKind::Gh,
            grid_level: 6,
            rtree: RTreeConfig::default(),
            extent: Extent::unit(),
            tuple_budget: 50_000_000,
            degradation: DegradationPolicy::default(),
        }
    }
}

/// A table's statistics: usable, with the kernel view they estimate
/// from, or recorded as unusable with the reason (so degraded tables
/// still answer queries through the fallback ladder).
pub(crate) enum StatsState {
    Ready(Box<ResidentHistogram>),
    Unavailable { reason: String },
}

impl StatsState {
    pub(crate) fn ready_from(histogram: Box<dyn SpatialHistogram>) -> Self {
        Self::Ready(Box::new(ResidentHistogram::new(histogram)))
    }

    fn ready(&self) -> Result<&ResidentHistogram, &str> {
        match self {
            Self::Ready(h) => Ok(h),
            Self::Unavailable { reason } => Err(reason),
        }
    }
}

pub(crate) struct Table {
    pub(crate) dataset: Dataset,
    /// Written only through [`Catalog::stats_mut`], which forgets the
    /// memoized answers that read these statistics, and
    /// [`Catalog::apply_stats_delta`], which patches them.
    stats: StatsState,
    /// The table's row and column in the [`PairMemo`]; dense, in
    /// registration order.
    slot: usize,
    pub(crate) rtree: OnceLock<RTree>,
}

impl Table {
    pub(crate) fn stats(&self) -> &StatsState {
        &self.stats
    }
}

/// One memoized primary-tier answer, and for the view families the
/// per-word partials it was summed from (`None` for Euler).
struct MemoEntry {
    est: SelectivityEstimate,
    partials: Option<WordPartials>,
}

/// Primary-tier answers per ordered table pair (DESIGN.md §16.6): an
/// `n × n` array of write-once slots, row `a`, column `b` holding the
/// estimate of `a ⋈ b`. `(a, b)` and `(b, a)` are separate slots:
/// swapping the operands reassociates Eq. 5's sums, so the two answers
/// may differ in the last bit.
#[derive(Default)]
struct PairMemo {
    n: usize,
    slots: Vec<OnceLock<MemoEntry>>,
}

impl PairMemo {
    fn slot(&self, a: usize, b: usize) -> &OnceLock<MemoEntry> {
        &self.slots[a * self.n + b]
    }

    /// Adds an empty row and column for one more table; every answer
    /// already held stays.
    fn grow(&mut self) {
        let (old_n, n) = (self.n, self.n + 1);
        let mut old = std::mem::take(&mut self.slots).into_iter();
        self.slots = (0..n * n)
            .map(|i| {
                if i / n < old_n && i % n < old_n {
                    old.next().unwrap_or_default()
                } else {
                    OnceLock::new()
                }
            })
            .collect();
        self.n = n;
    }

    /// Empties row `t` and column `t`, the answers that read table `t`.
    fn forget(&mut self, t: usize) {
        for k in 0..self.n {
            self.slots[t * self.n + k].take();
            self.slots[k * self.n + t].take();
        }
    }

    /// Brings row `t` and column `t` up to date after a delta touched
    /// `words` of table `t`'s view: each held answer recomputes those
    /// words' partials and re-sums ([`ResidentHistogram::repatch`]), so
    /// it equals a cold estimate bit for bit. `stats[k]` is the usable
    /// statistics of the table in slot `k`. An answer without partials
    /// (Euler) is emptied instead.
    fn patch(&mut self, t: usize, stats: &[Option<&ResidentHistogram>], words: &[usize]) {
        let n = self.n;
        let row = (0..n).map(|k| (t, k));
        let column = (0..n).filter(|&k| k != t).map(|k| (k, t));
        for (a, b) in row.chain(column) {
            let slot = &mut self.slots[a * n + b];
            let Some(entry) = slot.get_mut() else {
                continue;
            };
            let patched = match (&mut entry.partials, stats[a], stats[b]) {
                (Some(partials), Some(ha), Some(hb)) => ha.repatch(hb, partials, words).ok(),
                _ => None,
            };
            match patched {
                Some(est) => entry.est = est,
                None => drop(slot.take()),
            }
        }
    }
}

/// A catalog of named spatial tables with precomputed statistics.
///
/// Registration builds the configured histogram file immediately (the
/// cheap, always-useful statistic); R-trees are built lazily the first
/// time a plan needs one, mirroring how an SDBMS separates statistics
/// collection from index builds.
pub struct Catalog {
    pub(crate) config: CatalogConfig,
    pub(crate) grid: Grid,
    pub(crate) tables: BTreeMap<String, Table>,
    memo: PairMemo,
    pub(crate) store: crate::store::StatsStore,
}

impl Catalog {
    /// Creates a catalog with the given configuration.
    ///
    /// # Panics
    /// Panics if the configured grid level exceeds [`Grid::MAX_LEVEL`] —
    /// this is static configuration, not data. Use [`Catalog::try_new`]
    /// to handle the error instead.
    #[must_use]
    pub fn new(config: CatalogConfig) -> Self {
        match Self::try_new(config) {
            Ok(c) => c,
            #[expect(
                clippy::panic,
                reason = "documented contract: static misconfiguration, try_new is the fallible path"
            )]
            Err(e) => panic!("invalid catalog configuration: {e}"),
        }
    }

    /// Creates a catalog with the given configuration, rejecting invalid
    /// configurations instead of panicking.
    ///
    /// # Errors
    /// Returns [`QueryError::Histogram`] when the configured grid level
    /// exceeds [`Grid::MAX_LEVEL`].
    pub fn try_new(config: CatalogConfig) -> Result<Self, QueryError> {
        let grid = Grid::new(config.grid_level, config.extent)?;
        Ok(Self {
            config,
            grid,
            tables: BTreeMap::new(),
            memo: PairMemo::default(),
            store: crate::store::StatsStore::default(),
        })
    }

    /// Creates a catalog over the unit extent at the given histogram
    /// level, with defaults for everything else (GH statistics).
    #[must_use]
    pub fn with_level(grid_level: u32) -> Self {
        Self::new(CatalogConfig {
            grid_level,
            ..CatalogConfig::default()
        })
    }

    /// Creates a catalog using the given histogram family at the given
    /// level, with defaults for everything else.
    #[must_use]
    pub fn with_kind(kind: HistogramKind, grid_level: u32) -> Self {
        Self::new(CatalogConfig {
            kind,
            grid_level,
            ..CatalogConfig::default()
        })
    }

    /// The catalog configuration.
    #[must_use]
    pub fn config(&self) -> CatalogConfig {
        self.config
    }

    /// Registers a dataset under its own name, building its histogram
    /// file.
    ///
    /// # Errors
    /// Returns [`QueryError::DuplicateTable`] if the name is taken.
    pub fn register(&mut self, dataset: Dataset) -> Result<(), QueryError> {
        if self.tables.contains_key(&dataset.name) {
            return Err(QueryError::DuplicateTable(dataset.name.clone()));
        }
        let histogram = build_histogram(self.config.kind, self.grid, &dataset.rects);
        self.insert_table(dataset, StatsState::ready_from(histogram));
        Ok(())
    }

    /// Registered table names, sorted.
    #[must_use]
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    /// Number of objects in a table.
    ///
    /// # Errors
    /// Returns [`QueryError::UnknownTable`] for unregistered names.
    pub fn table_len(&self, name: &str) -> Result<usize, QueryError> {
        Ok(self.table(name)?.dataset.len())
    }

    /// The histogram file of a table, whatever its configured family.
    ///
    /// # Errors
    /// [`QueryError::UnknownTable`] for unregistered names;
    /// [`QueryError::StatisticsUnavailable`] for tables registered
    /// leniently whose statistics were unusable.
    pub fn histogram(&self, name: &str) -> Result<&dyn SpatialHistogram, QueryError> {
        Ok(self.statistics(name)?.1.histogram())
    }

    /// A table and its usable statistics.
    fn statistics(&self, name: &str) -> Result<(&Table, &ResidentHistogram), QueryError> {
        let table = self.table(name)?;
        let stats = table
            .stats
            .ready()
            .map_err(|reason| QueryError::StatisticsUnavailable {
                table: name.to_string(),
                reason: reason.to_string(),
            })?;
        Ok((table, stats))
    }

    /// Join estimate between two tables from their primary statistics
    /// alone, with no fallback: the pair memo's answer (DESIGN.md
    /// §16.6), or the kernel on the two resident views (§16.1), which
    /// then fills the memo. Bit-identical to
    /// [`SpatialHistogram::estimate_join`] on the tables' histograms.
    ///
    /// # Errors
    /// [`QueryError::UnknownTable`] for unregistered names;
    /// [`QueryError::StatisticsUnavailable`] for a table without usable
    /// statistics.
    pub fn primary_estimate(&self, a: &str, b: &str) -> Result<SelectivityEstimate, QueryError> {
        let ((ta, ha), (tb, hb)) = (self.statistics(a)?, self.statistics(b)?);
        Ok(self.memo_estimate(ta, ha, tb, hb)?)
    }

    /// The primary-tier answer for `ta ⋈ tb` from the pair memo, or one
    /// kernel pass over the two resident views whose answer and per-word
    /// partials fill the memo. Only successes are stored. Two readers
    /// that find the slot empty at once both run the kernel over the
    /// same views, so both compute the same bits and either `set` may
    /// win.
    fn memo_estimate(
        &self,
        ta: &Table,
        ha: &ResidentHistogram,
        tb: &Table,
        hb: &ResidentHistogram,
    ) -> Result<SelectivityEstimate, sj_histogram::HistogramError> {
        let slot = self.memo.slot(ta.slot, tb.slot);
        if let Some(entry) = slot.get() {
            return Ok(entry.est);
        }
        let (est, partials) = ha.estimate_with_partials(hb)?;
        // A racing reader may have filled the slot with the same bits.
        let _ = slot.set(MemoEntry { est, partials });
        Ok(est)
    }

    /// Whether the pair memo holds an answer for `a ⋈ b`. A test hook
    /// for the memo's fill and reset rules.
    #[doc(hidden)]
    #[must_use]
    pub fn memo_holds(&self, a: &str, b: &str) -> bool {
        self.memo_entry(a, b).is_some()
    }

    /// The pair memo's answer for `a ⋈ b` and the per-word partials it
    /// keeps, if it holds one. A test hook for the patch rule.
    #[doc(hidden)]
    #[must_use]
    pub fn memo_entry(
        &self,
        a: &str,
        b: &str,
    ) -> Option<(SelectivityEstimate, Option<&WordPartials>)> {
        let (ta, tb) = (self.tables.get(a)?, self.tables.get(b)?);
        let entry = self.memo.slot(ta.slot, tb.slot).get()?;
        Some((entry.est, entry.partials.as_ref()))
    }

    /// The table's histogram downcast to the revised Geometric
    /// Histogram, for callers that need GH-specific accessors (sparse
    /// encoding, window estimates).
    ///
    /// # Errors
    /// [`QueryError::UnknownTable`] for unregistered names, or
    /// [`QueryError::Histogram`] with a kind mismatch when the catalog
    /// is configured for a different family.
    pub fn gh_histogram(&self, name: &str) -> Result<&GhHistogram, QueryError> {
        let hist = self.histogram(name)?;
        hist.as_any().downcast_ref::<GhHistogram>().ok_or_else(|| {
            QueryError::Histogram(sj_histogram::HistogramError::KindMismatch {
                left: hist.kind(),
                right: HistogramKind::Gh,
            })
        })
    }

    /// The R-tree index of a table, built on first request.
    ///
    /// # Errors
    /// Returns [`QueryError::UnknownTable`] for unregistered names.
    pub fn rtree(&self, name: &str) -> Result<&RTree, QueryError> {
        let table = self.table(name)?;
        Ok(table
            .rtree
            .get_or_init(|| RTree::bulk_load_str(self.config.rtree, &table.dataset.rects)))
    }

    /// The underlying dataset of a table.
    ///
    /// # Errors
    /// Returns [`QueryError::UnknownTable`] for unregistered names.
    pub fn dataset(&self, name: &str) -> Result<&Dataset, QueryError> {
        Ok(&self.table(name)?.dataset)
    }

    /// Estimated number of intersecting pairs between two tables.
    ///
    /// Served by the graceful-degradation ladder: the primary histogram
    /// files when both are usable, otherwise the first fallback tier the
    /// configured [`DegradationPolicy`] allows (PH rebuild → parametric →
    /// sampling). Use [`Catalog::estimate_join_pairs_detailed`] to see
    /// which tier answered.
    ///
    /// # Errors
    /// [`QueryError::UnknownTable`] for unregistered names;
    /// [`QueryError::EstimatorsExhausted`] when every tier is disabled
    /// or failed.
    pub fn estimate_join_pairs(&self, a: &str, b: &str) -> Result<f64, QueryError> {
        Ok(self
            .estimate_join_pairs_detailed(a, b, &self.config.degradation)?
            .pairs)
    }

    /// Like [`Catalog::estimate_join_pairs`], with an explicit policy and
    /// full provenance: which tier served, and which tiers were skipped
    /// with the reasons why.
    ///
    /// # Errors
    /// [`QueryError::UnknownTable`] for unregistered names;
    /// [`QueryError::EstimatorsExhausted`] when every tier is disabled
    /// or failed.
    pub fn estimate_join_pairs_detailed(
        &self,
        a: &str,
        b: &str,
        policy: &DegradationPolicy,
    ) -> Result<EstimateOutcome, QueryError> {
        let (ta, tb) = (self.table(a)?, self.table(b)?);
        let mut skipped = Vec::new();
        let mut skip = |tier: EstimateTier, reason: String| {
            skipped.push(SkippedTier { tier, reason });
        };

        // Tier 1: the primary statistics of the configured family.
        let primary = EstimateTier::Primary(self.config.kind);
        match (ta.stats.ready(), tb.stats.ready()) {
            (Ok(ha), Ok(hb)) => match self.memo_estimate(ta, ha, tb, hb) {
                Ok(est) => {
                    return Ok(EstimateOutcome {
                        pairs: est.pairs,
                        selectivity: est.selectivity,
                        tier: primary,
                        skipped,
                    })
                }
                Err(e) => skip(primary, format!("primary estimation failed: {e}")),
            },
            (ra, rb) => {
                for (name, r) in [(a, ra), (b, rb)] {
                    if let Err(reason) = r {
                        skip(primary, format!("table {name:?}: {reason}"));
                    }
                }
            }
        }

        // Tier 2: rebuild Parametric Histograms from the raw datasets.
        if !policy.allow_ph_rebuild {
            skip(EstimateTier::PhRebuild, "disabled by policy".to_string());
        } else {
            match Grid::new(policy.ph_level, self.config.extent) {
                Ok(grid) => {
                    let ha = PhHistogram::build(grid, &ta.dataset.rects);
                    let hb = PhHistogram::build(grid, &tb.dataset.rects);
                    match ha.estimate(&hb) {
                        Ok(est) => {
                            return Ok(EstimateOutcome {
                                pairs: est.pairs,
                                selectivity: est.selectivity,
                                tier: EstimateTier::PhRebuild,
                                skipped,
                            })
                        }
                        Err(e) => skip(EstimateTier::PhRebuild, format!("rebuild failed: {e}")),
                    }
                }
                Err(e) => skip(EstimateTier::PhRebuild, format!("bad rebuild level: {e}")),
            }
        }

        // Tier 3: the whole-dataset parametric model (h = 0).
        if !policy.allow_parametric {
            skip(EstimateTier::Parametric, "disabled by policy".to_string());
        } else {
            let inputs = |d: &Dataset| {
                let s = d.stats();
                ParametricInputs {
                    count: s.count,
                    coverage: s.coverage,
                    avg_width: s.avg_width,
                    avg_height: s.avg_height,
                }
            };
            let pairs = parametric_result_size(
                &inputs(&ta.dataset),
                &inputs(&tb.dataset),
                self.config.extent.area(),
            );
            #[allow(clippy::cast_precision_loss)]
            let denom = ta.dataset.len() as f64 * tb.dataset.len() as f64;
            let selectivity = if denom == 0.0 {
                0.0
            } else {
                (pairs / denom).clamp(0.0, 1.0)
            };
            return Ok(EstimateOutcome {
                pairs: selectivity * denom,
                selectivity,
                tier: EstimateTier::Parametric,
                skipped,
            });
        }

        // Tier 4: RSWR sampling over the raw rectangles.
        if let Some(percent) = policy.sampling_percent {
            if percent > 0.0 && percent <= 100.0 {
                let outcome = SamplingEstimator::new(
                    SamplingTechnique::RandomWithReplacement,
                    percent,
                    percent,
                )
                .estimate(
                    &ta.dataset.rects,
                    &tb.dataset.rects,
                    &self.config.extent,
                );
                return Ok(EstimateOutcome {
                    pairs: outcome.pairs,
                    selectivity: outcome.selectivity,
                    tier: EstimateTier::Sampling,
                    skipped,
                });
            }
            skip(
                EstimateTier::Sampling,
                format!("sample percent {percent} outside (0, 100]"),
            );
        } else {
            skip(EstimateTier::Sampling, "disabled by policy".to_string());
        }

        let detail = skipped
            .iter()
            .map(|s| format!("{}: {}", s.tier.name(), s.reason))
            .collect::<Vec<_>>()
            .join("; ");
        Err(QueryError::EstimatorsExhausted(detail))
    }

    /// Plans a chain join query (see [`Planner`]).
    ///
    /// # Errors
    /// Propagates unknown-table and estimation errors.
    pub fn plan(&self, query: &ChainJoinQuery) -> Result<Plan, QueryError> {
        Planner::new(self).plan(query)
    }

    pub(crate) fn table(&self, name: &str) -> Result<&Table, QueryError> {
        self.tables
            .get(name)
            .ok_or_else(|| QueryError::UnknownTable(name.to_string()))
    }

    /// Registers `dataset` under its name with the given statistics, in
    /// the next memo slot: its row and column start empty. Callers have
    /// already rejected a duplicate name.
    fn insert_table(&mut self, dataset: Dataset, stats: StatsState) {
        let slot = self.tables.len();
        self.memo.grow();
        self.tables.insert(
            dataset.name.clone(),
            Table {
                dataset,
                stats,
                slot,
                rtree: OnceLock::new(),
            },
        );
    }

    /// Write access that replaces a registered table's statistics
    /// wholesale. It first empties the table's row and column of the
    /// pair memo — every answer that read the statistics about to
    /// change — so no stale answer outlives the write. `None` for an
    /// unregistered name.
    pub(crate) fn stats_mut(&mut self, name: &str) -> Option<&mut StatsState> {
        let table = self.tables.get_mut(name)?;
        self.memo.forget(table.slot);
        Some(&mut table.stats)
    }

    /// Applies a committed delta to a table's statistics and patches the
    /// pair memo's row and column for it (DESIGN.md §16.6): each held
    /// answer re-derives only the mask words the delta touched. A table
    /// without usable statistics changes nothing, and holds no answers.
    ///
    /// # Errors
    /// [`QueryError::UnknownTable`] for an unregistered name;
    /// [`QueryError::Histogram`] when the delta cannot apply, in which
    /// case neither the statistics nor the memo changed.
    pub(crate) fn apply_stats_delta(
        &mut self,
        name: &str,
        delta: &HistogramDelta,
    ) -> Result<(), QueryError> {
        let table = self
            .tables
            .get_mut(name)
            .ok_or_else(|| QueryError::UnknownTable(name.to_string()))?;
        let StatsState::Ready(stats) = &mut table.stats else {
            return Ok(());
        };
        let words = stats.apply_delta(delta)?;
        let t = table.slot;
        let mut by_slot = vec![None; self.tables.len()];
        for table in self.tables.values() {
            by_slot[table.slot] = table.stats.ready().ok();
        }
        self.memo.patch(t, &by_slot, &words);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sj_geo::Rect;

    fn tiny(name: &str, rects: Vec<Rect>) -> Dataset {
        Dataset::new(name, Extent::unit(), rects)
    }

    #[test]
    fn register_and_introspect() {
        let mut c = Catalog::with_level(3);
        c.register(tiny("a", vec![Rect::new(0.1, 0.1, 0.2, 0.2)]))
            .unwrap();
        c.register(tiny("b", vec![Rect::new(0.15, 0.15, 0.3, 0.3)]))
            .unwrap();
        assert_eq!(c.table_names(), vec!["a", "b"]);
        assert_eq!(c.table_len("a").unwrap(), 1);
        assert!(c.histogram("a").is_ok());
        assert_eq!(c.histogram("a").unwrap().kind(), HistogramKind::Gh);
        assert!(c.gh_histogram("a").is_ok());
        assert!(matches!(
            c.table_len("zzz"),
            Err(QueryError::UnknownTable(_))
        ));
    }

    #[test]
    fn duplicate_registration_rejected() {
        let mut c = Catalog::with_level(3);
        c.register(tiny("a", vec![])).unwrap();
        assert!(matches!(
            c.register(tiny("a", vec![])),
            Err(QueryError::DuplicateTable(_))
        ));
    }

    #[test]
    fn rtree_is_lazy_and_cached() {
        let mut c = Catalog::with_level(3);
        c.register(tiny("a", vec![Rect::new(0.0, 0.0, 0.5, 0.5)]))
            .unwrap();
        let t1 = c.rtree("a").unwrap() as *const RTree;
        let t2 = c.rtree("a").unwrap() as *const RTree;
        assert_eq!(t1, t2, "R-tree must be built once and cached");
        assert_eq!(c.rtree("a").unwrap().len(), 1);
    }

    #[test]
    fn estimate_join_pairs_from_files() {
        let mut c = Catalog::with_level(4);
        c.register(tiny("a", vec![Rect::new(0.1, 0.1, 0.4, 0.4)]))
            .unwrap();
        c.register(tiny("b", vec![Rect::new(0.2, 0.2, 0.5, 0.5)]))
            .unwrap();
        let est = c.estimate_join_pairs("a", "b").unwrap();
        assert!(
            est > 0.0,
            "overlapping singletons should estimate > 0, got {est}"
        );
    }

    #[test]
    fn every_kind_registers_and_estimates() {
        for kind in HistogramKind::ALL {
            let mut c = Catalog::with_kind(kind, 4);
            c.register(tiny("a", vec![Rect::new(0.1, 0.1, 0.4, 0.4)]))
                .unwrap();
            c.register(tiny("b", vec![Rect::new(0.2, 0.2, 0.5, 0.5)]))
                .unwrap();
            assert_eq!(c.histogram("a").unwrap().kind(), kind);
            let est = c.estimate_join_pairs("a", "b").unwrap();
            assert!(est > 0.0, "{kind}: overlapping singletons gave {est}");
        }
    }

    #[test]
    fn gh_downcast_rejects_other_kinds() {
        let mut c = Catalog::with_kind(HistogramKind::Euler, 3);
        c.register(tiny("a", vec![Rect::new(0.1, 0.1, 0.2, 0.2)]))
            .unwrap();
        assert!(matches!(
            c.gh_histogram("a"),
            Err(QueryError::Histogram(
                sj_histogram::HistogramError::KindMismatch { .. }
            ))
        ));
    }
}

/// Statistics persistence: write each table's histogram file to a
/// directory, and register tables from previously saved statistics
/// (skipping the histogram build — the SDBMS pattern of collecting
/// statistics once and reusing them across sessions).
impl Catalog {
    /// Writes every table's histogram file as `<dir>/<table>.hist`
    /// using the versioned [`SpatialHistogram::persist`] envelope, so
    /// any configured family round-trips.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn save_statistics(&self, dir: &std::path::Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        for (name, table) in &self.tables {
            // Degraded tables have nothing worth persisting.
            if let StatsState::Ready(stats) = &table.stats {
                std::fs::write(
                    dir.join(format!("{name}.hist")),
                    stats.histogram().persist(),
                )?;
            }
        }
        Ok(())
    }

    /// Registers a dataset reusing a previously saved histogram file
    /// instead of rebuilding it. Accepts the checksummed envelope of any
    /// family, as written by [`Catalog::save_statistics`]; no other
    /// layout is read. The statistics must match this
    /// catalog's configured family and grid and the dataset's
    /// cardinality, otherwise they are rejected as stale.
    ///
    /// # Errors
    /// [`QueryError::DuplicateTable`], or [`QueryError::Histogram`] when
    /// the statistics file is corrupt or does not match.
    pub fn register_with_statistics(
        &mut self,
        dataset: Dataset,
        stats_file: &[u8],
    ) -> Result<(), QueryError> {
        if self.tables.contains_key(&dataset.name) {
            return Err(QueryError::DuplicateTable(dataset.name.clone()));
        }
        let histogram = self.decode_statistics(dataset.len(), stats_file)?;
        self.insert_table(dataset, StatsState::ready_from(histogram));
        Ok(())
    }

    /// Like [`Catalog::register_with_statistics`], but unusable
    /// statistics (corrupt file, wrong family or grid, stale
    /// cardinality) do not fail the registration: the table is
    /// registered without statistics and answers estimates through the
    /// degradation ladder. Returns the recorded reason when statistics
    /// were unusable, `None` when they loaded cleanly.
    ///
    /// # Errors
    /// Only [`QueryError::DuplicateTable`] — statistics problems never
    /// error here.
    pub fn register_with_statistics_lenient(
        &mut self,
        dataset: Dataset,
        stats_file: &[u8],
    ) -> Result<Option<String>, QueryError> {
        if self.tables.contains_key(&dataset.name) {
            return Err(QueryError::DuplicateTable(dataset.name.clone()));
        }
        let (stats, reason) = match self.decode_statistics(dataset.len(), stats_file) {
            Ok(h) => (StatsState::ready_from(h), None),
            Err(e) => {
                let reason = e.to_string();
                (
                    StatsState::Unavailable {
                        reason: reason.clone(),
                    },
                    Some(reason),
                )
            }
        };
        self.insert_table(dataset, stats);
        Ok(reason)
    }

    /// Registers a dataset *without* building statistics: the table is
    /// degraded until [`Catalog::open_stats_store`] installs the dataset
    /// and statistics of its compacted base (`<table>.base`). Callers
    /// that find such a file should prefer this over building or loading
    /// statistics the base file will replace anyway.
    ///
    /// # Errors
    /// Returns [`QueryError::DuplicateTable`] if the name is taken.
    pub fn register_deferred(&mut self, dataset: Dataset) -> Result<(), QueryError> {
        if self.tables.contains_key(&dataset.name) {
            return Err(QueryError::DuplicateTable(dataset.name.clone()));
        }
        let stats = StatsState::Unavailable {
            reason: "statistics deferred to the statistics store \
                     (compaction snapshot not installed)"
                .to_string(),
        };
        self.insert_table(dataset, stats);
        Ok(())
    }

    /// Decodes and cross-checks a statistics file against this catalog's
    /// configuration and the cardinality of the dataset it is claimed to
    /// describe.
    pub(crate) fn decode_statistics(
        &self,
        expected_len: usize,
        stats_file: &[u8],
    ) -> Result<Box<dyn SpatialHistogram>, QueryError> {
        let histogram = load_histogram(stats_file)?;
        if histogram.kind() != self.config.kind {
            return Err(QueryError::Histogram(
                sj_histogram::HistogramError::KindMismatch {
                    left: histogram.kind(),
                    right: self.config.kind,
                },
            ));
        }
        let expected_grid = self.grid;
        if !histogram.grid().compatible(&expected_grid) {
            return Err(QueryError::Histogram(
                sj_histogram::HistogramError::GridMismatch {
                    left_level: histogram.grid().level(),
                    right_level: expected_grid.level(),
                },
            ));
        }
        if histogram.dataset_len() != expected_len {
            return Err(QueryError::Histogram(
                sj_histogram::HistogramError::corrupt(
                    sj_histogram::CorruptSection::Payload,
                    format!(
                        "statistics cover {} objects but the dataset has {expected_len}",
                        histogram.dataset_len(),
                    ),
                ),
            ));
        }
        Ok(histogram)
    }
}

#[cfg(test)]
mod persistence_tests {
    use super::*;
    use crate::error::QueryError;
    use sj_geo::Rect;

    fn tiny(name: &str, n: usize) -> Dataset {
        let rects = (0..n)
            .map(|i| {
                let t = (i as f64 + 0.5) / n as f64;
                Rect::centered(sj_geo::Point::new(t, t), 0.02, 0.02)
            })
            .collect();
        Dataset::new(name, Extent::unit(), rects)
    }

    #[test]
    fn save_and_reload_statistics_every_kind() {
        for kind in HistogramKind::ALL {
            let dir = std::env::temp_dir()
                .join(format!("sj_query_stats_test-{}-{kind}", std::process::id()));
            let mut c1 = Catalog::with_kind(kind, 4);
            c1.register(tiny("alpha", 40)).unwrap();
            c1.register(tiny("beta", 30)).unwrap();
            c1.save_statistics(&dir).unwrap();
            let baseline = c1.estimate_join_pairs("alpha", "beta").unwrap();

            let mut c2 = Catalog::with_kind(kind, 4);
            for name in ["alpha", "beta"] {
                let bytes = std::fs::read(dir.join(format!("{name}.hist"))).unwrap();
                c2.register_with_statistics(
                    tiny(name, if name == "alpha" { 40 } else { 30 }),
                    &bytes,
                )
                .unwrap();
            }
            assert_eq!(
                c2.estimate_join_pairs("alpha", "beta").unwrap(),
                baseline,
                "{kind}: reloaded statistics must estimate identically"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn stale_statistics_rejected() {
        let mut c = Catalog::with_level(4);
        c.register(tiny("alpha", 40)).unwrap();
        let bytes = c.histogram("alpha").unwrap().persist();

        // Wrong grid level.
        let mut other = Catalog::with_level(5);
        assert!(matches!(
            other.register_with_statistics(tiny("alpha", 40), &bytes),
            Err(QueryError::Histogram(
                sj_histogram::HistogramError::GridMismatch { .. }
            ))
        ));

        // Wrong family (catalog wants Euler statistics, file holds GH).
        let mut euler = Catalog::with_kind(HistogramKind::Euler, 4);
        assert!(matches!(
            euler.register_with_statistics(tiny("alpha", 40), &bytes),
            Err(QueryError::Histogram(
                sj_histogram::HistogramError::KindMismatch { .. }
            ))
        ));

        // Wrong cardinality (dataset changed since stats were taken).
        let mut same_grid = Catalog::with_level(4);
        assert!(matches!(
            same_grid.register_with_statistics(tiny("alpha", 41), &bytes),
            Err(QueryError::Histogram(
                sj_histogram::HistogramError::Corrupt { .. }
            ))
        ));

        // Garbage bytes.
        let mut fresh = Catalog::with_level(4);
        assert!(fresh
            .register_with_statistics(tiny("alpha", 40), b"nonsense")
            .is_err());
    }

    /// A checksum failure is reported as one: no other decoder gets a
    /// second try at the bytes and replaces the error with its own.
    #[test]
    fn crc_corrupt_statistics_report_the_checksum() {
        let mut c = Catalog::with_level(4);
        c.register(tiny("alpha", 40)).unwrap();
        let mut bytes = c.histogram("alpha").unwrap().persist().to_vec();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;

        let mut strict = Catalog::with_level(4);
        let err = strict
            .register_with_statistics(tiny("alpha", 40), &bytes)
            .unwrap_err();
        assert!(
            matches!(
                err,
                QueryError::Histogram(sj_histogram::HistogramError::Corrupt {
                    section: sj_histogram::CorruptSection::Checksum,
                    ..
                })
            ),
            "flipped payload byte must fail the checksum, got {err:?}"
        );

        let mut lenient = Catalog::with_level(4);
        let reason = lenient
            .register_with_statistics_lenient(tiny("alpha", 40), &bytes)
            .unwrap()
            .unwrap_or_default();
        assert!(
            reason.contains("CRC32 mismatch"),
            "degraded reason must name the checksum failure, got {reason:?}"
        );
    }
}

#[cfg(test)]
mod degradation_tests {
    use super::*;
    use crate::degrade::{DegradationPolicy, EstimateTier};
    use sj_geo::Rect;

    fn tiny(name: &str, n: usize) -> Dataset {
        let rects = (0..n)
            .map(|i| {
                let t = (i as f64 + 0.5) / n as f64;
                Rect::centered(sj_geo::Point::new(t, t), 0.1, 0.1)
            })
            .collect();
        Dataset::new(name, Extent::unit(), rects)
    }

    /// Builds a catalog where "alpha" has deliberately corrupted GH
    /// statistics (registered leniently) and "beta" is healthy.
    fn degraded_catalog() -> Catalog {
        let mut source = Catalog::with_level(4);
        source.register(tiny("alpha", 40)).unwrap();
        let mut stats = source.histogram("alpha").unwrap().persist().to_vec();
        let mid = stats.len() / 2;
        stats[mid] ^= 0xFF; // bit-flip the payload: CRC must catch it

        let mut c = Catalog::with_level(4);
        let reason = c
            .register_with_statistics_lenient(tiny("alpha", 40), &stats)
            .unwrap();
        assert!(
            reason.as_deref().unwrap_or("").contains("corrupt"),
            "lenient registration must record the corruption reason, got {reason:?}"
        );
        c.register(tiny("beta", 30)).unwrap();
        c
    }

    #[test]
    fn healthy_catalog_serves_primary_tier() {
        let mut c = Catalog::with_level(4);
        c.register(tiny("a", 20)).unwrap();
        c.register(tiny("b", 20)).unwrap();
        let out = c
            .estimate_join_pairs_detailed("a", "b", &DegradationPolicy::default())
            .unwrap();
        assert_eq!(out.tier, EstimateTier::Primary(HistogramKind::Gh));
        assert!(out.skipped.is_empty());
        assert!(!out.is_degraded());
    }

    #[test]
    fn corrupt_statistics_fall_back_to_ph_rebuild() {
        let c = degraded_catalog();
        let out = c
            .estimate_join_pairs_detailed("alpha", "beta", &DegradationPolicy::default())
            .unwrap();
        assert_eq!(out.tier, EstimateTier::PhRebuild);
        assert_eq!(out.skipped.len(), 1);
        assert!(
            out.skipped[0].reason.contains("corrupt"),
            "{:?}",
            out.skipped
        );
        assert!(out.pairs > 0.0, "fallback must still estimate: {out:?}");
        // The plain API degrades transparently.
        assert!(c.estimate_join_pairs("alpha", "beta").unwrap() > 0.0);
    }

    /// Pinned: a corrupt GH file with PH rebuild disabled degrades to the
    /// parametric tier, with provenance naming the tier and the
    /// corruption reason.
    #[test]
    fn corrupt_gh_degrades_to_parametric_with_provenance() {
        let c = degraded_catalog();
        let policy = DegradationPolicy {
            allow_ph_rebuild: false,
            ..DegradationPolicy::default()
        };
        let out = c
            .estimate_join_pairs_detailed("alpha", "beta", &policy)
            .unwrap();
        assert_eq!(out.tier, EstimateTier::Parametric);
        assert_eq!(out.tier.name(), "parametric");
        let tiers: Vec<&str> = out.skipped.iter().map(|s| s.tier.name()).collect();
        assert_eq!(tiers, vec!["primary", "ph-rebuild"]);
        assert!(
            out.skipped[0].reason.contains("corrupt"),
            "provenance must carry the corruption reason: {:?}",
            out.skipped[0]
        );
        assert!(out.pairs > 0.0);
        assert!((0.0..=1.0).contains(&out.selectivity));
    }

    #[test]
    fn sampling_is_the_last_rung() {
        let c = degraded_catalog();
        let policy = DegradationPolicy {
            allow_ph_rebuild: false,
            allow_parametric: false,
            sampling_percent: Some(50.0),
            ..DegradationPolicy::default()
        };
        let out = c
            .estimate_join_pairs_detailed("alpha", "beta", &policy)
            .unwrap();
        assert_eq!(out.tier, EstimateTier::Sampling);
        assert_eq!(out.skipped.len(), 3);
        assert!(out.pairs > 0.0);
    }

    #[test]
    fn exhausted_ladder_is_a_typed_error() {
        let c = degraded_catalog();
        let err = c
            .estimate_join_pairs_detailed("alpha", "beta", &DegradationPolicy::primary_only())
            .unwrap_err();
        match err {
            QueryError::EstimatorsExhausted(detail) => {
                assert!(detail.contains("corrupt"), "{detail}");
                assert!(detail.contains("disabled by policy"), "{detail}");
            }
            other => panic!("expected EstimatorsExhausted, got {other:?}"),
        }
    }

    #[test]
    fn degraded_table_histogram_access_is_typed() {
        let c = degraded_catalog();
        assert!(matches!(
            c.histogram("alpha"),
            Err(QueryError::StatisticsUnavailable { .. })
        ));
        // Healthy tables are unaffected.
        assert!(c.histogram("beta").is_ok());
    }

    #[test]
    fn planning_with_degraded_table_warns_but_succeeds() {
        let c = degraded_catalog();
        let plan = c
            .plan(&crate::plan::ChainJoinQuery::new(["alpha", "beta"]))
            .unwrap();
        assert_eq!(plan.warnings.len(), 1, "{:?}", plan.warnings);
        assert!(
            plan.warnings[0].contains("ph-rebuild"),
            "{:?}",
            plan.warnings
        );
        assert!(
            format!("{plan}").contains("!!"),
            "Display must show warnings"
        );
        // The degraded plan still executes.
        assert!(plan.execute(&c).is_ok());
    }

    #[test]
    fn lenient_registration_with_good_stats_is_clean() {
        let mut source = Catalog::with_level(4);
        source.register(tiny("alpha", 40)).unwrap();
        let stats = source.histogram("alpha").unwrap().persist();

        let mut c = Catalog::with_level(4);
        let reason = c
            .register_with_statistics_lenient(tiny("alpha", 40), &stats)
            .unwrap();
        assert_eq!(reason, None);
        assert!(c.histogram("alpha").is_ok());
    }

    #[test]
    fn try_new_rejects_absurd_level() {
        let cfg = CatalogConfig {
            grid_level: Grid::MAX_LEVEL + 1,
            ..CatalogConfig::default()
        };
        assert!(matches!(
            Catalog::try_new(cfg),
            Err(QueryError::Histogram(
                sj_histogram::HistogramError::LevelTooLarge(_)
            ))
        ));
    }
}
