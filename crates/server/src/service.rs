//! The service trait the server dispatches into, plus the
//! catalog-backed implementation.
//!
//! The trait/implementation split mirrors the server/client module
//! split: the connection loop in [`crate::server`] knows only
//! [`StatisticsService`], so tests can serve a stub and the daemon can
//! serve a shared [`Catalog`] — loaded once, answered from concurrently.

use crate::wire::{self, status, PayloadReader, WireError};
use sj_core::sync::{LockRank, OrderedMutex, OrderedRwLock};
use sj_geo::Rect;
use sj_query::{
    Catalog, ChainJoinQuery, CompactReceipt, DegradationPolicy, EstimateOutcome, MutationId,
    PreparedOutcome, QueryError,
};
use std::sync::Arc;

/// A primary-statistics estimate: the numbers `sjsel estimate` prints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimateReply {
    /// Estimated selectivity.
    pub selectivity: f64,
    /// Estimated number of intersecting pairs.
    pub pairs: f64,
}

/// A degradation-ladder outcome as it travels over the wire: tier
/// provenance flattened to stable strings so the client can render the
/// exact output of the cold `catalog-estimate` path without sharing the
/// [`EstimateOutcome`] type's internals.
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteOutcome {
    /// Estimated number of intersecting pairs.
    pub pairs: f64,
    /// Estimated selectivity in `[0, 1]`.
    pub selectivity: f64,
    /// Stable tier name (`primary`, `ph-rebuild`, `parametric`,
    /// `sampling`) — the CLI's JSON `provenance.tier` value.
    pub tier_name: String,
    /// Human-facing tier label (e.g. `primary (gh)`).
    pub tier_display: String,
    /// Whether a fallback tier served the estimate.
    pub degraded: bool,
    /// Skipped tiers in ladder order: `(stable name, reason)`.
    pub skipped: Vec<(String, String)>,
}

impl RemoteOutcome {
    /// Flattens a ladder outcome for the wire.
    #[must_use]
    pub fn from_outcome(outcome: &EstimateOutcome) -> Self {
        Self {
            pairs: outcome.pairs,
            selectivity: outcome.selectivity,
            tier_name: outcome.tier.name().to_string(),
            tier_display: outcome.tier.to_string(),
            degraded: outcome.is_degraded(),
            skipped: outcome
                .skipped
                .iter()
                .map(|s| (s.tier.name().to_string(), s.reason.clone()))
                .collect(),
        }
    }

    /// Serializes the outcome as a response-payload fragment.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        wire::put_f64(&mut out, self.pairs);
        wire::put_f64(&mut out, self.selectivity);
        wire::put_str(&mut out, &self.tier_name);
        wire::put_str(&mut out, &self.tier_display);
        wire::put_u8(&mut out, u8::from(self.degraded));
        let n = self.skipped.len().min(usize::from(u16::MAX));
        wire::put_u16(&mut out, u16::try_from(n).unwrap_or(u16::MAX));
        for (tier, reason) in self.skipped.iter().take(n) {
            wire::put_str(&mut out, tier);
            wire::put_str(&mut out, reason);
        }
        out
    }

    /// Decodes an outcome from a response-payload fragment.
    ///
    /// # Errors
    /// Propagates the reader's typed truncation/UTF-8 errors.
    pub fn from_bytes(r: &mut PayloadReader<'_>) -> Result<Self, WireError> {
        let pairs = r.f64()?;
        let selectivity = r.f64()?;
        let tier_name = r.str()?;
        let tier_display = r.str()?;
        let degraded = r.u8()? != 0;
        let n = usize::from(r.u16()?);
        let mut skipped = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let tier = r.str()?;
            let reason = r.str()?;
            skipped.push((tier, reason));
        }
        Ok(Self {
            pairs,
            selectivity,
            tier_name,
            tier_display,
            degraded,
            skipped,
        })
    }
}

/// A service-level failure: a wire status code plus a message, produced
/// on the server and reproduced verbatim on the client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceError {
    /// One of the nonzero [`status`] codes.
    pub status: u8,
    /// Human-readable message (the same text the cold CLI prints).
    pub message: String,
}

impl ServiceError {
    /// Builds an error with an explicit status code.
    #[must_use]
    pub fn new(status: u8, message: impl Into<String>) -> Self {
        Self {
            status,
            message: message.into(),
        }
    }

    /// Maps a query-layer error onto the wire status taxonomy — the
    /// same mapping `sjsel` uses for process exit codes, so a remote
    /// failure exits the client with the code the cold path would have
    /// used (equality is pinned by a test in `sj-cli`).
    #[must_use]
    pub fn from_query(context: &str, e: &QueryError) -> Self {
        use sj_query::HistogramError;
        let code = match e {
            QueryError::Histogram(h) => match h {
                HistogramError::Corrupt { .. } => status::CORRUPT,
                HistogramError::KindMismatch { .. } | HistogramError::GridMismatch { .. } => {
                    status::MISMATCH
                }
                HistogramError::LevelTooLarge(_) => status::USAGE,
                HistogramError::DeltaOutOfRange { .. } => status::INVALID_DATA,
                _ => status::RUNTIME,
            },
            QueryError::EstimatorsExhausted(_) => status::EXHAUSTED,
            QueryError::StatisticsUnavailable { .. } => status::CORRUPT,
            QueryError::TooFewTables(_) => status::USAGE,
            QueryError::DeleteNotFound { .. } | QueryError::InvalidRect { .. } => {
                status::INVALID_DATA
            }
            QueryError::Io(_) => status::IO,
            QueryError::UnknownTable(_)
            | QueryError::DuplicateTable(_)
            | QueryError::ResultTooLarge { .. } => status::RUNTIME,
            // Future (non_exhaustive) query errors default to runtime.
            _ => status::RUNTIME,
        };
        Self {
            status: code,
            message: format!("{context}: {e}"),
        }
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", status::name(self.status), self.message)
    }
}

impl std::error::Error for ServiceError {}

/// What a statistics daemon can answer. Implementations must be
/// shareable across connection threads (`&self` methods, `Send + Sync`).
pub trait StatisticsService: Send + Sync {
    /// Primary-statistics join estimate between two registered tables.
    ///
    /// # Errors
    /// [`ServiceError`] with the taxonomy status of the failure.
    fn estimate(&self, a: &str, b: &str) -> Result<EstimateReply, ServiceError>;

    /// [`StatisticsService::estimate`] for each pair of a batch, answers
    /// in order, each failing alone. The server answers both the
    /// `Estimate` and the `BatchEstimate` opcode through this method.
    /// The default asks [`StatisticsService::estimate`] once per pair.
    fn estimates(&self, pairs: &[(&str, &str)]) -> Vec<Result<EstimateReply, ServiceError>> {
        pairs.iter().map(|&(a, b)| self.estimate(a, b)).collect()
    }

    /// Estimated number of objects of `table` intersecting `window`.
    ///
    /// # Errors
    /// [`ServiceError`]; kind mismatches map to the MISMATCH status.
    fn window_count(&self, table: &str, window: &Rect) -> Result<f64, ServiceError>;

    /// The optimizer's plan for a chain join, rendered as text.
    ///
    /// # Errors
    /// [`ServiceError`] for unknown tables or too-short chains.
    fn explain(&self, tables: &[String]) -> Result<String, ServiceError>;

    /// Degradation-ladder estimate with full tier provenance.
    ///
    /// # Errors
    /// [`ServiceError`]; an exhausted ladder maps to EXHAUSTED.
    fn catalog_estimate(&self, a: &str, b: &str) -> Result<RemoteOutcome, ServiceError>;

    /// Registered table names, sorted.
    fn tables(&self) -> Vec<String>;

    /// Applies an insert batch to a table's statistics incrementally.
    /// A stamped `id` is applied at most once (retry deduplication);
    /// [`MutationId::UNSTAMPED`] skips the guard.
    ///
    /// # Errors
    /// [`ServiceError`]; a batch that cannot apply maps to INVALID_DATA.
    fn insert_batch(
        &self,
        table: &str,
        rects: &[Rect],
        id: MutationId,
    ) -> Result<MutationReply, ServiceError>;

    /// Applies a delete batch. Every rectangle must currently exist in
    /// the table, or the whole batch is rejected without applying.
    /// Stamped IDs deduplicate exactly as in
    /// [`StatisticsService::insert_batch`].
    ///
    /// # Errors
    /// [`ServiceError`]; an unmatched delete maps to INVALID_DATA.
    fn delete_batch(
        &self,
        table: &str,
        rects: &[Rect],
        id: MutationId,
    ) -> Result<MutationReply, ServiceError>;

    /// Compacts a table: the batches applied since its last compaction
    /// fold into its `<table>.base` file, and its WAL is removed.
    ///
    /// # Errors
    /// [`ServiceError`]; filesystem failures map to IO.
    fn compact(&self, table: &str) -> Result<CompactReply, ServiceError>;
}

/// What an [`StatisticsService::insert_batch`] /
/// [`StatisticsService::delete_batch`] call did, as it travels the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MutationReply {
    /// Rectangles applied by the batch.
    pub applied: u32,
    /// Records applied to the table since its last compaction,
    /// afterwards.
    pub pending_tiers: u16,
    /// Whether the batch tripped an automatic compaction.
    pub compacted: bool,
    /// Whether the batch's stamped [`MutationId`] had already been
    /// applied, so this call was a detected retry and mutated nothing.
    pub deduplicated: bool,
}

/// What a [`StatisticsService::compact`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactReply {
    /// Applied records folded into the base envelope.
    pub tiers_folded: u16,
    /// Whether a new base envelope was atomically swapped onto disk.
    pub persisted: bool,
}

/// Batch items answered under one catalog read guard. A warm item (a
/// pair-memo hit) costs tens of nanoseconds, so a chunk holds the guard
/// for a few microseconds; a cold one runs the kernel under it, as a
/// single `Estimate` does. Fixed, not a setting; public only so the
/// batch tests can aim at its boundary.
#[doc(hidden)]
pub const GUARD_CHUNK: usize = 256;

/// The daemon's service: a shared catalog behind a ranked read/write
/// lock — estimates and plans take read locks and run concurrently;
/// mutations run the catalog's three-phase pipeline (DESIGN.md §15) so
/// the catalog write lock is only held for in-memory commits and
/// readers are never blocked behind a WAL fsync.
///
/// Two auxiliary ranked mutexes structure the pipeline:
///
/// * `pipeline` (rank [`LockRank::StatsStore`]) serializes whole
///   mutations/compactions end to end, so a prepared batch cannot go
///   stale between its prepare and commit phases.
/// * `wal_io` (rank [`LockRank::WalFile`]) brackets every store file
///   I/O (WAL appends, compaction persistence). Its rank sits *above*
///   the catalog's, so the rank tracker accepts taking it under a
///   catalog guard: nothing static forbids an fsync under the catalog.
///   The pipeline releases every catalog guard before it takes
///   `wal_io`, and `sj-lint verify-locks`' fsync oracle checks that on
///   the paths its workload runs.
///
/// Estimates read the catalog under one read guard per 256 items of a
/// batch, so a 65,535-item frame cannot hold a writer off for the whole
/// frame.
pub struct CatalogService {
    catalog: Arc<OrderedRwLock<Catalog>>,
    policy: DegradationPolicy,
    pipeline: OrderedMutex<()>,
    wal_io: OrderedMutex<()>,
}

impl CatalogService {
    /// Wraps a shared catalog with the degradation policy used by
    /// [`StatisticsService::catalog_estimate`].
    #[must_use]
    pub fn new(catalog: Arc<OrderedRwLock<Catalog>>, policy: DegradationPolicy) -> Self {
        Self {
            catalog,
            policy,
            pipeline: OrderedMutex::new(LockRank::StatsStore, "service.pipeline", ()),
            wal_io: OrderedMutex::new(LockRank::WalFile, "service.wal_io", ()),
        }
    }

    /// The shared catalog.
    #[must_use]
    pub fn catalog(&self) -> &Arc<OrderedRwLock<Catalog>> {
        &self.catalog
    }

    fn mutate(
        &self,
        table: &str,
        inserts: &[Rect],
        deletes: &[Rect],
        id: MutationId,
    ) -> Result<MutationReply, ServiceError> {
        let reply = |receipt: &sj_query::DeltaReceipt| MutationReply {
            applied: u32::try_from(inserts.len() + deletes.len()).unwrap_or(u32::MAX),
            pending_tiers: u16::try_from(receipt.pending_tiers).unwrap_or(u16::MAX),
            compacted: receipt.compacted,
            deduplicated: receipt.deduplicated,
        };
        // Serialize the whole three-phase pipeline: the prepared batch
        // (sequence number, delete resolution) is only valid against
        // the state observed under the read lock below.
        let _pipeline = self.pipeline.lock();
        let prepared = self
            .catalog
            .read()
            .prepare_delta(table, inserts, deletes, id)
            .map_err(|e| ServiceError::from_query("mutation failed", &e))?;
        let prepared = match prepared {
            PreparedOutcome::Duplicate(receipt) => return Ok(reply(&receipt)),
            PreparedOutcome::Fresh(p) => *p,
        };
        {
            // The fsync runs under wal_io only — estimates proceed on
            // the catalog read lock while the record hits the disk.
            let _io = self.wal_io.lock();
            prepared
                .append_wal()
                .map_err(|e| ServiceError::from_query("mutation failed", &e))?;
        }
        let mut receipt = self
            .catalog
            .write()
            .commit_prepared(prepared)
            .map_err(|e| ServiceError::from_query("mutation failed", &e))?;
        if self.catalog.read().compaction_needed(table) {
            self.run_compaction(table)
                .map_err(|e| ServiceError::from_query("mutation failed", &e))?;
            receipt.pending_tiers = 0;
            receipt.compacted = true;
        }
        Ok(reply(&receipt))
    }

    /// Drives the catalog's three-phase compaction under the daemon's
    /// lock structure. The caller must hold `pipeline`.
    fn run_compaction(&self, table: &str) -> Result<CompactReceipt, QueryError> {
        let plan = self.catalog.read().plan_compaction(table)?;
        let persisted = match &plan {
            Some(plan) => {
                let _io = self.wal_io.lock();
                plan.persist()?;
                true
            }
            None => false,
        };
        Ok(self.catalog.write().finish_compaction(table, persisted))
    }

    /// Read access to the catalog (poison recovered by the wrapper).
    fn read(&self) -> sj_core::sync::OrderedReadGuard<'_, Catalog> {
        self.catalog.read()
    }
}

impl StatisticsService for CatalogService {
    fn estimate(&self, a: &str, b: &str) -> Result<EstimateReply, ServiceError> {
        let est = self
            .read()
            .primary_estimate(a, b)
            .map_err(|e| ServiceError::from_query("estimation failed", &e))?;
        Ok(EstimateReply {
            selectivity: est.selectivity,
            pairs: est.pairs,
        })
    }

    fn estimates(&self, pairs: &[(&str, &str)]) -> Vec<Result<EstimateReply, ServiceError>> {
        let mut out = Vec::with_capacity(pairs.len());
        for chunk in pairs.chunks(GUARD_CHUNK) {
            out.extend(self.read().primary_estimates(chunk).map(|answer| {
                answer
                    .map(|est| EstimateReply {
                        selectivity: est.selectivity,
                        pairs: est.pairs,
                    })
                    .map_err(|e| ServiceError::from_query("estimation failed", &e))
            }));
        }
        out
    }

    fn window_count(&self, table: &str, window: &Rect) -> Result<f64, ServiceError> {
        let catalog = self.read();
        let gh = catalog
            .gh_histogram(table)
            .map_err(|e| ServiceError::from_query("window count failed", &e))?;
        Ok(gh.estimate_window_count(window))
    }

    fn explain(&self, tables: &[String]) -> Result<String, ServiceError> {
        let plan = self
            .read()
            .plan(&ChainJoinQuery::new(tables.iter().cloned()))
            .map_err(|e| ServiceError::from_query("planning failed", &e))?;
        Ok(plan.to_string())
    }

    fn catalog_estimate(&self, a: &str, b: &str) -> Result<RemoteOutcome, ServiceError> {
        let outcome = self
            .read()
            .estimate_join_pairs_detailed(a, b, &self.policy)
            .map_err(|e| ServiceError::from_query("estimation failed", &e))?;
        Ok(RemoteOutcome::from_outcome(&outcome))
    }

    fn tables(&self) -> Vec<String> {
        self.read()
            .table_names()
            .into_iter()
            .map(str::to_string)
            .collect()
    }

    fn insert_batch(
        &self,
        table: &str,
        rects: &[Rect],
        id: MutationId,
    ) -> Result<MutationReply, ServiceError> {
        self.mutate(table, rects, &[], id)
    }

    fn delete_batch(
        &self,
        table: &str,
        rects: &[Rect],
        id: MutationId,
    ) -> Result<MutationReply, ServiceError> {
        self.mutate(table, &[], rects, id)
    }

    fn compact(&self, table: &str) -> Result<CompactReply, ServiceError> {
        let _pipeline = self.pipeline.lock();
        let receipt = self
            .run_compaction(table)
            .map_err(|e| ServiceError::from_query("compaction failed", &e))?;
        Ok(CompactReply {
            tiers_folded: u16::try_from(receipt.tiers_folded).unwrap_or(u16::MAX),
            persisted: receipt.persisted,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remote_outcome_round_trips() {
        let o = RemoteOutcome {
            pairs: 1234.5,
            selectivity: 1.5e-4,
            tier_name: "ph-rebuild".to_string(),
            tier_display: "ph-rebuild".to_string(),
            degraded: true,
            skipped: vec![("primary".to_string(), "file corrupt".to_string())],
        };
        let bytes = o.to_bytes();
        let mut r = PayloadReader::new(&bytes);
        let got = RemoteOutcome::from_bytes(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(got, o);
    }

    #[test]
    fn query_errors_map_to_cli_codes() {
        let cases = [
            (QueryError::UnknownTable("x".to_string()), status::RUNTIME),
            (QueryError::TooFewTables(1), status::USAGE),
            (
                QueryError::EstimatorsExhausted("all off".to_string()),
                status::EXHAUSTED,
            ),
            (
                QueryError::StatisticsUnavailable {
                    table: "t".to_string(),
                    reason: "corrupt".to_string(),
                },
                status::CORRUPT,
            ),
            (
                QueryError::InvalidRect {
                    table: "t".to_string(),
                    index: 0,
                    issue: sj_geo::RectIssue::OutOfExtent,
                },
                status::INVALID_DATA,
            ),
        ];
        for (err, want) in cases {
            assert_eq!(ServiceError::from_query("ctx", &err).status, want, "{err}");
        }
    }
}
