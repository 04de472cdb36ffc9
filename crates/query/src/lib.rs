//! A miniature spatial query engine built on the selectivity estimators.
//!
//! The paper closes by proposing to "develop a SDBMS incorporating query
//! optimizations based on these analysis techniques". This crate is that
//! future-work sketch, realized at library scale:
//!
//! * [`Catalog`] — named datasets, each registered once; the catalog
//!   builds a Geometric Histogram file per table up front and an R-tree
//!   lazily on first use.
//! * [`ChainJoinQuery`] — a multi-way spatial join over a chain of
//!   tables: find tuples `(o₀, …, o_{n-1})` where consecutive objects'
//!   MBRs intersect (e.g. streams ⋈ roads ⋈ census blocks), optionally
//!   restricted to a window.
//! * [`Planner`] — a cost-based join-order optimizer driven entirely by
//!   GH selectivity estimates: it picks the cheapest starting edge and
//!   greedily extends toward the smaller estimated intermediate, then
//!   emits an EXPLAIN-style [`Plan`].
//! * [`Plan::execute`] — pipelined execution: the first edge runs as a
//!   synchronized-traversal R-tree join, later tables are attached by
//!   R-tree probes, the window is applied as early as possible.
//!
//! ```
//! use sj_query::{Catalog, ChainJoinQuery};
//! use sj_datagen::presets;
//!
//! let mut catalog = Catalog::with_level(5);
//! catalog.register(presets::ts(0.01)).unwrap();
//! catalog.register(presets::tcb(0.01)).unwrap();
//!
//! let query = ChainJoinQuery::new(["TS", "TCB"]);
//! let plan = catalog.plan(&query).unwrap();
//! println!("{plan}");                       // EXPLAIN output
//! let result = plan.execute(&catalog).unwrap();
//! assert_eq!(result.tuples[0].len(), 2);    // (ts_id, tcb_id) tuples
//! ```

#![warn(
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_sign_loss
)]

mod catalog;
mod degrade;
mod delete_index;
mod error;
mod exec;
mod plan;
mod store;

pub use catalog::{Catalog, CatalogConfig, PreparedTable};
pub use degrade::{DegradationPolicy, EstimateOutcome, EstimateTier, SkippedTier};
pub use error::QueryError;
pub use store::{
    wal_record_ends, CompactReceipt, CompactionPlan, CompactionPolicy, DeltaReceipt, MutationId,
    PreparedDelta, PreparedOutcome, RealStoreIo, StoreIo, WalRecovery, REMEMBERED_MUTATIONS,
};
// Re-exported so downstream crates (sj-server) can match the histogram
// failure modes wrapped inside QueryError without a direct dependency.
pub use exec::{ExecStats, QueryResult};
pub use plan::{ChainJoinQuery, Plan, PlanStep, Planner, StarJoinQuery};
pub use sj_histogram::HistogramError;
