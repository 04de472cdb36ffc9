use sj_geo::RectIssue;
use sj_histogram::HistogramError;
use std::fmt;

/// Errors produced by the query engine.
///
/// `#[non_exhaustive]`: future PRs add failure modes without a semver
/// break; downstream matches keep a `_` arm.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum QueryError {
    /// The query references a table the catalog does not know.
    UnknownTable(String),
    /// A table with this name is already registered.
    DuplicateTable(String),
    /// A chain join needs at least two tables.
    TooFewTables(usize),
    /// Execution aborted because the intermediate result exceeded the
    /// configured tuple budget (the optimizer exists precisely to avoid
    /// plans like this).
    ResultTooLarge {
        /// Tuples materialized when the budget tripped.
        produced: usize,
        /// The configured budget.
        budget: usize,
    },
    /// An estimation failed (grid mismatch etc.).
    Histogram(HistogramError),
    /// A table registered leniently has no usable statistics (direct
    /// histogram access only — estimation degrades instead).
    StatisticsUnavailable {
        /// The degraded table.
        table: String,
        /// Why its statistics were rejected at registration.
        reason: String,
    },
    /// Every tier of the estimation ladder was disabled or failed; the
    /// string lists each skipped tier with its reason.
    EstimatorsExhausted(String),
    /// A delete batch referenced a rectangle the table does not
    /// currently contain; the whole batch is rejected without mutating
    /// anything (see [`crate::Catalog::apply_delta`]).
    DeleteNotFound {
        /// The table the batch targeted.
        table: String,
        /// Position of the unmatched rectangle within the delete batch.
        index: usize,
    },
    /// A mutation batch's inserts would take a table past the rows its
    /// delete index can number (`u32::MAX`); the whole batch is
    /// rejected without mutating anything.
    TooManyRows {
        /// The table the batch targeted.
        table: String,
        /// Rows the table would hold with the batch's inserts added.
        rows: usize,
    },
    /// A mutation batch carried a rectangle that registration under
    /// the strict validation policy would reject (non-finite, inverted
    /// or outside the catalog extent); the whole batch is rejected
    /// without mutating anything or writing a WAL record.
    InvalidRect {
        /// The table the batch targeted.
        table: String,
        /// Position of the rectangle within the batch, inserts first,
        /// then deletes (the order of a WAL record).
        index: usize,
        /// What is wrong with it.
        issue: RectIssue,
    },
    /// A filesystem operation failed (statistics directory, WAL append,
    /// compaction swap).
    Io(String),
    /// A tuple slot referenced an object id outside its dataset — a
    /// catalog-consistency bug (the dataset changed between planning and
    /// execution), surfaced as a typed error instead of a panic.
    TupleIdOutOfRange {
        /// The table whose dataset was indexed.
        table: String,
        /// The out-of-range object id.
        id: u64,
        /// The dataset's actual cardinality.
        len: usize,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::UnknownTable(name) => write!(f, "unknown table {name:?}"),
            QueryError::DuplicateTable(name) => {
                write!(f, "table {name:?} is already registered")
            }
            QueryError::TooFewTables(n) => {
                write!(f, "a chain join needs at least 2 tables, got {n}")
            }
            QueryError::ResultTooLarge { produced, budget } => write!(
                f,
                "intermediate result exceeded the tuple budget ({produced} > {budget})"
            ),
            QueryError::Histogram(e) => write!(f, "estimation failed: {e}"),
            QueryError::StatisticsUnavailable { table, reason } => {
                write!(f, "table {table:?} has no usable statistics: {reason}")
            }
            QueryError::EstimatorsExhausted(detail) => {
                write!(f, "no estimator tier could serve: {detail}")
            }
            QueryError::DeleteNotFound { table, index } => write!(
                f,
                "delete batch entry {index} matches no object in table {table:?}; \
                 nothing was applied"
            ),
            QueryError::TooManyRows { table, rows } => write!(
                f,
                "table {table:?} would hold {rows} rows, more than the {} a table \
                 can index; nothing was applied",
                u32::MAX
            ),
            QueryError::InvalidRect {
                table,
                index,
                issue,
            } => write!(
                f,
                "batch entry {index} for table {table:?} is invalid ({issue}); \
                 nothing was applied"
            ),
            QueryError::Io(detail) => write!(f, "statistics I/O failure: {detail}"),
            QueryError::TupleIdOutOfRange { table, id, len } => write!(
                f,
                "tuple id {id} is out of range for table {table:?} (cardinality {len})"
            ),
        }
    }
}

impl std::error::Error for QueryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QueryError::Histogram(e) => Some(e),
            _ => None,
        }
    }
}

impl From<HistogramError> for QueryError {
    fn from(e: HistogramError) -> Self {
        QueryError::Histogram(e)
    }
}
