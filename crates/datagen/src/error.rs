//! Typed dataset-ingestion errors with line and field provenance.

#![warn(clippy::exhaustive_enums)]

use sj_geo::RectIssue;
use std::fmt;
use std::io;

/// Why a dataset failed to ingest.
///
/// `#[non_exhaustive]`: future PRs add failure modes without a semver
/// break; downstream matches keep a `_` arm.
#[derive(Debug)]
#[non_exhaustive]
pub enum DatasetError {
    /// An underlying I/O failure.
    Io(io::Error),
    /// A record could not be parsed; 1-based `line` and the offending
    /// `field` position name the spot.
    Parse {
        /// 1-based line number of the malformed record.
        line: usize,
        /// Name of the offending field (`"xlo"`, `"ylo"`, `"xhi"`, `"yhi"`).
        field: &'static str,
        /// Parser diagnostic.
        detail: String,
    },
    /// A record parsed but failed geometric validation under
    /// [`sj_geo::ValidationPolicy::Strict`].
    Invalid {
        /// 1-based line number of the invalid record.
        line: usize,
        /// What was wrong with the rectangle.
        issue: RectIssue,
    },
    /// The source contained no records at all.
    Empty,
}

impl fmt::Display for DatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "dataset I/O error: {e}"),
            Self::Parse {
                line,
                field,
                detail,
            } => write!(f, "line {line}, field {field}: {detail}"),
            Self::Invalid { line, issue } => write!(f, "line {line}: {issue}"),
            Self::Empty => write!(f, "dataset is empty (no records)"),
        }
    }
}

impl std::error::Error for DatasetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

// Public errors implement `Display` and `Error`; this fails to compile otherwise.
const _: fn(&DatasetError) -> &dyn std::error::Error = |e| e;

impl From<io::Error> for DatasetError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<DatasetError> for io::Error {
    fn from(e: DatasetError) -> Self {
        match e {
            DatasetError::Io(inner) => inner,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}
