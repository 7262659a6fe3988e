//! Error type for the InVerDa engine.

use inverda_bidel::BidelError;
use inverda_catalog::CatalogError;
use inverda_datalog::DatalogError;
use inverda_storage::StorageError;
use std::fmt;

/// Errors raised by InVerDa operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// Storage-level failure.
    Storage(StorageError),
    /// Rule evaluation / propagation failure.
    Datalog(DatalogError),
    /// BiDEL parse or semantics failure.
    Bidel(BidelError),
    /// Catalog failure.
    Catalog(CatalogError),
    /// Write addressed a row that does not exist in the versioned view.
    MissingRow {
        /// Schema version addressed.
        version: String,
        /// Table addressed.
        table: String,
        /// Missing key.
        key: u64,
    },
    /// Bad MATERIALIZE target syntax.
    BadMaterializeTarget {
        /// The offending target string.
        target: String,
    },
    /// A branch name that does not exist was addressed.
    UnknownBranch {
        /// The missing branch name.
        name: String,
    },
    /// Branch creation addressed a name already in use.
    BranchExists {
        /// The duplicate branch name.
        name: String,
    },
    /// `fast_forward(src, dst)` found `dst` diverged: it has operations of
    /// its own since the branches' merge base, so advancing it is a merge,
    /// not a fast-forward.
    CannotFastForward {
        /// The diverged destination branch.
        dst: String,
        /// Number of `dst` operations since the merge base.
        dst_ops: usize,
    },
    /// The trunk branch (`main`) cannot be dropped.
    ProtectedBranch {
        /// The protected branch name.
        name: String,
    },
    /// `merge(src, dst)` found conflicting changes; nothing was applied.
    MergeConflicts(crate::branch::MergeConflicts),
    /// A request reached a serving pipeline that has been shut down.
    ShutDown,
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Storage(e) => write!(f, "{e}"),
            CoreError::Datalog(e) => write!(f, "{e}"),
            CoreError::Bidel(e) => write!(f, "{e}"),
            CoreError::Catalog(e) => write!(f, "{e}"),
            CoreError::MissingRow {
                version,
                table,
                key,
            } => write!(f, "no row #{key} in {version}.{table}"),
            CoreError::BadMaterializeTarget { target } => {
                write!(
                    f,
                    "bad MATERIALIZE target '{target}' (expected 'Version' or 'Version.table')"
                )
            }
            CoreError::UnknownBranch { name } => write!(f, "no branch named '{name}'"),
            CoreError::BranchExists { name } => {
                write!(f, "a branch named '{name}' already exists")
            }
            CoreError::CannotFastForward { dst, dst_ops } => write!(
                f,
                "cannot fast-forward: branch '{dst}' has {dst_ops} operation(s) of its own \
                 since the merge base (use merge)"
            ),
            CoreError::ProtectedBranch { name } => {
                write!(f, "branch '{name}' is protected and cannot be dropped")
            }
            CoreError::MergeConflicts(report) => write!(f, "{report}"),
            CoreError::ShutDown => write!(f, "the serving pipeline has shut down"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<StorageError> for CoreError {
    fn from(e: StorageError) -> Self {
        CoreError::Storage(e)
    }
}

impl From<DatalogError> for CoreError {
    fn from(e: DatalogError) -> Self {
        CoreError::Datalog(e)
    }
}

impl From<BidelError> for CoreError {
    fn from(e: BidelError) -> Self {
        CoreError::Bidel(e)
    }
}

impl From<CatalogError> for CoreError {
    fn from(e: CatalogError) -> Self {
        CoreError::Catalog(e)
    }
}
