//! Error type for the schema version catalog.

use crate::genealogy::SmoId;
use inverda_bidel::BidelError;
use std::fmt;

/// Errors raised by catalog operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogError {
    /// A schema version with this name already exists.
    VersionExists {
        /// Offending version name.
        version: String,
    },
    /// The named schema version does not exist.
    UnknownVersion {
        /// Missing version name.
        version: String,
    },
    /// The named table does not exist in the schema version.
    UnknownTable {
        /// Schema version searched.
        version: String,
        /// Missing table name.
        table: String,
    },
    /// An SMO produced a table name that already exists in the version.
    TableExists {
        /// Schema version.
        version: String,
        /// Duplicated table name.
        table: String,
    },
    /// The requested materialization schema violates condition (55) or (56).
    InvalidMaterialization {
        /// Why the schema is invalid.
        reason: String,
    },
    /// A schema version still in use cannot be dropped.
    VersionInUse {
        /// The version.
        version: String,
        /// Why it cannot be dropped.
        reason: String,
    },
    /// The schema version holds the materialized data: SMOs of its own
    /// evolution are materialized, so dropping it would delete the data
    /// every other version reads.
    VersionHoldsData {
        /// The version.
        version: String,
        /// A materialized SMO of its evolution.
        smo: SmoId,
    },
    /// Error from SMO semantics derivation.
    Bidel(BidelError),
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::VersionExists { version } => {
                write!(f, "schema version '{version}' already exists")
            }
            CatalogError::UnknownVersion { version } => {
                write!(f, "unknown schema version '{version}'")
            }
            CatalogError::UnknownTable { version, table } => {
                write!(f, "no table '{table}' in schema version '{version}'")
            }
            CatalogError::TableExists { version, table } => {
                write!(
                    f,
                    "table '{table}' already exists in schema version '{version}'"
                )
            }
            CatalogError::InvalidMaterialization { reason } => {
                write!(f, "invalid materialization schema: {reason}")
            }
            CatalogError::VersionInUse { version, reason } => {
                write!(f, "cannot drop schema version '{version}': {reason}")
            }
            CatalogError::VersionHoldsData { version, smo } => {
                write!(
                    f,
                    "cannot drop schema version '{version}': it holds the materialized data \
                     ({smo} is materialized); MATERIALIZE another version first"
                )
            }
            CatalogError::Bidel(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CatalogError {}

impl From<BidelError> for CatalogError {
    fn from(e: BidelError) -> Self {
        CatalogError::Bidel(e)
    }
}
