//! # inverda-catalog
//!
//! The **schema version catalog** — "the central knowledge base for all
//! schema versions and the evolution between them" (paper Section 3).
//!
//! The catalog stores the genealogy of schema versions as a directed acyclic
//! **hypergraph** `(T, E)`: vertices are table versions, hyperedges are SMO
//! instances evolving a set of source table versions into a set of target
//! table versions. Each schema version is a subset of the table versions;
//! versions share a table version when it does not evolve between them.
//!
//! The catalog also owns the **materialization schema** machinery
//! (Section 7): which SMO instances are materialized, the two validity
//! conditions (55)/(56), the induced physical table schema, enumeration of
//! all valid materialization schemas (Table 2), and the storage-case
//! resolution (local / forwards / backwards, Section 6 Figure 6) that the
//! delta-code generation is driven by.

#![warn(missing_docs)]

pub mod error;
pub mod genealogy;
pub mod materialization;

pub use error::CatalogError;
pub use genealogy::{
    EvolutionOutcome, Genealogy, Retired, SchemaVersion, SmoId, SmoInstance, TableVersion,
    TableVersionId,
};
pub use materialization::{MaterializationSchema, StorageCase};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CatalogError>;
