//! # inverda-core
//!
//! **InVerDa** — Integrated Versioning of Databases: end-to-end support for
//! co-existing schema versions (the paper's Sections 2, 3, 6, 7).
//!
//! One [`Inverda`] instance is a database in which multiple schema versions
//! live over a single data set:
//!
//! * the **Database Evolution Operation** executes a BiDEL script; the new
//!   schema version becomes immediately readable and writable;
//! * reads on any version are answered by expanding the SMO mapping rules
//!   toward wherever the data is physically stored (generated views);
//! * writes on any version propagate — minimally, via mechanically derived
//!   update-propagation rules — to the physical side and are visible in
//!   every other version (generated triggers);
//! * the **Database Migration Operation** (`MATERIALIZE '…'`) relocates the
//!   physical data representation along the genealogy without affecting the
//!   availability of any schema version and without developer involvement.
//!
//! ```
//! use inverda_core::Inverda;
//!
//! let db = Inverda::new();
//! db.execute(
//!     "CREATE SCHEMA VERSION TasKy WITH CREATE TABLE Task(author, task, prio);",
//! ).unwrap();
//! db.execute(
//!     "CREATE SCHEMA VERSION Do! FROM TasKy WITH \
//!        SPLIT TABLE Task INTO Todo WITH prio = 1; \
//!        DROP COLUMN prio FROM Todo DEFAULT 1;",
//! ).unwrap();
//! let key = db.insert("TasKy", "Task", vec!["Ann".into(), "Write paper".into(), 1.into()]).unwrap();
//! // The write is immediately visible in the Do! version.
//! let todo = db.scan("Do!", "Todo").unwrap();
//! assert!(todo.contains_key(key));
//! db.execute("MATERIALIZE 'Do!';").unwrap();
//! // Still visible everywhere after migrating the physical schema.
//! assert!(db.scan("Do!", "Todo").unwrap().contains_key(key));
//! assert!(db.scan("TasKy", "Task").unwrap().contains_key(key));
//! ```

#![warn(missing_docs)]

pub mod branch;
pub mod compiled;
pub mod database;
pub mod durability;
pub mod edb;
pub mod error;
pub mod migrate;
pub mod query;
pub mod serving;
pub mod snapshot;
pub mod write;

pub use branch::{
    Branch, BranchDiff, BranchOp, BranchingInverda, HistoryEntry, MergeConflict, MergeConflicts,
    MergeOutcome, NetChange, SideChange, TableDiff, MAIN_BRANCH,
};
pub use database::{ExecutionOutcome, Inverda, WritePath};
pub use durability::{DurabilityMode, DurabilityOptions};
pub use error::CoreError;
pub use query::{AccessPath, Query, QueryPlan, RowIter};
pub use serving::{
    Client, PinnedView, Reader, ServingInverda, ServingOp, ServingOutcome, ServingReply,
};
pub use snapshot::{SnapshotStats, SnapshotStore};
pub use write::LogicalWrite;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CoreError>;
