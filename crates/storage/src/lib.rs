//! # inverda-storage
//!
//! An in-memory relational storage engine: the substrate underneath the
//! InVerDa co-existing-schema-versions engine.
//!
//! The paper prototypes InVerDa on top of PostgreSQL 9.4; the generated delta
//! code (views and triggers) is executed by the host DBMS. This crate plays
//! the role of that host: it stores *physical* tables, evaluates the scalar
//! expressions that appear in SMO parameters (split conditions, column
//! functions), and provides atomic write batches used by the propagation
//! engine and the migration procedure.
//!
//! Design points mirrored from the paper:
//!
//! * Every tuple carries an InVerDa-managed identifier `p` ([`Key`]) that is
//!   unique across versions; it bridges the multiset semantics of SQL and the
//!   set semantics of Datalog (Section 4 of the paper).
//! * Relations iterate in deterministic key order so that rule evaluation and
//!   benchmarks are reproducible.
//! * Sequences hand out fresh keys and feed the skolem `idT(B)` functions of
//!   the id-generating SMOs.

#![warn(missing_docs)]

pub mod batch;
pub mod codec;
pub mod engine;
pub mod error;
pub mod expr;
pub mod relation;
pub mod schema;
pub mod value;

pub use batch::{WriteBatch, WriteOp};
pub use codec::{crc32, read_frame, write_frame, Codec, FrameScan, Reader};
pub use engine::{SequenceSet, Storage};
pub use error::StorageError;
pub use expr::{BinaryOp, BoundExpr, CmpOp, Expr, NamedRow, RowContext};
pub use relation::{ColumnIndex, Relation, RelationDelta, Row};
pub use schema::{resolve_column, TableSchema};
pub use value::{Key, Value};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StorageError>;
