//! # inverda-datalog
//!
//! The Datalog formalism of the paper, executable.
//!
//! Section 4 of the paper defines the semantics of every BiDEL SMO as a pair
//! of Datalog rule sets (γ_tgt, γ_src) mapping the *source side* state of an
//! SMO instance to its *target side* state and back. This crate provides:
//!
//! * the rule AST ([`ast`]) matching the paper's extended Datalog — positive
//!   and negative atoms over keyed relations, condition predicates `c(A)`,
//!   function assignments `a = f(…)`, and the skolem generators `idT(B)` of
//!   the id-generating SMOs (Appendix B.3/B.4/B.6);
//! * a staged, non-recursive **compiled** evaluation engine ([`eval`]) —
//!   rules are interned into slot-addressed frames once, then evaluated in
//!   order over on-demand join indexes; later rules may reference earlier
//!   heads (the paper's `old`/`new` sequencing);
//! * the original naive interpreter ([`naive`]), kept as the reference
//!   oracle for differential testing of the compiled engine;
//! * mechanical **update propagation** ([`delta`]) deriving minimal write
//!   deltas through a rule set, the engine-side equivalent of the paper's
//!   generated triggers (Section 6, Rules 52–54, citing Behrend et al.);
//! * the five **simplification lemmas** of Section 5 ([`simplify`]) as
//!   executable rule-set transformations, used to re-derive the paper's
//!   bidirectionality proofs (Appendix A) mechanically;
//! * **γ-chain fusion** ([`fusion`]): the structural fusability gate and
//!   budgeted Lemma-1 inlining, with which the core crate statically
//!   composes runs of adjacent column-level mappings into single fused rule
//!   sets (only in a view bound to a snapshot store; a store-off database
//!   resolves hop by hop).
//!
//! Evaluation is sequential: one rule after another, in rule order, on the
//! calling thread.

#![warn(missing_docs)]

pub mod ast;
pub mod delta;
pub mod error;
pub mod eval;
pub mod fusion;
pub mod naive;
pub mod simplify;
pub mod skolem;

pub use ast::{Atom, Literal, Rule, RuleSet, Term};
pub use delta::{Delta, DeltaMap, PatchedEdb};
pub use error::DatalogError;
pub use eval::{evaluate, evaluate_compiled, CompiledRuleSet, EdbView, MapEdb, ReservingIds};
pub use skolem::{RegOp, RegistryDivergence, SkolemRegistry};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, DatalogError>;
