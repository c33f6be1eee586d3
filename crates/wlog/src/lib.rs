// User-facing paths return typed errors; panicking shortcuts are banned
// from library code (tests may still unwrap).
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

//! WLog — the declarative specification language of Deco (Section 4).
//!
//! WLog extends ProLog in two directions: constructs for scientific
//! workflows and IaaS clouds (`import`, `deadline(p, d)`, `budget(p, b)`,
//! `goal` / `cons` / `var` sections, `enabled(astar)`), and a probabilistic
//! notion of goals and constraints to capture cloud dynamics. A WLog
//! program is translated into a *probabilistic intermediate representation*
//! (ProbLog-style weighted rules, Section 5.1) and evaluated with Monte
//! Carlo approximate inference (Section 5.2, Algorithm 1).
//!
//! Layering:
//!
//! * [`ast`] — terms, clauses, and the WLog program structure.
//! * [`lexer`] / [`parser`] — concrete syntax, including the `95%` / `10h`
//!   literals of constraint built-ins.
//! * `unify` — compiled terms, binding slots with a trail, and
//!   unification (internal to the machine).
//! * [`machine`] — clauses compiled to templates with first-argument
//!   indexing, and iterative SLD resolution with backtracking, cut, and the
//!   ProLog built-ins (`is`, comparisons, `findall`, `setof`, `sum`, `max`,
//!   …).
//! * [`problog`] — the probabilistic IR: certain clauses, annotated
//!   disjunctions (one alternative per histogram bin), and Monte-Carlo
//!   query evaluation.
//! * [`program`] — the top-level WLog program: sections, imports, and the
//!   evaluation entry points the Deco engine calls per searched state.

pub mod ast;
pub mod lexer;
pub mod machine;
pub mod parser;
pub mod problog;
pub mod program;
mod unify;

pub use ast::{Clause, Term};
pub use machine::Machine;
pub use problog::ProbProgram;
pub use program::{Constraint, ConstraintKind, Goal, GoalKind, WlogError, WlogProgram};
