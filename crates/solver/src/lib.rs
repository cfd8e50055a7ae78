//! # octo-solver — byte-level constraint solver (the Z3 / angr-solver substitute).
//!
//! OctoPoCs solves two families of constraints (paper §III-B/C):
//!
//! 1. *guiding-input constraints*: branch conditions collected by directed
//!    symbolic execution over a fully symbolic input file, and
//! 2. *crash-primitive constraints*: byte equalities pinning each bunch of
//!    the original PoC at the file position where the execution of `T`
//!    enters the shared code area (`sym[5:9] == 0x41` in the paper's
//!    Fig. 5 example).
//!
//! Both families are constraints over the *bytes of one input file*, which
//! is the fragment this solver implements: expressions are 64-bit terms
//! over [`Expr::Byte`] variables (one per file offset), and solving
//! produces a concrete byte assignment — the reformed PoC.
//!
//! The solver is complete for the fragment the symbolic executor emits:
//! constraint normalisation decomposes equality with byte concatenations
//! into per-byte facts, domain propagation prunes each byte's 256-value
//! domain, and a bounded backtracking search covers residual multi-byte
//! constraints. `Unsat` answers are what drive the paper's *loop-dead* and
//! Type-III ("vulnerability not triggerable") verdicts, so unsoundness in
//! either direction would corrupt the evaluation — the property tests check
//! models against their constraint sets and cross-check `Unsat` by
//! exhaustive enumeration on small instances.
//!
//! Directed symbolic execution calls the solver at every fork and every
//! placed bunch, each time from full domains on a path condition that
//! only grew. A [`FilterMemo`] makes the repeats cheap: it memoizes the
//! one-variable and pair filters of propagation. A constraint that reads
//! one byte is keyed on the constraint alone, and its entry is the
//! constraint's truth table over the byte's 256 values: the filter keeps
//! exactly the domain's values that the table holds, whatever the
//! domain. Any other filter is keyed on the constraint and the current
//! domain of every byte it reads. Either way a hit returns exactly what
//! the filter would compute, and budgets are charged as on a miss. Each
//! [`Constraint`] computes its byte offsets and its structural hash once,
//! when it is built, so a lookup neither walks nor hashes its trees.
//!
//! The memo is the solver's whole per-run state. One engine run owns one
//! memo and hands it to every solver entry
//! ([`ConstraintSet::solve_in`], [`ConstraintSet::quick_feasible_in`]),
//! and each entry counts itself, its wall time and its interval
//! refutations on it; [`FilterMemo::counters`] reads them as
//! [`SolverCounters`], with the simplifier's rewrites since the memo was
//! made (the one thread-local count, because expressions are simplified
//! where no run is at hand). The plain entry points
//! ([`ConstraintSet::solve`], [`ConstraintSet::quick_feasible`]) use a
//! fresh memo per call. A memo's filter results are cleared at
//! [`FILTER_MEMO_CAP`] entries, which bounds its memory and changes no
//! answer and no count.
//!
//! A filter that misses is cheap as well. The pair filter keeps a value
//! of one byte only if some value of the other byte supports it, and it
//! proves "no support" by [`interval`] bounds before enumerating: with
//! the value fixed and the other byte over its domain's `[min, max]`, a
//! refuted constraint needs no enumeration. The domains it leaves, and so
//! every answer and counter, are those of enumeration alone; this makes
//! the interval rules' soundness part of every `Sat` answer, which the
//! crate's containment oracle checks.
//!
//! ```
//! use octo_solver::{Expr, Cond, Constraint, ConstraintSet, SolveResult};
//!
//! // "the 2-byte little-endian word at offsets 4..6 equals 0x1234"
//! let word = Expr::concat_le(4, 2);
//! let mut set = ConstraintSet::new();
//! set.push(Constraint::new(word, Expr::val(0x1234), Cond::Eq));
//! match set.solve() {
//!     SolveResult::Sat(model) => {
//!         assert_eq!(model.byte(4), 0x34);
//!         assert_eq!(model.byte(5), 0x12);
//!     }
//!     other => panic!("expected sat, got {other:?}"),
//! }
//! ```
#![warn(missing_docs)]

pub mod constraint;
pub mod domain;
pub mod expr;
pub mod interval;
pub mod simplify;
pub mod solve;

pub use constraint::{Cond, Constraint, ConstraintSet};
pub use domain::ByteDomain;
pub use expr::{Expr, ExprRef};
pub use interval::{eval_interval, Interval};
pub use solve::{FilterMemo, Model, SolveLimits, SolveResult, SolverCounters, FILTER_MEMO_CAP};
