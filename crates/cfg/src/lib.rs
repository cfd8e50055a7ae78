//! # octo-cfg — control-flow graph recovery and backward path finding.
//!
//! This crate substitutes for angr's CFG machinery (paper §III-B, §IV-B).
//! The paper distinguishes two CFG flavours and so do we:
//!
//! * **Static** ([`CfgMode::Static`]): derived from direct terminator and
//!   call edges only. Fast and exact for those edges, but an indirect jump
//!   (`ijmp`) contributes *no* edges — "it cannot contain the indirect call
//!   edge that appears only when a program is running".
//! * **Dynamic** ([`CfgMode::Dynamic`]): additionally resolves indirect
//!   jumps through an address-taken analysis (every block whose address is
//!   materialised with `baddr` inside the function is a candidate target,
//!   and address-taken functions are candidates for `icall`). When an
//!   `ijmp` has *no* discoverable candidates — its target is computed by
//!   raw arithmetic — recovery fails with [`CfgError`]. This reproduces the
//!   paper's Idx-15 failure, where angr "did not correctly create the CFG
//!   of pdfinfo (due to a bug in its codebase)".
//!
//! [`func_cfg`] is the only code that recovers a function's edges.
//! [`build_cfg`] runs it on every function and turns a dynamic-mode
//! `ijmp` without candidates into the [`CfgError`]; `octo-lint`'s
//! per-function analyses call it directly, where such a block is only
//! marked unresolved.
//!
//! On top of the recovered graph, [`DistanceMap`] computes per-node
//! distances to a target function by *backward* breadth-first search over
//! the interprocedural supergraph — the paper's "backward path finding",
//! which avoids tracing forward through every branch of `T`. The map
//! answers the two questions the pipeline asks:
//!
//! 1. is `ep` reachable from the entry of `T` at all (verdict case ii), and
//! 2. at a branch, which successor makes progress toward `ep` (the
//!    direction oracle of directed symbolic execution).

//!
//! ```
//! use octo_cfg::{build_cfg, CfgMode, DistanceMap};
//! use octo_ir::parse::parse_program;
//!
//! let p = parse_program(
//!     "func main() {\nentry:\n call helper()\n halt 0\n}\n\
//!      func helper() {\nentry:\n ret\n}\n",
//! )?;
//! let cfg = build_cfg(&p, CfgMode::Dynamic).expect("no indirect jumps");
//! let helper = p.func_by_name("helper").expect("exists");
//! let map = DistanceMap::compute(&p, &cfg, helper);
//! assert!(map.reaches(p.entry(), octo_ir::BlockId(0)));
//! # Ok::<(), octo_ir::parse::ParseError>(())
//! ```
#![warn(missing_docs)]

pub mod distance;
pub mod graph;

pub use distance::{DistanceMap, Node};
pub use graph::{build_cfg, func_cfg, Cfg, CfgError, CfgMode, FuncCfg};
