//! # octo-vm — concrete MicroIR interpreter with instrumentation hooks.
//!
//! This crate is the reproduction's substitute for Intel PIN (the dynamic
//! binary instrumentation framework the paper's taint engine is built on,
//! §IV-A). It executes [`octo_ir`] programs against a single input file and
//! exposes the same observables PIN exposes on native binaries:
//!
//! * a per-instruction callback with access to the live register file,
//! * file-read / memory-mapping hook events carrying the *file offsets*
//!   uploaded into memory (Fig. 4 of the paper),
//! * function entry/exit events (for `ep` counting),
//! * block-entry events (edge coverage for the greybox fuzzers),
//! * crash reports with a call-stack backtrace (for `ep` identification,
//!   paper "Preprocessing").
//!
//! The interpreter runs a basic block at a time ([`vm`]): it resolves a
//! block once when it enters it and keeps the running activation's
//! registers out of the frame stack, which holds only suspended callers.
//! Hooks still see every instruction, in the order and with the context
//! a per-step interpreter gives them; a differential test holds the two
//! to the same callbacks, crash reports and instruction counts.
//!
//! The crash model maps onto the CWE classes in the paper's Table II:
//! out-of-bounds access → CWE-119, checked-arithmetic overflow → CWE-190,
//! watchdog expiry → CWE-835 (infinite loop), plus null dereference,
//! division by zero, and explicit traps.
//!
//! ```
//! use octo_ir::parse::parse_program;
//! use octo_vm::{Vm, RunOutcome};
//!
//! let program = parse_program(
//!     "func main() {\nentry:\n fd = open\n b = getc fd\n ret b\n}\n",
//! ).expect("valid program");
//! let outcome = Vm::new(&program, b"A").run();
//! assert_eq!(outcome, RunOutcome::Exit(65));
//! ```
#![warn(missing_docs)]

pub mod crash;
pub mod hooks;
pub mod mem;
pub mod trace;
pub mod vm;

pub use crash::{Backtrace, CrashKind, CrashReport};
pub use hooks::{Hook, HookCtx, NoHook};
pub use mem::{Memory, Region};
pub use trace::{Trace, TraceEvent, TraceHook};
pub use vm::{Limits, RunOutcome, Vm};

/// Instruction-to-time calibration for the virtual clock.
///
/// The evaluation tables report elapsed time on the paper's testbed
/// (i7-7700). Our substrate is an interpreter, so wall-clock time measures
/// the interpreter, not the subject program; the *virtual clock* instead
/// charges each executed instruction a fixed cost. `INSTS_PER_SECOND` is
/// calibrated so the corpus programs land in the same order of magnitude as
/// the paper's Table IV/V entries.
pub const INSTS_PER_SECOND: u64 = 100_000;

/// Virtual seconds corresponding to `insts` executed instructions.
pub fn virtual_seconds(insts: u64) -> f64 {
    insts as f64 / INSTS_PER_SECOND as f64
}
