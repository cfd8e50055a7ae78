//! # octo-symex — symbolic execution of MicroIR (the angr substitute).
//!
//! OctoPoCs uses angr for phase P2 (guiding-input generation) and P3
//! (combining), §IV-B. This crate reimplements the needed slice of a
//! symbolic execution engine over [`octo_ir`] programs:
//!
//! * **Symbolic input file.** "Initially, the input file given to T is a
//!   file in which all bytes are designated as symbols" — the state's file
//!   model hands out [`octo_solver::Expr::Byte`] terms; the *file position
//!   indicator* stays concrete, because P3 places bunches at the concrete
//!   position where `T` enters `ℓ`.
//! * **Concolic concretisation.** Values that must be concrete to make
//!   progress (memory addresses, read lengths, seek targets, indirect
//!   branch targets) are concretised against the current path condition
//!   and pinned with an equality constraint, the standard angr practice.
//! * **octo-vm's machine model.** A state's memory is an
//!   [`octo_vm::Memory`] of [`SymByte`] cells and its faults crash through
//!   octo-vm's [`octo_vm::CrashKind`] conversion, so symbolic and concrete
//!   runs of `T` allocate at the same addresses and crash the same way.
//! * **One fork.** A `br` or `switch` on a symbolic value surfaces as one
//!   [`StepEvent::Fork`] (the scrutinee plus its [`Arms`] in terminator
//!   order); a strategy commits each arm it follows with
//!   [`SymExecutor::take`].
//! * **Two exploration strategies.**
//!   [`naive::NaiveExplorer`] forks at every symbolic branch (breadth
//!   first) and accounts for state memory; exceeding the memory budget
//!   reproduces angr's `MemoryError` path explosion from Table IV.
//!   [`directed::DirectedEngine`] implements the paper's directed symbolic
//!   execution: a backward-path [`octo_cfg::DistanceMap`] chooses branch
//!   directions, loop states are bounded by θ, and the four state kinds —
//!   *active*, *loop*, *loop-dead*, *program-dead* — map onto the verdicts
//!   of §III-B. The directed engine also performs P3: at every `ep` entry
//!   it asserts the corresponding bunch at the current file position and
//!   replays the `ep` arguments recorded in `S`, and after the last entry
//!   it solves everything into `poc'`.

//!
//! ```
//! use octo_cfg::{build_cfg, CfgMode, DistanceMap};
//! use octo_ir::parse::parse_program;
//! use octo_poc::{Bunch, CrashPrimitives};
//! use octo_symex::{DirectedConfig, DirectedEngine, DirectedOutcome};
//!
//! let t = parse_program(
//!     "func main() {\nentry:\n fd = open\n m = getc fd\n c = eq m, 0x4D\n \
//!      br c, go, rej\ngo:\n call shared(fd)\n halt 0\nrej:\n halt 1\n}\n\
//!      func shared(fd) {\nentry:\n v = getc fd\n ret\n}\n",
//! )?;
//! let ep = t.func_by_name("shared").expect("exists");
//! let cfg = build_cfg(&t, CfgMode::Dynamic).expect("cfg");
//! let map = DistanceMap::compute(&t, &cfg, ep);
//! // One bunch: the byte ℓ consumes must be 0x7F.
//! let mut q = CrashPrimitives::new();
//! let mut bunch = Bunch::new(1);
//! bunch.add(0, 0x7F);
//! q.push(bunch, vec![3]);
//! let config = DirectedConfig { file_len: 8, ..DirectedConfig::default() };
//! let engine = DirectedEngine::new(&t, ep, &map, &q, config);
//! let (outcome, _stats) = engine.run();
//! let DirectedOutcome::PocGenerated { poc, .. } = outcome else { panic!() };
//! assert_eq!(poc.byte(0), 0x4D); // guiding magic
//! assert_eq!(poc.byte(1), 0x7F); // crash primitive
//! # Ok::<(), octo_ir::parse::ParseError>(())
//! ```
#![warn(missing_docs)]

pub mod directed;
pub mod exec;
pub mod naive;
pub mod state;
pub mod value;

pub use directed::{
    DirectedConfig, DirectedEngine, DirectedOutcome, DirectedStats, CANCEL_POLL_STEPS,
};
pub use exec::{Arms, Fork, StepEvent, SymExecutor};
pub use naive::{NaiveConfig, NaiveExplorer, NaiveOutcome, NaiveStats};
pub use state::SymState;
pub use value::{SymByte, SymVal};
