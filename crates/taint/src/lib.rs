//! # octo-taint — context-aware dynamic taint analysis (phase P1).
//!
//! The paper's taint engine is 2,400 lines of C++ on Intel PIN (§IV-A);
//! this crate is the same engine as a [`octo_vm::Hook`] client of our
//! PIN-substitute VM. It implements the paper's algorithm 1:
//!
//! 1. **Specify the memory area of interest** — hook every file-read and
//!    memory-mapping operation and record, per memory byte, which PoC file
//!    offset produced it (Fig. 4).
//! 2. **Monitor from the program entry** — propagate taint through
//!    registers and memory from the very start, because "some bytes in poc
//!    may be read and stored before entering ℓ and then *indirectly* used
//!    in ℓ" (the *candidate addresses*).
//! 3. **Context-aware extraction** — count entries into `ep`; while the
//!    execution is inside `ℓ`, every access whose data (or address)
//!    carries taint contributes its file offsets to the *bunch* of the
//!    current entry. Bunches are emitted in entry order together with the
//!    arguments `ep` received (phase P3 replays those arguments in `T`).
//!
//! **State.** The engine keeps one propagation state per run: a per-byte
//! memory map (`HashMap<u64, TaintSet>` with std's keyed hasher, because
//! `S` picks the addresses), one dense register shadow per call frame
//! (a `Vec<TaintSet>` indexed by register number), and the argument and
//! return taint in flight across calls. A [`TaintSet`] holds one offset
//! inline, so the common single-byte flow (one per `getc`) allocates
//! nothing; only sets of two or more offsets share an `Rc`.
//!
//! **Recorders.** What depends on `ep` (the entry count, the open bunch
//! and its arguments, the finished bunches and `taint_records`) lives in
//! one recorder per tracked function. [`extract_with_limits`] tracks a
//! given `ep`. [`extract_at_crash_ep`] tracks every function of `ℓ` and,
//! once `S` has crashed, picks `ep` off the crash backtrace (the paper's
//! preprocessing rule), so preprocessing and P1 share one run of `S`.
//!
//! Two ablation switches reproduce the paper's design choices:
//! [`Granularity::Word`] (vs the paper's byte-level tainting, §IV-A) and
//! [`ContextMode::ContextFree`] (the Table III baseline, which collapses
//! every bunch into one).
//!
//! ```
//! use octo_ir::parse::parse_program;
//! use octo_poc::PocFile;
//! use octo_taint::{extract_crash_primitives, TaintConfig};
//!
//! let src = r#"
//! func main() {
//! entry:
//!     fd = open
//!     buf = alloc 4
//!     n = read fd, buf, 4
//!     call shared(buf)
//!     halt 0
//! }
//! func shared(p) {
//! entry:
//!     v = load.1 p + 2
//!     c = eq v, 0x41
//!     br c, boom, fine
//! boom:
//!     trap 1
//! fine:
//!     ret
//! }
//! "#;
//! let program = parse_program(src).expect("valid");
//! let ep = program.func_by_name("shared").expect("exists");
//! let poc = PocFile::from(&b"xyA!"[..]);
//! let cfg = TaintConfig::new(ep, vec![ep]);
//! let extraction = extract_crash_primitives(&program, &poc, &cfg).expect("crashes");
//! // The byte at offset 2 was consumed inside the shared function.
//! let bunch = extraction.primitives.bunch(0).expect("one entry");
//! assert!(bunch.iter().any(|(off, v)| off == 2 && v == 0x41));
//! ```
#![warn(missing_docs)]

pub mod engine;
pub mod extract;
pub mod set;

pub use engine::{ContextMode, Granularity, TaintConfig, TaintEngine, TaintStats};
pub use extract::{
    extract_at_crash_ep, extract_crash_primitives, extract_with_limits, Extraction, TaintError,
};
pub use set::TaintSet;
