//! Instrumentation hooks — the PIN-style callback surface.
//!
//! A [`Hook`] is attached to a [`crate::Vm`] run and receives events as the
//! program executes. All methods have empty default bodies, so a hook only
//! implements what it needs:
//!
//! * the taint engine (`octo-taint`) implements `on_inst`, `on_term`,
//!   `on_mmap`, `on_call`, `on_ret` and `on_crash`: it reads file bytes
//!   off the `read` and `getc` instructions in `on_inst`, not off the
//!   file events;
//! * the fuzzers implement `on_edge` and `on_call` for coverage;
//! * tests implement whatever they assert on.

use octo_ir::{BlockId, FuncId, Inst, Terminator, Width};

use crate::crash::CrashReport;

/// Read-only view of the execution context passed to instruction hooks.
#[derive(Debug)]
pub struct HookCtx<'a> {
    /// Currently executing function.
    pub func: FuncId,
    /// Currently executing block.
    pub block: BlockId,
    /// Index of the instruction within the block; at
    /// [`Hook::on_term`], the block's instruction count.
    pub inst_idx: usize,
    /// Registers of the current frame (pre-state: the instruction has not
    /// executed yet).
    pub regs: &'a [u64],
    /// Current call depth (1 = inside the entry function).
    pub depth: usize,
    /// Current file position indicator (pre-state).
    pub file_pos: u64,
    /// Total input file size.
    pub file_size: u64,
}

/// Execution event callbacks. All default to no-ops.
#[allow(unused_variables)]
pub trait Hook {
    /// Fired before each instruction executes. `ctx.regs` holds pre-state
    /// register values, so operand addresses can be computed by the hook.
    fn on_inst(&mut self, ctx: &HookCtx<'_>, inst: &Inst) {}

    /// Fired before each block terminator executes (same pre-state contract
    /// as [`Hook::on_inst`]).
    fn on_term(&mut self, ctx: &HookCtx<'_>, term: &Terminator) {}

    /// Fired after a memory load completes.
    fn on_mem_read(&mut self, addr: u64, width: Width, value: u64) {}

    /// Fired after a memory store completes.
    fn on_mem_write(&mut self, addr: u64, width: Width, value: u64) {}

    /// Fired after `read` uploads input bytes to memory: `len` bytes from
    /// file offset `file_off` were copied to `buf_addr`. This is the
    /// file-read hook of the paper's Fig. 4.
    fn on_file_read(&mut self, buf_addr: u64, file_off: u64, len: u64) {}

    /// Fired after `getc` reads the byte at `file_off` into a register
    /// (not fired at EOF).
    fn on_file_getc(&mut self, file_off: u64, value: u8) {}

    /// Fired after `mmap` maps the whole input at `base`.
    fn on_mmap(&mut self, base: u64, len: u64) {}

    /// Fired when a call transfers control into `callee` (after arguments
    /// are bound). `depth` is the depth *inside* the callee.
    fn on_call(&mut self, callee: FuncId, args: &[u64], depth: usize) {}

    /// Fired when `func` returns. `depth` is the depth that was left.
    fn on_ret(&mut self, func: FuncId, value: Option<u64>, depth: usize) {}

    /// Fired on every control-flow edge taken between blocks of the same
    /// function (fuzzer coverage granularity).
    fn on_edge(&mut self, func: FuncId, from: BlockId, to: BlockId) {}

    /// Fired once if the run ends in a crash.
    fn on_crash(&mut self, report: &CrashReport) {}
}

/// The do-nothing hook, for plain uninstrumented runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoHook;

impl Hook for NoHook {}
