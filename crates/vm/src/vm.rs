//! The concrete MicroIR interpreter.
//!
//! It runs a basic block at a time: `Exec::run_block` resolves the block
//! once when it is entered and then steps through its instructions
//! against the running activation's registers, which live in `Exec`
//! itself. Only suspended callers sit on a frame stack.

use octo_ir::{
    decode_block_addr, decode_func_addr, encode_block_addr, encode_func_addr, BlockId, FuncId,
    Inst, Operand, Program, Reg, RegionKind, Terminator,
};

use crate::crash::{Backtrace, CrashKind, CrashReport};
use crate::hooks::{Hook, HookCtx, NoHook};
use crate::mem::Memory;

#[cfg(test)]
mod differential;
#[cfg(test)]
mod reference;

/// The (only) file descriptor value returned by `open`.
pub const INPUT_FD: u64 = 3;

/// Resource limits for one execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Watchdog: executing more instructions than this is reported as a
    /// suspected infinite loop (CWE-835). Every instruction and every
    /// terminator counts as one. The step that would pass the limit is
    /// refused, and the crash reports `max_insts + 1` instructions
    /// executed, the refused one included.
    pub max_insts: u64,
    /// Maximum call depth before a stack-overflow crash.
    pub max_call_depth: usize,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            max_insts: 2_000_000,
            max_call_depth: 128,
        }
    }
}

/// Result of one program execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// Clean termination with an exit code (`halt` or return from entry).
    Exit(u64),
    /// The program crashed.
    Crash(CrashReport),
}

impl RunOutcome {
    /// The crash report, if the run crashed.
    pub fn crash(&self) -> Option<&CrashReport> {
        match self {
            RunOutcome::Crash(r) => Some(r),
            RunOutcome::Exit(_) => None,
        }
    }

    /// Whether the run crashed.
    pub fn is_crash(&self) -> bool {
        matches!(self, RunOutcome::Crash(_))
    }
}

/// A suspended caller: where it resumes, its registers, and the register
/// of its own caller that its return value goes to.
struct Frame {
    func: FuncId,
    block: BlockId,
    idx: usize,
    regs: Vec<u64>,
    ret_dst: Option<Reg>,
}

/// A single-use interpreter for one `(program, input)` execution.
///
/// ```
/// use octo_ir::parse::parse_program;
/// use octo_vm::Vm;
///
/// let p = parse_program("func main() {\nentry:\n halt 42\n}\n")?;
/// let outcome = Vm::new(&p, b"").run();
/// assert_eq!(outcome, octo_vm::RunOutcome::Exit(42));
/// # Ok::<(), octo_ir::parse::ParseError>(())
/// ```
pub struct Vm<'p> {
    program: &'p Program,
    input: &'p [u8],
    limits: Limits,
    insts_executed: u64,
}

impl<'p> Vm<'p> {
    /// Creates an interpreter for `program` reading `input` as its file.
    pub fn new(program: &'p Program, input: &'p [u8]) -> Vm<'p> {
        Vm {
            program,
            input,
            limits: Limits::default(),
            insts_executed: 0,
        }
    }

    /// Replaces the default limits.
    pub fn with_limits(mut self, limits: Limits) -> Vm<'p> {
        self.limits = limits;
        self
    }

    /// Runs to completion without instrumentation.
    pub fn run(&mut self) -> RunOutcome {
        self.run_hooked(&mut NoHook)
    }

    /// Runs to completion, delivering events to `hook`.
    pub fn run_hooked<H: Hook>(&mut self, hook: &mut H) -> RunOutcome {
        let entry = self.program.entry();
        let f = self.program.func(entry);
        let mut exec = Exec {
            program: self.program,
            input: self.input,
            mem: Memory::new(),
            file_pos: 0,
            fd_opened: false,
            func: entry,
            block: f.entry(),
            idx: 0,
            regs: vec![0; f.n_regs as usize],
            ret_dst: None,
            callers: Vec::new(),
            insts: 0,
            limits: self.limits,
        };
        let outcome = exec.run(hook);
        self.insts_executed = exec.insts;
        if let RunOutcome::Crash(report) = &outcome {
            hook.on_crash(report);
        }
        outcome
    }

    /// Instructions executed by the most recent `run*` call (the virtual
    /// clock tick count).
    pub fn insts_executed(&self) -> u64 {
        self.insts_executed
    }
}

/// A crash and the index it reports: the faulting instruction's, or
/// `usize::MAX` for the terminator.
type Fault = (CrashKind, usize);

struct Exec<'p> {
    program: &'p Program,
    input: &'p [u8],
    mem: Memory,
    file_pos: u64,
    fd_opened: bool,
    /// The running activation's function and block.
    func: FuncId,
    block: BlockId,
    /// Index of its next instruction; the block's length for the
    /// terminator.
    idx: usize,
    regs: Vec<u64>,
    /// The caller's register its return value goes to.
    ret_dst: Option<Reg>,
    /// Suspended callers, outermost first.
    callers: Vec<Frame>,
    insts: u64,
    limits: Limits,
}

impl<'p> Exec<'p> {
    fn run<H: Hook>(&mut self, hook: &mut H) -> RunOutcome {
        hook.on_call(self.func, &[], 1);
        loop {
            match self.run_block(hook) {
                Ok(None) => {}
                Ok(Some(code)) => return RunOutcome::Exit(code),
                Err((kind, inst_idx)) => return RunOutcome::Crash(self.report(kind, inst_idx)),
            }
        }
    }

    fn report(&self, kind: CrashKind, inst_idx: usize) -> CrashReport {
        let frames = self
            .callers
            .iter()
            .map(|fr| fr.func)
            .chain([self.func])
            .map(|f| (f, self.program.func(f).name.clone()))
            .collect();
        CrashReport {
            kind,
            func: self.func,
            block: self.block,
            inst_idx,
            backtrace: Backtrace::new(frames),
            insts_executed: self.insts,
        }
    }

    fn eval(&self, op: Operand) -> u64 {
        match op {
            Operand::Reg(r) => self.regs[r.0 as usize],
            Operand::Imm(v) => v,
        }
    }

    fn set(&mut self, r: Reg, v: u64) {
        self.regs[r.0 as usize] = v;
    }

    fn check_fd(&self, fd: u64) -> Result<(), CrashKind> {
        if self.fd_opened && fd == INPUT_FD {
            Ok(())
        } else {
            Err(CrashKind::BadFileDescriptor { fd })
        }
    }

    /// Counts one step; past the watchdog's limit the step is refused as
    /// a crash at `inst_idx`.
    fn tick(&mut self, inst_idx: usize) -> Result<(), Fault> {
        self.insts += 1;
        if self.insts > self.limits.max_insts {
            return Err((CrashKind::InfiniteLoop, inst_idx));
        }
        Ok(())
    }

    fn ctx(&self, inst_idx: usize) -> HookCtx<'_> {
        HookCtx {
            func: self.func,
            block: self.block,
            inst_idx,
            regs: &self.regs,
            depth: self.callers.len() + 1,
            file_pos: self.file_pos,
            file_size: self.input.len() as u64,
        }
    }

    /// Runs the running activation's block from its next instruction
    /// through the terminator. It returns early at a call, which makes
    /// the callee the running activation, and at a crash. `Some(code)`
    /// means the program exited.
    fn run_block<H: Hook>(&mut self, hook: &mut H) -> Result<Option<u64>, Fault> {
        // Borrow the code through the program reference (lifetime 'p), not
        // through `self`: this avoids cloning every instruction — notably
        // call-argument vectors — on every step, which dominates the
        // fuzzing hot loop otherwise.
        let program = self.program;
        let func = program.func(self.func);
        let block = func.block(self.block);

        while let Some(inst) = block.insts.get(self.idx) {
            let idx = self.idx;
            self.tick(idx)?;
            hook.on_inst(&self.ctx(idx), inst);
            self.idx = idx + 1;
            if self.exec_inst(inst, hook).map_err(|kind| (kind, idx))? {
                return Ok(None);
            }
        }

        self.tick(usize::MAX)?;
        hook.on_term(&self.ctx(block.insts.len()), &block.term);
        let to = match &block.term {
            Terminator::Jmp(target) => *target,
            Terminator::Br {
                cond,
                then_bb,
                else_bb,
            } => {
                if self.eval(*cond) != 0 {
                    *then_bb
                } else {
                    *else_bb
                }
            }
            Terminator::Switch {
                scrut,
                cases,
                default,
            } => {
                let v = self.eval(*scrut);
                cases
                    .iter()
                    .find(|(c, _)| *c == v)
                    .map(|(_, b)| *b)
                    .unwrap_or(*default)
            }
            Terminator::JmpIndirect { target } => {
                let value = self.eval(*target);
                match decode_block_addr(value) {
                    Some((f, b)) if f == self.func && (b.0 as usize) < func.blocks.len() => b,
                    _ => return Err((CrashKind::BadIndirect { value }, usize::MAX)),
                }
            }
            Terminator::Ret(value) => {
                let v = value.map(|op| self.eval(op));
                return Ok(self.ret(v, hook));
            }
            Terminator::Halt { code } => return Ok(Some(self.eval(*code))),
        };
        hook.on_edge(self.func, self.block, to);
        self.block = to;
        self.idx = 0;
        Ok(None)
    }

    /// Suspends the running activation and makes `callee` the running
    /// one, with its parameters bound from `args`.
    fn call<H: Hook>(
        &mut self,
        callee: FuncId,
        args: &[Operand],
        dst: Option<Reg>,
        hook: &mut H,
    ) -> Result<(), CrashKind> {
        let depth = self.callers.len() + 1;
        if depth >= self.limits.max_call_depth {
            return Err(CrashKind::StackOverflow);
        }
        let f = self.program.func(callee);
        let mut regs = vec![0u64; f.n_regs as usize];
        let mut arg_values = Vec::with_capacity(args.len());
        for (i, a) in args.iter().enumerate() {
            let v = self.eval(*a);
            arg_values.push(v);
            // Missing args stay zero; extra args are ignored (C calling
            // convention style).
            if i < f.n_params as usize {
                regs[i] = v;
            }
        }
        self.callers.push(Frame {
            func: std::mem::replace(&mut self.func, callee),
            block: std::mem::replace(&mut self.block, f.entry()),
            idx: std::mem::replace(&mut self.idx, 0),
            regs: std::mem::replace(&mut self.regs, regs),
            ret_dst: std::mem::replace(&mut self.ret_dst, dst),
        });
        hook.on_call(callee, &arg_values, depth + 1);
        Ok(())
    }

    /// Returns `v` from the running activation to its caller, which
    /// becomes the running one again. Returning from the entry function
    /// exits the program: `Some(code)`.
    fn ret<H: Hook>(&mut self, v: Option<u64>, hook: &mut H) -> Option<u64> {
        hook.on_ret(self.func, v, self.callers.len() + 1);
        let Some(caller) = self.callers.pop() else {
            return Some(v.unwrap_or(0));
        };
        let dst = std::mem::replace(&mut self.ret_dst, caller.ret_dst);
        self.func = caller.func;
        self.block = caller.block;
        self.idx = caller.idx;
        self.regs = caller.regs;
        if let Some(dst) = dst {
            self.set(dst, v.unwrap_or(0));
        }
        None
    }

    /// Executes one instruction. Returns whether it was a call, which
    /// made the callee the running activation.
    fn exec_inst<H: Hook>(&mut self, inst: &Inst, hook: &mut H) -> Result<bool, CrashKind> {
        match inst {
            Inst::Const { dst, value } => self.set(*dst, *value),
            Inst::Move { dst, src } => {
                let v = self.eval(*src);
                self.set(*dst, v);
            }
            Inst::Bin { dst, op, lhs, rhs } => {
                let (a, b) = (self.eval(*lhs), self.eval(*rhs));
                let v = op.eval(a, b).ok_or(CrashKind::DivByZero)?;
                self.set(*dst, v);
            }
            Inst::Un { dst, op, src } => {
                let v = op.eval(self.eval(*src));
                self.set(*dst, v);
            }
            Inst::CheckedBin {
                dst,
                op,
                width,
                lhs,
                rhs,
            } => {
                let (a, b) = (self.eval(*lhs), self.eval(*rhs));
                let v = op
                    .eval(*width, a, b)
                    .ok_or(CrashKind::IntegerOverflow { width: *width })?;
                self.set(*dst, v);
            }
            Inst::Load {
                dst,
                addr,
                offset,
                width,
            } => {
                let a = self.eval(*addr).wrapping_add(*offset);
                let v = self.mem.read(a, *width)?;
                hook.on_mem_read(a, *width, v);
                self.set(*dst, v);
            }
            Inst::Store {
                addr,
                offset,
                src,
                width,
            } => {
                let a = self.eval(*addr).wrapping_add(*offset);
                let v = self.eval(*src);
                self.mem.write(a, v, *width)?;
                hook.on_mem_write(a, *width, v);
            }
            Inst::Alloc { dst, size, region } => {
                let size = self.eval(*size);
                let base = self.mem.alloc(size, *region);
                self.set(*dst, base);
            }
            Inst::Call { dst, callee, args } => {
                self.call(*callee, args, *dst, hook)?;
                return Ok(true);
            }
            Inst::CallIndirect { dst, target, args } => {
                let value = self.eval(*target);
                let callee = decode_func_addr(value)
                    .filter(|f| (f.0 as usize) < self.program.function_count())
                    .ok_or(CrashKind::BadIndirect { value })?;
                self.call(callee, args, *dst, hook)?;
                return Ok(true);
            }
            Inst::FuncAddr { dst, func } => self.set(*dst, encode_func_addr(*func)),
            Inst::BlockAddr { dst, block } => {
                self.set(*dst, encode_block_addr(self.func, *block));
            }
            Inst::FileOpen { dst } => {
                self.fd_opened = true;
                self.set(*dst, INPUT_FD);
            }
            Inst::FileRead { dst, fd, buf, len } => {
                self.check_fd(self.eval(*fd))?;
                let buf_addr = self.eval(*buf);
                let want = self.eval(*len);
                let pos = self.file_pos.min(self.input.len() as u64);
                let avail = self.input.len() as u64 - pos;
                let count = want.min(avail);
                if count > 0 {
                    let bytes = &self.input[pos as usize..(pos + count) as usize];
                    self.mem.write_cells(buf_addr, bytes)?;
                    hook.on_file_read(buf_addr, pos, count);
                }
                self.file_pos = pos + count;
                self.set(*dst, count);
            }
            Inst::FileGetc { dst, fd } => {
                self.check_fd(self.eval(*fd))?;
                let pos = self.file_pos;
                if (pos as usize) < self.input.len() {
                    let b = self.input[pos as usize];
                    self.file_pos += 1;
                    hook.on_file_getc(pos, b);
                    self.set(*dst, u64::from(b));
                } else {
                    self.set(*dst, u64::MAX);
                }
            }
            Inst::FileSeek { fd, pos } => {
                self.check_fd(self.eval(*fd))?;
                self.file_pos = self.eval(*pos);
            }
            Inst::FileTell { dst, fd } => {
                self.check_fd(self.eval(*fd))?;
                let pos = self.file_pos;
                self.set(*dst, pos);
            }
            Inst::FileSize { dst, fd } => {
                self.check_fd(self.eval(*fd))?;
                self.set(*dst, self.input.len() as u64);
            }
            Inst::MemMap { dst, fd } => {
                self.check_fd(self.eval(*fd))?;
                let base = self.mem.alloc_with(self.input, RegionKind::Heap);
                hook.on_mmap(base, self.input.len() as u64);
                self.set(*dst, base);
            }
            Inst::Trap { code } => return Err(CrashKind::Trap { code: *code }),
            Inst::Nop => {}
        }
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octo_ir::parse::parse_program;
    use octo_ir::Width;

    fn run(src: &str, input: &[u8]) -> RunOutcome {
        let p = parse_program(src).expect("parse");
        octo_ir::validate::validate(&p).expect("validate");
        Vm::new(&p, input).run()
    }

    #[test]
    fn arithmetic_and_exit_code() {
        let out = run(
            "func main() {\nentry:\n x = 6\n y = mul x, 7\n halt y\n}\n",
            b"",
        );
        assert_eq!(out, RunOutcome::Exit(42));
    }

    #[test]
    fn file_read_into_buffer() {
        let src = r#"
func main() {
entry:
    fd = open
    buf = alloc 8
    n = read fd, buf, 8
    v = load.4 buf
    halt v
}
"#;
        let out = run(src, b"\x78\x56\x34\x12rest");
        assert_eq!(out, RunOutcome::Exit(0x1234_5678));
    }

    #[test]
    fn getc_advances_and_eofs() {
        let src = r#"
func main() {
entry:
    fd = open
    a = getc fd
    b = getc fd
    c = getc fd
    iseof = eq c, -1
    br iseof, good, bad
good:
    x = add a, b
    halt x
bad:
    halt 99
}
"#;
        let out = run(src, b"\x01\x02");
        assert_eq!(out, RunOutcome::Exit(3));
    }

    #[test]
    fn seek_and_tell() {
        let src = r#"
func main() {
entry:
    fd = open
    seek fd, 3
    p = tell fd
    b = getc fd
    x = add p, b
    halt x
}
"#;
        let out = run(src, b"abcde");
        assert_eq!(out, RunOutcome::Exit(3 + u64::from(b'd')));
    }

    #[test]
    fn mmap_exposes_whole_input() {
        let src = r#"
func main() {
entry:
    fd = open
    base = mmap fd
    sz = fsize fd
    last = add base, sz
    last = sub last, 1
    v = load.1 last
    halt v
}
"#;
        let out = run(src, b"xyz!");
        assert_eq!(out, RunOutcome::Exit(u64::from(b'!')));
    }

    #[test]
    fn oob_store_crashes_cwe119() {
        let src = r#"
func main() {
entry:
    buf = alloc 4
    store.1 buf + 4, 65
    halt 0
}
"#;
        let out = run(src, b"");
        let report = out.crash().expect("crash");
        assert_eq!(report.kind.class(), "CWE-119");
    }

    #[test]
    fn null_deref_detected() {
        let out = run("func main() {\nentry:\n v = load.1 0\n halt v\n}\n", b"");
        assert!(matches!(
            out.crash().expect("crash").kind,
            CrashKind::NullDeref { addr: 0 }
        ));
    }

    #[test]
    fn div_by_zero_detected() {
        let out = run(
            "func main() {\nentry:\n z = 0\n v = udiv 5, z\n halt v\n}\n",
            b"",
        );
        assert_eq!(out.crash().expect("crash").kind, CrashKind::DivByZero);
    }

    #[test]
    fn checked_overflow_is_cwe190() {
        let src = "func main() {\nentry:\n a = 0xFFFF\n b = cmul.2 a, 2\n halt b\n}\n";
        let out = run(src, b"");
        assert_eq!(
            out.crash().expect("crash").kind,
            CrashKind::IntegerOverflow { width: Width::W2 }
        );
    }

    #[test]
    fn watchdog_fires_on_infinite_loop() {
        let src = "func main() {\nentry:\n jmp entry\n}\n";
        let p = parse_program(src).unwrap();
        let out = Vm::new(&p, b"")
            .with_limits(Limits {
                max_insts: 1000,
                max_call_depth: 16,
            })
            .run();
        assert_eq!(out.crash().expect("crash").kind, CrashKind::InfiniteLoop);
    }

    #[test]
    fn recursion_hits_stack_limit() {
        let src = "func main() {\nentry:\n call f()\n halt 0\n}\nfunc f() {\nentry:\n call f()\n ret\n}\n";
        let p = parse_program(src).unwrap();
        let out = Vm::new(&p, b"")
            .with_limits(Limits {
                max_insts: 1_000_000,
                max_call_depth: 20,
            })
            .run();
        assert_eq!(out.crash().expect("crash").kind, CrashKind::StackOverflow);
    }

    #[test]
    fn call_and_return_values_flow() {
        let src = r#"
func main() {
entry:
    r = call addmul(3, 4)
    halt r
}
func addmul(a, b) {
entry:
    s = add a, b
    m = mul s, 2
    ret m
}
"#;
        assert_eq!(run(src, b""), RunOutcome::Exit(14));
    }

    #[test]
    fn indirect_call_through_faddr() {
        let src = r#"
func main() {
entry:
    f = faddr target
    r = icall f(5)
    halt r
}
func target(x) {
entry:
    y = add x, 1
    ret y
}
"#;
        assert_eq!(run(src, b""), RunOutcome::Exit(6));
    }

    #[test]
    fn indirect_call_through_garbage_crashes() {
        let src = "func main() {\nentry:\n g = 1234\n r = icall g()\n halt r\n}\n";
        let out = run(src, b"");
        assert_eq!(
            out.crash().expect("crash").kind,
            CrashKind::BadIndirect { value: 1234 }
        );
    }

    #[test]
    fn indirect_jump_through_baddr() {
        let src = r#"
func main() {
entry:
    t = baddr finish
    ijmp t
finish:
    halt 7
}
"#;
        assert_eq!(run(src, b""), RunOutcome::Exit(7));
    }

    #[test]
    fn switch_dispatch() {
        let src = r#"
func main() {
entry:
    fd = open
    v = getc fd
    switch v { 65 -> a, 66 -> b, _ -> other }
a:
    halt 1
b:
    halt 2
other:
    halt 3
}
"#;
        assert_eq!(run(src, b"A"), RunOutcome::Exit(1));
        assert_eq!(run(src, b"B"), RunOutcome::Exit(2));
        assert_eq!(run(src, b"Z"), RunOutcome::Exit(3));
    }

    #[test]
    fn file_op_without_open_crashes() {
        let src = "func main() {\nentry:\n v = getc 3\n halt v\n}\n";
        let out = run(src, b"x");
        assert_eq!(
            out.crash().expect("crash").kind,
            CrashKind::BadFileDescriptor { fd: 3 }
        );
    }

    #[test]
    fn trap_reports_code_and_backtrace() {
        let src =
            "func main() {\nentry:\n call f()\n halt 0\n}\nfunc f() {\nentry:\n trap 9\n ret\n}\n";
        let out = run(src, b"");
        let report = out.crash().expect("crash");
        assert_eq!(report.kind, CrashKind::Trap { code: 9 });
        let names: Vec<&str> = report
            .backtrace
            .frames()
            .iter()
            .map(|(_, n)| n.as_str())
            .collect();
        assert_eq!(names, vec!["main", "f"]);
    }

    #[test]
    fn read_past_eof_returns_short_count() {
        let src = r#"
func main() {
entry:
    fd = open
    buf = alloc 16
    n = read fd, buf, 16
    halt n
}
"#;
        assert_eq!(run(src, b"abc"), RunOutcome::Exit(3));
    }

    #[test]
    fn hook_sees_file_read_offsets() {
        #[derive(Default)]
        struct Rec {
            reads: Vec<(u64, u64, u64)>,
            getcs: Vec<(u64, u8)>,
        }
        impl Hook for Rec {
            fn on_file_read(&mut self, buf: u64, off: u64, len: u64) {
                self.reads.push((buf, off, len));
            }
            fn on_file_getc(&mut self, off: u64, v: u8) {
                self.getcs.push((off, v));
            }
        }
        let src = r#"
func main() {
entry:
    fd = open
    buf = alloc 4
    n = read fd, buf, 4
    c = getc fd
    halt c
}
"#;
        let p = parse_program(src).unwrap();
        let mut hook = Rec::default();
        let out = Vm::new(&p, b"ABCDE").run_hooked(&mut hook);
        assert_eq!(out, RunOutcome::Exit(u64::from(b'E')));
        assert_eq!(hook.reads.len(), 1);
        assert_eq!(hook.reads[0].1, 0);
        assert_eq!(hook.reads[0].2, 4);
        assert_eq!(hook.getcs, vec![(4, b'E')]);
    }

    fn crash_at(src: &str, max_insts: u64) -> CrashReport {
        let p = parse_program(src).expect("parse");
        let limits = Limits {
            max_insts,
            max_call_depth: 16,
        };
        let out = Vm::new(&p, b"").with_limits(limits).run();
        out.crash().expect("crash").clone()
    }

    const THREE_INSTS: &str = "func main() {\nentry:\n x = 1\n y = 2\n z = 3\n halt z\n}\n";

    #[test]
    fn bad_ijmp_after_two_instructions_reports_the_terminator() {
        let r = crash_at("func main() {\nentry:\n x = 1\n y = 2\n ijmp y\n}\n", 100);
        assert_eq!(r.kind, CrashKind::BadIndirect { value: 2 });
        assert_eq!(r.inst_idx, usize::MAX);
        assert_eq!(r.insts_executed, 3);
    }

    #[test]
    fn bad_ijmp_in_a_block_without_instructions_reports_the_terminator() {
        let r = crash_at("func main() {\nentry:\n ijmp 5\n}\n", 100);
        assert_eq!(r.kind, CrashKind::BadIndirect { value: 5 });
        assert_eq!(r.inst_idx, usize::MAX);
        assert_eq!(r.insts_executed, 1);
    }

    #[test]
    fn watchdog_refusing_instruction_2_reports_instruction_2() {
        let r = crash_at(THREE_INSTS, 2);
        assert_eq!(r.kind, CrashKind::InfiniteLoop);
        assert_eq!(r.inst_idx, 2);
        assert_eq!(r.insts_executed, 3, "max_insts + 1");
    }

    #[test]
    fn watchdog_refusing_instruction_0_reports_instruction_0() {
        let r = crash_at(THREE_INSTS, 0);
        assert_eq!(r.kind, CrashKind::InfiniteLoop);
        assert_eq!(r.inst_idx, 0);
        assert_eq!(r.insts_executed, 1, "max_insts + 1");
    }

    #[test]
    fn watchdog_refusing_a_terminator_reports_the_terminator() {
        let r = crash_at(THREE_INSTS, 3);
        assert_eq!((r.kind, r.inst_idx), (CrashKind::InfiniteLoop, usize::MAX));
        assert_eq!(r.insts_executed, 4, "max_insts + 1");
        let r = crash_at("func main() {\nentry:\n halt 0\n}\n", 0);
        assert_eq!((r.kind, r.inst_idx), (CrashKind::InfiniteLoop, usize::MAX));
        assert_eq!(r.insts_executed, 1, "max_insts + 1");
    }

    #[test]
    fn insts_executed_counts_work() {
        let p = parse_program("func main() {\nentry:\n x = 1\n y = 2\n halt y\n}\n").unwrap();
        let mut vm = Vm::new(&p, b"");
        vm.run();
        assert_eq!(vm.insts_executed(), 3); // two insts + terminator
    }
}
