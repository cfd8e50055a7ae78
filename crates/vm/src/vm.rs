//! The concrete MicroIR interpreter.

use octo_ir::{
    decode_block_addr, decode_func_addr, encode_block_addr, encode_func_addr, BlockId, FuncId,
    Inst, Operand, Program, Reg, RegionKind, Terminator,
};

use crate::crash::{Backtrace, CrashKind, CrashReport};
use crate::hooks::{Hook, HookCtx, NoHook};
use crate::mem::Memory;

/// The (only) file descriptor value returned by `open`.
pub const INPUT_FD: u64 = 3;

/// Resource limits for one execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Watchdog: executing more instructions than this is reported as a
    /// suspected infinite loop (CWE-835).
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
        let mut exec = Exec {
            program: self.program,
            input: self.input,
            mem: Memory::new(),
            file_pos: 0,
            fd_opened: false,
            frames: Vec::new(),
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

enum Step {
    Continue,
    Exited(u64),
}

struct Exec<'p> {
    program: &'p Program,
    input: &'p [u8],
    mem: Memory,
    file_pos: u64,
    fd_opened: bool,
    frames: Vec<Frame>,
    insts: u64,
    limits: Limits,
}

impl<'p> Exec<'p> {
    fn run<H: Hook>(&mut self, hook: &mut H) -> RunOutcome {
        let entry = self.program.entry();
        let f = self.program.func(entry);
        self.frames.push(Frame {
            func: entry,
            block: f.entry(),
            idx: 0,
            regs: vec![0; f.n_regs as usize],
            ret_dst: None,
        });
        hook.on_call(entry, &[], 1);
        loop {
            match self.step(hook) {
                Ok(Step::Continue) => {}
                Ok(Step::Exited(code)) => return RunOutcome::Exit(code),
                Err(kind) => return RunOutcome::Crash(self.report(kind)),
            }
        }
    }

    fn report(&self, kind: CrashKind) -> CrashReport {
        let frames = self
            .frames
            .iter()
            .map(|fr| (fr.func, self.program.func(fr.func).name.clone()))
            .collect();
        let top = self.frames.last().expect("crash with live frame");
        CrashReport {
            kind,
            func: top.func,
            block: top.block,
            inst_idx: top.idx.saturating_sub(1),
            backtrace: Backtrace::new(frames),
            insts_executed: self.insts,
        }
    }

    fn eval(&self, op: Operand) -> u64 {
        match op {
            Operand::Reg(r) => self.frames.last().expect("live frame").regs[r.0 as usize],
            Operand::Imm(v) => v,
        }
    }

    fn set(&mut self, r: Reg, v: u64) {
        self.frames.last_mut().expect("live frame").regs[r.0 as usize] = v;
    }

    fn check_fd(&self, fd: u64) -> Result<(), CrashKind> {
        if self.fd_opened && fd == INPUT_FD {
            Ok(())
        } else {
            Err(CrashKind::BadFileDescriptor { fd })
        }
    }

    fn step<H: Hook>(&mut self, hook: &mut H) -> Result<Step, CrashKind> {
        self.insts += 1;
        if self.insts > self.limits.max_insts {
            return Err(CrashKind::InfiniteLoop);
        }
        let (func_id, block_id, idx) = {
            let fr = self.frames.last().expect("live frame");
            (fr.func, fr.block, fr.idx)
        };
        // Borrow the code through the program reference (lifetime 'p), not
        // through `self`: this avoids cloning every instruction — notably
        // call-argument vectors — on every step, which dominates the
        // fuzzing hot loop otherwise.
        let program = self.program;
        let func = program.func(func_id);
        let block = func.block(block_id);

        if idx < block.insts.len() {
            let inst = &block.insts[idx];
            {
                let fr = self.frames.last().expect("live frame");
                let ctx = HookCtx {
                    func: func_id,
                    block: block_id,
                    inst_idx: idx,
                    regs: &fr.regs,
                    depth: self.frames.len(),
                    file_pos: self.file_pos,
                    file_size: self.input.len() as u64,
                };
                hook.on_inst(&ctx, inst);
            }
            self.frames.last_mut().expect("live frame").idx += 1;
            self.exec_inst(inst, hook)?;
            return Ok(Step::Continue);
        }

        // Terminator.
        {
            let fr = self.frames.last().expect("live frame");
            let ctx = HookCtx {
                func: func_id,
                block: block_id,
                inst_idx: idx,
                regs: &fr.regs,
                depth: self.frames.len(),
                file_pos: self.file_pos,
                file_size: self.input.len() as u64,
            };
            hook.on_term(&ctx, &block.term);
        }
        match &block.term {
            Terminator::Jmp(target) => self.goto(func_id, block_id, *target, hook),
            Terminator::Br {
                cond,
                then_bb,
                else_bb,
            } => {
                let taken = if self.eval(*cond) != 0 {
                    *then_bb
                } else {
                    *else_bb
                };
                self.goto(func_id, block_id, taken, hook)
            }
            Terminator::Switch {
                scrut,
                cases,
                default,
            } => {
                let v = self.eval(*scrut);
                let taken = cases
                    .iter()
                    .find(|(c, _)| *c == v)
                    .map(|(_, b)| *b)
                    .unwrap_or(*default);
                self.goto(func_id, block_id, taken, hook)
            }
            Terminator::JmpIndirect { target } => {
                let value = self.eval(*target);
                match decode_block_addr(value) {
                    Some((f, b)) if f == func_id && (b.0 as usize) < func.blocks.len() => {
                        self.goto(func_id, block_id, b, hook)
                    }
                    _ => Err(CrashKind::BadIndirect { value }),
                }
            }
            Terminator::Ret(value) => {
                let v = value.as_ref().map(|op| self.eval(*op));
                let fr = self.frames.pop().expect("live frame");
                hook.on_ret(fr.func, v, self.frames.len() + 1);
                match self.frames.last_mut() {
                    None => Ok(Step::Exited(v.unwrap_or(0))),
                    Some(caller) => {
                        if let Some(dst) = fr.ret_dst {
                            caller.regs[dst.0 as usize] = v.unwrap_or(0);
                        }
                        Ok(Step::Continue)
                    }
                }
            }
            Terminator::Halt { code } => Ok(Step::Exited(self.eval(*code))),
        }
    }

    fn goto<H: Hook>(
        &mut self,
        func: FuncId,
        from: BlockId,
        to: BlockId,
        hook: &mut H,
    ) -> Result<Step, CrashKind> {
        hook.on_edge(func, from, to);
        let fr = self.frames.last_mut().expect("live frame");
        fr.block = to;
        fr.idx = 0;
        Ok(Step::Continue)
    }

    fn do_call<H: Hook>(
        &mut self,
        callee: FuncId,
        args: &[Operand],
        dst: Option<Reg>,
        hook: &mut H,
    ) -> Result<(), CrashKind> {
        if self.frames.len() >= self.limits.max_call_depth {
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
        self.frames.push(Frame {
            func: callee,
            block: f.entry(),
            idx: 0,
            regs,
            ret_dst: dst,
        });
        hook.on_call(callee, &arg_values, self.frames.len());
        Ok(())
    }

    fn exec_inst<H: Hook>(&mut self, inst: &Inst, hook: &mut H) -> Result<(), CrashKind> {
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
                self.do_call(*callee, args, *dst, hook)?;
            }
            Inst::CallIndirect { dst, target, args } => {
                let value = self.eval(*target);
                let callee = decode_func_addr(value)
                    .filter(|f| (f.0 as usize) < self.program.function_count())
                    .ok_or(CrashKind::BadIndirect { value })?;
                self.do_call(callee, args, *dst, hook)?;
            }
            Inst::FuncAddr { dst, func } => self.set(*dst, encode_func_addr(*func)),
            Inst::BlockAddr { dst, block } => {
                let func = self.frames.last().expect("live frame").func;
                self.set(*dst, encode_block_addr(func, *block));
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
        Ok(())
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

    #[test]
    fn insts_executed_counts_work() {
        let p = parse_program("func main() {\nentry:\n x = 1\n y = 2\n halt y\n}\n").unwrap();
        let mut vm = Vm::new(&p, b"");
        vm.run();
        assert_eq!(vm.insts_executed(), 3); // two insts + terminator
    }
}
