//! The per-step interpreter that `Exec::run_block` replaced, kept as the
//! reference of the differential oracle (`super::differential`). It
//! finds the frame, the function and the block again for every
//! instruction, keeps every activation on one frame stack, and builds
//! the hook context from the stack's top.

use octo_ir::{
    decode_block_addr, decode_func_addr, encode_block_addr, encode_func_addr, BlockId, FuncId,
    Inst, Operand, Program, Reg, RegionKind, Terminator,
};

use crate::crash::{Backtrace, CrashKind, CrashReport};
use crate::hooks::{Hook, HookCtx};
use crate::mem::Memory;

use super::{Limits, RunOutcome, INPUT_FD};

/// Runs `program` on `input` as [`super::Vm::run_hooked`] does; returns
/// the outcome and the instructions executed.
pub(super) fn run_hooked<H: Hook>(
    program: &Program,
    input: &[u8],
    limits: Limits,
    hook: &mut H,
) -> (RunOutcome, u64) {
    let mut exec = Exec {
        program,
        input,
        mem: Memory::new(),
        file_pos: 0,
        fd_opened: false,
        frames: Vec::new(),
        insts: 0,
        limits,
    };
    let outcome = exec.run(hook);
    if let RunOutcome::Crash(report) = &outcome {
        hook.on_crash(report);
    }
    (outcome, exec.insts)
}

struct Frame {
    func: FuncId,
    block: BlockId,
    idx: usize,
    regs: Vec<u64>,
    ret_dst: Option<Reg>,
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
                Err((kind, inst_idx)) => return RunOutcome::Crash(self.report(kind, inst_idx)),
            }
        }
    }

    fn report(&self, kind: CrashKind, inst_idx: usize) -> CrashReport {
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
            inst_idx,
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

    fn step<H: Hook>(&mut self, hook: &mut H) -> Result<Step, (CrashKind, usize)> {
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

        self.insts += 1;
        if self.insts > self.limits.max_insts {
            let refused = if idx < block.insts.len() {
                idx
            } else {
                usize::MAX
            };
            return Err((CrashKind::InfiniteLoop, refused));
        }
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
            self.exec_inst(inst, hook).map_err(|kind| (kind, idx))?;
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
                    _ => Err((CrashKind::BadIndirect { value }, usize::MAX)),
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
    ) -> Result<Step, (CrashKind, usize)> {
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
