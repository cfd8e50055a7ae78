//! The symbolic instruction stepper.
//!
//! [`SymExecutor::step`] advances one state by one instruction. Control
//! decisions on symbolic data are *not* made here: a `br` or `switch` on a
//! symbolic value is surfaced as one [`StepEvent::Fork`] and the
//! exploration strategy (naive or directed) decides, then re-enters via
//! [`SymExecutor::take`] for each arm it follows.

use octo_ir::{
    decode_block_addr, decode_func_addr, encode_block_addr, encode_func_addr, BinOp, BlockId,
    FuncId, Inst, Operand, Program, Terminator,
};
use octo_solver::{Cond, Constraint, Expr, ExprRef, FilterMemo};
use octo_vm::CrashKind;

use crate::state::{SymFrame, SymState};
use crate::value::{assemble, disassemble, SymByte, SymVal};

/// Why a path cannot make further progress (distinct from a crash).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadReason {
    /// Per-state instruction budget exhausted (runaway concrete loop).
    StepBudget,
    /// Call depth limit exceeded.
    DepthLimit,
    /// A required concretisation failed (constraints unsatisfiable or the
    /// solver budget was exhausted).
    ConcretizeFailed,
}

/// The arms of a `br` or `switch`, numbered in terminator order: a `br`
/// has arm 0 (then) and arm 1 (else); a `switch` has one arm per case,
/// then the default.
#[derive(Debug, Clone, Copy)]
pub enum Arms<'p> {
    /// A two-way `br`.
    Two {
        /// Target when the condition is non-zero.
        then_bb: BlockId,
        /// Target when the condition is zero.
        else_bb: BlockId,
    },
    /// A multi-way `switch`.
    Switch {
        /// `(value, target)` cases, borrowed from the program.
        cases: &'p [(u64, BlockId)],
        /// Default target.
        default: BlockId,
    },
}

impl Arms<'_> {
    /// Number of arms.
    pub fn count(&self) -> usize {
        match self {
            Arms::Two { .. } => 2,
            Arms::Switch { cases, .. } => cases.len() + 1,
        }
    }

    /// The arm a concrete scrutinee value selects (a `switch` takes its
    /// first matching case, like the concrete VM).
    pub fn select(&self, value: u64) -> usize {
        match self {
            Arms::Two { .. } => usize::from(value == 0),
            Arms::Switch { cases, .. } => cases
                .iter()
                .position(|(c, _)| *c == value)
                .unwrap_or(cases.len()),
        }
    }

    /// The block arm `arm` transfers control to.
    pub fn target(&self, arm: usize) -> BlockId {
        match *self {
            Arms::Two { then_bb, else_bb } => [then_bb, else_bb][arm],
            Arms::Switch { cases, default } => cases
                .get(arm)
                .map_or(default, |&(v, _)| cases[self.select(v)].1),
        }
    }
}

/// A control transfer on a symbolic value: the scrutinee plus its arms.
#[derive(Debug, Clone)]
pub struct Fork<'p> {
    /// The branch condition or switch scrutinee.
    pub scrut: ExprRef,
    /// Where each arm goes.
    pub arms: Arms<'p>,
}

/// Result of advancing a state by one instruction.
#[derive(Debug, Clone)]
pub enum StepEvent<'p> {
    /// The state advanced; keep stepping.
    Continue,
    /// The program exited cleanly on this path.
    Exited,
    /// This path crashes (with the current path condition).
    Crashed(CrashKind),
    /// A `br` or `switch` on a symbolic value. The strategy must call
    /// [`SymExecutor::take`] for each arm it follows (possibly on forks).
    Fork(Fork<'p>),
    /// Execution entered `ep` (the configured entry point of `ℓ`).
    /// `file_pos` is the file position indicator at entry — where the
    /// corresponding bunch is placed (paper P3.1).
    EnteredEp {
        /// 1-based entry count on this path.
        entry: u32,
        /// Arguments `ep` received.
        args: Vec<SymVal>,
        /// File position indicator at entry.
        file_pos: u64,
    },
    /// The path is stuck for a non-crash reason.
    Dead(DeadReason),
}

/// Stepper configuration plus shared program reference.
#[derive(Debug, Clone)]
pub struct SymExecutor<'p> {
    program: &'p Program,
    /// Length of the symbolic input file.
    pub file_len: u64,
    /// The entry point of `ℓ` whose entries are reported.
    pub ep: Option<FuncId>,
    /// Per-state instruction budget.
    pub max_steps: u64,
}

/// Call depth limit: a call that would make a state deeper is a
/// [`DeadReason::DepthLimit`] death.
const MAX_DEPTH: usize = 128;

impl<'p> SymExecutor<'p> {
    /// Creates a stepper for `program` with a symbolic file of `file_len`
    /// bytes.
    pub fn new(program: &'p Program, file_len: u64) -> SymExecutor<'p> {
        SymExecutor {
            program,
            file_len,
            ep: None,
            max_steps: 200_000,
        }
    }

    /// Sets the `ep` function whose entries produce [`StepEvent::EnteredEp`].
    pub fn with_ep(mut self, ep: FuncId) -> SymExecutor<'p> {
        self.ep = Some(ep);
        self
    }

    /// The program being executed.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    fn eval(&self, state: &SymState, op: Operand) -> SymVal {
        match op {
            Operand::Reg(r) => state.top().regs[r.0 as usize].clone(),
            Operand::Imm(v) => SymVal::C(v),
        }
    }

    /// Forces `v` concrete, pinning it with an equality constraint
    /// (angr-style concretisation).
    fn concretize(
        &self,
        state: &mut SymState,
        memo: &mut FilterMemo,
        v: &SymVal,
    ) -> Result<u64, DeadReason> {
        if let Some(c) = v.as_concrete() {
            return Ok(c);
        }
        let model = state.model(memo).ok_or(DeadReason::ConcretizeFailed)?;
        let expr = v.to_expr();
        let val = expr
            .eval(&|off| Some(model.byte(off)))
            .ok_or(DeadReason::ConcretizeFailed)?;
        state.add_constraint(Constraint::new(expr, Expr::val(val), Cond::Eq));
        Ok(val)
    }

    /// Moves the innermost frame to `block`; returns its visit count (for
    /// the strategy's θ loop policy).
    pub fn goto(&self, state: &mut SymState, block: BlockId) -> u32 {
        let n = state.visit(block);
        let frame = state.top_mut();
        frame.block = block;
        frame.idx = 0;
        n
    }

    /// Commits arm `arm` of a fork: records the path constraint that
    /// selects it and transfers control. Returns the visit count of the
    /// target block. The default arm of a `switch` constrains the
    /// scrutinee to differ from every case.
    pub fn take(&self, state: &mut SymState, fork: &Fork<'_>, arm: usize) -> u32 {
        let scrut_is = |v: u64, cond| Constraint::new(fork.scrut.clone(), Expr::val(v), cond);
        match fork.arms {
            Arms::Two { .. } => state.add_constraint(Constraint::from_bool(&fork.scrut, arm == 0)),
            Arms::Switch { cases, .. } => match cases.get(arm) {
                Some(&(v, _)) => state.add_constraint(scrut_is(v, Cond::Eq)),
                None => {
                    for &(v, _) in cases {
                        state.add_constraint(scrut_is(v, Cond::Ne));
                    }
                }
            },
        }
        self.goto(state, fork.arms.target(arm))
    }

    /// Advances `state` by one instruction or terminator. Concretisation
    /// solves use (and count on) the run's filter `memo`.
    pub fn step(&self, state: &mut SymState, memo: &mut FilterMemo) -> StepEvent<'p> {
        state.steps += 1;
        if state.steps > self.max_steps {
            return StepEvent::Dead(DeadReason::StepBudget);
        }
        let (func_id, block_id, idx) = {
            let f = state.top();
            (f.func, f.block, f.idx)
        };
        // Borrow the code through the program reference (lifetime 'p), so
        // instructions and switch cases outlive the `&mut state` uses
        // below — no per-step clone needed.
        let program = self.program;
        let func = program.func(func_id);
        let block = func.block(block_id);

        if idx < block.insts.len() {
            state.top_mut().idx += 1;
            return self.exec_inst(state, memo, &block.insts[idx]);
        }

        match &block.term {
            Terminator::Jmp(b) => {
                self.goto(state, *b);
                StepEvent::Continue
            }
            Terminator::Br {
                cond,
                then_bb,
                else_bb,
            } => {
                let arms = Arms::Two {
                    then_bb: *then_bb,
                    else_bb: *else_bb,
                };
                self.branch(state, *cond, arms)
            }
            Terminator::Switch {
                scrut,
                cases,
                default,
            } => {
                let arms = Arms::Switch {
                    cases,
                    default: *default,
                };
                self.branch(state, *scrut, arms)
            }
            Terminator::JmpIndirect { target } => {
                let t = self.eval(state, *target);
                let value = match self.concretize(state, memo, &t) {
                    Ok(v) => v,
                    Err(r) => return StepEvent::Dead(r),
                };
                match decode_block_addr(value) {
                    Some((f, b)) if f == func_id && (b.0 as usize) < func.blocks.len() => {
                        self.goto(state, b);
                        StepEvent::Continue
                    }
                    _ => StepEvent::Crashed(CrashKind::BadIndirect { value }),
                }
            }
            Terminator::Ret(value) => {
                let v = value.map(|op| self.eval(state, op));
                let frame = state.frames.pop().expect("live state");
                match state.frames.last_mut() {
                    None => StepEvent::Exited,
                    Some(caller) => {
                        if let Some(dst) = frame.ret_dst {
                            caller.regs[dst.0 as usize] = v.unwrap_or(SymVal::C(0));
                        }
                        StepEvent::Continue
                    }
                }
            }
            Terminator::Halt { .. } => StepEvent::Exited,
        }
    }

    /// A `br` or `switch`: transfers control when the scrutinee is
    /// concrete, surfaces a [`StepEvent::Fork`] when it is symbolic.
    fn branch(&self, state: &mut SymState, scrut: Operand, arms: Arms<'p>) -> StepEvent<'p> {
        let v = self.eval(state, scrut);
        match v.as_concrete() {
            Some(c) => {
                self.goto(state, arms.target(arms.select(c)));
                StepEvent::Continue
            }
            None => StepEvent::Fork(Fork {
                scrut: v.to_expr(),
                arms,
            }),
        }
    }

    fn do_call(
        &self,
        state: &mut SymState,
        callee: FuncId,
        args: &[Operand],
        dst: Option<octo_ir::Reg>,
    ) -> StepEvent<'p> {
        if state.depth() >= MAX_DEPTH {
            return StepEvent::Dead(DeadReason::DepthLimit);
        }
        let f = self.program.func(callee);
        let mut regs = vec![SymVal::C(0); f.n_regs as usize];
        let mut arg_vals = Vec::with_capacity(args.len());
        for (i, a) in args.iter().enumerate() {
            let v = self.eval(state, *a);
            if i < f.n_params as usize {
                regs[i] = v.clone();
            }
            arg_vals.push(v);
        }
        state.frames.push(SymFrame {
            func: callee,
            block: f.entry(),
            idx: 0,
            regs,
            ret_dst: dst,
            visits: std::collections::HashMap::new(),
        });
        if self.ep == Some(callee) {
            state.ep_entries += 1;
            return StepEvent::EnteredEp {
                entry: state.ep_entries,
                args: arg_vals,
                file_pos: state.file_pos,
            };
        }
        StepEvent::Continue
    }

    fn exec_inst(&self, state: &mut SymState, memo: &mut FilterMemo, inst: &Inst) -> StepEvent<'p> {
        macro_rules! set {
            ($dst:expr, $val:expr) => {{
                let v = $val;
                state.top_mut().regs[$dst.0 as usize] = v;
            }};
        }
        match inst {
            Inst::Const { dst, value } => set!(dst, SymVal::C(*value)),
            Inst::Move { dst, src } => set!(dst, self.eval(state, *src)),
            Inst::Bin { dst, op, lhs, rhs } => {
                let a = self.eval(state, *lhs);
                let mut b = self.eval(state, *rhs);
                if matches!(op, BinOp::DivU | BinOp::RemU) && b.as_concrete().is_none() {
                    // Concretise the divisor (division is not decomposable
                    // for the byte solver).
                    match self.concretize(state, memo, &b) {
                        Ok(v) => b = SymVal::C(v),
                        Err(r) => return StepEvent::Dead(r),
                    }
                }
                match SymVal::bin(*op, &a, &b) {
                    Some(v) => set!(dst, v),
                    None => return StepEvent::Crashed(CrashKind::DivByZero),
                }
            }
            Inst::Un { dst, op, src } => {
                let v = SymVal::un(*op, &self.eval(state, *src));
                set!(dst, v);
            }
            Inst::CheckedBin {
                dst,
                op,
                width,
                lhs,
                rhs,
            } => {
                let a = self.eval(state, *lhs);
                let b = self.eval(state, *rhs);
                if let (Some(x), Some(y)) = (a.as_concrete(), b.as_concrete()) {
                    match op.eval(*width, x, y) {
                        Some(v) => set!(dst, SymVal::C(v)),
                        None => {
                            return StepEvent::Crashed(CrashKind::IntegerOverflow { width: *width })
                        }
                    }
                } else {
                    // Symbolic checked arithmetic: model the value with the
                    // plain operation; the overflow trap manifests in the
                    // concrete verification run (P4).
                    let plain = match op {
                        octo_ir::CheckedOp::Add => BinOp::Add,
                        octo_ir::CheckedOp::Sub => BinOp::Sub,
                        octo_ir::CheckedOp::Mul => BinOp::Mul,
                    };
                    match SymVal::bin(plain, &a, &b) {
                        Some(v) => set!(dst, v),
                        None => return StepEvent::Crashed(CrashKind::DivByZero),
                    }
                }
            }
            Inst::Load {
                dst,
                addr,
                offset,
                width,
            } => {
                let a = self.eval(state, *addr);
                let base = match self.concretize(state, memo, &a) {
                    Ok(v) => v,
                    Err(r) => return StepEvent::Dead(r),
                };
                match state
                    .mem
                    .read_cells(base.wrapping_add(*offset), width.bytes())
                {
                    Ok(bytes) => set!(dst, assemble(&bytes)),
                    Err(f) => return StepEvent::Crashed(f.into()),
                }
            }
            Inst::Store {
                addr,
                offset,
                src,
                width,
            } => {
                let a = self.eval(state, *addr);
                let base = match self.concretize(state, memo, &a) {
                    Ok(v) => v,
                    Err(r) => return StepEvent::Dead(r),
                };
                let v = self.eval(state, *src);
                let bytes = disassemble(&v, *width);
                if let Err(f) = state.mem.write_cells(base.wrapping_add(*offset), &bytes) {
                    return StepEvent::Crashed(f.into());
                }
            }
            Inst::Alloc { dst, size, region } => {
                let s = self.eval(state, *size);
                let sz = match self.concretize(state, memo, &s) {
                    Ok(v) => v,
                    Err(r) => return StepEvent::Dead(r),
                };
                let base = state.mem.alloc(sz, *region);
                set!(dst, SymVal::C(base));
            }
            Inst::Call { dst, callee, args } => {
                return self.do_call(state, *callee, args, *dst);
            }
            Inst::CallIndirect { dst, target, args } => {
                let t = self.eval(state, *target);
                let value = match self.concretize(state, memo, &t) {
                    Ok(v) => v,
                    Err(r) => return StepEvent::Dead(r),
                };
                match decode_func_addr(value)
                    .filter(|f| (f.0 as usize) < self.program.function_count())
                {
                    Some(callee) => return self.do_call(state, callee, args, *dst),
                    None => return StepEvent::Crashed(CrashKind::BadIndirect { value }),
                }
            }
            Inst::FuncAddr { dst, func } => set!(dst, SymVal::C(encode_func_addr(*func))),
            Inst::BlockAddr { dst, block } => {
                let func = state.top().func;
                set!(dst, SymVal::C(encode_block_addr(func, *block)));
            }
            Inst::FileOpen { dst } => {
                state.fd_opened = true;
                set!(dst, SymVal::C(octo_vm::vm::INPUT_FD));
            }
            Inst::FileRead { dst, fd, buf, len } => {
                if let Some(e) = self.check_fd(state, memo, *fd) {
                    return e;
                }
                let b = self.eval(state, *buf);
                let buf_addr = match self.concretize(state, memo, &b) {
                    Ok(v) => v,
                    Err(r) => return StepEvent::Dead(r),
                };
                let l = self.eval(state, *len);
                let want = match self.concretize(state, memo, &l) {
                    Ok(v) => v,
                    Err(r) => return StepEvent::Dead(r),
                };
                let pos = state.file_pos.min(self.file_len);
                let count = want.min(self.file_len - pos);
                let bytes: Vec<SymByte> = (0..count)
                    .map(|i| SymByte::S(Expr::byte((pos + i) as u32)))
                    .collect();
                if let Err(f) = state.mem.write_cells(buf_addr, &bytes) {
                    return StepEvent::Crashed(f.into());
                }
                state.file_pos = pos + count;
                set!(dst, SymVal::C(count));
            }
            Inst::FileGetc { dst, fd } => {
                if let Some(e) = self.check_fd(state, memo, *fd) {
                    return e;
                }
                if state.file_pos < self.file_len {
                    let off = state.file_pos as u32;
                    state.file_pos += 1;
                    set!(dst, SymVal::S(Expr::byte(off)));
                } else {
                    set!(dst, SymVal::C(u64::MAX));
                }
            }
            Inst::FileSeek { fd, pos } => {
                if let Some(e) = self.check_fd(state, memo, *fd) {
                    return e;
                }
                let p = self.eval(state, *pos);
                match self.concretize(state, memo, &p) {
                    Ok(v) => state.file_pos = v,
                    Err(r) => return StepEvent::Dead(r),
                }
            }
            Inst::FileTell { dst, fd } => {
                if let Some(e) = self.check_fd(state, memo, *fd) {
                    return e;
                }
                let fp = state.file_pos;
                set!(dst, SymVal::C(fp));
            }
            Inst::FileSize { dst, fd } => {
                if let Some(e) = self.check_fd(state, memo, *fd) {
                    return e;
                }
                set!(dst, SymVal::C(self.file_len));
            }
            Inst::MemMap { dst, fd } => {
                if let Some(e) = self.check_fd(state, memo, *fd) {
                    return e;
                }
                let bytes: Vec<SymByte> = (0..self.file_len)
                    .map(|i| SymByte::S(Expr::byte(i as u32)))
                    .collect();
                let base = state.mem.alloc_with(&bytes, octo_ir::RegionKind::Heap);
                set!(dst, SymVal::C(base));
            }
            Inst::Trap { code } => return StepEvent::Crashed(CrashKind::Trap { code: *code }),
            Inst::Nop => {}
        }
        StepEvent::Continue
    }

    fn check_fd(
        &self,
        state: &mut SymState,
        memo: &mut FilterMemo,
        fd: Operand,
    ) -> Option<StepEvent<'p>> {
        let v = self.eval(state, fd);
        match self.concretize(state, memo, &v) {
            Ok(val) if state.fd_opened && val == octo_vm::vm::INPUT_FD => None,
            Ok(val) => Some(StepEvent::Crashed(CrashKind::BadFileDescriptor { fd: val })),
            Err(r) => Some(StepEvent::Dead(r)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octo_ir::parse::parse_program;
    use octo_solver::SolveResult;

    fn run_until_event(src: &str, file_len: u64) -> (SymState, StepEvent<'static>) {
        let p = parse_program(src).unwrap();
        let p = Box::leak(Box::new(p));
        let ex = SymExecutor::new(p, file_len);
        let mut st = SymState::initial(p);
        let mut memo = FilterMemo::new();
        loop {
            match ex.step(&mut st, &mut memo) {
                StepEvent::Continue => continue,
                e => return (st, e),
            }
        }
    }

    #[test]
    fn arms_number_cases_then_default_and_repeat_the_first_match() {
        let two = Arms::Two {
            then_bb: BlockId(1),
            else_bb: BlockId(2),
        };
        assert_eq!(two.count(), 2);
        assert_eq!((two.select(7), two.select(0)), (0, 1));
        assert_eq!((two.target(0), two.target(1)), (BlockId(1), BlockId(2)));
        // A repeated case value goes where its first case goes, as in
        // the concrete VM.
        let cases = [(1, BlockId(3)), (2, BlockId(4)), (1, BlockId(5))];
        let switch = Arms::Switch {
            cases: &cases,
            default: BlockId(6),
        };
        assert_eq!(switch.count(), 4);
        assert_eq!((switch.select(1), switch.select(2)), (0, 1));
        assert_eq!(switch.select(9), 3, "no case matches: the default");
        let targets: Vec<BlockId> = (0..4).map(|arm| switch.target(arm)).collect();
        assert_eq!(targets, [BlockId(3), BlockId(4), BlockId(3), BlockId(6)]);
    }

    #[test]
    fn concrete_program_exits() {
        let (_, e) = run_until_event("func main() {\nentry:\n x = 1\n halt x\n}\n", 0);
        assert!(matches!(e, StepEvent::Exited));
    }

    #[test]
    fn symbolic_branch_surfaces() {
        let src = r#"
func main() {
entry:
    fd = open
    b = getc fd
    c = eq b, 0x47
    br c, yes, no
yes:
    halt 0
no:
    halt 1
}
"#;
        let (st, e) = run_until_event(src, 4);
        match e {
            StepEvent::Fork(fork) => {
                // the scrutinee is `eq in[0], 0x47`
                assert!(fork.scrut.vars().contains(&0));
                assert_eq!(fork.arms.count(), 2);
            }
            other => panic!("expected branch, got {other:?}"),
        }
        assert_eq!(st.file_pos, 1);
    }

    #[test]
    fn take_records_the_arm_constraint() {
        let src = r#"
func main() {
entry:
    fd = open
    b = getc fd
    c = eq b, 0x47
    br c, yes, no
yes:
    halt 0
no:
    halt 1
}
"#;
        let p = parse_program(src).unwrap();
        let ex = SymExecutor::new(&p, 4);
        let mut st = SymState::initial(&p);
        let mut memo = FilterMemo::new();
        loop {
            match ex.step(&mut st, &mut memo) {
                StepEvent::Continue => {}
                StepEvent::Fork(fork) => {
                    ex.take(&mut st, &fork, 0);
                    break;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        match st.constraints.solve() {
            SolveResult::Sat(m) => assert_eq!(m.byte(0), 0x47),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn symbolic_load_from_read_buffer() {
        let src = r#"
func main() {
entry:
    fd = open
    buf = alloc 8
    n = read fd, buf, 4
    v = load.4 buf
    c = eq v, 0x11223344
    br c, yes, no
yes:
    halt 0
no:
    halt 1
}
"#;
        let p = parse_program(src).unwrap();
        let ex = SymExecutor::new(&p, 8);
        let mut st = SymState::initial(&p);
        let mut memo = FilterMemo::new();
        loop {
            match ex.step(&mut st, &mut memo) {
                StepEvent::Continue => {}
                StepEvent::Fork(fork) => {
                    ex.take(&mut st, &fork, 0);
                    break;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        let m = st.model(&mut memo).expect("sat");
        assert_eq!(m.byte(0), 0x44);
        assert_eq!(m.byte(3), 0x11);
    }

    #[test]
    fn ep_entry_event_reports_position_and_args() {
        let src = r#"
func main() {
entry:
    fd = open
    h = getc fd
    call shared(h, 9)
    halt 0
}
func shared(a, b) {
entry:
    ret
}
"#;
        let p = parse_program(src).unwrap();
        let ep = p.func_by_name("shared").unwrap();
        let ex = SymExecutor::new(&p, 4).with_ep(ep);
        let mut st = SymState::initial(&p);
        let mut memo = FilterMemo::new();
        loop {
            match ex.step(&mut st, &mut memo) {
                StepEvent::Continue => {}
                StepEvent::EnteredEp {
                    entry,
                    args,
                    file_pos,
                } => {
                    assert_eq!(entry, 1);
                    assert_eq!(file_pos, 1); // one byte consumed before the call
                    assert_eq!(args.len(), 2);
                    assert!(args[0].is_symbolic());
                    assert_eq!(args[1], SymVal::C(9));
                    break;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn crash_paths_are_reported() {
        let (_, e) = run_until_event("func main() {\nentry:\n trap 3\n}\n", 0);
        assert!(matches!(e, StepEvent::Crashed(CrashKind::Trap { code: 3 })));
        let (_, e) = run_until_event("func main() {\nentry:\n v = load.1 0\n halt v\n}\n", 0);
        assert!(matches!(e, StepEvent::Crashed(CrashKind::NullDeref { .. })));
    }

    #[test]
    fn step_budget_kills_runaway_loops() {
        let src = "func main() {\nentry:\n jmp entry\n}\n";
        let p = parse_program(src).unwrap();
        let mut ex = SymExecutor::new(&p, 0);
        ex.max_steps = 100;
        let mut st = SymState::initial(&p);
        let mut memo = FilterMemo::new();
        loop {
            match ex.step(&mut st, &mut memo) {
                StepEvent::Continue => {}
                StepEvent::Dead(DeadReason::StepBudget) => break,
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn getc_past_eof_is_concrete_eof() {
        let src = r#"
func main() {
entry:
    fd = open
    a = getc fd
    b = getc fd
    c = eq b, -1
    br c, eof, data
eof:
    halt 0
data:
    halt 1
}
"#;
        // file_len = 1: second getc is concretely EOF, branch is concrete.
        let (_, e) = run_until_event(src, 1);
        assert!(matches!(e, StepEvent::Exited));
    }

    #[test]
    fn switch_on_symbolic_scrutinee_surfaces() {
        let src = r#"
func main() {
entry:
    fd = open
    b = getc fd
    switch b { 1 -> one, 2 -> two, _ -> other }
one:
    halt 1
two:
    halt 2
other:
    halt 3
}
"#;
        let p = parse_program(src).unwrap();
        let ex = SymExecutor::new(&p, 2);
        let mut st = SymState::initial(&p);
        let mut memo = FilterMemo::new();
        loop {
            match ex.step(&mut st, &mut memo) {
                StepEvent::Continue => {}
                StepEvent::Fork(fork) => {
                    // take the default (the last arm): b != 1 && b != 2
                    assert_eq!(fork.arms.count(), 3);
                    ex.take(&mut st, &fork, 2);
                    let m = st.model(&mut memo).expect("sat");
                    assert!(m.byte(0) != 1 && m.byte(0) != 2);
                    break;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }
}
