//! Differential oracle: the block-at-a-time interpreter ([`super::Vm`])
//! against the per-step reference ([`super::reference`]).
//!
//! Both run generated programs that reach every instruction and
//! terminator and every crash kind, with the watchdog set to trip at
//! every step of the run, and the corpus pairs under default limits. They
//! must agree on the outcome (the whole crash report), the instruction
//! count and every hook callback with all its arguments.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

use octo_ir::{
    encode_block_addr, encode_func_addr, BasicBlock, BinOp, BlockId, CheckedOp, FuncId, Function,
    Inst, Operand, Program, Reg, RegionKind, Terminator, UnOp, Width,
};

use super::{reference, Limits, RunOutcome, Vm, INPUT_FD};
use crate::crash::{CrashKind, CrashReport};
use crate::hooks::{Hook, HookCtx};
use crate::mem::{ALLOC_CAP, GUARD_GAP, NULL_PAGE_END};

/// Every [`HookCtx`] field, the registers copied.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Ctx {
    func: FuncId,
    block: BlockId,
    inst_idx: usize,
    regs: Vec<u64>,
    depth: usize,
    file_pos: u64,
    file_size: u64,
}

impl Ctx {
    fn of(ctx: &HookCtx<'_>) -> Ctx {
        Ctx {
            func: ctx.func,
            block: ctx.block,
            inst_idx: ctx.inst_idx,
            regs: ctx.regs.to_vec(),
            depth: ctx.depth,
            file_pos: ctx.file_pos,
            file_size: ctx.file_size,
        }
    }
}

/// One hook callback with all its arguments. The instruction and the
/// terminator are identified by address, so both interpreters must hand
/// the hook the program's own one.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Event {
    Inst(Ctx, usize),
    Term(Ctx, usize),
    MemRead(u64, Width, u64),
    MemWrite(u64, Width, u64),
    FileRead(u64, u64, u64),
    FileGetc(u64, u8),
    Mmap(u64, u64),
    Call(FuncId, Vec<u64>, usize),
    Ret(FuncId, Option<u64>, usize),
    Edge(FuncId, BlockId, BlockId),
    Crash(String),
}

/// Logs every callback (`keep`), or only folds it into a digest, for
/// runs too long to keep.
#[derive(Default)]
struct Recorder {
    keep: bool,
    events: Vec<Event>,
    count: u64,
    digest: DefaultHasher,
}

impl Recorder {
    fn logging() -> Recorder {
        Recorder {
            keep: true,
            ..Recorder::default()
        }
    }

    fn push(&mut self, e: Event) {
        self.count += 1;
        e.hash(&mut self.digest);
        if self.keep {
            self.events.push(e);
        }
    }

    fn summary(&self) -> (u64, u64) {
        (self.count, self.digest.finish())
    }
}

impl Hook for Recorder {
    fn on_inst(&mut self, ctx: &HookCtx<'_>, inst: &Inst) {
        self.push(Event::Inst(Ctx::of(ctx), inst as *const Inst as usize));
    }
    fn on_term(&mut self, ctx: &HookCtx<'_>, term: &Terminator) {
        self.push(Event::Term(
            Ctx::of(ctx),
            term as *const Terminator as usize,
        ));
    }
    fn on_mem_read(&mut self, addr: u64, width: Width, value: u64) {
        self.push(Event::MemRead(addr, width, value));
    }
    fn on_mem_write(&mut self, addr: u64, width: Width, value: u64) {
        self.push(Event::MemWrite(addr, width, value));
    }
    fn on_file_read(&mut self, buf_addr: u64, file_off: u64, len: u64) {
        self.push(Event::FileRead(buf_addr, file_off, len));
    }
    fn on_file_getc(&mut self, file_off: u64, value: u8) {
        self.push(Event::FileGetc(file_off, value));
    }
    fn on_mmap(&mut self, base: u64, len: u64) {
        self.push(Event::Mmap(base, len));
    }
    fn on_call(&mut self, callee: FuncId, args: &[u64], depth: usize) {
        self.push(Event::Call(callee, args.to_vec(), depth));
    }
    fn on_ret(&mut self, func: FuncId, value: Option<u64>, depth: usize) {
        self.push(Event::Ret(func, value, depth));
    }
    fn on_edge(&mut self, func: FuncId, from: BlockId, to: BlockId) {
        self.push(Event::Edge(func, from, to));
    }
    fn on_crash(&mut self, report: &CrashReport) {
        self.push(Event::Crash(format!("{report:?}")));
    }
}

/// What one run produced: outcome, instruction count, and the callbacks.
type Run = (RunOutcome, u64, Recorder);

fn run_blocks(p: &Program, input: &[u8], limits: Limits, mut rec: Recorder) -> Run {
    let mut vm = Vm::new(p, input).with_limits(limits);
    let out = vm.run_hooked(&mut rec);
    (out, vm.insts_executed(), rec)
}

fn run_steps(p: &Program, input: &[u8], limits: Limits, mut rec: Recorder) -> Run {
    let (out, insts) = reference::run_hooked(p, input, limits, &mut rec);
    (out, insts, rec)
}

/// A SplitMix64 stream: deterministic programs without a dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())]
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }
}

const FUNCS: usize = 4;
/// Registers per function. Parameters take the lowest; random
/// instructions write only `r0..=SCRATCH_MAX`.
const REGS: u16 = 8;
const SCRATCH_MAX: u16 = 4;
/// Holds a code address right before an `icall` or `ijmp` through it.
const ADDR_REG: Reg = Reg(5);
/// Holds the function's buffer, when its entry block allocated one.
const BUF_REG: Reg = Reg(6);
/// Holds the input's descriptor, when the entry block opened it.
const FD_REG: Reg = Reg(7);
/// Size of the buffer an entry block allocates: small, so that every
/// watchdog prefix of a run stays cheap to rerun.
const BUF_SIZE: u64 = 16;
/// Values at width and sign boundaries.
const VALUES: [u64; 14] = [
    0,
    1,
    2,
    3,
    7,
    0x20,
    0xFF,
    0x100,
    0xFFFF,
    0x7FFF_FFFF,
    0xFFFF_FFFF,
    1 << 63,
    u64::MAX - 1,
    u64::MAX,
];
const BIN_OPS: [BinOp; 21] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::DivU,
    BinOp::RemU,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
    BinOp::Shl,
    BinOp::ShrL,
    BinOp::ShrA,
    BinOp::CmpEq,
    BinOp::CmpNe,
    BinOp::CmpLtU,
    BinOp::CmpLeU,
    BinOp::CmpGtU,
    BinOp::CmpGeU,
    BinOp::CmpLtS,
    BinOp::CmpLeS,
    BinOp::CmpGtS,
    BinOp::CmpGeS,
];
const WIDTHS: [Width; 4] = [Width::W1, Width::W2, Width::W4, Width::W8];

/// Generates one program of [`FUNCS`] functions; `f0` is `main`.
struct Gen {
    rng: Rng,
    params: [u16; FUNCS],
    blocks: [usize; FUNCS],
}

impl Gen {
    fn program(seed: u64) -> Program {
        let mut rng = Rng(seed);
        let mut params = [0; FUNCS];
        let mut blocks = [0; FUNCS];
        for f in 0..FUNCS {
            params[f] = if f == 0 { 0 } else { rng.below(4) as u16 };
            blocks[f] = 1 + rng.below(4);
        }
        let mut g = Gen {
            rng,
            params,
            blocks,
        };
        let funcs = (0..FUNCS).map(|f| g.function(f)).collect();
        Program::from_functions(funcs, "f0").expect("generated program")
    }

    fn function(&mut self, f: usize) -> Function {
        let blocks = (0..self.blocks[f]).map(|b| self.block(f, b)).collect();
        Function {
            name: format!("f{f}"),
            n_params: self.params[f],
            n_regs: REGS,
            blocks,
        }
    }

    fn block(&mut self, f: usize, b: usize) -> BasicBlock {
        let mut insts = Vec::new();
        if b == 0 {
            if self.rng.chance(90) {
                insts.push(Inst::Alloc {
                    dst: BUF_REG,
                    size: Operand::Imm(BUF_SIZE),
                    region: self.region(),
                });
            }
            if self.rng.chance(85) {
                insts.push(Inst::FileOpen { dst: FD_REG });
            }
        }
        for _ in 0..self.rng.below(6) {
            self.inst(f, &mut insts);
        }
        let term = self.term(f, &mut insts);
        BasicBlock {
            label: format!("b{b}"),
            insts,
            term,
        }
    }

    fn region(&mut self) -> RegionKind {
        if self.rng.chance(50) {
            RegionKind::Heap
        } else {
            RegionKind::Stack
        }
    }

    fn scratch(&mut self) -> Reg {
        Reg(self.rng.below(usize::from(SCRATCH_MAX) + 1) as u16)
    }

    fn operand(&mut self) -> Operand {
        if self.rng.chance(50) {
            Operand::Reg(Reg(self.rng.below(usize::from(REGS)) as u16))
        } else {
            Operand::Imm(self.rng.pick(&VALUES))
        }
    }

    /// The input's descriptor, or a bad one.
    fn fd(&mut self) -> Operand {
        match self.rng.below(10) {
            0..=6 => Operand::Reg(FD_REG),
            7 => Operand::Imm(INPUT_FD),
            8 => Operand::Imm(INPUT_FD + 1),
            _ => self.operand(),
        }
    }

    /// An address and offset: inside the buffer, straddling its end, in
    /// the guard gap after it, in the null page, or anywhere.
    fn address(&mut self, width: Width) -> (Operand, u64) {
        let w = width.bytes();
        let offset = match self.rng.below(9) {
            0..=4 => self.rng.below((BUF_SIZE - w + 1) as usize) as u64,
            5 => BUF_SIZE - w + 1 + self.rng.below(w as usize) as u64,
            6 => BUF_SIZE + self.rng.below(GUARD_GAP as usize) as u64,
            7 => {
                let addr = self.rng.below(NULL_PAGE_END as usize) as u64;
                return (Operand::Imm(addr), 0);
            }
            _ => return (self.operand(), self.rng.pick(&[0, 1, 8])),
        };
        (Operand::Reg(BUF_REG), offset)
    }

    fn args(&mut self) -> Vec<Operand> {
        (0..self.rng.below(5)).map(|_| self.operand()).collect()
    }

    fn dst(&mut self) -> Option<Reg> {
        if self.rng.chance(70) {
            Some(self.scratch())
        } else {
            None
        }
    }

    fn inst(&mut self, f: usize, out: &mut Vec<Inst>) {
        let inst = match self.rng.below(26) {
            0 => Inst::Const {
                dst: self.scratch(),
                value: self.rng.pick(&VALUES),
            },
            1 => Inst::Move {
                dst: self.scratch(),
                src: self.operand(),
            },
            2..=4 => Inst::Bin {
                dst: self.scratch(),
                op: self.rng.pick(&BIN_OPS),
                lhs: self.operand(),
                rhs: self.operand(),
            },
            5 => Inst::Un {
                dst: self.scratch(),
                op: self.rng.pick(&[UnOp::Not, UnOp::Neg]),
                src: self.operand(),
            },
            6 => Inst::CheckedBin {
                dst: self.scratch(),
                op: self
                    .rng
                    .pick(&[CheckedOp::Add, CheckedOp::Sub, CheckedOp::Mul]),
                width: self.rng.pick(&WIDTHS),
                lhs: self.operand(),
                rhs: self.operand(),
            },
            7..=9 => {
                let width = self.rng.pick(&WIDTHS);
                let (addr, offset) = self.address(width);
                Inst::Load {
                    dst: self.scratch(),
                    addr,
                    offset,
                    width,
                }
            }
            10..=12 => {
                let width = self.rng.pick(&WIDTHS);
                let (addr, offset) = self.address(width);
                Inst::Store {
                    addr,
                    offset,
                    src: self.operand(),
                    width,
                }
            }
            13 => Inst::Alloc {
                dst: self.scratch(),
                // Past the cap an allocation yields 0 without allocating.
                size: Operand::Imm(self.rng.pick(&[0, 5, ALLOC_CAP + 1, u64::MAX])),
                region: self.region(),
            },
            14 | 15 => Inst::Call {
                dst: self.dst(),
                callee: FuncId(self.rng.below(FUNCS) as u32),
                args: self.args(),
            },
            16 => {
                let target = match self.rng.below(5) {
                    0..=2 => {
                        let func = FuncId(self.rng.below(FUNCS) as u32);
                        out.push(Inst::FuncAddr {
                            dst: ADDR_REG,
                            func,
                        });
                        Operand::Reg(ADDR_REG)
                    }
                    3 => Operand::Imm(encode_func_addr(FuncId(FUNCS as u32))),
                    _ => self.operand(),
                };
                Inst::CallIndirect {
                    dst: self.dst(),
                    target,
                    args: self.args(),
                }
            }
            17 => Inst::FuncAddr {
                dst: self.scratch(),
                func: FuncId(self.rng.below(FUNCS) as u32),
            },
            18 => Inst::BlockAddr {
                dst: self.scratch(),
                block: BlockId(self.rng.below(self.blocks[f]) as u32),
            },
            19 => Inst::FileOpen { dst: FD_REG },
            20 => Inst::FileRead {
                dst: self.scratch(),
                fd: self.fd(),
                buf: if self.rng.chance(80) {
                    Operand::Reg(BUF_REG)
                } else {
                    self.operand()
                },
                len: Operand::Imm(self.rng.pick(&[0, 1, 4, 16, 40])),
            },
            21 => Inst::FileGetc {
                dst: self.scratch(),
                fd: self.fd(),
            },
            22 => Inst::FileSeek {
                fd: self.fd(),
                pos: self.operand(),
            },
            23 => {
                let dst = self.scratch();
                if self.rng.chance(50) {
                    Inst::FileTell { dst, fd: self.fd() }
                } else {
                    Inst::FileSize { dst, fd: self.fd() }
                }
            }
            24 => Inst::MemMap {
                dst: self.scratch(),
                fd: self.fd(),
            },
            _ => {
                if self.rng.chance(20) {
                    Inst::Trap {
                        code: self.rng.pick(&VALUES),
                    }
                } else {
                    Inst::Nop
                }
            }
        };
        out.push(inst);
    }

    fn term(&mut self, f: usize, insts: &mut Vec<Inst>) -> Terminator {
        let n = self.blocks[f];
        let block = |rng: &mut Rng| BlockId(rng.below(n) as u32);
        match self.rng.below(9) {
            0 => Terminator::Jmp(block(&mut self.rng)),
            1 | 2 => Terminator::Br {
                cond: self.operand(),
                then_bb: block(&mut self.rng),
                else_bb: block(&mut self.rng),
            },
            3 => Terminator::Switch {
                scrut: self.operand(),
                cases: (0..self.rng.below(4))
                    .map(|_| (self.rng.pick(&VALUES), block(&mut self.rng)))
                    .collect(),
                default: block(&mut self.rng),
            },
            4 => {
                let target = match self.rng.below(5) {
                    0..=2 => {
                        insts.push(Inst::BlockAddr {
                            dst: ADDR_REG,
                            block: block(&mut self.rng),
                        });
                        Operand::Reg(ADDR_REG)
                    }
                    // Another function's block, and a block past the end.
                    3 => Operand::Imm(encode_block_addr(
                        FuncId(((f + 1) % FUNCS) as u32),
                        BlockId(0),
                    )),
                    _ => Operand::Imm(encode_block_addr(FuncId(f as u32), BlockId(n as u32))),
                };
                Terminator::JmpIndirect { target }
            }
            5..=7 => Terminator::Ret(if self.rng.chance(60) {
                Some(self.operand())
            } else {
                None
            }),
            _ => Terminator::Halt {
                code: self.operand(),
            },
        }
    }
}

/// Limits of the generated runs: shallow calls, so that recursion
/// overflows, and a short watchdog, so that every prefix is cheap.
const GEN_LIMITS: Limits = Limits {
    max_insts: 150,
    max_call_depth: 6,
};

/// The run of `p` on `input` at every watchdog limit from 0 to the full
/// run's count + 1: both interpreters must agree on the outcome, the
/// count and every callback. Returns the full run for coverage.
fn check_every_prefix(p: &Program, input: &[u8]) -> Run {
    let full = run_blocks(p, input, GEN_LIMITS, Recorder::logging());
    for max_insts in 0..=full.1 + 1 {
        let limits = Limits {
            max_insts,
            ..GEN_LIMITS
        };
        let blocks = run_blocks(p, input, limits, Recorder::logging());
        let steps = run_steps(p, input, limits, Recorder::logging());
        if (&blocks.0, blocks.1, &blocks.2.events) != (&steps.0, steps.1, &steps.2.events) {
            let text = octo_ir::printer::print_program(p);
            assert_eq!(blocks.0, steps.0, "outcome, max_insts {max_insts}\n{text}");
            assert_eq!(blocks.1, steps.1, "count, max_insts {max_insts}\n{text}");
            let at = (blocks.2.events.iter().zip(&steps.2.events))
                .position(|(a, b)| a != b)
                .unwrap_or(blocks.2.events.len().min(steps.2.events.len()));
            panic!(
                "callback {at} differs at max_insts {max_insts}: {:?} vs {:?}\n{text}",
                blocks.2.events.get(at),
                steps.2.events.get(at),
            );
        }
    }
    full
}

/// Names what a full run reached, for the generator's coverage check.
fn reached(p: &Program, (out, _, rec): &Run, seen: &mut BTreeSet<String>) {
    let inst_at = |ctx: &Ctx| &p.func(ctx.func).block(ctx.block).insts[ctx.inst_idx];
    let eval = |ctx: &Ctx, op: &Operand| match op {
        Operand::Reg(r) => ctx.regs[r.0 as usize],
        Operand::Imm(v) => *v,
    };
    // The instruction that ran last, with its pre-state.
    let mut last: Option<(&Inst, &Ctx)> = None;
    // Destination registers of the calls in flight.
    let mut dsts: Vec<Option<Reg>> = Vec::new();
    for (i, e) in rec.events.iter().enumerate() {
        let name = match e {
            Event::Inst(ctx, _) => {
                let inst = inst_at(ctx);
                last = Some((inst, ctx));
                // A faulting instruction's next callback is the crash.
                let ran = !matches!(rec.events.get(i + 1), Some(Event::Crash(_)));
                let end = ctx.file_size;
                match inst {
                    Inst::FileRead { len, .. }
                        if ran && ctx.file_pos.saturating_add(eval(ctx, len)) > end =>
                    {
                        "read past EOF".to_string()
                    }
                    Inst::FileGetc { .. } if ran && ctx.file_pos >= end => "getc at EOF".into(),
                    _ => format!("inst {}", variant_name(inst)),
                }
            }
            Event::Term(ctx, _) => {
                last = None;
                format!(
                    "term {}",
                    variant_name(&p.func(ctx.func).block(ctx.block).term)
                )
            }
            Event::MemRead(_, w, _) => format!("load {w:?} in bounds"),
            Event::MemWrite(_, w, _) => format!("store {w:?} in bounds"),
            Event::FileRead(..) | Event::FileGetc(..) | Event::Mmap(..) | Event::Edge(..) => {
                continue
            }
            Event::Call(f, args, _) => {
                let dst = match last {
                    Some((Inst::Call { dst, .. } | Inst::CallIndirect { dst, .. }, _)) => *dst,
                    _ => None,
                };
                dsts.push(dst);
                let params = usize::from(p.func(*f).n_params);
                let arity = args.len().cmp(&params);
                format!("call with {arity:?} args than params")
            }
            Event::Ret(_, v, _) => {
                let into = match dsts.pop().flatten() {
                    Some(_) => "into a register",
                    None => "unused",
                };
                let v = if v.is_some() { "value" } else { "no value" };
                format!("ret {v} {into}")
            }
            Event::Crash(_) => continue,
        };
        seen.insert(name);
    }
    let RunOutcome::Crash(r) = out else {
        seen.insert("exit".to_string());
        return;
    };
    let at = if r.inst_idx == usize::MAX {
        "term"
    } else {
        "inst"
    };
    seen.insert(format!("crash {} at {at}", variant_name(&r.kind)));
    // Where a faulting load or store landed.
    let access = match last {
        Some((Inst::Load { addr, offset, .. } | Inst::Store { addr, offset, .. }, ctx)) => {
            eval(ctx, addr).wrapping_add(*offset)
        }
        _ => return,
    };
    seen.insert(match r.kind {
        CrashKind::NullDeref { .. } => "access in the null page".to_string(),
        CrashKind::OutOfBounds { addr, .. } if addr != access => "access straddling an end".into(),
        CrashKind::OutOfBounds { .. } => "access out of bounds".into(),
        _ => return,
    });
}

/// The generated programs, run on an empty input and on a short one.
#[test]
fn block_interpreter_matches_the_per_step_reference_at_every_watchdog_limit() {
    let mut seen = BTreeSet::new();
    for seed in 0..300u64 {
        let p = Gen::program(seed);
        let mut rng = Rng(!seed);
        let input: Vec<u8> = (0..rng.below(12))
            .map(|_| rng.pick(&[0, 0x20, 0xFF, 3, 0x41]))
            .collect();
        for input in [&[][..], &input[..]] {
            let full = check_every_prefix(&p, input);
            reached(&p, &full, &mut seen);
        }
    }
    let inst_variants = seen.iter().filter(|s| s.starts_with("inst ")).count();
    assert_eq!(inst_variants, 21, "instruction variants run: {seen:?}");
    let term_variants = seen.iter().filter(|s| s.starts_with("term ")).count();
    assert_eq!(term_variants, 6, "terminator variants run: {seen:?}");
    let mut want: Vec<String> = [
        "exit",
        "crash OutOfBounds at inst",
        "crash NullDeref at inst",
        "crash DivByZero at inst",
        "crash IntegerOverflow at inst",
        "crash Trap at inst",
        "crash InfiniteLoop at inst",
        "crash InfiniteLoop at term",
        "crash StackOverflow at inst",
        "crash BadIndirect at inst",
        "crash BadIndirect at term",
        "crash BadFileDescriptor at inst",
        "access in the null page",
        "access straddling an end",
        "access out of bounds",
        "read past EOF",
        "getc at EOF",
        "call with Less args than params",
        "call with Equal args than params",
        "call with Greater args than params",
        "ret value into a register",
        "ret no value into a register",
        "ret value unused",
        "ret no value unused",
    ]
    .map(String::from)
    .to_vec();
    for w in WIDTHS {
        want.push(format!("load {w:?} in bounds"));
        want.push(format!("store {w:?} in bounds"));
    }
    for w in want {
        assert!(seen.contains(&w), "never reached: {w}; reached {seen:?}");
    }
}

/// The variant's name, from its `Debug` form.
fn variant_name(x: &impl std::fmt::Debug) -> String {
    let s = format!("{x:?}");
    s.split([' ', '(', '{'])
        .next()
        .unwrap_or_default()
        .to_string()
}

/// Every corpus pair's `S` and `T` on its poc, under default limits.
#[test]
fn block_interpreter_matches_the_per_step_reference_on_the_corpus() {
    for pair in octo_corpus::all_pairs() {
        for (name, p) in [("S", &pair.s), ("T", &pair.t)] {
            let poc = pair.poc.bytes();
            let limits = Limits::default();
            let blocks = run_blocks(p, poc, limits, Recorder::default());
            let steps = run_steps(p, poc, limits, Recorder::default());
            assert_eq!(blocks.0, steps.0, "Idx-{} {name}: outcome", pair.idx);
            assert_eq!(blocks.1, steps.1, "Idx-{} {name}: count", pair.idx);
            assert_eq!(
                blocks.2.summary(),
                steps.2.summary(),
                "Idx-{} {name}: callbacks",
                pair.idx
            );
        }
    }
}
