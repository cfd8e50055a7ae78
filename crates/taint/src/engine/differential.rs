//! Differential oracle: the label engine ([`super::TaintEngine`])
//! against the parent `TaintSet` engine ([`super::reference`]).
//!
//! A pair hook hands every callback to both engines and, after each,
//! requires the same offsets in every register of the running frame and
//! the suspended callers, in the argument and return taint in flight and
//! at every tainted byte. The label engine collects its table at every
//! block boundary, so each collection's renaming is checked at once.
//! Generated programs cover every load and store width, `Bin`,
//! `CheckedBin`, `Un` and `Move`, calls with missing and extra arguments,
//! returns with and without a value, `getc`, `read` and `mmap`, under
//! both granularities and both context modes; every corpus pair's `S`
//! must give the same extraction from both engines.

use std::collections::{BTreeMap, BTreeSet};

use octo_ir::{
    BasicBlock, BinOp, BlockId, CheckedOp, FuncId, Function, Inst, Operand, Program, Reg,
    RegionKind, Terminator, UnOp, Width,
};
use octo_poc::PocFile;
use octo_vm::mem::{GUARD_GAP, HEAP_BASE};
use octo_vm::vm::INPUT_FD;
use octo_vm::{CrashReport, Hook, HookCtx, Limits, Vm};

use super::reference::TaintEngine as Reference;
use super::{ContextMode, Granularity, Recorded, TaintEngine};
use crate::label::Label;

/// The offsets of every label in the propagation state.
#[derive(Debug, PartialEq, Eq)]
struct State {
    regs: Vec<Vec<u32>>,
    callers: Vec<Vec<Vec<u32>>>,
    pending_args: Vec<Vec<u32>>,
    pending_ret: Vec<u32>,
    mem: BTreeMap<u64, Vec<u32>>,
}

impl State {
    fn of(e: &TaintEngine) -> State {
        let offs = |l: &Label| e.table.offsets(*l).collect::<Vec<u32>>();
        State {
            regs: e.regs.iter().map(offs).collect(),
            callers: e
                .callers
                .iter()
                .map(|f| f.iter().map(offs).collect())
                .collect(),
            pending_args: e.pending_args.iter().map(offs).collect(),
            pending_ret: offs(&e.pending_ret),
            mem: e.mem.iter().map(|(&a, l)| (a, offs(l))).collect(),
        }
    }

    fn of_reference(e: &Reference) -> State {
        let offs = |t: &crate::set::TaintSet| t.iter().collect::<Vec<u32>>();
        State {
            regs: e.regs.iter().map(offs).collect(),
            callers: e
                .callers
                .iter()
                .map(|f| f.iter().map(offs).collect())
                .collect(),
            pending_args: e.pending_args.iter().map(offs).collect(),
            pending_ret: offs(&e.pending_ret),
            mem: e.mem.iter().map(|(&a, t)| (a, offs(t))).collect(),
        }
    }
}

/// Both engines behind one hook, on a run of `program`. With `check`,
/// their states must agree after every callback; `seen` names what the
/// run exercised.
struct PairHook<'p> {
    program: &'p Program,
    new: TaintEngine,
    reference: Reference,
    check: bool,
    callbacks: u64,
    seen: BTreeSet<&'static str>,
}

impl PairHook<'_> {
    fn after(&mut self, what: &str) {
        self.callbacks += 1;
        if !self.check {
            return;
        }
        let (new, reference) = (State::of(&self.new), State::of_reference(&self.reference));
        assert_eq!(
            new, reference,
            "state after callback {} ({what})",
            self.callbacks
        );
    }

    /// Names which labels a collection at this block boundary must
    /// rename, for the coverage check.
    fn note_roots(&mut self) {
        let e = &self.new;
        if e.pending_ret.in_table() {
            self.seen
                .insert("return label in the table at a collection");
        }
        if e.callers.iter().flatten().any(|l| l.in_table()) {
            self.seen
                .insert("caller label in the table at a collection");
        }
        if e.mem.values().any(|l| l.in_table()) {
            self.seen
                .insert("memory label in the table at a collection");
        }
    }
}

impl Hook for PairHook<'_> {
    fn on_inst(&mut self, ctx: &HookCtx<'_>, inst: &Inst) {
        if let Some(name) = inst_name(self.program, inst) {
            self.seen.insert(name);
        }
        self.new.on_inst(ctx, inst);
        self.reference.on_inst(ctx, inst);
        self.after("inst");
    }
    fn on_term(&mut self, ctx: &HookCtx<'_>, term: &Terminator) {
        let before = self.new.table.held();
        let returned = match term {
            Terminator::Ret(Some(v)) => Some(self.new.reg(*v)),
            _ => None,
        };
        self.new.on_term(ctx, term);
        self.note_roots();
        let after = self.new.table.held();
        if after.0 > 0 && after.0 < before.0 {
            self.seen.insert("collection dropped sets and kept others");
        }
        if let Terminator::Ret(v) = term {
            self.seen.insert(match v {
                Some(_) if !self.new.pending_ret.is_empty() => "return of a tainted value",
                Some(_) => "return of a value",
                None => "return without a value",
            });
            if returned.is_some_and(|l| l != self.new.pending_ret) {
                self.seen.insert("return label renamed by a collection");
            }
        }
        self.reference.on_term(ctx, term);
        self.after("term");
    }
    fn on_mmap(&mut self, base: u64, len: u64) {
        self.new.on_mmap(base, len);
        self.reference.on_mmap(base, len);
        self.after("mmap");
    }
    fn on_call(&mut self, callee: FuncId, args: &[u64], depth: usize) {
        self.new.on_call(callee, args, depth);
        self.reference.on_call(callee, args, depth);
        self.after("call");
    }
    fn on_ret(&mut self, func: FuncId, value: Option<u64>, depth: usize) {
        self.new.on_ret(func, value, depth);
        self.reference.on_ret(func, value, depth);
        self.after("ret");
    }
    fn on_crash(&mut self, report: &CrashReport) {
        self.new.on_crash(report);
        self.reference.on_crash(report);
        self.after("crash");
    }
}

/// The engines of one configuration on a run of `program`, tracking
/// `funcs`; `forced` makes the label engine collect at every block
/// boundary.
fn engines<'p>(
    program: &'p Program,
    funcs: &[FuncId],
    (granularity, context): (Granularity, ContextMode),
    poc: &PocFile,
    forced: bool,
    check: bool,
) -> PairHook<'p> {
    let mut new = TaintEngine::tracking(funcs, granularity, context, poc.clone(), false);
    if forced {
        new.table.force_collection();
    }
    PairHook {
        program,
        new,
        reference: Reference::tracking(funcs, granularity, context, poc.clone(), false),
        check,
        callbacks: 0,
        seen: BTreeSet::new(),
    }
}

const CONFIGS: [(Granularity, ContextMode); 4] = [
    (Granularity::Byte, ContextMode::ContextAware),
    (Granularity::Byte, ContextMode::ContextFree),
    (Granularity::Word, ContextMode::ContextAware),
    (Granularity::Word, ContextMode::ContextFree),
];

/// Requires the same extraction of `ep` from both engines: bunches,
/// `ep` arguments, entries and `TaintStats`, and the same crash.
fn assert_same_extraction(hook: PairHook, ep: FuncId, what: &str) {
    assert_eq!(hook.new.crash, hook.reference.crash, "{what}: crash");
    let new: Recorded = hook.new.finish(ep);
    let reference: Recorded = hook.reference.finish(ep);
    assert_eq!(new.primitives, reference.primitives, "{what}: primitives");
    assert_eq!(new.entries, reference.entries, "{what}: entries");
    assert_eq!(new.stats, reference.stats, "{what}: stats");
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

/// `f0` is `main`; a function calls only later ones, so calls nest but
/// never recurse.
const FUNCS: usize = 3;
const REGS: u16 = 8;
/// Random instructions write only `r0..=SCRATCH_MAX`.
const SCRATCH_MAX: u16 = 5;
/// The buffer `main`'s entry block allocates first, at the heap base.
const BUF: u64 = HEAP_BASE;
const BUF_SIZE: u64 = 32;
/// Where `main`'s entry block maps the input, right after the buffer.
const MAP: u64 = (BUF + BUF_SIZE + GUARD_GAP + 15) & !15;
/// Inputs are at least this long, so that loads from the map stay in it.
const MIN_INPUT: usize = 8;
const WIDTHS: [Width; 4] = [Width::W1, Width::W2, Width::W4, Width::W8];
const BIN_OPS: [BinOp; 8] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
    BinOp::ShrL,
    BinOp::CmpEq,
];
const LIMITS: Limits = Limits {
    max_insts: 400,
    max_call_depth: 8,
};

/// Generates taint-heavy programs: input flows through registers,
/// memory, arguments and return values and is combined on the way.
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
        if f == 0 && b == 0 {
            insts.push(Inst::FileOpen { dst: Reg(7) });
            insts.push(Inst::Alloc {
                dst: Reg(6),
                size: Operand::Imm(BUF_SIZE),
                region: RegionKind::Heap,
            });
            insts.push(if self.rng.chance(50) {
                Inst::MemMap {
                    dst: Reg(6),
                    fd: Operand::Imm(INPUT_FD),
                }
            } else {
                Inst::FileRead {
                    dst: Reg(6),
                    fd: Operand::Imm(INPUT_FD),
                    buf: Operand::Imm(BUF),
                    len: Operand::Imm(BUF_SIZE),
                }
            });
        }
        for _ in 0..2 + self.rng.below(8) {
            self.inst(f, &mut insts);
        }
        let term = self.term(f, &mut insts);
        BasicBlock {
            label: format!("b{b}"),
            insts,
            term,
        }
    }

    fn scratch(&mut self) -> Reg {
        Reg(self.rng.below(usize::from(SCRATCH_MAX) + 1) as u16)
    }

    fn operand(&mut self) -> Operand {
        if self.rng.chance(80) {
            Operand::Reg(Reg(self.rng.below(usize::from(REGS)) as u16))
        } else {
            Operand::Imm(self.rng.pick(&[0, 1, 7, 0xFF, 0x1234]))
        }
    }

    /// An in-bounds address for `width`: in the buffer, in the map when
    /// `main` made one (else a fault), or the buffer indexed by a
    /// register, whose taint then reaches the access through its address.
    fn address(&mut self, width: Width, out: &mut Vec<Inst>) -> (Operand, u64) {
        let w = width.bytes();
        match self.rng.below(4) {
            0 | 1 => {
                let off = self.rng.below((BUF_SIZE - w + 1) as usize) as u64;
                (Operand::Imm(BUF), off)
            }
            2 => {
                let off = self.rng.below(MIN_INPUT - w as usize + 1) as u64;
                (Operand::Imm(MAP), off)
            }
            _ => {
                let (index, base) = (self.operand(), self.scratch());
                out.push(Inst::Bin {
                    dst: base,
                    op: BinOp::And,
                    lhs: index,
                    rhs: Operand::Imm(BUF_SIZE / 2 - 1),
                });
                out.push(Inst::Bin {
                    dst: base,
                    op: BinOp::Add,
                    lhs: Operand::Reg(base),
                    rhs: Operand::Imm(BUF),
                });
                (Operand::Reg(base), 0)
            }
        }
    }

    fn inst(&mut self, f: usize, out: &mut Vec<Inst>) {
        let fd = Operand::Imm(INPUT_FD);
        let inst = match self.rng.below(20) {
            0 => Inst::Const {
                dst: self.scratch(),
                value: 9,
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
                op: self.rng.pick(&[CheckedOp::Add, CheckedOp::Sub]),
                width: Width::W8,
                lhs: self.operand(),
                rhs: self.operand(),
            },
            7..=9 => {
                let width = self.rng.pick(&WIDTHS);
                let (addr, offset) = self.address(width, out);
                Inst::Load {
                    dst: self.scratch(),
                    addr,
                    offset,
                    width,
                }
            }
            10 | 11 => {
                let width = self.rng.pick(&WIDTHS);
                let (addr, offset) = self.address(width, out);
                Inst::Store {
                    addr,
                    offset,
                    src: self.operand(),
                    width,
                }
            }
            12 | 13 => Inst::FileGetc {
                dst: self.scratch(),
                fd,
            },
            14 => {
                let len = self.rng.pick(&[1, 2, 5, 8]);
                let off = self.rng.below((BUF_SIZE - len + 1) as usize) as u64;
                Inst::FileRead {
                    dst: self.scratch(),
                    fd,
                    buf: Operand::Imm(BUF + off),
                    len: Operand::Imm(len),
                }
            }
            15 => Inst::FileSeek {
                fd,
                pos: Operand::Imm(self.rng.pick(&[0, 2, 5])),
            },
            16 => Inst::MemMap {
                dst: self.scratch(),
                fd,
            },
            17 | 18 if f + 1 < FUNCS => Inst::Call {
                dst: self.rng.chance(70).then(|| self.scratch()),
                callee: FuncId((f + 1 + self.rng.below(FUNCS - f - 1)) as u32),
                args: (0..self.rng.below(5)).map(|_| self.operand()).collect(),
            },
            _ => Inst::FileTell {
                dst: self.scratch(),
                fd,
            },
        };
        out.push(inst);
    }

    fn term(&mut self, f: usize, insts: &mut Vec<Inst>) -> Terminator {
        let n = self.blocks[f];
        let (then_bb, else_bb) = (self.rng.below(n), self.rng.below(n));
        let (then_bb, else_bb) = (BlockId(then_bb as u32), BlockId(else_bb as u32));
        match self.rng.below(10) {
            0..=2 => Terminator::Jmp(then_bb),
            3..=5 => Terminator::Br {
                cond: Operand::Reg(Reg(self.rng.below(usize::from(REGS)) as u16)),
                then_bb,
                else_bb,
            },
            6 => Terminator::Halt {
                code: Operand::Imm(0),
            },
            _ => Terminator::Ret(self.rng.chance(60).then(|| self.ret_value(insts))),
        }
    }

    /// A return value. Half the time it is a union made after another
    /// that dies before the return, so that the returned set moves down
    /// the table at the block's collection.
    fn ret_value(&mut self, insts: &mut Vec<Inst>) -> Operand {
        if self.rng.chance(50) {
            return self.operand();
        }
        let (dead, kept) = (Reg(SCRATCH_MAX - 1), Reg(SCRATCH_MAX));
        for dst in [dead, kept] {
            insts.push(Inst::Bin {
                dst,
                op: BinOp::Add,
                lhs: self.operand(),
                rhs: self.operand(),
            });
        }
        insts.push(Inst::Const {
            dst: dead,
            value: 0,
        });
        Operand::Reg(kept)
    }
}

/// The coverage name of an instruction the run executed.
fn inst_name(p: &Program, inst: &Inst) -> Option<&'static str> {
    Some(match inst {
        Inst::Load { width, .. } => match width {
            Width::W1 => "load.1",
            Width::W2 => "load.2",
            Width::W4 => "load.4",
            Width::W8 => "load.8",
        },
        Inst::Store { width, .. } => match width {
            Width::W1 => "store.1",
            Width::W2 => "store.2",
            Width::W4 => "store.4",
            Width::W8 => "store.8",
        },
        Inst::Bin { .. } => "bin",
        Inst::CheckedBin { .. } => "checked bin",
        Inst::Un { .. } => "un",
        Inst::Move { .. } => "move",
        Inst::FileGetc { .. } => "getc",
        Inst::FileRead { .. } => "read",
        Inst::MemMap { .. } => "mmap",
        Inst::Call { args, callee, .. } => {
            match args.len().cmp(&usize::from(p.func(*callee).n_params)) {
                std::cmp::Ordering::Less => "call with missing arguments",
                std::cmp::Ordering::Equal => "call with every argument",
                std::cmp::Ordering::Greater => "call with extra arguments",
            }
        }
        _ => return None,
    })
}

/// Generated programs under every configuration, collecting at every
/// block boundary: the states agree after every callback, and the
/// extractions of both tracked functions agree at the end.
#[test]
fn label_engine_matches_the_reference_after_every_callback() {
    let mut seen = BTreeSet::new();
    let tracked = [FuncId(1), FuncId(2)];
    for seed in 0..150u64 {
        let p = Gen::program(seed);
        let mut rng = Rng(!seed);
        let input: Vec<u8> = (0..MIN_INPUT + rng.below(16))
            .map(|_| rng.pick(&[0, 1, 0x20, 0x41, 0xFF]))
            .collect();
        let poc = PocFile::new(input.clone());
        for (c, config) in CONFIGS.into_iter().enumerate() {
            let ep = tracked[(seed as usize + c) % 2];
            let what = format!(
                "seed {seed}, {config:?}\n{}",
                octo_ir::printer::print_program(&p)
            );
            let mut hook = engines(&p, &tracked, config, &poc, true, true);
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                Vm::new(&p, &input)
                    .with_limits(LIMITS)
                    .run_hooked(&mut hook);
                hook
            }));
            let hook = run.unwrap_or_else(|e| {
                eprintln!("{what}");
                std::panic::resume_unwind(e)
            });
            seen.extend(hook.seen.iter().copied());
            assert_same_extraction(hook, ep, &what);
        }
    }
    for want in [
        "load.1",
        "load.2",
        "load.4",
        "load.8",
        "store.1",
        "store.2",
        "store.4",
        "store.8",
        "bin",
        "checked bin",
        "un",
        "move",
        "getc",
        "read",
        "mmap",
        "call with missing arguments",
        "call with every argument",
        "call with extra arguments",
        "return of a tainted value",
        "return of a value",
        "return without a value",
        "return label in the table at a collection",
        "return label renamed by a collection",
        "caller label in the table at a collection",
        "memory label in the table at a collection",
        "collection dropped sets and kept others",
    ] {
        assert!(
            seen.contains(want),
            "never reached: {want}; reached {seen:?}"
        );
    }
}

/// Every corpus pair's `S` on its poc, tracking every function of `ℓ`,
/// under every configuration, with the label table collected at every
/// block boundary and at its bound: the extraction of `ep` is the
/// reference's.
#[test]
fn label_engine_matches_the_reference_on_every_corpus_pair() {
    for pair in octo_corpus::all_pairs() {
        let s = &pair.s;
        let shared: Vec<FuncId> = pair
            .shared
            .iter()
            .filter_map(|n| s.func_by_name(n))
            .collect();
        for config in CONFIGS {
            for forced in [false, true] {
                let mut hook = engines(s, &shared, config, &pair.poc, forced, false);
                let out = Vm::new(s, pair.poc.bytes()).run_hooked(&mut hook);
                let crash = out.crash().expect("S crashes on its poc");
                let ep = crash.backtrace.first_in(&shared).expect("ep on the stack");
                let what = format!("Idx-{} {config:?} forced {forced}", pair.idx);
                assert_same_extraction(hook, ep, &what);
            }
        }
    }
}
