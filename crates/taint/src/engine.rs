//! The taint engine: a [`Hook`] that tracks PoC bytes through execution.

use std::collections::HashMap;

use octo_ir::{FuncId, Inst, Operand, Reg, Terminator};
use octo_poc::{Bunch, CrashPrimitives, PocFile};
use octo_vm::{CrashReport, Hook, HookCtx};

use crate::set::TaintSet;

/// Taint granularity (paper §IV-A: "we also handle the tainting at the
/// byte character-level").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Granularity {
    /// Track each input byte independently (the paper's choice).
    #[default]
    Byte,
    /// Track 8-byte-aligned groups — the coarser alternative the paper
    /// rejects; kept as an ablation switch. Over-taints neighbouring
    /// bytes, bloating bunches.
    Word,
}

/// Whether extraction distinguishes `ep` entries (paper Table III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ContextMode {
    /// One bunch per `ep` entry, in order (the paper's approach).
    #[default]
    ContextAware,
    /// All primitive bytes collapse into a single bunch ("located in poc'
    /// at once") — the Table III baseline.
    ContextFree,
}

/// Configuration of one extraction run.
#[derive(Debug, Clone)]
pub struct TaintConfig {
    /// The entry point of the shared code area `ℓ`.
    pub ep: FuncId,
    /// All functions of `ℓ` (used for reporting; the dynamic extent of an
    /// `ep` activation defines "inside ℓ").
    pub shared: Vec<FuncId>,
    /// Byte- or word-level tainting.
    pub granularity: Granularity,
    /// Context-aware or context-free bunching.
    pub context: ContextMode,
}

impl TaintConfig {
    /// Byte-level, context-aware configuration (the paper's).
    pub fn new(ep: FuncId, shared: Vec<FuncId>) -> TaintConfig {
        TaintConfig {
            ep,
            shared,
            granularity: Granularity::Byte,
            context: ContextMode::ContextAware,
        }
    }

    /// Switches to word-level tainting.
    pub fn word_level(mut self) -> TaintConfig {
        self.granularity = Granularity::Word;
        self
    }

    /// Switches to context-free bunching (Table III baseline).
    pub fn context_free(mut self) -> TaintConfig {
        self.context = ContextMode::ContextFree;
        self
    }
}

/// Counters of one taint run (P1 observability).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaintStats {
    /// Input-file bytes uploaded into simulated memory (getc/read).
    pub bytes_uploaded: u64,
    /// High-watermark of the tainted-address map.
    pub peak_tainted_addrs: u64,
    /// Taint sets recorded into bunches while inside `ℓ`.
    pub taint_records: u64,
}

/// The part of P1 that depends on which function is `ep`: one recorder
/// per tracked function, fed by the engine's single propagation state.
struct Recorder {
    func: FuncId,
    context: ContextMode,
    /// Whether the flight-recorder events go out as they happen, or are
    /// replayed by [`Recorder::emit_events`] once `ep` is known.
    live: bool,
    /// Call depth of the active activation, when inside `ℓ`.
    inside_depth: Option<usize>,
    entries: u32,
    acc: Option<Bunch>,
    acc_args: Vec<u64>,
    primitives: CrashPrimitives,
    taint_records: u64,
}

impl Recorder {
    fn new(func: FuncId, context: ContextMode, live: bool) -> Recorder {
        Recorder {
            func,
            context,
            live,
            inside_depth: None,
            entries: 0,
            acc: None,
            acc_args: Vec::new(),
            primitives: CrashPrimitives::new(),
            taint_records: 0,
        }
    }

    /// Counts an entry and opens its bunch (one per entry, or one for
    /// the whole run when context-free).
    fn enter(&mut self, args: &[u64], depth: usize) {
        self.entries += 1;
        if self.live {
            octo_trace::emit(octo_trace::TraceKind::EpEntered {
                entry: self.entries,
            });
        }
        self.inside_depth = Some(depth);
        match self.context {
            ContextMode::ContextAware => {
                self.acc = Some(Bunch::new(self.entries));
                self.acc_args = args.to_vec();
            }
            ContextMode::ContextFree => {
                if self.acc.is_none() {
                    self.acc = Some(Bunch::new(1));
                    self.acc_args = args.to_vec();
                }
            }
        }
    }

    fn leave(&mut self) {
        self.inside_depth = None;
        self.close_bunch(false);
    }

    /// Adds the offsets of `t` to the open bunch (P1.3).
    fn record(&mut self, t: &TaintSet, poc: &PocFile) {
        if let Some(b) = &mut self.acc {
            self.taint_records += 1;
            for off in t.iter() {
                b.add(off, poc.byte(off));
            }
        }
    }

    fn close_bunch(&mut self, final_close: bool) {
        if self.context == ContextMode::ContextFree && !final_close {
            return;
        }
        if let Some(b) = self.acc.take() {
            if self.live {
                octo_trace::emit(octo_trace::TraceKind::BunchRecorded {
                    entry: b.seq,
                    bytes: b.len() as u64,
                });
            }
            self.primitives.push(b, std::mem::take(&mut self.acc_args));
        }
    }

    /// Replays the events a live recorder would have emitted over the
    /// run, in the same order: each entry, and each bunch when it closed.
    fn emit_events(&self) {
        let bunch_recorded = |b: &Bunch| {
            octo_trace::emit(octo_trace::TraceKind::BunchRecorded {
                entry: b.seq,
                bytes: b.len() as u64,
            })
        };
        match self.context {
            ContextMode::ContextAware => {
                for b in self.primitives.bunches() {
                    octo_trace::emit(octo_trace::TraceKind::EpEntered { entry: b.seq });
                    bunch_recorded(b);
                }
            }
            ContextMode::ContextFree => {
                for entry in 1..=self.entries {
                    octo_trace::emit(octo_trace::TraceKind::EpEntered { entry });
                }
                self.primitives.bunches().iter().for_each(bunch_recorded);
            }
        }
    }
}

/// What one tracked function's recorder extracted over a finished run.
pub(crate) struct Recorded {
    pub primitives: CrashPrimitives,
    pub entries: u32,
    pub stats: TaintStats,
}

/// The taint-tracking hook. Attach to a [`octo_vm::Vm`] run over the
/// original software `S` executing the original `poc`, then take the
/// extracted primitives with [`TaintEngine::into_primitives`].
///
/// The engine keeps one propagation state: the per-byte memory map, one
/// dense register shadow per call frame (indexed by register number,
/// grown on first write), and the argument and return taint in flight
/// between a call or return and its hook. As in the VM, the running
/// frame's shadow is a field of its own and only suspended callers'
/// shadows sit on a stack. What depends on `ep` lives in a recorder per
/// tracked function, so one run can extract the primitives of every
/// function of `ℓ` before the crash says which one is `ep` (see
/// [`crate::extract_at_crash_ep`]).
pub struct TaintEngine {
    granularity: Granularity,
    poc: PocFile,
    mem: HashMap<u64, TaintSet>,
    /// Register shadow of the running frame.
    regs: Vec<TaintSet>,
    /// Register shadows of the suspended callers, outermost first.
    callers: Vec<Vec<TaintSet>>,
    /// Destination registers of in-flight calls (one per frame above main).
    call_dsts: Vec<Option<Reg>>,
    /// Argument taints stashed between `on_inst(Call)` and `on_call`; they
    /// become the callee's register shadow.
    pending_args: Vec<TaintSet>,
    /// Dst register stashed between `on_inst(Call)` and `on_call`.
    pending_dst: Option<Reg>,
    /// Return-value taint stashed between `on_term(Ret)` and `on_ret`.
    pending_ret: TaintSet,
    /// One per tracked function; `TaintEngine::new` tracks `ep` alone.
    recorders: Vec<Recorder>,
    /// How many recorders are inside an activation of their function.
    inside: usize,
    crash: Option<CrashReport>,
    bytes_uploaded: u64,
    peak_tainted_addrs: u64,
}

impl TaintEngine {
    /// Creates an engine for one run of `S` on `poc`, extracting the
    /// primitives of `config.ep`.
    pub fn new(config: TaintConfig, poc: PocFile) -> TaintEngine {
        TaintEngine::tracking(&[config.ep], config.granularity, config.context, poc, true)
    }

    /// Creates an engine that records every function of `funcs` (listed
    /// once each). With `live` the flight-recorder events go out as they
    /// happen; otherwise [`TaintEngine::finish`] replays them for the one
    /// function it is asked for.
    pub(crate) fn tracking(
        funcs: &[FuncId],
        granularity: Granularity,
        context: ContextMode,
        poc: PocFile,
        live: bool,
    ) -> TaintEngine {
        let mut recorders: Vec<Recorder> = Vec::with_capacity(funcs.len());
        for &f in funcs {
            if recorders.iter().all(|r| r.func != f) {
                recorders.push(Recorder::new(f, context, live));
            }
        }
        TaintEngine {
            granularity,
            poc,
            mem: HashMap::new(),
            regs: Vec::new(),
            callers: Vec::new(),
            call_dsts: Vec::new(),
            pending_args: Vec::new(),
            pending_dst: None,
            pending_ret: TaintSet::empty(),
            recorders,
            inside: 0,
            crash: None,
            bytes_uploaded: 0,
            peak_tainted_addrs: 0,
        }
    }

    /// Number of times execution entered `ep`.
    pub fn ep_entries(&self) -> u32 {
        self.recorders[0].entries
    }

    /// The crash report observed, if any.
    pub fn crash(&self) -> Option<&CrashReport> {
        self.crash.as_ref()
    }

    /// Counters accumulated so far (read them before
    /// [`TaintEngine::into_primitives`] consumes the engine).
    pub fn stats(&self) -> TaintStats {
        self.stats_of(&self.recorders[0])
    }

    /// Finalises and returns the extracted crash primitives.
    pub fn into_primitives(self) -> CrashPrimitives {
        let ep = self.recorders[0].func;
        self.finish(ep).primitives
    }

    /// Finalises the recorder of `func`, a tracked function, replaying
    /// its events if they were not emitted live.
    pub(crate) fn finish(mut self, func: FuncId) -> Recorded {
        let i = self
            .recorders
            .iter()
            .position(|r| r.func == func)
            .expect("finish is asked for a tracked function");
        let stats = self.stats_of(&self.recorders[i]);
        let mut rec = self.recorders.swap_remove(i);
        rec.close_bunch(true);
        if !rec.live {
            rec.emit_events();
        }
        Recorded {
            primitives: rec.primitives,
            entries: rec.entries,
            stats,
        }
    }

    fn stats_of(&self, rec: &Recorder) -> TaintStats {
        TaintStats {
            bytes_uploaded: self.bytes_uploaded,
            peak_tainted_addrs: self.peak_tainted_addrs,
            taint_records: rec.taint_records,
        }
    }

    fn reg(&self, op: Operand) -> Option<&TaintSet> {
        match op {
            Operand::Reg(r) => self.regs.get(r.0 as usize),
            Operand::Imm(_) => None,
        }
    }

    fn op_taint(&self, op: Operand) -> TaintSet {
        self.reg(op).cloned().unwrap_or_default()
    }

    fn set_reg(&mut self, r: Reg, t: TaintSet) {
        let i = r.0 as usize;
        if let Some(slot) = self.regs.get_mut(i) {
            *slot = t;
        } else if !t.is_empty() {
            self.regs.resize(i + 1, TaintSet::empty());
            self.regs[i] = t;
        }
    }

    fn mem_taint_range(&self, addr: u64, len: u64) -> TaintSet {
        let mut acc = TaintSet::empty();
        for i in 0..len {
            if let Some(t) = self.mem.get(&addr.wrapping_add(i)) {
                acc = acc.union(t);
            }
        }
        acc
    }

    fn set_mem_range(&mut self, addr: u64, len: u64, t: &TaintSet) {
        for i in 0..len {
            let a = addr.wrapping_add(i);
            if t.is_empty() {
                // Algorithm 1, line 11: overwriting with untainted data
                // removes the address from the tainted set.
                self.mem.remove(&a);
            } else {
                self.mem.insert(a, t.clone());
            }
        }
        self.note_tainted_peak();
    }

    /// Keeps the tainted-address watermark current after map growth.
    fn note_tainted_peak(&mut self) {
        self.peak_tainted_addrs = self.peak_tainted_addrs.max(self.mem.len() as u64);
    }

    /// Adds the offsets of `t` to the bunch of every recorder inside `ℓ`
    /// (P1.3).
    fn record(&mut self, t: &TaintSet) {
        if self.inside == 0 || t.is_empty() {
            return;
        }
        for rec in &mut self.recorders {
            if rec.inside_depth.is_some() {
                rec.record(t, &self.poc);
            }
        }
    }

    /// Marks freshly uploaded file bytes: `mem[addr+i] = {file_off+i}`.
    /// Addresses wrap past `u64::MAX` as the VM's own do.
    fn upload(&mut self, addr: u64, file_off: u64, len: u64) {
        self.bytes_uploaded += len;
        match self.granularity {
            Granularity::Byte => {
                for i in 0..len {
                    self.mem.insert(
                        addr.wrapping_add(i),
                        TaintSet::single((file_off + i) as u32),
                    );
                }
            }
            Granularity::Word => {
                // Each aligned 8-byte group shares the union of the offsets
                // uploaded into it.
                let mut groups: HashMap<u64, Vec<u32>> = HashMap::new();
                for i in 0..len {
                    groups
                        .entry(addr.wrapping_add(i) & !7)
                        .or_default()
                        .push((file_off + i) as u32);
                }
                for (base, offs) in groups {
                    let set = TaintSet::from_iter(offs);
                    for j in 0..8 {
                        self.mem.insert(base.wrapping_add(j), set.clone());
                    }
                }
            }
        }
        self.note_tainted_peak();
    }
}

impl Hook for TaintEngine {
    fn on_inst(&mut self, ctx: &HookCtx<'_>, inst: &Inst) {
        let eval = |op: Operand| match op {
            Operand::Reg(r) => ctx.regs[r.0 as usize],
            Operand::Imm(v) => v,
        };
        match inst {
            Inst::Const { dst, .. }
            | Inst::Alloc { dst, .. }
            | Inst::FuncAddr { dst, .. }
            | Inst::BlockAddr { dst, .. }
            | Inst::FileOpen { dst }
            | Inst::FileTell { dst, .. }
            | Inst::FileSize { dst, .. } => self.set_reg(*dst, TaintSet::empty()),
            Inst::Move { dst, src } | Inst::Un { dst, src, .. } => {
                let t = self.op_taint(*src);
                self.set_reg(*dst, t);
            }
            Inst::Bin { dst, lhs, rhs, .. } | Inst::CheckedBin { dst, lhs, rhs, .. } => {
                let t = match (self.reg(*lhs), self.reg(*rhs)) {
                    (Some(l), Some(r)) => l.union(r),
                    (Some(t), None) | (None, Some(t)) => t.clone(),
                    (None, None) => TaintSet::empty(),
                };
                self.set_reg(*dst, t);
            }
            Inst::Load {
                dst,
                addr,
                offset,
                width,
            } => {
                let a = eval(*addr).wrapping_add(*offset);
                let data = self.mem_taint_range(a, width.bytes());
                let addr_t = self.op_taint(*addr);
                let full = data.union(&addr_t);
                self.record(&full);
                self.set_reg(*dst, full);
            }
            Inst::Store {
                addr,
                offset,
                src,
                width,
            } => {
                let a = eval(*addr).wrapping_add(*offset);
                let old = self.mem_taint_range(a, width.bytes());
                let src_t = self.op_taint(*src);
                let addr_t = self.op_taint(*addr);
                let touched = old.union(&src_t).union(&addr_t);
                self.record(&touched);
                self.set_mem_range(a, width.bytes(), &src_t);
            }
            Inst::Call { dst, args, .. } | Inst::CallIndirect { dst, args, .. } => {
                self.pending_args = args.iter().map(|a| self.op_taint(*a)).collect();
                self.pending_dst = *dst;
            }
            Inst::FileRead { dst, buf, len, .. } => {
                let buf_addr = eval(*buf);
                let want = eval(*len);
                let pos = ctx.file_pos.min(ctx.file_size);
                let count = want.min(ctx.file_size - pos);
                if count > 0 {
                    self.upload(buf_addr, pos, count);
                    // Bytes read while inside ℓ are used in ℓ.
                    if self.inside > 0 {
                        let offs = TaintSet::from_iter(pos as u32..(pos + count) as u32);
                        self.record(&offs);
                    }
                }
                self.set_reg(*dst, TaintSet::empty());
            }
            Inst::FileGetc { dst, .. } => {
                if ctx.file_pos < ctx.file_size {
                    // A getc consumes one input byte just like a read;
                    // it lands in a register instead of memory, so it is
                    // billed here rather than in `upload`.
                    self.bytes_uploaded += 1;
                    let t = TaintSet::single(ctx.file_pos as u32);
                    self.record(&t);
                    self.set_reg(*dst, t);
                } else {
                    self.set_reg(*dst, TaintSet::empty());
                }
            }
            Inst::MemMap { dst, .. } => {
                // The whole input is uploaded; actual use inside ℓ is
                // recorded at the subsequent loads.
                self.set_reg(*dst, TaintSet::empty());
            }
            Inst::FileSeek { .. } | Inst::Trap { .. } | Inst::Nop => {}
        }
    }

    fn on_term(&mut self, _ctx: &HookCtx<'_>, term: &Terminator) {
        if let Terminator::Ret(v) = term {
            self.pending_ret = match v {
                Some(v) => self.op_taint(*v),
                None => TaintSet::empty(),
            };
        }
    }

    fn on_mmap(&mut self, base: u64, len: u64) {
        self.upload(base, 0, len);
    }

    fn on_call(&mut self, callee: FuncId, args: &[u64], depth: usize) {
        // Argument i's taint lands in the callee's register i.
        let caller = std::mem::replace(&mut self.regs, std::mem::take(&mut self.pending_args));
        if depth > 1 {
            self.callers.push(caller);
            self.call_dsts.push(self.pending_dst.take());
        }
        for rec in &mut self.recorders {
            if rec.func == callee && rec.inside_depth.is_none() {
                rec.enter(args, depth);
                self.inside += 1;
            }
        }
    }

    fn on_ret(&mut self, _func: FuncId, value: Option<u64>, depth: usize) {
        if self.inside > 0 {
            for rec in &mut self.recorders {
                if rec.inside_depth == Some(depth) {
                    rec.leave();
                    self.inside -= 1;
                }
            }
        }
        self.regs = self.callers.pop().unwrap_or_default();
        let dst = if depth > 1 {
            self.call_dsts.pop().flatten()
        } else {
            None
        };
        if let Some(dst) = dst {
            let t = if value.is_some() {
                std::mem::take(&mut self.pending_ret)
            } else {
                TaintSet::empty()
            };
            self.set_reg(dst, t);
        }
        self.pending_ret = TaintSet::empty();
    }

    fn on_crash(&mut self, report: &CrashReport) {
        self.crash = Some(report.clone());
        for rec in &mut self.recorders {
            if rec.inside_depth.is_some() {
                rec.leave();
            }
        }
        self.inside = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octo_ir::parse::parse_program;
    use octo_vm::Vm;

    fn run_taint(src: &str, poc: &[u8], ep_name: &str) -> (TaintEngine, octo_vm::RunOutcome) {
        let p = parse_program(src).unwrap();
        let ep = p.func_by_name(ep_name).unwrap();
        let mut engine = TaintEngine::new(TaintConfig::new(ep, vec![ep]), PocFile::from(poc));
        let out = Vm::new(&p, poc).run_hooked(&mut engine);
        (engine, out)
    }

    const DIRECT_USE: &str = r#"
func main() {
entry:
    fd = open
    buf = alloc 8
    n = read fd, buf, 8
    call shared(buf)
    halt 0
}
func shared(p) {
entry:
    v = load.1 p + 3
    c = eq v, 0x58
    br c, boom, fine
boom:
    trap 1
fine:
    ret
}
"#;

    #[test]
    fn bytes_loaded_inside_shared_are_primitives() {
        let (engine, out) = run_taint(DIRECT_USE, b"aaaXbbbb", "shared");
        assert!(out.is_crash());
        assert_eq!(engine.ep_entries(), 1);
        let q = engine.into_primitives();
        assert_eq!(q.entry_count(), 1);
        let offs: Vec<u32> = q.bunch(0).unwrap().iter().map(|(o, _)| o).collect();
        assert_eq!(offs, vec![3]);
        assert_eq!(q.bunch(0).unwrap().iter().next().unwrap().1, b'X');
    }

    #[test]
    fn indirect_use_through_candidate_address() {
        // A byte is read and *stored* before ℓ, then loaded inside ℓ.
        let src = r#"
func main() {
entry:
    fd = open
    buf = alloc 4
    n = read fd, buf, 4
    stash = alloc 8
    v = load.1 buf + 1
    store.1 stash + 5, v
    call shared(stash)
    halt 0
}
func shared(p) {
entry:
    w = load.1 p + 5
    c = eq w, 0x51
    br c, boom, fine
boom:
    trap 2
fine:
    ret
}
"#;
        let (engine, out) = run_taint(src, b"xQzz", "shared");
        assert!(out.is_crash());
        let q = engine.into_primitives();
        let offs: Vec<u32> = q.bunch(0).unwrap().iter().map(|(o, _)| o).collect();
        assert_eq!(offs, vec![1], "candidate address must carry offset 1");
    }

    const MULTI_ENTRY: &str = r#"
func main() {
entry:
    fd = open
    buf = alloc 2
    n = read fd, buf, 2
    call shared(buf)
    n2 = read fd, buf, 2
    call shared(buf)
    halt 0
}
func shared(p) {
entry:
    v = load.1 p
    w = load.1 p + 1
    c = eq w, 0x21
    br c, boom, fine
boom:
    trap 3
fine:
    ret
}
"#;

    #[test]
    fn context_aware_separates_bunches_per_entry() {
        let (engine, out) = run_taint(MULTI_ENTRY, b"ab1!", "shared");
        assert!(out.is_crash());
        assert_eq!(engine.ep_entries(), 2);
        let q = engine.into_primitives();
        assert_eq!(q.entry_count(), 2);
        let b1: Vec<u32> = q.bunch(0).unwrap().iter().map(|(o, _)| o).collect();
        let b2: Vec<u32> = q.bunch(1).unwrap().iter().map(|(o, _)| o).collect();
        assert_eq!(b1, vec![0, 1]);
        assert_eq!(b2, vec![2, 3]);
        assert_eq!(q.bunch(0).unwrap().seq, 1);
        assert_eq!(q.bunch(1).unwrap().seq, 2);
    }

    #[test]
    fn context_free_collapses_bunches() {
        let p = parse_program(MULTI_ENTRY).unwrap();
        let ep = p.func_by_name("shared").unwrap();
        let poc = b"ab1!";
        let mut engine = TaintEngine::new(
            TaintConfig::new(ep, vec![ep]).context_free(),
            PocFile::from(&poc[..]),
        );
        let out = Vm::new(&p, poc).run_hooked(&mut engine);
        assert!(out.is_crash());
        let q = engine.into_primitives();
        assert_eq!(q.entry_count(), 1);
        let offs: Vec<u32> = q.bunch(0).unwrap().iter().map(|(o, _)| o).collect();
        assert_eq!(offs, vec![0, 1, 2, 3]);
    }

    #[test]
    fn ep_arguments_are_captured() {
        let src = r#"
func main() {
entry:
    fd = open
    b = getc fd
    call shared(b, 7)
    halt 0
}
func shared(x, y) {
entry:
    trap 1
}
"#;
        let (engine, out) = run_taint(src, b"\x2A", "shared");
        assert!(out.is_crash());
        let q = engine.into_primitives();
        assert_eq!(q.args(0), Some(&[0x2A, 7][..]));
    }

    #[test]
    fn getc_inside_shared_is_recorded() {
        let src = r#"
func main() {
entry:
    fd = open
    h = getc fd
    call shared(fd)
    halt 0
}
func shared(fd) {
entry:
    v = getc fd
    c = eq v, 0x42
    br c, boom, fine
boom:
    trap 4
fine:
    ret
}
"#;
        let (engine, out) = run_taint(src, b"AB", "shared");
        assert!(out.is_crash());
        let q = engine.into_primitives();
        let offs: Vec<u32> = q.bunch(0).unwrap().iter().map(|(o, _)| o).collect();
        assert_eq!(offs, vec![1], "only the byte consumed inside ℓ");
    }

    #[test]
    fn mmap_bytes_used_inside_shared_are_recorded() {
        let src = r#"
func main() {
entry:
    fd = open
    base = mmap fd
    call shared(base)
    halt 0
}
func shared(p) {
entry:
    v = load.2 p + 2
    c = eq v, 0x3231
    br c, boom, fine
boom:
    trap 5
fine:
    ret
}
"#;
        let (engine, out) = run_taint(src, b"ab12", "shared");
        assert!(out.is_crash());
        let q = engine.into_primitives();
        let offs: Vec<u32> = q.bunch(0).unwrap().iter().map(|(o, _)| o).collect();
        assert_eq!(offs, vec![2, 3]);
    }

    #[test]
    fn word_granularity_over_taints() {
        let (e_byte, _) = run_taint(DIRECT_USE, b"aaaXbbbb", "shared");
        let q_byte = e_byte.into_primitives();

        let p = parse_program(DIRECT_USE).unwrap();
        let ep = p.func_by_name("shared").unwrap();
        let poc = b"aaaXbbbb";
        let mut e_word = TaintEngine::new(
            TaintConfig::new(ep, vec![ep]).word_level(),
            PocFile::from(&poc[..]),
        );
        Vm::new(&p, poc).run_hooked(&mut e_word);
        let q_word = e_word.into_primitives();
        assert!(
            q_word.total_bytes() > q_byte.total_bytes(),
            "word-level must over-taint: {} vs {}",
            q_word.total_bytes(),
            q_byte.total_bytes()
        );
    }

    #[test]
    fn untainted_store_clears_taint() {
        // A tainted buffer byte is overwritten by a constant before ℓ reads
        // it — the read inside ℓ must not contribute primitives.
        let src = r#"
func main() {
entry:
    fd = open
    buf = alloc 4
    n = read fd, buf, 4
    store.1 buf + 0, 0
    call shared(buf)
    halt 0
}
func shared(p) {
entry:
    v = load.1 p
    trap 6
}
"#;
        let (engine, out) = run_taint(src, b"abcd", "shared");
        assert!(out.is_crash());
        let q = engine.into_primitives();
        assert_eq!(q.total_bytes(), 0);
    }

    #[test]
    fn read_into_the_top_of_the_address_space_wraps() {
        // The upload wraps past u64::MAX as the VM's own address
        // arithmetic does; the faulting read still counts as consumed
        // inside ℓ.
        let src = r#"
func main() {
entry:
    fd = open
    call shared(fd)
    halt 0
}
func shared(fd) {
entry:
    n = read fd, 0xFFFFFFFFFFFFFFFF, 4
    ret
}
"#;
        let (engine, out) = run_taint(src, b"wxyz", "shared");
        assert!(out.is_crash());
        let stats = engine.stats();
        assert_eq!(stats.bytes_uploaded, 4);
        assert_eq!(stats.peak_tainted_addrs, 4, "u64::MAX, 0, 1, 2");
        let q = engine.into_primitives();
        let bunch: Vec<(u32, u8)> = q.bunch(0).unwrap().iter().collect();
        assert_eq!(bunch, vec![(0, b'w'), (1, b'x'), (2, b'y'), (3, b'z')]);
    }

    #[test]
    fn faulting_store_counts_toward_the_tainted_peak() {
        // The hook taints the destination before the VM executes the
        // store, so the byte the crashing store wrote is in the peak.
        let src = r#"
func main() {
entry:
    fd = open
    b = getc fd
    call shared(b)
    halt 0
}
func shared(v) {
entry:
    store.1 0, v
    ret
}
"#;
        let (engine, out) = run_taint(src, b"Q", "shared");
        assert_eq!(out.crash().map(|c| c.kind.class()), Some("NULL-DEREF"));
        assert_eq!(engine.stats().peak_tainted_addrs, 1);
        assert_eq!(engine.stats().taint_records, 1);
        let q = engine.into_primitives();
        assert_eq!(
            q.bunch(0).unwrap().iter().collect::<Vec<_>>(),
            vec![(0, b'Q')]
        );
    }

    #[test]
    fn caller_registers_survive_nested_calls_untouched_by_callee_taint() {
        // `b` (tainted) and `k` (clean) in main share their register
        // numbers with `h` and `g` in helper, which taint them and make a
        // nested call that taints its own register of that number too.
        let src = r#"
func main() {
entry:
    fd = open
    b = getc fd
    k = 7
    call helper(fd)
    buf = alloc 2
    store.1 buf, b
    store.1 buf + 1, k
    call shared(buf)
    halt 0
}
func helper(fd) {
entry:
    h = getc fd
    g = getc fd
    call inner(fd)
    ret
}
func inner(fd) {
entry:
    x = getc fd
    ret
}
func shared(p) {
entry:
    v = load.2 p
    trap 8
}
"#;
        let p = parse_program(src).unwrap();
        let getc_dsts = |name: &str| -> Vec<Reg> {
            let f = p.func(p.func_by_name(name).unwrap());
            let insts = f.blocks.iter().flat_map(|b| &b.insts);
            insts
                .filter_map(|i| match i {
                    Inst::FileGetc { dst, .. } => Some(*dst),
                    _ => None,
                })
                .collect()
        };
        assert_eq!(getc_dsts("main"), vec![Reg(1)]);
        assert_eq!(getc_dsts("helper"), vec![Reg(1), Reg(2)]);
        assert_eq!(getc_dsts("inner"), vec![Reg(1)]);

        let (engine, out) = run_taint(src, b"ABCD", "shared");
        assert_eq!(out.crash().map(|c| c.kind.class()), Some("TRAP"));
        let q = engine.into_primitives();
        let bunch: Vec<(u32, u8)> = q.bunch(0).unwrap().iter().collect();
        assert_eq!(bunch, vec![(0, b'A')], "only main's own getc");
    }

    #[test]
    fn return_value_taint_flows_to_caller() {
        let src = r#"
func main() {
entry:
    fd = open
    b = call fetch(fd)
    buf = alloc 2
    store.1 buf, b
    call shared(buf)
    halt 0
}
func fetch(fd) {
entry:
    v = getc fd
    ret v
}
func shared(p) {
entry:
    w = load.1 p
    trap 7
}
"#;
        let (engine, out) = run_taint(src, b"Z", "shared");
        assert!(out.is_crash());
        let q = engine.into_primitives();
        let offs: Vec<u32> = q.bunch(0).unwrap().iter().map(|(o, _)| o).collect();
        assert_eq!(offs, vec![0]);
    }
}
