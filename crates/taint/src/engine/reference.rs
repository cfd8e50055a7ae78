//! The parent engine, over `Rc`-shared [`TaintSet`]s: the reference
//! that [`super::differential`] holds the label engine to.
//!
//! It is the engine as it was before taint moved onto labels, with the
//! single-`ep` entry points that the oracle does not use left out.

use std::collections::HashMap;

use octo_ir::{FuncId, Inst, Operand, Reg, Terminator};
use octo_poc::{Bunch, CrashPrimitives, PocFile};
use octo_vm::{CrashReport, Hook, HookCtx};

use super::{ContextMode, Granularity, Recorded, TaintStats};
use crate::set::TaintSet;

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

/// The taint-tracking hook.
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
    pub(super) mem: HashMap<u64, TaintSet>,
    /// Register shadow of the running frame.
    pub(super) regs: Vec<TaintSet>,
    /// Register shadows of the suspended callers, outermost first.
    pub(super) callers: Vec<Vec<TaintSet>>,
    /// Destination registers of in-flight calls (one per frame above main).
    call_dsts: Vec<Option<Reg>>,
    /// Argument taints stashed between `on_inst(Call)` and `on_call`; they
    /// become the callee's register shadow.
    pub(super) pending_args: Vec<TaintSet>,
    /// Dst register stashed between `on_inst(Call)` and `on_call`.
    pending_dst: Option<Reg>,
    /// Return-value taint stashed between `on_term(Ret)` and `on_ret`.
    pub(super) pending_ret: TaintSet,
    /// One per tracked function; `TaintEngine::new` tracks `ep` alone.
    recorders: Vec<Recorder>,
    /// How many recorders are inside an activation of their function.
    inside: usize,
    pub(super) crash: Option<CrashReport>,
    bytes_uploaded: u64,
    peak_tainted_addrs: u64,
}

impl TaintEngine {
    /// Creates an engine that records every function of `funcs` (listed
    /// once each). With `live` the flight-recorder events go out as they
    /// happen; otherwise [`TaintEngine::finish`] replays them for the one
    /// function it is asked for.
    pub(super) fn tracking(
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

    /// Finalises the recorder of `func`, a tracked function, replaying
    /// its events if they were not emitted live.
    pub(super) fn finish(mut self, func: FuncId) -> Recorded {
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
