//! Interprocedural call graph and the static `ep`-reachability /
//! argument pre-screen (pipeline phase P0).
//!
//! The pre-screen answers, **before** any symbolic execution, two
//! questions whose negative answers decide a verification verdict:
//!
//! 1. *Can the entry point `ep` execute at all?* If no chain of calls
//!    from the target's entry can reach `ep`, the propagated vulnerable
//!    code is dead in `T` — verdict "not triggerable" (paper case ii).
//! 2. *Can any call of `ep` match the recorded crash primitives?* The
//!    directed engine must stitch every recorded `ep` entry against a
//!    concrete call whose arguments equal the recorded values. If every
//!    static call site of `ep` passes a compile-time constant that
//!    disagrees with what the crash recorded, stitching is doomed —
//!    verdict "not triggerable, unsatisfiable constraints".
//!
//! Everything here is an over-approximation of runtime behaviour: an
//! unresolved indirect call contributes edges to *every* function, an
//! address-taken `ep` disables the argument screen entirely, and a
//! register argument only refutes when constant propagation's facts are
//! sound for the block it appears in. When in doubt the screen stays
//! silent and the pipeline proceeds to symbolic execution.

use octo_cfg::{func_cfg, CfgMode};
use octo_ir::{decode_func_addr, BlockId, FuncId, Inst, Operand, Program};

use crate::constprop::{self, CVal, ConstProp, Provenance};
use crate::dataflow::{reachable_blocks, solve};

/// The interprocedural call graph, as over-approximated statically.
#[derive(Debug, Clone)]
pub struct CallGraph {
    /// Per caller: callees of direct `call` instructions in blocks that
    /// can execute.
    pub direct: Vec<Vec<FuncId>>,
    /// Per caller: exact callees of `icall`s whose target resolved to a
    /// function-address constant.
    pub resolved_icalls: Vec<Vec<FuncId>>,
    /// Per caller: whether some `icall`'s target did *not* resolve — that
    /// call may reach any function in the program.
    pub unknown_icall: Vec<bool>,
    /// Per function: whether its address is materialised (`faddr`)
    /// anywhere in the program.
    pub addr_taken: Vec<bool>,
    /// Every `icall` site whose target did not resolve statically, in
    /// (caller, block) order. These are the sites that force
    /// [`CallGraph::unknown_icall`] — kept individually so lints can
    /// point at them instead of silently widening the graph.
    pub unresolved_icall_sites: Vec<(FuncId, BlockId)>,
}

/// How a function is reached from a root, distinguishing edges the
/// static graph proves from edges it merely cannot rule out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReachKind {
    /// Not reachable even with every unknown indirect call widened.
    No,
    /// Reachable through direct calls and exactly-resolved `icall`s only.
    Direct,
    /// Reachable only if some unknown indirect call hits it — the
    /// over-approximation, not a proven path.
    OverApprox,
}

impl CallGraph {
    /// Functions reachable from `from` over the call graph, where an
    /// unknown indirect call conservatively reaches every function.
    pub fn reachable_from(&self, from: FuncId) -> Vec<bool> {
        let n = self.direct.len();
        let mut seen = vec![false; n];
        let mut stack = vec![from.0 as usize];
        seen[from.0 as usize] = true;
        while let Some(f) = stack.pop() {
            let visit = |callee: usize, seen: &mut Vec<bool>, stack: &mut Vec<usize>| {
                if !seen[callee] {
                    seen[callee] = true;
                    stack.push(callee);
                }
            };
            for c in self.direct[f].iter().chain(self.resolved_icalls[f].iter()) {
                visit(c.0 as usize, &mut seen, &mut stack);
            }
            if self.unknown_icall[f] {
                for callee in 0..n {
                    visit(callee, &mut seen, &mut stack);
                }
            }
        }
        seen
    }

    /// Like [`CallGraph::reachable_from`], but classifies every function
    /// as [`ReachKind::Direct`] (reachable over proven edges alone),
    /// [`ReachKind::OverApprox`] (reachable only via the unknown-icall
    /// widening) or [`ReachKind::No`].
    pub fn reach_kinds_from(&self, from: FuncId) -> Vec<ReachKind> {
        let n = self.direct.len();
        // Pass 1: proven edges only.
        let mut direct = vec![false; n];
        let mut stack = vec![from.0 as usize];
        direct[from.0 as usize] = true;
        while let Some(f) = stack.pop() {
            for c in self.direct[f].iter().chain(self.resolved_icalls[f].iter()) {
                let c = c.0 as usize;
                if !direct[c] {
                    direct[c] = true;
                    stack.push(c);
                }
            }
        }
        // Pass 2: the full over-approximation.
        let wide = self.reachable_from(from);
        (0..n)
            .map(|f| match (direct[f], wide[f]) {
                (true, _) => ReachKind::Direct,
                (false, true) => ReachKind::OverApprox,
                (false, false) => ReachKind::No,
            })
            .collect()
    }
}

/// What the call graph and the argument screen both read from one
/// function's recovered CFG, computed once per function.
struct FuncFacts {
    /// Blocks reachable from the entry over the recovered CFG.
    reach: Vec<bool>,
    /// Constant propagation's register state on entry to each block, or
    /// `None` when the function has an indirect jump. Any indirect jump —
    /// even one with address-taken candidates — means the recovered CFG
    /// may miss edges: a computed block address can land on a block
    /// `baddr` never named. Every block might then run, and facts solved
    /// over the possibly-incomplete graph cannot be trusted.
    input: Option<Vec<Vec<CVal>>>,
}

impl FuncFacts {
    /// The facts of every function of `program`, indexed by [`FuncId`].
    fn of_program(program: &Program) -> Vec<FuncFacts> {
        program
            .iter()
            .map(|(fid, func)| {
                let cfg = func_cfg(func, CfgMode::Dynamic, &[]);
                let has_ijmp = func.blocks.iter().any(|b| b.term.is_indirect());
                FuncFacts {
                    reach: reachable_blocks(&cfg),
                    input: (!has_ijmp).then(|| solve(&ConstProp::new(func, fid), &cfg).input),
                }
            })
            .collect()
    }

    /// Whether block `bi` can execute: provably, unless an indirect jump
    /// may hide an edge into it.
    fn may_run(&self, bi: usize) -> bool {
        self.input.is_none() || self.reach[bi]
    }

    /// Whether the register facts on entry to block `bi` are sound: the
    /// function has no indirect jump and the block is reachable.
    fn facts_hold(&self, bi: usize) -> bool {
        self.input.is_some() && self.reach[bi]
    }

    /// The register state on entry to block `bi` where the facts hold;
    /// every register unknown otherwise.
    fn entry_regs(&self, bi: usize, n_regs: u16) -> Vec<CVal> {
        match &self.input {
            Some(input) if self.reach[bi] => input[bi].clone(),
            _ => vec![CVal::Nac; n_regs as usize],
        }
    }
}

/// Builds the call graph of `program`.
pub fn build_call_graph(program: &Program) -> CallGraph {
    call_graph_of(program, &FuncFacts::of_program(program))
}

fn call_graph_of(program: &Program, facts: &[FuncFacts]) -> CallGraph {
    let n = program.function_count();
    let mut direct: Vec<Vec<FuncId>> = vec![Vec::new(); n];
    let mut resolved_icalls: Vec<Vec<FuncId>> = vec![Vec::new(); n];
    let mut unknown_icall = vec![false; n];
    let mut addr_taken = vec![false; n];
    let mut unresolved_icall_sites: Vec<(FuncId, BlockId)> = Vec::new();

    for (_, f) in program.iter() {
        for b in &f.blocks {
            for inst in &b.insts {
                if let Inst::FuncAddr { func, .. } = inst {
                    addr_taken[func.0 as usize] = true;
                }
            }
        }
    }

    for (fid, func) in program.iter() {
        let fi = fid.0 as usize;
        let facts = &facts[fi];
        for (bi, block) in func.blocks.iter().enumerate() {
            // Blocks that cannot execute contribute no edges.
            if !facts.may_run(bi) {
                continue;
            }
            let mut regs = facts.entry_regs(bi, func.n_regs);
            for inst in &block.insts {
                match inst {
                    Inst::Call { callee, .. } if !direct[fi].contains(callee) => {
                        direct[fi].push(*callee);
                    }
                    Inst::CallIndirect { target, .. } => {
                        let resolved = match target {
                            // An immediate target is a fixed value no
                            // matter what the dataflow facts say.
                            Operand::Imm(v) => decode_func_addr(*v),
                            Operand::Reg(_) => match constprop::eval_operand(target, &regs) {
                                CVal::Known {
                                    value,
                                    prov: Provenance::Func,
                                } => decode_func_addr(value),
                                _ => None,
                            },
                        };
                        match resolved {
                            Some(callee) if (callee.0 as usize) < n => {
                                if !resolved_icalls[fi].contains(&callee) {
                                    resolved_icalls[fi].push(callee);
                                }
                            }
                            _ => {
                                unknown_icall[fi] = true;
                                let site = (fid, BlockId(bi as u32));
                                if !unresolved_icall_sites.contains(&site) {
                                    unresolved_icall_sites.push(site);
                                }
                            }
                        }
                    }
                    _ => {}
                }
                constprop::transfer_inst(inst, &mut regs, fid);
            }
        }
    }

    CallGraph {
        direct,
        resolved_icalls,
        unknown_icall,
        addr_taken,
        unresolved_icall_sites,
    }
}

/// A conclusive pre-screen finding (absence means "proceed to symex").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prescreen {
    /// No call chain from the program entry reaches `ep`.
    EpUnreachable,
    /// Recorded `ep` entry `entry` can never be stitched: every static
    /// call site passes a constant that disagrees with the recording.
    ArgsNeverMatch {
        /// Index of the unmatchable recorded entry.
        entry: usize,
    },
}

/// Runs the static pre-screen of `ep` in `program` against the crash
/// recording's per-entry argument values.
///
/// Returns `None` whenever static knowledge is insufficient to decide —
/// the screen never guesses.
pub fn prescreen_ep(
    program: &Program,
    ep: FuncId,
    recorded_args: &[Vec<u64>],
) -> Option<Prescreen> {
    // One analysis per function serves both the call graph and the
    // call-site scan below.
    let facts = FuncFacts::of_program(program);
    let cg = call_graph_of(program, &facts);
    let reach = cg.reachable_from(program.entry());
    if !reach[ep.0 as usize] {
        return Some(Prescreen::EpUnreachable);
    }

    // Argument screen. Bail out (stay silent) unless every way of
    // entering `ep` is a statically visible direct call.
    if recorded_args.is_empty() || cg.addr_taken[ep.0 as usize] {
        return None;
    }
    if (0..program.function_count()).any(|f| reach[f] && cg.unknown_icall[f]) {
        return None;
    }

    let mut sites: Vec<Vec<CVal>> = Vec::new();
    for (fid, func) in program.iter() {
        if !reach[fid.0 as usize] {
            continue;
        }
        let facts = &facts[fid.0 as usize];
        for (bi, block) in func.blocks.iter().enumerate() {
            // Sites in provably dead blocks still count (harmless: they
            // only weaken the screen), but their register facts do not.
            let facts_ok = facts.facts_hold(bi);
            let mut regs = facts.entry_regs(bi, func.n_regs);
            for inst in &block.insts {
                if let Inst::Call { callee, args, .. } = inst {
                    if *callee == ep {
                        sites.push(
                            args.iter()
                                .map(|a| match a {
                                    Operand::Imm(v) => CVal::known(*v),
                                    Operand::Reg(_) if facts_ok => {
                                        constprop::eval_operand(a, &regs)
                                    }
                                    Operand::Reg(_) => CVal::Nac,
                                })
                                .collect(),
                        );
                    }
                }
                constprop::transfer_inst(inst, &mut regs, fid);
            }
        }
    }
    if sites.is_empty() {
        return None;
    }

    for (k, recorded) in recorded_args.iter().enumerate() {
        let all_conflict = sites.iter().all(|site| {
            site.iter()
                .zip(recorded.iter())
                .any(|(cv, want)| matches!(cv.as_const(), Some(have) if have != *want))
        });
        if all_conflict {
            return Some(Prescreen::ArgsNeverMatch { entry: k });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use octo_ir::parse::parse_program;

    #[test]
    fn unreachable_ep_detected() {
        let p = parse_program(
            "func main() {\nentry:\n halt 0\n}\n\
             func ep(x) {\nentry:\n ret x\n}\n",
        )
        .unwrap();
        let ep = p.func_by_name("ep").unwrap();
        assert_eq!(prescreen_ep(&p, ep, &[]), Some(Prescreen::EpUnreachable));
    }

    #[test]
    fn transitively_reachable_ep_passes() {
        let p = parse_program(
            "func main() {\nentry:\n call mid()\n halt 0\n}\n\
             func mid() {\nentry:\n r = call ep(1)\n ret\n}\n\
             func ep(x) {\nentry:\n ret x\n}\n",
        )
        .unwrap();
        let ep = p.func_by_name("ep").unwrap();
        assert_eq!(prescreen_ep(&p, ep, &[]), None);
    }

    #[test]
    fn constant_argument_conflict_detected() {
        // Every site passes tag 0x100; the crash recorded tag 0x13d.
        let p = parse_program(
            "func main() {\nentry:\n r = call ep(0x100, 5)\n s = call ep(0x101, 6)\n \
             halt 0\n}\n\
             func ep(tag, v) {\nentry:\n ret v\n}\n",
        )
        .unwrap();
        let ep = p.func_by_name("ep").unwrap();
        assert_eq!(
            prescreen_ep(&p, ep, &[vec![0x13d, 0xdead]]),
            Some(Prescreen::ArgsNeverMatch { entry: 0 })
        );
        // A recording the sites can produce is not refuted.
        assert_eq!(prescreen_ep(&p, ep, &[vec![0x100, 5]]), None);
    }

    #[test]
    fn non_constant_argument_stays_silent() {
        let p = parse_program(
            "func main() {\nentry:\n fd = open\n v = getc fd\n r = call ep(v)\n halt 0\n}\n\
             func ep(x) {\nentry:\n ret x\n}\n",
        )
        .unwrap();
        let ep = p.func_by_name("ep").unwrap();
        assert_eq!(prescreen_ep(&p, ep, &[vec![0x13d]]), None);
    }

    #[test]
    fn address_taken_ep_disables_argument_screen() {
        let p = parse_program(
            "func main() {\nentry:\n g = faddr ep\n r = call ep(1)\n s = icall g(9)\n \
             halt 0\n}\n\
             func ep(x) {\nentry:\n ret x\n}\n",
        )
        .unwrap();
        let ep = p.func_by_name("ep").unwrap();
        assert_eq!(prescreen_ep(&p, ep, &[vec![2]]), None);
    }

    #[test]
    fn unknown_icall_disables_argument_screen_and_widens_reachability() {
        // The icall target comes from input — it could be anything,
        // including ep.
        let p = parse_program(
            "func main() {\nentry:\n fd = open\n v = getc fd\n r = icall v(1)\n halt 0\n}\n\
             func ep(x) {\nentry:\n ret x\n}\n",
        )
        .unwrap();
        let ep = p.func_by_name("ep").unwrap();
        // Reachable through the unknown icall, and no argument verdict.
        assert_eq!(prescreen_ep(&p, ep, &[vec![2]]), None);
    }

    #[test]
    fn computed_block_address_does_not_drop_call_edges() {
        // `t2 = t + 1` lands on block `b`, which `baddr` never names: the
        // recovered CFG thinks `b` is dead, yet it runs and calls `helper`.
        // A sound call graph must keep that edge (and the pre-screen must
        // not declare helper unreachable).
        let p = parse_program(
            "func main() {\nentry:\n t = baddr a\n t2 = add t, 1\n ijmp t2\n\
             a:\n halt 0\n\
             b:\n call helper()\n halt 1\n}\n\
             func helper() {\nentry:\n ret\n}\n",
        )
        .unwrap();
        let cg = build_call_graph(&p);
        let helper = p.func_by_name("helper").unwrap();
        let reach = cg.reachable_from(p.entry());
        assert!(
            reach[helper.0 as usize],
            "call edge in a CFG-unreachable block was dropped"
        );
        assert_eq!(prescreen_ep(&p, helper, &[]), None);
    }

    #[test]
    fn unresolved_icall_sites_are_recorded() {
        let p = parse_program(
            "func main() {\nentry:\n fd = open\n v = getc fd\n r = icall v(1)\n halt 0\n}\n\
             func ep(x) {\nentry:\n ret x\n}\n",
        )
        .unwrap();
        let cg = build_call_graph(&p);
        assert_eq!(cg.unresolved_icall_sites, vec![(p.entry(), BlockId(0))]);
    }

    #[test]
    fn reach_kinds_distinguish_proven_from_widened() {
        let p = parse_program(
            "func main() {\nentry:\n fd = open\n v = getc fd\n r = icall v(1)\n \
             call sub()\n halt 0\n}\n\
             func sub() {\nentry:\n ret\n}\n\
             func maybe(x) {\nentry:\n ret x\n}\n",
        )
        .unwrap();
        let cg = build_call_graph(&p);
        let kinds = cg.reach_kinds_from(p.entry());
        let sub = p.func_by_name("sub").unwrap();
        let maybe = p.func_by_name("maybe").unwrap();
        assert_eq!(kinds[p.entry().0 as usize], ReachKind::Direct);
        assert_eq!(kinds[sub.0 as usize], ReachKind::Direct);
        assert_eq!(kinds[maybe.0 as usize], ReachKind::OverApprox);
    }

    #[test]
    fn resolved_icall_contributes_exact_edge() {
        let p = parse_program(
            "func main() {\nentry:\n g = faddr a\n r = icall g(1)\n halt 0\n}\n\
             func a(x) {\nentry:\n ret x\n}\n\
             func b(x) {\nentry:\n ret x\n}\n",
        )
        .unwrap();
        let cg = build_call_graph(&p);
        let a = p.func_by_name("a").unwrap();
        let b = p.func_by_name("b").unwrap();
        let reach = cg.reachable_from(p.entry());
        assert!(reach[a.0 as usize]);
        assert!(!reach[b.0 as usize]);
        assert!(!cg.unknown_icall[p.entry().0 as usize]);
    }
}
