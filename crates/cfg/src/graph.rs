//! CFG construction (static and dynamic modes).

use std::fmt;

use octo_ir::{BlockId, FuncId, Function, Inst, Program, Terminator};

/// Which recovery algorithm to use (paper §IV-B discusses both).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CfgMode {
    /// Direct edges only; indirect jumps contribute no edges.
    Static,
    /// Direct edges plus address-taken resolution of indirect jumps and
    /// calls. Fails when an indirect jump has no discoverable targets.
    #[default]
    Dynamic,
}

/// CFG recovery failure (dynamic mode only).
///
/// This is the observable the paper reports for Idx-15: the tool cannot
/// build a usable CFG of the target binary, so verification fails —
/// classified as *Failure*, not Type-III.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CfgError {
    /// Function whose CFG could not be recovered.
    pub func: String,
    /// Block whose indirect terminator is unresolvable.
    pub block: BlockId,
    /// Human-readable reason.
    pub reason: String,
}

impl fmt::Display for CfgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CFG recovery failed in `{}` at {}: {}",
            self.func, self.block, self.reason
        )
    }
}

impl std::error::Error for CfgError {}

/// Recovered control flow for one function.
#[derive(Debug, Clone, Default)]
pub struct FuncCfg {
    /// Intraprocedural successors per block.
    pub succs: Vec<Vec<BlockId>>,
    /// Intraprocedural predecessors per block.
    pub preds: Vec<Vec<BlockId>>,
    /// Call edges: `(block, callee)` for every direct call plus, in
    /// dynamic mode, every candidate of every indirect call.
    pub calls: Vec<(BlockId, FuncId)>,
    /// Blocks ending in an indirect jump that recovery gave no
    /// successors: every `ijmp` in static mode, and in dynamic mode one in
    /// a function that takes no block address.
    pub unresolved_indirect: Vec<BlockId>,
}

/// Recovered control flow for a whole program.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Per-function graphs, indexed by `FuncId`.
    pub funcs: Vec<FuncCfg>,
    /// Mode the graph was built with.
    pub mode: CfgMode,
}

impl Cfg {
    /// The per-function graph for `func`.
    ///
    /// # Panics
    /// Panics if `func` is out of range for the originating program.
    pub fn func(&self, func: FuncId) -> &FuncCfg {
        &self.funcs[func.0 as usize]
    }

    /// Total number of intraprocedural edges.
    pub fn edge_count(&self) -> usize {
        self.funcs
            .iter()
            .map(|f| f.succs.iter().map(Vec::len).sum::<usize>())
            .sum()
    }

    /// Total number of call edges.
    pub fn call_edge_count(&self) -> usize {
        self.funcs.iter().map(|f| f.calls.len()).sum()
    }

    /// Whether any block's indirect control flow is unresolved (possible in
    /// static mode; dynamic mode errors instead).
    pub fn has_unresolved_indirect(&self) -> bool {
        self.funcs.iter().any(|f| !f.unresolved_indirect.is_empty())
    }
}

/// Builds the CFG of `program` in the requested mode.
///
/// # Errors
/// In [`CfgMode::Dynamic`], fails with [`CfgError`] when a function contains
/// an indirect jump and no block addresses are taken anywhere in that
/// function — there is nothing for address-taken resolution to propose, so
/// the recovered graph would silently miss real edges.
pub fn build_cfg(program: &Program, mode: CfgMode) -> Result<Cfg, CfgError> {
    // Functions whose address is taken anywhere in the program are indirect
    // call candidates.
    let mut addr_taken_funcs: Vec<FuncId> = Vec::new();
    for (_, f) in program.iter() {
        for b in &f.blocks {
            for inst in &b.insts {
                if let Inst::FuncAddr { func, .. } = inst {
                    if !addr_taken_funcs.contains(func) {
                        addr_taken_funcs.push(*func);
                    }
                }
            }
        }
    }

    let mut funcs = Vec::with_capacity(program.function_count());
    for (_, f) in program.iter() {
        let fcfg = func_cfg(f, mode, &addr_taken_funcs);
        if mode == CfgMode::Dynamic {
            if let Some(&block) = fcfg.unresolved_indirect.first() {
                return Err(CfgError {
                    func: f.name.clone(),
                    block,
                    reason: "indirect jump with no address-taken candidate \
                             targets; cannot recover edges"
                        .into(),
                });
            }
        }
        funcs.push(fcfg);
    }
    Ok(Cfg { funcs, mode })
}

/// Recovers the control flow of one function in `mode`.
///
/// In dynamic mode each `icall` gets a call edge to every function in
/// `icall_candidates`, and an `ijmp` gets every block whose address the
/// function takes as successors. An `ijmp` left without successors (every
/// one in static mode, and in dynamic mode one in a function that takes
/// no block address) is listed in [`FuncCfg::unresolved_indirect`] instead
/// of failing, so per-function analyses can treat that one function
/// conservatively.
pub fn func_cfg(func: &Function, mode: CfgMode, icall_candidates: &[FuncId]) -> FuncCfg {
    let n = func.blocks.len();
    let mut succs: Vec<Vec<BlockId>> = vec![Vec::new(); n];
    let mut calls: Vec<(BlockId, FuncId)> = Vec::new();
    let mut unresolved: Vec<BlockId> = Vec::new();

    // Blocks whose address is taken within this function: the candidate
    // targets for its indirect jumps. Static mode proposes none.
    let mut addr_taken_blocks: Vec<BlockId> = Vec::new();
    if mode == CfgMode::Dynamic {
        for b in &func.blocks {
            for inst in &b.insts {
                if let Inst::BlockAddr { block, .. } = inst {
                    if !addr_taken_blocks.contains(block) {
                        addr_taken_blocks.push(*block);
                    }
                }
            }
        }
    }

    for (bi, b) in func.blocks.iter().enumerate() {
        let bid = BlockId(bi as u32);
        for inst in &b.insts {
            match inst {
                Inst::Call { callee, .. } => calls.push((bid, *callee)),
                Inst::CallIndirect { .. } if mode == CfgMode::Dynamic => {
                    calls.extend(icall_candidates.iter().map(|cand| (bid, *cand)));
                }
                _ => {}
            }
        }
        match &b.term {
            Terminator::JmpIndirect { .. } if addr_taken_blocks.is_empty() => unresolved.push(bid),
            Terminator::JmpIndirect { .. } => succs[bi].extend(addr_taken_blocks.iter().copied()),
            term => succs[bi].extend(term.static_successors()),
        }
        succs[bi].sort_by_key(|b| b.0);
        succs[bi].dedup();
    }

    let mut preds: Vec<Vec<BlockId>> = vec![Vec::new(); n];
    for (bi, ss) in succs.iter().enumerate() {
        for s in ss {
            preds[s.0 as usize].push(BlockId(bi as u32));
        }
    }
    calls.sort_by_key(|(b, f)| (b.0, f.0));
    calls.dedup();

    FuncCfg {
        succs,
        preds,
        calls,
        unresolved_indirect: unresolved,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octo_ir::parse::parse_program;

    const DISPATCH: &str = r#"
func main() {
entry:
    fd = open
    v = getc fd
    a = baddr blk_a
    b = baddr blk_b
    c = eq v, 1
    br c, pick_a, pick_b
pick_a:
    t = a
    jmp go
pick_b:
    t = b
    jmp go
go:
    ijmp t
blk_a:
    halt 1
blk_b:
    halt 2
}
"#;

    #[test]
    fn static_mode_leaves_indirect_unresolved() {
        let p = parse_program(DISPATCH).unwrap();
        let cfg = build_cfg(&p, CfgMode::Static).unwrap();
        let f = cfg.func(p.entry());
        assert!(cfg.has_unresolved_indirect());
        // the `go` block has no successors statically
        let go = p.func(p.entry()).block_by_label("go").unwrap();
        assert!(f.succs[go.0 as usize].is_empty());
        assert_eq!(f.unresolved_indirect, vec![go]);
    }

    #[test]
    fn dynamic_mode_resolves_address_taken_targets() {
        let p = parse_program(DISPATCH).unwrap();
        let cfg = build_cfg(&p, CfgMode::Dynamic).unwrap();
        let main = p.func(p.entry());
        let f = cfg.func(p.entry());
        let go = main.block_by_label("go").unwrap();
        let a = main.block_by_label("blk_a").unwrap();
        let b = main.block_by_label("blk_b").unwrap();
        let mut ss = f.succs[go.0 as usize].clone();
        ss.sort_by_key(|x| x.0);
        assert_eq!(ss, vec![a, b]);
        assert!(!cfg.has_unresolved_indirect());
    }

    #[test]
    fn dynamic_mode_fails_on_computed_goto_without_candidates() {
        // The Idx-15 shape: the jump target is pure arithmetic; no baddr.
        let src = r#"
func main() {
entry:
    t = 0xB10C_0000_0000_0000
    ijmp t
dead:
    halt 0
}
"#;
        let p = parse_program(src).unwrap();
        let err = build_cfg(&p, CfgMode::Dynamic).unwrap_err();
        assert_eq!(err.func, "main");
        assert_eq!(err.block, BlockId(0));
        assert!(err.reason.contains("no address-taken"));
        // One function's recovery marks the block instead of failing.
        let f = func_cfg(p.func(p.entry()), CfgMode::Dynamic, &[]);
        assert_eq!(f.unresolved_indirect, vec![BlockId(0)]);
        assert!(f.succs[0].is_empty());
        // Static mode still "succeeds" (with missing edges).
        assert!(build_cfg(&p, CfgMode::Static).is_ok());
    }

    #[test]
    fn call_edges_recorded() {
        let src = r#"
func main() {
entry:
    r = call f(1)
    g = faddr h
    s = icall g(2)
    halt s
}
func f(a) {
entry:
    ret a
}
func h(a) {
entry:
    ret a
}
"#;
        let p = parse_program(src).unwrap();
        let cfg = build_cfg(&p, CfgMode::Dynamic).unwrap();
        let f = cfg.func(p.entry());
        let names: Vec<&str> = f
            .calls
            .iter()
            .map(|(_, callee)| p.func(*callee).name.as_str())
            .collect();
        assert_eq!(names, vec!["f", "h"]);
        // Static mode sees only the direct call.
        let cfg_s = build_cfg(&p, CfgMode::Static).unwrap();
        assert_eq!(cfg_s.func(p.entry()).calls.len(), 1);
    }

    #[test]
    fn preds_mirror_succs() {
        let p = parse_program(DISPATCH).unwrap();
        let cfg = build_cfg(&p, CfgMode::Dynamic).unwrap();
        let f = cfg.func(p.entry());
        for (bi, ss) in f.succs.iter().enumerate() {
            for s in ss {
                assert!(f.preds[s.0 as usize].contains(&BlockId(bi as u32)));
            }
        }
        assert!(cfg.edge_count() >= 6);
    }
}
