//! Unreachable-block detection and dead-store detection (via backward
//! liveness).

use octo_cfg::FuncCfg;
use octo_ir::{BlockId, Function, Inst, Reg};

use crate::dataflow::{reachable_blocks, solve, Analysis, BlockStates, Direction};

/// Backward liveness of registers for one function.
pub struct Liveness<'f> {
    func: &'f Function,
}

impl<'f> Liveness<'f> {
    /// Creates the analysis for `func`.
    pub fn new(func: &'f Function) -> Liveness<'f> {
        Liveness { func }
    }
}

impl Analysis for Liveness<'_> {
    type Fact = Vec<bool>;

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn boundary(&self) -> Vec<bool> {
        vec![false; self.func.n_regs as usize]
    }

    fn init(&self) -> Vec<bool> {
        vec![false; self.func.n_regs as usize]
    }

    fn join(&self, into: &mut Vec<bool>, from: &Vec<bool>) -> bool {
        let mut changed = false;
        for (a, b) in into.iter_mut().zip(from.iter()) {
            if *b && !*a {
                *a = true;
                changed = true;
            }
        }
        changed
    }

    /// `fact` is the block's live-out set; the result is live-in.
    fn transfer(&self, block: BlockId, fact: &Vec<bool>) -> Vec<bool> {
        let b = &self.func.blocks[block.0 as usize];
        let mut live = fact.clone();
        for u in b.term.uses() {
            live[u.0 as usize] = true;
        }
        for inst in b.insts.iter().rev() {
            if let Some(d) = inst.def() {
                live[d.0 as usize] = false;
            }
            for u in inst.uses() {
                live[u.0 as usize] = true;
            }
        }
        live
    }
}

/// Whether `inst` is free of side effects besides its register write, so
/// that a dead destination makes the whole instruction dead.
pub fn is_pure(inst: &Inst) -> bool {
    matches!(
        inst,
        Inst::Const { .. }
            | Inst::Move { .. }
            | Inst::Bin { .. }
            | Inst::Un { .. }
            | Inst::FuncAddr { .. }
            | Inst::BlockAddr { .. }
    )
}

/// One dead store: a pure instruction whose result is never read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadStore {
    /// Block containing the instruction.
    pub block: BlockId,
    /// Instruction index within the block.
    pub inst: usize,
    /// The register written in vain.
    pub reg: Reg,
}

/// Finds pure instructions in reachable blocks whose destination is dead.
///
/// Returns nothing when the function has unresolved indirect jumps — a
/// missing edge could hide the only reader.
pub fn dead_stores(func: &Function, cfg: &FuncCfg) -> Vec<DeadStore> {
    if !cfg.unresolved_indirect.is_empty() {
        return Vec::new();
    }
    let states: BlockStates<Vec<bool>> = solve(&Liveness::new(func), cfg);
    let reach = reachable_blocks(cfg);
    let mut out = Vec::new();
    for (bi, block) in func.blocks.iter().enumerate() {
        if !reach[bi] {
            continue;
        }
        // Walk backwards from the block's live-out set.
        let mut live = states.input[bi].clone();
        for u in block.term.uses() {
            live[u.0 as usize] = true;
        }
        for (i, inst) in block.insts.iter().enumerate().rev() {
            if let Some(d) = inst.def() {
                if is_pure(inst) && !live[d.0 as usize] {
                    out.push(DeadStore {
                        block: BlockId(bi as u32),
                        inst: i,
                        reg: d,
                    });
                }
                live[d.0 as usize] = false;
            }
            for u in inst.uses() {
                live[u.0 as usize] = true;
            }
        }
    }
    out.sort_by_key(|d| (d.block.0, d.inst));
    out
}

/// Blocks of `func` not reachable from its entry over `cfg`.
///
/// Empty when the function has unresolved indirect jumps (missing edges
/// make reachability an under-approximation).
pub fn unreachable(func: &Function, cfg: &FuncCfg) -> Vec<BlockId> {
    if !cfg.unresolved_indirect.is_empty() {
        return Vec::new();
    }
    let reach = reachable_blocks(cfg);
    (0..func.blocks.len())
        .filter(|b| !reach[*b])
        .map(|b| BlockId(b as u32))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use octo_cfg::{build_cfg, CfgMode};
    use octo_ir::parse::parse_program;

    #[test]
    fn dead_store_found_and_live_store_kept() {
        let p = parse_program("func main() {\nentry:\n a = 1\n b = 2\n halt a\n}\n").unwrap();
        let cfg = build_cfg(&p, CfgMode::Dynamic).unwrap();
        let ds = dead_stores(p.func(p.entry()), cfg.func(p.entry()));
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].inst, 1, "only `b = 2` is dead");
    }

    #[test]
    fn overwritten_store_is_dead() {
        let p = parse_program("func main() {\nentry:\n a = 1\n a = 2\n halt a\n}\n").unwrap();
        let cfg = build_cfg(&p, CfgMode::Dynamic).unwrap();
        let ds = dead_stores(p.func(p.entry()), cfg.func(p.entry()));
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].inst, 0, "the first write never survives");
    }

    #[test]
    fn impure_insts_never_reported() {
        // The call result is unused but calls have effects.
        let p = parse_program(
            "func main() {\nentry:\n r = call f(1)\n halt 0\n}\n\
             func f(a) {\nentry:\n ret a\n}\n",
        )
        .unwrap();
        let cfg = build_cfg(&p, CfgMode::Dynamic).unwrap();
        assert!(dead_stores(p.func(p.entry()), cfg.func(p.entry())).is_empty());
    }

    #[test]
    fn unreachable_block_listed() {
        let p = parse_program("func main() {\nentry:\n halt 0\ndead:\n halt 1\n}\n").unwrap();
        let cfg = build_cfg(&p, CfgMode::Dynamic).unwrap();
        let u = unreachable(p.func(p.entry()), cfg.func(p.entry()));
        assert_eq!(u, vec![BlockId(1)]);
    }
}
