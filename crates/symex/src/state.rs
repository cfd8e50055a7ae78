//! Symbolic execution state.

use std::collections::HashMap;

use octo_ir::{BlockId, FuncId, Program, Reg};
use octo_solver::{ConstraintSet, FilterMemo, Model, SolveLimits, SolveResult};
use octo_vm::Memory;

use crate::value::{SymByte, SymVal};

/// One call frame of a symbolic state.
#[derive(Debug, Clone)]
pub struct SymFrame {
    /// Function executing in this frame.
    pub func: FuncId,
    /// Current block.
    pub block: BlockId,
    /// Next instruction index within the block.
    pub idx: usize,
    /// Register file.
    pub regs: Vec<SymVal>,
    /// Caller register receiving the return value.
    pub ret_dst: Option<Reg>,
    /// Visit counts per block within this activation — the loop-state
    /// detector (paper §III-B: *loop* states are bounded by θ).
    pub visits: HashMap<BlockId, u32>,
}

/// A complete symbolic execution state: one path through `T`.
#[derive(Debug, Clone)]
pub struct SymState {
    /// Call stack (last = innermost).
    pub frames: Vec<SymFrame>,
    /// Symbolic memory: octo-vm's region model over symbolic bytes.
    pub mem: Memory<SymByte>,
    /// Concrete file position indicator.
    pub file_pos: u64,
    /// Whether `open` has run.
    pub fd_opened: bool,
    /// Path condition plus combine-phase constraints collected so far.
    pub constraints: ConstraintSet,
    /// Instructions executed on this path.
    pub steps: u64,
    /// Number of `ep` entries observed on this path.
    pub ep_entries: u32,
    /// Cached model of `constraints` (invalidated on every push).
    model_cache: Option<(usize, Model)>,
}

impl SymState {
    /// The initial state at the entry of `program`.
    pub fn initial(program: &Program) -> SymState {
        let entry = program.entry();
        let f = program.func(entry);
        SymState {
            frames: vec![SymFrame {
                func: entry,
                block: f.entry(),
                idx: 0,
                regs: vec![SymVal::C(0); f.n_regs as usize],
                ret_dst: None,
                visits: HashMap::new(),
            }],
            mem: Memory::new(),
            file_pos: 0,
            fd_opened: false,
            constraints: ConstraintSet::new(),
            steps: 0,
            ep_entries: 0,
            model_cache: None,
        }
    }

    /// The innermost frame.
    ///
    /// # Panics
    /// Panics if the state has terminated (no frames).
    pub fn top(&self) -> &SymFrame {
        self.frames.last().expect("live state")
    }

    /// The innermost frame, mutably.
    ///
    /// # Panics
    /// Panics if the state has terminated.
    pub fn top_mut(&mut self) -> &mut SymFrame {
        self.frames.last_mut().expect("live state")
    }

    /// Call depth.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// Adds a constraint, invalidating the model cache.
    pub fn add_constraint(&mut self, c: octo_solver::Constraint) {
        self.constraints.push(c);
        self.model_cache = None;
    }

    /// Solves the current constraints with the run's filter `memo`,
    /// caching the model.
    ///
    /// Returns `None` when the set is unsatisfiable or the solver budget is
    /// exhausted.
    pub fn model(&mut self, memo: &mut FilterMemo) -> Option<Model> {
        let version = self.constraints.len();
        if let Some((v, m)) = &self.model_cache {
            if *v == version {
                return Some(m.clone());
            }
        }
        match self.constraints.solve_in(SolveLimits::default(), memo) {
            SolveResult::Sat(m) => {
                self.model_cache = Some((version, m.clone()));
                Some(m)
            }
            _ => None,
        }
    }

    /// Records a visit to `block` in the innermost frame; returns the new
    /// visit count.
    pub fn visit(&mut self, block: BlockId) -> u32 {
        let frame = self.top_mut();
        let n = frame.visits.entry(block).or_insert(0);
        *n += 1;
        *n
    }

    /// Approximate memory footprint in *simulated bytes* — the accounting
    /// behind the Table IV `MemError` reproduction. Each expression node,
    /// register, and memory cell is charged a fixed cost.
    pub fn approx_bytes(&self) -> u64 {
        const NODE_COST: u64 = 48;
        const STATE_BASE: u64 = 4096;
        let reg_nodes: usize = self
            .frames
            .iter()
            .map(|f| f.regs.iter().map(SymVal::size).sum::<usize>())
            .sum();
        let mem_nodes: usize = self.mem.cells().map(SymByte::size).sum();
        let cons_nodes = self.constraints.size();
        STATE_BASE + NODE_COST * (reg_nodes + mem_nodes + cons_nodes) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octo_ir::parse::parse_program;
    use octo_solver::Constraint;

    fn program() -> Program {
        parse_program("func main() {\nentry:\n ret 0\n}\n").unwrap()
    }

    #[test]
    fn initial_state_shape() {
        let p = program();
        let s = SymState::initial(&p);
        assert_eq!(s.depth(), 1);
        assert_eq!(s.top().func, p.entry());
        assert_eq!(s.file_pos, 0);
        assert!(!s.fd_opened);
    }

    #[test]
    fn visits_count_up() {
        let p = program();
        let mut s = SymState::initial(&p);
        assert_eq!(s.visit(BlockId(0)), 1);
        assert_eq!(s.visit(BlockId(0)), 2);
        assert_eq!(s.visit(BlockId(1)), 1);
    }

    #[test]
    fn model_cache_invalidation() {
        let p = program();
        let mut s = SymState::initial(&p);
        let mut memo = FilterMemo::new();
        s.add_constraint(Constraint::byte_eq(0, 7));
        let m1 = s.model(&mut memo).unwrap();
        assert_eq!(m1.byte(0), 7);
        s.add_constraint(Constraint::byte_eq(1, 9));
        let m2 = s.model(&mut memo).unwrap();
        assert_eq!(m2.byte(1), 9);
    }

    #[test]
    fn unsat_constraints_have_no_model() {
        let p = program();
        let mut s = SymState::initial(&p);
        s.add_constraint(Constraint::byte_eq(0, 1));
        s.add_constraint(Constraint::byte_eq(0, 2));
        assert!(s.model(&mut FilterMemo::new()).is_none());
    }

    #[test]
    fn approx_bytes_counts_symbolic_memory_cells() {
        let p = program();
        let mut s = SymState::initial(&p);
        let a = s.mem.alloc(2, octo_ir::RegionKind::Heap);
        let before = s.approx_bytes();
        let wide = octo_solver::Expr::bin(
            octo_ir::BinOp::Add,
            octo_solver::Expr::byte(0),
            octo_solver::Expr::byte(1),
        );
        s.mem.write_cell(a, SymByte::S(wide)).unwrap();
        assert!(s.approx_bytes() > before);
        assert!(matches!(
            s.mem.read_cell(a + 2),
            Err(octo_vm::mem::MemFault::OutOfBounds {
                nearest: Some(octo_ir::RegionKind::Heap),
                ..
            })
        ));
    }

    #[test]
    fn approx_bytes_grows_with_constraints() {
        let p = program();
        let mut s = SymState::initial(&p);
        let before = s.approx_bytes();
        for i in 0..32 {
            s.add_constraint(Constraint::byte_eq(i, i as u8));
        }
        assert!(s.approx_bytes() > before);
    }
}
