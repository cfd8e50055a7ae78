//! Backward path finding over the interprocedural supergraph.
//!
//! OctoPoCs knows the *destination* (`ep`) and needs a path from the entry
//! of `T` to it; tracing forward would explore every branch, so the paper
//! traces backward from `ep` (§III-B, "Backward path finding"). The same
//! reverse breadth-first search yields, as a by-product, the distance of
//! every supergraph node to `ep` — which is also the distance metric the
//! AFLGo baseline schedules seeds by.

use std::collections::{HashMap, VecDeque};

use octo_ir::{BlockId, FuncId, Program};

use crate::graph::Cfg;

/// A supergraph node: a basic block within a function.
pub type Node = (FuncId, BlockId);

/// Distances (in supergraph edges) from every node to the entry block of a
/// target function.
#[derive(Debug, Clone)]
pub struct DistanceMap {
    dist: HashMap<Node, u32>,
}

impl DistanceMap {
    /// Computes distances to `(target, entry)` by reverse BFS.
    ///
    /// Forward edges considered: intraprocedural successors and call edges
    /// `block → (callee, entry)`. A node absent from the map cannot reach
    /// the target at all.
    pub fn compute(program: &Program, cfg: &Cfg, target: FuncId) -> DistanceMap {
        // Build the reverse adjacency implicitly: we need, for each node,
        // its forward successors; we BFS over reversed edges, so collect
        // predecessors: intra preds + "caller" edges (callee entry ←
        // calling block).
        let mut rev: HashMap<Node, Vec<Node>> = HashMap::new();
        for (fid, _) in program.iter() {
            let fcfg = cfg.func(fid);
            for (bi, ss) in fcfg.succs.iter().enumerate() {
                let from = (fid, BlockId(bi as u32));
                for s in ss {
                    rev.entry((fid, *s)).or_default().push(from);
                }
            }
            for (block, callee) in &fcfg.calls {
                let callee_entry = (*callee, program.func(*callee).entry());
                rev.entry(callee_entry).or_default().push((fid, *block));
            }
        }

        let mut dist = HashMap::new();
        let start: Node = (target, program.func(target).entry());
        dist.insert(start, 0u32);
        let mut queue = VecDeque::from([start]);
        while let Some(node) = queue.pop_front() {
            let d = dist[&node];
            if let Some(preds) = rev.get(&node) {
                for p in preds {
                    if !dist.contains_key(p) {
                        dist.insert(*p, d + 1);
                        queue.push_back(*p);
                    }
                }
            }
        }
        DistanceMap { dist }
    }

    /// Distance of a node, or `None` if the node cannot reach the target.
    pub fn get(&self, func: FuncId, block: BlockId) -> Option<u32> {
        self.dist.get(&(func, block)).copied()
    }

    /// Whether the target is reachable from `node`.
    pub fn reaches(&self, func: FuncId, block: BlockId) -> bool {
        self.dist.contains_key(&(func, block))
    }

    /// The largest finite distance in the map (0 when only the target
    /// itself reaches it). Used to normalise seed distances in the AFLGo
    /// baseline.
    pub fn max_distance(&self) -> u32 {
        self.dist.values().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{build_cfg, CfgMode};
    use octo_ir::parse::parse_program;

    const PROGRAM: &str = r#"
func main() {
entry:
    fd = open
    v = getc fd
    c = eq v, 1
    br c, towards, away
towards:
    call middle()
    halt 0
away:
    halt 1
}
func middle() {
entry:
    call target_fn()
    ret
}
func target_fn() {
entry:
    ret
}
func unrelated() {
entry:
    ret
}
"#;

    fn setup() -> (octo_ir::Program, Cfg, DistanceMap) {
        let p = parse_program(PROGRAM).unwrap();
        let cfg = build_cfg(&p, CfgMode::Dynamic).unwrap();
        let target = p.func_by_name("target_fn").unwrap();
        let map = DistanceMap::compute(&p, &cfg, target);
        (p, cfg, map)
    }

    #[test]
    fn distances_decrease_along_call_chain() {
        let (p, _, map) = setup();
        let main = p.entry();
        let middle = p.func_by_name("middle").unwrap();
        let target = p.func_by_name("target_fn").unwrap();
        let d_main = map.get(main, BlockId(0)).unwrap();
        let d_middle = map.get(middle, BlockId(0)).unwrap();
        let d_target = map.get(target, BlockId(0)).unwrap();
        assert_eq!(d_target, 0);
        assert!(d_middle < d_main);
        assert!(d_middle >= 1);
    }

    #[test]
    fn branch_successors_distinguish_direction() {
        let (p, _, map) = setup();
        let main_f = p.func(p.entry());
        let towards = main_f.block_by_label("towards").unwrap();
        let away = main_f.block_by_label("away").unwrap();
        assert!(map.reaches(p.entry(), towards));
        assert!(!map.reaches(p.entry(), away));
    }

    #[test]
    fn unrelated_function_cannot_reach() {
        let (p, _, map) = setup();
        let unrelated = p.func_by_name("unrelated").unwrap();
        assert!(!map.reaches(unrelated, BlockId(0)));
    }

    #[test]
    fn unreachable_target_yields_none() {
        let (p, cfg, _) = setup();
        let unrelated = p.func_by_name("unrelated").unwrap();
        let map = DistanceMap::compute(&p, &cfg, unrelated);
        assert!(!map.reaches(p.entry(), BlockId(0)));
        assert_eq!(map.get(p.entry(), BlockId(0)), None);
    }

    #[test]
    fn static_mode_misses_indirect_paths() {
        let src = r#"
func main() {
entry:
    t = baddr hop
    ijmp t
hop:
    call target_fn()
    halt 0
}
func target_fn() {
entry:
    ret
}
"#;
        let p = parse_program(src).unwrap();
        let target = p.func_by_name("target_fn").unwrap();
        let s = build_cfg(&p, CfgMode::Static).unwrap();
        let d = build_cfg(&p, CfgMode::Dynamic).unwrap();
        let map_s = DistanceMap::compute(&p, &s, target);
        let map_d = DistanceMap::compute(&p, &d, target);
        // Statically, entry cannot reach the target (edge missing);
        // dynamically it can.
        assert!(!map_s.reaches(p.entry(), BlockId(0)));
        assert!(map_d.reaches(p.entry(), BlockId(0)));
    }
}
