//! Property tests for CFG recovery and backward path finding.

use octo_cfg::{build_cfg, CfgMode, DistanceMap};
use octo_ir::parse::parse_program;
use octo_ir::{BlockId, Program};
use proptest::prelude::*;

/// Generates a random call-chain program: `main` walks through a random
/// branch structure; some leaves call into a chain of helpers ending at
/// `target_fn`.
fn chain_program(gates: &[bool], chain_len: usize) -> Program {
    let mut src = String::from("func main() {\nentry:\n    fd = open\n    jmp g0\n");
    for (i, reaches) in gates.iter().enumerate() {
        let on_true = if *reaches {
            "call_site".to_string()
        } else {
            format!("g{}", i + 1)
        };
        src.push_str(&format!(
            "g{i}:\n    b{i} = getc fd\n    c{i} = eq b{i}, {i}\n    br c{i}, {on_true}, g{next}\n",
            next = i + 1
        ));
    }
    src.push_str(&format!(
        "g{}:\n    halt 1\ncall_site:\n    call h0()\n    halt 0\n}}\n",
        gates.len()
    ));
    for i in 0..chain_len {
        let callee = if i + 1 == chain_len {
            "target_fn".to_string()
        } else {
            format!("h{}", i + 1)
        };
        src.push_str(&format!(
            "func h{i}() {{\nentry:\n    call {callee}()\n    ret\n}}\n"
        ));
    }
    src.push_str("func target_fn() {\nentry:\n    ret\n}\n");
    parse_program(&src).expect("generated program parses")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Triangle property: every node with distance d > 0 has a successor
    /// or callee entry at distance d - 1 (the oracle directed execution
    /// relies on is locally consistent).
    #[test]
    fn distance_map_is_locally_consistent(
        gates in prop::collection::vec(any::<bool>(), 1..5),
        chain_len in 1usize..4,
    ) {
        let p = chain_program(&gates, chain_len);
        let cfg = build_cfg(&p, CfgMode::Dynamic).expect("cfg");
        let target = p.func_by_name("target_fn").expect("target");
        let map = DistanceMap::compute(&p, &cfg, target);
        for (fid, func) in p.iter() {
            let fcfg = cfg.func(fid);
            for bi in 0..func.blocks.len() {
                let b = BlockId(bi as u32);
                let Some(d) = map.get(fid, b) else { continue };
                if d == 0 {
                    continue;
                }
                let via_succ = fcfg.succs[bi]
                    .iter()
                    .filter_map(|s| map.get(fid, *s))
                    .any(|ds| ds == d - 1);
                let via_call = fcfg
                    .calls
                    .iter()
                    .filter(|(blk, _)| *blk == b)
                    .filter_map(|(_, callee)| map.get(*callee, p.func(*callee).entry()))
                    .any(|ds| ds == d - 1);
                prop_assert!(
                    via_succ || via_call,
                    "node ({fid:?},{b:?}) at d={d} has no neighbour at d-1"
                );
            }
        }
    }

    /// Reachability matches the gate structure: the entry reaches the
    /// target iff some gate leads to the call site.
    #[test]
    fn reachability_matches_generator(
        gates in prop::collection::vec(any::<bool>(), 1..5),
        chain_len in 1usize..4,
    ) {
        let p = chain_program(&gates, chain_len);
        let cfg = build_cfg(&p, CfgMode::Dynamic).expect("cfg");
        let target = p.func_by_name("target_fn").expect("target");
        let map = DistanceMap::compute(&p, &cfg, target);
        let expected = gates.iter().any(|g| *g);
        prop_assert_eq!(map.reaches(p.entry(), BlockId(0)), expected);
    }

    /// Static and dynamic recovery agree on programs without indirect
    /// control flow.
    #[test]
    fn static_equals_dynamic_without_indirection(
        gates in prop::collection::vec(any::<bool>(), 1..5),
        chain_len in 1usize..4,
    ) {
        let p = chain_program(&gates, chain_len);
        let s = build_cfg(&p, CfgMode::Static).expect("static");
        let d = build_cfg(&p, CfgMode::Dynamic).expect("dynamic");
        prop_assert_eq!(s.edge_count(), d.edge_count());
        prop_assert_eq!(s.call_edge_count(), d.call_edge_count());
    }
}
