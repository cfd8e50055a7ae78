//! CFG/lint golden: pins what CFG recovery and the static analyses
//! built on it answer over the corpus.
//!
//! Every program (the 15 pairs' S and T, the latest-version T's and the
//! `variant_corpus()` T's) gets five rows in `golden/cfg_lint.txt`:
//! `build_cfg` in static and in dynamic mode (edge and call-edge counts,
//! the unresolved blocks and a digest of every function's succs, preds
//! and calls, or the `CfgError` text), the `lint_program` JSON, the call
//! graph (`unknown_icall`, `addr_taken`, the unresolved `icall` sites and
//! the reach kind of every function from the entry), and `prescreen_ep`
//! with each function as `ep`, without and with a fixed recording. A
//! refactor of edge recovery or of the lint analyses must leave it
//! byte-identical; it is regenerated only for a deliberate change of
//! their semantics.

use octo_cfg::{build_cfg, CfgMode};
use octo_corpus::{all_pairs, latest_pairs, variant_corpus};
use octo_ir::{BlockId, FuncId, Program};
use octo_lint::{build_call_graph, lint_program, prescreen_ep, Prescreen, ReachKind};
use octo_sched::KeyHasher;

const GOLDEN: &str = include_str!("golden/cfg_lint.txt");

/// The recording every `ep` is pre-screened against in the second run:
/// the tag the hard-coded-argument pairs' S crashed on, then a zero.
const RECORDING: [u64; 2] = [317, 0];

fn programs() -> Vec<(String, Program)> {
    let mut out = Vec::new();
    for pair in all_pairs() {
        out.push((format!("idx{:02}.s", pair.idx), pair.s.clone()));
        out.push((format!("idx{:02}.t", pair.idx), pair.t));
    }
    for pair in latest_pairs() {
        out.push((format!("latest-idx{:02}.t", pair.idx), pair.t));
    }
    for case in variant_corpus() {
        out.push((format!("{}.t", case.name), case.t));
    }
    out
}

fn site(p: &Program, func: FuncId, block: BlockId) -> String {
    let f = p.func(func);
    format!("{}:{}", f.name, f.blocks[block.0 as usize].label)
}

fn ids(hasher: &mut KeyHasher, blocks: &[BlockId]) {
    hasher.write_u64(blocks.len() as u64);
    for b in blocks {
        hasher.write_u64(u64::from(b.0));
    }
}

fn cfg_row(name: &str, p: &Program, mode: CfgMode) -> String {
    let cfg = match build_cfg(p, mode) {
        Ok(cfg) => cfg,
        Err(e) => return format!("cfg {name} {mode:?} error={:?}", e.to_string()),
    };
    let mut hasher = KeyHasher::new();
    let mut unresolved = Vec::new();
    for (fid, _) in p.iter() {
        let f = cfg.func(fid);
        hasher.write_u64(u64::from(fid.0));
        for (succs, preds) in f.succs.iter().zip(&f.preds) {
            ids(&mut hasher, succs);
            ids(&mut hasher, preds);
        }
        hasher.write_u64(f.calls.len() as u64);
        for (block, callee) in &f.calls {
            hasher.write_u64(u64::from(block.0));
            hasher.write_u64(u64::from(callee.0));
        }
        unresolved.extend(f.unresolved_indirect.iter().map(|b| site(p, fid, *b)));
    }
    format!(
        "cfg {name} {mode:?} edges={} calls={} unresolved=[{}] digest={:016x}",
        cfg.edge_count(),
        cfg.call_edge_count(),
        unresolved.join(","),
        hasher.finish()
    )
}

fn callgraph_row(name: &str, p: &Program) -> String {
    let cg = build_call_graph(p);
    let named = |flags: &[bool]| -> String {
        let names: Vec<&str> = p
            .iter()
            .filter(|(fid, _)| flags[fid.0 as usize])
            .map(|(_, f)| f.name.as_str())
            .collect();
        names.join(",")
    };
    let sites: Vec<String> = cg
        .unresolved_icall_sites
        .iter()
        .map(|(f, b)| site(p, *f, *b))
        .collect();
    let reach: String = cg
        .reach_kinds_from(p.entry())
        .iter()
        .map(|k| match k {
            ReachKind::Direct => 'D',
            ReachKind::OverApprox => 'O',
            ReachKind::No => 'N',
        })
        .collect();
    format!(
        "callgraph {name} unknown_icall=[{}] addr_taken=[{}] unresolved_icall_sites=[{}] \
         reach={reach}",
        named(&cg.unknown_icall),
        named(&cg.addr_taken),
        sites.join(","),
    )
}

fn prescreen_row(name: &str, p: &Program) -> String {
    let label = |outcome: Option<Prescreen>| match outcome {
        None => "-".to_string(),
        Some(Prescreen::EpUnreachable) => "U".to_string(),
        Some(Prescreen::ArgsNeverMatch { entry }) => format!("A{entry}"),
    };
    let outcomes: Vec<String> = p
        .iter()
        .map(|(ep, f)| {
            format!(
                "{}={}/{}",
                f.name,
                label(prescreen_ep(p, ep, &[])),
                label(prescreen_ep(p, ep, &[RECORDING.to_vec()]))
            )
        })
        .collect();
    format!("prescreen {name} {}", outcomes.join(" "))
}

/// The rows, in golden order.
fn rows() -> Vec<String> {
    let mut rows = Vec::new();
    for (name, p) in programs() {
        rows.push(cfg_row(&name, &p, CfgMode::Static));
        rows.push(cfg_row(&name, &p, CfgMode::Dynamic));
        rows.push(format!("lint {name} {}", lint_program(&p).render_json()));
        rows.push(callgraph_row(&name, &p));
        rows.push(prescreen_row(&name, &p));
    }
    rows
}

#[test]
fn cfg_and_lint_answers_match_the_golden_file() {
    let rows = rows();
    assert_eq!(rows.len(), (30 + 3 + 60) * 5);
    let actual: String = rows.iter().map(|r| format!("{r}\n")).collect();
    if actual != GOLDEN {
        let first = actual
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(GOLDEN.lines().count()));
        panic!(
            "answers drifted from tests/golden/cfg_lint.txt at row {}:\n  \
             golden: {}\n  actual: {}\n--- actual ---\n{actual}",
            first + 1,
            GOLDEN.lines().nth(first).unwrap_or("<missing>"),
            actual.lines().nth(first).unwrap_or("<missing>"),
        );
    }
}
