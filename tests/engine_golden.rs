//! Engine golden: pins what directed and naive symbolic execution do on
//! the corpus, counter by counter.
//!
//! Each row of `golden/engine_stats.txt` is one pipeline run (every Table
//! II pair under the default, loop-accelerated and θ=4 accelerated
//! configurations) or one naive exploration (the Table IV pairs). A
//! refactor of the engine that changes fork order, constraint shape or
//! memory accounting moves some counter here even when every verdict
//! holds. The golden is regenerated only for a deliberate change of
//! engine semantics, never to make a refactor pass.
//!
//! `golden/p1_stats.txt` pins phase P1 the same way: for every pair under
//! byte- and word-level tainting, context-aware and context-free, the
//! `ep` that `prepare` picked, the crash of `S`, every bunch with its `ep`
//! arguments, and every taint counter.

use octo_corpus::{all_pairs, pair_by_idx};
use octo_symex::directed::DeathNote;
use octo_symex::{DirectedStats, NaiveExplorer, NaiveOutcome, NaiveStats};
use octo_taint::{ContextMode, Granularity};
use octo_vm::CrashReport;
use octopocs::{
    prepare, verify, FailureReason, PipelineConfig, PreparedSource, SoftwarePairInput,
    VerificationReport,
};

const GOLDEN: &str = include_str!("golden/engine_stats.txt");
const P1_GOLDEN: &str = include_str!("golden/p1_stats.txt");

fn configs() -> [(&'static str, PipelineConfig); 3] {
    [
        ("default", PipelineConfig::default()),
        ("accel", PipelineConfig::default().accelerate_loops()),
        (
            "theta4-accel",
            PipelineConfig::default().with_theta(4).accelerate_loops(),
        ),
    ]
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn symex_fields(stats: &DirectedStats) -> String {
    let DirectedStats {
        wall_seconds: _,
        peak_mem_bytes,
        total_steps,
        backtracks,
        peak_fallback_depth,
        loop_retries,
        forced_branches,
        solver_calls,
        solver_micros: _,
        interval_refutations,
        simplify_rewrites,
        death,
    } = stats;
    let death = match death {
        None => "none".to_string(),
        Some(DeathNote {
            reason,
            ep_entries,
            constraints,
            last_constraint,
            fallback_depth,
        }) => format!(
            "{reason}/ep{ep_entries}/c{constraints}/fb{fallback_depth}/last={:?}",
            last_constraint
        ),
    };
    format!(
        "peak_mem={peak_mem_bytes} steps={total_steps} backtracks={backtracks} \
         peak_fallbacks={peak_fallback_depth} loop_retries={loop_retries} \
         forced={forced_branches} solver_calls={solver_calls} \
         interval_refutations={interval_refutations} rewrites={simplify_rewrites} \
         death={death}"
    )
}

fn pipeline_row(idx: u32, config_name: &str, report: &VerificationReport) -> String {
    let poc = report
        .poc_prime()
        .map_or("-".to_string(), |p| hex(p.bytes()));
    let symex = report
        .symex_stats
        .as_ref()
        .map_or("symex=none".to_string(), symex_fields);
    format!(
        "pipeline idx={idx:02} config={config_name} verdict={:?} ep_entries={} \
         p1_insts={} p4_insts={} {symex} poc={poc}",
        report.verdict.to_string(),
        report.ep_entries,
        report.p1_insts,
        report.p4_insts,
    )
}

fn naive_row(idx: u32, outcome: &NaiveOutcome, stats: &NaiveStats) -> String {
    let label = match outcome {
        NaiveOutcome::ReachedTarget { .. } => "reached-target",
        NaiveOutcome::MemError => "mem-error",
        NaiveOutcome::BudgetExhausted => "budget-exhausted",
        NaiveOutcome::Exhausted => "exhausted",
    };
    let NaiveStats {
        wall_seconds: _,
        peak_mem_bytes,
        total_steps,
        states_created,
        peak_states,
    } = stats;
    format!(
        "naive idx={idx:02} outcome={label} peak_mem={peak_mem_bytes} steps={total_steps} \
         states_created={states_created} peak_states={peak_states}"
    )
}

/// The rows, in golden order.
fn engine_rows() -> Vec<String> {
    let mut rows = Vec::new();
    for pair in all_pairs() {
        let input = SoftwarePairInput {
            s: &pair.s,
            t: &pair.t,
            poc: &pair.poc,
            shared: &pair.shared,
        };
        for (name, config) in configs() {
            rows.push(pipeline_row(pair.idx, name, &verify(&input, &config)));
        }
    }
    // Table IV: the naive baseline exactly as `tests/table4.rs` runs it.
    for idx in [7u32, 8, 9] {
        let pair = pair_by_idx(idx).expect("pair");
        let ep = pair.t.func_by_name(&pair.shared[0]).expect("ep in T");
        let file_len = pair.poc.len() as u64 + 64;
        let (outcome, stats) = NaiveExplorer::new(&pair.t, file_len, ep).run();
        rows.push(naive_row(idx, &outcome, &stats));
    }
    rows
}

/// Panics with the first differing row and the full actual table when
/// `rows` differ from the golden file `name`.
fn assert_matches_golden(name: &str, rows: &[String], golden: &str) {
    let actual: String = rows.iter().map(|r| format!("{r}\n")).collect();
    if actual != golden {
        let first = actual
            .lines()
            .zip(golden.lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(golden.lines().count()));
        panic!(
            "counters drifted from tests/golden/{name} at row {}:\n  \
             golden: {}\n  actual: {}\n--- actual ---\n{actual}",
            first + 1,
            golden.lines().nth(first).unwrap_or("<missing>"),
            actual.lines().nth(first).unwrap_or("<missing>"),
        );
    }
}

#[test]
fn engine_counters_match_the_golden_file() {
    let rows = engine_rows();
    assert!(
        rows.iter()
            .any(|r| !r.contains(" forced=0 ") && r.contains(" forced=")),
        "no row exercises loop acceleration"
    );
    assert_matches_golden("engine_stats.txt", &rows, GOLDEN);
}

fn crash_fields(crash: &CrashReport) -> String {
    let frames: Vec<&str> = crash
        .backtrace
        .frames()
        .iter()
        .map(|(_, name)| name.as_str())
        .collect();
    format!(
        "crash={} bt={} s_insts={}",
        crash.kind.class(),
        frames.join(">"),
        crash.insts_executed
    )
}

fn prepared_fields(prep: &PreparedSource) -> String {
    let q = &prep.primitives;
    let bunches: Vec<String> = (0..q.entry_count())
        .map(|k| {
            let bunch = q.bunch(k).expect("bunch");
            let bytes: Vec<String> = bunch.iter().map(|(o, v)| format!("{o}:{v:02x}")).collect();
            let args: Vec<String> = q
                .args(k)
                .unwrap_or_default()
                .iter()
                .map(u64::to_string)
                .collect();
            format!("{}{{{}}}({})", bunch.seq, bytes.join(","), args.join(","))
        })
        .collect();
    format!(
        "ep={} {} ep_entries={} p1_insts={} bytes_uploaded={} peak_tainted_addrs={} \
         taint_records={} bunches={}",
        prep.ep_name,
        crash_fields(&prep.s_crash),
        prep.ep_entries,
        prep.p1_insts,
        prep.taint.bytes_uploaded,
        prep.taint.peak_tainted_addrs,
        prep.taint.taint_records,
        bunches.join(";"),
    )
}

fn failure_fields(reason: &FailureReason) -> String {
    format!("failure={reason:?}")
}

/// The P1 rows, in golden order: pair × granularity × context mode.
fn p1_rows() -> Vec<String> {
    let mut rows = Vec::new();
    for pair in all_pairs() {
        for (gran_name, granularity) in [("byte", Granularity::Byte), ("word", Granularity::Word)] {
            for (ctx_name, context) in [
                ("aware", ContextMode::ContextAware),
                ("free", ContextMode::ContextFree),
            ] {
                let config = PipelineConfig {
                    taint_granularity: granularity,
                    taint_context: context,
                    ..PipelineConfig::default()
                };
                let fields = match prepare(&pair.s, &pair.poc, &pair.shared, &config) {
                    Ok(prep) => prepared_fields(&prep),
                    Err(failure) => failure_fields(&failure),
                };
                rows.push(format!(
                    "p1 idx={:02} gran={gran_name} ctx={ctx_name} {fields}",
                    pair.idx
                ));
            }
        }
    }
    rows
}

#[test]
fn p1_extraction_matches_the_golden_file() {
    let rows = p1_rows();
    assert_eq!(rows.len(), 15 * 4);
    assert_matches_golden("p1_stats.txt", &rows, P1_GOLDEN);
}
