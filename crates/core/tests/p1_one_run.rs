//! `prepare` against its two-run reference.
//!
//! The reference is the paper's preprocessing step followed by P1 as two
//! separate runs of `S`: `identify_ep` picks `ep` off the crash backtrace
//! of a concrete run, then `extract_with_limits` runs the taint engine on
//! that `ep`. `prepare` must agree with it on every field of its result,
//! on every failure, and on the flight-recorder events P1 emits.

use std::sync::Arc;

use octo_corpus::all_pairs;
use octo_ir::parse::parse_program;
use octo_ir::Program;
use octo_poc::PocFile;
use octo_taint::{extract_with_limits, ContextMode, Granularity, TaintConfig, TaintError};
use octo_trace::{FlightRecorder, TraceKind};
use octopocs::{
    identify_ep, prepare, FailureReason, PipelineConfig, PreparedSource, PreprocessError,
};

/// `prepare` as two runs of `S`: preprocessing, then P1 on the `ep` it
/// found.
fn reference(
    s: &Program,
    poc: &PocFile,
    shared: &[String],
    config: &PipelineConfig,
) -> Result<PreparedSource, FailureReason> {
    let info = match identify_ep(s, poc, shared, config.vm_limits) {
        Ok(info) => info,
        Err(PreprocessError::NoCrash { exit_code }) => {
            return Err(FailureReason::PocDoesNotCrashS { exit_code })
        }
        Err(PreprocessError::NoSharedFrame | PreprocessError::SharedSetEmpty) => {
            return Err(FailureReason::EpNotOnCrashStack)
        }
    };
    let taint_config = TaintConfig {
        ep: info.ep,
        shared: s.resolve_names(shared.iter().map(String::as_str)),
        granularity: config.taint_granularity,
        context: config.taint_context,
    };
    match extract_with_limits(s, poc, &taint_config, config.vm_limits) {
        Ok(ex) => Ok(PreparedSource {
            ep: info.ep,
            ep_name: info.ep_name,
            s_crash: info.s_crash,
            primitives: ex.primitives,
            ep_entries: ex.ep_entries,
            p1_insts: ex.insts,
            taint: ex.stats,
        }),
        Err(TaintError::NoCrash { exit_code }) => {
            Err(FailureReason::PocDoesNotCrashS { exit_code })
        }
        Err(TaintError::EpNeverEntered | TaintError::NoSharedFrame) => {
            Err(FailureReason::EpNotOnCrashStack)
        }
    }
}

/// The P1 events (`ep` entries and recorded bunches) `run` emits, in
/// order.
fn p1_events<T>(run: impl FnOnce() -> T) -> (T, Vec<TraceKind>) {
    let recorder = Arc::new(FlightRecorder::new(1 << 16));
    let out = {
        let _guard = octo_trace::install(&recorder, 1, 0);
        run()
    };
    assert_eq!(recorder.dropped(), 0, "ring too small for the run");
    let events = recorder
        .snapshot()
        .into_iter()
        .map(|e| e.kind)
        .filter(|k| {
            matches!(
                k,
                TraceKind::EpEntered { .. } | TraceKind::BunchRecorded { .. }
            )
        })
        .collect();
    (out, events)
}

/// Asserts that `prepare` and the reference agree on `(s, poc, shared)`,
/// results and emitted events alike, and returns the `ep` they chose.
fn assert_agrees(
    what: &str,
    s: &Program,
    poc: &PocFile,
    shared: &[String],
    config: &PipelineConfig,
) -> Option<String> {
    let (actual, actual_events) = p1_events(|| prepare(s, poc, shared, config));
    let (expected, expected_events) = p1_events(|| reference(s, poc, shared, config));
    assert_eq!(actual, expected, "{what}");
    assert_eq!(actual_events, expected_events, "{what}: P1 events");
    actual.ok().map(|prep| prep.ep_name)
}

/// Byte- and word-level tainting, each context-aware and context-free.
fn configs() -> Vec<(String, PipelineConfig)> {
    let mut out = Vec::new();
    for (gran, granularity) in [("byte", Granularity::Byte), ("word", Granularity::Word)] {
        for (ctx, context) in [
            ("aware", ContextMode::ContextAware),
            ("free", ContextMode::ContextFree),
        ] {
            let config = PipelineConfig {
                taint_granularity: granularity,
                taint_context: context,
                ..PipelineConfig::default()
            };
            out.push((format!("{gran}/{ctx}"), config));
        }
    }
    out
}

#[test]
fn prepare_matches_the_two_run_reference_on_the_corpus() {
    for pair in all_pairs() {
        for (name, config) in configs() {
            let what = format!("idx{:02} {name} ℓ as given", pair.idx);
            assert_agrees(&what, &pair.s, &pair.poc, &pair.shared, &config);
        }
    }
}

#[test]
fn prepare_matches_the_reference_when_l_grows_by_any_function() {
    // Adding a caller of ep (main included) to ℓ moves ep down the crash
    // stack, and ep's bunches must come from its own recorder alone.
    let mut moved = 0;
    for pair in all_pairs() {
        for (_, f) in pair.s.iter() {
            if pair.shared.contains(&f.name) {
                continue;
            }
            let mut shared = pair.shared.clone();
            shared.push(f.name.clone());
            for config in [
                PipelineConfig::default(),
                PipelineConfig::default().context_free(),
            ] {
                let what = format!(
                    "idx{:02} ℓ + {} {:?}",
                    pair.idx, f.name, config.taint_context
                );
                if assert_agrees(&what, &pair.s, &pair.poc, &shared, &config)
                    == Some(f.name.clone())
                {
                    moved += 1;
                }
            }
        }
    }
    assert!(moved > 0, "ep never moved to the added function");
}

/// `inner` runs once on its own (on offset 0), then `outer` (which loads
/// offset 3) calls it on offset 2, which crashes.
const NESTED: &str = r#"
func main() {
entry:
    fd = open
    buf = alloc 4
    n = read fd, buf, 4
    call inner(buf)
    p = add buf, 2
    call outer(p, 7)
    halt 0
}
func outer(p, k) {
entry:
    w = load.1 p + 1
    call inner(p)
    ret
}
func inner(p) {
entry:
    v = load.1 p
    c = eq v, 0x41
    br c, boom, fine
boom:
    trap 1
fine:
    ret
}
"#;

fn names(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

#[test]
fn nested_shared_functions_take_ep_and_bunches_from_the_outermost() {
    let s = parse_program(NESTED).unwrap();
    let poc = PocFile::from(&b"xyAB"[..]);
    let shared = names(&["outer", "inner"]);
    for (name, config) in configs() {
        assert_agrees(&format!("nested {name}"), &s, &poc, &shared, &config);
    }
    let prep = prepare(&s, &poc, &shared, &PipelineConfig::default()).unwrap();
    assert_eq!(prep.ep_name, "outer");
    assert_eq!(prep.ep_entries, 1, "inner's own entry is not an ep entry");
    assert_eq!(prep.primitives.entry_count(), 1);
    let bunch: Vec<(u32, u8)> = prep.primitives.bunch(0).unwrap().iter().collect();
    assert_eq!(
        bunch,
        vec![(2, b'A'), (3, b'B')],
        "offset 0 was inner's alone"
    );
    assert_eq!(prep.primitives.args(0).unwrap()[1], 7);

    // With only `inner` shared, both of its entries are ep entries.
    let prep = prepare(&s, &poc, &names(&["inner"]), &PipelineConfig::default()).unwrap();
    assert_eq!(prep.ep_name, "inner");
    assert_eq!(prep.ep_entries, 2);
    let offs: Vec<Vec<u32>> = prep
        .primitives
        .bunches()
        .iter()
        .map(|b| b.iter().map(|(o, _)| o).collect())
        .collect();
    assert_eq!(offs, vec![vec![0], vec![2]]);
}

#[test]
fn poc_that_does_not_crash_s_fails_without_ep_or_crash() {
    let s = parse_program(NESTED).unwrap();
    let poc = PocFile::from(&b"xyzz"[..]);
    let shared = names(&["outer", "inner"]);
    let failure = prepare(&s, &poc, &shared, &PipelineConfig::default()).unwrap_err();
    assert_eq!(failure, FailureReason::PocDoesNotCrashS { exit_code: 0 });
    assert_agrees("no crash", &s, &poc, &shared, &PipelineConfig::default());
}

#[test]
fn unresolved_shared_set_fails_without_ep_or_crash() {
    let s = parse_program(NESTED).unwrap();
    let poc = PocFile::from(&b"xyAB"[..]);
    let shared = names(&["not_in_s"]);
    let failure = prepare(&s, &poc, &shared, &PipelineConfig::default()).unwrap_err();
    assert_eq!(failure, FailureReason::EpNotOnCrashStack);
    assert_agrees(
        "ℓ unresolved",
        &s,
        &poc,
        &shared,
        &PipelineConfig::default(),
    );
}

#[test]
fn crash_outside_shared_after_entering_it_fails_without_ep_or_crash() {
    // `check` (ℓ) runs and returns; main then faults on its own.
    let src = r#"
func main() {
entry:
    fd = open
    buf = alloc 2
    n = read fd, buf, 2
    call check(buf)
    v = load.1 0
    halt 0
}
func check(p) {
entry:
    v = load.1 p
    ret
}
"#;
    let s = parse_program(src).unwrap();
    let poc = PocFile::from(&b"ab"[..]);
    let shared = names(&["check"]);
    let failure = prepare(&s, &poc, &shared, &PipelineConfig::default()).unwrap_err();
    assert_eq!(failure, FailureReason::EpNotOnCrashStack);
    assert_agrees(
        "crash outside ℓ",
        &s,
        &poc,
        &shared,
        &PipelineConfig::default(),
    );
}
