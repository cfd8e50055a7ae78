//! Span/trace correlation: every pipeline phase a batch run opens must
//! appear exactly once as a balanced `B`/`E` pair in the Chrome export,
//! regardless of worker count. The batch event stream is the ground
//! truth — each `PhaseFinished { job, phase }` event corresponds to one
//! closed phase guard, which also wrote the pair into the flight
//! recorder.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use octo_poc::PocFile;
use octo_sched::{EventKind, EventLog};
use octopocs::batch::{run_batch, BatchJob, BatchOptions};
use octopocs::{FlightRecorder, PipelineConfig};

const SHARED: &str = r#"
func shared(v) {
entry:
    c = eq v, 0x41
    br c, boom, fine
boom:
    trap 1
fine:
    ret
}
"#;

fn program(main_body: &str) -> octo_ir::Program {
    octo_ir::parse::parse_program(&format!("func main() {{\n{main_body}\n}}\n{SHARED}")).unwrap()
}

/// A mixed job set: Type-II pairs (full prepare → symex → p4 span
/// coverage), a Type-III pair, and distinct sources so several `prepare`
/// spans fire.
fn jobs() -> Vec<BatchJob> {
    let s = program("entry:\n fd = open\n b = getc fd\n call shared(b)\n halt 0");
    let s2 = program("entry:\n fd = open\n pad = getc fd\n b = getc fd\n call shared(b)\n halt 0");
    let t_gated = program(
        "entry:\n fd = open\n m = getc fd\n ok = eq m, 0x99\n br ok, go, rej\ngo:\n \
         b = getc fd\n call shared(b)\n halt 0\nrej:\n halt 1",
    );
    let t_safe = program("entry:\n halt 0");
    let mk = |name: &str, s: &octo_ir::Program, t: &octo_ir::Program, poc: &[u8]| BatchJob {
        name: name.to_string(),
        s: s.clone(),
        t: t.clone(),
        poc: PocFile::from(poc),
        shared: vec!["shared".to_string()],
    };
    vec![
        mk("gated-a", &s, &t_gated, b"A"),
        mk("safe", &s, &t_safe, b"A"),
        mk("gated-b", &s, &t_gated, b"A"),
        mk("gated-c", &s2, &t_gated, b"ZA"),
        mk("safe-2", &s2, &t_safe, b"ZA"),
        mk("gated-d", &s2, &t_gated, b"ZA"),
    ]
}

/// Extracts `(tid, name, phase)` triples from the Chrome export — enough
/// structure to count `B`/`E` pairs per worker lane without a JSON
/// parser.
fn chrome_events(text: &str) -> Vec<(u64, String, char)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let field = |key: &str| -> Option<String> {
            let pat = format!("\"{key}\":");
            let at = line.find(&pat)? + pat.len();
            let rest = &line[at..];
            let rest = rest.strip_prefix('"').unwrap_or(rest);
            let end = rest.find(['"', ',', '}']).unwrap_or(rest.len());
            Some(rest[..end].to_string())
        };
        let (Some(ph), Some(name), Some(tid)) = (field("ph"), field("name"), field("tid")) else {
            continue;
        };
        let ph = ph.chars().next().unwrap_or('?');
        if ph == 'B' || ph == 'E' {
            out.push((tid.parse().unwrap_or(u64::MAX), name, ph));
        }
    }
    out
}

fn spans_appear_exactly_once(workers: usize) {
    let rec = Arc::new(FlightRecorder::with_default_capacity());
    let log = EventLog::new();
    let options = BatchOptions {
        workers,
        trace: Some(Arc::clone(&rec)),
        ..BatchOptions::default()
    };
    let report = run_batch(&jobs(), &PipelineConfig::default(), &options, &log);
    assert_eq!(report.entries.len(), 6);

    // Ground truth: every finished span as the event stream saw it.
    let mut expected: HashMap<&'static str, usize> = HashMap::new();
    for e in log.snapshot() {
        if let EventKind::PhaseFinished {
            phase: Cow::Borrowed(phase),
            ..
        } = e.kind
        {
            *expected.entry(phase).or_default() += 1;
        }
    }
    assert!(
        expected["prepare"] >= 2,
        "two distinct sources: {expected:?}"
    );
    assert_eq!(expected["symex"], 6, "every job runs the directed engine");
    assert_eq!(expected["p4"], 4, "the four gated jobs replay poc'");

    // The export must pair them all, once each, balanced per lane.
    let chrome = octo_trace::chrome::render_chrome(&rec.snapshot());
    let stats = octo_trace::chrome::validate(&chrome).expect("valid Chrome trace");
    let parsed = chrome_events(&chrome);
    let mut begins: HashMap<String, usize> = HashMap::new();
    let mut ends: HashMap<String, usize> = HashMap::new();
    let mut lanes: HashMap<u64, i64> = HashMap::new();
    for (tid, name, ph) in &parsed {
        assert!(*tid < workers as u64, "lane {tid} out of range");
        let depth = lanes.entry(*tid).or_default();
        if *ph == 'B' {
            *begins.entry(name.clone()).or_default() += 1;
            *depth += 1;
        } else {
            *ends.entry(name.clone()).or_default() += 1;
            *depth -= 1;
        }
        assert!(*depth >= 0, "E before B on lane {tid}");
    }
    assert!(
        lanes.values().all(|d| *d == 0),
        "unbalanced lanes: {lanes:?}"
    );
    for (phase, count) in &expected {
        assert_eq!(
            begins.get(*phase as &str),
            Some(count),
            "every {phase} span opens exactly once in the export ({workers} workers)"
        );
        assert_eq!(
            ends.get(*phase as &str),
            Some(count),
            "every {phase} span closes exactly once in the export ({workers} workers)"
        );
    }
    // The validator agrees with the hand count (pairs also include
    // solver entries, which the event stream does not carry).
    let span_pairs: usize = expected.values().sum();
    assert!(stats.pairs >= span_pairs, "{} < {span_pairs}", stats.pairs);
}

#[test]
fn spans_pair_exactly_once_with_one_worker() {
    spans_appear_exactly_once(1);
}

#[test]
fn spans_pair_exactly_once_with_two_workers() {
    spans_appear_exactly_once(2);
}

#[test]
fn spans_pair_exactly_once_with_eight_workers() {
    spans_appear_exactly_once(8);
}
