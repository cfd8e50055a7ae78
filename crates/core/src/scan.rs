//! One-to-many propagation scans: clone retrieval feeding the batch.
//!
//! The paper (and every PR before this one) takes the shared function
//! set ℓ as an *input* — a clone detector such as VUDDY is assumed to
//! have run already. This module closes that loop: given vulnerable
//! sources `(S, poc)` and a fleet of candidate targets `T₁…Tₙ`,
//! [`expand_scan`] fingerprints every function (`octo_clone`),
//! retrieves cloned-function candidates per target, and fans the
//! request out into concrete [`BatchJob`]s — one per `(S, Tᵢ)` with a
//! non-empty discovered ℓᵢ — which [`run_scan`] then drives through the
//! ordinary batch scheduler.
//!
//! ## The same-name expansion contract
//!
//! The verification pipeline resolves one ℓ name list against *both*
//! programs (`S` and `T`), so only candidates whose source and target
//! functions share a name become ℓ members. Cross-name candidates
//! (`decode` cloned as `parse_chunk`) are still *reported* — they are
//! real retrieval hits and the human/JSON renderings carry them — but
//! they cannot be verified without a rename pass, so they never enter a
//! job's shared set. `docs/clone-scanning.md` discusses the trade-off.

use octo_clone::{fingerprint_program, retrieve_from_fingerprints, Candidate, CloneParams};
use octo_ir::Program;
use octo_lint::ReachKind;
use octo_poc::PocFile;
use octo_sched::EventSink;
use octo_serve::json::json_escape;
use octo_trace::TraceKind;

use crate::batch::{run_batch, BatchJob, BatchOptions, BatchReport, SCORE_CENTI_BUCKETS};
use crate::config::PipelineConfig;

/// One vulnerable source in a scan: the software, its crashing PoC,
/// and a display name.
#[derive(Debug, Clone)]
pub struct ScanSource {
    /// Display name (used in job names and renderings).
    pub name: String,
    /// The original vulnerable software `S`.
    pub s: Program,
    /// The original PoC (crashes `S`).
    pub poc: PocFile,
}

/// One candidate target in a scan.
#[derive(Debug, Clone)]
pub struct ScanTarget {
    /// Display name.
    pub name: String,
    /// The suspected propagated software `T`.
    pub t: Program,
}

/// Retrieval results for one `(source, target)` program pair.
#[derive(Debug)]
pub struct PairCandidates {
    /// Source display name.
    pub source: String,
    /// Target display name.
    pub target: String,
    /// Retrieved candidates, score-descending (see
    /// [`octo_clone::retrieve_from_fingerprints`] for the order).
    pub candidates: Vec<Candidate>,
}

/// Everything [`expand_scan`] produced.
#[derive(Debug)]
pub struct ScanExpansion {
    /// Candidates per `(source, target)` pair, source-major in input
    /// order. Pairs with no candidate at all are omitted.
    pub pairs: Vec<PairCandidates>,
    /// Expanded batch jobs: one per pair with a non-empty same-name
    /// candidate set, named `"{source} => {target}"`, shared set sorted.
    pub jobs: Vec<BatchJob>,
    /// Functions fingerprinted (each program counted once).
    pub functions_fingerprinted: u64,
    /// (source function, target function) comparisons scored.
    pub pairs_compared: u64,
}

impl ScanExpansion {
    /// Total candidates across all pairs.
    pub fn candidate_count(&self) -> usize {
        self.pairs.iter().map(|p| p.candidates.len()).sum()
    }

    /// The *stable* machine-readable candidate document: input order,
    /// fixed-precision scores, no timings. CI diffs this against
    /// `tests/golden/clone_candidates.json`; it must be byte-identical
    /// across worker counts (retrieval runs before the scheduler, so it
    /// trivially is).
    pub fn render_candidates_json(&self) -> String {
        let mut out = String::from("{\"pairs\":[\n");
        for (i, p) in self.pairs.iter().enumerate() {
            out.push_str(&format!(
                "{{\"source\":\"{}\",\"target\":\"{}\",\"candidates\":[",
                json_escape(&p.source),
                json_escape(&p.target)
            ));
            for (j, c) in p.candidates.iter().enumerate() {
                out.push_str(&format!(
                    "\n {{\"s_func\":\"{}\",\"t_func\":\"{}\",\"score\":{:.4},\
                     \"containment\":{:.4},\"context\":{:.4},\"exact\":{},\"reach\":\"{}\"}}{}",
                    json_escape(&c.s_func),
                    json_escape(&c.t_func),
                    c.score,
                    c.containment,
                    c.context,
                    c.exact,
                    c.reach_label(),
                    if j + 1 == p.candidates.len() { "" } else { "," }
                ));
            }
            out.push_str(&format!(
                "]}}{}\n",
                if i + 1 == self.pairs.len() { "" } else { "," }
            ));
        }
        out.push_str("]}\n");
        out
    }

    /// Human-readable candidate table.
    pub fn render_candidates_human(&self) -> String {
        let mut out = String::new();
        for p in &self.pairs {
            out.push_str(&format!("{} => {}\n", p.source, p.target));
            for c in &p.candidates {
                out.push_str(&format!(
                    "    {:<24} ~ {:<24} score {:.4} (containment {:.4}, \
                     context {:.4}{}) reach {}\n",
                    c.s_func,
                    c.t_func,
                    c.score,
                    c.containment,
                    c.context,
                    if c.exact { ", exact" } else { "" },
                    c.reach_label()
                ));
            }
        }
        out.push_str(&format!(
            "{} candidates across {} program pairs; {} jobs expanded\n",
            self.candidate_count(),
            self.pairs.len(),
            self.jobs.len()
        ));
        out
    }
}

/// Fingerprints every program once, retrieves clone candidates for
/// every `(source, target)` combination, and expands same-name
/// candidates into batch jobs with discovered shared sets.
pub fn expand_scan(
    sources: &[ScanSource],
    targets: &[ScanTarget],
    params: &CloneParams,
) -> ScanExpansion {
    // Fingerprint each program exactly once, reachability included —
    // a fleet scan is quadratic in program pairs but linear in
    // fingerprinting work.
    let source_prints: Vec<_> = sources.iter().map(|s| fingerprint_program(&s.s)).collect();
    let target_prints: Vec<(_, Vec<ReachKind>)> = targets
        .iter()
        .map(|t| {
            let fp = fingerprint_program(&t.t);
            let cg = octo_lint::build_call_graph(&t.t);
            let reach = cg.reach_kinds_from(t.t.entry());
            (fp, reach)
        })
        .collect();
    let functions_fingerprinted = source_prints
        .iter()
        .map(|fp| fp.funcs.len() as u64)
        .chain(target_prints.iter().map(|(fp, _)| fp.funcs.len() as u64))
        .sum();

    let mut pairs = Vec::new();
    let mut jobs = Vec::new();
    let mut pairs_compared = 0u64;
    for (si, source) in sources.iter().enumerate() {
        let sp = &source_prints[si];
        let eligible_s = sp
            .funcs
            .iter()
            .enumerate()
            .filter(|(i, f)| *i != sp.entry && f.insts >= params.min_insts)
            .count() as u64;
        for (ti, target) in targets.iter().enumerate() {
            let (tp, reach) = &target_prints[ti];
            pairs_compared += eligible_s * tp.funcs.len().saturating_sub(1) as u64;
            let candidates = retrieve_from_fingerprints(sp, tp, reach, params);
            if candidates.is_empty() {
                continue;
            }
            // Same-name candidates become the discovered ℓ (sorted for a
            // deterministic cache key); cross-name hits stay report-only.
            let mut shared: Vec<String> = candidates
                .iter()
                .filter(|c| c.s_func == c.t_func)
                .map(|c| c.s_func.clone())
                .collect();
            shared.sort();
            shared.dedup();
            if !shared.is_empty() {
                jobs.push(BatchJob {
                    name: format!("{} => {}", source.name, target.name),
                    s: source.s.clone(),
                    t: target.t.clone(),
                    poc: source.poc.clone(),
                    shared,
                });
            }
            pairs.push(PairCandidates {
                source: source.name.clone(),
                target: target.name.clone(),
                candidates,
            });
        }
    }
    ScanExpansion {
        pairs,
        jobs,
        functions_fingerprinted,
        pairs_compared,
    }
}

/// A finished scan: the expansion plus the batch verification of every
/// expanded job.
#[derive(Debug)]
pub struct ScanReport {
    /// Retrieval results and the job set they expanded into.
    pub expansion: ScanExpansion,
    /// The batch run over [`ScanExpansion::jobs`]. Its metrics registry
    /// additionally carries the `clone_*` metrics for the retrieval
    /// stage.
    pub batch: BatchReport,
}

/// Expands the scan and verifies every discovered job on the batch
/// scheduler. Retrieval happens up front on the calling thread (it is
/// cheap and deterministic); only verification is scheduled, so the
/// candidate document is identical at any worker count.
pub fn run_scan(
    sources: &[ScanSource],
    targets: &[ScanTarget],
    params: &CloneParams,
    config: &PipelineConfig,
    options: &BatchOptions,
    sink: &dyn EventSink,
) -> ScanReport {
    let expansion = expand_scan(sources, targets, params);
    if let Some(rec) = &options.trace {
        // Scan-stage events carry the sentinel job id (they precede job
        // submission) on the coordinator lane.
        let _guard = octo_trace::install(rec, u32::MAX, 0);
        for pair in &expansion.pairs {
            for c in &pair.candidates {
                octo_trace::emit(TraceKind::CandidateScored {
                    score_centi: (c.score * 100.0).round() as u32,
                });
            }
        }
        octo_trace::emit(TraceKind::ScanExpanded {
            candidates: expansion.candidate_count() as u32,
            jobs: expansion.jobs.len() as u32,
        });
    }
    let batch = run_batch(&expansion.jobs, config, options, sink);
    let m = &batch.metrics;
    m.counter("clone_candidates_total")
        .add(expansion.candidate_count() as u64);
    m.counter("clone_functions_fingerprinted_total")
        .add(expansion.functions_fingerprinted);
    m.counter("clone_pairs_compared_total")
        .add(expansion.pairs_compared);
    m.counter("clone_scan_jobs_total")
        .add(expansion.jobs.len() as u64);
    let scores = m.histogram("clone_score_centi", &SCORE_CENTI_BUCKETS);
    for pair in &expansion.pairs {
        for c in &pair.candidates {
            scores.observe((c.score * 100.0).round() as u64);
        }
    }
    ScanReport { expansion, batch }
}

/// The Table II corpus as a scan: every pair's `(S, poc)` against every
/// pair's `T`. This is the `octopocs scan --corpus` workload and the
/// recall fixture — the true `(Sᵢ, Tᵢ)` diagonal must be rediscovered
/// in full.
pub fn corpus_scan_inputs() -> (Vec<ScanSource>, Vec<ScanTarget>) {
    let pairs = octo_corpus::all_pairs();
    let sources = pairs
        .iter()
        .map(|p| ScanSource {
            name: p.display_name(),
            s: p.s.clone(),
            poc: p.poc.clone(),
        })
        .collect();
    let targets = pairs
        .iter()
        .map(|p| ScanTarget {
            name: p.display_name(),
            t: p.t.clone(),
        })
        .collect();
    (sources, targets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use octo_ir::parse::parse_program;
    use octo_sched::NullSink;
    use std::sync::Arc;

    const SHARED: &str = r#"
func shared(v) {
entry:
    buf = alloc 16
    store.1 buf, v
    x = load.1 buf
    c = eq x, 0x41
    br c, boom, fine
boom:
    trap 1
fine:
    ret
}
"#;

    fn source() -> ScanSource {
        ScanSource {
            name: "S".to_string(),
            s: parse_program(&format!(
                "func main() {{\nentry:\n fd = open\n b = getc fd\n call shared(b)\n \
                 halt 0\n}}\n{SHARED}"
            ))
            .unwrap(),
            poc: PocFile::from(&b"A"[..]),
        }
    }

    fn gated_target(name: &str) -> ScanTarget {
        ScanTarget {
            name: name.to_string(),
            t: parse_program(&format!(
                "func main() {{\nentry:\n fd = open\n m = getc fd\n ok = eq m, 0x99\n \
                 br ok, go, rej\ngo:\n b = getc fd\n call shared(b)\n halt 0\nrej:\n \
                 halt 1\n}}\n{SHARED}"
            ))
            .unwrap(),
        }
    }

    fn unrelated_target() -> ScanTarget {
        ScanTarget {
            name: "clean".to_string(),
            t: parse_program(
                "func main() {\nentry:\n r = call f()\n halt r\n}\n\
                 func f() {\nentry:\n a = 1\n b = shl a, 9\n c = xor b, 0x77\n \
                 d = mul c, 5\n ret d\n}\n",
            )
            .unwrap(),
        }
    }

    #[test]
    fn scan_expands_only_matching_targets() {
        let sources = vec![source()];
        let targets = vec![gated_target("t1"), unrelated_target(), gated_target("t2")];
        let exp = expand_scan(&sources, &targets, &CloneParams::default());
        assert_eq!(exp.jobs.len(), 2, "{:?}", exp.jobs);
        assert_eq!(exp.jobs[0].name, "S => t1");
        assert_eq!(exp.jobs[1].name, "S => t2");
        assert_eq!(exp.jobs[0].shared, vec!["shared".to_string()]);
        assert_eq!(exp.pairs.len(), 2, "clean target yields no pair entry");
        assert!(exp.functions_fingerprinted >= 8);
        assert_eq!(
            exp.pairs_compared, 3,
            "one eligible S func x one non-entry func per target"
        );
    }

    #[test]
    fn scan_verdicts_match_direct_batch() {
        let sources = vec![source()];
        let targets = vec![gated_target("t1")];
        let config = PipelineConfig::default();
        let report = run_scan(
            &sources,
            &targets,
            &CloneParams::default(),
            &config,
            &BatchOptions::default(),
            &NullSink,
        );
        assert_eq!(report.batch.entries.len(), 1);
        let entry = &report.batch.entries[0];
        assert_eq!(entry.report.verdict.type_label(), "Type-II");
        // The clone metrics landed in the batch registry.
        let counter = |n: &str| report.batch.metrics.get_counter(n).expect(n).get();
        assert_eq!(counter("clone_scan_jobs_total"), 1);
        assert_eq!(counter("clone_candidates_total"), 1);
        assert!(counter("clone_functions_fingerprinted_total") >= 4);
        assert!(counter("clone_pairs_compared_total") >= 1);
        let h = report
            .batch
            .metrics
            .get_histogram("clone_score_centi")
            .expect("registered");
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn candidate_json_is_stable_and_escaped() {
        let sources = vec![source()];
        let targets = vec![gated_target("t\"quoted")];
        let exp = expand_scan(&sources, &targets, &CloneParams::default());
        let json = exp.render_candidates_json();
        assert_eq!(json, exp.render_candidates_json());
        assert!(json.contains("\"target\":\"t\\\"quoted\""), "{json}");
        assert!(json.contains("\"score\":1.0000"), "{json}");
        let human = exp.render_candidates_human();
        assert!(human.contains("1 jobs expanded"), "{human}");
    }

    #[test]
    fn scan_emits_trace_events() {
        let rec = Arc::new(octo_trace::FlightRecorder::with_default_capacity());
        let sources = vec![source()];
        let targets = vec![gated_target("t1")];
        let options = BatchOptions {
            workers: 1,
            trace: Some(Arc::clone(&rec)),
            ..BatchOptions::default()
        };
        run_scan(
            &sources,
            &targets,
            &CloneParams::default(),
            &PipelineConfig::default(),
            &options,
            &NullSink,
        );
        let events = rec.snapshot();
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, TraceKind::CandidateScored { score_centi: 100 })));
        assert!(events.iter().any(|e| matches!(
            e.kind,
            TraceKind::ScanExpanded {
                candidates: 1,
                jobs: 1
            }
        )));
    }
}
