//! The end-to-end verification pipeline (P1 → P4).
//!
//! The pipeline is split at its natural caching seam: everything that
//! depends only on `(S, poc, ℓ, taint/vm config)` — preprocessing plus
//! the P1 crash-primitive extraction — lives in [`prepare`] and produces
//! a [`PreparedSource`]; everything that also looks at `T` lives in
//! [`verify_prepared`]. [`verify`] composes the two for the one-pair
//! case. Batch runs (see [`crate::batch`]) memoize [`prepare`] in a
//! content-addressed cache, so N targets cloned from one source pay for
//! preprocessing and taint exactly once.

use std::borrow::Cow;
use std::time::{Duration, Instant};

use octo_cfg::{build_cfg, DistanceMap};
use octo_ir::{FuncId, Program};
use octo_poc::{CrashPrimitives, PocFile};
use octo_sched::{CancelToken, Event, EventClock, EventKind, EventSink};
use octo_symex::{DirectedConfig, DirectedEngine, DirectedOutcome, DirectedStats};
use octo_taint::{extract_at_crash_ep, TaintError, TaintStats};
use octo_trace::{PostMortem, TraceKind};
use octo_vm::{CrashReport, RunOutcome, Vm};

use crate::config::PipelineConfig;
use crate::verdict::{FailureReason, NotTriggerableReason, TriggerKind, Verdict};

/// One verification job: the paper's initial inputs `S`, `T`, `poc`, `ℓ`.
#[derive(Debug, Clone, Copy)]
pub struct SoftwarePairInput<'a> {
    /// The original vulnerable software.
    pub s: &'a Program,
    /// The propagated software.
    pub t: &'a Program,
    /// The original PoC (crashes `S`).
    pub poc: &'a PocFile,
    /// Names of the shared (cloned) functions, as a vulnerable clone
    /// detector reports them.
    pub shared: &'a [String],
}

/// Everything `verify` learned, verdict plus diagnostics.
#[derive(Debug, Clone)]
pub struct VerificationReport {
    /// The verification verdict (Table II taxonomy).
    pub verdict: Verdict,
    /// `ep`'s name, when preprocessing succeeded.
    pub ep_name: Option<String>,
    /// Crash of `S` under `poc`.
    pub s_crash: Option<CrashReport>,
    /// Crash of `T` under `poc'`, for triggered verdicts.
    pub t_crash: Option<CrashReport>,
    /// How many times `S` entered `ep` (bunch count).
    pub ep_entries: u32,
    /// Instructions executed in P1 (taint run over `S`).
    pub p1_insts: u64,
    /// P1 taint-engine counters (bytes uploaded, tainted-address peak,
    /// records). Present whenever the prefix succeeded, even when the
    /// prepared artifact came from a cache.
    pub taint_stats: Option<TaintStats>,
    /// Dense byte count of each crash-primitive bunch, in `ep`-entry
    /// order (the P3 stitching payload sizes).
    pub bunch_bytes: Vec<u64>,
    /// Directed symbolic execution statistics (P2+P3).
    pub symex_stats: Option<DirectedStats>,
    /// Instructions executed in P4 (concrete run of `T`).
    pub p4_insts: u64,
    /// Whether the verdict was decided by the P0 static pre-screen, i.e.
    /// without running directed symbolic execution over `T`.
    pub prescreen: bool,
    /// Wall-clock seconds of the pipeline prefix as this job paid for it
    /// (preprocessing + P1, or a cache lookup when the artifact was
    /// shared).
    pub prepare_seconds: f64,
    /// Wall-clock seconds of the P4 concrete replay of `T` under `poc'`
    /// (0 when P4 never ran).
    pub p4_seconds: f64,
    /// Total wall-clock seconds for the whole pipeline.
    pub wall_seconds: f64,
    /// Why triggering failed, for verdicts that warrant an explanation
    /// (any not-triggerable verdict, loop budget, or deadline — see
    /// [`Verdict::post_mortem_event`]). Synthesized from the directed
    /// engine's death note and the flight-record tail of this job.
    pub post_mortem: Option<PostMortem>,
    /// How many times the batch runner attempted this job (1 unless a
    /// [`RetryPolicy`] re-ran a transient failure). Single-pair
    /// [`verify`] calls always report 1.
    ///
    /// [`RetryPolicy`]: octo_faults::RetryPolicy
    pub attempts: u32,
}

impl VerificationReport {
    /// The report of a job that failed for `reason` before any verdict
    /// work. The caller stamps `wall_seconds`.
    pub(crate) fn failure(reason: FailureReason) -> VerificationReport {
        VerificationReport {
            verdict: Verdict::Failure { reason },
            ep_name: None,
            s_crash: None,
            t_crash: None,
            ep_entries: 0,
            p1_insts: 0,
            taint_stats: None,
            bunch_bytes: Vec::new(),
            symex_stats: None,
            p4_insts: 0,
            prescreen: false,
            prepare_seconds: 0.0,
            p4_seconds: 0.0,
            wall_seconds: 0.0,
            post_mortem: None,
            attempts: 1,
        }
    }

    /// Synthesizes the degraded report for a job whose pipeline panicked.
    ///
    /// The batch runner calls this from inside the worker after catching
    /// the unwind, while the job's trace guard is still installed — so the
    /// post-mortem tail captures the events leading up to the panic.
    pub fn from_panic(panic_msg: String) -> VerificationReport {
        let mut report = VerificationReport::failure(FailureReason::Internal {
            panic_msg: panic_msg.clone(),
        });
        report.post_mortem = Some(PostMortem {
            event: "panic".to_string(),
            ep_entries: 0,
            total_entries: 0,
            constraints: 0,
            last_constraint: None,
            detail: format!("job panicked: {panic_msg}"),
            tail: octo_trace::job_tail(32),
        });
        report
    }

    /// The report for a job the batch (or service) drained before it
    /// could run — or whose in-flight attempt was cut short by a drain.
    /// Carries no post-mortem: a drained job is *incomplete*, not
    /// diagnosable, and service journals deliberately do not persist it
    /// as a terminal verdict (the job is resubmitted on restart).
    pub fn from_cancelled() -> VerificationReport {
        VerificationReport::failure(FailureReason::Cancelled)
    }

    /// The reformed PoC, when one was generated and works.
    pub fn poc_prime(&self) -> Option<&PocFile> {
        match &self.verdict {
            Verdict::Triggered { poc_prime, .. } => Some(poc_prime),
            _ => None,
        }
    }
}

/// The cacheable prefix of the pipeline: everything derived from
/// `(S, poc, ℓ, taint/vm config)` alone — preprocessing (identify `ep` on
/// the crash stack of `S`) plus the P1 crash-primitive extraction.
///
/// A `PreparedSource` is independent of `T`, so one value serves every
/// target cloned from the same source; [`crate::batch::run_batch`] keys
/// it by content hash in an artifact cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreparedSource {
    /// `ep` in `S`'s function namespace.
    pub ep: FuncId,
    /// `ep`'s name (identical in `T`, since the code was cloned).
    pub ep_name: String,
    /// The crash `poc` causes in `S`.
    pub s_crash: CrashReport,
    /// The crash primitives `q` (one bunch per `ep` entry).
    pub primitives: CrashPrimitives,
    /// How many times `S` entered `ep`.
    pub ep_entries: u32,
    /// Instructions the P1 taint run executed.
    pub p1_insts: u64,
    /// P1 taint-engine counters.
    pub taint: TaintStats,
}

impl PreparedSource {
    /// Approximate in-memory size, for cache byte accounting.
    pub fn approx_bytes(&self) -> u64 {
        let bunch_bytes: usize = (0..self.primitives.entry_count())
            .map(|k| {
                self.primitives
                    .bunch(k)
                    .map(|b| b.dense_bytes().len())
                    .unwrap_or(0)
                    + self.primitives.args(k).map(<[u64]>::len).unwrap_or(0) * 8
            })
            .sum();
        (std::mem::size_of::<PreparedSource>() + self.ep_name.len() + bunch_bytes) as u64
    }
}

/// Runs preprocessing and P1 over `S` (the `T`-independent prefix).
///
/// Both come from one taint run of `S` on `poc` that records every
/// function of `ℓ`; `ep` is then read off that run's crash backtrace by
/// [`identify_ep`]'s rule, with the same result as running
/// [`identify_ep`] and then P1 on its `ep`.
///
/// [`identify_ep`]: crate::preprocess::identify_ep
///
/// # Errors
/// Fails when `poc` does not crash `S`
/// ([`FailureReason::PocDoesNotCrashS`]), or crashes it outside `ℓ`
/// ([`FailureReason::EpNotOnCrashStack`]).
pub fn prepare(
    s: &Program,
    poc: &PocFile,
    shared: &[String],
    config: &PipelineConfig,
) -> Result<PreparedSource, FailureReason> {
    let shared_ids = s.resolve_names(shared.iter().map(String::as_str));
    let (ep, extraction) = extract_at_crash_ep(
        s,
        poc,
        &shared_ids,
        config.taint_granularity,
        config.taint_context,
        config.vm_limits,
    )
    .map_err(|err| match err {
        TaintError::NoCrash { exit_code } => FailureReason::PocDoesNotCrashS { exit_code },
        TaintError::NoSharedFrame | TaintError::EpNeverEntered => FailureReason::EpNotOnCrashStack,
    })?;
    Ok(PreparedSource {
        ep,
        ep_name: s.func(ep).name.clone(),
        s_crash: extraction.crash,
        primitives: extraction.primitives,
        ep_entries: extraction.ep_entries,
        p1_insts: extraction.insts,
        taint: extraction.stats,
    })
}

/// Where one job's lifecycle events go: the batch event stream, stamped
/// on the run's clock with the job's submission index and worker lane.
pub(crate) struct JobEvents<'a> {
    pub sink: &'a dyn EventSink,
    pub clock: &'a EventClock,
    pub job: usize,
    pub worker: usize,
}

impl JobEvents<'_> {
    /// Stamps `kind` on the worker's lane and hands it to the sink.
    pub fn emit(&self, kind: EventKind) {
        let ts = self.clock.stamp(self.worker);
        self.sink.emit(Event::new(ts, self.worker, kind));
    }
}

/// The RAII timer of one pipeline phase (P1 `prepare`, P2+P3 `symex`,
/// P4 `p4`). Opening it emits `TraceKind::SpanBegin`; closing it — by
/// [`PhaseGuard::finish`] or by drop, an unwind included — emits the
/// matching `SpanEnd` and, when the job has an event stream, one
/// `EventKind::PhaseFinished` with the elapsed microseconds.
#[must_use = "a phase guard times the region it is alive for"]
pub(crate) struct PhaseGuard<'a> {
    name: &'static str,
    start: Instant,
    events: Option<&'a JobEvents<'a>>,
    open: bool,
}

impl<'a> PhaseGuard<'a> {
    pub fn start(name: &'static str, events: Option<&'a JobEvents<'a>>) -> PhaseGuard<'a> {
        octo_trace::emit(TraceKind::SpanBegin { name });
        PhaseGuard {
            name,
            start: Instant::now(),
            events,
            open: true,
        }
    }

    /// Closes the phase and returns its wall time.
    pub fn finish(mut self) -> Duration {
        self.close()
    }

    fn close(&mut self) -> Duration {
        self.open = false;
        let elapsed = self.start.elapsed();
        octo_trace::emit(TraceKind::SpanEnd { name: self.name });
        if let Some(events) = self.events {
            events.emit(EventKind::PhaseFinished {
                job: events.job,
                phase: Cow::Borrowed(self.name),
                micros: elapsed.as_micros() as u64,
            });
        }
        elapsed
    }
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        if self.open {
            self.close();
        }
    }
}

/// Verifies whether the vulnerability propagated from `S` to `T` can still
/// be triggered (the whole OctoPoCs pipeline).
///
/// Never panics on malformed inputs; every abnormal condition maps to a
/// [`Verdict::Failure`] with a diagnostic [`FailureReason`].
pub fn verify(input: &SoftwarePairInput<'_>, config: &PipelineConfig) -> VerificationReport {
    let start = Instant::now();
    match prepare(input.s, input.poc, input.shared, config) {
        Ok(prep) => {
            let prepare_seconds = start.elapsed().as_secs_f64();
            let mut report = verify_suffix(&prep, input, config, None, None, start);
            report.prepare_seconds = prepare_seconds;
            report
        }
        Err(reason) => {
            let mut report = VerificationReport::failure(reason);
            report.wall_seconds = start.elapsed().as_secs_f64();
            report.prepare_seconds = report.wall_seconds;
            report
        }
    }
}

/// Runs the `T`-dependent pipeline suffix (P0 pre-screen, CFG recovery,
/// P2–P4) against an already-prepared source prefix.
///
/// `cancel` is polled cooperatively by the directed engine; when it fires
/// (per-job deadline, batch cancellation) the verdict is
/// [`Verdict::Failure`] with [`FailureReason::Deadline`] instead of the
/// job stalling its batch.
pub fn verify_prepared(
    prep: &PreparedSource,
    input: &SoftwarePairInput<'_>,
    config: &PipelineConfig,
    cancel: Option<&CancelToken>,
) -> VerificationReport {
    verify_suffix(prep, input, config, cancel, None, Instant::now())
}

/// The suffix with an explicit start instant, so [`verify`] can bill the
/// prefix and suffix to one wall clock. `events`, when set, receives the
/// `"symex"` and `"p4"` phase events (the batch runner's stream).
pub(crate) fn verify_suffix(
    prep: &PreparedSource,
    input: &SoftwarePairInput<'_>,
    config: &PipelineConfig,
    cancel: Option<&CancelToken>,
    events: Option<&JobEvents<'_>>,
    start: Instant,
) -> VerificationReport {
    let mut report = VerificationReport {
        verdict: Verdict::Failure {
            reason: FailureReason::Budget,
        },
        ep_name: Some(prep.ep_name.clone()),
        s_crash: Some(prep.s_crash.clone()),
        t_crash: None,
        ep_entries: prep.ep_entries,
        p1_insts: prep.p1_insts,
        taint_stats: Some(prep.taint),
        bunch_bytes: (0..prep.primitives.entry_count())
            .map(|k| {
                prep.primitives
                    .bunch(k)
                    .map(|b| b.dense_bytes().len() as u64)
                    .unwrap_or(0)
            })
            .collect(),
        symex_stats: None,
        p4_insts: 0,
        prescreen: false,
        prepare_seconds: 0.0,
        p4_seconds: 0.0,
        wall_seconds: 0.0,
        post_mortem: None,
        attempts: 1,
    };
    let extraction = &prep.primitives;

    // --- Resolve ep in T (clone name). ---
    let Some(ep_t) = input.t.func_by_name(&prep.ep_name) else {
        report.verdict = Verdict::Failure {
            reason: FailureReason::EpMissingInT {
                name: prep.ep_name.clone(),
            },
        };
        report.wall_seconds = start.elapsed().as_secs_f64();
        return report;
    };

    // --- P0 (opt-in): static pre-screen over T's call graph. ---
    //
    // Runs after `ep` is resolved in `T` (so EpMissingInT keeps priority)
    // and before CFG recovery (so an unstitchable `T` still reports the
    // Idx-15 CfgConstruction failure when the screen stays silent). The
    // screen is conservative: it only speaks when the conclusion holds
    // for *every* execution, so a positive answer makes the symbolic
    // phases unnecessary.
    if config.static_prescreen {
        let recorded: Vec<Vec<u64>> = (0..extraction.entry_count())
            .filter_map(|k| extraction.args(k).map(<[u64]>::to_vec))
            .collect();
        if let Some(outcome) = octo_lint::prescreen_ep(input.t, ep_t, &recorded) {
            report.prescreen = true;
            report.verdict = match outcome {
                octo_lint::Prescreen::EpUnreachable => Verdict::NotTriggerable {
                    reason: NotTriggerableReason::EpNotCalled,
                },
                octo_lint::Prescreen::ArgsNeverMatch { .. } => Verdict::NotTriggerable {
                    reason: NotTriggerableReason::UnsatisfiableConstraints,
                },
            };
            attach_post_mortem(&mut report, prep);
            report.wall_seconds = start.elapsed().as_secs_f64();
            return report;
        }
    }

    // --- CFG of T + backward path finding. ---
    let cfg = match build_cfg(input.t, config.cfg_mode) {
        Ok(c) => c,
        Err(e) => {
            // The Idx-15 failure mode: the tool cannot recover T's CFG.
            report.verdict = Verdict::Failure {
                reason: FailureReason::CfgConstruction(e),
            };
            report.wall_seconds = start.elapsed().as_secs_f64();
            return report;
        }
    };
    let map = DistanceMap::compute(input.t, &cfg, ep_t);

    // --- P2 + P3: directed symbolic execution and combining. ---
    let directed_config = DirectedConfig {
        file_len: config.resolve_file_len(input.poc.len()),
        theta: config.theta,
        max_fallbacks: config.max_fallbacks,
        step_budget: config.symex_step_budget,
        loop_acceleration: config.loop_acceleration,
    };
    let mut engine = DirectedEngine::new(input.t, ep_t, &map, extraction, directed_config);
    if let Some(token) = cancel {
        engine = engine.with_cancel(token.clone());
    }
    let symex = PhaseGuard::start("symex", events);
    let (outcome, stats) = engine.run();
    symex.finish();
    report.symex_stats = Some(stats);

    report.verdict = match outcome {
        DirectedOutcome::EpUnreachable => Verdict::NotTriggerable {
            reason: NotTriggerableReason::EpNotCalled,
        },
        DirectedOutcome::ProgramDead => Verdict::NotTriggerable {
            reason: NotTriggerableReason::ProgramDead,
        },
        DirectedOutcome::Unsat => Verdict::NotTriggerable {
            reason: NotTriggerableReason::UnsatisfiableConstraints,
        },
        DirectedOutcome::LoopBudget => Verdict::Failure {
            reason: FailureReason::LoopBudget,
        },
        DirectedOutcome::Budget => Verdict::Failure {
            reason: FailureReason::Budget,
        },
        // A cancelled run is a deadline failure unless the cancel token
        // was escalated by the watchdog, in which case the job was hung
        // (silent heartbeat) rather than merely slow.
        DirectedOutcome::Cancelled => Verdict::Failure {
            reason: if cancel.is_some_and(CancelToken::was_escalated) {
                FailureReason::Hung
            } else {
                FailureReason::Deadline
            },
        },
        DirectedOutcome::Injected => Verdict::Failure {
            reason: FailureReason::Injected {
                site: "solver-solve",
            },
        },
        // Fault site: a spurious non-crash replay — poc' exists but the
        // concrete run is pretended away (insts 0, no crash).
        DirectedOutcome::PocGenerated { .. }
            if octo_faults::should_inject(octo_faults::FaultSite::P4Replay) =>
        {
            octo_trace::emit(TraceKind::P4Replay {
                insts: 0,
                crashed: false,
            });
            Verdict::Failure {
                reason: FailureReason::Injected { site: "p4-replay" },
            }
        }
        DirectedOutcome::PocGenerated {
            poc: poc_prime,
            guiding,
            ..
        } => {
            // --- P4: run T with poc' and check for the propagated crash. ---
            let shared_t = input
                .t
                .resolve_names(input.shared.iter().map(String::as_str));
            let mut vm = Vm::new(input.t, poc_prime.bytes()).with_limits(config.vm_limits);
            let p4 = PhaseGuard::start("p4", events);
            let outcome = vm.run();
            report.p4_seconds = p4.finish().as_secs_f64();
            report.p4_insts = vm.insts_executed();
            octo_trace::emit(TraceKind::P4Replay {
                insts: report.p4_insts,
                crashed: matches!(outcome, RunOutcome::Crash(_)),
            });
            match outcome {
                RunOutcome::Crash(crash) if crash.backtrace.any_in(&shared_t) => {
                    // Type-I iff the *original* poc already satisfies all
                    // constraints T imposes — its guiding input would have
                    // worked unchanged.
                    let kind = if guiding.eval_file(input.poc.bytes()) {
                        TriggerKind::TypeI
                    } else {
                        TriggerKind::TypeII
                    };
                    let crash_class = crash.kind.class();
                    report.t_crash = Some(crash);
                    Verdict::Triggered {
                        kind,
                        poc_prime,
                        crash_class,
                    }
                }
                RunOutcome::Crash(crash) => {
                    // Crash outside ℓ: not the propagated vulnerability.
                    report.t_crash = Some(crash);
                    Verdict::Failure {
                        reason: FailureReason::PocPrimeDidNotCrash { poc_prime },
                    }
                }
                RunOutcome::Exit(_) => Verdict::Failure {
                    reason: FailureReason::PocPrimeDidNotCrash { poc_prime },
                },
            }
        }
    };
    attach_post_mortem(&mut report, prep);
    report.wall_seconds = start.elapsed().as_secs_f64();
    report
}

/// Synthesizes the post-mortem for verdicts that warrant one (see
/// [`Verdict::post_mortem_event`]): the deciding event, the directed
/// engine's death note (where the last state died, on which `ep` entry,
/// under how many constraints), and the flight-record tail of this job.
/// Works without a recorder installed — the tail is simply empty.
fn attach_post_mortem(report: &mut VerificationReport, prep: &PreparedSource) {
    let Some(event) = report.verdict.post_mortem_event() else {
        return;
    };
    let death = report.symex_stats.as_ref().and_then(|s| s.death.as_ref());
    let detail = if report.prescreen {
        "decided statically by the P0 pre-screen; no symbolic execution ran".to_string()
    } else if let Some(note) = death {
        format!(
            "last state died of {} at fallback depth {}",
            note.reason, note.fallback_depth
        )
    } else {
        "the directed engine found no path from T's entry toward ep (empty distance map)"
            .to_string()
    };
    report.post_mortem = Some(PostMortem {
        event: event.to_string(),
        ep_entries: death.map_or(0, |n| n.ep_entries),
        total_entries: prep.ep_entries,
        constraints: death.map_or(0, |n| n.constraints),
        last_constraint: death.and_then(|n| n.last_constraint.clone()),
        detail,
        tail: octo_trace::job_tail(32),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use octo_ir::parse::parse_program;

    /// Shared vulnerable function used by both S and T below: crashes when
    /// its byte argument is 0x41.
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

    fn s_program() -> Program {
        let src = format!(
            r#"
func main() {{
entry:
    fd = open
    b = getc fd
    call shared(b)
    halt 0
}}
{SHARED}
"#
        );
        parse_program(&src).unwrap()
    }

    fn verify_pair(t_src: &str, poc: &[u8]) -> VerificationReport {
        let s = s_program();
        let t = parse_program(t_src).unwrap();
        let poc = PocFile::from(poc);
        let shared = vec!["shared".to_string()];
        let input = SoftwarePairInput {
            s: &s,
            t: &t,
            poc: &poc,
            shared: &shared,
        };
        verify(&input, &PipelineConfig::default())
    }

    #[test]
    fn type_i_when_original_guiding_input_fits() {
        // T is byte-compatible with S (same layout), so poc itself works.
        let t_src = format!(
            r#"
func main() {{
entry:
    fd = open
    b = getc fd
    call shared(b)
    halt 0
}}
{SHARED}
"#
        );
        let report = verify_pair(&t_src, b"A");
        match &report.verdict {
            Verdict::Triggered { kind, .. } => assert_eq!(*kind, TriggerKind::TypeI),
            other => panic!("expected Type-I, got {other:?}"),
        }
        assert_eq!(report.ep_name.as_deref(), Some("shared"));
        assert!(report.verdict.poc_generated());
    }

    #[test]
    fn type_ii_when_t_needs_different_header() {
        // T requires a magic byte the original poc lacks.
        let t_src = format!(
            r#"
func main() {{
entry:
    fd = open
    m = getc fd
    ok = eq m, 0x99
    br ok, go, rej
go:
    b = getc fd
    call shared(b)
    halt 0
rej:
    halt 1
}}
{SHARED}
"#
        );
        let report = verify_pair(&t_src, b"A");
        match &report.verdict {
            Verdict::Triggered {
                kind, poc_prime, ..
            } => {
                assert_eq!(*kind, TriggerKind::TypeII);
                assert_eq!(poc_prime.byte(0), 0x99);
                assert_eq!(poc_prime.byte(1), 0x41);
            }
            other => panic!("expected Type-II, got {other:?}"),
        }
    }

    #[test]
    fn type_iii_when_ep_not_called() {
        let t_src = format!(
            r#"
func main() {{
entry:
    halt 0
}}
{SHARED}
"#
        );
        let report = verify_pair(&t_src, b"A");
        match &report.verdict {
            Verdict::NotTriggerable { reason } => {
                assert_eq!(*reason, NotTriggerableReason::EpNotCalled)
            }
            other => panic!("expected Type-III, got {other:?}"),
        }
        assert!(report.verdict.verified());
        assert!(!report.verdict.poc_generated());
    }

    #[test]
    fn type_iii_when_argument_hardcoded() {
        // T calls shared only with a constant 0x10 — the 0x41 argument
        // recorded in S can never be delivered.
        let t_src = format!(
            r#"
func main() {{
entry:
    fd = open
    call shared(0x10)
    halt 0
}}
{SHARED}
"#
        );
        let report = verify_pair(&t_src, b"A");
        match &report.verdict {
            Verdict::NotTriggerable { reason } => {
                assert_eq!(*reason, NotTriggerableReason::UnsatisfiableConstraints)
            }
            other => panic!("expected Type-III/unsat, got {other:?}"),
        }
    }

    #[test]
    fn failure_when_cfg_unrecoverable() {
        // T dispatches through a computed goto with no address-taken
        // candidates (the Idx-15 shape).
        let t_src = format!(
            r#"
func main() {{
entry:
    t = 0xB10C_0000_0000_0002
    ijmp t
unreached:
    fd = open
    b = getc fd
    call shared(b)
    halt 0
}}
{SHARED}
"#
        );
        let report = verify_pair(&t_src, b"A");
        match &report.verdict {
            Verdict::Failure {
                reason: FailureReason::CfgConstruction(e),
            } => assert_eq!(e.func, "main"),
            other => panic!("expected CFG failure, got {other:?}"),
        }
        assert!(!report.verdict.verified());
    }

    #[test]
    fn failure_when_poc_does_not_crash_s() {
        let t_src = format!("func main() {{\nentry:\n halt 0\n}}\n{SHARED}");
        let report = verify_pair(&t_src, b"Z");
        assert!(matches!(
            report.verdict,
            Verdict::Failure {
                reason: FailureReason::PocDoesNotCrashS { exit_code: 0 }
            }
        ));
    }

    #[test]
    fn failure_when_ep_missing_in_t() {
        let t = parse_program("func main() {\nentry:\n halt 0\n}\n").unwrap();
        let s = s_program();
        let poc = PocFile::from(&b"A"[..]);
        let shared = vec!["shared".to_string()];
        let input = SoftwarePairInput {
            s: &s,
            t: &t,
            poc: &poc,
            shared: &shared,
        };
        let report = verify(&input, &PipelineConfig::default());
        assert!(matches!(
            report.verdict,
            Verdict::Failure {
                reason: FailureReason::EpMissingInT { .. }
            }
        ));
    }

    fn verify_pair_prescreened(t_src: &str, poc: &[u8]) -> VerificationReport {
        let s = s_program();
        let t = parse_program(t_src).unwrap();
        let poc = PocFile::from(poc);
        let shared = vec!["shared".to_string()];
        let input = SoftwarePairInput {
            s: &s,
            t: &t,
            poc: &poc,
            shared: &shared,
        };
        verify(&input, &PipelineConfig::default().with_static_prescreen())
    }

    #[test]
    fn prescreen_decides_dead_ep_without_symex() {
        let t_src = format!("func main() {{\nentry:\n halt 0\n}}\n{SHARED}");
        let report = verify_pair_prescreened(&t_src, b"A");
        assert!(matches!(
            report.verdict,
            Verdict::NotTriggerable {
                reason: NotTriggerableReason::EpNotCalled
            }
        ));
        assert!(report.prescreen, "P0 should have decided this pair");
        assert!(report.symex_stats.is_none(), "no symbolic execution ran");
    }

    #[test]
    fn prescreen_decides_hardcoded_argument_without_symex() {
        let t_src = format!(
            "func main() {{\nentry:\n fd = open\n call shared(0x10)\n halt 0\n}}\n{SHARED}"
        );
        let report = verify_pair_prescreened(&t_src, b"A");
        assert!(matches!(
            report.verdict,
            Verdict::NotTriggerable {
                reason: NotTriggerableReason::UnsatisfiableConstraints
            }
        ));
        assert!(report.prescreen);
        assert!(report.symex_stats.is_none());
    }

    #[test]
    fn prescreen_stays_silent_on_triggerable_pairs() {
        // The Type-I pair: ep is reachable with a data-dependent argument,
        // so P0 must pass through and the verdict must be unchanged.
        let t_src = format!(
            "func main() {{\nentry:\n fd = open\n b = getc fd\n call shared(b)\n \
             halt 0\n}}\n{SHARED}"
        );
        let report = verify_pair_prescreened(&t_src, b"A");
        assert!(matches!(
            report.verdict,
            Verdict::Triggered {
                kind: TriggerKind::TypeI,
                ..
            }
        ));
        assert!(!report.prescreen);
        assert!(report.symex_stats.is_some());
    }

    #[test]
    fn prescreen_preserves_cfg_failure() {
        // The Idx-15 shape: the screen must not mask the CFG failure.
        let t_src = format!(
            "func main() {{\nentry:\n fd = open\n b = getc fd\n t = add b, 2\n \
             ijmp t\nunreached:\n call shared(b)\n halt 0\n}}\n{SHARED}"
        );
        let report = verify_pair_prescreened(&t_src, b"A");
        assert!(matches!(
            report.verdict,
            Verdict::Failure {
                reason: FailureReason::CfgConstruction(_)
            }
        ));
        assert!(!report.prescreen);
    }

    #[test]
    fn every_failure_path_records_wall_time() {
        // Regression: `VerificationReport::failure` used to hardcode
        // `wall_seconds: 0.0` and the early-exit paths kept it.
        let t_safe = format!("func main() {{\nentry:\n halt 0\n}}\n{SHARED}");
        // Path 1: poc does not crash S.
        let report = verify_pair(&t_safe, b"Z");
        assert!(matches!(report.verdict, Verdict::Failure { .. }));
        assert!(report.wall_seconds > 0.0, "NoCrash path: {report:?}");
        // Path 2: ep missing in T.
        let t = parse_program("func main() {\nentry:\n halt 0\n}\n").unwrap();
        let s = s_program();
        let poc = PocFile::from(&b"A"[..]);
        let shared = vec!["shared".to_string()];
        let input = SoftwarePairInput {
            s: &s,
            t: &t,
            poc: &poc,
            shared: &shared,
        };
        let report = verify(&input, &PipelineConfig::default());
        assert!(matches!(
            report.verdict,
            Verdict::Failure {
                reason: FailureReason::EpMissingInT { .. }
            }
        ));
        assert!(report.wall_seconds > 0.0, "EpMissingInT path");
        // Path 3: CFG construction failure (Idx-15 shape).
        let t_ijmp = format!(
            "func main() {{\nentry:\n t = 0xB10C_0000_0000_0002\n ijmp t\nunreached:\n \
             fd = open\n b = getc fd\n call shared(b)\n halt 0\n}}\n{SHARED}"
        );
        let report = verify_pair(&t_ijmp, b"A");
        assert!(matches!(
            report.verdict,
            Verdict::Failure {
                reason: FailureReason::CfgConstruction(_)
            }
        ));
        assert!(report.wall_seconds > 0.0, "CfgConstruction path");
    }

    #[test]
    fn prepare_then_verify_prepared_matches_verify() {
        let t_src = format!(
            "func main() {{\nentry:\n fd = open\n b = getc fd\n call shared(b)\n \
             halt 0\n}}\n{SHARED}"
        );
        let s = s_program();
        let t = parse_program(&t_src).unwrap();
        let poc = PocFile::from(&b"A"[..]);
        let shared = vec!["shared".to_string()];
        let input = SoftwarePairInput {
            s: &s,
            t: &t,
            poc: &poc,
            shared: &shared,
        };
        let config = PipelineConfig::default();
        let whole = verify(&input, &config);
        let prep = prepare(&s, &poc, &shared, &config).expect("prefix succeeds");
        assert!(prep.approx_bytes() > 0);
        let split = verify_prepared(&prep, &input, &config, None);
        assert_eq!(whole.verdict.type_label(), split.verdict.type_label());
        assert_eq!(whole.ep_name, split.ep_name);
        assert_eq!(whole.ep_entries, split.ep_entries);
        assert_eq!(whole.p1_insts, split.p1_insts);
        assert_eq!(whole.p4_insts, split.p4_insts);
    }

    #[test]
    fn expired_deadline_yields_deadline_failure() {
        // A Type-I pair with an already-expired per-job deadline: the
        // directed engine must yield instead of running, and the verdict
        // must be the dedicated Deadline failure.
        let t_src = format!(
            "func main() {{\nentry:\n fd = open\n b = getc fd\n call shared(b)\n \
             halt 0\n}}\n{SHARED}"
        );
        let s = s_program();
        let t = parse_program(&t_src).unwrap();
        let poc = PocFile::from(&b"A"[..]);
        let shared = vec!["shared".to_string()];
        let input = SoftwarePairInput {
            s: &s,
            t: &t,
            poc: &poc,
            shared: &shared,
        };
        let config = PipelineConfig::default();
        let prep = prepare(&s, &poc, &shared, &config).expect("prefix succeeds");
        let token = CancelToken::with_deadline(std::time::Duration::ZERO);
        let report = verify_prepared(&prep, &input, &config, Some(&token));
        assert!(matches!(
            report.verdict,
            Verdict::Failure {
                reason: FailureReason::Deadline
            }
        ));
        assert!(report.wall_seconds > 0.0);
    }

    #[test]
    fn report_collects_phase_statistics() {
        let t_src = format!(
            r#"
func main() {{
entry:
    fd = open
    b = getc fd
    call shared(b)
    halt 0
}}
{SHARED}
"#
        );
        let report = verify_pair(&t_src, b"A");
        assert!(report.p1_insts > 0);
        assert!(report.p4_insts > 0);
        assert!(report.symex_stats.is_some());
        assert_eq!(report.ep_entries, 1);
        assert!(report.s_crash.is_some());
        assert!(report.t_crash.is_some());
        assert!(report.poc_prime().is_some());
        // Observability fields: the prefix and P4 are billed separately,
        // and the P1 engine counters travel with the report.
        assert!(report.prepare_seconds > 0.0);
        assert!(report.prepare_seconds < report.wall_seconds);
        assert!(report.p4_seconds > 0.0);
        let taint = report.taint_stats.expect("prefix succeeded");
        assert!(taint.bytes_uploaded > 0);
        // One ep entry → one bunch. Its dense payload may be empty (the
        // tainted byte reaches `shared` through an argument register,
        // not memory), which is exactly what the size metric shows.
        assert_eq!(report.bunch_bytes.len(), 1);
    }

    #[test]
    fn post_mortems_attach_to_not_triggerable_and_deadline_verdicts() {
        // Type-III / ep never called: no death note (the engine never
        // found a path), so the entry count at death is 0.
        let t_dead = format!("func main() {{\nentry:\n halt 0\n}}\n{SHARED}");
        let report = verify_pair(&t_dead, b"A");
        let pm = report
            .post_mortem
            .as_ref()
            .expect("Type-III gets a post-mortem");
        assert_eq!(pm.event, "ep-unreachable");
        assert_eq!(pm.total_entries, 1);
        assert!(!pm.detail.is_empty());
        assert!(pm.tail.is_empty(), "no recorder installed");

        // Type-III / hardcoded argument: the final solve is unsat, and the
        // death note carries the dying path's constraint summary.
        let t_hard = format!(
            "func main() {{\nentry:\n fd = open\n call shared(0x10)\n halt 0\n}}\n{SHARED}"
        );
        let report = verify_pair(&t_hard, b"A");
        let pm = report
            .post_mortem
            .as_ref()
            .expect("unsat gets a post-mortem");
        assert_eq!(pm.event, "unsat");
        assert!(pm.detail.contains("died of"), "{}", pm.detail);

        // Prescreened verdicts say so in the detail line.
        let report = verify_pair_prescreened(&t_dead, b"A");
        let pm = report
            .post_mortem
            .as_ref()
            .expect("prescreen gets a post-mortem");
        assert_eq!(pm.event, "ep-unreachable");
        assert!(pm.detail.contains("pre-screen"), "{}", pm.detail);

        // Deadline verdicts name the deadline event.
        let t_ok = format!(
            "func main() {{\nentry:\n fd = open\n b = getc fd\n call shared(b)\n \
             halt 0\n}}\n{SHARED}"
        );
        let s = s_program();
        let t = parse_program(&t_ok).unwrap();
        let poc = PocFile::from(&b"A"[..]);
        let shared = vec!["shared".to_string()];
        let input = SoftwarePairInput {
            s: &s,
            t: &t,
            poc: &poc,
            shared: &shared,
        };
        let config = PipelineConfig::default();
        let prep = prepare(&s, &poc, &shared, &config).expect("prefix succeeds");
        let token = CancelToken::with_deadline(std::time::Duration::ZERO);
        let report = verify_prepared(&prep, &input, &config, Some(&token));
        let pm = report
            .post_mortem
            .as_ref()
            .expect("deadline gets a post-mortem");
        assert_eq!(pm.event, "deadline");

        // Triggered verdicts carry none.
        let report = verify_pair(&t_ok, b"A");
        assert!(report.verdict.poc_generated());
        assert!(report.post_mortem.is_none());
    }

    #[test]
    fn escalated_cancel_maps_to_hung_not_deadline() {
        // A pre-escalated token (what the watchdog produces for a silent
        // job) must yield the dedicated Hung failure, with a post-mortem.
        let t_src = format!(
            "func main() {{\nentry:\n fd = open\n b = getc fd\n call shared(b)\n \
             halt 0\n}}\n{SHARED}"
        );
        let s = s_program();
        let t = parse_program(&t_src).unwrap();
        let poc = PocFile::from(&b"A"[..]);
        let shared = vec!["shared".to_string()];
        let input = SoftwarePairInput {
            s: &s,
            t: &t,
            poc: &poc,
            shared: &shared,
        };
        let config = PipelineConfig::default();
        let prep = prepare(&s, &poc, &shared, &config).expect("prefix succeeds");
        let token = CancelToken::new();
        token.escalate();
        let report = verify_prepared(&prep, &input, &config, Some(&token));
        assert!(matches!(
            report.verdict,
            Verdict::Failure {
                reason: FailureReason::Hung
            }
        ));
        let pm = report
            .post_mortem
            .as_ref()
            .expect("hung gets a post-mortem");
        assert_eq!(pm.event, "hung");
    }

    #[test]
    fn injected_solver_fault_degrades_the_verdict() {
        use octo_faults::{FaultPlan, FaultSite, JobFaults};
        use std::sync::Arc;

        let t_src = format!(
            "func main() {{\nentry:\n fd = open\n b = getc fd\n call shared(b)\n \
             halt 0\n}}\n{SHARED}"
        );
        // Probability 1.0: *every* solve is injected. The quick-feasible
        // pre-checks swallow injections as "not refuted", so the final
        // solve — the one that decides the verdict — is injected too.
        let plan = Arc::new(FaultPlan::new(7).probability(FaultSite::SolverSolve, None, 1.0));
        let ctx = Arc::new(JobFaults::new(&plan, 0));
        let guard = octo_faults::install(&ctx);
        let report = verify_pair(&t_src, b"A");
        drop(guard);
        assert!(
            matches!(
                report.verdict,
                Verdict::Failure {
                    reason: FailureReason::Injected {
                        site: "solver-solve"
                    }
                }
            ),
            "{:?}",
            report.verdict
        );
        let pm = report
            .post_mortem
            .as_ref()
            .expect("injected faults get a post-mortem");
        assert_eq!(pm.event, "fault-injected");
        assert!(ctx.fired() >= 1);

        // Without the plan installed the same pair triggers normally.
        let clean = verify_pair(&t_src, b"A");
        assert!(clean.verdict.poc_generated());
    }

    #[test]
    fn injected_p4_replay_reports_a_spurious_non_crash() {
        use octo_faults::{FaultPlan, FaultSite, JobFaults};
        use std::sync::Arc;

        let t_src = format!(
            "func main() {{\nentry:\n fd = open\n b = getc fd\n call shared(b)\n \
             halt 0\n}}\n{SHARED}"
        );
        let plan = Arc::new(FaultPlan::new(7).nth(FaultSite::P4Replay, None, 1));
        let ctx = Arc::new(JobFaults::new(&plan, 0));
        let guard = octo_faults::install(&ctx);
        let report = verify_pair(&t_src, b"A");
        drop(guard);
        assert!(
            matches!(
                report.verdict,
                Verdict::Failure {
                    reason: FailureReason::Injected { site: "p4-replay" }
                }
            ),
            "{:?}",
            report.verdict
        );
        assert_eq!(report.p4_insts, 0, "the replay was pretended away");
        assert!(report.t_crash.is_none());
        assert_eq!(ctx.fired(), 1);
    }

    #[test]
    fn phase_events_report_symex_then_p4() {
        let t_src = format!(
            "func main() {{\nentry:\n fd = open\n b = getc fd\n call shared(b)\n \
             halt 0\n}}\n{SHARED}"
        );
        let s = s_program();
        let t = parse_program(&t_src).unwrap();
        let poc = PocFile::from(&b"A"[..]);
        let shared = vec!["shared".to_string()];
        let input = SoftwarePairInput {
            s: &s,
            t: &t,
            poc: &poc,
            shared: &shared,
        };
        let config = PipelineConfig::default();
        let prep = prepare(&s, &poc, &shared, &config).expect("prefix succeeds");
        let log = octo_sched::EventLog::new();
        let clock = EventClock::new(1);
        let events = JobEvents {
            sink: &log,
            clock: &clock,
            job: 5,
            worker: 0,
        };
        let report = verify_suffix(&prep, &input, &config, None, Some(&events), Instant::now());
        assert!(report.verdict.poc_generated());
        let phases: Vec<(String, u64)> = log
            .snapshot()
            .into_iter()
            .map(|e| match e.kind {
                EventKind::PhaseFinished {
                    job: 5,
                    phase,
                    micros,
                } => (phase.into_owned(), micros),
                other => panic!("only phase events expected: {other:?}"),
            })
            .collect();
        let names: Vec<&str> = phases.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["symex", "p4"], "phases fire in pipeline order");
        // One clock read feeds both: whole micros vs. f64 seconds.
        assert!(phases[1].1.abs_diff((report.p4_seconds * 1e6) as u64) <= 1);
    }

    #[test]
    fn phase_guard_closes_on_unwind() {
        let log = octo_sched::EventLog::new();
        let clock = EventClock::new(1);
        let events = JobEvents {
            sink: &log,
            clock: &clock,
            job: 4,
            worker: 0,
        };
        let rec = std::sync::Arc::new(octo_trace::FlightRecorder::new(16));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _trace = octo_trace::install(&rec, 4, 0);
            let _phase = PhaseGuard::start("symex", Some(&events));
            panic!("engine blew up mid-phase");
        }));
        assert!(caught.is_err());
        let seen = log.snapshot();
        assert_eq!(seen.len(), 1, "one phase event: {seen:?}");
        assert!(matches!(
            &seen[0].kind,
            EventKind::PhaseFinished { job: 4, phase, .. } if phase == "symex"
        ));
        let kinds: Vec<TraceKind> = rec.snapshot().into_iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            [
                TraceKind::SpanBegin { name: "symex" },
                TraceKind::SpanEnd { name: "symex" }
            ]
        );
    }
}
