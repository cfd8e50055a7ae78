//! octo-trace — a flight recorder for the OctoPoCs pipeline.
//!
//! The directed symbolic-execution engine (P2+P3), the solver, the P1
//! taint engine, and the P4 replay emit structured [`TraceEvent`]s into a
//! bounded, overwrite-oldest [`FlightRecorder`] ring. Each event carries
//! a monotonic sequence number, a microsecond timestamp, and the job /
//! worker id of the batch scheduler, so events from work-stealing
//! interleavings order correctly.
//!
//! Two renderers sit on top:
//!
//! * [`chrome::render_chrome`] — the Chrome Trace Event Format
//!   (`chrome://tracing`, Perfetto), with one lane per worker and the
//!   pipeline phases (the core phase guard's [`TraceKind::SpanBegin`] /
//!   [`TraceKind::SpanEnd`] pairs) as `B`/`E` duration events;
//! * [`TraceEvent::render_json`] — JSON lines keyed by the scheduler's
//!   job and worker ids, so they join the `octo_sched::Event` stream.
//!
//! On a not-triggerable or deadline verdict the pipeline synthesizes a
//! [`PostMortem`] — the last recorded events plus the dying state's
//! constraint summary — attached to the verification report.
//!
//! # Emission
//!
//! Producers call the free function [`emit`] unconditionally; it is a
//! cheap no-op unless a recorder was [`install`]ed for the current
//! thread (the batch runner installs one per job, carrying the job and
//! worker ids). This keeps the solver and engine hot paths free of
//! recorder plumbing:
//!
//! ```
//! use std::sync::Arc;
//! use octo_trace::{emit, install, FlightRecorder, TraceKind};
//!
//! emit(TraceKind::LoopRetry { visits: 3 }); // no recorder: no-op
//! let rec = Arc::new(FlightRecorder::new(1024));
//! {
//!     let _guard = install(&rec, 7, 0);
//!     emit(TraceKind::LoopRetry { visits: 4 }); // recorded as job 7
//! }
//! assert_eq!(rec.len(), 1);
//! assert_eq!(rec.snapshot()[0].job, 7);
//! ```

#![warn(missing_docs)]

use std::cell::RefCell;
use std::sync::Arc;

pub mod chrome;
pub mod postmortem;
pub mod ring;

pub use postmortem::PostMortem;
pub use ring::FlightRecorder;

/// What happened. Each kind maps onto one Chrome trace phase:
/// `*Begin`/`*End` pairs become `B`/`E` duration events, everything else
/// an instant (`i`).
#[derive(Debug, Clone, PartialEq)]
pub enum TraceKind {
    /// A pipeline phase opened (`"prepare"`, `"symex"`, `"p4"`).
    SpanBegin {
        /// Phase name.
        name: &'static str,
    },
    /// The matching phase closed.
    SpanEnd {
        /// Phase name.
        name: &'static str,
    },
    /// A solver entry started (full solve or `quick_feasible` pre-check).
    SolverBegin {
        /// Constraints in the set being solved.
        constraints: u64,
    },
    /// The solver entry returned.
    SolverEnd {
        /// `"sat"`, `"unsat"`, or `"unknown"`.
        result: &'static str,
        /// Wall microseconds inside the solver.
        micros: u64,
        /// Interval refutations this entry contributed (delta).
        refutations: u64,
    },
    /// A symbolic branch kept one direction and parked `siblings`
    /// alternates on the fallback stack.
    StateFork {
        /// Alternate states pushed at this fork.
        siblings: u32,
    },
    /// An alternate direction was stored for backtracking.
    FallbackPush {
        /// Stack depth after the push.
        depth: u64,
    },
    /// A stored direction was resumed after a path died.
    FallbackPop {
        /// Stack depth after the pop.
        depth: u64,
    },
    /// A branch candidate was abandoned because its block revisit count
    /// exceeded θ (a loop-state retry).
    LoopRetry {
        /// The revisit count that tripped the budget.
        visits: u32,
    },
    /// A crash-primitive bunch was asserted at an `ep` entry (P3).
    BunchAsserted {
        /// 1-based `ep` entry index.
        entry: u32,
        /// Dense payload bytes pinned.
        bytes: u64,
        /// File position indicator where the bunch landed.
        file_pos: u64,
    },
    /// A bunch placement contradicted the path condition.
    StitchInfeasible {
        /// 1-based `ep` entry index.
        entry: u32,
    },
    /// A symbolic state died.
    StateDead {
        /// Why (e.g. `"branch-dead"`, `"stitch-infeasible"`, `"exited"`).
        reason: &'static str,
        /// Bunches stitched when it died.
        ep_entries: u32,
        /// Path-condition size at death.
        constraints: u64,
    },
    /// The cooperative cancel token (per-job deadline) fired.
    CancelFired {
        /// Engine step count when the poll observed the cancel.
        step: u64,
    },
    /// The directed engine finished.
    EngineOutcome {
        /// Outcome label (e.g. `"poc-generated"`, `"loop-dead"`).
        outcome: &'static str,
        /// Total engine steps.
        steps: u64,
    },
    /// P1: the taint run over `S` entered `ep`.
    EpEntered {
        /// 1-based `ep` entry index.
        entry: u32,
    },
    /// P1: a crash-primitive bunch was closed and recorded.
    BunchRecorded {
        /// 1-based `ep` entry index.
        entry: u32,
        /// Dense payload bytes recorded.
        bytes: u64,
    },
    /// P4: the concrete replay of `T` under `poc'` finished.
    P4Replay {
        /// Instructions executed.
        insts: u64,
        /// Whether the replay crashed.
        crashed: bool,
    },
    /// An `octo-faults` injection site fired under the active fault plan.
    FaultInjected {
        /// Stable site label (e.g. `"directed-panic"`, `"cache-miss"`).
        site: &'static str,
    },
    /// The batch runner scheduled a retry of a transiently failed job.
    RetryScheduled {
        /// The 1-based attempt that just failed.
        attempt: u32,
        /// Backoff slept before the next attempt.
        backoff_micros: u64,
    },
    /// The batch runner quarantined a job after exhausting its retry
    /// budget (verdict preserved, batch continues).
    JobQuarantined {
        /// Total attempts the job consumed.
        attempts: u32,
    },
    /// The scheduler watchdog escalated a silent job to its cancel token.
    WatchdogFired {
        /// Heartbeats the job had recorded when escalation fired.
        beats: u64,
    },
    /// Clone retrieval scored a (source function, target function)
    /// candidate at or above threshold.
    CandidateScored {
        /// Combined score in centi-units (`score * 100`, rounded).
        score_centi: u32,
    },
    /// A one-to-many scan expanded an (S, targets…) request into batch
    /// jobs with discovered shared sets.
    ScanExpanded {
        /// Candidates retained across all targets.
        candidates: u32,
        /// Batch jobs emitted.
        jobs: u32,
    },
    /// The disk blob store detected a corrupt entry and moved it to
    /// `quarantine/` before recomputing the artifact.
    CacheQuarantined {
        /// The 64-bit cache key of the quarantined blob.
        key: u64,
    },
}

impl TraceKind {
    /// The event name (Chrome `name` field / JSON-lines `event` field).
    pub fn name(&self) -> &'static str {
        match self {
            TraceKind::SpanBegin { name } | TraceKind::SpanEnd { name } => name,
            TraceKind::SolverBegin { .. } | TraceKind::SolverEnd { .. } => "solve",
            TraceKind::StateFork { .. } => "state_fork",
            TraceKind::FallbackPush { .. } => "fallback_push",
            TraceKind::FallbackPop { .. } => "fallback_pop",
            TraceKind::LoopRetry { .. } => "loop_retry",
            TraceKind::BunchAsserted { .. } => "bunch_asserted",
            TraceKind::StitchInfeasible { .. } => "stitch_infeasible",
            TraceKind::StateDead { .. } => "state_dead",
            TraceKind::CancelFired { .. } => "cancel_fired",
            TraceKind::EngineOutcome { .. } => "engine_outcome",
            TraceKind::EpEntered { .. } => "ep_entered",
            TraceKind::BunchRecorded { .. } => "bunch_recorded",
            TraceKind::P4Replay { .. } => "p4_replay",
            TraceKind::FaultInjected { .. } => "fault_injected",
            TraceKind::RetryScheduled { .. } => "retry_scheduled",
            TraceKind::JobQuarantined { .. } => "job_quarantined",
            TraceKind::WatchdogFired { .. } => "watchdog_fired",
            TraceKind::CandidateScored { .. } => "candidate_scored",
            TraceKind::ScanExpanded { .. } => "scan_expanded",
            TraceKind::CacheQuarantined { .. } => "cache_quarantined",
        }
    }

    /// The Chrome trace phase: `'B'` begin, `'E'` end, `'i'` instant.
    pub fn phase(&self) -> char {
        match self {
            TraceKind::SpanBegin { .. } | TraceKind::SolverBegin { .. } => 'B',
            TraceKind::SpanEnd { .. } | TraceKind::SolverEnd { .. } => 'E',
            _ => 'i',
        }
    }

    /// The kind-specific payload as JSON object fields (no braces), e.g.
    /// `"visits":4`. Empty for field-less kinds.
    pub fn args_json(&self) -> String {
        match self {
            TraceKind::SpanBegin { .. } | TraceKind::SpanEnd { .. } => String::new(),
            TraceKind::SolverBegin { constraints } => format!("\"constraints\":{constraints}"),
            TraceKind::SolverEnd {
                result,
                micros,
                refutations,
            } => {
                format!("\"result\":\"{result}\",\"micros\":{micros},\"refutations\":{refutations}")
            }
            TraceKind::StateFork { siblings } => format!("\"siblings\":{siblings}"),
            TraceKind::FallbackPush { depth } | TraceKind::FallbackPop { depth } => {
                format!("\"depth\":{depth}")
            }
            TraceKind::LoopRetry { visits } => format!("\"visits\":{visits}"),
            TraceKind::BunchAsserted {
                entry,
                bytes,
                file_pos,
            } => format!("\"entry\":{entry},\"bytes\":{bytes},\"file_pos\":{file_pos}"),
            TraceKind::StitchInfeasible { entry } => format!("\"entry\":{entry}"),
            TraceKind::StateDead {
                reason,
                ep_entries,
                constraints,
            } => format!(
                "\"reason\":\"{reason}\",\"ep_entries\":{ep_entries},\"constraints\":{constraints}"
            ),
            TraceKind::CancelFired { step } => format!("\"step\":{step}"),
            TraceKind::EngineOutcome { outcome, steps } => {
                format!("\"outcome\":\"{outcome}\",\"steps\":{steps}")
            }
            TraceKind::EpEntered { entry } => format!("\"entry\":{entry}"),
            TraceKind::BunchRecorded { entry, bytes } => {
                format!("\"entry\":{entry},\"bytes\":{bytes}")
            }
            TraceKind::P4Replay { insts, crashed } => {
                format!("\"insts\":{insts},\"crashed\":{crashed}")
            }
            TraceKind::FaultInjected { site } => format!("\"site\":\"{site}\""),
            TraceKind::RetryScheduled {
                attempt,
                backoff_micros,
            } => format!("\"attempt\":{attempt},\"backoff_micros\":{backoff_micros}"),
            TraceKind::JobQuarantined { attempts } => format!("\"attempts\":{attempts}"),
            TraceKind::WatchdogFired { beats } => format!("\"beats\":{beats}"),
            TraceKind::CandidateScored { score_centi } => {
                format!("\"score_centi\":{score_centi}")
            }
            TraceKind::ScanExpanded { candidates, jobs } => {
                format!("\"candidates\":{candidates},\"jobs\":{jobs}")
            }
            TraceKind::CacheQuarantined { key } => format!("\"key\":{key}"),
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Monotonic sequence number (global per recorder; total order).
    pub seq: u64,
    /// Microseconds since the recorder was created.
    pub ts_micros: u64,
    /// Batch submission index of the job that emitted the event.
    pub job: u32,
    /// Scheduler worker the job was running on when it emitted.
    pub worker: u32,
    /// What happened.
    pub kind: TraceKind,
}

impl TraceEvent {
    /// One JSON-lines object (no trailing newline): the `event` key
    /// names the kind, `ts_us`/`worker`/`job`/`seq` follow, then the
    /// kind-specific payload. `job` and `worker` are the scheduler's
    /// submission index and lane, the join key with `octo_sched::Event`.
    pub fn render_json(&self) -> String {
        let args = self.kind.args_json();
        let sep = if args.is_empty() { "" } else { "," };
        format!(
            "{{\"event\":\"{}\",\"ts_us\":{},\"worker\":{},\"job\":{},\"seq\":{}{sep}{args}}}",
            self.kind.name(),
            self.ts_micros,
            self.worker,
            self.job,
            self.seq,
        )
    }

    /// One human-readable log line (no trailing newline).
    pub fn render_human(&self) -> String {
        let args = self.kind.args_json();
        format!(
            "[{:>3}/w{}] {:>10}µs {} {}",
            self.job,
            self.worker,
            self.ts_micros,
            self.kind.name(),
            args
        )
    }
}

/// The per-thread emission context: which recorder, which job, which
/// worker. Installed by the batch runner around each job.
struct JobCtx {
    recorder: Arc<FlightRecorder>,
    job: u32,
    worker: u32,
}

thread_local! {
    static CTX: RefCell<Option<JobCtx>> = const { RefCell::new(None) };
}

/// Restores the previous emission context on drop (see [`install`]).
#[must_use = "dropping the guard uninstalls the recorder"]
pub struct TraceGuard {
    prev: Option<JobCtx>,
    installed: bool,
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        if self.installed {
            let prev = self.prev.take();
            CTX.with(|c| *c.borrow_mut() = prev);
        }
    }
}

/// Installs `recorder` as the current thread's emission target, stamped
/// with `job`/`worker`, until the returned guard drops. Nested installs
/// restore the outer context.
pub fn install(recorder: &Arc<FlightRecorder>, job: u32, worker: u32) -> TraceGuard {
    let prev = CTX.with(|c| {
        c.borrow_mut().replace(JobCtx {
            recorder: Arc::clone(recorder),
            job,
            worker,
        })
    });
    TraceGuard {
        prev,
        installed: true,
    }
}

/// Whether the current thread has a recorder installed. Producers whose
/// event payload is expensive to compute gate on this; plain [`emit`]
/// calls do not need to.
pub fn is_active() -> bool {
    CTX.with(|c| c.borrow().is_some())
}

/// Records one event against the current thread's job context. A cheap
/// no-op when no recorder is installed.
pub fn emit(kind: TraceKind) {
    CTX.with(|c| {
        if let Some(ctx) = c.borrow().as_ref() {
            ctx.recorder.record(ctx.job, ctx.worker, kind);
        }
    });
}

/// The last `n` recorded events of the current thread's job, oldest
/// first. Empty when no recorder is installed.
pub fn job_tail(n: usize) -> Vec<TraceEvent> {
    CTX.with(|c| match c.borrow().as_ref() {
        Some(ctx) => ctx.recorder.tail_for_job(ctx.job, n),
        None => Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_without_recorder_is_a_noop() {
        assert!(!is_active());
        emit(TraceKind::LoopRetry { visits: 1 });
        assert!(job_tail(8).is_empty());
    }

    #[test]
    fn install_scopes_the_context() {
        let rec = Arc::new(FlightRecorder::new(16));
        {
            let _g = install(&rec, 3, 1);
            assert!(is_active());
            emit(TraceKind::StateFork { siblings: 2 });
            {
                // Nested install points elsewhere, then restores.
                let inner = Arc::new(FlightRecorder::new(16));
                let _g2 = install(&inner, 9, 0);
                emit(TraceKind::CancelFired { step: 5 });
                assert_eq!(inner.len(), 1);
            }
            emit(TraceKind::FallbackPop { depth: 0 });
        }
        assert!(!is_active());
        let events = rec.snapshot();
        assert_eq!(events.len(), 2);
        assert!(events.iter().all(|e| e.job == 3 && e.worker == 1));
        assert!(events[0].seq < events[1].seq);
        assert!(events[0].ts_micros <= events[1].ts_micros);
    }

    #[test]
    fn job_tail_filters_by_current_job() {
        let rec = Arc::new(FlightRecorder::new(64));
        {
            let _g = install(&rec, 1, 0);
            emit(TraceKind::LoopRetry { visits: 1 });
        }
        {
            let _g = install(&rec, 2, 0);
            emit(TraceKind::LoopRetry { visits: 2 });
            emit(TraceKind::LoopRetry { visits: 3 });
            let tail = job_tail(8);
            assert_eq!(tail.len(), 2);
            assert!(tail.iter().all(|e| e.job == 2));
            assert_eq!(job_tail(1).len(), 1);
            assert!(matches!(
                job_tail(1)[0].kind,
                TraceKind::LoopRetry { visits: 3 }
            ));
        }
    }

    #[test]
    fn json_rendering_is_one_object_per_event() {
        let rec = Arc::new(FlightRecorder::new(8));
        rec.record(
            0,
            0,
            TraceKind::SolverEnd {
                result: "unsat",
                micros: 12,
                refutations: 1,
            },
        );
        let json = rec.snapshot()[0].render_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"event\":\"solve\""), "{json}");
        assert!(json.contains("\"result\":\"unsat\""), "{json}");
        assert!(!rec.snapshot()[0].render_human().is_empty());
    }

    #[test]
    fn every_kind_has_a_name_and_phase() {
        let kinds = [
            TraceKind::SpanBegin { name: "symex" },
            TraceKind::SpanEnd { name: "symex" },
            TraceKind::SolverBegin { constraints: 1 },
            TraceKind::SolverEnd {
                result: "sat",
                micros: 0,
                refutations: 0,
            },
            TraceKind::StateFork { siblings: 1 },
            TraceKind::FallbackPush { depth: 1 },
            TraceKind::FallbackPop { depth: 0 },
            TraceKind::LoopRetry { visits: 1 },
            TraceKind::BunchAsserted {
                entry: 1,
                bytes: 2,
                file_pos: 3,
            },
            TraceKind::StitchInfeasible { entry: 1 },
            TraceKind::StateDead {
                reason: "exited",
                ep_entries: 0,
                constraints: 0,
            },
            TraceKind::CancelFired { step: 0 },
            TraceKind::EngineOutcome {
                outcome: "unsat",
                steps: 1,
            },
            TraceKind::EpEntered { entry: 1 },
            TraceKind::BunchRecorded { entry: 1, bytes: 0 },
            TraceKind::P4Replay {
                insts: 1,
                crashed: true,
            },
            TraceKind::FaultInjected { site: "cache-miss" },
            TraceKind::RetryScheduled {
                attempt: 1,
                backoff_micros: 250,
            },
            TraceKind::JobQuarantined { attempts: 3 },
            TraceKind::WatchdogFired { beats: 7 },
        ];
        for k in kinds {
            assert!(!k.name().is_empty());
            assert!(matches!(k.phase(), 'B' | 'E' | 'i'));
        }
    }
}
