//! Per-job causal timelines: submit → queue-wait → attempts → phases →
//! verdict, assembled live as the daemon runs.
//!
//! A [`TimelineStore`] is an [`EventSink`] the daemon subscribes to its
//! event fan-out at construction, plus three direct hooks for the
//! transitions only the daemon sees (admission, worker pickup, record
//! of the outcome). Every entry — whether it arrived from the
//! scheduler's event stream or from a daemon transition — is stamped on
//! one store-local clock that is clamped to strictly increase, so a
//! [`JobTimeline`] always reads in causal order even though scheduler
//! timestamps ([`octo_sched::EventClock`]) and daemon wall instants
//! live on different origins.
//!
//! Memory is bounded per job: past [`MAX_STEPS_PER_JOB`] scheduler
//! steps further arrivals are counted in `dropped_steps` instead of
//! stored (the submit/pickup/finish stamps are always kept). Jobs
//! themselves live as long as the daemon's own job table, which keeps
//! every record for `results` anyway.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use octo_sched::{Event, EventKind, EventSink};

use crate::json::json_escape;
use crate::proto::{render_event_payload, JobPhase, Priority};

/// Cap on stored scheduler steps per job (a pathological event storm
/// must not grow the daemon's memory without bound).
pub const MAX_STEPS_PER_JOB: usize = 4096;

/// One causally-ordered timeline entry derived from the scheduler's
/// event stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineStep {
    /// Store-clock stamp, microseconds since the store's epoch;
    /// strictly increasing across *all* entries of the store.
    pub at_us: u64,
    /// Worker lane that emitted the underlying event.
    pub worker: u64,
    /// The event payload (durations ride along unchanged).
    pub kind: EventKind,
}

/// The assembled per-job view served at `/jobs/<id>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobTimeline {
    /// Daemon job id.
    pub id: u64,
    /// Display name.
    pub name: String,
    /// Scheduling class.
    pub priority: Priority,
    /// Queue phase at read time.
    pub phase: JobPhase,
    /// Store-clock stamp of admission.
    pub submitted_us: u64,
    /// Store-clock stamp of worker pickup (`None` while queued).
    pub picked_up_us: Option<u64>,
    /// Store-clock stamp of the final transition (`None` while running).
    pub finished_us: Option<u64>,
    /// Outcome label once finished (`"interrupted"` for shutdown).
    pub outcome: Option<String>,
    /// Scheduler-derived steps in causal order.
    pub steps: Vec<TimelineStep>,
    /// Steps discarded beyond [`MAX_STEPS_PER_JOB`].
    pub dropped_steps: u64,
}

/// One attempt's summary, derived from the retry steps: attempts `1..n`
/// each end in a `retry` step carrying backoff and watchdog beats; the
/// final attempt ends with the job itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttemptSpan {
    /// 1-based attempt number.
    pub attempt: u64,
    /// Store-clock stamp at which the attempt ended (the retry step for
    /// failed attempts; `finished_us` — when known — for the last one).
    pub ended_us: Option<u64>,
    /// Backoff scheduled after this attempt, microseconds (`None` on
    /// the final attempt).
    pub backoff_us: Option<u64>,
    /// Watchdog heartbeats observed during the attempt (`None` when the
    /// scheduler did not report them — i.e. any non-retried attempt).
    pub beats: Option<u64>,
}

impl JobTimeline {
    /// Queue wait in microseconds, once a worker picked the job up.
    pub fn queue_wait_us(&self) -> Option<u64> {
        self.picked_up_us.map(|t| t - self.submitted_us)
    }

    /// The attempts this job has made so far (always at least one once
    /// the job started; empty while queued).
    pub fn attempts(&self) -> Vec<AttemptSpan> {
        if self.picked_up_us.is_none() {
            return Vec::new();
        }
        let mut spans: Vec<AttemptSpan> = self
            .steps
            .iter()
            .filter_map(|s| match &s.kind {
                EventKind::RetryScheduled {
                    attempt,
                    backoff_micros,
                    beats,
                    ..
                } => Some(AttemptSpan {
                    attempt: u64::from(*attempt),
                    ended_us: Some(s.at_us),
                    backoff_us: Some(*backoff_micros),
                    beats: Some(*beats),
                }),
                _ => None,
            })
            .collect();
        let last = spans.last().map_or(1, |s| s.attempt + 1);
        spans.push(AttemptSpan {
            attempt: last,
            ended_us: self.finished_us,
            backoff_us: None,
            beats: None,
        });
        spans
    }

    /// Renders the timeline as one JSON document (integer stamps,
    /// sorted causally; the shape served at `/jobs/<id>`).
    pub fn render_json(&self) -> String {
        let mut out = format!(
            "{{\"id\":{},\"name\":\"{}\",\"priority\":\"{}\",\"phase\":\"{}\",\
             \"submitted_us\":{}",
            self.id,
            json_escape(&self.name),
            self.priority.label(),
            self.phase.label(),
            self.submitted_us
        );
        let opt = |out: &mut String, key: &str, v: Option<u64>| match v {
            Some(v) => out.push_str(&format!(",\"{key}\":{v}")),
            None => out.push_str(&format!(",\"{key}\":null")),
        };
        opt(&mut out, "picked_up_us", self.picked_up_us);
        opt(&mut out, "queue_wait_us", self.queue_wait_us());
        opt(&mut out, "finished_us", self.finished_us);
        match &self.outcome {
            Some(o) => out.push_str(&format!(",\"outcome\":\"{}\"", json_escape(o))),
            None => out.push_str(",\"outcome\":null"),
        }
        out.push_str(&format!(",\"dropped_steps\":{}", self.dropped_steps));
        out.push_str(",\"attempts\":[");
        for (i, a) in self.attempts().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"attempt\":{}", a.attempt));
            opt(&mut out, "ended_us", a.ended_us);
            opt(&mut out, "backoff_us", a.backoff_us);
            opt(&mut out, "beats", a.beats);
            out.push('}');
        }
        out.push_str("],\"steps\":[");
        for (i, s) in self.steps.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let (label, fields) = render_event_payload(&s.kind);
            out.push_str(&format!(
                "\n{{\"at_us\":{},\"worker\":{},\"step\":\"{label}\",{fields}}}",
                s.at_us, s.worker
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[derive(Default)]
struct Inner {
    last_stamp: u64,
    jobs: BTreeMap<u64, JobTimeline>,
}

/// The live timeline table (see the module docs).
pub struct TimelineStore {
    origin: Instant,
    inner: Mutex<Inner>,
}

impl Default for TimelineStore {
    fn default() -> TimelineStore {
        TimelineStore::new()
    }
}

impl std::fmt::Debug for TimelineStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimelineStore")
            .field(
                "jobs",
                &self.inner.lock().expect("timelines poisoned").jobs.len(),
            )
            .finish()
    }
}

impl TimelineStore {
    /// An empty store whose clock starts now.
    pub fn new() -> TimelineStore {
        TimelineStore {
            origin: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Next store-clock stamp: wall elapsed micros, clamped to strictly
    /// exceed every stamp handed out before (callers hold the lock).
    fn stamp(&self, inner: &mut Inner) -> u64 {
        let now = self.origin.elapsed().as_micros() as u64;
        let ts = now.max(inner.last_stamp + 1);
        inner.last_stamp = ts;
        ts
    }

    /// Records an admission (also used for journal replays — a replayed
    /// job re-enters the queue, so its timeline restarts here).
    pub fn record_submitted(&self, id: u64, name: &str, priority: Priority) {
        let mut inner = self.inner.lock().expect("timelines poisoned");
        let at = self.stamp(&mut inner);
        inner.jobs.insert(
            id,
            JobTimeline {
                id,
                name: name.to_string(),
                priority,
                phase: JobPhase::Queued,
                submitted_us: at,
                picked_up_us: None,
                finished_us: None,
                outcome: None,
                steps: Vec::new(),
                dropped_steps: 0,
            },
        );
    }

    /// Records a worker pickup (closes the queue-wait span).
    pub fn record_picked_up(&self, id: u64) {
        let mut inner = self.inner.lock().expect("timelines poisoned");
        let at = self.stamp(&mut inner);
        if let Some(job) = inner.jobs.get_mut(&id) {
            job.picked_up_us = Some(at);
            job.phase = JobPhase::Running;
        }
    }

    /// Records the terminal transition. `outcome` is the verdict label,
    /// or `"interrupted"` when a shutdown cut the job short.
    pub fn record_finished(&self, id: u64, phase: JobPhase, outcome: &str) {
        let mut inner = self.inner.lock().expect("timelines poisoned");
        let at = self.stamp(&mut inner);
        if let Some(job) = inner.jobs.get_mut(&id) {
            job.finished_us = Some(at);
            job.phase = phase;
            job.outcome = Some(outcome.to_string());
        }
    }

    /// A snapshot of one job's timeline.
    pub fn timeline(&self, id: u64) -> Option<JobTimeline> {
        self.inner
            .lock()
            .expect("timelines poisoned")
            .jobs
            .get(&id)
            .cloned()
    }

    /// All known job ids, ascending.
    pub fn ids(&self) -> Vec<u64> {
        self.inner
            .lock()
            .expect("timelines poisoned")
            .jobs
            .keys()
            .copied()
            .collect()
    }
}

impl EventSink for TimelineStore {
    fn emit(&self, event: Event) {
        let mut inner = self.inner.lock().expect("timelines poisoned");
        let at = self.stamp(&mut inner);
        if let Some(job) = inner.jobs.get_mut(&(event.job() as u64)) {
            if job.steps.len() >= MAX_STEPS_PER_JOB {
                job.dropped_steps += 1;
            } else {
                job.steps.push(TimelineStep {
                    at_us: at,
                    worker: event.worker as u64,
                    kind: event.kind,
                });
            }
        }
        // Events for ids the daemon never admitted are dropped: the
        // store only mirrors jobs the daemon owns.
    }
}

/// Shared handle type for the store (the daemon hands clones to its
/// fan-out and to the HTTP plane).
pub type SharedTimelines = Arc<TimelineStore>;

#[cfg(test)]
mod tests {
    use super::*;

    fn event(job: usize, kind: EventKind) -> Event {
        let _ = job;
        Event::new(0, 0, kind)
    }

    #[test]
    fn lifecycle_stamps_are_strictly_monotonic() {
        let store = TimelineStore::new();
        store.record_submitted(1, "job-a", Priority::Bulk);
        store.record_picked_up(1);
        store.emit(event(
            1,
            EventKind::JobStarted {
                job: 1,
                name: "job-a".into(),
            },
        ));
        store.emit(event(
            1,
            EventKind::PhaseFinished {
                job: 1,
                phase: "prepare".into(),
                micros: 1000,
            },
        ));
        store.record_finished(1, JobPhase::Done, "Type-I");

        let t = store.timeline(1).unwrap();
        assert_eq!(t.phase, JobPhase::Done);
        let mut stamps = vec![t.submitted_us, t.picked_up_us.unwrap()];
        stamps.extend(t.steps.iter().map(|s| s.at_us));
        stamps.push(t.finished_us.unwrap());
        assert!(
            stamps.windows(2).all(|w| w[0] < w[1]),
            "timeline stamps must strictly increase: {stamps:?}"
        );
        assert_eq!(
            t.queue_wait_us(),
            Some(t.picked_up_us.unwrap() - t.submitted_us)
        );
    }

    #[test]
    fn retries_become_attempt_spans() {
        let store = TimelineStore::new();
        store.record_submitted(7, "flaky", Priority::Interactive);
        store.record_picked_up(7);
        store.emit(event(
            7,
            EventKind::RetryScheduled {
                job: 7,
                attempt: 1,
                backoff_micros: 2000,
                beats: 5,
            },
        ));
        store.emit(event(
            7,
            EventKind::RetryScheduled {
                job: 7,
                attempt: 2,
                backoff_micros: 4000,
                beats: 9,
            },
        ));
        store.record_finished(7, JobPhase::Done, "Type-I");

        let t = store.timeline(7).unwrap();
        let attempts = t.attempts();
        assert_eq!(attempts.len(), 3);
        assert_eq!(attempts[0].attempt, 1);
        assert_eq!(attempts[0].backoff_us, Some(2000));
        assert_eq!(attempts[0].beats, Some(5));
        assert_eq!(attempts[1].backoff_us, Some(4000));
        assert_eq!(attempts[2].attempt, 3);
        assert_eq!(attempts[2].backoff_us, None);
        assert_eq!(attempts[2].ended_us, t.finished_us);
    }

    #[test]
    fn queued_jobs_have_no_attempts_and_unknown_jobs_drop_events() {
        let store = TimelineStore::new();
        store.record_submitted(1, "waiting", Priority::Bulk);
        assert!(store.timeline(1).unwrap().attempts().is_empty());
        // An event for an id never admitted is ignored, not a panic.
        store.emit(event(99, EventKind::CacheHit { job: 99, key: 0xAB }));
        assert!(store.timeline(99).is_none());
        assert_eq!(store.ids(), vec![1]);
    }

    #[test]
    fn step_cap_counts_drops_instead_of_growing() {
        let store = TimelineStore::new();
        store.record_submitted(1, "storm", Priority::Bulk);
        for _ in 0..(MAX_STEPS_PER_JOB + 10) {
            store.emit(event(1, EventKind::CacheHit { job: 1, key: 1 }));
        }
        let t = store.timeline(1).unwrap();
        assert_eq!(t.steps.len(), MAX_STEPS_PER_JOB);
        assert_eq!(t.dropped_steps, 10);
    }

    #[test]
    fn render_json_carries_queue_wait_attempts_and_steps() {
        let store = TimelineStore::new();
        store.record_submitted(3, "r\"j", Priority::Bulk);
        store.record_picked_up(3);
        store.emit(event(
            3,
            EventKind::JobStarted {
                job: 3,
                name: "r\"j".into(),
            },
        ));
        store.emit(event(3, EventKind::CacheHit { job: 3, key: 0xAB }));
        store.emit(event(
            3,
            EventKind::PhaseFinished {
                job: 3,
                phase: "symex".into(),
                micros: 500_000,
            },
        ));
        store.emit(event(
            3,
            EventKind::RetryScheduled {
                job: 3,
                attempt: 1,
                backoff_micros: 1500,
                beats: 11,
            },
        ));
        store.emit(event(
            3,
            EventKind::JobFinished {
                job: 3,
                outcome: "Type-II".into(),
                micros: 1_250_000,
            },
        ));
        store.record_finished(3, JobPhase::Done, "Type-II");
        let json = store.timeline(3).unwrap().render_json();
        // The step lines, pinned literally (store-clock stamps masked).
        let steps: Vec<String> = json
            .lines()
            .filter_map(|l| l.strip_prefix("{\"at_us\":"))
            .map(|l| format!("{{\"at_us\":_{}", l.trim_start_matches(char::is_numeric)))
            .collect();
        assert_eq!(
            steps,
            [
                r#"{"at_us":_,"worker":0,"step":"started","name":"r\"j"},"#,
                r#"{"at_us":_,"worker":0,"step":"cache_hit","key":"00000000000000ab"},"#,
                r#"{"at_us":_,"worker":0,"step":"phase","phase":"symex","micros":500000},"#,
                r#"{"at_us":_,"worker":0,"step":"retry","attempt":1,"backoff_us":1500,"beats":11},"#,
                r#"{"at_us":_,"worker":0,"step":"finished","outcome":"Type-II","micros":1250000}"#,
            ]
        );
        assert!(json.contains("\"id\":3"), "{json}");
        assert!(json.contains("\"name\":\"r\\\"j\""), "escaped name: {json}");
        assert!(json.contains("\"queue_wait_us\":"), "{json}");
        assert!(json.contains("\"outcome\":\"Type-II\""), "{json}");
        assert!(
            json.contains("\"step\":\"phase\",\"phase\":\"symex\",\"micros\":500000"),
            "{json}"
        );
        assert!(json.contains("\"attempts\":[{\"attempt\":1"), "{json}");
    }

    #[test]
    fn a_249us_phase_reads_249_on_the_wire_and_in_the_timeline() {
        // Regression: durations crossed the wire as f64 seconds and were
        // truncated back to micros, so 249 µs read as 248.
        let micros = std::time::Duration::from_micros(249).as_micros() as u64;
        let e = Event::new(
            7,
            1,
            EventKind::PhaseFinished {
                job: 2,
                phase: "p4".into(),
                micros,
            },
        );
        let wire = crate::proto::Response::Event(e.clone()).render();
        assert!(
            wire.ends_with(",\"phase\":\"p4\",\"micros\":249}"),
            "{wire}"
        );
        let store = TimelineStore::new();
        store.record_submitted(2, "j", Priority::Bulk);
        store.emit(e);
        let json = store.timeline(2).unwrap().render_json();
        assert!(
            json.contains(",\"worker\":1,\"step\":\"phase\",\"phase\":\"p4\",\"micros\":249}"),
            "{json}"
        );
    }
}
