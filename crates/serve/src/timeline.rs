//! Per-job causal timelines: submit → queue-wait → attempts → phases →
//! verdict.
//!
//! A [`JobTimeline`] is part of the daemon's job record
//! ([`crate::daemon::Daemon`]), under its state lock. The daemon stamps
//! the transitions only it sees (admission, worker pickup, the outcome)
//! and records every event the executor emits for the job as a
//! [`TimelineStep`] before passing it on to the fan-out. All stamps come
//! from one daemon clock that is clamped to strictly increase, so a
//! timeline always reads in causal order even though scheduler
//! timestamps ([`octo_sched::EventClock`]) live on another origin. A
//! step keeps its event as emitted, `ts_us` included, so `watch` can
//! replay it.
//!
//! Memory is bounded per job: past [`MAX_STEPS_PER_JOB`] scheduler
//! steps further arrivals are counted in `dropped_steps` instead of
//! stored (the submit/pickup/finish stamps are always kept).

use octo_sched::{Event, EventKind};

use crate::json::json_escape;
use crate::proto::{render_event_payload, JobPhase, Priority};

/// Cap on stored scheduler steps per job (a pathological event storm
/// must not grow the daemon's memory without bound).
pub const MAX_STEPS_PER_JOB: usize = 4096;

/// One causally-ordered timeline entry: an event the executor emitted
/// for the job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineStep {
    /// Daemon-clock stamp, microseconds since the daemon started;
    /// strictly increasing across *all* stamps the daemon hands out.
    pub at_us: u64,
    /// The event as emitted (worker lane, scheduler stamp, payload).
    pub event: Event,
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
    /// Daemon-clock stamp of admission.
    pub submitted_us: u64,
    /// Daemon-clock stamp of worker pickup (`None` while queued).
    pub picked_up_us: Option<u64>,
    /// Daemon-clock stamp of the final transition (`None` while running).
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
    /// Daemon-clock stamp at which the attempt ended (the retry step for
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
    /// A queued job's timeline, admitted at `submitted_us`.
    pub(crate) fn queued(id: u64, name: String, priority: Priority, submitted_us: u64) -> Self {
        JobTimeline {
            id,
            name,
            priority,
            phase: JobPhase::Queued,
            submitted_us,
            picked_up_us: None,
            finished_us: None,
            outcome: None,
            steps: Vec::new(),
            dropped_steps: 0,
        }
    }

    /// Records `event` as a step stamped `at_us`, or counts it as
    /// dropped once the job holds [`MAX_STEPS_PER_JOB`] steps.
    pub(crate) fn record(&mut self, at_us: u64, event: Event) {
        if self.steps.len() >= MAX_STEPS_PER_JOB {
            self.dropped_steps += 1;
        } else {
            self.steps.push(TimelineStep { at_us, event });
        }
    }

    /// The terminal transition at `at_us`. `outcome` is the verdict
    /// label, or `"interrupted"` when a shutdown cut the job short. No
    /// step follows it, so the step list gives back its spare capacity.
    pub(crate) fn finish(&mut self, at_us: u64, phase: JobPhase, outcome: &str) {
        self.finished_us = Some(at_us);
        self.phase = phase;
        self.outcome = Some(outcome.to_string());
        self.steps.shrink_to_fit();
    }

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
            .filter_map(|s| match &s.event.kind {
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
            let (label, fields) = render_event_payload(&s.event.kind);
            out.push_str(&format!(
                "\n{{\"at_us\":{},\"worker\":{},\"step\":\"{label}\",{fields}}}",
                s.at_us, s.event.worker
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A timeline picked up at 2 that recorded `events` at 3, 4, …
    fn picked_up(id: u64, name: &str, events: Vec<EventKind>) -> JobTimeline {
        let mut t = JobTimeline::queued(id, name.to_string(), Priority::Bulk, 1);
        t.picked_up_us = Some(2);
        for (at, kind) in (3..).zip(events) {
            t.record(at, Event::new(0, 0, kind));
        }
        t
    }

    #[test]
    fn retries_become_attempt_spans() {
        let mut t = picked_up(
            7,
            "flaky",
            vec![
                EventKind::RetryScheduled {
                    job: 7,
                    attempt: 1,
                    backoff_micros: 2000,
                    beats: 5,
                },
                EventKind::RetryScheduled {
                    job: 7,
                    attempt: 2,
                    backoff_micros: 4000,
                    beats: 9,
                },
            ],
        );
        t.finish(5, JobPhase::Done, "Type-I");

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
    fn render_json_carries_queue_wait_attempts_and_steps() {
        let mut t = picked_up(
            3,
            "r\"j",
            vec![
                EventKind::JobStarted {
                    job: 3,
                    name: "r\"j".into(),
                },
                EventKind::CacheHit { job: 3, key: 0xAB },
                EventKind::PhaseFinished {
                    job: 3,
                    phase: "symex".into(),
                    micros: 500_000,
                },
                EventKind::RetryScheduled {
                    job: 3,
                    attempt: 1,
                    backoff_micros: 1500,
                    beats: 11,
                },
                EventKind::JobFinished {
                    job: 3,
                    outcome: "Type-II".into(),
                    micros: 1_250_000,
                },
            ],
        );
        t.finish(8, JobPhase::Done, "Type-II");
        let json = t.render_json();
        // The step lines, pinned literally (daemon-clock stamps masked).
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
        let mut t = JobTimeline::queued(2, "j".to_string(), Priority::Bulk, 1);
        t.record(2, e);
        let json = t.render_json();
        assert!(
            json.contains(",\"worker\":1,\"step\":\"phase\",\"phase\":\"p4\",\"micros\":249}"),
            "{json}"
        );
    }
}
