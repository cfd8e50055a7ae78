//! The octopocsd core: a durable, priority-scheduled job queue.
//!
//! The daemon is engine-agnostic — it owns admission control, the
//! journal, the two priority queues, the worker pool, and the event
//! fan-out, and delegates the actual (S, T, poc, ℓ) verification to a
//! [`JobExecutor`] supplied by the embedder (the `octopocs` core crate
//! wires in its batch runtime; tests wire in stubs). That keeps this
//! crate free of a dependency on the pipeline while letting the daemon
//! and the one-shot `batch` subcommand share one execution path.
//!
//! Lifecycle: jobs are journaled *before* they are enqueued and their
//! verdicts journaled when they finish; a job cut short by shutdown is
//! journaled as submitted but never as finished, so a restart on the
//! same journal resubmits it under its original id and the run
//! converges to the verdicts an uninterrupted run would have produced.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use octo_obs::{Counter, Gauge, Histogram, MetricsRegistry};
use octo_sched::{Event, EventSink, FanoutSink};

use crate::journal::{Journal, Replay};
use crate::proto::{
    JobPhase, JobSpec, JobStatus, Priority, QueueStatus, Response, ResultRow, VerdictSummary,
};
use crate::timeline::TimelineStore;

/// Queue-wait histogram bounds, microseconds. Shared with the batch
/// metrics registration in the core crate — the registry asserts that
/// re-registrations agree on bounds, so there is exactly one definition.
pub const QUEUE_WAIT_BUCKETS: [u64; 6] = [100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000];

/// One admitted job as handed to the executor.
#[derive(Debug, Clone)]
pub struct ExecJob {
    /// Daemon-global id (also the event-stream job index).
    pub id: u64,
    /// What to verify.
    pub spec: JobSpec,
}

/// What the executor produced for one job.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// The verdict summary (journaled unless `cancelled`).
    pub verdict: VerdictSummary,
    /// Rendered post-mortem, when the pipeline produced one.
    pub post_mortem: Option<String>,
    /// The job was cut short by a drain/shutdown rather than finishing.
    /// Cancelled outcomes are *not* journaled: the job stays incomplete
    /// and is resubmitted when the daemon restarts.
    pub cancelled: bool,
}

/// The verification engine behind the daemon.
pub trait JobExecutor: Send + Sync {
    /// Runs one job to completion (or cancellation), emitting progress
    /// events for worker lane `worker` into `sink`.
    fn run(&self, job: &ExecJob, worker: usize, sink: &dyn EventSink) -> ExecOutcome;

    /// The registry the daemon's `serve_*` metrics live in (shared with
    /// the engine's own metrics so one `metrics` reply carries both).
    fn registry(&self) -> &MetricsRegistry;

    /// Renders the registry for the `metrics` response. Embedders that
    /// refresh derived gauges before rendering override this.
    fn metrics_json(&self) -> String {
        self.registry().render_json()
    }

    /// Renders the registry in the Prometheus text format (the HTTP
    /// plane's `/metrics`). Embedders that refresh derived gauges
    /// before rendering override this too.
    fn metrics_prometheus(&self) -> String {
        self.registry().render_prometheus()
    }

    /// Fires the engine's run-level cancel token: every in-flight job
    /// should wind down as cancelled. Called once at shutdown.
    fn cancel_all(&self) {}
}

/// Handles to the pre-registered `serve_*` metrics.
struct ServeMetrics {
    admissions: Arc<Counter>,
    rejections: Arc<Counter>,
    replays: Arc<Counter>,
    /// Per-priority queue depths: one gauge per class, so a scrape can
    /// see bulk starvation even while interactive churns.
    queue_depth_interactive: Arc<Gauge>,
    queue_depth_bulk: Arc<Gauge>,
    queue_wait: Arc<Histogram>,
}

impl ServeMetrics {
    fn register(reg: &MetricsRegistry) -> ServeMetrics {
        ServeMetrics {
            admissions: reg.counter("serve_admissions_total"),
            rejections: reg.counter("serve_rejections_total"),
            replays: reg.counter("serve_replays_total"),
            queue_depth_interactive: reg.gauge("serve_queue_depth_interactive"),
            queue_depth_bulk: reg.gauge("serve_queue_depth_bulk"),
            queue_wait: reg.histogram("serve_queue_wait_micros", &QUEUE_WAIT_BUCKETS),
        }
    }

    fn set_queue_depth(&self, state: &State) {
        self.queue_depth_interactive
            .set(state.interactive.len() as u64);
        self.queue_depth_bulk.set(state.bulk.len() as u64);
    }
}

/// Why a submission was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// Backpressure: the queue is at capacity (or the daemon is
    /// draining). Maps to the wire's `rejected` response.
    Rejected(String),
    /// The job itself is malformed (bad program text, bad hex). Maps to
    /// the wire's `error` response.
    Invalid(String),
}

struct JobRecord {
    spec: JobSpec,
    phase: JobPhase,
    verdict: Option<VerdictSummary>,
    post_mortem: Option<String>,
    queued_at: Instant,
}

#[derive(Default)]
struct State {
    jobs: BTreeMap<u64, JobRecord>,
    interactive: VecDeque<u64>,
    bulk: VecDeque<u64>,
    running: u64,
    next_id: u64,
    draining: bool,
    shutting_down: bool,
}

impl State {
    fn queued(&self) -> u64 {
        (self.interactive.len() + self.bulk.len()) as u64
    }

    fn done(&self) -> u64 {
        self.jobs
            .values()
            .filter(|j| j.phase == JobPhase::Done)
            .count() as u64
    }
}

/// The daemon: admission, queueing, workers, journal, fan-out.
pub struct Daemon {
    executor: Arc<dyn JobExecutor>,
    journal: Option<Journal>,
    capacity: usize,
    state: Mutex<State>,
    /// Signalled when work arrives or the lifecycle changes.
    work: Condvar,
    /// Signalled when a job finishes (drain/join waits on it).
    idle: Condvar,
    fanout: Arc<FanoutSink>,
    metrics: ServeMetrics,
    timelines: Arc<TimelineStore>,
}

impl Daemon {
    /// A daemon over `executor` with a queue bound of `capacity`
    /// waiting jobs. Pass a journal for durability; `None` keeps
    /// everything in memory (tests).
    pub fn new(
        executor: Arc<dyn JobExecutor>,
        journal: Option<Journal>,
        capacity: usize,
    ) -> Arc<Daemon> {
        let metrics = ServeMetrics::register(executor.registry());
        let fanout = Arc::new(FanoutSink::new());
        let timelines = Arc::new(TimelineStore::new());
        // The timeline store mirrors the scheduler's event stream for
        // the life of the daemon (watch subscribers come and go beside
        // it on the same fan-out).
        fanout.subscribe(timelines.clone());
        Arc::new(Daemon {
            executor,
            journal,
            capacity: capacity.max(1),
            state: Mutex::new(State {
                next_id: 1,
                ..State::default()
            }),
            work: Condvar::new(),
            idle: Condvar::new(),
            fanout,
            metrics,
            timelines,
        })
    }

    /// Restores journal contents: finished jobs become `done` rows,
    /// unfinished jobs are resubmitted under their original ids.
    pub fn restore(&self, replay: Replay) {
        let mut state = self.state.lock().expect("daemon state poisoned");
        for (id, spec) in replay.jobs {
            let verdict = replay.verdicts.get(&id).cloned();
            self.timelines
                .record_submitted(id, &spec.name, spec.priority);
            let phase = if let Some(done) = &verdict {
                // A restored verdict has no live history; its timeline
                // is just the restored outcome.
                self.timelines
                    .record_finished(id, JobPhase::Done, &done.verdict);
                JobPhase::Done
            } else {
                match spec.priority {
                    Priority::Interactive => state.interactive.push_back(id),
                    Priority::Bulk => state.bulk.push_back(id),
                }
                self.metrics.replays.inc();
                JobPhase::Queued
            };
            state.jobs.insert(
                id,
                JobRecord {
                    spec,
                    phase,
                    verdict,
                    post_mortem: None,
                    queued_at: Instant::now(),
                },
            );
            state.next_id = state.next_id.max(id + 1);
        }
        self.metrics.set_queue_depth(&state);
        drop(state);
        self.work.notify_all();
    }

    /// Spawns `workers` executor threads. The returned handles join
    /// once the daemon is drained or shut down.
    pub fn start_workers(self: &Arc<Self>, workers: usize) -> Vec<std::thread::JoinHandle<()>> {
        (0..workers.max(1))
            .map(|w| {
                let daemon = Arc::clone(self);
                std::thread::Builder::new()
                    .name(format!("octopocsd-worker-{w}"))
                    .spawn(move || daemon.worker_loop(w))
                    .expect("spawn worker")
            })
            .collect()
    }

    fn worker_loop(&self, worker: usize) {
        loop {
            let job = {
                let mut state = self.state.lock().expect("daemon state poisoned");
                loop {
                    if state.shutting_down {
                        return;
                    }
                    if let Some(id) = state
                        .interactive
                        .pop_front()
                        .or_else(|| state.bulk.pop_front())
                    {
                        let record = state.jobs.get_mut(&id).expect("queued job exists");
                        record.phase = JobPhase::Running;
                        state.running += 1;
                        self.metrics.set_queue_depth(&state);
                        self.timelines.record_picked_up(id);
                        let record = state.jobs.get(&id).expect("queued job exists");
                        let wait = record.queued_at.elapsed().as_micros() as u64;
                        self.metrics.queue_wait.observe(wait);
                        break ExecJob {
                            id,
                            spec: record.spec.clone(),
                        };
                    }
                    if state.draining {
                        // Nothing queued and no more admissions: done.
                        return;
                    }
                    let (next, _) = self
                        .work
                        .wait_timeout(state, Duration::from_millis(50))
                        .expect("daemon state poisoned");
                    state = next;
                }
            };
            let outcome = self.executor.run(&job, worker, self.fanout.as_ref());
            let mut state = self.state.lock().expect("daemon state poisoned");
            state.running -= 1;
            let record = state.jobs.get_mut(&job.id).expect("running job exists");
            if outcome.cancelled {
                record.phase = JobPhase::Interrupted;
                self.timelines
                    .record_finished(job.id, JobPhase::Interrupted, "interrupted");
            } else {
                record.phase = JobPhase::Done;
                record.verdict = Some(outcome.verdict.clone());
                record.post_mortem = outcome.post_mortem;
                self.timelines
                    .record_finished(job.id, JobPhase::Done, &outcome.verdict.verdict);
                if let Some(journal) = &self.journal {
                    if let Err(e) = journal.record_verdict(job.id, &outcome.verdict) {
                        eprintln!("octopocsd: {e}");
                    }
                }
            }
            drop(state);
            self.idle.notify_all();
        }
    }

    /// Admits one job: journal first, then enqueue. Full queues and
    /// draining daemons refuse with [`SubmitError::Rejected`]; malformed
    /// jobs with [`SubmitError::Invalid`].
    pub fn submit(&self, spec: JobSpec) -> Result<u64, SubmitError> {
        validate_spec(&spec).map_err(SubmitError::Invalid)?;
        let mut state = self.state.lock().expect("daemon state poisoned");
        if state.draining {
            self.metrics.rejections.inc();
            return Err(SubmitError::Rejected("daemon is draining".to_string()));
        }
        if state.queued() as usize >= self.capacity {
            self.metrics.rejections.inc();
            return Err(SubmitError::Rejected(format!(
                "queue full (capacity {})",
                self.capacity
            )));
        }
        let id = state.next_id;
        if let Some(journal) = &self.journal {
            journal
                .record_job(id, &spec)
                .map_err(SubmitError::Invalid)?;
        }
        state.next_id += 1;
        match spec.priority {
            Priority::Interactive => state.interactive.push_back(id),
            Priority::Bulk => state.bulk.push_back(id),
        }
        self.timelines
            .record_submitted(id, &spec.name, spec.priority);
        state.jobs.insert(
            id,
            JobRecord {
                spec,
                phase: JobPhase::Queued,
                verdict: None,
                post_mortem: None,
                queued_at: Instant::now(),
            },
        );
        self.metrics.admissions.inc();
        self.metrics.set_queue_depth(&state);
        drop(state);
        self.work.notify_one();
        Ok(id)
    }

    /// Queue-level status snapshot.
    pub fn status(&self) -> QueueStatus {
        let state = self.state.lock().expect("daemon state poisoned");
        QueueStatus {
            queued_interactive: state.interactive.len() as u64,
            queued_bulk: state.bulk.len() as u64,
            running: state.running,
            done: state.done(),
            capacity: self.capacity as u64,
            draining: state.draining,
        }
    }

    /// One job's status, or `None` for unknown ids.
    pub fn job_status(&self, id: u64) -> Option<JobStatus> {
        let state = self.state.lock().expect("daemon state poisoned");
        state.jobs.get(&id).map(|j| JobStatus {
            id,
            name: j.spec.name.clone(),
            priority: j.spec.priority,
            phase: j.phase,
            verdict: j.verdict.clone(),
            post_mortem: j.post_mortem.clone(),
        })
    }

    /// Finished verdicts in id (= submission) order.
    pub fn results(&self) -> Vec<ResultRow> {
        let state = self.state.lock().expect("daemon state poisoned");
        state
            .jobs
            .iter()
            .filter_map(|(id, j)| {
                j.verdict.as_ref().map(|v| ResultRow {
                    id: *id,
                    name: j.spec.name.clone(),
                    verdict: v.clone(),
                })
            })
            .collect()
    }

    /// Every known job's status, in id (= submission) order — the
    /// queue + in-flight + completed listing behind `GET /jobs`.
    pub fn jobs(&self) -> Vec<JobStatus> {
        let state = self.state.lock().expect("daemon state poisoned");
        state
            .jobs
            .iter()
            .map(|(id, j)| JobStatus {
                id: *id,
                name: j.spec.name.clone(),
                priority: j.spec.priority,
                phase: j.phase,
                verdict: j.verdict.clone(),
                post_mortem: j.post_mortem.clone(),
            })
            .collect()
    }

    /// The executor's metrics rendering.
    pub fn metrics_json(&self) -> String {
        self.executor.metrics_json()
    }

    /// The executor's Prometheus text rendering (the HTTP plane's
    /// `/metrics` body).
    pub fn metrics_prometheus(&self) -> String {
        self.executor.metrics_prometheus()
    }

    /// The live per-job timeline table.
    pub fn timelines(&self) -> &Arc<TimelineStore> {
        &self.timelines
    }

    /// Streams `id`'s live events into `deliver` until the job
    /// finishes, then delivers the terminal `done` (or `error`) line.
    /// `deliver` returning `Err` (the peer hung up) detaches quietly.
    pub fn watch(
        &self,
        id: u64,
        deliver: &mut dyn FnMut(&Response) -> Result<(), String>,
    ) -> Result<(), String> {
        struct BufferSink {
            job: u64,
            buf: Mutex<Vec<Event>>,
        }
        impl EventSink for BufferSink {
            fn emit(&self, event: Event) {
                if event.job() as u64 == self.job {
                    self.buf.lock().expect("watch buffer poisoned").push(event);
                }
            }
        }

        if self.job_status(id).is_none() {
            return deliver(&Response::Error {
                message: format!("unknown job id {id}"),
            });
        }
        let sink = Arc::new(BufferSink {
            job: id,
            buf: Mutex::new(Vec::new()),
        });
        let sub = self.fanout.subscribe(sink.clone());
        let result = (|| loop {
            let pending: Vec<Event> =
                std::mem::take(&mut *sink.buf.lock().expect("watch buffer poisoned"));
            for event in pending {
                deliver(&Response::Event(event))?;
            }
            let status = self.job_status(id).expect("watched job exists");
            match status.phase {
                JobPhase::Done => {
                    let drained: Vec<Event> =
                        std::mem::take(&mut *sink.buf.lock().expect("watch buffer poisoned"));
                    for event in drained {
                        deliver(&Response::Event(event))?;
                    }
                    return deliver(&Response::Done {
                        id,
                        verdict: status.verdict.expect("done job has a verdict"),
                    });
                }
                JobPhase::Interrupted => {
                    return deliver(&Response::Error {
                        message: format!("job {id} interrupted by shutdown"),
                    });
                }
                JobPhase::Queued | JobPhase::Running => {
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        })();
        self.fanout.unsubscribe(sub);
        result
    }

    /// Stops admissions; queued work still runs. Returns the number of
    /// jobs still pending (queued + running).
    pub fn drain(&self) -> u64 {
        let mut state = self.state.lock().expect("daemon state poisoned");
        state.draining = true;
        let pending = state.queued() + state.running;
        drop(state);
        self.work.notify_all();
        pending
    }

    /// Stops admissions *and* cancels in-flight work. Incomplete jobs
    /// are left unjournaled-as-finished, so a restart replays them.
    pub fn shutdown(&self) {
        let mut state = self.state.lock().expect("daemon state poisoned");
        state.draining = true;
        state.shutting_down = true;
        drop(state);
        self.executor.cancel_all();
        self.work.notify_all();
    }

    /// True once the daemon can exit: draining (or shut down) with
    /// nothing queued or running.
    pub fn finished(&self) -> bool {
        let state = self.state.lock().expect("daemon state poisoned");
        state.draining && (state.shutting_down || (state.queued() == 0 && state.running == 0))
    }

    /// Blocks until every queued/running job has finished (used by
    /// graceful drain before exit).
    pub fn wait_idle(&self) {
        let mut state = self.state.lock().expect("daemon state poisoned");
        while !state.shutting_down && (state.queued() > 0 || state.running > 0) {
            let (next, _) = self
                .idle
                .wait_timeout(state, Duration::from_millis(50))
                .expect("daemon state poisoned");
            state = next;
        }
    }

    /// The event fan-out every executor run emits into.
    pub fn fanout(&self) -> &Arc<FanoutSink> {
        &self.fanout
    }

    /// Compacts the journal (if one is attached) down to the jobs a
    /// restart would actually resubmit: everything finished is
    /// dropped, everything queued/running/interrupted is rewritten as
    /// a bare job record. Call on an orderly exit, after the workers
    /// have stopped. Returns the number of records kept, or `None`
    /// when the daemon is journal-less.
    pub fn compact_journal(&self) -> Option<Result<u64, String>> {
        let journal = self.journal.as_ref()?;
        let state = self.state.lock().expect("daemon state poisoned");
        let incomplete: Vec<(u64, JobSpec)> = state
            .jobs
            .iter()
            .filter(|(_, j)| j.phase != JobPhase::Done)
            .map(|(id, j)| (*id, j.spec.clone()))
            .collect();
        let kept = incomplete.len() as u64;
        drop(state);
        Some(journal.compact(&incomplete).map(|()| kept))
    }
}

/// Parses and validates both program texts and the PoC hex so a bad
/// submission is refused at admission, not at execution.
fn validate_spec(spec: &JobSpec) -> Result<(), String> {
    crate::proto::from_hex(&spec.poc_hex).map_err(|e| format!("job `{}`: {e}", spec.name))?;
    for (label, text) in [("s", &spec.s_text), ("t", &spec.t_text)] {
        let program = octo_ir::parse::parse_program(text)
            .map_err(|e| format!("job `{}`: program `{label}`: {e}", spec.name))?;
        octo_ir::validate::validate(&program).map_err(|errors| {
            format!(
                "job `{}`: program `{label}`: {}",
                spec.name,
                errors
                    .first()
                    .map(ToString::to_string)
                    .unwrap_or_else(|| "invalid program".to_string())
            )
        })?;
    }
    Ok(())
}

/// A trivial executor for tests: records calls, returns canned
/// verdicts, optionally blocks until released.
pub struct StubExecutor {
    registry: MetricsRegistry,
    /// Job names executed, in execution order.
    pub executed: Mutex<Vec<String>>,
    gate: Option<(Mutex<bool>, Condvar)>,
    cancelled: AtomicBool,
}

impl StubExecutor {
    /// An executor that finishes jobs immediately.
    pub fn immediate() -> StubExecutor {
        StubExecutor {
            registry: MetricsRegistry::new(),
            executed: Mutex::new(Vec::new()),
            gate: None,
            cancelled: AtomicBool::new(false),
        }
    }

    /// An executor whose jobs block until [`StubExecutor::release`].
    pub fn gated() -> StubExecutor {
        StubExecutor {
            registry: MetricsRegistry::new(),
            executed: Mutex::new(Vec::new()),
            gate: Some((Mutex::new(false), Condvar::new())),
            cancelled: AtomicBool::new(false),
        }
    }

    /// Unblocks every gated job.
    pub fn release(&self) {
        if let Some((flag, cv)) = &self.gate {
            *flag.lock().expect("gate poisoned") = true;
            cv.notify_all();
        }
    }
}

impl JobExecutor for StubExecutor {
    fn run(&self, job: &ExecJob, _worker: usize, _sink: &dyn EventSink) -> ExecOutcome {
        self.executed
            .lock()
            .expect("executed poisoned")
            .push(job.spec.name.clone());
        if let Some((flag, cv)) = &self.gate {
            let mut open = flag.lock().expect("gate poisoned");
            while !*open && !self.cancelled.load(Ordering::Acquire) {
                let (next, _) = cv
                    .wait_timeout(open, Duration::from_millis(10))
                    .expect("gate poisoned");
                open = next;
            }
        }
        let cancelled = self.cancelled.load(Ordering::Acquire);
        ExecOutcome {
            verdict: VerdictSummary {
                verdict: "Type-I".to_string(),
                poc_generated: true,
                verified: true,
                attempts: 1,
                quarantined: false,
            },
            post_mortem: None,
            cancelled,
        }
    }

    fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    fn cancel_all(&self) {
        self.cancelled.store(true, Ordering::Release);
        self.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str, priority: Priority) -> JobSpec {
        JobSpec {
            name: name.to_string(),
            priority,
            s_text: "func main() {\nentry:\n  halt 0\n}\n".to_string(),
            t_text: "func main() {\nentry:\n  halt 0\n}\n".to_string(),
            poc_hex: "41".to_string(),
            shared: vec![],
        }
    }

    #[test]
    fn runs_submitted_jobs_and_reports_results_in_id_order() {
        let daemon = Daemon::new(Arc::new(StubExecutor::immediate()), None, 16);
        let a = daemon.submit(spec("a", Priority::Bulk)).unwrap();
        let b = daemon.submit(spec("b", Priority::Bulk)).unwrap();
        assert_eq!((a, b), (1, 2));
        let workers = daemon.start_workers(2);
        daemon.wait_idle();
        daemon.drain();
        for w in workers {
            w.join().unwrap();
        }
        let rows = daemon.results();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "a");
        assert_eq!(rows[1].name, "b");
        assert_eq!(rows[0].verdict.verdict, "Type-I");
    }

    #[test]
    fn interactive_jobs_jump_the_bulk_queue() {
        let executor = Arc::new(StubExecutor::gated());
        let daemon = Daemon::new(executor.clone(), None, 16);
        // One gated job occupies the single worker; everything else
        // queues, so dequeue order is observable.
        daemon.submit(spec("first", Priority::Bulk)).unwrap();
        let workers = daemon.start_workers(1);
        while executor.executed.lock().unwrap().is_empty() {
            std::thread::sleep(Duration::from_millis(5));
        }
        daemon.submit(spec("bulk-1", Priority::Bulk)).unwrap();
        daemon.submit(spec("bulk-2", Priority::Bulk)).unwrap();
        daemon.submit(spec("rush", Priority::Interactive)).unwrap();
        executor.release();
        daemon.wait_idle();
        daemon.drain();
        for w in workers {
            w.join().unwrap();
        }
        let order = executor.executed.lock().unwrap().clone();
        assert_eq!(order, vec!["first", "rush", "bulk-1", "bulk-2"]);
    }

    #[test]
    fn full_queue_is_rejected_with_backpressure_not_a_hang() {
        let executor = Arc::new(StubExecutor::gated());
        let daemon = Daemon::new(executor.clone(), None, 1);
        daemon.submit(spec("running", Priority::Bulk)).unwrap();
        let workers = daemon.start_workers(1);
        while executor.executed.lock().unwrap().is_empty() {
            std::thread::sleep(Duration::from_millis(5));
        }
        // Worker busy; capacity-1 queue takes exactly one more.
        daemon.submit(spec("queued", Priority::Bulk)).unwrap();
        let err = daemon.submit(spec("overflow", Priority::Bulk)).unwrap_err();
        assert_eq!(
            err,
            SubmitError::Rejected("queue full (capacity 1)".to_string())
        );
        let reg = executor.registry();
        assert_eq!(reg.get_counter("serve_rejections_total").unwrap().get(), 1);
        assert_eq!(reg.get_counter("serve_admissions_total").unwrap().get(), 2);
        executor.release();
        daemon.wait_idle();
        daemon.drain();
        for w in workers {
            w.join().unwrap();
        }
    }

    #[test]
    fn invalid_programs_are_refused_at_admission() {
        let daemon = Daemon::new(Arc::new(StubExecutor::immediate()), None, 4);
        let mut bad = spec("bad", Priority::Bulk);
        bad.s_text = "this is not MicroIR".to_string();
        match daemon.submit(bad) {
            Err(SubmitError::Invalid(msg)) => assert!(msg.contains("program `s`"), "{msg}"),
            other => panic!("expected Invalid, got {other:?}"),
        }
        let mut bad_hex = spec("bad-hex", Priority::Bulk);
        bad_hex.poc_hex = "zz".to_string();
        assert!(matches!(
            daemon.submit(bad_hex),
            Err(SubmitError::Invalid(_))
        ));
    }

    #[test]
    fn shutdown_leaves_cancelled_jobs_incomplete_for_replay() {
        let executor = Arc::new(StubExecutor::gated());
        let daemon = Daemon::new(executor.clone(), None, 8);
        daemon.submit(spec("victim", Priority::Bulk)).unwrap();
        let workers = daemon.start_workers(1);
        while executor.executed.lock().unwrap().is_empty() {
            std::thread::sleep(Duration::from_millis(5));
        }
        daemon.shutdown();
        for w in workers {
            w.join().unwrap();
        }
        let status = daemon.job_status(1).unwrap();
        assert_eq!(status.phase, JobPhase::Interrupted);
        assert!(status.verdict.is_none());
        assert!(daemon.results().is_empty());
        assert!(daemon.finished());
    }

    #[test]
    fn restore_resubmits_incomplete_jobs_and_keeps_done_ones() {
        let daemon = Daemon::new(Arc::new(StubExecutor::immediate()), None, 16);
        let mut replay = Replay::default();
        replay.jobs.push((1, spec("done-before", Priority::Bulk)));
        replay.jobs.push((2, spec("redo", Priority::Bulk)));
        replay.verdicts.insert(
            1,
            VerdictSummary {
                verdict: "Type-II".to_string(),
                poc_generated: true,
                verified: true,
                attempts: 1,
                quarantined: false,
            },
        );
        daemon.restore(replay);
        let reg = daemon.executor.registry();
        assert_eq!(reg.get_counter("serve_replays_total").unwrap().get(), 1);
        let workers = daemon.start_workers(1);
        daemon.wait_idle();
        daemon.drain();
        for w in workers {
            w.join().unwrap();
        }
        let rows = daemon.results();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].verdict.verdict, "Type-II");
        assert_eq!(rows[1].verdict.verdict, "Type-I");
        // New submissions continue after the replayed ids.
        let next = daemon.submit(spec("next", Priority::Bulk));
        assert_eq!(
            next,
            Err(SubmitError::Rejected("daemon is draining".to_string()))
        );
    }

    #[test]
    fn queue_depth_gauges_split_by_priority() {
        let executor = Arc::new(StubExecutor::gated());
        let daemon = Daemon::new(executor.clone(), None, 16);
        daemon.submit(spec("first", Priority::Bulk)).unwrap();
        let workers = daemon.start_workers(1);
        while executor.executed.lock().unwrap().is_empty() {
            std::thread::sleep(Duration::from_millis(5));
        }
        daemon.submit(spec("bulk-q", Priority::Bulk)).unwrap();
        daemon.submit(spec("rush", Priority::Interactive)).unwrap();
        let reg = executor.registry();
        assert_eq!(
            reg.get_gauge("serve_queue_depth_interactive")
                .unwrap()
                .get(),
            1
        );
        assert_eq!(reg.get_gauge("serve_queue_depth_bulk").unwrap().get(), 1);
        assert!(
            reg.get_gauge("serve_queue_depth").is_none(),
            "the aggregate gauge is replaced by the per-priority split"
        );
        executor.release();
        daemon.wait_idle();
        daemon.drain();
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(
            reg.get_gauge("serve_queue_depth_interactive")
                .unwrap()
                .get(),
            0
        );
        assert_eq!(reg.get_gauge("serve_queue_depth_bulk").unwrap().get(), 0);
    }

    #[test]
    fn daemon_assembles_timelines_for_submitted_jobs() {
        let daemon = Daemon::new(Arc::new(StubExecutor::immediate()), None, 8);
        daemon.submit(spec("traced", Priority::Bulk)).unwrap();
        let workers = daemon.start_workers(1);
        daemon.wait_idle();
        daemon.drain();
        for w in workers {
            w.join().unwrap();
        }
        let t = daemon.timelines().timeline(1).expect("timeline exists");
        assert_eq!(t.name, "traced");
        assert_eq!(t.phase, JobPhase::Done);
        assert_eq!(t.outcome.as_deref(), Some("Type-I"));
        let picked = t.picked_up_us.expect("picked up");
        let finished = t.finished_us.expect("finished");
        assert!(t.submitted_us < picked && picked < finished);
        assert_eq!(t.queue_wait_us(), Some(picked - t.submitted_us));
        // The daemon's /jobs listing mirrors the job table.
        let jobs = daemon.jobs();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].phase, JobPhase::Done);
    }

    #[test]
    fn watch_streams_done_for_finished_jobs() {
        let daemon = Daemon::new(Arc::new(StubExecutor::immediate()), None, 4);
        daemon
            .submit(spec("watched", Priority::Interactive))
            .unwrap();
        let workers = daemon.start_workers(1);
        daemon.wait_idle();
        let mut seen = Vec::new();
        daemon
            .watch(1, &mut |resp| {
                seen.push(resp.clone());
                Ok(())
            })
            .unwrap();
        assert!(matches!(seen.last(), Some(Response::Done { id: 1, .. })));
        let mut unknown = Vec::new();
        daemon
            .watch(99, &mut |resp| {
                unknown.push(resp.clone());
                Ok(())
            })
            .unwrap();
        assert!(matches!(unknown.last(), Some(Response::Error { .. })));
        daemon.drain();
        for w in workers {
            w.join().unwrap();
        }
    }
}
