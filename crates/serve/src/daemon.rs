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
//! Lifecycle: a submission is parsed and validated once, at admission
//! ([`JobSpec::admit`]); it is journaled *before* it is enqueued and its
//! verdict journaled when it finishes. A job cut short by shutdown is
//! journaled as submitted but never as finished, so a restart on the
//! same journal admits it again under its original id and the run
//! converges to the verdicts an uninterrupted run would have produced.
//!
//! One job table holds everything the daemon knows about a job: the
//! admitted [`BatchJob`] until a worker takes it, its verdict, and its
//! [`JobTimeline`]. Program text lives only in the journal. Workers
//! hand the daemon itself to the executor as the event sink, so each
//! event lands in the job's timeline before it reaches the fan-out, and
//! `watch` replays a job's recorded events from the table rather than
//! from a subscription of its own. Every change a watcher can wait for
//! (a recorded step, a job's end, shutdown) is signalled on one
//! condvar, so a watch wakes when its job moves instead of polling; the
//! front ends sleep on another until the daemon has finished.
//!
//! The table keeps the newest [`MAX_FINISHED_JOBS`] done jobs; an older
//! done job is forgotten, so a long-lived daemon's memory is bounded by
//! its backlog and that cap, not by its history.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use octo_obs::{Counter, Gauge, Histogram, MetricsRegistry};
use octo_sched::{Event, EventKind, EventSink, FanoutSink};

use crate::journal::{Journal, Replay};
use crate::proto::{
    BatchJob, JobPhase, JobSpec, JobStatus, Priority, QueueStatus, Response, ResultRow,
    VerdictSummary,
};
use crate::timeline::JobTimeline;

/// Bounds of every microsecond histogram, the queue wait's included.
pub const MICROS_BUCKETS: [u64; 6] = [100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000];

/// Cap on done jobs kept in the job table (a long-lived daemon must not
/// grow its memory with every job it serves). Past it the oldest done
/// record is evicted, and its id answers like an id never admitted.
/// Queued, running and interrupted records are never evicted.
pub const MAX_FINISHED_JOBS: usize = 1024;

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
    /// Runs job `id` (the daemon-global id, also the event-stream job
    /// index) to completion (or cancellation), emitting progress events
    /// for worker lane `worker` into `sink`. `queue_wait` is the time
    /// from admission to a worker claiming the job, the value the daemon
    /// records in `serve_queue_wait_micros`.
    fn run(
        &self,
        id: u64,
        job: &BatchJob,
        worker: usize,
        queue_wait: Duration,
        sink: &dyn EventSink,
    ) -> ExecOutcome;

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

/// Handles to the daemon's `serve_*` queue metrics.
pub struct ServeMetrics {
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
    /// Registers the `serve_*` queue metrics in `reg`: the one place
    /// that names them and their bounds. The core crate's batch runtime
    /// calls it too, so a one-shot batch's registry carries the same
    /// pinned schema as the daemon's (the registry asserts that a
    /// re-registration agrees on bounds).
    pub fn register(reg: &MetricsRegistry) -> ServeMetrics {
        ServeMetrics {
            admissions: reg.counter("serve_admissions_total"),
            rejections: reg.counter("serve_rejections_total"),
            replays: reg.counter("serve_replays_total"),
            queue_depth_interactive: reg.gauge("serve_queue_depth_interactive"),
            queue_depth_bulk: reg.gauge("serve_queue_depth_bulk"),
            queue_wait: reg.histogram("serve_queue_wait_micros", &MICROS_BUCKETS),
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

/// Everything the daemon keeps about one job.
struct JobRecord {
    /// Name, priority, phase, the daemon-clock stamps, the outcome and
    /// the recorded events: what `/jobs/<id>` serves and `watch` replays.
    timeline: JobTimeline,
    /// The admitted job while it waits in the queue; the worker that
    /// picks it up takes it. A record that has started costs the same
    /// memory whatever the size of its programs: a restart reads their
    /// text from the journal.
    job: Option<Box<BatchJob>>,
    verdict: Option<VerdictSummary>,
    post_mortem: Option<String>,
}

impl JobRecord {
    /// A queued record for `spec`, admitted at `submitted_us` as `job`.
    fn queued(id: u64, spec: &JobSpec, job: Option<BatchJob>, submitted_us: u64) -> JobRecord {
        JobRecord {
            timeline: JobTimeline::queued(id, spec.name.clone(), spec.priority, submitted_us),
            job: job.map(Box::new),
            verdict: None,
            post_mortem: None,
        }
    }

    /// Records the verdict at `at_us`.
    fn done(&mut self, at_us: u64, verdict: VerdictSummary, post_mortem: Option<String>) {
        self.timeline
            .finish(at_us, JobPhase::Done, &verdict.verdict);
        self.verdict = Some(verdict);
        self.post_mortem = post_mortem;
    }

    /// The line that ends a watch on this job: `done` with the verdict,
    /// or an error when the job was interrupted or is still queued at
    /// shutdown. `None` while the job may still record steps.
    fn watch_end(&self, shutting_down: bool) -> Option<Response> {
        let id = self.timeline.id;
        let interrupted = || Response::Error {
            message: format!("job {id} interrupted by shutdown"),
        };
        match self.timeline.phase {
            JobPhase::Done => Some(Response::Done {
                id,
                verdict: self.verdict.clone().expect("done job has a verdict"),
            }),
            JobPhase::Interrupted => Some(interrupted()),
            JobPhase::Queued if shutting_down => Some(interrupted()),
            JobPhase::Queued | JobPhase::Running => None,
        }
    }

    fn status(&self) -> JobStatus {
        JobStatus {
            id: self.timeline.id,
            name: self.timeline.name.clone(),
            priority: self.timeline.priority,
            phase: self.timeline.phase,
            verdict: self.verdict.clone(),
            post_mortem: self.post_mortem.clone(),
        }
    }
}

#[derive(Default)]
struct State {
    jobs: BTreeMap<u64, JobRecord>,
    /// Ids of the done records in `jobs`, in the order they finished.
    finished: VecDeque<u64>,
    /// Jobs ever done, evicted ones included.
    done_total: u64,
    /// The last daemon-clock stamp handed out.
    last_stamp: u64,
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

    /// Draining (or shut down) with nothing queued or running.
    fn finished(&self) -> bool {
        self.draining && (self.shutting_down || (self.queued() == 0 && self.running == 0))
    }

    fn enqueue(&mut self, id: u64, priority: Priority) {
        match priority {
            Priority::Interactive => self.interactive.push_back(id),
            Priority::Bulk => self.bulk.push_back(id),
        }
    }

    /// Counts the record of `id`, just done, and evicts the oldest done
    /// record past [`MAX_FINISHED_JOBS`].
    fn retire(&mut self, id: u64) {
        self.done_total += 1;
        self.finished.push_back(id);
        if self.finished.len() > MAX_FINISHED_JOBS {
            let oldest = self.finished.pop_front().expect("over the cap");
            self.jobs.remove(&oldest);
        }
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
    /// Signalled when a job records a step or ends, and at shutdown:
    /// `watch` and `wait_idle` wait on it.
    changed: Condvar,
    /// Signalled at drain and shutdown, and when a job ends while
    /// draining: `wait_finished` waits on it, not on every step.
    finish: Condvar,
    fanout: Arc<FanoutSink>,
    metrics: ServeMetrics,
    /// Origin of the daemon clock every timeline stamp is taken on.
    origin: Instant,
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
        Arc::new(Daemon {
            executor,
            journal,
            capacity: capacity.max(1),
            state: Mutex::new(State {
                next_id: 1,
                ..State::default()
            }),
            work: Condvar::new(),
            changed: Condvar::new(),
            finish: Condvar::new(),
            fanout: Arc::new(FanoutSink::new()),
            metrics,
            origin: Instant::now(),
        })
    }

    /// Next daemon-clock stamp: microseconds since the daemon started,
    /// clamped to strictly exceed every stamp handed out before.
    fn stamp(&self, state: &mut State) -> u64 {
        let now = self.origin.elapsed().as_micros() as u64;
        state.last_stamp = now.max(state.last_stamp + 1);
        state.last_stamp
    }

    /// Restores journal contents: finished jobs become `done` rows, and
    /// unfinished jobs are admitted again and queued under their
    /// original ids. An unfinished job that no longer admits (a journal
    /// edited by hand) is done as a `Failure`, journaled so the next
    /// start does not retry it.
    pub fn restore(&self, replay: Replay) {
        let mut state = self.state.lock().expect("daemon state poisoned");
        for (id, spec) in replay.jobs {
            state.next_id = state.next_id.max(id + 1);
            let at = self.stamp(&mut state);
            // A restored verdict has no live history; its timeline is
            // just the restored outcome.
            let (verdict, post_mortem) = match replay.verdicts.get(&id) {
                Some(verdict) => (verdict.clone(), None),
                None => match spec.admit() {
                    Ok(job) => {
                        state
                            .jobs
                            .insert(id, JobRecord::queued(id, &spec, Some(job), at));
                        state.enqueue(id, spec.priority);
                        self.metrics.replays.inc();
                        continue;
                    }
                    Err(e) => {
                        eprintln!("octopocsd: job {id}: {e}");
                        let verdict = VerdictSummary {
                            verdict: "Failure".to_string(),
                            poc_generated: false,
                            verified: false,
                            attempts: 1,
                            quarantined: false,
                        };
                        self.journal_verdict(id, &verdict);
                        (verdict, Some(format!("unrunnable job: {e}")))
                    }
                },
            };
            let mut record = JobRecord::queued(id, &spec, None, at);
            record.done(self.stamp(&mut state), verdict, post_mortem);
            state.jobs.insert(id, record);
            state.retire(id);
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
            let (id, job, wait) = {
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
                        state.running += 1;
                        self.metrics.set_queue_depth(&state);
                        let at = self.stamp(&mut state);
                        let record = state.jobs.get_mut(&id).expect("queued job exists");
                        record.timeline.phase = JobPhase::Running;
                        record.timeline.picked_up_us = Some(at);
                        let wait = at - record.timeline.submitted_us;
                        self.metrics.queue_wait.observe(wait);
                        let job = record.job.take().expect("a queued job holds its job");
                        break (id, job, Duration::from_micros(wait));
                    }
                    if state.draining {
                        // Nothing queued and no more admissions: done.
                        return;
                    }
                    state = self.work.wait(state).expect("daemon state poisoned");
                }
            };
            let outcome = self.executor.run(id, &job, worker, wait, self);
            let mut state = self.state.lock().expect("daemon state poisoned");
            state.running -= 1;
            let at = self.stamp(&mut state);
            let record = state.jobs.get_mut(&id).expect("running job exists");
            if outcome.cancelled {
                record
                    .timeline
                    .finish(at, JobPhase::Interrupted, "interrupted");
            } else {
                self.journal_verdict(id, &outcome.verdict);
                record.done(at, outcome.verdict, outcome.post_mortem);
                state.retire(id);
            }
            let draining = state.draining;
            drop(state);
            self.changed.notify_all();
            if draining {
                self.finish.notify_all();
            }
        }
    }

    /// Appends `id`'s verdict to the journal, if one is attached. A
    /// failed append is reported, not fatal: the job reruns on restart.
    fn journal_verdict(&self, id: u64, verdict: &VerdictSummary) {
        if let Some(journal) = &self.journal {
            if let Err(e) = journal.record_verdict(id, verdict) {
                eprintln!("octopocsd: {e}");
            }
        }
    }

    /// Admits one job: parse and validate ([`JobSpec::admit`]), journal,
    /// then enqueue. Full queues and draining daemons refuse with
    /// [`SubmitError::Rejected`]; malformed jobs with
    /// [`SubmitError::Invalid`].
    pub fn submit(&self, spec: JobSpec) -> Result<u64, SubmitError> {
        let job = spec.admit().map_err(SubmitError::Invalid)?;
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
        state.enqueue(id, spec.priority);
        let at = self.stamp(&mut state);
        state
            .jobs
            .insert(id, JobRecord::queued(id, &spec, Some(job), at));
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
            done: state.done_total,
            capacity: self.capacity as u64,
            draining: state.draining,
        }
    }

    /// One job's status, or `None` for unknown and evicted ids.
    pub fn job_status(&self, id: u64) -> Option<JobStatus> {
        let state = self.state.lock().expect("daemon state poisoned");
        state.jobs.get(&id).map(JobRecord::status)
    }

    /// A snapshot of one job's timeline (the `/jobs/<id>` body), or
    /// `None` for unknown and evicted ids.
    pub fn timeline(&self, id: u64) -> Option<JobTimeline> {
        let state = self.state.lock().expect("daemon state poisoned");
        state.jobs.get(&id).map(|j| j.timeline.clone())
    }

    /// Finished verdicts of the retained jobs, in id (= submission)
    /// order.
    pub fn results(&self) -> Vec<ResultRow> {
        let state = self.state.lock().expect("daemon state poisoned");
        state
            .jobs
            .iter()
            .filter_map(|(id, j)| {
                j.verdict.as_ref().map(|v| ResultRow {
                    id: *id,
                    name: j.timeline.name.clone(),
                    verdict: v.clone(),
                })
            })
            .collect()
    }

    /// Every retained job's status, in id (= submission) order — the
    /// queue + in-flight + completed listing behind `GET /jobs`.
    pub fn jobs(&self) -> Vec<JobStatus> {
        let state = self.state.lock().expect("daemon state poisoned");
        state.jobs.values().map(JobRecord::status).collect()
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

    /// Streams `id`'s events into `deliver`: first every event the job
    /// has recorded (at most [`crate::timeline::MAX_STEPS_PER_JOB`]),
    /// then each new one as it is recorded. Ends with the `done` line,
    /// or with an `error` line when the job is unknown (or evicted), was
    /// interrupted, or was still queued when the daemon shut down.
    /// `deliver` returning `Err` (the peer hung up) detaches quietly.
    pub fn watch(
        &self,
        id: u64,
        deliver: &mut dyn FnMut(&Response) -> Result<(), String>,
    ) -> Result<(), String> {
        let mut cursor = 0;
        loop {
            // Wait and read under the lock, deliver outside it: a slow
            // peer must not hold up the workers.
            let read = {
                let state = self.state.lock().expect("daemon state poisoned");
                // Asleep until the job records a step, reaches its end or
                // is evicted; every such change notifies `changed`.
                let state = self
                    .changed
                    .wait_while(state, |state| {
                        state.jobs.get(&id).is_some_and(|record| {
                            record.timeline.steps.len() == cursor
                                && record.watch_end(state.shutting_down).is_none()
                        })
                    })
                    .expect("daemon state poisoned");
                state.jobs.get(&id).map(|record| {
                    let steps = &record.timeline.steps[cursor..];
                    cursor += steps.len();
                    let pending: Vec<Event> = steps.iter().map(|s| s.event.clone()).collect();
                    (pending, record.watch_end(state.shutting_down))
                })
            };
            let Some((pending, end)) = read else {
                return deliver(&Response::Error {
                    message: format!("unknown job id {id}"),
                });
            };
            for event in pending {
                deliver(&Response::Event(event))?;
            }
            if let Some(end) = end {
                return deliver(&end);
            }
        }
    }

    /// Stops admissions; queued work still runs. Returns the number of
    /// jobs still pending (queued + running).
    pub fn drain(&self) -> u64 {
        let mut state = self.state.lock().expect("daemon state poisoned");
        state.draining = true;
        let pending = state.queued() + state.running;
        drop(state);
        self.work.notify_all();
        self.finish.notify_all();
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
        self.changed.notify_all();
        self.finish.notify_all();
    }

    /// True once the daemon can exit: draining (or shut down) with
    /// nothing queued or running.
    pub fn finished(&self) -> bool {
        self.state.lock().expect("daemon state poisoned").finished()
    }

    /// Sleeps until the daemon has finished, or at most `timeout`, and
    /// returns whether it has. The front ends (socket server, HTTP
    /// plane, rate sampler) all stop on this one wait.
    pub fn wait_finished(&self, timeout: Option<Duration>) -> bool {
        let state = self.state.lock().expect("daemon state poisoned");
        let unfinished = |state: &mut State| !state.finished();
        let state = match timeout {
            Some(timeout) => {
                self.finish
                    .wait_timeout_while(state, timeout, unfinished)
                    .expect("daemon state poisoned")
                    .0
            }
            None => self
                .finish
                .wait_while(state, unfinished)
                .expect("daemon state poisoned"),
        };
        state.finished()
    }

    /// Blocks until every queued/running job has finished (used by
    /// graceful drain before exit).
    pub fn wait_idle(&self) {
        let state = self.state.lock().expect("daemon state poisoned");
        drop(
            self.changed
                .wait_while(state, |state| {
                    !state.shutting_down && (state.queued() > 0 || state.running > 0)
                })
                .expect("daemon state poisoned"),
        );
    }

    /// The event fan-out: every event the executor emits reaches it,
    /// after the daemon has recorded it in the job's timeline.
    pub fn fanout(&self) -> &Arc<FanoutSink> {
        &self.fanout
    }

    /// Compacts the journal (if one is attached) down to the jobs a
    /// restart would actually run again: everything finished is
    /// dropped, and the journal's own `job` line of everything
    /// queued/running/interrupted is kept. Call on an orderly exit,
    /// after the workers have stopped. Returns the number of records
    /// kept, or `None` when the daemon is journal-less.
    pub fn compact_journal(&self) -> Option<Result<u64, String>> {
        let journal = self.journal.as_ref()?;
        let state = self.state.lock().expect("daemon state poisoned");
        let incomplete: BTreeSet<u64> = state
            .jobs
            .iter()
            .filter(|(_, j)| j.timeline.phase != JobPhase::Done)
            .map(|(id, _)| *id)
            .collect();
        drop(state);
        Some(journal.compact(&incomplete))
    }
}

/// Workers hand the daemon to the executor as its event sink: each
/// event is recorded in its job's timeline, then passed to the fan-out.
/// Events for ids the daemon never admitted are only passed on.
impl EventSink for Daemon {
    fn emit(&self, event: Event) {
        {
            let mut state = self.state.lock().expect("daemon state poisoned");
            let at = self.stamp(&mut state);
            if let Some(record) = state.jobs.get_mut(&(event.job() as u64)) {
                record.timeline.record(at, event.clone());
            }
        }
        self.changed.notify_all();
        self.fanout.emit(event);
    }
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
    /// Emits `started` and `finished` into `sink` around the (possibly
    /// gated) job, as the real runtime does.
    fn run(
        &self,
        id: u64,
        job: &BatchJob,
        worker: usize,
        _queue_wait: Duration,
        sink: &dyn EventSink,
    ) -> ExecOutcome {
        let index = id as usize;
        sink.emit(Event::new(
            0,
            worker,
            EventKind::JobStarted {
                job: index,
                name: job.name.clone(),
            },
        ));
        self.executed
            .lock()
            .expect("executed poisoned")
            .push(job.name.clone());
        if let Some((flag, cv)) = &self.gate {
            // `cancel_all` opens the gate too.
            let open = flag.lock().expect("gate poisoned");
            drop(cv.wait_while(open, |open| !*open).expect("gate poisoned"));
        }
        let cancelled = self.cancelled.load(Ordering::Acquire);
        sink.emit(Event::new(
            1,
            worker,
            EventKind::JobFinished {
                job: index,
                outcome: "Type-I".to_string(),
                micros: 1,
            },
        ));
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
    use crate::timeline::MAX_STEPS_PER_JOB;
    use octo_sched::EventLog;
    use std::thread::JoinHandle;

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

    /// Waits until a gated executor's worker holds a job (its `started`
    /// event is recorded by then).
    fn wait_running(executor: &StubExecutor) {
        while executor.executed.lock().unwrap().is_empty() {
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Runs everything queued, then drains and joins the workers.
    fn drain_and_join(daemon: &Daemon, workers: Vec<JoinHandle<()>>) {
        daemon.wait_idle();
        daemon.drain();
        for w in workers {
            w.join().unwrap();
        }
    }

    #[test]
    fn runs_submitted_jobs_and_reports_results_in_id_order() {
        let daemon = Daemon::new(Arc::new(StubExecutor::immediate()), None, 16);
        let a = daemon.submit(spec("a", Priority::Bulk)).unwrap();
        let b = daemon.submit(spec("b", Priority::Bulk)).unwrap();
        assert_eq!((a, b), (1, 2));
        let workers = daemon.start_workers(2);
        drain_and_join(&daemon, workers);
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
        wait_running(&executor);
        daemon.submit(spec("bulk-1", Priority::Bulk)).unwrap();
        daemon.submit(spec("bulk-2", Priority::Bulk)).unwrap();
        daemon.submit(spec("rush", Priority::Interactive)).unwrap();
        executor.release();
        drain_and_join(&daemon, workers);
        let order = executor.executed.lock().unwrap().clone();
        assert_eq!(order, vec!["first", "rush", "bulk-1", "bulk-2"]);
    }

    #[test]
    fn full_queue_is_rejected_with_backpressure_not_a_hang() {
        let executor = Arc::new(StubExecutor::gated());
        let daemon = Daemon::new(executor.clone(), None, 1);
        daemon.submit(spec("running", Priority::Bulk)).unwrap();
        let workers = daemon.start_workers(1);
        wait_running(&executor);
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
        drain_and_join(&daemon, workers);
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
        wait_running(&executor);
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
        {
            // A restored done job holds no job; the one to run again
            // holds it admitted.
            let state = daemon.state.lock().unwrap();
            assert!(state.jobs[&1].job.is_none());
            assert_eq!(state.jobs[&2].job.as_ref().unwrap().name, "redo");
        }
        let reg = daemon.executor.registry();
        assert_eq!(reg.get_counter("serve_replays_total").unwrap().get(), 1);
        let workers = daemon.start_workers(1);
        drain_and_join(&daemon, workers);
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
    fn restore_ends_a_job_that_no_longer_admits_as_a_failure() {
        let path =
            std::env::temp_dir().join(format!("octo-serve-daemon-restore-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let executor = Arc::new(StubExecutor::immediate());
        let daemon = Daemon::new(executor.clone(), Some(Journal::open(&path).unwrap().0), 16);
        let mut bad = spec("bad", Priority::Bulk);
        bad.s_text = "this is not MicroIR".to_string();
        let mut replay = Replay::default();
        replay.jobs.push((1, spec("good", Priority::Bulk)));
        replay.jobs.push((2, bad));
        daemon.restore(replay);
        let reg = executor.registry();
        assert_eq!(reg.get_counter("serve_replays_total").unwrap().get(), 1);
        let failure = VerdictSummary {
            verdict: "Failure".to_string(),
            poc_generated: false,
            verified: false,
            attempts: 1,
            quarantined: false,
        };
        let status = daemon.job_status(2).unwrap();
        assert_eq!(
            (status.phase, status.verdict.as_ref()),
            (JobPhase::Done, Some(&failure))
        );
        let post_mortem = status.post_mortem.unwrap();
        assert!(
            post_mortem.starts_with("unrunnable job: job `bad`: program `s`: line 1:"),
            "{post_mortem}"
        );
        let workers = daemon.start_workers(1);
        drain_and_join(&daemon, workers);
        assert_eq!(*executor.executed.lock().unwrap(), vec!["good"]);
        assert_eq!(
            daemon.job_status(1).unwrap().verdict.unwrap().verdict,
            "Type-I"
        );
        // Both verdicts are journaled: the next start retries neither.
        drop(daemon);
        let (_journal, replay) = Journal::open(&path).unwrap();
        assert_eq!(replay.verdicts[&2], failure);
        assert_eq!(replay.verdicts.len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn finished_jobs_drop_their_program_text_but_answer_as_before() {
        let daemon = Daemon::new(Arc::new(StubExecutor::immediate()), None, 4);
        daemon.submit(spec("kept", Priority::Interactive)).unwrap();
        assert_eq!(
            daemon.state.lock().unwrap().jobs[&1]
                .job
                .as_ref()
                .unwrap()
                .name,
            "kept",
            "a queued job holds its admitted job"
        );
        let workers = daemon.start_workers(1);
        drain_and_join(&daemon, workers);
        {
            let state = daemon.state.lock().unwrap();
            let record = &state.jobs[&1];
            assert!(record.job.is_none(), "a done job holds no programs");
            let steps = &record.timeline.steps;
            assert_eq!(
                (steps.len(), steps.capacity()),
                (2, 2),
                "no spare step slots"
            );
        }
        let verdict = VerdictSummary {
            verdict: "Type-I".to_string(),
            poc_generated: true,
            verified: true,
            attempts: 1,
            quarantined: false,
        };
        let status = JobStatus {
            id: 1,
            name: "kept".to_string(),
            priority: Priority::Interactive,
            phase: JobPhase::Done,
            verdict: Some(verdict.clone()),
            post_mortem: None,
        };
        assert_eq!(daemon.job_status(1), Some(status.clone()));
        assert_eq!(daemon.jobs(), vec![status]);
        assert_eq!(
            daemon.results(),
            vec![ResultRow {
                id: 1,
                name: "kept".to_string(),
                verdict,
            }]
        );
        let t = daemon.timeline(1).expect("timeline exists");
        assert_eq!(
            (t.name.as_str(), t.priority, t.phase, t.outcome.as_deref()),
            (
                "kept",
                Priority::Interactive,
                JobPhase::Done,
                Some("Type-I")
            )
        );
    }

    #[test]
    fn interrupted_jobs_survive_compaction_byte_identical() {
        let path =
            std::env::temp_dir().join(format!("octo-serve-daemon-compact-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let (journal, _) = Journal::open(&path).unwrap();
        let executor = Arc::new(StubExecutor::gated());
        let daemon = Daemon::new(executor.clone(), Some(journal), 8);
        // Job 1 finished before a restart: compaction drops it.
        let mut replay = Replay::default();
        replay.jobs.push((1, spec("done-before", Priority::Bulk)));
        replay.verdicts.insert(
            1,
            VerdictSummary {
                verdict: "Type-III".to_string(),
                poc_generated: false,
                verified: false,
                attempts: 1,
                quarantined: false,
            },
        );
        daemon.restore(replay);
        // Job 2 is running when the daemon shuts down, job 3 still queued.
        let mut victim = spec("victim", Priority::Bulk);
        victim.t_text = "func main() {\nentry:\n  x = 7\n  halt 1\n}\n".to_string();
        victim.poc_hex = "00ff41".to_string();
        victim.shared = vec!["main".to_string(), "parse_chunk".to_string()];
        let waiting = spec("waiting", Priority::Interactive);
        assert_eq!(daemon.submit(victim.clone()), Ok(2));
        let workers = daemon.start_workers(1);
        wait_running(&executor);
        assert_eq!(daemon.submit(waiting.clone()), Ok(3));
        daemon.shutdown();
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(daemon.job_status(2).unwrap().phase, JobPhase::Interrupted);
        assert_eq!(daemon.job_status(3).unwrap().phase, JobPhase::Queued);
        assert_eq!(daemon.compact_journal(), Some(Ok(2)));
        drop(daemon);
        let (_journal, replay) = Journal::open(&path).unwrap();
        assert_eq!(replay.jobs, vec![(2, victim), (3, waiting)]);
        assert!(replay.verdicts.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn queue_depth_gauges_split_by_priority() {
        let executor = Arc::new(StubExecutor::gated());
        let daemon = Daemon::new(executor.clone(), None, 16);
        daemon.submit(spec("first", Priority::Bulk)).unwrap();
        let workers = daemon.start_workers(1);
        wait_running(&executor);
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
        drain_and_join(&daemon, workers);
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
        let log = Arc::new(EventLog::new());
        daemon.fanout().subscribe(log.clone());
        daemon.submit(spec("traced", Priority::Bulk)).unwrap();
        let workers = daemon.start_workers(1);
        drain_and_join(&daemon, workers);
        let t = daemon.timeline(1).expect("timeline exists");
        assert_eq!(t.name, "traced");
        assert_eq!(t.phase, JobPhase::Done);
        assert_eq!(t.outcome.as_deref(), Some("Type-I"));
        let picked = t.picked_up_us.expect("picked up");
        let finished = t.finished_us.expect("finished");
        assert!(t.submitted_us < picked && picked < finished);
        assert_eq!(t.queue_wait_us(), Some(picked - t.submitted_us));
        // A scrape's queue wait is the timeline's, from the same stamps.
        let wait = daemon.executor.registry();
        let wait = wait.get_histogram("serve_queue_wait_micros").unwrap();
        assert_eq!((wait.count(), wait.sum()), (1, picked - t.submitted_us));
        // Every recorded event reached the fan-out, as emitted.
        let recorded: Vec<Event> = t.steps.iter().map(|s| s.event.clone()).collect();
        assert_eq!(recorded.len(), 2);
        assert_eq!(log.snapshot(), recorded);
        // The daemon's /jobs listing mirrors the job table.
        let jobs = daemon.jobs();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].phase, JobPhase::Done);
    }

    #[test]
    fn lifecycle_stamps_are_strictly_monotonic() {
        let executor = Arc::new(StubExecutor::gated());
        let daemon = Daemon::new(executor.clone(), None, 4);
        daemon.submit(spec("job-a", Priority::Bulk)).unwrap();
        let workers = daemon.start_workers(1);
        wait_running(&executor);
        daemon.emit(Event::new(
            0,
            0,
            EventKind::PhaseFinished {
                job: 1,
                phase: "prepare".into(),
                micros: 1000,
            },
        ));
        executor.release();
        drain_and_join(&daemon, workers);

        let t = daemon.timeline(1).unwrap();
        assert_eq!(t.phase, JobPhase::Done);
        let mut stamps = vec![t.submitted_us, t.picked_up_us.unwrap()];
        stamps.extend(t.steps.iter().map(|s| s.at_us));
        stamps.push(t.finished_us.unwrap());
        assert_eq!(stamps.len(), 6, "started, prepare and finished steps");
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
    fn queued_jobs_have_no_attempts_and_unknown_jobs_drop_events() {
        let daemon = Daemon::new(Arc::new(StubExecutor::immediate()), None, 4);
        daemon.submit(spec("waiting", Priority::Bulk)).unwrap();
        assert!(daemon.timeline(1).unwrap().attempts().is_empty());
        // An event for an id never admitted is ignored, not a panic.
        daemon.emit(Event::new(0, 0, EventKind::CacheHit { job: 99, key: 0xAB }));
        assert!(daemon.timeline(99).is_none());
        let ids: Vec<u64> = daemon.jobs().iter().map(|j| j.id).collect();
        assert_eq!(ids, vec![1]);
    }

    #[test]
    fn step_cap_counts_drops_instead_of_growing() {
        let daemon = Daemon::new(Arc::new(StubExecutor::immediate()), None, 4);
        daemon.submit(spec("storm", Priority::Bulk)).unwrap();
        for _ in 0..(MAX_STEPS_PER_JOB + 10) {
            daemon.emit(Event::new(0, 0, EventKind::CacheHit { job: 1, key: 1 }));
        }
        let t = daemon.timeline(1).unwrap();
        assert_eq!(t.steps.len(), MAX_STEPS_PER_JOB);
        assert_eq!(t.dropped_steps, 10);
    }

    #[test]
    fn watch_replays_a_finished_jobs_events_then_done() {
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
        // Events the job emitted before the watch began, as emitted,
        // then the verdict.
        let started = EventKind::JobStarted {
            job: 1,
            name: "watched".into(),
        };
        let finished = EventKind::JobFinished {
            job: 1,
            outcome: "Type-I".into(),
            micros: 1,
        };
        assert_eq!(
            seen,
            vec![
                Response::Event(Event::new(0, 0, started)),
                Response::Event(Event::new(1, 0, finished)),
                Response::Done {
                    id: 1,
                    verdict: daemon.job_status(1).unwrap().verdict.unwrap(),
                },
            ]
        );
        let mut unknown = Vec::new();
        daemon
            .watch(99, &mut |resp| {
                unknown.push(resp.clone());
                Ok(())
            })
            .unwrap();
        assert!(matches!(unknown.last(), Some(Response::Error { .. })));
        drain_and_join(&daemon, workers);
    }

    #[test]
    fn done_jobs_past_the_cap_are_forgotten_oldest_first() {
        let daemon = Daemon::new(Arc::new(StubExecutor::immediate()), None, 1030);
        for i in 1..=1030 {
            daemon
                .submit(spec(&format!("job-{i}"), Priority::Bulk))
                .unwrap();
        }
        let workers = daemon.start_workers(1);
        drain_and_join(&daemon, workers);
        // The six oldest answer like ids never admitted.
        for id in 1..=6 {
            assert_eq!(daemon.job_status(id), None, "job {id}");
            assert!(daemon.timeline(id).is_none(), "job {id}");
        }
        let mut seen = Vec::new();
        daemon
            .watch(1, &mut |resp| {
                seen.push(resp.clone());
                Ok(())
            })
            .unwrap();
        assert_eq!(
            seen,
            vec![Response::Error {
                message: "unknown job id 1".to_string()
            }]
        );
        for id in 7..=1030 {
            let phase = daemon.job_status(id).map(|j| j.phase);
            assert_eq!(phase, Some(JobPhase::Done), "job {id}");
        }
        // Evicted jobs still count as done.
        assert_eq!(daemon.status().done, 1030);
        let ids: Vec<u64> = daemon.results().iter().map(|r| r.id).collect();
        assert_eq!(ids, (7..=1030).collect::<Vec<u64>>());
        let listed: Vec<u64> = daemon.jobs().iter().map(|j| j.id).collect();
        assert_eq!(listed, ids);
    }

    #[test]
    fn restore_evicts_only_done_jobs_past_the_cap() {
        let daemon = Daemon::new(Arc::new(StubExecutor::immediate()), None, 16);
        let mut replay = Replay::default();
        replay.jobs.push((1, spec("unfinished", Priority::Bulk)));
        for id in 2..=1031 {
            replay
                .jobs
                .push((id, spec(&format!("done-{id}"), Priority::Bulk)));
            replay.verdicts.insert(
                id,
                VerdictSummary {
                    verdict: "Type-I".to_string(),
                    poc_generated: true,
                    verified: true,
                    attempts: 1,
                    quarantined: false,
                },
            );
        }
        daemon.restore(replay);
        // The oldest job is not done, so it stays whatever its age.
        assert_eq!(daemon.job_status(1).unwrap().phase, JobPhase::Queued);
        for id in 2..=7 {
            assert_eq!(daemon.job_status(id), None, "job {id}");
        }
        for id in 8..=1031 {
            let phase = daemon.job_status(id).map(|j| j.phase);
            assert_eq!(phase, Some(JobPhase::Done), "job {id}");
        }
        assert_eq!(daemon.status().done, 1030);
        assert_eq!(daemon.results().len(), 1024);
    }

    /// A `watch` of one job and a `wait_idle`, each on a side thread
    /// that reports over a channel as it goes, so a lost notify fails a
    /// test within 5 s instead of hanging it.
    struct Waiters {
        seen: std::sync::mpsc::Receiver<Response>,
        idle: std::sync::mpsc::Receiver<()>,
        watcher: JoinHandle<Result<(), String>>,
        idler: JoinHandle<()>,
    }

    impl Waiters {
        fn spawn(daemon: &Arc<Daemon>, id: u64) -> Waiters {
            let (seen_tx, seen) = std::sync::mpsc::channel();
            let watcher = {
                let daemon = Arc::clone(daemon);
                std::thread::spawn(move || {
                    daemon.watch(id, &mut |resp| {
                        seen_tx.send(resp.clone()).map_err(|e| e.to_string())
                    })
                })
            };
            let (idle_tx, idle) = std::sync::mpsc::channel();
            let idler = {
                let daemon = Arc::clone(daemon);
                std::thread::spawn(move || {
                    daemon.wait_idle();
                    let _ = idle_tx.send(());
                })
            };
            Waiters {
                seen,
                idle,
                watcher,
                idler,
            }
        }

        /// The watch's next line.
        fn next(&self) -> Response {
            self.seen
                .recv_timeout(Duration::from_secs(5))
                .expect("the watch delivers each line")
        }

        fn idle_returned(&self) -> bool {
            self.idle.try_recv().is_ok()
        }

        /// Waits for `wait_idle` to return and the watch to end.
        fn join(self) {
            self.idle
                .recv_timeout(Duration::from_secs(5))
                .expect("wait_idle returns");
            assert_eq!(self.watcher.join().unwrap(), Ok(()));
            self.idler.join().unwrap();
        }
    }

    /// A fan-out subscriber that holds the worker at its job's
    /// `finished` event until `go` receives: the event is recorded and
    /// notified, but the job is not done yet.
    struct HoldAtFinish {
        go: Mutex<std::sync::mpsc::Receiver<()>>,
    }

    impl EventSink for HoldAtFinish {
        fn emit(&self, event: Event) {
            if matches!(event.kind, EventKind::JobFinished { .. }) {
                let _ = self.go.lock().unwrap().recv();
            }
        }
    }

    #[test]
    fn a_live_watch_and_wait_idle_wake_on_each_change() {
        let executor = Arc::new(StubExecutor::gated());
        let daemon = Daemon::new(executor.clone(), None, 4);
        let (go, hold) = std::sync::mpsc::channel();
        daemon.fanout().subscribe(Arc::new(HoldAtFinish {
            go: Mutex::new(hold),
        }));
        daemon.submit(spec("live", Priority::Interactive)).unwrap();
        let workers = daemon.start_workers(1);
        wait_running(&executor);
        let waiters = Waiters::spawn(&daemon, 1);
        let started = EventKind::JobStarted {
            job: 1,
            name: "live".into(),
        };
        assert_eq!(waiters.next(), Response::Event(Event::new(0, 0, started)));
        let phase = Event::new(
            0,
            0,
            EventKind::PhaseFinished {
                job: 1,
                phase: "prepare".into(),
                micros: 1000,
            },
        );
        daemon.emit(phase.clone());
        assert_eq!(waiters.next(), Response::Event(phase));
        assert!(!waiters.idle_returned(), "the job is still held");
        executor.release();
        let finished = EventKind::JobFinished {
            job: 1,
            outcome: "Type-I".into(),
            micros: 1,
        };
        assert_eq!(waiters.next(), Response::Event(Event::new(1, 0, finished)));
        // The worker is held after recording `finished`, so the watch
        // waits again; only the worker's notify announces the end.
        assert!(!waiters.idle_returned(), "the job is not done yet");
        go.send(()).unwrap();
        assert!(matches!(waiters.next(), Response::Done { id: 1, .. }));
        waiters.join();
        drain_and_join(&daemon, workers);
    }

    #[test]
    fn waiters_on_a_queued_job_wake_at_shutdown() {
        // No workers: the job stays queued, so only shutdown's notify
        // can wake the watch and `wait_idle`.
        let daemon = Daemon::new(Arc::new(StubExecutor::immediate()), None, 4);
        daemon.submit(spec("stranded", Priority::Bulk)).unwrap();
        // A step the watch delivers first, so the test knows it is past
        // its replay and waiting.
        let hit = Event::new(0, 0, EventKind::CacheHit { job: 1, key: 0xAB });
        daemon.emit(hit.clone());
        let waiters = Waiters::spawn(&daemon, 1);
        assert_eq!(waiters.next(), Response::Event(hit));
        assert!(!waiters.idle_returned(), "the job is still queued");
        daemon.shutdown();
        assert_eq!(
            waiters.next(),
            Response::Error {
                message: "job 1 interrupted by shutdown".to_string()
            }
        );
        waiters.join();
    }

    #[test]
    fn the_finish_wait_wakes_when_the_last_job_ends_while_draining() {
        let executor = Arc::new(StubExecutor::gated());
        let daemon = Daemon::new(executor.clone(), None, 4);
        daemon.submit(spec("last", Priority::Bulk)).unwrap();
        let workers = daemon.start_workers(1);
        wait_running(&executor);
        assert_eq!(daemon.drain(), 1);
        assert!(!daemon.wait_finished(Some(Duration::ZERO)), "a job runs");
        // No timeout: only the worker's notify at the job's end can wake it.
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = Arc::clone(&daemon);
        let handle = std::thread::spawn(move || {
            let _ = tx.send(waiter.wait_finished(None));
        });
        // Nothing shows that the waiter is asleep; this lets it get there.
        // A waiter that is not yet asleep sees the end without a notify,
        // so the pause can only make the test miss a lost notify.
        std::thread::sleep(Duration::from_millis(100));
        executor.release();
        let finished = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("the job's end wakes the finish wait");
        assert!(finished);
        handle.join().unwrap();
        for w in workers {
            w.join().unwrap();
        }
    }

    #[test]
    fn watch_on_a_job_still_queued_at_shutdown_ends_with_an_error() {
        let executor = Arc::new(StubExecutor::gated());
        let daemon = Daemon::new(executor.clone(), None, 8);
        daemon.submit(spec("running", Priority::Bulk)).unwrap();
        let workers = daemon.start_workers(1);
        wait_running(&executor);
        daemon.submit(spec("stranded", Priority::Bulk)).unwrap();
        daemon.shutdown();
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(daemon.job_status(2).unwrap().phase, JobPhase::Queued);
        // Watch on a side thread, so a watch that never returns fails
        // the test instead of hanging it.
        let (tx, rx) = std::sync::mpsc::channel();
        let watcher = Arc::clone(&daemon);
        let handle = std::thread::spawn(move || {
            let mut seen = Vec::new();
            let result = watcher.watch(2, &mut |resp| {
                seen.push(resp.clone());
                Ok(())
            });
            let _ = tx.send((result, seen));
        });
        let (result, seen) = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("a watch on a job stranded by shutdown returns");
        handle.join().unwrap();
        assert_eq!(result, Ok(()));
        assert_eq!(
            seen,
            vec![Response::Error {
                message: "job 2 interrupted by shutdown".to_string()
            }]
        );
    }
}
