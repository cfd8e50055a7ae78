//! The octopocsd wire protocol: line-delimited JSON messages.
//!
//! One request per line, one response per line — except `watch`, which
//! streams `event` lines and finishes with a `done` line. Requests carry
//! a `"req"` verb, responses a `"resp"` verb; every message parses and
//! renders through this module on both sides of the socket, so the
//! client subcommands and the daemon cannot drift apart. Parsing is
//! strict (unknown verbs *and* unknown keys are structured errors) and
//! total: malformed input yields `Err(String)`, never a panic or a
//! dropped connection. The full reference lives in `docs/service.md`.

use octo_ir::parse::parse_valid_program;
use octo_ir::printer::print_program;
use octo_ir::Program;
use octo_poc::PocFile;
use octo_sched::{Event, EventKind};

use crate::json::{json_escape, parse_json, JsonValue};

/// Hard cap on one protocol line (request or response), bytes. A line
/// that exceeds it is discarded to the next newline and answered with a
/// structured error; see `docs/service.md`.
pub const MAX_LINE_BYTES: usize = 8 * 1024 * 1024;

/// Scheduling class of a submitted job. Interactive jobs are always
/// dequeued ahead of bulk jobs (within a class: FIFO).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Priority {
    /// A human is waiting on this verdict.
    Interactive,
    /// Corpus-scan style background work.
    Bulk,
}

impl Priority {
    /// Stable wire label.
    pub fn label(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Bulk => "bulk",
        }
    }

    /// Parses a wire label.
    pub fn parse(s: &str) -> Result<Priority, String> {
        match s {
            "interactive" => Ok(Priority::Interactive),
            "bulk" => Ok(Priority::Bulk),
            other => Err(format!("unknown priority `{other}`")),
        }
    }
}

/// Where a job stands in the daemon's queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPhase {
    /// Admitted, waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished with a journaled verdict.
    Done,
    /// Cut short by a drain/shutdown before completing; will be
    /// resubmitted when the daemon restarts on the same journal.
    Interrupted,
}

impl JobPhase {
    /// Stable wire label.
    pub fn label(self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Done => "done",
            JobPhase::Interrupted => "interrupted",
        }
    }

    /// Parses a wire label.
    pub fn parse(s: &str) -> Result<JobPhase, String> {
        match s {
            "queued" => Ok(JobPhase::Queued),
            "running" => Ok(JobPhase::Running),
            "done" => Ok(JobPhase::Done),
            "interrupted" => Ok(JobPhase::Interrupted),
            other => Err(format!("unknown job phase `{other}`")),
        }
    }
}

/// One job as submitted over the wire: program *texts*, the PoC as hex,
/// the shared set, and a priority class. [`JobSpec::admit`] turns it
/// into the [`BatchJob`] the engine runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Display name, echoed through status/results.
    pub name: String,
    /// Scheduling class.
    pub priority: Priority,
    /// MicroIR text of the vulnerable source `S`.
    pub s_text: String,
    /// MicroIR text of the propagated target `T`.
    pub t_text: String,
    /// PoC bytes, lowercase hex.
    pub poc_hex: String,
    /// Names of the shared (cloned) functions, in order.
    pub shared: Vec<String>,
}

/// One job as the engine runs it: it owns its programs so it can be
/// loaded from files, the corpus or the wire and shipped across worker
/// threads.
#[derive(Debug, Clone)]
pub struct BatchJob {
    /// Display name (e.g. `"idx10 CVE-2016-10095 tiffsplit->opj_compress"`).
    pub name: String,
    /// The original vulnerable software.
    pub s: Program,
    /// The propagated software.
    pub t: Program,
    /// The original PoC (crashes `S`).
    pub poc: PocFile,
    /// Names of the shared (cloned) functions.
    pub shared: Vec<String>,
}

impl JobSpec {
    /// Admission: decodes the PoC and parses and validates `S` and `T`,
    /// the one place a submission's text is read. A bad job is refused
    /// here with a message naming it, never at execution.
    pub fn admit(&self) -> Result<BatchJob, String> {
        let poc = from_hex(&self.poc_hex).map_err(|e| format!("job `{}`: {e}", self.name))?;
        let program = |label: &str, text: &str| {
            parse_valid_program(text)
                .map_err(|e| format!("job `{}`: program `{label}`: {e}", self.name))
        };
        Ok(BatchJob {
            name: self.name.clone(),
            s: program("s", &self.s_text)?,
            t: program("t", &self.t_text)?,
            poc: PocFile::from(poc),
            shared: self.shared.clone(),
        })
    }

    /// The wire spec of `job` (what the client subcommands submit).
    pub fn from_job(job: &BatchJob, priority: Priority) -> JobSpec {
        JobSpec {
            name: job.name.clone(),
            priority,
            s_text: print_program(&job.s),
            t_text: print_program(&job.t),
            poc_hex: to_hex(job.poc.bytes()),
            shared: job.shared.clone(),
        }
    }
}

/// The stable, journal-safe summary of one finished job — exactly the
/// fields of one row of `tests/golden/batch_verdicts.json`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerdictSummary {
    /// `Type-I` / `Type-II` / `Type-III` / `Failure`.
    pub verdict: String,
    /// Whether a working `poc'` was produced.
    pub poc_generated: bool,
    /// Whether verification succeeded (triggered or verified-safe).
    pub verified: bool,
    /// Attempts the retry policy spent.
    pub attempts: u32,
    /// Whether the job exhausted its retries on transient failures.
    pub quarantined: bool,
}

impl VerdictSummary {
    /// Renders exactly one golden-file verdict row *minus* the `name`
    /// field (the caller owns name + separators).
    pub fn render_fields(&self) -> String {
        format!(
            "\"verdict\":\"{}\",\"poc_generated\":{},\"verified\":{},\"attempts\":{},\
             \"quarantined\":{}",
            json_escape(&self.verdict),
            self.poc_generated,
            self.verified,
            self.attempts,
            self.quarantined
        )
    }

    fn render(&self) -> String {
        format!("{{{}}}", self.render_fields())
    }

    /// Parses a summary object (shared with the journal's `verdict`
    /// record).
    pub fn parse(v: &JsonValue) -> Result<VerdictSummary, String> {
        check_keys(
            v,
            &[
                "verdict",
                "poc_generated",
                "verified",
                "attempts",
                "quarantined",
            ],
        )?;
        Ok(VerdictSummary {
            verdict: str_field(v, "verdict")?,
            poc_generated: bool_field(v, "poc_generated")?,
            verified: bool_field(v, "verified")?,
            attempts: u32_field(v, "attempts")?,
            quarantined: bool_field(v, "quarantined")?,
        })
    }
}

/// Renders the stable verdicts document — one `{"name":…,<summary>}`
/// row per job, in the given order, no timings. `octopocs batch
/// --verdicts-json` and `octopocs results --verdicts-json` both print
/// it, and the CI goldens (`tests/golden/batch_verdicts.json`) pin it.
pub fn render_verdicts_json<'a>(
    rows: impl IntoIterator<Item = (&'a str, VerdictSummary)>,
) -> String {
    let rows: Vec<String> = rows
        .into_iter()
        .map(|(name, v)| {
            format!(
                "{{\"name\":\"{}\",{}}}",
                json_escape(name),
                v.render_fields()
            )
        })
        .collect();
    let end = if rows.is_empty() { "" } else { "\n" };
    format!("{{\"jobs\":[\n{}{end}]}}\n", rows.join(",\n"))
}

/// An event's payload as it crosses the wire: its label (`started`,
/// `phase`, `cache_hit`, `retry`, `finished`) and its kind-specific JSON
/// fields, without the envelope. `event` responses and the `/jobs/<id>`
/// timeline steps both render through here, so the two cannot drift.
pub(crate) fn render_event_payload(kind: &EventKind) -> (&'static str, String) {
    match kind {
        EventKind::JobStarted { name, .. } => {
            ("started", format!("\"name\":\"{}\"", json_escape(name)))
        }
        EventKind::PhaseFinished { phase, micros, .. } => (
            "phase",
            format!("\"phase\":\"{}\",\"micros\":{micros}", json_escape(phase)),
        ),
        EventKind::CacheHit { key, .. } => ("cache_hit", format!("\"key\":\"{key:016x}\"")),
        EventKind::JobFinished {
            outcome, micros, ..
        } => (
            "finished",
            format!(
                "\"outcome\":\"{}\",\"micros\":{micros}",
                json_escape(outcome)
            ),
        ),
        EventKind::RetryScheduled {
            attempt,
            backoff_micros,
            beats,
            ..
        } => (
            "retry",
            format!("\"attempt\":{attempt},\"backoff_us\":{backoff_micros},\"beats\":{beats}"),
        ),
    }
}

/// Parses an `event` response back into the [`Event`] it was rendered
/// from. Strict like every other message: unknown keys are errors, and
/// so is an `attempt` that does not fit the engine's `u32`.
fn parse_event(v: &JsonValue) -> Result<Event, String> {
    let base = ["resp", "kind", "job", "worker", "ts_us"];
    let job = usize_field(v, "job")?;
    let kind = match str_field(v, "kind")?.as_str() {
        "started" => {
            check_keys_plus(v, &base, &["name"])?;
            EventKind::JobStarted {
                job,
                name: str_field(v, "name")?,
            }
        }
        "phase" => {
            check_keys_plus(v, &base, &["phase", "micros"])?;
            EventKind::PhaseFinished {
                job,
                phase: str_field(v, "phase")?.into(),
                micros: u64_field(v, "micros")?,
            }
        }
        "cache_hit" => {
            check_keys_plus(v, &base, &["key"])?;
            let hex = str_field(v, "key")?;
            let key =
                u64::from_str_radix(&hex, 16).map_err(|_| format!("bad cache key `{hex}`"))?;
            EventKind::CacheHit { job, key }
        }
        "finished" => {
            check_keys_plus(v, &base, &["outcome", "micros"])?;
            EventKind::JobFinished {
                job,
                outcome: str_field(v, "outcome")?,
                micros: u64_field(v, "micros")?,
            }
        }
        "retry" => {
            check_keys_plus(v, &base, &["attempt", "backoff_us", "beats"])?;
            EventKind::RetryScheduled {
                job,
                attempt: u32_field(v, "attempt")?,
                backoff_micros: u64_field(v, "backoff_us")?,
                beats: u64_field(v, "beats")?,
            }
        }
        other => return Err(format!("unknown event kind `{other}`")),
    };
    Ok(Event::new(
        u64_field(v, "ts_us")?,
        usize_field(v, "worker")?,
        kind,
    ))
}

/// Everything a client can ask the daemon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Admit one job (answered with `accepted` or `rejected`).
    Submit {
        /// The job.
        job: JobSpec,
    },
    /// Queue-level status (`id: None`) or one job's status.
    Status {
        /// Job id, when asking about one job.
        id: Option<u64>,
    },
    /// Stream the job's live events, ending with its verdict.
    Watch {
        /// Job id.
        id: u64,
    },
    /// All finished verdicts, in submission (= id) order.
    Results,
    /// The metrics registry as JSON.
    Metrics,
    /// Stop admitting, finish everything queued, then exit.
    Drain,
    /// Cancel in-flight work and exit; incomplete jobs replay on
    /// restart.
    Shutdown,
}

impl Request {
    /// One wire line (no trailing newline).
    pub fn render(&self) -> String {
        match self {
            Request::Ping => "{\"req\":\"ping\"}".to_string(),
            Request::Submit { job } => format!(
                "{{\"req\":\"submit\",\"job\":{{{}}}}}",
                render_jobspec_fields(job)
            ),
            Request::Status { id: None } => "{\"req\":\"status\"}".to_string(),
            Request::Status { id: Some(id) } => format!("{{\"req\":\"status\",\"id\":{id}}}"),
            Request::Watch { id } => format!("{{\"req\":\"watch\",\"id\":{id}}}"),
            Request::Results => "{\"req\":\"results\"}".to_string(),
            Request::Metrics => "{\"req\":\"metrics\"}".to_string(),
            Request::Drain => "{\"req\":\"drain\"}".to_string(),
            Request::Shutdown => "{\"req\":\"shutdown\"}".to_string(),
        }
    }

    /// Parses one request line.
    pub fn parse(line: &str) -> Result<Request, String> {
        let v = parse_json(line)?;
        if v.as_object().is_none() {
            return Err("request must be a JSON object".to_string());
        }
        let verb = str_field(&v, "req")?;
        match verb.as_str() {
            "ping" | "results" | "metrics" | "drain" | "shutdown" => {
                check_keys(&v, &["req"])?;
                Ok(match verb.as_str() {
                    "ping" => Request::Ping,
                    "results" => Request::Results,
                    "metrics" => Request::Metrics,
                    "drain" => Request::Drain,
                    _ => Request::Shutdown,
                })
            }
            "submit" => {
                check_keys(&v, &["req", "job"])?;
                let job = v.get("job").ok_or("missing `job`")?;
                Ok(Request::Submit {
                    job: parse_jobspec(job)?,
                })
            }
            "status" => {
                check_keys(&v, &["req", "id"])?;
                Ok(Request::Status {
                    id: opt_u64_field(&v, "id")?,
                })
            }
            "watch" => {
                check_keys(&v, &["req", "id"])?;
                Ok(Request::Watch {
                    id: u64_field(&v, "id")?,
                })
            }
            other => Err(format!("unknown request verb `{other}`")),
        }
    }
}

/// Queue-level status snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueStatus {
    /// Interactive jobs waiting.
    pub queued_interactive: u64,
    /// Bulk jobs waiting.
    pub queued_bulk: u64,
    /// Jobs currently executing.
    pub running: u64,
    /// Jobs with journaled verdicts.
    pub done: u64,
    /// Admission-control bound on waiting jobs.
    pub capacity: u64,
    /// Whether a drain is in progress (no further admissions).
    pub draining: bool,
}

/// One job's status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobStatus {
    /// Job id.
    pub id: u64,
    /// Display name.
    pub name: String,
    /// Scheduling class.
    pub priority: Priority,
    /// Where it stands.
    pub phase: JobPhase,
    /// The verdict, when done.
    pub verdict: Option<VerdictSummary>,
    /// Rendered post-mortem, when the verdict warranted one.
    pub post_mortem: Option<String>,
}

/// One row of a `results` response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultRow {
    /// Job id.
    pub id: u64,
    /// Display name.
    pub name: String,
    /// The finished verdict.
    pub verdict: VerdictSummary,
}

/// Everything the daemon can answer.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Liveness answer.
    Pong,
    /// Job admitted under this id.
    Accepted {
        /// Assigned job id.
        id: u64,
    },
    /// Job refused — the explicit backpressure (or draining) reply.
    Rejected {
        /// Why (e.g. `"queue full (capacity 64)"`).
        reason: String,
    },
    /// Queue-level status.
    Status(QueueStatus),
    /// One job's status.
    Job(JobStatus),
    /// One live progress event (within a `watch` stream).
    Event(Event),
    /// End of a `watch` stream: the job's verdict.
    Done {
        /// Job id.
        id: u64,
        /// Its verdict.
        verdict: VerdictSummary,
    },
    /// All finished verdicts.
    Results {
        /// Rows in id (= submission) order.
        jobs: Vec<ResultRow>,
    },
    /// The metrics registry rendering.
    Metrics {
        /// `MetricsRegistry::render_json` output, verbatim.
        body: String,
    },
    /// Drain acknowledged.
    Draining {
        /// Jobs still queued or running.
        pending: u64,
    },
    /// Shutdown acknowledged; the daemon exits after this line.
    ShuttingDown,
    /// Structured failure (parse error, unknown id, oversized line, …).
    Error {
        /// Human-readable diagnostic.
        message: String,
    },
}

impl Response {
    /// One wire line (no trailing newline).
    pub fn render(&self) -> String {
        match self {
            Response::Pong => "{\"resp\":\"pong\"}".to_string(),
            Response::Accepted { id } => format!("{{\"resp\":\"accepted\",\"id\":{id}}}"),
            Response::Rejected { reason } => format!(
                "{{\"resp\":\"rejected\",\"reason\":\"{}\"}}",
                json_escape(reason)
            ),
            Response::Status(s) => format!(
                "{{\"resp\":\"status\",\"queued_interactive\":{},\"queued_bulk\":{},\
                 \"running\":{},\"done\":{},\"capacity\":{},\"draining\":{}}}",
                s.queued_interactive, s.queued_bulk, s.running, s.done, s.capacity, s.draining
            ),
            Response::Job(j) => {
                let verdict = match &j.verdict {
                    Some(v) => v.render(),
                    None => "null".to_string(),
                };
                let post_mortem = match &j.post_mortem {
                    Some(pm) => format!("\"{}\"", json_escape(pm)),
                    None => "null".to_string(),
                };
                format!(
                    "{{\"resp\":\"job\",\"id\":{},\"name\":\"{}\",\"priority\":\"{}\",\
                     \"phase\":\"{}\",\"verdict\":{},\"post_mortem\":{}}}",
                    j.id,
                    json_escape(&j.name),
                    j.priority.label(),
                    j.phase.label(),
                    verdict,
                    post_mortem
                )
            }
            Response::Event(e) => {
                let (label, fields) = render_event_payload(&e.kind);
                format!(
                    "{{\"resp\":\"event\",\"kind\":\"{label}\",\"job\":{},\"worker\":{},\
                     \"ts_us\":{},{fields}}}",
                    e.job(),
                    e.worker,
                    e.ts_micros
                )
            }
            Response::Done { id, verdict } => format!(
                "{{\"resp\":\"done\",\"id\":{id},\"verdict\":{}}}",
                verdict.render()
            ),
            Response::Results { jobs } => {
                let rows: Vec<String> = jobs
                    .iter()
                    .map(|r| {
                        format!(
                            "{{\"id\":{},\"name\":\"{}\",\"verdict\":{}}}",
                            r.id,
                            json_escape(&r.name),
                            r.verdict.render()
                        )
                    })
                    .collect();
                format!("{{\"resp\":\"results\",\"jobs\":[{}]}}", rows.join(","))
            }
            Response::Metrics { body } => {
                format!(
                    "{{\"resp\":\"metrics\",\"body\":\"{}\"}}",
                    json_escape(body)
                )
            }
            Response::Draining { pending } => {
                format!("{{\"resp\":\"draining\",\"pending\":{pending}}}")
            }
            Response::ShuttingDown => "{\"resp\":\"shutting_down\"}".to_string(),
            Response::Error { message } => format!(
                "{{\"resp\":\"error\",\"message\":\"{}\"}}",
                json_escape(message)
            ),
        }
    }

    /// Parses one response line.
    pub fn parse(line: &str) -> Result<Response, String> {
        let v = parse_json(line)?;
        if v.as_object().is_none() {
            return Err("response must be a JSON object".to_string());
        }
        let verb = str_field(&v, "resp")?;
        match verb.as_str() {
            "pong" => {
                check_keys(&v, &["resp"])?;
                Ok(Response::Pong)
            }
            "accepted" => {
                check_keys(&v, &["resp", "id"])?;
                Ok(Response::Accepted {
                    id: u64_field(&v, "id")?,
                })
            }
            "rejected" => {
                check_keys(&v, &["resp", "reason"])?;
                Ok(Response::Rejected {
                    reason: str_field(&v, "reason")?,
                })
            }
            "status" => {
                check_keys(
                    &v,
                    &[
                        "resp",
                        "queued_interactive",
                        "queued_bulk",
                        "running",
                        "done",
                        "capacity",
                        "draining",
                    ],
                )?;
                Ok(Response::Status(QueueStatus {
                    queued_interactive: u64_field(&v, "queued_interactive")?,
                    queued_bulk: u64_field(&v, "queued_bulk")?,
                    running: u64_field(&v, "running")?,
                    done: u64_field(&v, "done")?,
                    capacity: u64_field(&v, "capacity")?,
                    draining: bool_field(&v, "draining")?,
                }))
            }
            "job" => {
                check_keys(
                    &v,
                    &[
                        "resp",
                        "id",
                        "name",
                        "priority",
                        "phase",
                        "verdict",
                        "post_mortem",
                    ],
                )?;
                let verdict = match v.get("verdict") {
                    None | Some(JsonValue::Null) => None,
                    Some(val) => Some(VerdictSummary::parse(val)?),
                };
                let post_mortem = match v.get("post_mortem") {
                    None | Some(JsonValue::Null) => None,
                    Some(val) => Some(
                        val.as_str()
                            .ok_or("`post_mortem` must be a string or null")?
                            .to_string(),
                    ),
                };
                Ok(Response::Job(JobStatus {
                    id: u64_field(&v, "id")?,
                    name: str_field(&v, "name")?,
                    priority: Priority::parse(&str_field(&v, "priority")?)?,
                    phase: JobPhase::parse(&str_field(&v, "phase")?)?,
                    verdict,
                    post_mortem,
                }))
            }
            "event" => Ok(Response::Event(parse_event(&v)?)),
            "done" => {
                check_keys(&v, &["resp", "id", "verdict"])?;
                Ok(Response::Done {
                    id: u64_field(&v, "id")?,
                    verdict: VerdictSummary::parse(v.get("verdict").ok_or("missing `verdict`")?)?,
                })
            }
            "results" => {
                check_keys(&v, &["resp", "jobs"])?;
                let rows = v
                    .get("jobs")
                    .and_then(JsonValue::as_array)
                    .ok_or("missing `jobs` array")?;
                let mut jobs = Vec::with_capacity(rows.len());
                for row in rows {
                    check_keys(row, &["id", "name", "verdict"])?;
                    jobs.push(ResultRow {
                        id: u64_field(row, "id")?,
                        name: str_field(row, "name")?,
                        verdict: VerdictSummary::parse(
                            row.get("verdict").ok_or("missing `verdict`")?,
                        )?,
                    });
                }
                Ok(Response::Results { jobs })
            }
            "metrics" => {
                check_keys(&v, &["resp", "body"])?;
                Ok(Response::Metrics {
                    body: str_field(&v, "body")?,
                })
            }
            "draining" => {
                check_keys(&v, &["resp", "pending"])?;
                Ok(Response::Draining {
                    pending: u64_field(&v, "pending")?,
                })
            }
            "shutting_down" => {
                check_keys(&v, &["resp"])?;
                Ok(Response::ShuttingDown)
            }
            "error" => {
                check_keys(&v, &["resp", "message"])?;
                Ok(Response::Error {
                    message: str_field(&v, "message")?,
                })
            }
            other => Err(format!("unknown response verb `{other}`")),
        }
    }
}

/// Renders a [`JobSpec`]'s fields (no surrounding braces — shared
/// between the `submit` request and the journal's `job` record).
pub fn render_jobspec_fields(job: &JobSpec) -> String {
    let shared: Vec<String> = job
        .shared
        .iter()
        .map(|s| format!("\"{}\"", json_escape(s)))
        .collect();
    format!(
        "\"name\":\"{}\",\"priority\":\"{}\",\"s\":\"{}\",\"t\":\"{}\",\"poc\":\"{}\",\
         \"shared\":[{}]",
        json_escape(&job.name),
        job.priority.label(),
        json_escape(&job.s_text),
        json_escape(&job.t_text),
        json_escape(&job.poc_hex),
        shared.join(",")
    )
}

/// Parses a [`JobSpec`] object (the `submit` payload and the journal's
/// `job` record share this, modulo the journal's extra bookkeeping
/// keys, which the journal strips first).
pub fn parse_jobspec(v: &JsonValue) -> Result<JobSpec, String> {
    check_keys(v, &["name", "priority", "s", "t", "poc", "shared"])?;
    let shared_values = v
        .get("shared")
        .and_then(JsonValue::as_array)
        .ok_or("missing `shared` array")?;
    let mut shared = Vec::with_capacity(shared_values.len());
    for s in shared_values {
        shared.push(
            s.as_str()
                .ok_or("`shared` entries must be strings")?
                .to_string(),
        );
    }
    let spec = JobSpec {
        name: str_field(v, "name")?,
        priority: Priority::parse(&str_field(v, "priority")?)?,
        s_text: str_field(v, "s")?,
        t_text: str_field(v, "t")?,
        poc_hex: str_field(v, "poc")?,
        shared,
    };
    from_hex(&spec.poc_hex)?;
    Ok(spec)
}

/// Lowercase hex of `bytes`.
pub fn to_hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

/// Decodes lowercase/uppercase hex.
pub fn from_hex(hex: &str) -> Result<Vec<u8>, String> {
    if !hex.len().is_multiple_of(2) {
        return Err("odd-length hex string".to_string());
    }
    let digit = |c: u8| -> Result<u8, String> {
        match c {
            b'0'..=b'9' => Ok(c - b'0'),
            b'a'..=b'f' => Ok(c - b'a' + 10),
            b'A'..=b'F' => Ok(c - b'A' + 10),
            other => Err(format!("invalid hex byte 0x{other:02x}")),
        }
    };
    let bytes = hex.as_bytes();
    let mut out = Vec::with_capacity(bytes.len() / 2);
    for pair in bytes.chunks_exact(2) {
        out.push(digit(pair[0])? * 16 + digit(pair[1])?);
    }
    Ok(out)
}

fn check_keys(v: &JsonValue, allowed: &[&str]) -> Result<(), String> {
    for (k, _) in v.as_object().unwrap_or(&[]) {
        if !allowed.contains(&k.as_str()) {
            return Err(format!("unknown key `{k}`"));
        }
    }
    Ok(())
}

fn check_keys_plus(v: &JsonValue, base: &[&str], extra: &[&str]) -> Result<(), String> {
    for (k, _) in v.as_object().unwrap_or(&[]) {
        if !base.contains(&k.as_str()) && !extra.contains(&k.as_str()) {
            return Err(format!("unknown key `{k}`"));
        }
    }
    Ok(())
}

fn str_field(v: &JsonValue, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .map(ToString::to_string)
        .ok_or_else(|| format!("missing string `{key}`"))
}

fn bool_field(v: &JsonValue, key: &str) -> Result<bool, String> {
    v.get(key)
        .and_then(JsonValue::as_bool)
        .ok_or_else(|| format!("missing bool `{key}`"))
}

fn u64_field(v: &JsonValue, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("missing non-negative integer `{key}`"))
}

fn u32_field(v: &JsonValue, key: &str) -> Result<u32, String> {
    let n = u64_field(v, key)?;
    u32::try_from(n).map_err(|_| format!("`{key}` out of range"))
}

fn usize_field(v: &JsonValue, key: &str) -> Result<usize, String> {
    let n = u64_field(v, key)?;
    usize::try_from(n).map_err(|_| format!("`{key}` out of range"))
}

fn opt_u64_field(v: &JsonValue, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(val) => val
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("`{key}` must be a non-negative integer")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec {
            name: "idx01 CVE \"quoted\"".to_string(),
            priority: Priority::Interactive,
            s_text: "func main() {\nentry:\n halt 0\n}\n".to_string(),
            t_text: "func main() {\nentry:\n halt 1\n}\n".to_string(),
            poc_hex: "4142".to_string(),
            shared: vec!["shared".to_string(), "other".to_string()],
        }
    }

    fn summary() -> VerdictSummary {
        VerdictSummary {
            verdict: "Type-II".to_string(),
            poc_generated: true,
            verified: true,
            attempts: 2,
            quarantined: false,
        }
    }

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Ping,
            Request::Submit { job: spec() },
            Request::Status { id: None },
            Request::Status { id: Some(7) },
            Request::Watch { id: 3 },
            Request::Results,
            Request::Metrics,
            Request::Drain,
            Request::Shutdown,
        ];
        for r in reqs {
            let line = r.render();
            assert!(!line.contains('\n'), "{line}");
            assert_eq!(Request::parse(&line).unwrap(), r, "{line}");
        }
    }

    #[test]
    fn responses_round_trip() {
        let resps = [
            Response::Pong,
            Response::Accepted { id: 9 },
            Response::Rejected {
                reason: "queue full (capacity 2)".to_string(),
            },
            Response::Status(QueueStatus {
                queued_interactive: 1,
                queued_bulk: 2,
                running: 3,
                done: 4,
                capacity: 64,
                draining: true,
            }),
            Response::Job(JobStatus {
                id: 5,
                name: "job \\ with escapes\n".to_string(),
                priority: Priority::Bulk,
                phase: JobPhase::Done,
                verdict: Some(summary()),
                post_mortem: Some("event: deadline\n  detail".to_string()),
            }),
            Response::Job(JobStatus {
                id: 6,
                name: "pending".to_string(),
                priority: Priority::Interactive,
                phase: JobPhase::Queued,
                verdict: None,
                post_mortem: None,
            }),
            Response::Event(Event::new(
                1234,
                0,
                EventKind::JobStarted {
                    job: 1,
                    name: "x".to_string(),
                },
            )),
            Response::Event(Event::new(
                1235,
                0,
                EventKind::PhaseFinished {
                    job: 1,
                    phase: "symex".into(),
                    micros: 55,
                },
            )),
            Response::Event(Event::new(
                1,
                1,
                EventKind::CacheHit {
                    job: 1,
                    key: u64::MAX,
                },
            )),
            Response::Event(Event::new(
                2,
                1,
                EventKind::JobFinished {
                    job: 1,
                    outcome: "Type-III".to_string(),
                    micros: 99,
                },
            )),
            Response::Done {
                id: 1,
                verdict: summary(),
            },
            Response::Results {
                jobs: vec![
                    ResultRow {
                        id: 1,
                        name: "a".to_string(),
                        verdict: summary(),
                    },
                    ResultRow {
                        id: 2,
                        name: "b".to_string(),
                        verdict: VerdictSummary {
                            verdict: "Failure".to_string(),
                            poc_generated: false,
                            verified: false,
                            attempts: 1,
                            quarantined: true,
                        },
                    },
                ],
            },
            Response::Results { jobs: vec![] },
            Response::Metrics {
                body: "{\"metrics\":[{\"name\":\"x\",\"value\":1}]}".to_string(),
            },
            Response::Draining { pending: 12 },
            Response::ShuttingDown,
            Response::Error {
                message: "unknown request verb `bogus`".to_string(),
            },
        ];
        for r in resps {
            let line = r.render();
            assert!(!line.contains('\n'), "{line}");
            assert_eq!(Response::parse(&line).unwrap(), r, "{line}");
        }
        // The bytes of every event kind, pinned literally: a renderer and
        // a parser that drifted together would still round-trip above.
        for line in [
            r#"{"resp":"event","kind":"started","job":1,"worker":0,"ts_us":1234,"name":"idx01 \"q\" a\\b"}"#,
            r#"{"resp":"event","kind":"phase","job":1,"worker":0,"ts_us":1235,"phase":"prepare","micros":249}"#,
            r#"{"resp":"event","kind":"cache_hit","job":1,"worker":1,"ts_us":1236,"key":"00000000000000ab"}"#,
            r#"{"resp":"event","kind":"retry","job":1,"worker":1,"ts_us":1237,"attempt":2,"backoff_us":1500,"beats":11}"#,
            r#"{"resp":"event","kind":"finished","job":1,"worker":1,"ts_us":1238,"outcome":"Type-II","micros":1000001}"#,
        ] {
            assert_eq!(Response::parse(line).unwrap().render(), line);
        }
    }

    #[test]
    fn malformed_requests_are_structured_errors() {
        for bad in [
            "",
            "not json",
            "42",
            "[]",
            "{\"req\":\"bogus\"}",
            "{\"req\":\"ping\",\"extra\":1}",
            "{\"req\":\"watch\"}",
            "{\"req\":\"watch\",\"id\":-1}",
            "{\"req\":\"submit\"}",
            "{\"req\":\"submit\",\"job\":{\"name\":\"x\"}}",
            "{\"req\":\"submit\",\"job\":{\"name\":\"x\",\"priority\":\"urgent\",\"s\":\"\",\
             \"t\":\"\",\"poc\":\"\",\"shared\":[]}}",
            "{\"req\":\"submit\",\"job\":{\"name\":\"x\",\"priority\":\"bulk\",\"s\":\"\",\
             \"t\":\"\",\"poc\":\"zz\",\"shared\":[]}}",
        ] {
            assert!(Request::parse(bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn retry_attempt_beyond_u32_is_refused_not_truncated() {
        let line = |attempt: u64| {
            format!(
                "{{\"resp\":\"event\",\"kind\":\"retry\",\"job\":1,\"worker\":0,\"ts_us\":5,\
                 \"attempt\":{attempt},\"backoff_us\":0,\"beats\":0}}"
            )
        };
        assert!(Response::parse(&line(u64::from(u32::MAX))).is_ok());
        let err = Response::parse(&line(u64::from(u32::MAX) + 1)).unwrap_err();
        assert!(err.contains("`attempt` out of range"), "{err}");
    }

    #[test]
    fn specs_round_trip_through_batch_jobs() {
        let s = "func main() {\nentry:\n  fd = open\n  b = getc fd\n  call shared(b)\n  \
                 halt 0\n}\nfunc shared(v) {\nentry:\n  c = eq v, 0x41\n  br c, boom, fine\n\
                 boom:\n  trap 1\nfine:\n  ret\n}\n";
        let spec = JobSpec {
            name: "rt".to_string(),
            priority: Priority::Bulk,
            s_text: s.to_string(),
            t_text: s.to_string(),
            poc_hex: "41".to_string(),
            shared: vec!["shared".to_string()],
        };
        let job = spec.admit().unwrap();
        let back = JobSpec::from_job(&job, Priority::Bulk);
        assert_eq!(back.name, "rt");
        assert_eq!(back.poc_hex, "41");
        assert_eq!(back.shared, vec!["shared".to_string()]);
        // Printed programs re-parse to the same batch job.
        let again = back.admit().unwrap();
        assert_eq!(print_program(&again.s), print_program(&job.s));
    }

    #[test]
    fn hex_round_trips() {
        assert_eq!(to_hex(&[0x00, 0xff, 0x41]), "00ff41");
        assert_eq!(from_hex("00ff41").unwrap(), vec![0x00, 0xff, 0x41]);
        assert_eq!(from_hex("00FF41").unwrap(), vec![0x00, 0xff, 0x41]);
        assert_eq!(from_hex("").unwrap(), Vec::<u8>::new());
        assert!(from_hex("a").is_err());
        assert!(from_hex("zz").is_err());
    }

    #[test]
    fn verdict_fields_match_the_golden_row_shape() {
        // One row of tests/golden/batch_verdicts.json is exactly
        // `{"name":…,` + render_fields() + `}`; pin the field order.
        assert_eq!(
            summary().render_fields(),
            "\"verdict\":\"Type-II\",\"poc_generated\":true,\"verified\":true,\
             \"attempts\":2,\"quarantined\":false"
        );
    }
}
