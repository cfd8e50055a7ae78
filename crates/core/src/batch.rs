//! Batch verification: the §VII triage workload made operational.
//!
//! One vulnerable source `S` typically fans out to many propagated
//! targets `T₁…Tₙ` (every VUDDY/TransferFuzz-style report has this
//! shape). [`run_batch`] runs a whole job set through the pipeline on a
//! work-stealing scheduler ([`octo_sched::run_jobs`]) with:
//!
//! * a **content-addressed artifact cache** for the pipeline prefix
//!   ([`crate::pipeline::prepare`]): jobs sharing
//!   `(S, poc, ℓ, taint/vm config)` pay for preprocessing and P1 taint
//!   extraction exactly once (single-flight), with hit/miss/byte stats;
//! * a **per-job deadline** delivered as a cooperative
//!   [`octo_sched::CancelToken`] into the directed engine, so a runaway
//!   symbolic-execution job yields a
//!   [`crate::verdict::FailureReason::Deadline`] verdict
//!   instead of stalling the batch;
//! * a **structured progress-event stream** (job started / phase
//!   finished / cache hit / retry / job done, with per-phase wall
//!   times), delivered to any [`octo_sched::EventSink`]: human log lines
//!   under `--events`, the daemon's `watch` stream and timelines.
//!
//! Results come back in submission order regardless of worker count, so
//! batch output is deterministic and diffable (the CI golden file relies
//! on this).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use octo_faults::{FaultPlan, JobFaults, RetryPolicy};
use octo_ir::printer::print_program;
use octo_ir::Program;
use octo_obs::{Counter, Gauge, Histogram, MetricsRegistry};
use octo_poc::PocFile;
use octo_sched::{
    run_jobs, ArtifactCache, CacheStats, CancelToken, EventClock, EventKind, EventSink, KeyHasher,
    SchedStats, Watchdog, WatchdogConfig,
};
use octo_serve::json::json_escape;
use octo_serve::VerdictSummary;
use octo_store::{BlobStore, StoreStats};
use octo_trace::{FlightRecorder, TraceKind};

use crate::blob;
use crate::config::PipelineConfig;
use crate::pipeline::{
    prepare, verify_suffix, JobEvents, PhaseGuard, PrepareFailure, PreparedSource,
    SoftwarePairInput, VerificationReport,
};
use crate::verdict::Verdict;

/// One owned batch job: it owns its programs so it can be loaded from
/// files or the corpus and shipped across worker threads.
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

impl From<octo_corpus::SoftwarePair> for BatchJob {
    fn from(pair: octo_corpus::SoftwarePair) -> BatchJob {
        BatchJob {
            name: pair.display_name(),
            s: pair.s,
            t: pair.t,
            poc: pair.poc,
            shared: pair.shared,
        }
    }
}

/// The 15 Table II pairs as batch jobs, in corpus order (the
/// `octopocs batch --corpus` job set the golden files pin).
pub fn corpus_jobs() -> Vec<BatchJob> {
    octo_corpus::all_pairs()
        .into_iter()
        .map(BatchJob::from)
        .collect()
}

/// Knobs for one batch run.
#[derive(Debug, Clone)]
pub struct BatchOptions {
    /// Worker threads (clamped to the job count; at least 1).
    pub workers: usize,
    /// Per-job wall-clock deadline for the pipeline suffix. `None` means
    /// jobs are bounded only by the engines' own step budgets.
    pub deadline: Option<Duration>,
    /// Flight recorder for the run. When set, every worker installs it
    /// for the duration of each job (tagged with the job's submission
    /// index and the worker id), so the engines' [`octo_trace`] events
    /// land in one ring; render with [`octo_trace::chrome::render_chrome`]
    /// or per-event JSON lines. `None` keeps tracing a no-op.
    pub trace: Option<Arc<FlightRecorder>>,
    /// Retry policy for transient failures (deadline, hung, panic,
    /// injected fault). The default attempts each job exactly once —
    /// identical to the pre-retry behavior.
    pub retry: RetryPolicy,
    /// Deterministic fault plan. When set, every job attempt runs with an
    /// installed [`octo_faults`] context keyed by the job's submission
    /// index, so the plan's injections replay byte-for-byte across runs
    /// and worker counts. `None` keeps every fault site inert.
    pub faults: Option<Arc<FaultPlan>>,
    /// Watchdog configuration. When set, a monitor thread observes every
    /// attempt's heartbeat (the directed engine beats its cancel token at
    /// a fixed step cadence) and escalates a silent job to its token
    /// before the global deadline, yielding
    /// [`crate::verdict::FailureReason::Hung`].
    pub watchdog: Option<WatchdogConfig>,
    /// Run-level drain token. When set, every attempt's per-job token is
    /// derived from it via [`CancelToken::child`], so firing this one
    /// token (Ctrl-C, a service `drain`/`shutdown` request) winds down
    /// every in-flight job cooperatively. Jobs cut short this way come
    /// back as [`crate::verdict::FailureReason::Cancelled`] — never
    /// retried, never quarantined — and jobs not yet started are skipped
    /// outright. `None` (the default) keeps batches un-drainable, the
    /// pre-existing behavior.
    pub cancel: Option<CancelToken>,
    /// Root directory of the disk artifact cache ([`octo_store`]). When
    /// set, prepared prefixes are written through to a crash-safe blob
    /// store so later runs (and daemon restarts) warm-start; corruption
    /// quarantines and recomputes, I/O failure degrades to memory-only.
    /// `None` (the default) keeps caching purely in-memory.
    pub cache_dir: Option<PathBuf>,
}

impl Default for BatchOptions {
    fn default() -> BatchOptions {
        BatchOptions {
            workers: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4),
            deadline: None,
            trace: None,
            retry: RetryPolicy::default(),
            faults: None,
            watchdog: None,
            cancel: None,
            cache_dir: None,
        }
    }
}

/// The content-address of a job's cacheable prefix.
///
/// Everything [`prepare`] reads is hashed: the *printed form* of `S`
/// (content, not identity), the PoC bytes, the shared set in order, and
/// the taint/VM configuration. Changing any ingredient changes the key;
/// `T` deliberately does not participate.
pub fn prefix_cache_key(
    s: &Program,
    poc: &PocFile,
    shared: &[String],
    config: &PipelineConfig,
) -> u64 {
    let mut h = KeyHasher::new();
    h.write_field(print_program(s).as_bytes());
    h.write_field(poc.bytes());
    h.write_u64(shared.len() as u64);
    for name in shared {
        h.write_field(name.as_bytes());
    }
    h.write_u64(config.taint_granularity as u64);
    h.write_u64(config.taint_context as u64);
    h.write_u64(config.vm_limits.max_insts);
    h.write_u64(config.vm_limits.max_call_depth as u64);
    h.finish()
}

/// The §VII patch-urgency bucket a verdict lands in (ascending = more
/// urgent): "assume that a developer has confirmed that several pieces of
/// propagated vulnerable code exist in their software. At this point,
/// they can use OCTOPOCS to determine which vulnerabilities need to be
/// patched more urgently".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Urgency {
    /// Triggered with a memory-corruption class crash (CWE-119 /
    /// CWE-190): patch immediately.
    TriggeredCorruption,
    /// Triggered with any other crash class (DoS-style): patch next.
    TriggeredOther,
    /// Verification failed — the risk is unknown; investigate manually.
    Unknown,
    /// Verified not triggerable — "it must be patched in the end" but can
    /// wait.
    VerifiedSafe,
}

impl Urgency {
    /// Classifies one verdict.
    pub fn of(verdict: &Verdict) -> Urgency {
        match verdict {
            Verdict::Triggered { crash_class, .. } => match *crash_class {
                "CWE-119" | "CWE-190" => Urgency::TriggeredCorruption,
                _ => Urgency::TriggeredOther,
            },
            Verdict::Failure { .. } => Urgency::Unknown,
            Verdict::NotTriggerable { .. } => Urgency::VerifiedSafe,
        }
    }

    /// Human-readable recommendation.
    pub fn recommendation(self) -> &'static str {
        match self {
            Urgency::TriggeredCorruption => "patch immediately (exploitable memory corruption)",
            Urgency::TriggeredOther => "patch soon (demonstrated denial of service)",
            Urgency::Unknown => "investigate manually (verification failed)",
            Urgency::VerifiedSafe => "schedule routine patch (verified not triggerable)",
        }
    }
}

/// One verified batch entry, in submission order.
#[derive(Debug)]
pub struct BatchEntry {
    /// Job name.
    pub name: String,
    /// Whether the pipeline prefix came from the artifact cache.
    pub cache_hit: bool,
    /// Whether the job ended quarantined: its final attempt still failed
    /// transiently (deadline, hung, panic, injected fault), so the
    /// degraded verdict is preserved but flagged as unreliable.
    pub quarantined: bool,
    /// The full verification report (`wall_seconds` covers the whole job
    /// as this batch executed it, cached prefix included).
    pub report: VerificationReport,
}

impl BatchEntry {
    /// Patch-urgency bucket of the verdict.
    pub fn urgency(&self) -> Urgency {
        Urgency::of(&self.report.verdict)
    }

    /// The stable verdict fields, as the wire protocol and the verdicts
    /// document carry them.
    pub fn summary(&self) -> VerdictSummary {
        VerdictSummary {
            verdict: self.report.verdict.type_label().to_string(),
            poc_generated: self.report.verdict.poc_generated(),
            verified: self.report.verdict.verified(),
            attempts: self.report.attempts,
            quarantined: self.quarantined,
        }
    }
}

/// Everything a batch run produced.
#[derive(Debug)]
pub struct BatchReport {
    /// Entries in submission order.
    pub entries: Vec<BatchEntry>,
    /// Submission indices of quarantined entries (ascending). A
    /// quarantined job exhausted its retry budget on transient failures;
    /// its entry is still present with the last attempt's verdict.
    pub quarantined: Vec<usize>,
    /// Artifact-cache statistics.
    pub cache: CacheStats,
    /// Disk blob-store statistics, when `--cache-dir` configured one.
    pub disk: Option<StoreStats>,
    /// Scheduler statistics.
    pub sched: SchedStats,
    /// Every metric the run recorded (see `docs/observability.md`);
    /// renderable as JSON or Prometheus text via
    /// [`MetricsRegistry::render_json`] /
    /// [`MetricsRegistry::render_prometheus`].
    pub metrics: MetricsRegistry,
    /// Total wall-clock seconds for the batch.
    pub wall_seconds: f64,
}

impl BatchReport {
    /// Entries re-ordered most-urgent-first (stable within a bucket).
    pub fn by_urgency(&self) -> Vec<&BatchEntry> {
        let mut refs: Vec<&BatchEntry> = self.entries.iter().collect();
        refs.sort_by_key(|e| e.urgency());
        refs
    }

    /// Human-readable run summary.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for (i, e) in self.by_urgency().into_iter().enumerate() {
            out.push_str(&format!(
                "{:>2}. {:<44} {:<9} {:<6} {:>8.3}s — {}\n",
                i + 1,
                e.name,
                e.report.verdict.type_label(),
                if e.cache_hit { "cached" } else { "" },
                e.report.wall_seconds,
                e.urgency().recommendation()
            ));
        }
        out.push_str("phases (seconds):\n");
        out.push_str(&format!(
            "    {:<44} {:>9} {:>9} {:>9}\n",
            "job", "prepare", "symex", "p4"
        ));
        for e in &self.entries {
            let symex = e
                .report
                .symex_stats
                .as_ref()
                .map(|s| format!("{:.3}", s.wall_seconds))
                .unwrap_or_else(|| "-".to_string());
            let p4 = if e.report.p4_insts > 0 {
                format!("{:.3}", e.report.p4_seconds)
            } else {
                "-".to_string()
            };
            out.push_str(&format!(
                "    {:<44} {:>9.3} {:>9} {:>9}\n",
                e.name, e.report.prepare_seconds, symex, p4
            ));
        }
        out.push_str(&format!(
            "cache: {} hits / {} misses ({} artifacts, {} bytes)\n",
            self.cache.hits, self.cache.misses, self.cache.entries, self.cache.bytes
        ));
        if let Some(disk) = &self.disk {
            out.push_str(&format!(
                "disk cache: {} hits / {} misses, {} writes, {} corrupt, {} quarantined, \
                 {} entries (generation {}){}\n",
                disk.hits,
                disk.misses,
                disk.writes,
                disk.corrupt,
                disk.quarantined,
                disk.entries,
                disk.generation,
                if disk.degraded {
                    " — DEGRADED to memory-only"
                } else {
                    ""
                }
            ));
        }
        out.push_str(&format!(
            "sched: {} workers, {} steals ({} jobs moved), {:.3}s wall\n",
            self.sched.workers, self.sched.steals, self.sched.jobs_stolen, self.wall_seconds
        ));
        if !self.quarantined.is_empty() {
            let names: Vec<&str> = self
                .quarantined
                .iter()
                .map(|&i| self.entries[i].name.as_str())
                .collect();
            out.push_str(&format!(
                "quarantined ({}): {}\n",
                names.len(),
                names.join(", ")
            ));
        }
        out
    }

    /// The full machine-readable report (includes timings, cache and
    /// scheduler statistics; **not** run-to-run stable).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"jobs\":[\n");
        for (i, e) in self.entries.iter().enumerate() {
            let symex_seconds = e
                .report
                .symex_stats
                .as_ref()
                .map(|s| format!("{:.6}", s.wall_seconds))
                .unwrap_or_else(|| "null".to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"verdict\":\"{}\",\"poc_generated\":{},\"verified\":{},\
                 \"urgency\":\"{}\",\"cache_hit\":{},\"prescreen\":{},\
                 \"attempts\":{},\"quarantined\":{},\
                 \"prepare_seconds\":{:.6},\"symex_seconds\":{},\"p4_seconds\":{:.6},\
                 \"wall_seconds\":{:.6}}}{}\n",
                json_escape(&e.name),
                e.report.verdict.type_label(),
                e.report.verdict.poc_generated(),
                e.report.verdict.verified(),
                e.urgency().recommendation(),
                e.cache_hit,
                e.report.prescreen,
                e.report.attempts,
                e.quarantined,
                e.report.prepare_seconds,
                symex_seconds,
                e.report.p4_seconds,
                e.report.wall_seconds,
                if i + 1 == self.entries.len() { "" } else { "," }
            ));
        }
        let quarantined: Vec<String> = self.quarantined.iter().map(usize::to_string).collect();
        out.push_str(&format!(
            "],\"quarantined\":[{}],\
             \"cache\":{{\"hits\":{},\"misses\":{},\"entries\":{},\"bytes\":{}}},\
             \"sched\":{{\"workers\":{},\"steals\":{},\"jobs_stolen\":{}}},\
             \"wall_seconds\":{:.6}}}",
            quarantined.join(","),
            self.cache.hits,
            self.cache.misses,
            self.cache.entries,
            self.cache.bytes,
            self.sched.workers,
            self.sched.steals,
            self.sched.jobs_stolen,
            self.wall_seconds
        ));
        out
    }

    /// Human-readable post-mortems for every entry that carries one
    /// (not-triggerable, loop-budget, and deadline verdicts — see
    /// [`crate::verdict::Verdict::post_mortem_event`]), in submission
    /// order. Empty when no job warranted one.
    pub fn render_post_mortems(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            if let Some(pm) = &e.report.post_mortem {
                out.push_str(&format!("{}:\n", e.name));
                for line in pm.render_human().lines() {
                    out.push_str(&format!("  {line}\n"));
                }
            }
        }
        out
    }

    /// The *stable* machine-readable verdict list: submission order, no
    /// timings, no environment-dependent fields (`attempts` and
    /// `quarantined` are deterministic — they depend only on the fault
    /// plan and retry policy, never on wall time). This is what the CI
    /// golden files diff against.
    pub fn render_verdicts_json(&self) -> String {
        octo_serve::render_verdicts_json(
            self.entries.iter().map(|e| (e.name.as_str(), e.summary())),
        )
    }
}

/// Size estimate for one cached prefix artifact.
pub(crate) fn prep_artifact_bytes(artifact: &Result<PreparedSource, PrepareFailure>) -> u64 {
    match artifact {
        Ok(p) => p.approx_bytes(),
        Err(_) => std::mem::size_of::<PrepareFailure>() as u64,
    }
}

/// Runs one job against the shared prefix cache (the core of
/// [`BatchRuntime::run_job`]).
///
/// `events` receives the phase events: `"prepare"` fires only when this
/// call actually computed the prefix (a cache miss); `"symex"` and
/// `"p4"` fire from inside the pipeline suffix.
///
/// `disk` is the durable write-through tier: on a memory miss the blob
/// store is consulted first (a frame-valid, decodable blob skips
/// `prepare` entirely — that is the warm start), and a freshly computed
/// `Ok` prefix is written back. A blob whose frame validated but whose
/// payload fails [`blob::from_blob`] is quarantined exactly like frame
/// corruption; the job recomputes and the hit flag reflects whether
/// *this job* ran `prepare`, so metric billing stays single-count.
fn verify_with_cache(
    cache: &ArtifactCache<Result<PreparedSource, PrepareFailure>>,
    disk: Option<&BlobStore>,
    input: &SoftwarePairInput<'_>,
    config: &PipelineConfig,
    cancel: Option<&CancelToken>,
    events: &JobEvents<'_>,
) -> (VerificationReport, bool, u64) {
    let start = Instant::now();
    let key = prefix_cache_key(input.s, input.poc, input.shared, config);
    let disk_hit = std::cell::Cell::new(false);
    let (prep, mem_hit) = cache.get_or_compute(key, || {
        if let Some(store) = disk {
            if let Some(payload) = store.get(key) {
                match blob::from_blob(&payload) {
                    Ok(prep) => {
                        disk_hit.set(true);
                        let artifact = Ok(prep);
                        let bytes = prep_artifact_bytes(&artifact);
                        return (artifact, bytes);
                    }
                    // Checksum-valid frame around an undecodable payload
                    // (e.g. payload-version skew): quarantine it like any
                    // other corruption and fall through to recompute.
                    Err(_) => store.quarantine(key),
                }
            }
        }
        let phase = PhaseGuard::start("prepare", Some(events));
        let artifact = prepare(input.s, input.poc, input.shared, config);
        phase.finish();
        if let (Some(store), Ok(prep)) = (disk, &artifact) {
            // Only successful prefixes persist: failures are cheap to
            // recompute and their shape is not part of the blob schema.
            store.put(key, &blob::to_blob(prep));
        }
        let bytes = prep_artifact_bytes(&artifact);
        (artifact, bytes)
    });
    let hit = mem_hit || disk_hit.get();
    let prepare_seconds = start.elapsed().as_secs_f64();
    let mut report = match prep.as_ref() {
        Ok(p) => verify_suffix(p, input, config, cancel, Some(events), Instant::now()),
        Err(fail) => fail.to_report(),
    };
    // The prefix as *this job* paid for it: a full prepare on a miss, a
    // cache lookup (plus possibly waiting out another worker's
    // single-flight compute) on a hit.
    report.prepare_seconds = prepare_seconds;
    // Bill the whole job (prefix, cached or not, plus suffix) to one
    // clock, matching the sequential `verify` semantics.
    report.wall_seconds = start.elapsed().as_secs_f64();
    (report, hit, key)
}

/// Wall-time histogram bounds, microseconds (100µs … 10s).
const MICROS_BUCKETS: [u64; 6] = [100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000];

/// Bunch-payload histogram bounds, bytes.
const BUNCH_BUCKETS: [u64; 6] = [1, 4, 16, 64, 256, 1_024];

/// Clone-score histogram bounds, centi-units (`score * 100`).
pub(crate) const SCORE_CENTI_BUCKETS: [u64; 6] = [50, 60, 70, 80, 90, 100];

fn micros(seconds: f64) -> u64 {
    (seconds * 1e6) as u64
}

/// Pre-registered handles for every metric a batch run records, so the
/// per-job hot path touches only lock-free atomics (the registry's
/// name-lookup mutex is paid once, up front). The full catalogue is
/// documented in `docs/observability.md` and pinned by
/// `tests/golden/metrics_schema.txt`.
struct BatchMetrics {
    jobs_total: Arc<Counter>,
    verdict_type_i: Arc<Counter>,
    verdict_type_ii: Arc<Counter>,
    verdict_type_iii: Arc<Counter>,
    verdict_failure: Arc<Counter>,
    prescreen_decided: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    cache_entries: Arc<Gauge>,
    cache_bytes: Arc<Gauge>,
    cache_disk_hits: Arc<Counter>,
    cache_disk_misses: Arc<Counter>,
    cache_disk_writes: Arc<Counter>,
    cache_disk_corrupt: Arc<Counter>,
    cache_disk_quarantined: Arc<Counter>,
    cache_disk_degraded: Arc<Gauge>,
    cache_disk_read_micros: Arc<Histogram>,
    cache_disk_write_micros: Arc<Histogram>,
    sched_workers: Arc<Gauge>,
    sched_steals: Arc<Counter>,
    sched_jobs_stolen: Arc<Counter>,
    p1_insts: Arc<Counter>,
    p4_insts: Arc<Counter>,
    taint_bytes_uploaded: Arc<Counter>,
    taint_records: Arc<Counter>,
    taint_peak_tainted_addrs: Arc<Gauge>,
    taint_bunch_bytes: Arc<Histogram>,
    symex_steps: Arc<Counter>,
    symex_backtracks: Arc<Counter>,
    symex_loop_retries: Arc<Counter>,
    symex_forced_branches: Arc<Counter>,
    symex_peak_mem_bytes: Arc<Gauge>,
    symex_peak_fallback_depth: Arc<Gauge>,
    solver_calls: Arc<Counter>,
    solver_interval_refutations: Arc<Counter>,
    solver_simplify_rewrites: Arc<Counter>,
    job_queue_latency: Arc<Histogram>,
    job_wall: Arc<Histogram>,
    phase_p1: Arc<Histogram>,
    phase_p2p3: Arc<Histogram>,
    phase_p4: Arc<Histogram>,
    retries: Arc<Counter>,
    quarantined: Arc<Counter>,
    panics: Arc<Counter>,
    faults_injected: Arc<Counter>,
    watchdog_fired: Arc<Counter>,
    uptime_seconds: Arc<Gauge>,
}

impl BatchMetrics {
    fn register(reg: &MetricsRegistry) -> BatchMetrics {
        // Clone-scan metrics are recorded by `crate::scan::run_scan` after
        // the batch returns; registered eagerly here so every run exposes
        // the full pinned schema (tests/golden/metrics_schema.txt).
        reg.counter("clone_candidates_total");
        reg.counter("clone_functions_fingerprinted_total");
        reg.counter("clone_pairs_compared_total");
        reg.counter("clone_scan_jobs_total");
        reg.histogram("clone_score_centi", &SCORE_CENTI_BUCKETS);
        // Service-queue metrics are recorded by the octopocsd daemon
        // (octo-serve) against this same registry; eagerly registered for
        // the same reason — one pinned schema whether the registry backs
        // a one-shot batch or a long-running service.
        reg.counter("serve_admissions_total");
        reg.counter("serve_rejections_total");
        reg.counter("serve_replays_total");
        reg.gauge("serve_queue_depth_bulk");
        reg.gauge("serve_queue_depth_interactive");
        reg.histogram("serve_queue_wait_micros", &MICROS_BUCKETS);
        // Build identity for scrapers: a constant-1 info-style gauge
        // carrying the crate version as a label.
        reg.info(
            "octopocs_build_info",
            &[("version", env!("CARGO_PKG_VERSION"))],
        );
        BatchMetrics {
            uptime_seconds: reg.gauge("serve_uptime_seconds"),
            jobs_total: reg.counter("batch_jobs_total"),
            verdict_type_i: reg.counter("batch_verdict_type_i_total"),
            verdict_type_ii: reg.counter("batch_verdict_type_ii_total"),
            verdict_type_iii: reg.counter("batch_verdict_type_iii_total"),
            verdict_failure: reg.counter("batch_verdict_failure_total"),
            prescreen_decided: reg.counter("batch_prescreen_decided_total"),
            cache_hits: reg.counter("cache_hits_total"),
            cache_misses: reg.counter("cache_misses_total"),
            cache_entries: reg.gauge("cache_entries"),
            cache_bytes: reg.gauge("cache_bytes"),
            cache_disk_hits: reg.counter("cache_disk_hits_total"),
            cache_disk_misses: reg.counter("cache_disk_misses_total"),
            cache_disk_writes: reg.counter("cache_disk_writes_total"),
            cache_disk_corrupt: reg.counter("cache_disk_corrupt_total"),
            cache_disk_quarantined: reg.counter("cache_disk_quarantined_total"),
            cache_disk_degraded: reg.gauge("cache_disk_degraded"),
            cache_disk_read_micros: reg.histogram("cache_disk_read_micros", &MICROS_BUCKETS),
            cache_disk_write_micros: reg.histogram("cache_disk_write_micros", &MICROS_BUCKETS),
            sched_workers: reg.gauge("sched_workers"),
            sched_steals: reg.counter("sched_steals_total"),
            sched_jobs_stolen: reg.counter("sched_jobs_stolen_total"),
            p1_insts: reg.counter("pipeline_p1_insts_total"),
            p4_insts: reg.counter("pipeline_p4_insts_total"),
            taint_bytes_uploaded: reg.counter("taint_bytes_uploaded_total"),
            taint_records: reg.counter("taint_records_total"),
            taint_peak_tainted_addrs: reg.gauge("taint_peak_tainted_addrs"),
            taint_bunch_bytes: reg.histogram("taint_bunch_bytes", &BUNCH_BUCKETS),
            symex_steps: reg.counter("symex_steps_total"),
            symex_backtracks: reg.counter("symex_backtracks_total"),
            symex_loop_retries: reg.counter("symex_loop_retries_total"),
            symex_forced_branches: reg.counter("symex_forced_branches_total"),
            symex_peak_mem_bytes: reg.gauge("symex_peak_mem_bytes"),
            symex_peak_fallback_depth: reg.gauge("symex_peak_fallback_depth"),
            solver_calls: reg.counter("solver_calls_total"),
            solver_interval_refutations: reg.counter("solver_interval_refutations_total"),
            solver_simplify_rewrites: reg.counter("solver_simplify_rewrites_total"),
            job_queue_latency: reg.histogram("job_queue_latency_micros", &MICROS_BUCKETS),
            job_wall: reg.histogram("job_wall_micros", &MICROS_BUCKETS),
            phase_p1: reg.histogram("phase_p1_micros", &MICROS_BUCKETS),
            phase_p2p3: reg.histogram("phase_p2p3_micros", &MICROS_BUCKETS),
            phase_p4: reg.histogram("phase_p4_micros", &MICROS_BUCKETS),
            retries: reg.counter("batch_retries_total"),
            quarantined: reg.counter("batch_quarantined_total"),
            panics: reg.counter("batch_panics_total"),
            faults_injected: reg.counter("batch_faults_injected_total"),
            watchdog_fired: reg.counter("batch_watchdog_fired_total"),
        }
    }

    /// Records one finished job. P1-side counters (taint, `p1_insts`,
    /// bunch sizes) are billed only when this job actually computed the
    /// prefix — cached artifacts would double-count work done once.
    fn record_job(&self, entry: &BatchEntry) {
        let report = &entry.report;
        self.jobs_total.inc();
        match report.verdict.type_label() {
            "Type-I" => self.verdict_type_i.inc(),
            "Type-II" => self.verdict_type_ii.inc(),
            "Type-III" => self.verdict_type_iii.inc(),
            _ => self.verdict_failure.inc(),
        }
        if report.prescreen {
            self.prescreen_decided.inc();
        }
        if entry.quarantined {
            self.quarantined.inc();
        }
        if report.attempts > 1 {
            self.retries.add(u64::from(report.attempts) - 1);
        }
        self.job_wall.observe(micros(report.wall_seconds));
        self.phase_p1.observe(micros(report.prepare_seconds));
        if !entry.cache_hit {
            self.p1_insts.add(report.p1_insts);
            if let Some(t) = report.taint_stats {
                self.taint_bytes_uploaded.add(t.bytes_uploaded);
                self.taint_records.add(t.taint_records);
                self.taint_peak_tainted_addrs
                    .record_max(t.peak_tainted_addrs);
            }
            for &bytes in &report.bunch_bytes {
                self.taint_bunch_bytes.observe(bytes);
            }
        }
        if let Some(s) = &report.symex_stats {
            self.symex_steps.add(s.total_steps);
            self.symex_backtracks.add(s.backtracks);
            self.symex_loop_retries.add(s.loop_retries);
            self.symex_forced_branches.add(s.forced_branches);
            self.symex_peak_mem_bytes.record_max(s.peak_mem_bytes);
            self.symex_peak_fallback_depth
                .record_max(s.peak_fallback_depth);
            self.solver_calls.add(s.solver_calls);
            self.solver_interval_refutations.add(s.interval_refutations);
            self.solver_simplify_rewrites.add(s.simplify_rewrites);
            self.phase_p2p3.observe(micros(s.wall_seconds));
        }
        if report.p4_insts > 0 {
            self.p4_insts.add(report.p4_insts);
            self.phase_p4.observe(micros(report.p4_seconds));
        }
    }

    /// Records run-level scheduler statistics (once per [`run_batch`],
    /// after all workers have joined).
    fn record_sched(&self, sched: &SchedStats) {
        self.sched_workers.set(sched.workers as u64);
        self.sched_steals.add(sched.steals);
        self.sched_jobs_stolen.add(sched.jobs_stolen);
    }
}

/// The long-lived execution substrate a batch (or a service) runs jobs
/// on: one artifact cache, one metrics registry, one event clock, one
/// optional watchdog — everything per-*run* that [`run_batch`] used to
/// hold in locals, extracted so a daemon can keep it warm across many
/// submissions. [`BatchRuntime::run_job`] is the whole per-job story
/// (trace/fault guards, retry-then-quarantine, cancellation, events,
/// metrics); [`run_batch`] is now a thin scheduler loop over it and the
/// `octopocsd` service calls it one job at a time.
pub struct BatchRuntime {
    cache: ArtifactCache<Result<PreparedSource, PrepareFailure>>,
    store: Option<Arc<BlobStore>>,
    metrics: MetricsRegistry,
    recorder: BatchMetrics,
    clock: EventClock,
    watchdog: Option<Watchdog>,
    options: BatchOptions,
    config: PipelineConfig,
    started_at: Instant,
}

impl std::fmt::Debug for BatchRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchRuntime")
            .field("workers", &self.options.workers)
            .field("cache", &self.cache.stats())
            .finish()
    }
}

impl BatchRuntime {
    /// Builds the runtime: registers the full metric schema, spawns the
    /// watchdog (when configured), starts the event clock.
    pub fn new(config: &PipelineConfig, options: &BatchOptions) -> BatchRuntime {
        let metrics = MetricsRegistry::new();
        let recorder = BatchMetrics::register(&metrics);
        let store = options.cache_dir.as_ref().map(|dir| {
            let store = BlobStore::open(dir);
            store.attach_histograms(
                Arc::clone(&recorder.cache_disk_read_micros),
                Arc::clone(&recorder.cache_disk_write_micros),
            );
            Arc::new(store)
        });
        BatchRuntime {
            cache: ArtifactCache::new(),
            store,
            recorder,
            metrics,
            clock: EventClock::new(options.workers),
            watchdog: options.watchdog.map(Watchdog::spawn),
            options: options.clone(),
            config: config.clone(),
            started_at: Instant::now(),
        }
    }

    /// The disk blob store, when `--cache-dir` configured one.
    pub fn store(&self) -> Option<&Arc<BlobStore>> {
        self.store.as_ref()
    }

    /// Current disk-store statistics, when a store is configured.
    pub fn store_stats(&self) -> Option<StoreStats> {
        self.store.as_deref().map(BlobStore::stats)
    }

    /// The runtime's metrics registry (call
    /// [`BatchRuntime::refresh_metrics`] first for up-to-date cache and
    /// watchdog figures).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The pipeline configuration every job runs under.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Current artifact-cache statistics.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Whether the run-level drain token has fired.
    pub fn drained(&self) -> bool {
        self.options
            .cancel
            .as_ref()
            .is_some_and(CancelToken::is_cancelled)
    }

    /// Re-syncs the registry's cache and watchdog metrics from their
    /// live sources. Idempotent and safe to call concurrently (counters
    /// are raised to the source totals, never added to); a service calls
    /// this on every metrics request, [`run_batch`] once at the end.
    pub fn refresh_metrics(&self) {
        let r = &self.recorder;
        r.uptime_seconds.set(self.started_at.elapsed().as_secs());
        let stats = self.cache.stats();
        r.cache_hits.raise_to(stats.hits);
        r.cache_misses.raise_to(stats.misses);
        r.cache_entries.set(stats.entries);
        r.cache_bytes.set(stats.bytes);
        if let Some(store) = self.store.as_deref() {
            let disk = store.stats();
            r.cache_disk_hits.raise_to(disk.hits);
            r.cache_disk_misses.raise_to(disk.misses);
            r.cache_disk_writes.raise_to(disk.writes);
            r.cache_disk_corrupt.raise_to(disk.corrupt);
            r.cache_disk_quarantined.raise_to(disk.quarantined);
            r.cache_disk_degraded.set(u64::from(disk.degraded));
        }
        if let Some(dog) = &self.watchdog {
            r.watchdog_fired.raise_to(dog.fired());
        }
    }

    /// A fresh cancel token for one attempt — derived from the run-level
    /// drain token when one is set, carrying the per-job deadline when
    /// one is configured, `None` when nothing could ever fire it and the
    /// watchdog does not need a channel.
    fn attempt_token(&self) -> Option<CancelToken> {
        match (&self.options.cancel, self.options.deadline) {
            (Some(run), Some(d)) => Some(run.child_with_deadline(d)),
            (Some(run), None) => Some(run.child()),
            (None, Some(d)) => Some(CancelToken::with_deadline(d)),
            (None, None) => self.watchdog.as_ref().map(|_| CancelToken::new()),
        }
    }

    /// Runs one job to a finished [`BatchEntry`]: queue-latency
    /// accounting, trace and fault guards, the retry-then-quarantine
    /// attempt loop inside a panic envelope, lifecycle events into
    /// `sink`, and per-job metrics. `index` tags the job everywhere (the
    /// event stream, the trace ring, the fault context); `queued_at` is
    /// when the job was submitted (queue latency is measured from it).
    ///
    /// When the run-level drain token has fired, a job not yet started
    /// is skipped outright and an in-flight attempt that dies
    /// transiently is reported as
    /// [`crate::verdict::FailureReason::Cancelled`] instead of burning
    /// retries — but an attempt that *completes* during a drain keeps
    /// its real verdict.
    pub fn run_job(
        &self,
        index: usize,
        worker: usize,
        job: &BatchJob,
        queued_at: Instant,
        sink: &dyn EventSink,
    ) -> BatchEntry {
        let options = &self.options;
        let recorder = &self.recorder;
        // Queue latency: how long the job sat submitted-but-unclaimed.
        recorder
            .job_queue_latency
            .observe(micros(queued_at.elapsed().as_secs_f64()));
        let job_start = Instant::now();
        // Route this job's engine-level trace events (solver entries,
        // state deaths, bunch assertions, …) into the shared ring,
        // tagged with the submission index and worker lane.
        let _trace = options
            .trace
            .as_ref()
            .map(|rec| octo_trace::install(rec, index as u32, worker as u32));
        // One fault context per *job*, shared across attempts: occurrence
        // counters persist, so an Nth(1) rule fires on attempt 1 and the
        // retry runs clean (that is how a retry rescues an injected
        // fault), and the whole schedule replays byte-for-byte from
        // (seed, submission index) regardless of worker count.
        let faults_ctx = options
            .faults
            .as_ref()
            .map(|plan| Arc::new(JobFaults::new(plan, index as u32)));
        let _faults = faults_ctx.as_ref().map(octo_faults::install);
        let events = JobEvents {
            sink,
            clock: &self.clock,
            job: index,
            worker,
        };
        events.emit(EventKind::JobStarted {
            job: index,
            name: job.name.clone(),
        });
        let input = SoftwarePairInput {
            s: &job.s,
            t: &job.t,
            poc: &job.poc,
            shared: &job.shared,
        };
        let max_attempts = options.retry.max_attempts.max(1);
        let mut attempt = 1u32;
        let (report, cache_hit, key, quarantined) = if self.drained() {
            // Drained before this job ever started: skip the engines
            // entirely and synthesize the incomplete verdict.
            (VerificationReport::from_cancelled(), false, 0, false)
        } else {
            loop {
                // A fresh token per attempt: a previous attempt's
                // cancelled (or escalated) token must not pre-cancel the
                // retry. The watchdog watches each attempt independently.
                let token = self.attempt_token();
                let _watch = match (self.watchdog.as_ref(), token.as_ref()) {
                    (Some(dog), Some(t)) => Some(dog.watch(t)),
                    _ => None,
                };
                // The inner panic envelope. Catching here (rather than
                // relying on the scheduler's own envelope) keeps the trace
                // and fault guards installed while the degraded report is
                // synthesized — the post-mortem tail captures the events
                // leading up to the panic — and lets the retry loop treat a
                // panic like any other transient failure.
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    verify_with_cache(
                        &self.cache,
                        self.store.as_deref(),
                        &input,
                        &self.config,
                        token.as_ref(),
                        &events,
                    )
                }));
                let (mut report, cache_hit, key) = match caught {
                    Ok(r) => r,
                    Err(payload) => {
                        recorder.panics.inc();
                        let panic = octo_sched::JobPanic::from_payload(payload.as_ref());
                        (VerificationReport::from_panic(panic.message), false, 0)
                    }
                };
                report.attempts = attempt;
                let transient = matches!(
                    &report.verdict,
                    Verdict::Failure { reason } if reason.is_transient()
                );
                if transient && self.drained() {
                    // The attempt most likely died *because* the drain
                    // fired its parent token (the engine reports that as
                    // a deadline or hang): report the job as incomplete,
                    // no retry, no quarantine.
                    let mut cancelled = VerificationReport::from_cancelled();
                    cancelled.attempts = attempt;
                    break (cancelled, cache_hit, key, false);
                }
                if transient && attempt < max_attempts {
                    let backoff = options.retry.backoff_for(index as u32, attempt);
                    octo_trace::emit(TraceKind::RetryScheduled {
                        attempt,
                        backoff_micros: backoff.as_micros() as u64,
                    });
                    // Mirror the retry into the lifecycle event stream so
                    // watchers (and the HTTP timelines built from the
                    // daemon's fanout) see each failed attempt with the
                    // heartbeat count the attempt token accumulated.
                    events.emit(EventKind::RetryScheduled {
                        job: index,
                        attempt,
                        backoff_micros: backoff.as_micros() as u64,
                        beats: token.as_ref().map_or(0, CancelToken::beats),
                    });
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
                    }
                    attempt += 1;
                    continue;
                }
                if transient {
                    octo_trace::emit(TraceKind::JobQuarantined { attempts: attempt });
                }
                break (report, cache_hit, key, transient);
            }
        };
        let mut report = report;
        if matches!(
            &report.verdict,
            Verdict::Failure {
                reason: crate::verdict::FailureReason::Cancelled
            }
        ) {
            report.wall_seconds = job_start.elapsed().as_secs_f64();
        }
        if let Some(ctx) = &faults_ctx {
            recorder.faults_injected.add(ctx.fired());
        }
        if cache_hit {
            events.emit(EventKind::CacheHit { job: index, key });
        }
        events.emit(EventKind::JobFinished {
            job: index,
            outcome: report.verdict.type_label().to_string(),
            micros: job_start.elapsed().as_micros() as u64,
        });
        let entry = BatchEntry {
            name: job.name.clone(),
            cache_hit,
            quarantined,
            report,
        };
        recorder.record_job(&entry);
        entry
    }
}

/// Verifies every job on the work-stealing scheduler and returns the
/// entries **in submission order** together with cache and scheduler
/// statistics. Progress is streamed into `sink` as it happens.
///
/// Each job attempt runs inside a panic envelope: a panicking pipeline
/// degrades to a [`crate::verdict::FailureReason::Internal`] verdict
/// (with a synthesized post-mortem) instead of taking the batch down.
/// Transient failures are retried per `options.retry`; a job whose final
/// attempt still fails transiently is *quarantined* — its degraded
/// verdict is kept and its index listed in [`BatchReport::quarantined`].
pub fn run_batch(
    jobs: &[BatchJob],
    config: &PipelineConfig,
    options: &BatchOptions,
    sink: &dyn EventSink,
) -> BatchReport {
    let start = Instant::now();
    let runtime = BatchRuntime::new(config, options);
    let indices: Vec<usize> = (0..jobs.len()).collect();

    let (results, sched) = run_jobs(indices, options.workers, |worker, i| {
        runtime.run_job(i, worker, &jobs[i], start, sink)
    });

    // A job can only reach the scheduler's own envelope by panicking in
    // the batch bookkeeping around the inner one (the pipeline itself is
    // caught above). Degrade it the same way: preserved batch, degraded
    // verdict, quarantined.
    let entries: Vec<BatchEntry> = results
        .into_iter()
        .enumerate()
        .map(|(i, result)| match result {
            Ok(entry) => entry,
            Err(panic) => {
                runtime.recorder.panics.inc();
                let mut report = VerificationReport::from_panic(panic.message);
                report.wall_seconds = start.elapsed().as_secs_f64();
                let entry = BatchEntry {
                    name: jobs[i].name.clone(),
                    cache_hit: false,
                    quarantined: true,
                    report,
                };
                runtime.recorder.record_job(&entry);
                entry
            }
        })
        .collect();
    let quarantined: Vec<usize> = entries
        .iter()
        .enumerate()
        .filter(|(_, e)| e.quarantined)
        .map(|(i, _)| i)
        .collect();

    runtime.refresh_metrics();
    runtime.recorder.record_sched(&sched);
    let cache = runtime.cache.stats();
    let disk = runtime.store_stats();
    // Destructure to join the watchdog thread before handing the
    // registry to the report (dropping `store` flushes its index).
    let BatchRuntime {
        metrics,
        watchdog,
        store,
        ..
    } = runtime;
    drop(watchdog);
    drop(store);
    BatchReport {
        entries,
        quarantined,
        cache,
        disk,
        sched,
        metrics,
        wall_seconds: start.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octo_ir::parse::parse_program;
    use octo_sched::{EventLog, NullSink};
    use octo_vm::Limits;

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
        parse_program(&format!(
            "func main() {{\nentry:\n fd = open\n b = getc fd\n call shared(b)\n \
             halt 0\n}}\n{SHARED}"
        ))
        .unwrap()
    }

    fn t_gated() -> Program {
        parse_program(&format!(
            "func main() {{\nentry:\n fd = open\n m = getc fd\n ok = eq m, 0x99\n \
             br ok, go, rej\ngo:\n b = getc fd\n call shared(b)\n halt 0\nrej:\n \
             halt 1\n}}\n{SHARED}"
        ))
        .unwrap()
    }

    fn t_safe() -> Program {
        parse_program(&format!("func main() {{\nentry:\n halt 0\n}}\n{SHARED}")).unwrap()
    }

    fn job(name: &str, t: Program) -> BatchJob {
        BatchJob {
            name: name.to_string(),
            s: s_program(),
            t,
            poc: PocFile::from(&b"A"[..]),
            shared: vec!["shared".to_string()],
        }
    }

    #[test]
    fn cache_key_depends_on_every_ingredient() {
        let config = PipelineConfig::default();
        let s = s_program();
        let poc = PocFile::from(&b"A"[..]);
        let shared = vec!["shared".to_string()];
        let base = prefix_cache_key(&s, &poc, &shared, &config);

        // Same inputs → same key (content addressing, not identity).
        assert_eq!(
            base,
            prefix_cache_key(&s_program(), &PocFile::from(&b"A"[..]), &shared, &config)
        );
        // Different S.
        assert_ne!(base, prefix_cache_key(&t_safe(), &poc, &shared, &config));
        // Different poc.
        assert_ne!(
            base,
            prefix_cache_key(&s, &PocFile::from(&b"B"[..]), &shared, &config)
        );
        // Different shared set.
        assert_ne!(
            base,
            prefix_cache_key(&s, &poc, &["other".to_string()], &config)
        );
        // Different taint config (context mode, granularity).
        assert_ne!(
            base,
            prefix_cache_key(&s, &poc, &shared, &config.clone().context_free())
        );
        let coarse = PipelineConfig {
            taint_granularity: octo_taint::Granularity::Word,
            ..PipelineConfig::default()
        };
        assert_ne!(base, prefix_cache_key(&s, &poc, &shared, &coarse));
        // Different VM limits.
        let tight = PipelineConfig {
            vm_limits: Limits {
                max_insts: 1_000,
                ..Limits::default()
            },
            ..PipelineConfig::default()
        };
        assert_ne!(base, prefix_cache_key(&s, &poc, &shared, &tight));
    }

    #[test]
    fn shared_source_pays_prepare_once() {
        // Two targets cloned from one (S, poc): one prepare, one hit.
        let jobs = vec![job("gated", t_gated()), job("safe", t_safe())];
        let report = run_batch(
            &jobs,
            &PipelineConfig::default(),
            &BatchOptions::default(),
            &NullSink,
        );
        assert_eq!(report.cache.misses, 1, "P1 must run exactly once");
        assert_eq!(report.cache.hits, 1);
        assert_eq!(report.cache.entries, 1);
        assert!(report.cache.bytes > 0);
        assert_eq!(report.entries.iter().filter(|e| e.cache_hit).count(), 1);
        // Both entries carry identical P1 statistics (same artifact).
        assert_eq!(
            report.entries[0].report.p1_insts,
            report.entries[1].report.p1_insts
        );
        assert!(report.entries[0].report.p1_insts > 0);
        // Verdicts in submission order.
        assert_eq!(report.entries[0].report.verdict.type_label(), "Type-II");
        assert_eq!(report.entries[1].report.verdict.type_label(), "Type-III");
    }

    #[test]
    fn distinct_configs_do_not_share_artifacts() {
        // The same pair under a different taint config must miss again.
        let jobs = vec![job("a", t_gated())];
        let cache_aware = run_batch(
            &jobs,
            &PipelineConfig::default(),
            &BatchOptions::default(),
            &NullSink,
        );
        assert_eq!(cache_aware.cache.misses, 1);
        let free = PipelineConfig::default().context_free();
        let cache_free = run_batch(&jobs, &free, &BatchOptions::default(), &NullSink);
        assert_eq!(
            cache_free.cache.misses, 1,
            "fresh cache, fresh config, fresh miss"
        );
    }

    #[test]
    fn batch_verdicts_match_sequential_verify() {
        let jobs = vec![
            job("gated", t_gated()),
            job("safe", t_safe()),
            job("same", s_program()),
        ];
        let config = PipelineConfig::default();
        let batch = run_batch(
            &jobs,
            &config,
            &BatchOptions {
                workers: 3,
                ..BatchOptions::default()
            },
            &NullSink,
        );
        for (entry, job) in batch.entries.iter().zip(jobs.iter()) {
            let input = SoftwarePairInput {
                s: &job.s,
                t: &job.t,
                poc: &job.poc,
                shared: &job.shared,
            };
            let sequential = crate::pipeline::verify(&input, &config);
            assert_eq!(
                entry.report.verdict.type_label(),
                sequential.verdict.type_label(),
                "{}",
                job.name
            );
        }
    }

    #[test]
    fn event_stream_covers_the_lifecycle() {
        let jobs = vec![job("one", t_gated()), job("two", t_gated())];
        let log = EventLog::new();
        run_batch(
            &jobs,
            &PipelineConfig::default(),
            &BatchOptions {
                workers: 1,
                ..BatchOptions::default()
            },
            &log,
        );
        let events = log.snapshot();
        let count = |f: &dyn Fn(&EventKind) -> bool| events.iter().filter(|e| f(&e.kind)).count();
        assert_eq!(count(&|k| matches!(k, EventKind::JobStarted { .. })), 2);
        assert_eq!(count(&|k| matches!(k, EventKind::JobFinished { .. })), 2);
        assert_eq!(count(&|k| matches!(k, EventKind::CacheHit { .. })), 1);
        let phases = |name: &str| {
            count(&|k| matches!(k, EventKind::PhaseFinished { phase, .. } if phase == name))
        };
        assert_eq!(phases("prepare"), 1);
        assert!(phases("symex") >= 1);
        // Both gated jobs reach P4 (a poc' is generated for each).
        assert_eq!(phases("p4"), 2);
        // Every event renders a log line.
        for e in &events {
            assert!(!e.render_human().is_empty());
        }
        // One worker, one lane: the EventClock stamps must strictly
        // increase in emission order.
        for pair in events.windows(2) {
            assert_eq!(pair[0].worker, 0);
            assert!(
                pair[1].ts_micros > pair[0].ts_micros,
                "timestamps regressed: {} then {}",
                pair[0].ts_micros,
                pair[1].ts_micros
            );
        }
    }

    #[test]
    fn flight_recorder_captures_batch_and_post_mortems_render() {
        let rec = Arc::new(FlightRecorder::with_default_capacity());
        let jobs = vec![job("gated", t_gated()), job("safe", t_safe())];
        let options = BatchOptions {
            workers: 2,
            trace: Some(Arc::clone(&rec)),
            ..BatchOptions::default()
        };
        let report = run_batch(&jobs, &PipelineConfig::default(), &options, &NullSink);
        assert!(!rec.is_empty(), "engines recorded trace events");
        let snapshot = rec.snapshot();
        // Both jobs appear, tagged with their submission index.
        assert!(snapshot.iter().any(|e| e.job == 0));
        assert!(snapshot.iter().any(|e| e.job == 1));
        // The ring renders to a valid Chrome trace with paired spans.
        let chrome = octo_trace::chrome::render_chrome(&snapshot);
        let stats = octo_trace::chrome::validate(&chrome).expect("valid trace");
        assert!(stats.pairs > 0, "span B/E pairs present");
        // The safe clone is Type-III: it alone carries a post-mortem.
        let pm = report.render_post_mortems();
        assert!(pm.contains("safe:"), "{pm}");
        assert!(pm.contains("ep-unreachable"), "{pm}");
        assert!(!pm.contains("gated:"), "triggered jobs get no post-mortem");
        // With a recorder installed the post-mortem carries a tail.
        let safe = &report.entries[1];
        let mortem = safe.report.post_mortem.as_ref().expect("attached");
        assert!(!mortem.tail.is_empty(), "flight-record tail captured");
        assert!(mortem.tail.iter().all(|e| e.job == 1), "tail is job-local");
    }

    #[test]
    fn renderers_are_consistent() {
        let jobs = vec![job("gated", t_gated()), job("safe", t_safe())];
        let report = run_batch(
            &jobs,
            &PipelineConfig::default(),
            &BatchOptions::default(),
            &NullSink,
        );
        let human = report.render_human();
        assert!(human.contains("Type-II"), "{human}");
        assert!(human.contains("cache: 1 hits / 1 misses"), "{human}");
        // The phase table lists every job; the symex-free job shows "-".
        assert!(human.contains("phases (seconds):"), "{human}");
        let json = report.render_json();
        assert!(json.contains("\"cache_hit\":true"), "{json}");
        assert!(json.contains("\"prepare_seconds\":"), "{json}");
        assert!(json.contains("\"symex_seconds\":"), "{json}");
        let stable = report.render_verdicts_json();
        assert!(
            stable.contains("\"name\":\"gated\",\"verdict\":\"Type-II\""),
            "{stable}"
        );
        assert!(
            !stable.contains("wall_seconds"),
            "stable output must not carry timings"
        );
        // Urgency ordering puts the triggered clone first and the
        // verified-safe clone last, each with its recommendation.
        let ordered = report.by_urgency();
        assert_eq!(ordered[0].name, "gated");
        assert_eq!(ordered[1].name, "safe");
        assert_eq!(ordered[1].urgency(), Urgency::VerifiedSafe);
        assert!(human.contains("patch soon"), "{human}");
        assert!(human.contains("verified not triggerable"), "{human}");
    }

    #[test]
    fn urgency_ordering_is_total() {
        assert!(Urgency::TriggeredCorruption < Urgency::TriggeredOther);
        assert!(Urgency::TriggeredOther < Urgency::Unknown);
        assert!(Urgency::Unknown < Urgency::VerifiedSafe);
    }

    #[test]
    fn per_job_deadline_fails_fast_without_stalling() {
        let jobs = vec![job("gated", t_gated()), job("safe", t_safe())];
        let options = BatchOptions {
            workers: 2,
            deadline: Some(Duration::ZERO),
            ..BatchOptions::default()
        };
        let report = run_batch(&jobs, &PipelineConfig::default(), &options, &NullSink);
        // The symex-bound job dies on the deadline…
        assert_eq!(report.entries[0].report.verdict.type_label(), "Failure");
        assert!(matches!(
            report.entries[0].report.verdict,
            crate::verdict::Verdict::Failure {
                reason: crate::verdict::FailureReason::Deadline
            }
        ));
        // …but jobs decided before symex are unaffected.
        assert_eq!(report.entries[1].report.verdict.type_label(), "Type-III");
    }

    #[test]
    fn metrics_account_for_the_whole_run() {
        // Two jobs share one prefix: P1-side counters must be billed
        // once, per-job counters twice.
        let jobs = vec![job("gated", t_gated()), job("safe", t_safe())];
        let report = run_batch(
            &jobs,
            &PipelineConfig::default(),
            &BatchOptions::default(),
            &NullSink,
        );
        let m = &report.metrics;
        let counter = |name: &str| m.get_counter(name).expect(name).get();
        let gauge = |name: &str| m.get_gauge(name).expect(name).get();
        assert_eq!(counter("batch_jobs_total"), 2);
        assert_eq!(counter("batch_verdict_type_ii_total"), 1);
        assert_eq!(counter("batch_verdict_type_iii_total"), 1);
        assert_eq!(counter("cache_hits_total"), 1);
        assert_eq!(counter("cache_misses_total"), 1);
        assert_eq!(gauge("cache_entries"), 1);
        // P1 ran once; its counters must not be double-billed by the hit.
        assert_eq!(
            counter("pipeline_p1_insts_total"),
            report.entries[0].report.p1_insts,
            "cached prefix must not double-count P1 work"
        );
        assert_eq!(counter("taint_bytes_uploaded_total"), 1, "one getc byte");
        let bunches = m.get_histogram("taint_bunch_bytes").expect("registered");
        assert_eq!(bunches.count(), 1, "one bunch, recorded once");
        // Both jobs ran symex (the safe T still needs the engine to prove
        // ep unreachable); the gated one reached P4.
        assert!(counter("symex_steps_total") > 0);
        assert!(counter("solver_calls_total") > 0);
        assert!(counter("pipeline_p4_insts_total") > 0);
        assert!(gauge("symex_peak_mem_bytes") > 0);
        let wall = m.get_histogram("job_wall_micros").expect("registered");
        assert_eq!(wall.count(), 2);
        let queue = m
            .get_histogram("job_queue_latency_micros")
            .expect("registered");
        assert_eq!(queue.count(), 2);
        let p1 = m.get_histogram("phase_p1_micros").expect("registered");
        assert_eq!(p1.count(), 2, "every job pays some prefix wall time");
        // Renderings stay well-formed and carry every metric name.
        let json = m.render_json();
        let prom = m.render_prometheus();
        for name in m.names() {
            assert!(json.contains(&format!("\"name\":\"{name}\"")), "{name}");
            assert!(prom.contains(&name), "{name}");
        }
    }

    #[test]
    fn empty_batch_registers_the_full_schema() {
        // Even a no-op run exposes the complete metric catalogue (the
        // schema golden file and CI diff rely on eager registration),
        // and renders it without NaN or division by zero.
        let report = run_batch(
            &[],
            &PipelineConfig::default(),
            &BatchOptions::default(),
            &NullSink,
        );
        assert!(report.metrics.names().len() >= 30);
        let json = report.metrics.render_json();
        assert!(!json.contains("NaN"), "{json}");
        assert!(!json.contains("null"), "{json}");
        assert_eq!(
            report
                .metrics
                .get_histogram("job_wall_micros")
                .expect("registered")
                .quantile(0.5),
            None,
            "empty histogram has no quantiles, not NaN"
        );
    }

    #[test]
    fn empty_batch_is_fine() {
        let report = run_batch(
            &[],
            &PipelineConfig::default(),
            &BatchOptions::default(),
            &NullSink,
        );
        assert!(report.entries.is_empty());
        assert_eq!(report.cache.misses, 0);
    }

    #[test]
    fn injected_panic_isolates_the_failing_job() {
        // The acceptance shape: a batch where job k's engine panics must
        // still complete every other job, and job k must come back as a
        // degraded Internal verdict with a synthesized post-mortem.
        use octo_faults::FaultSite;
        let jobs = vec![
            job("victim", t_gated()),
            job("gated", t_gated()),
            job("safe", t_safe()),
        ];
        let plan = Arc::new(FaultPlan::new(11).nth(FaultSite::DirectedPanic, Some(0), 1));
        let options = BatchOptions {
            workers: 2,
            faults: Some(plan),
            ..BatchOptions::default()
        };
        let report = run_batch(&jobs, &PipelineConfig::default(), &options, &NullSink);
        assert_eq!(report.entries.len(), 3);
        let victim = &report.entries[0];
        match &victim.report.verdict {
            crate::verdict::Verdict::Failure {
                reason: crate::verdict::FailureReason::Internal { panic_msg },
            } => assert!(panic_msg.contains("injected panic"), "{panic_msg}"),
            other => panic!("expected Internal, got {other:?}"),
        }
        let pm = victim.report.post_mortem.as_ref().expect("synthesized");
        assert_eq!(pm.event, "panic");
        // A panic under the default single-attempt policy quarantines.
        assert!(victim.quarantined);
        assert_eq!(report.quarantined, vec![0]);
        // The other jobs are untouched — the deque was not poisoned.
        assert_eq!(report.entries[1].report.verdict.type_label(), "Type-II");
        assert_eq!(report.entries[2].report.verdict.type_label(), "Type-III");
        assert!(!report.entries[1].quarantined);
        assert!(!report.entries[2].quarantined);
        // The bookkeeping saw the panic and the injection.
        let counter = |name: &str| report.metrics.get_counter(name).expect(name).get();
        assert_eq!(counter("batch_panics_total"), 1);
        assert_eq!(counter("batch_quarantined_total"), 1);
        assert!(counter("batch_faults_injected_total") >= 1);
        // The human rendering names the quarantined job.
        let human = report.render_human();
        assert!(human.contains("quarantined (1): victim"), "{human}");
    }

    #[test]
    fn retry_rescues_a_transient_injected_fault() {
        // Nth(1) fires on attempt 1 and is consumed; the fault context is
        // shared across attempts, so the retry runs clean and the job
        // recovers its real verdict.
        use octo_faults::FaultSite;
        let jobs = vec![job("flaky", t_gated())];
        let plan = Arc::new(FaultPlan::new(5).nth(FaultSite::DirectedPanic, Some(0), 1));
        let options = BatchOptions {
            workers: 1,
            faults: Some(plan),
            retry: RetryPolicy {
                max_attempts: 2,
                base_backoff: Duration::ZERO,
                jitter_seed: 0,
            },
            ..BatchOptions::default()
        };
        let report = run_batch(&jobs, &PipelineConfig::default(), &options, &NullSink);
        let entry = &report.entries[0];
        assert_eq!(entry.report.verdict.type_label(), "Type-II");
        assert_eq!(entry.report.attempts, 2);
        assert!(!entry.quarantined);
        assert!(report.quarantined.is_empty());
        let counter = |name: &str| report.metrics.get_counter(name).expect(name).get();
        assert_eq!(counter("batch_retries_total"), 1);
        assert_eq!(counter("batch_panics_total"), 1);
        assert_eq!(counter("batch_quarantined_total"), 0);
    }

    #[test]
    fn pre_fired_drain_token_skips_every_job() {
        // A batch whose drain token is already cancelled runs no engine:
        // every entry is an incomplete Cancelled failure, nothing is
        // quarantined, nothing retried.
        let jobs = vec![job("one", t_gated()), job("two", t_safe())];
        let cancel = CancelToken::new();
        cancel.cancel();
        let options = BatchOptions {
            workers: 2,
            cancel: Some(cancel),
            retry: RetryPolicy {
                max_attempts: 3,
                base_backoff: Duration::ZERO,
                jitter_seed: 0,
            },
            ..BatchOptions::default()
        };
        let report = run_batch(&jobs, &PipelineConfig::default(), &options, &NullSink);
        assert_eq!(report.entries.len(), 2);
        for e in &report.entries {
            assert!(
                matches!(
                    e.report.verdict,
                    crate::verdict::Verdict::Failure {
                        reason: crate::verdict::FailureReason::Cancelled
                    }
                ),
                "{}: {:?}",
                e.name,
                e.report.verdict
            );
            assert_eq!(e.report.attempts, 1, "no retries during a drain");
            assert!(!e.quarantined, "a drained job is not quarantined");
        }
        assert!(report.quarantined.is_empty());
        assert_eq!(report.cache.misses, 0, "no engine work happened");
        let counter = |name: &str| report.metrics.get_counter(name).expect(name).get();
        assert_eq!(counter("batch_jobs_total"), 2);
        assert_eq!(counter("batch_verdict_failure_total"), 2);
        assert_eq!(counter("batch_retries_total"), 0);
    }

    #[test]
    fn drain_rewrites_inflight_deadline_to_cancelled() {
        // With the drain token fired and a zero deadline, the in-flight
        // path dies transiently; the drain check must convert that to
        // Cancelled rather than burning the retry budget. (The token is
        // fired up front so the test is deterministic; the first job is
        // then skipped pre-start, exercising the same rewrite.)
        let jobs = vec![job("gated", t_gated())];
        let cancel = CancelToken::new();
        cancel.cancel();
        let options = BatchOptions {
            workers: 1,
            deadline: Some(Duration::ZERO),
            cancel: Some(cancel),
            retry: RetryPolicy {
                max_attempts: 5,
                base_backoff: Duration::ZERO,
                jitter_seed: 0,
            },
            ..BatchOptions::default()
        };
        let report = run_batch(&jobs, &PipelineConfig::default(), &options, &NullSink);
        let e = &report.entries[0];
        assert!(matches!(
            e.report.verdict,
            crate::verdict::Verdict::Failure {
                reason: crate::verdict::FailureReason::Cancelled
            }
        ));
        assert_eq!(e.report.attempts, 1);
        assert!(!e.quarantined);
    }

    #[test]
    fn unfired_drain_token_changes_nothing() {
        // Merely *wiring* a drain token must not disturb verdicts,
        // caching, or retry accounting.
        let jobs = vec![job("gated", t_gated()), job("safe", t_safe())];
        let options = BatchOptions {
            workers: 2,
            cancel: Some(CancelToken::new()),
            ..BatchOptions::default()
        };
        let report = run_batch(&jobs, &PipelineConfig::default(), &options, &NullSink);
        assert_eq!(report.entries[0].report.verdict.type_label(), "Type-II");
        assert_eq!(report.entries[1].report.verdict.type_label(), "Type-III");
        assert_eq!(report.cache.misses, 1);
        assert_eq!(report.cache.hits, 1);
    }

    #[test]
    fn runtime_runs_jobs_one_at_a_time_with_warm_cache() {
        // The service path: a long-lived BatchRuntime fed jobs
        // individually keeps its artifact cache and metrics across
        // calls.
        let runtime = BatchRuntime::new(&PipelineConfig::default(), &BatchOptions::default());
        let a = runtime.run_job(0, 0, &job("gated", t_gated()), Instant::now(), &NullSink);
        assert_eq!(a.report.verdict.type_label(), "Type-II");
        assert!(!a.cache_hit);
        let b = runtime.run_job(1, 0, &job("safe", t_safe()), Instant::now(), &NullSink);
        assert_eq!(b.report.verdict.type_label(), "Type-III");
        assert!(b.cache_hit, "second job reuses the warm prefix");
        runtime.refresh_metrics();
        let counter = |name: &str| runtime.metrics().get_counter(name).expect(name).get();
        assert_eq!(counter("batch_jobs_total"), 2);
        assert_eq!(counter("cache_hits_total"), 1);
        assert_eq!(counter("cache_misses_total"), 1);
        // Refreshing again must not double-bill the deltas.
        runtime.refresh_metrics();
        assert_eq!(counter("cache_hits_total"), 1);
        assert_eq!(counter("cache_misses_total"), 1);
    }

    #[test]
    fn fault_plan_replays_byte_identical() {
        // Two runs with the same plan seed must produce byte-identical
        // stable JSON, regardless of worker count.
        use octo_faults::FaultSite;
        let jobs = vec![
            job("victim", t_gated()),
            job("gated", t_gated()),
            job("safe", t_safe()),
        ];
        let run = |workers: usize| {
            let plan = Arc::new(
                FaultPlan::new(42)
                    .nth(FaultSite::DirectedPanic, Some(0), 1)
                    .probability(FaultSite::SolverSolve, Some(2), 1.0),
            );
            let options = BatchOptions {
                workers,
                faults: Some(plan),
                ..BatchOptions::default()
            };
            run_batch(&jobs, &PipelineConfig::default(), &options, &NullSink).render_verdicts_json()
        };
        let first = run(2);
        assert_eq!(first, run(2), "same seed, same workers: identical");
        assert_eq!(first, run(1), "worker count must not change verdicts");
        assert_eq!(first, run(8), "worker count must not change verdicts");
    }
}
