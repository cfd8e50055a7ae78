//! The `run_batch` workloads (deep-symex, loop-taint, fleet): set-up,
//! the untraced timed pass, and the per-job verdict and count checks.
//! serve-watch seeds its determinism gate here too.

use std::path::{Path, PathBuf};
use std::time::Instant;

use octo_ir::parse::parse_program;
use octo_ir::validate::validate;
use octo_ir::Program;
use octo_poc::PocFile;
use octopocs::{run_batch, BatchJob, BatchOptions, BatchReport, PipelineConfig, RetryPolicy};

use crate::calib;
use crate::gen::JobText;
use crate::measure::{cpu_seconds, ms_between, verdict_ok, Counts, Gate, StampSink, Window};

/// Engine workers of every `run_batch` workload. On a 2-vCPU host a
/// second CPU-bound worker measures the host's scheduler and neighbours:
/// at 2 workers, loop-taint's run-to-run spread was twice fleet's.
pub const WORKERS: usize = 1;

/// How a `run_batch` workload drives the engine.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Give every batch a fresh, empty disk cache (`--cache-dir`), so
    /// prefixes are written through to octo-store.
    pub disk_cache: bool,
}

/// Parses and validates one generated job: what admitting it costs.
pub fn admit(text: &JobText) -> Result<BatchJob, String> {
    let program = |label: &str, src: &str| -> Result<Program, String> {
        let p = parse_program(src).map_err(|e| format!("{}: {label}: {e}", text.name))?;
        validate(&p).map_err(|errors| {
            let first = errors.first().map(ToString::to_string).unwrap_or_default();
            format!("{}: {label} is invalid: {first}", text.name)
        })?;
        Ok(p)
    };
    Ok(BatchJob {
        name: text.name.clone(),
        s: program("S", &text.s_text)?,
        t: program("T", &text.t_text)?,
        poc: PocFile::new(text.poc.clone()),
        shared: text.shared.clone(),
    })
}

/// Admits every generated job: the set-up of a batch workload.
pub fn admit_all(texts: &[JobText]) -> Result<Vec<BatchJob>, String> {
    texts.iter().map(admit).collect()
}

/// Set-up timed per window: at least one repetition, and more until this
/// many seconds, so that a small pool's set-up is measured too.
const SETUP_SECONDS_PER_WINDOW: f64 = 0.01;

/// Seconds of each timed set-up repetition. The jobs are dropped outside
/// the timing.
pub fn time_setup(texts: &[JobText]) -> Result<Vec<f64>, String> {
    let mut seconds = Vec::new();
    while seconds.iter().sum::<f64>() < SETUP_SECONDS_PER_WINDOW {
        let start = Instant::now();
        let jobs = admit_all(texts)?;
        seconds.push(start.elapsed().as_secs_f64());
        drop(jobs);
    }
    Ok(seconds)
}

/// One `run_batch` call over the whole job pool.
struct Batch {
    wall_s: f64,
    cpu_s: f64,
    /// Per job: `JobStarted` → `JobFinished`, ms.
    service_ms: Vec<f64>,
    /// Per job: the `run_batch` call → `JobFinished`, ms.
    verdict_ms: Vec<f64>,
    report: BatchReport,
}

fn run_once(jobs: &[BatchJob], cache_dir: Option<PathBuf>) -> Batch {
    // No deadline, watchdog, retry backoff or fault plan: each would make
    // the amount of work depend on the wall clock.
    let options = BatchOptions {
        workers: WORKERS,
        deadline: None,
        trace: None,
        retry: RetryPolicy::default(),
        faults: None,
        watchdog: None,
        cancel: None,
        cache_dir,
    };
    let sink = StampSink::default();
    let cpu0 = cpu_seconds();
    let start = Instant::now();
    let report = run_batch(jobs, &PipelineConfig::default(), &options, &sink);
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu0;
    let mut service_ms = vec![0.0; jobs.len()];
    let mut verdict_ms = vec![0.0; jobs.len()];
    for (job, (began, ended)) in sink.spans() {
        service_ms[job] = ms_between(began, ended);
        verdict_ms[job] = ms_between(start, ended);
    }
    Batch {
        wall_s,
        cpu_s,
        service_ms,
        verdict_ms,
        report,
    }
}

/// A fresh, empty disk-cache directory for one batch, when the shape
/// asks for one.
pub fn cache_dir(shape: Shape, scratch: &Path, tag: &str) -> Result<Option<PathBuf>, String> {
    if !shape.disk_cache {
        return Ok(None);
    }
    let dir = scratch.join(format!("cache-{tag}"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(Some(dir))
}

/// Everything the untraced timed pass measured.
#[derive(Default)]
pub struct Pass {
    /// One window per `run_batch` call.
    pub windows: Vec<Window>,
    pub failed: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

/// Warms up with an untimed batch of the first `warm` jobs, then runs
/// batches of `batch` jobs, cycling through the pool, until `seconds`
/// have passed. Before each batch it times the set-up of the whole pool,
/// so set-up is sampled across the run rather than in one burst at its
/// start. The calibration kernel runs between batches, and each window
/// records its mean time on either side. Every verdict is checked against
/// its Table II row and every job's counts go through `gate`.
#[allow(clippy::too_many_arguments)]
pub fn untraced(
    texts: &[JobText],
    jobs: &[BatchJob],
    shape: Shape,
    warm: usize,
    batch: usize,
    seconds: f64,
    scratch: &Path,
    gate: &mut Gate,
) -> Result<Pass, String> {
    let mut pass = Pass::default();
    let warm_jobs = &jobs[..warm.clamp(1, jobs.len())];
    let warm = run_once(warm_jobs, cache_dir(shape, scratch, "warm")?);
    pass.failed += judge(&warm.report, texts, gate)?;
    let chunks: Vec<_> = texts.chunks(batch).zip(jobs.chunks(batch)).collect();
    let start = Instant::now();
    let mut cal_before = calib::measure();
    for b in 0.. {
        if b > 0 && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let setup_s = time_setup(texts)?;
        let (chunk_texts, chunk_jobs) = chunks[b % chunks.len()];
        let dir = cache_dir(shape, scratch, &b.to_string())?;
        let batch = run_once(chunk_jobs, dir);
        pass.failed += judge(&batch.report, chunk_texts, gate)?;
        pass.cache_hits += batch.report.cache.hits;
        pass.cache_misses += batch.report.cache.misses;
        let cal_after = calib::measure();
        pass.windows.push(Window {
            wall_s: batch.wall_s,
            cpu_s: batch.cpu_s,
            base: chunk_texts.iter().map(|t| t.base).collect(),
            service_ms: batch.service_ms,
            verdict_ms: batch.verdict_ms,
            setup_s,
            cal_s: (cal_before + cal_after) / 2.0,
        });
        cal_before = cal_after;
    }
    Ok(pass)
}

/// Runs `texts` through one single-worker `run_batch` call so that `gate`
/// learns every base pair's counts, for front ends whose per-job counts
/// the benchmark cannot see (the daemon reports only totals).
pub fn seed_gate(texts: &[JobText], gate: &mut Gate) -> Result<(), String> {
    let batch = run_once(&admit_all(texts)?, None);
    match judge(&batch.report, texts, gate)? {
        0 => Ok(()),
        failed => Err(format!("{failed} gate-seeding jobs gave wrong verdicts")),
    }
}

/// Checks every entry against its Table II row and its counts against the
/// gate; returns how many jobs failed.
fn judge(report: &BatchReport, texts: &[JobText], gate: &mut Gate) -> Result<u64, String> {
    let mut failed = 0;
    for (entry, text) in report.entries.iter().zip(texts) {
        let v = &entry.report.verdict;
        if !verdict_ok(
            &text.expect,
            v.type_label(),
            v.poc_generated(),
            v.verified(),
            entry.quarantined,
        ) {
            eprintln!(
                "perfbench: {} gave {} (quarantined {}), expected {}",
                text.name,
                v.type_label(),
                entry.quarantined,
                text.expect.label
            );
            failed += 1;
            continue;
        }
        gate.check(text.base, &text.name, Counts::of(&entry.report))?;
    }
    Ok(failed)
}
