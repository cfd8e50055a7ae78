//! The traced run: replays jobs by calling each layer's public entry point
//! from the benchmark itself, timing every call as a span.
//!
//! One job is `prefix_cache_key`, then on a prefix miss `identify_ep`
//! (octo-vm), `extract_with_limits` (octo-taint) and the octo-store
//! write-through, then `build_cfg` + `DistanceMap::compute` (octo-cfg),
//! `DirectedEngine::run` (octo-symex, with octo-solver's solves as child
//! spans taken from a per-job flight recorder) and the P4 `Vm::run`
//! (octo-vm) — the same calls, in the same order and with the same
//! configuration, as `run_batch` makes. A layer's number is its self
//! time: its spans minus their child spans.

use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use octo_cfg::{build_cfg, DistanceMap};
use octo_store::BlobStore;
use octo_symex::{DirectedConfig, DirectedEngine, DirectedOutcome};
use octo_taint::{extract_with_limits, TaintConfig};
use octo_trace::{FlightRecorder, TraceKind};
use octo_vm::{RunOutcome, Vm};
use octopocs::{identify_ep, prefix_cache_key, BatchJob, PipelineConfig, PreparedSource};

use crate::batch::{cache_dir, Shape, WORKERS};
use crate::gen::JobText;
use crate::measure::{Counts, Gate};

/// Ring size of each job's flight recorder; far above any job's event
/// count, and the replay aborts if the ring ever drops an event.
const RING: usize = 1 << 20;

/// One timed call: microseconds since the traced pass began.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the enclosing span within the same job.
    pub parent: Option<usize>,
}

/// What one replayed job did and where its time went (self times, µs).
#[derive(Debug, Clone, Default)]
pub struct JobLayers {
    pub label: &'static str,
    pub hit: bool,
    pub counts: Counts,
    pub total_us: f64,
    pub key_us: f64,
    pub vm_us: f64,
    pub vm_insts: u64,
    pub taint_us: f64,
    pub taint_insts: u64,
    pub taint_records: u64,
    pub store_read_us: f64,
    pub store_write_us: f64,
    pub store_bytes: u64,
    pub cfg_us: f64,
    pub symex_us: f64,
    pub solver_us: f64,
    pub recorded_solves: u64,
    pub unsat: u64,
    pub forks: u64,
    pub backtracks: u64,
    pub peak_mem_bytes: u64,
    pub spans: Vec<Span>,
}

type PrefixCache = Mutex<HashMap<u64, Arc<Option<PreparedSource>>>>;

struct Clock {
    origin: Instant,
    spans: Vec<Span>,
}

impl Clock {
    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` as span `name` under the job's root span; returns its
    /// result and duration in µs.
    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let start_us = self.now();
        let result = f();
        let end_us = self.now();
        self.spans.push(Span {
            name,
            start_us,
            end_us,
            parent: Some(0),
        });
        (result, end_us - start_us)
    }
}

/// Replays one job layer by layer.
fn replay(
    job: &BatchJob,
    cache: &PrefixCache,
    store: Option<&BlobStore>,
    config: &PipelineConfig,
    origin: Instant,
) -> Result<JobLayers, String> {
    let mut out = JobLayers {
        label: "Failure",
        ..JobLayers::default()
    };
    let mut clock = Clock {
        origin,
        spans: Vec::new(),
    };
    let job_start = clock.now();
    clock.spans.push(Span {
        name: "job",
        start_us: job_start,
        end_us: job_start,
        parent: None,
    });
    let recorder_at = clock.now();
    let recorder = Arc::new(FlightRecorder::new(RING));
    let trace_guard = octo_trace::install(&recorder, 0, 0);

    let (key, us) = clock.time("cache_key", || {
        prefix_cache_key(&job.s, &job.poc, &job.shared, config)
    });
    out.key_us = us;
    let cached = cache
        .lock()
        .expect("prefix cache poisoned")
        .get(&key)
        .cloned();
    let prep = match cached {
        Some(prep) => {
            out.hit = true;
            prep
        }
        None => {
            let prep = prepare(job, key, store, config, &mut clock, &mut out);
            let prep = Arc::new(prep);
            cache
                .lock()
                .expect("prefix cache poisoned")
                .insert(key, Arc::clone(&prep));
            prep
        }
    };
    if let Some(prep) = prep.as_ref() {
        out.counts.p1_insts = prep.p1_insts;
        suffix(job, prep, config, &mut clock, &mut out);
    }
    drop(trace_guard);
    if recorder.dropped() > 0 {
        return Err(format!(
            "flight recorder dropped {} events of {}",
            recorder.dropped(),
            job.name
        ));
    }
    // The solver's own spans, children of the symex span.
    if let Some(symex) = clock.spans.iter().position(|s| s.name == "symex") {
        let mut begin = None;
        for event in recorder.snapshot() {
            let at = recorder_at + event.ts_micros as f64;
            match event.kind {
                TraceKind::SolverBegin { .. } => {
                    out.recorded_solves += 1;
                    begin = Some(at);
                }
                TraceKind::SolverEnd { result, micros, .. } => {
                    out.solver_us += micros as f64;
                    out.unsat += u64::from(result == "unsat");
                    let start_us = begin.take().unwrap_or(at);
                    clock.spans.push(Span {
                        name: "solve",
                        start_us,
                        end_us: start_us + micros as f64,
                        parent: Some(symex),
                    });
                }
                TraceKind::StateFork { .. } => out.forks += 1,
                _ => {}
            }
        }
        out.symex_us -= out.solver_us;
    }
    let end = clock.now();
    clock.spans[0].end_us = end;
    out.total_us = end - job_start;
    out.spans = clock.spans;
    Ok(out)
}

/// The cacheable prefix on a miss: the disk tier's probe, `identify_ep`,
/// P1 taint, and the write-through — as `prepare` plus the batch
/// runner's disk tier do it.
fn prepare(
    job: &BatchJob,
    key: u64,
    store: Option<&BlobStore>,
    config: &PipelineConfig,
    clock: &mut Clock,
    out: &mut JobLayers,
) -> Option<PreparedSource> {
    if let Some(store) = store {
        out.store_read_us = clock.time("store_read", || store.get(key)).1;
    }
    let (ep, us) = clock.time("identify_ep", || {
        identify_ep(&job.s, &job.poc, &job.shared, config.vm_limits)
    });
    out.vm_us += us;
    let ep = ep.ok()?;
    out.vm_insts += ep.insts;
    let taint_config = TaintConfig {
        ep: ep.ep,
        shared: job.s.resolve_names(job.shared.iter().map(String::as_str)),
        granularity: config.taint_granularity,
        context: config.taint_context,
    };
    let (extraction, us) = clock.time("taint", || {
        extract_with_limits(&job.s, &job.poc, &taint_config, config.vm_limits)
    });
    out.taint_us = us;
    let extraction = extraction.ok()?;
    out.taint_insts = extraction.insts;
    out.taint_records = extraction.stats.taint_records;
    let prep = PreparedSource {
        ep: ep.ep,
        ep_name: ep.ep_name,
        s_crash: ep.s_crash,
        primitives: extraction.primitives,
        ep_entries: extraction.ep_entries,
        p1_insts: extraction.insts,
        taint: extraction.stats,
    };
    if let Some(store) = store {
        let (bytes, us) = clock.time("store_write", || {
            let blob = octopocs::blob::to_blob(&prep);
            store.put(key, &blob);
            blob.len() as u64
        });
        out.store_write_us = us;
        out.store_bytes = bytes;
    }
    Some(prep)
}

/// The `T`-dependent suffix: CFG, distance map, directed symex, P4.
fn suffix(
    job: &BatchJob,
    prep: &PreparedSource,
    config: &PipelineConfig,
    clock: &mut Clock,
    out: &mut JobLayers,
) {
    let Some(ep_t) = job.t.func_by_name(&prep.ep_name) else {
        return;
    };
    let (cfg, us) = clock.time("build_cfg", || build_cfg(&job.t, config.cfg_mode));
    out.cfg_us += us;
    let Ok(cfg) = cfg else {
        return;
    };
    let (map, us) = clock.time("distance_map", || DistanceMap::compute(&job.t, &cfg, ep_t));
    out.cfg_us += us;
    let directed = DirectedConfig {
        file_len: config.resolve_file_len(job.poc.len()),
        theta: config.theta,
        max_fallbacks: config.max_fallbacks,
        step_budget: config.symex_step_budget,
        loop_acceleration: config.loop_acceleration,
        ..DirectedConfig::default()
    };
    let ((outcome, stats), us) = clock.time("symex", || {
        DirectedEngine::new(&job.t, ep_t, &map, &prep.primitives, directed).run()
    });
    out.symex_us = us;
    out.counts.steps = stats.total_steps;
    out.counts.solves = stats.solver_calls;
    out.backtracks = stats.backtracks;
    out.peak_mem_bytes = stats.peak_mem_bytes;
    out.label = match outcome {
        DirectedOutcome::PocGenerated {
            poc: poc_prime,
            guiding,
            ..
        } => {
            let ((run, insts), us) = clock.time("p4", || {
                let mut vm = Vm::new(&job.t, poc_prime.bytes()).with_limits(config.vm_limits);
                let run = vm.run();
                (run, vm.insts_executed())
            });
            out.vm_us += us;
            out.vm_insts += insts;
            out.counts.p4_insts = insts;
            let shared_t = job.t.resolve_names(job.shared.iter().map(String::as_str));
            match run {
                RunOutcome::Crash(crash) if crash.backtrace.any_in(&shared_t) => {
                    if guiding.eval_file(job.poc.bytes()) {
                        "Type-I"
                    } else {
                        "Type-II"
                    }
                }
                _ => "Failure",
            }
        }
        DirectedOutcome::EpUnreachable | DirectedOutcome::ProgramDead | DirectedOutcome::Unsat => {
            "Type-III"
        }
        _ => "Failure",
    };
}

/// Everything the traced pass measured.
#[derive(Default)]
pub struct Traced {
    pub jobs: Vec<JobLayers>,
    pub base: Vec<u32>,
    pub failed: u64,
}

/// Replays the pool, `batch` jobs at a time, on `WORKERS` threads
/// of the same scheduler `run_batch` uses, until `seconds` have passed. With
/// `keep_cache` the prefix cache lives for the whole pass (a daemon's
/// runtime); otherwise each batch starts cold, as each `run_batch` call
/// does. Verdicts are checked and counts go through `gate`, so a traced
/// job that does different work than its untraced twin aborts the run.
#[allow(clippy::too_many_arguments)]
pub fn traced(
    texts: &[JobText],
    jobs: &[BatchJob],
    shape: Shape,
    batch: usize,
    keep_cache: bool,
    seconds: f64,
    scratch: &Path,
    gate: &mut Gate,
) -> Result<Traced, String> {
    let config = PipelineConfig::default();
    let origin = Instant::now();
    let mut out = Traced::default();
    let mut cache = PrefixCache::default();
    let chunks: Vec<_> = texts.chunks(batch).zip(jobs.chunks(batch)).collect();
    let mut rounds = 0;
    while rounds == 0 || origin.elapsed().as_secs_f64() < seconds {
        let (texts, jobs) = chunks[rounds % chunks.len()];
        if !keep_cache {
            cache = PrefixCache::default();
        }
        let dir = cache_dir(shape, scratch, &format!("traced-{rounds}"))?;
        let store = dir.as_deref().map(BlobStore::open);
        let (results, _) = octo_sched::run_jobs((0..jobs.len()).collect(), WORKERS, |_, i| {
            replay(&jobs[i], &cache, store.as_ref(), &config, origin)
        });
        for (result, text) in results.into_iter().zip(texts) {
            let layers = result
                .map_err(|p| format!("traced replay of {} panicked: {}", text.name, p.message))??;
            if layers.label == text.expect.label {
                gate.check(text.base, &text.name, layers.counts)?;
            } else {
                eprintln!(
                    "perfbench: traced {} gave {}, expected {}",
                    text.name, layers.label, text.expect.label
                );
                out.failed += 1;
            }
            out.base.push(text.base);
            out.jobs.push(layers);
        }
        rounds += 1;
    }
    Ok(out)
}
