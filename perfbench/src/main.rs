//! `perfbench`: the end-to-end and per-layer benchmark of OctoPoCs
//! verification.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! `deep-symex`, `loop-taint` and `fleet` drive `run_batch`;
//! `serve-watch` drives an in-process `octopocsd`. With `--trace 0` the
//! run measures the end-to-end metrics; with `--trace 1` it runs an
//! untraced pass and then a traced replay of the same jobs, each for half
//! of `--seconds`, and reports the per-layer metrics. End-to-end times
//! are reported at a reference host speed, calibrated around every
//! timed window by a fixed kernel of the benchmark's own (`calib`), with
//! the unscaled figures printed beside them. Human-readable
//! tables go to stdout first; the last stdout line is one JSON object
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{NAME:{"value":…,"unit":…}}}`.
//! See `README.md` beside this package for the workloads and metrics.

mod batch;
mod calib;
mod gen;
mod layers;
mod measure;
mod serve;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use crate::batch::Shape;
use crate::gen::JobText;
use crate::layers::Traced;
use crate::measure::{mean, median, peak_rss_mb, percentile, rank, ratio, sorted, Gate, Window};

/// Daemon boots per serve-watch run; `setup_s` is their median.
const SERVE_SETUP_REPS: usize = 9;
/// Per-run scratch space (disk caches, daemon sockets and journals),
/// removed before exit.
const SCRATCH: &str = ".perfbench_tmp";
/// The quantile the `*_tail_ms` metrics report when samples allow.
const TAIL: f64 = 0.95;
/// Where traced runs write their spans.
const SPAN_DIR: &str = ".perfbench_out";

/// The 13 quick pairs (all but idx03 and idx14) and their weights in
/// one cycle of the fleet mix. idx01 holds the median job and idx09 the
/// p95, each more than 0.1 of the samples inside its cluster.
const FLEET_MIX: [(u32, u32); 13] = [
    (1, 8),
    (2, 1),
    (4, 1),
    (5, 1),
    (6, 1),
    (7, 1),
    (8, 1),
    (9, 4),
    (10, 1),
    (11, 1),
    (12, 1),
    (13, 1),
    (15, 1),
];

/// The fleet pairs again, weighted for serve-watch. Whether a verdict
/// waits for one 20 ms watch poll or none is a race between the two
/// clients, which a fifth to three fifths of the sub-millisecond jobs
/// win. idx08 (3 ms) and idx09 (10 ms) always wait, so their weight keeps
/// the share of verdicts that wait no poll below about 0.25: the median
/// verdict stays inside the one-poll mode, the job-time median inside
/// idx08 and its p95 inside idx09.
const SERVE_MIX: [(u32, u32); 13] = [
    (1, 1),
    (2, 1),
    (4, 1),
    (5, 1),
    (6, 1),
    (7, 1),
    (8, 14),
    (9, 5),
    (10, 1),
    (11, 1),
    (12, 1),
    (13, 1),
    (15, 1),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    DeepSymex,
    LoopTaint,
    Fleet,
    ServeWatch,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::DeepSymex,
        Workload::LoopTaint,
        Workload::Fleet,
        Workload::ServeWatch,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::DeepSymex => "deep-symex",
            Workload::LoopTaint => "loop-taint",
            Workload::Fleet => "fleet",
            Workload::ServeWatch => "serve-watch",
        }
    }

    fn mix(self) -> Vec<(u32, u32)> {
        match self {
            Workload::DeepSymex => vec![(14, 1)],
            Workload::LoopTaint => vec![(3, 1)],
            Workload::Fleet => FLEET_MIX.to_vec(),
            Workload::ServeWatch => SERVE_MIX.to_vec(),
        }
    }

    /// Jobs generated per run. For the batch workloads this is one
    /// `run_batch` call; the pool is replayed batch after batch.
    fn pool(self) -> usize {
        match self {
            Workload::DeepSymex => 16,
            Workload::LoopTaint => 21,
            Workload::Fleet => 23 * 22,
            Workload::ServeWatch => 30 * 17,
        }
    }

    /// Jobs per `run_batch` call, the unit the calibration kernel
    /// brackets. A batch is kept short, so that the kernel's time around
    /// it tracks the host speed during it: one job on deep-symex (1.2 s)
    /// and loop-taint (0.1 s), and half the pool, about 0.5 s, on fleet.
    /// The sizes are 1 or odd, so the median verdict latency falls inside
    /// one batch position, not on the boundary between two.
    fn batch(self) -> usize {
        match self {
            Workload::DeepSymex | Workload::LoopTaint => 1,
            Workload::Fleet => self.pool() / 2,
            Workload::ServeWatch => self.pool(),
        }
    }

    fn shape(self) -> Shape {
        Shape {
            disk_cache: self == Workload::LoopTaint,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload deep-symex|loop-taint|fleet|serve-watch \
                     --seed N --seconds S --trace 0|1";

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("missing value for {flag}"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == value)
                            .ok_or_else(|| format!("unknown workload `{value}`"))?,
                    )
                }
                "--seed" => seed = Some(value.parse().map_err(|e| format!("bad --seed: {e}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|e| format!("bad --seconds: {e}"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err("--seconds must be positive".to_string());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("bad --trace `{other}`")),
                    })
                }
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// The run's result line, plus the human table printed before it.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// A percentile metric, noted with its sample count and how many
    /// samples lie beyond it.
    fn percentile(&mut self, name: &'static str, samples: &[f64], q: f64) {
        let n = samples.len();
        let beyond = n - rank(n, q);
        self.metric(name, percentile(&sorted(samples), q), "ms");
        self.notes.push(format!(
            "{name}: p{:.1} of n={n}, {beyond} samples beyond",
            q * 100.0
        ));
    }

    /// The tail metric: p95, or the highest percentile below it that still
    /// has at least 10 samples beyond it, but never below the median. p95
    /// rather than p99, because on a shared 2-vCPU host a stall of a few
    /// tens of ms hits about 1% of jobs in a noisy minute.
    fn tail(&mut self, name: &'static str, samples: &[f64]) {
        let n = samples.len() as f64;
        let q = (1.0 - 10.0 / n).clamp(0.5, TAIL);
        self.percentile(name, samples, q);
    }

    fn render_json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                metrics,
                "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed
        )
    }

    fn print(&self) {
        for note in &self.notes {
            println!("  {note}");
        }
        for (name, value, unit) in &self.metrics {
            println!("  {name:<28} {value:>14.4} {unit}");
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let scratch = PathBuf::from(SCRATCH).join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }
    let outcome = run(&args, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(SCRATCH);
    match outcome {
        Ok(report) => {
            report.print();
            println!("{}", report.render_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args, scratch: &Path) -> Result<Report, String> {
    let w = args.workload;
    let mix = gen::cycle(&w.mix());
    let texts = gen::generate(&mix, w == Workload::LoopTaint, args.seed, w.pool())?;
    println!(
        "perfbench {} seed {} ({} s, trace {}): {} jobs, {} per batch, {} worker(s)",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        texts.len(),
        w.batch(),
        batch::WORKERS
    );
    let mut gate = Gate::default();
    let mut report = Report::default();
    match (w, args.trace) {
        (Workload::ServeWatch, false) => serve_e2e(
            &texts,
            mix.len(),
            args.seconds,
            scratch,
            &mut gate,
            &mut report,
        )?,
        (_, false) => batch_e2e(w, &texts, args.seconds, scratch, &mut gate, &mut report)?,
        (_, true) => {
            let traced = per_layer(
                w,
                &texts,
                mix.len(),
                args.seconds,
                scratch,
                &mut gate,
                &mut report,
            )?;
            let path =
                PathBuf::from(SPAN_DIR).join(format!("spans-{}-seed{}.jsonl", w.name(), args.seed));
            write_spans(&path, &traced)?;
            println!("  spans written to {}", path.display());
        }
    }
    Ok(report)
}

/// End-to-end metrics of a `run_batch` workload, over every batch of the
/// timed pass, each scaled to the reference host speed (see `calib`).
fn batch_e2e(
    w: Workload,
    texts: &[JobText],
    seconds: f64,
    scratch: &Path,
    gate: &mut Gate,
    report: &mut Report,
) -> Result<(), String> {
    let jobs = batch::admit_all(texts)?;
    let pass = batch::untraced(
        texts,
        &jobs,
        w.shape(),
        w.batch(),
        w.batch(),
        seconds,
        scratch,
        gate,
    )?;
    let raw = Window::all(&pass.windows);
    let scaled: Vec<Window> = pass.windows.iter().map(|w| w.at_reference(false)).collect();
    let all = Window::all(&scaled);
    report.attempted = all.service_ms.len() as u64;
    report.failed = pass.failed;
    let cal: Vec<f64> = pass.windows.iter().map(|w| w.cal_s * 1e3).collect();
    println!(
        "  {} batches, {} jobs in {:.3} s; calibration kernel median {:.4} ms \
         (reference {:.4} ms); unscaled: {:.3} jobs/s, job p50 {:.4} ms, setup {:.6} s",
        pass.windows.len(),
        raw.service_ms.len(),
        raw.wall_s,
        median(&cal),
        calib::REFERENCE_S * 1e3,
        ratio(raw.service_ms.len() as f64, raw.wall_s),
        median(&raw.service_ms),
        median(&raw.setup_s)
    );
    timed_e2e(&all, report);
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.notes.push(format!(
        "setup_s: median of {} set-ups, one or more before each batch",
        all.setup_s.len()
    ));
    report.metric("setup_s", median(&all.setup_s), "s");
    mode_check(
        "job service time by pair",
        &all.base,
        &all.service_ms,
        report,
    );
    Ok(())
}

/// The throughput, latency and CPU metrics of the jobs in `window`.
fn timed_e2e(window: &Window, report: &mut Report) {
    let n = window.service_ms.len() as f64;
    report.metric("jobs_per_s", ratio(n, window.wall_s), "1/s");
    report.percentile("job_p50_ms", &window.service_ms, 0.5);
    report.tail("job_tail_ms", &window.service_ms);
    report.percentile("verdict_p50_ms", &window.verdict_ms, 0.5);
    report.tail("verdict_tail_ms", &window.verdict_ms);
    report.metric("cpu_ms_per_job", ratio(window.cpu_s * 1e3, n), "ms");
}

/// End-to-end metrics of serve-watch, over every job of the timed pass:
/// it is one continuous daemon, and a regression that slows only some
/// stretches of it (journal growth, periodic stalls) must show. Only the
/// CPU-bound times are scaled to the reference speed; verdict latency
/// and throughput are mostly the daemon's fixed 20 ms sleeps.
fn serve_e2e(
    texts: &[JobText],
    warm: usize,
    seconds: f64,
    scratch: &Path,
    gate: &mut Gate,
    report: &mut Report,
) -> Result<(), String> {
    batch::seed_gate(&texts[..warm], gate)?;
    let pass = serve::run(texts, SERVE_SETUP_REPS, warm, seconds, scratch, gate)?;
    let raw = Window::all(&pass.windows);
    let scaled: Vec<Window> = pass.windows.iter().map(|w| w.at_reference(true)).collect();
    let all = &Window::all(&scaled);
    let cal: Vec<f64> = pass.windows.iter().map(|w| w.cal_s * 1e3).collect();
    println!(
        "  calibration kernel median {:.4} ms (reference {:.4} ms); unscaled: job p50 {:.4} ms, {:.4} CPU ms per job",
        median(&cal),
        calib::REFERENCE_S * 1e3,
        median(&raw.service_ms),
        ratio(raw.cpu_s * 1e3, raw.service_ms.len() as f64)
    );
    report.attempted = pass.samples.len() as u64;
    report.failed = pass.samples.iter().filter(|s| !s.ok).count() as u64;
    println!(
        "  {} jobs in {:.3} s, {} client(s), {} worker(s)",
        pass.samples.len(),
        all.wall_s,
        serve::CLIENTS,
        serve::WORKERS
    );
    timed_e2e(all, report);
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.metric("setup_s", median(&pass.setup_s), "s");
    mode_check(
        "job service time by pair",
        &all.base,
        &all.service_ms,
        report,
    );
    // Verdict latency clusters by how many 20 ms watch polls a job waited.
    let polls: Vec<u32> = all.verdict_ms.iter().map(|v| (v / 20.0) as u32).collect();
    mode_check(
        "verdict latency by watch polls",
        &polls,
        &all.verdict_ms,
        report,
    );
    Ok(())
}

/// Per-layer metrics: an untraced pass, then a traced replay of the same
/// jobs, each for half of `seconds`.
fn per_layer(
    w: Workload,
    texts: &[JobText],
    warm: usize,
    seconds: f64,
    scratch: &Path,
    gate: &mut Gate,
    report: &mut Report,
) -> Result<Traced, String> {
    let jobs = batch::admit_all(texts)?;
    let parse_s = median(&batch::time_setup(texts)?);
    let half = seconds / 2.0;
    let shape = w.shape();
    // What the untraced pass contributes, whichever front end ran it.
    let untraced;
    let (mut hits, mut misses) = (0u64, 0u64);
    let workers;
    let mut serve_layer = [0.0; 3];
    let mut submit_ms = Vec::new();
    if w == Workload::ServeWatch {
        batch::seed_gate(&texts[..warm], gate)?;
        let pass = serve::run(texts, 1, warm, half, scratch, gate)?;
        let n = pass.samples.len() as f64;
        report.attempted += pass.samples.len() as u64;
        report.failed += pass.samples.iter().filter(|s| !s.ok).count() as u64;
        let watch_wait: Vec<f64> = pass
            .samples
            .iter()
            .zip(&Window::all(&pass.windows).service_ms)
            .map(|(s, service)| s.verdict_ms - s.submit_ms - service)
            .collect();
        serve_layer = [
            ratio(pass.journal_bytes as f64, n),
            ratio(
                pass.queue_wait_us as f64 / 1e3,
                pass.queue_wait_count as f64,
            ),
            mean(&watch_wait),
        ];
        submit_ms = pass.samples.iter().map(|s| s.submit_ms).collect();
        workers = serve::WORKERS;
        untraced = Window::all(&pass.windows);
    } else {
        let pass = batch::untraced(
            texts,
            &jobs,
            shape,
            w.batch(),
            w.batch(),
            half,
            scratch,
            gate,
        )?;
        untraced = Window::all(&pass.windows);
        report.attempted += untraced.service_ms.len() as u64;
        report.failed += pass.failed;
        hits = pass.cache_hits;
        misses = pass.cache_misses;
        workers = batch::WORKERS;
    }
    let keep_cache = w == Workload::ServeWatch;
    let traced = layers::traced(
        texts,
        &jobs,
        shape,
        w.batch(),
        keep_cache,
        half,
        scratch,
        gate,
    )?;
    report.attempted += traced.jobs.len() as u64;
    report.failed += traced.failed;
    if keep_cache {
        hits = traced.jobs.iter().filter(|j| j.hit).count() as u64;
        misses = traced.jobs.len() as u64 - hits;
    }

    let t = &traced.jobs;
    let avg = |f: &dyn Fn(&layers::JobLayers) -> f64| ratio(t.iter().map(f).sum(), t.len() as f64);
    let sum = |f: &dyn Fn(&layers::JobLayers) -> f64| t.iter().map(f).sum::<f64>();
    let untraced_us = mean(&untraced.service_ms) * 1e3;
    let traced_us = avg(&|j| j.total_us);
    // Per-job self times, µs.
    let key_us = avg(&|j| j.key_us);
    let vm_us = avg(&|j| j.vm_us);
    let taint_us = avg(&|j| j.taint_us);
    let store_read_us = avg(&|j| j.store_read_us);
    let store_write_us = avg(&|j| j.store_write_us);
    let cfg_us = avg(&|j| j.cfg_us);
    let symex_us = avg(&|j| j.symex_us);
    let solver_us = avg(&|j| j.solver_us);
    let overhead_us = untraced_us
        - (key_us
            + vm_us
            + taint_us
            + store_read_us
            + store_write_us
            + cfg_us
            + symex_us
            + solver_us);

    report.metric(
        "solver.solves_per_job",
        avg(&|j| j.counts.solves as f64),
        "count",
    );
    report.metric(
        "solver.us_per_solve",
        ratio(sum(&|j| j.solver_us), sum(&|j| j.recorded_solves as f64)),
        "us",
    );
    report.metric(
        "solver.share_of_symex",
        ratio(solver_us, solver_us + symex_us),
        "share",
    );
    report.metric(
        "solver.unsat_share",
        ratio(sum(&|j| j.unsat as f64), sum(&|j| j.recorded_solves as f64)),
        "share",
    );
    report.metric("symex.ms_per_job", symex_us / 1e3, "ms");
    report.metric(
        "symex.steps_per_job",
        avg(&|j| j.counts.steps as f64),
        "count",
    );
    report.metric(
        "symex.backtracks_per_job",
        avg(&|j| j.backtracks as f64),
        "count",
    );
    report.metric("symex.forks_per_job", avg(&|j| j.forks as f64), "count");
    report.metric(
        "symex.peak_mem_kb",
        avg(&|j| j.peak_mem_bytes as f64) / 1024.0,
        "KiB",
    );
    report.metric("vm.ms_per_job", vm_us / 1e3, "ms");
    report.metric(
        "vm.minsts_per_s",
        ratio(sum(&|j| j.vm_insts as f64), sum(&|j| j.vm_us)),
        "M/s",
    );
    report.metric("taint.ms_per_job", taint_us / 1e3, "ms");
    report.metric(
        "taint.minsts_per_s",
        ratio(sum(&|j| j.taint_insts as f64), sum(&|j| j.taint_us)),
        "M/s",
    );
    report.metric(
        "taint.records_per_job",
        avg(&|j| j.taint_records as f64),
        "count",
    );
    report.metric("cfg.us_per_job", cfg_us, "us");
    report.metric(
        "ir.parse_us_per_job",
        parse_s * 1e6 / texts.len() as f64,
        "us",
    );
    report.metric(
        "cache.hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
        "share",
    );
    report.metric("cache.hits", hits as f64, "count");
    report.metric("cache.misses", misses as f64, "count");
    report.metric("cache.key_us_per_job", key_us, "us");
    report.metric("batch.overhead_us_per_job", overhead_us, "us");
    report.metric("store.read_us_per_job", store_read_us, "us");
    report.metric("store.write_us_per_job", store_write_us, "us");
    report.metric("store.bytes_per_job", avg(&|j| j.store_bytes as f64), "B");
    report.metric(
        "sched.busy_share",
        ratio(
            untraced.service_ms.iter().sum::<f64>() / 1e3,
            workers as f64 * untraced.wall_s,
        ),
        "share",
    );
    report.metric(
        "serve.proto_us_per_job",
        serve::proto_us_per_job(texts)?,
        "us",
    );
    report.metric("serve.journal_bytes_per_job", serve_layer[0], "B");
    report.metric("serve.queue_wait_ms", serve_layer[1], "ms");
    report.metric("serve.watch_wait_ms", serve_layer[2], "ms");
    report.metric(
        "trace.overhead_share",
        ratio(traced_us, untraced_us) - 1.0,
        "share",
    );
    // The `Submit` → `Accepted` round trip exists on serve-watch only.
    if submit_ms.is_empty() {
        report.metric("submit_p50_ms", 0.0, "ms");
    } else {
        report.percentile("submit_p50_ms", &submit_ms, 0.5);
    }

    print_pairs(&untraced.base, &untraced.service_ms, &traced, gate);
    println!("  per-job accounting (traced self times, us):");
    for (name, us) in [
        ("cache key", key_us),
        ("vm (identify_ep + P4)", vm_us),
        ("taint (P1)", taint_us),
        ("store", store_read_us + store_write_us),
        ("cfg + distance", cfg_us),
        ("symex (self)", symex_us),
        ("solver", solver_us),
        ("batch overhead", overhead_us),
    ] {
        println!("    {name:<24} {us:>12.1}");
    }
    println!(
        "    {:<24} {untraced_us:>12.1}  (untraced mean; untraced p50 {:.1}, traced mean {traced_us:.1})",
        "= job",
        median(&untraced.service_ms) * 1e3,
    );
    Ok(traced)
}

/// The per-pair latency table of a traced run: share of the mix, untraced
/// service time, traced job time, and the counts every job of the pair
/// repeated exactly.
fn print_pairs(base: &[u32], service_ms: &[f64], traced: &Traced, gate: &Gate) {
    let mut by_pair: BTreeMap<u32, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for (b, ms) in base.iter().zip(service_ms) {
        by_pair.entry(*b).or_default().0.push(*ms);
    }
    for (b, j) in traced.base.iter().zip(&traced.jobs) {
        by_pair.entry(*b).or_default().1.push(j.total_us / 1e3);
    }
    println!(
        "  pair   share  untraced_p50_ms  traced_mean_ms    steps  solves  p1_insts  p4_insts"
    );
    for (b, (untraced, traced_ms)) in &by_pair {
        let c = gate.counts(*b).unwrap_or_default();
        println!(
            "  idx{b:02} {:>6.3} {:>16.4} {:>15.4} {:>8} {:>7} {:>9} {:>9}",
            ratio(untraced.len() as f64, base.len() as f64),
            median(untraced),
            mean(traced_ms),
            c.steps,
            c.solves,
            c.p1_insts,
            c.p4_insts
        );
    }
}

/// Clusters holding less than this share of the samples are stragglers,
/// not modes, and bound no mode.
const MIN_MODE_SHARE: f64 = 0.01;

/// The mode-boundary check: groups samples into clusters (a pair, or a
/// watch-poll count), orders the clusters by median, and reports how far
/// each reported percentile's rank lies from the nearest boundary between
/// two clusters, as a share of all samples.
fn mode_check(what: &str, cluster: &[u32], values: &[f64], report: &mut Report) {
    let mut by_pair: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
    for (b, v) in cluster.iter().zip(values) {
        by_pair.entry(*b).or_default().push(*v);
    }
    let mut pairs: Vec<(f64, u32, usize)> = by_pair
        .iter()
        .map(|(b, v)| (median(v), *b, v.len()))
        .collect();
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let n = values.len() as f64;
    let mut line = format!("{what} (median ms, share):");
    let mut boundaries = Vec::new();
    let mut cum = 0.0;
    let mut last_share = 0.0;
    for (med, b, count) in &pairs {
        let share = *count as f64 / n;
        let _ = write!(line, " {b:02}: {med:.3} {share:.3};");
        // A cluster of a few stragglers is not a mode.
        if cum > 0.0 && share >= MIN_MODE_SHARE && last_share >= MIN_MODE_SHARE {
            boundaries.push(cum);
        }
        cum += share;
        last_share = share;
    }
    report.notes.push(line);
    for q in [0.5, TAIL] {
        let distance = boundaries
            .iter()
            .map(|b| (b - q).abs())
            .fold(f64::INFINITY, f64::min);
        report.notes.push(format!(
            "  p{} sits {distance:.3} of samples from the nearest cluster boundary",
            (q * 100.0) as u32
        ));
    }
}

fn write_spans(path: &Path, traced: &Traced) -> Result<(), String> {
    let mut out = String::new();
    for (job, layers) in traced.jobs.iter().enumerate() {
        for span in &layers.spans {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"job\":{job},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\"parent\":{parent}}}",
                span.name, span.start_us, span.end_us
            );
        }
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
}
