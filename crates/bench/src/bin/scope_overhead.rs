//! Measures the octo-scope observability-plane cost on the corpus run
//! through the in-process daemon: wall time with the plane **off**
//! (daemon only — no HTTP listener, no sampler) versus **scope** (a
//! live HTTP listener answering a `/metrics` + `/jobs/<id>` scrape
//! every 10 ms, plus the rate sampler snapshotting the registry every
//! 100 ms). Each mode runs the whole 15-pair corpus several times and
//! keeps the best wall time.
//!
//! ```text
//! cargo run --release -p octo-bench --bin scope_overhead [-- --out PATH]
//! ```
//!
//! Writes the rows as JSON to `--out` (default `BENCH_scope.json` in
//! the current directory) and prints them as a table. The acceptance
//! budget is scope-mode overhead within 3% of the plane-off baseline.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use octo_bench::{render_table, ScopeOverheadRow};
use octo_obs::RateRecorder;
use octo_sched::CancelToken;
use octo_serve::{Daemon, Priority};
use octopocs::batch::{corpus_jobs, BatchJob, BatchOptions};
use octopocs::{batch_job_to_spec, PipelineConfig, ServeExecutor};

const ITERATIONS: usize = 3;
const WORKERS: usize = 4;
const SAMPLE_INTERVAL: Duration = Duration::from_millis(100);
const SCRAPE_INTERVAL: Duration = Duration::from_millis(10);

/// Runs the corpus once through an in-process daemon and returns
/// (wall seconds, scrapes served, sampler snapshots). `scope` turns the
/// HTTP plane plus its scrape/sample pressure on.
fn run_once(jobs: &[BatchJob], scope: bool) -> (f64, u64, u64) {
    let config = PipelineConfig::default();
    let options = BatchOptions {
        workers: WORKERS,
        ..BatchOptions::default()
    };
    let executor = Arc::new(ServeExecutor::new(&config, &options));
    let daemon = Daemon::new(executor.clone(), None, jobs.len().max(1));

    let stop = CancelToken::new();
    let mut pressure = Vec::new();
    let scrapes = Arc::new(AtomicU64::new(0));
    let samples = Arc::new(AtomicU64::new(0));
    if scope {
        let listener = octo_serve::bind_http("127.0.0.1:0").expect("bind http");
        let addr = listener.local_addr().expect("local addr").to_string();
        let rates = Arc::new(RateRecorder::new(64));
        {
            let daemon = daemon.clone();
            let stop = stop.clone();
            let rates = Arc::clone(&rates);
            pressure.push(std::thread::spawn(move || {
                octo_serve::serve_http(&daemon, Some(rates), listener, &stop);
            }));
        }
        {
            let executor = Arc::clone(&executor);
            let stop = stop.clone();
            let rates = Arc::clone(&rates);
            let samples = Arc::clone(&samples);
            pressure.push(std::thread::spawn(move || {
                let started = std::time::Instant::now();
                while !stop.is_cancelled() {
                    executor.sample_rates(&rates, started.elapsed().as_micros() as u64);
                    samples.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(SAMPLE_INTERVAL);
                }
            }));
        }
        {
            let stop = stop.clone();
            let scrapes = Arc::clone(&scrapes);
            pressure.push(std::thread::spawn(move || {
                // A continuous scraper: alternate the exposition scrape
                // with a timeline fetch every 10 ms — two orders of
                // magnitude denser than any real Prometheus interval.
                let mut flip = false;
                while !stop.is_cancelled() {
                    let path = if flip { "/jobs/1" } else { "/metrics" };
                    flip = !flip;
                    if octo_serve::http_get(&addr, path, Duration::from_secs(5)).is_ok() {
                        scrapes.fetch_add(1, Ordering::Relaxed);
                    }
                    std::thread::sleep(SCRAPE_INTERVAL);
                }
            }));
        }
    }

    let start = std::time::Instant::now();
    for job in jobs {
        daemon
            .submit(batch_job_to_spec(job, Priority::Bulk))
            .expect("submit");
    }
    let workers = daemon.start_workers(WORKERS);
    daemon.wait_idle();
    let seconds = start.elapsed().as_secs_f64();

    stop.cancel();
    daemon.drain();
    for w in workers {
        w.join().expect("worker");
    }
    for t in pressure {
        t.join().expect("pressure thread");
    }
    (
        seconds,
        scrapes.load(Ordering::Relaxed),
        samples.load(Ordering::Relaxed),
    )
}

/// Best-of-N for both modes, interleaved off/scope/off/scope so slow
/// machine-level drift (page cache, thermals, co-tenants) lands on
/// both modes evenly instead of biasing whichever ran last.
fn run_modes(jobs: &[BatchJob]) -> [(f64, u64, u64); 2] {
    // One discarded warmup pays the lazy costs (page cache, allocator
    // warm pools) outside the measurement.
    let _ = run_once(jobs, false);
    let mut best = [(f64::INFINITY, 0, 0), (f64::INFINITY, 0, 0)];
    for _ in 0..ITERATIONS {
        for (slot, scope) in [(0, false), (1, true)] {
            let run = run_once(jobs, scope);
            if run.0 < best[slot].0 {
                best[slot] = run;
            }
        }
    }
    best
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = "BENCH_scope.json".to_string();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--out" => out_path = it.next().expect("missing value for --out").clone(),
            other => {
                eprintln!("unknown flag `{other}` (usage: scope_overhead [--out PATH])");
                std::process::exit(3);
            }
        }
    }

    let jobs = corpus_jobs();
    let measured = run_modes(&jobs);
    let mut rows: Vec<ScopeOverheadRow> = Vec::new();
    let mut baseline = 0.0;
    for (slot, mode) in ["off", "scope"].into_iter().enumerate() {
        let (seconds, scrapes, samples) = measured[slot];
        if mode == "off" {
            baseline = seconds;
        }
        let overhead_pct = if baseline > 0.0 {
            (seconds / baseline - 1.0) * 100.0
        } else {
            0.0
        };
        rows.push(ScopeOverheadRow {
            mode: mode.to_string(),
            seconds,
            scrapes,
            samples,
            overhead_pct,
        });
    }

    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.mode.clone(),
                format!("{:.4}", r.seconds),
                r.scrapes.to_string(),
                r.samples.to_string(),
                format!("{:+.2}", r.overhead_pct),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "octo-scope overhead on the daemon corpus (best of 3)",
            &["mode", "seconds", "scrapes", "samples", "overhead %"],
            &cells,
        )
    );
    let json = octo_bench::json::to_json_pretty(&rows);
    if let Err(e) = std::fs::write(&out_path, json) {
        eprintln!("error writing {out_path}: {e}");
        std::process::exit(3);
    }
    println!("rows written to {out_path}");
}
