//! Measures the flight-recorder cost on the corpus batch: wall time with
//! the recorder **off**, recording into the **ring**, and recording plus
//! a **chrome-export** render. Each mode runs the whole 15-pair corpus
//! several times and keeps the best wall time (minimum is the standard
//! noise-robust statistic for this shape of benchmark).
//!
//! ```text
//! cargo run --release -p octo-bench --bin trace_overhead [-- --out PATH]
//! ```
//!
//! Writes the rows as JSON to `--out` (default `BENCH_trace.json` in the
//! current directory) and prints them as a table. The acceptance target
//! is ring-mode overhead within a few percent of the recorder-off
//! baseline.

use std::sync::Arc;

use octo_bench::{render_table, TraceOverheadRow};
use octo_sched::NullSink;
use octopocs::batch::{corpus_jobs, run_batch, BatchJob, BatchOptions};
use octopocs::{FlightRecorder, PipelineConfig};

const ITERATIONS: usize = 3;
const WORKERS: usize = 4;

/// Runs the corpus batch `ITERATIONS` times in one recorder mode and
/// returns (best wall seconds, events recorded, chrome export bytes).
fn run_mode(jobs: &[BatchJob], record: bool, export: bool) -> (f64, u64, u64) {
    let config = PipelineConfig::default();
    let mut best = f64::INFINITY;
    let mut events = 0u64;
    let mut export_bytes = 0u64;
    for _ in 0..ITERATIONS {
        let recorder = record.then(|| Arc::new(FlightRecorder::with_default_capacity()));
        let options = BatchOptions {
            workers: WORKERS,
            trace: recorder.clone(),
            ..BatchOptions::default()
        };
        let start = std::time::Instant::now();
        let report = run_batch(jobs, &config, &options, &NullSink);
        let mut seconds = start.elapsed().as_secs_f64();
        if let Some(rec) = &recorder {
            if export {
                // The export is part of the measured cost in this mode.
                let rendered = octo_trace::chrome::render_chrome(&rec.snapshot());
                seconds = start.elapsed().as_secs_f64();
                export_bytes = rendered.len() as u64;
            }
            events = rec.len() as u64 + rec.dropped();
        }
        assert_eq!(report.entries.len(), jobs.len());
        best = best.min(seconds);
    }
    (best, events, export_bytes)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = "BENCH_trace.json".to_string();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--out" => out_path = it.next().expect("missing value for --out").clone(),
            other => {
                eprintln!("unknown flag `{other}` (usage: trace_overhead [--out PATH])");
                std::process::exit(3);
            }
        }
    }

    let jobs = corpus_jobs();
    let modes: [(&str, bool, bool); 3] = [
        ("off", false, false),
        ("ring", true, false),
        ("chrome-export", true, true),
    ];
    let mut rows: Vec<TraceOverheadRow> = Vec::new();
    let mut baseline = 0.0;
    for (mode, record, export) in modes {
        let (seconds, events, export_bytes) = run_mode(&jobs, record, export);
        if mode == "off" {
            baseline = seconds;
        }
        let overhead_pct = if baseline > 0.0 {
            (seconds / baseline - 1.0) * 100.0
        } else {
            0.0
        };
        rows.push(TraceOverheadRow {
            mode: mode.to_string(),
            seconds,
            events,
            export_bytes,
            overhead_pct,
        });
    }

    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.mode.clone(),
                format!("{:.4}", r.seconds),
                r.events.to_string(),
                r.export_bytes.to_string(),
                format!("{:+.2}", r.overhead_pct),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Flight-recorder overhead on the corpus batch (best of 3)",
            &["mode", "seconds", "events", "export bytes", "overhead %"],
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
