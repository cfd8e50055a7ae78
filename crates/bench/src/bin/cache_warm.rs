//! Measures the disk artifact cache's warm-start payoff on the corpus
//! batch: wall time against a **cold** (empty) cache directory versus a
//! **warm** one pre-seeded by a full prior run. Each mode runs the
//! whole 15-pair corpus several times and keeps the best wall time
//! (minimum is the standard noise-robust statistic for this shape of
//! benchmark); a discarded first pass seeds the warm directory.
//!
//! ```text
//! cargo run --release -p octo-bench --bin cache_warm [-- --out PATH]
//! ```
//!
//! Writes the rows as JSON to `--out` (default `BENCH_cache.json` in
//! the current directory) and prints them as a table. The acceptance
//! target is warm strictly faster than cold — CI asserts it.

use octo_bench::{render_table, CacheWarmRow};
use octo_sched::NullSink;
use octopocs::batch::{corpus_jobs, run_batch, BatchJob, BatchOptions};
use octopocs::PipelineConfig;

const ITERATIONS: usize = 3;
const WORKERS: usize = 4;

/// One corpus batch against `cache_dir`. Returns (wall seconds,
/// disk hits, disk writes).
fn run_once(jobs: &[BatchJob], cache_dir: &std::path::Path) -> (f64, u64, u64) {
    let options = BatchOptions {
        workers: WORKERS,
        cache_dir: Some(cache_dir.to_path_buf()),
        ..BatchOptions::default()
    };
    let start = std::time::Instant::now();
    let report = run_batch(jobs, &PipelineConfig::default(), &options, &NullSink);
    let seconds = start.elapsed().as_secs_f64();
    assert_eq!(report.entries.len(), jobs.len());
    let disk = report.disk.expect("disk stats with a cache dir");
    assert!(!disk.degraded, "bench cache dir must be writable");
    (seconds, disk.hits, disk.writes)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = "BENCH_cache.json".to_string();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--out" => out_path = it.next().expect("missing value for --out").clone(),
            other => {
                eprintln!("unknown flag `{other}` (usage: cache_warm [--out PATH])");
                std::process::exit(3);
            }
        }
    }

    let jobs = corpus_jobs();
    let scratch = std::env::temp_dir().join(format!("octopocs-bench-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);

    // Cold: a fresh, empty directory every iteration.
    let mut cold_best = f64::INFINITY;
    let mut cold_writes = 0u64;
    for i in 0..ITERATIONS {
        let dir = scratch.join(format!("cold-{i}"));
        let (seconds, _hits, writes) = run_once(&jobs, &dir);
        if seconds < cold_best {
            cold_best = seconds;
            cold_writes = writes;
        }
    }

    // Warm: one discarded pass seeds the directory, then every
    // measured pass reads the same blobs back.
    let warm_dir = scratch.join("warm");
    let _ = run_once(&jobs, &warm_dir);
    let mut warm_best = f64::INFINITY;
    let mut warm_hits = 0u64;
    for _ in 0..ITERATIONS {
        let (seconds, hits, _writes) = run_once(&jobs, &warm_dir);
        if seconds < warm_best {
            warm_best = seconds;
            warm_hits = hits;
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);

    let rows = vec![
        CacheWarmRow {
            mode: "cold".to_string(),
            seconds: cold_best,
            disk_hits: 0,
            disk_writes: cold_writes,
            saving_pct: 0.0,
        },
        CacheWarmRow {
            mode: "warm".to_string(),
            seconds: warm_best,
            disk_hits: warm_hits,
            disk_writes: 0,
            saving_pct: (1.0 - warm_best / cold_best) * 100.0,
        },
    ];

    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.mode.clone(),
                format!("{:.4}", r.seconds),
                r.disk_hits.to_string(),
                r.disk_writes.to_string(),
                format!("{:+.2}", r.saving_pct),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Disk-cache warm start on the corpus batch (best of 3)",
            &["mode", "seconds", "disk hits", "disk writes", "saving %"],
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
