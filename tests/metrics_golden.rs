//! Metrics over the Table II corpus: the key *set* is pinned by a golden
//! schema file (values are wall-clock-volatile and therefore never
//! compared), and the deterministic counters — job totals, verdict
//! tallies, cache traffic, per-phase instruction counts — must be exact
//! and identical across runs, whatever the worker count.

mod common;

use std::collections::BTreeSet;
use std::process::Command;

use octo_sched::NullSink;
use octopocs::batch::{corpus_jobs, run_batch, BatchOptions, BatchReport};
use octopocs::PipelineConfig;

use common::bin_path;

const SCHEMA: &str = include_str!("golden/metrics_schema.txt");

fn run_corpus(workers: usize) -> BatchReport {
    run_batch(
        &corpus_jobs(),
        &PipelineConfig::default(),
        &BatchOptions {
            workers,
            ..BatchOptions::default()
        },
        &NullSink,
    )
}

fn schema_names() -> Vec<&'static str> {
    SCHEMA.lines().filter(|l| !l.is_empty()).collect()
}

#[test]
fn metric_key_set_matches_the_golden_schema() {
    let report = run_corpus(4);
    let names = report.metrics.names();
    assert_eq!(
        names,
        schema_names(),
        "metric catalogue drifted — update tests/golden/metrics_schema.txt, \
         docs/observability.md and the CI schema diff together"
    );
    // The JSON rendering carries exactly the schema'd keys, in order.
    let json = report.metrics.render_json();
    let mut seen = Vec::new();
    for part in json.split("\"name\":\"").skip(1) {
        seen.push(part.split('"').next().unwrap().to_string());
    }
    assert_eq!(seen, names);
}

#[test]
fn corpus_counters_are_exact_and_deterministic() {
    let report = run_corpus(4);
    let m = &report.metrics;
    let counter = |name: &str| m.get_counter(name).expect(name).get();

    // 15 pairs; sources are shared {1,2}, {6,14}, {7,13}, {10,11,12} →
    // 10 distinct prefixes (see tests/batch_golden.rs).
    assert_eq!(counter("batch_jobs_total"), 15);
    assert_eq!(counter("cache_misses_total"), 10);
    assert_eq!(counter("cache_hits_total"), 5);
    let verdicts = counter("batch_verdict_type_i_total")
        + counter("batch_verdict_type_ii_total")
        + counter("batch_verdict_type_iii_total")
        + counter("batch_verdict_failure_total");
    assert_eq!(verdicts, 15, "every job lands in exactly one bucket");
    assert_eq!(counter("batch_prescreen_decided_total"), 0, "P0 is opt-in");

    // Phase totals line up with the per-entry reports.
    assert!(counter("pipeline_p1_insts_total") > 0);
    assert!(counter("pipeline_p4_insts_total") > 0);
    assert!(counter("taint_bytes_uploaded_total") > 0);
    assert!(counter("symex_steps_total") > 0);
    assert!(counter("solver_calls_total") > 0);
    let steps: u64 = report
        .entries
        .iter()
        .filter_map(|e| e.report.symex_stats.as_ref())
        .map(|s| s.total_steps)
        .sum();
    assert_eq!(counter("symex_steps_total"), steps);

    // Per-phase wall-time histograms: every job pays a prefix, only the
    // jobs that ran a phase appear in its histogram.
    let hist_count = |name: &str| m.get_histogram(name).expect(name).count();
    assert_eq!(hist_count("job_wall_micros"), 15);
    assert_eq!(hist_count("job_queue_latency_micros"), 15);
    assert_eq!(hist_count("phase_p1_micros"), 15);
    let symex_jobs = report
        .entries
        .iter()
        .filter(|e| e.report.symex_stats.is_some())
        .count() as u64;
    assert!(symex_jobs > 0);
    assert_eq!(hist_count("phase_p2p3_micros"), symex_jobs);
    let p4_jobs = report
        .entries
        .iter()
        .filter(|e| e.report.p4_insts > 0)
        .count() as u64;
    assert!(p4_jobs > 0, "some pair reaches the concrete P4 replay");
    assert_eq!(hist_count("phase_p4_micros"), p4_jobs);

    // Deterministic counters are identical across runs and worker
    // counts (scheduler counters are the exception: steal traffic
    // depends on worker interleaving).
    let again = run_corpus(1);
    for name in again.metrics.names() {
        if name.starts_with("sched_") {
            continue;
        }
        if let Some(c) = again.metrics.get_counter(&name) {
            assert_eq!(
                c.get(),
                counter(&name),
                "{name} differs between 1-worker and 4-worker runs"
            );
        }
    }
}

#[test]
fn cli_metrics_exports_match_the_schema() {
    let cli = bin_path("octopocs");
    let dir = std::env::temp_dir().join(format!("octopocs-metrics-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("workdir");
    let json_path = dir.join("metrics.json");
    let prom_path = dir.join("metrics.prom");

    let output = Command::new(&cli)
        .args([
            "batch",
            "--corpus",
            "--workers",
            "4",
            "--verdicts-json",
            "--metrics-json",
            json_path.to_str().expect("utf8"),
            "--metrics-prom",
            prom_path.to_str().expect("utf8"),
        ])
        .output()
        .expect("spawn cli");
    assert_eq!(
        output.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );

    // The JSON export names exactly the schema'd metrics.
    let json = std::fs::read_to_string(&json_path).expect("metrics json written");
    let mut names = BTreeSet::new();
    for part in json.split("\"name\":\"").skip(1) {
        names.insert(part.split('"').next().unwrap().to_string());
    }
    let expected: BTreeSet<String> = schema_names().iter().map(|s| s.to_string()).collect();
    assert_eq!(names, expected, "{json}");
    assert!(!json.contains("NaN"), "{json}");
    assert!(json.contains("\"p50\":"), "{json}");

    // The Prometheus export types every metric and renders cumulative
    // histogram buckets.
    let prom = std::fs::read_to_string(&prom_path).expect("metrics prom written");
    for name in schema_names() {
        assert!(prom.contains(&format!("# TYPE {name} ")), "{name}");
    }
    assert!(prom.contains("le=\"+Inf\""), "{prom}");

    let _ = std::fs::remove_dir_all(&dir);
}
