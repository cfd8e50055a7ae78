//! Batch verification over the Table II corpus: the scheduled, cached
//! batch must produce exactly the verdicts of the sequential pipeline
//! (checked both against `verify` run pair-by-pair and against the
//! checked-in golden file CI diffs), and the artifact cache must collapse
//! the corpus's shared `(S, poc, ℓ)` groups into single P1 runs.

mod common;

use std::collections::HashSet;
use std::process::Command;

use octo_corpus::all_pairs;
use octo_ir::printer::print_program;
use octo_sched::NullSink;
use octopocs::batch::{corpus_jobs, prefix_cache_key, run_batch, BatchJob, BatchOptions};
use octopocs::{verify, PipelineConfig, SoftwarePairInput};

use common::bin_path;

const GOLDEN: &str = include_str!("golden/batch_verdicts.json");

#[test]
fn batch_over_corpus_matches_the_golden_file() {
    let jobs = corpus_jobs();
    let config = PipelineConfig::default();
    let report = run_batch(
        &jobs,
        &config,
        &BatchOptions {
            workers: 4,
            ..BatchOptions::default()
        },
        &NullSink,
    );
    assert_eq!(report.render_verdicts_json(), GOLDEN);

    // The corpus shares sources: {1,2}, {6,14}, {7,13}, {10,11,12} — so a
    // full run must show exactly as many misses as distinct prefix keys,
    // and one hit per collapsed job.
    let distinct: HashSet<u64> = jobs
        .iter()
        .map(|j| prefix_cache_key(&j.s, &j.poc, &j.shared, &config))
        .collect();
    assert_eq!(distinct.len(), 10, "corpus sharing structure changed?");
    assert_eq!(report.cache.misses, distinct.len() as u64);
    assert_eq!(report.cache.hits, (jobs.len() - distinct.len()) as u64);
    assert_eq!(report.cache.entries, distinct.len() as u64);
}

#[test]
fn batch_verdicts_match_sequential_verify_for_every_pair() {
    let jobs = corpus_jobs();
    let config = PipelineConfig::default();
    let report = run_batch(
        &jobs,
        &config,
        &BatchOptions {
            workers: 8,
            ..BatchOptions::default()
        },
        &NullSink,
    );
    assert_eq!(report.entries.len(), jobs.len());
    for (entry, job) in report.entries.iter().zip(jobs.iter()) {
        let input = SoftwarePairInput {
            s: &job.s,
            t: &job.t,
            poc: &job.poc,
            shared: &job.shared,
        };
        let sequential = verify(&input, &config);
        assert_eq!(
            entry.report.verdict.type_label(),
            sequential.verdict.type_label(),
            "{}: batch and sequential verdicts diverge",
            job.name
        );
        assert_eq!(
            entry.report.verdict.poc_generated(),
            sequential.verdict.poc_generated(),
            "{}",
            job.name
        );
    }
}

#[test]
fn two_targets_of_one_source_share_a_single_p1_run() {
    // Idx 10 and 11 are both tiffsplit → {opj_compress, libsdl2} under the
    // same PoC, so the batch pays for preprocessing + P1 exactly once.
    let jobs: Vec<BatchJob> = corpus_jobs().into_iter().skip(9).take(2).collect();
    assert!(jobs[0].name.starts_with("idx10"), "{}", jobs[0].name);
    assert!(jobs[1].name.starts_with("idx11"), "{}", jobs[1].name);
    let report = run_batch(
        &jobs,
        &PipelineConfig::default(),
        &BatchOptions {
            workers: 2,
            ..BatchOptions::default()
        },
        &NullSink,
    );
    assert_eq!(report.cache.misses, 1, "P1 must run exactly once");
    assert_eq!(report.cache.hits, 1);
    assert!(report.entries[0].report.p1_insts > 0);
    assert_eq!(
        report.entries[0].report.p1_insts, report.entries[1].report.p1_insts,
        "both entries must carry the one shared P1 artifact"
    );
    assert_eq!(
        report.entries.iter().filter(|e| e.cache_hit).count(),
        1,
        "exactly one of the two jobs hits"
    );
}

#[test]
fn cli_batch_runs_a_job_file_with_events() {
    let cli = bin_path("octopocs");
    let dir = std::env::temp_dir().join(format!("octopocs-batch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("workdir");

    // Export idx10 and idx11 (shared source) as a two-line job file.
    let mut lines = String::from("# exported from the corpus\n");
    for pair in all_pairs()
        .into_iter()
        .filter(|p| [10, 11].contains(&p.idx))
    {
        let s_path = dir.join(format!("s{}.mir", pair.idx));
        let t_path = dir.join(format!("t{}.mir", pair.idx));
        let poc_path = dir.join(format!("poc{}.bin", pair.idx));
        std::fs::write(&s_path, print_program(&pair.s)).expect("write s");
        std::fs::write(&t_path, print_program(&pair.t)).expect("write t");
        std::fs::write(&poc_path, pair.poc.bytes()).expect("write poc");
        lines.push_str(&format!(
            "job{} {} {} {} {}\n",
            pair.idx,
            s_path.display(),
            t_path.display(),
            poc_path.display(),
            pair.shared.join(",")
        ));
    }
    let jobs_path = dir.join("jobs.txt");
    std::fs::write(&jobs_path, lines).expect("write job file");

    let output = Command::new(&cli)
        .args([
            "batch",
            "--jobs",
            jobs_path.to_str().expect("utf8"),
            "--workers",
            "2",
            "--json",
            "--events",
        ])
        .output()
        .expect("spawn cli");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "stderr: {stderr}");
    assert!(
        stdout.contains("\"name\":\"job10\",\"verdict\":\"Type-III\""),
        "{stdout}"
    );
    assert!(stdout.contains("\"hits\":1"), "{stdout}");
    // --events streams the lifecycle to stderr.
    assert!(stderr.contains("start"), "{stderr}");
    assert!(stderr.contains("done"), "{stderr}");
    assert!(stderr.contains("cache"), "{stderr}");

    // Usage errors exit 3.
    let bad = Command::new(&cli)
        .args(["batch", "--workers", "2"])
        .output()
        .expect("spawn cli");
    assert_eq!(bad.status.code(), Some(3));

    let _ = std::fs::remove_dir_all(&dir);
}
