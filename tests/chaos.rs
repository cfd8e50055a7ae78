//! Chaos suite: the Table II corpus under deterministic fault injection.
//!
//! The batch layer's robustness contract (see `docs/robustness.md`) is
//! that a fault in one job — a panic, a wedge, a poisoned solver — is
//! *isolated*: every other job finishes with exactly the verdict it
//! would have produced in a fault-free run, byte for byte against the
//! checked-in golden file, at any worker count. The committed plan in
//! `tests/golden/fault_plan.json` doubles as the CI chaos fixture.

mod common;

use std::sync::Arc;
use std::time::Duration;

use octo_faults::{FaultPlan, FaultSite, RetryPolicy};
use octo_sched::{NullSink, WatchdogConfig};
use octopocs::batch::{corpus_jobs, run_batch, BatchOptions, BatchReport};
use octopocs::verdict::{FailureReason, Verdict};
use octopocs::PipelineConfig;

use common::bin_path;

/// The fault-free corpus verdicts CI pins (`tests/golden/batch_verdicts.json`).
const GOLDEN: &str = include_str!("golden/batch_verdicts.json");
/// The committed CI chaos plan (`--fault-plan tests/golden/fault_plan.json`).
const PLAN: &str = include_str!("golden/fault_plan.json");
/// The corpus verdicts under the committed plan, as CI diffs them.
const CHAOS_GOLDEN: &str = include_str!("golden/chaos_verdicts.json");

/// Submission indices the chaos plans target: a panicking job and a
/// wedged/poisoned job, both with unshared prefixes so the cache
/// statistics stay identical to the fault-free run.
const PANIC_JOB: usize = 2;
const FAULTED_JOB: usize = 7;

/// Per-job lines of the stable verdict rendering (strips the wrapper).
fn job_lines(rendered: &str) -> Vec<String> {
    rendered
        .lines()
        .filter(|l| l.starts_with('{') && l.contains("\"name\""))
        .map(str::to_string)
        .collect()
}

fn run_chaos(workers: usize) -> BatchReport {
    // Nth(1) on the hang site: the wedge fires once, then the watchdog
    // escalates the token and the attempt reports `Hung`. The quiet
    // budget must comfortably exceed the longest legitimate beat gap
    // (the whole prepare phase beats only on engine entry), or healthy
    // jobs in non-polling phases pick up harmless extra escalations.
    let plan = Arc::new(
        FaultPlan::new(42)
            .nth(FaultSite::DirectedPanic, Some(PANIC_JOB as u32), 1)
            .nth(FaultSite::DirectedHang, Some(FAULTED_JOB as u32), 1),
    );
    let options = BatchOptions {
        workers,
        faults: Some(plan),
        watchdog: Some(WatchdogConfig::with_quiet(Duration::from_secs(1))),
        ..BatchOptions::default()
    };
    run_batch(
        &corpus_jobs(),
        &PipelineConfig::default(),
        &options,
        &NullSink,
    )
}

#[test]
fn injected_panic_and_hang_leave_the_other_verdicts_byte_identical() {
    let golden_lines = job_lines(GOLDEN);
    assert_eq!(golden_lines.len(), 15, "corpus golden changed shape?");
    for workers in [1usize, 2, 8] {
        let report = run_chaos(workers);
        assert_eq!(report.entries.len(), 15);

        // The panicking job degrades to an Internal verdict with a
        // synthesized post-mortem; the wedged job is escalated to Hung.
        match &report.entries[PANIC_JOB].report.verdict {
            Verdict::Failure {
                reason: FailureReason::Internal { panic_msg },
            } => assert!(panic_msg.contains("injected panic"), "{panic_msg}"),
            other => panic!("workers={workers}: expected Internal, got {other:?}"),
        }
        assert_eq!(
            report.entries[PANIC_JOB]
                .report
                .post_mortem
                .as_ref()
                .expect("panic post-mortem")
                .event,
            "panic"
        );
        assert!(matches!(
            report.entries[FAULTED_JOB].report.verdict,
            Verdict::Failure {
                reason: FailureReason::Hung
            }
        ));
        assert_eq!(report.quarantined, vec![PANIC_JOB, FAULTED_JOB]);

        // Every *other* job's stable line is byte-identical to the
        // fault-free golden run — fault isolation, not fault tolerance.
        let lines = job_lines(&report.render_verdicts_json());
        assert_eq!(lines.len(), 15);
        for (i, (got, want)) in lines.iter().zip(golden_lines.iter()).enumerate() {
            if i == PANIC_JOB || i == FAULTED_JOB {
                continue;
            }
            assert_eq!(got, want, "workers={workers}: job {i} drifted");
        }

        // The faults fired after prepare, so the cache statistics match
        // the fault-free run (10 distinct prefixes, 5 collapsed jobs).
        assert_eq!(report.cache.misses, 10, "workers={workers}");
        assert_eq!(report.cache.hits, 5, "workers={workers}");
        // At least the wedged job escalates. An escalation can also
        // harmlessly land on a healthy job inside a phase that does not
        // poll its token (e.g. the concrete P4 replay) — such a job
        // finishes normally, so only the wedge reports `Hung`.
        assert!(
            report
                .metrics
                .get_counter("batch_watchdog_fired_total")
                .expect("registered")
                .get()
                >= 1,
            "workers={workers}: the wedged job must escalate"
        );
        let hung = report
            .entries
            .iter()
            .filter(|e| {
                matches!(
                    e.report.verdict,
                    Verdict::Failure {
                        reason: FailureReason::Hung
                    }
                )
            })
            .count();
        assert_eq!(hung, 1, "workers={workers}: only the wedge hangs");
    }
}

#[test]
fn same_plan_seed_replays_byte_identical() {
    // The acceptance criterion: two runs with the same FaultPlan seed
    // produce byte-identical stable report JSON.
    let first = run_chaos(2).render_verdicts_json();
    let second = run_chaos(2).render_verdicts_json();
    assert_eq!(first, second);
}

#[test]
fn committed_fault_plan_matches_the_chaos_golden() {
    // The exact artifact CI runs: the committed plan file through the
    // corpus, diffed against the committed chaos golden.
    let plan = FaultPlan::parse_json(PLAN).expect("committed plan parses");
    assert_eq!(plan.render_json().trim(), PLAN.trim(), "plan round-trips");
    let options = BatchOptions {
        workers: 4,
        faults: Some(Arc::new(plan)),
        ..BatchOptions::default()
    };
    let report = run_batch(
        &corpus_jobs(),
        &PipelineConfig::default(),
        &options,
        &NullSink,
    );
    assert_eq!(report.render_verdicts_json(), CHAOS_GOLDEN);
    assert_eq!(report.quarantined, vec![PANIC_JOB, FAULTED_JOB]);
}

/// Satellite: the `store-rename` fault site dies between the temp-file
/// write and the atomic rename — the blob is never published. The batch
/// must not notice (verdicts golden), the orphan temp must be left on
/// disk for `gc` to sweep, and a second run over the same cache
/// directory must heal the hole.
#[test]
fn store_rename_fault_leaves_orphan_temp_and_golden_verdicts() {
    let dir = std::env::temp_dir().join(format!("octopocs-chaos-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Job 2's first disk publish dies between temp write and rename.
    // Job 2 (idx03) shares its prefix with no other corpus job, so it is
    // always the job that publishes it; a job whose prefix another job
    // shares may lose the single-flight race and never publish.
    let plan = Arc::new(FaultPlan::new(9).nth(FaultSite::StoreRename, Some(2), 1));
    let options = BatchOptions {
        workers: 2,
        faults: Some(plan),
        cache_dir: Some(dir.clone()),
        ..BatchOptions::default()
    };
    let report = run_batch(
        &corpus_jobs(),
        &PipelineConfig::default(),
        &options,
        &NullSink,
    );
    assert_eq!(
        report.render_verdicts_json(),
        GOLDEN,
        "a dropped blob publish must never change a verdict"
    );
    let disk = report.disk.as_ref().expect("disk stats present");
    assert!(!disk.degraded, "a skipped rename is not an I/O failure");

    // The orphan temp file survives under shards/.
    let orphans = count_files(&dir.join("shards"), |name| name.contains(".tmp-"));
    assert_eq!(orphans, 1, "exactly one orphan temp expected");

    // A clean second run heals: the unpublished key misses, recomputes,
    // republishes; every published blob hits. Verdicts stay golden.
    let options = BatchOptions {
        workers: 2,
        cache_dir: Some(dir.clone()),
        ..BatchOptions::default()
    };
    let report = run_batch(
        &corpus_jobs(),
        &PipelineConfig::default(),
        &options,
        &NullSink,
    );
    assert_eq!(report.render_verdicts_json(), GOLDEN);
    let disk = report.disk.as_ref().expect("disk stats present");
    assert_eq!(disk.corrupt, 0, "an orphan temp is not corruption");
    assert_eq!(disk.misses, 1, "only the unpublished key misses");
    assert_eq!(disk.writes, 1, "the hole is re-written");
    assert_eq!(disk.entries, 10, "all 10 distinct prefixes published");

    // gc sweeps the orphan.
    let store = octopocs::BlobStore::open(&dir);
    let swept = store.gc(None, None).temps_swept;
    assert_eq!(swept, 1, "gc sweeps the orphan temp");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Recursively counts files under `root` whose name matches `pred`.
fn count_files(root: &std::path::Path, pred: fn(&str) -> bool) -> usize {
    let mut n = 0;
    let Ok(entries) = std::fs::read_dir(root) else {
        return 0;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            n += count_files(&path, pred);
        } else if path.file_name().and_then(|s| s.to_str()).is_some_and(pred) {
            n += 1;
        }
    }
    n
}

/// Satellite: SIGKILL a batch mid-run with a live `--cache-dir` — no
/// chance to flush the index or finish in-flight temp writes — then
/// restart on the same directory. The restart must not panic, must
/// treat whatever the kill left behind as a quarantine or a clean miss
/// (never an error), and must produce the golden verdict bytes.
#[test]
fn sigkilled_batch_restarts_clean_on_the_same_cache_dir() {
    use std::process::{Command, Stdio};

    let dir = std::env::temp_dir().join(format!("octopocs-chaos-kill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("workdir");
    let cache = dir.join("cache");

    let mut child = Command::new(bin_path("octopocs"))
        .args(["batch", "--corpus", "--workers", "2", "--verdicts-json"])
        .args(["--cache-dir", cache.to_str().expect("utf8 path")])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn batch");
    // Let it get partway into the corpus (and into disk writes), then
    // kill it where it stands. If the batch outran the sleep, the kill
    // is a no-op and the restart is simply a warm run.
    std::thread::sleep(Duration::from_millis(300));
    let _ = child.kill();
    let _ = child.wait();

    let output = Command::new(bin_path("octopocs"))
        .args(["batch", "--corpus", "--workers", "2", "--verdicts-json"])
        .args(["--cache-dir", cache.to_str().expect("utf8 path")])
        .output()
        .expect("restart batch");
    assert_eq!(
        output.status.code(),
        Some(0),
        "restart on a torn cache dir must exit cleanly; stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&output.stdout),
        GOLDEN,
        "restart verdicts drifted from the golden"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn retry_rescues_the_one_shot_fault_but_not_the_persistent_one() {
    // Under the committed plan, the panic is Nth(1) — consumed by the
    // first attempt, so a retry runs clean — while the solver poisoning
    // is probability 1.0 and survives every attempt.
    let plan = FaultPlan::parse_json(PLAN).expect("committed plan parses");
    let options = BatchOptions {
        workers: 4,
        faults: Some(Arc::new(plan)),
        retry: RetryPolicy {
            max_attempts: 2,
            base_backoff: Duration::ZERO,
            jitter_seed: 7,
        },
        ..BatchOptions::default()
    };
    let report = run_batch(
        &corpus_jobs(),
        &PipelineConfig::default(),
        &options,
        &NullSink,
    );

    let rescued = &report.entries[PANIC_JOB];
    assert_eq!(rescued.report.attempts, 2);
    assert!(!rescued.quarantined);
    let golden_lines = job_lines(GOLDEN);
    // The rescued job recovers its fault-free verdict (the stable line
    // differs only in the attempt count).
    assert_eq!(
        job_lines(&report.render_verdicts_json())[PANIC_JOB]
            .replace("\"attempts\":2", "\"attempts\":1"),
        golden_lines[PANIC_JOB]
    );

    let poisoned = &report.entries[FAULTED_JOB];
    assert_eq!(poisoned.report.attempts, 2);
    assert!(poisoned.quarantined);
    assert!(matches!(
        poisoned.report.verdict,
        Verdict::Failure {
            reason: FailureReason::Injected {
                site: "solver-solve"
            }
        }
    ));
    assert_eq!(report.quarantined, vec![FAULTED_JOB]);
    assert_eq!(
        report
            .metrics
            .get_counter("batch_retries_total")
            .expect("registered")
            .get(),
        2,
        "both faulted jobs spent their one retry"
    );
}
