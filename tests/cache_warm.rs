//! Warm-start suite for the disk-backed artifact cache (`octo-store`):
//! a second corpus run over the same `--cache-dir` must produce
//! byte-identical verdicts with a ≥ 90% prepare-phase hit rate, and an
//! unusable cache directory must degrade the whole run to memory-only —
//! exit 0, all verdicts intact, one warning.

mod common;

use std::path::{Path, PathBuf};
use std::process::Command;

use common::bin_path;

/// The fault-free corpus verdicts CI pins (`tests/golden/batch_verdicts.json`).
const GOLDEN: &str = include_str!("golden/batch_verdicts.json");

fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("octopocs-warm-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("workdir");
    dir
}

/// Runs `octopocs batch --corpus --verdicts-json --cache-dir <cache>`,
/// dumping metrics beside it. Returns (exit code, stdout, stderr).
fn run_batch(cache: &Path, metrics: &Path) -> (i32, String, String) {
    let output = Command::new(bin_path("octopocs"))
        .args(["batch", "--corpus", "--workers", "2", "--verdicts-json"])
        .args(["--cache-dir", cache.to_str().expect("utf8 path")])
        .args(["--metrics-json", metrics.to_str().expect("utf8 path")])
        .output()
        .expect("spawn batch");
    (
        output.status.code().expect("batch exit code"),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

/// Pulls one counter/gauge value out of the metrics JSON dump.
fn metric(metrics_json: &str, name: &str) -> u64 {
    let tag = format!("\"name\":\"{name}\",");
    let line = metrics_json
        .lines()
        .find(|l| l.contains(&tag))
        .unwrap_or_else(|| panic!("metric {name} missing from dump"));
    let at = line.find("\"value\":").expect("value field") + "\"value\":".len();
    line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("integer metric value")
}

/// Cold run fills the store, warm run reads it back: verdict bytes are
/// identical to the golden both times, and the warm run's prepare-phase
/// hit rate (memory + disk hits over jobs) is at least 90%.
#[test]
fn warm_run_is_byte_identical_with_high_hit_rate() {
    let dir = workdir("golden");
    let cache = dir.join("cache");

    let (code, cold, stderr) = run_batch(&cache, &dir.join("cold.json"));
    assert_eq!(code, 0, "cold run failed: {stderr}");
    assert_eq!(cold, GOLDEN, "cold verdicts drifted from the golden");
    let cold_metrics = std::fs::read_to_string(dir.join("cold.json")).expect("cold metrics");
    assert_eq!(
        metric(&cold_metrics, "cache_disk_hits_total"),
        0,
        "an empty store cannot hit"
    );
    assert_eq!(
        metric(&cold_metrics, "cache_disk_writes_total"),
        10,
        "every distinct prefix is published once"
    );

    let (code, warm, stderr) = run_batch(&cache, &dir.join("warm.json"));
    assert_eq!(code, 0, "warm run failed: {stderr}");
    assert_eq!(warm, cold, "warm verdicts must be byte-identical");
    let warm_metrics = std::fs::read_to_string(dir.join("warm.json")).expect("warm metrics");
    let disk_hits = metric(&warm_metrics, "cache_disk_hits_total");
    let mem_hits = metric(&warm_metrics, "cache_hits_total");
    let jobs = metric(&warm_metrics, "batch_jobs_total");
    assert_eq!(jobs, 15);
    assert!(
        (mem_hits + disk_hits) * 10 >= jobs * 9,
        "prepare-phase hit rate below 90%: {mem_hits} memory + {disk_hits} disk of {jobs}"
    );
    assert_eq!(disk_hits, 10, "every distinct prefix comes off disk warm");
    assert_eq!(
        metric(&warm_metrics, "cache_disk_corrupt_total"),
        0,
        "a clean store has nothing to quarantine"
    );
    assert_eq!(metric(&warm_metrics, "cache_disk_degraded"), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// An unusable `--cache-dir` (a regular file where the directory should
/// be) degrades the run to memory-only: exit 0, golden verdicts, the
/// degraded gauge set, and a single stderr warning.
#[test]
fn unusable_cache_dir_degrades_to_memory_only() {
    let dir = workdir("degrade");
    let blocker = dir.join("not-a-dir");
    std::fs::write(&blocker, b"occupied").expect("blocker file");

    let (code, stdout, stderr) = run_batch(&blocker, &dir.join("metrics.json"));
    assert_eq!(code, 0, "degraded run must still exit 0: {stderr}");
    assert_eq!(stdout, GOLDEN, "all 15 verdicts intact without the disk");
    let metrics = std::fs::read_to_string(dir.join("metrics.json")).expect("metrics");
    assert_eq!(metric(&metrics, "cache_disk_degraded"), 1);
    assert_eq!(metric(&metrics, "cache_disk_hits_total"), 0);
    assert_eq!(metric(&metrics, "cache_disk_writes_total"), 0);
    assert!(
        stderr.contains("degrad"),
        "one-time degrade warning missing: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Flip one bit in one published blob: `octopocs cache verify` reports
/// exactly that entry as corrupt (exit 1), and the next batch over the
/// same directory quarantines it, recomputes, and still matches the
/// golden — corruption can never change a verdict.
#[test]
fn bit_flipped_blob_is_quarantined_and_verdicts_hold() {
    let dir = workdir("bitflip");
    let cache = dir.join("cache");

    let (code, _, stderr) = run_batch(&cache, &dir.join("m0.json"));
    assert_eq!(code, 0, "cold run failed: {stderr}");

    // Flip a payload bit in the lexicographically first blob.
    let blob = first_blob(&cache.join("shards")).expect("a published blob");
    let mut bytes = std::fs::read(&blob).expect("read blob");
    let at = bytes.len() - 1;
    bytes[at] ^= 0x10;
    std::fs::write(&blob, &bytes).expect("write flipped blob");

    let verify = Command::new(bin_path("octopocs"))
        .args(["cache", "verify", "--cache-dir"])
        .arg(&cache)
        .output()
        .expect("spawn cache verify");
    assert_eq!(
        verify.status.code(),
        Some(1),
        "verify must fail on a corrupt store"
    );
    let report = String::from_utf8_lossy(&verify.stdout);
    assert_eq!(
        report.lines().filter(|l| l.starts_with("corrupt:")).count(),
        1,
        "exactly one corrupt entry: {report}"
    );

    let (code, stdout, stderr) = run_batch(&cache, &dir.join("m1.json"));
    assert_eq!(code, 0, "post-corruption run failed: {stderr}");
    assert_eq!(stdout, GOLDEN, "corruption changed a verdict");
    let metrics = std::fs::read_to_string(dir.join("m1.json")).expect("metrics");
    assert_eq!(metric(&metrics, "cache_disk_corrupt_total"), 1);
    assert_eq!(metric(&metrics, "cache_disk_quarantined_total"), 1);
    assert_eq!(
        metric(&metrics, "cache_disk_writes_total"),
        1,
        "the quarantined key is recomputed and re-published"
    );
    let quarantined = std::fs::read_dir(cache.join("quarantine"))
        .expect("quarantine dir")
        .count();
    assert_eq!(quarantined, 1, "the bad blob moved to quarantine/");
    let _ = std::fs::remove_dir_all(&dir);
}

/// First `.blob` file under `root`, in sorted walk order.
fn first_blob(root: &Path) -> Option<PathBuf> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(root)
        .ok()?
        .flatten()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for entry in entries {
        if entry.is_dir() {
            if let Some(found) = first_blob(&entry) {
                return Some(found);
            }
        } else if entry.extension().is_some_and(|e| e == "blob") {
            return Some(entry);
        }
    }
    None
}
