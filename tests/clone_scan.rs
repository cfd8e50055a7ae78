//! End-to-end clone scanning over the Table II corpus: the scan must
//! *rediscover* every pair's shared set ℓ (the paper takes ℓ as input;
//! `octo-clone` derives it), the expanded batch's true-pair verdicts
//! must be byte-identical to the known-ℓ golden verdicts, and the
//! candidate document must be deterministic at any worker count (CI
//! diffs it against `tests/golden/clone_candidates.json`).

mod common;

use std::collections::BTreeSet;
use std::process::Command;

use octo_clone::CloneParams;
use octo_corpus::all_pairs;
use octo_sched::NullSink;
use octopocs::batch::{run_batch, BatchJob, BatchOptions};
use octopocs::{corpus_scan_inputs, expand_scan, run_scan, PipelineConfig};

use common::bin_path;

const GOLDEN_CANDIDATES: &str = include_str!("golden/clone_candidates.json");
const GOLDEN_VERDICTS: &str = include_str!("golden/batch_verdicts.json");

#[test]
fn corpus_scan_rediscovers_every_shared_set() {
    let (sources, targets) = corpus_scan_inputs();
    let expansion = expand_scan(&sources, &targets, &CloneParams::default());
    for pair in all_pairs() {
        let name = pair.display_name();
        let job = expansion
            .jobs
            .iter()
            .find(|j| j.name == format!("{name} => {name}"))
            .unwrap_or_else(|| panic!("true pair {name} not expanded — recall broken"));
        let discovered: BTreeSet<&str> = job.shared.iter().map(String::as_str).collect();
        let expected: BTreeSet<&str> = pair.shared.iter().map(String::as_str).collect();
        assert_eq!(
            discovered, expected,
            "{name}: discovered ℓ differs from the curated shared set"
        );
    }
}

#[test]
fn corpus_scan_candidates_match_the_golden_file() {
    let (sources, targets) = corpus_scan_inputs();
    let expansion = expand_scan(&sources, &targets, &CloneParams::default());
    assert_eq!(
        expansion.render_candidates_json(),
        GOLDEN_CANDIDATES,
        "retrieval drifted — regenerate tests/golden/clone_candidates.json \
         (octopocs scan --corpus --candidates-json) and review the diff"
    );
    // The corpus's cross-pair source sharing shows up as off-diagonal
    // expanded jobs: 31 in total for 15 true pairs.
    assert_eq!(expansion.jobs.len(), 31, "expansion shape changed");
}

#[test]
fn scan_verdicts_on_true_pairs_are_byte_identical_to_known_shared_golden() {
    let (sources, targets) = corpus_scan_inputs();
    let config = PipelineConfig::default();
    let report = run_scan(
        &sources,
        &targets,
        &CloneParams::default(),
        &config,
        &BatchOptions {
            workers: 4,
            ..BatchOptions::default()
        },
        &NullSink,
    );
    // Index the scan's verdict lines by job name. The golden file's
    // lines carry the bare pair name; the scan names jobs
    // "{source} => {target}", so the diagonal lines must match the
    // golden byte-for-byte once the name prefix is accounted for.
    let strip = |line: &str| line.trim_end_matches(',').to_string();
    let scan_json = report.batch.render_verdicts_json();
    let mut scan_lines: Vec<String> = Vec::new();
    for line in scan_json.lines() {
        if let Some(rest) = line.strip_prefix("{\"name\":\"") {
            if let Some((name, tail)) = rest.split_once("\",\"verdict\"") {
                if let Some((src, tgt)) = name.split_once(" => ") {
                    if src == tgt {
                        scan_lines.push(strip(&format!("{{\"name\":\"{src}\",\"verdict\"{tail}")));
                    }
                }
            }
        }
    }
    let golden_lines: Vec<String> = GOLDEN_VERDICTS
        .lines()
        .filter(|l| l.starts_with("{\"name\":\""))
        .map(strip)
        .collect();
    assert_eq!(golden_lines.len(), 15);
    assert_eq!(
        scan_lines, golden_lines,
        "true-pair verdicts diverge from the known-ℓ golden"
    );
}

#[test]
fn scan_off_diagonal_jobs_agree_with_direct_batch() {
    // Every expanded job — diagonal or not — must verify exactly as a
    // hand-built batch job with the same discovered shared set would.
    let (sources, targets) = corpus_scan_inputs();
    let params = CloneParams::default();
    let config = PipelineConfig::default();
    let expansion = expand_scan(&sources, &targets, &params);
    let off_diag: Vec<BatchJob> = expansion
        .jobs
        .iter()
        .filter(|j| {
            let (src, tgt) = j.name.split_once(" => ").expect("scan job name");
            src != tgt
        })
        .take(4)
        .cloned()
        .collect();
    assert!(!off_diag.is_empty(), "corpus has off-diagonal clones");
    let direct = run_batch(&off_diag, &config, &BatchOptions::default(), &NullSink);
    let scanned = run_scan(
        &sources,
        &targets,
        &params,
        &config,
        &BatchOptions::default(),
        &NullSink,
    );
    for job in &off_diag {
        let a = direct
            .entries
            .iter()
            .find(|e| e.name == job.name)
            .expect("direct entry");
        let b = scanned
            .batch
            .entries
            .iter()
            .find(|e| e.name == job.name)
            .expect("scanned entry");
        assert_eq!(
            a.report.verdict.type_label(),
            b.report.verdict.type_label(),
            "{}",
            job.name
        );
    }
}

#[test]
fn cli_scan_corpus_candidates_are_deterministic_across_workers() {
    let cli = bin_path("octopocs");
    let dir = std::env::temp_dir().join(format!("octopocs-scan-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("workdir");
    let mut docs = Vec::new();
    for workers in ["1", "2", "8"] {
        let path = dir.join(format!("cand_{workers}.json"));
        let output = Command::new(&cli)
            .args([
                "scan",
                "--corpus",
                "--workers",
                workers,
                "--verdicts-json",
                "--candidates-json",
                path.to_str().expect("utf8"),
            ])
            .output()
            .expect("spawn cli");
        assert_eq!(
            output.status.code(),
            Some(0),
            "stderr: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        docs.push(std::fs::read_to_string(&path).expect("candidates written"));
    }
    assert_eq!(docs[0], GOLDEN_CANDIDATES, "CLI output drifted from golden");
    assert_eq!(docs[0], docs[1], "worker count changed the candidates");
    assert_eq!(docs[0], docs[2], "worker count changed the candidates");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_clone_and_canonical_lint_work_on_files() {
    use octo_ir::printer::print_program;
    let cli = bin_path("octopocs");
    let dir = std::env::temp_dir().join(format!("octopocs-clone-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("workdir");
    let pair = all_pairs().into_iter().next().expect("idx1");
    let s_path = dir.join("s.mir");
    let t_path = dir.join("t.mir");
    std::fs::write(&s_path, print_program(&pair.s)).expect("write s");
    std::fs::write(&t_path, print_program(&pair.t)).expect("write t");

    // clone: the shared function is found, exit code 0.
    let output = Command::new(&cli)
        .args([
            "clone",
            "--s",
            s_path.to_str().expect("utf8"),
            "--t",
            t_path.to_str().expect("utf8"),
            "--json",
        ])
        .output()
        .expect("spawn cli");
    assert_eq!(
        output.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    for shared in &pair.shared {
        assert!(
            stdout.contains(&format!("\"s_func\":\"{shared}\"")),
            "{stdout}"
        );
    }

    // lint --canonical: prints a canonical program that is a parseable
    // fixed point.
    let output = Command::new(&cli)
        .args(["lint", t_path.to_str().expect("utf8"), "--canonical"])
        .output()
        .expect("spawn cli");
    assert_eq!(output.status.code(), Some(0));
    let canon_text = String::from_utf8(output.stdout).expect("utf8");
    let reparsed = octo_ir::parse::parse_program(&canon_text).expect("canonical text parses");
    assert_eq!(
        octo_ir::printer::print_program_canonical(&reparsed),
        canon_text,
        "canonical print must be a fixed point"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
