//! End-to-end service suite: a real `octopocsd` subprocess, driven
//! through the `octopocs` client subcommands and the `octo_serve`
//! client library, must reproduce the Table II golden verdicts at every
//! worker count, converge to the same bytes after being killed
//! mid-batch and restarted on its journal, refuse submissions over
//! capacity with an explicit rejection (never a hang), and honour the
//! drain signals and numeric-flag validation of `octopocs batch`.

mod common;

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use octo_serve::{Client, Endpoint, Request, Response};

use common::bin_path;

/// The golden corpus verdicts (also pinned by `batch_golden.rs`).
const GOLDEN: &str = include_str!("golden/batch_verdicts.json");

/// The pinned metric catalogue (also pinned by `metrics_golden.rs`);
/// every `/metrics` scrape must expose exactly this key set.
const METRICS_SCHEMA: &str = include_str!("golden/metrics_schema.txt");

/// A fault plan that wedges every job's directed engine (cancellable,
/// never progressing) — the deterministic way to keep a worker busy.
const HANG_PLAN: &str = "{\"seed\":1,\"rules\":[{\"site\":\"directed-hang\",\"nth\":1}]}";

/// A scratch directory holding the daemon's socket and journal.
fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("octopocs-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("workdir");
    dir
}

/// Starts `octopocsd` in `dir` and waits until its socket accepts
/// connections.
// The child is returned to the caller, which always kills or waits it;
// the lint cannot see ownership escaping through the poll loop.
#[allow(clippy::zombie_processes)]
fn start_daemon(dir: &Path, extra: &[&str]) -> (Child, PathBuf) {
    let socket = dir.join("d.sock");
    let mut child = Command::new(bin_path("octopocsd"))
        .current_dir(dir)
        .args(["--socket", "d.sock", "--journal", "d.journal"])
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn octopocsd");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if Client::connect(&Endpoint::Unix(socket.clone())).is_ok() {
            return (child, socket);
        }
        if let Ok(Some(status)) = child.try_wait() {
            panic!("daemon exited before it listened: {status}");
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("daemon never came up");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Runs an `octopocs` client subcommand against `socket`, returning
/// (exit code, stdout, stderr).
fn client(socket: &Path, args: &[&str]) -> (i32, String, String) {
    let output = Command::new(bin_path("octopocs"))
        .args(args)
        .args(["--socket", socket.to_str().expect("utf8 socket path")])
        .output()
        .expect("spawn octopocs client");
    (
        output.status.code().expect("client exit code"),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

fn queue_status(socket: &Path) -> octo_serve::QueueStatus {
    let mut c = Client::connect(&Endpoint::Unix(socket.to_path_buf())).expect("connect");
    match c.request(&Request::Status { id: None }).expect("status") {
        Response::Status(s) => s,
        other => panic!("unexpected status reply: {other:?}"),
    }
}

/// Corpus → daemon → golden verdicts, at 1, 2 and 8 workers. The
/// verdicts document must be byte-identical to the batch golden — the
/// daemon is just another route to the same engine.
#[test]
fn daemon_reproduces_golden_verdicts_across_worker_counts() {
    for workers in [1usize, 2, 8] {
        let dir = workdir(&format!("golden{workers}"));
        let (mut child, socket) = start_daemon(&dir, &["--workers", &workers.to_string()]);

        let (code, stdout, stderr) = client(&socket, &["submit", "--corpus"]);
        assert_eq!(code, 0, "submit failed: {stderr}");
        assert_eq!(
            stdout
                .lines()
                .filter(|l| l.starts_with("accepted "))
                .count(),
            15,
            "expected 15 accepted jobs: {stdout}"
        );

        let (code, verdicts, stderr) = client(&socket, &["results", "--wait", "--verdicts-json"]);
        assert_eq!(code, 0, "results failed: {stderr}");
        assert_eq!(
            verdicts, GOLDEN,
            "daemon verdicts drifted from the golden at {workers} worker(s)"
        );

        let (code, _, stderr) = client(&socket, &["drain"]);
        assert_eq!(code, 0, "drain failed: {stderr}");
        let status = child.wait().expect("daemon exit");
        assert_eq!(status.code(), Some(0), "daemon should exit cleanly");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Kill the daemon mid-batch (SIGKILL — no chance to flush anything
/// beyond what the journal already holds), restart it on the same
/// journal, and the finished document must still be byte-identical:
/// replay resubmits exactly the incomplete jobs under their original
/// ids.
#[test]
fn killed_daemon_replays_journal_and_converges() {
    let dir = workdir("replay");
    let (mut child, socket) = start_daemon(&dir, &["--workers", "1"]);

    let (code, _, stderr) = client(&socket, &["submit", "--corpus"]);
    assert_eq!(code, 0, "submit failed: {stderr}");

    // Wait until at least 3 verdicts are journaled, then kill the
    // daemon where it stands (best effort mid-batch; if the corpus
    // outran the poll, replay is simply a no-op and the bytes must
    // still match).
    let deadline = Instant::now() + Duration::from_secs(60);
    while queue_status(&socket).done < 3 {
        assert!(Instant::now() < deadline, "no progress before kill");
        std::thread::sleep(Duration::from_millis(5));
    }
    child.kill().expect("SIGKILL daemon");
    child.wait().expect("reap daemon");

    let (mut child, socket) = start_daemon(&dir, &["--workers", "2"]);
    let (code, verdicts, stderr) = client(&socket, &["results", "--wait", "--verdicts-json"]);
    assert_eq!(code, 0, "results failed: {stderr}");
    assert_eq!(
        verdicts, GOLDEN,
        "journal replay did not converge to the golden verdicts"
    );

    let (code, _, stderr) = client(&socket, &["drain"]);
    assert_eq!(code, 0, "drain failed: {stderr}");
    assert_eq!(child.wait().expect("daemon exit").code(), Some(0));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A torn final journal line (a daemon died mid-append) is cut off at
/// the next start, so the records appended after it replay after a
/// second kill. SIGKILL, not drain: a drain's compaction rewrites the
/// file.
#[test]
fn jobs_appended_after_a_torn_journal_tail_replay() {
    let dir = workdir("torn");
    let torn = "{\"journal\":\"verdict\",\"id\":1,\"verd";
    std::fs::write(dir.join("d.journal"), torn).expect("write torn journal");
    let (mut child, socket) = start_daemon(&dir, &["--workers", "2"]);
    let (code, _, stderr) = client(&socket, &["submit", "--corpus"]);
    assert_eq!(code, 0, "submit failed: {stderr}");
    let (code, _, stderr) = client(&socket, &["results", "--wait"]);
    assert_eq!(code, 0, "results failed: {stderr}");
    child.kill().expect("SIGKILL daemon");
    child.wait().expect("reap daemon");

    let (mut child, socket) = start_daemon(&dir, &["--workers", "2"]);
    let (code, verdicts, stderr) = client(&socket, &["results", "--wait", "--verdicts-json"]);
    assert_eq!(code, 0, "results failed: {stderr}");
    assert_eq!(
        verdicts, GOLDEN,
        "replay lost jobs appended after the torn tail"
    );
    let (code, _, stderr) = client(&socket, &["drain"]);
    assert_eq!(code, 0, "drain failed: {stderr}");
    assert_eq!(child.wait().expect("daemon exit").code(), Some(0));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite: an orderly drain compacts the journal. After a full
/// corpus run every job has a verdict, so the compacted journal is
/// empty, and a restart on it replays nothing.
#[test]
fn drained_daemon_compacts_its_journal() {
    let dir = workdir("compact");
    let (mut child, socket) = start_daemon(&dir, &["--workers", "2"]);

    let (code, _, stderr) = client(&socket, &["submit", "--corpus"]);
    assert_eq!(code, 0, "submit failed: {stderr}");
    let (code, verdicts, stderr) = client(&socket, &["results", "--wait", "--verdicts-json"]);
    assert_eq!(code, 0, "results failed: {stderr}");
    assert_eq!(verdicts, GOLDEN);

    let journal = dir.join("d.journal");
    let before = std::fs::metadata(&journal).expect("journal exists").len();
    assert!(before > 0, "15 jobs + 15 verdicts were journaled");

    let (code, _, stderr) = client(&socket, &["drain"]);
    assert_eq!(code, 0, "drain failed: {stderr}");
    assert_eq!(child.wait().expect("daemon exit").code(), Some(0));
    let after = std::fs::metadata(&journal).expect("journal exists").len();
    assert_eq!(
        after, 0,
        "everything finished, so the compacted journal is empty (was {before} bytes)"
    );

    // Restart on the compacted journal: nothing is restored, nothing
    // is resubmitted.
    let (mut child, socket) = start_daemon(&dir, &["--workers", "1"]);
    let status = queue_status(&socket);
    assert_eq!(status.done, 0, "no finished jobs restored");
    assert_eq!(
        status.queued_interactive + status.queued_bulk + status.running,
        0,
        "no incomplete jobs resubmitted"
    );
    let (code, _, stderr) = client(&socket, &["drain"]);
    assert_eq!(code, 0, "drain failed: {stderr}");
    assert_eq!(child.wait().expect("daemon exit").code(), Some(0));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Backpressure is explicit: with one worker wedged on a hanging job
/// and a capacity-1 queue, the third submission is answered with a
/// `rejected` line (exit 1) — the client is never left hanging.
#[test]
fn full_queue_submission_is_rejected_not_hung() {
    let dir = workdir("backpressure");
    std::fs::write(dir.join("hang.json"), HANG_PLAN).expect("write plan");
    let (mut child, socket) = start_daemon(
        &dir,
        &[
            "--workers",
            "1",
            "--capacity",
            "1",
            "--fault-plan",
            "hang.json",
        ],
    );

    // Job 1 wedges the only worker; job 2 fills the queue.
    let submit_one = |tag: &str| {
        let mut c = Client::connect(&Endpoint::Unix(socket.clone())).expect("connect");
        let job = octo_serve::JobSpec::from_job(
            &octo_corpus::all_pairs()
                .into_iter()
                .map(|p| octopocs::BatchJob {
                    name: format!("{tag} {}", p.display_name()),
                    s: p.s,
                    t: p.t,
                    poc: p.poc,
                    shared: p.shared,
                })
                .next()
                .expect("corpus pair"),
            octo_serve::Priority::Bulk,
        );
        c.request(&Request::Submit { job }).expect("submit reply")
    };
    assert!(matches!(submit_one("a"), Response::Accepted { id: 1 }));
    // Wait for the worker to pick job 1 up so the queue is truly empty.
    let deadline = Instant::now() + Duration::from_secs(30);
    while queue_status(&socket).running < 1 {
        assert!(Instant::now() < deadline, "worker never started the job");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(matches!(submit_one("b"), Response::Accepted { id: 2 }));
    match submit_one("c") {
        Response::Rejected { reason } => {
            assert!(
                reason.contains("queue full"),
                "rejection should say the queue is full: {reason}"
            );
        }
        other => panic!("third submit should be rejected, got {other:?}"),
    }

    // Shutdown cancels the wedged job; the daemon still exits cleanly.
    let (code, stdout, stderr) = client(&socket, &["drain", "--shutdown"]);
    assert_eq!(code, 0, "shutdown failed: {stderr}");
    assert!(stdout.contains("shutting down"), "ack missing: {stdout}");
    assert_eq!(child.wait().expect("daemon exit").code(), Some(0));
    let _ = std::fs::remove_dir_all(&dir);
}

/// `watch` streams a job's events and ends with its verdict line.
#[test]
fn watch_streams_events_until_the_verdict() {
    let dir = workdir("watch");
    let (mut child, socket) = start_daemon(&dir, &["--workers", "1"]);

    let (code, _, stderr) = client(&socket, &["submit", "--corpus"]);
    assert_eq!(code, 0, "submit failed: {stderr}");
    let (code, stdout, stderr) = client(&socket, &["watch", "--id", "1"]);
    assert_eq!(code, 0, "watch failed: {stderr}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(!lines.is_empty());
    let last = Response::parse(lines.last().expect("last line")).expect("verdict line parses");
    assert!(
        matches!(&last, Response::Done { id: 1, .. }),
        "watch must end with the verdict: {last:?}"
    );

    // The daemon's metrics are fetchable over the wire and carry the
    // serve_* keys next to the engine's batch_* keys.
    let metrics_path = dir.join("metrics.json");
    let (code, _, stderr) = client(
        &socket,
        &[
            "status",
            "--metrics-json",
            metrics_path.to_str().expect("utf8"),
        ],
    );
    assert_eq!(code, 0, "status --metrics-json failed: {stderr}");
    let metrics = std::fs::read_to_string(&metrics_path).expect("metrics file");
    for key in [
        "serve_admissions_total",
        "serve_queue_depth_bulk",
        "serve_queue_depth_interactive",
        "serve_uptime_seconds",
        "serve_queue_wait_micros",
        "serve_rejections_total",
        "serve_replays_total",
        "batch_jobs_total",
    ] {
        assert!(metrics.contains(key), "metrics missing {key}");
    }

    let (code, _, stderr) = client(&socket, &["drain"]);
    assert_eq!(code, 0, "drain failed: {stderr}");
    assert_eq!(child.wait().expect("daemon exit").code(), Some(0));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Starts `octopocsd` with the octo-scope HTTP plane on an ephemeral
/// port and returns the bound address (scraped from the daemon's
/// startup banner).
#[allow(clippy::zombie_processes)]
fn start_daemon_http(dir: &Path, extra: &[&str]) -> (Child, PathBuf, String) {
    let socket = dir.join("d.sock");
    let banner = dir.join("stderr.log");
    let errlog = std::fs::File::create(&banner).expect("stderr log");
    let mut child = Command::new(bin_path("octopocsd"))
        .current_dir(dir)
        .args([
            "--socket",
            "d.sock",
            "--journal",
            "d.journal",
            "--http",
            "127.0.0.1:0",
        ])
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::from(errlog))
        .spawn()
        .expect("spawn octopocsd");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let log = std::fs::read_to_string(&banner).unwrap_or_default();
        let addr = log
            .lines()
            .find_map(|l| l.split("observability plane on http://").nth(1))
            .map(str::trim);
        if let Some(addr) = addr {
            if Client::connect(&Endpoint::Unix(socket.clone())).is_ok() {
                return (child, socket, addr.to_string());
            }
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("daemon (with --http) never came up; banner: {log:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The metric family names advertised by a Prometheus exposition body
/// (its `# TYPE` lines), in order — and, as a side effect, a validity
/// check: every sample line must belong to the family announced above
/// it.
fn prometheus_families(body: &str) -> Vec<String> {
    let mut families = Vec::new();
    let mut current = String::new();
    for line in body.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            current = rest
                .split_whitespace()
                .next()
                .unwrap_or_default()
                .to_string();
            assert!(!current.is_empty(), "empty TYPE line: {line:?}");
            families.push(current.clone());
        } else if !line.is_empty() && !line.starts_with('#') {
            let name = line
                .split(['{', ' '])
                .next()
                .expect("sample line has a name");
            assert!(
                name.starts_with(current.as_str()),
                "sample {name} outside its family {current}"
            );
            assert!(
                line.rsplit(' ').next().is_some_and(|v| !v.is_empty()),
                "sample line has no value: {line:?}"
            );
        }
    }
    families
}

fn schema_keys() -> Vec<&'static str> {
    METRICS_SCHEMA.lines().filter(|l| !l.is_empty()).collect()
}

/// Tentpole: a live daemon with `--http` serves the whole octo-scope
/// surface — health, the pinned-schema metrics, the job table, a
/// complete per-job timeline with monotonic timestamps, rate windows —
/// and answers malformed requests with structured 4xx while the JSON
/// protocol keeps working.
#[test]
fn http_plane_serves_metrics_jobs_and_timelines() {
    let dir = workdir("http");
    let (mut child, socket, addr) = start_daemon_http(&dir, &["--workers", "2"]);
    let get = |path: &str| {
        octo_serve::http_get(&addr, path, Duration::from_secs(10)).expect("http reachable")
    };

    let (status, body) = get("/healthz");
    assert_eq!((status, body.as_str()), (200, "{\"status\":\"ok\"}\n"));

    let (code, _, stderr) = client(&socket, &["submit", "--corpus"]);
    assert_eq!(code, 0, "submit failed: {stderr}");
    let (code, verdicts, stderr) = client(&socket, &["results", "--wait", "--verdicts-json"]);
    assert_eq!(code, 0, "results failed: {stderr}");
    assert_eq!(verdicts, GOLDEN, "verdicts drifted under --http");

    // /metrics: exactly the pinned schema, valid exposition format.
    let (status, body) = get("/metrics");
    assert_eq!(status, 200);
    assert_eq!(
        prometheus_families(&body),
        schema_keys(),
        "scraped key set drifted from tests/golden/metrics_schema.txt"
    );
    assert!(
        body.contains("octopocs_build_info{version=\""),
        "build info label missing: {body}"
    );

    // /jobs: queue summary plus all fifteen corpus jobs.
    let (status, body) = get("/jobs");
    assert_eq!(status, 200);
    let jobs = octo_serve::json::parse_json(&body).expect("jobs body parses");
    assert_eq!(
        jobs.get("queue")
            .and_then(|q| q.get("done"))
            .and_then(|v| v.as_u64()),
        Some(15),
        "{body}"
    );
    assert_eq!(
        jobs.get("jobs").and_then(|j| j.as_array()).map(<[_]>::len),
        Some(15),
        "{body}"
    );

    // /jobs/1: the full timeline — queue wait, at least one attempt,
    // the prepare phase span, strictly monotonic step timestamps.
    let (status, body) = get("/jobs/1");
    assert_eq!(status, 200);
    let timeline = octo_serve::json::parse_json(&body).expect("timeline parses");
    assert!(
        timeline
            .get("queue_wait_us")
            .and_then(|v| v.as_u64())
            .is_some(),
        "{body}"
    );
    assert!(
        timeline
            .get("finished_us")
            .and_then(|v| v.as_u64())
            .is_some(),
        "{body}"
    );
    let attempts = timeline
        .get("attempts")
        .and_then(|a| a.as_array())
        .expect("attempts array");
    assert_eq!(attempts.len(), 1, "healthy corpus job runs once: {body}");
    let steps = timeline
        .get("steps")
        .and_then(|s| s.as_array())
        .expect("steps array");
    assert!(!steps.is_empty(), "{body}");
    let mut last = 0u64;
    let mut phases = Vec::new();
    for step in steps {
        let at = step.get("at_us").and_then(|v| v.as_u64()).expect("at_us");
        assert!(
            at > last,
            "timeline steps must be strictly monotonic: {body}"
        );
        last = at;
        if step.get("step").and_then(|v| v.as_str()) == Some("phase") {
            phases.push(
                step.get("phase")
                    .and_then(|v| v.as_str())
                    .unwrap()
                    .to_string(),
            );
        }
    }
    assert!(
        phases.contains(&"prepare".to_string()),
        "prepare span missing from {phases:?}"
    );
    assert_eq!(
        steps
            .last()
            .and_then(|s| s.get("step"))
            .and_then(|v| v.as_str()),
        Some("finished"),
        "{body}"
    );

    // /metrics/rates: the sampler has been running since startup.
    let (status, body) = get("/metrics/rates");
    assert_eq!(status, 200);
    assert!(body.contains("\"windows\":["), "{body}");

    // `octopocs top` consumes the same windows end to end. The sampler
    // closes its first window about a second after boot, which a fast
    // corpus run may beat, so wait (bounded) until one exists.
    let deadline = Instant::now() + Duration::from_secs(10);
    while !get("/metrics/rates").1.contains("\"start_us\"") {
        assert!(
            Instant::now() < deadline,
            "no rate window 10 s after the corpus run"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    let top = Command::new(bin_path("octopocs"))
        .args(["top", "--http", &addr, "--json"])
        .output()
        .expect("spawn octopocs top");
    assert_eq!(
        top.status.code(),
        Some(0),
        "top failed: {}",
        String::from_utf8_lossy(&top.stderr)
    );
    let top_out = String::from_utf8_lossy(&top.stdout);
    assert!(top_out.contains("\"jobs_per_sec\":"), "{top_out}");
    assert!(top_out.contains("\"cache_hit_rate\":"), "{top_out}");

    // Structured 4xx, and the JSON protocol is unharmed afterwards.
    assert_eq!(get("/nope").0, 404);
    assert_eq!(get("/jobs/zzz").0, 400);
    assert!(
        get("/jobs/999").1.contains("\"error\""),
        "error body is JSON"
    );
    let status = queue_status(&socket);
    assert_eq!(status.done, 15, "JSON protocol must survive HTTP noise");

    let (code, _, stderr) = client(&socket, &["drain"]);
    assert_eq!(code, 0, "drain failed: {stderr}");
    assert_eq!(child.wait().expect("daemon exit").code(), Some(0));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite: concurrent `/metrics` scrapes while a corpus batch runs.
/// Every response must be complete, valid Prometheus exposition whose
/// key set matches the pinned schema — no torn writes, no partial
/// registries, no panics under scrape pressure.
#[test]
fn concurrent_scrapes_stay_complete_during_a_batch() {
    let dir = workdir("scrape");
    let (mut child, socket, addr) = start_daemon_http(&dir, &["--workers", "4"]);

    let (code, _, stderr) = client(&socket, &["submit", "--corpus"]);
    assert_eq!(code, 0, "submit failed: {stderr}");

    let done = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let scrapers: Vec<_> = (0..4)
        .map(|_| {
            let addr = addr.clone();
            let done = done.clone();
            std::thread::spawn(move || {
                let mut scrapes = 0usize;
                while !done.load(std::sync::atomic::Ordering::Relaxed) || scrapes == 0 {
                    let (status, body) =
                        octo_serve::http_get(&addr, "/metrics", Duration::from_secs(10))
                            .expect("scrape reachable");
                    assert_eq!(status, 200);
                    assert_eq!(
                        prometheus_families(&body),
                        schema_keys(),
                        "mid-batch scrape lost or gained keys"
                    );
                    assert!(body.ends_with('\n'), "scrape truncated");
                    scrapes += 1;
                }
                scrapes
            })
        })
        .collect();

    let (code, verdicts, stderr) = client(&socket, &["results", "--wait", "--verdicts-json"]);
    done.store(true, std::sync::atomic::Ordering::Relaxed);
    assert_eq!(code, 0, "results failed: {stderr}");
    assert_eq!(verdicts, GOLDEN, "verdicts drifted under scrape pressure");
    let total: usize = scrapers
        .into_iter()
        .map(|t| t.join().expect("scraper thread"))
        .sum();
    assert!(total >= 4, "every scraper completed at least one scrape");

    let (code, _, stderr) = client(&socket, &["drain"]);
    assert_eq!(code, 0, "drain failed: {stderr}");
    assert_eq!(child.wait().expect("daemon exit").code(), Some(0));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite: the first SIGTERM drains `octopocs batch` gracefully —
/// in-flight jobs wind down as cancelled, the partial report is still
/// written, and the exit code is 130.
#[test]
fn batch_drains_gracefully_on_sigterm() {
    let dir = workdir("sigterm");
    std::fs::write(dir.join("hang.json"), HANG_PLAN).expect("write plan");
    let child = Command::new(bin_path("octopocs"))
        .current_dir(&dir)
        .args([
            "batch",
            "--corpus",
            "--workers",
            "1",
            "--fault-plan",
            "hang.json",
            "--verdicts-json",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn batch");
    // Give the batch time to wedge on job 1, then ask it to drain.
    std::thread::sleep(Duration::from_millis(400));
    let term = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(term.success());
    let output = child.wait_with_output().expect("batch exit");
    assert_eq!(
        output.status.code(),
        Some(130),
        "drained batch must exit 130; stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("\"jobs\":["),
        "partial verdicts report missing: {stdout}"
    );
    assert!(
        String::from_utf8_lossy(&output.stderr).contains("drained by signal"),
        "drain notice missing"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// An idle daemon given one SIGTERM exits 130 within 10 s and removes
/// its socket file. The signal handler only fires the drain token, so
/// this runs through the socket server's one stop-token check, and the
/// HTTP plane and rate sampler must end with the daemon.
#[test]
fn idle_daemon_exits_130_on_sigterm() {
    let dir = workdir("daemon-sigterm");
    let (mut child, socket) = start_daemon(&dir, &["--http", "127.0.0.1:0"]);
    let term = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(term.success());
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll daemon") {
            break status;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("daemon still running 10 s after SIGTERM");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(status.code(), Some(130));
    assert!(!socket.exists(), "the socket file is removed");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite: numeric flags are validated with clear errors (exit 3)
/// instead of spinning up a broken run.
#[test]
fn numeric_flags_are_validated() {
    let cases: &[(&[&str], &str)] = &[
        (&["batch", "--corpus", "--workers", "0"], "--workers"),
        (
            &["batch", "--corpus", "--deadline-secs", "0"],
            "--deadline-secs",
        ),
        (
            &["batch", "--corpus", "--deadline-secs", "-2"],
            "--deadline-secs",
        ),
        (
            &["batch", "--corpus", "--retry-backoff-ms", "0"],
            "--retry-backoff-ms",
        ),
        (&["scan", "--corpus", "--top-k", "0"], "--top-k"),
        (&["scan", "--corpus", "--workers", "0"], "--workers"),
        (&["batch", "--corpus", "--retry", "0"], "--retry"),
        (
            &["batch", "--corpus", "--watchdog-quiet-secs", "0"],
            "--watchdog-quiet-secs",
        ),
        (
            &["batch", "--corpus", "--deadline-secs", "nan"],
            "--deadline-secs",
        ),
        (&["batch", "--corpus", "--theta", "x"], "--theta"),
        (
            &["batch", "--corpus", "--json", "--verdicts-json"],
            "--verdicts-json",
        ),
        // Engine flags `scan` and the single-pair mode do not take stay
        // unknown flags there.
        (&["scan", "--corpus", "--theta", "1"], "--theta"),
        (&["scan", "--corpus", "--retry", "2"], "--retry"),
        (&["--workers", "2"], "--workers"),
        (
            &["top", "--http", "127.0.0.1:1", "--windows", "0"],
            "--windows",
        ),
        (&["status", "--id", "x"], "--id"),
    ];
    for (args, flag) in cases {
        let output = Command::new(bin_path("octopocs"))
            .args(*args)
            .output()
            .expect("spawn octopocs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(
            output.status.code(),
            Some(3),
            "{args:?} must be a usage error; stderr: {stderr}"
        );
        assert!(
            stderr.contains(flag),
            "{args:?} diagnostic should name {flag}: {stderr}"
        );
    }
    // The daemon validates the same flags at startup.
    for args in [
        &["--workers", "0"][..],
        &["--capacity", "0"],
        &["--deadline-secs", "0"],
        &["--retry-backoff-ms", "0"],
        &["--retry", "0"],
        &["--watchdog-quiet-secs", "0"],
        &["--theta", "x"],
    ] {
        let output = Command::new(bin_path("octopocsd"))
            .args(args)
            .output()
            .expect("spawn octopocsd");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(
            output.status.code(),
            Some(3),
            "octopocsd {args:?} must be a usage error; stderr: {stderr}"
        );
        assert!(
            stderr.contains(args[0]),
            "octopocsd {args:?} diagnostic should name {}: {stderr}",
            args[0]
        );
    }
}

/// `submit` reads `--shared` the way the single-pair mode does: blanks
/// around the commas are not part of a function name, so the daemon's
/// verdict for a pair equals the direct run's.
#[test]
fn submit_trims_the_shared_list_like_the_single_pair_mode() {
    let dir = workdir("shared");
    let program = "func main() {\nentry:\n  fd = open\n  b = getc fd\n  call shared(b)\n  \
                   halt 0\n}\nfunc shared(v) {\nentry:\n  c = eq v, 0x41\n  br c, boom, fine\n\
                   boom:\n  trap 1\nfine:\n  ret\n}\n";
    let program_path = dir.join("p.mir");
    let poc_path = dir.join("poc.bin");
    std::fs::write(&program_path, program).expect("write program");
    std::fs::write(&poc_path, b"A").expect("write poc");
    let (program_path, poc_path) = (
        program_path.to_str().expect("utf8 path"),
        poc_path.to_str().expect("utf8 path"),
    );
    let pair = [
        "--s",
        program_path,
        "--t",
        program_path,
        "--poc",
        poc_path,
        "--shared",
        "x, shared",
    ];

    let direct = Command::new(bin_path("octopocs"))
        .args(pair)
        .arg("--json")
        .output()
        .expect("spawn octopocs");
    let stdout = String::from_utf8_lossy(&direct.stdout);
    assert!(stdout.contains("\"verdict\":\"Type-I\""), "{stdout}");

    let (mut child, socket) = start_daemon(&dir, &["--workers", "1"]);
    let submit: Vec<&str> = std::iter::once("submit").chain(pair).collect();
    let (code, _, stderr) = client(&socket, &submit);
    assert_eq!(code, 0, "submit failed: {stderr}");
    let (code, verdicts, stderr) = client(&socket, &["results", "--wait", "--verdicts-json"]);
    assert_eq!(code, 0, "results failed: {stderr}");
    assert!(
        verdicts.contains("\"verdict\":\"Type-I\""),
        "the daemon must see ℓ = [x, shared]: {verdicts}"
    );

    let (code, _, stderr) = client(&socket, &["drain"]);
    assert_eq!(code, 0, "drain failed: {stderr}");
    assert_eq!(child.wait().expect("daemon exit").code(), Some(0));
    let _ = std::fs::remove_dir_all(&dir);
}
