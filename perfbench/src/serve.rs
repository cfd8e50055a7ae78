//! The serve-watch workload: an in-process `octopocsd` (a `Daemon` over a
//! `ServeExecutor`, behind `serve` on a Unix socket) driven by closed-loop
//! `octo_serve::Client`s. Each client submits one job (interactive
//! priority), watches it until `Done`, then submits the next.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use octo_sched::CancelToken;
use octo_serve::json::{parse_json, JsonValue};
use octo_serve::proto::to_hex;
use octo_serve::{
    serve, Client, Daemon, Endpoint, JobSpec, Journal, Priority, Request, Response, ServerConfig,
};
use octopocs::{BatchOptions, PipelineConfig, ServeExecutor};

use crate::calib;
use crate::gen::JobText;
use crate::measure::{cpu_seconds, ms_between, verdict_ok, Counts, Gate, StampSink, Window};

/// Closed-loop client connections.
pub const CLIENTS: usize = 2;
/// Engine workers inside the daemon.
pub const WORKERS: usize = 1;
/// The daemon's queue bound; closed-loop clients never get near it.
const CAPACITY: usize = 64;
/// Seconds of one segment of the timed closed loop. Between segments the
/// clients let their last job finish and the calibration kernel runs on
/// an idle daemon.
const SEGMENT_S: f64 = 1.0;

/// A running in-process daemon.
struct Service {
    daemon: Arc<Daemon>,
    stop: CancelToken,
    server: Option<JoinHandle<Result<(), String>>>,
    workers: Vec<JoinHandle<()>>,
    journal: PathBuf,
    stamps: Arc<StampSink>,
}

impl Service {
    /// Boots a daemon in `dir` and connects the clients. The returned
    /// seconds run from daemon construction until every client has its
    /// `Pong`.
    fn start(dir: &Path) -> Result<(Service, Vec<Client>, f64), String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let socket = dir.join("d.sock");
        let journal = dir.join("d.journal");
        let start = Instant::now();
        let options = BatchOptions {
            workers: WORKERS,
            ..BatchOptions::default()
        };
        let executor = Arc::new(ServeExecutor::new(&PipelineConfig::default(), &options));
        let (opened, replay) = Journal::open(&journal)?;
        let daemon = Daemon::new(executor, Some(opened), CAPACITY);
        daemon.restore(replay);
        let stamps = Arc::new(StampSink::default());
        daemon.fanout().subscribe(stamps.clone());
        let workers = daemon.start_workers(WORKERS);
        let stop = CancelToken::new();
        let server = {
            let daemon = Arc::clone(&daemon);
            let stop = stop.clone();
            let config = ServerConfig {
                socket: socket.clone(),
                tcp: None,
            };
            std::thread::spawn(move || serve(&daemon, &config, &stop))
        };
        let service = Service {
            daemon,
            stop,
            server: Some(server),
            workers,
            journal,
            stamps,
        };
        let mut clients = Vec::with_capacity(CLIENTS);
        for _ in 0..CLIENTS {
            let mut client = connect(&socket)?;
            match client.request(&Request::Ping)? {
                Response::Pong => clients.push(client),
                other => return Err(format!("ping answered {other:?}")),
            }
        }
        Ok((service, clients, start.elapsed().as_secs_f64()))
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.daemon.shutdown();
        self.stop.cancel();
        if let Some(server) = self.server.take() {
            let _ = server.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Connects once the server thread has bound the socket.
fn connect(socket: &Path) -> Result<Client, String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match Client::connect(&Endpoint::Unix(socket.to_path_buf())) {
            Ok(client) => return Ok(client),
            Err(e) if Instant::now() >= deadline => return Err(e),
            Err(_) => std::thread::sleep(Duration::from_micros(200)),
        }
    }
}

pub fn spec(text: &JobText) -> JobSpec {
    JobSpec {
        name: text.name.clone(),
        priority: Priority::Interactive,
        s_text: text.s_text.clone(),
        t_text: text.t_text.clone(),
        poc_hex: to_hex(&text.poc),
        shared: text.shared.clone(),
    }
}

/// One submitted and watched job.
pub struct Sample {
    /// Index into the job pool.
    pub pool: usize,
    pub daemon_id: u64,
    /// `Submit` sent → `Accepted` received.
    pub submit_ms: f64,
    /// `Submit` sent → `Done` received.
    pub verdict_ms: f64,
    pub ok: bool,
}

/// One client's closed loop: takes pool indices from `next` until
/// `limit` or until `until` has passed, one job at a time.
fn client_loop(
    client: &mut Client,
    requests: &[Request],
    texts: &[JobText],
    next: &AtomicUsize,
    limit: usize,
    until: Instant,
) -> Result<Vec<Sample>, String> {
    let mut samples = Vec::new();
    while Instant::now() < until {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= limit {
            break;
        }
        let pool = i % requests.len();
        let start = Instant::now();
        let id = match client.request(&requests[pool])? {
            Response::Accepted { id } => id,
            other => return Err(format!("submit of {} answered {other:?}", texts[pool].name)),
        };
        let accepted = Instant::now();
        client.send(&Request::Watch { id })?;
        let verdict = loop {
            match client.recv()? {
                Some(Response::Event(_)) => {}
                Some(Response::Done { verdict, .. }) => break verdict,
                other => return Err(format!("watch of job {id} answered {other:?}")),
            }
        };
        let done = Instant::now();
        let ok = verdict_ok(
            &texts[pool].expect,
            &verdict.verdict,
            verdict.poc_generated,
            verdict.verified,
            verdict.quarantined,
        );
        if !ok {
            eprintln!(
                "perfbench: {} gave {verdict:?}, expected {}",
                texts[pool].name, texts[pool].expect.label
            );
        }
        samples.push(Sample {
            pool,
            daemon_id: id,
            submit_ms: ms_between(start, accepted),
            verdict_ms: ms_between(start, done),
            ok,
        });
    }
    Ok(samples)
}

/// The daemon metrics a pass reads before and after its timed loop.
struct Snapshot {
    /// `(count, sum µs)` of the queue-wait histogram.
    queue_wait: (u64, u64),
    /// Work done by every job so far. `p1_insts` counts prefix-cache
    /// misses only.
    counts: Counts,
}

fn snapshot(client: &mut Client) -> Result<Snapshot, String> {
    let body = match client.request(&Request::Metrics)? {
        Response::Metrics { body } => body,
        other => return Err(format!("metrics answered {other:?}")),
    };
    let doc = parse_json(&body)?;
    let all = doc
        .get("metrics")
        .and_then(JsonValue::as_array)
        .ok_or("metrics reply lacks a metrics array")?;
    let field = |metric: &str, field: &str| -> Result<u64, String> {
        all.iter()
            .find(|m| m.get("name").and_then(JsonValue::as_str) == Some(metric))
            .and_then(|m| m.get(field))
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("metrics reply lacks {metric}"))
    };
    Ok(Snapshot {
        queue_wait: (
            field("serve_queue_wait_micros", "count")?,
            field("serve_queue_wait_micros", "sum")?,
        ),
        counts: Counts {
            steps: field("symex_steps_total", "value")?,
            solves: field("solver_calls_total", "value")?,
            p1_insts: field("pipeline_p1_insts_total", "value")?,
            p4_insts: field("pipeline_p4_insts_total", "value")?,
        },
    })
}

/// Everything the serve-watch pass measured.
pub struct ServePass {
    pub setup_s: Vec<f64>,
    pub samples: Vec<Sample>,
    /// The timed pass, one window per segment. Their service times
    /// (`JobStarted` → `JobFinished` on the daemon's event fan-out),
    /// concatenated, follow `samples`.
    pub windows: Vec<Window>,
    pub journal_bytes: u64,
    pub queue_wait_count: u64,
    pub queue_wait_us: u64,
}

/// Boots the daemon `reps` times (the set-up metric), keeps the last one
/// up, warms it with one pass over the first `warm` pool jobs, then runs
/// the closed loop for `seconds`, in segments bracketed by the
/// calibration kernel. The daemon reports only total counts,
/// so the determinism gate checks the timed pass's totals against
/// `gate`, which must know every base pair of the mix.
pub fn run(
    texts: &[JobText],
    reps: usize,
    warm: usize,
    seconds: f64,
    scratch: &Path,
    gate: &Gate,
) -> Result<ServePass, String> {
    let requests: Vec<Request> = texts
        .iter()
        .map(|t| Request::Submit { job: spec(t) })
        .collect();
    let mut setup_s = Vec::with_capacity(reps);
    let mut live = None;
    for rep in 0..reps.max(1) {
        // Clients close first, so their connection threads end.
        if let Some((clients, service)) = live.take() {
            drop::<Vec<Client>>(clients);
            drop::<Service>(service);
        }
        let (service, clients, seconds) = Service::start(&scratch.join(format!("serve-{rep}")))?;
        setup_s.push(seconds);
        live = Some((clients, service));
    }
    let (mut clients, service) = live.expect("at least one set-up ran");
    let next = AtomicUsize::new(0);
    let far = Instant::now() + Duration::from_secs(3600);
    let warm_samples = client_loop(&mut clients[0], &requests, texts, &next, warm, far)?;
    let warm_failed = warm_samples.iter().filter(|s| !s.ok).count();
    next.store(warm, Ordering::Relaxed);

    let before = snapshot(&mut clients[0])?;
    let journal0 = file_len(&service.journal);
    let mut samples = Vec::new();
    let mut segments = Vec::new();
    let start = Instant::now();
    let mut cal_before = calib::measure();
    while segments.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let cpu0 = cpu_seconds();
        let begun = Instant::now();
        let until = begun + Duration::from_secs_f64(SEGMENT_S.min(seconds));
        let per_client: Vec<Result<Vec<Sample>, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .map(|client| {
                    let (requests, next) = (&requests, &next);
                    scope.spawn(move || {
                        client_loop(client, requests, texts, next, usize::MAX, until)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("client thread panicked".into()))
                })
                .collect()
        });
        let wall_s = begun.elapsed().as_secs_f64();
        let cpu_s = cpu_seconds() - cpu0;
        let first = samples.len();
        for result in per_client {
            samples.extend(result?);
        }
        let cal_after = calib::measure();
        segments.push((first..samples.len(), wall_s, cpu_s, (cal_before + cal_after) / 2.0));
        cal_before = cal_after;
    }
    let after = snapshot(&mut clients[0])?;
    let journal_bytes = file_len(&service.journal).saturating_sub(journal0);
    let spans = service.stamps.spans();
    let windows: Vec<Window> = segments
        .into_iter()
        .map(|(range, wall_s, cpu_s, cal_s)| {
            let samples = &samples[range];
            Window {
                wall_s,
                cpu_s,
                base: samples.iter().map(|s| texts[s.pool].base).collect(),
                service_ms: samples
                    .iter()
                    .map(|s| {
                        spans
                            .get(&(s.daemon_id as usize))
                            .map_or(0.0, |&(from, to)| ms_between(from, to))
                    })
                    .collect(),
                verdict_ms: samples.iter().map(|s| s.verdict_ms).collect(),
                setup_s: Vec::new(),
                cal_s,
            }
        })
        .collect();
    drop(clients);
    drop(service);
    if warm_failed > 0 {
        return Err(format!("{warm_failed} warm-up jobs gave wrong verdicts"));
    }
    // The warm-up cached every prefix of the mix, so the timed jobs ran
    // no P1 at all.
    let did = after.counts.minus(before.counts);
    let expected = Counts {
        p1_insts: 0,
        ..gate.total(samples.iter().map(|s| texts[s.pool].base))?
    };
    if did != expected {
        return Err(format!(
            "determinism gate: the daemon's {} timed jobs did {did:?}, their base pairs do {expected:?}",
            samples.len()
        ));
    }
    Ok(ServePass {
        setup_s,
        samples,
        windows,
        journal_bytes,
        queue_wait_count: after.queue_wait.0 - before.queue_wait.0,
        queue_wait_us: after.queue_wait.1 - before.queue_wait.1,
    })
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Mean µs to render and parse the wire messages one job costs: its
/// `Submit`, the `Accepted` and the `Done` replies.
pub fn proto_us_per_job(texts: &[JobText]) -> Result<f64, String> {
    let start = Instant::now();
    for (id, text) in texts.iter().enumerate() {
        let submit = Request::Submit { job: spec(text) }.render();
        Request::parse(&submit)?;
        Response::parse(&Response::Accepted { id: id as u64 }.render())?;
        let done = Response::Done {
            id: id as u64,
            verdict: octo_serve::VerdictSummary {
                verdict: text.expect.label.to_string(),
                poc_generated: text.expect.poc_generated,
                verified: text.expect.verified,
                attempts: 1,
                quarantined: false,
            },
        };
        Response::parse(&done.render())?;
    }
    Ok(start.elapsed().as_secs_f64() * 1e6 / texts.len().max(1) as f64)
}
