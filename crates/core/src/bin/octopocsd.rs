//! `octopocsd` — the long-running OctoPoCs verification daemon.
//!
//! ```text
//! octopocsd [--socket PATH] [--tcp ADDR] [--http ADDR] [--journal PATH]
//!           [--workers N] [--capacity N] [--deadline-secs S]
//!           [--retry N] [--retry-backoff-ms MS] [--watchdog-quiet-secs S]
//!           [--fault-plan FILE] [--theta N] [--accelerate-loops]
//!           [--static-cfg] [--context-free] [--prescreen]
//!           [--metrics-json PATH]
//! ```
//!
//! The daemon listens on a Unix socket (default `octopocsd.sock`, plus
//! an optional TCP address), accepts line-delimited JSON requests (see
//! `docs/service.md`), and runs every admitted `(S, T, poc, ℓ)` job on
//! the shared batch runtime — artifact cache, metrics registry, retry
//! policy, watchdog, and fault plan all behave exactly as they do under
//! `octopocs batch`. Jobs are journaled to `--journal` (default
//! `octopocsd.journal`) before they are enqueued and their verdicts
//! journaled on completion, so killing the daemon mid-batch and
//! restarting it on the same journal resubmits the incomplete jobs
//! under their original ids and converges to the same verdicts.
//!
//! Admission is bounded: at most `--capacity` jobs may wait (running
//! jobs do not count), and a submission over the bound is answered with
//! an explicit `rejected` line — the daemon never blocks a client on a
//! full queue. Interactive-priority jobs are always dequeued ahead of
//! bulk jobs.
//!
//! With `--http ADDR` the daemon additionally serves octo-scope, the
//! read-only HTTP observability plane (`/healthz`, `/metrics`,
//! `/metrics/rates`, `/jobs`, `/jobs/<id>` — see
//! `docs/observability.md`), and a sampler thread snapshots the metrics
//! registry once a second into a 64-window rate ring.
//!
//! Lifecycle: a `drain` request stops admissions, finishes the queue,
//! and exits; a `shutdown` request (or SIGINT/SIGTERM) also cancels
//! in-flight jobs cooperatively — they come back as incomplete, not as
//! verdicts. A second signal force-exits with status 130. The
//! listeners block in `accept` and nothing polls: the socket server,
//! the HTTP plane and the rate sampler all end in the daemon's one
//! finish wait, and the socket server wakes from it every 100 ms only
//! to turn a signal into a shutdown. On a clean exit the daemon writes
//! `--metrics-json` (when given) and removes the socket file. Exit code
//! 0 = clean drain/shutdown via the protocol, 130 = exit forced or
//! initiated by a signal, 3 = usage or startup error.

use std::process::ExitCode;
use std::sync::Arc;

use octo_sched::{drain_signal_count, install_drain_signals, CancelToken};
use octo_serve::{serve, Daemon, Journal, ServerConfig};
use octopocs::cli::{usage_error, walk, EngineFlags, ENGINE_FLAGS};
use octopocs::ServeExecutor;

const USAGE: &str = "usage: octopocsd [--socket PATH] [--tcp ADDR] [--http ADDR] [--journal PATH] \
     [--cache-dir DIR] [--workers N] \
     [--capacity N] [--deadline-secs S] [--retry N] [--retry-backoff-ms MS] \
     [--watchdog-quiet-secs S] [--fault-plan FILE] [--theta N] [--accelerate-loops] \
     [--static-cfg] [--context-free] [--prescreen] [--metrics-json PATH]";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut socket = std::path::PathBuf::from("octopocsd.sock");
    let mut tcp: Option<String> = None;
    let mut http: Option<String> = None;
    let mut journal_path = std::path::PathBuf::from("octopocsd.journal");
    let mut capacity: usize = 64;
    let mut engine = EngineFlags::default();
    let mut metrics_json: Option<String> = None;
    let parsed = walk(&argv, |flag, args| {
        match flag {
            "--socket" => socket = args.value(flag)?.into(),
            "--tcp" => tcp = Some(args.value(flag)?),
            "--http" => http = Some(args.value(flag)?),
            "--journal" => journal_path = args.value(flag)?.into(),
            "--capacity" => capacity = args.parse_nonzero(flag)?,
            "--metrics-json" => metrics_json = Some(args.value(flag)?),
            "--help" | "-h" => return Err(String::new()),
            other => {
                if !engine.flag(other, args, ENGINE_FLAGS)? {
                    return Err(format!("unknown octopocsd flag `{other}`"));
                }
            }
        }
        Ok(())
    });
    if let Err(msg) = parsed {
        return usage_error(USAGE, &msg);
    }
    let EngineFlags {
        mut options,
        config,
    } = engine;

    // The run-level drain token: SIGINT/SIGTERM fire it (the second
    // signal force-exits), a `shutdown` request fires it through the
    // executor. Every in-flight job's token is derived from it.
    let drain = CancelToken::new();
    options.cancel = Some(drain.clone());
    install_drain_signals(&drain);

    let (journal, replay) = match Journal::open(&journal_path) {
        Ok(opened) => opened,
        Err(e) => {
            eprintln!("octopocsd: {e}");
            return ExitCode::from(3);
        }
    };
    let executor = Arc::new(ServeExecutor::new(&config, &options));
    let daemon = Daemon::new(executor.clone(), Some(journal), capacity);
    daemon.restore(replay);
    // No worker has started: every queued job was resubmitted, and every
    // done one restored (or refused again at admission, as a Failure).
    let status = daemon.status();
    let (restored, replayed) = (status.done, status.queued_interactive + status.queued_bulk);
    if replayed > 0 || restored > 0 {
        eprintln!(
            "octopocsd: journal {}: {restored} finished job(s) restored, \
             {replayed} incomplete job(s) resubmitted",
            journal_path.display()
        );
    }
    let workers = daemon.start_workers(options.workers);
    eprintln!(
        "octopocsd: listening on {}{} ({} worker(s), capacity {capacity})",
        socket.display(),
        tcp.as_deref()
            .map(|a| format!(" and tcp {a}"))
            .unwrap_or_default(),
        options.workers
    );

    // octo-scope: the HTTP observability plane plus its rate sampler.
    // Both threads end once the daemon has finished, in its one finish
    // wait, and never touch the JSON-protocol listeners.
    let mut scope = Vec::new();
    if let Some(addr) = &http {
        let listener = match std::net::TcpListener::bind(addr) {
            Ok(listener) => listener,
            Err(e) => {
                eprintln!("octopocsd: cannot bind {addr}: {e}");
                return ExitCode::from(3);
            }
        };
        let bound = listener
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| addr.clone());
        eprintln!("octopocsd: observability plane on http://{bound}");
        let rates = Arc::new(octo_obs::RateRecorder::new(64));
        {
            let rates = Arc::clone(&rates);
            let executor = Arc::clone(&executor);
            let daemon = daemon.clone();
            scope.push(std::thread::spawn(move || {
                let started = std::time::Instant::now();
                loop {
                    executor.sample_rates(&rates, started.elapsed().as_micros() as u64);
                    if daemon.wait_finished(Some(std::time::Duration::from_secs(1))) {
                        break;
                    }
                }
            }));
        }
        let daemon = daemon.clone();
        scope.push(std::thread::spawn(move || {
            octo_serve::serve_http(&daemon, Some(rates), listener);
        }));
    }

    let server_config = ServerConfig {
        socket: socket.clone(),
        tcp,
    };
    if let Err(e) = serve(&daemon, &server_config, &drain) {
        eprintln!("octopocsd: {e}");
        return ExitCode::from(3);
    }
    for handle in workers.into_iter().chain(scope) {
        let _ = handle.join();
    }
    // Journal hygiene: an orderly exit rewrites the journal down to
    // the jobs a restart would resubmit, so a long-lived daemon's
    // journal does not grow without bound across restarts.
    match daemon.compact_journal() {
        Some(Ok(kept)) => eprintln!(
            "octopocsd: journal {} compacted ({kept} incomplete job(s) kept)",
            journal_path.display()
        ),
        Some(Err(e)) => eprintln!("octopocsd: {e}"),
        None => {}
    }
    if let Some(path) = metrics_json {
        if let Err(e) = std::fs::write(&path, daemon.metrics_json()) {
            eprintln!("octopocsd: error writing {path}: {e}");
        }
    }
    let status = daemon.status();
    eprintln!(
        "octopocsd: exiting ({} job(s) done, {} left for replay)",
        status.done,
        status.queued_interactive + status.queued_bulk + status.running
    );
    if drain_signal_count() > 0 {
        ExitCode::from(130)
    } else {
        ExitCode::SUCCESS
    }
}
