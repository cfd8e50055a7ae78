//! The bridge between the engine and the `octo-serve` daemon layer:
//! [`ServeExecutor`] plugs the batch runtime into
//! [`octo_serve::JobExecutor`]. The daemon hands it each job as
//! admission parsed it, a [`crate::BatchJob`], so nothing here parses.
//!
//! One executor backs one daemon process. It owns a [`BatchRuntime`]
//! (artifact cache, metrics registry, watchdog, retry policy, fault
//! plan) shared across every job the daemon ever runs — so a re-scan of
//! an already-prepared source hits the cache exactly as it would inside
//! one `octopocs batch` invocation — plus the run-level cancel token
//! that `shutdown` (or SIGINT/SIGTERM) fires to wind in-flight jobs
//! down as [`FailureReason::Cancelled`].

use std::time::Duration;

use octo_obs::MetricsRegistry;
use octo_sched::{CancelToken, EventSink};
use octo_serve::{BatchJob, ExecOutcome, JobExecutor};

use crate::batch::{BatchOptions, BatchRuntime};
use crate::config::PipelineConfig;
use crate::verdict::{FailureReason, Verdict};

/// The daemon's verification engine: the full OctoPoCs pipeline behind
/// one long-lived [`BatchRuntime`].
pub struct ServeExecutor {
    runtime: BatchRuntime,
    cancel: CancelToken,
}

impl ServeExecutor {
    /// An executor running `config` under `options`. The options'
    /// run-level cancel token is created if absent so
    /// [`JobExecutor::cancel_all`] always has something to fire.
    pub fn new(config: &PipelineConfig, options: &BatchOptions) -> ServeExecutor {
        let mut options = options.clone();
        let cancel = options.cancel.clone().unwrap_or_default();
        options.cancel = Some(cancel.clone());
        ServeExecutor {
            runtime: BatchRuntime::new(config, &options),
            cancel,
        }
    }

    /// Refreshes the derived gauges (cache, uptime, watchdog) and
    /// snapshots the registry into `recorder` — the octo-scope rate
    /// sampler calls this on its interval so `/metrics/rates` windows
    /// reflect live figures.
    pub fn sample_rates(&self, recorder: &octo_obs::RateRecorder, elapsed_micros: u64) {
        self.runtime.refresh_metrics();
        recorder.record(self.runtime.metrics(), elapsed_micros);
    }
}

impl JobExecutor for ServeExecutor {
    fn run(
        &self,
        id: u64,
        job: &BatchJob,
        worker: usize,
        queue_wait: Duration,
        sink: &dyn EventSink,
    ) -> ExecOutcome {
        let entry = self
            .runtime
            .run_job(id as usize, worker, job, queue_wait, sink);
        let cancelled = matches!(
            &entry.report.verdict,
            Verdict::Failure {
                reason: FailureReason::Cancelled
            }
        );
        ExecOutcome {
            verdict: entry.summary(),
            post_mortem: entry
                .report
                .post_mortem
                .as_ref()
                .map(|pm| pm.render_human()),
            cancelled,
        }
    }

    fn registry(&self) -> &MetricsRegistry {
        self.runtime.metrics()
    }

    fn metrics_json(&self) -> String {
        self.runtime.refresh_metrics();
        self.runtime.metrics().render_json()
    }

    fn metrics_prometheus(&self) -> String {
        self.runtime.refresh_metrics();
        self.runtime.metrics().render_prometheus()
    }

    fn cancel_all(&self) {
        self.cancel.cancel();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octo_serve::daemon::Daemon;
    use octo_serve::{JobSpec, Priority, SubmitError};
    use std::sync::Arc;

    const S: &str = "func main() {\nentry:\n  fd = open\n  b = getc fd\n  call shared(b)\n  \
                     halt 0\n}\nfunc shared(v) {\nentry:\n  c = eq v, 0x41\n  br c, boom, fine\n\
                     boom:\n  trap 1\nfine:\n  ret\n}\n";

    fn spec(name: &str) -> JobSpec {
        JobSpec {
            name: name.to_string(),
            priority: Priority::Bulk,
            s_text: S.to_string(),
            t_text: S.to_string(),
            poc_hex: "41".to_string(),
            shared: vec!["shared".to_string()],
        }
    }

    #[test]
    fn executor_runs_a_real_job_through_the_daemon() {
        let executor = Arc::new(ServeExecutor::new(
            &PipelineConfig::default(),
            &BatchOptions {
                workers: 1,
                ..BatchOptions::default()
            },
        ));
        let daemon = Daemon::new(executor.clone(), None, 8);
        daemon.submit(spec("pair")).unwrap();
        let workers = daemon.start_workers(1);
        daemon.wait_idle();
        daemon.drain();
        for w in workers {
            w.join().unwrap();
        }
        let rows = daemon.results();
        assert_eq!(rows.len(), 1);
        // Identical S and T: the original PoC triggers directly.
        assert_eq!(rows[0].verdict.verdict, "Type-I");
        assert!(rows[0].verdict.poc_generated);
        // The serve_* metrics live in the same registry as the batch
        // metrics, so one scrape carries both.
        let names = executor.registry().names();
        assert!(names.iter().any(|n| n == "serve_admissions_total"));
        assert!(names.iter().any(|n| n == "batch_jobs_total"));
    }

    #[test]
    fn job_queue_latency_records_the_daemons_queue_wait() {
        // Queued before the one worker starts, the corpus jobs wait
        // behind each other; the engine's histogram must hold the wait
        // the daemon measured, not the instant the job began.
        let executor = Arc::new(ServeExecutor::new(
            &PipelineConfig::default(),
            &BatchOptions {
                workers: 1,
                ..BatchOptions::default()
            },
        ));
        let daemon = Daemon::new(executor.clone(), None, 64);
        for job in crate::batch::corpus_jobs() {
            daemon
                .submit(JobSpec::from_job(&job, Priority::Bulk))
                .unwrap();
        }
        let workers = daemon.start_workers(1);
        daemon.wait_idle();
        daemon.drain();
        for w in workers {
            w.join().unwrap();
        }
        let histogram = |name| executor.registry().get_histogram(name).expect(name);
        let serve = histogram("serve_queue_wait_micros");
        let engine = histogram("job_queue_latency_micros");
        assert_eq!(serve.count(), 15);
        assert_eq!((engine.count(), engine.sum()), (serve.count(), serve.sum()));
    }

    #[test]
    fn oversized_allocation_gets_a_verdict_and_the_daemon_keeps_serving() {
        // `shared` asks for about 100 TB. The allocation fails like a
        // `malloc` returning null and the store through it faults, in
        // P1, P2 and P4 alike, instead of aborting the daemon.
        const GREEDY: &str = "func main() {\nentry:\n  fd = open\n  b = getc fd\n  \
                              call shared(b)\n  halt 0\n}\nfunc shared(v) {\nentry:\n  \
                              buf = alloc 99999999999999\n  store.1 buf, v\n  ret\n}\n";
        let executor = Arc::new(ServeExecutor::new(
            &PipelineConfig::default(),
            &BatchOptions {
                workers: 1,
                ..BatchOptions::default()
            },
        ));
        let daemon = Daemon::new(executor, None, 8);
        let workers = daemon.start_workers(1);
        let greedy = daemon
            .submit(JobSpec {
                s_text: GREEDY.to_string(),
                t_text: GREEDY.to_string(),
                ..spec("greedy")
            })
            .unwrap();
        daemon.wait_idle();
        // Still answering: status, then a second job to a verdict.
        assert_eq!(daemon.status().done, 1);
        let after = daemon.submit(spec("after")).unwrap();
        daemon.wait_idle();
        daemon.drain();
        for w in workers {
            w.join().unwrap();
        }
        let verdict = |id| daemon.job_status(id).and_then(|j| j.verdict).unwrap();
        // Triggered through the null store; the bunch lands after the
        // byte `main` consumed, so poc' is not the original poc.
        assert_eq!(verdict(greedy).verdict, "Type-II");
        assert!(verdict(greedy).poc_generated);
        assert_eq!(verdict(after).verdict, "Type-I");
    }

    #[test]
    fn cancel_all_drains_queued_jobs_as_interrupted() {
        let drain = CancelToken::new();
        let executor = Arc::new(ServeExecutor::new(
            &PipelineConfig::default(),
            &BatchOptions {
                workers: 1,
                cancel: Some(drain.clone()),
                ..BatchOptions::default()
            },
        ));
        let daemon = Daemon::new(executor, None, 8);
        daemon.submit(spec("doomed")).unwrap();
        daemon.shutdown();
        let workers = daemon.start_workers(1);
        for w in workers {
            w.join().unwrap();
        }
        // Shutdown before any worker started: the job is never run and
        // never journaled as done.
        assert!(daemon.results().is_empty());
        assert!(drain.is_cancelled(), "shutdown fires the options' token");
        // A fresh submit is refused while draining.
        assert!(matches!(
            daemon.submit(spec("late")),
            Err(SubmitError::Rejected(_))
        ));
    }
}
