//! octo-obs — observability primitives for the OctoPoCs pipeline.
//!
//! The paper reports per-pair wall time, memory, and step counts
//! (Tables IV–V); a production-scale verification service needs the
//! same numbers continuously. This crate provides the registry every
//! layer records into: [`MetricsRegistry`] — named [`Counter`]s,
//! [`Gauge`]s, and fixed-bucket [`Histogram`]s. Registration hands out
//! [`std::sync::Arc`] handles; the record path is lock-free relaxed
//! atomics, so worker threads share one registry without contention.
//! Registries (and histograms) merge, so per-thread collection also
//! works. Pipeline phases are timed by the core crate's phase guard,
//! which emits `octo_sched::EventKind::PhaseFinished`; the batch layer
//! records the phase histograms here from the finished report.
//!
//! Rendering is deterministic: metrics print sorted by name, as
//! single-line JSON objects ([`MetricsRegistry::render_json`]) or in
//! the Prometheus text format ([`MetricsRegistry::render_prometheus`]).
//! Empty histograms render zeroed statistics — no NaN can reach the
//! output.
//!
//! On top of the registry sits a thin time-series layer: a
//! [`RateRecorder`] ring of [`MetricsRegistry::snapshot`]s taken on a
//! sampling interval, from which windowed throughput and ratios (jobs
//! per second, cache hit-rate over the last N windows) are derived on
//! read — the basis of the daemon's `/metrics/rates` endpoint and
//! `octopocs top`.

#![warn(missing_docs)]

mod rate;
mod registry;

pub use rate::{RateRecorder, RateSample, RateWindow};
pub use registry::{Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot};
