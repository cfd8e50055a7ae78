//! `octo-serve`: the OctoPoCs verification service layer.
//!
//! Everything the long-running daemon (`octopocsd`) and its client
//! subcommands share, engine-free:
//!
//! - [`json`]: a dependency-free JSON value parser for the wire and
//!   journal formats.
//! - [`proto`]: the line-delimited JSON wire protocol — requests,
//!   responses, and their total parse/render pairs — and admission,
//!   [`JobSpec::admit`], which parses a submission once into the
//!   [`BatchJob`] the engine runs.
//! - [`journal`]: the append-only durability log replayed on restart.
//! - [`daemon`]: admission control, the bounded two-class priority
//!   queue, the worker pool, the one job table (each job's admitted
//!   [`BatchJob`] until pickup, verdict and timeline), and the
//!   [`daemon::JobExecutor`] seam the core crate plugs its pipeline
//!   into.
//! - [`server`]: the blocking accept loop and the capped line reader.
//! - [`client`]: the connection type the CLI subcommands drive.
//! - [`timeline`]: per-job timelines (submit → queue wait → attempts →
//!   phase spans), kept in the daemon's job record and fed by the
//!   events its executor emits.
//! - [`http`]: octo-scope, the read-only HTTP/1.1 observability plane
//!   (`/healthz`, `/metrics`, `/metrics/rates`, `/jobs`, `/jobs/<id>`).
//!
//! The daemon's lifecycle and wire reference are documented in
//! `docs/service.md`; the HTTP plane in `docs/observability.md`.

#![warn(missing_docs)]

pub mod client;
pub mod daemon;
pub mod http;
pub mod journal;
pub mod json;
pub mod proto;
pub mod server;
pub mod timeline;

pub use client::{Client, Endpoint};
pub use daemon::{Daemon, ExecOutcome, JobExecutor, ServeMetrics, SubmitError};
pub use http::{http_get, serve_http, HttpResponse, Scope};
pub use journal::{Journal, Replay};
pub use proto::{
    render_verdicts_json, BatchJob, JobPhase, JobSpec, JobStatus, Priority, QueueStatus, Request,
    Response, ResultRow, VerdictSummary, MAX_LINE_BYTES,
};
pub use server::{handle_connection, serve, ServerConfig};
pub use timeline::{AttemptSpan, JobTimeline, TimelineStep};
