//! `octo-serve`: the OctoPoCs verification service layer.
//!
//! Everything the long-running daemon (`octopocsd`) and its client
//! subcommands share, engine-free:
//!
//! - [`json`]: a dependency-free JSON value parser for the wire and
//!   journal formats.
//! - [`proto`]: the line-delimited JSON wire protocol — requests,
//!   responses, and their total parse/render pairs.
//! - [`journal`]: the append-only durability log replayed on restart.
//! - [`daemon`]: admission control, the bounded two-class priority
//!   queue, the worker pool, and the [`daemon::JobExecutor`] seam the
//!   core crate plugs its pipeline into.
//! - [`server`]: the socket accept loop and capped line reader.
//! - [`client`]: the connection type the CLI subcommands drive.
//! - [`timeline`]: per-job timelines (submit → queue wait → attempts →
//!   phase spans) assembled from the daemon's own event stream.
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
pub use daemon::{Daemon, ExecJob, ExecOutcome, JobExecutor, SubmitError, QUEUE_WAIT_BUCKETS};
pub use http::{bind_http, http_get, serve_http, HttpResponse, Scope};
pub use journal::{Journal, Replay};
pub use proto::{
    render_verdicts_json, JobPhase, JobSpec, JobStatus, Priority, QueueStatus, Request, Response,
    ResultRow, VerdictSummary, MAX_LINE_BYTES,
};
pub use server::{handle_connection, serve, ServerConfig};
pub use timeline::{AttemptSpan, JobTimeline, TimelineStep, TimelineStore};
