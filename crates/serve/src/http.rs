//! octo-scope: the daemon's read-only HTTP/1.1 observability plane.
//!
//! A deliberately tiny, hand-rolled server (no external deps, GET
//! only, one request per connection) that exposes what the JSON wire
//! protocol cannot offer a browser or a Prometheus scraper:
//!
//! * `GET /healthz` — liveness, `{"status":"ok"}`;
//! * `GET /metrics` — the full registry in the Prometheus text format;
//! * `GET /metrics/rates` — the [`RateRecorder`] ring as windowed
//!   counter deltas (404 until a recorder is attached);
//! * `GET /jobs` — queue + in-flight + completed summaries;
//! * `GET /jobs/<id>` — the per-job [`crate::timeline::JobTimeline`].
//!
//! Robustness mirrors the JSON protocol's discipline: malformed
//! request lines get a structured `400`, non-GET methods a `405`,
//! unknown paths a `404`, oversized request lines or header blocks a
//! `431` — always a JSON `{"error":…}` body, never a panic, and never
//! any interference with the JSON-protocol listeners (the HTTP plane
//! runs on its own listener and threads).
//!
//! The plane lives as long as the daemon: [`serve_http`] waits for the
//! daemon to finish while the accept loop it shares with
//! [`crate::server`] blocks in `accept`, then releases its listener.

use std::io::{BufRead, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use octo_obs::RateRecorder;

use crate::daemon::Daemon;
use crate::json::json_escape;
use crate::server::{loopback, read_line_capped, spawn_accept_loop, Line};

/// Cap on the HTTP request line, bytes.
pub const MAX_REQUEST_LINE_BYTES: usize = 8 * 1024;

/// Cap on the header block (all header lines together), bytes.
pub const MAX_HEADER_BYTES: usize = 32 * 1024;

/// The observability plane's shared state: the daemon it reads from
/// and the optional rate ring.
pub struct Scope {
    daemon: Arc<Daemon>,
    rates: Option<Arc<RateRecorder>>,
}

/// One fully-formed HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code (200, 400, 404, 405, 431).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
}

impl HttpResponse {
    fn ok(content_type: &'static str, body: String) -> HttpResponse {
        HttpResponse {
            status: 200,
            content_type,
            body,
        }
    }

    fn error(status: u16, message: &str) -> HttpResponse {
        HttpResponse {
            status,
            content_type: "application/json",
            body: format!("{{\"error\":\"{}\"}}\n", json_escape(message)),
        }
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            431 => "Request Header Fields Too Large",
            _ => "Error",
        }
    }

    /// Serialises status line, headers, and body.
    pub fn render(&self) -> String {
        format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len(),
            self.body
        )
    }
}

impl Scope {
    /// A plane over `daemon`, optionally serving `rates` windows.
    pub fn new(daemon: Arc<Daemon>, rates: Option<Arc<RateRecorder>>) -> Scope {
        Scope { daemon, rates }
    }

    /// Routes one already-parsed request. Split from the transport so
    /// unit tests can drive routing directly.
    pub fn respond(&self, method: &str, target: &str) -> HttpResponse {
        if method != "GET" {
            return HttpResponse::error(405, &format!("method {method} not allowed (GET only)"));
        }
        // The observability plane has no parameters; a query string is
        // tolerated and ignored.
        let path = target.split('?').next().unwrap_or(target);
        match path {
            "/healthz" => HttpResponse::ok("application/json", "{\"status\":\"ok\"}\n".to_string()),
            "/metrics" => HttpResponse::ok(
                "text/plain; version=0.0.4",
                self.daemon.metrics_prometheus(),
            ),
            "/metrics/rates" => match &self.rates {
                Some(rates) => HttpResponse::ok("application/json", rates.render_json()),
                None => HttpResponse::error(404, "rate recorder disabled"),
            },
            "/jobs" => HttpResponse::ok("application/json", self.render_jobs()),
            _ => match path.strip_prefix("/jobs/") {
                Some(rest) => match rest.parse::<u64>() {
                    Ok(id) => match self.daemon.timeline(id) {
                        Some(t) => HttpResponse::ok("application/json", t.render_json()),
                        None => HttpResponse::error(404, &format!("unknown job id {id}")),
                    },
                    Err(_) => HttpResponse::error(400, &format!("bad job id `{rest}`")),
                },
                None => HttpResponse::error(404, &format!("unknown path {path}")),
            },
        }
    }

    fn render_jobs(&self) -> String {
        let status = self.daemon.status();
        let mut out = format!(
            "{{\"queue\":{{\"queued_interactive\":{},\"queued_bulk\":{},\"running\":{},\
             \"done\":{},\"capacity\":{},\"draining\":{}}},\"jobs\":[",
            status.queued_interactive,
            status.queued_bulk,
            status.running,
            status.done,
            status.capacity,
            status.draining
        );
        for (i, job) in self.daemon.jobs().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n{{\"id\":{},\"name\":\"{}\",\"priority\":\"{}\",\"phase\":\"{}\",\
                 \"verdict\":{}}}",
                job.id,
                json_escape(&job.name),
                job.priority.label(),
                job.phase.label(),
                match &job.verdict {
                    Some(v) => format!("\"{}\"", json_escape(&v.verdict)),
                    None => "null".to_string(),
                }
            ));
        }
        out.push_str("\n]}\n");
        out
    }

    /// Serves exactly one request from `reader`, writing one response
    /// to `writer`, then returns (connection-per-request). All failure
    /// modes produce a structured 4xx; transport errors just drop the
    /// connection.
    pub fn handle<R: BufRead, W: Write>(&self, mut reader: R, mut writer: W) {
        let response = match read_request(&mut reader) {
            Ok((method, target)) => self.respond(&method, &target),
            Err(resp) => resp,
        };
        let _ = writer.write_all(response.render().as_bytes());
        let _ = writer.flush();
    }
}

/// Reads and parses the request line plus the header block (headers are
/// only consumed, never interpreted — the plane has no use for them).
fn read_request(reader: &mut impl BufRead) -> Result<(String, String), HttpResponse> {
    let line =
        read_crlf_line(reader, MAX_REQUEST_LINE_BYTES).map_err(|oversized| match oversized {
            true => HttpResponse::error(431, "request line too long"),
            false => HttpResponse::error(400, "truncated request"),
        })?;
    let mut parts = line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m.to_string(), t.to_string(), v),
        _ => return Err(HttpResponse::error(400, "malformed request line")),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpResponse::error(400, "unsupported protocol version"));
    }
    if !target.starts_with('/') {
        return Err(HttpResponse::error(400, "request target must be absolute"));
    }
    // Drain headers up to the blank line, within the block cap.
    let mut header_bytes = 0usize;
    loop {
        let header =
            read_crlf_line(reader, MAX_HEADER_BYTES).map_err(|oversized| match oversized {
                true => HttpResponse::error(431, "header block too large"),
                false => HttpResponse::error(400, "truncated header block"),
            })?;
        if header.is_empty() {
            break;
        }
        header_bytes += header.len() + 2;
        if header_bytes > MAX_HEADER_BYTES {
            return Err(HttpResponse::error(431, "header block too large"));
        }
    }
    Ok((method, target))
}

/// Reads one CRLF- (or bare-LF-) terminated line of at most `cap`
/// bytes, reading no further when it is longer. `Err(true)` = over the
/// cap, `Err(false)` = EOF/transport error before the terminator.
fn read_crlf_line(reader: &mut impl BufRead, cap: usize) -> Result<String, bool> {
    match read_line_capped(reader, cap) {
        Line::Ok(mut line) => {
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            String::from_utf8(line).map_err(|_| false)
        }
        Line::Oversized => Err(true),
        Line::Closed => Err(false),
    }
}

/// Serves the observability plane on `listener`, one request per
/// connection, until the daemon has finished. Never touches the
/// JSON-protocol listeners.
pub fn serve_http(daemon: &Arc<Daemon>, rates: Option<Arc<RateRecorder>>, listener: TcpListener) {
    let scope = Arc::new(Scope::new(Arc::clone(daemon), rates));
    let addr = listener.local_addr().map(loopback);
    let handle = move |_: &Daemon, reader, stream: TcpStream| {
        // A stalled peer must not pin the thread forever.
        let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
        let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
        scope.handle(reader, stream);
    };
    spawn_accept_loop(
        daemon,
        listener,
        TcpListener::accept,
        TcpStream::try_clone,
        handle,
    );
    daemon.wait_finished(None);
    let _ = addr.and_then(TcpStream::connect);
}

/// A minimal blocking HTTP GET against the plane (used by `octopocs
/// top` and the e2e tests): returns `(status, body)`.
pub fn http_get(addr: &str, path: &str, timeout: Duration) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| format!("set timeout: {e}"))?;
    stream
        .set_write_timeout(Some(timeout))
        .map_err(|e| format!("set timeout: {e}"))?;
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .map_err(|e| format!("send request: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("read response: {e}"))?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("malformed response: {raw:?}"))?;
    let status_line = head.lines().next().unwrap_or_default();
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("malformed status line: {status_line:?}"))?;
    Ok((status, body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::StubExecutor;
    use crate::proto::{JobSpec, Priority};
    use std::io::Cursor;

    fn spec(name: &str, priority: Priority) -> JobSpec {
        JobSpec {
            name: name.to_string(),
            priority,
            s_text: "func main() {\nentry:\n  halt 0\n}\n".to_string(),
            t_text: "func main() {\nentry:\n  halt 0\n}\n".to_string(),
            poc_hex: "41".to_string(),
            shared: vec![],
        }
    }

    fn finished_daemon() -> Arc<Daemon> {
        let daemon = Daemon::new(Arc::new(StubExecutor::immediate()), None, 8);
        daemon.submit(spec("one", Priority::Bulk)).unwrap();
        let workers = daemon.start_workers(1);
        daemon.wait_idle();
        daemon.drain();
        for w in workers {
            w.join().unwrap();
        }
        daemon
    }

    fn get(scope: &Scope, request: &str) -> (u16, String) {
        let mut out: Vec<u8> = Vec::new();
        scope.handle(Cursor::new(request.as_bytes().to_vec()), &mut out);
        let raw = String::from_utf8(out).unwrap();
        let (head, body) = raw.split_once("\r\n\r\n").expect("has header block");
        let status = head
            .split_whitespace()
            .nth(1)
            .unwrap()
            .parse::<u16>()
            .unwrap();
        assert!(
            head.contains(&format!("Content-Length: {}", body.len())),
            "length header must match body: {head}"
        );
        (status, body.to_string())
    }

    #[test]
    fn healthz_metrics_jobs_and_timeline_routes_serve() {
        let daemon = finished_daemon();
        let scope = Scope::new(daemon, None);

        let (status, body) = get(&scope, "GET /healthz HTTP/1.1\r\n\r\n");
        assert_eq!(status, 200);
        assert_eq!(body, "{\"status\":\"ok\"}\n");

        let (status, body) = get(&scope, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(status, 200);
        assert!(
            body.contains("# TYPE serve_admissions_total counter"),
            "{body}"
        );
        assert!(
            body.contains("# TYPE serve_queue_depth_bulk gauge"),
            "{body}"
        );

        let (status, body) = get(&scope, "GET /jobs HTTP/1.1\r\n\r\n");
        assert_eq!(status, 200);
        assert!(
            body.contains("\"queue\":{\"queued_interactive\":0"),
            "{body}"
        );
        assert!(
            body.contains("\"phase\":\"done\",\"verdict\":\"Type-I\""),
            "{body}"
        );

        let (status, body) = get(&scope, "GET /jobs/1?pretty=1 HTTP/1.1\r\n\r\n");
        assert_eq!(status, 200);
        assert!(body.contains("\"queue_wait_us\":"), "{body}");
        assert!(body.contains("\"attempts\":[{\"attempt\":1"), "{body}");
    }

    #[test]
    fn malformed_and_unknown_requests_get_structured_4xx() {
        let daemon = finished_daemon();
        let scope = Scope::new(daemon, None);

        let (status, body) = get(&scope, "GET /nope HTTP/1.1\r\n\r\n");
        assert_eq!(status, 404);
        assert!(body.contains("\"error\":\"unknown path /nope\""), "{body}");

        let (status, body) = get(&scope, "GET /jobs/99 HTTP/1.1\r\n\r\n");
        assert_eq!(status, 404);
        assert!(body.contains("unknown job id 99"), "{body}");

        let (status, body) = get(&scope, "GET /jobs/xyz HTTP/1.1\r\n\r\n");
        assert_eq!(status, 400);
        assert!(body.contains("bad job id"), "{body}");

        let (status, _) = get(&scope, "POST /metrics HTTP/1.1\r\n\r\n");
        assert_eq!(status, 405);

        let (status, body) = get(&scope, "garbage\r\n\r\n");
        assert_eq!(status, 400);
        assert!(body.contains("malformed request line"), "{body}");

        let (status, _) = get(&scope, "GET /metrics SPDY/3\r\n\r\n");
        assert_eq!(status, 400);

        let (status, _) = get(&scope, "GET metrics HTTP/1.1\r\n\r\n");
        assert_eq!(status, 400);
    }

    #[test]
    fn oversized_request_line_and_headers_get_431() {
        let daemon = finished_daemon();
        let scope = Scope::new(daemon, None);

        let long = format!(
            "GET /{} HTTP/1.1\r\n\r\n",
            "x".repeat(MAX_REQUEST_LINE_BYTES)
        );
        let (status, body) = get(&scope, &long);
        assert_eq!(status, 431);
        assert!(body.contains("request line too long"), "{body}");

        let huge_header = format!(
            "GET /healthz HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "y".repeat(MAX_HEADER_BYTES)
        );
        let (status, body) = get(&scope, &huge_header);
        assert_eq!(status, 431);
        assert!(body.contains("header block too large"), "{body}");
    }

    #[test]
    fn rates_route_is_gated_on_a_recorder() {
        let daemon = finished_daemon();
        let no_rates = Scope::new(daemon.clone(), None);
        let (status, body) = get(&no_rates, "GET /metrics/rates HTTP/1.1\r\n\r\n");
        assert_eq!(status, 404);
        assert!(body.contains("rate recorder disabled"), "{body}");

        let recorder = Arc::new(RateRecorder::new(4));
        // Two manual ticks over a scratch registry so one window exists.
        let reg = octo_obs::MetricsRegistry::new();
        reg.counter("ticks").add(3);
        recorder.record(&reg, 1_000);
        reg.counter("ticks").add(2);
        recorder.record(&reg, 2_000);
        let with_rates = Scope::new(daemon, Some(recorder));
        let (status, body) = get(&with_rates, "GET /metrics/rates HTTP/1.1\r\n\r\n");
        assert_eq!(status, 200);
        assert!(body.contains("\"windows\":["), "{body}");
        assert!(body.contains("\"ticks\":2"), "{body}");
    }

    #[test]
    fn served_over_a_real_socket_end_to_end() {
        // The daemon must still be live — serve_http stops once it
        // finishes — so run the job but hold off draining.
        let daemon = Daemon::new(Arc::new(StubExecutor::immediate()), None, 8);
        daemon.submit(spec("one", Priority::Bulk)).unwrap();
        let workers = daemon.start_workers(1);
        daemon.wait_idle();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let (done, returned) = std::sync::mpsc::channel();
        let serve_daemon = daemon.clone();
        let handle = std::thread::spawn(move || {
            serve_http(&serve_daemon, None, listener);
            let _ = done.send(());
        });
        let (status, body) =
            http_get(&addr, "/healthz", Duration::from_secs(5)).expect("healthz reachable");
        assert_eq!(status, 200);
        assert_eq!(body, "{\"status\":\"ok\"}\n");
        let (status, body) =
            http_get(&addr, "/jobs/1", Duration::from_secs(5)).expect("timeline reachable");
        assert_eq!(status, 200);
        assert!(body.contains("\"outcome\":\"Type-I\""), "{body}");
        // Draining the idle daemon finishes it, and that ends the plane.
        daemon.drain();
        returned
            .recv_timeout(Duration::from_secs(5))
            .expect("serve_http returns once the daemon has finished");
        handle.join().unwrap();
        for w in workers {
            w.join().unwrap();
        }
    }
}
