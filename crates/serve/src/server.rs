//! The daemon's socket front end: accept loop, per-connection threads,
//! and the capped line reader.
//!
//! The server listens on a Unix socket (and optionally TCP), spawns a
//! thread per connection, and answers one response line per request
//! line — except `watch`, which streams. Malformed input of any kind
//! (bad JSON, unknown verbs, oversized lines) is answered with a
//! structured `error` line and the connection stays open; only EOF or a
//! transport error closes it.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use octo_sched::CancelToken;

use crate::daemon::{Daemon, SubmitError};
use crate::proto::{Request, Response, MAX_LINE_BYTES};

/// Where the server listens.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Unix socket path (removed and re-bound at startup, unlinked at
    /// exit).
    pub socket: std::path::PathBuf,
    /// Optional additional TCP bind address (e.g. `127.0.0.1:7333`).
    pub tcp: Option<String>,
}

/// Outcome of reading one protocol line.
enum Line {
    /// A complete line (without the newline).
    Ok(String),
    /// The line exceeded [`MAX_LINE_BYTES`]; it was discarded up to the
    /// next newline.
    Oversized,
    /// The peer closed (or the transport failed).
    Closed,
}

/// Reads one newline-terminated line, enforcing the protocol cap. An
/// oversized line is consumed (so the stream stays in sync) and
/// reported as [`Line::Oversized`] instead of disconnecting.
fn read_line_capped(reader: &mut impl BufRead) -> Line {
    let mut buf: Vec<u8> = Vec::new();
    let mut oversized = false;
    loop {
        let chunk = match reader.fill_buf() {
            Ok([]) => return Line::Closed,
            Ok(chunk) => chunk,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Line::Closed,
        };
        match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if !oversized && buf.len() + pos <= MAX_LINE_BYTES {
                    buf.extend_from_slice(&chunk[..pos]);
                } else {
                    oversized = true;
                }
                reader.consume(pos + 1);
                if oversized {
                    return Line::Oversized;
                }
                return match String::from_utf8(buf) {
                    Ok(line) => Line::Ok(line),
                    Err(_) => Line::Ok(String::from("\u{fffd}")),
                };
            }
            None => {
                let len = chunk.len();
                if !oversized && buf.len() + len <= MAX_LINE_BYTES {
                    buf.extend_from_slice(chunk);
                } else {
                    oversized = true;
                    buf.clear();
                }
                reader.consume(len);
            }
        }
    }
}

fn write_line(writer: &mut impl Write, resp: &Response) -> Result<(), String> {
    let mut line = resp.render();
    line.push('\n');
    writer
        .write_all(line.as_bytes())
        .and_then(|()| writer.flush())
        .map_err(|e| format!("write failed: {e}"))
}

/// Serves one connection until EOF. Public so tests (and embedders with
/// their own transport) can drive the protocol over any
/// `BufRead`/`Write` pair — the socket listeners in [`serve`] are just
/// this function behind accept loops.
pub fn handle_connection<R: BufRead, W: Write>(daemon: &Daemon, mut reader: R, mut writer: W) {
    loop {
        let line = match read_line_capped(&mut reader) {
            Line::Closed => return,
            Line::Oversized => {
                let resp = Response::Error {
                    message: format!("line exceeds {MAX_LINE_BYTES} bytes"),
                };
                if write_line(&mut writer, &resp).is_err() {
                    return;
                }
                continue;
            }
            Line::Ok(line) => line,
        };
        if line.trim().is_empty() {
            continue;
        }
        let request = match Request::parse(&line) {
            Ok(request) => request,
            Err(message) => {
                if write_line(&mut writer, &Response::Error { message }).is_err() {
                    return;
                }
                continue;
            }
        };
        let done = matches!(request, Request::Shutdown);
        let outcome = match request {
            Request::Ping => write_line(&mut writer, &Response::Pong),
            Request::Submit { job } => {
                let resp = match daemon.submit(job) {
                    Ok(id) => Response::Accepted { id },
                    Err(SubmitError::Rejected(reason)) => Response::Rejected { reason },
                    Err(SubmitError::Invalid(message)) => Response::Error { message },
                };
                write_line(&mut writer, &resp)
            }
            Request::Status { id: None } => {
                write_line(&mut writer, &Response::Status(daemon.status()))
            }
            Request::Status { id: Some(id) } => {
                let resp = match daemon.job_status(id) {
                    Some(job) => Response::Job(job),
                    None => Response::Error {
                        message: format!("unknown job id {id}"),
                    },
                };
                write_line(&mut writer, &resp)
            }
            Request::Watch { id } => daemon.watch(id, &mut |resp| write_line(&mut writer, resp)),
            Request::Results => write_line(
                &mut writer,
                &Response::Results {
                    jobs: daemon.results(),
                },
            ),
            Request::Metrics => write_line(
                &mut writer,
                &Response::Metrics {
                    body: daemon.metrics_json(),
                },
            ),
            Request::Drain => write_line(
                &mut writer,
                &Response::Draining {
                    pending: daemon.drain(),
                },
            ),
            Request::Shutdown => {
                daemon.shutdown();
                write_line(&mut writer, &Response::ShuttingDown)
            }
        };
        if outcome.is_err() || done {
            return;
        }
    }
}

/// Serves one accepted connection on a thread of its own. The read half
/// is cloned on that thread, so a failed clone (or thread spawn), say
/// for want of file descriptors, drops this connection only and the
/// accept loop goes on.
fn spawn_handler<S>(daemon: &Arc<Daemon>, stream: S, try_clone: fn(&S) -> std::io::Result<S>)
where
    S: Read + Write + Send + 'static,
{
    let daemon = Arc::clone(daemon);
    let _ = std::thread::Builder::new().spawn(move || {
        if let Ok(reader) = try_clone(&stream) {
            handle_connection(&daemon, BufReader::new(reader), stream);
        }
    });
}

/// Runs the accept loop until the daemon finishes (drain completed or
/// shutdown requested) or `stop` fires — `stop` is mapped to a full
/// [`Daemon::shutdown`], the graceful-on-first-signal path.
///
/// Returns once no further connections will be served; the caller joins
/// the worker threads and removes the socket file.
pub fn serve(
    daemon: &Arc<Daemon>,
    config: &ServerConfig,
    stop: &CancelToken,
) -> Result<(), String> {
    #[cfg(unix)]
    let unix_listener = {
        let _ = std::fs::remove_file(&config.socket);
        let listener = std::os::unix::net::UnixListener::bind(&config.socket)
            .map_err(|e| format!("cannot bind {}: {e}", config.socket.display()))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("cannot set nonblocking: {e}"))?;
        listener
    };
    let tcp_listener = match &config.tcp {
        Some(addr) => {
            let listener =
                TcpListener::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
            listener
                .set_nonblocking(true)
                .map_err(|e| format!("cannot set nonblocking: {e}"))?;
            Some(listener)
        }
        None => None,
    };

    let mut signalled = false;
    loop {
        if stop.is_cancelled() && !signalled {
            signalled = true;
            daemon.shutdown();
        }
        if daemon.finished() {
            break;
        }
        let mut accepted = false;
        #[cfg(unix)]
        if let Ok((stream, _)) = unix_listener.accept() {
            accepted = true;
            spawn_handler(daemon, stream, std::os::unix::net::UnixStream::try_clone);
        }
        if let Some(listener) = &tcp_listener {
            if let Ok((stream, _)) = listener.accept() {
                accepted = true;
                spawn_handler(daemon, stream, TcpStream::try_clone);
            }
        }
        if !accepted {
            std::thread::sleep(Duration::from_millis(20));
        }
    }
    #[cfg(unix)]
    let _ = std::fs::remove_file(&config.socket);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::StubExecutor;
    use crate::proto::{JobSpec, Priority};
    use std::io::Cursor;

    fn spec(name: &str) -> JobSpec {
        JobSpec {
            name: name.to_string(),
            priority: Priority::Bulk,
            s_text: "func main() {\nentry:\n  halt 0\n}\n".to_string(),
            t_text: "func main() {\nentry:\n  halt 0\n}\n".to_string(),
            poc_hex: "41".to_string(),
            shared: vec![],
        }
    }

    fn roundtrip(daemon: &Daemon, input: &str) -> Vec<Response> {
        let mut out: Vec<u8> = Vec::new();
        handle_connection(daemon, Cursor::new(input.as_bytes().to_vec()), &mut out);
        String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| Response::parse(l).unwrap())
            .collect()
    }

    #[test]
    fn malformed_lines_get_structured_errors_without_disconnect() {
        let daemon = Daemon::new(Arc::new(StubExecutor::immediate()), None, 4);
        let input = "garbage\n{\"req\":\"bogus\"}\n{\"req\":\"ping\"}\n";
        let responses = roundtrip(&daemon, input);
        assert_eq!(responses.len(), 3);
        assert!(matches!(responses[0], Response::Error { .. }));
        assert!(matches!(responses[1], Response::Error { .. }));
        assert_eq!(responses[2], Response::Pong);
    }

    #[test]
    fn oversized_line_is_discarded_and_answered_then_stream_recovers() {
        let daemon = Daemon::new(Arc::new(StubExecutor::immediate()), None, 4);
        let mut input = "x".repeat(MAX_LINE_BYTES + 10);
        input.push('\n');
        input.push_str("{\"req\":\"ping\"}\n");
        let responses = roundtrip(&daemon, &input);
        assert_eq!(responses.len(), 2);
        match &responses[0] {
            Response::Error { message } => assert!(message.contains("exceeds"), "{message}"),
            other => panic!("expected error, got {other:?}"),
        }
        assert_eq!(responses[1], Response::Pong);
    }

    #[test]
    fn submit_status_results_flow_over_the_connection_layer() {
        let daemon = Daemon::new(Arc::new(StubExecutor::immediate()), None, 4);
        let submit = Request::Submit { job: spec("one") }.render();
        let input = format!("{submit}\n{}\n", Request::Status { id: None }.render());
        let responses = roundtrip(&daemon, &input);
        assert_eq!(responses[0], Response::Accepted { id: 1 });
        match &responses[1] {
            Response::Status(s) => assert_eq!(s.queued_bulk, 1),
            other => panic!("expected status, got {other:?}"),
        }
    }
}
