//! The daemon's socket front end: blocking accept loops, per-connection
//! threads, and the capped line reader.
//!
//! The server listens on a Unix socket (and optionally TCP), serves
//! each connection on a thread of its own, and answers one response
//! line per request line — except `watch`, which streams. Malformed
//! input of any kind (bad JSON, unknown verbs, oversized lines) is
//! answered with a structured `error` line and the connection stays
//! open; only EOF or a transport error closes it.
//!
//! Nothing polls: each listener blocks in `accept`, and [`serve`] sleeps
//! in [`Daemon::wait_finished`], then releases each listener with one
//! connection to its own address. The HTTP plane shares the accept loop
//! and the line reader.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::Arc;
use std::time::Duration;

use octo_sched::CancelToken;

use crate::daemon::{Daemon, SubmitError};
use crate::proto::{Request, Response, MAX_LINE_BYTES};

/// How often [`serve`] looks at its stop token while it waits for the
/// daemon to finish. A signal handler can only set the token, so this
/// check is what turns a signal into a shutdown.
const STOP_CHECK: Duration = Duration::from_millis(100);

/// Where the server listens.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Unix socket path (removed and re-bound at startup, unlinked at
    /// exit).
    pub socket: std::path::PathBuf,
    /// Optional additional TCP bind address (e.g. `127.0.0.1:7333`).
    pub tcp: Option<String>,
}

/// Outcome of reading one capped line.
pub(crate) enum Line {
    /// A complete line, without its newline.
    Ok(Vec<u8>),
    /// The line runs past the cap; it was read up to the cap only.
    Oversized,
    /// The peer closed (or the transport failed) before the newline.
    Closed,
}

/// Reads one newline-terminated line of at most `cap` bytes, the
/// newline not counted: the line reader of the JSON protocol, which
/// reads on past an oversized line, and of the HTTP plane, which stops.
pub(crate) fn read_line_capped(reader: &mut impl BufRead, cap: usize) -> Line {
    let mut line = Vec::new();
    loop {
        let chunk = match reader.fill_buf() {
            Ok([]) => return Line::Closed,
            Ok(chunk) => chunk,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return Line::Closed,
        };
        let room = cap - line.len();
        match chunk.iter().take(room + 1).position(|&b| b == b'\n') {
            Some(pos) => {
                line.extend_from_slice(&chunk[..pos]);
                reader.consume(pos + 1);
                return Line::Ok(line);
            }
            None if chunk.len() > room => {
                reader.consume(room);
                return Line::Oversized;
            }
            None => {
                let len = chunk.len();
                line.extend_from_slice(chunk);
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
    // Set while the rest of an oversized line is read and discarded.
    let mut oversized = false;
    loop {
        let line = match read_line_capped(&mut reader, MAX_LINE_BYTES) {
            Line::Closed => return,
            Line::Oversized => {
                oversized = true;
                continue;
            }
            Line::Ok(line) => String::from_utf8(line).unwrap_or_else(|_| String::from("\u{fffd}")),
        };
        let request = match std::mem::take(&mut oversized) {
            true => Err(format!("line exceeds {MAX_LINE_BYTES} bytes")),
            false if line.trim().is_empty() => continue,
            false => Request::parse(&line),
        };
        let done = matches!(request, Ok(Request::Shutdown));
        let resp = match request {
            Err(message) => Response::Error { message },
            Ok(Request::Watch { id }) => {
                if daemon
                    .watch(id, &mut |resp| write_line(&mut writer, resp))
                    .is_err()
                {
                    return;
                }
                continue;
            }
            Ok(Request::Ping) => Response::Pong,
            Ok(Request::Submit { job }) => match daemon.submit(job) {
                Ok(id) => Response::Accepted { id },
                Err(SubmitError::Rejected(reason)) => Response::Rejected { reason },
                Err(SubmitError::Invalid(message)) => Response::Error { message },
            },
            Ok(Request::Status { id: None }) => Response::Status(daemon.status()),
            Ok(Request::Status { id: Some(id) }) => match daemon.job_status(id) {
                Some(job) => Response::Job(job),
                None => Response::Error {
                    message: format!("unknown job id {id}"),
                },
            },
            Ok(Request::Results) => Response::Results {
                jobs: daemon.results(),
            },
            Ok(Request::Metrics) => Response::Metrics {
                body: daemon.metrics_json(),
            },
            Ok(Request::Drain) => Response::Draining {
                pending: daemon.drain(),
            },
            Ok(Request::Shutdown) => {
                daemon.shutdown();
                Response::ShuttingDown
            }
        };
        if write_line(&mut writer, &resp).is_err() || done {
            return;
        }
    }
}

/// Runs a blocking `listener`'s accept loop on a thread of its own until
/// the first accept after the daemon has finished, serving each
/// connection with `handle` on a thread that clones its read half: a
/// failed clone or spawn drops that connection only. A failed accept
/// (say, out of file descriptors) backs off through the finish wait.
/// The loop is not joined, since its release can fail, or reach whoever
/// has bound the socket path since.
pub(crate) fn spawn_accept_loop<L, S, A>(
    daemon: &Arc<Daemon>,
    listener: L,
    accept: fn(&L) -> std::io::Result<(S, A)>,
    try_clone: fn(&S) -> std::io::Result<S>,
    handle: impl Fn(&Daemon, BufReader<S>, S) + Clone + Send + 'static,
) where
    L: Send + 'static,
    S: Read + Send + 'static,
    A: 'static,
{
    let daemon = Arc::clone(daemon);
    std::thread::spawn(move || loop {
        let accepted = accept(&listener);
        if daemon.finished() {
            return;
        }
        let Ok((stream, _)) = accepted else {
            daemon.wait_finished(Some(Duration::from_millis(20)));
            continue;
        };
        let (daemon, handle) = (Arc::clone(&daemon), handle.clone());
        let _ = std::thread::Builder::new().spawn(move || {
            if let Ok(reader) = try_clone(&stream) {
                handle(&daemon, BufReader::new(reader), stream);
            }
        });
    });
}

/// `addr` as a release connects to it: an unspecified IP (a bind to
/// every interface) becomes loopback.
pub(crate) fn loopback(mut addr: SocketAddr) -> SocketAddr {
    match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => addr.set_ip(Ipv4Addr::LOCALHOST.into()),
        IpAddr::V6(ip) if ip.is_unspecified() => addr.set_ip(Ipv6Addr::LOCALHOST.into()),
        _ => {}
    }
    addr
}

/// Serves the JSON protocol on the Unix socket (and the TCP address)
/// until the daemon finishes: a drain completes, or a shutdown, which
/// `stop` firing requests — the graceful-on-first-signal path. Returns
/// with the listeners released and the socket file removed; the caller
/// joins the worker threads.
pub fn serve(
    daemon: &Arc<Daemon>,
    config: &ServerConfig,
    stop: &CancelToken,
) -> Result<(), String> {
    #[cfg(unix)]
    let unix = {
        let _ = std::fs::remove_file(&config.socket);
        UnixListener::bind(&config.socket)
            .map_err(|e| format!("cannot bind {}: {e}", config.socket.display()))?
    };
    let tcp = config
        .tcp
        .as_ref()
        .map(|addr| TcpListener::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}")))
        .transpose()?;
    #[cfg(unix)]
    spawn_accept_loop(
        daemon,
        unix,
        UnixListener::accept,
        UnixStream::try_clone,
        handle_connection,
    );
    let tcp_addr = tcp.map(|listener| {
        let addr = listener.local_addr().map(loopback);
        spawn_accept_loop(
            daemon,
            listener,
            TcpListener::accept,
            TcpStream::try_clone,
            handle_connection,
        );
        addr
    });

    while !daemon.wait_finished(Some(STOP_CHECK)) {
        if stop.is_cancelled() {
            daemon.shutdown();
        }
    }
    #[cfg(unix)]
    {
        let _ = UnixStream::connect(&config.socket);
        let _ = std::fs::remove_file(&config.socket);
    }
    if let Some(addr) = tcp_addr {
        let _ = addr.and_then(TcpStream::connect);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Client, Endpoint};
    use crate::daemon::StubExecutor;
    use crate::proto::{JobSpec, Priority};
    use std::io::Cursor;
    use std::path::{Path, PathBuf};
    use std::sync::mpsc::{channel, Receiver};
    use std::time::Instant;

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
    fn capped_reader_stops_at_the_cap_across_chunk_boundaries() {
        // Three-byte chunks, so every line straddles `fill_buf` calls.
        let input = b"abcd\nabcdefghij\nab".to_vec();
        let mut reader = BufReader::with_capacity(3, Cursor::new(input));
        let mut read = || match read_line_capped(&mut reader, 4) {
            Line::Ok(line) => Ok(String::from_utf8(line).unwrap()),
            Line::Oversized => Err("oversized"),
            Line::Closed => Err("closed"),
        };
        assert_eq!(read(), Ok("abcd".to_string()), "exactly the cap");
        // An oversized line is read up to the cap only; the rest follows.
        assert_eq!(read(), Err("oversized"));
        assert_eq!(read(), Err("oversized"));
        assert_eq!(read(), Ok("ij".to_string()));
        assert_eq!(read(), Err("closed"), "EOF before the newline");
    }

    #[test]
    fn oversized_line_cut_off_by_eof_gets_no_answer() {
        let daemon = Daemon::new(Arc::new(StubExecutor::immediate()), None, 4);
        let input = "x".repeat(MAX_LINE_BYTES + 10);
        assert_eq!(roundtrip(&daemon, &input), vec![]);
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

    /// Connects to `socket`, retrying until `serve` has bound it.
    fn connect(socket: &Path) -> Client {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match Client::connect(&Endpoint::Unix(socket.to_path_buf())) {
                Ok(client) => return client,
                Err(e) => assert!(Instant::now() < deadline, "serve never listened: {e}"),
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Runs `serve` on a side thread, on a fresh Unix socket and a TCP
    /// port, and returns once it has answered a ping. The receiver gets
    /// `serve`'s result when it returns.
    fn serving(
        daemon: &Arc<Daemon>,
        tag: &str,
        stop: &CancelToken,
    ) -> (PathBuf, Receiver<Result<(), String>>) {
        let socket =
            std::env::temp_dir().join(format!("octo-serve-{tag}-{}.sock", std::process::id()));
        let config = ServerConfig {
            socket: socket.clone(),
            tcp: Some("127.0.0.1:0".to_string()),
        };
        let (done, returned) = channel();
        let (daemon, stop) = (Arc::clone(daemon), stop.clone());
        std::thread::spawn(move || {
            let _ = done.send(serve(&daemon, &config, &stop));
        });
        assert_eq!(connect(&socket).request(&Request::Ping), Ok(Response::Pong));
        (socket, returned)
    }

    #[test]
    fn serve_returns_once_the_daemon_finishes() {
        for tag in ["shutdown", "idle-drain", "stop-token"] {
            let daemon = Daemon::new(Arc::new(StubExecutor::immediate()), None, 4);
            let stop = CancelToken::new();
            let (socket, returned) = serving(&daemon, tag, &stop);
            match tag {
                "shutdown" => daemon.shutdown(),
                "idle-drain" => assert_eq!(daemon.drain(), 0),
                _ => stop.cancel(),
            }
            let result = returned
                .recv_timeout(Duration::from_secs(5))
                .unwrap_or_else(|_| panic!("serve still running 5 s after {tag}"));
            assert_eq!(result, Ok(()), "{tag}");
            assert!(daemon.finished(), "{tag}");
            assert!(!socket.exists(), "{tag}: the socket file is removed");
        }
    }

    #[test]
    fn clients_connecting_one_after_another_wait_for_no_poll() {
        let daemon = Daemon::new(Arc::new(StubExecutor::immediate()), None, 4);
        let stop = CancelToken::new();
        let (socket, returned) = serving(&daemon, "sequential", &stop);
        let start = Instant::now();
        for _ in 0..10 {
            let mut client = connect(&socket);
            assert_eq!(client.request(&Request::Ping), Ok(Response::Pong));
        }
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_millis(100),
            "ten clients, each waiting for its pong, took {elapsed:?}"
        );
        daemon.drain();
        let result = returned.recv_timeout(Duration::from_secs(5));
        assert_eq!(result, Ok(Ok(())));
    }

    #[test]
    fn a_release_reaches_a_bind_to_every_interface_over_loopback() {
        let addr = |text: &str| text.parse::<SocketAddr>().unwrap();
        assert_eq!(loopback(addr("0.0.0.0:7333")), addr("127.0.0.1:7333"));
        assert_eq!(loopback(addr("[::]:7333")), addr("[::1]:7333"));
        assert_eq!(loopback(addr("10.1.2.3:7333")), addr("10.1.2.3:7333"));
    }
}
