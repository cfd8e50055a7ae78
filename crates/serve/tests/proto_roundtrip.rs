//! Property tests for the wire protocol: `parse ∘ render` is the
//! identity for every request and response the protocol can express,
//! and malformed input — truncated lines, unknown verbs, binary noise,
//! oversized payloads — is always answered with a structured `error`
//! line, never a panic or a dropped connection.

use std::io::Cursor;
use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;

use octo_sched::{Event, EventKind};
use octo_serve::daemon::StubExecutor;
use octo_serve::{
    handle_connection, Daemon, JobPhase, JobSpec, JobStatus, Priority, QueueStatus, Request,
    Response, ResultRow, VerdictSummary,
};

/// The wire's integer domain: `JsonValue::Int` is `i64`-backed, so
/// protocol integers are non-negative `i64`s (ids, timestamps and
/// microsecond durations never approach the bound in practice).
fn wire_u64() -> impl Strategy<Value = u64> {
    0u64..=(i64::MAX as u64)
}

/// Characters chosen to stress `json_escape`: quotes, backslashes,
/// braces, control characters (including newline) and non-ASCII.
const TEXT_ALPHABET: &[char] = &[
    'a',
    'Z',
    '7',
    ' ',
    '"',
    '\\',
    '/',
    '{',
    '}',
    ':',
    ',',
    '\n',
    '\t',
    '\r',
    '\u{0}',
    '\u{1f}',
    '\u{e9}',
    '\u{4e16}',
    '\u{1f600}',
];

/// Arbitrary text over [`TEXT_ALPHABET`].
fn wire_text() -> impl Strategy<Value = String> {
    vec(0..TEXT_ALPHABET.len(), 0..24)
        .prop_map(|picks| picks.into_iter().map(|i| TEXT_ALPHABET[i]).collect())
}

/// `Option<V>`: the vendored proptest has no `option::of`.
fn maybe<S: Strategy + 'static>(inner: S) -> impl Strategy<Value = Option<S::Value>> {
    (any::<bool>(), inner).prop_map(|(some, v)| if some { Some(v) } else { None })
}

fn arb_priority() -> impl Strategy<Value = Priority> {
    prop_oneof![Just(Priority::Interactive), Just(Priority::Bulk)]
}

fn arb_phase() -> impl Strategy<Value = JobPhase> {
    prop_oneof![
        Just(JobPhase::Queued),
        Just(JobPhase::Running),
        Just(JobPhase::Done),
        Just(JobPhase::Interrupted),
    ]
}

fn arb_jobspec() -> impl Strategy<Value = JobSpec> {
    (
        wire_text(),
        arb_priority(),
        wire_text(),
        wire_text(),
        vec(any::<u8>(), 0..32),
        vec(wire_text(), 0..4),
    )
        .prop_map(|(name, priority, s_text, t_text, poc, shared)| JobSpec {
            name,
            priority,
            s_text,
            t_text,
            poc_hex: octo_serve::proto::to_hex(&poc),
            shared,
        })
}

fn arb_verdict() -> impl Strategy<Value = VerdictSummary> {
    (
        wire_text(),
        any::<bool>(),
        any::<bool>(),
        any::<u32>(),
        any::<bool>(),
    )
        .prop_map(
            |(verdict, poc_generated, verified, attempts, quarantined)| VerdictSummary {
                verdict,
                poc_generated,
                verified,
                attempts,
                quarantined,
            },
        )
}

fn arb_event() -> impl Strategy<Value = Event> {
    let job = || wire_u64().prop_map(|j| j as usize);
    let kind = prop_oneof![
        (job(), wire_text()).prop_map(|(job, name)| EventKind::JobStarted { job, name }),
        (job(), wire_text(), wire_u64()).prop_map(|(job, phase, micros)| {
            EventKind::PhaseFinished {
                job,
                phase: phase.into(),
                micros,
            }
        }),
        (job(), any::<u64>()).prop_map(|(job, key)| EventKind::CacheHit { job, key }),
        (job(), wire_text(), wire_u64()).prop_map(|(job, outcome, micros)| {
            EventKind::JobFinished {
                job,
                outcome,
                micros,
            }
        }),
        (job(), any::<u32>(), wire_u64(), wire_u64()).prop_map(
            |(job, attempt, backoff_micros, beats)| EventKind::RetryScheduled {
                job,
                attempt,
                backoff_micros,
                beats,
            }
        ),
    ];
    (wire_u64(), wire_u64(), kind)
        .prop_map(|(ts_us, worker, kind)| Event::new(ts_us, worker as usize, kind))
}

fn arb_request() -> BoxedStrategy<Request> {
    prop_oneof![
        Just(Request::Ping),
        arb_jobspec().prop_map(|job| Request::Submit { job }),
        maybe(wire_u64()).prop_map(|id| Request::Status { id }),
        wire_u64().prop_map(|id| Request::Watch { id }),
        Just(Request::Results),
        Just(Request::Metrics),
        Just(Request::Drain),
        Just(Request::Shutdown),
    ]
    .boxed()
}

fn arb_queue_status() -> impl Strategy<Value = QueueStatus> {
    (
        wire_u64(),
        wire_u64(),
        wire_u64(),
        wire_u64(),
        wire_u64(),
        any::<bool>(),
    )
        .prop_map(
            |(queued_interactive, queued_bulk, running, done, capacity, draining)| QueueStatus {
                queued_interactive,
                queued_bulk,
                running,
                done,
                capacity,
                draining,
            },
        )
}

fn arb_job_status() -> impl Strategy<Value = JobStatus> {
    (
        wire_u64(),
        wire_text(),
        arb_priority(),
        arb_phase(),
        maybe(arb_verdict()),
        maybe(wire_text()),
    )
        .prop_map(
            |(id, name, priority, phase, verdict, post_mortem)| JobStatus {
                id,
                name,
                priority,
                phase,
                verdict,
                post_mortem,
            },
        )
}

fn arb_response() -> BoxedStrategy<Response> {
    prop_oneof![
        Just(Response::Pong),
        wire_u64().prop_map(|id| Response::Accepted { id }),
        wire_text().prop_map(|reason| Response::Rejected { reason }),
        arb_queue_status().prop_map(Response::Status),
        arb_job_status().prop_map(Response::Job),
        arb_event().prop_map(Response::Event),
        (wire_u64(), arb_verdict()).prop_map(|(id, verdict)| Response::Done { id, verdict }),
        vec(
            (wire_u64(), wire_text(), arb_verdict()).prop_map(|(id, name, verdict)| ResultRow {
                id,
                name,
                verdict
            }),
            0..4
        )
        .prop_map(|jobs| Response::Results { jobs }),
        wire_text().prop_map(|body| Response::Metrics { body }),
        wire_u64().prop_map(|pending| Response::Draining { pending }),
        Just(Response::ShuttingDown),
        wire_text().prop_map(|message| Response::Error { message }),
    ]
    .boxed()
}

/// Printable-ASCII noise (may or may not be JSON).
fn ascii_noise(max: usize) -> impl Strategy<Value = String> {
    vec(0x20u8..0x7f, 0..max).prop_map(|bytes| bytes.into_iter().map(char::from).collect())
}

proptest! {
    /// Every request survives the wire unchanged.
    #[test]
    fn requests_round_trip(req in arb_request()) {
        let line = req.render();
        prop_assert!(!line.contains('\n'), "wire lines must be single lines: {:?}", line);
        let back = Request::parse(&line);
        prop_assert!(back.is_ok(), "rendered request failed to parse: {:?}", back);
        prop_assert_eq!(back.unwrap(), req);
    }

    /// Every response survives the wire unchanged.
    #[test]
    fn responses_round_trip(resp in arb_response()) {
        let line = resp.render();
        prop_assert!(!line.contains('\n'), "wire lines must be single lines: {:?}", line);
        let back = Response::parse(&line);
        prop_assert!(back.is_ok(), "rendered response failed to parse: {:?}", back);
        prop_assert_eq!(back.unwrap(), resp);
    }

    /// A strict prefix of a valid request never parses (truncation is
    /// detected, not misread) and never panics the parser.
    #[test]
    fn truncated_requests_error_cleanly(req in arb_request(), frac in 0u32..100) {
        let line = req.render();
        let cut = (line.len() as u64 * u64::from(frac) / 100) as usize;
        let mut truncated = String::with_capacity(cut);
        for c in line.chars() {
            if truncated.len() + c.len_utf8() > cut {
                break;
            }
            truncated.push(c);
        }
        if truncated.len() < line.len() {
            prop_assert!(Request::parse(&truncated).is_err());
        }
    }

    /// Arbitrary garbage — including raw JSON that is not a request —
    /// errors instead of panicking.
    #[test]
    fn garbage_never_panics(noise in ascii_noise(64)) {
        let _ = Request::parse(&noise);
        let _ = Response::parse(&noise);
    }

    /// An unknown verb is refused with a diagnostic naming it.
    #[test]
    fn unknown_verbs_are_refused(raw in vec(b'a'..=b'z', 1..13)) {
        let verb: String = raw.into_iter().map(char::from).collect();
        prop_assume!(!matches!(
            verb.as_str(),
            "ping" | "submit" | "status" | "watch" | "results" | "metrics" | "drain" | "shutdown"
        ));
        let parsed = Request::parse(&format!("{{\"req\":\"{verb}\"}}"));
        prop_assert!(parsed.is_err());
        let err = parsed.unwrap_err();
        prop_assert!(err.contains(&verb), "diagnostic should name the verb: {}", err);
    }

    /// A connection fed noise lines answers each non-blank line with a
    /// structured `error` response and keeps going — never a
    /// disconnect (blank lines are skipped silently).
    #[test]
    fn noisy_connections_get_structured_errors(lines in vec(ascii_noise(48), 1..8)) {
        prop_assume!(lines.iter().all(|l| Request::parse(l).is_err()));
        let daemon = Daemon::new(Arc::new(StubExecutor::immediate()), None, 4);
        let input = lines.join("\n") + "\n";
        let mut out = Vec::new();
        handle_connection(&daemon, Cursor::new(input.into_bytes()), &mut out);
        let rendered = String::from_utf8(out).expect("utf8 replies");
        let replies: Vec<Response> = rendered
            .lines()
            .map(|l| Response::parse(l).expect("daemon reply parses"))
            .collect();
        let expected = lines.iter().filter(|l| !l.trim().is_empty()).count();
        prop_assert_eq!(replies.len(), expected);
        for reply in replies {
            prop_assert!(matches!(reply, Response::Error { .. }));
        }
    }
}

/// An oversized payload (beyond `MAX_LINE_BYTES`) is answered with a
/// structured error and the connection keeps serving the next line.
#[test]
fn oversized_payload_is_refused_without_disconnect() {
    let daemon = Daemon::new(Arc::new(StubExecutor::immediate()), None, 4);
    let mut input = String::with_capacity(octo_serve::MAX_LINE_BYTES + 64);
    input.push_str("{\"req\":\"submit\",\"job\":{\"name\":\"");
    input.push_str(&"a".repeat(octo_serve::MAX_LINE_BYTES));
    input.push_str("\"}}\n{\"req\":\"ping\"}\n");
    let mut out = Vec::new();
    handle_connection(&daemon, Cursor::new(input.into_bytes()), &mut out);
    let replies: Vec<Response> = String::from_utf8(out)
        .expect("utf8 replies")
        .lines()
        .map(|l| Response::parse(l).expect("daemon reply parses"))
        .collect();
    assert_eq!(replies.len(), 2);
    assert!(matches!(&replies[0], Response::Error { message } if message.contains("exceeds")));
    assert_eq!(replies[1], Response::Pong);
}
