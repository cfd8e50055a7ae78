//! `octopocs` — command-line verification of propagated vulnerable code.
//!
//! ```text
//! octopocs --s S.mir --t T.mir --poc poc.bin --shared f1,f2 [--out poc_prime.bin]
//!          [--minimize] [--theta N] [--accelerate-loops] [--static-cfg]
//!          [--context-free] [--prescreen] [--json]
//! octopocs lint program.mir [--format human|json] [--canonical]
//! octopocs clone --s S.mir --t T.mir [--threshold X] [--top-k N]
//!          [--min-insts N] [--json]
//! octopocs scan (--corpus | --s S.mir --poc poc.bin --target T.mir...)
//!          [--threshold X] [--top-k N] [--workers N] [--deadline-secs S]
//!          [--json | --verdicts-json] [--candidates-json PATH] [--events]
//!          [--metrics-json PATH] [--metrics-prom PATH]
//! octopocs batch (--corpus | --jobs FILE) [--workers N] [--deadline-secs S]
//!          [--json | --verdicts-json] [--events] [--metrics-json PATH]
//!          [--metrics-prom PATH] [--trace-chrome PATH] [--trace-jsonl PATH]
//!          [--post-mortem] [--theta N]
//!          [--accelerate-loops] [--static-cfg] [--context-free] [--prescreen]
//!          [--fault-plan FILE] [--retry N] [--retry-backoff-ms MS]
//!          [--watchdog-quiet-secs S]
//! octopocs submit (--corpus | --s S.mir --t T.mir --poc poc.bin --shared f1,f2
//!          | --scan --s S.mir --poc poc.bin --target T.mir...)
//!          [--priority interactive|bulk] [--socket PATH | --tcp ADDR]
//! octopocs status [--id N] [--metrics-json PATH] [--socket PATH | --tcp ADDR]
//! octopocs watch --id N [--socket PATH | --tcp ADDR]
//! octopocs results [--wait] [--verdicts-json] [--socket PATH | --tcp ADDR]
//! octopocs drain [--shutdown] [--socket PATH | --tcp ADDR]
//! octopocs top --http ADDR [--windows N] [--json]
//! ```
//!
//! `S.mir`/`T.mir` are MicroIR assembly files (the dialect of
//! `octo_ir::parse`); `poc.bin` is the original PoC; `--shared` lists the
//! cloned function names (`ℓ`) as a clone detector reports them. Exit code
//! 0 = triggered (a working `poc'` exists; written to `--out` when given),
//! 1 = verified not triggerable, 2 = verification failure, 3 = usage or
//! input error.
//!
//! The `lint` subcommand runs the `octo-lint` static analyses over one
//! MicroIR program and prints the diagnostics (severity, function/block
//! location, rule id). Exit code 0 = clean or warnings only, 1 = at least
//! one error-severity diagnostic, 3 = unreadable or unparsable input.
//! `--canonical` instead prints the program's canonical normal form
//! (entry-first DFS block order, dense register/label renumbering) —
//! renamed/reordered clones print identically, so the output is directly
//! diffable.
//!
//! The `clone` subcommand retrieves cloned-function candidates between
//! two programs using `octo-clone` static fingerprints (no verification;
//! exit 0 = candidates found, 1 = none). The `scan` subcommand goes end
//! to end: it discovers the shared set ℓ per target and verifies every
//! discovered `(S, poc, Tᵢ, ℓᵢ)` job on the batch scheduler
//! (`--candidates-json` writes the stable retrieval document CI diffs
//! against `tests/golden/clone_candidates.json`). See
//! `docs/clone-scanning.md`.
//!
//! The `batch` subcommand verifies a whole job set on the work-stealing
//! scheduler with the shared artifact cache (see `octopocs::batch`).
//! `--corpus` runs the 15 Table II pairs; `--jobs FILE` reads one job per
//! line (`name S.mir T.mir poc.bin f1,f2`; `#` starts a comment).
//! `--json` emits the full machine-readable report, `--verdicts-json` the
//! stable verdicts-only document that CI diffs against its golden file,
//! and `--events` streams progress events to stderr. `--metrics-json` and
//! `--metrics-prom` write the run's metrics registry (counters, gauges,
//! phase histograms; see `docs/observability.md`) to a file as JSON or
//! Prometheus text exposition. `--trace-chrome` records the run in a
//! flight recorder and writes a Chrome Trace Event Format file (load it
//! in `chrome://tracing` or Perfetto; one lane per worker);
//! `--trace-jsonl` writes the same events as JSON lines. `--post-mortem`
//! prints, for every not-triggerable or deadline verdict, why the
//! directed engine gave up (deciding event, `ep` entry count at death,
//! dying state's constraints, flight-record tail).
//!
//! Robustness knobs (see `docs/robustness.md`): `--fault-plan FILE`
//! loads a deterministic fault-injection plan (JSON; seed + per-site
//! rules) and replays it byte-for-byte; `--retry N` attempts each job up
//! to N times on transient failures (deadline, hung, panic, injected
//! fault), quarantining jobs that still fail; `--retry-backoff-ms MS`
//! sets the base backoff between attempts; `--watchdog-quiet-secs S`
//! spawns a watchdog that escalates a job whose heartbeat stays silent
//! for S seconds. Exit code 0 = the batch ran (whatever the verdicts),
//! 3 = usage or input error, 130 = drained by SIGINT/SIGTERM (the first
//! signal winds every in-flight job down cooperatively and the partial
//! report — metrics files included — is still written; a second signal
//! force-exits).
//!
//! The `submit`, `status`, `watch`, `results`, and `drain` subcommands
//! are clients of a running `octopocsd` daemon (see `docs/service.md`):
//! `submit` admits jobs — the 15-pair corpus, one explicit pair, or a
//! client-side clone-scan expansion (`--scan`, same knobs as `octopocs
//! scan`) — and prints one `accepted <id> <name>` line per job (exit 1
//! if any submission was rejected by backpressure); `status` shows the
//! queue (or one job with `--id`, or writes the daemon's metrics
//! registry with `--metrics-json`); `watch` streams one job's progress
//! events as JSON lines until its verdict; `results` prints finished
//! verdicts (`--wait` blocks until the queue empties, `--verdicts-json`
//! emits the same stable document as `octopocs batch --verdicts-json`);
//! `drain` asks the daemon to finish queued work and exit
//! (`--shutdown` cancels in-flight jobs instead, leaving them for
//! journal replay).

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use octo_ir::parse::{parse_program, parse_valid_program};
use octo_obs::MetricsRegistry;
use octo_poc::PocFile;
use octo_sched::{Event, EventSink, NullSink};
use octo_serve::{Client, Endpoint, JobSpec, Priority as ServePriority, Request, Response};
use octopocs::batch::{corpus_jobs, run_batch, BatchJob, BatchReport};
use octopocs::cli::{walk, Argv, EngineFlags, ENGINE_FLAGS};
use octopocs::{verify, ScanSource, ScanTarget, SoftwarePairInput, Verdict};

const USAGE: &str = "usage: octopocs --s S.mir --t T.mir --poc poc.bin --shared f1,f2 \
     [--out poc_prime.bin] [--minimize] [--theta N] [--accelerate-loops] \
     [--static-cfg] [--context-free] [--prescreen] [--json]\n       \
     octopocs lint program.mir [--format human|json] [--canonical]\n       \
     octopocs clone --s S.mir --t T.mir [--threshold X] [--top-k N] \
     [--min-insts N] [--json]\n       \
     octopocs scan (--corpus | --s S.mir --poc poc.bin --target T.mir...) \
     [--threshold X] [--top-k N] [--workers N] [--deadline-secs S] \
     [--cache-dir DIR] [--json | --verdicts-json] [--candidates-json PATH] \
     [--events] [--metrics-json PATH] [--metrics-prom PATH]\n       \
     octopocs batch (--corpus | --jobs FILE) [--workers N] \
     [--deadline-secs S] [--cache-dir DIR] [--json | --verdicts-json] \
     [--events] [--metrics-json PATH] [--metrics-prom PATH] \
     [--trace-chrome PATH] [--trace-jsonl PATH] [--post-mortem] [--theta N] \
     [--accelerate-loops] [--static-cfg] [--context-free] [--prescreen] \
     [--fault-plan FILE] [--retry N] [--retry-backoff-ms MS] \
     [--watchdog-quiet-secs S]\n       \
     octopocs cache (stats | verify | gc) --cache-dir DIR [--json] \
     [--keep-generations N] [--max-age-secs S]\n       \
     octopocs submit (--corpus | --s S.mir --t T.mir --poc poc.bin --shared f1,f2 | \
     --scan --s S.mir --poc poc.bin --target T.mir...) \
     [--priority interactive|bulk] [--socket PATH | --tcp ADDR]\n       \
     octopocs status [--id N] [--metrics-json PATH] [--socket PATH | --tcp ADDR]\n       \
     octopocs watch --id N [--socket PATH | --tcp ADDR]\n       \
     octopocs results [--wait] [--verdicts-json] [--socket PATH | --tcp ADDR]\n       \
     octopocs drain [--shutdown] [--socket PATH | --tcp ADDR]\n       \
     octopocs top --http ADDR [--windows N] [--json]";

/// The engine flags `scan` accepts (`batch` accepts all of them).
const SCAN_ENGINE_FLAGS: &[&str] = &["--workers", "--deadline-secs", "--cache-dir"];

/// The engine flags the single-pair mode accepts.
const PAIR_ENGINE_FLAGS: &[&str] = &[
    "--theta",
    "--accelerate-loops",
    "--static-cfg",
    "--context-free",
    "--prescreen",
];

/// A subcommand's outcome: `Err` is an early exit whose diagnostic has
/// already been printed.
type Exit = Result<ExitCode, ExitCode>;

/// A subcommand: its arguments (after the name) to its outcome.
type Subcommand = fn(&[String]) -> Exit;

/// The subcommands by name; any other first argument is the single-pair
/// mode.
const SUBCOMMANDS: [(&str, Subcommand); 11] = [
    ("lint", lint_main),
    ("batch", batch_main),
    ("clone", clone_main),
    ("scan", scan_main),
    ("cache", cache_main),
    ("submit", submit_main),
    ("status", status_main),
    ("watch", watch_main),
    ("results", results_main),
    ("drain", drain_main),
    ("top", top_main),
];

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let subcommand = SUBCOMMANDS
        .iter()
        .find(|(name, _)| argv.first().is_some_and(|arg| arg == name));
    let exit = match subcommand {
        Some((_, run)) => run(&argv[1..]),
        None => pair_main(&argv),
    };
    exit.unwrap_or_else(|code| code)
}

/// A usage error: `msg` (when not empty), then the usage text; exit 3.
fn usage_error(msg: impl AsRef<str>) -> ExitCode {
    octopocs::cli::usage_error(USAGE, msg.as_ref())
}

/// A message printed as it is; exit 3. The single-pair mode and `lint`
/// put the usage text into the messages that need it.
fn bare_error(msg: String) -> ExitCode {
    eprintln!("{msg}");
    ExitCode::from(3)
}

/// An input, output or connection error: `error: msg`; exit 3.
fn input_error(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::from(3)
}

/// A daemon reply the subcommand has no use for; exit 3.
fn unexpected(response: &Response) -> ExitCode {
    input_error(format!("unexpected response {}", response.render()))
}

fn load_program(path: &str) -> Result<octo_ir::Program, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_valid_program(&src).map_err(|e| format!("{path}: {e}"))
}

/// Writes `content` to `path`; a failure prints `error writing` and
/// exits 3.
fn write_file(path: &str, content: impl AsRef<[u8]>) -> Result<(), ExitCode> {
    std::fs::write(path, content).map_err(|e| {
        eprintln!("error writing {path}: {e}");
        ExitCode::from(3)
    })
}

/// Writes every output file the command line asked for, in order.
fn write_outputs(outputs: Vec<(&Option<String>, String)>) -> Result<(), ExitCode> {
    for (path, content) in outputs {
        if let Some(path) = path {
            write_file(path, content)?;
        }
    }
    Ok(())
}

/// Splits a `--shared` list (`f1,f2`) into function names; blanks around
/// the commas are not part of a name.
fn split_shared(list: &str) -> Vec<String> {
    list.split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect()
}

/// The files of one explicit `(S, T, poc, ℓ)` pair: the single-pair mode
/// and `submit`.
#[derive(Default)]
struct PairPaths {
    s: String,
    t: String,
    poc: String,
    shared: Vec<String>,
}

impl PairPaths {
    /// Takes `--s`, `--t`, `--poc` or `--shared`; `false` for any other
    /// flag.
    fn flag(&mut self, flag: &str, args: &mut Argv<'_>) -> Result<bool, String> {
        match flag {
            "--s" => self.s = args.value(flag)?,
            "--t" => self.t = args.value(flag)?,
            "--poc" => self.poc = args.value(flag)?,
            "--shared" => self.shared = split_shared(&args.value(flag)?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Reads S, T and the PoC into a job named `S => T`, printing an
    /// `error:` line for every input that fails.
    fn load(self) -> Result<BatchJob, ExitCode> {
        match (
            load_program(&self.s),
            load_program(&self.t),
            std::fs::read(&self.poc),
        ) {
            (Ok(s), Ok(t), Ok(poc)) => Ok(BatchJob {
                name: format!("{} => {}", self.s, self.t),
                s,
                t,
                poc: PocFile::new(poc),
                shared: self.shared,
            }),
            (s, t, poc) => {
                let poc = poc.err().map(|e| format!("{}: {e}", self.poc));
                for msg in [s.err(), t.err(), poc].into_iter().flatten() {
                    eprintln!("error: {msg}");
                }
                Err(ExitCode::from(3))
            }
        }
    }
}

/// Reads the source, PoC and target files of a file-based scan (`scan`
/// and `submit --scan`); the first failure prints `error:` and exits 3.
fn load_scan(
    s_path: &str,
    poc_path: &str,
    target_paths: &[String],
) -> Result<(ScanSource, Vec<ScanTarget>), ExitCode> {
    let s = load_program(s_path).map_err(input_error)?;
    let poc = std::fs::read(poc_path).map_err(|e| input_error(format!("{poc_path}: {e}")))?;
    let targets = target_paths
        .iter()
        .map(|path| {
            let t = load_program(path).map_err(input_error)?;
            Ok(ScanTarget {
                name: path.clone(),
                t,
            })
        })
        .collect::<Result<_, ExitCode>>()?;
    let source = ScanSource {
        name: s_path.to_string(),
        s,
        poc: PocFile::new(poc),
    };
    Ok((source, targets))
}

/// The single-pair mode: verify one `(S, T, poc, ℓ)` pair.
fn pair_main(argv: &[String]) -> Exit {
    let mut pair = PairPaths::default();
    let mut engine = EngineFlags::default();
    let mut out: Option<String> = None;
    let (mut minimize, mut json) = (false, false);
    walk(argv, |flag, args| {
        match flag {
            "--out" => out = Some(args.value(flag)?),
            "--minimize" => minimize = true,
            "--json" => json = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => {
                if !pair.flag(other, args)? && !engine.flag(other, args, PAIR_ENGINE_FLAGS)? {
                    return Err(format!("unknown flag `{other}`\n{USAGE}"));
                }
            }
        }
        Ok(())
    })
    .map_err(bare_error)?;
    if pair.s.is_empty() || pair.t.is_empty() || pair.poc.is_empty() {
        return Err(bare_error(format!(
            "--s, --t and --poc are required\n{USAGE}"
        )));
    }
    if pair.shared.is_empty() {
        return Err(bare_error(format!(
            "--shared must list at least one function\n{USAGE}"
        )));
    }
    let job = pair.load()?;
    let input = SoftwarePairInput {
        s: &job.s,
        t: &job.t,
        poc: &job.poc,
        shared: &job.shared,
    };
    let report = verify(&input, &engine.config);

    if json {
        // Hand-rolled JSON keeps the core crate dependency-free.
        println!(
            "{{\"verdict\":\"{}\",\"poc_generated\":{},\"verified\":{},\"ep\":\"{}\",\
             \"ep_entries\":{},\"prescreen\":{},\"wall_seconds\":{:.6}}}",
            report.verdict.type_label(),
            report.verdict.poc_generated(),
            report.verdict.verified(),
            report.ep_name.as_deref().unwrap_or(""),
            report.ep_entries,
            report.prescreen,
            report.wall_seconds,
        );
    } else {
        println!("verdict    : {}", report.verdict);
        if let Some(ep) = &report.ep_name {
            println!("ep         : {ep} ({} entries in S)", report.ep_entries);
        }
        if report.prescreen {
            println!("prescreen  : verdict decided statically in P0");
        }
        println!("time       : {:.3}s", report.wall_seconds);
    }

    let poc_prime = match &report.verdict {
        Verdict::Triggered { poc_prime, .. } => poc_prime,
        Verdict::NotTriggerable { .. } => return Ok(ExitCode::from(1)),
        Verdict::Failure { .. } => return Ok(ExitCode::from(2)),
    };
    let poc_prime = if minimize {
        let shared_ids = job.t.resolve_names(job.shared.iter().map(String::as_str));
        let (min, stats) =
            octopocs::minimize_poc(&job.t, poc_prime, &shared_ids, octo_vm::Limits::default());
        if !json {
            println!(
                "minimized  : {} -> {} bytes ({} zeroed, {} execs)",
                stats.len_before, stats.len_after, stats.bytes_zeroed, stats.execs
            );
        }
        min
    } else {
        poc_prime.clone()
    };
    if let Some(out) = &out {
        write_file(out, poc_prime.bytes())?;
        if !json {
            println!("poc' written to {out} ({} bytes)", poc_prime.len());
        }
    } else if !json {
        println!("poc' hexdump:\n{}", poc_prime.hexdump());
    }
    Ok(ExitCode::SUCCESS)
}

/// The `octopocs lint` subcommand: static analysis of one program.
fn lint_main(argv: &[String]) -> Exit {
    let mut path: Option<&str> = None;
    let (mut json, mut canonical) = (false, false);
    walk(argv, |arg, args| {
        match arg {
            "--canonical" => canonical = true,
            "--format" => {
                json = match args.value(arg).as_deref() {
                    Ok("json") => true,
                    Ok("human") => false,
                    other => {
                        return Err(format!(
                            "bad --format `{}` (expected human|json)",
                            other.unwrap_or("")
                        ))
                    }
                }
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other if !other.starts_with('-') && path.is_none() => path = Some(other),
            other => return Err(format!("unknown lint argument `{other}`\n{USAGE}")),
        }
        Ok(())
    })
    .map_err(bare_error)?;
    let Some(path) = path else {
        return Err(bare_error(format!(
            "lint: a program file is required\n{USAGE}"
        )));
    };
    // Parse only — structural validation is the lint's own VAL001 rule,
    // so invalid programs are reported, not rejected.
    let src = std::fs::read_to_string(path).map_err(|e| input_error(format!("{path}: {e}")))?;
    let program = parse_program(&src).map_err(|e| input_error(format!("{path}: {e}")))?;
    if canonical {
        // Canonicalization mode: print the normal form (entry-first DFS
        // block order, dense register/label renumbering) instead of the
        // diagnostics. `parse(print_canonical(p))` is a fixed point, so
        // the output is diffable across renamed/reordered variants.
        print!("{}", octo_ir::printer::print_program_canonical(&program));
        return Ok(ExitCode::SUCCESS);
    }
    let report = octo_lint::lint_program(&program);
    if json {
        println!("{}", report.render_json());
    } else {
        print!("{}", report.render_human());
    }
    Ok(if report.error_count() > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

/// Parses the retrieval knobs shared by `clone`, `scan` and `submit`;
/// `false` for any other flag.
fn clone_param(
    flag: &str,
    args: &mut Argv<'_>,
    params: &mut octo_clone::CloneParams,
) -> Result<bool, String> {
    match flag {
        "--threshold" => {
            params.threshold = args.parse(flag)?;
            if !(0.0..=1.0).contains(&params.threshold) {
                return Err("--threshold must be in [0, 1]".to_string());
            }
        }
        "--top-k" => params.top_k = args.parse_nonzero(flag)?,
        "--min-insts" => params.min_insts = args.parse(flag)?,
        _ => return Ok(false),
    }
    Ok(true)
}

/// The `octopocs clone` subcommand: retrieve clone candidates between
/// two programs (no verification). Exit 0 = at least one candidate,
/// 1 = none, 3 = usage or input error.
fn clone_main(argv: &[String]) -> Exit {
    let (mut s_path, mut t_path) = (String::new(), String::new());
    let mut params = octo_clone::CloneParams::default();
    let mut json = false;
    walk(argv, |flag, args| {
        match flag {
            "--s" => s_path = args.value(flag)?,
            "--t" => t_path = args.value(flag)?,
            "--json" => json = true,
            "--help" | "-h" => return Err(String::new()),
            other => {
                if !clone_param(other, args, &mut params)? {
                    return Err(format!("unknown clone flag `{other}`"));
                }
            }
        }
        Ok(())
    })
    .map_err(usage_error)?;
    if s_path.is_empty() || t_path.is_empty() {
        return Err(usage_error("clone: --s and --t are required"));
    }
    let (s, t) = match (load_program(&s_path), load_program(&t_path)) {
        (Ok(s), Ok(t)) => (s, t),
        (s, t) => {
            for msg in [s.err(), t.err()].into_iter().flatten() {
                eprintln!("error: {msg}");
            }
            return Err(ExitCode::from(3));
        }
    };
    let expansion = octopocs::expand_scan(
        &[ScanSource {
            name: s_path.clone(),
            s,
            poc: PocFile::new(Vec::new()),
        }],
        &[ScanTarget {
            name: t_path.clone(),
            t,
        }],
        &params,
    );
    if json {
        print!("{}", expansion.render_candidates_json());
    } else {
        print!("{}", expansion.render_candidates_human());
    }
    Ok(if expansion.candidate_count() > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// Prints one progress event to stderr (`--events`).
fn print_event(event: Event) {
    eprintln!("{}", event.render_human());
}

/// The report flags `batch` and `scan` share.
#[derive(Default)]
struct ReportFlags {
    json: bool,
    verdicts_json: bool,
    events: bool,
    metrics_json: Option<String>,
    metrics_prom: Option<String>,
}

impl ReportFlags {
    /// Takes one report flag; `false` for any other flag.
    fn flag(&mut self, flag: &str, args: &mut Argv<'_>) -> Result<bool, String> {
        match flag {
            "--json" => self.json = true,
            "--verdicts-json" => self.verdicts_json = true,
            "--events" => self.events = true,
            "--metrics-json" => self.metrics_json = Some(args.value(flag)?),
            "--metrics-prom" => self.metrics_prom = Some(args.value(flag)?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Refuses `--json` together with `--verdicts-json`.
    fn check(&self) -> Result<(), ExitCode> {
        if self.json && self.verdicts_json {
            return Err(usage_error(
                "--json and --verdicts-json are mutually exclusive",
            ));
        }
        Ok(())
    }

    /// Where progress events go: stderr under `--events`, else nowhere.
    fn sink(&self) -> &'static dyn EventSink {
        if self.events {
            &print_event
        } else {
            &NullSink
        }
    }

    /// The metrics files asked for, rendered.
    fn metrics_outputs(&self, metrics: &MetricsRegistry) -> Vec<(&Option<String>, String)> {
        vec![
            (&self.metrics_json, metrics.render_json()),
            (&self.metrics_prom, metrics.render_prometheus()),
        ]
    }

    /// Prints the report in the chosen format: the stable verdicts
    /// document, the full JSON report, or the human summary.
    fn print(&self, report: &BatchReport) {
        if self.verdicts_json {
            print!("{}", report.render_verdicts_json());
        } else if self.json {
            println!("{}", report.render_json());
        } else {
            print!("{}", report.render_human());
        }
    }
}

/// The `octopocs scan` subcommand: discover ℓ per target and verify
/// every discovered pair on the batch scheduler. Exit 0 = the scan ran,
/// 3 = usage or input error.
fn scan_main(argv: &[String]) -> Exit {
    let mut corpus = false;
    let (mut s_path, mut poc_path) = (String::new(), String::new());
    let mut target_paths: Vec<String> = Vec::new();
    let mut params = octo_clone::CloneParams::default();
    let mut engine = EngineFlags::default();
    let mut report_flags = ReportFlags::default();
    let mut candidates_json: Option<String> = None;
    walk(argv, |flag, args| {
        match flag {
            "--corpus" => corpus = true,
            "--s" => s_path = args.value(flag)?,
            "--poc" => poc_path = args.value(flag)?,
            "--target" => target_paths.push(args.value(flag)?),
            "--candidates-json" => candidates_json = Some(args.value(flag)?),
            "--help" | "-h" => return Err(String::new()),
            other => {
                if !report_flags.flag(other, args)?
                    && !engine.flag(other, args, SCAN_ENGINE_FLAGS)?
                    && !clone_param(other, args, &mut params)?
                {
                    return Err(format!("unknown scan flag `{other}`"));
                }
            }
        }
        Ok(())
    })
    .map_err(usage_error)?;
    if corpus == (!s_path.is_empty() || !target_paths.is_empty()) {
        return Err(usage_error(
            "exactly one of --corpus or (--s/--poc/--target...) is required",
        ));
    }
    report_flags.check()?;
    let (sources, targets) = if corpus {
        octopocs::corpus_scan_inputs()
    } else {
        if s_path.is_empty() || poc_path.is_empty() || target_paths.is_empty() {
            return Err(usage_error(
                "scan needs --s, --poc and at least one --target",
            ));
        }
        let (source, targets) = load_scan(&s_path, &poc_path, &target_paths)?;
        (vec![source], targets)
    };

    let report = octopocs::run_scan(
        &sources,
        &targets,
        &params,
        &engine.config,
        &engine.options,
        report_flags.sink(),
    );

    let mut outputs = vec![(&candidates_json, report.expansion.render_candidates_json())];
    outputs.extend(report_flags.metrics_outputs(&report.batch.metrics));
    write_outputs(outputs)?;

    if !report_flags.json && !report_flags.verdicts_json {
        print!("{}", report.expansion.render_candidates_human());
    }
    report_flags.print(&report.batch);
    Ok(ExitCode::SUCCESS)
}

/// Reads a `--jobs` file: one job per whitespace-separated line
/// (`name S.mir T.mir poc.bin f1,f2`), `#` starting a comment.
fn load_job_file(path: &str) -> Result<Vec<BatchJob>, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut jobs = Vec::new();
    for (lineno, line) in src.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [name, s_path, t_path, poc_path, shared] = fields[..] else {
            return Err(format!(
                "{path}:{}: expected `name S.mir T.mir poc.bin f1,f2`, got {} fields",
                lineno + 1,
                fields.len()
            ));
        };
        let poc_bytes = std::fs::read(poc_path)
            .map_err(|e| format!("{path}:{}: {poc_path}: {e}", lineno + 1))?;
        jobs.push(BatchJob {
            name: name.to_string(),
            s: load_program(s_path).map_err(|e| format!("{path}:{}: {e}", lineno + 1))?,
            t: load_program(t_path).map_err(|e| format!("{path}:{}: {e}", lineno + 1))?,
            poc: PocFile::new(poc_bytes),
            shared: split_shared(shared),
        });
    }
    if jobs.is_empty() {
        return Err(format!("{path}: no jobs"));
    }
    Ok(jobs)
}

/// The `octopocs batch` subcommand: scheduled batch verification.
fn batch_main(argv: &[String]) -> Exit {
    let mut corpus = false;
    let mut jobs_path: Option<String> = None;
    let mut engine = EngineFlags::default();
    let mut report_flags = ReportFlags::default();
    let (mut trace_chrome, mut trace_jsonl): (Option<String>, Option<String>) = (None, None);
    let mut post_mortem = false;
    walk(argv, |flag, args| {
        match flag {
            "--corpus" => corpus = true,
            "--jobs" => jobs_path = Some(args.value(flag)?),
            "--trace-chrome" => trace_chrome = Some(args.value(flag)?),
            "--trace-jsonl" => trace_jsonl = Some(args.value(flag)?),
            "--post-mortem" => post_mortem = true,
            "--help" | "-h" => return Err(String::new()),
            other => {
                if !report_flags.flag(other, args)? && !engine.flag(other, args, ENGINE_FLAGS)? {
                    return Err(format!("unknown batch flag `{other}`"));
                }
            }
        }
        Ok(())
    })
    .map_err(usage_error)?;
    if corpus == jobs_path.is_some() {
        return Err(usage_error("exactly one of --corpus or --jobs is required"));
    }
    report_flags.check()?;
    let jobs = match &jobs_path {
        Some(path) => load_job_file(path).map_err(input_error)?,
        None => corpus_jobs(),
    };
    let EngineFlags {
        mut options,
        config,
    } = engine;

    // A flight recorder only when an export asked for one; otherwise
    // tracing stays a no-op in every engine.
    let recorder = (trace_chrome.is_some() || trace_jsonl.is_some())
        .then(|| Arc::new(octopocs::FlightRecorder::with_default_capacity()));
    options.trace = recorder.clone();

    // Graceful drain on the first SIGINT/SIGTERM: the run-level token
    // winds every in-flight job down as `Cancelled`, the partial report
    // (metrics files included) is still written, and the exit code
    // flips to 130. A second signal force-exits immediately.
    let drain = octo_sched::CancelToken::new();
    if octo_sched::install_drain_signals(&drain) {
        options.cancel = Some(drain.clone());
    }

    let report = run_batch(&jobs, &config, &options, report_flags.sink());

    let mut outputs = report_flags.metrics_outputs(&report.metrics);
    if let Some(rec) = &recorder {
        let snapshot = rec.snapshot();
        if rec.dropped() > 0 {
            eprintln!(
                "trace: ring overflowed, {} oldest events overwritten",
                rec.dropped()
            );
        }
        outputs.push((&trace_chrome, octo_trace::chrome::render_chrome(&snapshot)));
        let lines: String = snapshot.iter().map(|e| e.render_json() + "\n").collect();
        outputs.push((&trace_jsonl, lines));
    }
    write_outputs(outputs)?;

    if post_mortem {
        let mortems = report.render_post_mortems();
        let text = if mortems.is_empty() {
            "no post-mortems: no job ended not-triggerable or on a deadline\n".to_string()
        } else {
            mortems
        };
        // Keep machine-readable stdout intact when a JSON mode is on.
        if report_flags.json || report_flags.verdicts_json {
            eprint!("{text}");
        } else {
            print!("{text}");
        }
    }

    report_flags.print(&report);
    if drain.is_cancelled() {
        let incomplete = report
            .entries
            .iter()
            .filter(|e| {
                matches!(
                    &e.report.verdict,
                    Verdict::Failure {
                        reason: octopocs::FailureReason::Cancelled
                    }
                )
            })
            .count();
        eprintln!("batch: drained by signal; {incomplete} job(s) incomplete");
        return Ok(ExitCode::from(130));
    }
    Ok(ExitCode::SUCCESS)
}

/// The `octopocs cache` subcommand: offline maintenance of a disk
/// artifact cache (`--cache-dir`) — `stats`, `verify` (re-check every
/// blob's frame and checksum), `gc` (prune by generation/age, sweep
/// orphan temp files). See docs/caching.md.
fn cache_main(argv: &[String]) -> Exit {
    let Some(action) = argv.first().map(String::as_str) else {
        return Err(usage_error("cache needs an action: stats, verify or gc"));
    };
    if !matches!(action, "stats" | "verify" | "gc") {
        return Err(usage_error(format!("unknown cache action `{action}`")));
    }
    let mut cache_dir: Option<String> = None;
    let mut json = false;
    let (mut keep_generations, mut max_age_secs): (Option<u64>, Option<u64>) = (None, None);
    walk(&argv[1..], |flag, args| {
        match flag {
            "--cache-dir" => cache_dir = Some(args.value(flag)?),
            "--json" => json = true,
            "--keep-generations" => keep_generations = Some(args.parse(flag)?),
            "--max-age-secs" => max_age_secs = Some(args.parse(flag)?),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown cache flag `{other}`")),
        }
        Ok(())
    })
    .map_err(usage_error)?;
    let Some(dir) = cache_dir else {
        return Err(usage_error("cache needs --cache-dir DIR"));
    };
    if (keep_generations.is_some() || max_age_secs.is_some()) && action != "gc" {
        return Err(usage_error(
            "--keep-generations/--max-age-secs only apply to gc",
        ));
    }
    let store = octopocs::BlobStore::open(std::path::Path::new(&dir));
    if store.is_degraded() {
        eprintln!("error: {dir} is not usable as a cache directory");
        return Err(ExitCode::from(2));
    }
    match action {
        "stats" => {
            let stats = store.stats();
            if json {
                println!(
                    "{{\"entries\":{},\"generation\":{},\"degraded\":{}}}",
                    stats.entries, stats.generation, stats.degraded
                );
            } else {
                println!(
                    "cache {dir}: {} entries, generation {}",
                    stats.entries, stats.generation
                );
            }
            Ok(ExitCode::SUCCESS)
        }
        "verify" => {
            let report = store.verify();
            if json {
                let keys: Vec<String> = report
                    .corrupt
                    .iter()
                    .map(|k| format!("\"{k:016x}\""))
                    .collect();
                println!(
                    "{{\"valid\":{},\"corrupt\":[{}],\"orphan_temps\":{}}}",
                    report.valid,
                    keys.join(","),
                    report.orphan_temps
                );
            } else {
                for key in &report.corrupt {
                    println!("corrupt: {key:016x}");
                }
                println!(
                    "verified {dir}: {} valid, {} corrupt, {} orphan temp file(s)",
                    report.valid,
                    report.corrupt.len(),
                    report.orphan_temps
                );
            }
            Ok(if report.corrupt.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        _ => {
            let report = store.gc(keep_generations, max_age_secs);
            if json {
                println!(
                    "{{\"removed\":{},\"kept\":{},\"temps_swept\":{}}}",
                    report.removed, report.kept, report.temps_swept
                );
            } else {
                println!(
                    "gc {dir}: removed {}, kept {}, swept {} temp file(s)",
                    report.removed, report.kept, report.temps_swept
                );
            }
            Ok(ExitCode::SUCCESS)
        }
    }
}

// ---------------------------------------------------------------------------
// Service client subcommands: thin drivers of a running `octopocsd`
// daemon over the `octo-serve` wire protocol (see docs/service.md).

/// Connects to the daemon — by default on its default Unix socket,
/// `octopocsd.sock`, in the current directory. A failure prints `error:`
/// and exits 3.
fn connect(socket: Option<String>, tcp: Option<String>) -> Result<Client, ExitCode> {
    let endpoint = match (socket, tcp) {
        (Some(_), Some(_)) => return Err(input_error("--socket and --tcp are mutually exclusive")),
        (_, Some(addr)) => Endpoint::Tcp(addr),
        (path, None) => Endpoint::Unix(path.unwrap_or_else(|| "octopocsd.sock".to_string()).into()),
    };
    Client::connect(&endpoint).map_err(input_error)
}

/// The `octopocs submit` subcommand: admit jobs into a running daemon.
/// Exit 0 = every job accepted, 1 = at least one rejected (backpressure
/// or invalid), 3 = usage or connection error.
fn submit_main(argv: &[String]) -> Exit {
    let (mut corpus, mut scan) = (false, false);
    let mut pair = PairPaths::default();
    let mut target_paths: Vec<String> = Vec::new();
    let mut params = octo_clone::CloneParams::default();
    let mut priority: Option<ServePriority> = None;
    let (mut socket, mut tcp): (Option<String>, Option<String>) = (None, None);
    walk(argv, |flag, args| {
        match flag {
            "--corpus" => corpus = true,
            "--scan" => scan = true,
            "--target" => target_paths.push(args.value(flag)?),
            "--priority" => {
                priority = Some(
                    ServePriority::parse(&args.value(flag)?)
                        .map_err(|e| format!("bad --priority: {e}"))?,
                )
            }
            "--socket" => socket = Some(args.value(flag)?),
            "--tcp" => tcp = Some(args.value(flag)?),
            "--help" | "-h" => return Err(String::new()),
            other => {
                if !pair.flag(other, args)? && !clone_param(other, args, &mut params)? {
                    return Err(format!("unknown submit flag `{other}`"));
                }
            }
        }
        Ok(())
    })
    .map_err(usage_error)?;
    let single = !pair.s.is_empty() && !scan;
    if usize::from(corpus) + usize::from(scan) + usize::from(single) != 1 {
        return Err(usage_error(
            "exactly one of --corpus, --scan, or (--s/--t/--poc/--shared) is required",
        ));
    }
    // Corpus/scan expansions default to bulk; a single pair is a human
    // waiting and defaults to interactive.
    let (jobs, default_priority) = if corpus {
        (corpus_jobs(), ServePriority::Bulk)
    } else if scan {
        if pair.s.is_empty() || pair.poc.is_empty() || target_paths.is_empty() {
            return Err(usage_error(
                "--scan needs --s, --poc and at least one --target",
            ));
        }
        let (source, targets) = load_scan(&pair.s, &pair.poc, &target_paths)?;
        let expansion = octopocs::expand_scan(&[source], &targets, &params);
        (expansion.jobs, ServePriority::Bulk)
    } else {
        if pair.t.is_empty() || pair.poc.is_empty() || pair.shared.is_empty() {
            return Err(usage_error("submit needs --s, --t, --poc and --shared"));
        }
        (vec![pair.load()?], ServePriority::Interactive)
    };
    let priority = priority.unwrap_or(default_priority);

    let mut client = connect(socket, tcp)?;
    let mut refused = 0usize;
    for job in &jobs {
        let spec = JobSpec::from_job(job, priority);
        let refusal = match client.request(&Request::Submit { job: spec }) {
            Ok(Response::Accepted { id }) => {
                println!("accepted {id} {}", job.name);
                continue;
            }
            Ok(Response::Rejected { reason }) => format!("rejected {}: {reason}", job.name),
            Ok(Response::Error { message }) => format!("error {}: {message}", job.name),
            Ok(other) => format!("error {}: unexpected response {}", job.name, other.render()),
            Err(e) => return Err(input_error(e)),
        };
        eprintln!("{refusal}");
        refused += 1;
    }
    Ok(if refused > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

/// The flags of the small client subcommands (`status`, `watch`,
/// `results`, `drain`).
#[derive(Default)]
struct ClientArgs {
    socket: Option<String>,
    tcp: Option<String>,
    id: Option<u64>,
    metrics_json: Option<String>,
    wait: bool,
    verdicts_json: bool,
    shutdown: bool,
}

/// Parses a client subcommand's flags; an error prints the message and
/// the usage text and exits 3.
fn parse_client_args(argv: &[String], subcommand: &str) -> Result<ClientArgs, ExitCode> {
    let mut a = ClientArgs::default();
    walk(argv, |flag, args| {
        match flag {
            "--socket" => a.socket = Some(args.value(flag)?),
            "--tcp" => a.tcp = Some(args.value(flag)?),
            "--id" => a.id = Some(args.parse(flag)?),
            "--metrics-json" if subcommand == "status" => a.metrics_json = Some(args.value(flag)?),
            "--wait" if subcommand == "results" => a.wait = true,
            "--verdicts-json" if subcommand == "results" => a.verdicts_json = true,
            "--shutdown" if subcommand == "drain" => a.shutdown = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown {subcommand} flag `{other}`")),
        }
        Ok(())
    })
    .map_err(|msg| {
        eprintln!("{msg}\n{USAGE}");
        ExitCode::from(3)
    })?;
    Ok(a)
}

fn render_job_status(j: &octo_serve::JobStatus) -> String {
    let verdict = j
        .verdict
        .as_ref()
        .map(|v| {
            format!(
                " verdict={}{}",
                v.verdict,
                if v.quarantined { " (quarantined)" } else { "" }
            )
        })
        .unwrap_or_default();
    format!(
        "job {} [{}] {} {}{verdict}",
        j.id,
        j.priority.label(),
        j.phase.label(),
        j.name
    )
}

/// The `octopocs status` subcommand. Exit 0 = answered, 1 = unknown job
/// id, 3 = usage or connection error.
fn status_main(argv: &[String]) -> Exit {
    let args = parse_client_args(argv, "status")?;
    let mut client = connect(args.socket, args.tcp)?;
    if let Some(path) = &args.metrics_json {
        match client.request(&Request::Metrics).map_err(input_error)? {
            Response::Metrics { body } => write_file(path, body)?,
            other => return Err(unexpected(&other)),
        }
    }
    match client
        .request(&Request::Status { id: args.id })
        .map_err(input_error)?
    {
        Response::Status(s) => println!(
            "queued: {} interactive + {} bulk (capacity {}), running: {}, done: {}{}",
            s.queued_interactive,
            s.queued_bulk,
            s.capacity,
            s.running,
            s.done,
            if s.draining { ", draining" } else { "" }
        ),
        Response::Job(j) => {
            println!("{}", render_job_status(&j));
            for line in j.post_mortem.iter().flat_map(|pm| pm.lines()) {
                println!("  {line}");
            }
        }
        Response::Error { message } => {
            eprintln!("error: {message}");
            return Ok(ExitCode::from(1));
        }
        other => return Err(unexpected(&other)),
    }
    Ok(ExitCode::SUCCESS)
}

/// The `octopocs watch` subcommand: stream one job's events as JSON
/// lines until its verdict. Exit 0 = done line received, 2 = the stream
/// ended in an error line, 3 = usage or connection error.
fn watch_main(argv: &[String]) -> Exit {
    let args = parse_client_args(argv, "watch")?;
    let Some(id) = args.id else {
        return Err(usage_error("watch needs --id"));
    };
    let mut client = connect(args.socket, args.tcp)?;
    client.send(&Request::Watch { id }).map_err(input_error)?;
    let failure = loop {
        match client.recv() {
            Ok(Some(resp @ Response::Event(_))) => println!("{}", resp.render()),
            Ok(Some(resp @ Response::Done { .. })) => {
                println!("{}", resp.render());
                return Ok(ExitCode::SUCCESS);
            }
            Ok(Some(Response::Error { message })) => break message,
            Ok(Some(other)) => break format!("unexpected response {}", other.render()),
            Ok(None) => break "daemon closed the connection".to_string(),
            Err(e) => break e,
        }
    };
    eprintln!("error: {failure}");
    Ok(ExitCode::from(2))
}

/// The `octopocs results` subcommand. `--wait` blocks until the queue
/// is empty; `--verdicts-json` prints the same stable document as
/// `octopocs batch --verdicts-json`. Exit 0 = answered, 3 = usage or
/// connection error.
fn results_main(argv: &[String]) -> Exit {
    let args = parse_client_args(argv, "results")?;
    let mut client = connect(args.socket, args.tcp)?;
    if args.wait {
        loop {
            match client
                .request(&Request::Status { id: None })
                .map_err(input_error)?
            {
                Response::Status(s) if s.queued_interactive + s.queued_bulk + s.running == 0 => {
                    break
                }
                Response::Status(_) => std::thread::sleep(Duration::from_millis(100)),
                other => return Err(unexpected(&other)),
            }
        }
    }
    let jobs = match client.request(&Request::Results).map_err(input_error)? {
        Response::Results { jobs } => jobs,
        other => return Err(unexpected(&other)),
    };
    if args.verdicts_json {
        // Byte-identical to `octopocs batch --verdicts-json` (and the CI
        // golden): rows in submission order.
        let rows = jobs
            .iter()
            .map(|row| (row.name.as_str(), row.verdict.clone()));
        print!("{}", octo_serve::render_verdicts_json(rows));
    } else {
        for row in &jobs {
            println!(
                "{:>4}  {:<28} {}{}",
                row.id,
                row.verdict.verdict,
                row.name,
                if row.verdict.quarantined {
                    "  [quarantined]"
                } else {
                    ""
                }
            );
        }
        println!("{} finished job(s)", jobs.len());
    }
    Ok(ExitCode::SUCCESS)
}

/// The `octopocs drain` subcommand: ask the daemon to finish queued
/// work and exit (`--shutdown` cancels in-flight jobs instead). Exit
/// 0 = acknowledged, 3 = usage or connection error.
fn drain_main(argv: &[String]) -> Exit {
    let args = parse_client_args(argv, "drain")?;
    let mut client = connect(args.socket, args.tcp)?;
    let request = if args.shutdown {
        Request::Shutdown
    } else {
        Request::Drain
    };
    match client.request(&request).map_err(input_error)? {
        Response::Draining { pending } => println!("draining; {pending} job(s) still pending"),
        Response::ShuttingDown => {
            println!("shutting down; incomplete jobs will replay from the journal")
        }
        other => return Err(unexpected(&other)),
    }
    Ok(ExitCode::SUCCESS)
}
/// Windowed rates computed client-side from `/metrics/rates`.
struct TopReport {
    windows: usize,
    span_seconds: f64,
    jobs_per_sec: f64,
    solves_per_sec: f64,
    cache_hits: u64,
    cache_lookups: u64,
    queued_interactive: u64,
    queued_bulk: u64,
    uptime_seconds: u64,
}

/// Sums counter deltas and reads end-of-span gauges from the last
/// `want` windows of a `/metrics/rates` body.
fn top_report(body: &str, want: usize) -> Result<TopReport, String> {
    let doc = octo_serve::json::parse_json(body).map_err(|e| format!("bad rates body: {e}"))?;
    let all = doc
        .get("windows")
        .and_then(|w| w.as_array())
        .ok_or("rates body has no windows array")?;
    if all.is_empty() {
        return Err("no rate windows yet (the daemon samples once a second)".to_string());
    }
    let windows = &all[all.len().saturating_sub(want.max(1))..];
    let first = windows.first().expect("non-empty span");
    let last = windows.last().expect("non-empty span");
    let span_us = last
        .get("end_us")
        .and_then(|v| v.as_u64())
        .zip(first.get("start_us").and_then(|v| v.as_u64()))
        .map(|(end, start)| end.saturating_sub(start))
        .ok_or("windows missing start_us/end_us")?;
    let span_seconds = span_us as f64 / 1_000_000.0;
    let delta = |name: &str| -> u64 {
        windows
            .iter()
            .filter_map(|w| {
                w.get("counters")
                    .and_then(|c| c.get(name))
                    .and_then(|v| v.as_u64())
            })
            .sum()
    };
    let gauge = |name: &str| -> u64 {
        last.get("gauges")
            .and_then(|g| g.get(name))
            .and_then(|v| v.as_u64())
            .unwrap_or(0)
    };
    let per_sec = |total: u64| {
        if span_seconds > 0.0 {
            total as f64 / span_seconds
        } else {
            0.0
        }
    };
    let cache_hits = delta("cache_hits_total");
    let cache_lookups = cache_hits + delta("cache_misses_total");
    Ok(TopReport {
        windows: windows.len(),
        span_seconds,
        jobs_per_sec: per_sec(delta("batch_jobs_total")),
        solves_per_sec: per_sec(delta("solver_calls_total")),
        cache_hits,
        cache_lookups,
        queued_interactive: gauge("serve_queue_depth_interactive"),
        queued_bulk: gauge("serve_queue_depth_bulk"),
        uptime_seconds: gauge("serve_uptime_seconds"),
    })
}

/// The `octopocs top` subcommand: one-shot windowed throughput from a
/// daemon's octo-scope HTTP plane (`octopocsd --http`). Exit 0 = rates
/// printed, 1 = the plane answered but has no windows yet, 3 = usage or
/// connection error.
fn top_main(argv: &[String]) -> Exit {
    let mut http: Option<String> = None;
    let mut windows: usize = 10;
    let mut json = false;
    walk(argv, |flag, args| {
        match flag {
            "--http" => http = Some(args.value(flag)?),
            "--windows" => windows = args.parse_nonzero(flag)?,
            "--json" => json = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown top flag `{other}`")),
        }
        Ok(())
    })
    .map_err(usage_error)?;
    let Some(addr) = http else {
        return Err(usage_error(
            "top needs --http ADDR (the daemon's --http address)",
        ));
    };
    let (status, body) = octo_serve::http_get(&addr, "/metrics/rates", Duration::from_secs(5))
        .map_err(input_error)?;
    if status != 200 {
        return Err(input_error(format!(
            "/metrics/rates answered {status}: {}",
            body.trim()
        )));
    }
    let report = top_report(&body, windows).map_err(|e| {
        eprintln!("error: {e}");
        ExitCode::from(1)
    })?;
    let hit_rate = if report.cache_lookups > 0 {
        report.cache_hits as f64 / report.cache_lookups as f64
    } else {
        0.0
    };
    if json {
        println!(
            "{{\"windows\":{},\"span_seconds\":{:.3},\"jobs_per_sec\":{:.4},\
             \"solves_per_sec\":{:.4},\"cache_hit_rate\":{:.4},\"cache_hits\":{},\
             \"cache_lookups\":{},\"queued_interactive\":{},\"queued_bulk\":{},\
             \"uptime_seconds\":{}}}",
            report.windows,
            report.span_seconds,
            report.jobs_per_sec,
            report.solves_per_sec,
            hit_rate,
            report.cache_hits,
            report.cache_lookups,
            report.queued_interactive,
            report.queued_bulk,
            report.uptime_seconds,
        );
    } else {
        println!(
            "octopocs top — last {} window(s), {:.1}s span",
            report.windows, report.span_seconds
        );
        println!("  jobs/s:         {:.2}", report.jobs_per_sec);
        println!("  solves/s:       {:.2}", report.solves_per_sec);
        println!(
            "  cache hit-rate: {:.1}% ({} hit(s) / {} lookup(s))",
            hit_rate * 100.0,
            report.cache_hits,
            report.cache_lookups
        );
        println!(
            "  queue:          {} interactive + {} bulk; uptime {}s",
            report.queued_interactive, report.queued_bulk, report.uptime_seconds
        );
    }
    Ok(ExitCode::SUCCESS)
}
