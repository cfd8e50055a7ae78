//! Top-level crash-primitive extraction (phase P1 driver).

use std::fmt;

use octo_ir::{FuncId, Program};
use octo_poc::{CrashPrimitives, PocFile};
use octo_vm::{CrashReport, Limits, RunOutcome, Vm};

use crate::engine::{ContextMode, Granularity, TaintConfig, TaintEngine, TaintStats};

/// Why extraction could not produce crash primitives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaintError {
    /// `S` ran to completion on `poc` — the PoC does not trigger the
    /// vulnerability, so there is nothing to extract.
    NoCrash {
        /// Exit code of the clean run.
        exit_code: u64,
    },
    /// `S` crashed, but execution never entered `ep` — the provided `ep`
    /// does not match the crash (wrong shared-function set).
    EpNeverEntered,
    /// No function of `ℓ` is on the crash stack of `S` (or `ℓ` names no
    /// function of `S`), so there is no `ep` to extract for.
    NoSharedFrame,
}

impl fmt::Display for TaintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaintError::NoCrash { exit_code } => {
                write!(f, "poc did not crash S (exit code {exit_code})")
            }
            TaintError::EpNeverEntered => f.write_str("S crashed but execution never entered ep"),
            TaintError::NoSharedFrame => f.write_str("crash backtrace contains no shared function"),
        }
    }
}

impl std::error::Error for TaintError {}

/// The result of a successful P1 run.
#[derive(Debug, Clone)]
pub struct Extraction {
    /// The crash primitives `q`: one bunch per `ep` entry.
    pub primitives: CrashPrimitives,
    /// The crash that terminated the run (class + backtrace).
    pub crash: CrashReport,
    /// How many times execution entered `ep`.
    pub ep_entries: u32,
    /// Instructions executed (virtual-clock ticks).
    pub insts: u64,
    /// Engine counters (bytes uploaded, tainted-address peak, records).
    pub stats: TaintStats,
}

/// Runs `S` on `poc` under the taint engine and extracts crash primitives.
///
/// This is the paper's `q = P1(S, ep, poc)`.
///
/// # Errors
/// Fails when the PoC does not crash `S`, or crashes it without entering
/// `ep` (see [`TaintError`]).
pub fn extract_crash_primitives(
    program: &Program,
    poc: &PocFile,
    config: &TaintConfig,
) -> Result<Extraction, TaintError> {
    extract_with_limits(program, poc, config, Limits::default())
}

/// [`extract_crash_primitives`] with explicit execution limits.
///
/// # Errors
/// Same conditions as [`extract_crash_primitives`]. Note that a watchdog
/// expiry *is* a crash (the CWE-835 infinite-loop class), not an error.
pub fn extract_with_limits(
    program: &Program,
    poc: &PocFile,
    config: &TaintConfig,
    limits: Limits,
) -> Result<Extraction, TaintError> {
    let engine = TaintEngine::new(config.clone(), poc.clone());
    let (engine, crash, insts) = run(program, poc, engine, limits)?;
    if engine.ep_entries() == 0 {
        return Err(TaintError::EpNeverEntered);
    }
    Ok(extraction(engine, config.ep, crash, insts, poc))
}

/// Preprocessing and P1 in one run of `S`: `(ep, P1(S, ep, poc))`.
///
/// The run records the bunches of every function of `shared` (`ℓ`), as
/// if each were `ep`. Once `S` has crashed, `ep` is the outermost frame
/// of the crash backtrace that belongs to `ℓ` — the paper's preprocessing
/// rule (§III), [`octo_vm::Backtrace::first_in`] — and its recorder
/// becomes the extraction, exactly as [`extract_with_limits`] on that
/// `ep` would return it. The flight recorder receives `ep`'s
/// `EpEntered`/`BunchRecorded` events, in run order, once the run has
/// ended; no other function of `ℓ` emits any.
///
/// # Errors
/// [`TaintError::NoSharedFrame`] when `shared` is empty (without running
/// `S`) or the crash stack holds none of its functions;
/// [`TaintError::NoCrash`] when `S` exits.
pub fn extract_at_crash_ep(
    program: &Program,
    poc: &PocFile,
    shared: &[FuncId],
    granularity: Granularity,
    context: ContextMode,
    limits: Limits,
) -> Result<(FuncId, Extraction), TaintError> {
    if shared.is_empty() {
        return Err(TaintError::NoSharedFrame);
    }
    let engine = TaintEngine::tracking(shared, granularity, context, poc.clone(), false);
    let (engine, crash, insts) = run(program, poc, engine, limits)?;
    let ep = crash
        .backtrace
        .first_in(shared)
        .ok_or(TaintError::NoSharedFrame)?;
    Ok((ep, extraction(engine, ep, crash, insts, poc)))
}

/// Runs `S` on `poc` under `engine`; a clean exit is [`TaintError::NoCrash`].
fn run(
    program: &Program,
    poc: &PocFile,
    mut engine: TaintEngine,
    limits: Limits,
) -> Result<(TaintEngine, CrashReport, u64), TaintError> {
    let mut vm = Vm::new(program, poc.bytes()).with_limits(limits);
    match vm.run_hooked(&mut engine) {
        RunOutcome::Exit(exit_code) => Err(TaintError::NoCrash { exit_code }),
        RunOutcome::Crash(crash) => Ok((engine, crash, vm.insts_executed())),
    }
}

/// The extraction of `ep`'s recorder, which the run entered at least once.
fn extraction(
    engine: TaintEngine,
    ep: FuncId,
    crash: CrashReport,
    insts: u64,
    poc: &PocFile,
) -> Extraction {
    let recorded = engine.finish(ep);
    debug_assert!(recorded.entries > 0, "ep is entered before it crashes");
    debug_assert!(recorded.primitives.consistent_with(poc));
    Extraction {
        primitives: recorded.primitives,
        crash,
        ep_entries: recorded.entries,
        insts,
        stats: recorded.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octo_ir::parse::parse_program;

    const PROG: &str = r#"
func main() {
entry:
    fd = open
    buf = alloc 4
    n = read fd, buf, 4
    ok = ugt n, 0
    br ok, use, done
use:
    call shared(buf)
    jmp done
done:
    halt 0
}
func shared(p) {
entry:
    v = load.1 p
    c = eq v, 0x7F
    br c, boom, fine
boom:
    trap 1
fine:
    ret
}
"#;

    fn config(p: &octo_ir::Program) -> TaintConfig {
        let ep = p.func_by_name("shared").unwrap();
        TaintConfig::new(ep, vec![ep])
    }

    #[test]
    fn crashing_poc_extracts() {
        let p = parse_program(PROG).unwrap();
        let poc = PocFile::from(&b"\x7Fabc"[..]);
        let ex = extract_crash_primitives(&p, &poc, &config(&p)).unwrap();
        assert_eq!(ex.ep_entries, 1);
        assert_eq!(ex.crash.kind.class(), "TRAP");
        assert_eq!(ex.primitives.total_bytes(), 1);
        assert!(ex.insts > 0);
        assert_eq!(ex.stats.bytes_uploaded, 4, "read fd, buf, 4");
        assert!(ex.stats.peak_tainted_addrs >= 4);
        assert!(ex.stats.taint_records >= 1, "the load inside shared");
    }

    #[test]
    fn benign_input_is_no_crash() {
        let p = parse_program(PROG).unwrap();
        let poc = PocFile::from(&b"zzzz"[..]);
        let err = extract_crash_primitives(&p, &poc, &config(&p)).unwrap_err();
        assert_eq!(err, TaintError::NoCrash { exit_code: 0 });
    }

    #[test]
    fn crash_outside_ep_is_reported() {
        let src = r#"
func main() {
entry:
    v = load.1 0
    halt v
}
func shared() {
entry:
    ret
}
"#;
        let p = parse_program(src).unwrap();
        let ep = p.func_by_name("shared").unwrap();
        let cfg = TaintConfig::new(ep, vec![ep]);
        let err = extract_crash_primitives(&p, &PocFile::default(), &cfg).unwrap_err();
        assert_eq!(err, TaintError::EpNeverEntered);
    }
}
