//! Crash classification and backtraces.

use std::fmt;

use octo_ir::{BlockId, FuncId, RegionKind, Width};

use crate::mem::MemFault;

/// Why the program crashed.
///
/// The variants map onto the CWE classes of the paper's Table II so the
/// pipeline can check not only *that* the propagated software crashes but
/// that it crashes with the propagated vulnerability's class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashKind {
    /// Access outside every mapped region (CWE-119, buffer overflow). The
    /// region kind of the nearest lower allocation distinguishes heap from
    /// stack overflows when available.
    OutOfBounds {
        /// Faulting address.
        addr: u64,
        /// Kind of the overflowed region, when identifiable.
        region: Option<RegionKind>,
    },
    /// Dereference in the null page.
    NullDeref {
        /// Faulting address.
        addr: u64,
    },
    /// Unsigned division or remainder by zero.
    DivByZero,
    /// Overflow-checked arithmetic exceeded its width (CWE-190).
    IntegerOverflow {
        /// Width of the checked operation.
        width: Width,
    },
    /// Explicit `trap` instruction (assertion failure).
    Trap {
        /// Trap code from the instruction.
        code: u64,
    },
    /// Watchdog expiry: the instruction budget was exhausted, which is how
    /// an infinite-loop denial of service (CWE-835) manifests.
    InfiniteLoop,
    /// Call-stack depth limit exceeded.
    StackOverflow,
    /// Indirect jump or call through a value that is not a valid code
    /// address.
    BadIndirect {
        /// The invalid target value.
        value: u64,
    },
    /// File operation on an invalid descriptor.
    BadFileDescriptor {
        /// The invalid descriptor value.
        fd: u64,
    },
}

impl CrashKind {
    /// Short CWE-style label for reports.
    pub fn class(&self) -> &'static str {
        match self {
            CrashKind::OutOfBounds { .. } => "CWE-119",
            CrashKind::IntegerOverflow { .. } => "CWE-190",
            CrashKind::InfiniteLoop => "CWE-835",
            CrashKind::NullDeref { .. } => "NULL-DEREF",
            CrashKind::DivByZero => "DIV-ZERO",
            CrashKind::Trap { .. } => "TRAP",
            CrashKind::StackOverflow => "STACK-OVERFLOW",
            CrashKind::BadIndirect { .. } => "BAD-INDIRECT",
            CrashKind::BadFileDescriptor { .. } => "BAD-FD",
        }
    }
}

impl From<MemFault> for CrashKind {
    /// The crash a faulting memory access causes.
    fn from(fault: MemFault) -> CrashKind {
        match fault {
            MemFault::Null { addr } => CrashKind::NullDeref { addr },
            MemFault::OutOfBounds { addr, nearest } => CrashKind::OutOfBounds {
                addr,
                region: nearest,
            },
        }
    }
}

impl fmt::Display for CrashKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CrashKind::OutOfBounds { addr, region } => match region {
                Some(k) => write!(f, "out-of-bounds {k} access at {addr:#x}"),
                None => write!(f, "out-of-bounds access at {addr:#x}"),
            },
            CrashKind::NullDeref { addr } => write!(f, "null dereference at {addr:#x}"),
            CrashKind::DivByZero => f.write_str("division by zero"),
            CrashKind::IntegerOverflow { width } => {
                write!(f, "integer overflow in {}-byte checked arithmetic", width)
            }
            CrashKind::Trap { code } => write!(f, "trap (code {code})"),
            CrashKind::InfiniteLoop => f.write_str("watchdog: infinite loop suspected"),
            CrashKind::StackOverflow => f.write_str("call stack overflow"),
            CrashKind::BadIndirect { value } => {
                write!(f, "indirect transfer through non-code value {value:#x}")
            }
            CrashKind::BadFileDescriptor { fd } => write!(f, "bad file descriptor {fd}"),
        }
    }
}

/// The call stack at the moment of a crash, outermost frame first.
///
/// This is the substitute for glibc `backtrace()` (paper §III,
/// "Preprocessing"): OctoPoCs identifies `ep` as the first function on the
/// crash stack that belongs to the shared set `ℓ`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Backtrace {
    frames: Vec<(FuncId, String)>,
}

impl Backtrace {
    /// Builds a backtrace from `(id, name)` frames, outermost first.
    pub fn new(frames: Vec<(FuncId, String)>) -> Backtrace {
        Backtrace { frames }
    }

    /// Frames outermost-first.
    pub fn frames(&self) -> &[(FuncId, String)] {
        &self.frames
    }

    /// The innermost (crashing) function, if the stack is non-empty.
    pub fn innermost(&self) -> Option<FuncId> {
        self.frames.last().map(|(id, _)| *id)
    }

    /// The first (bottom-most / outermost) frame whose function is in
    /// `set` — exactly the paper's definition of `ep`.
    pub fn first_in(&self, set: &[FuncId]) -> Option<FuncId> {
        self.frames
            .iter()
            .map(|(id, _)| *id)
            .find(|id| set.contains(id))
    }

    /// Whether any frame belongs to `set`.
    pub fn any_in(&self, set: &[FuncId]) -> bool {
        self.first_in(set).is_some()
    }
}

impl fmt::Display for Backtrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (_, name)) in self.frames.iter().enumerate() {
            writeln!(f, "#{i} {name}")?;
        }
        Ok(())
    }
}

/// A complete crash report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashReport {
    /// Classification of the fault.
    pub kind: CrashKind,
    /// Function executing at the fault.
    pub func: FuncId,
    /// Block executing at the fault.
    pub block: BlockId,
    /// Index of the faulting instruction within the block (instructions
    /// only; `usize::MAX` marks the terminator).
    pub inst_idx: usize,
    /// Call stack, outermost first (includes `func` as the last frame).
    pub backtrace: Backtrace,
    /// Instructions executed up to (and including) the fault.
    pub insts_executed: u64,
}

impl fmt::Display for CrashReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "crash: {} [{}]", self.kind, self.kind.class())?;
        write!(f, "{}", self.backtrace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backtrace_first_in_picks_outermost_shared_frame() {
        let bt = Backtrace::new(vec![
            (FuncId(0), "main".into()),
            (FuncId(3), "wrapper".into()),
            (FuncId(5), "shared_outer".into()),
            (FuncId(6), "shared_inner".into()),
        ]);
        let shared = vec![FuncId(6), FuncId(5)];
        assert_eq!(bt.first_in(&shared), Some(FuncId(5)));
        assert_eq!(bt.innermost(), Some(FuncId(6)));
        assert!(bt.any_in(&shared));
        assert!(!bt.any_in(&[FuncId(9)]));
    }

    #[test]
    fn crash_kind_classes() {
        assert_eq!(
            CrashKind::OutOfBounds {
                addr: 1,
                region: None
            }
            .class(),
            "CWE-119"
        );
        assert_eq!(
            CrashKind::IntegerOverflow { width: Width::W4 }.class(),
            "CWE-190"
        );
        assert_eq!(CrashKind::InfiniteLoop.class(), "CWE-835");
    }

    #[test]
    fn display_is_nonempty() {
        let kinds = [
            CrashKind::NullDeref { addr: 0 },
            CrashKind::DivByZero,
            CrashKind::Trap { code: 9 },
            CrashKind::StackOverflow,
            CrashKind::BadIndirect { value: 3 },
            CrashKind::BadFileDescriptor { fd: 7 },
        ];
        for k in kinds {
            assert!(!k.to_string().is_empty());
        }
    }
}
