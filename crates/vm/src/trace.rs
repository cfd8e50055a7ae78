//! Execution trace recording.
//!
//! A [`TraceHook`] records the block-level path one execution takes — the
//! analogue of a PIN basic-block trace — and [`Trace::divergence`] finds
//! where two runs' paths part. Its one user is `examples/trace_diff.rs`,
//! which shows where the original PoC and `poc'` go in the target. It is
//! not the CLI's flight recorder: `--trace-chrome` and `--trace-jsonl`
//! export `octo-trace` events.

use std::fmt;

use octo_ir::{BlockId, FuncId, Program};

use crate::hooks::Hook;

/// One recorded control-transfer event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// An intraprocedural edge was taken.
    Edge {
        /// Function containing the edge.
        func: FuncId,
        /// Source block.
        from: BlockId,
        /// Target block.
        to: BlockId,
    },
    /// A call entered `callee` at the given depth.
    Call {
        /// The function entered.
        callee: FuncId,
        /// Call depth inside the callee.
        depth: usize,
    },
    /// A function returned.
    Ret {
        /// The function that returned.
        func: FuncId,
    },
}

/// A recorded execution trace.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// The recorded events in execution order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Distinct functions entered, in first-entry order.
    pub fn functions_entered(&self) -> Vec<FuncId> {
        let mut seen = Vec::new();
        for e in &self.events {
            if let TraceEvent::Call { callee, .. } = e {
                if !seen.contains(callee) {
                    seen.push(*callee);
                }
            }
        }
        seen
    }

    /// How many times `func` was entered.
    pub fn entry_count(&self, func: FuncId) -> u32 {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Call { callee, .. } if *callee == func))
            .count() as u32
    }

    /// The first index where this trace diverges from `other`, or `None`
    /// if one is a prefix of the other.
    pub fn divergence(&self, other: &Trace) -> Option<usize> {
        self.events
            .iter()
            .zip(other.events.iter())
            .position(|(a, b)| a != b)
    }

    /// Renders the trace with function names from `program`.
    pub fn render(&self, program: &Program) -> String {
        let mut out = String::new();
        let mut depth = 0usize;
        for e in &self.events {
            match e {
                TraceEvent::Call { callee, .. } => {
                    out.push_str(&format!(
                        "{:indent$}-> {}\n",
                        "",
                        program.func(*callee).name,
                        indent = depth * 2
                    ));
                    depth += 1;
                }
                TraceEvent::Ret { func } => {
                    depth = depth.saturating_sub(1);
                    out.push_str(&format!(
                        "{:indent$}<- {}\n",
                        "",
                        program.func(*func).name,
                        indent = depth * 2
                    ));
                }
                TraceEvent::Edge { func, from, to } => {
                    out.push_str(&format!(
                        "{:indent$}   {}:{}→{}\n",
                        "",
                        program.func(*func).name,
                        from,
                        to,
                        indent = depth * 2
                    ));
                }
            }
        }
        out
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Trace({} events)", self.len())
    }
}

/// Hook that records a [`Trace`], optionally capped to a maximum event
/// count (long traces of watchdog loops would otherwise balloon).
#[derive(Debug, Default)]
pub struct TraceHook {
    /// The trace recorded so far.
    pub trace: Trace,
    /// Maximum events to keep (0 = unlimited).
    pub max_events: usize,
}

impl TraceHook {
    /// Unlimited trace recorder.
    pub fn new() -> TraceHook {
        TraceHook::default()
    }

    /// Recorder keeping at most `max_events` events.
    pub fn with_limit(max_events: usize) -> TraceHook {
        TraceHook {
            trace: Trace::default(),
            max_events,
        }
    }

    fn push(&mut self, e: TraceEvent) {
        if self.max_events == 0 || self.trace.events.len() < self.max_events {
            self.trace.events.push(e);
        }
    }
}

impl Hook for TraceHook {
    fn on_edge(&mut self, func: FuncId, from: BlockId, to: BlockId) {
        self.push(TraceEvent::Edge { func, from, to });
    }

    fn on_call(&mut self, callee: FuncId, _args: &[u64], depth: usize) {
        self.push(TraceEvent::Call { callee, depth });
    }

    fn on_ret(&mut self, func: FuncId, _value: Option<u64>, _depth: usize) {
        self.push(TraceEvent::Ret { func });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::Vm;
    use octo_ir::parse::parse_program;

    const SRC: &str = r#"
func main() {
entry:
    fd = open
    b = getc fd
    c = eq b, 1
    br c, yes, no
yes:
    call helper()
    halt 0
no:
    halt 1
}
func helper() {
entry:
    ret
}
"#;

    #[test]
    fn records_calls_edges_and_rets() {
        let p = parse_program(SRC).unwrap();
        let mut hook = TraceHook::new();
        Vm::new(&p, &[1]).run_hooked(&mut hook);
        let helper = p.func_by_name("helper").unwrap();
        assert_eq!(hook.trace.entry_count(helper), 1);
        assert_eq!(hook.trace.functions_entered(), vec![p.entry(), helper]);
        assert!(hook
            .trace
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::Ret { func } if *func == helper)));
    }

    #[test]
    fn divergence_pinpoints_input_difference() {
        let p = parse_program(SRC).unwrap();
        let mut a = TraceHook::new();
        Vm::new(&p, &[1]).run_hooked(&mut a);
        let mut b = TraceHook::new();
        Vm::new(&p, &[2]).run_hooked(&mut b);
        // Identical up to the branch, diverging at the first edge.
        let d = a.trace.divergence(&b.trace).expect("diverges");
        assert!(matches!(a.trace.events()[d], TraceEvent::Edge { .. }));
        assert!(a.trace.divergence(&a.trace).is_none());
    }

    #[test]
    fn limit_caps_recording() {
        let p = parse_program("func main() {\nentry:\n jmp entry\n}\n").unwrap();
        let mut hook = TraceHook::with_limit(10);
        Vm::new(&p, &[])
            .with_limits(crate::vm::Limits {
                max_insts: 10_000,
                max_call_depth: 4,
            })
            .run_hooked(&mut hook);
        assert_eq!(hook.trace.len(), 10);
    }

    #[test]
    fn render_shows_call_nesting() {
        let p = parse_program(SRC).unwrap();
        let mut hook = TraceHook::new();
        Vm::new(&p, &[1]).run_hooked(&mut hook);
        let text = hook.trace.render(&p);
        assert!(text.contains("-> helper"), "{text}");
        assert!(text.contains("<- helper"), "{text}");
    }
}
