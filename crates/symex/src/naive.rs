//! Naive (undirected) symbolic exploration — the Table IV baseline.
//!
//! Forks at every symbolic branch and explores breadth-first, with only an
//! address of the target to stop at — exactly how the paper ran angr's
//! default exploration ("the naive symbolic execution proceeded with only
//! an address of the vulnerable location"). The goal is a *crashing state
//! inside the target function* — the vulnerable location — not merely the
//! function's entry, which is usually trivial to reach. Every live state's
//! memory is accounted; exceeding [`NaiveConfig::mem_budget`] aborts with
//! [`NaiveOutcome::MemError`], reproducing angr's `MemoryError` on MuPDF
//! and gif2png in Table IV.

use std::collections::VecDeque;
use std::time::Instant;

use octo_ir::{FuncId, Program};
use octo_solver::FilterMemo;

use crate::exec::{StepEvent, SymExecutor};
use crate::state::SymState;

/// Budgets for a naive exploration run.
#[derive(Debug, Clone, Copy)]
pub struct NaiveConfig {
    /// Simulated memory budget in bytes across all live states.
    pub mem_budget: u64,
    /// Total instruction budget across all states.
    pub step_budget: u64,
    /// Maximum live states (secondary guard).
    pub max_states: usize,
}

impl Default for NaiveConfig {
    fn default() -> NaiveConfig {
        NaiveConfig {
            // 512 MiB of simulated state memory — calibrated to the
            // paper's 32 GB testbed scaled by our much smaller programs.
            mem_budget: 512 << 20,
            step_budget: 5_000_000,
            max_states: 100_000,
        }
    }
}

/// Statistics of a naive run.
#[derive(Debug, Clone, Default)]
pub struct NaiveStats {
    /// Wall-clock seconds spent.
    pub wall_seconds: f64,
    /// Peak simulated memory across live states (bytes).
    pub peak_mem_bytes: u64,
    /// Total instructions stepped.
    pub total_steps: u64,
    /// States forked over the whole run.
    pub states_created: u64,
    /// Peak simultaneous live states.
    pub peak_states: usize,
}

/// Result of a naive exploration.
#[derive(Debug, Clone)]
pub enum NaiveOutcome {
    /// A state crashed inside the target function — the vulnerable
    /// location is reachable; the state's path condition describes a
    /// triggering input.
    ReachedTarget {
        /// The crashing state (with its path condition).
        state: Box<SymState>,
    },
    /// The memory budget was exhausted — the path-explosion failure mode.
    MemError,
    /// The step/state budgets ran out before reaching the target.
    BudgetExhausted,
    /// Every path terminated without reaching the target.
    Exhausted,
}

/// Breadth-first explorer.
#[derive(Debug)]
pub struct NaiveExplorer<'p> {
    executor: SymExecutor<'p>,
    target: FuncId,
    config: NaiveConfig,
}

impl<'p> NaiveExplorer<'p> {
    /// Creates an explorer over `program` with a symbolic file of
    /// `file_len` bytes, searching for an entry into `target`.
    pub fn new(program: &'p Program, file_len: u64, target: FuncId) -> NaiveExplorer<'p> {
        NaiveExplorer {
            executor: SymExecutor::new(program, file_len).with_ep(target),
            target,
            config: NaiveConfig::default(),
        }
    }

    /// Replaces the default budgets.
    pub fn with_config(mut self, config: NaiveConfig) -> NaiveExplorer<'p> {
        self.config = config;
        self
    }

    /// Runs the exploration to a verdict, returning statistics alongside.
    pub fn run(&self) -> (NaiveOutcome, NaiveStats) {
        let start = Instant::now();
        let mut stats = NaiveStats::default();
        // Every solver entry of this run shares one filter memo.
        let mut memo = FilterMemo::new();
        // The queue carries each state's memory estimate so the running
        // total is maintained incrementally (computing it from scratch
        // after every fork would be quadratic in the state count).
        let mut queue: VecDeque<(SymState, u64)> = VecDeque::new();
        let initial = SymState::initial(self.executor.program());
        let mut queued_mem: u64 = initial.approx_bytes();
        queue.push_back((initial, queued_mem));
        stats.states_created = 1;
        let mut total_steps = 0u64;

        let outcome = 'outer: loop {
            let Some((mut state, mem_estimate)) = queue.pop_front() else {
                break NaiveOutcome::Exhausted;
            };
            queued_mem = queued_mem.saturating_sub(mem_estimate);
            loop {
                if total_steps >= self.config.step_budget {
                    break 'outer NaiveOutcome::BudgetExhausted;
                }
                total_steps += 1;
                match self.executor.step(&mut state, &mut memo) {
                    StepEvent::Continue | StepEvent::EnteredEp { .. } => {}
                    StepEvent::Crashed(_) if state.frames.iter().any(|f| f.func == self.target) => {
                        // Crash at the vulnerable location.
                        stats.total_steps = total_steps;
                        stats.wall_seconds = start.elapsed().as_secs_f64();
                        stats.peak_mem_bytes =
                            stats.peak_mem_bytes.max(queued_mem + state.approx_bytes());
                        return (
                            NaiveOutcome::ReachedTarget {
                                state: Box::new(state),
                            },
                            stats,
                        );
                    }
                    StepEvent::Exited | StepEvent::Crashed(_) | StepEvent::Dead(_) => {
                        break; // path over; take next from queue
                    }
                    StepEvent::Fork(fork) => {
                        // Fork: enqueue every feasible arm, in terminator
                        // order (the last arm reuses the original state).
                        let mut states: Vec<SymState> =
                            (1..fork.arms.count()).map(|_| state.clone()).collect();
                        states.push(state);
                        for (arm, mut s) in states.into_iter().enumerate() {
                            self.executor.take(&mut s, &fork, arm);
                            if s.constraints.quick_feasible_in(&mut memo) {
                                let m = s.approx_bytes();
                                queued_mem += m;
                                queue.push_back((s, m));
                                stats.states_created += 1;
                            }
                        }
                        break;
                    }
                }
            }
            // Accounting after each path segment.
            stats.peak_states = stats.peak_states.max(queue.len());
            stats.peak_mem_bytes = stats.peak_mem_bytes.max(queued_mem);
            if queued_mem > self.config.mem_budget {
                break NaiveOutcome::MemError;
            }
            if queue.len() > self.config.max_states {
                break NaiveOutcome::MemError;
            }
        };
        stats.total_steps = total_steps;
        stats.wall_seconds = start.elapsed().as_secs_f64();
        (outcome, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octo_ir::parse::parse_program;

    #[test]
    fn finds_shallow_target() {
        let src = r#"
func main() {
entry:
    fd = open
    b = getc fd
    c = eq b, 0x42
    br c, go, skip
go:
    call target()
    halt 0
skip:
    halt 1
}
func target() {
entry:
    trap 1
}
"#;
        let p = parse_program(src).unwrap();
        let t = p.func_by_name("target").unwrap();
        let (outcome, stats) = NaiveExplorer::new(&p, 4, t).run();
        match outcome {
            NaiveOutcome::ReachedTarget { mut state } => {
                let m = state.model(&mut FilterMemo::new()).expect("sat");
                assert_eq!(m.byte(0), 0x42);
            }
            other => panic!("expected reach, got {other:?}"),
        }
        assert!(stats.states_created >= 2);
    }

    #[test]
    fn exhausts_when_target_unreachable() {
        let src = r#"
func main() {
entry:
    fd = open
    b = getc fd
    c = eq b, 1
    br c, a, z
a:
    halt 0
z:
    halt 1
}
func target() {
entry:
    ret
}
"#;
        let p = parse_program(src).unwrap();
        let t = p.func_by_name("target").unwrap();
        let (outcome, _) = NaiveExplorer::new(&p, 2, t).run();
        assert!(matches!(outcome, NaiveOutcome::Exhausted));
    }

    #[test]
    fn branch_bomb_triggers_mem_error() {
        // 24 sequential symbolic branches → up to 2^24 states; the memory
        // budget must trip long before that.
        let mut src = String::from("func main() {\nentry:\n fd = open\n jmp b0\n");
        for i in 0..24 {
            src.push_str(&format!(
                "b{i}:\n x{i} = getc fd\n c{i} = eq x{i}, {i}\n br c{i}, t{i}, f{i}\nt{i}:\n jmp b{}\nf{i}:\n jmp b{}\n",
                i + 1,
                i + 1
            ));
        }
        src.push_str("b24:\n call target()\n halt 0\n}\nfunc target() {\nentry:\n trap 1\n}\n");
        let p = parse_program(&src).unwrap();
        let t = p.func_by_name("target").unwrap();
        let cfg = NaiveConfig {
            mem_budget: 2 << 20, // tiny budget: 2 MiB
            step_budget: 10_000_000,
            max_states: 1_000_000,
        };
        let (outcome, stats) = NaiveExplorer::new(&p, 32, t).with_config(cfg).run();
        assert!(
            matches!(outcome, NaiveOutcome::MemError),
            "expected MemError, got {outcome:?} ({stats:?})"
        );
        assert!(stats.peak_mem_bytes > 2 << 20);
    }
}
