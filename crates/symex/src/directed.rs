//! Directed symbolic execution plus the combining phase (paper Algorithm 2).
//!
//! The engine drives one state from the entry of `T` toward `ep`, using a
//! backward-path [`DistanceMap`] as the direction oracle at every symbolic
//! branch (phase P2). Whenever execution enters `ep`, the corresponding
//! crash-primitive bunch is asserted at the current file position and the
//! recorded `ep` arguments are replayed (phase P3); after the last entry
//! the accumulated constraints are solved into `poc'`.
//!
//! The paper's four state kinds map as follows:
//!
//! * **active** — the state steps normally;
//! * **loop** — a block is revisited within one activation; revisits are
//!   allowed up to θ;
//! * **loop-dead** — the constraints for exiting the loop at the current
//!   iteration count are unsatisfiable; the engine keeps iterating (the
//!   fallback stack holds the "loop once more" state) until θ;
//! * **program-dead** — no feasible continuation anywhere: `ℓ` is not
//!   reachable, so the vulnerability cannot be triggered in `T`
//!   ([`DirectedOutcome::ProgramDead`], verdict case iii).

use std::time::Instant;

use octo_cfg::DistanceMap;
use octo_ir::{BlockId, FuncId, Program};
use octo_poc::{CrashPrimitives, PocFile};
use octo_sched::CancelToken;
use octo_solver::{Cond, Constraint, Expr, FilterMemo, SolveLimits, SolveResult};
use octo_trace::{emit, TraceKind};

use crate::exec::{Arms, DeadReason, Fork, StepEvent, SymExecutor};
use crate::state::SymState;
use crate::value::SymVal;

/// Tunables for one directed run.
#[derive(Debug, Clone, Copy)]
pub struct DirectedConfig {
    /// Length of the symbolic input file (the eventual `poc'` length).
    pub file_len: u64,
    /// θ — the maximum number of iterations tried for a loop state
    /// (the paper sets 120, §IV-B).
    pub theta: u32,
    /// Bound on the fallback stack (alternate directions kept for
    /// backtracking).
    pub max_fallbacks: usize,
    /// Total instruction budget across the run.
    pub step_budget: u64,
    /// Loop acceleration (the paper's §III-D future work). When a branch
    /// inside `ℓ` is *forced* — its negation is already refuted by the
    /// collected constraints, which happens on every iteration of a copy
    /// loop over bunch-pinned bytes — the engine takes it without adding a
    /// redundant constraint and without charging the θ loop budget. With
    /// this on, vulnerabilities that need more than θ loop iterations
    /// inside `ℓ` still verify. Off by default (paper semantics).
    pub loop_acceleration: bool,
}

impl Default for DirectedConfig {
    fn default() -> DirectedConfig {
        DirectedConfig {
            file_len: 256,
            theta: 120,
            max_fallbacks: 4096,
            step_budget: 2_000_000,
            loop_acceleration: false,
        }
    }
}

/// Statistics of a directed run (Table IV columns plus the
/// observability counters threaded through P2+P3).
///
/// Every field is stamped through the single finish point in
/// [`DirectedEngine::run`], so no early-exit path can return stale
/// zeros, and the memory peak is maintained event-driven (fallback
/// push/pop and constraint-growth points), so spikes between the coarse
/// polls are observed too.
#[derive(Debug, Clone, Default)]
pub struct DirectedStats {
    /// Wall-clock seconds.
    pub wall_seconds: f64,
    /// Peak simulated memory (live state + fallbacks), bytes.
    pub peak_mem_bytes: u64,
    /// Instructions stepped.
    pub total_steps: u64,
    /// Fallback states consumed (backtracks).
    pub backtracks: u64,
    /// High-watermark of the fallback stack.
    pub peak_fallback_depth: u64,
    /// Branch candidates abandoned because a block's visit count
    /// exceeded θ (loop-state retries).
    pub loop_retries: u64,
    /// Forced branches taken via loop acceleration (no constraint
    /// added, no θ charge).
    pub forced_branches: u64,
    /// Solver entries during the run (full solves plus `quick_feasible`
    /// pre-checks and model queries).
    pub solver_calls: u64,
    /// Wall time spent inside those solver entries, microseconds.
    pub solver_micros: u64,
    /// Constraint-set refutations proven by interval reasoning alone.
    pub interval_refutations: u64,
    /// Simplifier rewrite rules fired while building expressions.
    pub simplify_rewrites: u64,
    /// Where and why the most recent state died. On a not-triggerable
    /// or deadline outcome this describes the dying state the verdict
    /// was decided on; the pipeline turns it into a post-mortem.
    pub death: Option<DeathNote>,
}

/// A snapshot of the state that most recently died, taken at the point
/// of death (the state itself is dropped).
#[derive(Debug, Clone, PartialEq)]
pub struct DeathNote {
    /// Why the state died: `"branch-dead"`, `"stitch-infeasible"`,
    /// `"loop-retry"`, `"exited"`, `"crashed"`, `"concretize-failed"`,
    /// `"dead"`, `"deadline"`, `"hung"` (watchdog escalation),
    /// `"step-budget"`, `"final-unsat"`, `"model-unavailable"`, or
    /// `"fault-injected"` (an `octo-faults` plan forced the death).
    pub reason: &'static str,
    /// Bunches the state had stitched (`ep` entries) when it died.
    pub ep_entries: u32,
    /// Path-condition size at death.
    pub constraints: u64,
    /// The most recent constraint on the dying path, if any.
    pub last_constraint: Option<String>,
    /// Fallback-stack depth at death (alternates still pending).
    pub fallback_depth: u64,
}

/// Result of the directed P2+P3 run.
#[derive(Debug, Clone)]
pub enum DirectedOutcome {
    /// `poc'` was generated.
    PocGenerated {
        /// The reformed PoC.
        poc: PocFile,
        /// Number of `ep` entries stitched (bunch count).
        entries: u32,
        /// Constraints that make up the guiding input, kept so the caller
        /// can classify Type-I vs Type-II (does the *original* poc already
        /// satisfy them?).
        guiding: octo_solver::ConstraintSet,
    },
    /// `ep` is unreachable from the entry of `T` (verdict case ii — the
    /// shared code is never called).
    EpUnreachable,
    /// Every path died before stitching all bunches (verdict case iii).
    ProgramDead,
    /// The combine-phase constraints are unsatisfiable (e.g. `ep` argument
    /// mismatch, or a patch-added check conflicts with the primitive
    /// bytes) — the vulnerability cannot be triggered.
    Unsat,
    /// A loop state exceeded θ on every candidate path — the failure mode
    /// §III-D declares out of scope.
    LoopBudget,
    /// Step or solver budget exhausted without a verdict.
    Budget,
    /// The run's [`CancelToken`] fired (per-job deadline, an explicit
    /// cancel from the batch scheduler, or a watchdog escalation — the
    /// token's `was_escalated` flag tells the caller which) before a
    /// verdict was reached.
    Cancelled,
    /// An `octo-faults` plan injected a fault the engine could not step
    /// around (currently: the final combine-phase solve was abandoned).
    /// A transient, retryable outcome by construction.
    Injected,
}

impl DirectedOutcome {
    /// Whether a `poc'` was produced.
    pub fn generated(&self) -> bool {
        matches!(self, DirectedOutcome::PocGenerated { .. })
    }

    /// A stable kebab-case label for the trace stream and post-mortems.
    pub fn label(&self) -> &'static str {
        match self {
            DirectedOutcome::PocGenerated { .. } => "poc-generated",
            DirectedOutcome::EpUnreachable => "ep-unreachable",
            DirectedOutcome::ProgramDead => "program-dead",
            DirectedOutcome::Unsat => "unsat",
            DirectedOutcome::LoopBudget => "loop-dead",
            DirectedOutcome::Budget => "step-budget",
            DirectedOutcome::Cancelled => "deadline",
            DirectedOutcome::Injected => "fault-injected",
        }
    }
}

/// How many engine steps pass between two cancellation polls.
pub const CANCEL_POLL_STEPS: u64 = 512;

/// How many infeasible bunch placements a run tolerates before
/// concluding the combine constraints are unsatisfiable. The paper
/// follows the single backward-found correct path, so the first failures
/// are on the most direct paths; alternates only re-derive the same
/// conflict at shifted file positions.
const MAX_STITCH_FAILURES: u32 = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Guided by the distance oracle (outside `ℓ`).
    Directed,
    /// Inside `ℓ` at the given entry depth: branches follow the current
    /// model (the primitive bytes are already pinned, so `ℓ`'s own parsing
    /// is determined).
    ModelFollow { ep_depth: usize },
}

struct PathState {
    state: SymState,
    mode: Mode,
}

/// What one directed run keeps besides its current path, made when the
/// run starts and shared by the step loop and the branch handlers: the
/// fallback stack (with per-entry size so memory accounting is O(1)),
/// the flags that select the exit verdict, the run's statistics, and
/// the solver's filter memo, which every solver entry of the run shares
/// and counts itself on.
#[derive(Default)]
struct RunCtx {
    /// Alternate-direction states kept for backtracking, each with its
    /// `approx_bytes` at push time.
    fallbacks: Vec<(PathState, u64)>,
    /// The solver's per-run state: filter results and entry counts.
    memo: FilterMemo,
    /// The run's statistics; the solver fields are stamped from `memo`
    /// when the run finishes.
    stats: DirectedStats,
    /// Sum of the stored fallback sizes.
    fallback_bytes: u64,
    loop_budget_hit: bool,
    unsat_seen: bool,
    stitch_failures: u32,
}

impl RunCtx {
    /// Pops the most recent fallback, keeping `fallback_bytes` and the
    /// backtrack count in sync.
    fn pop(&mut self) -> Option<PathState> {
        let (p, bytes) = self.fallbacks.pop()?;
        self.fallback_bytes -= bytes;
        self.stats.backtracks += 1;
        emit(TraceKind::FallbackPop {
            depth: self.fallbacks.len() as u64,
        });
        Some(p)
    }

    /// Raises the memory watermark to the current live state plus the
    /// fallback stack.
    fn note_mem(&mut self, cur: &PathState) {
        self.stats.peak_mem_bytes = self
            .stats
            .peak_mem_bytes
            .max(cur.state.approx_bytes() + self.fallback_bytes);
    }

    /// Snapshots a dying state into `stats.death` (the verdict is decided
    /// on the *last* death) and mirrors it into the flight record.
    fn note_death(&mut self, state: &SymState, reason: &'static str) {
        let note = DeathNote {
            reason,
            ep_entries: state.ep_entries,
            constraints: state.constraints.len() as u64,
            last_constraint: state.constraints.items().last().map(ToString::to_string),
            fallback_depth: self.fallbacks.len() as u64,
        };
        emit(TraceKind::StateDead {
            reason,
            ep_entries: note.ep_entries,
            constraints: note.constraints,
        });
        self.stats.death = Some(note);
    }
}

/// The directed engine.
pub struct DirectedEngine<'p> {
    executor: SymExecutor<'p>,
    program: &'p Program,
    map: &'p DistanceMap,
    q: &'p CrashPrimitives,
    config: DirectedConfig,
    cancel: Option<CancelToken>,
}

impl<'p> DirectedEngine<'p> {
    /// Creates an engine for target program `T`.
    ///
    /// `map` must have been computed for `ep` over a CFG of `T`.
    pub fn new(
        program: &'p Program,
        ep: FuncId,
        map: &'p DistanceMap,
        q: &'p CrashPrimitives,
        config: DirectedConfig,
    ) -> DirectedEngine<'p> {
        let mut executor = SymExecutor::new(program, config.file_len).with_ep(ep);
        executor.max_steps = config.step_budget;
        DirectedEngine {
            executor,
            program,
            map,
            q,
            config,
            cancel: None,
        }
    }

    /// Attaches a cooperative cancellation token. The run loop polls it
    /// every [`CANCEL_POLL_STEPS`] steps and winds down with
    /// [`DirectedOutcome::Cancelled`] once it fires, so a runaway job
    /// yields to its batch instead of stalling it.
    pub fn with_cancel(mut self, token: CancelToken) -> DirectedEngine<'p> {
        self.cancel = Some(token);
        self
    }

    /// Runs P2+P3 to a verdict.
    ///
    /// All bookkeeping funnels through this single finish point: the
    /// inner engine loop accumulates steps, backtracks, and memory in
    /// the run's context, and the wall clock plus the counts of the
    /// run's solver memo are stamped exactly once here — no early-exit
    /// path can return stale zeros.
    pub fn run(&self) -> (DirectedOutcome, DirectedStats) {
        let start = Instant::now();
        let mut ctx = RunCtx::default();
        let outcome = self.run_inner(&mut ctx);
        let solver = ctx.memo.counters();
        let mut stats = ctx.stats;
        stats.solver_calls = solver.solves;
        stats.solver_micros = solver.solve_nanos / 1_000;
        stats.interval_refutations = solver.interval_refutations;
        stats.simplify_rewrites = solver.simplify_rewrites;
        stats.wall_seconds = start.elapsed().as_secs_f64();
        emit(TraceKind::EngineOutcome {
            outcome: outcome.label(),
            steps: stats.total_steps,
        });
        (outcome, stats)
    }

    fn run_inner(&self, ctx: &mut RunCtx) -> DirectedOutcome {
        let entry_func = self.program.entry();
        let entry_block = self.program.func(entry_func).entry();
        if !self.map.reaches(entry_func, entry_block) {
            return DirectedOutcome::EpUnreachable;
        }
        if self.q.is_empty() {
            return DirectedOutcome::Unsat;
        }

        let mut cur = PathState {
            state: SymState::initial(self.program),
            mode: Mode::Directed,
        };

        // Fault-injection sites (inert without an installed `octo-faults`
        // context), checked once per run so a retry attempt sees the next
        // occurrence number.
        if octo_faults::should_inject(octo_faults::FaultSite::DirectedPanic) {
            panic!("injected panic: directed engine (fault plan)");
        }
        if octo_faults::should_inject(octo_faults::FaultSite::DirectedLoopDead) {
            ctx.note_death(&cur.state, "fault-injected");
            return DirectedOutcome::LoopBudget;
        }
        if let Some(token) = self.cancel.as_ref() {
            if octo_faults::should_inject(octo_faults::FaultSite::DirectedHang) {
                // A simulated wedge: responsive to cancellation but never
                // heartbeating, so only a watchdog escalation or the
                // deadline frees the worker. Armed only when a token
                // exists — without one the hang would be unrecoverable.
                while !token.is_cancelled() {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                return self.cancelled_outcome(&cur, ctx);
            }
        }

        let final_state = loop {
            // Deadline / cancellation poll, at a coarse cadence so the
            // Instant read stays off the hot path. Step 0 is included:
            // an already-expired deadline never starts executing. The
            // heartbeat rides the same cadence, so the watchdog can tell
            // a slow-but-stepping engine from a wedged one.
            if ctx.stats.total_steps.is_multiple_of(CANCEL_POLL_STEPS) {
                if let Some(token) = self.cancel.as_ref() {
                    token.beat();
                    if token.is_cancelled() {
                        return self.cancelled_outcome(&cur, ctx);
                    }
                }
            }
            if ctx.stats.total_steps >= self.config.step_budget {
                ctx.note_death(&cur.state, "step-budget");
                // Unsat evidence outweighs a bare budget verdict: every
                // path that reached ep contradicted the crash primitives.
                return if ctx.unsat_seen {
                    DirectedOutcome::Unsat
                } else {
                    DirectedOutcome::Budget
                };
            }
            ctx.stats.total_steps += 1;

            // Returning from `ℓ` switches back to directed mode.
            if let Mode::ModelFollow { ep_depth } = cur.mode {
                if cur.state.depth() < ep_depth {
                    cur.mode = Mode::Directed;
                }
            }

            let event = self.executor.step(&mut cur.state, &mut ctx.memo);
            let next: Option<PathState> = match event {
                StepEvent::Continue => Some(cur),
                StepEvent::EnteredEp {
                    entry,
                    args,
                    file_pos,
                } => match self.stitch_bunch(&mut cur, entry, &args, file_pos, &mut ctx.memo) {
                    Stitch::Done => break cur.state,
                    Stitch::More => {
                        // Stitching appended bunch constraints — a
                        // growth point for the memory watermark.
                        ctx.note_mem(&cur);
                        Some(cur)
                    }
                    Stitch::Infeasible => {
                        ctx.unsat_seen = true;
                        ctx.stitch_failures += 1;
                        emit(TraceKind::StitchInfeasible { entry });
                        ctx.note_death(&cur.state, "stitch-infeasible");
                        if ctx.stitch_failures >= MAX_STITCH_FAILURES {
                            return DirectedOutcome::Unsat;
                        }
                        None
                    }
                },
                StepEvent::Fork(fork) => self.fork(cur, &fork, ctx),
                StepEvent::Exited => {
                    ctx.note_death(&cur.state, "exited");
                    None
                }
                StepEvent::Crashed(_) => {
                    ctx.note_death(&cur.state, "crashed");
                    None
                }
                StepEvent::Dead(DeadReason::ConcretizeFailed) => {
                    ctx.unsat_seen = true;
                    ctx.note_death(&cur.state, "concretize-failed");
                    None
                }
                StepEvent::Dead(_) => {
                    ctx.note_death(&cur.state, "dead");
                    None
                }
            };

            // Steady-state memory poll (Table IV RAM column). Spikes are
            // caught event-driven at fallback pushes and stitch points;
            // this cadence covers gradual constraint growth and is O(1)
            // thanks to the running `fallback_bytes` sum.
            if ctx.stats.total_steps.is_multiple_of(64) {
                if let Some(p) = next.as_ref() {
                    ctx.note_mem(p);
                }
            }

            cur = match next {
                Some(p) => p,
                None => match ctx.pop() {
                    Some(p) => p,
                    None => {
                        return if ctx.unsat_seen {
                            DirectedOutcome::Unsat
                        } else if ctx.loop_budget_hit {
                            DirectedOutcome::LoopBudget
                        } else {
                            DirectedOutcome::ProgramDead
                        };
                    }
                },
            };
        };

        let final_path = PathState {
            state: final_state,
            mode: Mode::Directed,
        };
        ctx.note_mem(&final_path);
        // P3.3: solve everything; the model becomes poc'.
        let entries = final_path.state.ep_entries;
        let guiding = final_path.state.constraints.clone();
        match final_path
            .state
            .constraints
            .solve_in(SolveLimits::default(), &mut ctx.memo)
        {
            SolveResult::Sat(model) => {
                let len = (self.config.file_len as usize).max(model.required_len());
                DirectedOutcome::PocGenerated {
                    poc: PocFile::new(model.to_file(len)),
                    entries,
                    guiding,
                }
            }
            SolveResult::Unsat => {
                ctx.note_death(&final_path.state, "final-unsat");
                DirectedOutcome::Unsat
            }
            SolveResult::Unknown => DirectedOutcome::Budget,
            SolveResult::Injected => {
                ctx.note_death(&final_path.state, "fault-injected");
                DirectedOutcome::Injected
            }
        }
    }

    /// The single wind-down point for a fired cancel token: records the
    /// trace events and the death note, distinguishing a watchdog
    /// escalation (`"hung"`) from an ordinary deadline.
    fn cancelled_outcome(&self, cur: &PathState, ctx: &mut RunCtx) -> DirectedOutcome {
        let token = self
            .cancel
            .as_ref()
            .expect("cancelled_outcome needs a token");
        let escalated = token.was_escalated();
        if escalated {
            emit(TraceKind::WatchdogFired {
                beats: token.beats(),
            });
        }
        emit(TraceKind::CancelFired {
            step: ctx.stats.total_steps,
        });
        ctx.note_death(&cur.state, if escalated { "hung" } else { "deadline" });
        DirectedOutcome::Cancelled
    }

    /// Stores an alternate direction for backtracking (bounded by
    /// `max_fallbacks`) and keeps the stack-depth watermark current.
    /// Returns whether the state was kept.
    fn push_fallback(&self, cand: PathState, ctx: &mut RunCtx) -> bool {
        if ctx.fallbacks.len() >= self.config.max_fallbacks {
            return false;
        }
        let bytes = cand.state.approx_bytes();
        ctx.fallback_bytes += bytes;
        ctx.fallbacks.push((cand, bytes));
        ctx.stats.peak_fallback_depth = ctx
            .stats
            .peak_fallback_depth
            .max(ctx.fallbacks.len() as u64);
        emit(TraceKind::FallbackPush {
            depth: ctx.fallbacks.len() as u64,
        });
        true
    }

    fn distance(&self, func: FuncId, block: BlockId) -> Option<u32> {
        self.map.get(func, block)
    }

    /// Picks fork directions: feasible arms ordered by distance to `ep`;
    /// the best continues, the rest go onto the fallback stack.
    fn fork(&self, cur: PathState, fork: &Fork<'_>, ctx: &mut RunCtx) -> Option<PathState> {
        let func = cur.state.top().func;
        if let Mode::ModelFollow { .. } = cur.mode {
            return self.follow_model(cur, fork, ctx);
        }
        let mut order: Vec<(usize, Option<u32>)> = (0..fork.arms.count())
            .map(|arm| (arm, self.distance(func, fork.arms.target(arm))))
            .collect();
        if order.iter().all(|(_, d)| d.is_none()) {
            // Off the guided region (e.g. both successors rejoin via a
            // return) — decide by the current model, like inside ℓ.
            return self.follow_model(cur, fork, ctx);
        }
        // Order candidates by distance (unreachable last).
        order.sort_by_key(|(_, d)| d.unwrap_or(u32::MAX));

        let mut kept: Option<PathState> = None;
        let mut siblings = 0u32;
        for (arm, _) in order {
            let mut cand = PathState {
                state: cur.state.clone(),
                mode: cur.mode,
            };
            let visits = self.executor.take(&mut cand.state, fork, arm);
            if visits > self.config.theta {
                ctx.stats.loop_retries += 1;
                ctx.loop_budget_hit = true;
                emit(TraceKind::LoopRetry { visits });
                continue;
            }
            if !cand.state.constraints.quick_feasible_in(&mut ctx.memo) {
                continue;
            }
            if kept.is_none() {
                kept = Some(cand);
            } else if self.push_fallback(cand, ctx) {
                siblings += 1;
            }
        }
        // A fork is a growth point: the spike (kept state + the freshly
        // pushed sibling) must land in the watermark even if the path
        // dies before the next poll.
        match &kept {
            Some(k) => {
                if siblings > 0 {
                    emit(TraceKind::StateFork { siblings });
                }
                ctx.note_mem(k);
            }
            None => ctx.note_death(&cur.state, "branch-dead"),
        }
        kept
    }

    /// Takes the arm the current model selects (inside `ℓ`, where the
    /// primitive bytes already determine the path).
    fn follow_model(
        &self,
        mut cur: PathState,
        fork: &Fork<'_>,
        ctx: &mut RunCtx,
    ) -> Option<PathState> {
        let Some(v) = cur
            .state
            .model(&mut ctx.memo)
            .and_then(|model| fork.scrut.eval(&|off| Some(model.byte(off))))
        else {
            ctx.note_death(&cur.state, "model-unavailable");
            return None;
        };
        let arm = fork.arms.select(v);
        if self.config.loop_acceleration
            && matches!(fork.arms, Arms::Two { .. })
            && self.branch_is_forced(&cur.state, fork, arm, &mut ctx.memo)
        {
            // Forced branch: the direction is already implied by the
            // collected constraints — transfer control without growing the
            // path condition or the loop budget.
            ctx.stats.forced_branches += 1;
            let frame = cur.state.top_mut();
            frame.block = fork.arms.target(arm);
            frame.idx = 0;
            return Some(cur);
        }
        let visits = self.executor.take(&mut cur.state, fork, arm);
        if visits > self.config.theta {
            ctx.stats.loop_retries += 1;
            emit(TraceKind::LoopRetry { visits });
            ctx.note_death(&cur.state, "loop-retry");
            return None;
        }
        Some(cur)
    }

    /// Whether the opposite arm of a two-way branch is refuted by the
    /// current constraints (so taking `arm` adds no information).
    fn branch_is_forced(
        &self,
        state: &SymState,
        fork: &Fork<'_>,
        arm: usize,
        memo: &mut FilterMemo,
    ) -> bool {
        let mut probe = state.constraints.clone();
        probe.push(Constraint::from_bool(&fork.scrut, arm != 0));
        !probe.quick_feasible_in(memo)
    }

    /// P3.1/P3.2: on entering `ep`, replay the recorded arguments and pin
    /// the bunch bytes at the current file position.
    fn stitch_bunch(
        &self,
        cur: &mut PathState,
        entry: u32,
        args: &[SymVal],
        file_pos: u64,
        memo: &mut FilterMemo,
    ) -> Stitch {
        let k = (entry - 1) as usize;
        let Some(bunch) = self.q.bunch(k) else {
            // T enters ep more often than S did; the extra entries carry no
            // bunch — continue unconstrained.
            return Stitch::More;
        };
        // Replay ep's arguments from S (paper: "executes ep in T with the
        // same parameters as those used in S").
        if let Some(expected) = self.q.args(k) {
            for (arg, want) in args.iter().zip(expected.iter()) {
                match arg.as_concrete() {
                    Some(have) if have != *want => return Stitch::Infeasible,
                    Some(_) => {}
                    None => cur.state.add_constraint(Constraint::new(
                        arg.to_expr(),
                        Expr::val(*want),
                        Cond::Eq,
                    )),
                }
            }
        }
        // Pin the bunch bytes at the file position indicator (Fig. 5:
        // "sym[5:9] == 0x41").
        let dense = bunch.dense_bytes();
        for (j, byte) in dense.iter().enumerate() {
            let off = file_pos + j as u64;
            if off >= self.config.file_len {
                return Stitch::Infeasible; // bunch does not fit in the file
            }
            cur.state
                .add_constraint(Constraint::byte_eq(off as u32, *byte));
        }
        emit(TraceKind::BunchAsserted {
            entry,
            bytes: dense.len() as u64,
            file_pos,
        });
        if !cur.state.constraints.quick_feasible_in(memo) {
            return Stitch::Infeasible;
        }
        if (k + 1) == self.q.entry_count() {
            return Stitch::Done; // Algorithm 2: break after the last bunch
        }
        cur.mode = Mode::ModelFollow {
            ep_depth: cur.state.depth(),
        };
        Stitch::More
    }
}

enum Stitch {
    /// All bunches placed — stop and solve.
    Done,
    /// More entries expected — keep executing (model-follow inside `ℓ`).
    More,
    /// The placement contradicts the path condition.
    Infeasible,
}

#[cfg(test)]
mod tests {
    use super::*;
    use octo_cfg::{build_cfg, CfgMode};
    use octo_ir::parse::parse_program;
    use octo_poc::Bunch;
    use octo_vm::{RunOutcome, Vm};

    /// One recorded `ep` entry: `(poc bytes consumed, argument values)`.
    type EpEntry<'a> = (&'a [(u32, u8)], &'a [u64]);

    fn primitives(entries: &[EpEntry<'_>]) -> CrashPrimitives {
        let mut q = CrashPrimitives::new();
        for (i, (bytes, args)) in entries.iter().enumerate() {
            let mut b = Bunch::new(i as u32 + 1);
            for (o, v) in bytes.iter() {
                b.add(*o, *v);
            }
            q.push(b, args.to_vec());
        }
        q
    }

    fn run_directed(
        src: &str,
        ep_name: &str,
        q: &CrashPrimitives,
        file_len: u64,
    ) -> (DirectedOutcome, octo_ir::Program) {
        let p = parse_program(src).unwrap();
        let ep = p.func_by_name(ep_name).unwrap();
        let cfg = build_cfg(&p, CfgMode::Dynamic).unwrap();
        let map = DistanceMap::compute(&p, &cfg, ep);
        let config = DirectedConfig {
            file_len,
            ..DirectedConfig::default()
        };
        let engine = DirectedEngine::new(&p, ep, &map, q, config);
        let (outcome, _) = engine.run();
        (outcome, p)
    }

    const GATED: &str = r#"
func main() {
entry:
    fd = open
    magic = getc fd
    c = eq magic, 0x4D
    br c, ok, bad
ok:
    flag = getc fd
    c2 = eq flag, 0x01
    br c2, go, bad
go:
    call shared(fd)
    halt 0
bad:
    halt 1
}
func shared(fd) {
entry:
    v = getc fd
    c = eq v, 0x7F
    br c, boom, fine
boom:
    trap 1
fine:
    ret
}
"#;

    #[test]
    fn generates_poc_through_magic_gates() {
        // Bunch: the byte shared() consumes must be 0x7F.
        let q = primitives(&[(&[(9, 0x7F)], &[3])]);
        let (outcome, p) = run_directed(GATED, "shared", &q, 16);
        let DirectedOutcome::PocGenerated { poc, entries, .. } = outcome else {
            panic!("expected poc, got {outcome:?}");
        };
        assert_eq!(entries, 1);
        // Guiding bytes satisfy the magic gates; the bunch lands at the
        // file position when shared() is entered (offset 2).
        assert_eq!(poc.byte(0), 0x4D);
        assert_eq!(poc.byte(1), 0x01);
        assert_eq!(poc.byte(2), 0x7F);
        // P4 sanity: the generated poc' actually crashes T.
        let out = Vm::new(&p, poc.bytes()).run();
        assert!(matches!(out, RunOutcome::Crash(_)), "{out:?}");
    }

    #[test]
    fn ep_unreachable_is_detected() {
        let src = r#"
func main() {
entry:
    halt 0
}
func shared(fd) {
entry:
    ret
}
"#;
        let q = primitives(&[(&[(0, 1)], &[])]);
        let (outcome, _) = run_directed(src, "shared", &q, 8);
        assert!(matches!(outcome, DirectedOutcome::EpUnreachable));
    }

    #[test]
    fn concrete_arg_mismatch_is_unsat() {
        // T calls shared with a hard-coded 5; S recorded 0x13d.
        let src = r#"
func main() {
entry:
    fd = open
    call shared(5)
    halt 0
}
func shared(tag) {
entry:
    ret
}
"#;
        let q = primitives(&[(&[], &[0x13d])]);
        let (outcome, _) = run_directed(src, "shared", &q, 8);
        assert!(matches!(outcome, DirectedOutcome::Unsat), "{outcome:?}");
    }

    #[test]
    fn symbolic_arg_above_byte_range_is_unsat() {
        // T passes a single input byte as the tag; S recorded 0x13d which
        // no byte can equal.
        let src = r#"
func main() {
entry:
    fd = open
    t = getc fd
    call shared(t)
    halt 0
}
func shared(tag) {
entry:
    ret
}
"#;
        let q = primitives(&[(&[], &[0x13d])]);
        let (outcome, _) = run_directed(src, "shared", &q, 8);
        assert!(matches!(outcome, DirectedOutcome::Unsat), "{outcome:?}");
    }

    #[test]
    fn guiding_constraint_conflicting_with_bunch_is_unsat() {
        // The caller validates the byte that the bunch wants to be 0xFF.
        let src = r#"
func main() {
entry:
    fd = open
    b = getc fd
    c = ult b, 8
    br c, ok, bad
ok:
    seek fd, 0
    call shared(fd)
    halt 0
bad:
    halt 1
}
func shared(fd) {
entry:
    v = getc fd
    ret
}
"#;
        let q = primitives(&[(&[(0, 0xFF)], &[3])]);
        let (outcome, _) = run_directed(src, "shared", &q, 8);
        assert!(matches!(outcome, DirectedOutcome::Unsat), "{outcome:?}");
    }

    #[test]
    fn multi_entry_stitches_in_order() {
        const TWO_RECORDS: &str = r#"
func main() {
entry:
    fd = open
    n = getc fd
    c = eq n, 2
    br c, loop_start, bad
loop_start:
    i = 0
    jmp loop
loop:
    done = uge i, 2
    br done, fin, body
body:
    call shared(fd)
    i = add i, 1
    jmp loop
fin:
    halt 0
bad:
    halt 1
}
func shared(fd) {
entry:
    a = getc fd
    b = getc fd
    ret
}
"#;
        let q = primitives(&[
            (&[(10, 0xAA), (11, 0xAB)], &[3]),
            (&[(20, 0xBA), (21, 0xBB)], &[3]),
        ]);
        let (outcome, _) = run_directed(TWO_RECORDS, "shared", &q, 16);
        let DirectedOutcome::PocGenerated { poc, entries, .. } = outcome else {
            panic!("expected poc, got {outcome:?}");
        };
        assert_eq!(entries, 2);
        assert_eq!(poc.byte(0), 2); // guiding: record count
                                    // First bunch at pos 1..3, second at pos 3..5.
        assert_eq!(poc.byte(1), 0xAA);
        assert_eq!(poc.byte(2), 0xAB);
        assert_eq!(poc.byte(3), 0xBA);
        assert_eq!(poc.byte(4), 0xBB);
    }

    #[test]
    fn loop_exit_through_bounded_iteration() {
        // T must consume input records until a terminator byte, then call
        // shared. The loop is symbolic; directed execution iterates up to θ.
        let src = r#"
func main() {
entry:
    fd = open
    jmp loop
loop:
    b = getc fd
    stop = eq b, 0
    br stop, after, loop
after:
    call shared(fd)
    halt 0
}
func shared(fd) {
entry:
    v = getc fd
    ret
}
"#;
        let q = primitives(&[(&[(3, 0x42)], &[3])]);
        let (outcome, p) = run_directed(src, "shared", &q, 8);
        let DirectedOutcome::PocGenerated { poc, .. } = outcome else {
            panic!("expected poc, got {outcome:?}");
        };
        // The shortest exit: first byte is the terminator.
        assert_eq!(poc.byte(0), 0);
        assert_eq!(poc.byte(1), 0x42);
        let out = Vm::new(&p, poc.bytes()).run();
        assert!(matches!(out, RunOutcome::Exit(0)), "{out:?}");
    }

    #[test]
    fn expired_deadline_cancels_before_any_step() {
        let p = parse_program(GATED).unwrap();
        let ep = p.func_by_name("shared").unwrap();
        let cfg = build_cfg(&p, octo_cfg::CfgMode::Dynamic).unwrap();
        let map = DistanceMap::compute(&p, &cfg, ep);
        let q = primitives(&[(&[(9, 0x7F)], &[3])]);
        let config = DirectedConfig {
            file_len: 16,
            ..DirectedConfig::default()
        };
        let engine = DirectedEngine::new(&p, ep, &map, &q, config)
            .with_cancel(CancelToken::with_deadline(std::time::Duration::ZERO));
        let (outcome, stats) = engine.run();
        assert!(matches!(outcome, DirectedOutcome::Cancelled), "{outcome:?}");
        assert_eq!(stats.total_steps, 0, "cancelled before stepping");
    }

    #[test]
    fn explicit_cancel_mid_run_is_observed() {
        // A token cancelled up front but with no deadline: the engine must
        // notice it through the flag alone.
        let p = parse_program(GATED).unwrap();
        let ep = p.func_by_name("shared").unwrap();
        let cfg = build_cfg(&p, octo_cfg::CfgMode::Dynamic).unwrap();
        let map = DistanceMap::compute(&p, &cfg, ep);
        let q = primitives(&[(&[(9, 0x7F)], &[3])]);
        let token = CancelToken::new();
        token.cancel();
        let engine = DirectedEngine::new(
            &p,
            ep,
            &map,
            &q,
            DirectedConfig {
                file_len: 16,
                ..DirectedConfig::default()
            },
        )
        .with_cancel(token);
        let (outcome, _) = engine.run();
        assert!(matches!(outcome, DirectedOutcome::Cancelled), "{outcome:?}");
    }

    #[test]
    fn live_token_does_not_change_the_verdict() {
        let p = parse_program(GATED).unwrap();
        let ep = p.func_by_name("shared").unwrap();
        let cfg = build_cfg(&p, octo_cfg::CfgMode::Dynamic).unwrap();
        let map = DistanceMap::compute(&p, &cfg, ep);
        let q = primitives(&[(&[(9, 0x7F)], &[3])]);
        let config = DirectedConfig {
            file_len: 16,
            ..DirectedConfig::default()
        };
        let engine = DirectedEngine::new(&p, ep, &map, &q, config).with_cancel(
            CancelToken::with_deadline(std::time::Duration::from_secs(600)),
        );
        let (outcome, _) = engine.run();
        assert!(outcome.generated(), "{outcome:?}");
    }

    /// Builds the engine with a custom config (and optional token) and
    /// runs it, returning the stats too.
    fn run_configured(
        src: &str,
        ep_name: &str,
        q: &CrashPrimitives,
        config: DirectedConfig,
        cancel: Option<CancelToken>,
    ) -> (DirectedOutcome, DirectedStats) {
        let p = parse_program(src).unwrap();
        let ep = p.func_by_name(ep_name).unwrap();
        let cfg = build_cfg(&p, CfgMode::Dynamic).unwrap();
        let map = DistanceMap::compute(&p, &cfg, ep);
        let mut engine = DirectedEngine::new(&p, ep, &map, q, config);
        if let Some(token) = cancel {
            engine = engine.with_cancel(token);
        }
        engine.run()
    }

    /// Both arms of the fork reach `shared`, but every path dies on the
    /// concrete-argument mismatch within a handful of steps — long
    /// before the first 64-step memory poll.
    const FORK_THEN_MISMATCH: &str = r#"
func main() {
entry:
    fd = open
    b = getc fd
    c = ult b, 10
    br c, p1, p2
p1:
    call shared(5)
    halt 0
p2:
    call shared(5)
    halt 0
}
func shared(tag) {
entry:
    ret
}
"#;

    #[test]
    fn short_lived_memory_spike_is_observed() {
        // Regression (ISSUE 3): the peak used to be sampled only every
        // 64 steps, so a run that forks (two live states) and dies
        // within a few steps reported peak_mem_bytes == 0. The peak is
        // now maintained event-driven at fallback pushes, so the spike
        // — strictly more memory than a single fresh state — must be
        // observed even on this short Unsat run.
        let q = primitives(&[(&[], &[0x13d])]);
        let p = parse_program(FORK_THEN_MISMATCH).unwrap();
        let single_state = SymState::initial(&p).approx_bytes();
        let (outcome, stats) = run_configured(
            FORK_THEN_MISMATCH,
            "shared",
            &q,
            DirectedConfig {
                file_len: 8,
                ..DirectedConfig::default()
            },
            None,
        );
        assert!(matches!(outcome, DirectedOutcome::Unsat), "{outcome:?}");
        assert!(
            stats.total_steps < 64,
            "the spike must fall between polls for this regression test \
             to mean anything (got {} steps)",
            stats.total_steps
        );
        assert!(
            stats.peak_mem_bytes > single_state,
            "peak {} must exceed one fresh state ({single_state}): the \
             fork held two live states",
            stats.peak_mem_bytes
        );
        assert_eq!(stats.peak_fallback_depth, 1);
        assert!(stats.backtracks >= 1);
    }

    #[test]
    fn every_outcome_variant_carries_stats() {
        // Regression (ISSUE 3): wall_seconds/total_steps used to be
        // hand-assigned on each of ~8 early exits; a new exit path could
        // silently return zeros. All bookkeeping now funnels through the
        // single finish point in run(), checked here variant by variant.
        let gated_q = || primitives(&[(&[(9, 0x7F)], &[3])]);
        let config = |file_len| DirectedConfig {
            file_len,
            ..DirectedConfig::default()
        };

        // PocGenerated: a full successful run records everything.
        let (outcome, stats) = run_configured(GATED, "shared", &gated_q(), config(16), None);
        assert!(outcome.generated(), "{outcome:?}");
        assert!(stats.wall_seconds > 0.0);
        assert!(stats.total_steps > 0);
        assert!(stats.peak_mem_bytes > 0);
        assert!(stats.solver_calls > 0, "quick_feasible + final solve");
        assert!(stats.peak_fallback_depth >= 1, "the rejected gate arms");

        // EpUnreachable: decided before stepping, but the clock ran.
        let unreachable = r#"
func main() {
entry:
    halt 0
}
func shared(fd) {
entry:
    ret
}
"#;
        let q = primitives(&[(&[(0, 1)], &[])]);
        let (outcome, stats) = run_configured(unreachable, "shared", &q, config(8), None);
        assert!(matches!(outcome, DirectedOutcome::EpUnreachable));
        assert!(stats.wall_seconds > 0.0);
        assert_eq!(stats.total_steps, 0);

        // Unsat: the mismatch runs are short but fully accounted.
        let q = primitives(&[(&[], &[0x13d])]);
        let (outcome, stats) = run_configured(FORK_THEN_MISMATCH, "shared", &q, config(8), None);
        assert!(matches!(outcome, DirectedOutcome::Unsat));
        assert!(stats.wall_seconds > 0.0);
        assert!(stats.total_steps > 0);
        assert!(stats.solver_calls > 0);

        // ProgramDead: every path rejected by an impossible gate.
        let dead = r#"
func main() {
entry:
    fd = open
    a = getc fd
    b = add a, 1
    c = eq a, b
    br c, go, bad
go:
    call shared(fd)
    halt 0
bad:
    halt 1
}
func shared(fd) {
entry:
    ret
}
"#;
        let q = primitives(&[(&[], &[3])]);
        let (outcome, stats) = run_configured(dead, "shared", &q, config(8), None);
        assert!(matches!(outcome, DirectedOutcome::ProgramDead));
        assert!(stats.wall_seconds > 0.0);
        assert!(stats.total_steps > 0);

        // LoopBudget: θ = 0 charges every revisited target, so the very
        // first fork abandons both arms as loop states.
        let (outcome, stats) = run_configured(
            GATED,
            "shared",
            &gated_q(),
            DirectedConfig {
                file_len: 16,
                theta: 0,
                ..DirectedConfig::default()
            },
            None,
        );
        assert!(
            matches!(outcome, DirectedOutcome::LoopBudget),
            "{outcome:?}"
        );
        assert!(stats.wall_seconds > 0.0);
        assert!(stats.total_steps > 0);
        assert!(stats.loop_retries >= 2, "both fork arms charged");

        // Budget: the step budget stops the run at an exact count.
        let (outcome, stats) = run_configured(
            GATED,
            "shared",
            &gated_q(),
            DirectedConfig {
                file_len: 16,
                step_budget: 2,
                ..DirectedConfig::default()
            },
            None,
        );
        assert!(matches!(outcome, DirectedOutcome::Budget), "{outcome:?}");
        assert!(stats.wall_seconds > 0.0);
        assert_eq!(stats.total_steps, 2);

        // Cancelled: an expired deadline still stamps the clock.
        let (outcome, stats) = run_configured(
            GATED,
            "shared",
            &gated_q(),
            config(16),
            Some(CancelToken::with_deadline(std::time::Duration::ZERO)),
        );
        assert!(matches!(outcome, DirectedOutcome::Cancelled));
        assert!(stats.wall_seconds > 0.0);
        assert_eq!(stats.total_steps, 0);
    }

    #[test]
    fn death_notes_describe_the_dying_state() {
        // ProgramDead: the gate's go-arm is infeasible, so the only
        // surviving path walks the reject arm and exits — the last death
        // the verdict is decided on is that clean exit.
        let dead = r#"
func main() {
entry:
    fd = open
    a = getc fd
    b = add a, 1
    c = eq a, b
    br c, go, bad
go:
    call shared(fd)
    halt 0
bad:
    halt 1
}
func shared(fd) {
entry:
    ret
}
"#;
        let q = primitives(&[(&[], &[3])]);
        let (outcome, stats) = run_configured(
            dead,
            "shared",
            &q,
            DirectedConfig {
                file_len: 8,
                ..DirectedConfig::default()
            },
            None,
        );
        assert!(matches!(outcome, DirectedOutcome::ProgramDead));
        let death = stats.death.expect("program-dead run records a death");
        assert_eq!(death.reason, "exited");
        assert_eq!(death.ep_entries, 0, "died before ever entering ep");
        assert!(death.constraints > 0, "the gate constraint was collected");
        assert!(death.last_constraint.is_some());

        // Cancelled: the death note names the deadline.
        let (outcome, stats) = run_configured(
            GATED,
            "shared",
            &primitives(&[(&[(9, 0x7F)], &[3])]),
            DirectedConfig {
                file_len: 16,
                ..DirectedConfig::default()
            },
            Some(CancelToken::with_deadline(std::time::Duration::ZERO)),
        );
        assert!(matches!(outcome, DirectedOutcome::Cancelled));
        assert_eq!(stats.death.expect("deadline death").reason, "deadline");

        // A successful run keeps whatever death happened on a rejected
        // sibling path but never loses the verdict.
        let (outcome, _) = run_configured(
            GATED,
            "shared",
            &primitives(&[(&[(9, 0x7F)], &[3])]),
            DirectedConfig {
                file_len: 16,
                ..DirectedConfig::default()
            },
            None,
        );
        assert!(outcome.generated());
    }

    #[test]
    fn injected_loop_dead_forces_the_loop_budget_outcome() {
        use octo_faults::{FaultPlan, FaultSite, JobFaults};
        use std::sync::Arc;

        let q = primitives(&[(&[(9, 0x7F)], &[3])]);
        let plan = Arc::new(FaultPlan::new(0).nth(FaultSite::DirectedLoopDead, None, 1));
        let ctx = Arc::new(JobFaults::new(&plan, 0));
        let config = DirectedConfig {
            file_len: 16,
            ..DirectedConfig::default()
        };
        {
            let _g = octo_faults::install(&ctx);
            let (outcome, stats) = run_configured(GATED, "shared", &q, config, None);
            assert!(
                matches!(outcome, DirectedOutcome::LoopBudget),
                "{outcome:?}"
            );
            assert_eq!(stats.total_steps, 0, "forced before stepping");
            assert_eq!(stats.death.expect("forced death").reason, "fault-injected");
        }
        // Occurrence 2 (a retry attempt) runs clean.
        let _g = octo_faults::install(&ctx);
        let (outcome, _) = run_configured(GATED, "shared", &q, config, None);
        assert!(outcome.generated(), "{outcome:?}");
    }

    #[test]
    #[should_panic(expected = "injected panic: directed engine")]
    fn injected_panic_fires_inside_the_engine() {
        use octo_faults::{FaultPlan, FaultSite, JobFaults};
        use std::sync::Arc;

        let q = primitives(&[(&[(9, 0x7F)], &[3])]);
        let plan = Arc::new(FaultPlan::new(0).nth(FaultSite::DirectedPanic, None, 1));
        let ctx = Arc::new(JobFaults::new(&plan, 0));
        let _g = octo_faults::install(&ctx);
        let _ = run_configured(
            GATED,
            "shared",
            &q,
            DirectedConfig {
                file_len: 16,
                ..DirectedConfig::default()
            },
            None,
        );
    }

    #[test]
    fn injected_hang_is_escalated_by_the_watchdog_as_hung() {
        use octo_faults::{FaultPlan, FaultSite, JobFaults};
        use octo_sched::{Watchdog, WatchdogConfig};
        use std::sync::Arc;

        let q = primitives(&[(&[(9, 0x7F)], &[3])]);
        let plan = Arc::new(FaultPlan::new(0).nth(FaultSite::DirectedHang, None, 1));
        let ctx = Arc::new(JobFaults::new(&plan, 0));
        let _g = octo_faults::install(&ctx);

        let dog = Watchdog::spawn(WatchdogConfig {
            quiet: std::time::Duration::from_millis(50),
            poll: std::time::Duration::from_millis(5),
        });
        let token = CancelToken::new(); // no deadline: only the watchdog can free it
        let _watch = dog.watch(&token);
        let (outcome, stats) = run_configured(
            GATED,
            "shared",
            &q,
            DirectedConfig {
                file_len: 16,
                ..DirectedConfig::default()
            },
            Some(token.clone()),
        );
        assert!(matches!(outcome, DirectedOutcome::Cancelled), "{outcome:?}");
        assert!(
            token.was_escalated(),
            "the hang must come from the watchdog"
        );
        assert_eq!(stats.death.expect("hang death").reason, "hung");
        assert_eq!(dog.fired(), 1);

        // Without a token the hang site is skipped entirely: the engine
        // must not wedge unrecoverably.
        let ctx2 = Arc::new(JobFaults::new(&plan, 0));
        let _g2 = octo_faults::install(&ctx2);
        let (outcome, _) = run_configured(
            GATED,
            "shared",
            &q,
            DirectedConfig {
                file_len: 16,
                ..DirectedConfig::default()
            },
            None,
        );
        assert!(outcome.generated(), "{outcome:?}");
        assert_eq!(
            ctx2.fired(),
            0,
            "hang site is not consulted without a token"
        );
    }

    #[test]
    fn flight_record_covers_a_directed_run() {
        use octo_trace::{FlightRecorder, TraceKind};
        use std::sync::Arc;

        let rec = Arc::new(FlightRecorder::new(4096));
        let guard = octo_trace::install(&rec, 5, 2);
        let (outcome, _) = run_configured(
            GATED,
            "shared",
            &primitives(&[(&[(9, 0x7F)], &[3])]),
            DirectedConfig {
                file_len: 16,
                ..DirectedConfig::default()
            },
            None,
        );
        drop(guard);
        assert!(outcome.generated());
        let events = rec.snapshot();
        assert!(events.iter().all(|e| e.job == 5 && e.worker == 2));
        let has = |f: &dyn Fn(&TraceKind) -> bool| events.iter().any(|e| f(&e.kind));
        assert!(has(&|k| matches!(k, TraceKind::FallbackPush { .. })));
        assert!(has(&|k| matches!(
            k,
            TraceKind::BunchAsserted { entry: 1, .. }
        )));
        assert!(has(&|k| matches!(
            k,
            TraceKind::EngineOutcome {
                outcome: "poc-generated",
                ..
            }
        )));
        // The solver was exercised under the recorder... but solver-side
        // begin/end events are wired in octo-solver; here we only assert
        // the engine's own events. A run without a recorder must emit
        // nothing new.
        let before = rec.len();
        let (outcome, _) = run_configured(
            GATED,
            "shared",
            &primitives(&[(&[(9, 0x7F)], &[3])]),
            DirectedConfig {
                file_len: 16,
                ..DirectedConfig::default()
            },
            None,
        );
        assert!(outcome.generated());
        assert_eq!(rec.len(), before, "no recorder installed, no events");
    }

    #[test]
    fn program_dead_when_gate_rejects_everything() {
        // The gate requires getc(fd) == getc(fd)+1 — impossible; no path
        // reaches shared.
        let src = r#"
func main() {
entry:
    fd = open
    a = getc fd
    b = add a, 1
    c = eq a, b
    br c, go, bad
go:
    call shared(fd)
    halt 0
bad:
    halt 1
}
func shared(fd) {
entry:
    ret
}
"#;
        let q = primitives(&[(&[], &[3])]);
        let (outcome, _) = run_directed(src, "shared", &q, 8);
        assert!(
            matches!(outcome, DirectedOutcome::ProgramDead),
            "{outcome:?}"
        );
    }
}
