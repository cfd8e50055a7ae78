//! The solving engine: domain propagation plus bounded backtracking search.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use crate::constraint::{Constraint, ConstraintSet};
use crate::domain::ByteDomain;

/// The solver work one [`FilterMemo`] has counted, read with
/// [`FilterMemo::counters`].
///
/// Every [`ConstraintSet::solve_in`] entry (including
/// [`ConstraintSet::quick_feasible_in`] pre-checks) counts one `solves`
/// and adds the wall time it spends solving to `solve_nanos` (an entry a
/// fault plan abandons spends none); a wide constraint (three or more
/// free bytes) refuted by interval reasoning alone counts one
/// `interval_refutations` (the pair filter's interval pre-check does
/// not). These three are counted on the memo the entry was given, so an
/// engine run counts exactly its own entries. `simplify_rewrites` is the
/// simplifier's rewrite-rule firings on the memo's thread since the memo
/// was made: expressions are simplified where no memo is at hand (when a
/// constraint is built or pushed, and in the symbolic executor's value
/// operations), so that one count stays a thread-local.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverCounters {
    /// Solver entries (full solves and propagation-only pre-checks).
    pub solves: u64,
    /// Wall time spent inside solver entries, nanoseconds.
    pub solve_nanos: u64,
    /// Wide constraints refuted by interval reasoning during propagation.
    pub interval_refutations: u64,
    /// Simplifier rewrite rules fired.
    pub simplify_rewrites: u64,
}

/// Domains of some of one constraint's bytes, in offset order.
type Domains = Box<[ByteDomain]>;

/// How many filter results a [`FilterMemo`] holds before it is cleared.
///
/// Far above the largest run measured: across the engine golden and
/// Tables II–IV one run holds at most 466 entries.
pub const FILTER_MEMO_CAP: usize = 16 * 1024;

/// The solver's state for one engine run: domain-filter results
/// memoized across the run's solver entries, and the counts of those
/// entries.
///
/// Propagation narrows each byte's domain constraint by constraint: a
/// constraint with one free byte filters it value by value, one with two
/// free bytes runs the pair filter in both directions. Every solver
/// entry starts again from full domains, and a path condition only grows
/// along a path, so one run repeats the same filters many times.
///
/// A constraint that reads exactly one byte is keyed on the constraint
/// alone. Its entry is a truth table: the values of its byte for which
/// it evaluates to true (a division by zero is not true), computed on
/// first use. The one-variable filter keeps exactly the values of the
/// domain that the table holds, so a lookup intersects the domain with
/// the table, whatever the domain is. Any other filter is keyed on its
/// exact inputs: the constraint, and the current domain of every byte it
/// reads (the domains being filtered and the fixed values of the
/// others). Its entry holds the domains the filter produced. Either way
/// a hit changes nothing but speed. Keys are structural, not per-push
/// ids, so a condition rebuilt on another path still hits. The pair
/// filter's work budget is charged on hits as on misses, so every answer
/// and every count is the same with a shared memo as with a fresh one.
///
/// Every solver entry counts itself on the memo it was given (see
/// [`SolverCounters`]), so [`FilterMemo::counters`] is the work of the
/// run that owns the memo, and of no other.
///
/// One engine run owns one memo and drops it when it returns; nothing
/// outlives the run. Entry points without a run
/// ([`ConstraintSet::solve`], [`ConstraintSet::quick_feasible`]) use a
/// fresh memo per call. At [`FILTER_MEMO_CAP`] entries, truth tables
/// included, the filter results are cleared; the counts never are.
#[derive(Debug)]
pub struct FilterMemo {
    /// Per constraint that reads one byte: the values that satisfy it.
    tables: HashMap<Constraint, ByteDomain>,
    /// Per other constraint: the domains of its bytes (in offset order)
    /// → the narrowed domains of its free bytes (in offset order).
    filters: HashMap<Constraint, HashMap<Domains, Domains>>,
    len: usize,
    cap: usize,
    /// The entries' counts (`simplify_rewrites` unused: see `counters`).
    counts: SolverCounters,
    /// The simplifier's thread-local count when the memo was made.
    rewrites_at_start: u64,
}

impl FilterMemo {
    /// An empty memo (allocates nothing until the first entry).
    pub fn new() -> FilterMemo {
        FilterMemo {
            tables: HashMap::new(),
            filters: HashMap::new(),
            len: 0,
            cap: FILTER_MEMO_CAP,
            counts: SolverCounters::default(),
            rewrites_at_start: crate::simplify::rewrites_total(),
        }
    }

    /// What the solver entries given this memo have counted, and the
    /// simplifier's rewrites on this thread since the memo was made.
    pub fn counters(&self) -> SolverCounters {
        SolverCounters {
            simplify_rewrites: crate::simplify::rewrites_total()
                .wrapping_sub(self.rewrites_at_start),
            ..self.counts
        }
    }

    /// An empty memo that clears itself at `cap` entries.
    #[cfg(test)]
    pub(crate) fn with_cap(cap: usize) -> FilterMemo {
        FilterMemo {
            cap,
            ..FilterMemo::new()
        }
    }

    /// Entries held.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The truth table of `c`, which reads exactly one byte.
    fn table(&mut self, c: &Constraint) -> ByteDomain {
        if let Some(table) = self.tables.get(c) {
            return *table;
        }
        let off = c.vars()[0];
        let mut table = ByteDomain::empty();
        for v in 0..=255 {
            if c.eval(&|o| (o == off).then_some(v)) == Some(true) {
                table.insert(v);
            }
        }
        self.make_room();
        self.tables.insert(c.clone(), table);
        table
    }

    fn get(&self, c: &Constraint, domains: &[ByteDomain]) -> Option<&[ByteDomain]> {
        self.filters.get(c)?.get(domains).map(|d| &**d)
    }

    fn insert(&mut self, c: &Constraint, domains: &[ByteDomain], narrowed: Domains) {
        self.make_room();
        self.filters
            .entry(c.clone())
            .or_default()
            .insert(domains.into(), narrowed);
    }

    /// Counts one new entry, clearing the filter results first if the
    /// memo is full.
    fn make_room(&mut self) {
        if self.len >= self.cap {
            self.tables.clear();
            self.filters.clear();
            self.len = 0;
        }
        self.len += 1;
    }
}

impl Default for FilterMemo {
    fn default() -> FilterMemo {
        FilterMemo::new()
    }
}

/// Budgets bounding a solve. With the defaults, every constraint set the
/// reproduction's pipeline emits solves well inside the limits; `Unknown`
/// results indicate the budget was hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolveLimits {
    /// Maximum search-tree nodes (0 = propagation only, no search).
    pub max_nodes: u64,
    /// Maximum pairwise support checks per propagation round.
    pub max_pair_work: u64,
}

impl Default for SolveLimits {
    fn default() -> SolveLimits {
        SolveLimits {
            max_nodes: 200_000,
            max_pair_work: 2_000_000,
        }
    }
}

/// A satisfying byte assignment.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Model {
    bytes: BTreeMap<u32, u8>,
}

impl Model {
    /// Creates a model from explicit assignments.
    pub fn from_bytes(bytes: BTreeMap<u32, u8>) -> Model {
        Model { bytes }
    }

    /// The value of the byte at `offset` (unconstrained bytes default to 0,
    /// matching the zero-filled symbolic input file).
    pub fn byte(&self, offset: u32) -> u8 {
        self.bytes.get(&offset).copied().unwrap_or(0)
    }

    /// Offsets that are explicitly constrained.
    pub fn assigned(&self) -> impl Iterator<Item = (u32, u8)> + '_ {
        self.bytes.iter().map(|(&o, &v)| (o, v))
    }

    /// Materialises a concrete file of `len` bytes.
    pub fn to_file(&self, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        for (&off, &v) in &self.bytes {
            if (off as usize) < len {
                out[off as usize] = v;
            }
        }
        out
    }

    /// The highest constrained offset plus one (minimum file length that
    /// carries every assignment).
    pub fn required_len(&self) -> usize {
        self.bytes
            .keys()
            .next_back()
            .map(|&o| o as usize + 1)
            .unwrap_or(0)
    }
}

/// Outcome of a solve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveResult {
    /// Satisfiable, with a witness model.
    Sat(Model),
    /// Proven unsatisfiable.
    Unsat,
    /// Budget exhausted before a verdict.
    Unknown,
    /// Produced only under `octo-faults` injection (the `solver-solve`
    /// site): the solve was abandoned at entry. Consumers treat it like
    /// `Unknown`, except that the directed engine surfaces it as a
    /// distinct, retryable `fault-injected` outcome.
    Injected,
}

impl SolveResult {
    /// The model, if satisfiable.
    pub fn model(&self) -> Option<&Model> {
        match self {
            SolveResult::Sat(m) => Some(m),
            _ => None,
        }
    }

    /// Whether the result is `Sat`.
    pub fn is_sat(&self) -> bool {
        matches!(self, SolveResult::Sat(_))
    }
}

impl ConstraintSet {
    /// Solves the set with default limits and a fresh memo.
    pub fn solve(&self) -> SolveResult {
        self.solve_in(SolveLimits::default(), &mut FilterMemo::new())
    }

    /// Solves the set with explicit limits, reusing (and extending) the
    /// filter results in `memo` and counting the entry on it. The answer
    /// is the one a fresh memo gives.
    pub fn solve_in(&self, limits: SolveLimits, memo: &mut FilterMemo) -> SolveResult {
        memo.counts.solves += 1;
        // Fault-injection site: abandon the solve at entry (after the
        // count, so solver accounting stays truthful about the attempt).
        // Inert without an installed fault context.
        if octo_faults::should_inject(octo_faults::FaultSite::SolverSolve) {
            return SolveResult::Injected;
        }
        let start = Instant::now();
        // Flight-recorder bracket around the whole entry. Its payload
        // (the entry's refutations) is read only under a live recorder.
        let traced = octo_trace::is_active().then(|| {
            octo_trace::emit(octo_trace::TraceKind::SolverBegin {
                constraints: self.len() as u64,
            });
            memo.counts.interval_refutations
        });
        let result = if self.is_trivially_false() {
            // Normalisation proved the contradiction and dropped the
            // offending constraint from the item list; the search below
            // must not mistake the empty list for satisfiability.
            SolveResult::Unsat
        } else {
            Solver::new(self, limits, memo).solve()
        };
        let elapsed = start.elapsed();
        memo.counts.solve_nanos += elapsed.as_nanos() as u64;
        if let Some(refutations_before) = traced {
            octo_trace::emit(octo_trace::TraceKind::SolverEnd {
                result: match &result {
                    SolveResult::Sat(_) => "sat",
                    SolveResult::Unsat => "unsat",
                    SolveResult::Unknown => "unknown",
                    SolveResult::Injected => "injected",
                },
                micros: elapsed.as_micros() as u64,
                refutations: memo.counts.interval_refutations - refutations_before,
            });
        }
        result
    }

    /// Propagation-only feasibility pre-check with a fresh memo. The
    /// symbolic engines prune branches with it, through
    /// [`ConstraintSet::quick_feasible_in`], without paying for a full
    /// solve.
    ///
    /// `false` means *definitely unsatisfiable*; `true` means "not
    /// refuted by propagation" (the full solve may still say `Unsat`).
    pub fn quick_feasible(&self) -> bool {
        self.quick_feasible_in(&mut FilterMemo::new())
    }

    /// [`ConstraintSet::quick_feasible`], reusing (and extending) the
    /// filter results in `memo` and counting the entry on it.
    pub fn quick_feasible_in(&self, memo: &mut FilterMemo) -> bool {
        if self.is_trivially_false() {
            return false;
        }
        let limits = SolveLimits {
            max_nodes: 0,
            max_pair_work: 200_000,
        };
        !matches!(self.solve_in(limits, memo), SolveResult::Unsat)
    }
}

struct Solver<'a> {
    constraints: &'a [Constraint],
    /// Sorted variable offsets.
    vars: Vec<u32>,
    /// Domain per variable (indexed like `vars`).
    domains: Vec<ByteDomain>,
    /// Indices in `vars` of each constraint's variables, concatenated in
    /// constraint order (see [`Solver::cvars`]).
    cvars: Vec<usize>,
    /// Where each constraint's run starts in `cvars`, plus the end.
    cvar_starts: Vec<usize>,
    limits: SolveLimits,
    nodes: u64,
    budget_hit: bool,
    memo: &'a mut FilterMemo,
    /// Reused buffer for memo keys: the domains of one constraint's variables.
    key: Vec<ByteDomain>,
}

impl<'a> Solver<'a> {
    fn new(set: &'a ConstraintSet, limits: SolveLimits, memo: &'a mut FilterMemo) -> Solver<'a> {
        let constraints = set.items();
        let mut vars: Vec<u32> = constraints
            .iter()
            .flat_map(|c| c.vars().iter().copied())
            .collect();
        vars.sort_unstable();
        vars.dedup();
        let mut cvars = Vec::with_capacity(vars.len());
        let mut cvar_starts = Vec::with_capacity(constraints.len() + 1);
        cvar_starts.push(0);
        for c in constraints {
            cvars.extend(c.vars().iter().map(|o| {
                vars.binary_search(o)
                    .expect("every offset of a constraint is in `vars`")
            }));
            cvar_starts.push(cvars.len());
        }
        Solver {
            constraints,
            domains: vec![ByteDomain::full(); vars.len()],
            vars,
            cvars,
            cvar_starts,
            limits,
            nodes: 0,
            budget_hit: false,
            memo,
            key: Vec::new(),
        }
    }

    fn solve(mut self) -> SolveResult {
        if self.constraints.is_empty() {
            return SolveResult::Sat(Model::default());
        }
        if !self.propagate() {
            return SolveResult::Unsat;
        }
        // Try the cheap completion first: every variable at its domain
        // minimum. If that satisfies everything we are done without search.
        if let Some(model) = self.try_min_completion() {
            return SolveResult::Sat(model);
        }
        if self.limits.max_nodes == 0 {
            return SolveResult::Unknown;
        }
        let mut assignment: Vec<Option<u8>> =
            self.domains.iter().map(ByteDomain::as_singleton).collect();
        match self.search(&mut assignment) {
            Some(model) => SolveResult::Sat(model),
            None if self.budget_hit => SolveResult::Unknown,
            None => SolveResult::Unsat,
        }
    }

    /// Runs propagation to a fixpoint. Returns false on contradiction.
    fn propagate(&mut self) -> bool {
        let mut pair_work = 0u64;
        loop {
            let mut changed = false;
            for (ci, c) in self.constraints.iter().enumerate() {
                // How many variables are free, and the first two of them.
                let mut free = [0usize; 2];
                let mut n_free = 0;
                for &vi in self.cvars(ci) {
                    if self.domains[vi].as_singleton().is_none() {
                        if n_free < 2 {
                            free[n_free] = vi;
                        }
                        n_free += 1;
                    }
                }
                match n_free {
                    0 => {
                        let ok = c.eval(&|off| self.singleton_of(off)).unwrap_or(false);
                        if !ok {
                            return false;
                        }
                    }
                    1 | 2 => {
                        let free = &free[..n_free];
                        if let [a, b] = *free {
                            let work =
                                u64::from(self.domains[a].len()) * u64::from(self.domains[b].len());
                            if pair_work + work > self.limits.max_pair_work {
                                continue;
                            }
                            pair_work += work;
                        }
                        changed |= self.narrow(ci, free);
                        if free.iter().any(|&vi| self.domains[vi].is_empty()) {
                            return false;
                        }
                    }
                    // Wide constraints: per-variable filtering is too
                    // expensive, but interval reasoning can still
                    // refute impossible bounds (e.g. a byte sum that
                    // cannot reach the required constant).
                    _ => {
                        if refuted_within(c, &|off| self.bounds_of(off)) {
                            self.memo.counts.interval_refutations += 1;
                            return false;
                        }
                    }
                }
            }
            if !changed {
                return true;
            }
        }
    }

    /// Narrows the free variables of constraint `ci` (one or two, in
    /// offset order): the one-variable filter, or the pair filter in
    /// both directions. Memoized on the constraint's truth table if it
    /// reads one byte, else on the constraint and the domains of all its
    /// variables. Returns whether a domain changed.
    fn narrow(&mut self, ci: usize, free: &[usize]) -> bool {
        let c = &self.constraints[ci];
        if let ([vi], [_]) = (free, c.vars()) {
            return self.domains[*vi].intersect(&self.memo.table(c));
        }
        let vis = &self.cvars[self.cvar_starts[ci]..self.cvar_starts[ci + 1]];
        self.key.clear();
        self.key.extend(vis.iter().map(|&vi| self.domains[vi]));
        if let Some(narrowed) = self.memo.get(c, &self.key) {
            let mut changed = false;
            for (&vi, d) in free.iter().zip(narrowed) {
                changed |= self.domains[vi].intersect(d);
            }
            return changed;
        }
        let changed = match *free {
            [vi] => self.unary_filter(ci, vi),
            [a, b] => self.pair_filter(ci, a, b) | self.pair_filter(ci, b, a),
            _ => unreachable!("narrow filters one or two free variables"),
        };
        let narrowed = free.iter().map(|&vi| self.domains[vi]).collect();
        self.memo.insert(c, &self.key, narrowed);
        changed
    }

    /// Removes values of `target` (the only free variable of constraint
    /// `ci`) that violate it. Returns whether the domain changed.
    fn unary_filter(&mut self, ci: usize, target: usize) -> bool {
        let c = &self.constraints[ci];
        let off = self.vars[target];
        let mut keep = ByteDomain::empty();
        for cand in self.domains[target].iter() {
            let ok = c
                .eval(&|o| {
                    if o == off {
                        Some(cand)
                    } else {
                        self.singleton_of(o)
                    }
                })
                .unwrap_or(false);
            if ok {
                keep.insert(cand);
            }
        }
        self.domains[target].intersect(&keep)
    }

    /// Removes values of `target` that have no support in `other` for
    /// constraint `ci`. Returns whether the domain changed.
    ///
    /// Each value is first tried by interval reasoning, with `other` over
    /// its domain's whole `[min, max]` and every other byte at its fixed
    /// value: a refutation there proves that no value of `other` supports
    /// it, so `other` is enumerated only when that fails. The domain left
    /// is the one enumeration alone leaves, so answers, memo entries and
    /// [`SolverCounters`] do not depend on the shortcut (it counts no
    /// interval refutation).
    fn pair_filter(&mut self, ci: usize, target: usize, other: usize) -> bool {
        let c = &self.constraints[ci];
        let t_off = self.vars[target];
        let mut keep = ByteDomain::empty();
        for tv in self.domains[target].iter() {
            let at_tv = |off: u32| {
                if off == t_off {
                    Some((tv, tv))
                } else {
                    self.bounds_of(off)
                }
            };
            if !refuted_within(c, &at_tv) && self.has_support(c, t_off, tv, other) {
                keep.insert(tv);
            }
        }
        self.domains[target].intersect(&keep)
    }

    /// [`Solver::pair_filter`] without the interval shortcut: the
    /// enumerating filter it must agree with.
    #[cfg(test)]
    fn pair_filter_by_enumeration(&mut self, ci: usize, target: usize, other: usize) -> bool {
        let c = &self.constraints[ci];
        let t_off = self.vars[target];
        let mut keep = ByteDomain::empty();
        for tv in self.domains[target].iter() {
            if self.has_support(c, t_off, tv, other) {
                keep.insert(tv);
            }
        }
        self.domains[target].intersect(&keep)
    }

    /// Whether some value of `other` satisfies `c` with the byte at
    /// `t_off` set to `tv` and every other byte at its fixed value.
    fn has_support(&self, c: &Constraint, t_off: u32, tv: u8, other: usize) -> bool {
        let o_off = self.vars[other];
        self.domains[other].iter().any(|ov| {
            c.eval(&|off| {
                if off == t_off {
                    Some(tv)
                } else if off == o_off {
                    Some(ov)
                } else {
                    self.singleton_of(off)
                }
            })
            .unwrap_or(false)
        })
    }

    /// Indices in `vars` of the variables constraint `ci` reads.
    fn cvars(&self, ci: usize) -> &[usize] {
        &self.cvars[self.cvar_starts[ci]..self.cvar_starts[ci + 1]]
    }

    fn singleton_of(&self, off: u32) -> Option<u8> {
        let vi = self.vars.binary_search(&off).ok()?;
        self.domains[vi].as_singleton()
    }

    /// The `[min, max]` of the byte at `off`'s current domain.
    fn bounds_of(&self, off: u32) -> Option<(u8, u8)> {
        let vi = self.vars.binary_search(&off).ok()?;
        let d = &self.domains[vi];
        Some((d.min()?, d.max()?))
    }

    /// Tries completing with every domain's minimum value.
    fn try_min_completion(&self) -> Option<Model> {
        let bytes: BTreeMap<u32, u8> = self
            .vars
            .iter()
            .zip(self.domains.iter())
            .map(|(&off, d)| Some((off, d.min()?)))
            .collect::<Option<_>>()?;
        let lookup = |off: u32| bytes.get(&off).copied();
        if self
            .constraints
            .iter()
            .all(|c| c.eval(&lookup) == Some(true))
        {
            Some(Model::from_bytes(bytes))
        } else {
            None
        }
    }

    fn search(&mut self, assignment: &mut Vec<Option<u8>>) -> Option<Model> {
        self.nodes += 1;
        if self.nodes > self.limits.max_nodes {
            self.budget_hit = true;
            return None;
        }
        // Check constraints whose variables are all assigned; prune early.
        for (ci, c) in self.constraints.iter().enumerate() {
            let all = self.cvars(ci).iter().all(|&vi| assignment[vi].is_some());
            if all {
                let ok = c
                    .eval(&|off| {
                        let vi = self.vars.binary_search(&off).ok()?;
                        assignment[vi]
                    })
                    .unwrap_or(false);
                if !ok {
                    return None;
                }
            }
        }
        // Select the unassigned variable with the smallest domain (MRV).
        let next = (0..self.vars.len())
            .filter(|&vi| assignment[vi].is_none())
            .min_by_key(|&vi| self.domains[vi].len());
        let Some(vi) = next else {
            // Complete assignment — already checked above.
            let bytes = self
                .vars
                .iter()
                .zip(assignment.iter())
                .map(|(&off, v)| (off, v.expect("complete")))
                .collect();
            return Some(Model::from_bytes(bytes));
        };
        let candidates: Vec<u8> = self.domains[vi].iter().collect();
        for v in candidates {
            assignment[vi] = Some(v);
            if let Some(model) = self.search(assignment) {
                return Some(model);
            }
            if self.budget_hit {
                assignment[vi] = None;
                return None;
            }
        }
        assignment[vi] = None;
        None
    }
}

/// Whether interval reasoning proves `c` false for every assignment
/// inside `bounds` (each byte's inclusive `[min, max]`).
fn refuted_within(c: &Constraint, bounds: &impl Fn(u32) -> Option<(u8, u8)>) -> bool {
    let (Some(l), Some(r)) = (
        crate::interval::eval_interval(c.lhs(), bounds),
        crate::interval::eval_interval(c.rhs(), bounds),
    ) else {
        return false;
    };
    crate::interval::refutes(c.cond(), &l, &r)
}

#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod common;

#[cfg(test)]
mod tests {
    use super::common::{arb_cond, arb_op_expr, arb_wrap_or_small};
    use super::*;
    use crate::constraint::Cond;
    use crate::expr::Expr;
    use octo_ir::BinOp;

    use proptest::prelude::*;

    /// A random domain: full, one range, a sparse set or a dense random
    /// set (never empty: the filters only see non-empty domains).
    fn arb_domain() -> impl Strategy<Value = ByteDomain> {
        fn of(values: impl Iterator<Item = u8>) -> ByteDomain {
            let mut d = ByteDomain::empty();
            values.for_each(|v| d.insert(v));
            d
        }
        prop_oneof![
            Just(ByteDomain::full()),
            (any::<u8>(), any::<u8>()).prop_map(|(a, b)| of(a.min(b)..=a.max(b))),
            prop::collection::vec(any::<u8>(), 1..40).prop_map(|vs| of(vs.into_iter())),
            prop::collection::vec(any::<bool>(), 256)
                .prop_map(|keep| { of((0..=255u8).filter(|&v| keep[usize::from(v)] || v == 0)) }),
        ]
    }

    /// A constraint from the every-operator generator; one in three
    /// compares against `in[2]`, which the test fixes to a single value.
    fn arb_pair_constraint() -> impl Strategy<Value = Constraint> {
        let rhs = prop_oneof![
            arb_wrap_or_small().prop_map(Expr::val),
            arb_op_expr(1),
            Just(Expr::byte(2)),
        ];
        (arb_op_expr(2), arb_cond(), rhs)
            .prop_map(|(lhs, cond, rhs)| Constraint::new(lhs, rhs, cond))
    }

    /// A constraint from the every-operator generator, one in three a
    /// division of a term by `in[0]` (which `eval` leaves undecided at
    /// 0). The test keeps those that read exactly one byte.
    fn arb_unary_constraint() -> impl Strategy<Value = Constraint> {
        let lhs = prop_oneof![
            arb_op_expr(2),
            arb_op_expr(2),
            (any::<bool>(), arb_op_expr(1)).prop_map(|(rem, a)| {
                let op = if rem { BinOp::RemU } else { BinOp::DivU };
                Expr::bin(op, a, Expr::byte(0))
            }),
        ];
        let rhs = prop_oneof![arb_wrap_or_small().prop_map(Expr::val), arb_op_expr(1)];
        (lhs, arb_cond(), rhs).prop_map(|(lhs, cond, rhs)| Constraint::new(lhs, rhs, cond))
    }

    fn set_of(c: Constraint) -> ConstraintSet {
        let mut set = ConstraintSet::new();
        set.push(c);
        set
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The memo equivalence of `tests/props.rs` with a capacity of 1:
        /// the memo is cleared on almost every insert, so eviction lands
        /// between the filters of one propagation.
        #[test]
        fn capacity_one_memo_matches_a_fresh_memo(run in super::common::arb_run()) {
            let mut memo = FilterMemo::with_cap(1);
            super::common::check_memo_matches_fresh(&run, &mut memo)?;
            prop_assert!(memo.len() <= 1);
        }

        /// A one-byte constraint narrows through its truth table exactly
        /// as the one-variable filter narrows: at one domain, and again at
        /// another through the same memo, where the table is a hit.
        #[test]
        fn truth_table_narrows_like_the_unary_filter(
            c in arb_unary_constraint(),
            d0 in arb_domain(),
            d1 in arb_domain(),
        ) {
            let set = set_of(c);
            prop_assume!(set.len() == 1 && set.items()[0].vars().len() == 1);
            let mut memo = FilterMemo::new();
            for d in [d0, d1] {
                let mut fresh = FilterMemo::new();
                let mut reference = Solver::new(&set, SolveLimits::default(), &mut fresh);
                reference.domains[0] = d;
                let want = reference.unary_filter(0, 0);
                let mut shared = Solver::new(&set, SolveLimits::default(), &mut memo);
                shared.domains[0] = d;
                prop_assert_eq!(shared.narrow(0, &[0]), want);
                prop_assert_eq!(&shared.domains, &reference.domains, "{} from {:?}", set.items()[0], d);
            }
            prop_assert_eq!(memo.len(), 1, "one table, computed once");
        }

        /// The pair filter, with its interval pre-check, leaves exactly
        /// the domains the enumerating filter leaves, in both directions.
        #[test]
        fn pre_checked_pair_filter_matches_enumeration(
            c in arb_pair_constraint(),
            d0 in arb_domain(),
            d1 in arb_domain(),
            fixed in any::<u8>(),
        ) {
            let set = set_of(c);
            // Only a constraint left whole that reads both bytes has a
            // pair filter; normalisation may fold or split it.
            prop_assume!(set.len() == 1);
            let vars = set.items()[0].vars();
            prop_assume!(vars.contains(&0) && vars.contains(&1));
            let (mut m1, mut m2) = (FilterMemo::new(), FilterMemo::new());
            let mut fast = Solver::new(&set, SolveLimits::default(), &mut m1);
            let mut slow = Solver::new(&set, SolveLimits::default(), &mut m2);
            for s in [&mut fast, &mut slow] {
                s.domains[0] = d0;
                s.domains[1] = d1;
                if let Some(d) = s.domains.get_mut(2) {
                    *d = ByteDomain::singleton(fixed);
                }
            }
            for (target, other) in [(0, 1), (1, 0)] {
                let changed = fast.pair_filter(0, target, other);
                prop_assert_eq!(changed, slow.pair_filter_by_enumeration(0, target, other));
                prop_assert_eq!(&fast.domains, &slow.domains, "{} filtering in[{}]", set.items()[0], target);
            }
        }
    }

    /// `(shl (add le(in[0], in[1], in[2]) 2^63 - 100) 1) == 0` holds at
    /// `in = [100, 0, 0]`: the add reaches 2^63 and the shift drops that
    /// bit. The bound of the shift must not refute the wide constraint.
    #[test]
    fn shl_that_wraps_does_not_refute_a_wide_constraint() {
        let word = Expr::concat_le(0, 3);
        let sum = Expr::bin(BinOp::Add, word, Expr::val(0x7fff_ffff_ffff_ff9c));
        let shl = Expr::bin(BinOp::Shl, sum, Expr::val(1));
        let set = set_of(Constraint::new(shl, Expr::val(0), Cond::Eq));
        assert!(set.eval_file(&[100, 0, 0]));
        assert!(
            set.quick_feasible(),
            "the pre-check refuted a satisfiable set"
        );
        // The search budget may run out before it reaches in[0] = 100;
        // Unsat is the one wrong answer.
        assert_ne!(set.solve(), SolveResult::Unsat);
    }

    /// `(shl (add le(in[0], in[1]) 2^63 - 300) 1) == 0` has the one
    /// solution `in = [44, 1]`. The pair filter's interval pre-check must
    /// not drop its values.
    #[test]
    fn shl_that_wraps_does_not_refute_a_pair_constraint() {
        let word = Expr::concat_le(0, 2);
        let sum = Expr::bin(BinOp::Add, word, Expr::val(0x7fff_ffff_ffff_fed4));
        let shl = Expr::bin(BinOp::Shl, sum, Expr::val(1));
        let set = set_of(Constraint::new(shl, Expr::val(0), Cond::Eq));
        assert!(set.quick_feasible());
        let m = sat_model(&set);
        assert_eq!((m.byte(0), m.byte(1)), (44, 1));
    }

    #[test]
    fn memo_hits_replay_the_filters_and_the_cap_clears() {
        // b0 * b1 == 35 (pair filter), b0 != 5 (one-byte truth table).
        let mut set = ConstraintSet::new();
        let prod = Expr::bin(BinOp::Mul, Expr::byte(0), Expr::byte(1));
        set.push(Constraint::new(prod, Expr::val(35), Cond::Eq));
        set.push(Constraint::new(Expr::byte(0), Expr::val(5), Cond::Ne));
        let fresh = set.solve();
        let mut memo = FilterMemo::new();
        assert_eq!(memo.len(), 0);
        assert_eq!(set.solve_in(SolveLimits::default(), &mut memo), fresh);
        let filled = memo.len();
        assert!(filled >= 2, "both filters recorded: {filled}");
        // A second entry re-runs no filter: every lookup hits.
        assert_eq!(set.solve_in(SolveLimits::default(), &mut memo), fresh);
        assert_eq!(memo.len(), filled);

        let mut tiny = FilterMemo::with_cap(1);
        assert_eq!(set.solve_in(SolveLimits::default(), &mut tiny), fresh);
        assert_eq!(tiny.len(), 1, "cleared at the cap, then refilled");
    }

    #[test]
    fn memo_hits_are_charged_to_the_pair_budget() {
        // Three pair constraints over full domains spend 3 × 65,536 of
        // the pre-check's 200,000 pair budget without narrowing; the
        // fourth, which only the pair filter refutes (255 × 255 <
        // 65,537), is skipped. Hits must spend the budget exactly as
        // misses do, or a warm memo would refute what a cold one
        // cannot.
        let mut set = ConstraintSet::new();
        for k in [1_000, 1_001, 1_002] {
            let sum = Expr::bin(BinOp::Add, Expr::byte(0), Expr::byte(1));
            set.push(Constraint::new(sum, Expr::val(k), Cond::Ne));
        }
        let prod = Expr::bin(BinOp::Mul, Expr::byte(0), Expr::byte(2));
        set.push(Constraint::new(prod, Expr::val(65_537), Cond::Eq));
        assert!(set.quick_feasible(), "the budget skips the refuting pair");
        assert_eq!(set.solve(), SolveResult::Unsat, "a full budget reaches it");
        let mut memo = FilterMemo::new();
        assert!(set.quick_feasible_in(&mut memo));
        assert_eq!(memo.len(), 3, "the three pair filters that ran");
        assert!(set.quick_feasible_in(&mut memo), "warm memo, same answer");
    }

    fn sat_model(set: &ConstraintSet) -> Model {
        match set.solve() {
            SolveResult::Sat(m) => {
                assert!(
                    set.eval_file(&m.to_file(m.required_len().max(1))),
                    "model does not satisfy set"
                );
                m
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn solves_byte_equalities() {
        let mut set = ConstraintSet::new();
        set.assert_byte(0, b'G');
        set.assert_byte(5, b'a');
        let m = sat_model(&set);
        assert_eq!(m.byte(0), b'G');
        assert_eq!(m.byte(5), b'a');
        assert_eq!(m.byte(3), 0);
        assert_eq!(m.required_len(), 6);
    }

    #[test]
    fn solves_word_equality() {
        let mut set = ConstraintSet::new();
        set.push(Constraint::new(
            Expr::concat_le(2, 4),
            Expr::val(0xDEAD_BEEF),
            Cond::Eq,
        ));
        let m = sat_model(&set);
        assert_eq!(m.byte(2), 0xEF);
        assert_eq!(m.byte(5), 0xDE);
    }

    #[test]
    fn detects_direct_conflict() {
        let mut set = ConstraintSet::new();
        set.assert_byte(0, 1);
        set.assert_byte(0, 2);
        assert_eq!(set.solve(), SolveResult::Unsat);
        assert!(!set.quick_feasible());
    }

    #[test]
    fn injected_fault_abandons_the_solve_at_entry() {
        use std::sync::Arc;

        let mut set = ConstraintSet::new();
        set.assert_byte(0, b'G');
        // Fire on the 1st solver call only: the next call is clean.
        let plan = Arc::new(octo_faults::FaultPlan::new(0).nth(
            octo_faults::FaultSite::SolverSolve,
            None,
            1,
        ));
        let ctx = Arc::new(octo_faults::JobFaults::new(&plan, 0));
        {
            let _g = octo_faults::install(&ctx);
            assert_eq!(set.solve(), SolveResult::Injected);
            assert!(set.solve().is_sat(), "occurrence 2 must solve normally");
            // An injected pre-check is "not refuted", mirroring Unknown.
            assert!(!SolveResult::Injected.is_sat());
            assert_eq!(SolveResult::Injected.model(), None);
        }
        assert!(set.solve().is_sat(), "no context: injection inert");
        assert_eq!(ctx.fired(), 1);
    }

    #[test]
    fn solves_inequalities() {
        let mut set = ConstraintSet::new();
        // 10 <= b0 < 20 and b0 != 15
        set.push(Constraint::new(Expr::val(10), Expr::byte(0), Cond::Ule));
        set.push(Constraint::new(Expr::byte(0), Expr::val(20), Cond::Ult));
        set.push(Constraint::new(Expr::byte(0), Expr::val(15), Cond::Ne));
        let m = sat_model(&set);
        let v = m.byte(0);
        assert!((10..20).contains(&v) && v != 15);
    }

    #[test]
    fn unsat_empty_interval() {
        let mut set = ConstraintSet::new();
        set.push(Constraint::new(Expr::val(200), Expr::byte(0), Cond::Ule));
        set.push(Constraint::new(Expr::byte(0), Expr::val(100), Cond::Ult));
        assert_eq!(set.solve(), SolveResult::Unsat);
    }

    #[test]
    fn solves_arithmetic_relation() {
        // b0 + b1 == 100 with b0 == 30
        let mut set = ConstraintSet::new();
        let sum = Expr::bin(BinOp::Add, Expr::byte(0), Expr::byte(1));
        set.push(Constraint::new(sum, Expr::val(100), Cond::Eq));
        set.assert_byte(0, 30);
        let m = sat_model(&set);
        assert_eq!(m.byte(1), 70);
    }

    #[test]
    fn solves_two_free_vars_via_pair_propagation() {
        // b0 * b1 == 35 → {1*35, 5*7, 7*5, 35*1}
        let mut set = ConstraintSet::new();
        let prod = Expr::bin(BinOp::Mul, Expr::byte(0), Expr::byte(1));
        set.push(Constraint::new(prod, Expr::val(35), Cond::Eq));
        let m = sat_model(&set);
        assert_eq!(u32::from(m.byte(0)) * u32::from(m.byte(1)), 35);
    }

    #[test]
    fn solves_three_var_constraint_via_search() {
        // b0 + b1 + b2 == 600 (requires values above 85 — search territory)
        let mut set = ConstraintSet::new();
        let sum = Expr::bin(
            BinOp::Add,
            Expr::bin(BinOp::Add, Expr::byte(0), Expr::byte(1)),
            Expr::byte(2),
        );
        set.push(Constraint::new(sum, Expr::val(600), Cond::Eq));
        // Pin two to force the third.
        set.assert_byte(0, 250);
        set.assert_byte(1, 200);
        let m = sat_model(&set);
        assert_eq!(m.byte(2), 150);
    }

    #[test]
    fn unsat_three_var_is_proven() {
        let mut set = ConstraintSet::new();
        let sum = Expr::bin(
            BinOp::Add,
            Expr::bin(BinOp::Add, Expr::byte(0), Expr::byte(1)),
            Expr::byte(2),
        );
        // Max possible is 765.
        set.push(Constraint::new(Expr::val(766), Expr::byte(3), Cond::Ule));
        set.push(Constraint::new(sum, Expr::byte(3), Cond::Eq));
        assert_eq!(set.solve(), SolveResult::Unsat);
    }

    #[test]
    fn signed_comparisons() {
        // sign-extended-ish: interpret byte as small value, require
        // (b0 - 5) <s 0  →  b0 < 5 in small range
        let mut set = ConstraintSet::new();
        let shifted = Expr::bin(BinOp::Sub, Expr::byte(0), Expr::val(5));
        set.push(Constraint::new(shifted, Expr::val(0), Cond::Slt));
        let m = sat_model(&set);
        assert!(m.byte(0) < 5);
    }

    #[test]
    fn quick_feasible_accepts_satisfiable() {
        let mut set = ConstraintSet::new();
        set.assert_byte(0, 7);
        assert!(set.quick_feasible());
    }

    #[test]
    fn empty_set_is_sat() {
        let set = ConstraintSet::new();
        assert!(set.solve().is_sat());
    }

    /// `b0 + b1 + b2 == 1000`: three free bytes whose sum reaches at
    /// most 765, so interval reasoning refutes it.
    fn wide_refutable() -> ConstraintSet {
        let sum = Expr::bin(
            BinOp::Add,
            Expr::bin(BinOp::Add, Expr::byte(0), Expr::byte(1)),
            Expr::byte(2),
        );
        set_of(Constraint::new(sum, Expr::val(1000), Cond::Eq))
    }

    #[test]
    fn counters_attribute_solver_activity() {
        let mut memo = FilterMemo::new();
        let mut set = ConstraintSet::new();
        set.assert_byte(0, 7);
        assert!(set.solve_in(SolveLimits::default(), &mut memo).is_sat());
        assert!(set.quick_feasible_in(&mut memo));
        let unsat = wide_refutable().solve_in(SolveLimits::default(), &mut memo);
        assert_eq!(unsat, SolveResult::Unsat);

        let d = memo.counters();
        assert_eq!(d.solves, 3, "solve + quick_feasible + unsat: {d:?}");
        assert_eq!(d.interval_refutations, 1, "{d:?}");
    }

    #[test]
    fn simplify_rewrites_are_counted() {
        let memo = FilterMemo::new();
        let e = Expr::bin(BinOp::Add, Expr::val(2), Expr::val(40));
        assert_eq!(crate::simplify::simplify(&e).as_const(), Some(42));
        let d = memo.counters();
        assert!(d.simplify_rewrites >= 1, "{d:?}");
    }

    #[test]
    fn alternating_memos_each_count_only_their_own_entries() {
        let mut sat = ConstraintSet::new();
        sat.assert_byte(0, 7);
        let wide = wide_refutable();
        let (mut a, mut b) = (FilterMemo::new(), FilterMemo::new());
        for _ in 0..3 {
            assert!(sat.solve_in(SolveLimits::default(), &mut a).is_sat());
            assert!(!wide.quick_feasible_in(&mut b));
            assert!(!wide.quick_feasible_in(&mut b));
        }
        let (a, b) = (a.counters(), b.counters());
        assert_eq!((a.solves, a.interval_refutations), (3, 0), "{a:?}");
        assert_eq!((b.solves, b.interval_refutations), (6, 6), "{b:?}");
    }

    #[test]
    fn solver_end_reports_the_refutations_the_memo_counted() {
        use octo_trace::{FlightRecorder, TraceKind};
        use std::sync::Arc;

        // Two entries on one memo: each reports its own refutation, not
        // the memo's running total.
        let mut memo = FilterMemo::new();
        let rec = Arc::new(FlightRecorder::new(64));
        let guard = octo_trace::install(&rec, 0, 0);
        for _ in 0..2 {
            let unsat = wide_refutable().solve_in(SolveLimits::default(), &mut memo);
            assert_eq!(unsat, SolveResult::Unsat);
        }
        drop(guard);
        let refutations: Vec<u64> = rec
            .snapshot()
            .iter()
            .filter_map(|e| match e.kind {
                TraceKind::SolverEnd { refutations, .. } => Some(refutations),
                _ => None,
            })
            .collect();
        assert_eq!(refutations, [1, 1]);
        let total: u64 = refutations.iter().sum();
        assert_eq!(total, memo.counters().interval_refutations);
    }

    #[test]
    fn model_to_file_truncates() {
        let mut set = ConstraintSet::new();
        set.assert_byte(10, 0xAA);
        let m = sat_model(&set);
        let f = m.to_file(4);
        assert_eq!(f.len(), 4);
        assert!(f.iter().all(|&b| b == 0));
    }

    #[test]
    fn solver_entries_are_bracketed_in_the_flight_record() {
        use octo_trace::{FlightRecorder, TraceKind};
        use std::sync::Arc;

        let mut set = ConstraintSet::new();
        set.assert_byte(0, 0x41);
        // Without a recorder: nothing is emitted anywhere to check, but
        // the solve itself must be unaffected.
        assert!(set.solve().is_sat());

        let rec = Arc::new(FlightRecorder::new(64));
        let guard = octo_trace::install(&rec, 2, 1);
        assert!(set.solve().is_sat());
        drop(guard);
        let events = rec.snapshot();
        assert_eq!(events.len(), 2, "one begin + one end: {events:?}");
        assert!(matches!(
            events[0].kind,
            TraceKind::SolverBegin { constraints: 1 }
        ));
        let TraceKind::SolverEnd { result, .. } = &events[1].kind else {
            panic!("expected SolverEnd, got {:?}", events[1].kind);
        };
        assert_eq!(*result, "sat");

        // An unsat set reports "unsat" in the bracket.
        let rec = Arc::new(FlightRecorder::new(64));
        let guard = octo_trace::install(&rec, 0, 0);
        let mut bad = ConstraintSet::new();
        bad.assert_byte(0, 1);
        bad.assert_byte(0, 2);
        assert_eq!(bad.solve(), SolveResult::Unsat);
        drop(guard);
        let ends: Vec<_> = rec
            .snapshot()
            .into_iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    TraceKind::SolverEnd {
                        result: "unsat",
                        ..
                    }
                )
            })
            .collect();
        assert_eq!(ends.len(), 1, "exactly one unsat solver exit");
    }
}
