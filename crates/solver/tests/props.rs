//! Property tests for the constraint solver.
//!
//! The solver's verdicts carry evaluation weight in the reproduction
//! (Unsat ⇒ the paper's Type-III "not triggerable"), so both directions
//! are checked: models must satisfy their constraint sets, and Unsat
//! answers are cross-checked by exhaustive enumeration on small instances.
//! Interval bounds decide Unsat answers too (the pair filter drops values
//! they refute), so the containment oracle below checks every interval
//! rule against concrete evaluation.

mod common;

use std::hash::BuildHasher;
use std::rc::Rc;

use common::{
    arb_cond, arb_expr, arb_op_expr, arb_run, arb_wrap_or_small, check_memo_matches_fresh, concat2,
    BIN_OPS, CONDS, UN_OPS, WRAP_CONSTANTS,
};
use octo_ir::BinOp;
use octo_solver::interval::{eval_interval, refutes, Interval};
// `common` names some of these (`ExprRef`, `SolverCounters`, …) through
// `crate::`, so it compiles inside the solver's unit tests as well.
use octo_solver::{
    Cond, Constraint, ConstraintSet, Expr, ExprRef, FilterMemo, SolveLimits, SolveResult,
    SolverCounters,
};
use proptest::prelude::*;

/// Sat/Unsat answers for `lhs cond k` constraints over `in[0]` and
/// `in[1]` agree with enumerating all 65,536 assignments.
fn check_verdict_by_enumeration(exprs: &[(ExprRef, Cond, u64)]) -> Result<(), TestCaseError> {
    let mut set = ConstraintSet::new();
    for (lhs, cond, k) in exprs {
        set.push(Constraint::new(lhs.clone(), Expr::val(*k), *cond));
    }
    let verdict = set.solve();
    let mut any = false;
    'outer: for b0 in 0u16..=255 {
        for b1 in 0u16..=255 {
            if set.eval_file(&[b0 as u8, b1 as u8]) {
                any = true;
                break 'outer;
            }
        }
    }
    match verdict {
        SolveResult::Sat(_) => prop_assert!(any, "solver said Sat but no witness exists"),
        SolveResult::Unsat => prop_assert!(!any, "solver said Unsat but a witness exists"),
        SolveResult::Unknown => {} // budget — no claim
        SolveResult::Injected => prop_assert!(false, "no fault plan is installed"),
    }
    Ok(())
}

/// `quick_feasible` does not refute a set the full solve finds Sat.
fn check_quick_feasible_is_sound(exprs: &[(ExprRef, Cond, u64)]) -> Result<(), TestCaseError> {
    let mut set = ConstraintSet::new();
    for (lhs, cond, k) in exprs {
        set.push(Constraint::new(lhs.clone(), Expr::val(*k), *cond));
    }
    if let SolveResult::Sat(_) = set.solve() {
        prop_assert!(set.quick_feasible(), "quick check refuted a sat set");
    }
    Ok(())
}

/// Inclusive `[lo, hi]` boxes for `in[0]` and `in[1]`.
type Boxes = [(u8, u8); 2];

/// At every point of `boxes` where `e` evaluates, its value lies inside
/// the bound [`eval_interval`] gives over `boxes`, if it gives one.
fn check_containment(e: &Expr, boxes: Boxes) -> Result<(), String> {
    let Some(iv) = eval_interval(e, &|off| boxes.get(off as usize).copied()) else {
        return Ok(());
    };
    // A byte the term does not read is tried at one value only.
    let reads = e.vars();
    let range = |k: usize| {
        let (lo, hi) = boxes[k];
        lo..=if reads.contains(&(k as u32)) { hi } else { lo }
    };
    for x in range(0) {
        for y in range(1) {
            if let Some(v) = e.eval(&|off| [x, y].get(off as usize).copied()) {
                if v < iv.lo || v > iv.hi {
                    return Err(format!(
                        "{e} at in = [{x}, {y}] is {v:#x}, outside [{:#x}, {:#x}] over {boxes:?}",
                        iv.lo, iv.hi
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Every term of one operator over the given operands: each unary
/// operator on each left operand, and each binary operator and the
/// 2-part concat on each (left, right) pair.
fn one_operator_terms(left: &[ExprRef], right: &[ExprRef]) -> Vec<ExprRef> {
    let mut out = Vec::new();
    for a in left {
        out.extend(UN_OPS.map(|op| Expr::un(op, a.clone())));
        for b in right {
            out.extend(BIN_OPS.map(|op| Expr::bin(op, a.clone(), b.clone())));
            out.push(concat2(a.clone(), b.clone()));
        }
    }
    out
}

/// Operands over `in[k]` whose bounds, over a box of 8 values at either
/// end of the byte range, are windows ending at, starting at or holding
/// each wrap constant: `in[k]`, the constant, `in[k] + K` and `K - in[k]`.
fn window_operands(k: u32) -> Vec<ExprRef> {
    let b = Expr::byte(k);
    std::iter::once(b.clone())
        .chain(WRAP_CONSTANTS.iter().flat_map(|&c| {
            [
                Expr::val(c),
                Expr::bin(BinOp::Add, b.clone(), Expr::val(c)),
                Expr::bin(BinOp::Sub, Expr::val(c), b.clone()),
            ]
        }))
        .collect()
}

/// Right shifts of `le(in[0..n])`, n in 1..=8, by every multiple of 8 up
/// to 72 and by 63, 64 and 65: around the byte-dropping rewrite's edges,
/// both the concat's width and the 64 at which a shift amount wraps.
fn shifted_concats() -> Vec<ExprRef> {
    let shifts = (0..=72).step_by(8).chain([63, 65]);
    shifts
        .flat_map(|sh| {
            (1..=8).map(move |n| Expr::bin(BinOp::ShrL, Expr::concat_le(0, n), Expr::val(sh)))
        })
        .collect()
}

/// Boxes of 1 to 32 values per byte, one in two at an end of the byte
/// range.
fn arb_boxes() -> impl Strategy<Value = Boxes> {
    let side = (
        prop_oneof![any::<u8>(), any::<u8>(), Just(0u8), Just(224u8)],
        0u8..32,
    )
        .prop_map(|(lo, w)| (lo, lo.saturating_add(w)));
    (side.clone(), side).prop_map(|(a, b)| [a, b])
}

/// The containment oracle, exhaustively one operator deep: every term of
/// one operator over `in[0]`, `in[1]` and the [`WRAP_CONSTANTS`], over
/// 32-value boxes at both ends and the middle of the byte range.
#[test]
fn interval_bounds_contain_every_depth_one_value() {
    let boxes: [Boxes; 3] = [
        [(0, 31), (224, 255)],
        [(224, 255), (0, 31)],
        [(112, 143), (112, 143)],
    ];
    let leaves: Vec<ExprRef> = (0..2)
        .map(Expr::byte)
        .chain(WRAP_CONSTANTS.map(Expr::val))
        .collect();
    for e in one_operator_terms(&leaves, &leaves) {
        for b in boxes {
            if let Err(msg) = check_containment(&e, b) {
                panic!("{msg}");
            }
        }
    }
}

/// The containment oracle, exhaustively two operators deep on operands
/// whose bounds straddle each wrap point: every operator on every pair of
/// [`window_operands`] (this is the shape that catches a shift pushing a
/// bit off the top for some values of a box but not others).
#[test]
fn interval_bounds_contain_every_operator_on_wrap_windows() {
    let boxes: [Boxes; 3] = [[(0, 7), (0, 7)], [(0, 7), (248, 255)], [(248, 255), (0, 7)]];
    for e in one_operator_terms(&window_operands(0), &window_operands(1)) {
        for b in boxes {
            if let Err(msg) = check_containment(&e, b) {
                panic!("{msg}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The containment oracle on sampled terms up to three operators deep
    /// over random boxes of at most 32 values per byte.
    #[test]
    fn interval_bounds_contain_sampled_values(e in arb_op_expr(3), boxes in arb_boxes()) {
        check_containment(&e, boxes).map_err(TestCaseError::fail)?;
    }
}

/// `refutes` claims only what fails at every pair of values of its
/// intervals: every relation over every pair of intervals of up to five
/// values within two of a wrap constant.
#[test]
fn interval_refutations_hold_at_every_point() {
    let mut points: Vec<u64> = WRAP_CONSTANTS
        .iter()
        .flat_map(|&k| (0..5).map(move |d| k.saturating_sub(2).saturating_add(d)))
        .collect();
    points.sort_unstable();
    points.dedup();
    let windows: Vec<Interval> = points
        .iter()
        .flat_map(|&lo| {
            points
                .iter()
                .filter(move |&&hi| lo <= hi && hi - lo < 5)
                .map(move |&hi| Interval { lo, hi })
        })
        .collect();
    for cond in CONDS {
        for l in &windows {
            for r in windows.iter().filter(|r| refutes(cond, l, r)) {
                for a in l.lo..=l.hi {
                    for b in r.lo..=r.hi {
                        assert!(
                            !cond.eval(a, b),
                            "{l:?} {cond} {r:?} holds at ({a:#x}, {b:#x})"
                        );
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any model returned by the solver satisfies every constraint.
    #[test]
    fn sat_models_satisfy_their_sets(
        exprs in prop::collection::vec((arb_expr(3, 2), arb_cond(), 0u64..300), 1..5)
    ) {
        let mut set = ConstraintSet::new();
        for (lhs, cond, k) in exprs {
            set.push(Constraint::new(lhs, Expr::val(k), cond));
        }
        if let SolveResult::Sat(model) = set.solve() {
            let file = model.to_file(model.required_len().max(3));
            prop_assert!(set.eval_file(&file), "model does not satisfy set");
        }
    }

    /// On instances with ≤ 2 byte variables, Sat/Unsat answers agree with
    /// exhaustive enumeration.
    #[test]
    fn verdicts_match_exhaustive_enumeration(
        exprs in prop::collection::vec((arb_expr(2, 1), arb_cond(), 0u64..300), 1..4)
    ) {
        check_verdict_by_enumeration(&exprs)?;
    }

    /// The same, over every operator and the wrap constants: pair filters
    /// here prove non-support by intervals before enumerating.
    #[test]
    fn verdicts_match_exhaustive_enumeration_on_every_operator(
        exprs in prop::collection::vec((arb_op_expr(2), arb_cond(), arb_wrap_or_small()), 1..4)
    ) {
        check_verdict_by_enumeration(&exprs)?;
    }

    /// Simplification preserves evaluation on random inputs.
    #[test]
    fn simplify_preserves_semantics(
        e in arb_expr(3, 3),
        input in prop::collection::vec(any::<u8>(), 3)
    ) {
        let s = octo_solver::simplify::simplify(&e);
        prop_assert_eq!(e.eval_file(&input), s.eval_file(&input));
    }

    /// Simplification preserves evaluation on every shifted concat of
    /// [`shifted_concats`], alone and under one more operator (each unary
    /// operator, each binary operator on either side, or the 2-part
    /// concat) whose other operand is an [`arb_op_expr`] term.
    #[test]
    fn simplify_preserves_semantics_on_every_operator(
        op in 0..UN_OPS.len() + BIN_OPS.len() + 1,
        other in arb_op_expr(2),
        shifted_left in any::<bool>(),
        input in prop::collection::vec(any::<u8>(), 8)
    ) {
        for shifted in shifted_concats() {
            let (l, r) = if shifted_left {
                (shifted.clone(), other.clone())
            } else {
                (other.clone(), shifted.clone())
            };
            let outer = match op {
                i if i < UN_OPS.len() => Expr::un(UN_OPS[i], shifted.clone()),
                i if i < UN_OPS.len() + BIN_OPS.len() => Expr::bin(BIN_OPS[i - UN_OPS.len()], l, r),
                _ => concat2(l, r),
            };
            for e in [shifted, outer] {
                let s = octo_solver::simplify::simplify(&e);
                prop_assert_eq!(e.eval_file(&input), s.eval_file(&input), "{} simplified to {}", e, s);
            }
        }
    }

    /// Simplification is idempotent.
    #[test]
    fn simplify_is_idempotent(e in arb_expr(3, 3)) {
        let once = octo_solver::simplify::simplify(&e);
        let twice = octo_solver::simplify::simplify(&once);
        prop_assert_eq!(once, twice);
    }

    /// `quick_feasible` never refutes a satisfiable set (no false Unsat
    /// from the propagation-only pre-check).
    #[test]
    fn quick_feasible_is_sound(
        exprs in prop::collection::vec((arb_expr(2, 1), arb_cond(), 0u64..300), 1..4)
    ) {
        check_quick_feasible_is_sound(&exprs)?;
    }

    /// The same, over every operator and the wrap constants.
    #[test]
    fn quick_feasible_is_sound_on_every_operator(
        exprs in prop::collection::vec((arb_op_expr(2), arb_cond(), arb_wrap_or_small()), 1..4)
    ) {
        check_quick_feasible_is_sound(&exprs)?;
    }

    /// A filter memo shared across growing, forking path conditions,
    /// as one engine run shares it, changes no answer and no counter.
    #[test]
    fn shared_memo_matches_a_fresh_memo_at_every_prefix(run in arb_run()) {
        check_memo_matches_fresh(&run, &mut FilterMemo::new())?;
    }

    /// A constraint's cached offsets are the bytes its two sides read,
    /// ascending, whether it was built directly or by normalisation
    /// (the operand swap, the per-byte split).
    #[test]
    fn cached_offsets_are_the_bytes_both_sides_read(
        lhs in arb_op_expr(2),
        cond in arb_cond(),
        rhs in prop_oneof![arb_op_expr(2), arb_wrap_or_small().prop_map(Expr::val)],
        swap in any::<bool>(),
    ) {
        let (lhs, rhs) = if swap { (rhs, lhs) } else { (lhs, rhs) };
        let c = Constraint::new(lhs, rhs, cond);
        let mut set = ConstraintSet::new();
        set.push(c.clone());
        for c in std::iter::once(&c).chain(set.items()) {
            let mut reads = c.lhs().vars();
            reads.extend(c.rhs().vars());
            let reads: Vec<u32> = reads.into_iter().collect();
            prop_assert_eq!(c.vars(), &reads[..], "{}", c);
        }
    }

    /// A constant-on-the-left equality, which normalisation turns round,
    /// equals and hashes like the same constraint built the right way
    /// round from a separate copy of its term.
    #[test]
    fn swapped_constraint_equals_and_hashes_like_the_direct_one(
        term in arb_op_expr(2),
        k in arb_wrap_or_small(),
        eq in any::<bool>(),
    ) {
        let cond = if eq { Cond::Eq } else { Cond::Ne };
        let mut set = ConstraintSet::new();
        set.push(Constraint::new(Expr::val(k), term.clone(), cond));
        // Only a constraint kept whole was swapped; normalisation may
        // fold it or split it per byte.
        prop_assume!(set.len() == 1);
        let swapped = &set.items()[0];
        let direct = Constraint::new(deep_copy(&term), Expr::val(k), cond);
        prop_assert_eq!(swapped, &direct);
        let keys = std::hash::RandomState::new();
        prop_assert_eq!(keys.hash_one(swapped), keys.hash_one(&direct));
    }
}

/// A copy of `e` that shares no node with it, so comparing the two
/// compares trees, not pointers.
fn deep_copy(e: &Expr) -> ExprRef {
    Rc::new(match e {
        Expr::Const(_) | Expr::Byte(_) => e.clone(),
        Expr::Concat(parts) => Expr::Concat(parts.iter().map(|p| deep_copy(p)).collect()),
        Expr::Bin(op, a, b) => Expr::Bin(*op, deep_copy(a), deep_copy(b)),
        Expr::Un(op, a) => Expr::Un(*op, deep_copy(a)),
    })
}

#[test]
fn exhausted_budget_reports_unknown_not_a_wrong_verdict() {
    // A genuinely unsatisfiable 3-variable constraint that propagation
    // alone cannot refute: b0 + b1 + b2 == 766 (max is 765), written so
    // no pairwise filter sees the contradiction, with a node budget too
    // small to finish the search.
    let mut set = ConstraintSet::new();
    let sum = Expr::bin(
        BinOp::Add,
        Expr::bin(BinOp::Add, Expr::byte(0), Expr::byte(1)),
        Expr::byte(2),
    );
    set.push(Constraint::new(sum, Expr::val(766), Cond::Eq));
    match set.solve_with(SolveLimits {
        max_nodes: 3,
        max_pair_work: 0,
    }) {
        SolveResult::Unknown => {}
        SolveResult::Unsat => {} // propagation may still catch it — fine
        SolveResult::Sat(m) => {
            panic!("budget exhaustion produced a bogus model: {m:?}")
        }
        SolveResult::Injected => panic!("no fault plan is installed"),
    }
    // With a real budget the verdict is Unsat.
    assert_eq!(set.solve(), SolveResult::Unsat);
}
