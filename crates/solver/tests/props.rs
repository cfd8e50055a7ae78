//! Property tests for the constraint solver.
//!
//! The solver's verdicts carry evaluation weight in the reproduction
//! (Unsat ⇒ the paper's Type-III "not triggerable"), so both directions
//! are checked: models must satisfy their constraint sets, and Unsat
//! answers are cross-checked by exhaustive enumeration on small instances.

mod common;

use common::{arb_cond, arb_expr, arb_run, check_memo_matches_fresh};
use octo_ir::BinOp;
// `common` names some of these (`ExprRef`, `SolverCounters`, …) through
// `crate::`, so it compiles inside the solver's unit tests as well.
use octo_solver::{
    Cond, Constraint, ConstraintSet, Expr, ExprRef, FilterMemo, SolveLimits, SolveResult,
    SolverCounters,
};
use proptest::prelude::*;

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
        let mut set = ConstraintSet::new();
        for (lhs, cond, k) in &exprs {
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
        let mut set = ConstraintSet::new();
        for (lhs, cond, k) in exprs {
            set.push(Constraint::new(lhs, Expr::val(k), cond));
        }
        if let SolveResult::Sat(_) = set.solve() {
            prop_assert!(set.quick_feasible(), "quick check refuted a sat set");
        }
    }

    /// A filter memo shared across growing, forking path conditions,
    /// as one engine run shares it, changes no answer and no counter.
    #[test]
    fn shared_memo_matches_a_fresh_memo_at_every_prefix(run in arb_run()) {
        check_memo_matches_fresh(&run, &mut FilterMemo::new())?;
    }
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
