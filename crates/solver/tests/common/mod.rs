//! Generators and the filter-memo equivalence check, shared by
//! `tests/props.rs` and the solver's own unit tests (which alone can
//! build a memo of capacity 1). Solver names resolve through `crate::`,
//! which both includers provide.

use octo_ir::BinOp;
use proptest::prelude::*;

use crate::{
    Cond, Constraint, ConstraintSet, Expr, ExprRef, FilterMemo, SolveLimits, SolverCounters,
};

/// A small random expression over up to `vars` input bytes.
pub fn arb_expr(vars: u32, depth: u32) -> BoxedStrategy<ExprRef> {
    let leaf = prop_oneof![
        (0..vars).prop_map(Expr::byte),
        (0u64..300).prop_map(Expr::val),
    ];
    leaf.prop_recursive(depth, 16, 2, |inner| {
        (
            prop_oneof![
                Just(BinOp::Add),
                Just(BinOp::Sub),
                Just(BinOp::Mul),
                Just(BinOp::And),
                Just(BinOp::Or),
                Just(BinOp::Xor),
            ],
            inner.clone(),
            inner,
        )
            .prop_map(|(op, a, b)| Expr::bin(op, a, b))
    })
    .boxed()
}

pub fn arb_cond() -> impl Strategy<Value = Cond> {
    prop_oneof![
        Just(Cond::Eq),
        Just(Cond::Ne),
        Just(Cond::Ult),
        Just(Cond::Ule),
        Just(Cond::Slt),
        Just(Cond::Sle),
    ]
}

/// A random constraint over three input bytes. One in two pins a byte
/// to a value, so the same filter meets many fixed-byte contexts.
pub fn arb_constraint() -> impl Strategy<Value = Constraint> {
    prop_oneof![
        (arb_expr(3, 2), arb_cond(), 0u64..300).prop_map(|(lhs, cond, k)| Constraint::new(
            lhs,
            Expr::val(k),
            cond
        )),
        (0u32..3, 0u64..256).prop_map(|(off, v)| Constraint::byte_eq(off, v as u8)),
    ]
}

/// One engine run in miniature: paths that share a prefix and then
/// diverge, as forked states do. Each path lists its constraints in
/// push order.
pub fn arb_run() -> impl Strategy<Value = Vec<Vec<Constraint>>> {
    (
        prop::collection::vec(arb_constraint(), 0..4),
        prop::collection::vec(prop::collection::vec(arb_constraint(), 1..5), 1..4),
    )
        .prop_map(|(prefix, tails)| {
            tails
                .into_iter()
                .map(|tail| prefix.iter().cloned().chain(tail).collect())
                .collect()
        })
}

/// Pushes each path of `run` one constraint at a time, as the path
/// grows. At every prefix of every path, `memo` (shared across the whole
/// run, as one engine run shares it across its states) must give the
/// same `quick_feasible` answer, the same `SolveResult` (model included)
/// and the same solver counter deltas as a fresh memo per call.
pub fn check_memo_matches_fresh(
    run: &[Vec<Constraint>],
    memo: &mut FilterMemo,
) -> Result<(), TestCaseError> {
    for path in run {
        let mut set = ConstraintSet::new();
        for c in path {
            set.push(c.clone());
            let fresh = counted(|| (set.quick_feasible(), set.solve()));
            let shared = counted(|| {
                (
                    set.quick_feasible_in(memo),
                    set.solve_in(SolveLimits::default(), memo),
                )
            });
            prop_assert_eq!(shared, fresh, "prefix {:?}", set.items());
        }
    }
    Ok(())
}

/// Runs `f`; returns its result with the solver counters it moved
/// (wall time left out).
fn counted<T>(f: impl FnOnce() -> T) -> (T, [u64; 3]) {
    let before = SolverCounters::snapshot();
    let out = f();
    let d = SolverCounters::snapshot().since(&before);
    (out, [d.solves, d.interval_refutations, d.simplify_rewrites])
}
