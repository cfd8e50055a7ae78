//! Generators and the filter-memo equivalence check, shared by
//! `tests/props.rs` and the solver's own unit tests (which alone can
//! build a memo of capacity 1 and reach the pair filter). Solver names
//! resolve through `crate::`, which both includers provide.

use std::rc::Rc;

use octo_ir::{BinOp, UnOp};
use proptest::prelude::*;

use crate::{Cond, Constraint, ConstraintSet, Expr, ExprRef, FilterMemo, SolveLimits};

/// Constants at and next to the points where 8-, 16-, 32- and 64-bit
/// arithmetic wraps, and where the sign bit flips.
pub const WRAP_CONSTANTS: [u64; 9] = [
    0,
    1,
    255,
    256,
    0xFFFF,
    1 << 32,
    (1 << 63) - 300,
    1 << 63,
    u64::MAX,
];

/// Every binary operator of the IR, so every one the symbolic executor
/// can put in a term.
pub const BIN_OPS: [BinOp; 21] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::DivU,
    BinOp::RemU,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
    BinOp::Shl,
    BinOp::ShrL,
    BinOp::ShrA,
    BinOp::CmpEq,
    BinOp::CmpNe,
    BinOp::CmpLtU,
    BinOp::CmpLeU,
    BinOp::CmpGtU,
    BinOp::CmpGeU,
    BinOp::CmpLtS,
    BinOp::CmpLeS,
    BinOp::CmpGtS,
    BinOp::CmpGeS,
];

/// Both unary operators of the IR.
pub const UN_OPS: [UnOp; 2] = [UnOp::Not, UnOp::Neg];

/// A 2-part little-endian concatenation, as a 2-byte load builds one.
pub fn concat2(lo: ExprRef, hi: ExprRef) -> ExprRef {
    Rc::new(Expr::Concat(vec![lo, hi]))
}

/// A random term of at most `depth` operator levels over `in[0]`,
/// `in[1]` and the [`WRAP_CONSTANTS`], built from every operator the
/// symbolic executor can emit: each [`BIN_OPS`] operator, each
/// [`UN_OPS`] operator and the 2-part concat. Terms are not simplified.
pub fn arb_op_expr(depth: u32) -> BoxedStrategy<ExprRef> {
    let leaf = prop_oneof![
        (0u32..2).prop_map(Expr::byte),
        arb_wrap_constant().prop_map(Expr::val),
    ];
    leaf.prop_recursive(depth, 32, 2, |inner| {
        let bin = (0..BIN_OPS.len(), inner.clone(), inner.clone())
            .prop_map(|(i, a, b)| Expr::bin(BIN_OPS[i], a, b))
            .boxed();
        let un = (0..UN_OPS.len(), inner.clone()).prop_map(|(i, a)| Expr::un(UN_OPS[i], a));
        let concat = (inner.clone(), inner).prop_map(|(lo, hi)| concat2(lo, hi));
        // Binary operators get half the draws: there are 21 of them.
        prop_oneof![bin.clone(), bin, un, concat]
    })
    .boxed()
}

/// One of the [`WRAP_CONSTANTS`].
pub fn arb_wrap_constant() -> impl Strategy<Value = u64> {
    (0..WRAP_CONSTANTS.len()).prop_map(|i| WRAP_CONSTANTS[i])
}

/// A right-hand constant: one of the [`WRAP_CONSTANTS`] or a small value.
pub fn arb_wrap_or_small() -> impl Strategy<Value = u64> {
    prop_oneof![arb_wrap_constant(), 0u64..300]
}

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

/// Every relation a constraint can state.
pub const CONDS: [Cond; 6] = [
    Cond::Eq,
    Cond::Ne,
    Cond::Ult,
    Cond::Ule,
    Cond::Slt,
    Cond::Sle,
];

pub fn arb_cond() -> impl Strategy<Value = Cond> {
    (0..CONDS.len()).prop_map(|i| CONDS[i])
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
/// and the same counts as a fresh memo per call: the shared memo's
/// counters move by what the two fresh memos count.
pub fn check_memo_matches_fresh(
    run: &[Vec<Constraint>],
    memo: &mut FilterMemo,
) -> Result<(), TestCaseError> {
    for path in run {
        let mut set = ConstraintSet::new();
        for c in path {
            set.push(c.clone());
            let (mut check, mut solve) = (FilterMemo::new(), FilterMemo::new());
            let fresh = (
                set.quick_feasible_in(&mut check),
                set.solve_in(SolveLimits::default(), &mut solve),
            );
            let (check, solve) = (counts(&check), counts(&solve));
            let fresh_counts: [u64; 3] = std::array::from_fn(|i| check[i] + solve[i]);
            let before = counts(memo);
            let shared = (
                set.quick_feasible_in(memo),
                set.solve_in(SolveLimits::default(), memo),
            );
            let after = counts(memo);
            let moved: [u64; 3] = std::array::from_fn(|i| after[i] - before[i]);
            prop_assert_eq!(
                (shared, moved),
                (fresh, fresh_counts),
                "prefix {:?}",
                set.items()
            );
        }
    }
    Ok(())
}

/// A memo's counters, wall time left out: solves, interval refutations,
/// simplifier rewrites.
fn counts(memo: &FilterMemo) -> [u64; 3] {
    let c = memo.counters();
    [c.solves, c.interval_refutations, c.simplify_rewrites]
}
