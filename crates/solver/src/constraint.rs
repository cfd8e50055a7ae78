//! Constraints and constraint sets.

use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher, RandomState};
use std::rc::Rc;
use std::sync::OnceLock;

use octo_ir::BinOp;

use crate::expr::{Expr, ExprRef};
use crate::simplify::simplify;

/// Relation between the two sides of a [`Constraint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    /// `lhs == rhs`
    Eq,
    /// `lhs != rhs`
    Ne,
    /// `lhs < rhs` (unsigned)
    Ult,
    /// `lhs <= rhs` (unsigned)
    Ule,
    /// `lhs < rhs` (signed)
    Slt,
    /// `lhs <= rhs` (signed)
    Sle,
}

impl Cond {
    /// Evaluates the relation on concrete values.
    pub fn eval(self, a: u64, b: u64) -> bool {
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::Ult => a < b,
            Cond::Ule => a <= b,
            Cond::Slt => (a as i64) < (b as i64),
            Cond::Sle => (a as i64) <= (b as i64),
        }
    }

    /// The negated relation, with a possible operand swap.
    ///
    /// Returns `(cond, swapped)`: `!(a < b)` is `b <= a`, so negating `Ult`
    /// yields `(Ule, true)`.
    pub fn negate(self) -> (Cond, bool) {
        match self {
            Cond::Eq => (Cond::Ne, false),
            Cond::Ne => (Cond::Eq, false),
            Cond::Ult => (Cond::Ule, true),
            Cond::Ule => (Cond::Ult, true),
            Cond::Slt => (Cond::Sle, true),
            Cond::Sle => (Cond::Slt, true),
        }
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Cond::Eq => "==",
            Cond::Ne => "!=",
            Cond::Ult => "<u",
            Cond::Ule => "<=u",
            Cond::Slt => "<s",
            Cond::Sle => "<=s",
        };
        f.write_str(s)
    }
}

/// One relational constraint between two symbolic terms.
///
/// Building a constraint computes, once, the two facts every solver
/// entry asks of it: the sorted distinct byte offsets it reads (shared by
/// its clones, so forked states share them too) and a structural hash.
/// The fields are private so neither can go stale. `Hash` writes the
/// cached hash, and `Eq` compares hashes before trees.
#[derive(Clone)]
pub struct Constraint {
    lhs: ExprRef,
    rhs: ExprRef,
    cond: Cond,
    /// Sorted distinct offsets of the bytes either side reads.
    vars: Rc<[u32]>,
    /// `(lhs, rhs, cond)` hashed with [`hash_keys`].
    hash: u64,
}

/// The keys of every constraint's structural hash: one `RandomState`
/// for the process, so equal constraints hash equal wherever they were
/// built. It stays keyed because the programs under test choose the
/// constraints, and with them the memo's keys.
fn hash_keys() -> &'static RandomState {
    static KEYS: OnceLock<RandomState> = OnceLock::new();
    KEYS.get_or_init(RandomState::new)
}

impl Constraint {
    /// Creates a constraint, simplifying both sides.
    pub fn new(lhs: ExprRef, rhs: ExprRef, cond: Cond) -> Constraint {
        Constraint::from_parts(simplify(&lhs), simplify(&rhs), cond)
    }

    /// The one constructor: computes the byte offsets and the hash.
    fn from_parts(lhs: ExprRef, rhs: ExprRef, cond: Cond) -> Constraint {
        let mut vars = Vec::new();
        lhs.for_each_var(&mut |o| vars.push(o));
        rhs.for_each_var(&mut |o| vars.push(o));
        vars.sort_unstable();
        vars.dedup();
        let hash = hash_keys().hash_one((&lhs, &rhs, cond));
        Constraint {
            lhs,
            rhs,
            cond,
            vars: vars.into(),
            hash,
        }
    }

    /// Left term (simplified).
    pub fn lhs(&self) -> &ExprRef {
        &self.lhs
    }

    /// Right term (simplified).
    pub fn rhs(&self) -> &ExprRef {
        &self.rhs
    }

    /// Relation.
    pub fn cond(&self) -> Cond {
        self.cond
    }

    /// Builds the constraint asserting that a branch condition expression
    /// is true (`want_true`) or false.
    ///
    /// Comparison expressions are converted into direct relational
    /// constraints (so `eq(a, b) != 0` becomes `a == b`); anything else is
    /// compared against zero.
    pub fn from_bool(expr: &ExprRef, want_true: bool) -> Constraint {
        let expr = simplify(expr);
        if let Expr::Bin(op, a, b) = &*expr {
            if let Some(cond) = cmp_to_cond(*op) {
                return if want_true {
                    Constraint::new(a.clone(), b.clone(), cond)
                } else {
                    let (neg, swapped) = cond.negate();
                    if swapped {
                        Constraint::new(b.clone(), a.clone(), neg)
                    } else {
                        Constraint::new(a.clone(), b.clone(), neg)
                    }
                };
            }
        }
        let cond = if want_true { Cond::Ne } else { Cond::Eq };
        Constraint::new(expr, Expr::val(0), cond)
    }

    /// Builds `input[offset] == value` (bunch placement, paper P3.1).
    pub fn byte_eq(offset: u32, value: u8) -> Constraint {
        Constraint::new(Expr::byte(offset), Expr::val(u64::from(value)), Cond::Eq)
    }

    /// Evaluates under a (possibly partial) byte assignment. `None` if any
    /// referenced byte is unassigned (or a side divides by zero — which can
    /// never satisfy the constraint, so callers treat `None` as "cannot yet
    /// decide" only when free variables remain).
    pub fn eval(&self, lookup: &impl Fn(u32) -> Option<u8>) -> Option<bool> {
        let a = self.lhs.eval(lookup)?;
        let b = self.rhs.eval(lookup)?;
        Some(self.cond.eval(a, b))
    }

    /// Evaluates against a complete concrete file.
    pub fn eval_file(&self, file: &[u8]) -> bool {
        self.eval(&|off| Some(file.get(off as usize).copied().unwrap_or(0)))
            .unwrap_or(false)
    }

    /// Distinct byte offsets referenced, ascending.
    pub fn vars(&self) -> &[u32] {
        &self.vars
    }

    /// Node count of both sides (for memory accounting).
    pub fn size(&self) -> usize {
        self.lhs.size() + self.rhs.size()
    }
}

impl PartialEq for Constraint {
    fn eq(&self, other: &Constraint) -> bool {
        self.hash == other.hash
            && self.cond == other.cond
            && self.lhs == other.lhs
            && self.rhs == other.rhs
    }
}

impl Eq for Constraint {}

impl Hash for Constraint {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

// Leaves the cached facts out: the hash differs from run to run.
impl fmt::Debug for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Constraint")
            .field("lhs", &self.lhs)
            .field("rhs", &self.rhs)
            .field("cond", &self.cond)
            .finish()
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.lhs, self.cond, self.rhs)
    }
}

fn cmp_to_cond(op: BinOp) -> Option<Cond> {
    Some(match op {
        BinOp::CmpEq => Cond::Eq,
        BinOp::CmpNe => Cond::Ne,
        BinOp::CmpLtU => Cond::Ult,
        BinOp::CmpLeU => Cond::Ule,
        BinOp::CmpLtS => Cond::Slt,
        BinOp::CmpLeS => Cond::Sle,
        // gt/ge are recorded with swapped operands by the caller.
        _ => return None,
    })
}

/// How a constraint decomposes during normalisation.
enum Normalized {
    /// Always true — droppable.
    True,
    /// Always false — the whole set is unsatisfiable.
    False,
    /// Equivalent conjunction of simpler constraints.
    Keep(Vec<Constraint>),
}

fn normalize(c: Constraint) -> Normalized {
    // Fully constant?
    if let (Some(a), Some(b)) = (c.lhs.as_const(), c.rhs.as_const()) {
        return if c.cond.eval(a, b) {
            Normalized::True
        } else {
            Normalized::False
        };
    }
    // Canonical orientation: constant on the right for Eq/Ne.
    let c = if matches!(c.cond, Cond::Eq | Cond::Ne) && c.lhs.as_const().is_some() {
        Constraint::from_parts(c.rhs, c.lhs, c.cond)
    } else {
        c
    };
    // Equality of a byte-concat with a constant decomposes per byte — the
    // fragment where domain propagation is complete.
    if c.cond == Cond::Eq {
        if let Some(k) = c.rhs.as_const() {
            match &*c.lhs {
                Expr::Concat(parts) if parts.iter().all(|p| matches!(**p, Expr::Byte(_))) => {
                    let width_bits = 8 * parts.len() as u32;
                    if width_bits < 64 && (k >> width_bits) != 0 {
                        return Normalized::False;
                    }
                    let out = parts
                        .iter()
                        .enumerate()
                        .map(|(i, p)| {
                            let byte = (k >> (8 * i)) & 0xFF;
                            Constraint::new(p.clone(), Expr::val(byte), Cond::Eq)
                        })
                        .collect();
                    return Normalized::Keep(out);
                }
                Expr::Byte(_) if k > 255 => return Normalized::False,
                _ => {}
            }
        }
    }
    Normalized::Keep(vec![c])
}

/// An accumulating conjunction of constraints — the path condition plus
/// crash-primitive placements for one symbolic state.
#[derive(Debug, Clone, Default)]
pub struct ConstraintSet {
    items: Vec<Constraint>,
    trivially_false: bool,
}

impl ConstraintSet {
    /// Creates an empty (trivially satisfiable) set.
    pub fn new() -> ConstraintSet {
        ConstraintSet::default()
    }

    /// Adds a constraint, normalising and decomposing it.
    pub fn push(&mut self, c: Constraint) {
        if self.trivially_false {
            return;
        }
        match normalize(c) {
            Normalized::True => {}
            Normalized::False => self.trivially_false = true,
            Normalized::Keep(cs) => self.items.extend(cs),
        }
    }

    /// Adds `input[offset] == value`.
    pub fn assert_byte(&mut self, offset: u32, value: u8) {
        self.push(Constraint::byte_eq(offset, value));
    }

    /// Whether normalisation already proved the set unsatisfiable.
    pub fn is_trivially_false(&self) -> bool {
        self.trivially_false
    }

    /// The constraints currently held.
    pub fn items(&self) -> &[Constraint] {
        &self.items
    }

    /// Number of constraints.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Approximate node count (state-memory accounting).
    pub fn size(&self) -> usize {
        self.items.iter().map(Constraint::size).sum()
    }

    /// Checks a concrete file against every constraint.
    pub fn eval_file(&self, file: &[u8]) -> bool {
        !self.trivially_false && self.items.iter().all(|c| c.eval_file(file))
    }
}

impl Extend<Constraint> for ConstraintSet {
    fn extend<T: IntoIterator<Item = Constraint>>(&mut self, iter: T) {
        for c in iter {
            self.push(c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_bool_converts_comparisons() {
        let e = Expr::bin(BinOp::CmpLtU, Expr::byte(0), Expr::val(10));
        let t = Constraint::from_bool(&e, true);
        assert_eq!(t.cond, Cond::Ult);
        let f = Constraint::from_bool(&e, false);
        // !(b < 10)  =>  10 <= b
        assert_eq!(f.cond, Cond::Ule);
        assert_eq!(f.lhs.as_const(), Some(10));
    }

    #[test]
    fn from_bool_fallback_compares_to_zero() {
        let e = Expr::bin(BinOp::And, Expr::byte(0), Expr::val(0x80));
        let t = Constraint::from_bool(&e, true);
        assert_eq!(t.cond, Cond::Ne);
        assert_eq!(t.rhs.as_const(), Some(0));
    }

    #[test]
    fn concat_eq_const_decomposes_per_byte() {
        let mut set = ConstraintSet::new();
        set.push(Constraint::new(
            Expr::concat_le(0, 4),
            Expr::val(0x4134_1200),
            Cond::Eq,
        ));
        assert_eq!(set.len(), 4);
        assert!(set.eval_file(&[0x00, 0x12, 0x34, 0x41]));
        assert!(!set.eval_file(&[0x00, 0x12, 0x34, 0x42]));
    }

    #[test]
    fn oversized_constant_is_trivially_false() {
        let mut set = ConstraintSet::new();
        set.push(Constraint::new(
            Expr::concat_le(0, 2),
            Expr::val(0x1_0000),
            Cond::Eq,
        ));
        assert!(set.is_trivially_false());
    }

    #[test]
    fn byte_above_255_is_trivially_false() {
        // The tiffsplit Type-III situation: `tag == 0x13d` against a
        // single-byte source can never hold.
        let mut set = ConstraintSet::new();
        set.push(Constraint::new(Expr::byte(3), Expr::val(0x13d), Cond::Eq));
        assert!(set.is_trivially_false());
    }

    #[test]
    fn constant_constraints_fold_away() {
        let mut set = ConstraintSet::new();
        set.push(Constraint::new(Expr::val(3), Expr::val(3), Cond::Eq));
        assert!(set.is_empty());
        assert!(!set.is_trivially_false());
        set.push(Constraint::new(Expr::val(3), Expr::val(4), Cond::Eq));
        assert!(set.is_trivially_false());
    }

    #[test]
    fn eval_file_checks_all() {
        let mut set = ConstraintSet::new();
        set.assert_byte(0, b'G');
        set.assert_byte(1, b'I');
        assert!(set.eval_file(b"GIF"));
        assert!(!set.eval_file(b"GG"));
    }

    #[test]
    fn negate_roundtrip_semantics() {
        for cond in [
            Cond::Eq,
            Cond::Ne,
            Cond::Ult,
            Cond::Ule,
            Cond::Slt,
            Cond::Sle,
        ] {
            for (a, b) in [(1u64, 2u64), (2, 1), (5, 5), (u64::MAX, 0)] {
                let (neg, swapped) = cond.negate();
                let direct = cond.eval(a, b);
                let negated = if swapped {
                    neg.eval(b, a)
                } else {
                    neg.eval(a, b)
                };
                assert_ne!(direct, negated, "{cond} on ({a},{b})");
            }
        }
    }
}
