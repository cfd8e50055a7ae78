//! Symbolic expressions over input-file bytes.

use std::collections::BTreeSet;
use std::fmt;
use std::rc::Rc;

use octo_ir::{BinOp, UnOp};

/// Shared expression handle. Expressions are immutable and reference
/// counted so symbolic states can be forked cheaply.
pub type ExprRef = Rc<Expr>;

/// A 64-bit symbolic term over input-file bytes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// A concrete 64-bit value.
    Const(u64),
    /// The input-file byte at the given offset (value in `0..=255`).
    Byte(u32),
    /// A little-endian concatenation of 8-bit terms: element 0 is the least
    /// significant byte. At most 8 elements.
    Concat(Vec<ExprRef>),
    /// Binary operation (same semantics as the MicroIR operator).
    Bin(BinOp, ExprRef, ExprRef),
    /// Unary operation.
    Un(UnOp, ExprRef),
}

impl Expr {
    /// A constant term.
    pub fn val(v: u64) -> ExprRef {
        Rc::new(Expr::Const(v))
    }

    /// The input byte at `offset`.
    pub fn byte(offset: u32) -> ExprRef {
        Rc::new(Expr::Byte(offset))
    }

    /// A little-endian word of `len` consecutive input bytes starting at
    /// `offset` (matching a MicroIR `load` from a symbolic file buffer).
    ///
    /// # Panics
    /// Panics if `len` is 0 or greater than 8.
    pub fn concat_le(offset: u32, len: u32) -> ExprRef {
        assert!((1..=8).contains(&len), "concat length must be 1..=8");
        if len == 1 {
            return Expr::byte(offset);
        }
        Rc::new(Expr::Concat(
            (0..len).map(|i| Expr::byte(offset + i)).collect(),
        ))
    }

    /// Builds a binary operation (unsimplified; see [`crate::simplify`]).
    pub fn bin(op: BinOp, lhs: ExprRef, rhs: ExprRef) -> ExprRef {
        Rc::new(Expr::Bin(op, lhs, rhs))
    }

    /// Builds a unary operation (unsimplified).
    pub fn un(op: UnOp, src: ExprRef) -> ExprRef {
        Rc::new(Expr::Un(op, src))
    }

    /// The concrete value, if this term is a constant.
    pub fn as_const(&self) -> Option<u64> {
        match self {
            Expr::Const(v) => Some(*v),
            _ => None,
        }
    }

    /// Collects the distinct byte offsets this term depends on.
    pub fn vars(&self) -> BTreeSet<u32> {
        let mut out = BTreeSet::new();
        self.for_each_var(&mut |o| {
            out.insert(o);
        });
        out
    }

    /// Calls `f` with the offset of every byte leaf, left to right; an
    /// offset read twice is passed twice.
    pub(crate) fn for_each_var(&self, f: &mut impl FnMut(u32)) {
        match self {
            Expr::Const(_) => {}
            Expr::Byte(o) => f(*o),
            Expr::Concat(parts) => parts.iter().for_each(|p| p.for_each_var(f)),
            Expr::Bin(_, a, b) => {
                a.for_each_var(f);
                b.for_each_var(f);
            }
            Expr::Un(_, a) => a.for_each_var(f),
        }
    }

    /// Node count — used by the symbolic executor's state-memory
    /// accounting, which reproduces angr's path-explosion `MemoryError`
    /// (paper Table IV).
    pub fn size(&self) -> usize {
        match self {
            Expr::Const(_) | Expr::Byte(_) => 1,
            Expr::Concat(parts) => 1 + parts.iter().map(|p| p.size()).sum::<usize>(),
            Expr::Bin(_, a, b) => 1 + a.size() + b.size(),
            Expr::Un(_, a) => 1 + a.size(),
        }
    }

    /// Evaluates the term under a (possibly partial) byte assignment.
    ///
    /// Returns `None` if the term references an unassigned byte, or on
    /// division by zero.
    pub fn eval(&self, lookup: &impl Fn(u32) -> Option<u8>) -> Option<u64> {
        match self {
            Expr::Const(v) => Some(*v),
            Expr::Byte(o) => lookup(*o).map(u64::from),
            Expr::Concat(parts) => {
                let mut value = 0u64;
                for (i, p) in parts.iter().enumerate() {
                    let b = p.eval(lookup)?;
                    value |= (b & 0xFF) << (8 * i);
                }
                Some(value)
            }
            Expr::Bin(op, a, b) => {
                let (a, b) = (a.eval(lookup)?, b.eval(lookup)?);
                op.eval(a, b)
            }
            Expr::Un(op, a) => Some(op.eval(a.eval(lookup)?)),
        }
    }

    /// Evaluates against a complete concrete input file (offsets past the
    /// end read as 0, matching the symbolic executor's zero-fill of a
    /// fixed-size symbolic file).
    pub fn eval_file(&self, file: &[u8]) -> Option<u64> {
        self.eval(&|off| Some(file.get(off as usize).copied().unwrap_or(0)))
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(v) => {
                if *v > 0xFFFF {
                    write!(f, "{v:#x}")
                } else {
                    write!(f, "{v}")
                }
            }
            Expr::Byte(o) => write!(f, "in[{o}]"),
            Expr::Concat(parts) => {
                write!(f, "le(")?;
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            Expr::Bin(op, a, b) => write!(f, "({} {a} {b})", op.mnemonic()),
            Expr::Un(op, a) => write!(f, "({} {a})", op.mnemonic()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concat_le_evaluates_little_endian() {
        let e = Expr::concat_le(0, 4);
        assert_eq!(e.eval_file(&[0x78, 0x56, 0x34, 0x12]), Some(0x1234_5678));
    }

    #[test]
    fn single_byte_concat_collapses() {
        let e = Expr::concat_le(3, 1);
        assert_eq!(*e, Expr::Byte(3));
    }

    #[test]
    fn vars_collects_all_offsets() {
        let e = Expr::bin(
            BinOp::Add,
            Expr::concat_le(2, 2),
            Expr::bin(BinOp::Mul, Expr::byte(9), Expr::val(4)),
        );
        let vars: Vec<u32> = e.vars().into_iter().collect();
        assert_eq!(vars, vec![2, 3, 9]);
    }

    #[test]
    fn eval_partial_assignment_returns_none() {
        let e = Expr::bin(BinOp::Add, Expr::byte(0), Expr::byte(1));
        let only_zero = |off: u32| if off == 0 { Some(5u8) } else { None };
        assert_eq!(e.eval(&only_zero), None);
    }

    #[test]
    fn eval_division_by_zero_is_none() {
        let e = Expr::bin(BinOp::DivU, Expr::val(8), Expr::byte(0));
        assert_eq!(e.eval_file(&[0]), None);
        assert_eq!(e.eval_file(&[2]), Some(4));
    }

    #[test]
    fn eval_file_zero_fills_past_end() {
        let e = Expr::byte(100);
        assert_eq!(e.eval_file(b"ab"), Some(0));
    }

    #[test]
    fn size_counts_nodes() {
        let e = Expr::bin(BinOp::Xor, Expr::byte(0), Expr::val(1));
        assert_eq!(e.size(), 3);
    }

    #[test]
    fn display_forms() {
        let e = Expr::bin(BinOp::CmpEq, Expr::concat_le(0, 2), Expr::val(0xABCD));
        let s = e.to_string();
        assert!(s.contains("in[0]"), "{s}");
        assert!(s.contains("eq"), "{s}");
    }
}
