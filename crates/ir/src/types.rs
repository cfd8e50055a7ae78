//! Core value-level types of MicroIR: registers, identifiers, operators.

use std::fmt;

/// A virtual register index, local to one function.
///
/// Registers are untyped 64-bit slots. Function parameters occupy the lowest
/// indices (`Reg(0)..Reg(n_params)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(pub u16);

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Identifies a function within a [`crate::Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FuncId(pub u32);

impl fmt::Display for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// Identifies a basic block within a [`crate::Function`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// Memory access width in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Width {
    /// 1 byte.
    W1,
    /// 2 bytes (little-endian).
    W2,
    /// 4 bytes (little-endian).
    W4,
    /// 8 bytes (little-endian).
    W8,
}

impl Width {
    /// The width in bytes.
    pub fn bytes(self) -> u64 {
        match self {
            Width::W1 => 1,
            Width::W2 => 2,
            Width::W4 => 4,
            Width::W8 => 8,
        }
    }

    /// The width in bits.
    pub fn bits(self) -> u32 {
        (self.bytes() * 8) as u32
    }

    /// A mask selecting the low `bytes()` bytes of a 64-bit value.
    pub fn mask(self) -> u64 {
        match self {
            Width::W8 => u64::MAX,
            w => (1u64 << w.bits()) - 1,
        }
    }

    /// Truncates `value` to this width.
    pub fn truncate(self, value: u64) -> u64 {
        value & self.mask()
    }

    /// Constructs a width from a byte count.
    ///
    /// Returns `None` unless `bytes` is 1, 2, 4, or 8.
    pub fn from_bytes(bytes: u64) -> Option<Width> {
        match bytes {
            1 => Some(Width::W1),
            2 => Some(Width::W2),
            4 => Some(Width::W4),
            8 => Some(Width::W8),
            _ => None,
        }
    }
}

impl fmt::Display for Width {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.bytes())
    }
}

/// Binary operators. Comparison operators produce 0 or 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Unsigned division. Division by zero is a crash (the VM reports it).
    DivU,
    /// Unsigned remainder. Remainder by zero is a crash.
    RemU,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Logical shift left (shift amount taken modulo 64).
    Shl,
    /// Logical shift right.
    ShrL,
    /// Arithmetic shift right.
    ShrA,
    /// Equality comparison.
    CmpEq,
    /// Inequality comparison.
    CmpNe,
    /// Unsigned less-than.
    CmpLtU,
    /// Unsigned less-or-equal.
    CmpLeU,
    /// Unsigned greater-than.
    CmpGtU,
    /// Unsigned greater-or-equal.
    CmpGeU,
    /// Signed less-than.
    CmpLtS,
    /// Signed less-or-equal.
    CmpLeS,
    /// Signed greater-than.
    CmpGtS,
    /// Signed greater-or-equal.
    CmpGeS,
}

impl BinOp {
    /// Evaluates the operator on concrete 64-bit values.
    ///
    /// Division or remainder by zero returns `None` (the interpreters turn
    /// this into a crash report).
    pub fn eval(self, a: u64, b: u64) -> Option<u64> {
        Some(match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::DivU => a.checked_div(b)?,
            BinOp::RemU => a.checked_rem(b)?,
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Shl => a.wrapping_shl(b as u32),
            BinOp::ShrL => a.wrapping_shr(b as u32),
            BinOp::ShrA => ((a as i64).wrapping_shr(b as u32)) as u64,
            BinOp::CmpEq => u64::from(a == b),
            BinOp::CmpNe => u64::from(a != b),
            BinOp::CmpLtU => u64::from(a < b),
            BinOp::CmpLeU => u64::from(a <= b),
            BinOp::CmpGtU => u64::from(a > b),
            BinOp::CmpGeU => u64::from(a >= b),
            BinOp::CmpLtS => u64::from((a as i64) < (b as i64)),
            BinOp::CmpLeS => u64::from((a as i64) <= (b as i64)),
            BinOp::CmpGtS => u64::from((a as i64) > (b as i64)),
            BinOp::CmpGeS => u64::from((a as i64) >= (b as i64)),
        })
    }

    /// The textual mnemonic used by the assembler.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::DivU => "udiv",
            BinOp::RemU => "urem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::ShrL => "shr",
            BinOp::ShrA => "sar",
            BinOp::CmpEq => "eq",
            BinOp::CmpNe => "ne",
            BinOp::CmpLtU => "ult",
            BinOp::CmpLeU => "ule",
            BinOp::CmpGtU => "ugt",
            BinOp::CmpGeU => "uge",
            BinOp::CmpLtS => "slt",
            BinOp::CmpLeS => "sle",
            BinOp::CmpGtS => "sgt",
            BinOp::CmpGeS => "sge",
        }
    }

    /// Parses a mnemonic produced by [`BinOp::mnemonic`].
    pub fn from_mnemonic(s: &str) -> Option<BinOp> {
        Some(match s {
            "add" => BinOp::Add,
            "sub" => BinOp::Sub,
            "mul" => BinOp::Mul,
            "udiv" => BinOp::DivU,
            "urem" => BinOp::RemU,
            "and" => BinOp::And,
            "or" => BinOp::Or,
            "xor" => BinOp::Xor,
            "shl" => BinOp::Shl,
            "shr" => BinOp::ShrL,
            "sar" => BinOp::ShrA,
            "eq" => BinOp::CmpEq,
            "ne" => BinOp::CmpNe,
            "ult" => BinOp::CmpLtU,
            "ule" => BinOp::CmpLeU,
            "ugt" => BinOp::CmpGtU,
            "uge" => BinOp::CmpGeU,
            "slt" => BinOp::CmpLtS,
            "sle" => BinOp::CmpLeS,
            "sgt" => BinOp::CmpGtS,
            "sge" => BinOp::CmpGeS,
            _ => return None,
        })
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Bitwise not.
    Not,
    /// Two's-complement negation.
    Neg,
}

impl UnOp {
    /// Evaluates the operator on a concrete value.
    pub fn eval(self, a: u64) -> u64 {
        match self {
            UnOp::Not => !a,
            UnOp::Neg => a.wrapping_neg(),
        }
    }

    /// The textual mnemonic used by the assembler.
    pub fn mnemonic(self) -> &'static str {
        match self {
            UnOp::Not => "not",
            UnOp::Neg => "neg",
        }
    }
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Overflow-checked arithmetic operators.
///
/// These model C code compiled with overflow traps (or manual overflow
/// checks); exceeding the destination width is a crash of class CWE-190
/// (integer overflow), matching Table II rows with that CWE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CheckedOp {
    /// Checked addition.
    Add,
    /// Checked subtraction (traps on unsigned underflow).
    Sub,
    /// Checked multiplication.
    Mul,
}

impl CheckedOp {
    /// Evaluates at width `w`; `None` means the operation overflowed.
    pub fn eval(self, w: Width, a: u64, b: u64) -> Option<u64> {
        let (a, b) = (w.truncate(a), w.truncate(b));
        let raw = match self {
            CheckedOp::Add => a.checked_add(b)?,
            CheckedOp::Sub => a.checked_sub(b)?,
            CheckedOp::Mul => a.checked_mul(b)?,
        };
        if raw != w.truncate(raw) {
            None
        } else {
            Some(raw)
        }
    }

    /// The textual mnemonic used by the assembler (without width suffix).
    pub fn mnemonic(self) -> &'static str {
        match self {
            CheckedOp::Add => "cadd",
            CheckedOp::Sub => "csub",
            CheckedOp::Mul => "cmul",
        }
    }
}

impl fmt::Display for CheckedOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// An instruction operand: either a register or an immediate constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Read from a register.
    Reg(Reg),
    /// A 64-bit immediate.
    Imm(u64),
}

impl Operand {
    /// Returns the register if this operand is one.
    pub fn as_reg(self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(r),
            Operand::Imm(_) => None,
        }
    }

    /// Returns the immediate value if this operand is one.
    pub fn as_imm(self) -> Option<u64> {
        match self {
            Operand::Reg(_) => None,
            Operand::Imm(v) => Some(v),
        }
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Operand {
        Operand::Reg(r)
    }
}

impl From<u64> for Operand {
    fn from(v: u64) -> Operand {
        Operand::Imm(v)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(v) => {
                if *v > 0xFFFF {
                    write!(f, "{v:#x}")
                } else {
                    write!(f, "{v}")
                }
            }
        }
    }
}

/// The kind of memory region produced by an allocation.
///
/// The distinction matters only for crash classification (heap vs stack
/// buffer overflow) and mirrors the CWE split in the paper's Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RegionKind {
    /// Heap allocation (`malloc`-like).
    #[default]
    Heap,
    /// Stack buffer (local array).
    Stack,
}

impl fmt::Display for RegionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegionKind::Heap => f.write_str("heap"),
            RegionKind::Stack => f.write_str("stack"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_masks() {
        assert_eq!(Width::W1.mask(), 0xFF);
        assert_eq!(Width::W2.mask(), 0xFFFF);
        assert_eq!(Width::W4.mask(), 0xFFFF_FFFF);
        assert_eq!(Width::W8.mask(), u64::MAX);
        assert_eq!(Width::W2.truncate(0x1_2345), 0x2345);
    }

    #[test]
    fn width_from_bytes_rejects_odd_sizes() {
        assert_eq!(Width::from_bytes(4), Some(Width::W4));
        assert_eq!(Width::from_bytes(3), None);
        assert_eq!(Width::from_bytes(0), None);
    }

    #[test]
    fn binop_eval_basics() {
        assert_eq!(BinOp::Add.eval(2, 3), Some(5));
        assert_eq!(BinOp::Sub.eval(2, 3), Some(u64::MAX));
        assert_eq!(BinOp::DivU.eval(7, 2), Some(3));
        assert_eq!(BinOp::DivU.eval(7, 0), None);
        assert_eq!(BinOp::RemU.eval(7, 0), None);
        assert_eq!(BinOp::CmpLtS.eval(u64::MAX, 0), Some(1)); // -1 < 0 signed
        assert_eq!(BinOp::CmpLtU.eval(u64::MAX, 0), Some(0));
    }

    #[test]
    fn binop_mnemonic_roundtrip() {
        for op in [
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
        ] {
            assert_eq!(BinOp::from_mnemonic(op.mnemonic()), Some(op));
        }
        assert_eq!(BinOp::from_mnemonic("bogus"), None);
    }

    #[test]
    fn checked_ops_trap_on_overflow() {
        assert_eq!(CheckedOp::Add.eval(Width::W1, 200, 100), None);
        assert_eq!(CheckedOp::Add.eval(Width::W1, 200, 55), Some(255));
        assert_eq!(CheckedOp::Mul.eval(Width::W4, 0x10000, 0x10000), None);
        assert_eq!(
            CheckedOp::Mul.eval(Width::W8, 0x10000, 0x10000),
            Some(0x1_0000_0000)
        );
        assert_eq!(CheckedOp::Sub.eval(Width::W4, 3, 5), None);
    }

    #[test]
    fn operand_conversions() {
        let r: Operand = Reg(3).into();
        assert_eq!(r.as_reg(), Some(Reg(3)));
        assert_eq!(r.as_imm(), None);
        let i: Operand = 9u64.into();
        assert_eq!(i.as_imm(), Some(9));
    }
}
