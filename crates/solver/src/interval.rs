//! Conservative interval analysis over expressions.
//!
//! Byte variables range over their current domains; interval evaluation
//! propagates `[lo, hi]` bounds bottom-up, giving the solver a cheap
//! refutation for wide constraints that per-variable filtering cannot see
//! (e.g. `b0 + b1 + b2 == 766` is impossible because the sum is bounded by
//! 765). All rules are *non-wrapping*: any operation that could overflow
//! 64 bits answers "unknown" instead of a wrong bound.
//!
//! The pair filter relies on these bounds too: it drops a value of one
//! byte without enumerating the other byte when the constraint is refuted
//! over the other byte's whole `[min, max]`. So an unsound rule here turns
//! a satisfiable path condition into `Unsat`, not only a wide one. The
//! containment oracle in `tests/props.rs` checks every rule against
//! concrete evaluation, over every operator the symbolic executor emits:
//! `interval_bounds_contain_every_depth_one_value` (every term one
//! operator deep), `interval_bounds_contain_every_operator_on_wrap_windows`
//! (two deep, on operands whose bounds straddle each wrap point) and
//! `interval_bounds_contain_sampled_values` (sampled, up to three deep).
//! `interval_refutations_hold_at_every_point` checks [`refutes`].

use crate::constraint::Cond;
use crate::expr::Expr;

/// An inclusive unsigned interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Lower bound (inclusive).
    pub lo: u64,
    /// Upper bound (inclusive).
    pub hi: u64,
}

impl Interval {
    /// The point interval `[v, v]`.
    pub fn point(v: u64) -> Interval {
        Interval { lo: v, hi: v }
    }

    /// Whether the interval is a single value.
    pub fn is_point(&self) -> bool {
        self.lo == self.hi
    }

    /// Whether the two intervals share any value.
    pub fn intersects(&self, other: &Interval) -> bool {
        self.lo <= other.hi && other.lo <= self.hi
    }
}

/// Evaluates `expr` to an interval, with `var_bounds` supplying the
/// current `[min, max]` of each byte variable. Returns `None` when no
/// sound bound is known (possible wrap, unsupported operator).
pub fn eval_interval(
    expr: &Expr,
    var_bounds: &impl Fn(u32) -> Option<(u8, u8)>,
) -> Option<Interval> {
    match expr {
        Expr::Const(v) => Some(Interval::point(*v)),
        Expr::Byte(o) => {
            let (lo, hi) = var_bounds(*o)?;
            Some(Interval {
                lo: u64::from(lo),
                hi: u64::from(hi),
            })
        }
        Expr::Concat(parts) => {
            let mut lo = 0u64;
            let mut hi = 0u64;
            for (i, p) in parts.iter().enumerate() {
                let iv = eval_interval(p, var_bounds)?;
                if iv.hi > 0xFF {
                    return None; // not byte-shaped; stay conservative
                }
                lo = lo.checked_add(iv.lo.checked_shl(8 * i as u32)?)?;
                hi = hi.checked_add(iv.hi.checked_shl(8 * i as u32)?)?;
            }
            Some(Interval { lo, hi })
        }
        Expr::Bin(op, a, b) => {
            use octo_ir::BinOp;
            let ia = eval_interval(a, var_bounds);
            let ib = eval_interval(b, var_bounds);
            match op {
                BinOp::Add => {
                    let (ia, ib) = (ia?, ib?);
                    Some(Interval {
                        lo: ia.lo.checked_add(ib.lo)?,
                        hi: ia.hi.checked_add(ib.hi)?,
                    })
                }
                BinOp::Sub => {
                    let (ia, ib) = (ia?, ib?);
                    // Sound only when no value pair can wrap.
                    if ia.lo >= ib.hi {
                        Some(Interval {
                            lo: ia.lo - ib.hi,
                            hi: ia.hi - ib.lo,
                        })
                    } else {
                        None
                    }
                }
                BinOp::Mul => {
                    let (ia, ib) = (ia?, ib?);
                    Some(Interval {
                        lo: ia.lo.checked_mul(ib.lo)?,
                        hi: ia.hi.checked_mul(ib.hi)?,
                    })
                }
                BinOp::And => {
                    // x & y ≤ min(x.hi, y.hi); with a constant mask the
                    // bound tightens to the mask.
                    let hi = match (ia, ib) {
                        (Some(x), Some(y)) => x.hi.min(y.hi),
                        (Some(x), None) | (None, Some(x)) => x.hi,
                        (None, None) => return None,
                    };
                    Some(Interval { lo: 0, hi })
                }
                BinOp::Or => {
                    let (ia, ib) = (ia?, ib?);
                    // x | y < 2^k where k covers both his; and ≥ max(los).
                    let bits = 64 - ia.hi.max(ib.hi).leading_zeros();
                    let hi = if bits >= 64 {
                        u64::MAX
                    } else {
                        (1u64 << bits) - 1
                    };
                    Some(Interval {
                        lo: ia.lo.max(ib.lo),
                        hi,
                    })
                }
                BinOp::Xor => {
                    let (ia, ib) = (ia?, ib?);
                    let bits = 64 - ia.hi.max(ib.hi).leading_zeros();
                    let hi = if bits >= 64 {
                        u64::MAX
                    } else {
                        (1u64 << bits) - 1
                    };
                    Some(Interval { lo: 0, hi })
                }
                BinOp::Shl => {
                    let (ia, ib) = (ia?, ib?);
                    // A shift that pushes a set bit of `hi` off the top
                    // wraps (`checked_shl` only rejects amounts ≥ 64).
                    if !ib.is_point() || ib.lo >= 64 || u64::from(ia.hi.leading_zeros()) < ib.lo {
                        return None;
                    }
                    Some(Interval {
                        lo: ia.lo << ib.lo,
                        hi: ia.hi << ib.lo,
                    })
                }
                BinOp::ShrL => {
                    let (ia, ib) = (ia?, ib?);
                    if !ib.is_point() || ib.lo >= 64 {
                        return None;
                    }
                    Some(Interval {
                        lo: ia.lo >> ib.lo,
                        hi: ia.hi >> ib.lo,
                    })
                }
                // Comparisons produce 0/1.
                BinOp::CmpEq
                | BinOp::CmpNe
                | BinOp::CmpLtU
                | BinOp::CmpLeU
                | BinOp::CmpGtU
                | BinOp::CmpGeU
                | BinOp::CmpLtS
                | BinOp::CmpLeS
                | BinOp::CmpGtS
                | BinOp::CmpGeS => Some(Interval { lo: 0, hi: 1 }),
                _ => None,
            }
        }
        Expr::Un(_, _) => None,
    }
}

/// Whether `lhs cond rhs` is *refuted* by interval reasoning (definitely
/// unsatisfiable). `false` means "cannot tell", never "satisfiable".
pub fn refutes(cond: Cond, lhs: &Interval, rhs: &Interval) -> bool {
    // Signed relations are only sound on the non-negative half.
    let signed_safe = lhs.hi < (1u64 << 63) && rhs.hi < (1u64 << 63);
    match cond {
        Cond::Eq => !lhs.intersects(rhs),
        Cond::Ne => lhs.is_point() && rhs.is_point() && lhs.lo == rhs.lo,
        Cond::Ult => lhs.lo >= rhs.hi,
        Cond::Ule => lhs.lo > rhs.hi,
        Cond::Slt => signed_safe && lhs.lo >= rhs.hi,
        Cond::Sle => signed_safe && lhs.lo > rhs.hi,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr as E;
    use octo_ir::BinOp;

    fn full(_: u32) -> Option<(u8, u8)> {
        Some((0, 255))
    }

    #[test]
    fn sum_of_three_bytes_is_bounded() {
        let sum = E::bin(
            BinOp::Add,
            E::bin(BinOp::Add, E::byte(0), E::byte(1)),
            E::byte(2),
        );
        let iv = eval_interval(&sum, &full).unwrap();
        assert_eq!(iv, Interval { lo: 0, hi: 765 });
        assert!(refutes(Cond::Eq, &iv, &Interval::point(766)));
        assert!(!refutes(Cond::Eq, &iv, &Interval::point(765)));
    }

    #[test]
    fn concat_bounds() {
        let word = E::concat_le(0, 2);
        let iv = eval_interval(&word, &full).unwrap();
        assert_eq!(iv, Interval { lo: 0, hi: 0xFFFF });
    }

    #[test]
    fn sub_is_conservative_about_wrap() {
        let e = E::bin(BinOp::Sub, E::byte(0), E::byte(1));
        assert_eq!(eval_interval(&e, &full), None); // may wrap
        let e2 = E::bin(BinOp::Sub, E::val(1000), E::byte(0));
        let iv = eval_interval(&e2, &full).unwrap();
        assert_eq!(iv, Interval { lo: 745, hi: 1000 });
    }

    #[test]
    fn masks_bound_results() {
        let e = E::bin(BinOp::And, E::concat_le(0, 4), E::val(0xFF));
        // simplification would reduce this, but raw interval eval must
        // also bound it
        let iv = eval_interval(&e, &full).unwrap();
        assert!(iv.hi <= 0xFF);
    }

    #[test]
    fn refutation_rules() {
        let a = Interval { lo: 10, hi: 20 };
        let b = Interval { lo: 30, hi: 40 };
        assert!(refutes(Cond::Eq, &a, &b));
        assert!(refutes(Cond::Ult, &b, &a)); // 30.. < ..20 impossible
        assert!(!refutes(Cond::Ult, &a, &b));
        assert!(refutes(Cond::Ne, &Interval::point(5), &Interval::point(5)));
        assert!(!refutes(Cond::Ne, &a, &a));
    }

    #[test]
    fn shl_that_loses_high_bits_has_no_bound() {
        let shl = |k: u64| {
            E::bin(
                BinOp::Shl,
                E::bin(BinOp::Add, E::byte(0), E::val(k)),
                E::val(1),
            )
        };
        assert_eq!(
            eval_interval(&shl(1 << 62), &full),
            Some(Interval {
                lo: 1 << 63,
                hi: (1 << 63) + 510
            })
        );
        // Only the values above 2^63 - 1 lose their top bit, but one is enough.
        assert_eq!(eval_interval(&shl((1 << 63) - 100), &full), None);
        assert_eq!(eval_interval(&shl(1 << 63), &full), None);
    }

    #[test]
    fn narrowed_domains_tighten_bounds() {
        let narrow = |o: u32| if o == 0 { Some((5, 7)) } else { Some((0, 255)) };
        let iv = eval_interval(&E::byte(0), &narrow).unwrap();
        assert_eq!(iv, Interval { lo: 5, hi: 7 });
    }
}
