//! Expression simplification.
//!
//! Simplification serves two goals beyond keeping terms small:
//!
//! * constant folding lets the symbolic executor notice when a "symbolic"
//!   branch condition is actually concrete (no fork needed), and
//! * mask/shift rules keep loads from the symbolic file in *byte-concat
//!   form*, which the constraint normaliser can decompose into per-byte
//!   facts — the fragment where propagation is complete.

use std::cell::Cell;
use std::rc::Rc;

use octo_ir::BinOp;

use crate::expr::{Expr, ExprRef};

thread_local! {
    static REWRITES: Cell<u64> = const { Cell::new(0) };
}

/// A rewrite rule fired: count it for the observability layer (read
/// through [`crate::FilterMemo::counters`]).
fn note_rewrite() {
    REWRITES.with(|c| c.set(c.get().wrapping_add(1)));
}

/// Total rewrite-rule firings on this thread since it started.
pub(crate) fn rewrites_total() -> u64 {
    REWRITES.with(Cell::get)
}

/// Simplifies an expression bottom-up. Idempotent.
pub fn simplify(e: &ExprRef) -> ExprRef {
    match &**e {
        Expr::Const(_) | Expr::Byte(_) => e.clone(),
        Expr::Concat(parts) => {
            let parts: Vec<ExprRef> = parts.iter().map(simplify).collect();
            // All-constant concat folds to a constant.
            if let Some(v) = concat_const(&parts) {
                note_rewrite();
                return Expr::val(v);
            }
            if parts.len() == 1 {
                note_rewrite();
                return parts.into_iter().next().expect("len 1");
            }
            Rc::new(Expr::Concat(parts))
        }
        Expr::Un(op, a) => {
            let a = simplify(a);
            if let Some(v) = a.as_const() {
                note_rewrite();
                return Expr::val(op.eval(v));
            }
            Expr::un(*op, a)
        }
        Expr::Bin(op, a, b) => {
            let a = simplify(a);
            let b = simplify(b);
            simplify_bin(*op, a, b)
        }
    }
}

fn concat_const(parts: &[ExprRef]) -> Option<u64> {
    let mut v = 0u64;
    for (i, p) in parts.iter().enumerate() {
        v |= (p.as_const()? & 0xFF) << (8 * i);
    }
    Some(v)
}

fn simplify_bin(op: BinOp, a: ExprRef, b: ExprRef) -> ExprRef {
    // Full constant folding (when not dividing by zero).
    if let (Some(x), Some(y)) = (a.as_const(), b.as_const()) {
        if let Some(v) = op.eval(x, y) {
            note_rewrite();
            return Expr::val(v);
        }
    }
    match op {
        BinOp::Add | BinOp::Or | BinOp::Xor => {
            if a.as_const() == Some(0) {
                note_rewrite();
                return b;
            }
            if b.as_const() == Some(0) {
                note_rewrite();
                return a;
            }
        }
        BinOp::Sub | BinOp::Shl | BinOp::ShrL | BinOp::ShrA if b.as_const() == Some(0) => {
            note_rewrite();
            return a;
        }
        BinOp::Mul => {
            if a.as_const() == Some(1) {
                note_rewrite();
                return b;
            }
            if b.as_const() == Some(1) {
                note_rewrite();
                return a;
            }
            if a.as_const() == Some(0) || b.as_const() == Some(0) {
                note_rewrite();
                return Expr::val(0);
            }
        }
        BinOp::And => {
            if a.as_const() == Some(u64::MAX) {
                note_rewrite();
                return b;
            }
            if b.as_const() == Some(u64::MAX) {
                note_rewrite();
                return a;
            }
            if a.as_const() == Some(0) || b.as_const() == Some(0) {
                note_rewrite();
                return Expr::val(0);
            }
            // Byte-aligned masking of a concat truncates it.
            if let Some(r) = mask_concat(&a, &b) {
                note_rewrite();
                return r;
            }
        }
        BinOp::CmpEq if Rc::ptr_eq(&a, &b) => {
            note_rewrite();
            return Expr::val(1);
        }
        BinOp::CmpNe if Rc::ptr_eq(&a, &b) => {
            note_rewrite();
            return Expr::val(0);
        }
        _ => {}
    }
    // Shifting a concat right by whole bytes drops low bytes. The shift
    // must stay below 64: `ShrL` takes its amount modulo 64, as the VM
    // does, so a shift by 64 keeps the value.
    if matches!(op, BinOp::ShrL) {
        if let (Expr::Concat(parts), Some(sh)) = (&*a, b.as_const()) {
            if sh < 64 && sh % 8 == 0 && (sh / 8) as usize <= parts.len() {
                note_rewrite();
                let skip = (sh / 8) as usize;
                let rest: Vec<ExprRef> = parts[skip..].to_vec();
                return match rest.len() {
                    0 => Expr::val(0),
                    1 => rest.into_iter().next().expect("len 1"),
                    _ => Rc::new(Expr::Concat(rest)),
                };
            }
        }
    }
    Expr::bin(op, a, b)
}

/// `concat & 0x00..FF..` with a byte-aligned all-ones mask keeps the low
/// bytes of the concat. Returns `None` when the pattern does not apply.
fn mask_concat(a: &ExprRef, b: &ExprRef) -> Option<ExprRef> {
    // A bare input byte is an 8-bit value: any mask covering the low byte
    // is a no-op on it.
    for (x, y) in [(a, b), (b, a)] {
        if matches!(&**x, Expr::Byte(_)) {
            if let Some(m) = y.as_const() {
                if m & 0xFF == 0xFF {
                    return Some(x.clone());
                }
            }
        }
    }
    let (concat, mask) = match (&**a, b.as_const()) {
        (Expr::Concat(parts), Some(m)) => (parts, m),
        _ => match (&**b, a.as_const()) {
            (Expr::Concat(parts), Some(m)) => (parts, m),
            _ => return None,
        },
    };
    let keep_bytes = match mask {
        0xFF => 1,
        0xFFFF => 2,
        0xFF_FFFF => 3,
        0xFFFF_FFFF => 4,
        0xFF_FFFF_FFFF => 5,
        0xFFFF_FFFF_FFFF => 6,
        0xFF_FFFF_FFFF_FFFF => 7,
        _ => return None,
    };
    if keep_bytes >= concat.len() {
        // Mask is wider than the value; concat of bytes is already within
        // range, so the mask is a no-op.
        return Some(if concat.len() == 1 {
            concat[0].clone()
        } else {
            Rc::new(Expr::Concat(concat.to_vec()))
        });
    }
    let kept: Vec<ExprRef> = concat[..keep_bytes].to_vec();
    Some(if kept.len() == 1 {
        kept.into_iter().next().expect("len 1")
    } else {
        Rc::new(Expr::Concat(kept))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folds_constants() {
        let e = Expr::bin(BinOp::Add, Expr::val(2), Expr::val(40));
        assert_eq!(simplify(&e).as_const(), Some(42));
    }

    #[test]
    fn division_by_zero_not_folded() {
        let e = Expr::bin(BinOp::DivU, Expr::val(1), Expr::val(0));
        assert!(simplify(&e).as_const().is_none());
    }

    #[test]
    fn identities() {
        let b = Expr::byte(0);
        assert_eq!(simplify(&Expr::bin(BinOp::Add, b.clone(), Expr::val(0))), b);
        assert_eq!(simplify(&Expr::bin(BinOp::Mul, b.clone(), Expr::val(1))), b);
        assert_eq!(
            simplify(&Expr::bin(BinOp::Mul, b.clone(), Expr::val(0))).as_const(),
            Some(0)
        );
        assert_eq!(simplify(&Expr::bin(BinOp::Shl, b.clone(), Expr::val(0))), b);
    }

    #[test]
    fn all_const_concat_folds() {
        let e = Rc::new(Expr::Concat(vec![Expr::val(0x78), Expr::val(0x56)]));
        assert_eq!(simplify(&e).as_const(), Some(0x5678));
    }

    #[test]
    fn mask_truncates_concat() {
        // load.4 of bytes 0..4 then `and 0xFFFF` keeps bytes 0..2
        let e = Expr::bin(BinOp::And, Expr::concat_le(0, 4), Expr::val(0xFFFF));
        let s = simplify(&e);
        match &*s {
            Expr::Concat(parts) => assert_eq!(parts.len(), 2),
            other => panic!("expected concat, got {other:?}"),
        }
    }

    #[test]
    fn wide_mask_is_noop() {
        let e = Expr::bin(BinOp::And, Expr::concat_le(0, 2), Expr::val(0xFFFF_FFFF));
        let s = simplify(&e);
        assert_eq!(s, Expr::concat_le(0, 2));
    }

    #[test]
    fn shr_by_whole_bytes_drops_low_bytes() {
        let e = Expr::bin(BinOp::ShrL, Expr::concat_le(0, 4), Expr::val(16));
        let s = simplify(&e);
        match &*s {
            Expr::Concat(parts) => {
                assert_eq!(parts.len(), 2);
                assert_eq!(*parts[0], Expr::Byte(2));
            }
            other => panic!("expected concat, got {other:?}"),
        }
    }

    #[test]
    fn shr_of_an_eight_byte_concat_by_64_keeps_the_value() {
        let input: Vec<u8> = (1..=8).collect();
        let e = Expr::bin(BinOp::ShrL, Expr::concat_le(0, 8), Expr::val(64));
        assert_eq!(e.eval_file(&input), Some(0x0807_0605_0403_0201));
        assert_eq!(simplify(&e).eval_file(&input), Some(0x0807_0605_0403_0201));
    }

    #[test]
    fn simplify_is_idempotent() {
        let e = Expr::bin(
            BinOp::And,
            Expr::bin(BinOp::Add, Expr::concat_le(0, 4), Expr::val(0)),
            Expr::val(0xFFFF),
        );
        let once = simplify(&e);
        let twice = simplify(&once);
        assert_eq!(once, twice);
    }

    #[test]
    fn ptr_equal_compare_folds() {
        let b = Expr::byte(7);
        assert_eq!(
            simplify(&Expr::bin(BinOp::CmpEq, b.clone(), b.clone())).as_const(),
            Some(1)
        );
        let b2 = Expr::byte(7);
        assert_eq!(
            simplify(&Expr::bin(BinOp::CmpNe, b.clone(), b2)).as_const(),
            // structurally equal but different Rc: not folded (conservative)
            None
        );
    }
}
