//! Synthesized clone variants of corpus programs.
//!
//! The clone-retrieval stage (`octo-clone`) claims to be robust against
//! the edits downstream vendors actually make when they copy a function:
//! register renaming, block reordering, and embedding the body behind a
//! wrapper prologue. It also claims to *reject* functions that merely
//! look similar but compute something else. This module synthesizes
//! exactly those variants from the real corpus so the claims can be
//! measured as precision/recall rather than asserted.
//!
//! Positive variants (must still be retrieved):
//! * [`permute_registers`] — bijective renaming of non-parameter registers,
//! * [`reorder_blocks`] — non-entry blocks permuted with all block ids
//!   remapped,
//! * [`embed_prologue`] — body shifted behind a fresh entry block that
//!   does unrelated local work before jumping in (an "inlined copy").
//!
//! Negative variant (must be rejected):
//! * [`semantic_edit`] — operands of every binary op swapped and every
//!   constant, immediate, offset and switch case perturbed; the shape is
//!   familiar but the computation is different everywhere, so no shingle
//!   window survives.

use octo_ir::types::{BlockId, Operand, Reg};
use octo_ir::{rewrite_function, BasicBlock, Function, Inst, Program, Terminator};

use crate::pairs::all_pairs;

/// Minimal deterministic PRNG (xorshift64*) so variant synthesis never
/// depends on an external `rand` and is identical across runs.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> XorShift {
        XorShift(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Fisher–Yates shuffle of `v`.
    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// Renames every non-parameter register through a seeded bijection.
/// Parameters keep their ids (the ABI is position-based), everything
/// else is shuffled. Semantics are unchanged.
pub fn permute_registers(f: &Function, seed: u64) -> Function {
    let n = f.n_regs.max(f.n_params);
    let mut map: Vec<u16> = (0..n).collect();
    XorShift::new(seed ^ 0x9e37_79b9_7f4a_7c15).shuffle(&mut map[f.n_params as usize..]);
    rewrite_function(
        f,
        &|r: Reg| Reg(map.get(r.0 as usize).copied().unwrap_or(r.0)),
        &|b: BlockId| b,
    )
}

/// Permutes every block except the entry, remapping all block
/// references (branch targets, switch arms, block-address constants).
/// Control flow is unchanged; only the textual layout moves.
pub fn reorder_blocks(f: &Function, seed: u64) -> Function {
    if f.blocks.len() <= 2 {
        return f.clone();
    }
    // order[new_position] = old_index; entry stays at position 0.
    let mut order: Vec<usize> = (1..f.blocks.len()).collect();
    XorShift::new(seed ^ 0xb4c0_ffee_5ca1_ab1e).shuffle(&mut order);
    order.insert(0, 0);
    let mut old_to_new = vec![0u32; f.blocks.len()];
    for (new, &old) in order.iter().enumerate() {
        old_to_new[old] = new as u32;
    }
    let g = rewrite_function(f, &|r: Reg| r, &|b: BlockId| {
        BlockId(old_to_new.get(b.0 as usize).copied().unwrap_or(b.0))
    });
    let mut out = g.clone();
    out.blocks = order.iter().map(|&old| g.blocks[old].clone()).collect();
    out
}

/// Embeds the function body behind a fresh prologue block: every old
/// block shifts down by one and a new entry does unrelated local work
/// (scratch allocation and a store) before jumping to the old entry.
/// This models a clone *inlined into* a larger host function — the
/// classic case where exact-hash matching fails but shingle containment
/// must stay 1.0.
pub fn embed_prologue(f: &Function) -> Function {
    let mut g = rewrite_function(f, &|r: Reg| r, &|b: BlockId| BlockId(b.0 + 1));
    let scratch = Reg(g.n_regs);
    let tmp = Reg(g.n_regs + 1);
    g.n_regs += 2;
    g.blocks.insert(
        0,
        BasicBlock {
            label: "host_prologue".to_string(),
            insts: vec![
                Inst::Alloc {
                    dst: scratch,
                    size: Operand::Imm(8),
                    region: octo_ir::RegionKind::Heap,
                },
                Inst::Const {
                    dst: tmp,
                    value: 0xA5,
                },
                Inst::Store {
                    addr: Operand::Reg(scratch),
                    offset: 0,
                    src: Operand::Reg(tmp),
                    width: octo_ir::Width::W1,
                },
            ],
            term: Terminator::Jmp(BlockId(1)),
        },
    );
    g
}

/// Perturbs one immediate so the computation changes but the token
/// *shape* does not.
fn tweak_imm(v: u64) -> u64 {
    v ^ 0x3F
}

fn tweak_op(op: &Operand) -> Operand {
    match op {
        Operand::Reg(r) => Operand::Reg(*r),
        Operand::Imm(v) => Operand::Imm(tweak_imm(*v)),
    }
}

/// Produces a *near-miss decoy*: same instruction mix and control-flow
/// shape, different computation everywhere. Every binary operation has
/// its operands swapped, every constant/immediate is XOR-perturbed,
/// every memory offset moves by 3, and every switch case value changes.
/// A sound retriever must score this below threshold.
pub fn semantic_edit(f: &Function) -> Function {
    let mut g = f.clone();
    for b in &mut g.blocks {
        for inst in &mut b.insts {
            *inst = match inst.clone() {
                Inst::Const { dst, value } => Inst::Const {
                    dst,
                    value: tweak_imm(value),
                },
                Inst::Move { dst, src } => Inst::Move {
                    dst,
                    src: tweak_op(&src),
                },
                Inst::Bin { dst, op, lhs, rhs } => Inst::Bin {
                    dst,
                    op,
                    lhs: tweak_op(&rhs),
                    rhs: tweak_op(&lhs),
                },
                Inst::Un { dst, op, src } => Inst::Un {
                    dst,
                    op,
                    src: tweak_op(&src),
                },
                Inst::CheckedBin {
                    dst,
                    op,
                    width,
                    lhs,
                    rhs,
                } => Inst::CheckedBin {
                    dst,
                    op,
                    width,
                    lhs: tweak_op(&rhs),
                    rhs: tweak_op(&lhs),
                },
                Inst::Load {
                    dst,
                    addr,
                    offset,
                    width,
                } => Inst::Load {
                    dst,
                    addr,
                    offset: offset + 3,
                    width,
                },
                Inst::Store {
                    addr,
                    offset,
                    src,
                    width,
                } => Inst::Store {
                    addr,
                    offset: offset + 3,
                    src: tweak_op(&src),
                    width,
                },
                Inst::Alloc { dst, size, region } => Inst::Alloc {
                    dst,
                    size: tweak_op(&size),
                    region,
                },
                other => other,
            };
        }
        b.term = match b.term.clone() {
            Terminator::Switch {
                scrut,
                cases,
                default,
            } => Terminator::Switch {
                scrut,
                cases: cases.into_iter().map(|(v, b)| (tweak_imm(v), b)).collect(),
                default,
            },
            other => other,
        };
    }
    g
}

/// Which transform produced a variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VariantKind {
    /// [`permute_registers`] — positive (must be retrieved).
    Renamed,
    /// [`reorder_blocks`] — positive.
    Reordered,
    /// [`embed_prologue`] — positive.
    Inlined,
    /// [`semantic_edit`] — negative (must be rejected).
    Decoy,
}

impl VariantKind {
    /// Stable lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            VariantKind::Renamed => "renamed",
            VariantKind::Reordered => "reordered",
            VariantKind::Inlined => "inlined",
            VariantKind::Decoy => "decoy",
        }
    }

    /// Whether retrieval is expected to find the shared function in this
    /// variant.
    pub fn is_positive(self) -> bool {
        !matches!(self, VariantKind::Decoy)
    }
}

/// One synthesized variant case: a corpus pair's source S queried
/// against a transformed copy of its target T.
pub struct VariantCase {
    /// Index of the corpus pair the variant was derived from.
    pub base_idx: u32,
    /// The transform applied.
    pub kind: VariantKind,
    /// Stable display name, e.g. `idx03-renamed`.
    pub name: String,
    /// The untouched source program S.
    pub s: Program,
    /// The transformed target program.
    pub t: Program,
    /// Shared function names in the *original* pair — for positive
    /// variants these must all be retrieved, for the decoy none may be.
    pub shared: Vec<String>,
}

/// Applies `transform` to every function of `program` named in `shared`,
/// leaving the driver and helpers untouched, and rebuilds the program.
pub fn transform_shared(
    program: &Program,
    shared: &[String],
    transform: &dyn Fn(&Function) -> Function,
) -> Program {
    let funcs: Vec<Function> = program
        .iter()
        .map(|(_, f)| {
            if shared.contains(&f.name) {
                transform(f)
            } else {
                f.clone()
            }
        })
        .collect();
    let entry = program.func(program.entry()).name.clone();
    Program::from_functions(funcs, &entry).expect("variant synthesis produced an invalid program")
}

/// A body transform applied to each shared function when synthesizing a
/// variant.
type Transform = Box<dyn Fn(&Function) -> Function>;

/// Synthesizes the full variant corpus: for every corpus pair, one
/// variant per [`VariantKind`] (three positives, one decoy), all
/// deterministic.
pub fn variant_corpus() -> Vec<VariantCase> {
    let mut out = Vec::new();
    for pair in all_pairs() {
        let seed = u64::from(pair.idx);
        let kinds: [(VariantKind, Transform); 4] = [
            (
                VariantKind::Renamed,
                Box::new(move |f: &Function| permute_registers(f, seed)),
            ),
            (
                VariantKind::Reordered,
                Box::new(move |f: &Function| reorder_blocks(f, seed)),
            ),
            (VariantKind::Inlined, Box::new(embed_prologue)),
            (VariantKind::Decoy, Box::new(semantic_edit)),
        ];
        for (kind, transform) in &kinds {
            out.push(VariantCase {
                base_idx: pair.idx,
                kind: *kind,
                name: format!("idx{:02}-{}", pair.idx, kind.label()),
                s: pair.s.clone(),
                t: transform_shared(&pair.t, &pair.shared, transform.as_ref()),
                shared: pair.shared.clone(),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use octo_ir::validate::validate;

    fn sample() -> Function {
        let pair = crate::pair_by_idx(1).unwrap();
        let name = &pair.shared[0];
        let id = pair.t.func_by_name(name).unwrap();
        pair.t.func(id).clone()
    }

    #[test]
    fn register_permutation_changes_names_not_structure() {
        let f = sample();
        let g = permute_registers(&f, 7);
        assert_eq!(f.blocks.len(), g.blocks.len());
        assert_eq!(f.n_regs, g.n_regs);
        assert_ne!(f, g, "permutation should move at least one register");
        // Round-tripping through the inverse map is not needed: a second
        // application with the same seed must be deterministic.
        assert_eq!(g, permute_registers(&f, 7));
    }

    #[test]
    fn block_reorder_preserves_entry_and_count() {
        let f = sample();
        let g = reorder_blocks(&f, 3);
        assert_eq!(f.blocks.len(), g.blocks.len());
        assert_eq!(f.blocks[0].label, g.blocks[0].label);
        assert_eq!(g, reorder_blocks(&f, 3));
    }

    #[test]
    fn embed_prologue_shifts_blocks() {
        let f = sample();
        let g = embed_prologue(&f);
        assert_eq!(g.blocks.len(), f.blocks.len() + 1);
        assert_eq!(g.blocks[0].label, "host_prologue");
        assert_eq!(g.blocks[1].label, f.blocks[0].label);
        assert_eq!(g.n_regs, f.n_regs + 2);
    }

    #[test]
    fn semantic_edit_changes_every_constant() {
        let f = sample();
        let g = semantic_edit(&f);
        assert_eq!(f.blocks.len(), g.blocks.len());
        assert_ne!(f, g);
    }

    #[test]
    fn variant_corpus_is_valid_and_complete() {
        let cases = variant_corpus();
        let n_pairs = all_pairs().len();
        assert_eq!(cases.len(), n_pairs * 4);
        for case in &cases {
            validate(&case.t).unwrap_or_else(|e| panic!("{} fails validation: {e:?}", case.name));
        }
    }
}
