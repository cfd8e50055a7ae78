//! Property tests for the taint engine: over random record-parser
//! programs, the extracted crash primitives obey the P1 contract; over
//! random offset lists, a label table's union behaves as a
//! `BTreeSet<u32>`'s.

use std::collections::BTreeSet;

use octo_ir::parse::parse_program;
use octo_poc::PocFile;
use octo_taint::{extract_crash_primitives, Label, LabelTable, TaintConfig};
use proptest::prelude::*;

/// A parser with `n_records` size-prefixed records, each handed to the
/// shared `consume` function, which crashes while processing the last
/// record. Record payload bytes are consumed *inside* ℓ; the size bytes
/// are consumed by main (guiding).
fn record_parser(n_records: usize) -> octo_ir::Program {
    let src = format!(
        r#"
func main() {{
entry:
    fd = open
    i = 0
    jmp loop
loop:
    done = uge i, {n_records}
    br done, boom_check, rec
rec:
    size = getc fd
    call consume(fd, size)
    i = add i, 1
    jmp loop
boom_check:
    call consume(fd, 255)
    halt 0
}}
func consume(fd, size) {{
entry:
    buf = alloc 8
    i = 0
    jmp copy
copy:
    done = uge i, size
    br done, fin, body
body:
    v = getc fd
    p = add buf, i
    store.1 p, v
    i = add i, 1
    jmp copy
fin:
    ret 0
}}
"#
    );
    parse_program(&src).expect("generated parser parses")
}

/// Builds a PoC with the given record payloads; a final oversized call
/// crashes in ℓ.
fn build_poc(payloads: &[Vec<u8>]) -> PocFile {
    let mut bytes = Vec::new();
    for p in payloads {
        bytes.push(p.len() as u8);
        bytes.extend_from_slice(p);
    }
    // trailing bytes feed the final oversized consume
    bytes.extend_from_slice(&[0xEE; 4]);
    PocFile::new(bytes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// P1 contract over random record layouts:
    /// * extraction succeeds (S crashes in ℓ),
    /// * one bunch per ep entry, in order,
    /// * every recorded byte value matches the PoC,
    /// * payload bytes land in their record's bunch; size bytes (consumed
    ///   by main) never appear in any bunch.
    #[test]
    fn bunches_follow_record_structure(
        payloads in prop::collection::vec(
            prop::collection::vec(any::<u8>(), 0..6), 0..4),
    ) {
        let program = record_parser(payloads.len());
        let poc = build_poc(&payloads);
        let ep = program.func_by_name("consume").expect("ep");
        let config = TaintConfig::new(ep, vec![ep]);
        let extraction = extract_crash_primitives(&program, &poc, &config)
            .expect("S must crash in ℓ");
        let q = &extraction.primitives;

        // One bunch per record plus the crashing entry.
        prop_assert_eq!(q.entry_count(), payloads.len() + 1);
        prop_assert!(q.consistent_with(&poc));

        // Size bytes are consumed in main and must not be primitives.
        let mut offset = 0u32;
        for (i, payload) in payloads.iter().enumerate() {
            let size_off = offset;
            let bunch = q.bunch(i).expect("bunch per record");
            let offs: Vec<u32> = bunch.iter().map(|(o, _)| o).collect();
            prop_assert!(
                !offs.contains(&size_off),
                "record {i}: size byte {size_off} leaked into the bunch"
            );
            // Every payload byte is in this record's bunch.
            for j in 0..payload.len() as u32 {
                prop_assert!(
                    offs.contains(&(size_off + 1 + j)),
                    "record {i}: payload byte {} missing from bunch {offs:?}",
                    size_off + 1 + j
                );
            }
            offset += 1 + payload.len() as u32;
        }

        // ep arguments were recorded for every entry.
        for i in 0..q.entry_count() {
            let args = q.args(i).expect("args recorded");
            prop_assert_eq!(args.len(), 2); // (fd, size)
            prop_assert_eq!(args[0], 3); // the input fd
        }
    }

    /// The context-free ablation produces exactly one bunch whose offsets
    /// are the union of the context-aware bunches'.
    #[test]
    fn context_free_is_the_flattened_union(
        payloads in prop::collection::vec(
            prop::collection::vec(any::<u8>(), 1..6), 1..4),
    ) {
        let program = record_parser(payloads.len());
        let poc = build_poc(&payloads);
        let ep = program.func_by_name("consume").expect("ep");
        let aware = extract_crash_primitives(
            &program, &poc, &TaintConfig::new(ep, vec![ep]))
            .expect("aware extraction");
        let plain = extract_crash_primitives(
            &program, &poc, &TaintConfig::new(ep, vec![ep]).context_free())
            .expect("plain extraction");
        prop_assert_eq!(plain.primitives.entry_count(), 1);
        prop_assert_eq!(
            plain.primitives.all_offsets(),
            aware.primitives.all_offsets()
        );
        prop_assert_eq!(
            plain.primitives.all_offsets(),
            aware.primitives.flatten().all_offsets()
        );
    }
}

/// The same offsets as a label built three ways in one table: collected,
/// folded from single-offset unions in list order, and as the union of
/// two halves.
fn built_three_ways(t: &mut LabelTable, offs: &[u32]) -> [Label; 3] {
    let collected = t.from_offsets(offs.iter().copied());
    let folded = offs.iter().fold(Label::EMPTY, |acc, &o| {
        let single = t.single(o);
        t.union(acc, single)
    });
    let (left, right) = offs.split_at(offs.len() / 2);
    let (left, right) = (
        t.from_offsets(left.iter().copied()),
        t.from_offsets(right.iter().copied()),
    );
    let halves = t.union(left, right);
    [collected, folded, halves]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A label table's union and `offsets` agree with a `BTreeSet<u32>`
    /// model however the operands were built (the small offset range
    /// forces overlaps and repeats). Unions are commutative through the
    /// memo, idempotent, and return an operand's own label when the
    /// other adds nothing to it; sets of at most one offset have one
    /// label however they were built.
    #[test]
    fn label_union_agrees_with_a_btreeset_model(
        a in prop::collection::vec(0u32..24, 0..8),
        b in prop::collection::vec(0u32..24, 0..8),
    ) {
        let model_a: BTreeSet<u32> = a.iter().copied().collect();
        let model_b: BTreeSet<u32> = b.iter().copied().collect();
        let model_u: Vec<u32> = model_a.union(&model_b).copied().collect();
        let mut t = LabelTable::new();
        let offsets = |t: &LabelTable, l: Label| t.offsets(l).collect::<Vec<_>>();
        let labels_a = built_three_ways(&mut t, &a);
        let labels_b = built_three_ways(&mut t, &b);
        for la in labels_a {
            prop_assert_eq!(offsets(&t, la), model_a.iter().copied().collect::<Vec<_>>());
            prop_assert_eq!(la.is_empty(), model_a.is_empty());
            prop_assert_eq!(t.union(la, la), la);
            for lb in labels_b {
                let u = t.union(la, lb);
                prop_assert_eq!(offsets(&t, u), model_u.clone());
                prop_assert_eq!(t.union(lb, la), u);
                if model_b.is_subset(&model_a) && model_b != model_a {
                    prop_assert_eq!(u, la);
                } else if model_a.is_subset(&model_b) && model_a != model_b {
                    prop_assert_eq!(u, lb);
                } else if model_a == model_b {
                    prop_assert!(u == la || u == lb);
                }
            }
        }
        if model_a.len() <= 1 {
            prop_assert!(labels_a.iter().all(|&l| l == labels_a[0]));
        }
    }
}
