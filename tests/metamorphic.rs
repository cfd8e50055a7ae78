//! Metamorphic check: renaming registers and re-laying-out blocks of the
//! shared functions ℓ keeps every verdict and the work that reaches it.
//!
//! For each Table II pair and three seeds, `permute_registers` and
//! `reorder_blocks` (`octo_corpus::variants`) are applied to the ℓ
//! functions of both S and T, as the benchmark's job generator does. Both
//! transforms keep the computation, so the verdict, the symex step and
//! solver-call counts and the P1/P4 instruction counts must equal those of
//! the untransformed pair.

use octo_corpus::all_pairs;
use octo_corpus::variants::{permute_registers, reorder_blocks, transform_shared};
use octo_ir::Program;
use octopocs::{verify, PipelineConfig, SoftwarePairInput, VerificationReport};

const SEEDS: [u64; 3] = [1, 2, 3];

/// SplitMix64 finaliser: a well-mixed 64-bit value per input.
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `p` with its ℓ functions renamed and re-laid-out under `seed`.
fn variant(p: &Program, shared: &[String], seed: u64) -> Program {
    transform_shared(p, shared, &|f| {
        reorder_blocks(&permute_registers(f, seed), splitmix(seed))
    })
}

/// The verdict and the work counts a variant must reproduce.
fn outcome(report: &VerificationReport) -> String {
    let (steps, solves) = report
        .symex_stats
        .as_ref()
        .map_or((0, 0), |s| (s.total_steps, s.solver_calls));
    format!(
        "{} poc_generated={} verified={} steps={steps} solver_calls={solves} p1_insts={} \
         p4_insts={}",
        report.verdict.type_label(),
        report.verdict.poc_generated(),
        report.verdict.verified(),
        report.p1_insts,
        report.p4_insts,
    )
}

#[test]
fn renamed_and_reordered_shared_code_keeps_verdicts_and_work() {
    let config = PipelineConfig::default();
    let mut mismatches = Vec::new();
    for pair in all_pairs() {
        let base = outcome(&verify(
            &SoftwarePairInput {
                s: &pair.s,
                t: &pair.t,
                poc: &pair.poc,
                shared: &pair.shared,
            },
            &config,
        ));
        for seed in SEEDS {
            let s = variant(&pair.s, &pair.shared, splitmix(!seed));
            let t = variant(&pair.t, &pair.shared, seed);
            let got = outcome(&verify(
                &SoftwarePairInput {
                    s: &s,
                    t: &t,
                    poc: &pair.poc,
                    shared: &pair.shared,
                },
                &config,
            ));
            if got != base {
                mismatches.push(format!(
                    "idx{:02} seed {seed}:\n  base:    {base}\n  variant: {got}",
                    pair.idx
                ));
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
