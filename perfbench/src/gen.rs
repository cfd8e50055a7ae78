//! Seeded, verdict-preserving job generation from the 15 corpus pairs.
//!
//! Every job is one corpus pair whose ℓ functions were renamed (register
//! permutation) and re-laid-out (block reordering) under a per-job seed:
//! the positive transforms of `octo_corpus::variants`, applied to the
//! shared functions only, the way that module's private
//! `transform_shared` applies them. Both keep the computation, so a
//! variant reproduces its base pair's Table II row and does the same
//! symex steps, solves and instructions. The decoy transform
//! (`semantic_edit`) is never used: it changes verdicts.
//!
//! The program under test only ever receives the generated MicroIR text.

use std::collections::HashSet;

use octo_corpus::variants::{permute_registers, reorder_blocks};
use octo_corpus::{all_pairs, SoftwarePair};
use octo_ir::parse::parse_program;
use octo_ir::printer::print_program;
use octo_ir::{Function, Program};

/// A base pair's Table II row: what every variant of it must reproduce.
#[derive(Debug, Clone, Copy)]
pub struct Expect {
    pub label: &'static str,
    pub poc_generated: bool,
    pub verified: bool,
}

/// One generated job, as a user hands it to the verifier: program texts,
/// PoC bytes and the shared-function names.
#[derive(Debug, Clone)]
pub struct JobText {
    /// Table II row the job was derived from.
    pub base: u32,
    pub name: String,
    pub s_text: String,
    pub t_text: String,
    pub poc: Vec<u8>,
    pub shared: Vec<String>,
    pub expect: Expect,
}

/// SplitMix64 finaliser: a well-mixed 64-bit value per input.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `p` with its ℓ functions renamed and re-laid-out under `seed`.
fn variant(p: &Program, shared: &[String], seed: u64) -> Program {
    let funcs: Vec<Function> = p
        .iter()
        .map(|(_, f)| {
            if shared.contains(&f.name) {
                reorder_blocks(&permute_registers(f, seed), splitmix(seed))
            } else {
                f.clone()
            }
        })
        .collect();
    let entry = p.func(p.entry()).name.clone();
    Program::from_functions(funcs, &entry).expect("variant transforms keep function names")
}

/// Seeds tried for a new S-variant before giving up (some ℓ functions
/// have few distinct renamings and layouts).
const S_VARIANT_TRIES: u64 = 4096;

/// `n` jobs cycling through `mix` (Table II rows). Job `i` gets its own
/// T-variant, seeded from `(seed, i)`. With `vary_s` it also gets an
/// S-variant no earlier job has, so every job has a distinct
/// prefix-cache key.
pub fn generate(mix: &[u32], vary_s: bool, seed: u64, n: usize) -> Result<Vec<JobText>, String> {
    let pairs = all_pairs();
    let mut seen_s = HashSet::new();
    let pair = |idx: u32| -> &SoftwarePair {
        pairs
            .iter()
            .find(|p| p.idx == idx)
            .expect("a mix names only corpus rows")
    };
    (0..n)
        .map(|i| {
            let pair = pair(mix[i % mix.len()]);
            let job_seed = splitmix(seed ^ splitmix(i as u64));
            let s_text = if vary_s {
                // Distinct as the verifier sees them: the parser numbers
                // registers itself, so only a new layout makes a new S.
                (0..S_VARIANT_TRIES)
                    .map(|k| {
                        print_program(&variant(&pair.s, &pair.shared, splitmix(!job_seed ^ k)))
                    })
                    .find(|text| {
                        let parsed = parse_program(text).expect("printed programs parse");
                        seen_s.insert(print_program(&parsed))
                    })
                    .ok_or_else(|| {
                        format!("idx{:02} has fewer than {n} distinct S-variants", pair.idx)
                    })?
            } else {
                print_program(&pair.s)
            };
            Ok(JobText {
                base: pair.idx,
                name: format!("idx{:02}-v{i}", pair.idx),
                s_text,
                t_text: print_program(&variant(&pair.t, &pair.shared, job_seed)),
                poc: pair.poc.bytes().to_vec(),
                shared: pair.shared.clone(),
                expect: Expect {
                    label: pair.expected.label(),
                    poc_generated: pair.expected.poc_generated(),
                    verified: pair.expected.verified(),
                },
            })
        })
        .collect()
}

/// Expands `(row, weight)` into one cycle of the mix, spreading each
/// row's jobs evenly (smooth weighted round robin), so every stretch of
/// the cycle carries the whole mix.
pub fn cycle(weights: &[(u32, u32)]) -> Vec<u32> {
    let total: i64 = weights.iter().map(|&(_, w)| i64::from(w)).sum();
    let mut credit = vec![0i64; weights.len()];
    (0..total)
        .map(|_| {
            for (c, &(_, w)) in credit.iter_mut().zip(weights) {
                *c += i64::from(w);
            }
            let best = (0..weights.len())
                .max_by_key(|&k| (credit[k], std::cmp::Reverse(k)))
                .expect("a mix is never empty");
            credit[best] -= total;
            weights[best].0
        })
        .collect()
}
