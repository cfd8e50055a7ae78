//! The §VII "practical usage" workflow: a developer's clone detector has
//! flagged fifteen propagated vulnerable code clones — which patches are
//! urgent?
//!
//! Runs the whole Table II corpus through the batch runner (in parallel)
//! and prints the prioritised patch list: demonstrated memory-corruption
//! triggers first, then DoS triggers, then the verification failure
//! (unknown risk), then the verified-safe clones.
//!
//! ```text
//! cargo run --release --example patch_prioritization
//! ```

use octo_corpus::all_pairs;
use octo_sched::NullSink;
use octopocs::{run_batch, BatchJob, BatchOptions, PipelineConfig, Urgency};

fn main() {
    let jobs: Vec<BatchJob> = all_pairs()
        .into_iter()
        .map(|p| BatchJob {
            name: format!("{} in {} {}", p.vuln_id, p.t_name, p.t_version),
            s: p.s,
            t: p.t,
            poc: p.poc,
            shared: p.shared,
        })
        .collect();
    let options = BatchOptions {
        workers: 4,
        ..BatchOptions::default()
    };

    let report = run_batch(&jobs, &PipelineConfig::default(), &options, &NullSink);
    let entries = report.by_urgency();
    println!(
        "verified {} propagated clones in {:.2}s\n",
        entries.len(),
        report.wall_seconds
    );
    println!("patch priority list:");
    for (i, e) in entries.iter().enumerate() {
        println!(
            "{:>2}. {:<40} {:<10} — {}",
            i + 1,
            e.name,
            e.report.verdict.type_label(),
            e.urgency().recommendation()
        );
    }

    let urgent = entries
        .iter()
        .filter(|e| e.report.verdict.poc_generated())
        .count();
    let safe = entries
        .iter()
        .filter(|e| e.urgency() == Urgency::VerifiedSafe)
        .count();
    println!("\nsummary: {urgent} need patches now, {safe} verified safe for routine patching");
}
