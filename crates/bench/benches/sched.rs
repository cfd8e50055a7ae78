//! Scheduler benches: static chunking vs work stealing on skewed job
//! mixes.
//!
//! Batch verification cost is dominated by a few directed-symbolic-
//! execution jobs; most corpus rows resolve in microseconds. Static
//! chunking (the pre-`octo-sched` batch strategy) pins the
//! heavy job's whole chunk on one worker while the rest idle, so its
//! wall time approaches `heavy + chunk_mates`; the work-stealing deque
//! redistributes the chunk-mates and approaches `max(heavy, rest/N)`.

use criterion::{criterion_group, criterion_main, Criterion};
use octo_sched::run_jobs;
use octopocs::batch::{corpus_jobs, run_batch, BatchOptions};
use octopocs::PipelineConfig;

/// Deterministic busywork (FNV spin) returning a value the optimiser
/// cannot drop.
fn spin(seed: u64, iters: u64) -> u64 {
    let mut h = seed ^ 0xcbf2_9ce4_8422_2325;
    for i in 0..iters {
        h ^= i;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The skewed mix: job 0 costs ~64× each of the other 31 jobs.
fn costs() -> Vec<u64> {
    (0..32)
        .map(|i| if i == 0 { 2_000_000 } else { 31_250 })
        .collect()
}

/// The pre-`octo-sched` batch strategy: contiguous chunks, one thread
/// each, no rebalancing.
fn run_chunked(jobs: &[u64], workers: usize) -> u64 {
    let chunk = jobs.len().div_ceil(workers).max(1);
    let mut total = 0u64;
    std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .chunks(chunk)
            .map(|chunk_jobs| {
                scope.spawn(move || {
                    chunk_jobs
                        .iter()
                        .enumerate()
                        .map(|(i, &cost)| spin(i as u64, cost))
                        .fold(0u64, u64::wrapping_add)
                })
            })
            .collect();
        for h in handles {
            total = total.wrapping_add(h.join().expect("worker"));
        }
    });
    total
}

fn bench_skewed_mix(c: &mut Criterion) {
    let jobs = costs();
    let mut group = c.benchmark_group("sched_skewed_32jobs_4workers");
    group.sample_size(10);
    group.bench_function("chunked", |b| b.iter(|| run_chunked(&jobs, 4)));
    group.bench_function("stealing", |b| {
        b.iter(|| {
            let (out, _stats) = run_jobs(jobs.clone(), 4, |_, cost| spin(cost, cost));
            out.iter()
                .map(|r| r.as_ref().expect("no job panics"))
                .fold(0u64, |a, &v| a.wrapping_add(v))
        })
    });
    group.finish();
}

fn bench_corpus_batch(c: &mut Criterion) {
    let jobs = corpus_jobs();
    let config = PipelineConfig::default();
    let mut group = c.benchmark_group("batch_corpus15");
    group.sample_size(10);
    for workers in [1usize, 4] {
        group.bench_function(&format!("workers{workers}"), |b| {
            b.iter(|| {
                let report = run_batch(
                    &jobs,
                    &config,
                    &BatchOptions {
                        workers,
                        ..BatchOptions::default()
                    },
                    &octo_sched::NullSink,
                );
                assert_eq!(report.cache.misses, 10);
                report.entries.len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_skewed_mix, bench_corpus_batch);
criterion_main!(benches);
