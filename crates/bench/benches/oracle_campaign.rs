//! Oracle-campaign throughput: what the golden cache is worth on an
//! adversarial-shaped slice — one base config fanning out many fault
//! plans, every faulty job oracle-checked.
//!
//! Three cells over the identical job list (Rebound/Ocean, 8 cores,
//! campaign-scale quota, 8 faulty plans spanning cycle, phase,
//! checkpoint-count and storm triggers, plus a clean control):
//!
//! * `no_cache`    — every faulty job replays its own golden
//!   (`run_job(j, None)`, the uncached reference path): 2 machine-runs
//!   per oracle-checked job.
//! * `cached`      — a fresh campaign-wide [`GoldenCache`] per
//!   iteration (the stock cold-campaign configuration): the first
//!   faulty job computes the base config's golden, the rest reuse it.
//! * `golden_warm` — a cache warmed before timing (the `--store`-warm
//!   campaign / CI-shard configuration): zero golden simulations.
//!
//! The quotient no_cache/cached is the honest intra-campaign win
//! (expected ≈ (2F+C)/(F+C+1) for F faulty + C clean jobs — ≈1.7× at
//! this slice's 8:1 shape); `golden_warm` bounds the cross-campaign
//! win. Baseline: `BENCH_oracle.json` at the repo root, regenerated
//! with `CRITERION_JSON=$PWD/BENCH_oracle.json cargo bench -p
//! rebound-bench --bench oracle_campaign`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use rebound_core::Scheme;
use rebound_harness::{run_job, FaultPhase, FaultPlan, GoldenCache, GoldenCtx, Job, RunScale};

/// The adversarial-shaped slice: one base config, many fault plans.
fn jobs() -> Vec<Job> {
    let plans = vec![
        FaultPlan::clean(),
        FaultPlan::single(1, 20_000),
        FaultPlan::single(3, 60_000),
        FaultPlan::single(5, 110_000),
        FaultPlan::on_phase(1, FaultPhase::CkptDrain),
        FaultPlan::on_phase(2, FaultPhase::CkptInitiate),
        FaultPlan::after_ckpt(1, 2),
        FaultPlan::storm(1, 2, 30_000, 9_000),
        FaultPlan::storm(4, 3, 50_000, 12_000),
    ];
    plans
        .into_iter()
        .enumerate()
        .map(|(id, plan)| Job {
            id,
            scheme: Scheme::REBOUND,
            app: "Ocean".to_string(),
            cores: 8,
            seed: 7,
            plan,
            // Campaign-preset scale: big enough that every trigger kind
            // fires mid-run, small enough for seconds-per-iteration.
            scale: RunScale {
                interval: 8_000,
                quota: 24_000,
                detect_latency: 500,
                watchdog_cycles: 50_000_000,
            },
            oracle: true,
        })
        .collect()
}

/// Runs the whole slice with an optional golden context, returning the
/// pass count (consumed via `black_box` so nothing is optimized away).
fn run_slice(jobs: &[Job], ctx: Option<GoldenCtx<'_>>) -> usize {
    jobs.iter()
        .map(|j| run_job(j, ctx))
        .filter(|o| !o.verdict.is_failure())
        .count()
}

fn bench_oracle_campaign(c: &mut Criterion) {
    let jobs = jobs();
    let n = jobs.len() as u64;

    // Untimed probe: pin the slice's shape and prove the cache has real
    // work to dedupe (and that nothing fails — a failing slice would
    // take the early-exit path and time the wrong thing).
    let probe_cache = GoldenCache::for_jobs(&jobs);
    let passes = run_slice(
        &jobs,
        Some(GoldenCtx {
            cache: &probe_cache,
            store: None,
        }),
    );
    let stats = probe_cache.stats();
    assert_eq!(passes, jobs.len(), "slice must be all-green");
    assert!(
        stats.computed >= 1 && stats.reused >= 6,
        "slice must exercise golden reuse: {stats:?}"
    );
    println!(
        "# oracle/adv_slice: {} jobs, {} goldens computed, {} reused",
        jobs.len(),
        stats.computed,
        stats.reused
    );

    let mut g = c.benchmark_group("oracle");
    g.sample_size(10);
    g.throughput(Throughput::Elements(n));

    g.bench_function("adv_slice/no_cache", |b| {
        b.iter(|| black_box(run_slice(&jobs, None)));
    });

    g.bench_function("adv_slice/cached", |b| {
        b.iter(|| {
            // A fresh cache per iteration is exactly what a cold
            // campaign pays: one golden simulation plus sharing.
            let cache = GoldenCache::for_jobs(&jobs);
            black_box(run_slice(
                &jobs,
                Some(GoldenCtx {
                    cache: &cache,
                    store: None,
                }),
            ))
        });
    });

    // The warm cache from the probe run: every golden request is a
    // memory hit, as in a store-warm campaign or a later CI shard.
    g.bench_function("adv_slice/golden_warm", |b| {
        b.iter(|| {
            black_box(run_slice(
                &jobs,
                Some(GoldenCtx {
                    cache: &probe_cache,
                    store: None,
                }),
            ))
        });
    });

    g.finish();
}

criterion_group!(benches, bench_oracle_campaign);
criterion_main!(benches);
