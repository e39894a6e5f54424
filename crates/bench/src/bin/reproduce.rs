//! Runs the complete reproduction matrix — every figure and table of the
//! paper's evaluation — and prints an `EXPERIMENTS.md`-ready transcript.
//!
//! Control the scale with `REBOUND_SCALE=tiny|std|full` (default `std`:
//! a ~1/27-scale checkpoint interval; relative results are scale-stable)
//! and the worker count with `REBOUND_JOBS` (default: all cores). The
//! figure matrices fan out over the campaign harness's thread pool, and
//! the transcript ends with a differential-recovery-oracle campaign that
//! validates rollback correctness across the configuration matrix.

use rebound_bench::{experiments as e, ExpScale};
use rebound_harness::{default_jobs, run_jobs, CampaignSpec};
use std::time::Instant;

fn main() {
    let scale = ExpScale::from_env();
    println!("# Rebound reproduction — full experiment matrix");
    println!(
        "scale: interval={} insts (paper: 4M), quota={} insts/core, L={} cycles, {} workers\n",
        scale.interval,
        scale.quota,
        scale.detect_latency,
        default_jobs()
    );
    let t0 = Instant::now();
    let section = |name: &str, table: rebound_bench::Table| {
        println!("## {name}  [t+{:.0}s]\n", t0.elapsed().as_secs_f64());
        println!("{}", table.render());
    };
    section(
        "Fig 6.1 — ICHK size, PARSEC/Apache, 24p",
        e::fig6_1::run(scale),
    );
    section(
        "Fig 6.2 — ICHK size, SPLASH-2, 32p & 64p",
        e::fig6_2::run(scale),
    );
    section(
        "Fig 6.3(a) — overhead, SPLASH-2 64p",
        e::fig6_3::run_splash(scale),
    );
    section(
        "Fig 6.3(b) — overhead, PARSEC/Apache 24p",
        e::fig6_3::run_parsec(scale),
    );
    section("Fig 6.4 — barrier optimization", e::fig6_4::run(scale));
    section(
        "Fig 6.5 — overhead breakdown (Global=100)",
        e::fig6_5::run(scale),
    );
    section(
        "Fig 6.6(a,b) — scalability: overhead & energy",
        e::fig6_6::run_overhead_energy(scale),
    );
    section(
        "Fig 6.6(c) — recovery latency",
        e::fig6_6::run_recovery(scale),
    );
    section("Fig 6.7 — output I/O impact", e::fig6_7::run(scale));
    section("Fig 6.8 — power", e::fig6_8::run(scale));
    section("Table 6.1 — characterization", e::table6_1::run(scale));

    // §3 correctness as an executable check: the differential recovery
    // oracle replays every faulty configuration fault-free and asserts
    // the post-recovery machine matches its golden twin.
    println!(
        "## Recovery validation — differential oracle campaign  [t+{:.0}s]\n",
        t0.elapsed().as_secs_f64()
    );
    let result = run_jobs(CampaignSpec::acceptance().expand(), default_jobs(), None);
    println!("```");
    print!("{}", result.to_csv());
    println!("```");
    println!("{}\n", result.summary());
    for f in result.failures() {
        println!("ORACLE FAILURE {}: {:?}", f.job.label(), f.run.verdict);
    }
    assert!(
        result.failures().is_empty(),
        "recovery oracle failed on {} configurations",
        result.failures().len()
    );

    println!("total wall time: {:.0}s", t0.elapsed().as_secs_f64());
}
