//! Runs the complete reproduction matrix — every figure and table of the
//! paper's evaluation — and prints an `EXPERIMENTS.md`-ready transcript.
//!
//! ```text
//! reproduce [--only PREFIX]...
//! ```
//!
//! * `--only PREFIX` — print only the sections whose name starts with
//!   `PREFIX` (`fig6_1` … `fig6_8`, `table6_1`; `fig6_3` selects 6.3(a)
//!   and 6.3(b)). Repeatable. A prefix matching no section, or any other
//!   argument, exits 2 with the list of section names.
//!
//! Control the scale with `REBOUND_SCALE=tiny|std|full` (default `std`:
//! a ~1/27-scale checkpoint interval; relative results are scale-stable)
//! and the worker count with `REBOUND_JOBS` (default: all cores). The
//! union of the selected sections' cells fans out over the campaign
//! harness's thread pool, each distinct cell simulated once. A full run
//! ends with a differential-recovery-oracle campaign that validates
//! rollback correctness across the configuration matrix; `--only` skips
//! it. Stdout depends only on the scale and the selection: timing and the
//! worker count go to stderr.

use rebound_bench::experiments::{select, SECTIONS};
use rebound_bench::{Cell, ExpScale, Runs};
use rebound_harness::{default_jobs, run_jobs, CampaignSpec};
use std::time::Instant;

fn usage(error: &str) -> ! {
    let names: Vec<&str> = SECTIONS.iter().map(|s| s.name).collect();
    eprintln!(
        "reproduce: {error}\nusage: reproduce [--only PREFIX]...\nsections: {}",
        names.join(" ")
    );
    std::process::exit(2);
}

fn main() {
    let mut prefixes = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match (arg.as_str(), args.next()) {
            ("--only", Some(prefix)) => prefixes.push(prefix),
            ("--only", None) => usage("--only needs a section name prefix"),
            _ => usage(&format!("unknown argument: {arg}")),
        }
    }
    let sections = select(&prefixes).unwrap_or_else(|e| usage(&e));
    let scale = ExpScale::from_env();
    let workers = default_jobs();
    let t0 = Instant::now();
    let secs = || t0.elapsed().as_secs_f64();
    println!("# Rebound reproduction — full experiment matrix");
    println!(
        "scale: interval={} insts (paper: 4M), quota={} insts/core, L={} cycles\n",
        scale.interval, scale.quota, scale.detect_latency
    );

    let cells: Vec<Cell> = sections.iter().flat_map(|s| (s.cells)()).collect();
    let runs = Runs::new(&cells, scale, workers);
    eprintln!(
        "[t+{:.0}s] {} sections: {} cells, {} simulated on {workers} workers",
        secs(),
        sections.len(),
        cells.len(),
        runs.simulated()
    );
    for s in &sections {
        print!("{}", s.render(&runs));
    }
    if !prefixes.is_empty() {
        return;
    }

    // §3 correctness as an executable check: the differential recovery
    // oracle replays every faulty configuration fault-free and asserts
    // the post-recovery machine matches its golden twin.
    println!("## Recovery validation — differential oracle campaign\n");
    let result = run_jobs(CampaignSpec::acceptance().expand(), workers, None);
    println!("```");
    print!("{}", result.to_csv());
    println!("```");
    eprintln!("[t+{:.0}s] {}", secs(), result.summary());
    for f in result.failures() {
        println!("ORACLE FAILURE {}: {:?}", f.job.label(), f.run.verdict);
    }
    assert!(
        result.failures().is_empty(),
        "recovery oracle failed on {} configurations",
        result.failures().len()
    );
    eprintln!("total wall time: {:.0}s", secs());
}
