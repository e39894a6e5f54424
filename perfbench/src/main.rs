//! `perfbench` — the repository's benchmark: end-to-end and per-layer
//! metrics of the Rebound simulator and its campaign harness.
//!
//! ```text
//! perfbench --workload sim-wide|sim-ckpt|campaign [--seed N] [--seconds S]
//!           [--trace 0|1] [--size full|tiny] [--bless]
//! ```
//!
//! An untraced run (`--trace 0`) repeats the workload for about
//! `--seconds` seconds and prints the end-to-end metrics; a traced run
//! (`--trace 1`) prints the per-layer metrics. Either way the last line
//! of standard output is one JSON object, every output check runs, and
//! the exit status is nonzero if any check failed. `--bless` records the
//! run's exact work counts in `work_counts.tsv`. See README.md.

mod campaign;
mod guard;
mod machine;
mod report;
mod sim;
mod stats;

use std::process::ExitCode;

use report::{Outcome, END_TO_END, PER_LAYER};

const USAGE: &str = "usage: perfbench --workload sim-wide|sim-ckpt|campaign [--seed N] \
                     [--seconds S] [--trace 0|1] [--size full|tiny] [--bless]";

/// Workload size: `Full` is the benchmark, `Tiny` the self-test's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    bless: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        bless: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "bad --seconds")?;
                if args.seconds.is_nan() || args.seconds < 0.0 {
                    return Err("bad --seconds".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--size" => {
                args.size = match value()?.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err("--size takes full or tiny".to_string()),
                }
            }
            "--bless" => args.bless = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !["sim-wide", "sim-ckpt", "campaign"].contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut out = Outcome::default();
    let counts = match (args.workload.as_str(), args.trace) {
        ("campaign", false) => campaign::measure(&args, &mut out),
        ("campaign", true) => campaign::trace(&args, &mut out),
        (_, false) => sim::measure(&args, &mut out),
        (_, true) => sim::trace(&args, &mut out),
    };
    let correct = out.problems.is_empty() && out.failed == 0;
    if args.bless {
        if !correct || args.size != Size::Full {
            eprintln!("not blessing: the run failed its checks or is not full size");
            return ExitCode::FAILURE;
        }
        if let Err(e) = guard::bless(&args.workload, args.seed, &counts) {
            eprintln!("cannot write work_counts.tsv: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "recorded {} work counts for {} at seed {}",
            counts.len(),
            args.workload,
            args.seed
        );
    }
    if args.size == Size::Full {
        match guard::check(&args.workload, args.seed, &counts) {
            Ok(true) => out
                .notes
                .push("work counts match work_counts.tsv exactly".to_string()),
            Ok(false) => out.notes.push(format!(
                "work_counts.tsv records no counts at seed {} (add them with --bless)",
                args.seed
            )),
            Err(diffs) => out.problems.extend(diffs),
        }
    }
    let (kind, table) = if args.trace {
        ("traced", PER_LAYER)
    } else {
        ("untraced", END_TO_END)
    };
    let title = format!(
        "perfbench {} seed {} ({kind}, {:?} size)",
        args.workload, args.seed, args.size
    );
    if out.print(&title, table) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
