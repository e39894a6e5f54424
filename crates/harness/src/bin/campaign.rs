//! `rebound-campaign` — run an experiment campaign in parallel and emit
//! the aggregate results table.
//!
//! ```text
//! rebound-campaign [--spec acceptance|smoke|matrix|adversarial|scale] [--jobs N]
//!                  [--filter SUBSTR] [--shard I/N] [--store DIR]
//!                  [--out FILE.csv] [--json FILE.json] [--no-oracle] [--list]
//! ```
//!
//! * `--spec` — which built-in campaign to run (default `acceptance`:
//!   36 configurations, every faulty one checked by the differential
//!   recovery oracle; `adversarial` is the phase-aware recovery matrix:
//!   every trigger kind × every scheme; `scale` is the paper-scale
//!   matrix across all schemes — 256 and 1024 cores, oracle included).
//! * `--jobs N` — worker threads (default: `REBOUND_JOBS` or all cores).
//!   The aggregate CSV/JSON is byte-identical for any `N`.
//! * `--filter SUBSTR` — keep only jobs whose label
//!   (`Scheme/App/c<cores>/s<seed>/<plan>`) or fault-plan detail
//!   contains the substring. A filter that matches **nothing** is a hard
//!   error (exit 2): a typo'd filter in CI must not stay green forever.
//! * `--shard I/N` — after filtering, keep only shard `I` of `N`
//!   (round-robin by position). The union of all `N` shards' CSV rows
//!   equals the unsharded CSV (merge the bodies sorted by id), so a
//!   matrix splits across CI jobs or machines.
//! * `--store DIR` — content-addressed result store: rows cached under a
//!   key of each job's semantic identity + code version are loaded
//!   instead of simulated; misses are simulated and persisted atomically.
//!   Golden snapshots persist there too, as `.golden` objects that warm
//!   goldens across campaigns and shards. The CSV is byte-identical to a
//!   storeless run; stderr reports `store: H cached, M recomputed`.
//! * `--out FILE` — write the CSV there (default: stdout).
//! * `--json FILE` — additionally write the JSON rendering.
//! * `--no-oracle` — skip golden replays (faster; faulty runs unchecked).
//! * `--list` — print the expanded job labels (with each named plan's
//!   trigger detail) and exit without running.
//!
//! Every faulty job's golden replay is shared campaign-wide by every fault
//! plan of its base config; stderr reports `goldens: N computed, M reused
//! (K from store)` plus per-base-config resident-snapshot footprints.
//!
//! Exit status is nonzero if any oracle verdict is a failure.

use std::process::ExitCode;

use rebound_harness::{default_jobs, run_jobs, CampaignSpec, Shard, Store};

fn usage() -> ! {
    eprintln!(
        "usage: rebound-campaign [--spec acceptance|smoke|matrix|adversarial|scale] [--jobs N] \
         [--filter SUBSTR] [--shard I/N] [--store DIR] [--out FILE.csv] [--json FILE.json] \
         [--no-oracle] [--list]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut spec_name = "acceptance".to_string();
    let mut jobs = default_jobs();
    let mut filter: Option<String> = None;
    let mut shard: Option<Shard> = None;
    let mut store_dir: Option<String> = None;
    let mut out: Option<String> = None;
    let mut json: Option<String> = None;
    let mut oracle = true;
    let mut list = false;

    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--spec" => spec_name = value(&mut i),
            "--jobs" | "-j" => {
                jobs = value(&mut i).parse().unwrap_or_else(|_| usage());
                if jobs == 0 {
                    usage();
                }
            }
            "--filter" => filter = Some(value(&mut i)),
            "--shard" => match Shard::parse(&value(&mut i)) {
                Ok(s) => shard = Some(s),
                Err(e) => {
                    eprintln!("{e}");
                    usage();
                }
            },
            "--store" => store_dir = Some(value(&mut i)),
            "--out" | "-o" => out = Some(value(&mut i)),
            "--json" => json = Some(value(&mut i)),
            "--no-oracle" => oracle = false,
            "--list" => list = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
        i += 1;
    }

    let mut spec = match spec_name.as_str() {
        "acceptance" => CampaignSpec::acceptance(),
        "smoke" => CampaignSpec::smoke(),
        "matrix" => CampaignSpec::full_matrix(),
        "adversarial" => CampaignSpec::adversarial(),
        "scale" => CampaignSpec::scale(),
        other => {
            eprintln!(
                "unknown spec: {other} (expected acceptance, smoke, matrix, adversarial or scale)"
            );
            usage();
        }
    };
    spec.oracle = oracle;

    let mut expanded = spec.expand();
    if let Some(f) = &filter {
        // Match on the label (whose <plan> part is the plan's family
        // name when it has one) *and* on the derived trigger detail, so
        // named and unnamed plans are both addressable. Matching nothing
        // is a hard error — a typo'd filter in CI must not stay green.
        expanded.retain(|j| j.label().contains(f.as_str()) || j.plan.detail().contains(f.as_str()));
        if expanded.is_empty() {
            eprintln!("error: --filter {f:?} matched no jobs");
            return ExitCode::from(2);
        }
    }
    if let Some(s) = shard {
        expanded = s.apply(expanded);
        // An empty shard is legitimate (more shards than jobs): its CSV
        // is header-only and the union property still holds.
        if expanded.is_empty() {
            eprintln!(
                "warning: shard {}/{} holds no jobs at this matrix size",
                s.index, s.of
            );
        }
    }

    if list {
        println!("# id  Scheme/App/c<cores>/s<seed>/<plan>  [plan detail]");
        println!("# <plan> is the fault plan's family name if named, else its trigger");
        println!("# string; --filter matches both forms.");
        for j in &expanded {
            let detail = j.plan.detail();
            if detail == j.plan.label() {
                println!("{:>4}  {}", j.id, j.label());
            } else {
                println!("{:>4}  {}  [{}]", j.id, j.label(), detail);
            }
        }
        return ExitCode::SUCCESS;
    }

    let store = match &store_dir {
        Some(dir) => match Store::open(dir) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("cannot open store {dir}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    eprintln!(
        "rebound-campaign: {} jobs ({} spec{}{}) on {} workers{}",
        expanded.len(),
        spec_name,
        filter
            .as_ref()
            .map(|f| format!(", filter {f:?}"))
            .unwrap_or_default(),
        shard
            .map(|s| format!(", shard {}/{}", s.index, s.of))
            .unwrap_or_default(),
        jobs,
        store
            .as_ref()
            .map(|s| format!(", store {}", s.root().display()))
            .unwrap_or_default(),
    );
    let result = run_jobs(expanded, jobs, store.as_ref());
    if let Some(stats) = &result.store {
        eprintln!(
            "store: {} cached, {} recomputed",
            stats.hits, stats.recomputed
        );
    }
    if let Some(g) = &result.golden {
        eprintln!("{}", g.line());
    }
    for fp in &result.golden_footprint {
        eprintln!("{fp}");
    }

    let csv = result.to_csv();
    match &out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &csv) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {path}");
        }
        None => print!("{csv}"),
    }
    if let Some(path) = &json {
        if let Err(e) = std::fs::write(path, result.to_json()) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }

    eprintln!("{}", result.summary());
    for f in result.failures() {
        eprintln!("ORACLE FAILURE {}: {:?}", f.job.label(), f.run.verdict);
    }
    if result.failures().is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
