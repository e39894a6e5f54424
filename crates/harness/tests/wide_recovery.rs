//! Recovery at the 1024-core ceiling: one oracle-checked job on the
//! widest machine the config admits. The fault must fire, a real
//! rollback must happen, and the recovered machine must pass the
//! differential oracle against its golden twin.

use rebound_core::Scheme;
use rebound_harness::{run_job, FaultPlan, Job, OracleVerdict, RunScale};

fn job_1024() -> Job {
    Job {
        id: 0,
        scheme: Scheme::REBOUND,
        app: "FFT".to_string(),
        cores: 1024,
        seed: 1,
        // A small per-core quota keeps the 1024-core machine fast while
        // the fault still lands mid-run and forces a real rollback.
        plan: FaultPlan::single(1, 8_000),
        scale: RunScale {
            interval: 1_500,
            quota: 400,
            detect_latency: 500,
            watchdog_cycles: 50_000_000,
        },
        oracle: true,
    }
}

#[test]
fn fault_fires_rolls_back_and_passes_at_1024_cores() {
    let out = run_job(&job_1024(), None);
    assert!(
        out.report.rollbacks >= 1 && out.fired != "-",
        "the fault must actually fire at 1024 cores (fired {}, rollbacks {})",
        out.fired,
        out.report.rollbacks
    );
    assert!(
        matches!(out.verdict, OracleVerdict::Pass),
        "recovery must be oracle-checked, got {:?} ({})",
        out.verdict,
        out.checks
    );
    assert!(out.golden.is_some(), "oracle ran a golden replay");
}
