//! `#[ignore]`-gated paper-scale smoke: the 256/1024-core `--spec scale`
//! campaign — every `Scheme` const at the core counts the dense `LineId`
//! data plane exists for, every faulty job checked by the differential
//! recovery oracle with the cycle watchdog armed. CI runs this in the
//! `campaign-smoke` job's ignored tier; locally:
//! `cargo test -p rebound-harness --release -- --ignored scale_matrix`.

use rebound_harness::{default_jobs, run_jobs, CampaignSpec, OracleVerdict};

#[test]
#[ignore = "runs the 256/1024-core scale matrix (64 jobs, oracle-checked); minutes in release"]
fn scale_matrix_recovers_at_256_and_1024_cores() {
    let spec = CampaignSpec::scale();
    assert_eq!(spec.core_counts, vec![256, 1024]);
    let result = run_jobs(spec.expand(), default_jobs(), None);
    assert!(
        result.failures().is_empty(),
        "scale failures: {}\n{}",
        result.summary(),
        result
            .failures()
            .iter()
            .map(|f| format!("{}: {:?}", f.job.label(), f.run.verdict))
            .collect::<Vec<_>>()
            .join("\n")
    );
    // The faulty half must exercise recovery for real: every faulty job
    // passes its oracle non-vacuously (the fault fired and rolled back).
    for o in &result.rows {
        if !o.job.plan.is_clean() {
            assert!(
                matches!(o.run.verdict, OracleVerdict::Pass) && o.run.fired != "-",
                "{}: expected a non-vacuous oracle pass, got {:?} (fired {})",
                o.job.label(),
                o.run.verdict,
                o.run.fired
            );
        }
    }
}
