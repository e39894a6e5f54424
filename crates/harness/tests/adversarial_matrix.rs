//! `#[ignore]`-gated adversarial-matrix smoke: all trigger kinds × all
//! `Scheme` consts at one seed, every faulty job oracle-checked with the
//! cycle watchdog armed. CI runs this in the `campaign-smoke` job
//! (`cargo test -p rebound-harness --release -- --ignored`); locally:
//! `cargo test -p rebound-harness -- --ignored adversarial_matrix`.

use rebound_harness::{default_jobs, run_jobs, CampaignSpec, OracleVerdict};

#[test]
#[ignore = "runs the full adversarial matrix (288 oracle-checked jobs); minutes"]
fn adversarial_matrix_smoke_recovers_everywhere() {
    // Both seeds: seed 1's only mid-initiate windows are empty-set
    // initiations that open and close inside one event — the machine
    // polls armed phase triggers inside that window, so the family
    // fires (and is oracle-checked) on both seeds.
    let spec = CampaignSpec::adversarial();
    let result = run_jobs(spec.expand(), default_jobs(), None);
    assert!(
        result.failures().is_empty(),
        "adversarial failures: {}\n{}",
        result.summary(),
        result
            .failures()
            .iter()
            .map(|f| format!("{}: {:?}", f.job.label(), f.run.verdict))
            .collect::<Vec<_>>()
            .join("\n")
    );

    // Every named plan family must pass *non-vacuously* on at least one
    // scheme — a trigger whose window never opens anywhere would make
    // the matrix silently weaker.
    for plan in spec.plans.iter().filter(|p| !p.is_clean()) {
        let name = plan.label();
        assert!(
            result.rows.iter().any(|o| o.job.plan.label() == name
                && matches!(o.run.verdict, OracleVerdict::Pass)
                && o.run.fired != "-"),
            "plan family {name:?} never fired-and-passed on any scheme"
        );
    }
}
