//! `#[ignore]`-gated `Rebound_Cluster` adversarial matrix: all 9 fault
//! plan families × {Ocean, FFT} × 2 seeds against the clustered scheme,
//! every faulty job checked by the differential recovery oracle with
//! the cycle watchdog armed. CI runs this in the `campaign-smoke` job's
//! ignored tier; locally:
//! `cargo test -p rebound-harness --release -- --ignored cluster_matrix`.

use rebound_core::Scheme;
use rebound_harness::{default_jobs, run_jobs, CampaignSpec, OracleVerdict};

#[test]
#[ignore = "runs the 36-job cluster adversarial matrix (oracle-checked); ~1 min in release"]
fn cluster_scheme_recovers_across_the_adversarial_matrix() {
    let mut spec = CampaignSpec::adversarial();
    spec.schemes = vec![Scheme::REBOUND_CLUSTER];
    let result = run_jobs(spec.expand(), default_jobs(), None);

    // Zero oracle failures and zero watchdog timeouts (a watchdog or
    // livelock surfaces as a Fail verdict).
    assert!(
        result.failures().is_empty(),
        "cluster adversarial failures: {}\n{}",
        result.summary(),
        result
            .failures()
            .iter()
            .map(|f| format!("{}: {:?}", f.job.label(), f.run.verdict))
            .collect::<Vec<_>>()
            .join("\n")
    );

    // Every plan family whose window can open under the cluster scheme
    // must fire-and-pass non-vacuously on at least one (app, seed) cell.
    // `barrier-episode` is structurally vacuous here: the cluster scheme
    // has no BarCK overlay, so no barrier episode ever activates — the
    // same shape Global shows in the full matrix.
    for plan in spec.plans.iter().filter(|p| !p.is_clean()) {
        let name = plan.label();
        let cells: Vec<_> = result
            .rows
            .iter()
            .filter(|o| o.job.plan.label() == name)
            .collect();
        if name == "barrier-episode" {
            assert!(
                cells
                    .iter()
                    .all(|o| matches!(o.run.verdict, OracleVerdict::Vacuous)),
                "barrier-episode should be structurally vacuous under Rebound_Cluster"
            );
            continue;
        }
        assert!(
            cells
                .iter()
                .any(|o| matches!(o.run.verdict, OracleVerdict::Pass) && o.run.fired != "-"),
            "plan family {name:?} never fired-and-passed under Rebound_Cluster"
        );
        // And no cell may regress to anything worse than a vacuous
        // window (failures were already rejected above).
        assert!(
            cells
                .iter()
                .all(|o| matches!(o.run.verdict, OracleVerdict::Pass | OracleVerdict::Vacuous)),
            "plan family {name:?} has a non-pass cell"
        );
    }
}
