//! Cross-representation equivalence: the dense `LineId` data plane must
//! be *observationally identical* to the hash-map representation it
//! replaced. This replays 2 seeds × all 7 schemes × {Ocean, LU-C} and
//! asserts the campaign rows — cycles, instructions, checkpoint and
//! rollback counts, message totals, log entries and peak bytes, ICHK
//! sizes — are byte-identical to `tests/golden/cross_repr.csv`, a
//! snapshot taken at the commit *before* the data-plane refactor
//! (re-captured when the typed `stall_*`/`recovery_cycles` columns
//! widened the CSV schema: every pre-existing column stayed
//! byte-identical, rows only gained the new fields).
//!
//! Regenerate (only when an intentional behavioural change lands):
//!
//! ```text
//! REBOUND_REGEN_GOLDEN=1 cargo test -p rebound-harness --test cross_representation
//! ```

use rebound_core::Scheme;
use rebound_harness::{run_jobs, CampaignSpec, FaultPlan, RunScale};

/// The equivalence matrix: the 7 schemes the golden snapshot was
/// captured with (pinned explicitly — the snapshot predates
/// `Rebound_Cluster`, so it must not grow rows when `Scheme::ALL`
/// does), a barrier-heavy app (Ocean) and a neighbour-sharing app
/// (LU-C), two seeds, fault-free, tiny scale.
fn spec() -> CampaignSpec {
    CampaignSpec {
        schemes: vec![
            Scheme::None,
            Scheme::GLOBAL,
            Scheme::GLOBAL_DWB,
            Scheme::REBOUND,
            Scheme::REBOUND_NODWB,
            Scheme::REBOUND_BARR,
            Scheme::REBOUND_NODWB_BARR,
        ],
        apps: vec!["Ocean".to_string(), "LU-C".to_string()],
        core_counts: vec![4],
        seeds: vec![11, 12],
        plans: vec![FaultPlan::clean()],
        scale: RunScale::tiny(),
        oracle: false,
    }
}

const GOLDEN: &str = include_str!("golden/cross_repr.csv");

#[test]
fn campaign_rows_are_byte_identical_to_the_seed_commit_snapshot() {
    let csv = run_jobs(spec().expand(), 4, None).to_csv();
    if std::env::var("REBOUND_REGEN_GOLDEN").is_ok() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/cross_repr.csv");
        std::fs::write(path, &csv).expect("write golden");
        eprintln!("regenerated {path}");
        return;
    }
    if csv != GOLDEN {
        // Diagnose the first diverging row instead of dumping both files.
        for (i, (got, want)) in csv.lines().zip(GOLDEN.lines()).enumerate() {
            assert_eq!(
                got, want,
                "row {i} diverges from the pre-refactor golden snapshot"
            );
        }
        assert_eq!(
            csv.lines().count(),
            GOLDEN.lines().count(),
            "row count diverges from the pre-refactor golden snapshot"
        );
        unreachable!("CSV differs but no line-level divergence found");
    }
}
