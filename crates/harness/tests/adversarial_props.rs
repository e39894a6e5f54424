//! The fault-plan property: **any** generated multi-fault plan — any
//! trigger kinds, any victim cores, any catalog application, any scheme
//! — either recovers to a state matching its golden twin or fails the
//! oracle with a diagnosable message. It never hangs: runs are bounded
//! by the oracle's step budget and the scale's cycle watchdog, and a
//! machine deadlock panic is caught and surfaced as the failing job's
//! verdict, so this test completing at all *is* the no-hang guarantee.

use proptest::prelude::*;
use rebound_core::Scheme;
use rebound_harness::strategies::arb_fault_plan;
use rebound_harness::{run_job, Job, RunScale};
use rebound_workloads::strategies::arb_catalog_app;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn any_generated_plan_recovers_or_fails_diagnosably(
        plan in arb_fault_plan(4, 60_000),
        scheme_i in 0usize..Scheme::ALL.len(),
        app in arb_catalog_app(),
        seed in 1u64..100,
    ) {
        let job = Job {
            id: 0,
            scheme: Scheme::ALL[scheme_i],
            app,
            cores: 4,
            seed,
            plan,
            scale: RunScale::campaign(),
            oracle: true,
        };
        let out = run_job(&job, None);
        prop_assert!(
            !out.verdict.is_failure(),
            "{}: {:?} (checks {}, fired {})",
            job.label(),
            out.verdict,
            out.checks,
            out.fired
        );
    }
}
