//! Table 6.1: per-application characterization of Rebound —
//! (1) % increase in ICHK due to WSIG false positives,
//! (2) maximum log space per checkpoint interval,
//! (3) % increase in coherence messages from LW-ID/Dep maintenance.
//!
//! Paper averages: +2.0% ICHK from false positives, 7.2 MB log,
//! +4.2% coherence messages.

use rebound_core::{RunReport, Scheme};
use rebound_workloads::all_profiles;

use crate::{ExpScale, Table};

use super::{grid, paper_cores, Section};

/// The characterization: SPLASH-2 at 64 processors, PARSEC/Apache at
/// 24, as in the paper. Log sizes are rescaled to the paper's
/// 4M-instruction interval for comparability.
pub const SECTION: Section = Section {
    name: "table6_1",
    title: "Table 6.1 — characterization",
    cells: || grid(&all_profiles(), &[Scheme::REBOUND], paper_cores),
    table,
};

fn table(reports: &[&RunReport], scale: ExpScale) -> Table {
    let rescale = 1.0 / scale.vs_paper();
    let rows = all_profiles().into_iter().zip(reports).map(|(p, r)| {
        // Max per-processor interval bytes scaled to machine-wide MB at
        // the paper's interval length.
        let log_mb = r.log_max_interval_bytes as f64 * r.cores as f64 * rescale / 1.0e6;
        let fp_pct = r.metrics.ichk_fp_increase_percent();
        (p.name, vec![fp_pct, log_mb, r.msgs.dep_overhead_percent()])
    });
    Table::with_average(
        [
            "App",
            "ICHK FP increase %",
            "Log size (MB @4M-inst)",
            "Coher. msg increase %",
        ],
        rows,
        |_, v| format!("{v:.1}"),
    )
}
