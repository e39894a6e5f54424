//! Fig 6.4: impact of the Barrier optimization on checkpointing overhead
//! for the barrier-intensive applications: Global, Rebound_NoDWB,
//! Rebound_NoDWB_Barr, Rebound, Rebound_Barr.
//!
//! The paper finds both the Barrier optimization and delayed writebacks
//! effective but *not additive*.

use rebound_core::{RunReport, Scheme};
use rebound_workloads::barrier_intensive;

use crate::{ExpScale, Table};

use super::{grid, overheads, paper_cores, Section};

/// Each app's row: the checkpoint-free baseline, then the five schemes.
const ROW: [Scheme; 6] = [
    Scheme::None,
    Scheme::GLOBAL,
    Scheme::REBOUND_NODWB,
    Scheme::REBOUND_NODWB_BARR,
    Scheme::REBOUND,
    Scheme::REBOUND_BARR,
];

/// The figure: each barrier-intensive app at its paper core count.
pub const SECTION: Section = Section {
    name: "fig6_4",
    title: "Fig 6.4 — barrier optimization",
    cells: || grid(&barrier_intensive(), &ROW, paper_cores),
    table,
};

fn table(reports: &[&RunReport], _: ExpScale) -> Table {
    let rows = barrier_intensive()
        .into_iter()
        .zip(reports.chunks(ROW.len()));
    Table::with_average(
        [
            "App",
            "Global %",
            "R_NoDWB %",
            "R_NoDWB_Barr %",
            "Rebound %",
            "R_Barr %",
        ],
        rows.map(|(p, row)| (p.name, overheads(row))),
        |_, v| format!("{v:.1}"),
    )
}
