//! Fig 6.3: checkpointing overhead (as a fraction of execution time)
//! during error-free execution — (a) 64-processor SPLASH-2 and
//! (b) 24-processor PARSEC/Apache — for Global, Global_DWB,
//! Rebound_NoDWB and Rebound.
//!
//! The paper's headline: for 64-processor SPLASH-2, Global averages 15%
//! while Rebound averages 2%.

use rebound_core::{RunReport, Scheme};
use rebound_workloads::{parsec_and_apache, splash2, AppProfile};

use crate::Table;

use super::{grid, overheads, paper_cores, Section};

/// Each app's row: the checkpoint-free baseline, then the four schemes.
const ROW: [Scheme; 5] = [
    Scheme::None,
    Scheme::GLOBAL,
    Scheme::GLOBAL_DWB,
    Scheme::REBOUND_NODWB,
    Scheme::REBOUND,
];

/// Fig 6.3(a): 64-processor SPLASH-2 runs.
pub const SPLASH: Section = Section {
    name: "fig6_3a",
    title: "Fig 6.3(a) — overhead, SPLASH-2 64p",
    cells: || grid(&splash2(), &ROW, paper_cores),
    table: |reports, _| suite_table(&splash2(), reports),
};

/// Fig 6.3(b): 24-processor PARSEC and Apache runs.
pub const PARSEC: Section = Section {
    name: "fig6_3b",
    title: "Fig 6.3(b) — overhead, PARSEC/Apache 24p",
    cells: || grid(&parsec_and_apache(), &ROW, paper_cores),
    table: |reports, _| suite_table(&parsec_and_apache(), reports),
};

fn suite_table(apps: &[AppProfile], reports: &[&RunReport]) -> Table {
    let rows = apps.iter().zip(reports.chunks(ROW.len()));
    Table::with_average(
        [
            "App",
            "Global %",
            "Global_DWB %",
            "Rebound_NoDWB %",
            "Rebound %",
        ],
        rows.map(|(p, row)| (p.name, overheads(row))),
        |_, v| format!("{v:.1}"),
    )
}
