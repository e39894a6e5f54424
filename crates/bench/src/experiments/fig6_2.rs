//! Fig 6.2: average Interaction Set for Checkpointing for SPLASH-2, as a
//! percentage of the machine, for (a) 32-processor and (b) 64-processor
//! runs under Rebound.

use rebound_core::{RunReport, Scheme};
use rebound_workloads::{splash2, AppProfile};

use crate::{Cell, ExpScale, Table};

use super::{each, Section};

/// The figure: one Rebound cell per app at each of 32 and 64 cores.
pub const SECTION: Section = Section {
    name: "fig6_2",
    title: "Fig 6.2 — ICHK size, SPLASH-2, 32p & 64p",
    cells,
    table,
};

fn cells() -> Vec<Cell> {
    let row = |p: AppProfile| [32, 64].map(|n| Cell::clean(p.name, Scheme::REBOUND, n));
    splash2().into_iter().flat_map(row).collect()
}

fn table(reports: &[&RunReport], _: ExpScale) -> Table {
    let rows = splash2().into_iter().zip(reports.chunks(2));
    Table::with_average(
        ["App", "ICHK % (32p)", "ICHK % (64p)"],
        rows.map(|(p, pair)| (p.name, each(pair, |r| 100.0 * r.ichk_fraction()))),
        |_, v| format!("{v:.1}"),
    )
}
