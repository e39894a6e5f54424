//! Fig 6.1: average Interaction Set for Checkpointing, PARSEC + Apache,
//! 24-processor runs, as a percentage of the machine — Global vs Rebound.

use rebound_core::{RunReport, Scheme};
use rebound_workloads::parsec_and_apache;

use crate::{ExpScale, Table};

use super::{each, grid, Section, PARSEC_CORES};

const SCHEMES: [Scheme; 2] = [Scheme::GLOBAL, Scheme::REBOUND];

/// The figure: one (Global, Rebound) pair of cells per app.
pub const SECTION: Section = Section {
    name: "fig6_1",
    title: "Fig 6.1 — ICHK size, PARSEC/Apache, 24p",
    cells: || grid(&parsec_and_apache(), &SCHEMES, |_| PARSEC_CORES),
    table,
};

fn table(reports: &[&RunReport], _: ExpScale) -> Table {
    let rows = parsec_and_apache().into_iter().zip(reports.chunks(2));
    Table::with_average(
        ["App", "Global ICHK %", "Rebound ICHK %"],
        rows.map(|(p, pair)| (p.name, each(pair, |r| 100.0 * r.ichk_fraction()))),
        // Global's set is the whole machine: 100 in every row, no decimals.
        |i, v| format!("{v:.prec$}", prec = usize::from(i > 0)),
    )
}
