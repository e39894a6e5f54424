//! Fig 6.7: effect of output I/O on the checkpoint interval.
//!
//! Five codes with relatively small interaction sets run on 64 processors;
//! one processor initiates a checkpoint every half-interval, as if it were
//! performing output I/O. Under Global, every such I/O drags the whole
//! machine: the average checkpoint interval collapses to the I/O period.
//! Under Rebound only the I/O core's (small) interaction set pays, so the
//! machine-wide average interval stays near the nominal one.

use rebound_core::{RunReport, Scheme};

use crate::{Cell, ExpScale, Kind, Table};

use super::{each, Section};

/// The five relatively-low-ICHK codes used for the study.
pub const APPS: [&str; 5] = [
    "Blackscholes",
    "Apache",
    "Water-Sp",
    "Ferret",
    "Fluidanimate",
];

const CORES: usize = 64;

/// The figure; intervals are reported in cycles (millions).
pub const SECTION: Section = Section {
    name: "fig6_7",
    title: "Fig 6.7 — output I/O impact",
    cells,
    table,
};

/// Each app's row: Global and Rebound, each without and with I/O.
fn cells() -> Vec<Cell> {
    let row = |app| {
        [Scheme::GLOBAL, Scheme::REBOUND]
            .map(|s| [Kind::Clean, Kind::Io].map(|k| Cell::clean(app, s, CORES).with(k)))
    };
    APPS.into_iter().flat_map(row).flatten().collect()
}

fn table(reports: &[&RunReport], _: ExpScale) -> Table {
    let rows = APPS.into_iter().zip(reports.chunks(4));
    Table::with_average(
        [
            "App",
            "Global (Mcyc)",
            "Global-I/O (Mcyc)",
            "Rebound (Mcyc)",
            "Rebound-I/O (Mcyc)",
        ],
        rows.map(|(app, row)| (app, each(row, |r| r.metrics.ckpt_intervals.mean()))),
        |_, v| format!("{:.3}", v / 1e6),
    )
}
