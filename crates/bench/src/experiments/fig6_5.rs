//! Fig 6.5: breakdown of the checkpointing overhead into WBDelay,
//! WBImbalanceDelay, SyncDelay and IPCDelay, for Global, Rebound_NoDWB
//! and Rebound, normalized to Global (= 100).
//!
//! The paper's reading: in Global and Rebound_NoDWB, WBDelay and
//! WBImbalanceDelay dominate; in Rebound the writebacks are in the
//! background, so IPCDelay becomes the main contributor and SyncDelay
//! stays minor.

use rebound_core::{RunReport, Scheme, StallBreakdown};
use rebound_workloads::all_profiles;

use crate::{ExpScale, Table};

use super::{grid, paper_cores, Section};

const SCHEMES: [Scheme; 3] = [Scheme::GLOBAL, Scheme::REBOUND_NODWB, Scheme::REBOUND];

/// The figure: every app at its paper core count; each cell shows each
/// category as % of Global's total.
pub const SECTION: Section = Section {
    name: "fig6_5",
    title: "Fig 6.5 — overhead breakdown (Global=100)",
    cells: || grid(&all_profiles(), &SCHEMES, paper_cores),
    table,
};

fn fmt(b: &StallBreakdown, norm: f64) -> String {
    format!(
        "wb={:.0} imb={:.0} sync={:.0} ipc={:.0}",
        b.wb_delay as f64 / norm * 100.0,
        b.wb_imbalance as f64 / norm * 100.0,
        b.sync_delay as f64 / norm * 100.0,
        b.ipc_delay as f64 / norm * 100.0,
    )
}

fn table(reports: &[&RunReport], _: ExpScale) -> Table {
    let mut t = Table::new(["App", "Global", "Rebound_NoDWB", "Rebound"]);
    let mut agg = [StallBreakdown::default(); 3];
    for (p, row) in all_profiles().iter().zip(reports.chunks(SCHEMES.len())) {
        let norm = row[0].metrics.breakdown.total().max(1) as f64;
        let mut cells = vec![p.name.to_string()];
        for (a, r) in agg.iter_mut().zip(row) {
            a.merge(&r.metrics.breakdown);
            cells.push(fmt(&r.metrics.breakdown, norm));
        }
        t.row(cells);
    }
    let norm = agg[0].total().max(1) as f64;
    t.row(std::iter::once("Total".to_string()).chain(agg.iter().map(|b| fmt(b, norm))));
    t
}
