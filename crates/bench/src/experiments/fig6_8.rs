//! Fig 6.8: estimated on-chip power consumption (dynamic + static) for
//! Global, Rebound_NoDWB and Rebound, averaged over SPLASH-2 at 64
//! processors.
//!
//! The paper finds Rebound_NoDWB and Rebound consume 2% and 4% more power
//! than Global (the faster, denser execution does the same work in less
//! time, and the Dep structures add ~1.3%), while Rebound improves ED² by
//! ~27%.

use rebound_core::{RunReport, Scheme};
use rebound_power::EnergyParams;
use rebound_workloads::splash2;

use crate::{energy_of, ExpScale, Table};

use super::{grid, Section, SPLASH_CORES};

const SCHEMES: [Scheme; 3] = [Scheme::GLOBAL, Scheme::REBOUND_NODWB, Scheme::REBOUND];

/// The figure: average power plus the ED² comparison.
pub const SECTION: Section = Section {
    name: "fig6_8",
    title: "Fig 6.8 — power",
    cells: || grid(&splash2(), &SCHEMES, |_| SPLASH_CORES),
    table,
};

fn table(reports: &[&RunReport], _: ExpScale) -> Table {
    let params = EnergyParams::default();
    let mut t = Table::new([
        "Scheme",
        "Avg power (W)",
        "Power vs Global %",
        "ED^2 vs Global %",
    ]);
    // Collect per-scheme totals across applications.
    let mut power = [0.0f64; 3];
    let mut ed2 = [0.0f64; 3];
    let mut n = 0.0;
    for row in reports.chunks(SCHEMES.len()) {
        for (i, r) in row.iter().enumerate() {
            let summary = energy_of(r, &params);
            power[i] += summary.avg_power_w;
            ed2[i] += summary.energy.total() * summary.seconds * summary.seconds;
        }
        n += 1.0;
    }
    for (i, &s) in SCHEMES.iter().enumerate() {
        t.row([
            s.label().to_string(),
            format!("{:.2}", power[i] / n),
            format!("{:+.1}", 100.0 * (power[i] - power[0]) / power[0]),
            format!("{:+.1}", 100.0 * (ed2[i] - ed2[0]) / ed2[0]),
        ]);
    }
    t
}
