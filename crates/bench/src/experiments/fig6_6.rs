//! Fig 6.6: scalability with processor count (16 / 32 / 64, SPLASH-2):
//! (a) checkpointing overhead, (b) energy increase due to checkpointing,
//! (c) fault recovery latency.
//!
//! The paper's reading: local schemes scale far better than Global on all
//! three axes; Rebound's overhead curve is nearly flat; at 64 processors
//! Rebound adds 2% energy vs Global's 19%, and recovery stays well under
//! one second (99.999% availability at one fault/day).

use rebound_core::{RunReport, Scheme};
use rebound_power::EnergyParams;
use rebound_workloads::splash2;

use crate::{energy_of, overhead_pct, Cell, ExpScale, Kind, Table};

use super::{grid, Section};

const SIZES: [usize; 3] = [16, 32, 64];
const SCHEMES: [Scheme; 3] = [Scheme::GLOBAL, Scheme::REBOUND_NODWB, Scheme::REBOUND];

/// Fig 6.6(a) + (b): overhead and energy increase vs processor count.
pub const OVERHEAD_ENERGY: Section = Section {
    name: "fig6_6ab",
    title: "Fig 6.6(a,b) — scalability: overhead & energy",
    cells: overhead_energy_cells,
    table: overhead_energy,
};

/// Fig 6.6(c): average recovery latency for a transient fault injected
/// right before a checkpoint (maximum un-checkpointed work).
pub const RECOVERY: Section = Section {
    name: "fig6_6c",
    title: "Fig 6.6(c) — recovery latency",
    cells: recovery_cells,
    table: recovery,
};

/// The table rows: every (processor count, scheme), size-major.
fn rows() -> impl Iterator<Item = (usize, Scheme)> {
    SIZES.into_iter().flat_map(|n| SCHEMES.map(|s| (n, s)))
}

/// Per table row, every app's (checkpoint-free baseline, scheme) pair.
fn overhead_energy_cells() -> Vec<Cell> {
    let row = |(n, s): (usize, Scheme)| grid(&splash2(), &[Scheme::None, s], move |_| n);
    rows().flat_map(row).collect()
}

/// Per table row, one fault cell per app.
fn recovery_cells() -> Vec<Cell> {
    let row = |(n, s): (usize, Scheme)| grid(&splash2(), &[s], move |_| n);
    rows().flat_map(row).map(|c| c.with(Kind::Fault)).collect()
}

fn overhead_energy(reports: &[&RunReport], _: ExpScale) -> Table {
    let params = EnergyParams::default();
    let mut t = Table::new(["Procs", "Scheme", "Avg overhead %", "Avg energy increase %"]);
    for ((n, s), row) in rows().zip(reports.chunks(2 * splash2().len())) {
        let (mut ovh, mut en, mut cnt) = (0.0, 0.0, 0.0);
        for pair in row.chunks(2) {
            let (base, run) = (pair[0], pair[1]);
            ovh += overhead_pct(run, base);
            let eb = energy_of(base, &params).energy.total();
            let er = energy_of(run, &params).energy.total();
            en += 100.0 * (er - eb) / eb;
            cnt += 1.0;
        }
        let (ovh, en) = (format!("{:.1}", ovh / cnt), format!("{:.1}", en / cnt));
        t.row([n.to_string(), s.label().to_string(), ovh, en]);
    }
    t
}

fn recovery(reports: &[&RunReport], _: ExpScale) -> Table {
    let mut t = Table::new(["Procs", "Scheme", "Avg recovery (scaled ms)", "Avg IREC"]);
    for ((n, s), row) in rows().zip(reports.chunks(splash2().len())) {
        let (mut ms, mut irec, mut cnt) = (0.0, 0.0, 0.0);
        for r in row.iter().filter(|r| r.rollbacks > 0) {
            ms += r.metrics.recovery_cycles.mean() / 1.0e6;
            irec += r.metrics.irec_sizes.mean();
            cnt += 1.0;
        }
        if cnt > 0.0 {
            let (ms, irec) = (format!("{:.3}", ms / cnt), format!("{:.1}", irec / cnt));
            t.row([n.to_string(), s.label().to_string(), ms, irec]);
        }
    }
    t
}
