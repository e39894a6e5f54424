//! Reduced-scale end-to-end benchmarks: one representative cell per paper
//! figure/table, run as the `reproduce` driver runs it, so `cargo bench`
//! exercises the full reproduction pipeline (the complete matrices are
//! regenerated by `bin/reproduce`). A fault cell's clean twin, which
//! places its fault, runs once outside the timed loop.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use rebound_bench::{energy_of, Cell, ExpScale, Kind};
use rebound_core::Scheme;

fn bench_cells(c: &mut Criterion) {
    let rebound = |app, cores| Cell::clean(app, Scheme::REBOUND, cores);
    let fmm = |s| Cell::clean("FMM", s, 16);
    let cells = [
        // Figs 6.1/6.2: interaction-set measurement runs.
        ("fig6_1_2_ichk/Blackscholes", rebound("Blackscholes", 16)),
        ("fig6_1_2_ichk/Barnes", rebound("Barnes", 16)),
        ("fig6_1_2_ichk/Ocean", rebound("Ocean", 16)),
        // Figs 6.3/6.4: overhead runs for each scheme.
        ("fig6_3_4_overhead/NoCkpt", fmm(Scheme::None)),
        ("fig6_3_4_overhead/Global", fmm(Scheme::GLOBAL)),
        ("fig6_3_4_overhead/Global_DWB", fmm(Scheme::GLOBAL_DWB)),
        (
            "fig6_3_4_overhead/Rebound_NoDWB",
            fmm(Scheme::REBOUND_NODWB),
        ),
        ("fig6_3_4_overhead/Rebound", fmm(Scheme::REBOUND)),
        ("fig6_3_4_overhead/Rebound_Barr", fmm(Scheme::REBOUND_BARR)),
        // Fig 6.5: breakdown accounting comes for free with a run.
        ("fig6_5_breakdown/rebound_breakdown", rebound("LU-C", 16)),
        // Fig 6.6: machine-size sweep.
        ("fig6_6_scalability/rebound_8p", rebound("Water-Sp", 8)),
        ("fig6_6_scalability/rebound_16p", rebound("Water-Sp", 16)),
        ("fig6_6_scalability/rebound_32p", rebound("Water-Sp", 32)),
        // Fig 6.6(c): fault injection + rollback + re-execution.
        (
            "fig6_6c_recovery/fault_and_recover",
            rebound("FMM", 8).with(Kind::Fault),
        ),
        // Fig 6.7: I/O-pressured run.
        ("fig6_7_io/rebound_io", rebound("Apache", 16).with(Kind::Io)),
        // Fig 6.8 / Table 6.1: power and characterization on top of a run.
        (
            "fig6_8_table6_1/power_and_characterization",
            rebound("Radix", 16),
        ),
    ];
    let scale = ExpScale::tiny();
    for (id, cell) in cells {
        let clean = (cell.kind == Kind::Fault).then(|| cell.with(Kind::Clean).run(scale, None));
        c.bench_function(id, |b| {
            b.iter(|| {
                let r = cell.run(scale, clean.as_ref());
                black_box((energy_of(&r, &Default::default()), r.ichk_fraction()))
            });
        });
    }
}

criterion_group!(benches, bench_cells);
criterion_main!(benches);
