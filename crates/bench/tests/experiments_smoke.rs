//! Tiny-scale smoke tests of the figure registry: each section must
//! produce a complete, well-formed table and respect the paper's
//! first-order invariants even at smoke scale.

use std::sync::OnceLock;

use rebound_bench::experiments::{self as e, Section};
use rebound_bench::{overhead_pct, Cell, ExpScale, Runs};
use rebound_core::Scheme;
use rebound_harness::default_jobs;

/// The sections the tests below read: they share cells, so their union
/// is simulated once for all of them.
const SMOKED: [&str; 5] = ["fig6_1", "fig6_2", "fig6_7", "fig6_8", "table6_1"];

fn rows(s: &Section) -> Vec<Vec<String>> {
    static RUNS: OnceLock<Runs> = OnceLock::new();
    let runs = RUNS.get_or_init(|| {
        let sections = e::select(&SMOKED).expect("section names");
        let cells: Vec<Cell> = sections.iter().flat_map(|s| (s.cells)()).collect();
        Runs::new(&cells, ExpScale::tiny(), default_jobs())
    });
    s.render(runs)
        .lines()
        .filter(|l| l.starts_with('|'))
        .skip(2) // header + separator
        .map(|l| {
            l.split('|')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(str::to_string)
                .collect()
        })
        .collect()
}

#[test]
fn fig6_1_covers_parsec_and_apache() {
    let r = rows(&e::fig6_1::SECTION);
    assert_eq!(r.len(), 6, "5 apps + average");
    assert_eq!(r[0][0], "Blackscholes");
    assert_eq!(r[5][0], "Average");
    // Global is always 100%; Rebound must be below it for these apps.
    for row in &r[..5] {
        assert_eq!(row[1], "100");
        let reb: f64 = row[2].parse().unwrap();
        assert!(reb < 100.0, "{}: {}", row[0], reb);
    }
}

#[test]
fn fig6_2_covers_splash_at_both_sizes() {
    let r = rows(&e::fig6_2::SECTION);
    assert_eq!(r.len(), 14, "13 apps + average");
    for row in &r {
        let p32: f64 = row[1].parse().unwrap();
        let p64: f64 = row[2].parse().unwrap();
        assert!((0.0..=100.0).contains(&p32));
        assert!((0.0..=100.0).contains(&p64));
    }
}

#[test]
fn fig6_3_splash_has_all_schemes() {
    // One application's row at 16 cores keeps smoke time down.
    let cells = [
        Scheme::None,
        Scheme::GLOBAL,
        Scheme::GLOBAL_DWB,
        Scheme::REBOUND_NODWB,
        Scheme::REBOUND,
    ]
    .map(|s| Cell::clean("Water-Sp", s, 16));
    let runs = Runs::new(&cells, ExpScale::tiny(), default_jobs());
    let base = runs.get(&cells[0]);
    assert!(base.cycles > 0);
    for c in &cells[1..] {
        let v = overhead_pct(runs.get(c), base);
        assert!(v.is_finite());
        assert!(v > -20.0 && v < 400.0, "overhead {v}% out of range");
    }
}

#[test]
fn fig6_7_io_shrinks_global_interval() {
    let r = rows(&e::fig6_7::SECTION);
    assert_eq!(r.len(), 6, "5 apps + average");
    let avg = &r[5];
    let g: f64 = avg[1].parse().unwrap();
    let g_io: f64 = avg[2].parse().unwrap();
    let reb: f64 = avg[3].parse().unwrap();
    let reb_io: f64 = avg[4].parse().unwrap();
    assert!(g_io < g, "I/O must shorten Global's interval");
    // Rebound must retain a larger fraction of its nominal interval than
    // Global retains of its own.
    assert!(
        reb_io / reb > g_io / g,
        "Rebound must be less disrupted: {reb_io}/{reb} vs {g_io}/{g}"
    );
}

#[test]
fn fig6_8_power_orders_schemes() {
    let r = rows(&e::fig6_8::SECTION);
    assert_eq!(r.len(), 3);
    assert_eq!(r[0][0], "Global");
    let g: f64 = r[0][1].parse().unwrap();
    let reb: f64 = r[2][1].parse().unwrap();
    assert!(g > 0.0 && reb > 0.0);
    // The paper finds Rebound consumes slightly MORE power (denser
    // execution + Dep hardware).
    assert!(
        reb >= g * 0.95,
        "Rebound power should not collapse: {reb} vs {g}"
    );
}

#[test]
fn table6_1_covers_all_18_apps() {
    let r = rows(&e::table6_1::SECTION);
    assert_eq!(r.len(), 19, "18 apps + average");
    for row in &r {
        let fp: f64 = row[1].parse().unwrap();
        let log: f64 = row[2].parse().unwrap();
        let msg: f64 = row[3].parse().unwrap();
        assert!(fp >= 0.0, "{}: FP {fp}", row[0]);
        assert!(log >= 0.0);
        assert!((0.0..100.0).contains(&msg), "{}: msg {msg}%", row[0]);
    }
}
