//! The figure driver's contracts: [`Runs`] simulates each distinct cell
//! once, its reports do not depend on the worker count, and (ignored
//! tier) every section's table at tiny scale is byte-identical to the
//! golden transcript.
//!
//! The golden `golden/figures_tiny.md` is the figure part of
//! `REBOUND_SCALE=tiny reproduce`'s stdout captured from the per-figure
//! driver that preceded the section registry, progress stamps stripped,
//! so it pins that sharing cells across sections changed no number.
//! Regenerate (only when an intentional behavioural change lands):
//!
//! ```text
//! REBOUND_REGEN_GOLDEN=1 cargo test --release -p rebound-bench --test figures -- --ignored
//! ```

use rebound_bench::experiments::SECTIONS;
use rebound_bench::{Cell, ExpScale, Kind, Runs};
use rebound_core::Scheme;
use rebound_harness::default_jobs;

const GOLDEN: &str = include_str!("golden/figures_tiny.md");

#[test]
fn runs_simulate_each_distinct_cell_once_at_any_worker_count() {
    let clean = Cell::clean("Water-Sp", Scheme::REBOUND, 4);
    let fault = clean.with(Kind::Fault);
    let io = Cell::clean("Blackscholes", Scheme::GLOBAL, 8).with(Kind::Io);
    // `clean` is listed twice and is also the fault cell's twin.
    let cells = [clean, fault, io, clean, fault];
    let serial = Runs::new(&cells, ExpScale::tiny(), 1);
    let pooled = Runs::new(&cells, ExpScale::tiny(), 4);
    assert_eq!((serial.simulated(), pooled.simulated()), (3, 3));
    assert!(serial.get(&fault).rollbacks > 0, "the fault must fire");
    for c in &cells {
        let (a, b) = (serial.get(c), pooled.get(c));
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "{c:?}");
    }
    // A fault cell alone still gets its twin simulated first.
    assert_eq!(Runs::new(&[fault], ExpScale::tiny(), 2).simulated(), 2);
}

#[test]
#[ignore = "simulates all 339 figure cells; about a minute in release on 2 cores"]
fn every_figure_section_matches_the_tiny_golden() {
    let cells: Vec<Cell> = SECTIONS.iter().flat_map(|s| (s.cells)()).collect();
    let runs = Runs::new(&cells, ExpScale::tiny(), default_jobs());
    let out: String = SECTIONS.iter().map(|s| s.render(&runs)).collect();
    if std::env::var("REBOUND_REGEN_GOLDEN").is_ok() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/figures_tiny.md");
        std::fs::write(path, &out).expect("write golden");
        return;
    }
    for (i, (got, want)) in out.lines().zip(GOLDEN.lines()).enumerate() {
        assert_eq!(got, want, "line {} differs from the golden", i + 1);
    }
    assert_eq!(out, GOLDEN, "output and golden differ in length");
}
