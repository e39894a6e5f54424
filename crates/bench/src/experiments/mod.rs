//! The paper's evaluation (Chapter 6) as a registry of sections.
//!
//! Each [`Section`] is one figure or table: the [`Cell`]s it reads and a
//! `table` that renders the paper's rows or series from their reports,
//! handed over in `cells()` order. [`SECTIONS`] lists them in the paper's
//! order. The `reproduce` binary simulates the union of the selected
//! sections' cells through [`Runs`], each distinct cell once, and prints
//! every section as an `EXPERIMENTS.md`-ready transcript; `--only PREFIX`
//! selects sections by [`select`].

pub mod fig6_1;
pub mod fig6_2;
pub mod fig6_3;
pub mod fig6_4;
pub mod fig6_5;
pub mod fig6_6;
pub mod fig6_7;
pub mod fig6_8;
pub mod table6_1;

use rebound_core::{RunReport, Scheme};
use rebound_workloads::{AppProfile, Suite};

use crate::{overhead_pct, Cell, ExpScale, Runs, Table};

/// Core counts used by the paper for each suite.
pub const SPLASH_CORES: usize = 64;
/// PARSEC and Apache run with up to 24 threads in the paper.
pub const PARSEC_CORES: usize = 24;

/// The paper's core count for an app: [`SPLASH_CORES`] for SPLASH-2,
/// [`PARSEC_CORES`] for PARSEC and Apache.
pub(crate) fn paper_cores(p: &AppProfile) -> usize {
    if p.suite == Suite::Splash2 {
        SPLASH_CORES
    } else {
        PARSEC_CORES
    }
}

/// Per app, one clean cell per scheme of `row`, each at `cores(app)`.
fn grid(apps: &[AppProfile], row: &[Scheme], cores: impl Fn(&AppProfile) -> usize) -> Vec<Cell> {
    let mut cells = Vec::new();
    for p in apps {
        cells.extend(row.iter().map(|&s| Cell::clean(p.name, s, cores(p))));
    }
    cells
}

/// `metric` of every report of a table row.
fn each(row: &[&RunReport], metric: fn(&RunReport) -> f64) -> Vec<f64> {
    row.iter().map(|r| metric(r)).collect()
}

/// Overheads of a row's runs over its first, checkpoint-free run.
fn overheads(row: &[&RunReport]) -> Vec<f64> {
    row[1..].iter().map(|r| overhead_pct(r, row[0])).collect()
}

/// One figure or table of the evaluation.
#[derive(Clone, Copy, Debug)]
pub struct Section {
    /// What `reproduce --only` matches by prefix, e.g. `fig6_3a`.
    pub name: &'static str,
    /// The heading `reproduce` prints above the table.
    pub title: &'static str,
    /// The cells the table reads.
    pub cells: fn() -> Vec<Cell>,
    /// Renders the table from the reports of `cells`, in order, run at
    /// the given scale.
    pub table: fn(&[&RunReport], ExpScale) -> Table,
}

impl Section {
    /// The section as `reproduce` prints it: heading, blank line, table.
    /// `runs` must include every cell of `cells`.
    pub fn render(&self, runs: &Runs) -> String {
        let table = (self.table)(&runs.of(&(self.cells)()), runs.scale);
        format!("## {}\n\n{}\n", self.title, table.render())
    }
}

/// Every section, in the paper's order.
pub static SECTIONS: [Section; 11] = [
    fig6_1::SECTION,
    fig6_2::SECTION,
    fig6_3::SPLASH,
    fig6_3::PARSEC,
    fig6_4::SECTION,
    fig6_5::SECTION,
    fig6_6::OVERHEAD_ENERGY,
    fig6_6::RECOVERY,
    fig6_7::SECTION,
    fig6_8::SECTION,
    table6_1::SECTION,
];

/// The sections, in [`SECTIONS`] order, whose name starts with one of
/// `prefixes`; every section when `prefixes` is empty. A prefix that
/// matches no section is an error naming it.
pub fn select<S: AsRef<str>>(prefixes: &[S]) -> Result<Vec<&'static Section>, String> {
    let matches = |s: &Section, p: &S| s.name.starts_with(p.as_ref());
    if let Some(p) = prefixes
        .iter()
        .find(|p| !SECTIONS.iter().any(|s| matches(s, p)))
    {
        return Err(format!("no section name starts with {:?}", p.as_ref()));
    }
    let all = prefixes.is_empty();
    Ok(SECTIONS
        .iter()
        .filter(|s| all || prefixes.iter().any(|p| matches(s, p)))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{distinct, Kind};

    #[test]
    fn prefixes_select_whole_figures() {
        let names = |p: &[&str]| {
            select(p)
                .unwrap()
                .iter()
                .map(|s| s.name)
                .collect::<Vec<_>>()
        };
        assert_eq!(names(&["fig6_3"]), ["fig6_3a", "fig6_3b"]);
        assert_eq!(names(&["fig6_6"]), ["fig6_6ab", "fig6_6c"]);
        assert_eq!(names(&["table6_1", "fig6_1"]), ["fig6_1", "table6_1"]);
        assert_eq!(names(&[]).len(), SECTIONS.len());
        assert!(select(&["nosuch"]).is_err());
    }

    #[test]
    fn the_full_figure_set_is_339_distinct_cells() {
        let listed: Vec<Cell> = SECTIONS.iter().flat_map(|s| (s.cells)()).collect();
        let cells = distinct(listed.iter().copied());
        let count = |k| cells.iter().filter(|c| c.kind == k).count();
        assert_eq!((listed.len(), cells.len()), (638, 339));
        assert_eq!(
            [Kind::Clean, Kind::Io, Kind::Fault].map(count),
            [212, 10, 117]
        );
        // Every fault cell's clean twin is listed too, so these are
        // exactly the runs `Runs` simulates.
        let twin_listed = |c: &Cell| cells.contains(&c.with(Kind::Clean));
        assert!(cells
            .iter()
            .all(|c| c.kind != Kind::Fault || twin_listed(c)));
    }
}
