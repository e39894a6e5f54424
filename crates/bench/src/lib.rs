//! Experiment harness for reproducing every table and figure of the paper.
//!
//! `bin/reproduce` regenerates the evaluation (Figs 6.1–6.8, Table 6.1)
//! from the section registry in [`experiments`]: each section names the
//! [`Cell`]s it reads, and [`Runs`] simulates the union of the selected
//! sections' cells, each distinct cell once, on the campaign harness's
//! worker pool. `reproduce --only PREFIX` keeps the sections whose name
//! starts with `PREFIX`. The other binaries vary machine parameters a
//! `Cell` does not carry (`ablations`, `directory_orgs`, `nvm_sweep`,
//! `swdep_compare`) or guard criterion results (`bench_guard`). The
//! criterion benches under `benches/` exercise reduced-scale versions of
//! the same experiments plus micro-benchmarks of the core data structures.
//!
//! # Scaling
//!
//! The paper simulates full application runs with a 4M-instruction
//! checkpoint interval. This harness defaults to a proportionally scaled
//! run (interval and run length divided by ~25) so the complete matrix
//! finishes in minutes; set `REBOUND_SCALE=full` for paper-scale intervals
//! or `REBOUND_SCALE=tiny` for smoke tests. Relative results — who wins,
//! by what factor — are scale-stable; `EXPERIMENTS.md` records the scale
//! used.

pub mod experiments;

use std::collections::{HashMap, HashSet};

use rebound_core::{IoPressure, Machine, MachineConfig, RunReport, Scheme};
use rebound_engine::{CoreId, Cycle};
use rebound_power::{run_energy, ActivityCounts, EnergyParams, PowerSummary};
use rebound_workloads::profile_named;

/// Experiment scale: checkpoint interval and per-core instruction quota.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExpScale {
    /// Checkpoint interval, instructions (paper: 4M).
    pub interval: u64,
    /// Instructions per core.
    pub quota: u64,
    /// Fault-detection latency bound L, cycles.
    pub detect_latency: u64,
}

impl ExpScale {
    /// The default scaled configuration (~1/25 of the paper).
    pub fn standard() -> ExpScale {
        ExpScale {
            interval: 150_000,
            quota: 450_000,
            detect_latency: 5_000,
        }
    }

    /// Smoke-test scale for CI and criterion.
    pub fn tiny() -> ExpScale {
        ExpScale {
            interval: 20_000,
            quota: 60_000,
            detect_latency: 1_000,
        }
    }

    /// Paper-scale intervals (slow: full 4M-instruction intervals).
    pub fn full() -> ExpScale {
        ExpScale {
            interval: 4_000_000,
            quota: 12_000_000,
            detect_latency: 50_000,
        }
    }

    /// Reads `REBOUND_SCALE`: `tiny`, `std` or `full`, and
    /// [`ExpScale::standard`] when unset. Any other value exits the
    /// process with status 2, naming the accepted values, rather than
    /// quietly running another scale.
    pub fn from_env() -> ExpScale {
        match std::env::var("REBOUND_SCALE").as_deref() {
            Err(std::env::VarError::NotPresent) | Ok("std") => ExpScale::standard(),
            Ok("tiny") => ExpScale::tiny(),
            Ok("full") => ExpScale::full(),
            _ => {
                eprintln!(
                    "REBOUND_SCALE={:?} is not a scale: use tiny, std or full, or leave it unset",
                    std::env::var_os("REBOUND_SCALE").unwrap_or_default()
                );
                std::process::exit(2);
            }
        }
    }

    /// The instruction-count ratio versus the paper's 4M interval; used to
    /// rescale absolute quantities (like log bytes) for reporting.
    pub fn vs_paper(&self) -> f64 {
        self.interval as f64 / 4.0e6
    }
}

/// Builds the machine configuration for one experiment run, at
/// [`MachineConfig::paper`]'s fixed seed.
pub fn config_for(scheme: Scheme, cores: usize, scale: ExpScale) -> MachineConfig {
    let mut cfg = MachineConfig::paper(cores);
    cfg.scheme = scheme;
    cfg.ckpt_interval_insts = scale.interval;
    cfg.detect_latency = scale.detect_latency;
    cfg
}

/// What a [`Cell`]'s run adds to the fault-free machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kind {
    /// Fault-free, no forced checkpoints.
    Clean,
    /// Output-I/O pressure (Fig 6.7): core 0 forces a checkpoint every
    /// `interval * 3 / 2` cycles — the paper's one per half checkpoint
    /// interval, at a CPI of about 3.
    Io,
    /// One fault detected on core 0 at 55% of the clean twin's cycles
    /// (Fig 6.6(c)): just before the second interval's checkpoints, when
    /// the log holds nearly a full interval of writebacks.
    Fault,
}

/// One simulation of the evaluation. Together with the scale, a cell
/// determines its run, so equal cells are simulated once.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Cell {
    /// Catalog application name.
    pub app: &'static str,
    /// Checkpointing scheme.
    pub scheme: Scheme,
    /// Core count.
    pub cores: usize,
    /// Clean, I/O-pressured or faulty.
    pub kind: Kind,
}

impl Cell {
    /// A fault-free cell without I/O pressure.
    pub fn clean(app: &'static str, scheme: Scheme, cores: usize) -> Cell {
        Cell {
            app,
            scheme,
            cores,
            kind: Kind::Clean,
        }
    }

    /// The same configuration run as `kind`.
    pub fn with(self, kind: Kind) -> Cell {
        Cell { kind, ..self }
    }

    /// Simulates the cell. `clean` is the report of the cell's clean twin
    /// (`self.with(Kind::Clean)`); only a fault cell reads it, to place
    /// its fault.
    pub fn run(&self, scale: ExpScale, clean: Option<&RunReport>) -> RunReport {
        let mut cfg = config_for(self.scheme, self.cores, scale);
        if self.kind == Kind::Io {
            cfg.io = Some(IoPressure {
                core: CoreId(0),
                period_cycles: scale.interval * 3 / 2,
            });
        }
        let p = profile_named(self.app).expect("catalog app");
        let mut m = Machine::from_profile(&cfg, &p, scale.quota);
        if self.kind == Kind::Fault {
            let clean = clean.expect("a fault cell needs its clean twin's report");
            m.schedule_fault_detection(CoreId(0), Cycle((clean.cycles as f64 * 0.55) as u64));
        }
        m.run_to_completion()
    }
}

/// `cells` in first-occurrence order, each once.
pub(crate) fn distinct(cells: impl IntoIterator<Item = Cell>) -> Vec<Cell> {
    let mut seen = HashSet::new();
    cells.into_iter().filter(|c| seen.insert(*c)).collect()
}

/// The reports of a set of cells, each distinct cell simulated once.
#[derive(Debug)]
pub struct Runs {
    scale: ExpScale,
    reports: HashMap<Cell, RunReport>,
}

impl Runs {
    /// Simulates every distinct cell of `cells` on `workers` threads of
    /// the campaign harness's pool, in two passes: the clean and I/O
    /// cells, plus the clean twin of every fault cell; then the fault
    /// cells, which read their twin's cycles. Reports do not depend on
    /// `workers`, since every cell is reproducible from its own
    /// configuration.
    pub fn new(cells: &[Cell], scale: ExpScale, workers: usize) -> Runs {
        let is_fault = |c: &Cell| c.kind == Kind::Fault;
        let first = cells
            .iter()
            .map(|&c| if is_fault(&c) { c.with(Kind::Clean) } else { c });
        let faults = cells.iter().copied().filter(is_fault);
        let mut reports = HashMap::new();
        for pass in [distinct(first), distinct(faults)] {
            let out = rebound_harness::parallel_map(&pass, workers, |c| {
                c.run(scale, reports.get(&c.with(Kind::Clean)))
            });
            reports.extend(pass.into_iter().zip(out));
        }
        Runs { scale, reports }
    }

    /// How many distinct cells were simulated.
    pub fn simulated(&self) -> usize {
        self.reports.len()
    }

    /// The report of one simulated cell.
    ///
    /// # Panics
    ///
    /// If `cell` was not among the cells this was built from.
    pub fn get(&self, cell: &Cell) -> &RunReport {
        &self.reports[cell]
    }

    /// The reports of `cells`, in order.
    pub(crate) fn of(&self, cells: &[Cell]) -> Vec<&RunReport> {
        cells.iter().map(|c| self.get(c)).collect()
    }
}

/// Checkpointing overhead of `run` as a percentage of its checkpoint-free
/// `base`'s execution time — the y-axis of Figs 6.3, 6.4 and 6.6(a).
pub fn overhead_pct(run: &RunReport, base: &RunReport) -> f64 {
    100.0 * (run.cycles as f64 - base.cycles as f64) / base.cycles as f64
}

/// Extracts the power model's activity counts from a run.
pub fn activity_of(report: &RunReport) -> ActivityCounts {
    ActivityCounts {
        instructions: report.insts,
        l1_accesses: report.metrics.l1_accesses.get(),
        l2_accesses: report.metrics.l2_accesses.get(),
        mem_lines: report.metrics.mem_lines.get(),
        net_msgs: report.msgs.total(),
        dep_ops: report.metrics.wsig_ops.get(),
        lwid_updates: report.metrics.lwid_updates.get(),
        log_entries: report.metrics.log_entries.get(),
        cycles: report.cycles,
        has_dep_hardware: report.scheme.tracks_dependences(),
    }
}

/// Energy/power summary of a run under the default 45 nm parameters.
pub fn energy_of(report: &RunReport, params: &EnergyParams) -> PowerSummary {
    run_energy(params, &activity_of(report))
}

/// Fixed-width table printer for figure/table binaries.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column headers.
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> Table {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) {
        self.rows.push(cells.into_iter().map(Into::into).collect());
    }

    /// A table of one row per `(label, values)` and a last `Average` row
    /// of the column means; `fmt(column, value)` prints each value.
    pub(crate) fn with_average<'a, S: Into<String>>(
        header: impl IntoIterator<Item = S>,
        rows: impl IntoIterator<Item = (&'a str, Vec<f64>)>,
        fmt: impl Fn(usize, f64) -> String,
    ) -> Table {
        let mut t = Table::new(header);
        let (mut sums, mut n) = (Vec::new(), 0.0);
        let mut push = |label: &str, values: &[f64]| {
            let cells = values.iter().enumerate().map(|(i, &v)| fmt(i, v));
            t.row(std::iter::once(label.to_string()).chain(cells));
        };
        for (label, values) in rows {
            sums.resize(values.len(), 0.0);
            for (s, v) in sums.iter_mut().zip(&values) {
                *s += v;
            }
            n += 1.0;
            push(label, &values);
        }
        let means: Vec<f64> = sums.iter().map(|s| s / n).collect();
        push("Average", &means);
        t
    }

    /// Renders the table as aligned text (also valid Markdown).
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate().take(ncols) {
                widths[i] = widths[i].max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            let mut s = String::from("|");
            for (i, w) in widths.iter().enumerate() {
                let c = cells.get(i).map(String::as_str).unwrap_or("");
                s.push_str(&format!(" {c:<w$} |"));
            }
            s
        };
        let mut out = fmt_row(&self.header);
        out.push('\n');
        out.push('|');
        for w in &widths {
            out.push_str(&format!("{:-<w$}|", "", w = w + 2));
        }
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered() {
        assert!(ExpScale::tiny().interval < ExpScale::standard().interval);
        assert!(ExpScale::standard().interval < ExpScale::full().interval);
        assert!(ExpScale::standard().vs_paper() < 1.0);
    }

    #[test]
    fn table_renders_aligned_markdown() {
        let mut t = Table::new(["App", "Ovh%"]);
        t.row(["Ocean", "2.0"]);
        let s = t.render();
        assert!(s.contains("| App   | Ovh% |"));
        assert!(s.contains("| Ocean | 2.0  |"));
        assert!(s.lines().count() == 3);
    }

    #[test]
    fn tiny_overhead_cell_runs() {
        let run = Cell::clean("Blackscholes", Scheme::REBOUND, 4);
        let base = Cell::clean("Blackscholes", Scheme::None, 4);
        let runs = Runs::new(&[run, base], ExpScale::tiny(), 2);
        assert!(runs.get(&base).cycles > 0);
        assert!(runs.get(&run).checkpoints > 0);
        // Overhead is finite and sane.
        let ovh = overhead_pct(runs.get(&run), runs.get(&base));
        assert!(ovh > -50.0 && ovh < 500.0, "overhead {ovh}%");
    }

    #[test]
    fn activity_counts_flow_to_energy() {
        let r = Cell::clean("Blackscholes", Scheme::REBOUND, 4).run(ExpScale::tiny(), None);
        let s = energy_of(&r, &EnergyParams::default());
        assert!(s.energy.total() > 0.0);
        assert!(s.energy.dep_hardware > 0.0, "Rebound has Dep activity");
    }
}
