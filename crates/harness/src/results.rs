//! Typed aggregation of campaign results, with CSV and JSON emitters.
//!
//! Every emitted field is a deterministic function of the job and its
//! run (no wall-clock times, no thread ids), and rows are ordered by job
//! id — so the same campaign produces **byte-identical** output for any
//! worker count. Timing goes to the human summary only.
//!
//! The unit of aggregation is the [`CampaignRow`]: the [`Job`] identity
//! plus a [`RunRow`] holding every run-derived field the tables render.
//! A `RunRow` is *exactly* what the content-addressed store
//! ([`crate::store`]) persists — a cached row and a freshly computed one
//! flow through the same rendering path, which is what makes a warm
//! rerun's CSV byte-identical to the cold run's.

use std::fmt::Write as _;

use crate::oracle::{GoldenFootprint, GoldenStats, JobOutcome, OracleVerdict};
use crate::spec::Job;

/// The run-derived fields of one result row, in CSV column order.
///
/// Everything here is a pure function of the job's semantic identity
/// (scheme, app, cores, seed, fault plan, scale, oracle flag) — never of
/// worker count or wall clock — which is what makes
/// it cacheable under a content key. `ichk_pct` is kept pre-rendered
/// (`{:.3}`) so a store round-trip reproduces the emitted decimal
/// byte-for-byte.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRow {
    /// Faults that fired, `f<core>@<cycle>` terms (`-` if none).
    pub fired: String,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Instructions retired across cores.
    pub insts: u64,
    /// Completed checkpoint episodes.
    pub checkpoints: u64,
    /// Completed rollback episodes.
    pub rollbacks: u64,
    /// Total messages of all classes.
    pub msgs: u64,
    /// Undo-log entries at end of run.
    pub log_entries: u64,
    /// Largest per-interval log footprint (bytes).
    pub log_peak_bytes: u64,
    /// Protocol/synchronization stall cycles.
    pub stall_sync: u64,
    /// Own-writeback stall cycles.
    pub stall_wb: u64,
    /// Waiting-for-others stall cycles.
    pub stall_imbalance: u64,
    /// Demand-miss queueing cycles behind checkpoint traffic.
    pub stall_ipc: u64,
    /// Sum of the four stall categories.
    pub stall_total: u64,
    /// Total cycles spent in recovery (sum over rollbacks).
    pub recovery_cycles: u64,
    /// Mean ICHK size as a percent of the machine, rendered `{:.3}`.
    pub ichk_pct: String,
    /// Oracle verdict (the CSV renders its tag and, for failures, the
    /// diagnosis in the detail column).
    pub verdict: OracleVerdict,
    /// Which comparisons the oracle performed.
    pub checks: String,
}

impl JobOutcome {
    /// Projects this outcome onto the row the result tables render (and
    /// the store persists). The projection is total: every field the
    /// CSV/JSON emitters read is captured here.
    pub fn run_row(&self) -> RunRow {
        RunRow {
            fired: self.fired.clone(),
            cycles: self.report.cycles,
            insts: self.report.insts,
            checkpoints: self.report.checkpoints,
            rollbacks: self.report.rollbacks,
            msgs: self.report.msgs.total(),
            log_entries: self.report.log_entries,
            log_peak_bytes: self.report.log_max_interval_bytes,
            stall_sync: self.report.metrics.breakdown.sync_delay,
            stall_wb: self.report.metrics.breakdown.wb_delay,
            stall_imbalance: self.report.metrics.breakdown.wb_imbalance,
            stall_ipc: self.report.metrics.breakdown.ipc_delay,
            stall_total: self.report.metrics.breakdown.total(),
            recovery_cycles: {
                // Mean × count reconstructs the sum a RunningStats holds.
                let r = &self.report.metrics.recovery_cycles;
                (r.mean() * r.count() as f64).round() as u64
            },
            ichk_pct: format!("{:.3}", 100.0 * self.report.ichk_fraction()),
            verdict: self.verdict.clone(),
            checks: self.checks.clone(),
        }
    }
}

/// One aggregated result row: the job identity plus its run-derived
/// fields, and whether the row was served from a result store.
#[derive(Clone, Debug)]
pub struct CampaignRow {
    /// The job this row describes.
    pub job: Job,
    /// The run-derived fields.
    pub run: RunRow,
    /// `true` when the row came out of a `--store` cache instead of a
    /// fresh simulation. Reporting only: never rendered into the tables,
    /// so cached and recomputed rows are byte-indistinguishable.
    pub cached: bool,
}

/// Cache accounting of a store-backed campaign execution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Rows served from the store.
    pub hits: usize,
    /// Rows simulated (cache misses) and written back.
    pub recomputed: usize,
}

/// Aggregated results of one campaign execution.
#[derive(Clone, Debug)]
pub struct CampaignResult {
    /// Result rows sorted by job id.
    pub rows: Vec<CampaignRow>,
    /// Worker threads used (reporting only; never affects the rows).
    pub jobs_used: usize,
    /// Wall-clock milliseconds (reporting only).
    pub wall_ms: u128,
    /// Cache accounting when a result store was in use.
    pub store: Option<StoreStats>,
    /// Golden-replay cache accounting. [`crate::run_jobs`] always fills
    /// it; `None` only in a result assembled by hand, such as the
    /// uncached reference the tests build from [`crate::run_job`] rows.
    pub golden: Option<GoldenStats>,
    /// Per-base-config resident golden snapshots at campaign end
    /// (diagnostics only; empty when the cache held nothing).
    pub golden_footprint: Vec<GoldenFootprint>,
}

/// The CSV column set, in order.
const COLUMNS: &[&str] = &[
    "id",
    "scheme",
    "app",
    "cores",
    "seed",
    "plan",
    "fired",
    "cycles",
    "insts",
    "checkpoints",
    "rollbacks",
    "msgs",
    "log_entries",
    "log_peak_bytes",
    "stall_sync",
    "stall_wb",
    "stall_imbalance",
    "stall_ipc",
    "stall_total",
    "recovery_cycles",
    "ichk_pct",
    "oracle",
    "oracle_checks",
    "detail",
];

impl CampaignResult {
    fn row_fields(r: &CampaignRow) -> Vec<String> {
        let run = &r.run;
        let detail = match &run.verdict {
            OracleVerdict::Fail(d) => d.clone(),
            _ => String::new(),
        };
        vec![
            r.job.id.to_string(),
            r.job.scheme.label().to_string(),
            r.job.app.clone(),
            r.job.cores.to_string(),
            r.job.seed.to_string(),
            r.job.plan.label(),
            run.fired.clone(),
            run.cycles.to_string(),
            run.insts.to_string(),
            run.checkpoints.to_string(),
            run.rollbacks.to_string(),
            run.msgs.to_string(),
            run.log_entries.to_string(),
            run.log_peak_bytes.to_string(),
            run.stall_sync.to_string(),
            run.stall_wb.to_string(),
            run.stall_imbalance.to_string(),
            run.stall_ipc.to_string(),
            run.stall_total.to_string(),
            run.recovery_cycles.to_string(),
            run.ichk_pct.clone(),
            run.verdict.tag().to_string(),
            run.checks.clone(),
            detail,
        ]
    }

    /// Renders the aggregate CSV (header + one row per job, id order).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&COLUMNS.join(","));
        out.push('\n');
        for r in &self.rows {
            let fields: Vec<String> = Self::row_fields(r).iter().map(|f| csv_field(f)).collect();
            out.push_str(&fields.join(","));
            out.push('\n');
        }
        out
    }

    /// Renders the results as a JSON array of objects (same fields as the
    /// CSV, with numeric fields as JSON numbers).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, r) in self.rows.iter().enumerate() {
            let fields = Self::row_fields(r);
            let mut obj = String::from("  {");
            for (j, (name, value)) in COLUMNS.iter().zip(&fields).enumerate() {
                if j > 0 {
                    obj.push_str(", ");
                }
                let numeric = matches!(
                    *name,
                    "id" | "cores"
                        | "seed"
                        | "cycles"
                        | "insts"
                        | "checkpoints"
                        | "rollbacks"
                        | "msgs"
                        | "log_entries"
                        | "log_peak_bytes"
                        | "stall_sync"
                        | "stall_wb"
                        | "stall_imbalance"
                        | "stall_ipc"
                        | "stall_total"
                        | "recovery_cycles"
                        | "ichk_pct"
                );
                if numeric {
                    let _ = write!(obj, "\"{name}\": {value}");
                } else {
                    let _ = write!(obj, "\"{name}\": {}", json_string(value));
                }
            }
            obj.push('}');
            if i + 1 < self.rows.len() {
                obj.push(',');
            }
            out.push_str(&obj);
            out.push('\n');
        }
        out.push_str("]\n");
        out
    }

    /// Rows whose oracle verdict is a failure.
    pub fn failures(&self) -> Vec<&CampaignRow> {
        self.rows
            .iter()
            .filter(|r| r.run.verdict.is_failure())
            .collect()
    }

    /// Human summary (the only place wall time appears).
    pub fn summary(&self) -> String {
        let faulty = self.rows.iter().filter(|r| !r.job.plan.is_clean()).count();
        let passed = self
            .rows
            .iter()
            .filter(|r| matches!(r.run.verdict, OracleVerdict::Pass))
            .count();
        let vacuous = self
            .rows
            .iter()
            .filter(|r| matches!(r.run.verdict, OracleVerdict::Vacuous))
            .count();
        let store = match &self.store {
            Some(s) => format!("; store: {} cached, {} recomputed", s.hits, s.recomputed),
            None => String::new(),
        };
        let golden = match &self.golden {
            Some(g) => format!("; {}", g.line()),
            None => String::new(),
        };
        format!(
            "{} jobs ({} faulty: {} oracle-passed, {} vacuous, {} FAILED) on {} workers in {:.1}s{}{}",
            self.rows.len(),
            faulty,
            passed,
            vacuous,
            self.failures().len(),
            self.jobs_used,
            self.wall_ms as f64 / 1_000.0,
            store,
            golden
        )
    }
}

/// Quotes a CSV field if it contains a comma, quote, or a newline or
/// carriage return (a bare `\r` would desynchronize CRLF-aware readers).
pub(crate) fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') || s.contains('\r') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_quoting() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
        // Regression: a bare carriage return must force quoting just
        // like a newline does, or CRLF-aware readers split the record.
        assert_eq!(csv_field("cr\rhere"), "\"cr\rhere\"");
        assert_eq!(csv_field("nl\nhere"), "\"nl\nhere\"");
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_string("x"), "\"x\"");
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        // Regression: every control character below 0x20 must come out
        // escaped — a raw \r, tab or NUL in an oracle `detail` field
        // (machine diagnostics) would emit invalid JSON.
        assert_eq!(json_string("a\rb"), "\"a\\rb\"");
        assert_eq!(json_string("a\tb"), "\"a\\tb\"");
        assert_eq!(json_string("a\x00b"), "\"a\\u0000b\"");
        assert_eq!(json_string("a\x01\x1fb"), "\"a\\u0001\\u001fb\"");
        // And the escaped output of an all-control-char string parses as
        // a JSON string: no raw bytes below 0x20 survive.
        let s: String = (0u8..0x20).map(|b| b as char).collect();
        let escaped = json_string(&s);
        assert!(escaped.chars().all(|c| c as u32 >= 0x20));
    }
}
