//! Metric names and units, and the result the benchmark prints.
//!
//! The two tables below are the benchmark's metric contract; the
//! repository-root `BENCHMARK.json` lists the same names and units, and
//! the self-test (`tests/self_test.rs`) holds the two in agreement.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by an untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("sim_minsts_per_s", "Minsts/s"),
    ("jobs_per_s", "jobs/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_cpi", "cycles/inst"),
    ("sim_ckpt_stall_pct", "%"),
];

/// Per-layer metrics, printed by a traced run (`--trace 1`). Layers a
/// workload does not exercise read 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // engine: the event queue.
    ("engine.events", "count"),
    ("engine.events_per_kinst", "events/kinst"),
    ("engine.peak_queue_len", "count"),
    // core::machine dispatch, `step` timed and split by the messages it sent.
    ("machine.step.local.count", "count"),
    ("machine.step.local.ns", "ns"),
    ("machine.step.coherence.count", "count"),
    ("machine.step.coherence.ns", "ns"),
    ("machine.step.dep.count", "count"),
    ("machine.step.dep.ns", "ns"),
    ("machine.step.proto.count", "count"),
    ("machine.step.proto.ns", "ns"),
    ("machine.ns_per_event", "ns"),
    // core::machine per event kind, from `trace_step`.
    ("machine.event.Step.count", "count"),
    ("machine.event.Step.ns", "ns"),
    ("machine.event.Proto.count", "count"),
    ("machine.event.Proto.ns", "ns"),
    ("machine.event.DrainTick.count", "count"),
    ("machine.event.DrainTick.ns", "ns"),
    ("machine.event.RetryCkpt.count", "count"),
    ("machine.event.RetryCkpt.ns", "ns"),
    ("machine.event.RetryRotate.count", "count"),
    ("machine.event.RetryRotate.ns", "ns"),
    ("machine.event.FaultDetect.count", "count"),
    ("machine.event.FaultDetect.ns", "ns"),
    ("machine.event.IoTick.count", "count"),
    ("machine.event.IoTick.ns", "ns"),
    ("machine.event.other.count", "count"),
    ("machine.event.other.ns", "ns"),
    // mem: caches, memory and the undo log.
    ("mem.l1_accesses", "count"),
    ("mem.l2_accesses", "count"),
    ("mem.mem_lines", "count"),
    ("mem.log_entries", "count"),
    ("mem.log_max_interval_bytes", "B"),
    // coherence: messages and the directory.
    ("coherence.msgs.base", "count"),
    ("coherence.msgs.dep", "count"),
    ("coherence.msgs.protocol", "count"),
    ("coherence.dir.entries", "count"),
    ("coherence.dir.resident_bytes", "B"),
    ("coherence.dir.spill_live", "count"),
    // core::proto + machine::ckpt.
    ("ckpt.episodes", "count"),
    ("ckpt.processor_checkpoints", "count"),
    ("ckpt.busy_aborts", "count"),
    ("ckpt.declines", "count"),
    ("ckpt.nacks", "count"),
    ("ckpt.abort_ratio", "ratio"),
    ("stall.sync", "cycles"),
    ("stall.wb", "cycles"),
    ("stall.imbalance", "cycles"),
    ("stall.ipc", "cycles"),
    // core::machine::rollback.
    ("rollback.count", "count"),
    ("rollback.irec_size_mean", "cores"),
    ("rollback.recovery_cycles_mean", "cycles"),
    // workloads + machine build.
    ("machine.build_ns", "ns"),
    // harness::oracle.
    ("oracle.golden.capture_ns", "ns"),
    ("oracle.golden.computed", "count"),
    ("oracle.golden.reused", "count"),
    ("oracle.golden.reuse_ratio", "ratio"),
    ("oracle.job.ns.p50", "ns"),
    ("oracle.job.ns.p90", "ns"),
    ("oracle.verdict.pass", "count"),
    ("oracle.verdict.vacuous", "count"),
    ("oracle.verdict.fail", "count"),
    // harness::store.
    ("store.save_ns", "ns"),
    ("store.load_ns", "ns"),
    ("store.save_golden_ns", "ns"),
    ("store.load_golden_ns", "ns"),
    ("store.objects", "count"),
    // harness::pool.
    ("pool.busy_s", "s"),
    ("pool.idle_s", "s"),
    ("pool.idle_ratio", "ratio"),
    // The cost of tracing itself.
    ("trace.untraced_s", "s"),
    ("trace.traced_s", "s"),
    ("trace.overhead_s", "s"),
];

/// What one benchmark run found: work attempted and failed, the checks
/// that did not hold, and the metric values by name.
#[derive(Default)]
pub struct Outcome {
    /// Machine runs (sim cells, campaign jobs) attempted.
    pub attempted: u64,
    /// Machine runs that panicked, hit a bound, or got a failure verdict.
    pub failed: u64,
    /// Output checks that did not hold; any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// Lines of human-readable detail printed before the metrics.
    pub notes: Vec<String>,
    values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records metric `name`, which must be in one of the two tables.
    pub fn set(&mut self, name: &str, value: f64) {
        let key = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .find(|n| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the metric tables"));
        self.values.insert(key, value);
    }

    /// Records a failed check.
    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    /// Prints the human-readable report, then the one-line JSON result
    /// (the last line of standard output) with every metric of `table`.
    /// Returns whether every check held.
    pub fn print(&self, title: &str, table: &[(&str, &str)]) -> bool {
        println!("{title}");
        for n in &self.notes {
            println!("  {n}");
        }
        for (name, unit) in table {
            println!("  {name:<34} {:>16.6} {unit}", self.value(name));
        }
        println!(
            "  {:<34} {:>16.6} failed/attempted ({} of {})",
            "fail_ratio",
            crate::stats::ratio(self.failed as f64, self.attempted as f64),
            self.failed,
            self.attempted
        );
        for p in &self.problems {
            eprintln!("CHECK FAILED: {p}");
        }
        let correct = self.problems.is_empty() && self.failed == 0;
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    self.value(name)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        correct
    }

    fn value(&self, name: &str) -> f64 {
        let v = self.values.get(name).copied().unwrap_or(0.0);
        if v.is_finite() {
            v
        } else {
            0.0
        }
    }
}
