//! Driving one `Machine` from outside: a plain run, and the two traced
//! passes that split its host time by layer.
//!
//! Every pass drives the machine only through its public surface
//! (`step`, `trace_step`, `msg_stats`, `queue_len`, `report`,
//! `dir_footprint`) and turns a machine panic or a runaway run into an
//! error instead of aborting the benchmark.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use rebound_core::{Machine, RunReport};
use rebound_engine::RunningStats;

use crate::guard::Counts;
use crate::report::Outcome;
use crate::stats::{panic_text, ratio};

/// Bounds that turn a livelocked or runaway machine into an error.
#[derive(Clone, Copy)]
pub struct Limits {
    /// Events processed before the run counts as livelocked.
    pub max_events: u64,
    /// Simulated cycle past which the run counts as runaway.
    pub max_cycle: u64,
}

/// Step classes, by the messages a `step` sent: none, base coherence
/// only, dependence maintenance, or checkpoint protocol (the highest
/// class sent names the step).
const STEP_CLASSES: [&str; 4] = ["local", "coherence", "dep", "proto"];

/// Event kinds as `trace_step` prints them; `other` catches a kind this
/// list does not know yet.
const EVENT_KINDS: [&str; 8] = [
    "Step",
    "Proto",
    "DrainTick",
    "RetryCkpt",
    "RetryRotate",
    "FaultDetect",
    "IoTick",
    "other",
];

/// Runs `f`, converting a panic into an error.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| Err(format!("panic: {}", panic_text(&*p))))
}

fn bounded(m: &Machine, events: u64, lim: Limits) -> Result<(), String> {
    if events >= lim.max_events {
        return Err(format!("livelock: {events} events without finishing"));
    }
    if m.now().raw() > lim.max_cycle {
        return Err(format!("runaway: past cycle {}", lim.max_cycle));
    }
    Ok(())
}

/// Runs `m` to completion untraced; returns the events processed.
pub fn run(m: &mut Machine, lim: Limits) -> Result<u64, String> {
    guarded(|| {
        let mut events = 0u64;
        while m.step() {
            events += 1;
            bounded(m, events, lim)?;
        }
        Ok(events)
    })
}

/// Host time and counts the traced passes attribute to each layer,
/// summed over every machine they traced.
#[derive(Default)]
pub struct Layers {
    step: [(u64, u64); 4],
    kinds: [(u64, u64); 8],
    peak_queue: usize,
    events: u64,
    insts: u64,
    l1: u64,
    l2: u64,
    mem_lines: u64,
    log_entries: u64,
    log_max_interval_bytes: u64,
    msgs: [u64; 3],
    dir_entries: usize,
    dir_resident_bytes: usize,
    dir_spill_live: usize,
    episodes: u64,
    processor_checkpoints: u64,
    busy_aborts: u64,
    declines: u64,
    nacks: u64,
    stall: [u64; 4],
    rollbacks: u64,
    irec_sizes: RunningStats,
    recovery_cycles: RunningStats,
    /// Host seconds of untraced runs of the same machines.
    untraced_s: f64,
}

impl Layers {
    /// Traces `m` once, timing every `step` and attributing it by the
    /// message classes and queue growth it caused. Returns the events.
    pub fn step_pass(&mut self, m: &mut Machine, lim: Limits) -> Result<u64, String> {
        guarded(|| {
            let mut events = 0u64;
            loop {
                let s = m.msg_stats();
                let before = [s.base.get(), s.dep.get(), s.protocol.get()];
                let t = Instant::now();
                let more = m.step();
                let ns = t.elapsed().as_nanos() as u64;
                if !more {
                    return Ok(events);
                }
                let s = m.msg_stats();
                let class = if s.protocol.get() > before[2] {
                    3
                } else if s.dep.get() > before[1] {
                    2
                } else if s.base.get() > before[0] {
                    1
                } else {
                    0
                };
                self.step[class].0 += 1;
                self.step[class].1 += ns;
                self.peak_queue = self.peak_queue.max(m.queue_len());
                events += 1;
                bounded(m, events, lim)?;
            }
        })
    }

    /// Traces `m` once through `trace_step`, timing each event (its
    /// `Debug` description included) by kind. Returns the events.
    pub fn event_pass(&mut self, m: &mut Machine, lim: Limits) -> Result<u64, String> {
        guarded(|| {
            let mut events = 0u64;
            loop {
                let t = Instant::now();
                let Some(desc) = m.trace_step() else {
                    break;
                };
                let ns = t.elapsed().as_nanos() as u64;
                // `trace_step` prints "<cycle> <Event Debug> ...".
                let kind = desc.split_whitespace().nth(1).unwrap_or("");
                let kind = kind.trim_end_matches(|c: char| !c.is_alphanumeric());
                let k = EVENT_KINDS[..7]
                    .iter()
                    .position(|n| *n == kind)
                    .unwrap_or(7);
                self.kinds[k].0 += 1;
                self.kinds[k].1 += ns;
                events += 1;
                bounded(m, events, lim)?;
            }
            if m.is_finished() {
                Ok(events)
            } else {
                Err("event queue drained with live state".to_string())
            }
        })
    }

    /// Adds the simulated counts of one finished untraced run that took
    /// `secs` host seconds for `events` events.
    pub fn add_run(&mut self, m: &Machine, events: u64, secs: f64) {
        let r = m.report();
        let d = m.dir_footprint();
        self.events += events;
        self.untraced_s += secs;
        self.insts += r.insts;
        self.l1 += r.metrics.l1_accesses.get();
        self.l2 += r.metrics.l2_accesses.get();
        self.mem_lines += r.metrics.mem_lines.get();
        self.log_entries += r.log_entries;
        self.log_max_interval_bytes = self.log_max_interval_bytes.max(r.log_max_interval_bytes);
        self.msgs[0] += r.msgs.base.get();
        self.msgs[1] += r.msgs.dep.get();
        self.msgs[2] += r.msgs.protocol.get();
        self.dir_entries = self.dir_entries.max(d.entries);
        self.dir_resident_bytes = self.dir_resident_bytes.max(d.resident_bytes);
        self.dir_spill_live = self.dir_spill_live.max(d.spill_live);
        self.episodes += r.checkpoints;
        self.processor_checkpoints += r.metrics.processor_checkpoints;
        self.busy_aborts += r.metrics.busy_aborts;
        self.declines += r.metrics.declines;
        self.nacks += r.metrics.nacks;
        let b = &r.metrics.breakdown;
        for (acc, v) in
            self.stall
                .iter_mut()
                .zip([b.sync_delay, b.wb_delay, b.wb_imbalance, b.ipc_delay])
        {
            *acc += v;
        }
        self.rollbacks += r.rollbacks;
        self.irec_sizes.merge(&r.metrics.irec_sizes);
        self.recovery_cycles.merge(&r.metrics.recovery_cycles);
    }

    /// Records every machine-level per-layer metric.
    pub fn emit(&self, out: &mut Outcome) {
        let f = |v: u64| v as f64;
        out.set("engine.events", f(self.events));
        out.set(
            "engine.events_per_kinst",
            ratio(f(self.events), f(self.insts) / 1000.0),
        );
        out.set("engine.peak_queue_len", self.peak_queue as f64);
        for (name, (count, ns)) in STEP_CLASSES.iter().zip(self.step) {
            out.set(&format!("machine.step.{name}.count"), f(count));
            out.set(&format!("machine.step.{name}.ns"), ratio(f(ns), f(count)));
        }
        out.set(
            "machine.ns_per_event",
            ratio(self.untraced_s * 1e9, f(self.events)),
        );
        for (name, (count, ns)) in EVENT_KINDS.iter().zip(self.kinds) {
            out.set(&format!("machine.event.{name}.count"), f(count));
            out.set(&format!("machine.event.{name}.ns"), ratio(f(ns), f(count)));
        }
        out.set("mem.l1_accesses", f(self.l1));
        out.set("mem.l2_accesses", f(self.l2));
        out.set("mem.mem_lines", f(self.mem_lines));
        out.set("mem.log_entries", f(self.log_entries));
        out.set("mem.log_max_interval_bytes", f(self.log_max_interval_bytes));
        out.set("coherence.msgs.base", f(self.msgs[0]));
        out.set("coherence.msgs.dep", f(self.msgs[1]));
        out.set("coherence.msgs.protocol", f(self.msgs[2]));
        out.set("coherence.dir.entries", self.dir_entries as f64);
        out.set(
            "coherence.dir.resident_bytes",
            self.dir_resident_bytes as f64,
        );
        out.set("coherence.dir.spill_live", self.dir_spill_live as f64);
        out.set("ckpt.episodes", f(self.episodes));
        out.set("ckpt.processor_checkpoints", f(self.processor_checkpoints));
        out.set("ckpt.busy_aborts", f(self.busy_aborts));
        out.set("ckpt.declines", f(self.declines));
        out.set("ckpt.nacks", f(self.nacks));
        out.set(
            "ckpt.abort_ratio",
            ratio(f(self.busy_aborts), f(self.episodes + self.busy_aborts)),
        );
        for (name, v) in ["sync", "wb", "imbalance", "ipc"].iter().zip(self.stall) {
            out.set(&format!("stall.{name}"), f(v));
        }
        out.set("rollback.count", f(self.rollbacks));
        out.set("rollback.irec_size_mean", self.irec_sizes.mean());
        out.set("rollback.recovery_cycles_mean", self.recovery_cycles.mean());
        let total = |xs: &[(u64, u64)]| xs.iter().map(|(_, ns)| *ns).sum::<u64>() as f64;
        let step_ns = total(&self.step);
        let kind_ns = total(&self.kinds);
        out.notes.push(format!(
            "timed `step` calls took {:.3} s against {:.3} s for untraced runs of the same machines; \
             DrainTick is {:.1}% of timed `trace_step` time",
            step_ns / 1e9,
            self.untraced_s,
            100.0 * ratio(self.kinds[2].1 as f64, kind_ns),
        ));
    }
}

/// The deterministic work of one finished run, as guard counters under
/// `prefix`.
pub fn work_counts(prefix: &str, r: &RunReport, events: u64, counts: &mut Counts) {
    let m = &r.metrics;
    for (name, v) in [
        ("events", events),
        ("cycles", r.cycles),
        ("insts", r.insts),
        ("checkpoints", r.checkpoints),
        ("processor_checkpoints", m.processor_checkpoints),
        ("rollbacks", r.rollbacks),
        ("l1_accesses", m.l1_accesses.get()),
        ("l2_accesses", m.l2_accesses.get()),
        ("mem_lines", m.mem_lines.get()),
        ("log_entries", r.log_entries),
        ("msgs_base", r.msgs.base.get()),
        ("msgs_dep", r.msgs.dep.get()),
        ("msgs_protocol", r.msgs.protocol.get()),
    ] {
        counts.insert(format!("{prefix}.{name}"), v);
    }
}
