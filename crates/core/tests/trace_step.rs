//! `Machine::trace_step` runs the same event loop as `Machine::step`: a
//! traced run ends where an untraced one does, and every trace line names
//! its event kind in the field `perfbench` parses to time events by kind.

use std::collections::BTreeSet;

use rebound_core::{Machine, MachineConfig, RunReport, Scheme};
use rebound_engine::{CoreId, Cycle};
use rebound_workloads::profile_named;

/// The `Event` kind names, as `perfbench`'s `EVENT_KINDS` lists them.
const EVENT_KINDS: [&str; 7] = [
    "Step",
    "Proto",
    "DrainTick",
    "RetryCkpt",
    "RetryRotate",
    "FaultDetect",
    "IoTick",
];

/// A 4-core Rebound machine with a fault detected mid-run, so checkpoint
/// protocol messages, delayed-writeback drains and a rollback all occur.
fn machine() -> Machine {
    let mut cfg = MachineConfig::small(4);
    cfg.scheme = Scheme::REBOUND;
    cfg.ckpt_interval_insts = 6_000;
    cfg.detect_latency = 500;
    let profile = profile_named("FFT").expect("catalog app");
    let mut m = Machine::from_profile(&cfg, &profile, 20_000);
    m.schedule_fault_detection(CoreId(1), Cycle(40_000));
    m
}

fn totals(r: &RunReport) -> (u64, u64, u64, u64, u64, u64) {
    (
        r.cycles,
        r.insts,
        r.checkpoints,
        r.rollbacks,
        r.msgs.total(),
        r.log_entries,
    )
}

#[test]
fn trace_step_runs_the_same_machine_as_step() {
    let mut stepped = machine();
    let want = stepped.run_to_completion();

    let mut traced = machine();
    let mut kinds = BTreeSet::new();
    while let Some(line) = traced.trace_step() {
        // "<cycle> <Event Debug> ...", trimmed as perfbench trims it.
        let kind = line
            .split_whitespace()
            .nth(1)
            .unwrap_or("")
            .trim_end_matches(|c: char| !c.is_alphanumeric());
        assert!(EVENT_KINDS.contains(&kind), "unknown event kind: {line:?}");
        kinds.insert(kind.to_string());
    }
    assert!(traced.is_finished(), "the trace ended early");
    let got = traced.report();

    assert_eq!(totals(&got), totals(&want));
    assert_eq!(traced.fired_faults(), stepped.fired_faults());
    assert_eq!(traced.fired_faults().len(), 1, "the fault never fired");
    assert!(got.rollbacks >= 1);
    for k in ["Step", "Proto", "DrainTick", "FaultDetect"] {
        assert!(kinds.contains(k), "no {k} event traced: {kinds:?}");
    }
}
