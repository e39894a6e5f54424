//! Phase-aware fault injection: armed triggers fire inside the window
//! they name, detections are recorded with their resolved cycle, and the
//! machine still recovers to clean termination (§3.3.5).

use rebound_core::{CorePhase, FaultPhase, FaultTrigger, Machine, MachineConfig, Scheme};
use rebound_engine::{CoreId, Cycle};
use rebound_workloads::profile_named;

fn machine(scheme: Scheme, seed: u64) -> Machine {
    let mut cfg = MachineConfig::small(4);
    cfg.scheme = scheme;
    cfg.ckpt_interval_insts = 6_000;
    cfg.detect_latency = 500;
    cfg.seed = seed;
    let profile = profile_named("FFT").expect("catalog app");
    Machine::from_profile(&cfg, &profile, 20_000)
}

/// A detection behind the clock would be popped first and rewind `now`.
#[test]
#[should_panic(expected = "fault detection scheduled in the past")]
fn fault_detection_in_the_past_is_rejected() {
    let mut m = machine(Scheme::REBOUND, 1);
    m.run_until(Cycle(5_000));
    let behind = Cycle(m.now().raw() - 1);
    m.schedule_fault_detection(CoreId(0), behind);
}

#[test]
fn observation_api_starts_quiet() {
    let m = machine(Scheme::REBOUND, 1);
    for c in 0..4 {
        assert_eq!(m.core_phase(CoreId(c)), CorePhase::Idle);
        assert_eq!(m.drain_depth(CoreId(c)), None);
    }
    assert!(!m.barrier_episode_active());
    assert!(m.rollback_window().is_none());
    assert!(m.fired_faults().is_empty());
}

/// A fault armed on the drain phase is detected while the victim's
/// background writeback drain is active — the window where its youngest
/// checkpoint is not yet safe.
#[test]
fn drain_phase_trigger_fires_mid_drain_and_recovers() {
    let mut m = machine(Scheme::REBOUND, 7);
    m.arm_fault(CoreId(1), FaultTrigger::OnPhase(FaultPhase::CkptDrain));
    let r = m.run_to_completion();
    assert_eq!(m.fired_faults().len(), 1, "drain window never observed");
    assert_eq!(m.fired_faults()[0].core, CoreId(1));
    assert!(r.rollbacks >= 1);
    assert_eq!(m.done_cores(), 4, "machine did not recover cleanly");
    assert_eq!(m.unfired_fault_count(), 0);
}

/// A fault armed on the initiate phase lands while the victim is an
/// initiator still collecting its interaction set; §3.3.5 says the whole
/// episode aborts and recovery still succeeds.
#[test]
fn initiate_phase_trigger_fires_mid_collection() {
    let mut m = machine(Scheme::REBOUND, 2);
    m.arm_fault(CoreId(0), FaultTrigger::OnPhase(FaultPhase::CkptInitiate));
    let r = m.run_to_completion();
    assert_eq!(
        m.fired_faults().len(),
        1,
        "collection window never observed"
    );
    assert!(r.rollbacks >= 1);
    assert_eq!(m.done_cores(), 4);
}

/// A fault armed on the member-join phase lands on a core that accepted
/// (or is writing back for) another initiator's episode.
#[test]
fn member_phase_trigger_fires_on_joined_core() {
    let mut m = machine(Scheme::REBOUND, 2);
    m.arm_fault(CoreId(2), FaultTrigger::OnPhase(FaultPhase::MemberJoin));
    let r = m.run_to_completion();
    assert_eq!(m.fired_faults().len(), 1, "member window never observed");
    assert!(r.rollbacks >= 1);
    assert_eq!(m.done_cores(), 4);
}

/// AfterNthCheckpoint fires right after the victim's Nth completed
/// checkpoint: the recorded detection cycle is a moment where the victim
/// already had N checkpoints.
#[test]
fn after_nth_checkpoint_trigger_fires_on_completion() {
    let mut m = machine(Scheme::REBOUND, 11);
    m.arm_fault(CoreId(1), FaultTrigger::AfterNthCheckpoint(2));
    let r = m.run_to_completion();
    assert_eq!(
        m.fired_faults().len(),
        1,
        "second checkpoint never completed"
    );
    assert!(r.rollbacks >= 1);
    assert_eq!(m.done_cores(), 4);
}

/// A storm schedules every detection up front; each one that lands
/// before completion triggers its own rollback, including ones landing
/// inside the re-execution of earlier ones.
#[test]
fn storm_fires_count_detections() {
    let mut m = machine(Scheme::REBOUND, 9);
    m.arm_fault(
        CoreId(1),
        FaultTrigger::Storm {
            count: 3,
            start: 12_000,
            gap: 4_000,
        },
    );
    let r = m.run_to_completion();
    assert_eq!(m.fired_faults().len(), 3, "storm detections lost");
    let cycles: Vec<u64> = m.fired_faults().iter().map(|f| f.at.raw()).collect();
    assert_eq!(cycles, vec![12_000, 16_000, 20_000]);
    assert_eq!(r.rollbacks, 3);
    assert_eq!(m.done_cores(), 4);
}

/// The cross-core double fault: core 2 is hit while core 0's rollback is
/// still restoring state — the recovery window is observable and the
/// machine survives a fault inside it.
#[test]
fn second_fault_during_anothers_rollback() {
    let mut m = machine(Scheme::REBOUND, 13);
    m.schedule_fault_detection(CoreId(0), Cycle(15_000));
    m.arm_fault(
        CoreId(2),
        FaultTrigger::OnPhase(FaultPhase::RollbackOfOther),
    );
    let r = m.run_to_completion();
    assert_eq!(m.fired_faults().len(), 2, "rollback window never observed");
    let first = m.fired_faults()[0];
    let second = m.fired_faults()[1];
    assert_eq!(first.core, CoreId(0));
    assert_eq!(second.core, CoreId(2));
    assert!(
        second.at >= first.at,
        "second fault must land after the first"
    );
    assert_eq!(r.rollbacks, 2);
    assert_eq!(m.done_cores(), 4);
}

/// The barrier-episode phase: under Rebound_Barr a BarCK episode opens a
/// machine-wide window; a fault inside it aborts the episode (§3.3.5)
/// and the machine still terminates cleanly.
#[test]
fn barrier_episode_trigger_fires_under_rebound_barr() {
    // BarCK needs barrier-heavy code with the interval sized so cores
    // are "interested" at a barrier: Ocean (barrier every 50k insts)
    // with a 40k interval, as in the schemes.rs barrier-opt test.
    let mut cfg = MachineConfig::small(8);
    cfg.scheme = Scheme::REBOUND_BARR;
    cfg.ckpt_interval_insts = 40_000;
    cfg.detect_latency = 500;
    cfg.seed = 1;
    let profile = profile_named("Ocean").expect("catalog app");
    let mut m = Machine::from_profile(&cfg, &profile, 120_000);
    m.arm_fault(CoreId(3), FaultTrigger::OnPhase(FaultPhase::BarrierEpisode));
    let r = m.run_to_completion();
    assert_eq!(m.fired_faults().len(), 1, "no BarCK episode ever opened");
    assert!(r.rollbacks >= 1);
    assert_eq!(m.done_cores(), 8);
}

/// Phase triggers whose window never opens are simply never fired: the
/// run completes fault-free and reports the leftover.
#[test]
fn never_matching_trigger_stays_unfired() {
    // Scheme::None has no checkpoint machinery at all, so no drain
    // window can ever open.
    let mut m = machine(Scheme::None, 1);
    m.arm_fault(CoreId(0), FaultTrigger::OnPhase(FaultPhase::CkptDrain));
    let r = m.run_to_completion();
    assert!(m.fired_faults().is_empty());
    assert_eq!(m.unfired_fault_count(), 1);
    assert_eq!(r.rollbacks, 0);
    assert_eq!(m.done_cores(), 4);
}
