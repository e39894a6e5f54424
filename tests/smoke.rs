//! Workspace smoke test: one small machine per `Scheme` variant runs a few
//! thousand instructions, and the whole simulation is deterministic — two
//! machines built from the same `(config, seed)` produce identical
//! checkpoint counts, instruction counts, and message traffic.
//!
//! The quick per-scheme check below runs on every `cargo test`; the same
//! property over the **full Fig 4.3(a) matrix** — all 7 `Scheme` consts ×
//! all 18 catalog profiles, executed through the campaign harness — is
//! `#[ignore]`-gated (`cargo test -- --ignored`) because it runs a couple
//! hundred machines.

use rebound::core::{Machine, MachineConfig, RunReport, Scheme};
use rebound::harness::{default_jobs, run_jobs, CampaignSpec};
use rebound::workloads::profile_named;

const SCHEMES: &[(&str, Scheme)] = &[
    ("None", Scheme::None),
    ("Global", Scheme::GLOBAL),
    ("Global_DWB", Scheme::GLOBAL_DWB),
    ("Rebound", Scheme::REBOUND),
    ("Rebound_NoDWB", Scheme::REBOUND_NODWB),
    ("Rebound_Barrier", Scheme::REBOUND_BARR),
];

fn run_once(scheme: Scheme, seed: u64) -> RunReport {
    let mut cfg = MachineConfig::small(4);
    cfg.scheme = scheme;
    cfg.ckpt_interval_insts = 2_000;
    cfg.seed = seed;
    let profile = profile_named("Barnes").expect("Barnes profile exists");
    let mut machine = Machine::from_profile(&cfg, &profile, 8_000);
    machine.run_to_completion()
}

#[test]
fn every_scheme_runs_and_is_deterministic() {
    for &(label, scheme) in SCHEMES {
        let a = run_once(scheme, 42);
        let b = run_once(scheme, 42);
        assert!(a.insts > 0, "{label}: no instructions retired");
        assert_eq!(a.cores, 4, "{label}");
        assert_eq!(a.checkpoints, b.checkpoints, "{label}: checkpoints differ");
        assert_eq!(a.insts, b.insts, "{label}: instruction counts differ");
        assert_eq!(a.cycles, b.cycles, "{label}: cycle counts differ");
        assert_eq!(
            a.msgs.total(),
            b.msgs.total(),
            "{label}: message counts differ"
        );
        if scheme.checkpoints() {
            assert!(a.checkpoints > 0, "{label}: interval never fired");
        }
    }
}

/// The determinism property promoted to the whole configuration matrix:
/// every `Scheme` const × every catalog profile runs through the campaign
/// harness twice at different worker counts, and the aggregate results —
/// every cycle count, message total and checkpoint count in the CSV —
/// must be byte-identical. Run with `cargo test -- --ignored`.
#[test]
#[ignore = "runs 7 schemes x 18 profiles twice; minutes, not seconds"]
fn full_matrix_determinism_across_worker_counts() {
    let spec = CampaignSpec::full_matrix();
    let jobs = spec.expand();
    assert_eq!(
        jobs.len(),
        Scheme::ALL.len() * rebound::all_profiles().len(),
        "matrix must cover every scheme x app"
    );

    // jobs=1 takes parallel_map's inline path; the other count always
    // spawns real workers — two genuinely different schedules even on a
    // 2-core runner.
    let parallel = run_jobs(jobs.clone(), default_jobs().max(2), None);
    let serial = run_jobs(jobs, 1, None);
    assert_eq!(
        parallel.to_csv(),
        serial.to_csv(),
        "worker count changed the aggregate results"
    );
    assert!(parallel.failures().is_empty(), "{}", parallel.summary());

    // Every cell actually ran its workload.
    for o in &parallel.rows {
        assert!(o.run.insts > 0, "{} retired nothing", o.job.label());
        if o.job.scheme.checkpoints() {
            assert!(
                o.run.checkpoints > 0,
                "{} never checkpointed",
                o.job.label()
            );
        }
    }
}

#[test]
fn seeds_change_the_run() {
    let a = run_once(Scheme::REBOUND, 1);
    let b = run_once(Scheme::REBOUND, 2);
    // Different seeds must give genuinely different executions (address
    // streams diverge), while both still complete their quota.
    assert!(a.insts > 0 && b.insts > 0);
    assert_ne!(
        (a.cycles, a.msgs.total()),
        (b.cycles, b.msgs.total()),
        "different seeds produced identical runs"
    );
}
