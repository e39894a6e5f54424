//! # Rebound — scalable checkpointing for coherent shared memory
//!
//! A full Rust reproduction of *"Rebound: Scalable Checkpointing for
//! Coherent Shared Memory"* (ISCA 2011 / UIUC MS thesis, Agarwal &
//! Torrellas): the first hardware-based scheme for **coordinated local
//! checkpointing** in multiprocessors with directory-based cache
//! coherence.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`engine`] | event queue, clock, deterministic RNG, statistics |
//! | [`mem`] | caches, main memory, memory controllers, the undo log |
//! | [`coherence`] | MESI full-map directory with LW-ID, message stats |
//! | [`core`] | the `Machine`: dependence tracking, checkpoint/rollback protocols, delayed writebacks, barrier optimization, Global baselines, fault injection |
//! | [`workloads`] | synthetic SPLASH-2 / PARSEC / Apache application models |
//! | [`power`] | activity-based energy/power model |
//! | [`swdep`] | §8: software dependence tracking for non-coherent manycores |
//! | [`nvm`] | §8: the undo log on non-volatile memory (PCM timing, wear, lifetime) |
//! | [`trace`] | Pin-frontend analogue: RBTR op-trace record/replay |
//! | [`harness`] | parallel experiment campaigns with a differential recovery oracle |
//!
//! # Quick start
//!
//! ```
//! use rebound::core::{Machine, MachineConfig, Scheme};
//! use rebound::workloads::profile_named;
//!
//! // An 8-core machine running the Barnes model under Rebound.
//! let mut cfg = MachineConfig::small(8);
//! cfg.scheme = Scheme::REBOUND;
//! cfg.ckpt_interval_insts = 20_000;
//! let profile = profile_named("Barnes").unwrap();
//! let mut machine = Machine::from_profile(&cfg, &profile, 60_000);
//! let report = machine.run_to_completion();
//! println!(
//!     "{} checkpoints, mean interaction set {:.1} of {} cores",
//!     report.checkpoints,
//!     report.metrics.ichk_sizes.mean(),
//!     report.cores,
//! );
//! ```

pub use rebound_coherence as coherence;
pub use rebound_core as core;
pub use rebound_engine as engine;
pub use rebound_harness as harness;
pub use rebound_mem as mem;
pub use rebound_nvm as nvm;
pub use rebound_power as power;
pub use rebound_swdep as swdep;
pub use rebound_trace as trace;
pub use rebound_workloads as workloads;

pub use rebound_core::{Machine, MachineConfig, RunReport, Scheme};
pub use rebound_harness::{
    run_jobs, CampaignResult, CampaignSpec, FaultPhase, FaultPlan, FaultSpec, FaultTrigger,
    GoldenCache, GoldenSnapshot, Shard, Store,
};
pub use rebound_workloads::{all_profiles, profile_named, AppProfile};
