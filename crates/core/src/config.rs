//! Machine and checkpointing configuration (Fig 4.3(a)).

use rebound_coherence::NetConfig;
use rebound_engine::CoreId;
use rebound_mem::{CacheConfig, MemoryTiming};

/// Which checkpointing scheme the machine runs — the configuration matrix
/// of Fig 4.3(a).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// No checkpointing at all; the baseline that overhead is measured
    /// against.
    None,
    /// Global checkpointing (the paper's `Global` / `Global_DWB`): all
    /// processors synchronize and checkpoint together at every interval.
    Global {
        /// Delayed writebacks (drain dirty lines in the background).
        dwb: bool,
    },
    /// Rebound coordinated local checkpointing.
    Rebound {
        /// Delayed writebacks (§4.1).
        dwb: bool,
        /// The barrier checkpoint optimization (§4.2.1).
        barrier_opt: bool,
    },
    /// Clustered coordinated checkpointing (`Rebound_Cluster{k}`): cores
    /// are statically partitioned into `k`-core clusters that checkpoint
    /// as one unit, and the interaction set is **truncated at the
    /// cluster boundary** — the midpoint of the paper's design space
    /// between `Global` (k = machine size) and `Rebound` (the
    /// generalization of k = 1, whose unit is the dynamic interaction
    /// set). Dependences are still tracked: recovery chases the consumer
    /// closure *across* cluster boundaries — bounding each pulled
    /// consumer's target by its producer's target snapshot time, since
    /// truncated episodes no longer guarantee a consumer's checkpoint is
    /// covered by its producers' — trading longer rollback cascades for
    /// collection traffic that never leaves the cluster.
    Cluster {
        /// Delayed writebacks (§4.1).
        dwb: bool,
        /// Cores per cluster (the last cluster may be smaller when `k`
        /// does not divide the machine size).
        k: u8,
    },
    /// In-band epoch-propagation checkpointing (`Rebound_Epoch`): a
    /// Chandy–Lamport-style alternative to out-of-band coordination.
    /// Checkpoint epochs piggyback on the coherence fabric — every store
    /// stamps its line with the writer's current epoch, and a core
    /// snapshots locally the first time an access would observe a line
    /// stamped with a newer epoch, *before* consuming the data. There is
    /// no interaction-set collection, no CK? round trips and no
    /// drain-for-collection stalls; recovery-line membership is derived
    /// after the fact from per-checkpoint epoch tags (the epoch
    /// generalization of the cluster scheme's `taken_at` bounding).
    Epoch {
        /// Delayed writebacks (§4.1).
        dwb: bool,
    },
}

impl Scheme {
    /// The paper's `Global` baseline.
    pub const GLOBAL: Scheme = Scheme::Global { dwb: false };
    /// The paper's `Global_DWB`.
    pub const GLOBAL_DWB: Scheme = Scheme::Global { dwb: true };
    /// The paper's proposed `Rebound` (delayed writebacks, no barrier opt).
    pub const REBOUND: Scheme = Scheme::Rebound {
        dwb: true,
        barrier_opt: false,
    };
    /// The paper's `Rebound_NoDWB`.
    pub const REBOUND_NODWB: Scheme = Scheme::Rebound {
        dwb: false,
        barrier_opt: false,
    };
    /// The paper's `Rebound_Barr`.
    pub const REBOUND_BARR: Scheme = Scheme::Rebound {
        dwb: true,
        barrier_opt: true,
    };
    /// The paper's `Rebound_NoDWB_Barr`.
    pub const REBOUND_NODWB_BARR: Scheme = Scheme::Rebound {
        dwb: false,
        barrier_opt: true,
    };
    /// Clustered checkpointing at 4-core granularity (`Rebound_Cluster4`)
    /// — the design-space midpoint between `Global` and `Rebound`.
    pub const REBOUND_CLUSTER: Scheme = Scheme::Cluster { dwb: true, k: 4 };
    /// In-band epoch propagation over the coherence fabric
    /// (`Rebound_Epoch`) — coordination-free local checkpointing.
    pub const REBOUND_EPOCH: Scheme = Scheme::Epoch { dwb: true };

    /// Every named configuration of the Fig 4.3(a) matrix plus the
    /// clustered extension. Full-matrix sweeps (campaigns, cross-scheme
    /// property tests) derive from this single list so a new scheme
    /// automatically joins every sweep. New entries go at the **end**:
    /// campaign job ids are scheme-major, so appending keeps every
    /// existing row (and its golden snapshots) stable.
    pub const ALL: [Scheme; 9] = [
        Scheme::None,
        Scheme::GLOBAL,
        Scheme::GLOBAL_DWB,
        Scheme::REBOUND,
        Scheme::REBOUND_NODWB,
        Scheme::REBOUND_BARR,
        Scheme::REBOUND_NODWB_BARR,
        Scheme::REBOUND_CLUSTER,
        Scheme::REBOUND_EPOCH,
    ];

    /// Whether this scheme checkpoints at all.
    pub fn checkpoints(self) -> bool {
        self != Scheme::None
    }

    /// Whether this scheme tracks inter-thread dependences (Rebound and
    /// the clustered extension need the LW-ID / Dep-register machinery —
    /// the cluster truncates checkpoint sets, but recovery still chases
    /// recorded consumers across cluster boundaries).
    pub fn tracks_dependences(self) -> bool {
        matches!(
            self,
            Scheme::Rebound { .. } | Scheme::Cluster { .. } | Scheme::Epoch { .. }
        )
    }

    /// Whether delayed writebacks are enabled.
    pub fn dwb(self) -> bool {
        matches!(
            self,
            Scheme::Global { dwb: true }
                | Scheme::Rebound { dwb: true, .. }
                | Scheme::Cluster { dwb: true, .. }
                | Scheme::Epoch { dwb: true }
        )
    }

    /// The static cluster size of `Rebound_Cluster{k}` (1 otherwise:
    /// every other scheme's checkpoint unit is a single core).
    pub fn cluster_k(self) -> usize {
        match self {
            Scheme::Cluster { k, .. } => (k as usize).max(1),
            _ => 1,
        }
    }

    /// Whether the barrier optimization is enabled.
    pub fn barrier_opt(self) -> bool {
        matches!(
            self,
            Scheme::Rebound {
                barrier_opt: true,
                ..
            }
        )
    }

    /// The name used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Scheme::None => "NoCkpt",
            Scheme::Global { dwb: false } => "Global",
            Scheme::Global { dwb: true } => "Global_DWB",
            Scheme::Rebound {
                dwb: true,
                barrier_opt: false,
            } => "Rebound",
            Scheme::Rebound {
                dwb: false,
                barrier_opt: false,
            } => "Rebound_NoDWB",
            Scheme::Rebound {
                dwb: true,
                barrier_opt: true,
            } => "Rebound_Barr",
            Scheme::Rebound {
                dwb: false,
                barrier_opt: true,
            } => "Rebound_NoDWB_Barr",
            // One distinct label per supported size ({1,2,4,8,16},
            // enforced by `MachineConfig::validate`) so campaign rows
            // and `--filter` can always name the exact configuration.
            Scheme::Cluster { dwb: true, k } => match k {
                1 => "Rebound_Cluster1",
                2 => "Rebound_Cluster2",
                4 => "Rebound_Cluster4",
                8 => "Rebound_Cluster8",
                16 => "Rebound_Cluster16",
                _ => "Rebound_ClusterK",
            },
            Scheme::Cluster { dwb: false, k } => match k {
                1 => "Rebound_Cluster1_NoDWB",
                2 => "Rebound_Cluster2_NoDWB",
                4 => "Rebound_Cluster4_NoDWB",
                8 => "Rebound_Cluster8_NoDWB",
                16 => "Rebound_Cluster16_NoDWB",
                _ => "Rebound_ClusterK_NoDWB",
            },
            Scheme::Epoch { dwb: true } => "Rebound_Epoch",
            Scheme::Epoch { dwb: false } => "Rebound_Epoch_NoDWB",
        }
    }
}

/// Periodic forced checkpointing by one processor, modelling output I/O
/// (§6.4: "force one processor ... to initiate a checkpoint every 2.5M
/// cycles, as if it was performing output I/O").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IoPressure {
    /// The processor performing output I/O.
    pub core: CoreId,
    /// Cycles between forced checkpoint initiations.
    pub period_cycles: u64,
}

/// Full machine + checkpointing configuration.
///
/// Defaults follow Fig 4.3(a); [`MachineConfig::small`] scales the caches
/// down for fast tests.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Number of cores/tiles (the paper evaluates up to 64; the model
    /// scales to 1024, the ceiling of the `--spec scale` campaign regime).
    pub cores: usize,
    /// L1 geometry (paper: 16 KB, 4-way, 32 B lines, write-through).
    pub l1: CacheConfig,
    /// L2 geometry (paper: 256 KB, 8-way, 32 B lines, write-back).
    pub l2: CacheConfig,
    /// L1 hit round trip (paper: 2 cycles).
    pub l1_hit_cycles: u64,
    /// L2 hit round trip (paper: 8 cycles).
    pub l2_hit_cycles: u64,
    /// Interconnect latencies (paper: 60-cycle L2-to-L2 round trip).
    pub net: NetConfig,
    /// Memory channels (paper: 2).
    pub mem_channels: usize,
    /// Memory timing (paper: 200-cycle round trip).
    pub mem_timing: MemoryTiming,
    /// Undo-log banks.
    pub log_banks: usize,
    /// Bytes per undo-log entry (line + address + PID ≈ 44).
    pub log_entry_bytes: u64,
    /// The checkpointing scheme under test.
    pub scheme: Scheme,
    /// Checkpoint interval in instructions (paper: 4M ≈ 5–8 ms; scaled
    /// runs use proportionally less).
    pub ckpt_interval_insts: u64,
    /// Upper bound L on fault-detection latency, in cycles (§3.2).
    pub detect_latency: u64,
    /// Dep register sets per core (paper: 4 maximum).
    pub dep_sets: usize,
    /// Dependence-tracking granularity: cores per Dep-register bit.
    /// 1 (default) is the paper's per-processor tracking; larger values
    /// implement the §8 extension for clustered directories — each
    /// `MyProducers`/`MyConsumers` bit names a *cluster*, and "inside a
    /// cluster, we can perform global checkpointing": whenever any core of
    /// a cluster checkpoints or rolls back, its whole cluster does.
    pub dep_cluster: usize,
    /// Write-signature size in bits (paper: 1024).
    pub wsig_bits: usize,
    /// Hash functions per WSIG insertion.
    pub wsig_hashes: usize,
    /// Minimum cycles between background delayed writebacks (rate control,
    /// §4.1); the engine slows further when the memory backlog is high.
    pub drain_gap: u64,
    /// Random backoff window after a Busy/Nack during checkpoint initiation
    /// (§3.3.4: "continues execution for a random number of cycles").
    pub backoff_cycles: u64,
    /// Address ranges excluded from dependence tracking (§8: the runtime
    /// "can selectively enable and disable Rebound ... for a certain range
    /// of addresses"). Accesses in these ranges never set LW-ID, WSIG or
    /// Dep-register bits; rollback safety for them is the caller's
    /// responsibility (e.g. provably-private scratch data).
    pub untracked_ranges: Vec<(u64, u64)>,
    /// Optional I/O checkpoint pressure (§6.4 experiment).
    pub io: Option<IoPressure>,
    /// ReVive's log-only-the-first-writeback-per-interval optimization
    /// (§3.3.3); on by default, disable for the log-volume ablation.
    pub log_first_wb_filter: bool,
    /// RNG seed; everything about a run is reproducible from it.
    pub seed: u64,
}

impl MachineConfig {
    /// The paper's full-size configuration for `cores` processors.
    pub fn paper(cores: usize) -> MachineConfig {
        MachineConfig {
            cores,
            l1: CacheConfig::new(16 * 1024, 4, 32),
            l2: CacheConfig::new(256 * 1024, 8, 32),
            l1_hit_cycles: 2,
            l2_hit_cycles: 8,
            net: NetConfig::default(),
            mem_channels: 2,
            mem_timing: MemoryTiming::default(),
            log_banks: 4,
            log_entry_bytes: 44,
            scheme: Scheme::REBOUND,
            ckpt_interval_insts: 4_000_000,
            detect_latency: 20_000,
            dep_sets: 4,
            dep_cluster: 1,
            wsig_bits: 1024,
            wsig_hashes: 2,
            drain_gap: 16,
            backoff_cycles: 2_000,
            untracked_ranges: Vec::new(),
            io: None,
            log_first_wb_filter: true,
            seed: 1,
        }
    }

    /// A scaled-down configuration for tests: small caches, short interval,
    /// short detection latency. All *ratios* of the paper configuration are
    /// preserved.
    pub fn small(cores: usize) -> MachineConfig {
        MachineConfig {
            l1: CacheConfig::new(2 * 1024, 4, 32),
            l2: CacheConfig::new(16 * 1024, 8, 32),
            ckpt_interval_insts: 10_000,
            detect_latency: 1_000,
            backoff_cycles: 500,
            ..MachineConfig::paper(cores)
        }
    }

    /// Pending-event capacity the machine pre-sizes its queue to.
    ///
    /// Steady state holds a few events per core (each core's `Step` plus
    /// in-flight protocol messages); checkpoint initiations and Global's
    /// interrupt broadcast burst to a few multiples of that. Sizing from
    /// the configured core count keeps even a 1024-core machine's first
    /// checkpoint storm from paying a reallocation cascade in the hot
    /// loop.
    pub fn event_capacity(&self) -> usize {
        12 * self.cores + 256
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.cores == 0 || self.cores > rebound_coherence::CoreSet::MAX_CORES {
            return Err(format!(
                "cores must be 1..={}, got {}",
                rebound_coherence::CoreSet::MAX_CORES,
                self.cores
            ));
        }
        if self.l1.line_bytes != self.l2.line_bytes {
            return Err("L1 and L2 must share a line size".into());
        }
        if self.mem_channels == 0 {
            return Err("need at least one memory channel".into());
        }
        if self.log_banks == 0 {
            return Err("need at least one log bank".into());
        }
        if self.ckpt_interval_insts == 0 && self.scheme.checkpoints() {
            return Err("checkpoint interval must be positive".into());
        }
        if self.dep_sets < 2 && self.scheme.tracks_dependences() {
            return Err("Rebound needs at least 2 Dep register sets (§4.1)".into());
        }
        if self.dep_cluster == 0 {
            return Err("dep_cluster must be at least 1".into());
        }
        if let Scheme::Cluster { k, .. } = self.scheme {
            if !matches!(k, 1 | 2 | 4 | 8 | 16) {
                // Each supported size has a distinct `label()`; an
                // unlisted k would collapse into a shared fallback
                // string and make campaign CSV rows indistinguishable.
                return Err(format!(
                    "Rebound_Cluster supports k in {{1, 2, 4, 8, 16}}, got {k}"
                ));
            }
            if !(k as usize).is_multiple_of(self.dep_cluster) {
                // Dep-granularity mates must checkpoint together (§8);
                // that holds only when every dep cluster nests inside
                // one scheme cluster, i.e. dep_cluster divides k.
                return Err(format!(
                    "Rebound_Cluster k={k} must be a multiple of dep_cluster={}",
                    self.dep_cluster
                ));
            }
        }
        if self.wsig_bits == 0 || self.wsig_hashes == 0 {
            return Err("WSIG needs bits and hashes".into());
        }
        for &(lo, hi) in &self.untracked_ranges {
            if lo >= hi {
                return Err(format!("empty untracked range {lo:#x}..{hi:#x}"));
            }
        }
        if let Some(io) = self.io {
            if io.core.index() >= self.cores {
                return Err("I/O core out of range".into());
            }
            if io.period_cycles == 0 {
                return Err("I/O period must be positive".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_valid() {
        assert_eq!(MachineConfig::paper(64).validate(), Ok(()));
        assert_eq!(MachineConfig::small(8).validate(), Ok(()));
    }

    #[test]
    fn scheme_predicates() {
        assert!(!Scheme::None.checkpoints());
        assert!(Scheme::GLOBAL.checkpoints());
        assert!(!Scheme::GLOBAL.tracks_dependences());
        assert!(Scheme::REBOUND.tracks_dependences());
        assert!(Scheme::REBOUND.dwb());
        assert!(!Scheme::REBOUND_NODWB.dwb());
        assert!(Scheme::GLOBAL_DWB.dwb());
        assert!(Scheme::REBOUND_BARR.barrier_opt());
        assert!(!Scheme::GLOBAL.barrier_opt());
        assert!(Scheme::REBOUND_CLUSTER.checkpoints());
        assert!(Scheme::REBOUND_CLUSTER.tracks_dependences());
        assert!(Scheme::REBOUND_CLUSTER.dwb());
        assert!(!Scheme::REBOUND_CLUSTER.barrier_opt());
        assert_eq!(Scheme::REBOUND_CLUSTER.cluster_k(), 4);
        assert_eq!(Scheme::REBOUND.cluster_k(), 1);
        assert!(Scheme::REBOUND_EPOCH.checkpoints());
        assert!(Scheme::REBOUND_EPOCH.tracks_dependences());
        assert!(Scheme::REBOUND_EPOCH.dwb());
        assert!(!Scheme::Epoch { dwb: false }.dwb());
        assert!(!Scheme::REBOUND_EPOCH.barrier_opt());
        assert_eq!(Scheme::REBOUND_EPOCH.cluster_k(), 1);
    }

    #[test]
    fn all_has_nine_schemes_appended_in_pr_order() {
        assert_eq!(Scheme::ALL.len(), 9);
        // Appended last: campaign job ids are scheme-major, so existing
        // rows (and golden snapshots) stay stable.
        assert_eq!(Scheme::ALL[7], Scheme::REBOUND_CLUSTER);
        assert_eq!(Scheme::ALL[8], Scheme::REBOUND_EPOCH);
    }

    #[test]
    fn scheme_labels_match_figures() {
        assert_eq!(Scheme::GLOBAL.label(), "Global");
        assert_eq!(Scheme::GLOBAL_DWB.label(), "Global_DWB");
        assert_eq!(Scheme::REBOUND.label(), "Rebound");
        assert_eq!(Scheme::REBOUND_NODWB.label(), "Rebound_NoDWB");
        assert_eq!(Scheme::REBOUND_BARR.label(), "Rebound_Barr");
        assert_eq!(Scheme::REBOUND_NODWB_BARR.label(), "Rebound_NoDWB_Barr");
        assert_eq!(Scheme::None.label(), "NoCkpt");
        assert_eq!(Scheme::REBOUND_CLUSTER.label(), "Rebound_Cluster4");
        assert_eq!(
            Scheme::Cluster { dwb: false, k: 8 }.label(),
            "Rebound_Cluster8_NoDWB"
        );
        assert_eq!(Scheme::REBOUND_EPOCH.label(), "Rebound_Epoch");
        assert_eq!(Scheme::Epoch { dwb: false }.label(), "Rebound_Epoch_NoDWB");
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut c = MachineConfig::small(8);
        c.cores = 0;
        assert!(c.validate().is_err());

        let mut c = MachineConfig::small(8);
        c.cores = 1025;
        assert!(c.validate().is_err());
        c.cores = 1024; // the widened scale-campaign ceiling is in range
        assert_eq!(c.validate(), Ok(()));
        c.cores = 256; // the old limit stays comfortably inside it
        assert_eq!(c.validate(), Ok(()));

        let mut c = MachineConfig::small(8);
        c.l1 = CacheConfig::new(2 * 1024, 4, 64);
        assert!(c.validate().is_err());

        let mut c = MachineConfig::small(8);
        c.dep_sets = 1;
        assert!(c.validate().is_err());

        let mut c = MachineConfig::small(8);
        c.scheme = Scheme::Cluster { dwb: true, k: 0 };
        assert!(c.validate().is_err());
        c.scheme = Scheme::Cluster { dwb: true, k: 3 }; // no distinct label
        assert!(c.validate().is_err());
        c.scheme = Scheme::Cluster { dwb: true, k: 4 };
        assert_eq!(c.validate(), Ok(()));
        // Dep-granularity clusters must nest inside scheme clusters,
        // or dep mates would stop checkpointing together (§8).
        c.dep_cluster = 8;
        assert!(c.validate().is_err());
        c.dep_cluster = 2;
        assert_eq!(c.validate(), Ok(()));

        let mut c = MachineConfig::small(8);
        c.io = Some(IoPressure {
            core: CoreId(8),
            period_cycles: 100,
        });
        assert!(c.validate().is_err());
    }
}
