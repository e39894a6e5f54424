//! Job execution and the differential recovery oracle.
//!
//! The oracle turns §3's correctness argument into an executable check:
//! for a faulty run it replays the same `(config, seed)` fault-free to
//! produce a *golden* run, lets the faulty run roll back through Rebound
//! recovery and re-execute to completion, then asserts the post-recovery
//! machine is indistinguishable from the golden one on every
//! architectural quantity that is timing-independent:
//!
//! * the machine terminated cleanly with every core `Done`;
//! * at least one rollback actually happened (else the fault plan was
//!   vacuous and the comparison proves nothing);
//! * for lock-free profiles, total committed instructions and total
//!   committed stores match the golden run (timing-invariant without
//!   locks — barrier lowering retires the same totals regardless of
//!   arrival order, while a contended lock grant retires an extra
//!   test-and-set per queue pass); and
//! * for single-writer-data profiles
//!   ([`AppProfile::deterministic_data`]), additionally the final value
//!   of **every data line** — the union of both runs' memory images and
//!   dirty cache lines, sync lines excluded — equals the golden value.
//!
//! Lock-protected profiles have timing-dependent interleavings by
//! design; for those the oracle checks clean termination and that
//! recovery happened, skips the golden replay entirely, and records the
//! skip in the checks column.
//!
//! # Golden snapshots and the campaign-wide golden cache
//!
//! A golden run depends only on the job's *base identity* — scheme, app,
//! core count, seed and run scale — never on the fault plan, so the
//! adversarial matrix's dozens of fault plans per base config used to
//! re-simulate the same golden machine dozens of times. Everything the
//! judge reads from a golden run is captured once into an immutable
//! [`GoldenSnapshot`] (clean-termination flag, committed-work totals,
//! and the final effective data-line image as a dense `LineId`-indexed
//! vector over the snapshot's own [`LineTable`]), and a
//! [`GoldenCache`] memoizes snapshots under a 128-bit content key
//! ([`crate::store::golden_content_key`]) shared by every worker of a
//! campaign — the first job for a base config computes the golden, the
//! rest reuse it. With a [`Store`], snapshots also persist as `.golden`
//! objects, so goldens warm across campaigns and CI shards. Verdicts are
//! byte-identical with the cache on or off: the snapshot comparison
//! visits the same line sequence the live two-machine comparison did.
//!
//! [`AppProfile::deterministic_data`]: rebound_workloads::AppProfile::deterministic_data

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use rebound_core::{CoreProgram, Machine, RunReport};
use rebound_engine::{CoreId, LineAddr, LineId};
use rebound_workloads::{profile_named, AddressLayout, LineTable};

use crate::spec::Job;
use crate::store::{code_salt, golden_content_key, Store};

/// Hard ceiling on events per run; hitting it means the machine
/// livelocked, which the oracle reports as a failure instead of hanging
/// the campaign. (The cycle watchdog in [`RunScale::watchdog_cycles`]
/// usually trips first — retries space events hundreds of cycles apart —
/// but an event storm at a frozen clock only this bound catches.)
///
/// [`RunScale::watchdog_cycles`]: crate::spec::RunScale::watchdog_cycles
const STEP_BUDGET: u64 = 200_000_000;

/// What the oracle concluded about one faulty job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OracleVerdict {
    /// Every applicable invariant held.
    Pass,
    /// The run was fault-free or the oracle was disabled; nothing checked.
    NotApplicable,
    /// The fault plan never triggered a rollback (e.g. detection scheduled
    /// after completion), so recovery was not exercised.
    Vacuous,
    /// An invariant was violated; the payload says which and how.
    Fail(String),
}

impl OracleVerdict {
    /// Short machine-readable tag for result tables.
    pub fn tag(&self) -> &'static str {
        match self {
            OracleVerdict::Pass => "pass",
            OracleVerdict::NotApplicable => "-",
            OracleVerdict::Vacuous => "vacuous",
            OracleVerdict::Fail(_) => "FAIL",
        }
    }

    /// Whether this verdict should fail a campaign.
    pub fn is_failure(&self) -> bool {
        matches!(self, OracleVerdict::Fail(_))
    }

    /// Inverse of [`OracleVerdict::tag`] plus the detail column: rebuilds
    /// the verdict from its stored representation (the store codec keeps
    /// a failure's diagnosis in the detail field). `None` for an unknown
    /// tag — a corrupt store entry reads as a cache miss, never a panic.
    pub fn from_tag(tag: &str, detail: &str) -> Option<OracleVerdict> {
        match tag {
            "pass" => Some(OracleVerdict::Pass),
            "-" => Some(OracleVerdict::NotApplicable),
            "vacuous" => Some(OracleVerdict::Vacuous),
            "FAIL" => Some(OracleVerdict::Fail(detail.to_string())),
            _ => None,
        }
    }
}

/// The outcome of one executed job: its run report plus, for faulty
/// oracle-enabled jobs, the recovery verdict and the golden snapshot it
/// was judged against.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// The job that ran.
    pub job: Job,
    /// Report of the (possibly faulty) run.
    pub report: RunReport,
    /// Oracle verdict.
    pub verdict: OracleVerdict,
    /// The fault-free twin's snapshot, when the oracle replayed (or
    /// reused) one. Shared — the same `Arc` may be held by every job of
    /// the base config when a [`GoldenCache`] is in play.
    pub golden: Option<Arc<GoldenSnapshot>>,
    /// Which comparisons the oracle performed (for the notes column).
    pub checks: String,
    /// The faults that actually fired, as `f<core>@<cycle>` terms in
    /// detection order (`-` if none did) — the resolved cycle of every
    /// phase/condition trigger.
    pub fired: String,
}

/// How one bounded execution ended.
#[derive(Clone, Debug, PartialEq, Eq)]
enum ExecEnd {
    /// The machine terminated cleanly.
    Finished,
    /// Event budget exhausted (livelock at a frozen or crawling clock).
    StepBudget,
    /// Cycle watchdog exceeded (simulated time ran away).
    Watchdog,
    /// The machine panicked — typically the "event queue drained with
    /// live state" deadlock check; the payload is the panic message.
    Panicked(String),
}

/// Builds and runs a job's machine, faults included, under the step
/// budget and the scale's cycle watchdog, returning the machine, how
/// the run ended, and the fired-fault record. A deadlock panic inside
/// the machine is caught and reported as [`ExecEnd::Panicked`] so one
/// bad scenario fails its own job instead of tearing down the campaign;
/// the machine state is lost in that case — the caller gets a fresh
/// zero-work surrogate alongside the diagnosis — but the detections
/// that led up to the panic are preserved (they are exactly what the
/// reproduce-from-CSV-row workflow needs for failing scenarios).
fn execute(job: &Job, with_faults: bool) -> (Machine, ExecEnd, String) {
    let profile = profile_named(&job.app).expect("expand() validated the app name");
    let cfg = job.config();
    // Mirrors the machine's fired-fault log so a panic cannot take the
    // detection record down with the machine. The guard copies it out
    // during unwind, so even a detection recorded by the very step that
    // panics is preserved.
    let fired_log = std::cell::RefCell::new(Vec::new());
    struct FiredMirror<'a> {
        m: Option<Machine>,
        log: &'a std::cell::RefCell<Vec<rebound_core::FiredFault>>,
    }
    impl Drop for FiredMirror<'_> {
        fn drop(&mut self) {
            // Some(_) only when dropped by unwinding; the normal path
            // takes the machine out first.
            if let Some(m) = &self.m {
                *self.log.borrow_mut() = m.fired_faults().to_vec();
            }
        }
    }
    let run = || {
        let mut guard = FiredMirror {
            m: Some(Machine::from_profile(&cfg, &profile, job.scale.quota)),
            log: &fired_log,
        };
        let end = {
            let m = guard.m.as_mut().expect("machine present");
            if with_faults {
                for f in job.plan.faults() {
                    m.arm_fault(CoreId(f.core % cfg.cores), f.trigger);
                }
            }
            let mut steps = 0u64;
            loop {
                if !m.step() {
                    break ExecEnd::Finished;
                }
                steps += 1;
                if steps >= STEP_BUDGET {
                    break ExecEnd::StepBudget;
                }
                if m.now().raw() > job.scale.watchdog_cycles {
                    break ExecEnd::Watchdog;
                }
            }
        };
        (guard.m.take().expect("machine present"), end)
    };
    match catch_unwind(AssertUnwindSafe(run)) {
        Ok((m, end)) => {
            let fired = fired_string(m.fired_faults());
            (m, end, fired)
        }
        Err(payload) => {
            let msg = if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else {
                "non-string panic payload".to_string()
            };
            // A surrogate machine so the outcome still carries a
            // (zeroed) report with the right scheme and core count.
            let empty = Machine::with_programs(
                &cfg,
                (0..cfg.cores).map(|_| CoreProgram::script([])).collect(),
            );
            let fired = fired_string(&fired_log.borrow());
            (empty, ExecEnd::Panicked(msg), fired)
        }
    }
}

/// Formats a fired-fault record for the results table.
fn fired_string(fired: &[rebound_core::FiredFault]) -> String {
    if fired.is_empty() {
        return "-".to_string();
    }
    fired
        .iter()
        .map(|f| format!("f{}@{}", f.core.index(), f.at.raw()))
        .collect::<Vec<_>>()
        .join("+")
}

/// Everything the oracle's judge reads from a golden (fault-free) run,
/// captured into an immutable value so the run itself never has to be
/// repeated: the clean-termination flag (with the stuck diagnosis
/// preserved verbatim when the golden did not finish), the committed
/// instruction and store totals, and the final effective data-line
/// image — dense `LineId`-indexed values over the snapshot's own
/// [`LineTable`], sync lines excluded, in golden visitation order so the
/// snapshot comparison reports mismatches exactly as the live
/// two-machine comparison did.
///
/// A snapshot is a pure function of the job's *base identity* (scheme,
/// app, cores, seed, run scale) — fault-plan detail never enters a
/// fault-free replay — which is what makes it shareable across every
/// fault plan of a base config and persistable under a content key.
#[derive(Clone, Debug)]
pub struct GoldenSnapshot {
    /// `None` when the golden run terminated cleanly; otherwise the
    /// rendered diagnosis (`format!("{end:?}")` of the execution end),
    /// preserved so a cached stuck golden reproduces the exact verdict
    /// string a live replay would have produced.
    end: Option<String>,
    /// Total committed instructions across cores.
    pub insts: u64,
    /// Total committed stores across cores.
    pub stores: u64,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Completed checkpoint episodes.
    pub checkpoints: u64,
    /// Completed rollback episodes (0 for any healthy golden run).
    pub rollbacks: u64,
    /// Total messages of all classes.
    pub msgs_total: u64,
    /// The snapshot's own interner: ids in golden visitation order.
    table: LineTable,
    /// Effective line value per dense id (`table` order).
    values: Vec<u64>,
}

impl GoldenSnapshot {
    /// Runs the job's fault-free golden twin and captures it.
    pub fn capture(job: &Job) -> GoldenSnapshot {
        let (m, end, _) = execute(job, false);
        GoldenSnapshot::of_run(job, &m, &end)
    }

    /// Captures a finished (or stuck) golden machine. For a stuck golden
    /// only the diagnosis is kept — the judge fails before reading
    /// anything else, so partial totals would be dead weight in the
    /// store objects.
    fn of_run(job: &Job, m: &Machine, end: &ExecEnd) -> GoldenSnapshot {
        let profile = profile_named(&job.app).expect("expand() validated the app name");
        let mut table = LineTable::for_profile(job.cores, &profile);
        let mut values: Vec<u64> = Vec::new();
        if *end != ExecEnd::Finished {
            return GoldenSnapshot {
                end: Some(format!("{end:?}")),
                insts: 0,
                stores: 0,
                cycles: 0,
                checkpoints: 0,
                rollbacks: 0,
                msgs_total: 0,
                table,
                values,
            };
        }
        let layout = AddressLayout;
        {
            let mut put = |addr: LineAddr| {
                if layout.is_sync_line(addr) {
                    return;
                }
                let id = table.intern(addr);
                if id.index() == values.len() {
                    values.push(m.effective_line_value(addr));
                }
                // id below len: the line was already captured (a line can
                // be both memory-resident and dirty); the effective value
                // is idempotent, so the first capture stands.
            };
            m.for_each_resident_line(|a, _| put(a));
            m.for_each_dirty_line(&mut put);
        }
        let report = m.report();
        GoldenSnapshot {
            end: None,
            insts: total_insts(m),
            stores: total_stores(m),
            cycles: report.cycles,
            checkpoints: report.checkpoints,
            rollbacks: report.rollbacks,
            msgs_total: report.msgs.total(),
            table,
            values,
        }
    }

    /// Rebuilds a snapshot from its serialized parts (the store codec).
    /// Entries must arrive in capture order — each address interns to the
    /// next dense id; a duplicate or sync-line address means the object
    /// is corrupt and decodes to `None` (a store miss, never a panic).
    pub fn from_parts(
        app: &str,
        cores: usize,
        end: Option<String>,
        scalars: [u64; 6],
        entries: impl IntoIterator<Item = (u64, u64)>,
    ) -> Option<GoldenSnapshot> {
        let profile = profile_named(app)?;
        let layout = AddressLayout;
        let mut table = LineTable::for_profile(cores, &profile);
        let mut values = Vec::new();
        for (raw, v) in entries {
            let addr = LineAddr(raw);
            if layout.is_sync_line(addr) {
                return None;
            }
            let id = table.intern(addr);
            if id.index() != values.len() {
                return None;
            }
            values.push(v);
        }
        let [insts, stores, cycles, checkpoints, rollbacks, msgs_total] = scalars;
        Some(GoldenSnapshot {
            end,
            insts,
            stores,
            cycles,
            checkpoints,
            rollbacks,
            msgs_total,
            table,
            values,
        })
    }

    /// Whether the golden run terminated cleanly.
    pub fn is_clean(&self) -> bool {
        self.end.is_none()
    }

    /// The stuck diagnosis of a golden run that did not finish.
    pub fn stuck_reason(&self) -> Option<&str> {
        self.end.as_deref()
    }

    /// The effective value of `addr` in the golden image; zero for any
    /// line the golden run never made nonzero — the same convention
    /// [`Machine::effective_line_value`] uses for untouched lines, so
    /// absent-vs-zero is indistinguishable here exactly as it is there.
    pub fn line_value(&self, addr: LineAddr) -> u64 {
        self.table
            .lookup(addr)
            .and_then(|id| self.values.get(id.index()).copied())
            .unwrap_or(0)
    }

    /// Visits every captured line as `(wire address, effective value)` in
    /// capture (= golden visitation) order.
    pub fn for_each_line(&self, mut f: impl FnMut(LineAddr, u64)) {
        for (i, &v) in self.values.iter().enumerate() {
            f(self.table.addr_of(LineId(i as u32)), v);
        }
    }

    /// Number of captured data lines.
    pub fn line_count(&self) -> usize {
        self.values.len()
    }

    /// Approximate resident heap bytes of this snapshot: the dense value
    /// vector plus the interner's reverse map and slot array. Surfaced by
    /// the campaign's golden-cache footprint diagnostics.
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of::<GoldenSnapshot>()
            + self.values.capacity() * std::mem::size_of::<u64>()
            + self.table.len() * std::mem::size_of::<LineAddr>()
            + self.table.dense_slots() * std::mem::size_of::<u32>()
    }

    /// The scalar block in codec order (insts, stores, cycles,
    /// checkpoints, rollbacks, msgs_total).
    pub fn scalars(&self) -> [u64; 6] {
        [
            self.insts,
            self.stores,
            self.cycles,
            self.checkpoints,
            self.rollbacks,
            self.msgs_total,
        ]
    }
}

impl PartialEq for GoldenSnapshot {
    fn eq(&self, other: &GoldenSnapshot) -> bool {
        self.end == other.end
            && self.scalars() == other.scalars()
            && self.values == other.values
            && (0..self.values.len()).all(|i| {
                self.table.addr_of(LineId(i as u32)) == other.table.addr_of(LineId(i as u32))
            })
    }
}

/// Compares the final data state of a recovered faulty machine against
/// its golden snapshot, line by line over the union of the faulty run's
/// resident memory lines and dirty cache lines and the snapshot's
/// captured image (sync lines — locks, barrier words,
/// arrival-order-dependent by design — excluded).
///
/// The comparison borrows the faulty machine's image through visitors:
/// on the pass path it allocates nothing. The visit sequence — faulty
/// resident, faulty dirty, then the snapshot's lines in golden
/// visitation order — is exactly the sequence the pre-snapshot
/// two-machine comparison walked, so the (bounded, deduplicated,
/// finally sorted) mismatch report is byte-identical to what a live
/// golden machine would have produced.
fn compare_data_lines(faulty: &Machine, golden: &GoldenSnapshot) -> Vec<(LineAddr, u64, u64)> {
    const MAX_REPORTED: usize = 4;
    let layout = AddressLayout;
    let mut mismatches: Vec<(LineAddr, u64, u64)> = Vec::new();
    let record = |addr: LineAddr, f: u64, g: u64, mm: &mut Vec<(LineAddr, u64, u64)>| {
        if f != g && mm.len() < MAX_REPORTED && !mm.iter().any(|&(a, _, _)| a == addr) {
            mm.push((addr, f, g));
        }
    };
    {
        let mut visit = |addr: LineAddr| {
            if layout.is_sync_line(addr) {
                return;
            }
            let f = faulty.effective_line_value(addr);
            record(addr, f, golden.line_value(addr), &mut mismatches);
        };
        faulty.for_each_resident_line(|addr, _| visit(addr));
        faulty.for_each_dirty_line(&mut visit);
    }
    // Lines the golden run touched but the faulty run may not have: the
    // snapshot never holds sync lines, so no filter is needed here.
    golden.for_each_line(|addr, g| {
        record(addr, faulty.effective_line_value(addr), g, &mut mismatches);
    });
    // Two runs intern lines in different first-touch orders; sort so a
    // failing job prints the same diagnosis no matter which run's
    // traversal found each mismatch first.
    mismatches.sort_by_key(|&(a, _, _)| a);
    mismatches
}

fn total_insts(m: &Machine) -> u64 {
    (0..m.ncores()).map(|c| m.core_insts(CoreId(c))).sum()
}

fn total_stores(m: &Machine) -> u64 {
    (0..m.ncores()).map(|c| m.core_store_seq(CoreId(c))).sum()
}

/// What the oracle checks on one job. [`Judging::of`] is the only place
/// that decides whether a job needs a golden: [`run_job`] hands it to
/// [`judge`], and [`GoldenCache::for_jobs`] counts expected golden uses
/// with it, so the two cannot drift apart.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Judging {
    /// A clean plan or the oracle off: nothing is judged.
    Skip,
    /// Termination and recovery only: a lock-based profile with
    /// multi-writer data admits no golden-relative comparison.
    NoGolden,
    /// Against a golden: committed-work totals when the profile is
    /// lock-free (contended lock grants retire an extra test-and-set per
    /// queue pass), every data line when its data is single-writer.
    Golden { totals: bool, memory: bool },
}

impl Judging {
    fn of(job: &Job) -> Judging {
        if job.plan.is_clean() || !job.oracle {
            return Judging::Skip;
        }
        let profile = profile_named(&job.app).expect("expand() validated the app name");
        match (profile.lock_period.is_none(), profile.deterministic_data()) {
            (false, false) => Judging::NoGolden,
            (totals, memory) => Judging::Golden { totals, memory },
        }
    }

    fn needs_golden(self) -> bool {
        matches!(self, Judging::Golden { .. })
    }
}

/// How a [`GoldenCache`] satisfied one golden request (stats accounting).
enum GoldenHow {
    Reused,
    FromStore,
    Computed,
}

/// Cache accounting of golden replays across one campaign.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GoldenStats {
    /// Goldens simulated this campaign (one per base config at most).
    pub computed: usize,
    /// Requests served from a snapshot already resident in memory.
    pub reused: usize,
    /// Snapshots loaded from a persistent store (first touch per key).
    pub from_store: usize,
}

impl GoldenStats {
    /// The human summary fragment: `goldens: N computed, M reused
    /// (K from store)` — M counts every avoided simulation, K of which
    /// came off disk rather than out of memory.
    pub fn line(&self) -> String {
        format!(
            "goldens: {} computed, {} reused ({} from store)",
            self.computed,
            self.reused + self.from_store,
            self.from_store
        )
    }
}

/// Resident-snapshot footprint of one base config, in the spirit of the
/// directory's `DirFootprint` diagnostics: how much memory the golden
/// cache holds per base config, so a scale campaign's snapshot residency
/// is visible instead of silent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GoldenFootprint {
    /// The base config label (`Scheme/App/c<cores>/s<seed>`).
    pub label: String,
    /// Captured data lines in the snapshot.
    pub lines: usize,
    /// Approximate resident bytes ([`GoldenSnapshot::resident_bytes`]).
    pub bytes: usize,
}

impl std::fmt::Display for GoldenFootprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "golden {}: {} lines, {} KiB resident",
            self.label,
            self.lines,
            self.bytes / 1024
        )
    }
}

/// One golden slot: the base label for diagnostics plus the
/// once-initialized snapshot. Workers share the `Arc<OnceLock>` so the
/// first to need a golden computes it while same-key contemporaries
/// block on the lock instead of duplicating the simulation.
struct GoldenCell {
    label: String,
    slot: Arc<OnceLock<Arc<GoldenSnapshot>>>,
}

/// Campaign-wide memoization of golden snapshots, shared by reference
/// across the worker pool.
///
/// Keys are [`crate::store::golden_content_key`] hashes of the base
/// identity (scheme, app, cores, seed, every `RunScale` field — fault
/// plans and presentation fields deliberately excluded). Snapshots for
/// keys expected to be used once are computed pass-through without
/// taking up residency — the scale matrix has one faulty job per base
/// config, and pinning megabyte-scale 1024-core images for a single use
/// would be pure bloat; the adversarial matrix's 8-plans-per-base is
/// where residency pays.
pub struct GoldenCache {
    cells: Mutex<HashMap<String, GoldenCell>>,
    /// Expected golden-eligible uses per key (`None`: unknown, always
    /// publish). Built from the campaign's job list up front.
    expected: Option<HashMap<String, usize>>,
    computed: AtomicUsize,
    reused: AtomicUsize,
    from_store: AtomicUsize,
}

impl Default for GoldenCache {
    fn default() -> GoldenCache {
        GoldenCache::new()
    }
}

impl GoldenCache {
    /// A cache with no expected-use information: every resolved snapshot
    /// stays resident.
    pub fn new() -> GoldenCache {
        GoldenCache {
            cells: Mutex::new(HashMap::new()),
            expected: None,
            computed: AtomicUsize::new(0),
            reused: AtomicUsize::new(0),
            from_store: AtomicUsize::new(0),
        }
    }

    /// A cache primed with the campaign's job list: golden-eligible jobs
    /// are counted per base key, and single-use keys resolve
    /// pass-through (no residency).
    pub fn for_jobs(jobs: &[Job]) -> GoldenCache {
        let mut expected: HashMap<String, usize> = HashMap::new();
        let salt = code_salt();
        for j in jobs {
            if Judging::of(j).needs_golden() {
                *expected.entry(golden_content_key(j, &salt)).or_insert(0) += 1;
            }
        }
        GoldenCache {
            expected: Some(expected),
            ..GoldenCache::new()
        }
    }

    /// The golden content key of `job` under the production code salt.
    pub fn key(&self, job: &Job) -> String {
        golden_content_key(job, &code_salt())
    }

    fn single_use(&self, key: &str) -> bool {
        self.expected
            .as_ref()
            .is_some_and(|m| m.get(key).copied().unwrap_or(0) <= 1)
    }

    fn cell(&self, key: &str, job: &Job) -> Arc<OnceLock<Arc<GoldenSnapshot>>> {
        let mut cells = self.cells.lock().expect("golden cache poisoned");
        cells
            .entry(key.to_string())
            .or_insert_with(|| GoldenCell {
                label: job.base_label(),
                slot: Arc::new(OnceLock::new()),
            })
            .slot
            .clone()
    }

    fn count(&self, how: GoldenHow) {
        match how {
            GoldenHow::Reused => &self.reused,
            GoldenHow::FromStore => &self.from_store,
            GoldenHow::Computed => &self.computed,
        }
        .fetch_add(1, Ordering::Relaxed);
    }

    /// Obtains the golden snapshot for `job`'s base config: resident
    /// snapshot, else store load, else a fresh golden simulation
    /// (persisted back to the store when one is attached). Concurrent
    /// same-key callers block on the in-flight computation instead of
    /// duplicating it.
    pub fn resolve(&self, key: &str, job: &Job, store: Option<&Store>) -> Arc<GoldenSnapshot> {
        let capture = |how: &mut GoldenHow| {
            if let Some(st) = store {
                if let Some(g) = st.load_golden(key, job) {
                    *how = GoldenHow::FromStore;
                    return Arc::new(g);
                }
            }
            *how = GoldenHow::Computed;
            let g = GoldenSnapshot::capture(job);
            if let Some(st) = store {
                if let Err(e) = st.save_golden(key, &g) {
                    eprintln!(
                        "warning: golden store write for {} failed: {e}",
                        job.base_label()
                    );
                }
            }
            Arc::new(g)
        };
        if self.single_use(key) {
            let mut how = GoldenHow::Computed;
            let g = capture(&mut how);
            self.count(how);
            return g;
        }
        let slot = self.cell(key, job);
        let mut how = GoldenHow::Reused;
        let g = slot.get_or_init(|| capture(&mut how)).clone();
        self.count(how);
        g
    }

    /// Cache accounting so far.
    pub fn stats(&self) -> GoldenStats {
        GoldenStats {
            computed: self.computed.load(Ordering::Relaxed),
            reused: self.reused.load(Ordering::Relaxed),
            from_store: self.from_store.load(Ordering::Relaxed),
        }
    }

    /// Resident-snapshot footprint per base config, sorted by label.
    pub fn footprint(&self) -> Vec<GoldenFootprint> {
        let cells = self.cells.lock().expect("golden cache poisoned");
        let mut out: Vec<GoldenFootprint> = cells
            .values()
            .filter_map(|c| {
                c.slot.get().map(|g| GoldenFootprint {
                    label: c.label.clone(),
                    lines: g.line_count(),
                    bytes: g.resident_bytes(),
                })
            })
            .collect();
        out.sort_by(|a, b| a.label.cmp(&b.label));
        out
    }
}

/// The golden-replay context a campaign threads through its workers: the
/// shared in-memory cache plus the optional persistent store snapshots
/// warm from and spill to.
#[derive(Clone, Copy)]
pub struct GoldenCtx<'a> {
    /// The campaign-wide cache.
    pub cache: &'a GoldenCache,
    /// Persistent snapshot storage (`--store DIR`).
    pub store: Option<&'a Store>,
}

/// Runs one job and, for faulty oracle-enabled jobs, the differential
/// recovery oracle against its fault-free golden twin.
///
/// The faulty run executes on the calling thread. The judge pulls the
/// golden only once it is past its early exits, so a job that ends
/// stuck, never rolls back, or admits no golden-relative comparison
/// never pays for one. With `golden`, the snapshot comes from the shared
/// cache (backed by its store); with `None` it is replayed fresh, the
/// uncached reference the tests hold the cache to. Every reported field
/// is identical either way.
pub fn run_job(job: &Job, golden: Option<GoldenCtx<'_>>) -> JobOutcome {
    let (faulty, end, fired) = execute(job, true);
    let report = faulty.report();
    let stuck = |why: String, checks: &str| (OracleVerdict::Fail(why), None, checks.to_string());
    let (verdict, snapshot, checks) = match end {
        ExecEnd::Finished => judge(Judging::of(job), &faulty, &report, &mut || match golden {
            Some(c) => c.cache.resolve(&c.cache.key(job), job, c.store),
            None => Arc::new(GoldenSnapshot::capture(job)),
        }),
        ExecEnd::StepBudget => stuck(
            format!("livelock: {STEP_BUDGET} events without terminating"),
            "budget",
        ),
        ExecEnd::Watchdog => stuck(
            format!(
                "watchdog: still running past {} cycles",
                job.scale.watchdog_cycles
            ),
            "watchdog",
        ),
        ExecEnd::Panicked(msg) => stuck(format!("machine panicked: {msg}"), "panic"),
    };
    JobOutcome {
        job: job.clone(),
        report,
        verdict,
        golden: snapshot,
        checks,
        fired,
    }
}

/// [`run_job`] under its old name; the second argument is ignored. Kept
/// only because the benchmark in `perfbench/` calls it; it goes when a
/// benchmark change moves `perfbench` to [`run_job`].
#[doc(hidden)]
pub fn run_job_cached(job: &Job, _sim_threads: usize, golden: Option<GoldenCtx<'_>>) -> JobOutcome {
    run_job(job, golden)
}

/// The oracle proper: judges a finished faulty machine as `judging`
/// says, against its fault-free golden twin's snapshot. `golden`
/// supplies the snapshot on demand — it is only invoked once the early
/// exits are past, so jobs that terminate dirty, never rolled back, or
/// admit no golden-relative comparison never pay for (or pin) a golden
/// at all.
fn judge(
    judging: Judging,
    faulty: &Machine,
    report: &RunReport,
    golden: &mut dyn FnMut() -> Arc<GoldenSnapshot>,
) -> (OracleVerdict, Option<Arc<GoldenSnapshot>>, String) {
    if judging == Judging::Skip {
        return (OracleVerdict::NotApplicable, None, String::new());
    }
    let mut checks: Vec<&'static str> = vec!["termination"];

    if faulty.done_cores() != faulty.ncores() {
        return (
            OracleVerdict::Fail(format!(
                "terminated with {} of {} cores done",
                faulty.done_cores(),
                faulty.ncores()
            )),
            None,
            checks.join("+"),
        );
    }

    if report.rollbacks == 0 {
        return (OracleVerdict::Vacuous, None, checks.join("+"));
    }
    checks.push("rollback");

    // With no golden-relative comparison, skip the golden replay
    // entirely — it would only repeat the livelock check.
    let Judging::Golden { totals, memory } = judging else {
        checks.push("state-skipped(nondeterministic-data)");
        return (OracleVerdict::Pass, None, checks.join("+"));
    };

    let golden = golden();
    if !golden.is_clean() {
        return (
            OracleVerdict::Fail(format!(
                "golden run stuck: {}",
                golden.stuck_reason().expect("stuck goldens carry a reason")
            )),
            None,
            checks.join("+"),
        );
    }

    if totals {
        checks.push("insts");
        if total_insts(faulty) != golden.insts {
            return (
                OracleVerdict::Fail(format!(
                    "committed instructions diverged: faulty {} vs golden {}",
                    total_insts(faulty),
                    golden.insts
                )),
                Some(golden),
                checks.join("+"),
            );
        }

        checks.push("stores");
        if total_stores(faulty) != golden.stores {
            return (
                OracleVerdict::Fail(format!(
                    "committed stores diverged: faulty {} vs golden {}",
                    total_stores(faulty),
                    golden.stores
                )),
                Some(golden),
                checks.join("+"),
            );
        }
    }

    if memory {
        checks.push("memory");
        let mismatches = compare_data_lines(faulty, &golden);
        if !mismatches.is_empty() {
            let detail: Vec<String> = mismatches
                .iter()
                .map(|(l, f, g)| format!("{l}: faulty {f:#x} vs golden {g:#x}"))
                .collect();
            return (
                OracleVerdict::Fail(format!(
                    "post-recovery data diverged, first {} mismatching lines: {}",
                    detail.len(),
                    detail.join("; ")
                )),
                Some(golden),
                checks.join("+"),
            );
        }
    } else {
        checks.push("memory-skipped(multi-writer-data)");
    }

    (OracleVerdict::Pass, Some(golden), checks.join("+"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CampaignSpec, FaultPlan, RunScale};
    use rebound_core::Scheme;

    fn job(scheme: Scheme, app: &str, plan: FaultPlan) -> Job {
        Job {
            id: 0,
            scheme,
            app: app.to_string(),
            cores: 4,
            seed: 7,
            plan,
            scale: RunScale::smoke(),
            oracle: true,
        }
    }

    #[test]
    fn clean_job_is_not_judged() {
        let out = run_job(
            &job(Scheme::REBOUND, "Blackscholes", FaultPlan::clean()),
            None,
        );
        assert_eq!(out.verdict, OracleVerdict::NotApplicable);
        assert!(out.golden.is_none());
        assert!(out.report.insts > 0);
    }

    #[test]
    fn faulty_rebound_run_passes_the_oracle() {
        let out = run_job(
            &job(
                Scheme::REBOUND,
                "Blackscholes",
                FaultPlan::single(1, 20_000),
            ),
            None,
        );
        assert_eq!(out.verdict, OracleVerdict::Pass, "checks: {}", out.checks);
        assert!(out.report.rollbacks >= 1);
        let golden = out.golden.expect("golden twin ran");
        assert_eq!(golden.rollbacks, 0);
        assert!(golden.line_count() > 0, "snapshot captured a data image");
        assert!(out.checks.contains("memory"));
    }

    #[test]
    fn phase_plan_passes_and_records_the_fired_cycle() {
        use crate::spec::FaultPhase;
        let out = run_job(
            &job(
                Scheme::REBOUND,
                "Blackscholes",
                FaultPlan::on_phase(1, FaultPhase::CkptDrain).named("mid-drain"),
            ),
            None,
        );
        assert_eq!(out.verdict, OracleVerdict::Pass, "checks: {}", out.checks);
        assert!(out.report.rollbacks >= 1);
        assert!(
            out.fired.starts_with("f1@"),
            "fired column must carry the resolved cycle, got {:?}",
            out.fired
        );
        assert_eq!(out.job.plan.label(), "mid-drain");
    }

    #[test]
    fn never_firing_phase_plan_is_vacuous_with_empty_fired() {
        use crate::spec::FaultPhase;
        // Scheme::None has no checkpoint machinery: no drain window can
        // ever open, so the armed fault stays unfired.
        let out = run_job(
            &job(
                Scheme::None,
                "Blackscholes",
                FaultPlan::on_phase(0, FaultPhase::CkptDrain),
            ),
            None,
        );
        assert_eq!(out.verdict, OracleVerdict::Vacuous);
        assert_eq!(out.fired, "-");
    }

    #[test]
    fn storm_plan_passes_with_every_detection_recorded() {
        let out = run_job(
            &job(
                Scheme::REBOUND,
                "Blackscholes",
                FaultPlan::storm(1, 2, 15_000, 6_000),
            ),
            None,
        );
        assert_eq!(out.verdict, OracleVerdict::Pass, "checks: {}", out.checks);
        assert_eq!(out.report.rollbacks, 2);
        assert_eq!(out.fired, "f1@15000+f1@21000");
    }

    #[test]
    fn watchdog_trips_on_an_impossible_cycle_bound() {
        // A watchdog tighter than any real run forces the failure path:
        // the job must fail loudly with the watchdog diagnosis instead
        // of hanging or passing.
        let mut j = job(Scheme::REBOUND, "Blackscholes", FaultPlan::single(1, 5_000));
        j.scale.watchdog_cycles = 1_000;
        let out = run_job(&j, None);
        assert!(out.verdict.is_failure());
        assert!(matches!(&out.verdict, OracleVerdict::Fail(m) if m.contains("watchdog")));
        assert_eq!(out.checks, "watchdog");
    }

    #[test]
    fn fault_after_completion_is_vacuous() {
        let out = run_job(
            &job(
                Scheme::REBOUND,
                "Blackscholes",
                FaultPlan::single(0, u64::MAX / 2),
            ),
            None,
        );
        assert_eq!(out.verdict, OracleVerdict::Vacuous);
        assert_eq!(out.report.rollbacks, 0);
    }

    #[test]
    fn nondeterministic_profiles_skip_the_state_comparison() {
        // Raytrace hammers dynamic locks: final data values are
        // arrival-order-dependent, so only termination is checked.
        let out = run_job(
            &job(Scheme::REBOUND, "Raytrace", FaultPlan::single(2, 20_000)),
            None,
        );
        assert!(
            !out.verdict.is_failure(),
            "verdict {:?} ({})",
            out.verdict,
            out.checks
        );
        if out.verdict == OracleVerdict::Pass {
            assert!(out.checks.contains("state-skipped"));
        }
    }

    #[test]
    fn every_faulty_scheme_of_the_acceptance_campaign_passes() {
        for j in CampaignSpec::acceptance().expand() {
            if j.plan.is_clean() {
                continue;
            }
            let out = run_job(&j, None);
            assert!(
                matches!(out.verdict, OracleVerdict::Pass),
                "{}: {:?}",
                j.label(),
                out.verdict
            );
        }
    }

    /// The pre-snapshot two-machine comparison, kept verbatim as the
    /// reference the snapshot path must reproduce bit-for-bit.
    fn reference_compare(faulty: &Machine, golden: &Machine) -> Vec<(LineAddr, u64, u64)> {
        const MAX_REPORTED: usize = 4;
        let layout = AddressLayout;
        let mut mismatches: Vec<(LineAddr, u64, u64)> = Vec::new();
        let mut visit = |addr: LineAddr| {
            if layout.is_sync_line(addr) {
                return;
            }
            let f = faulty.effective_line_value(addr);
            let g = golden.effective_line_value(addr);
            if f != g
                && mismatches.len() < MAX_REPORTED
                && !mismatches.iter().any(|&(a, _, _)| a == addr)
            {
                mismatches.push((addr, f, g));
            }
        };
        for m in [faulty, golden] {
            m.for_each_resident_line(|addr, _| visit(addr));
            m.for_each_dirty_line(&mut visit);
        }
        mismatches.sort_by_key(|&(a, _, _)| a);
        mismatches
    }

    /// Tentpole regression: judging against a [`GoldenSnapshot`] must be
    /// indistinguishable from judging against the live golden machine —
    /// on matching pairs (empty mismatch lists, equal totals) and on
    /// deliberately divergent pairs (identical bounded mismatch reports,
    /// which is what the verdict's diagnosis string is built from).
    #[test]
    fn snapshot_judging_matches_machine_judging() {
        for j in CampaignSpec::acceptance().expand() {
            if !Judging::of(&j).needs_golden() {
                continue;
            }
            let (faulty, f_end, _) = execute(&j, true);
            let (golden, g_end, _) = execute(&j, false);
            assert_eq!(f_end, ExecEnd::Finished, "{}", j.label());
            assert_eq!(g_end, ExecEnd::Finished, "{}", j.label());
            let snap = GoldenSnapshot::of_run(&j, &golden, &g_end);
            assert!(snap.is_clean());
            assert_eq!(snap.insts, total_insts(&golden));
            assert_eq!(snap.stores, total_stores(&golden));
            assert_eq!(
                compare_data_lines(&faulty, &snap),
                reference_compare(&faulty, &golden),
                "{}: snapshot comparison diverged from the two-machine one",
                j.label()
            );

            // Divergent pair: judge this job's faulty machine against a
            // *different seed's* golden — the data images differ, and the
            // bounded mismatch report must still be identical between the
            // snapshot path and the two-machine path.
            let mut other = j.clone();
            other.seed += 17;
            let (other_golden, o_end, _) = execute(&other, false);
            assert_eq!(o_end, ExecEnd::Finished);
            let other_snap = GoldenSnapshot::of_run(&other, &other_golden, &o_end);
            let via_snapshot = compare_data_lines(&faulty, &other_snap);
            let via_machines = reference_compare(&faulty, &other_golden);
            assert_eq!(
                via_snapshot,
                via_machines,
                "{}: divergent-pair reports differ",
                j.label()
            );
            assert!(
                !via_snapshot.is_empty(),
                "{}: cross-seed images should diverge somewhere",
                j.label()
            );
        }
    }

    /// `Judging::of` is the gate the golden cache counts expected uses
    /// with. Hold it to the judge's *observable* behaviour across the
    /// whole catalog and both oracle flags: a job the gate rejects must
    /// never come back with a golden snapshot or a golden-relative
    /// check, and a job the gate admits that the judge actually carried
    /// to the comparison stage (clean termination + a real rollback)
    /// must have used one.
    #[test]
    fn golden_replay_gate_matches_the_judge() {
        for profile in rebound_workloads::all_profiles() {
            for oracle in [true, false] {
                for plan in [FaultPlan::clean(), FaultPlan::single(1, 9_000)] {
                    let mut j = job(Scheme::REBOUND, profile.name, plan);
                    j.scale = RunScale::tiny();
                    j.oracle = oracle;
                    let possible = Judging::of(&j).needs_golden();
                    let out = run_job(&j, None);
                    if !possible {
                        assert!(
                            out.golden.is_none(),
                            "{}: gate said no golden, judge used one ({})",
                            j.label(),
                            out.checks
                        );
                        assert!(
                            !out.checks.contains("insts") && !out.checks.contains("memory"),
                            "{}: golden-relative checks without the gate: {}",
                            j.label(),
                            out.checks
                        );
                    } else if out.verdict == OracleVerdict::Pass
                        && out.report.rollbacks > 0
                        && !out.checks.contains("state-skipped")
                    {
                        assert!(
                            out.golden.is_some(),
                            "{}: gate said golden possible, judged pass with rollback, \
                             but no golden was used ({})",
                            j.label(),
                            out.checks
                        );
                    }
                }
            }
        }
    }

    /// The cache must dedupe goldens across fault plans of one base
    /// config, serve identical snapshots, and leave verdicts untouched.
    #[test]
    fn golden_cache_dedupes_across_fault_plans() {
        let jobs: Vec<Job> = [
            FaultPlan::single(1, 20_000),
            FaultPlan::single(2, 15_000),
            FaultPlan::storm(1, 2, 15_000, 6_000),
        ]
        .into_iter()
        .map(|p| job(Scheme::REBOUND, "Blackscholes", p))
        .collect();
        let cache = GoldenCache::for_jobs(&jobs);
        let mut snaps = Vec::new();
        for j in &jobs {
            let out = run_job(
                j,
                Some(GoldenCtx {
                    cache: &cache,
                    store: None,
                }),
            );
            let uncached = run_job(j, None);
            assert_eq!(out.verdict, uncached.verdict, "{}", j.label());
            assert_eq!(out.checks, uncached.checks, "{}", j.label());
            snaps.push(out.golden.expect("golden used"));
        }
        let stats = cache.stats();
        assert_eq!(stats.computed, 1, "one golden for one base config");
        assert_eq!(stats.reused, 2);
        assert_eq!(stats.from_store, 0);
        assert!(Arc::ptr_eq(&snaps[0], &snaps[1]) && Arc::ptr_eq(&snaps[1], &snaps[2]));
        let fp = cache.footprint();
        assert_eq!(fp.len(), 1);
        assert!(fp[0].bytes > 0 && fp[0].lines > 0);
        assert!(fp[0].label.contains("Blackscholes"));
    }

    /// Single-use keys resolve pass-through: correct verdicts, no
    /// residency (the scale matrix must not pin 1024-core images).
    #[test]
    fn single_use_goldens_take_no_residency() {
        let jobs = vec![job(
            Scheme::REBOUND,
            "Blackscholes",
            FaultPlan::single(1, 20_000),
        )];
        let cache = GoldenCache::for_jobs(&jobs);
        let out = run_job(
            &jobs[0],
            Some(GoldenCtx {
                cache: &cache,
                store: None,
            }),
        );
        assert_eq!(out.verdict, OracleVerdict::Pass, "{}", out.checks);
        assert_eq!(cache.stats().computed, 1);
        assert!(cache.footprint().is_empty(), "single-use snapshot pinned");
    }
}
