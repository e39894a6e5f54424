//! The `campaign` workload: an oracle-checked adversarial fault campaign
//! at one job seed, on one worker per host CPU, golden cache on, fresh
//! result store.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

use rebound_core::{Machine, Scheme};
use rebound_engine::CoreId;
use rebound_harness::{
    parallel_map, run_job_cached, run_jobs_stored, CampaignResult, CampaignSpec, GoldenCache,
    GoldenCtx, Job, OracleVerdict, RunRow, Store,
};
use rebound_workloads::profile_named;

use crate::guard::Counts;
use crate::machine::{self, Layers, Limits};
use crate::report::Outcome;
use crate::stats::{median, panic_text, peak_rss_mib, quantile, ratio, secs};
use crate::{Args, Size};

/// Set-ups timed before every campaign for `setup_s`; the median over
/// the run is reported.
const SETUP_BATCH: usize = 8;
/// Timed campaigns a run makes even past its `--seconds` budget.
const MIN_REPS: usize = 2;
/// The traced run re-runs one job in this many through the machine-level
/// passes.
const MACHINE_SAMPLE: usize = 8;
/// Event budget of one traced job (the oracle's livelock bound).
const MAX_EVENTS: u64 = 200_000_000;

/// `CampaignSpec::adversarial()` at one seed: 162 jobs of 8 cores over
/// all nine schemes and every fault-trigger kind. The tiny size keeps
/// two schemes and one application (18 jobs).
fn spec(seed: u64, size: Size) -> CampaignSpec {
    let mut spec = CampaignSpec::adversarial();
    spec.seeds = vec![seed];
    if size == Size::Tiny {
        spec.schemes = vec![Scheme::REBOUND, Scheme::REBOUND_EPOCH];
        spec.apps = vec!["FFT".to_string()];
    }
    spec
}

fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A scratch directory inside the benchmark's own directory, removed
/// when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new() -> WorkDir {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join(".work")
            .join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&dir);
        WorkDir(dir)
    }

    /// A fresh, empty store directory named `name`.
    fn store(&self, name: &str) -> Store {
        let dir = self.0.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        Store::open(&dir).expect("create a store directory inside the benchmark directory")
    }

    fn remove(&self, name: &str) {
        let _ = std::fs::remove_dir_all(self.0.join(name));
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave `.work` itself only if another run is using it.
        let _ = std::fs::remove_dir(self.0.parent().unwrap_or(Path::new(".")));
    }
}

/// Times `SETUP_BATCH` set-ups — expanding the spec, priming the golden
/// cache and opening a fresh store — into `samples`.
fn setup(spec: &CampaignSpec, work: &WorkDir, samples: &mut Vec<f64>) {
    for _ in 0..SETUP_BATCH {
        let t = Instant::now();
        let jobs = spec.expand();
        let cache = GoldenCache::for_jobs(&jobs);
        let store = work.store("setup");
        samples.push(secs(t));
        drop((jobs, cache, store));
        work.remove("setup");
    }
}

/// One campaign through the harness's campaign entry point, with a
/// fresh store; `None` if the campaign itself panicked.
fn repetition(spec: &CampaignSpec, work: &WorkDir, out: &mut Outcome) -> Option<Campaign> {
    let jobs = spec.expand();
    let n = jobs.len() as u64;
    let store = work.store("campaign");
    let t = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        run_jobs_stored(jobs, workers(), 1, Some(&store))
    }));
    let wall_s = secs(t);
    work.remove("campaign");
    out.attempted += n;
    match result {
        Ok(r) => Some(Campaign::of(r, wall_s, out)),
        Err(p) => {
            out.failed += n;
            out.problem(format!("campaign panicked: {}", panic_text(&*p)));
            None
        }
    }
}

/// What one campaign produced.
struct Campaign {
    wall_s: f64,
    rows: Vec<(Job, RunRow)>,
    insts: u64,
    core_cycles: u64,
    stall_cycles: u64,
    golden_computed: usize,
    golden_reused: usize,
    counts: Counts,
}

impl Campaign {
    fn of(r: CampaignResult, wall_s: f64, out: &mut Outcome) -> Campaign {
        let failures = r.failures();
        out.failed += failures.len() as u64;
        for f in failures.iter().take(5) {
            out.problem(format!("{}: {:?}", f.job.label(), f.run.verdict));
        }
        if r.store.is_none_or(|s| s.hits != 0) {
            out.problem("a fresh store served cached rows");
        }
        let golden = r.golden.unwrap_or_default();
        let csv = r.to_csv();
        let mut c = Campaign {
            wall_s,
            rows: Vec::new(),
            insts: 0,
            core_cycles: 0,
            stall_cycles: 0,
            golden_computed: golden.computed,
            golden_reused: golden.reused + golden.from_store,
            counts: Counts::new(),
        };
        let mut sums = [0u64; 6];
        let mut verdicts = [0u64; 4];
        for row in r.rows {
            let run = &row.run;
            c.insts += run.insts;
            c.core_cycles += run.cycles * row.job.cores as u64;
            c.stall_cycles += run.stall_total;
            for (s, v) in sums.iter_mut().zip([
                run.cycles,
                run.insts,
                run.checkpoints,
                run.rollbacks,
                run.msgs,
                run.log_entries,
            ]) {
                *s += v;
            }
            verdicts[verdict_index(&run.verdict)] += 1;
            c.rows.push((row.job, row.run));
        }
        let names = [
            "cycles",
            "insts",
            "checkpoints",
            "rollbacks",
            "msgs",
            "log_entries",
        ];
        let mut put = |k: &str, v: u64| c.counts.insert(format!("campaign.{k}"), v);
        put("jobs", c.rows.len() as u64);
        put("csv_fnv1a", crate::stats::fnv1a(csv.as_bytes()));
        for (k, v) in names.iter().zip(sums) {
            put(k, v);
        }
        for (k, v) in VERDICTS.iter().zip(verdicts) {
            put(&format!("verdict_{k}"), v);
        }
        put("golden_computed", golden.computed as u64);
        put("golden_reused", (golden.reused + golden.from_store) as u64);
        c
    }
}

const VERDICTS: [&str; 4] = ["pass", "vacuous", "fail", "none"];

fn verdict_index(v: &OracleVerdict) -> usize {
    match v {
        OracleVerdict::Pass => 0,
        OracleVerdict::Vacuous => 1,
        OracleVerdict::Fail(_) => 2,
        OracleVerdict::NotApplicable => 3,
    }
}

/// The untraced run: end-to-end metrics plus the work counts.
pub fn measure(args: &Args, out: &mut Outcome) -> Counts {
    let spec = spec(args.seed, args.size);
    let work = WorkDir::new();
    let start = Instant::now();
    let mut first: Option<Campaign> = None;
    let (mut jobs_per_s, mut minsts, mut setup_s) = (Vec::new(), Vec::new(), Vec::new());
    loop {
        setup(&spec, &work, &mut setup_s);
        if let Some(c) = repetition(&spec, &work, out) {
            jobs_per_s.push(c.rows.len() as f64 / c.wall_s);
            minsts.push(c.insts as f64 / c.wall_s / 1e6);
            match &first {
                Some(f) if f.counts != c.counts => {
                    out.problem("a repetition produced a different campaign (CSV digest or counts)")
                }
                Some(_) => {}
                None => first = Some(c),
            }
        }
        let spent = secs(start);
        let reps = jobs_per_s.len().max(1);
        if reps >= MIN_REPS && spent + spent / reps as f64 > args.seconds {
            break;
        }
        if out.failed > 0 && jobs_per_s.is_empty() {
            break;
        }
    }
    out.notes.push(format!(
        "{} jobs on {} workers, {} timed campaigns: {} jobs/s",
        first.as_ref().map_or(0, |c| c.rows.len()),
        workers(),
        jobs_per_s.len(),
        crate::stats::list(&jobs_per_s)
    ));
    out.set("setup_s", median(&setup_s));
    out.set("jobs_per_s", median(&jobs_per_s));
    out.set("sim_minsts_per_s", median(&minsts));
    out.set("peak_rss_mb", peak_rss_mib());
    let Some(first) = first else {
        return Counts::new();
    };
    out.set(
        "sim_cpi",
        ratio(first.core_cycles as f64, first.insts as f64),
    );
    out.set(
        "sim_ckpt_stall_pct",
        100.0 * ratio(first.stall_cycles as f64, first.core_cycles as f64),
    );
    first.counts
}

/// Builds `job`'s faulty machine exactly as the oracle does.
fn faulty_machine(job: &Job) -> Machine {
    let cfg = job.config();
    let profile = profile_named(&job.app).expect("catalog application");
    let mut m = Machine::from_profile(&cfg, &profile, job.scale.quota);
    for f in job.plan.faults() {
        m.arm_fault(CoreId(f.core % cfg.cores), f.trigger);
    }
    m
}

fn mean_ns(samples: &[f64]) -> f64 {
    ratio(samples.iter().sum::<f64>() * 1e9, samples.len() as f64)
}

/// The traced run: per-layer metrics. One untraced campaign gives the
/// reference rows and the untraced time; then the harness layers run one
/// call at a time — every golden captured through a fresh cache and
/// round-tripped through the store, every job re-run warm through the
/// worker pool, every row round-tripped through the store — and one job
/// in `MACHINE_SAMPLE` is re-run untraced and through both
/// machine-level traced passes.
pub fn trace(args: &Args, out: &mut Outcome) -> Counts {
    let spec = spec(args.seed, args.size);
    let work = WorkDir::new();
    let Some(reference) = repetition(&spec, &work, out) else {
        return Counts::new();
    };
    let jobs: Vec<Job> = reference.rows.iter().map(|(j, _)| j.clone()).collect();
    let oracle_jobs: Vec<&Job> = jobs
        .iter()
        .filter(|j| j.oracle && !j.plan.is_clean())
        .collect();
    let t0 = Instant::now();

    // Goldens, one resolve at a time, each new one saved and reloaded.
    let cache = GoldenCache::new();
    let store = work.store("traced");
    let (mut capture, mut save_g, mut load_g) = (Vec::new(), Vec::new(), Vec::new());
    let mut objects = 0u64;
    for job in &oracle_jobs {
        let computed = cache.stats().computed;
        let t = Instant::now();
        let snap = cache.resolve(&cache.key(job), job, None);
        let s = secs(t);
        if cache.stats().computed == computed {
            continue;
        }
        capture.push(s);
        let key = store.golden_key(job);
        let t = Instant::now();
        let saved = store.save_golden(&key, &snap);
        save_g.push(secs(t));
        let t = Instant::now();
        let loaded = store.load_golden(&key, job);
        load_g.push(secs(t));
        objects += 1;
        let same = loaded
            .is_some_and(|g| g.scalars() == snap.scalars() && g.line_count() == snap.line_count());
        if saved.is_err() || !same {
            out.problem(format!(
                "golden of {} did not round-trip through the store",
                job.base_label()
            ));
        }
    }

    // Every job again, warm goldens, through the worker pool.
    let n = workers();
    let t = Instant::now();
    let ctx = GoldenCtx {
        cache: &cache,
        store: None,
    };
    let runs = parallel_map(&jobs, n, |j| {
        let t = Instant::now();
        let row = run_job_cached(j, 1, Some(ctx)).run_row();
        (row, secs(t))
    });
    let pool_wall = secs(t);
    out.attempted += runs.len() as u64;
    let busy: f64 = runs.iter().map(|(_, s)| s).sum();
    let idle = (n as f64 * pool_wall - busy).max(0.0);
    out.set("pool.busy_s", busy);
    out.set("pool.idle_s", idle);
    out.set("pool.idle_ratio", ratio(idle, n as f64 * pool_wall));
    let mut job_s = Vec::new();
    let mut verdicts = [0u64; 4];
    for ((job, want), (row, s)) in reference.rows.iter().zip(&runs) {
        if row != want {
            out.failed += 1;
            out.problem(format!(
                "{}: traced row differs from the campaign's",
                job.label()
            ));
        }
        if job.oracle && !job.plan.is_clean() {
            job_s.push(*s * 1e9);
        }
        verdicts[verdict_index(&row.verdict)] += 1;
    }
    out.set("oracle.job.ns.p50", quantile(&job_s, 0.5));
    out.set("oracle.job.ns.p90", quantile(&job_s, 0.9));
    for (k, v) in VERDICTS[..3].iter().zip(verdicts) {
        out.set(&format!("oracle.verdict.{k}"), v as f64);
    }

    // Every row saved and reloaded.
    let (mut save, mut load) = (Vec::new(), Vec::new());
    for (job, row) in &reference.rows {
        let key = store.key(job);
        let t = Instant::now();
        let saved = store.save(&key, row);
        save.push(secs(t));
        let t = Instant::now();
        let loaded = store.load(&key);
        load.push(secs(t));
        objects += 1;
        if saved.is_err() || loaded.as_ref() != Some(row) {
            out.problem(format!(
                "row of {} did not round-trip through the store",
                job.label()
            ));
        }
    }
    work.remove("traced");

    // A sample of jobs through the machine-level passes.
    let mut layers = Layers::default();
    let mut build = Vec::new();
    for (job, want) in reference.rows.iter().step_by(MACHINE_SAMPLE) {
        let lim = Limits {
            max_events: MAX_EVENTS,
            max_cycle: job.scale.watchdog_cycles,
        };
        let t = Instant::now();
        let mut m = faulty_machine(job);
        build.push(secs(t));
        let t = Instant::now();
        let result = machine::run(&mut m, lim);
        let s = secs(t);
        out.attempted += 3;
        let Ok(events) = result else {
            out.failed += 3;
            out.problem(format!("{}: {}", job.label(), result.unwrap_err()));
            continue;
        };
        let r = m.report();
        if (r.cycles, r.insts, r.rollbacks, r.msgs.total())
            != (want.cycles, want.insts, want.rollbacks, want.msgs)
        {
            out.problem(format!(
                "{}: re-run differs from the campaign's row",
                job.label()
            ));
        }
        layers.add_run(&m, events, s);
        let mut untraced = Counts::new();
        machine::work_counts("job", &r, events, &mut untraced);
        for pass in 0..2 {
            let mut m = faulty_machine(job);
            let result = if pass == 0 {
                layers.step_pass(&mut m, lim)
            } else {
                layers.event_pass(&mut m, lim)
            };
            let mut traced = Counts::new();
            match result {
                Ok(events) => machine::work_counts("job", &m.report(), events, &mut traced),
                Err(e) => {
                    out.failed += 1;
                    out.problem(format!("{} traced: {e}", job.label()));
                }
            }
            if traced != untraced {
                out.problem(format!(
                    "{}: traced run simulated different work",
                    job.label()
                ));
            }
        }
    }
    let traced_s = secs(t0);

    layers.emit(out);
    out.set("machine.build_ns", median(&build) * 1e9);
    out.set("oracle.golden.capture_ns", mean_ns(&capture));
    out.set("oracle.golden.computed", reference.golden_computed as f64);
    out.set("oracle.golden.reused", reference.golden_reused as f64);
    out.set(
        "oracle.golden.reuse_ratio",
        ratio(
            reference.golden_reused as f64,
            (reference.golden_computed + reference.golden_reused) as f64,
        ),
    );
    out.set("store.save_ns", mean_ns(&save));
    out.set("store.load_ns", mean_ns(&load));
    out.set("store.save_golden_ns", mean_ns(&save_g));
    out.set("store.load_golden_ns", mean_ns(&load_g));
    out.set("store.objects", objects as f64);
    out.set("trace.untraced_s", reference.wall_s);
    out.set("trace.traced_s", traced_s);
    out.set("trace.overhead_s", traced_s - reference.wall_s);
    out.notes.push(format!(
        "{} jobs on {n} workers; machine layers from {} sampled jobs (1 in {MACHINE_SAMPLE}), each run untraced and through both traced passes",
        jobs.len(),
        jobs.len().div_ceil(MACHINE_SAMPLE),
    ));
    reference.counts
}
