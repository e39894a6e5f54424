//! The fault-free simulation workloads, `sim-wide` and `sim-ckpt`: whole
//! machines run one at a time on the calling thread.

use std::collections::BTreeMap;
use std::time::Instant;

use rebound_core::{Machine, MachineConfig, Scheme};
use rebound_engine::CoreId;
use rebound_workloads::profile_named;

use crate::guard::Counts;
use crate::machine::{self, Layers, Limits};
use crate::report::Outcome;
use crate::stats::{median, peak_rss_mib, ratio, secs};
use crate::{Args, Size};

/// Timed repetitions a run makes even past its `--seconds` budget.
const MIN_REPS: usize = 3;

const LIMITS: Limits = Limits {
    max_events: 200_000_000,
    max_cycle: 1_000_000_000,
};

/// One machine configuration a sim workload runs.
struct Cell {
    scheme: Scheme,
    app: &'static str,
    cores: usize,
    interval: u64,
    quota: u64,
}

impl Cell {
    fn label(&self) -> String {
        format!("{}/{}/{}c", self.scheme.label(), self.app, self.cores)
    }

    fn build(&self, seed: u64) -> Machine {
        let mut cfg = MachineConfig::small(self.cores);
        cfg.scheme = self.scheme;
        cfg.ckpt_interval_insts = self.interval;
        cfg.seed = seed;
        let profile = profile_named(self.app).expect("catalog application");
        Machine::from_profile(&cfg, &profile, self.quota)
    }
}

/// `sim-wide`: two 1024-core machines at the `sim_throughput` bench's
/// configuration. `sim-ckpt`: 64-core machines of five schemes × three
/// applications at a short checkpoint interval.
fn cells(workload: &str, size: Size) -> Vec<Cell> {
    let tiny = size == Size::Tiny;
    if workload == "sim-wide" {
        let cores = if tiny { 16 } else { 1024 };
        let quota = if tiny { 1_000 } else { 6_000 };
        [(Scheme::REBOUND, "Ocean"), (Scheme::REBOUND_EPOCH, "FFT")]
            .into_iter()
            .map(|(scheme, app)| Cell {
                scheme,
                app,
                cores,
                interval: 8_000,
                quota,
            })
            .collect()
    } else {
        let (cores, quota, interval) = if tiny {
            (8, 2_000, 500)
        } else {
            (64, 12_000, 2_000)
        };
        let schemes = [
            Scheme::GLOBAL,
            Scheme::REBOUND,
            Scheme::REBOUND_BARR,
            Scheme::REBOUND_CLUSTER,
            Scheme::REBOUND_EPOCH,
        ];
        let mut out = Vec::new();
        for scheme in schemes {
            for app in ["Ocean", "FFT", "Radix"] {
                out.push(Cell {
                    scheme,
                    app,
                    cores,
                    interval,
                    quota,
                });
            }
        }
        out
    }
}

/// One repetition: every cell run once, untraced.
#[derive(Default)]
struct Rep {
    /// Host seconds building the cells' machines: the set-up.
    build_s: f64,
    /// Host seconds inside the run loops (machine builds excluded).
    loop_s: f64,
    insts: u64,
    /// Simulated core-cycles (cycles × cores) summed over cells.
    core_cycles: u64,
    stall_cycles: u64,
    counts: Counts,
    layers: Layers,
}

fn repetition(cells: &[Cell], seed: u64, out: &mut Outcome) -> Rep {
    let mut rep = Rep::default();
    let mut app_insts = BTreeMap::new();
    for cell in cells {
        let label = cell.label();
        let t = Instant::now();
        let mut m = cell.build(seed);
        rep.build_s += secs(t);
        let t = Instant::now();
        let result = machine::run(&mut m, LIMITS);
        let s = secs(t);
        out.attempted += 1;
        let events = match result {
            Ok(events) => events,
            Err(e) => {
                out.failed += 1;
                out.problem(format!("{label}: {e}"));
                continue;
            }
        };
        let r = m.report();
        let short = (0..cell.cores)
            .filter(|&c| m.core_insts(CoreId(c)) < cell.quota)
            .count();
        if m.done_cores() != cell.cores || short > 0 {
            out.failed += 1;
            out.problem(format!(
                "{label}: {} of {} cores done, {short} short of the {}-instruction quota",
                m.done_cores(),
                cell.cores,
                cell.quota
            ));
        }
        // An application's instruction streams do not depend on the
        // scheme, so neither does the work it commits.
        let same_app = *app_insts.entry(cell.app).or_insert(r.insts);
        if r.insts != same_app {
            out.problem(format!(
                "{label}: committed {} insts, another scheme committed {same_app} on {}",
                r.insts, cell.app
            ));
        }
        rep.loop_s += s;
        rep.insts += r.insts;
        rep.core_cycles += r.cycles * cell.cores as u64;
        rep.stall_cycles += r.metrics.breakdown.total();
        machine::work_counts(&label, &r, events, &mut rep.counts);
        rep.layers.add_run(&m, events, s);
    }
    rep
}

/// Checks that a repetition simulated exactly what the first one did.
fn same_work(first: &Counts, rep: &Counts, what: &str, out: &mut Outcome) {
    if first != rep {
        let diff = first
            .iter()
            .find(|(k, v)| rep.get(*k) != Some(v))
            .map_or("a counter is missing".to_string(), |(k, v)| {
                format!("{k} {v} vs {:?}", rep.get(k))
            });
        out.problem(format!("{what} simulated different work: {diff}"));
    }
}

/// The untraced run: end-to-end metrics plus the work counts.
pub fn measure(args: &Args, out: &mut Outcome) -> Counts {
    let cells = cells(&args.workload, args.size);
    let start = Instant::now();
    // The first repetition warms the allocator and host caches; it is
    // checked like every other but not timed into the metrics.
    let first = repetition(&cells, args.seed, out);
    let (mut minsts, mut cells_per_s, mut setup_s) = (Vec::new(), Vec::new(), Vec::new());
    loop {
        let rep = repetition(&cells, args.seed, out);
        same_work(&first.counts, &rep.counts, "a repetition", out);
        minsts.push(rep.insts as f64 / rep.loop_s / 1e6);
        cells_per_s.push(cells.len() as f64 / rep.loop_s);
        setup_s.push(rep.build_s);
        let spent = secs(start);
        let per_rep = spent / (minsts.len() + 1) as f64;
        if minsts.len() >= MIN_REPS && spent + per_rep > args.seconds {
            break;
        }
    }
    out.notes.push(format!(
        "{} cells, {} timed repetitions after one warm-up: {} Minsts/s",
        cells.len(),
        minsts.len(),
        crate::stats::list(&minsts)
    ));
    out.set("setup_s", median(&setup_s));
    out.set("sim_minsts_per_s", median(&minsts));
    out.set("jobs_per_s", median(&cells_per_s));
    out.set("peak_rss_mb", peak_rss_mib());
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

/// The traced run: per-layer metrics. One untraced repetition (after a
/// warm-up) gives the counts and the untraced time; then every cell is
/// traced twice, once timing `step` and once timing `trace_step`, and
/// both traced runs must simulate exactly what the untraced one did.
pub fn trace(args: &Args, out: &mut Outcome) -> Counts {
    let cells = cells(&args.workload, args.size);
    repetition(&cells, args.seed, out);
    let Rep {
        build_s,
        loop_s,
        counts,
        mut layers,
        ..
    } = repetition(&cells, args.seed, out);
    out.set("machine.build_ns", build_s * 1e9 / cells.len() as f64);
    let mut traced_s = 0.0;
    // Counts of the `step` pass and of the `trace_step` pass.
    let mut traced_counts = [Counts::new(), Counts::new()];
    for cell in &cells {
        let label = cell.label();
        for (pass, traced) in traced_counts.iter_mut().enumerate() {
            let mut m = cell.build(args.seed);
            let t = Instant::now();
            let result = if pass == 0 {
                layers.step_pass(&mut m, LIMITS)
            } else {
                layers.event_pass(&mut m, LIMITS)
            };
            traced_s += secs(t);
            out.attempted += 1;
            match result {
                Ok(events) => machine::work_counts(&label, &m.report(), events, traced),
                Err(e) => {
                    out.failed += 1;
                    out.problem(format!("{label} traced: {e}"));
                }
            }
        }
    }
    for traced in &traced_counts {
        same_work(&counts, traced, "the traced run", out);
    }
    layers.emit(out);
    out.set("trace.untraced_s", loop_s);
    out.set("trace.traced_s", traced_s);
    out.set("trace.overhead_s", traced_s - loop_s);
    out.notes.push(format!(
        "traced run: every cell traced twice (step pass + trace_step pass) against one untraced pass of {loop_s:.3} s"
    ));
    counts
}
