//! Parallel experiment campaigns with a differential recovery oracle.
//!
//! The bench crate's `reproduce` regenerates the figures; this crate runs
//! *campaigns*: a [`CampaignSpec`] names the cartesian product of
//! checkpointing schemes × catalog applications × core counts × seeds ×
//! fault plans, [`run_jobs`] executes its expansion on a `std::thread`
//! worker pool (the environment has no crates.io access, so no rayon —
//! see [`parallel_map`]), and the aggregated [`CampaignResult`] renders
//! a typed results table as CSV or JSON.
//!
//! The centerpiece is the **differential recovery oracle**
//! ([`oracle::run_job`]): every faulty run is replayed fault-free at the
//! same seed to produce a golden twin, the faulty run rolls back through
//! Rebound recovery and re-executes, and the oracle asserts the
//! post-recovery machine matches the golden one on every
//! timing-independent architectural quantity — clean termination, total
//! committed instructions and stores, and (for single-writer-data
//! profiles) the exact final value of every data line. This turns the
//! paper's §3 correctness argument into an executable check over the
//! whole Fig 4.3(a) matrix. Golden runs depend only on a job's *base
//! identity* (scheme, app, cores, seed, scale), so each one is captured
//! once into an immutable [`GoldenSnapshot`] and memoized campaign-wide
//! by a [`GoldenCache`] — dozens of fault plans per base config share a
//! single golden simulation, and with `--store DIR` the snapshots
//! persist across campaigns and shards.
//!
//! Everything emitted into the CSV/JSON tables is a deterministic
//! function of the spec, so output is **byte-identical for any worker
//! count** — `rebound-campaign --jobs 1` and `--jobs 8` produce the same
//! file. That determinism is also what makes results *cacheable*: the
//! content-addressed [`store`] persists each job's row under a hash of
//! its semantic identity, so `--store DIR` campaigns recompute only
//! cache misses, and [`Shard`] splits a matrix across CI jobs with the
//! union of shard CSVs equal to the unsharded one.
//!
//! There are two ways in: [`run_jobs`] runs a campaign's job list on a
//! worker pool, and [`run_job`] runs one job.
//!
//! # Example
//!
//! ```
//! use rebound_harness::{run_jobs, CampaignSpec};
//!
//! let mut spec = CampaignSpec::smoke();
//! spec.apps.truncate(1);
//! spec.seeds.truncate(1);
//! let result = run_jobs(spec.expand(), 2, None);
//! assert!(result.failures().is_empty());
//! assert!(result.to_csv().lines().count() > 1);
//! ```

pub mod oracle;
pub mod pool;
pub mod results;
pub mod spec;
pub mod store;
#[cfg(feature = "strategies")]
pub mod strategies;

pub use oracle::{
    run_job, run_job_cached, GoldenCache, GoldenCtx, GoldenFootprint, GoldenSnapshot, GoldenStats,
    JobOutcome, OracleVerdict,
};
pub use pool::{default_jobs, parallel_map};
pub use results::{CampaignResult, CampaignRow, RunRow, StoreStats};
pub use spec::{
    CampaignSpec, FaultPhase, FaultPlan, FaultSpec, FaultTrigger, Job, RunScale, Shard,
};
pub use store::{golden_content_key, Store, STORE_SCHEMA_VERSION};

use std::time::Instant;

/// Executes `jobs` on `workers` threads and aggregates the results (row
/// order = job order, independent of scheduling).
///
/// Every worker shares one [`GoldenCache`] primed with the job list: the
/// first faulty job of a base config simulates its golden snapshot and
/// every other fault plan of that config reuses it. With a `store`,
/// rows whose content key is present load from disk, misses simulate
/// and persist atomically, and golden snapshots persist as `.golden`
/// objects, so later campaigns and sibling CI shards skip even the first
/// golden simulation. Cached and recomputed rows flow through the same
/// rendering path, so the aggregate CSV/JSON is byte-identical whether
/// the store was cold, warm, or absent.
///
/// A store write failure is not fatal — the row was computed, the
/// campaign stays correct; the failure is reported on stderr and the
/// job simply stays uncached.
pub fn run_jobs(jobs: Vec<Job>, workers: usize, store: Option<&Store>) -> CampaignResult {
    let t0 = Instant::now();
    let cache = GoldenCache::for_jobs(&jobs);
    let ctx = GoldenCtx {
        cache: &cache,
        store,
    };
    let rows = parallel_map(&jobs, workers, |j| {
        let simulate = || run_job(j, Some(ctx)).run_row();
        let (run, cached) = match store {
            None => (simulate(), false),
            Some(st) => {
                let key = st.key(j);
                match st.load(&key) {
                    Some(run) => (run, true),
                    None => {
                        let run = simulate();
                        if let Err(e) = st.save(&key, &run) {
                            eprintln!("warning: store write for {} failed: {e}", j.label());
                        }
                        (run, false)
                    }
                }
            }
        };
        CampaignRow {
            job: j.clone(),
            run,
            cached,
        }
    });
    let stats = store.map(|_| {
        let hits = rows.iter().filter(|r| r.cached).count();
        StoreStats {
            hits,
            recomputed: rows.len() - hits,
        }
    });
    CampaignResult {
        rows,
        jobs_used: workers.max(1),
        wall_ms: t0.elapsed().as_millis(),
        store: stats,
        golden: Some(cache.stats()),
        golden_footprint: cache.footprint(),
    }
}

/// [`run_jobs`] under its old name; the third argument is ignored. Kept
/// only because the benchmark in `perfbench/` calls it; it goes when a
/// benchmark change moves `perfbench` to [`run_jobs`].
#[doc(hidden)]
pub fn run_jobs_stored(
    jobs: Vec<Job>,
    workers: usize,
    _sim_threads: usize,
    store: Option<&Store>,
) -> CampaignResult {
    run_jobs(jobs, workers, store)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The core determinism contract: worker count never changes the
    /// aggregate bytes.
    #[test]
    fn csv_is_byte_identical_across_worker_counts() {
        let mut spec = CampaignSpec::smoke();
        spec.apps = vec!["Blackscholes".to_string()];
        spec.seeds = vec![1];
        let serial = run_jobs(spec.expand(), 1, None);
        let parallel = run_jobs(spec.expand(), 8, None);
        assert_eq!(serial.to_csv(), parallel.to_csv());
        assert_eq!(serial.to_json(), parallel.to_json());
        assert!(serial.failures().is_empty(), "{}", serial.summary());
    }

    #[test]
    fn csv_has_header_and_one_row_per_job() {
        let mut spec = CampaignSpec::smoke();
        spec.apps = vec!["FFT".to_string()];
        spec.seeds = vec![2];
        spec.oracle = false;
        let r = run_jobs(spec.expand(), 4, None);
        let csv = r.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + r.rows.len());
        assert!(lines[0].starts_with("id,scheme,app,"));
        // Oracle disabled: every verdict is "-".
        assert!(r
            .rows
            .iter()
            .all(|row| row.run.verdict == OracleVerdict::NotApplicable));
        // No store in play: no cache accounting, nothing marked cached.
        assert!(r.store.is_none());
        assert!(r.rows.iter().all(|row| !row.cached));
    }
}
