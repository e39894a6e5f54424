//! Campaign-level golden-cache behaviour: the cache may only ever
//! change *when* golden replays happen — never what any emitted byte
//! contains. The reference is the uncached path, `run_job(j, None)`,
//! which replays every golden fresh. These tests pin the four
//! load-bearing properties, the first three at 1 and 4 workers:
//!
//! 1. CSV/JSON bytes equal the uncached reference's;
//! 2. with a store, goldens persist as `.golden` objects and a later
//!    campaign (or CI shard) computes zero goldens while still writing
//!    identical bytes;
//! 3. a corrupt golden object reads as a miss that self-heals on
//!    recompute;
//! 4. the stats line reports real reuse on a multi-plan matrix.

use rebound_core::Scheme;
use rebound_harness::{
    run_job, run_jobs, CampaignResult, CampaignRow, CampaignSpec, FaultPhase, FaultPlan, Job,
    RunScale, Store,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// Worker counts every campaign below runs at: the inline path and a
/// real pool.
const WORKERS: [usize; 2] = [1, 4];

fn temp_store() -> (Store, PathBuf) {
    let dir = std::env::temp_dir().join(format!(
        "rebound-golden-cache-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    (Store::open(&dir).expect("open store"), dir)
}

/// A small adversarial-shaped matrix: two base configs, several fault
/// plans each, phase triggers included — enough plans per base that the
/// cache has real sharing to do, at smoke scale so the suite stays fast.
fn matrix() -> Vec<Job> {
    let mut jobs = Vec::new();
    for (scheme, app) in [(Scheme::REBOUND, "Blackscholes"), (Scheme::REBOUND, "FFT")] {
        for plan in [
            FaultPlan::clean(),
            FaultPlan::single(1, 20_000),
            FaultPlan::single(2, 15_000),
            FaultPlan::on_phase(1, FaultPhase::CkptDrain).named("mid-drain"),
            FaultPlan::storm(1, 2, 15_000, 6_000),
        ] {
            jobs.push(Job {
                id: jobs.len(),
                scheme,
                app: app.to_string(),
                cores: 4,
                seed: 7,
                plan,
                scale: RunScale::smoke(),
                oracle: true,
            });
        }
    }
    jobs
}

/// The uncached reference: every job through `run_job(j, None)`, which
/// replays its golden fresh, assembled into a result for rendering.
fn uncached(jobs: &[Job]) -> CampaignResult {
    CampaignResult {
        rows: jobs
            .iter()
            .map(|j| CampaignRow {
                job: j.clone(),
                run: run_job(j, None).run_row(),
                cached: false,
            })
            .collect(),
        jobs_used: 1,
        wall_ms: 0,
        store: None,
        golden: None,
        golden_footprint: Vec::new(),
    }
}

#[test]
fn bytes_identical_with_cache_on_or_off_any_threads() {
    let jobs = matrix();
    let reference = uncached(&jobs);
    assert!(reference.failures().is_empty(), "{}", reference.summary());
    let ref_csv = reference.to_csv();
    let ref_json = reference.to_json();

    for workers in WORKERS {
        let cached = run_jobs(jobs.clone(), workers, None);
        assert_eq!(cached.to_csv(), ref_csv, "workers={workers}");
        assert_eq!(cached.to_json(), ref_json, "workers={workers}");
        let stats = cached.golden.expect("the cache reports stats");
        assert_eq!(
            stats.computed, 2,
            "one golden per base config (workers={workers}): {stats:?}"
        );
        assert!(
            stats.reused >= 6,
            "4 faulty plans per base share each golden: {stats:?}"
        );
        assert!(!cached.golden_footprint.is_empty());
    }
}

#[test]
fn store_persists_goldens_across_campaigns() {
    let jobs = matrix();
    let ref_csv = uncached(&jobs).to_csv();
    for workers in WORKERS {
        let (store, dir) = temp_store();

        let cold = run_jobs(jobs.clone(), workers, Some(&store));
        assert_eq!(cold.to_csv(), ref_csv, "workers={workers}");
        let g = cold.golden.expect("stats present");
        assert_eq!((g.computed, g.from_store), (2, 0), "{g:?}");

        // A later campaign with cold *rows* but warm *goldens* — the
        // cross-shard / cross-campaign case — must simulate zero goldens.
        for j in &jobs {
            store.remove(&store.key(j)).expect("drop row object");
        }
        let warm = run_jobs(jobs.clone(), workers, Some(&store));
        assert_eq!(warm.to_csv(), ref_csv, "warm-golden bytes diverged");
        let g = warm.golden.expect("stats present");
        assert_eq!(g.computed, 0, "goldens must come from the store: {g:?}");
        assert_eq!(g.from_store, 2, "{g:?}");
        assert!(g.reused >= 6, "{g:?}");

        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn corrupt_golden_objects_self_heal() {
    let jobs: Vec<Job> = matrix()
        .into_iter()
        .filter(|j| j.app == "Blackscholes")
        .collect();
    let ref_csv = uncached(&jobs).to_csv();
    for workers in WORKERS {
        let (store, dir) = temp_store();

        let cold = run_jobs(jobs.clone(), workers, Some(&store));
        assert_eq!(cold.to_csv(), ref_csv, "workers={workers}");

        // Corrupt the stored golden in place (the documented fan-out
        // layout: DIR/<2 hex>/<30 hex>.golden) and drop the rows so
        // judging must consult it again.
        let gkey = store.golden_key(&jobs[1]);
        let gpath = dir.join(&gkey[..2]).join(format!("{}.golden", &gkey[2..]));
        assert!(gpath.is_file(), "cold campaign persisted the golden");
        std::fs::write(
            &gpath,
            "rebound-store golden v1\nclean,,9,9,9,9,9,9,1\n7,7\nen",
        )
        .unwrap();
        for j in &jobs {
            store.remove(&store.key(j)).expect("drop row object");
        }

        let healed = run_jobs(jobs.clone(), workers, Some(&store));
        assert_eq!(healed.to_csv(), ref_csv, "corrupt golden changed bytes");
        let g = healed.golden.expect("stats present");
        assert_eq!(
            (g.computed, g.from_store),
            (1, 0),
            "a corrupt object is a miss that recomputes: {g:?}"
        );

        // And the recompute overwrote the corpse: next time it loads
        // clean.
        for j in &jobs {
            store.remove(&store.key(j)).expect("drop row object");
        }
        let reread = run_jobs(jobs.clone(), workers, Some(&store));
        assert_eq!(reread.to_csv(), ref_csv);
        let g = reread.golden.expect("stats present");
        assert_eq!((g.computed, g.from_store), (0, 1), "{g:?}");

        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The stock smoke spec through the public entry point: byte-identity
/// with the uncached reference holds for a real `CampaignSpec`
/// expansion too, and the summary line carries the goldens fragment.
#[test]
fn smoke_spec_summary_reports_goldens() {
    let mut spec = CampaignSpec::smoke();
    spec.apps.truncate(1);
    let jobs = spec.expand();
    let result = run_jobs(jobs.clone(), 2, None);
    assert_eq!(result.to_csv(), uncached(&jobs).to_csv());
    assert!(
        result.summary().contains("goldens: "),
        "{}",
        result.summary()
    );
}
