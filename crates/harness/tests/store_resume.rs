//! End-to-end resumability: a cold `--store` campaign persists every
//! row; a warm rerun recomputes nothing and still renders a CSV
//! byte-identical to both the cold run and a storeless run; invalidating
//! exactly one key recomputes exactly that one job; and the union of all
//! `--shard i/n` CSVs reconstructs the unsharded CSV.

use rebound_harness::store::content_key;
use rebound_harness::{run_jobs, CampaignSpec, Job, Shard, Store};

fn spec() -> CampaignSpec {
    let mut spec = CampaignSpec::smoke();
    spec.apps.truncate(2);
    spec.seeds.truncate(1);
    spec
}

fn tmp_store(tag: &str) -> (std::path::PathBuf, Store) {
    let dir = std::env::temp_dir().join(format!("rebound-store-it-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = Store::open(&dir).expect("store opens");
    (dir, store)
}

#[test]
fn warm_store_recomputes_nothing_and_matches_cold_bytes() {
    let (dir, store) = tmp_store("warm");
    let jobs: Vec<Job> = spec().expand();
    let n = jobs.len();
    assert!(n >= 2, "need a non-trivial matrix");

    let plain = run_jobs(jobs.clone(), 2, None);

    // Cold: everything is a miss, everything gets persisted.
    let cold = run_jobs(jobs.clone(), 2, Some(&store));
    let cold_stats = cold.store.as_ref().expect("stats with a store");
    assert_eq!((cold_stats.hits, cold_stats.recomputed), (0, n));
    assert_eq!(cold.to_csv(), plain.to_csv(), "store must not change bytes");

    // Warm: zero recomputes, byte-identical CSV and JSON — and also
    // identical across different worker counts, which is what makes
    // caching across them sound.
    let warm = run_jobs(jobs.clone(), 4, Some(&store));
    let warm_stats = warm.store.as_ref().expect("stats with a store");
    assert_eq!((warm_stats.hits, warm_stats.recomputed), (n, 0));
    assert_eq!(warm.to_csv(), cold.to_csv());
    assert_eq!(warm.to_json(), cold.to_json());
    assert!(warm.rows.iter().all(|r| r.cached));
    assert!(warm.summary().contains(&format!("{n} cached")));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn invalidating_one_key_recomputes_exactly_that_job() {
    let (dir, store) = tmp_store("invalidate");
    let jobs: Vec<Job> = spec().expand();
    let n = jobs.len();

    run_jobs(jobs.clone(), 2, Some(&store));

    // Drop one object — the moral equivalent of salting one key.
    let victim = &jobs[n / 2];
    assert!(store.remove(&store.key(victim)).expect("remove"));

    let rerun = run_jobs(jobs.clone(), 2, Some(&store));
    let stats = rerun.store.as_ref().expect("stats");
    assert_eq!((stats.hits, stats.recomputed), (n - 1, 1));
    for row in &rerun.rows {
        assert_eq!(
            row.cached,
            row.job.id != victim.id,
            "only the invalidated job may recompute ({})",
            row.job.label()
        );
    }

    // A different salt is a full invalidation: no key under the shipped
    // salt matches one under any other.
    for job in &jobs {
        assert_ne!(store.key(job), content_key(job, "experimental-salt"));
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shard_union_reconstructs_the_unsharded_csv() {
    let jobs: Vec<Job> = spec().expand();
    let whole = run_jobs(jobs.clone(), 2, None);
    let whole_csv = whole.to_csv();

    let mut body: Vec<(u64, String)> = Vec::new();
    let mut header = None;
    for index in 0..3 {
        let shard = Shard { index, of: 3 };
        let part = run_jobs(shard.apply(jobs.clone()), 2, None);
        let csv = part.to_csv();
        let mut lines = csv.lines();
        let h = lines.next().expect("shard CSV has a header").to_string();
        assert_eq!(*header.get_or_insert(h.clone()), h);
        for line in lines {
            let id: u64 = line
                .split(',')
                .next()
                .and_then(|f| f.parse().ok())
                .expect("row starts with its job id");
            body.push((id, line.to_string()));
        }
    }

    // Merge the shard bodies by job id — expansion ids survive sharding,
    // so the sorted union is exactly the unsharded body.
    body.sort();
    let merged: Vec<&str> = std::iter::once(header.as_deref().expect("header"))
        .chain(body.iter().map(|(_, l)| l.as_str()))
        .collect();
    assert_eq!(format!("{}\n", merged.join("\n")), whole_csv);
}
