//! A minimal order-preserving worker pool on `std::thread`.
//!
//! The build environment has no crates.io access, so there is no rayon
//! here: workers share an atomic cursor into the item slice and each
//! claims the next unprocessed index. Results are returned in *input
//! order* regardless of which worker computed them or when — which is
//! what lets the campaign runner promise byte-identical aggregate output
//! for any `--jobs` value.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// Applies `f` to every item on up to `jobs` worker threads, returning
/// the results in input order.
///
/// Items are claimed dynamically (an atomic cursor, not static chunking),
/// so a few slow items do not idle the rest of the pool. `jobs` is
/// clamped to `1..=items.len()`; `jobs <= 1` runs inline on the calling
/// thread. If `f` panics on any item, the pool still processes every
/// remaining item, then resurfaces the panic of the **lowest-indexed**
/// failing item on the calling thread — so which message a multi-failure
/// run dies with never depends on thread scheduling, matching the inline
/// path (which fails on the first failing item it reaches).
///
/// # Example
///
/// ```
/// let squares = rebound_harness::parallel_map(&[1u64, 2, 3, 4], 2, |x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn parallel_map<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    if jobs <= 1 || n == 1 {
        return items.iter().map(&f).collect();
    }
    let workers = jobs.min(n);
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();

    // Lowest failing item's (index, payload). Every item is still claimed
    // and executed after a panic elsewhere — workers are independent, and
    // visiting all items is what makes "lowest failing index" a property
    // of the input rather than of the schedule.
    type Panic = Box<dyn std::any::Any + Send + 'static>;
    let first_panic: Mutex<Option<(usize, Panic)>> = Mutex::new(None);

    let run_worker = || {
        let mut produced: Vec<(usize, R)> = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            match catch_unwind(AssertUnwindSafe(|| f(&items[i]))) {
                Ok(r) => produced.push((i, r)),
                Err(payload) => {
                    let mut slot = first_panic.lock().expect("no panic while held");
                    match &*slot {
                        Some((j, _)) if *j <= i => {}
                        _ => *slot = Some((i, payload)),
                    }
                }
            }
        }
        produced
    };

    thread::scope(|s| {
        let handles: Vec<_> = (0..workers).map(|_| s.spawn(run_worker)).collect();
        for h in handles {
            let produced = h.join().expect("worker panics are caught per item");
            for (i, r) in produced {
                slots[i] = Some(r);
            }
        }
    });
    if let Some((_, payload)) = first_panic.into_inner().expect("no panic while held") {
        resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index claimed exactly once"))
        .collect()
}

/// Interprets one thread-count environment value: a parseable count is
/// clamped to at least 1; garbage yields `None` (caller falls back) and
/// warns on stderr **once** per `warned` flag — a typo'd
/// `REBOUND_JOBS=al1` must not silently serialize a campaign.
fn env_count(name: &str, raw: &str, warned: &AtomicBool) -> Option<usize> {
    match raw.trim().parse::<usize>() {
        Ok(n) => Some(n.max(1)),
        Err(_) => {
            if !warned.swap(true, Ordering::Relaxed) {
                eprintln!(
                    "warning: ignoring unparseable {name}={raw:?} (expected a thread count); \
                     using the default"
                );
            }
            None
        }
    }
}

/// The default worker count: `REBOUND_JOBS` if set and parseable (an
/// unparseable value warns once on stderr), else the machine's available
/// parallelism, else 1.
pub fn default_jobs() -> usize {
    static WARNED: AtomicBool = AtomicBool::new(false);
    if let Ok(v) = std::env::var("REBOUND_JOBS") {
        if let Some(n) = env_count("REBOUND_JOBS", &v, &WARNED) {
            return n;
        }
    }
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u32> = parallel_map(&[] as &[u32], 8, |x| *x);
        assert!(out.is_empty());
    }

    #[test]
    fn order_is_preserved_for_any_worker_count() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for jobs in [1, 2, 3, 8, 64, 1000] {
            assert_eq!(
                parallel_map(&items, jobs, |x| x * 3 + 1),
                expect,
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn every_item_processed_exactly_once() {
        let hits = AtomicU64::new(0);
        let items: Vec<u64> = (0..100).collect();
        parallel_map(&items, 7, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 100);
    }

    #[test]
    #[should_panic(expected = "item 13 exploded")]
    fn worker_panics_propagate() {
        let items: Vec<u64> = (0..64).collect();
        parallel_map(&items, 4, |x| {
            if *x == 13 {
                panic!("item 13 exploded");
            }
            *x
        });
    }

    /// Regression: with several failing items the surfaced panic used to
    /// be whichever failing worker *joined last* — a function of thread
    /// scheduling. It must always be the lowest-indexed failing item.
    #[test]
    fn multi_panic_surfaces_the_lowest_failing_index() {
        let items: Vec<u64> = (0..200).collect();
        // Many failing items spread across the claim order, so that with
        // 8 workers several workers fail on every run.
        for attempt in 0..20 {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                parallel_map(&items, 8, |x| {
                    if *x >= 17 && *x % 3 == 2 {
                        panic!("item {x} failed");
                    }
                    *x
                });
            }))
            .expect_err("a failing item must surface");
            let msg = caught
                .downcast_ref::<String>()
                .expect("panic! with a formatted message");
            // 17 is the first index with x % 3 == 2 (x >= 17).
            assert_eq!(msg, "item 17 failed", "attempt {attempt}");
        }
    }

    #[test]
    fn multi_panic_still_completes_all_nonfailing_items() {
        // Every non-failing item is processed even though an early item
        // panicked (the pool drains the whole input before resurfacing).
        let hits = AtomicU64::new(0);
        let items: Vec<u64> = (0..100).collect();
        let _ = catch_unwind(AssertUnwindSafe(|| {
            parallel_map(&items, 5, |x| {
                if *x == 3 || *x == 50 {
                    panic!("boom {x}");
                }
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }));
        assert_eq!(hits.load(Ordering::Relaxed), 98);
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn env_count_parses_clamps_and_warns_once() {
        let warned = AtomicBool::new(false);
        assert_eq!(env_count("REBOUND_JOBS", "4", &warned), Some(4));
        assert_eq!(env_count("REBOUND_JOBS", " 2 ", &warned), Some(2));
        // Zero is clamped, not rejected (a count of 0 means "serial").
        assert_eq!(env_count("REBOUND_JOBS", "0", &warned), Some(1));
        assert!(!warned.load(Ordering::Relaxed), "valid values never warn");

        // The typo'd value falls back *and* trips the once-flag.
        assert_eq!(env_count("REBOUND_JOBS", "al1", &warned), None);
        assert!(warned.load(Ordering::Relaxed));
        // Second failure: flag already set, still falls back.
        assert_eq!(env_count("REBOUND_JOBS", "-3", &warned), None);
        assert!(warned.load(Ordering::Relaxed));
    }
}
