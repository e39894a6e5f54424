//! The exact work-count guard.
//!
//! Simulated work is deterministic: at one seed every event, access,
//! message, checkpoint and rollback count repeats exactly, on any host.
//! `work_counts.tsv` in this directory records those counts per workload
//! and seed, and a run at a recorded seed must reproduce them exactly —
//! a noise-free tripwire for any change in simulated behaviour. A change
//! meant only to speed the simulator up must leave the file valid.
//! `--bless` (re)records the counts of one workload at one seed.

use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;

/// Counts of one workload at one seed, by counter name.
pub type Counts = BTreeMap<String, u64>;

type Table = BTreeMap<(String, u64), Counts>;

fn path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("work_counts.tsv")
}

fn load() -> io::Result<Table> {
    let text = match std::fs::read_to_string(path()) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(e),
    };
    let mut table = Table::new();
    for (i, line) in text.lines().enumerate() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let bad = || io::Error::other(format!("work_counts.tsv line {}: {line:?}", i + 1));
        let f: Vec<&str> = line.split('\t').collect();
        let [workload, seed, key, value] = f[..] else {
            return Err(bad());
        };
        let seed: u64 = seed.parse().map_err(|_| bad())?;
        let value: u64 = value.parse().map_err(|_| bad())?;
        table
            .entry((workload.to_string(), seed))
            .or_default()
            .insert(key.to_string(), value);
    }
    Ok(table)
}

/// Compares `counts` against the recorded counts of `workload` at
/// `seed`. `Ok(false)`: nothing is recorded for that seed. `Err` lists
/// every counter that differs.
pub fn check(workload: &str, seed: u64, counts: &Counts) -> Result<bool, Vec<String>> {
    let table = load().map_err(|e| vec![e.to_string()])?;
    let Some(want) = table.get(&(workload.to_string(), seed)) else {
        return Ok(false);
    };
    let mut diffs = Vec::new();
    for key in want
        .keys()
        .chain(counts.keys().filter(|k| !want.contains_key(*k)))
    {
        let (w, g) = (want.get(key), counts.get(key));
        if w != g {
            let show = |v: Option<&u64>| v.map_or("missing".to_string(), u64::to_string);
            diffs.push(format!(
                "work count {workload}/seed {seed}/{key}: recorded {}, measured {}",
                show(w),
                show(g)
            ));
        }
    }
    if diffs.is_empty() {
        Ok(true)
    } else {
        Err(diffs)
    }
}

/// Records `counts` as the expected counts of `workload` at `seed`,
/// replacing any earlier record for that pair.
pub fn bless(workload: &str, seed: u64, counts: &Counts) -> io::Result<()> {
    let mut table = load()?;
    table.insert((workload.to_string(), seed), counts.clone());
    let mut out = String::from(
        "# Exact simulated work counts per workload and seed; see src/guard.rs.\n\
         # Regenerate one entry: cargo run --release --manifest-path perfbench/Cargo.toml \
         -- --workload W --seed N --bless\n\
         # workload\tseed\tcounter\tvalue\n",
    );
    for ((workload, seed), counts) in &table {
        for (key, value) in counts {
            out.push_str(&format!("{workload}\t{seed}\t{key}\t{value}\n"));
        }
    }
    std::fs::write(path(), out)
}
