//! `rebound-campaign` CLI contract tests, driven through the real binary
//! (`CARGO_BIN_EXE_rebound-campaign`): a filter matching nothing is a
//! hard error, malformed `--shard` specs and removed flags are
//! rejected, and the
//! `--store`/`--shard` flags compose end-to-end — warm reruns report
//! zero recomputes and write byte-identical CSVs, shards partition the
//! filtered matrix.

use std::path::PathBuf;
use std::process::{Command, Output};

fn campaign(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rebound-campaign"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn filter_matching_nothing_exits_nonzero() {
    // The regression this pins: a typo'd `--filter` used to be able to
    // select zero jobs and still exit 0, leaving CI green while testing
    // nothing.
    let out = campaign(&["--spec", "smoke", "--filter", "no-such-job-anywhere"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("matched no jobs"),
        "stderr: {}",
        stderr(&out)
    );
}

#[test]
fn malformed_shard_specs_are_rejected() {
    for bad in ["2/2", "1", "a/b", "0/0"] {
        let out = campaign(&["--spec", "smoke", "--shard", bad, "--list"]);
        assert_eq!(out.status.code(), Some(2), "--shard {bad} must be rejected");
    }
}

#[test]
fn removed_golden_flags_are_unknown_arguments() {
    // Jobs run one way only, through the campaign-wide golden cache: a
    // flag asking for another way must fail loudly, not be ignored.
    for flag in [&["--sim-threads", "2"][..], &["--no-golden-cache"]] {
        let mut args = vec!["--spec", "smoke", "--list"];
        args.extend(flag);
        let out = campaign(&args);
        assert_eq!(out.status.code(), Some(2), "{flag:?} must be rejected");
        assert!(
            stderr(&out).contains(&format!("unknown argument: {}", flag[0])),
            "stderr: {}",
            stderr(&out)
        );
    }
}

#[test]
fn store_and_shard_compose_end_to_end() {
    let dir = std::env::temp_dir().join(format!("rebound-cli-store-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    let store = dir.join("store");
    let path = |name: &str| -> PathBuf { dir.join(name) };
    let base = ["--spec", "smoke", "--filter", "Blackscholes", "--jobs", "2"];

    // Cold run fills the store (8 jobs: 2 schemes x 2 seeds x 2 plans).
    let mut args: Vec<&str> = base.to_vec();
    let store_s = store.to_str().unwrap();
    let cold_csv = path("cold.csv");
    args.extend(["--store", store_s, "--out", cold_csv.to_str().unwrap()]);
    let cold = campaign(&args);
    assert!(cold.status.success(), "stderr: {}", stderr(&cold));
    assert!(
        stderr(&cold).contains("store: 0 cached, 8 recomputed"),
        "stderr: {}",
        stderr(&cold)
    );

    // Warm rerun recomputes nothing and writes the same bytes.
    let warm_csv = path("warm.csv");
    let mut args: Vec<&str> = base.to_vec();
    args.extend(["--store", store_s, "--out", warm_csv.to_str().unwrap()]);
    let warm = campaign(&args);
    assert!(warm.status.success(), "stderr: {}", stderr(&warm));
    assert!(
        stderr(&warm).contains("store: 8 cached, 0 recomputed"),
        "stderr: {}",
        stderr(&warm)
    );
    assert_eq!(
        std::fs::read(&cold_csv).unwrap(),
        std::fs::read(&warm_csv).unwrap(),
        "warm store changed the output bytes"
    );

    // Shards partition the filtered matrix: disjoint ids, all cached
    // (the store is warm), union size = the unsharded row count.
    let mut ids = Vec::new();
    for shard in ["0/2", "1/2"] {
        let out_csv = path(&format!("shard{}.csv", &shard[..1]));
        let mut args: Vec<&str> = base.to_vec();
        args.extend([
            "--shard",
            shard,
            "--store",
            store_s,
            "--out",
            out_csv.to_str().unwrap(),
        ]);
        let out = campaign(&args);
        assert!(out.status.success(), "stderr: {}", stderr(&out));
        assert!(
            stderr(&out).contains("0 recomputed"),
            "sharded warm run recomputed: {}",
            stderr(&out)
        );
        for line in std::fs::read_to_string(&out_csv).unwrap().lines().skip(1) {
            let id: u64 = line.split(',').next().unwrap().parse().unwrap();
            ids.push(id);
        }
    }
    ids.sort();
    let unsharded_ids: Vec<u64> = std::fs::read_to_string(&cold_csv)
        .unwrap()
        .lines()
        .skip(1)
        .map(|l| l.split(',').next().unwrap().parse().unwrap())
        .collect();
    assert_eq!(ids, unsharded_ids, "shards must partition the matrix");

    std::fs::remove_dir_all(&dir).ok();
}
