//! Self-test of the benchmark: a tiny-size run of every workload,
//! untraced and traced, must pass every output check (the traced run
//! checks that its traced passes simulate exactly what its untraced pass
//! did) and print exactly the metrics `BENCHMARK.json` names, each with
//! its unit.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(BENCHMARK_JSON).expect("read BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section ends")];
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

/// The string value of `"key": "..."` in `s`.
fn field(s: &str, key: &str) -> String {
    let at = s.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
    let rest = &s[at..];
    let open = rest.find('"').expect("value opens") + 1;
    let close = open + rest[open..].find('"').expect("value closes");
    rest[open..close].to_string()
}

/// `(name, unit)` of every metric in the result line, in printed order.
fn printed(result: &str) -> Vec<(String, String)> {
    let metrics = &result[result.find("\"metrics\"").expect("metrics key")..];
    metrics
        .split("}, ")
        .map(|m| {
            let name_end = m.rfind("\": {\"value\"").expect("metric entry");
            let name = &m[..name_end];
            let name = &name[name.rfind('"').expect("name opens") + 1..];
            (name.to_string(), field(m, "unit"))
        })
        .collect()
}

fn run(workload: &str, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0"])
        .args(["--trace", &trace.to_string(), "--size", "tiny"])
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

fn check(workload: &str) {
    for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
        let result = run(workload, trace);
        assert!(result.starts_with("{\"correct\": true, "), "{result}");
        assert!(result.contains("\"failed\": 0, "), "{result}");
        assert_eq!(printed(&result), declared(section), "{workload} {section}");
    }
}

#[test]
fn sim_wide_prints_every_metric() {
    check("sim-wide");
}

#[test]
fn sim_ckpt_prints_every_metric() {
    check("sim-ckpt");
}

#[test]
fn campaign_prints_every_metric() {
    check("campaign");
}

#[test]
fn bad_arguments_are_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "no-such-workload"])
        .output()
        .expect("run perfbench");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
