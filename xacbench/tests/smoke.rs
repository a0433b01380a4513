//! Smoke test of the benchmark at a tiny document factor: every metric
//! `BENCHMARK.json` declares is printed with its unit, every answer
//! check passes, and a wrong expected answer is reported as a failed
//! operation.
//!
//! Run with `cargo test --release --manifest-path xacbench/Cargo.toml`.

use std::process::Command;

const WORKLOADS: &[&str] = &["update_cycle", "wire_durable"];

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn field(entry: &str, key: &str) -> String {
    let at = entry.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
    let rest = &entry[at..];
    let open = rest.find('"').expect("value opens") + 1;
    let close = open + rest[open..].find('"').expect("value closes");
    rest[open..close].to_string()
}

/// Run one workload and return its last stdout line.
fn run(workload: &str, trace: u8, extra: &[&str]) -> String {
    let scratch = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("xacbench-smoke-{workload}-{trace}-{}", extra.len()));
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_xacbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
        ])
        .arg(trace.to_string())
        .args(["--factor", "0.02"])
        .args(extra)
        .current_dir(&scratch)
        .output()
        .expect("benchmark runs");
    let _ = std::fs::remove_dir_all(&scratch);
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

fn number(json: &str, key: &str) -> u64 {
    let at = json.find(&format!("\"{key}\": ")).expect("key present") + key.len() + 4;
    json[at..]
        .split(|c: char| !c.is_ascii_digit())
        .next()
        .unwrap()
        .parse()
        .unwrap()
}

fn assert_metrics(workload: &str, json: &str, metrics: &[(String, String)]) {
    assert!(json.starts_with("{\"correct\": true"), "{workload}: {json}");
    assert_eq!(number(json, "failed"), 0, "{workload}: {json}");
    assert!(number(json, "attempted") > 0);
    for (name, unit) in metrics {
        let entry = format!("\"{name}\": {{\"value\": ");
        let at = json
            .find(&entry)
            .unwrap_or_else(|| panic!("{workload}: {name} missing"));
        let rest = &json[at + entry.len()..];
        let rest = &rest[..rest.find('}').expect("entry closes")];
        assert!(!rest.starts_with("null"), "{workload}: {name} has no value");
        assert!(
            rest.ends_with(&format!("\"unit\": \"{unit}\"")),
            "{workload}: {name} lacks unit {unit}"
        );
    }
}

#[test]
fn every_metric_is_printed_with_its_unit() {
    let e2e = declared("end_to_end");
    let layers = declared("per_layer");
    assert!(e2e.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    for w in WORKLOADS {
        assert_metrics(w, &run(w, 0, &[]), &e2e);
        assert_metrics(w, &run(w, 1, &[]), &layers);
    }
}

#[test]
fn a_wrong_expected_answer_is_a_failed_operation() {
    for w in WORKLOADS {
        let json = run(w, 0, &["--wrong-answer"]);
        assert!(json.starts_with("{\"correct\": false"), "{w}: {json}");
        assert!(number(&json, "failed") >= 1, "{w}: {json}");
    }
}
