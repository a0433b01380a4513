//! `xacbench`: the xmlac benchmark. One command generates its inputs
//! from `--seed`, drives one workload in a closed loop with one client
//! for `--seconds`, checks every answer against the definitional
//! evaluator, and prints each metric by name with its unit. The last
//! line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` — end-to-end metrics
//! with `--trace 0`, the per-layer ledger with `--trace 1`.
//!
//! See `README.md` in this directory for the workloads and metrics.

mod inputs;
mod ledger;
mod served;
mod stats;

use ledger::{Ledger, LAYER_METRICS};
use std::fmt::Write as _;
use std::process::ExitCode;
use xac_serve::BackendKind;

/// End-to-end metrics, in the order they are printed.
pub const E2E_METRICS: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_s", "1/s"),
    ("read_p50_us", "us"),
    ("fresh_read_p50_us", "us"),
    ("update_p50_us", "us"),
    ("annotate_ms", "ms"),
    ("rss_peak_mb", "MB"),
];

pub const WORKLOADS: &[&str] = &["update_cycle", "wire_durable"];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Overrides the workload's document factor (smoke tests).
    pub factor: Option<f64>,
    /// Corrupts one expected answer, to show a wrong answer is counted
    /// as a failed operation (smoke tests).
    pub wrong_answer: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        factor: None,
        wrong_answer: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--factor" => {
                args.factor = Some(value()?.parse().map_err(|e| format!("--factor: {e}"))?)
            }
            "--wrong-answer" => args.wrong_answer = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, not `{}`",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// What a workload hands back for printing.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    e2e: Vec<(&'static str, f64, &'static str)>,
    lines: Vec<String>,
    meta: Vec<(&'static str, String)>,
    pub ledger: Option<Ledger>,
}

impl Report {
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.e2e.push((name, value, unit));
    }

    pub fn line(&mut self, line: String) {
        self.lines.push(line);
    }

    /// An exact count; it repeats for a given seed.
    pub fn count(&mut self, name: &str, value: u64) {
        self.lines.push(format!("count {name} {value}"));
    }

    pub fn samples(&mut self, name: &str, n: usize) {
        self.lines.push(format!("samples {name} {n}"));
    }

    pub fn meta(&mut self, key: &'static str, value: String) {
        self.meta.push((key, value));
    }

    /// Tails with at least ten samples beyond them (none otherwise).
    pub fn tails(&mut self, tally: &served::Tally) {
        for (name, samples) in [("read", &tally.reads), ("update", &tally.updates)] {
            if let Some((p, v)) = samples.tail() {
                self.line(format!(
                    "{name}_tail p{p} {v:.1} us over {} samples",
                    samples.len()
                ));
            }
        }
    }

    /// Take the operation counts and the ledger.
    pub fn finish(&mut self, tally: served::Tally, ledger: Ledger) {
        self.attempted = tally.attempted;
        self.failed = tally.failed;
        self.first_failure = tally.first_failure;
        self.ledger = Some(ledger);
    }
}

/// Reset the peak resident set to the current one, so that
/// `rss_peak_mb` leaves out the reference answers computed during
/// set-up. A kernel that refuses the reset is noted in the report.
pub fn reset_rss_peak(report: &mut Report) {
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        report.line(format!("rss peak not reset: {e}"));
    }
}

/// Peak resident set of this process, in MB.
fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The commit being measured, read from `.git` when the checkout has
/// one (no subprocess).
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// Give the process a single malloc arena. By default glibc hands each
/// new thread a fresh or a recycled arena at random, and memory freed in
/// one arena stays resident; `wire_durable`'s server threads then made
/// its peak resident set jump between two levels about 25% apart from run
/// to run. With one arena the peak tracks the live data.
fn single_malloc_arena() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // glibc's `M_ARENA_MAX` from `<malloc.h>`.
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` only changes allocator parameters; it runs first
    // thing in `main`, before this process spawns any thread.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

fn main() -> ExitCode {
    single_malloc_arena();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xacbench: {e}");
            eprintln!(
                "usage: xacbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "update_cycle" => served::run(
            &served::Spec {
                factor: 0.3,
                kind: BackendKind::Row,
                durable: false,
                wire: false,
                broad: 500,
                selective: 1500,
                reads_per_update: 8,
            },
            &args,
        ),
        // `wire_durable`, the only other name `parse_args` admits.
        _ => served::run(
            &served::Spec {
                factor: 1.0,
                kind: BackendKind::Native,
                durable: true,
                wire: true,
                broad: 0,
                selective: 6000,
                reads_per_update: 15,
            },
            &args,
        ),
    };
    let mut report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xacbench: {} could not run: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    report.e2e("rss_peak_mb", rss_peak_mb(), "MB");

    println!(
        "meta workload {} seed {} seconds {} trace {} git_rev {} nproc {} profile {}{}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_rev(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        report
            .meta
            .iter()
            .map(|(k, v)| format!(" {k} {v}"))
            .collect::<String>(),
    );
    for line in &report.lines {
        println!("{line}");
    }
    for (name, value, unit) in &report.e2e {
        println!("metric {name} {value:.6} {unit}");
    }
    if let Some(ledger) = &report.ledger {
        if ledger.on {
            for (name, unit) in LAYER_METRICS {
                match ledger.reading(name, unit) {
                    Some(v) => println!("layer {name} {v:.6} {unit} (n={})", ledger.samples(name)),
                    None => println!("layer {name} missing"),
                }
            }
        }
    }
    if let Some(why) = &report.first_failure {
        println!("first failure: {why}");
    }

    let mut metrics = String::new();
    let mut missing = 0;
    if args.trace {
        let ledger = report.ledger.as_ref().expect("traced runs keep a ledger");
        for (name, unit) in LAYER_METRICS {
            let v = ledger.reading(name, unit);
            missing += usize::from(v.is_none());
            let sep = if metrics.is_empty() { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(v.unwrap_or(f64::NAN))
            );
        }
    } else {
        for (name, unit) in E2E_METRICS {
            let v = report.e2e.iter().find(|(n, _, _)| n == name).map(|e| e.1);
            missing += usize::from(v.is_none_or(|v| !v.is_finite()));
            let sep = if metrics.is_empty() { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(v.unwrap_or(f64::NAN))
            );
        }
    }
    let failed = report.failed + missing as u64;
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        failed == 0,
        report.attempted.max(1) + missing as u64,
        failed
    );
    ExitCode::SUCCESS
}
