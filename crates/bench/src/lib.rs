//! # xac-bench
//!
//! Shared experiment plumbing for the benchmark harness. The `figures`
//! binary (`cargo run --release -p xac-bench --bin figures`) regenerates
//! every table and figure of the paper's §7; the spot benches
//! (`cargo bench`, driven by the in-repo [`harness`]) provide repeated
//! measurements of the same operations at a fixed factor.
//!
//! | Paper artifact | Regenerated by |
//! |---|---|
//! | Table 1 / Table 3 | `figures table3` |
//! | Table 5 (document sizes) | `figures table5` |
//! | Figure 9 (loading time) | `figures fig9`, bench `loading` |
//! | Figure 10 (response time) | `figures fig10`, bench `response` |
//! | Figure 11 (annotation vs coverage) | `figures fig11`, bench `annotation` |
//! | Figure 12 (re-annotation vs full) | `figures fig12`, bench `reannotation` |
//! | §7.2 speedup summary | `figures summary` |

pub mod harness;

use std::time::Duration;
use xac_core::{Backend, NativeXmlBackend, RelationalBackend, System};
use xac_xmlgen::{coverage_policy, xmark_document, xmark_schema, XmarkConfig};

/// The three systems under comparison, in the paper's presentation order
/// (native XML first, then the two relational engines).
pub fn backends() -> Vec<Box<dyn Backend>> {
    vec![
        Box::new(NativeXmlBackend::new()),
        Box::new(RelationalBackend::column()),
        Box::new(RelationalBackend::row()),
    ]
}

/// Display names aligned with the paper's legends.
pub fn backend_legend(name: &str) -> &'static str {
    match name {
        "native/xml" => "xquery (native)",
        "relational/column" => "monet-like (column)",
        "relational/row" => "pg-like (row)",
        _ => "unknown",
    }
}

/// Build the complete system for one document factor: XMark-like
/// document + coverage policy (the §7.1 dataset).
pub fn xmark_system(factor: f64, coverage: f64, seed: u64) -> System {
    xmark_system_with_mode(factor, coverage, seed, xac_core::AnnotateMode::default())
}

/// [`xmark_system`] with an explicit annotation mode — the `serve` sweep
/// builds its systems in the compiled mode everything that serves runs.
pub fn xmark_system_with_mode(
    factor: f64,
    coverage: f64,
    seed: u64,
    mode: xac_core::AnnotateMode,
) -> System {
    let doc = xmark_document(XmarkConfig::with_factor(factor));
    let policy = coverage_policy(&doc, coverage, seed);
    System::builder(xmark_schema(), policy, doc)
        .annotate_mode(mode)
        .build()
        .expect("generated system assembles")
}

/// The document factors swept by the quick harness run. The paper sweeps
/// 0.0001–10 on its testbed; these factors cover the same relative range
/// on the scaled-down generator while finishing in minutes.
pub const QUICK_FACTORS: &[f64] = &[0.001, 0.005, 0.02, 0.08];

/// Additional factors for `--full` runs.
pub const FULL_FACTORS: &[f64] = &[0.001, 0.005, 0.02, 0.08, 0.3, 1.0];

/// The coverage levels of Figure 11 (the paper's x-axis spans ~25–70%).
pub const COVERAGE_LEVELS: &[f64] = &[0.25, 0.4, 0.55, 0.7];

/// Number of queries in the response/update workloads (the paper's 55).
pub const WORKLOAD_SIZE: usize = 55;

/// Pretty-print a duration in adaptive units.
pub fn fmt_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{:.1} µs", s * 1e6)
    }
}

/// Pretty-print a byte count.
pub fn fmt_bytes(b: usize) -> String {
    const KIB: f64 = 1024.0;
    let b = b as f64;
    if b >= KIB * KIB {
        format!("{:.1} MiB", b / KIB / KIB)
    } else if b >= KIB {
        format!("{:.0} KiB", b / KIB)
    } else {
        format!("{b:.0} B")
    }
}

/// A simple aligned-table printer for harness output.
pub struct TablePrinter {
    widths: Vec<usize>,
}

impl TablePrinter {
    /// Column widths for the table.
    pub fn new(widths: Vec<usize>) -> TablePrinter {
        TablePrinter { widths }
    }

    /// Print one row.
    pub fn row(&self, cells: &[String]) {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            let w = self.widths.get(i).copied().unwrap_or(12);
            if i == 0 {
                line.push_str(&format!("{cell:<w$}"));
            } else {
                line.push_str(&format!(" {cell:>w$}"));
            }
        }
        println!("{}", line.trim_end());
    }

    /// Print a separator sized to the total width.
    pub fn rule(&self) {
        let total: usize = self.widths.iter().sum::<usize>() + self.widths.len();
        println!("{}", "-".repeat(total));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xmark_system_assembles() {
        let s = xmark_system(0.001, 0.4, 1);
        assert!(s.prepared().doc.element_count() > 50);
        assert!(!s.policy().is_empty());
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.000 s");
        assert_eq!(fmt_duration(Duration::from_millis(12)), "12.00 ms");
        assert_eq!(fmt_duration(Duration::from_micros(7)), "7.0 µs");
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(4096), "4 KiB");
        assert_eq!(fmt_bytes(3 * 1024 * 1024), "3.0 MiB");
    }

    /// The string or number after `"key": ` on a one-row-per-line
    /// JSON artifact line.
    fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
        let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim_matches('"'))
    }

    /// The text of a tracked artifact at the repository root, checked
    /// to be valid JSON.
    fn tracked(name: &str) -> String {
        let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{name}: {e}"));
        xac_obs::validate_json(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        text
    }

    /// Require one timed, positive `metric` row for every backend at
    /// every factor the tracked `figures fault-recovery` artifact covers,
    /// each following at least 20 applied updates.
    fn require_fault_recovery_row_per_cell(metric: &str) {
        let text = tracked("BENCH_fault_recovery.json");
        let rows: Vec<&str> = text.lines().filter(|l| l.contains("\"metric\"")).collect();
        let mut cells = std::collections::BTreeSet::new();
        let mut timed = std::collections::BTreeMap::new();
        for row in &rows {
            let key = (field(row, "factor").unwrap(), field(row, "backend").unwrap());
            cells.insert(key);
            if field(row, "metric") == Some(metric) {
                let seconds: f64 = field(row, "seconds").unwrap().parse().expect("timed");
                assert!(seconds > 0.0, "{row}");
                let applied: usize = field(row, "applied").unwrap_or("0").parse().expect("count");
                assert!(applied >= 20, "fewer than 20 applied updates: {row}");
                assert!(timed.insert(key, seconds).is_none(), "one row per cell: {row}");
            }
        }
        assert!(cells.len() >= 3, "the artifact covers every backend");
        for cell in &cells {
            assert!(timed.contains_key(cell), "no {metric} row for {cell:?}");
        }
    }

    /// The tracked artifact carries the durable commit's cost: one
    /// positive `checkpoint_wal` row per backend × factor, the median
    /// over at least 20 commits, and the reopen after them
    /// (`reopen_wal`).
    #[test]
    fn tracked_fault_recovery_artifact_has_a_checkpoint_wal_row_per_backend_and_factor() {
        require_fault_recovery_row_per_cell("checkpoint_wal");
        require_fault_recovery_row_per_cell("reopen_wal");
    }

    /// ... and the durable engine's rollback rung: one positive
    /// `recover_rollback_durable` row per backend × factor, after at
    /// least 20 commits.
    #[test]
    fn tracked_fault_recovery_artifact_has_a_durable_rollback_row_per_backend_and_factor() {
        require_fault_recovery_row_per_cell("recover_rollback_durable");
    }

    /// The tracked `figures annotate-modes` artifact: at every factor,
    /// each backend's compiled row repeats the writes and accessible
    /// count of its reference row — the paper-faithful Fig. 6 loop on
    /// the relational stores, the tree-walk (`none`) on the native one.
    #[test]
    fn tracked_annotation_modes_artifact_pairs_compiled_with_the_reference() {
        let text = tracked("BENCH_annotation_modes.json");
        let mut rows = std::collections::BTreeMap::new();
        for row in text.lines().filter(|l| l.contains("\"mode\"")) {
            let key = |k| field(row, k).unwrap();
            let cell = (key("factor"), key("backend"), key("mode"));
            let state = (key("writes"), key("accessible"));
            assert!(rows.insert(cell, state).is_none(), "one row per cell: {row}");
        }
        let mut pairs = std::collections::BTreeSet::new();
        for (&(factor, backend, mode), compiled) in &rows {
            if mode != "compiled" {
                continue;
            }
            let reference = if backend == "native" { "none" } else { "paper-faithful" };
            let cell = (factor, backend, reference);
            let Some(expected) = rows.get(&cell) else { panic!("no {cell:?} row") };
            assert_eq!(compiled, expected, "{factor}/{backend}: compiled vs {reference}");
            pairs.insert(backend);
        }
        assert_eq!(pairs.len(), 3, "a compiled row per backend: {pairs:?}");
        assert_eq!(rows.len(), 2 * rows.keys().filter(|c| c.2 == "compiled").count());
    }

    /// The tracked `figures serve` artifact: compiled rows, the
    /// decide-path micro columns, the first-write-after-publish table,
    /// each with a number, and per backend at f = 0.1, 0.3 and 1 a
    /// footprint re-annotation row whose sign writes are the net sign
    /// change and an epoch-copy row (first-write copy and release).
    #[test]
    fn tracked_serve_artifact_has_compiled_decide_and_first_write_rows() {
        let text = tracked("BENCH_serve.json");
        assert!(text.lines().any(|row| field(row, "mode") == Some("compiled")), "compiled rows");
        for key in ["decide_compiled_us", "selective_ns_per_answer_node", "first_write_index_us"] {
            let number = |row| field(row, key).and_then(|v| v.parse::<f64>().ok());
            assert!(text.lines().any(|row| number(row).is_some_and(|x| x >= 0.0)), "no {key}");
        }
        for factor in ["0.1", "0.3", "1"] {
            for backend in ["native/xml", "relational/row", "relational/column"] {
                let row = text.lines().find(|row| {
                    field(row, "factor") == Some(factor)
                        && field(row, "backend") == Some(backend)
                        && field(row, "footprint_reannotate_us").is_some()
                });
                let Some(row) = row else { panic!("no footprint row for {backend} at f={factor}") };
                let number = |key| field(row, key).and_then(|v| v.parse::<f64>().ok());
                assert!(number("footprint_reannotate_us").is_some_and(|x| x >= 0.0), "{row}");
                let writes = number("footprint_sign_writes");
                assert!(writes.is_some() && writes == number("footprint_net_change"), "{row}");
                let row = text.lines().find(|row| {
                    field(row, "factor") == Some(factor)
                        && field(row, "backend") == Some(backend)
                        && field(row, "epoch_first_write_us").is_some()
                });
                let Some(row) = row else { panic!("no epoch-copy row for {backend} at f={factor}") };
                let number = |key| field(row, key).and_then(|v| v.parse::<f64>().ok());
                assert!(number("epoch_first_write_us").is_some(), "{row}");
                assert!(number("epoch_release_us").is_some_and(|x| x >= 0.0), "{row}");
            }
        }
    }

    /// The tracked `figures analyze` artifact: a sound audit, the
    /// incremental and repair row families, and the repair summary of
    /// the flawed fixture (two repairs, re-analyzed to exit 0).
    #[test]
    fn tracked_analyze_artifact_has_sound_incremental_and_repair_rows() {
        let text = tracked("BENCH_analyze.json");
        let row = |key, value| text.lines().find(move |row| field(row, key) == Some(value));
        assert!(row("sound", "true").is_some(), "a sound audit row");
        assert!(row("kind", "incremental").is_some() && row("kind", "repair").is_some());
        let summary = row("kind", "repair_summary").expect("a repair summary row");
        assert_eq!((field(summary, "repairs"), field(summary, "exit_code")), (Some("2"), Some("0")));
    }

    /// The tracked `xmlac serve-bench --net` artifact: a net row with no
    /// wire errors.
    #[test]
    fn tracked_net_artifact_has_an_error_free_net_row() {
        let text = tracked("BENCH_net.json");
        let ok = |row: &str| field(row, "bench") == Some("net") && field(row, "wire_errors") == Some("0");
        assert!(text.lines().any(ok), "no error-free net row");
    }

    /// The tracked `figures obs` artifact: the wire-propagation rows
    /// (trace context off and on, and their overhead) and the per-phase
    /// wire breakdown.
    #[test]
    fn tracked_obs_artifact_has_the_wire_propagation_and_phase_rows() {
        let text = tracked("BENCH_obs.json");
        for (kind, key, value) in [
            ("wire_propagation", "mode", "off"),
            ("wire_propagation", "mode", "on"),
            ("wire_propagation_overhead", "kind", "wire_propagation_overhead"),
            ("wire_phase", "span", "net.client_send"),
        ] {
            let row = |line: &str| field(line, "kind") == Some(kind) && field(line, key) == Some(value);
            assert!(text.lines().any(row), "no {kind} row with {key} {value}");
        }
    }

    #[test]
    fn legends_cover_all_backends() {
        for b in backends() {
            assert_ne!(backend_legend(b.name()), "unknown", "{}", b.name());
        }
    }
}
