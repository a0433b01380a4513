//! End-to-end tests of the `xmlac` command-line interface against the
//! checked-in hospital data files.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};

fn data(file: &str) -> String {
    format!("{}/../../data/{file}", env!("CARGO_MANIFEST_DIR"))
}

fn xmlac(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xmlac"))
        .args(args)
        .output()
        .expect("xmlac runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn check_validates_document() {
    let out = xmlac(&["check", "--schema", &data("hospital.dtd"), "--doc", &data("figure2.xml")]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("21 elements"), "{text}");
    assert!(text.contains("<hospital>"), "{text}");
}

#[test]
fn optimize_prints_reduced_policy() {
    let out = xmlac(&["optimize", "--policy", &data("hospital.pol")]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    // Blind optimization: Table 3.
    assert!(text.contains("R1 allow //patient"), "{text}");
    assert!(!text.contains("R4"), "{text}");
    assert!(text.contains("R5"), "blind optimizer keeps R5: {text}");
    assert!(stderr(&out).contains("R4, R7, R8"), "{}", stderr(&out));

    // Schema-aware optimization removes R5 too.
    let out = xmlac(&[
        "optimize",
        "--policy",
        &data("hospital.pol"),
        "--schema",
        &data("hospital.dtd"),
    ]);
    assert!(out.status.success());
    assert!(!stdout(&out).contains("R5"), "{}", stdout(&out));
}

#[test]
fn query_reports_decisions_on_all_backends() {
    for backend in ["native", "row", "column"] {
        let out = xmlac(&[
            "query",
            "--schema",
            &data("hospital.dtd"),
            "--policy",
            &data("hospital.pol"),
            "--doc",
            &data("figure2.xml"),
            "--backend",
            backend,
            "--query",
            "//patient/name",
            "--query",
            "//patient",
        ]);
        assert!(out.status.success(), "{backend}: {}", stderr(&out));
        let text = stdout(&out);
        assert!(text.contains("GRANTED //patient/name (3 nodes)"), "{backend}: {text}");
        assert!(text.contains("DENIED  //patient (3 nodes)"), "{backend}: {text}");
    }
}

#[test]
fn update_deletes_and_requeries() {
    let out = xmlac(&[
        "update",
        "--schema",
        &data("hospital.dtd"),
        "--policy",
        &data("hospital.pol"),
        "--doc",
        &data("figure2.xml"),
        "--delete",
        "//treatment",
        "--query",
        "//patient",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("deleted 8 elements"), "{text}");
    assert!(text.contains("R3"), "{text}");
    assert!(text.contains("GRANTED //patient (3 nodes)"), "{text}");
}

#[test]
fn update_insert_flow() {
    let out = xmlac(&[
        "update",
        "--schema",
        &data("hospital.dtd"),
        "--policy",
        &data("hospital.pol"),
        "--doc",
        &data("figure2.xml"),
        "--insert",
        "//patient[psn = \"099\"]:treatment",
        "--query",
        "//patient[psn = \"099\"]",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("inserted 1 <treatment>"), "{text}");
    assert!(text.contains("DENIED  //patient[psn = \"099\"]"), "{text}");
}

/// An insert of an element the schema does not declare exits 2 with one
/// message on every backend, native included.
#[test]
fn update_insert_of_an_undeclared_element_exits_2_everywhere() {
    let (schema, policy, doc) = (data("hospital.dtd"), data("hospital.pol"), data("figure2.xml"));
    let refusals = [
        ("//patient[psn = \"099\"]:martian", "the schema declares no element `martian`"),
        ("//patients:patient:x", "the schema declares no text in element `patient`"),
    ];
    for backend in ["native", "row", "column"] {
        for (spec, message) in refusals {
            let out = xmlac(&[
                "update", "--schema", &schema, "--policy", &policy, "--doc", &doc,
                "--backend", backend, "--insert", spec,
            ]);
            assert_eq!(out.status.code(), Some(2), "{backend} {spec}: {}", stdout(&out));
            let err = stderr(&out);
            assert!(err.contains(message), "{backend} {spec}: {err}");
        }
    }
}

#[test]
fn shred_emits_ddl_and_inserts() {
    let out = xmlac(&["shred", "--schema", &data("hospital.dtd"), "--doc", &data("figure2.xml")]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("CREATE TABLE patient"), "{text}");
    assert_eq!(text.matches("INSERT INTO").count(), 21, "one insert per element");
}

/// A closed stdout ends the output: `xmlac shred | head -0` exits 0
/// and does not panic. The pipe's read end is dropped before the child
/// starts, so its first write already fails.
#[test]
fn a_closed_stdout_ends_the_output_with_exit_0() {
    let (reader, writer) = std::io::pipe().expect("a pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_xmlac"))
        .args(["shred", "--schema", &data("hospital.dtd"), "--doc", &data("figure2.xml")])
        .stdout(writer)
        .stderr(std::process::Stdio::piped())
        .output()
        .expect("xmlac runs");
    assert!(!stderr(&out).contains("panicked"), "{}", stderr(&out));
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
}

#[test]
fn audit_reports_rule_statistics() {
    let out = xmlac(&[
        "audit",
        "--schema",
        &data("hospital.dtd"),
        "--policy",
        &data("hospital.pol"),
        "--doc",
        &data("figure2.xml"),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("R1"), "{text}");
    assert!(text.contains("5 accessible"), "{text}");
    assert!(text.contains("2 conflicted"), "{text}");
    assert!(text.contains("dead on this document: R7, R8"), "{text}");
}

#[test]
fn view_prints_security_view() {
    let out = xmlac(&[
        "view",
        "--schema",
        &data("hospital.dtd"),
        "--policy",
        &data("hospital.pol"),
        "--doc",
        &data("figure2.xml"),
        "--mode",
        "promote",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("joy smith"), "{text}");
    assert!(!text.contains("psn"), "denied data must not leak: {text}");
    assert!(!text.contains("enoxaparin"), "{text}");

    // Prune mode hides everything below the denied dept.
    let out = xmlac(&[
        "view",
        "--schema",
        &data("hospital.dtd"),
        "--policy",
        &data("hospital.pol"),
        "--doc",
        &data("figure2.xml"),
        "--mode",
        "prune",
    ]);
    assert!(out.status.success());
    assert_eq!(stdout(&out).trim(), "<hospital/>");
}

fn serve_bench_args(extra: &[&str]) -> Vec<String> {
    let mut args: Vec<String> = [
        "serve-bench",
        "--schema",
        &data("hospital.dtd"),
        "--policy",
        &data("hospital.pol"),
        "--doc",
        &data("figure2.xml"),
        "--query",
        "//patient/name",
        "--readers",
        "2",
        "--reads",
        "20",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    args.extend(extra.iter().map(|s| s.to_string()));
    args
}

#[test]
fn serve_bench_fault_plan_recovers_with_rollback() {
    // One-shot fault on the delete: the engine rolls back, the command
    // classifies the lost write with exit code 4, and the metrics show
    // the ladder at work.
    let args = serve_bench_args(&[
        "--delete",
        "//patient[psn = \"042\"]/name",
        "--fault-plan",
        "after_delete:error",
    ]);
    let out = xmlac(&args.iter().map(String::as_str).collect::<Vec<_>>());
    assert_eq!(out.status.code(), Some(4), "{}", stderr(&out));
    assert!(stderr(&out).contains("fault injected at `after_delete`"), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("1 faults injected"), "{text}");
    assert!(text.contains("1 rollbacks"), "{text}");
    assert!(text.contains("0 quarantines"), "{text}");
}

#[test]
fn serve_bench_quarantine_exits_3() {
    // The rollback itself is sabotaged: the engine must end read-only.
    let args = serve_bench_args(&[
        "--delete",
        "//patient[psn = \"042\"]/name",
        "--fault-plan",
        "after_delete:panic,before_restore:error",
    ]);
    let out = xmlac(&args.iter().map(String::as_str).collect::<Vec<_>>());
    assert_eq!(out.status.code(), Some(3), "{}", stderr(&out));
    assert!(stderr(&out).contains("quarantined"), "{}", stderr(&out));
    assert!(stdout(&out).contains("1 quarantines"), "{}", stdout(&out));
}

#[test]
fn serve_bench_seeded_plan_and_bad_specs() {
    // A seed with zero faults is a no-op plan: clean exit.
    let args = serve_bench_args(&["--fault-plan", "seed:7x0"]);
    let out = xmlac(&args.iter().map(String::as_str).collect::<Vec<_>>());
    assert!(out.status.success(), "{}", stderr(&out));

    let args = serve_bench_args(&["--fault-plan", "no_such_point:error"]);
    let out = xmlac(&args.iter().map(String::as_str).collect::<Vec<_>>());
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("--fault-plan"), "{}", stderr(&out));
}

fn example(file: &str) -> String {
    format!("{}/../../examples/policies/{file}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn analyze_flawed_fixture_exits_5_with_all_codes() {
    let out = xmlac(&[
        "analyze",
        "--policy",
        &example("flawed_all5.pol"),
        "--schema",
        &data("hospital.dtd"),
        "--deny",
        "warn",
    ]);
    assert_eq!(out.status.code(), Some(5), "{}", stderr(&out));
    let text = stdout(&out);
    for code in ["XA001", "XA002", "XA003", "XA004", "XA005"] {
        assert!(text.contains(code), "missing {code}: {text}");
    }
    assert!(text.contains("error[XA001]"), "{text}");
    assert!(text.contains("warning[XA002]"), "{text}");
    assert!(stderr(&out).contains("1 error(s)"), "{}", stderr(&out));
}

/// The checked-in policies that fail the analyzer gate on purpose, with
/// the codes their JSON report must carry (each exits 5).
const DIRTY_POLICIES: [(&str, &[&str]); 2] = [
    ("flawed_all5.pol", &["XA001", "XA002", "XA003", "XA004", "XA005"]),
    ("repairable.pol", &["XA001", "XA002", "XA003", "XA004"]),
];

/// Every checked-in policy, `data/*.pol` and `examples/policies/*.pol`,
/// by directory listing, so a new fixture is gated without an edit here;
/// each with whether it is on [`DIRTY_POLICIES`].
fn checked_in_policies() -> Vec<(PathBuf, Option<&'static [&'static str]>)> {
    let mut policies = Vec::new();
    for dir in [data(""), example("")] {
        for entry in std::fs::read_dir(&dir).expect("a fixture directory") {
            let path = entry.expect("a directory entry").path();
            if path.extension().is_some_and(|e| e == "pol") {
                let file = path.file_name().expect("a file name").to_str().expect("utf-8");
                let dirty = DIRTY_POLICIES.iter().find(|(name, _)| *name == file);
                let dirty = dirty.map(|(_, codes)| *codes);
                policies.push((path, dirty));
            }
        }
    }
    policies.sort();
    policies
}

fn analyze_under_deny_warn(policy: &Path, extra: &[&str]) -> Output {
    let policy = policy.to_str().expect("utf-8 path");
    let schema = data("hospital.dtd");
    xmlac(&[&["analyze", "--policy", policy, "--schema", &schema, "--deny", "warn"], extra].concat())
}

#[test]
fn analyze_clean_policies_exit_0_under_deny_warn() {
    let policies = checked_in_policies().into_iter();
    let clean: Vec<PathBuf> = policies.filter(|(_, dirty)| dirty.is_none()).map(|p| p.0).collect();
    assert!(clean.len() >= 2, "hospital.pol and clean_staff.pol at least: {clean:?}");
    for policy in clean {
        let out = analyze_under_deny_warn(&policy, &[]);
        assert!(out.status.success(), "{policy:?}: {}\n{}", stderr(&out), stdout(&out));
    }
}

/// The allowlisted fixtures fail the gate with exit 5 and report their
/// codes in JSON; none of them has gone missing.
#[test]
fn analyze_dirty_fixtures_exit_5_with_their_codes_in_json() {
    let policies = checked_in_policies().into_iter();
    let dirty: Vec<_> = policies.filter_map(|(policy, codes)| Some((policy, codes?))).collect();
    assert_eq!(dirty.len(), DIRTY_POLICIES.len(), "every allowlisted fixture exists: {dirty:?}");
    for (policy, codes) in dirty {
        let out = analyze_under_deny_warn(&policy, &["--format", "json"]);
        assert_eq!(out.status.code(), Some(5), "{policy:?}: {}", stderr(&out));
        let json = stdout(&out);
        for code in codes {
            assert!(json.contains(code), "{policy:?} report is missing {code}: {json}");
        }
    }
}

#[test]
fn analyze_json_output_with_dynamic_audit() {
    let out = xmlac(&[
        "analyze",
        "--policy",
        &data("hospital.pol"),
        "--schema",
        &data("hospital.dtd"),
        "--doc",
        &data("figure2.xml"),
        "--format",
        "json",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let json = stdout(&out);
    assert!(json.contains("\"audit\""), "{json}");
    assert!(json.contains("\"dynamic\": true"), "{json}");
    assert!(json.contains("\"missed\": 0"), "{json}");
    assert!(json.contains("\"sound\": true"), "{json}");

    // The same audit under the gate, written with `--out`.
    let dir = scratch_dir("cli_audit_out");
    let report = dir.join("analyze_hospital.json");
    let out = analyze_under_deny_warn(
        Path::new(&data("hospital.pol")),
        &["--doc", &data("figure2.xml"), "--format", "json", "--out", report.to_str().unwrap()],
    );
    assert!(out.status.success(), "{}", stderr(&out));
    let json = std::fs::read_to_string(&report).expect("the --out report");
    assert!(json.contains("\"missed\": 0") && json.contains("\"sound\": true"), "{json}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A scratch directory for one test, emptied first.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// `--fix` repairs a copy of the flawed fixture in place — each edit
/// verified by incremental re-analysis and differential annotation —
/// and the repaired file re-analyzes clean under `--deny warn`.
#[test]
fn analyze_fix_repairs_the_flawed_fixture_to_a_clean_policy() {
    let dir = scratch_dir("cli_fix_repair");
    let copy = dir.join("repair.pol");
    std::fs::copy(example("flawed_all5.pol"), &copy).expect("copy the fixture");
    let copy = copy.to_str().expect("utf-8 path");
    let (schema, doc) = (data("hospital.dtd"), data("figure2.xml"));
    let fix = ["analyze", "--policy", copy, "--schema", &schema, "--doc", &doc, "--deny", "warn"];
    let out = xmlac(&[&fix[..], &["--fix"]].concat());
    assert!(out.status.success(), "{}\n{}", stderr(&out), stdout(&out));
    let out = xmlac(&["analyze", "--policy", copy, "--schema", &schema, "--deny", "warn"]);
    assert!(out.status.success(), "{}\n{}", stderr(&out), stdout(&out));
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--dry-run` over the repairable fixture exits 5, leaves the file
/// unchanged, and prints the checked-in golden diff (its two header
/// lines carry the path, so the hunks are compared).
#[test]
fn analyze_dry_run_prints_the_golden_diff_and_leaves_the_policy() {
    let dir = scratch_dir("cli_dry_run");
    let policy = example("repairable.pol");
    let before = std::fs::read(&policy).expect("fixture");
    let report = dir.join("report.txt");
    let out = xmlac(&[
        "analyze",
        "--policy",
        &policy,
        "--schema",
        &data("hospital.dtd"),
        "--doc",
        &data("figure2.xml"),
        "--deny",
        "warn",
        "--fix-level",
        "info",
        "--dry-run",
        "--out",
        report.to_str().expect("utf-8 path"),
    ]);
    assert_eq!(out.status.code(), Some(5), "{}", stderr(&out));
    assert_eq!(std::fs::read(&policy).expect("fixture"), before, "the dry run wrote the policy");
    let hunks = |diff: &str| diff.split_inclusive('\n').skip(2).collect::<String>();
    let golden = include_str!("golden/repairable_fix.diff");
    assert_eq!(hunks(&stdout(&out)), hunks(golden), "dry-run diff vs tests/golden");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn analyze_usage_errors_exit_2() {
    // --doc without --schema: the dynamic audit has no schema to drive.
    let out = xmlac(&[
        "analyze",
        "--policy",
        &data("hospital.pol"),
        "--doc",
        &data("figure2.xml"),
    ]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("--schema"), "{}", stderr(&out));

    let out = xmlac(&[
        "analyze",
        "--policy",
        &data("hospital.pol"),
        "--deny",
        "everything",
    ]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));

    let out = xmlac(&[
        "analyze",
        "--policy",
        &data("hospital.pol"),
        "--format",
        "yaml",
    ]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
}

#[test]
fn vm_dump_matches_golden_listing() {
    let out = xmlac(&["vm", "dump", "--policy", &data("hospital.pol"), "--schema", &data("hospital.dtd")]);
    assert!(out.status.success(), "{}", stderr(&out));
    let golden_path =
        format!("{}/../../tests/golden/vm_dump_hospital.txt", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(&golden_path).expect("golden listing checked in");
    assert_eq!(stdout(&out), golden, "disassembly drifted from {golden_path}");
}

#[test]
fn vm_dump_writes_out_file_and_rejects_bad_verbs() {
    let dir = std::env::temp_dir().join("xmlac_vm_dump_test");
    std::fs::create_dir_all(&dir).unwrap();
    let out_file = dir.join("listing.txt");
    let out_path = out_file.to_str().unwrap();
    let out = xmlac(&[
        "vm",
        "dump",
        "--policy",
        &data("hospital.pol"),
        "--schema",
        &data("hospital.dtd"),
        "--out",
        out_path,
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let listing = std::fs::read_to_string(&out_file).unwrap();
    assert!(listing.contains(";; xac-vmc program"), "{listing}");
    assert!(listing.contains("== element type `patient` =="), "{listing}");
    assert!(listing.contains("sign.write"), "{listing}");

    let out = xmlac(&["vm", "disasm", "--policy", &data("hospital.pol")]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("unknown vm verb"), "{}", stderr(&out));
}

#[test]
fn annotate_mode_compiled_accepted_and_unknown_rejected() {
    for backend in ["native", "row", "column"] {
        let out = xmlac(&[
            "query",
            "--schema",
            &data("hospital.dtd"),
            "--policy",
            &data("hospital.pol"),
            "--doc",
            &data("figure2.xml"),
            "--backend",
            backend,
            "--annotate-mode",
            "compiled",
            "--query",
            "//patient/name",
            "--query",
            "//patient",
        ]);
        assert!(out.status.success(), "{backend}: {}", stderr(&out));
        let text = stdout(&out);
        assert!(text.contains("GRANTED //patient/name (3 nodes)"), "{backend}: {text}");
        assert!(text.contains("DENIED  //patient (3 nodes)"), "{backend}: {text}");
    }
    for rejected in ["vectorised", "batched"] {
        let out = xmlac(&[
            "query",
            "--schema",
            &data("hospital.dtd"),
            "--policy",
            &data("hospital.pol"),
            "--doc",
            &data("figure2.xml"),
            "--annotate-mode",
            rejected,
            "--query",
            "//patient",
        ]);
        assert!(!out.status.success());
        let err = stderr(&out);
        assert!(err.contains(&format!("unknown annotate mode `{rejected}`")), "{err}");
        assert!(err.contains("(valid modes: paper, compiled)"), "{err}");
    }
}

#[test]
fn errors_are_reported_with_nonzero_exit() {
    let out = xmlac(&["bogus-command"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown command"));

    let out = xmlac(&["check", "--schema", "/nonexistent.dtd", "--doc", &data("figure2.xml")]);
    assert!(!out.status.success());

    let out = xmlac(&["query", "--schema", &data("hospital.dtd"), "--policy", &data("hospital.pol"), "--doc", &data("figure2.xml")]);
    assert!(!out.status.success(), "query without --query must fail");

    // A relative request or update path is an xpath error (exit 2)
    // before any backend evaluates it.
    let (schema, policy, doc) = (data("hospital.dtd"), data("hospital.pol"), data("figure2.xml"));
    for extra in [
        &["query", "--backend", "native", "--query", "patient"][..],
        &["query", "--backend", "row", "--query", "patient"],
        &["update", "--delete", "patient"],
    ] {
        let mut args = vec![extra[0], "--schema", &schema, "--policy", &policy, "--doc", &doc];
        args.extend_from_slice(&extra[1..]);
        let out = xmlac(&args);
        assert_eq!(out.status.code(), Some(2), "{extra:?}: {}", stderr(&out));
        assert!(stderr(&out).contains("xpath error"), "{extra:?}: {}", stderr(&out));
    }
}

/// The durable exit-code contract: a fresh boot on an empty data
/// directory writes its log, the only file it keeps (exit 0), a reopen
/// recovers from it (exit 0), and a backend-tag mismatch against the
/// same directory exits 8, the storage-error code.
#[test]
fn durable_serve_bench_boots_reopens_and_refuses_a_mismatched_backend() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_durable_data_dir");
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_str().expect("utf-8 temp dir");
    let (schema, policy, doc) = (data("hospital.dtd"), data("hospital.pol"), data("figure2.xml"));
    let run = |extra: &[&str]| {
        let mut args = vec![
            "serve-bench", "--schema", &schema, "--policy", &policy, "--doc", &doc,
            "--query", "//patient/name", "--data-dir", dir_arg,
        ];
        args.extend_from_slice(extra);
        xmlac(&args)
    };

    let boot = run(&["--readers", "2", "--reads", "50", "--delete", "//regular"]);
    assert_eq!(boot.status.code(), Some(0), "{}", stderr(&boot));
    assert!(stdout(&boot).contains("fresh durable boot"), "{}", stdout(&boot));
    let files: Vec<_> = std::fs::read_dir(&dir)
        .expect("data dir")
        .map(|e| e.expect("dir entry").file_name().into_string().expect("utf-8 name"))
        .collect();
    assert_eq!(files, ["xmlac.wal"], "the log is the whole durable state");
    assert!(std::fs::metadata(dir.join("xmlac.wal")).expect("wal").len() > 0);

    let reopen = run(&["--readers", "2", "--reads", "50"]);
    assert_eq!(reopen.status.code(), Some(0), "{}", stderr(&reopen));
    assert!(stdout(&reopen).contains("recovered native/xml"), "{}", stdout(&reopen));
    assert!(stdout(&reopen).contains("1 ops replayed"), "{}", stdout(&reopen));
    assert!(!stdout(&reopen).contains("torn pages"), "{}", stdout(&reopen));

    let mismatch = run(&["--backend", "row"]);
    assert_eq!(mismatch.status.code(), Some(8), "{}", stderr(&mismatch));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A running `xmlac serve`, killed and reaped when dropped, so no exit
/// from a test (a failed assert included) leaves it running.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// The wire exit-code contract against a real server process: a read
/// and a writer's delete exit 0; a reader's delete, scrape and analyze
/// exit 7 (role refused); the admin plane serves a scrape with per-verb
/// histograms and trace-id exemplars that `obs check` accepts, a
/// verified policy repair, a `top` quantile table and the flight tail.
#[test]
fn serve_answers_clients_with_the_role_exit_codes_and_the_admin_plane() {
    let dir = scratch_dir("cli_wire_plane");
    let addr_file = dir.join("addr");
    let (schema, policy, doc) = (data("hospital.dtd"), data("hospital.pol"), data("figure2.xml"));
    let server = Command::new(env!("CARGO_BIN_EXE_xmlac"))
        .args(["serve", "--schema", &schema, "--policy", &policy, "--doc", &doc])
        .args(["--addr-file", addr_file.to_str().expect("utf-8 path")])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("xmlac serve starts");
    let mut server = Server(server);
    let mut addr = String::new();
    for _ in 0..200 {
        addr = std::fs::read_to_string(&addr_file).unwrap_or_default();
        if addr.parse::<std::net::SocketAddr>().is_ok() {
            break;
        }
        assert!(server.0.try_wait().expect("poll the server").is_none(), "the server exited");
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    assert!(addr.parse::<std::net::SocketAddr>().is_ok(), "no address in {addr_file:?}: {addr:?}");
    let client = |args: &[&str]| xmlac(&[&["client", "--addr", &addr], args].concat());

    let read = client(&["--query", "//patient/name", "status"]);
    assert_eq!(read.status.code(), Some(0), "read: {}", stderr(&read));
    let write = client(&["--role", "writer", "--delete", "//regular"]);
    assert_eq!(write.status.code(), Some(0), "writer delete: {}", stderr(&write));
    for refused in [&["--delete", "//med"][..], &["scrape"], &["analyze"]] {
        let out = client(&[&["--role", "reader"], refused].concat());
        assert_eq!(out.status.code(), Some(7), "reader {refused:?}: {}", stderr(&out));
    }

    let scrape = dir.join("scrape.prom");
    let out = client(&["--role", "admin", "scrape", "--scrape-out", scrape.to_str().unwrap()]);
    assert!(out.status.success(), "admin scrape: {}", stderr(&out));
    let exposition = std::fs::read_to_string(&scrape).expect("the scrape file");
    assert!(exposition.contains("xac_net_request_us_bucket{verb="), "{exposition}");
    assert!(exposition.contains("# {trace_id=\""), "{exposition}");
    let check = xmlac(&["obs", "check", "--metrics", scrape.to_str().unwrap()]);
    assert!(check.status.success(), "obs check: {}", stderr(&check));

    let fix = client(&["--role", "admin", "--fix", "analyze"]);
    assert!(stdout(&fix).contains("verified repair"), "{}\n{}", stdout(&fix), stderr(&fix));
    let top = xmlac(&["top", "--addr", &addr, "--iterations", "1"]);
    assert!(stdout(&top).contains("p999_us"), "{}\n{}", stdout(&top), stderr(&top));
    let tail = client(&["--role", "admin", "tail", "--last", "8"]);
    assert!(stdout(&tail).contains("flight records"), "{}\n{}", stdout(&tail), stderr(&tail));
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
