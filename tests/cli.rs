//! End-to-end tests of the `xmlac` command-line interface against the
//! checked-in hospital data files.

use std::process::{Command, Output};

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

#[test]
fn analyze_clean_policies_exit_0_under_deny_warn() {
    for policy in [data("hospital.pol"), example("clean_staff.pol")] {
        let out = xmlac(&[
            "analyze",
            "--policy",
            &policy,
            "--schema",
            &data("hospital.dtd"),
            "--deny",
            "warn",
        ]);
        assert!(out.status.success(), "{policy}: {}\n{}", stderr(&out), stdout(&out));
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
/// directory writes its log and page files (exit 0), a reopen recovers
/// from them (exit 0), and a backend-tag mismatch against the same
/// directory exits 8, the storage-error code.
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
    for file in ["xmlac.wal", "signs.pages"] {
        let len = std::fs::metadata(dir.join(file)).map_or(0, |m| m.len());
        assert!(len > 0, "{file} written by the fresh boot");
    }

    let reopen = run(&["--readers", "2", "--reads", "50"]);
    assert_eq!(reopen.status.code(), Some(0), "{}", stderr(&reopen));
    assert!(stdout(&reopen).contains("recovered native/xml"), "{}", stdout(&reopen));

    let mismatch = run(&["--backend", "row"]);
    assert_eq!(mismatch.status.code(), Some(8), "{}", stderr(&mismatch));
    let _ = std::fs::remove_dir_all(&dir);
}
