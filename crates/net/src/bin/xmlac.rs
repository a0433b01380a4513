//! `xmlac` — command-line front end to the access-control system.
//!
//! ```text
//! xmlac check       --schema h.dtd --doc d.xml
//! xmlac optimize    --policy p.pol [--schema h.dtd]
//! xmlac shred       --schema h.dtd --doc d.xml [--out d.sql]
//! xmlac annotate    --schema h.dtd --policy p.pol --doc d.xml [--backend native|row|column]
//! xmlac query       --schema h.dtd --policy p.pol --doc d.xml --query "//patient" [...]
//! xmlac update      --schema h.dtd --policy p.pol --doc d.xml --delete "//treatment" [--query "//patient"]
//! xmlac serve       --schema h.dtd --policy p.pol --doc d.xml [--listen 127.0.0.1:0] \
//!                   [--data-dir DIR] [--wal sync|nosync] \
//!                   [--addr-file F] [--max-conns N] [--read-timeout-ms N] [--rate-limit N] [--linger-ms N]
//! xmlac client      --addr HOST:PORT [--role reader|writer|admin] \
//!                   [--query XPATH]... [--delete XPATH] [--insert PARENT:NAME[:TEXT]] [status] [metrics]
//! xmlac serve-bench --schema h.dtd --policy p.pol --doc d.xml --query "//patient/name" \
//!                   [--readers 4] [--reads 200] [--delete XPATH] [--fault-plan SPEC|seed:N[xK]] \
//!                   [--data-dir DIR] [--wal sync|nosync] \
//!                   [--net CLIENTS] [--out BENCH_net.json]
//! xmlac analyze     --policy p.pol [--schema h.dtd] [--doc d.xml] \
//!                   [--format text|json] [--deny warn] [--audit-updates N]
//! ```
//!
//! Schemas are DTD files (the Figure 1 subset), policies use the
//! `xac-policy` text format, documents are plain XML.
//!
//! Exit codes: 0 success, 2 usage or system error, 3 the serving engine
//! ended in read-only quarantine, 4 an injected fault surfaced without
//! being absorbed by the degradation ladder, 5 `analyze` found errors,
//! 6 `analyze --deny warn` found warnings, 7 the server refused a
//! request because the session's role may not issue it, 8 the durable
//! storage layer failed (WAL I/O, a log from an older format, or a
//! backend-tag mismatch against an existing data dir).
//!
//! `serve` and `serve-bench` take `--data-dir DIR` to run the engine on
//! the durable storage layer (an operation-only write-ahead log):
//! guarded updates commit through the WAL, a failed one rolls back to
//! the last-good checkpoint as on a volatile engine, and a restart over
//! the same dir replays the log and re-annotates to recover the exact
//! committed state.
//! `--wal sync|nosync` picks whether each commit fsyncs (default
//! `sync`).

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xac_core::{AnnotateMode, Backend, System, Update};
use xac_net::{split_net_plan, NetClient, NetServer, ServerConfig};
use xac_policy::Policy;
use xac_serve::{BackendKind, DurabilityConfig, ErrorKind, Request, Response, Role, ServeEngine};
use xac_xml::{parse_dtd, Document, Schema};

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("xmlac: {}", e.message);
            ExitCode::from(e.code)
        }
    }
}

/// A CLI failure with the exit code it maps to. Plain `String` errors
/// (usage, I/O, parse) convert at code 2; structured core errors keep
/// their classification so scripts can branch on quarantine (3) vs an
/// unabsorbed injected fault (4) vs a role refusal (7) vs a storage
/// failure (8).
struct CliError {
    message: String,
    code: u8,
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError { message, code: 2 }
    }
}

impl From<xac_core::Error> for CliError {
    fn from(e: xac_core::Error) -> Self {
        let code = match &e {
            xac_core::Error::Quarantined { .. } => 3,
            xac_core::Error::FaultInjected { .. } => 4,
            xac_core::Error::Storage { .. } => 8,
            _ => 2,
        };
        CliError { message: e.to_string(), code }
    }
}

/// The exit code a typed response error maps to (the wire and
/// in-process paths share [`ErrorKind`], so this is the whole mapping).
fn error_kind_code(kind: ErrorKind) -> u8 {
    match kind {
        ErrorKind::Quarantined => 3,
        ErrorKind::FaultInjected => 4,
        ErrorKind::RoleDenied => 7,
        _ => 2,
    }
}

type CliResult<T> = Result<T, CliError>;

struct Args {
    command: String,
    options: BTreeMap<String, String>,
    /// `--query` may repeat.
    queries: Vec<String>,
    /// Bare (non-flag) tokens. Only the `obs`, `vm` and `client`
    /// commands take them (their verbs); everywhere else they are
    /// rejected with the historical usage error.
    positionals: Vec<String>,
}

fn parse_args() -> CliResult<Args> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or_else(usage)?;
    let mut options = BTreeMap::new();
    let mut queries = Vec::new();
    let mut positionals = Vec::new();
    while let Some(flag) = argv.next() {
        let Some(key) = flag.strip_prefix("--") else {
            positionals.push(flag);
            continue;
        };
        let key = key.to_string();
        // Presence-only switches: they never consume the next token.
        if matches!(key.as_str(), "fix" | "dry-run") {
            options.insert(key, String::new());
            continue;
        }
        let value = argv
            .next()
            .ok_or_else(|| format!("flag --{key} needs a value"))?;
        if key == "query" {
            queries.push(value);
        } else {
            options.insert(key, value);
        }
    }
    Ok(Args { command, options, queries, positionals })
}

fn usage() -> String {
    "usage: xmlac <check|optimize|shred|annotate|query|update|view|audit|analyze|serve|client|top|serve-bench|obs|vm> \
     [--schema F] [--policy F] [--doc F] [--backend native|row|column] \
     [--annotate-mode paper|compiled] \
     [--query XPATH]... [--delete XPATH] [--insert PARENT:NAME[:TEXT]] \
     [--mode prune|promote] [--readers N] [--reads N] [--out F] \
     [--fault-plan SPEC|seed:N[xK]] \
     [--trace-out F] [--metrics-out F]\n\
     serve   --schema F --policy F --doc F [--listen ADDR] [--addr-file F] \
     [--data-dir DIR] [--wal sync|nosync] \
     [--max-conns N] [--read-timeout-ms N] [--rate-limit N] [--linger-ms N]\n\
     client  --addr HOST:PORT [--role reader|writer|admin] \
     [--query XPATH]... [--delete XPATH] [--insert PARENT:NAME[:TEXT]] \
     [--last N] [--scrape-out F] [status] [metrics] [scrape] [tail] [analyze]\n\
     top     --addr HOST:PORT [--interval-ms N] [--iterations N]\n\
     serve-bench ... [--net CLIENTS] [--out F]\n\
     analyze --policy F [--schema F] [--doc F] [--format text|json] \
     [--deny warn] [--audit-updates N] [--out F] \
     [--fix | --dry-run] [--fix-out F] [--fix-level warn|info]\n\
     obs dump  --schema F --policy F --doc F [--query XPATH]... [--delete XPATH] \
     [--out F] [--trace-out F]\n\
     obs check [--metrics F] [--trace F]\n\
     vm dump   --policy F --schema F [--out F]"
        .to_string()
}

impl Args {
    fn required(&self, key: &str) -> CliResult<&str> {
        self.options
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{key}\n{}", usage()).into())
    }

    fn schema(&self) -> CliResult<Schema> {
        let path = self.required("schema")?;
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read schema `{path}`: {e}"))?;
        parse_dtd(&text).map_err(|e| format!("schema `{path}`: {e}").into())
    }

    fn policy(&self) -> CliResult<Policy> {
        let path = self.required("policy")?;
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read policy `{path}`: {e}"))?;
        Policy::parse(&text).map_err(|e| format!("policy `{path}`: {e}").into())
    }

    fn doc(&self) -> CliResult<Document> {
        let path = self.required("doc")?;
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read document `{path}`: {e}"))?;
        Document::parse_str(&text).map_err(|e| format!("document `{path}`: {e}").into())
    }

    fn annotate_mode(&self) -> CliResult<AnnotateMode> {
        match self.options.get("annotate-mode") {
            None => Ok(AnnotateMode::default()),
            // The structured core error lists the valid modes.
            Some(value) => AnnotateMode::parse(value).map_err(CliError::from),
        }
    }

    fn backend_kind(&self) -> CliResult<BackendKind> {
        let spelling = self.options.get("backend").map(String::as_str).unwrap_or("native");
        BackendKind::parse(spelling).map_err(CliError::from)
    }

    fn backend(&self) -> CliResult<Box<dyn Backend + Send>> {
        Ok(self.backend_kind()?.make(self.annotate_mode()?))
    }

    fn count(&self, key: &str, default: usize) -> CliResult<usize> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} needs a positive integer, found `{v}`").into()),
        }
    }

    fn build_system(&self) -> CliResult<System> {
        System::builder(self.schema()?, self.policy()?, self.doc()?)
            .annotate_mode(self.annotate_mode()?)
            .build()
            .map_err(CliError::from)
    }

    /// `--data-dir DIR [--wal sync|nosync]`: the durable storage
    /// configuration, or `None` to serve from memory. `--wal` without
    /// `--data-dir` is a usage error (there is no WAL to configure).
    fn durability(&self) -> CliResult<Option<DurabilityConfig>> {
        let Some(dir) = self.options.get("data-dir") else {
            if self.options.contains_key("wal") {
                return Err("--wal needs --data-dir".to_string().into());
            }
            return Ok(None);
        };
        let mut config = DurabilityConfig::new(dir);
        match self.options.get("wal").map(String::as_str) {
            None | Some("sync") => {}
            Some("nosync") => config.sync = false,
            Some(other) => {
                return Err(format!("--wal takes `sync` or `nosync`, found `{other}`").into())
            }
        }
        Ok(Some(config))
    }

    /// `--fault-plan`, split into the backend-side half (armed on the
    /// engine) and the client-side network half.
    fn fault_plans(&self) -> CliResult<(xac_core::FaultPlan, xac_core::FaultPlan)> {
        match self.options.get("fault-plan") {
            Some(spec) => {
                let plan = xac_serve::faults::fault_plan_from_arg(spec)
                    .map_err(|e| format!("--fault-plan `{spec}`: {e}"))?;
                Ok(split_net_plan(&plan))
            }
            None => Ok((xac_core::FaultPlan::new(), xac_core::FaultPlan::new())),
        }
    }
}

fn run() -> CliResult<()> {
    let args = parse_args()?;
    if args.command != "obs" && args.command != "vm" && args.command != "client" {
        if let Some(stray) = args.positionals.first() {
            return Err(format!("expected a --flag, found `{stray}`").into());
        }
    }
    match args.command.as_str() {
        "check" => check(&args),
        "optimize" => optimize(&args),
        "shred" => shred(&args),
        "annotate" => annotate(&args),
        "query" => query(&args),
        "update" => update(&args),
        "view" => view(&args),
        "audit" => audit(&args),
        "analyze" => analyze(&args),
        "serve" => serve(&args),
        "client" => client(&args),
        "top" => top(&args),
        "serve-bench" => serve_bench(&args),
        "obs" => obs(&args),
        "vm" => vm(&args),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{}", usage()).into()),
    }
}

fn check(args: &Args) -> CliResult<()> {
    let schema = args.schema()?;
    let doc = args.doc()?;
    schema.validate(&doc).map_err(|e| e.to_string())?;
    println!(
        "ok: {} elements, {} nodes, height {}, conforms to schema rooted at <{}>",
        doc.element_count(),
        doc.len(),
        doc.height(),
        schema.root()
    );
    Ok(())
}

fn optimize(args: &Args) -> CliResult<()> {
    let policy = args.policy()?;
    let report = match args.schema() {
        Ok(schema) => xac_core::optimizer::optimize_with_schema(&policy, &schema),
        Err(_) => xac_core::optimizer::optimize(&policy),
    };
    if report.removed.is_empty() {
        eprintln!("# no redundant rules");
    } else {
        eprintln!("# removed: {}", report.removed.join(", "));
    }
    print!("{}", report.optimized.to_text());
    Ok(())
}

fn shred(args: &Args) -> CliResult<()> {
    let schema = args.schema()?;
    let doc = args.doc()?;
    let mapping = xac_shrex::Mapping::derive(&schema).map_err(|e| e.to_string())?;
    let sql = xac_shrex::shred_to_sql(&doc, &mapping, '-').map_err(|e| e.to_string())?;
    let output = format!("{}{}", mapping.ddl(), sql);
    match args.options.get("out") {
        Some(path) => {
            std::fs::write(path, &output).map_err(|e| format!("cannot write `{path}`: {e}"))?;
            eprintln!("wrote {} bytes to {path}", output.len());
        }
        None => print!("{output}"),
    }
    Ok(())
}

fn build_system(args: &Args) -> CliResult<(System, Box<dyn Backend + Send>)> {
    let system = args.build_system()?;
    let mut backend = args.backend()?;
    system.load(backend.as_mut()).map_err(|e| e.to_string())?;
    system.annotate(backend.as_mut()).map_err(|e| e.to_string())?;
    Ok((system, backend))
}

fn annotate(args: &Args) -> CliResult<()> {
    let (system, mut backend) = build_system(args)?;
    let accessible = backend.accessible_count().map_err(|e| e.to_string())?;
    let total = system.prepared().doc.element_count();
    println!(
        "annotated on {}: {accessible}/{total} nodes accessible ({:.1}%), policy `{}` rules after optimization: {}",
        backend.name(),
        100.0 * accessible as f64 / total as f64,
        system.original_policy().len(),
        system.policy().len(),
    );
    Ok(())
}

fn query(args: &Args) -> CliResult<()> {
    if args.queries.is_empty() {
        return Err(format!("query needs at least one --query\n{}", usage()).into());
    }
    let (system, mut backend) = build_system(args)?;
    let mut denied = 0;
    for q in &args.queries {
        let d = system.request(backend.as_mut(), q).map_err(|e| e.to_string())?;
        println!(
            "{:<7} {} ({} nodes)",
            if d.granted() { "GRANTED" } else { "DENIED" },
            q,
            d.node_count()
        );
        if !d.granted() {
            denied += 1;
        }
    }
    if denied > 0 {
        eprintln!("# {denied}/{} requests denied", args.queries.len());
    }
    Ok(())
}

fn update(args: &Args) -> CliResult<()> {
    let (system, mut backend) = build_system(args)?;
    if let Some(expr) = args.options.get("delete") {
        let path = xac_xpath::parse_absolute(expr).map_err(xac_core::Error::from)?;
        let outcome = system
            .apply(backend.as_mut(), &Update::Delete(path))
            .map_err(|e| e.to_string())?;
        println!(
            "deleted {} elements; triggered rules {:?}; {} sign writes",
            outcome.removed_elements,
            outcome.plan.triggered_ids(),
            outcome.sign_writes
        );
    }
    if let Some(spec) = args.options.get("insert") {
        let (parent, name, text) = parse_insert_spec(spec)?;
        let path = xac_xpath::parse_absolute(parent).map_err(xac_core::Error::from)?;
        let insert = Update::Insert {
            parent: path,
            name: name.to_string(),
            text: text.map(str::to_string),
        };
        let outcome = system.apply(backend.as_mut(), &insert).map_err(|e| e.to_string())?;
        println!(
            "inserted {} <{name}> elements; triggered rules {:?}; {} sign writes",
            outcome.inserted_elements,
            outcome.plan.triggered_ids(),
            outcome.sign_writes
        );
    }
    if !args.options.contains_key("delete") && !args.options.contains_key("insert") {
        return Err(format!("update needs --delete and/or --insert\n{}", usage()).into());
    }
    for q in &args.queries {
        let d = system.request(backend.as_mut(), q).map_err(|e| e.to_string())?;
        println!(
            "{:<7} {} ({} nodes)",
            if d.granted() { "GRANTED" } else { "DENIED" },
            q,
            d.node_count()
        );
    }
    Ok(())
}

/// `PARENT_XPATH:NAME[:TEXT]`, shared by `update --insert` and
/// `client --insert`.
fn parse_insert_spec(spec: &str) -> CliResult<(&str, &str, Option<&str>)> {
    let mut parts = spec.splitn(3, ':');
    let parent = parts
        .next()
        .filter(|s| !s.is_empty())
        .ok_or("--insert takes PARENT_XPATH:NAME[:TEXT]".to_string())?;
    let name = parts
        .next()
        .filter(|s| !s.is_empty())
        .ok_or("--insert takes PARENT_XPATH:NAME[:TEXT]".to_string())?;
    Ok((parent, name, parts.next()))
}

fn view(args: &Args) -> CliResult<()> {
    let system = args.build_system()?;
    let mode = match args.options.get("mode").map(String::as_str).unwrap_or("prune") {
        "prune" => xac_core::ViewMode::Prune,
        "promote" => xac_core::ViewMode::Promote,
        other => return Err(format!("unknown view mode `{other}` (prune|promote)").into()),
    };
    let view = system.security_view(mode)?;
    let xml = view.to_pretty_xml();
    match args.options.get("out") {
        Some(path) => {
            std::fs::write(path, &xml).map_err(|e| format!("cannot write `{path}`: {e}"))?;
            eprintln!(
                "wrote security view ({} of {} elements) to {path}",
                view.element_count(),
                system.prepared().doc.element_count()
            );
        }
        None => print!("{xml}"),
    }
    Ok(())
}

fn audit(args: &Args) -> CliResult<()> {
    let schema = args.schema()?;
    let policy = args.policy()?;
    let doc = args.doc()?;
    schema.validate(&doc).map_err(|e| e.to_string())?;
    let report = xac_policy::analyze(&doc, &policy);
    println!("{:<6} {:<6} {:>8} {:>10}", "rule", "effect", "scope", "exclusive");
    for r in &report.rules {
        println!("{:<6} {:<6} {:>8} {:>10}", r.id, r.effect.to_string(), r.scope, r.exclusive);
    }
    println!(
        "nodes: {} total, {} accessible ({:.1}%), {} conflicted, {} defaulted",
        report.total_nodes,
        report.accessible,
        100.0 * report.coverage(),
        report.conflicted,
        report.defaulted
    );
    if !report.dead_rules().is_empty() {
        println!("dead on this document: {}", report.dead_rules().join(", "));
    }
    Ok(())
}

/// Static policy verification (`xac-analyze`).
///
/// Runs the D1–D5 diagnostic passes over `--policy`, schema-aware when
/// `--schema` is given, and additionally replays the dynamic
/// trigger-soundness audit against `--doc` on all three backends when a
/// document is supplied. Exit code 0 when clean, 5 when any error-level
/// diagnostic is present, 6 when `--deny warn` is set and warnings
/// remain.
fn analyze(args: &Args) -> CliResult<()> {
    let policy_path = args.required("policy")?.to_string();
    let source = std::fs::read_to_string(&policy_path)
        .map_err(|e| format!("cannot read policy `{policy_path}`: {e}"))?;
    let policy = Policy::parse(&source)
        .map_err(|e| format!("policy `{policy_path}`: {e}"))?;
    let schema = match args.options.get("schema") {
        Some(_) => Some(args.schema()?),
        None => None,
    };
    let deny_warnings = match args.options.get("deny").map(String::as_str) {
        None => false,
        Some("warn") | Some("warnings") => true,
        Some(other) => return Err(format!("--deny takes `warn`, found `{other}`").into()),
    };
    let format = args.options.get("format").map(String::as_str).unwrap_or("text");
    if format != "text" && format != "json" {
        return Err(format!("--format takes text|json, found `{format}`").into());
    }
    let fix = args.options.contains_key("fix");
    let dry_run = args.options.contains_key("dry-run");
    if fix && dry_run {
        return Err("--fix and --dry-run are mutually exclusive".to_string().into());
    }
    if fix || dry_run {
        return analyze_fix(args, &policy_path, source, policy, schema, deny_warnings, format, dry_run);
    }
    let mut analyzer = xac_analyze::Analyzer::new(&policy)
        .with_source(&source)
        .named(&policy_path, args.options.get("schema").cloned());
    if let Some(s) = &schema {
        analyzer = analyzer.with_schema(s);
    }
    if args.options.contains_key("audit-updates") {
        analyzer = analyzer.audit_updates(args.count("audit-updates", 16)?);
    }
    let report = match args.options.get("doc") {
        Some(_) => {
            if schema.is_none() {
                return Err("analyze --doc needs --schema (the dynamic audit \
                            replays updates through the full system)"
                    .to_string()
                    .into());
            }
            analyzer.run_with_document(&args.doc()?)
        }
        None => analyzer.run(),
    };
    let rendered = match format {
        "json" => report.to_json(),
        _ => report.to_text(),
    };
    match args.options.get("out") {
        Some(path) => {
            std::fs::write(path, &rendered)
                .map_err(|e| format!("cannot write `{path}`: {e}"))?;
            eprintln!("wrote report to {path}");
        }
        None => print!("{rendered}"),
    }
    analyze_exit(&report, deny_warnings, &policy_path)
}

/// Map a report onto the `analyze` exit-code contract (0 clean, 5
/// errors, 6 warnings under `--deny warn`).
fn analyze_exit(
    report: &xac_analyze::Report,
    deny_warnings: bool,
    policy_path: &str,
) -> CliResult<()> {
    match report.exit_code(deny_warnings) {
        0 => Ok(()),
        code => Err(CliError {
            message: format!(
                "policy `{policy_path}`: {} error(s), {} warning(s){}",
                report.count(xac_analyze::Severity::Error),
                report.count(xac_analyze::Severity::Warning),
                if code == 6 { " (denied by --deny warn)" } else { "" }
            ),
            code,
        }),
    }
}

/// `analyze --fix` / `--dry-run`: synthesize verified repairs on top of
/// the incremental engine, then either rewrite the policy source
/// (`--fix`, honouring `--fix-out`) or print the unified diff and leave
/// the file untouched (`--dry-run`).
///
/// With `--doc` every candidate edit is differentially annotated on all
/// three backends and must keep the sign state byte-identical outside
/// the edit's own element types. The exit code reflects the policy left
/// on disk: post-repair for `--fix`, pre-repair for `--dry-run`.
#[allow(clippy::too_many_arguments)]
fn analyze_fix(
    args: &Args,
    policy_path: &str,
    source: String,
    policy: Policy,
    schema: Option<Schema>,
    deny_warnings: bool,
    format: &str,
    dry_run: bool,
) -> CliResult<()> {
    let doc = match args.options.get("doc") {
        Some(_) => {
            if schema.is_none() {
                return Err("analyze --doc needs --schema (repairs are verified \
                            by differential annotation over the full system)"
                    .to_string()
                    .into());
            }
            Some(args.doc()?)
        }
        None => None,
    };
    let fix_infos = match args.options.get("fix-level").map(String::as_str) {
        None | Some("warn") => false,
        Some("info") => true,
        Some(other) => {
            return Err(format!("--fix-level takes warn|info, found `{other}`").into())
        }
    };
    let mut engine = xac_analyze::IncrementalAnalyzer::new(policy, schema.as_ref())
        .named(policy_path, args.options.get("schema").cloned());
    if args.options.contains_key("audit-updates") {
        engine = engine.audit_updates(args.count("audit-updates", 16)?);
    }
    let before = engine.analyze();
    let cfg = xac_analyze::RepairConfig { deny_warnings, fix_infos };
    let outcome =
        xac_analyze::synthesize(&mut engine, &source, policy_path, doc.as_ref(), &cfg);
    let rendered = match format {
        "json" => outcome.report.to_json(),
        _ => outcome.report.to_text(),
    };
    match args.options.get("out") {
        Some(path) => {
            std::fs::write(path, &rendered)
                .map_err(|e| format!("cannot write `{path}`: {e}"))?;
            eprintln!("wrote report to {path}");
        }
        None => print!("{rendered}"),
    }
    for repair in &outcome.repairs {
        eprintln!("repair [{}] {}", repair.kind.label(), repair.description);
    }
    if dry_run {
        if !outcome.diff.is_empty() {
            print!("{}", outcome.diff);
        }
        return analyze_exit(&before, deny_warnings, policy_path);
    }
    let target = args
        .options
        .get("fix-out")
        .map(String::as_str)
        .unwrap_or(policy_path);
    if !outcome.repairs.is_empty() || args.options.contains_key("fix-out") {
        std::fs::write(target, &outcome.source)
            .map_err(|e| format!("cannot write `{target}`: {e}"))?;
        eprintln!(
            "wrote repaired policy to {target} ({} repair(s))",
            outcome.repairs.len()
        );
    }
    analyze_exit(&outcome.report, deny_warnings, policy_path)
}

/// Observability front end.
///
/// `obs dump` builds the system, runs the given queries (and an
/// optional `--delete` through the re-annotation path) with tracing on,
/// then prints the global metrics registry — oracle hit/miss counters,
/// backend write totals, per-span aggregates — in Prometheus text
/// exposition to stdout or `--out`. `--trace-out` additionally writes
/// the Chrome trace-event JSON of the run.
///
/// `obs check` validates artifacts produced by `obs dump` or
/// `serve-bench`: `--metrics F` must parse as Prometheus exposition
/// (every line `name{labels} value` or `# TYPE`/`# HELP`), `--trace F`
/// must be well-formed JSON. Invalid files exit 2.
fn obs(args: &Args) -> CliResult<()> {
    let verb = args.positionals.first().map(String::as_str).unwrap_or("dump");
    match verb {
        "dump" => obs_dump(args),
        "check" => obs_check(args),
        other => Err(format!("unknown obs verb `{other}` (dump|check)\n{}", usage()).into()),
    }
}

fn obs_dump(args: &Args) -> CliResult<()> {
    xac_obs::trace::set_enabled(true);
    let (system, mut backend) = build_system(args)?;
    for q in &args.queries {
        system.request(backend.as_mut(), q).map_err(|e| e.to_string())?;
    }
    if let Some(expr) = args.options.get("delete") {
        let path = xac_xpath::parse_absolute(expr).map_err(xac_core::Error::from)?;
        system
            .apply(backend.as_mut(), &Update::Delete(path))
            .map_err(|e| e.to_string())?;
    }
    xac_obs::trace::set_enabled(false);
    if let Some(path) = args.options.get("trace-out") {
        let json = xac_obs::chrome_trace(&xac_obs::take_events());
        std::fs::write(path, &json).map_err(|e| format!("cannot write `{path}`: {e}"))?;
        eprintln!("wrote trace to {path}");
    }
    let text = xac_obs::prometheus_global();
    match args.options.get("out") {
        Some(path) => {
            std::fs::write(path, &text).map_err(|e| format!("cannot write `{path}`: {e}"))?;
            eprintln!("wrote metrics to {path}");
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn obs_check(args: &Args) -> CliResult<()> {
    if !args.options.contains_key("metrics") && !args.options.contains_key("trace") {
        return Err(format!("obs check needs --metrics and/or --trace\n{}", usage()).into());
    }
    if let Some(path) = args.options.get("metrics") {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read metrics `{path}`: {e}"))?;
        xac_obs::validate_prometheus(&text)
            .map_err(|e| format!("metrics `{path}` invalid: {e}"))?;
        println!("metrics ok: {path} ({} lines)", text.lines().count());
    }
    if let Some(path) = args.options.get("trace") {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read trace `{path}`: {e}"))?;
        xac_obs::validate_json(&text).map_err(|e| format!("trace `{path}` invalid: {e}"))?;
        // Structural JSON is not enough for a Chrome trace carrying
        // distributed flows: every flow-start must have a matching
        // finish bound by the same id, or the viewer draws dangling
        // arrows.
        xac_obs::validate_flow_pairing(&text)
            .map_err(|e| format!("trace `{path}` flow pairing invalid: {e}"))?;
        println!("trace ok: {path} ({} bytes)", text.len());
    }
    Ok(())
}

fn vm(args: &Args) -> CliResult<()> {
    let verb = args.positionals.first().map(String::as_str).unwrap_or("dump");
    match verb {
        "dump" => vm_dump(args),
        other => Err(format!("unknown vm verb `{other}` (dump)\n{}", usage()).into()),
    }
}

/// Disassemble the bytecode program the compiled annotate mode runs for
/// this (policy, schema) pair — the same optimized annotation query the
/// backends execute, grouped per element type.
fn vm_dump(args: &Args) -> CliResult<()> {
    let policy = args.policy()?;
    let schema = args.schema()?;
    let optimized = xac_core::optimizer::optimize(&policy).optimized;
    let query = xac_policy::AnnotationQuery::from_policy(&optimized);
    let program = xac_vmc::compile_query(&query, Some(&schema))
        .map_err(|e| format!("annotation query is outside the compilable fragment: {e}"))?;
    let listing = xac_vmc::disassemble(&program, Some(&schema));
    match args.options.get("out") {
        Some(path) => {
            std::fs::write(path, &listing)
                .map_err(|e| format!("cannot write `{path}`: {e}"))?;
            eprintln!("wrote listing to {path}");
        }
        None => print!("{listing}"),
    }
    Ok(())
}

/// Build an engine on the storage the flags select: durable over
/// `--data-dir` (the storage half of `--fault-plan` arms the WAL
/// crash seams, the rest the backend) or in-memory otherwise. A reopen
/// that recovered from the log reports what the replay did.
fn engine_on_selected_storage(
    args: &Args,
    system: Arc<System>,
    kind: BackendKind,
    plan: xac_core::FaultPlan,
) -> CliResult<ServeEngine> {
    match args.durability()? {
        Some(config) => {
            let engine = ServeEngine::durable_with_faults(system, kind, &config, plan)?;
            match engine.recovery() {
                Some(r) => println!(
                    "recovered {} from {}: {} ops replayed, {} sign entries, epoch {}, \
                     {} wal bytes truncated",
                    r.backend,
                    config.data_dir.display(),
                    r.ops_replayed,
                    r.sign_entries,
                    r.last_epoch,
                    r.wal_truncated_bytes,
                ),
                None => println!(
                    "fresh durable boot at {} (wal {})",
                    config.data_dir.display(),
                    if config.sync { "sync" } else { "nosync" },
                ),
            }
            Ok(engine)
        }
        None => {
            if plan.specs().iter().any(|s| s.point.is_storage()) {
                return Err(
                    "--fault-plan: wal_* points arm the durable \
                     storage layer; add --data-dir"
                        .to_string()
                        .into(),
                );
            }
            Ok(ServeEngine::for_kind_with_faults(system, kind, plan)?)
        }
    }
}

/// Build the serving engine for the network commands, arming the
/// backend half of `--fault-plan` (the net half belongs to clients and
/// is rejected here).
fn build_engine(args: &Args) -> CliResult<Arc<ServeEngine>> {
    let (backend_plan, net_plan) = args.fault_plans()?;
    if !net_plan.is_exhausted() {
        return Err(format!(
            "--fault-plan: net_* points are client-side (use `client`/`serve-bench --net`), \
             found `{net_plan}`"
        )
        .into());
    }
    let system = Arc::new(args.build_system()?);
    let kind = args.backend_kind()?;
    Ok(Arc::new(engine_on_selected_storage(args, system, kind, backend_plan)?))
}

fn server_config(args: &Args) -> CliResult<ServerConfig> {
    let mut config = ServerConfig {
        listen: args
            .options
            .get("listen")
            .cloned()
            .unwrap_or_else(|| "127.0.0.1:0".to_string()),
        max_connections: args.count("max-conns", 64)?,
        read_timeout: Duration::from_millis(args.count("read-timeout-ms", 5000)? as u64),
        rate_limit: None,
    };
    if args.options.contains_key("rate-limit") {
        config.rate_limit = Some(args.count("rate-limit", 0)? as u32);
    }
    Ok(config)
}

/// Run the TCP server over one engine until killed (or for
/// `--linger-ms`, then drain gracefully — the mode the CI smoke test
/// uses). `--addr-file` publishes the bound address, so scripts can
/// bind port 0 and scrape the real port.
fn serve(args: &Args) -> CliResult<()> {
    let engine = build_engine(args)?;
    let config = server_config(args)?;
    let server = NetServer::start(Arc::clone(&engine), config)
        .map_err(|e| format!("cannot start server: {e}"))?;
    let addr = server.local_addr();
    println!("listening on {addr} ({}, role-gated, epoch {})", engine.backend_name(), engine.epoch());
    if let Some(path) = args.options.get("addr-file") {
        std::fs::write(path, addr.to_string())
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
    }
    match args.options.get("linger-ms") {
        Some(_) => {
            let ms = args.count("linger-ms", 0)?;
            std::thread::sleep(Duration::from_millis(ms as u64));
            server.shutdown();
            println!("drained and shut down after {ms}ms");
        }
        None => loop {
            // Foreground mode: serve until the process is killed.
            std::thread::sleep(Duration::from_secs(3600));
        },
    }
    if let Some(cause) = engine.quarantine_cause() {
        return Err(CliError {
            message: format!(
                "engine quarantined (read-only at epoch {}): {cause}",
                engine.epoch()
            ),
            code: 3,
        });
    }
    Ok(())
}

/// One table row per request outcome.
fn render_response(req: &Request, resp: &Response) -> (String, String, String) {
    match resp {
        Response::Decision { granted, nodes, epoch } => (
            if *granted { "GRANTED" } else { "DENIED" }.to_string(),
            format!("{} ({nodes} nodes)", describe_request(req)),
            epoch.to_string(),
        ),
        Response::Update { applied, removed, inserted, sign_writes, denied_nodes, epoch } => {
            if *applied {
                let changed = if *removed > 0 {
                    format!("removed {removed}")
                } else {
                    format!("inserted {inserted}")
                };
                (
                    "APPLIED".to_string(),
                    format!("{changed}, {sign_writes} sign writes"),
                    epoch.to_string(),
                )
            } else {
                (
                    "REFUSED".to_string(),
                    format!("guard denied {denied_nodes} nodes"),
                    epoch.to_string(),
                )
            }
        }
        Response::Status { backend, epoch, accessible, quarantined } => (
            if *quarantined { "QUARANTINED" } else { "OK" }.to_string(),
            format!("{backend}, {accessible} accessible"),
            epoch.to_string(),
        ),
        Response::Metrics { rendered } => (
            "OK".to_string(),
            format!("{} metric lines", rendered.lines().count()),
            "-".to_string(),
        ),
        Response::Scrape { exposition } => (
            "OK".to_string(),
            format!("{} exposition lines", exposition.lines().count()),
            "-".to_string(),
        ),
        Response::Tail { records } => (
            "OK".to_string(),
            format!("{} flight records", records.len()),
            "-".to_string(),
        ),
        Response::Analysis { exit_code, repairs, .. } => (
            if *exit_code == 0 { "CLEAN".to_string() } else { format!("EXIT({exit_code})") },
            format!("{repairs} verified repair(s)"),
            "-".to_string(),
        ),
        Response::Error { kind, message } => {
            (format!("ERROR({kind})"), message.clone(), "-".to_string())
        }
        other => ("?".to_string(), format!("{other:?}"), "-".to_string()),
    }
}

fn describe_request(req: &Request) -> String {
    match req {
        Request::Query { query } => query.clone(),
        Request::Delete { path } => path.clone(),
        Request::Insert { parent, name, .. } => format!("{parent} <- <{name}>"),
        _ => String::new(),
    }
}

/// Connect to a running server and issue requests, rendering decisions
/// as a table. The worst outcome drives the exit code: role-denied 7,
/// quarantined 3, fault-injected 4, other errors 2; a *denied* query or
/// refused update is a successful answer (exit 0).
fn client(args: &Args) -> CliResult<()> {
    let addr = args.required("addr")?;
    let role = match args.options.get("role") {
        None => Role::Reader,
        Some(spelling) => Role::parse(spelling).map_err(CliError::from)?,
    };
    let mut requests: Vec<Request> = args.queries.iter().map(Request::query).collect();
    if let Some(path) = args.options.get("delete") {
        requests.push(Request::delete(path));
    }
    if let Some(spec) = args.options.get("insert") {
        let (parent, name, text) = parse_insert_spec(spec)?;
        requests.push(Request::insert(parent, name, text.map(str::to_string)));
    }
    for verb in &args.positionals {
        match verb.as_str() {
            "status" => requests.push(Request::Status),
            "metrics" => requests.push(Request::Metrics),
            "scrape" => requests.push(Request::Scrape),
            "tail" => requests.push(Request::tail(args.count("last", 10)? as u32)),
            "analyze" => requests.push(Request::Analyze {
                deny_warnings: matches!(
                    args.options.get("deny").map(String::as_str),
                    Some("warn") | Some("warnings")
                ),
                fix: args.options.contains_key("fix"),
            }),
            other => {
                return Err(format!(
                    "unknown client verb `{other}` (status|metrics|scrape|tail|analyze)"
                )
                .into())
            }
        }
    }
    if requests.is_empty() {
        requests.push(Request::Status);
    }
    let mut session = NetClient::connect(addr, role)
        .map_err(|e| format!("cannot connect to `{addr}`: {e}"))?;
    println!("connected to {} as `{role}` (epoch {})", session.backend(), session.welcome_epoch());
    println!("{:<8} {:<14} {:<44} {:>6}", "verb", "outcome", "detail", "epoch");
    let mut worst: u8 = 0;
    let mut worst_message = String::new();
    for req in &requests {
        let resp = session
            .request(req)
            .map_err(|e| format!("{} failed on the wire: {e}", req.verb()))?;
        let (outcome, detail, epoch) = render_response(req, &resp);
        println!("{:<8} {:<14} {:<44} {:>6}", req.verb(), outcome, detail, epoch);
        match &resp {
            // The scraped exposition is an artifact, not table content:
            // `--scrape-out F` saves it for `obs check`/CI, otherwise it
            // prints in full after its table row.
            Response::Scrape { exposition } => match args.options.get("scrape-out") {
                Some(path) => {
                    std::fs::write(path, exposition)
                        .map_err(|e| format!("cannot write `{path}`: {e}"))?;
                    eprintln!("wrote scrape to {path}");
                }
                None => print!("{exposition}"),
            },
            Response::Tail { records } => {
                for r in records {
                    println!(
                        "  {} {:<8} {:<10} {:<18} epoch {:>4}  decode {:>5}µs  queue {:>5}µs  \
                         execute {:>7}µs  total {:>7}µs",
                        xac_obs::trace::trace_id_hex(r.trace_id),
                        r.verb,
                        r.backend,
                        r.outcome,
                        r.epoch,
                        r.decode_us,
                        r.queue_us,
                        r.execute_us,
                        r.total_us,
                    );
                }
            }
            Response::Analysis { report_json, diff, .. } => {
                print!("{report_json}");
                if let Some(diff) = diff {
                    print!("{diff}");
                }
            }
            _ => {}
        }
        if let Response::Error { kind, message } = &resp {
            let code = error_kind_code(*kind);
            // 7 (role) outranks 2, 3 and 4 outrank 7 as hard failures:
            // pick the first error's code unless a later one is a
            // quarantine/fault classification.
            if worst == 0 || matches!(code, 3 | 4) {
                worst = code;
                worst_message = format!("{kind}: {message}");
            }
        }
    }
    session.close();
    match worst {
        0 => Ok(()),
        code => Err(CliError { message: worst_message, code }),
    }
}

/// Live terminal telemetry over the admin wire plane: poll a running
/// server with `Request::Scrape` + `Request::Tail`, reconstruct the
/// per-verb `xac_net_request_us` histograms from the scraped Prometheus
/// text, and render latency quantiles (sub-bucket interpolated p50,
/// p99, p999), per-backend outcome tallies, and the most recent flight
/// records — refreshed in place like `top(1)`. `--interval-ms` sets the
/// poll cadence (default 1000); `--iterations N` bounds the refreshes
/// (default 0 = run until interrupted), so CI takes one sample with
/// `--iterations 1` and exits.
fn top(args: &Args) -> CliResult<()> {
    let addr = args.required("addr")?;
    let interval = Duration::from_millis(args.count("interval-ms", 1000)? as u64);
    let iterations = args.count("iterations", 0)?;
    let live = iterations != 1;
    let mut session = NetClient::connect(addr, Role::Admin)
        .map_err(|e| format!("cannot connect to `{addr}`: {e}"))?;
    let backend = session.backend().to_string();
    for iter in 1.. {
        let exposition = match session
            .scrape()
            .map_err(|e| format!("scrape failed on the wire: {e}"))?
        {
            Response::Scrape { exposition } => exposition,
            Response::Error { kind, message } => {
                return Err(CliError {
                    message: format!("{kind}: {message}"),
                    code: error_kind_code(kind),
                })
            }
            other => return Err(format!("unexpected scrape answer: {other:?}").into()),
        };
        let records = match session
            .tail(12)
            .map_err(|e| format!("tail failed on the wire: {e}"))?
        {
            Response::Tail { records } => records,
            Response::Error { kind, message } => {
                return Err(CliError {
                    message: format!("{kind}: {message}"),
                    code: error_kind_code(kind),
                })
            }
            other => return Err(format!("unexpected tail answer: {other:?}").into()),
        };
        if live {
            // Home + clear: repaint in place, like top(1).
            print!("\x1b[H\x1b[2J");
        }
        render_top(&backend, iter, &exposition, &records);
        if iterations != 0 && iter >= iterations {
            break;
        }
        std::thread::sleep(interval);
    }
    session.close();
    Ok(())
}

/// Rebuild per-verb histogram snapshots from scraped
/// `xac_net_request_us_bucket{…}` / `_sum` / `_count` lines. The
/// cumulative `le` samples are de-cumulated back into per-bucket counts
/// so [`HistogramSnapshot::quantile`](xac_obs::HistogramSnapshot) runs
/// on the *client* side — the server ships text, not statistics.
fn parse_verb_histograms(exposition: &str) -> BTreeMap<String, xac_obs::HistogramSnapshot> {
    const FAMILY: &str = "xac_net_request_us";
    let mut cumulative: BTreeMap<String, Vec<(usize, u64)>> = BTreeMap::new();
    let mut sums: BTreeMap<String, u64> = BTreeMap::new();
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    for line in exposition.lines() {
        let Some(rest) = line.strip_prefix(FAMILY) else { continue };
        let Some((kind, rest)) = rest.split_once('{') else { continue };
        let Some((labels, value)) = rest.split_once("} ") else { continue };
        // Drop any OpenMetrics exemplar suffix before reading the value.
        let value = value.split(" # ").next().unwrap_or(value).trim();
        let Ok(value) = value.parse::<u64>() else { continue };
        let mut verb = None;
        let mut le = None;
        for pair in labels.split(',') {
            let Some((k, v)) = pair.split_once('=') else { continue };
            let v = v.trim_matches('"');
            match k {
                "verb" => verb = Some(v.to_string()),
                "le" => le = Some(v.to_string()),
                _ => {}
            }
        }
        let Some(verb) = verb else { continue };
        match kind {
            "_bucket" => {
                let Some(le) = le else { continue };
                // `le` is the inclusive log2 bucket top `(1<<i)-1`;
                // recover the bucket index from it.
                let index = if le == "+Inf" {
                    xac_obs::BUCKETS - 1
                } else {
                    match le.parse::<u64>() {
                        Ok(bound) => (bound + 1).trailing_zeros() as usize,
                        Err(_) => continue,
                    }
                };
                cumulative.entry(verb).or_default().push((index, value));
            }
            "_sum" => {
                sums.insert(verb, value);
            }
            "_count" => {
                counts.insert(verb, value);
            }
            _ => {}
        }
    }
    let mut out = BTreeMap::new();
    for (verb, mut samples) in cumulative {
        samples.sort_unstable();
        let mut buckets = vec![0u64; xac_obs::BUCKETS];
        let mut prev = 0u64;
        for (index, cum) in samples {
            if index < buckets.len() {
                buckets[index] = cum.saturating_sub(prev);
                prev = cum;
            }
        }
        let count = counts.get(&verb).copied().unwrap_or(prev);
        let total = sums.get(&verb).copied().unwrap_or(0);
        out.insert(
            verb,
            xac_obs::HistogramSnapshot { count, total, buckets, exemplars: vec![] },
        );
    }
    out
}

fn render_top(
    backend: &str,
    iter: usize,
    exposition: &str,
    records: &[xac_obs::FlightRecord],
) {
    println!("xmlac top — {backend} (sample {iter})");
    println!();
    println!(
        "{:<10} {:>8} {:>10} {:>9} {:>9} {:>9}",
        "verb", "count", "mean_us", "p50_us", "p99_us", "p999_us"
    );
    let histograms = parse_verb_histograms(exposition);
    if histograms.is_empty() {
        println!("(no xac_net_request_us samples yet — has the server served a request?)");
    }
    for (verb, snap) in &histograms {
        println!(
            "{:<10} {:>8} {:>10.1} {:>9.0} {:>9.0} {:>9.0}",
            verb,
            snap.count,
            snap.mean(),
            snap.quantile(0.50),
            snap.quantile(0.99),
            snap.quantile(0.999),
        );
    }
    // Outcome tallies per (backend, verb) from the flight tail — the
    // recorder sees every wire request, including rate-limited ones
    // that never reach the engine.
    let mut outcomes: BTreeMap<(String, String, String), u64> = BTreeMap::new();
    for r in records {
        *outcomes
            .entry((r.backend.clone(), r.verb.clone(), r.outcome.clone()))
            .or_default() += 1;
    }
    if !outcomes.is_empty() {
        println!();
        println!("{:<12} {:<10} {:<18} {:>6}", "backend", "verb", "outcome", "n");
        for ((backend, verb, outcome), n) in &outcomes {
            println!("{backend:<12} {verb:<10} {outcome:<18} {n:>6}");
        }
    }
    if !records.is_empty() {
        println!();
        println!("recent requests (newest last):");
        for r in records {
            println!(
                "  {} {:<8} {:<18} epoch {:>4}  decode {:>4}µs  queue {:>4}µs  \
                 execute {:>6}µs  total {:>6}µs",
                &xac_obs::trace::trace_id_hex(r.trace_id)[..16],
                r.verb,
                r.outcome,
                r.epoch,
                r.decode_us,
                r.queue_us,
                r.execute_us,
                r.total_us,
            );
        }
    }
}

/// Drive the serving engine: N reader threads issue the given queries
/// against published snapshots while this thread applies guarded
/// updates, then report the engine's metrics. `--fault-plan` arms an
/// injection plan (an explicit spec string or `seed:N[xK]`); a writer
/// error is reported but the run continues so the metrics always print,
/// and the exit code classifies the final state: 3 if the engine ended
/// quarantined, 4 if an injected fault surfaced out of the ladder.
///
/// `--net CLIENTS` switches to the network mode: the same engine is
/// fronted by a real TCP server and CLIENTS socket sessions issue the
/// reads (writes go over a writer session), emitting a `BENCH_net.json`
/// artifact row (`--out` overrides the path).
fn serve_bench(args: &Args) -> CliResult<()> {
    if args.queries.is_empty() {
        return Err(format!("serve-bench needs at least one --query\n{}", usage()).into());
    }
    if args.options.contains_key("net") {
        return serve_bench_net(args);
    }
    // Tracing goes on before the system is built so the annotate /
    // re-annotate phase spans of engine construction are captured too.
    let tracing = args.options.contains_key("trace-out");
    if tracing {
        xac_obs::trace::set_enabled(true);
    }
    let system = Arc::new(args.build_system()?);
    let kind = args.backend_kind()?;
    let plan = match args.options.get("fault-plan") {
        Some(spec) => xac_serve::faults::fault_plan_from_arg(spec)
            .map_err(|e| format!("--fault-plan `{spec}`: {e}"))?,
        None => xac_core::FaultPlan::new(),
    };
    if !plan.is_exhausted() {
        install_injected_panic_silencer();
    }
    let engine = Arc::new(engine_on_selected_storage(args, system, kind, plan)?);
    let readers = args.count("readers", 4)?;
    let reads = args.count("reads", 200)?;
    let paths: Vec<xac_xpath::Path> = args
        .queries
        .iter()
        .map(|q| xac_xpath::parse_absolute(q).map_err(|e| format!("--query `{q}`: {e}").into()))
        .collect::<CliResult<_>>()?;
    let delete = match args.options.get("delete") {
        Some(expr) => Some(xac_xpath::parse_absolute(expr).map_err(xac_core::Error::from)?),
        None => None,
    };
    let mut writer_error: Option<xac_core::Error> = None;
    std::thread::scope(|scope| {
        for _ in 0..readers {
            let engine = Arc::clone(&engine);
            let paths = &paths;
            scope.spawn(move || {
                for i in 0..reads {
                    engine.query(&paths[i % paths.len()]);
                }
            });
        }
        if let Some(update) = &delete {
            match engine.guarded_delete(update) {
                Ok(g) => println!(
                    "writer: guarded delete {} at epoch {}",
                    if g.applied() { "applied" } else { "denied" },
                    engine.epoch()
                ),
                Err(e) => {
                    eprintln!("writer: guarded delete failed: {e}");
                    writer_error = Some(e);
                }
            }
        }
    });
    println!(
        "served {} readers × {} reads on {}",
        readers,
        reads,
        engine.backend_name()
    );
    println!("{}", engine.metrics().render());
    // Telemetry artifacts are written before the exit-code
    // classification below so they exist even for runs that end
    // quarantined or with an unabsorbed fault.
    if tracing {
        xac_obs::trace::set_enabled(false);
    }
    if let Some(path) = args.options.get("trace-out") {
        let json = xac_obs::chrome_trace(&xac_obs::take_events());
        std::fs::write(path, &json).map_err(|e| format!("cannot write `{path}`: {e}"))?;
        eprintln!("wrote trace to {path}");
    }
    if let Some(path) = args.options.get("metrics-out") {
        let mut text = engine.metrics().to_prometheus(engine.backend_name());
        text.push_str(&xac_obs::prometheus_global());
        std::fs::write(path, &text).map_err(|e| format!("cannot write `{path}`: {e}"))?;
        eprintln!("wrote metrics to {path}");
    }
    if let Some(cause) = engine.quarantine_cause() {
        return Err(CliError {
            message: format!(
                "engine quarantined (read-only at epoch {}): {cause}",
                engine.epoch()
            ),
            code: 3,
        });
    }
    match writer_error {
        // A rolled-back write: the engine recovered, but the operation
        // was lost — classify it (FaultInjected -> 4) for the caller.
        Some(e) => Err(e.into()),
        None => Ok(()),
    }
}

/// Injected panics are caught and classified by the engine; the default
/// hook's report + backtrace would only bury the real output. Organic
/// panics still report normally.
fn install_injected_panic_silencer() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if xac_core::injected_panic_point(info.payload()).is_none() {
            default_hook(info);
        }
    }));
}

/// Per-client tallies for the network bench.
#[derive(Default)]
struct NetTally {
    granted: u64,
    denied: u64,
    errors: u64,
    wire_errors: u64,
}

/// `serve-bench --net N`: front the engine with a real TCP server and
/// drive it over N client sockets (each issuing `--reads` queries
/// round-robin over the `--query` list), plus one writer session for
/// `--delete`. The net half of `--fault-plan` is armed on the first
/// client, the backend half on the engine. Emits one JSON artifact row
/// (`"bench": "net"`) to `--out` (default `BENCH_net.json`).
fn serve_bench_net(args: &Args) -> CliResult<()> {
    let clients = args.count("net", 4)?.max(1);
    let reads = args.count("reads", 200)?;
    let (backend_plan, net_plan) = args.fault_plans()?;
    if !backend_plan.is_exhausted() {
        install_injected_panic_silencer();
    }
    let system = Arc::new(args.build_system()?);
    let kind = args.backend_kind()?;
    let engine =
        Arc::new(engine_on_selected_storage(args, system, kind, backend_plan)?);
    let mut config = server_config(args)?;
    // Keep the cap above the fleet so admission control never skews the
    // numbers unless explicitly configured.
    if !args.options.contains_key("max-conns") {
        config.max_connections = clients + 8;
    }
    let server = NetServer::start(Arc::clone(&engine), config)
        .map_err(|e| format!("cannot start server: {e}"))?;
    let addr = server.local_addr();
    let started = Instant::now();
    let mut tallies: Vec<NetTally> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for c in 0..clients {
            let queries = &args.queries;
            let plan = if c == 0 { net_plan.clone() } else { xac_core::FaultPlan::new() };
            handles.push(scope.spawn(move || {
                let mut tally = NetTally::default();
                let Ok(mut session) = NetClient::connect_with(
                    addr,
                    Role::Reader,
                    plan,
                    Duration::from_millis(300),
                ) else {
                    tally.wire_errors += reads as u64;
                    return tally;
                };
                for i in 0..reads {
                    if session.is_dead() {
                        // A net fault tore the session: reconnect —
                        // carrying the unfired fault specs over — so the
                        // bench keeps measuring the server, not the tear.
                        let rest = session.take_plan();
                        match NetClient::connect_with(
                            addr,
                            Role::Reader,
                            rest,
                            Duration::from_millis(300),
                        ) {
                            Ok(s) => session = s,
                            Err(_) => {
                                tally.wire_errors += (reads - i) as u64;
                                break;
                            }
                        }
                    }
                    match session.query(&queries[i % queries.len()]) {
                        Ok(Response::Decision { granted: true, .. }) => tally.granted += 1,
                        Ok(Response::Decision { granted: false, .. }) => tally.denied += 1,
                        Ok(_) => tally.errors += 1,
                        Err(_) => tally.wire_errors += 1,
                    }
                }
                session.close();
                tally
            }));
        }
        tallies = handles.into_iter().map(|h| h.join().unwrap_or_default()).collect();
    });
    let mut updates_applied: u64 = 0;
    let mut updates_refused: u64 = 0;
    let mut writer_error: Option<CliError> = None;
    if let Some(expr) = args.options.get("delete") {
        match NetClient::connect(addr, Role::Writer) {
            Ok(mut writer) => {
                match writer.delete(expr) {
                    Ok(Response::Update { applied: true, epoch, .. }) => {
                        updates_applied += 1;
                        println!("writer: guarded delete applied at epoch {epoch}");
                    }
                    Ok(Response::Update { applied: false, .. }) => {
                        updates_refused += 1;
                        println!("writer: guarded delete denied");
                    }
                    Ok(Response::Error { kind, message }) => {
                        eprintln!("writer: guarded delete failed: {message}");
                        writer_error =
                            Some(CliError { message, code: error_kind_code(kind) });
                    }
                    Ok(other) => {
                        writer_error = Some(CliError {
                            message: format!("unexpected writer response {other:?}"),
                            code: 2,
                        });
                    }
                    Err(e) => {
                        writer_error = Some(CliError {
                            message: format!("writer session broke: {e}"),
                            code: 2,
                        });
                    }
                }
                writer.close();
            }
            Err(e) => {
                writer_error = Some(CliError {
                    message: format!("cannot connect writer session: {e}"),
                    code: 2,
                });
            }
        }
    }
    let elapsed = started.elapsed();
    server.shutdown();
    let total: u64 = tallies
        .iter()
        .map(|t| t.granted + t.denied + t.errors + t.wire_errors)
        .sum();
    let granted: u64 = tallies.iter().map(|t| t.granted).sum();
    let denied: u64 = tallies.iter().map(|t| t.denied).sum();
    let errors: u64 = tallies.iter().map(|t| t.errors).sum();
    let wire_errors: u64 = tallies.iter().map(|t| t.wire_errors).sum();
    let answered = granted + denied + errors;
    let elapsed_ms = elapsed.as_secs_f64() * 1e3;
    let rps = answered as f64 / elapsed.as_secs_f64().max(1e-9);
    println!(
        "net: {clients} clients × {reads} requests over {} = {answered} answered \
         ({granted} granted, {denied} denied, {errors} errors, {wire_errors} wire errors) \
         in {elapsed_ms:.1}ms ({rps:.0} req/s)",
        engine.backend_name()
    );
    println!("{}", engine.metrics().render());
    let out = args
        .options
        .get("out")
        .map(String::as_str)
        .unwrap_or("BENCH_net.json");
    let json = format!(
        "[\n  {{\"bench\": \"net\", \"backend\": \"{}\", \"clients\": {clients}, \
         \"reads_per_client\": {reads}, \"requests_total\": {total}, \
         \"answered\": {answered}, \"granted\": {granted}, \"denied\": {denied}, \
         \"errors\": {errors}, \"wire_errors\": {wire_errors}, \
         \"updates_applied\": {updates_applied}, \"updates_refused\": {updates_refused}, \
         \"elapsed_ms\": {elapsed_ms:.3}, \"requests_per_s\": {rps:.1}}}\n]\n",
        engine.backend_name()
    );
    std::fs::write(out, &json).map_err(|e| format!("cannot write `{out}`: {e}"))?;
    eprintln!("wrote net bench artifact to {out}");
    if let Some(cause) = engine.quarantine_cause() {
        return Err(CliError {
            message: format!(
                "engine quarantined (read-only at epoch {}): {cause}",
                engine.epoch()
            ),
            code: 3,
        });
    }
    match writer_error {
        Some(e) => Err(e),
        None => Ok(()),
    }
}
