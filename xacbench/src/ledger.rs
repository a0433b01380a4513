//! The per-layer ledger of a traced run. Every entry times one public
//! call from the benchmark's side of the API; nothing inside the
//! program is instrumented.

use crate::stats::Samples;
use std::collections::BTreeMap;
use std::path::{Path as FsPath, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use xac_core::{reannotator, requester, AnnotateMode, Backend, System};
use xac_serve::{
    BackendKind, Durability, DurabilityConfig, LoggedOp, Request, Response, Role, ServeEngine,
};

pub fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Per-layer metric names and units, in `BENCHMARK.json`'s order.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("xmlgen.generate_s", "s"),
    ("core.build_s", "s"),
    ("core.load_s", "s"),
    ("core.annotate_s", "s"),
    ("core.guard_us", "us"),
    ("policy.trigger_us", "us"),
    ("policy.triggered_rules_per_update", "count"),
    ("core.apply_us", "us"),
    ("core.reannotate_us", "us"),
    ("core.full_reannotate_ms", "ms"),
    ("reldb.update_statements", "count"),
    ("core.checkpoint_us", "us"),
    ("store.log_txn_us", "us"),
    ("core.snapshot_us", "us"),
    ("vmc.index_build_us", "us"),
    ("xpath.parse_us", "us"),
    ("vmc.compile_us", "us"),
    ("vmc.cache_hit_ratio", "ratio"),
    ("vmc.select_us", "us"),
    ("core.decide_us", "us"),
    ("core.probe_us", "us"),
    ("core.ns_per_answer_node", "ns"),
    ("xmlstore.eval_us", "us"),
    ("serve.read_us", "us"),
    ("serve.update_us", "us"),
    ("serve.residual_us", "us"),
    ("serve.sign_writes_per_update", "count"),
    ("serve.full_fallbacks", "count"),
    ("net.rtt_us", "us"),
    ("net.overhead_us", "us"),
    ("net.codec_us", "us"),
    ("store.wal_bytes_per_update", "count"),
    ("store.fsyncs_per_update", "count"),
    ("store.pool_hit_ratio", "ratio"),
    ("store.recover_s", "s"),
    ("store.recover_ops_replayed", "count"),
    ("store.recover_sign_entries", "count"),
    ("obs.trace_overhead_pct", "%"),
];

/// Timings and scalar readings of one traced run.
#[derive(Default)]
pub struct Ledger {
    pub on: bool,
    times: BTreeMap<&'static str, Samples>,
    values: BTreeMap<&'static str, f64>,
}

impl Ledger {
    pub fn new(on: bool) -> Ledger {
        Ledger {
            on,
            ..Ledger::default()
        }
    }

    /// Run `f`, recording its duration in microseconds under `name`
    /// when the ledger is on.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let r = f();
        self.add(name, us_since(t));
        r
    }

    pub fn add(&mut self, name: &'static str, v: f64) {
        self.times.entry(name).or_default().push(v);
    }

    pub fn set(&mut self, name: &'static str, v: f64) {
        self.values.insert(name, v);
    }

    pub fn median(&self, name: &str) -> f64 {
        self.times.get(name).map_or(f64::NAN, Samples::median)
    }

    pub fn samples(&self, name: &str) -> usize {
        self.times.get(name).map_or(0, Samples::len)
    }

    /// The reading reported for `name`: a set value, or the median of
    /// its samples (seconds and milliseconds converted from the
    /// microseconds recorded).
    pub fn reading(&self, name: &str, unit: &str) -> Option<f64> {
        if let Some(v) = self.values.get(name) {
            return Some(*v);
        }
        let m = self.times.get(name)?.median();
        Some(match unit {
            "s" => m / 1e6,
            "ms" => m / 1e3,
            _ => m,
        })
    }
}

/// The update steps that block a guarded update: volatile engines clone
/// a checkpoint, durable ones log the sign diff and fsync instead.
fn blocking_steps(durable: bool) -> [&'static str; 6] {
    [
        "core.guard_us",
        "policy.trigger_us",
        "core.apply_us",
        "core.reannotate_us",
        if durable {
            "store.log_txn_us"
        } else {
            "core.checkpoint_us"
        },
        "core.snapshot_us",
    ]
}

/// A scratch directory inside the working directory, removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> ScratchDir {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = PathBuf::from(".xacbench_tmp").join(format!("{}-{tag}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir in the working directory");
        ScratchDir(dir)
    }

    pub fn path(&self) -> &FsPath {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind; fails harmlessly while others remain.
        let _ = std::fs::remove_dir(".xacbench_tmp");
    }
}

/// One guarded update as the benchmark issues it.
#[derive(Debug, Clone)]
pub enum Op {
    Insert { parent: String, child: String },
    Delete { path: String },
}

impl Op {
    pub fn request(&self) -> Request {
        match self {
            Op::Insert { parent, child } => Request::insert(parent.clone(), child.clone(), None),
            Op::Delete { path } => Request::delete(path.clone()),
        }
    }

    fn logged(&self) -> LoggedOp {
        match self {
            Op::Insert { parent, child } => LoggedOp::Insert {
                parent: parent.clone(),
                name: child.clone(),
                text: None,
            },
            Op::Delete { path } => LoggedOp::Delete { path: path.clone() },
        }
    }
}

/// The update path replayed step by step on a side backend of the same
/// kind, in lock-step with the engine, plus a side write-ahead log.
pub struct SideReplay {
    system: Arc<System>,
    backend: Box<dyn Backend + Send>,
    durability: Durability,
    config: DurabilityConfig,
    kind: BackendKind,
    /// Updates logged to the side write-ahead log.
    logged: usize,
    /// Log counters after the fresh boot, before any update.
    wal_base: xac_store::WalStats,
    _dir: ScratchDir,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

impl SideReplay {
    pub fn new(system: Arc<System>, kind: BackendKind) -> Result<SideReplay, String> {
        let mode = system.annotate_mode();
        let mut backend = kind.make(mode);
        system.load(backend.as_mut()).map_err(err)?;
        system.annotate(backend.as_mut()).map_err(err)?;
        let dir = ScratchDir::new("side");
        let config = DurabilityConfig::new(dir.path());
        let signs = backend.sign_state().map_err(err)?;
        let durability = Durability::fresh(
            &config,
            xac_core::FaultPlan::new(),
            backend.name(),
            mode.name(),
            &signs,
            backend.epoch(),
        )
        .map_err(err)?;
        let wal_base = durability.wal_stats();
        Ok(SideReplay {
            system,
            backend,
            durability,
            config,
            kind,
            logged: 0,
            wal_base,
            _dir: dir,
        })
    }

    /// Replay one applied update; returns its sign-write count.
    pub fn update(&mut self, ledger: &mut Ledger, op: &Op) -> Result<usize, String> {
        let b = self.backend.as_mut();
        let (guard, target) = match op {
            Op::Insert { parent, child } => (parent.clone(), format!("{parent}/{child}")),
            Op::Delete { path } => (path.clone(), path.clone()),
        };
        let guard = xac_xpath::parse(&guard).map_err(err)?;
        let target = xac_xpath::parse(&target).map_err(err)?;
        let decision = ledger
            .time("core.guard_us", || requester::request(b, &guard))
            .map_err(err)?;
        if !decision.granted() {
            return Err(format!("side replay: guard denied {op:?}"));
        }
        let system = &self.system;
        let plan = ledger.time("policy.trigger_us", || system.plan_update(&target));
        ledger.add(
            "policy.triggered_rules_per_update",
            plan.triggered.len() as f64,
        );
        ledger
            .time("core.apply_us", || match op {
                Op::Insert { child, .. } => b.insert(&guard, child, None),
                Op::Delete { .. } => b.delete(&target),
            })
            .map_err(err)?;
        let writes = ledger
            .time("core.reannotate_us", || reannotator::apply(b, &plan))
            .map_err(err)?;
        ledger
            .time("core.checkpoint_us", || b.checkpoint())
            .map_err(err)?;
        let durability = &mut self.durability;
        let logged = op.logged();
        ledger
            .time("store.log_txn_us", || {
                let signs = b.sign_state()?;
                durability.log_txn(&logged, &signs, b.epoch())
            })
            .map_err(err)?;
        self.logged += 1;
        let snap = ledger
            .time("core.snapshot_us", || b.snapshot())
            .map_err(err)?;
        ledger.time("vmc.index_build_us", || {
            xac_vmc::DocIndex::build(snap.store().doc())
        });
        Ok(writes)
    }

    pub fn sign_state(&mut self) -> Result<BTreeMap<i64, char>, String> {
        self.backend.sign_state().map_err(err)
    }

    /// Time `full_reannotate` on the side backend and count the SQL
    /// statements it issues.
    pub fn full_reannotate(&mut self, ledger: &mut Ledger, reps: usize) -> Result<(), String> {
        let statements = xac_obs::counter("xac_reldb_statements_total");
        let mut per_run = 0;
        for _ in 0..reps {
            let before = statements.get();
            let t = Instant::now();
            self.system
                .full_reannotate(self.backend.as_mut())
                .map_err(err)?;
            ledger.add("core.full_reannotate_ms", us_since(t));
            per_run = statements.get() - before;
        }
        ledger.set("reldb.update_statements", per_run as f64);
        Ok(())
    }

    /// Write-ahead-log counters per committed update, then reopen the
    /// side log the way a restart does.
    pub fn store_readings(&mut self, ledger: &mut Ledger) -> Result<(), String> {
        let updates = self.logged;
        wal_readings(
            ledger,
            &self.wal_base,
            &self.durability.wal_stats(),
            updates,
        );
        ledger.set(
            "store.pool_hit_ratio",
            self.durability.pager_stats().hit_rate(),
        );
        let mut fresh = self.kind.make(self.system.annotate_mode());
        let t = Instant::now();
        let (_, report) = Durability::recover(
            &self.config,
            xac_core::FaultPlan::new(),
            &self.system,
            fresh.as_mut(),
        )
        .map_err(err)?;
        fresh.snapshot().map_err(err)?;
        ledger.add("store.recover_s", us_since(t));
        ledger.set("store.recover_ops_replayed", report.ops_replayed as f64);
        ledger.set("store.recover_sign_entries", report.sign_entries as f64);
        if report.ops_replayed != updates {
            return Err(format!(
                "side log replayed {} ops, {updates} were committed",
                report.ops_replayed
            ));
        }
        Ok(())
    }
}

/// Breaks reads down on the engine's published snapshot: parse,
/// compile (uncached), select, decide, and the interpreted store
/// evaluation. Keeps its own index of the current epoch for timing the
/// VM selection alone (the snapshot's index is private).
#[derive(Default)]
pub struct ReadTracer {
    epoch: Option<u64>,
    index: Option<xac_vmc::DocIndex>,
}

impl ReadTracer {
    /// Returns the decision's answer-node count.
    pub fn trace(
        &mut self,
        ledger: &mut Ledger,
        engine: &ServeEngine,
        query: &str,
    ) -> Result<u64, String> {
        let snap = engine.snapshot();
        if self.epoch != Some(snap.epoch()) {
            self.index = Some(xac_vmc::DocIndex::build(snap.store().doc()));
            self.epoch = Some(snap.epoch());
        }
        let index = self.index.as_ref().expect("index built for this epoch");
        let path = ledger
            .time("xpath.parse_us", || xac_xpath::parse(query))
            .map_err(err)?;
        let compiled = engine.system().annotate_mode() == AnnotateMode::Compiled;
        ledger
            .time("vmc.compile_us", || xac_vmc::compile_path(&path))
            .map_err(|e| format!("{e:?}"))?;
        let program = xac_vmc::cached_path_program(&path).map_err(|e| format!("{e:?}"))?;
        // Each call runs twice and the second run is kept, so that none
        // of the three pays for a cold cache.
        let (mut select_us, mut probe_us, mut decide_us) = (0.0, 0.0, 0.0);
        let mut selected = Vec::new();
        let mut allowed = false;
        let mut decision = None;
        for _ in 0..2 {
            let t = Instant::now();
            selected = xac_vmc::execute_select(&program, index);
            select_us = us_since(t);
            // The accessible-set probe, as the decide path runs it.
            let accessible = snap.accessible();
            let t = Instant::now();
            allowed = selected.iter().all(|n| accessible.contains(n));
            probe_us = us_since(t);
            let t = Instant::now();
            decision = Some(if compiled {
                snap.query_compiled(&path)
            } else {
                snap.query(&path)
            });
            decide_us = us_since(t);
        }
        let decision = decision.expect("decided twice");
        let evaluated = ledger.time("xmlstore.eval_us", || snap.store().eval(&path));
        if selected.len() != decision.node_count()
            || evaluated.len() != decision.node_count()
            || allowed != decision.granted()
        {
            return Err(format!(
                "read breakdown of `{query}` disagrees with the decision"
            ));
        }
        ledger.add("vmc.select_us", select_us);
        ledger.add("core.probe_us", probe_us);
        ledger.add("core.decide_us", decide_us);
        if decision.node_count() > 0 {
            ledger.add(
                "core.ns_per_answer_node",
                decide_us * 1e3 / decision.node_count() as f64,
            );
        }
        Ok(decision.node_count() as u64)
    }
}

/// Round trips over a loopback session against `engine`, against the
/// same requests served in process; returns the number of mismatches.
pub fn net_probe(
    ledger: &mut Ledger,
    engine: &Arc<ServeEngine>,
    queries: &[String],
    n: usize,
) -> Result<usize, String> {
    let server = xac_net::NetServer::start(Arc::clone(engine), xac_net::ServerConfig::default())
        .map_err(err)?;
    let result = (|| {
        let mut client =
            xac_net::NetClient::connect(server.local_addr(), Role::Reader).map_err(err)?;
        let mut mismatches = 0;
        let mut rtt = Samples::default();
        let mut local = Samples::default();
        for i in 0..n {
            let req = Request::query(queries[i % queries.len()].clone());
            let t = Instant::now();
            let wire = client.request(&req).map_err(err)?;
            rtt.push(us_since(t));
            let t = Instant::now();
            let here = engine.serve(&req);
            local.push(us_since(t));
            mismatches += usize::from(wire != here);
        }
        client.close();
        ledger.add_all("net.rtt_us", &rtt);
        ledger.set("net.overhead_us", rtt.median() - local.median());
        Ok(mismatches)
    })();
    server.shutdown();
    result
}

impl Ledger {
    pub fn add_all(&mut self, name: &'static str, s: &Samples) {
        for i in 0..s.len() {
            self.add(name, s.get(i));
        }
    }
}

/// Encode and decode a request and a response frame through a memory
/// buffer.
pub fn codec_probe(ledger: &mut Ledger, queries: &[String], n: usize) -> Result<(), String> {
    use xac_net::wire::{read_frame, write_frame, Frame};
    for i in 0..n {
        let req = Frame::Request(Request::query(queries[i % queries.len()].clone()), None);
        let resp = Frame::Response(Response::Decision {
            granted: true,
            nodes: i as u64,
            epoch: 7,
        });
        let t = Instant::now();
        let mut buf = Vec::with_capacity(256);
        write_frame(&mut buf, &req).map_err(err)?;
        write_frame(&mut buf, &resp).map_err(err)?;
        let mut r = buf.as_slice();
        let a = read_frame(&mut r).map_err(err)?;
        let b = read_frame(&mut r).map_err(err)?;
        ledger.add("net.codec_us", us_since(t));
        if a != req || b != resp {
            return Err("codec round trip changed a frame".into());
        }
    }
    Ok(())
}

/// Set-up broken into its public calls, on a side construction.
pub fn setup_breakdown(
    ledger: &mut Ledger,
    factor: f64,
    seed: u64,
    mode: AnnotateMode,
    kind: BackendKind,
) -> Result<(), String> {
    let t = Instant::now();
    let (doc, policy) = crate::inputs::document_and_policy(factor, seed);
    ledger.add("xmlgen.generate_s", us_since(t));
    let t = Instant::now();
    let system = System::builder(xac_xmlgen::xmark_schema(), policy, doc)
        .annotate_mode(mode)
        .build()
        .map_err(err)?;
    ledger.add("core.build_s", us_since(t));
    let mut b = kind.make(mode);
    let t = Instant::now();
    system.load(b.as_mut()).map_err(err)?;
    ledger.add("core.load_s", us_since(t));
    let t = Instant::now();
    system.annotate(b.as_mut()).map_err(err)?;
    ledger.add("core.annotate_s", us_since(t));
    Ok(())
}

/// Set `serve.residual_us`: the median serve time of a guarded update
/// (as `source` names it) minus the medians of the steps that block it.
/// Returns the breakdown as a printable line; the steps plus the residual
/// equal `serve.update_us` by construction.
pub fn settle_residual(ledger: &mut Ledger, durable: bool, source: &str) -> String {
    let steps: Vec<(&'static str, f64)> = blocking_steps(durable)
        .into_iter()
        .map(|s| (s, ledger.median(s)))
        .collect();
    let total = ledger.median("serve.update_us");
    let residual = total - steps.iter().map(|(_, v)| v).sum::<f64>();
    ledger.set("serve.residual_us", residual);
    format!(
        "update breakdown (medians, us; serve.update from {source}): serve.update {total:.1} = {} + residual {residual:.1}",
        steps
            .iter()
            .map(|(n, v)| format!("{n} {v:.1}"))
            .collect::<Vec<_>>()
            .join(" + ")
    )
}

/// Log bytes and fsyncs per committed update, net of the fresh boot.
pub fn wal_readings(
    ledger: &mut Ledger,
    base: &xac_store::WalStats,
    now: &xac_store::WalStats,
    updates: usize,
) {
    let per = updates.max(1) as f64;
    ledger.set(
        "store.wal_bytes_per_update",
        (now.bytes_appended - base.bytes_appended) as f64 / per,
    );
    ledger.set(
        "store.fsyncs_per_update",
        (now.fsyncs - base.fsyncs) as f64 / per,
    );
}
