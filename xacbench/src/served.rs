//! The two workloads, `update_cycle` and `wire_durable`, both served by a
//! `ServeEngine`. They share one closed loop with one client; they
//! differ in backend, size, durability, transport, read pool and
//! read/update ratio.

use crate::inputs::{self, Expected, Target};
use crate::ledger::{self, us_since, Ledger, Op, ReadTracer, ScratchDir, SideReplay};
use crate::stats::{median_of, Samples};
use crate::{Args, Report};
use std::sync::Arc;
use std::time::Instant;
use xac_core::{AnnotateMode, System};
use xac_net::{NetClient, NetServer, ServerConfig};
use xac_serve::{
    BackendKind, DurabilityConfig, RecoveryReport, Request, Response, Role, ServeEngine,
};
use xac_vmc::VmCacheStats;
use xac_xmlgen::SplitMix64;

/// How a served workload is built and driven.
pub struct Spec {
    pub factor: f64,
    pub kind: BackendKind,
    pub durable: bool,
    pub wire: bool,
    /// Query shapes from the paper's response-time workload.
    pub broad: usize,
    /// Distinct selective value-predicate queries. They outnumber the
    /// broad shapes three to one, so that the read median falls inside
    /// the selective queries' latency distribution rather than in the
    /// gap between the two (broad shapes answer in ~30 µs at f=1, the
    /// selective ones, which scan the document, in ~270 µs).
    pub selective: usize,
    /// Reads after each update in the timed loop.
    pub reads_per_update: usize,
}

/// Insert/delete targets the dry run looks for.
const TARGETS: usize = 8;

/// Independent deployments per run. Each is built from the same seed,
/// so the inputs repeat, but its hash tables and heap are laid out
/// anew; a single deployment's speed varies by up to 30% with that
/// layout (a full re-annotation's by up to 25% where the updates' moved
/// 4%), and pooling several averages it out. Each construction is a
/// `setup_s` sample; the timed loop is split evenly among them.
const ROUNDS: usize = 10;
/// Further constructions at the end of each round, timed as `setup_s`
/// samples and dropped at once, so that set-up is sampled at more
/// moments of the run than the rounds alone give.
const EXTRA_SETUPS: usize = 1;
/// Untimed full re-annotations after each construction: the first calls
/// map fresh memory and run up to twice as long.
const ANNOTATE_SETTLE: usize = 8;
/// `annotate_ms` is sampled inside the timed loop, after every
/// `ANNOTATE_EVERY`-th insert/delete pair, so that its samples meet the
/// machine's fast and slow phases as often as the updates do: a full
/// re-annotation's time moves by up to 2x with them from one second to
/// the next, and samples taken at a few moments spread by up to 38%
/// between runs.
const ANNOTATE_EVERY: usize = 2;
/// Per sample: one untimed call (the first after serving runs on cold
/// caches), then a timed one.
const ANNOTATE_WARMUP: usize = 1;
const ANNOTATE_REPS: usize = 1;
/// Round trips in the traced run's loopback probe.
const NET_PROBE: usize = 400;
const LOOP_STREAM: u64 = 0x100B;

enum Client {
    InProc(Arc<ServeEngine>),
    Wire(NetClient),
}

impl Client {
    fn call(&mut self, req: &Request) -> Result<Response, String> {
        match self {
            Client::InProc(e) => Ok(e.serve(req)),
            Client::Wire(c) => c.request(req).map_err(|e| format!("wire: {e}")),
        }
    }
}

/// One constructed deployment.
struct Deployment {
    system: Arc<System>,
    engine: Arc<ServeEngine>,
    server: Option<NetServer>,
    client: Client,
    dir: Option<ScratchDir>,
    config: Option<DurabilityConfig>,
}

impl Deployment {
    fn build(spec: &Spec, factor: f64, seed: u64) -> Result<Deployment, String> {
        let (doc, policy) = inputs::document_and_policy(factor, seed);
        let system = Arc::new(
            System::builder(xac_xmlgen::xmark_schema(), policy, doc)
                .annotate_mode(AnnotateMode::Compiled)
                .build()
                .map_err(|e| e.to_string())?,
        );
        let (dir, config) = if spec.durable {
            let dir = ScratchDir::new("data");
            // The shipped default: fsync on every commit.
            let config = DurabilityConfig::new(dir.path());
            (Some(dir), Some(config))
        } else {
            (None, None)
        };
        let engine = match &config {
            Some(c) => ServeEngine::durable(Arc::clone(&system), spec.kind, c),
            None => ServeEngine::for_kind(Arc::clone(&system), spec.kind),
        }
        .map_err(|e| e.to_string())?;
        let engine = Arc::new(engine);
        let (server, client) = if spec.wire {
            let server = NetServer::start(Arc::clone(&engine), ServerConfig::default())
                .map_err(|e| e.to_string())?;
            let client =
                NetClient::connect(server.local_addr(), Role::Writer).map_err(|e| e.to_string())?;
            (Some(server), Client::Wire(client))
        } else {
            (None, Client::InProc(Arc::clone(&engine)))
        };
        Ok(Deployment {
            system,
            engine,
            server,
            client,
            dir,
            config,
        })
    }

    fn close(self) -> (Arc<System>, Option<ScratchDir>, Option<DurabilityConfig>) {
        if let Client::Wire(c) = self.client {
            c.close();
        }
        if let Some(s) = self.server {
            s.shutdown();
        }
        (self.system, self.dir, self.config)
    }
}

/// Answers and counters gathered by the loop.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    pub reads: Samples,
    pub fresh: Samples,
    pub updates: Samples,
    pub busy_us: f64,
    pub ops: u64,
    pub sign_writes: u64,
    pub answer_nodes: u64,
    pub epochs: u64,
}

impl Tally {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(why);
        }
    }
}

/// The seeded request stream and the state the document is in.
struct Driver {
    queries: Vec<String>,
    /// `expected[s][q]`: state 0 is the base document, state `t + 1`
    /// has target `t`'s children inserted.
    expected: Vec<Vec<Expected>>,
    targets: Vec<Target>,
    base_accessible: usize,
    rng: SplitMix64,
    /// Position in the insert/delete cycle over the targets.
    step: usize,
}

impl Driver {
    fn state(&self) -> usize {
        if self.step % 2 == 1 {
            (self.step / 2) % self.targets.len() + 1
        } else {
            0
        }
    }

    fn next_op(&self) -> Op {
        self.op_at(self.step)
    }

    fn op_at(&self, step: usize) -> Op {
        let t = &self.targets[(step / 2) % self.targets.len()];
        if step.is_multiple_of(2) {
            Op::Insert {
                parent: t.parent.clone(),
                child: t.child.clone(),
            }
        } else {
            Op::Delete {
                path: t.delete_path(),
            }
        }
    }

    fn next_query(&mut self) -> usize {
        self.rng.gen_range(0..self.queries.len())
    }
}

struct Traced<'a> {
    ledger: &'a mut Ledger,
    side: &'a mut SideReplay,
    reader: &'a mut ReadTracer,
}

/// Issue one read: pool query `qi`, or the stream's next one.
fn read(
    dep: &mut Deployment,
    drv: &mut Driver,
    tally: &mut Tally,
    qi: Option<usize>,
    fresh: bool,
    traced: &mut Option<Traced<'_>>,
) {
    let qi = qi.unwrap_or_else(|| drv.next_query());
    let req = Request::query(drv.queries[qi].clone());
    let want = drv.expected[drv.state()][qi];
    tally.attempted += 1;
    let t = Instant::now();
    let got = dep.client.call(&req);
    let lat = us_since(t);
    tally.busy_us += lat;
    tally.ops += 1;
    if fresh {
        tally.fresh.push(lat);
    } else {
        tally.reads.push(lat);
    }
    match got {
        Ok(Response::Decision {
            granted,
            nodes,
            epoch,
        }) if granted == want.granted && nodes == want.nodes && epoch == dep.engine.epoch() => {
            tally.answer_nodes += nodes;
            if let (Some(tr), false) = (traced.as_mut(), fresh) {
                let here = tr.ledger.time("serve.read_us", || dep.engine.serve(&req));
                if here
                    != (Response::Decision {
                        granted,
                        nodes,
                        epoch,
                    })
                {
                    tally.fail(format!(
                        "the client's answer differs from the in-process one on `{}`",
                        drv.queries[qi]
                    ));
                }
                if let Err(e) = tr.reader.trace(tr.ledger, &dep.engine, &drv.queries[qi]) {
                    tally.fail(e);
                }
            }
        }
        other => tally.fail(format!(
            "read `{}`: got {other:?}, want {want:?}",
            drv.queries[qi]
        )),
    }
}

fn update(
    dep: &mut Deployment,
    drv: &mut Driver,
    tally: &mut Tally,
    traced: &mut Option<Traced<'_>>,
) {
    let op = drv.next_op();
    let target = &drv.targets[(drv.step / 2) % drv.targets.len()];
    let want = target.count as u64;
    tally.attempted += 1;
    // Over the wire the client's latency also holds the codec and the
    // loopback; the engine's own update histogram times the guarded
    // transaction alone.
    let engine_us0 = match (&dep.client, traced.is_some()) {
        (Client::Wire(_), true) => Some(dep.engine.metrics().update_latency.total_us),
        _ => None,
    };
    let t = Instant::now();
    let got = dep.client.call(&op.request());
    let lat = us_since(t);
    tally.busy_us += lat;
    tally.ops += 1;
    tally.updates.push(lat);
    let ok = match (&op, &got) {
        (
            Op::Insert { .. },
            Ok(Response::Update {
                applied: true,
                inserted,
                sign_writes,
                epoch,
                ..
            }),
        ) if *inserted == want && *epoch == dep.engine.epoch() => Some(*sign_writes),
        (
            Op::Delete { .. },
            Ok(Response::Update {
                applied: true,
                removed,
                sign_writes,
                epoch,
                ..
            }),
        ) if *removed == want
            && *epoch == dep.engine.epoch()
            && dep.engine.accessible_count() == drv.base_accessible =>
        {
            Some(*sign_writes)
        }
        _ => None,
    };
    match ok {
        Some(writes) => {
            tally.sign_writes += writes;
            tally.epochs += 1;
            if let Some(tr) = traced.as_mut() {
                let served_us = match engine_us0 {
                    Some(us0) => (dep.engine.metrics().update_latency.total_us - us0) as f64,
                    None => lat,
                };
                tr.ledger.add("serve.update_us", served_us);
                match tr.side.update(tr.ledger, &op) {
                    Ok(w) if w as u64 == writes => {}
                    Ok(w) => tally.fail(format!("side replay wrote {w} signs, engine {writes}")),
                    Err(e) => tally.fail(e),
                }
                tr.ledger.add("serve.sign_writes_per_update", writes as f64);
            }
        }
        None => tally.fail(format!("update {op:?}: got {got:?}, want {want} elements")),
    }
    drv.step += 1;
}

/// Add the program-cache traffic since `since` to `traffic`.
fn add_traffic(traffic: &mut VmCacheStats, since: &VmCacheStats) {
    let now = xac_vmc::cache_stats();
    traffic.hits += now.hits - since.hits;
    traffic.misses += now.misses - since.misses;
}

/// Run cycles of one update and `reads_per_update` reads until `seconds`
/// of wall time pass, with full re-annotations after every
/// `ANNOTATE_EVERY`-th insert/delete pair. Returns the requests completed
/// per second of wall time outside the re-annotations, and the
/// program-cache traffic of the requests (the re-annotations' own lookups
/// left out).
fn run_loop(
    dep: &mut Deployment,
    drv: &mut Driver,
    tally: &mut Tally,
    annotate: &mut Vec<f64>,
    reads_per_update: usize,
    seconds: f64,
    traced: &mut Option<Traced<'_>>,
) -> Result<(f64, VmCacheStats), String> {
    let start = Instant::now();
    let ops_before = tally.ops;
    let mut aside = 0.0;
    let mut traffic = VmCacheStats::default();
    let mut cache0 = xac_vmc::cache_stats();
    while start.elapsed().as_secs_f64() < seconds || drv.step % 2 == 1 {
        update(dep, drv, tally, traced);
        for r in 0..reads_per_update {
            read(dep, drv, tally, None, r == 0, traced);
        }
        if drv.step.is_multiple_of(2 * ANNOTATE_EVERY) {
            add_traffic(&mut traffic, &cache0);
            let t = Instant::now();
            full_reannotations(dep, tally, ANNOTATE_WARMUP, ANNOTATE_REPS, annotate)?;
            aside += t.elapsed().as_secs_f64();
            cache0 = xac_vmc::cache_stats();
        }
    }
    add_traffic(&mut traffic, &cache0);
    let rate = (tally.ops - ops_before) as f64 / (start.elapsed().as_secs_f64() - aside);
    Ok((rate, traffic))
}

/// Reference answers and the request stream, computed from round 0's
/// deployment outside any timing.
fn prepare(
    spec: &Spec,
    dep: &Deployment,
    args: &Args,
    report: &mut Report,
) -> Result<(Driver, usize), String> {
    let prep = Instant::now();
    let doc = &dep.system.prepared().doc;
    let accessible = dep.system.reference_accessible();
    let values = inputs::value_index(doc);
    let mut queries: Vec<String> = inputs::broad_queries(spec.broad, args.seed)
        .iter()
        .map(|p| p.to_string())
        .collect();
    let selective = inputs::selective_queries(&values, spec.selective, 3, args.seed);
    let audit_failures = inputs::audit_value_index(doc, &values, &selective, 16);
    queries.extend(selective);
    let base = inputs::base_answers(doc, &queries, &values);
    let picked = inputs::pick_targets(
        doc,
        dep.system.policy(),
        &accessible,
        &queries,
        &base,
        TARGETS,
        args.seed,
    );
    if picked.is_empty() {
        return Err("no insert/delete target passes the dry run".into());
    }
    let mut expected = vec![inputs::expected_answers(
        doc,
        &accessible,
        &queries,
        &base,
        None,
    )];
    let mut targets = Vec::new();
    for (t, e) in picked {
        expected.push(e);
        targets.push(t);
    }
    report.line(format!(
        "inputs: {:.2} s to prepare, {} pooled reads ({} distinct), targets {}",
        prep.elapsed().as_secs_f64(),
        queries.len(),
        base.len(),
        targets
            .iter()
            .map(|t| t.delete_path())
            .collect::<Vec<_>>()
            .join(" ")
    ));
    if args.wrong_answer {
        // Smoke-test hook: corrupt one expected answer; the read that
        // meets it must count as failed.
        for state in &mut expected {
            state[0].nodes += 1;
        }
    }
    let drv = Driver {
        queries,
        expected,
        targets,
        base_accessible: accessible.len(),
        rng: inputs::rng(args.seed, LOOP_STREAM),
        step: 0,
    };
    Ok((drv, audit_failures))
}

/// Run `warmup + reps` full re-annotations of the live store, as a policy
/// reload pays them, and time the last `reps`.
fn full_reannotations(
    dep: &Deployment,
    tally: &mut Tally,
    warmup: usize,
    reps: usize,
    annotate: &mut Vec<f64>,
) -> Result<(), String> {
    for rep in 0..warmup + reps {
        let system = Arc::clone(&dep.system);
        let t = Instant::now();
        let r = dep
            .engine
            .with_writer(|b| system.full_reannotate(b))
            .map_err(|e| e.to_string())?;
        if rep >= warmup {
            annotate.push(t.elapsed().as_secs_f64() * 1e3);
        }
        tally.attempted += 1;
        if let Err(e) = r {
            tally.fail(format!("full re-annotation failed: {e}"));
        }
    }
    // Leave the writer's caches as an update leaves them (`snapshot` is its
    // last step), so that the next guarded update does not pay for the
    // re-annotation's invalidation.
    dep.engine
        .with_writer(|b| b.snapshot().map(drop))
        .map_err(|e| e.to_string())?
        .map_err(|e| e.to_string())
}

/// Warm up a fresh deployment: `pairs` insert/delete pairs, then reads
/// that fill the program cache and build the first index. With `census`,
/// report the phase's counts, which repeat exactly for a given seed.
fn warm_up(
    dep: &mut Deployment,
    drv: &mut Driver,
    tally: &mut Tally,
    pairs: usize,
    census: Option<&mut Report>,
) -> Result<(), String> {
    drv.step = 0;
    let store0 = dep.engine.storage_stats().map(|s| s.0);
    let cache0 = xac_vmc::cache_stats();
    let mut warm = Tally::default();
    let mut triggered = 0;
    for step in 0..2 * pairs {
        let target = match drv.op_at(step) {
            Op::Insert { parent, child } => format!("{parent}/{child}"),
            Op::Delete { path } => path,
        };
        let target = xac_xpath::parse(&target).map_err(|e| e.to_string())?;
        triggered += dep.system.plan_update(&target).triggered.len() as u64;
        update(dep, drv, &mut warm, &mut None);
    }
    // The census reads a pool the program cache can hold whole, a larger
    // one in part; later rounds find the (process-wide) cache warm and
    // only need a few reads to build the new engine's first index.
    let warm_reads = match (&census, drv.queries.len()) {
        (None, _) => 16,
        (Some(_), n) if n <= 4096 => n,
        (Some(_), _) => 1024,
    };
    for qi in 0..warm_reads {
        read(dep, drv, &mut warm, Some(qi), false, &mut None);
    }
    if let Some(report) = census {
        let cache1 = xac_vmc::cache_stats();
        report.count("census.updates", warm.updates.len() as u64);
        report.count("census.triggered_rules", triggered);
        report.count("census.sign_writes", warm.sign_writes);
        report.count("census.epochs_published", warm.epochs);
        report.count("census.reads", warm.reads.len() as u64);
        report.count("census.answer_nodes", warm.answer_nodes);
        report.count("census.program_cache_hits", cache1.hits - cache0.hits);
        report.count("census.program_cache_misses", cache1.misses - cache0.misses);
        report.count("census.full_fallbacks", dep.engine.metrics().full_fallbacks);
        if let (Some(a), Some((b, _))) = (store0, dep.engine.storage_stats()) {
            report.count("census.wal_bytes", b.bytes_appended - a.bytes_appended);
            report.count("census.fsyncs", b.fsyncs - a.fsyncs);
        }
    }
    tally.attempted += warm.attempted;
    tally.failed += warm.failed;
    if tally.first_failure.is_none() {
        tally.first_failure = warm.first_failure;
    }
    Ok(())
}

/// Close a durable deployment and reopen its data directory the way a
/// restart does; check the recovery report against what was committed.
/// Returns the reopen time and the report.
fn reopen(
    spec: &Spec,
    dep: Deployment,
    tally: &mut Tally,
    base_accessible: usize,
) -> Result<(f64, Option<RecoveryReport>), String> {
    let applied = dep.engine.metrics().updates_applied;
    let committed = dep
        .engine
        .with_durability(|d| (d.committed_signs().len(), d.last_epoch()))
        .expect("durable engine");
    let (system, dir, config) = dep.close();
    let config = config.expect("durable deployment has a config");
    let t = Instant::now();
    let reopened = ServeEngine::durable(system, spec.kind, &config).map_err(|e| e.to_string())?;
    let recover_s = t.elapsed().as_secs_f64();
    let report = reopened.recovery().cloned();
    tally.attempted += 1;
    match &report {
        Some(r)
            if r.ops_replayed as u64 == applied
                && r.sign_entries == committed.0
                && r.last_epoch == committed.1
                && reopened.accessible_count() == base_accessible => {}
        other => tally.fail(format!(
            "recovery {other:?} does not match {applied} committed updates, {} signs, epoch {}",
            committed.0, committed.1
        )),
    }
    drop(reopened);
    drop(dir);
    Ok((recover_s, report))
}

pub fn run(spec: &Spec, args: &Args) -> Result<Report, String> {
    let factor = args.factor.unwrap_or(spec.factor);
    let seed = args.seed;
    let mut report = Report::default();

    let t = Instant::now();
    let dep = Deployment::build(spec, factor, seed)?;
    let mut setups = vec![t.elapsed().as_secs_f64()];
    let elements = dep.system.prepared().doc.element_count();
    let (mut drv, audit_failures) = prepare(spec, &dep, args, &mut report)?;
    crate::reset_rss_peak(&mut report);
    let mut tally = Tally::default();
    tally.attempted += 1;
    if audit_failures > 0 {
        tally.fail(format!(
            "{audit_failures} value-index queries disagree with xac_xpath::eval"
        ));
    }

    let mut ledger = Ledger::new(args.trace);
    let mut reader = ReadTracer::default();
    let mut annotate = Vec::new();
    let mut recover = Vec::new();
    let mut busy = (0u64, 0.0f64);
    let mut rates = (0.0, 0.0);
    let mut cache = VmCacheStats::default();
    let round_seconds = args.seconds as f64 / ROUNDS as f64;
    let mut first = Some(dep);
    for round in 0..ROUNDS {
        let last_round = round + 1 == ROUNDS;
        let mut dep = match first.take() {
            Some(dep) => dep,
            None => {
                let t = Instant::now();
                let dep = Deployment::build(spec, factor, seed)?;
                setups.push(t.elapsed().as_secs_f64());
                dep
            }
        };
        tally.attempted += 1;
        if dep.engine.accessible_count() != drv.base_accessible {
            tally.fail(format!(
                "engine grants {} elements, the reference {}",
                dep.engine.accessible_count(),
                drv.base_accessible
            ));
        }
        full_reannotations(&dep, &mut tally, ANNOTATE_SETTLE, 0, &mut annotate)?;
        // Round 0 warms up with one pair per target and is the census.
        let pairs = if round == 0 { drv.targets.len() } else { 1 };
        warm_up(
            &mut dep,
            &mut drv,
            &mut tally,
            pairs,
            (round == 0).then_some(&mut report),
        )?;

        // Traced rounds replay every update on a fresh side backend, which
        // first sees this round's warm-up pairs.
        let mut side = if args.trace {
            let mut side = SideReplay::new(Arc::clone(&dep.system), spec.kind)?;
            let mut scratch = Ledger::new(false);
            for step in 0..2 * pairs {
                side.update(&mut scratch, &drv.op_at(step))?;
            }
            Some(side)
        } else {
            None
        };

        let wal_base = dep.engine.storage_stats().map(|s| s.0);
        let updates_before = dep.engine.metrics().updates_applied;
        let (ops0, busy0) = (tally.ops, tally.busy_us);
        let rpu = spec.reads_per_update;
        // A traced round runs its first half untraced and its second half
        // traced: the difference in closed-loop throughput is the ledger's
        // own overhead.
        let untraced_s = if args.trace {
            round_seconds / 2.0
        } else {
            round_seconds
        };
        let (rate, traffic) = run_loop(
            &mut dep,
            &mut drv,
            &mut tally,
            &mut annotate,
            rpu,
            untraced_s,
            &mut None,
        )?;
        rates.0 += rate;
        // Program-cache traffic of the untraced loop only: the ledger's own
        // lookups in the traced half would all hit.
        cache.hits += traffic.hits;
        cache.misses += traffic.misses;
        if let Some(side) = side.as_mut() {
            let mut tr = Some(Traced {
                ledger: &mut ledger,
                side,
                reader: &mut reader,
            });
            let half = round_seconds - untraced_s;
            let (rate, _) = run_loop(
                &mut dep,
                &mut drv,
                &mut tally,
                &mut annotate,
                rpu,
                half,
                &mut tr,
            )?;
            rates.1 += rate;
        }
        busy.0 += tally.ops - ops0;
        busy.1 += tally.busy_us - busy0;

        if let Some(side) = side.as_mut() {
            tally.attempted += 1;
            let engine_signs = dep
                .engine
                .with_writer(|b| b.sign_state())
                .map_err(|e| e.to_string())?;
            match (side.sign_state(), engine_signs) {
                (Ok(a), Ok(b)) if a == b => {}
                _ => tally.fail("side replay's sign state differs from the engine's".into()),
            }
            if last_round {
                side.full_reannotate(&mut ledger, 3)?;
                ledger::codec_probe(&mut ledger, &drv.queries, 2000)?;
                let mismatches =
                    ledger::net_probe(&mut ledger, &dep.engine, &drv.queries, NET_PROBE)?;
                tally.attempted += 1;
                if mismatches > 0 {
                    tally.fail(format!(
                        "{mismatches} loopback answers differ from in-process ones"
                    ));
                }
                ledger::setup_breakdown(
                    &mut ledger,
                    factor,
                    seed,
                    AnnotateMode::Compiled,
                    spec.kind,
                )?;
                ledger.set(
                    "serve.full_fallbacks",
                    dep.engine.metrics().full_fallbacks as f64,
                );
                match (wal_base, dep.engine.storage_stats()) {
                    // A durable engine's own log; volatile ones use the side log.
                    (Some(base), Some((wal, pool))) => {
                        let updates = dep.engine.metrics().updates_applied - updates_before;
                        ledger::wal_readings(&mut ledger, &base, &wal, updates as usize);
                        ledger.set("store.pool_hit_ratio", pool.hit_rate());
                    }
                    _ => side.store_readings(&mut ledger)?,
                }
            }
        }

        if spec.durable {
            let (recover_s, r) = reopen(spec, dep, &mut tally, drv.base_accessible)?;
            recover.push(recover_s);
            if let (true, Some(r)) = (args.trace && last_round, r) {
                ledger.add("store.recover_s", recover_s * 1e6);
                ledger.set("store.recover_ops_replayed", r.ops_replayed as f64);
                ledger.set("store.recover_sign_entries", r.sign_entries as f64);
            }
        } else {
            drop(dep.close());
        }
        for _ in 0..EXTRA_SETUPS {
            let t = Instant::now();
            let extra = Deployment::build(spec, factor, seed)?;
            setups.push(t.elapsed().as_secs_f64());
            tally.attempted += 1;
            if extra.engine.accessible_count() != drv.base_accessible {
                tally.fail("a set-up sample's engine grants a different element count".into());
            }
            drop(extra.close());
        }
    }

    report.e2e("setup_s", median_of(&setups), "s");
    if !recover.is_empty() {
        report.line(format!(
            "recover_s {:.6} s (median of {} reopens)",
            median_of(&recover),
            recover.len()
        ));
    }
    if args.trace {
        ledger.set("obs.trace_overhead_pct", (rates.0 / rates.1 - 1.0) * 100.0);
        ledger.set("vmc.cache_hit_ratio", cache.hit_rate());
        let source = if spec.wire {
            "engine-side, ServeEngine::metrics().update_latency"
        } else {
            "ServeEngine::serve in process"
        };
        report.line(ledger::settle_residual(&mut ledger, spec.durable, source));
    }
    report.e2e("ops_s", busy.0 as f64 / (busy.1 / 1e6), "1/s");
    report.e2e("read_p50_us", tally.reads.median(), "us");
    report.e2e("fresh_read_p50_us", tally.fresh.median(), "us");
    report.e2e("update_p50_us", tally.updates.median(), "us");
    report.e2e("annotate_ms", median_of(&annotate), "ms");
    report.samples("reads", tally.reads.len());
    report.samples("fresh_reads", tally.fresh.len());
    report.samples("updates", tally.updates.len());
    report.samples("annotations", annotate.len());
    report.tails(&tally);
    report.line(format!(
        "loop program-cache hits {} misses {}",
        cache.hits, cache.misses
    ));
    report.meta("factor", factor.to_string());
    report.meta("elements", elements.to_string());
    report.finish(tally, ledger);
    Ok(report)
}
