//! The concurrent serving engine.
//!
//! One [`ServeEngine`] fronts one [`System`] and one annotated
//! [`Backend`] and serves any number of requester threads at once:
//!
//! * **Reads** (`query`, `accessible_count`) never touch the backend.
//!   They clone the currently published [`AccessSnapshot`] (an `Arc`
//!   swap under a momentarily-held lock) and evaluate against that
//!   immutable state — a re-annotation in progress never blocks or
//!   tears a read.
//! * **Writes** (guarded delete/insert, the §8 access-controlled
//!   updates) are parsed into an [`Update`] at the request boundary and
//!   serialize behind the writer lock, where the engine runs the one
//!   guarded-update body, [`System::guarded`]: select the targets once,
//!   guard on the selection, apply to it, re-annotate partially. An
//!   applied update then *publishes* a fresh snapshot with the backend's
//!   new epoch; a denied update publishes nothing, so readers cannot
//!   observe intermediate sign states — each epoch is all-or-nothing
//!   with respect to each re-annotation.
//! * **Transactions & degradation** (see DESIGN.md §4d): the guarded
//!   critical section runs under `catch_unwind` with a *last-good
//!   checkpoint* always equal to the published snapshot — on volatile
//!   and durable engines alike. Failures walk an escalating ladder —
//!   partial re-annotation → full re-annotation (inside
//!   [`System::guarded_observed`], whose observer counts
//!   `full_fallbacks` before the fallback runs) →
//!   restore the last-good checkpoint (`rollbacks`) → read-only
//!   **quarantine** (`quarantines`): the engine keeps serving the last
//!   published snapshot and rejects writes with [`Error::Quarantined`].
//!   Lock poisoning is recovered, never `expect`ed: a poisoned writer
//!   lock restores from the checkpoint, a poisoned snapshot lock is
//!   taken over as-is (the protected value is a complete `Arc` at every
//!   instant).
//! * **Durability** (DESIGN.md §4i): a durable engine stages the same
//!   checkpoint and snapshot, then commits to the WAL as the last
//!   faultable step, so a failure anywhere before the commit record
//!   leaves log, writer and published snapshot on the previous
//!   committed state and the checkpoint restore is the whole rollback.
//!   A commit is one operation record and one fsync; nothing is written
//!   after the publish. The log is replayed only by
//!   [`Durability::recover`] at reopen.

use crate::durable::{
    split_storage_plan, Durability, DurabilityConfig, LoggedOp, RecoveryReport, SignDiff,
};
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::request::{ErrorKind, Request, Response, Role};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, LockResult, Mutex, MutexGuard, RwLock};
use std::time::Instant;
use xac_core::{
    injected_panic_point, AccessSnapshot, AnnotateMode, Backend, Checkpoint, Decision, Error,
    FaultPlan, FaultingBackend, GuardedUpdate, NativeXmlBackend, RelationalBackend, Result,
    System, Update, UpdateOutcome,
};
use xac_xpath::Path;

/// Recover a possibly-poisoned lock whose protected state is consistent
/// at every observable instant (plain value swaps — no multi-step
/// mutation happens under these locks).
fn unpoison<T>(result: LockResult<T>) -> T {
    result.unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The storage kinds an engine can front, mirroring the paper's three
/// systems. Parsed from CLI spellings; constructs configured backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Native XML store (the MonetDB/XQuery stand-in).
    Native,
    /// Relational row store (the PostgreSQL stand-in).
    Row,
    /// Relational column store (the MonetDB/SQL stand-in).
    Column,
}

impl BackendKind {
    /// All kinds, in the paper's presentation order.
    pub const ALL: [BackendKind; 3] = [BackendKind::Native, BackendKind::Column, BackendKind::Row];

    /// The accepted spellings, in [`BackendKind::parse`] order.
    pub const VALID_NAMES: [&'static str; 3] = ["native", "row", "column"];

    /// Parse a CLI spelling (`native`, `row`, `column`). Unknown names
    /// get the shared [`Error::UnknownName`](xac_core::Error::UnknownName)
    /// shape, same as `Role` and `AnnotateMode`.
    pub fn parse(input: &str) -> Result<BackendKind> {
        match input {
            "native" => Ok(BackendKind::Native),
            "row" => Ok(BackendKind::Row),
            "column" => Ok(BackendKind::Column),
            other => Err(xac_core::Error::UnknownName {
                what: "backend",
                input: other.to_string(),
                valid: BackendKind::VALID_NAMES.join(", "),
            }),
        }
    }

    /// The CLI spelling.
    pub fn cli_name(self) -> &'static str {
        match self {
            BackendKind::Native => "native",
            BackendKind::Row => "row",
            BackendKind::Column => "column",
        }
    }

    /// Construct an empty backend of this kind, relational ones in the
    /// given annotation write mode.
    pub fn make(self, mode: AnnotateMode) -> Box<dyn Backend + Send> {
        match self {
            BackendKind::Native => Box::new(NativeXmlBackend::with_mode(mode)),
            BackendKind::Row => {
                Box::new(RelationalBackend::with_mode(xac_reldb::StorageKind::Row, mode))
            }
            BackendKind::Column => {
                Box::new(RelationalBackend::with_mode(xac_reldb::StorageKind::Column, mode))
            }
        }
    }
}

impl std::fmt::Display for BackendKind {
    /// The CLI spelling; round-trips through [`BackendKind::parse`].
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.cli_name())
    }
}

impl std::str::FromStr for BackendKind {
    type Err = xac_core::Error;

    fn from_str(s: &str) -> Result<BackendKind> {
        BackendKind::parse(s)
    }
}

/// What the faultable part of a guarded transaction produced: either a
/// denial (nothing to publish) or everything commit needs, staged while
/// still inside `catch_unwind`.
enum TxnOutcome {
    Denied(GuardedUpdate),
    Ready {
        outcome: UpdateOutcome,
        /// Boxed: a checkpoint is much larger than the denied variant.
        checkpoint: Box<Checkpoint>,
        snapshot: Arc<AccessSnapshot>,
    },
}

/// The concurrent serving engine. See the [module docs](self).
pub struct ServeEngine {
    system: Arc<System>,
    /// The live backend; every guarded update owns it exclusively for
    /// the update + re-annotation + publication critical section.
    writer: Mutex<Box<dyn Backend + Send>>,
    /// The published snapshot. Readers hold the lock only long enough
    /// to clone the `Arc`; the writer only long enough to swap it —
    /// never during re-annotation.
    published: RwLock<Arc<AccessSnapshot>>,
    /// Checkpoint of the backend state behind the published snapshot —
    /// swapped together with `published`, so it always describes the
    /// same state readers are being served. The rollback rung restores
    /// it when an update fails past repair.
    last_good: Mutex<Checkpoint>,
    /// `Some(cause)` once the ladder is exhausted: the engine is
    /// read-only and every guarded update is rejected.
    quarantine: Mutex<Option<String>>,
    /// The WAL when the engine persists (`--data-dir`).
    /// Mutated only under the writer lock's serialization; the mutex
    /// satisfies `Sync` for the read paths that sample its counters.
    durability: Option<Mutex<Durability>>,
    /// What reopen found, when this engine came up via recovery.
    recovery: Option<RecoveryReport>,
    metrics: Metrics,
    backend_name: &'static str,
}

impl ServeEngine {
    /// Stand up an engine: load the system's prepared document into the
    /// backend, annotate it fully (the paper's startup cost), publish
    /// the first snapshot and capture the first last-good checkpoint.
    ///
    /// First publication is idempotent: a transient `snapshot()`
    /// failure is retried once, and the publication counters move
    /// exactly once, after a snapshot actually exists — counting per
    /// *attempt* used to double-count the initial epoch.
    pub fn new(system: Arc<System>, mut backend: Box<dyn Backend + Send>) -> Result<ServeEngine> {
        system.load(backend.as_mut())?;
        system.annotate(backend.as_mut())?;
        ServeEngine::finish(system, backend, None, None)
    }

    /// Shared tail of every constructor: the backend is loaded and
    /// annotated (freshly or via WAL recovery); publish the first
    /// snapshot and capture the first last-good checkpoint.
    fn finish(
        system: Arc<System>,
        mut backend: Box<dyn Backend + Send>,
        durability: Option<Durability>,
        recovery: Option<RecoveryReport>,
    ) -> Result<ServeEngine> {
        use std::sync::atomic::Ordering::Relaxed;
        let metrics = Metrics::default();
        let mut snapshot = None;
        let mut last_err = None;
        for _attempt in 0..2 {
            match backend.snapshot() {
                Ok(s) => {
                    snapshot = Some(Arc::new(s));
                    break;
                }
                Err(e) => {
                    if matches!(e, Error::FaultInjected { .. }) {
                        metrics.faults_injected.fetch_add(1, Relaxed);
                    }
                    last_err = Some(e);
                }
            }
        }
        let Some(snapshot) = snapshot else {
            return Err(last_err.expect("no snapshot implies a recorded error"));
        };
        let last_good = backend.checkpoint()?;
        let backend_name = backend.name();
        metrics.current_epoch.store(snapshot.epoch(), Relaxed);
        metrics.epochs_published.fetch_add(1, Relaxed);
        Ok(ServeEngine {
            system,
            writer: Mutex::new(backend),
            published: RwLock::new(snapshot),
            last_good: Mutex::new(last_good),
            quarantine: Mutex::new(None),
            durability: durability.map(Mutex::new),
            recovery,
            metrics,
            backend_name,
        })
    }

    /// Convenience: build an engine for a [`BackendKind`], honouring the
    /// system's configured [`AnnotateMode`].
    pub fn for_kind(system: Arc<System>, kind: BackendKind) -> Result<ServeEngine> {
        let mode = system.annotate_mode();
        ServeEngine::new(system, kind.make(mode))
    }

    /// Build a **durable** engine persisting under
    /// `config.data_dir` (DESIGN.md §4i). An empty data dir boots
    /// fresh — load, annotate, and log the WAL's first transaction
    /// (`Meta` + `Commit`); a populated one *recovers* — reload, replay
    /// the logged operations, annotate once under this system's policy,
    /// and come up serving the last committed document
    /// ([`ServeEngine::recovery`] reports what was found).
    pub fn durable(
        system: Arc<System>,
        kind: BackendKind,
        config: &DurabilityConfig,
    ) -> Result<ServeEngine> {
        ServeEngine::durable_with_faults(system, kind, config, FaultPlan::new())
    }

    /// [`ServeEngine::durable`] with a fault plan: specs at the storage
    /// points ([`xac_core::FaultPoint::STORAGE`]) arm the durability
    /// layer's crash seams, the rest wrap the backend in a
    /// [`FaultingBackend`] as usual.
    pub fn durable_with_faults(
        system: Arc<System>,
        kind: BackendKind,
        config: &DurabilityConfig,
        plan: FaultPlan,
    ) -> Result<ServeEngine> {
        std::fs::create_dir_all(&config.data_dir).map_err(|e| Error::Storage {
            source_kind: "io".to_string(),
            context: format!("create data dir {}: {e}", config.data_dir.display()),
        })?;
        let (storage_plan, backend_plan) = split_storage_plan(&plan);
        let mode = system.annotate_mode();
        let mut backend: Box<dyn Backend + Send> = if backend_plan.specs().is_empty() {
            kind.make(mode)
        } else {
            Box::new(FaultingBackend::new(kind.make(mode), backend_plan))
        };
        if crate::durable::has_committed_history(config)? {
            let (dur, report) =
                Durability::recover(config, storage_plan, &system, backend.as_mut())?;
            ServeEngine::finish(system, backend, Some(dur), Some(report))
        } else {
            system.load(backend.as_mut())?;
            system.annotate(backend.as_mut())?;
            let signs = backend.sign_state()?;
            let epoch = backend.epoch();
            let dur = Durability::fresh(
                config,
                storage_plan,
                backend.name(),
                mode.name(),
                &signs,
                epoch,
            )?;
            // The committed map now holds `signs`: make them the
            // baseline the first transaction's `sign_changes` diffs
            // against.
            backend.sign_changes()?;
            ServeEngine::finish(system, backend, Some(dur), None)
        }
    }

    /// Build an engine whose backend is wrapped in a
    /// [`FaultingBackend`] armed with `plan` — the deterministic
    /// fault-injection deployment used by the recovery tests, the
    /// `fault-recovery` benchmark and `serve-bench --fault-plan`.
    pub fn for_kind_with_faults(
        system: Arc<System>,
        kind: BackendKind,
        plan: FaultPlan,
    ) -> Result<ServeEngine> {
        let mode = system.annotate_mode();
        let faulting = FaultingBackend::new(kind.make(mode), plan);
        ServeEngine::new(system, Box::new(faulting))
    }

    /// The system this engine serves.
    pub fn system(&self) -> &Arc<System> {
        &self.system
    }

    /// Name of the fronted backend.
    pub fn backend_name(&self) -> &'static str {
        self.backend_name
    }

    /// The currently published snapshot. Requests answered against it
    /// stay consistent with each other even if the engine publishes a
    /// newer epoch meanwhile. Served even under quarantine — the whole
    /// point of the last rung is that reads outlive write failures.
    pub fn snapshot(&self) -> Arc<AccessSnapshot> {
        unpoison(self.published.read()).clone()
    }

    /// Epoch of the currently published snapshot.
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch()
    }

    /// Accessible-node count at the published epoch.
    pub fn accessible_count(&self) -> usize {
        self.snapshot().accessible_count()
    }

    /// True once the engine has entered read-only quarantine.
    pub fn quarantined(&self) -> bool {
        unpoison(self.quarantine.lock()).is_some()
    }

    /// Why the engine is quarantined, if it is.
    pub fn quarantine_cause(&self) -> Option<String> {
        unpoison(self.quarantine.lock()).clone()
    }

    /// Frozen copy of the engine's request counters and latency
    /// histograms.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// True when the engine persists through a WAL.
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// What reopen found, when this engine came up by
    /// recovering an existing data dir; `None` on fresh boots and
    /// non-durable engines.
    pub fn recovery(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// The durability layer's WAL counters, when the engine is durable,
    /// paired with all-zero buffer-pool counters: there is no page
    /// store (the pair stays for the benchmark ledger's
    /// `store.pool_hit_ratio` until the ledger drops it).
    pub fn storage_stats(&self) -> Option<(xac_store::WalStats, xac_store::PagerStats)> {
        let dur = unpoison(self.durability.as_ref()?.lock());
        Some((dur.wal_stats(), dur.pager_stats()))
    }

    /// Run a closure over the durability layer (audits, tests). `None`
    /// on non-durable engines. Serializes with guarded updates only
    /// for the duration of the closure.
    pub fn with_durability<R>(&self, f: impl FnOnce(&mut Durability) -> R) -> Option<R> {
        let mut dur = unpoison(self.durability.as_ref()?.lock());
        Some(f(&mut dur))
    }

    /// Serve one [`Request`] — **the unified entry point**. Every
    /// consumer goes through here (or through the typed shims below,
    /// which share the same audited internals): the `xmlac` CLI, the
    /// `xac-net` wire dispatcher, benchmarks and tests. Dispatch,
    /// access semantics and metrics accounting live in exactly one
    /// place, so an answer over the wire is byte-identical to the same
    /// request served in process.
    ///
    /// Failures are data: a malformed path, a quarantined engine, or a
    /// surfaced fault all come back as [`Response::Error`] with a typed
    /// [`ErrorKind`], never as a transport-level error.
    pub fn serve(&self, req: &Request) -> Response {
        use std::sync::atomic::Ordering::Relaxed;
        match req {
            Request::Query { query } => match xac_xpath::parse_absolute(query) {
                Ok(path) => {
                    let (decision, epoch) = self.read_observed(&path);
                    Response::Decision {
                        granted: decision.granted(),
                        nodes: decision.node_count() as u64,
                        epoch,
                    }
                }
                Err(e) => {
                    // A malformed or relative read is a read error
                    // with zero cost; no snapshot is taken.
                    self.metrics.read_errors.fetch_add(1, Relaxed);
                    self.metrics.read_latency.record(std::time::Duration::ZERO);
                    Response::from_error(&e.into())
                }
            },
            Request::Delete { path } => match xac_xpath::parse_absolute(path) {
                Ok(p) => self.update_response(self.guarded(&Update::Delete(p))),
                Err(e) => Response::from_error(&e.into()),
            },
            Request::Insert { parent, name, text } => match xac_xpath::parse_absolute(parent) {
                Ok(p) => self.update_response(self.guarded(&Update::Insert {
                    parent: p,
                    name: name.clone(),
                    text: text.clone(),
                })),
                Err(e) => Response::from_error(&e.into()),
            },
            Request::Status => Response::Status {
                backend: self.backend_name.to_string(),
                epoch: self.epoch(),
                accessible: self.accessible_count() as u64,
                quarantined: self.quarantined(),
            },
            Request::Metrics => Response::Metrics { rendered: self.metrics().render() },
            Request::Scrape => Response::Scrape {
                exposition: self.metrics().to_prometheus(self.backend_name)
                    + &xac_obs::prometheus_global(),
            },
            Request::Tail { n } => Response::Tail {
                records: xac_obs::flight_recorder().tail(*n as usize),
            },
            Request::Analyze { deny_warnings, fix } => {
                self.analyze_response(*deny_warnings, *fix)
            }
        }
    }

    /// Lint the engine's live policy (and, with `fix`, synthesize
    /// verified repairs). Purely advisory: the served policy is never
    /// mutated — accepted repairs come back as a unified diff over the
    /// policy's canonical text form.
    fn analyze_response(&self, deny_warnings: bool, fix: bool) -> Response {
        let policy = self.system.original_policy().clone();
        let schema = self.system.schema();
        let source = policy.to_text();
        let mut engine = xac_analyze::IncrementalAnalyzer::new(policy, Some(schema))
            .named("<live policy>", Some("<live schema>".into()));
        if !fix {
            let report = engine.analyze();
            return Response::Analysis {
                exit_code: report.exit_code(deny_warnings),
                report_json: report.to_json(),
                repairs: 0,
                diff: None,
            };
        }
        let cfg = xac_analyze::RepairConfig { deny_warnings, fix_infos: false };
        let outcome =
            xac_analyze::synthesize(&mut engine, &source, "<live policy>", None, &cfg);
        Response::Analysis {
            exit_code: outcome.report.exit_code(deny_warnings),
            report_json: outcome.report.to_json(),
            repairs: outcome.repairs.len() as u32,
            diff: if outcome.diff.is_empty() { None } else { Some(outcome.diff) },
        }
    }

    /// [`ServeEngine::serve`] behind a role-admission gate: the answer
    /// the network layer gives a session authenticated as `role`, and
    /// the in-process equivalent the differential suite compares it
    /// against. A refused request never reaches the engine — no engine
    /// counter moves.
    pub fn serve_as(&self, role: Role, req: &Request) -> Response {
        if !role.allows(req) {
            return Response::Error {
                kind: ErrorKind::RoleDenied,
                message: format!("role `{role}` may not issue `{}` requests", req.verb()),
            };
        }
        self.serve(req)
    }

    /// Fold a guarded-update result into the wire-shaped answer.
    fn update_response(&self, result: Result<GuardedUpdate>) -> Response {
        match result {
            Ok(GuardedUpdate::Applied(o)) => Response::Update {
                applied: true,
                removed: o.removed_elements as u64,
                inserted: o.inserted_elements as u64,
                sign_writes: o.sign_writes as u64,
                denied_nodes: 0,
                epoch: self.epoch(),
            },
            Ok(GuardedUpdate::Denied(d)) => Response::Update {
                applied: false,
                removed: 0,
                inserted: 0,
                sign_writes: 0,
                denied_nodes: d.node_count() as u64,
                epoch: self.epoch(),
            },
            Err(e) => Response::from_error(&e),
        }
    }

    /// The read path shared by [`ServeEngine::serve`] and the typed
    /// shims: answer against the published snapshot, recording outcome
    /// and latency; returns the decision and the epoch it was served
    /// at.
    fn read_observed(&self, path: &Path) -> (Decision, u64) {
        use std::sync::atomic::Ordering::Relaxed;
        let _span = xac_obs::span("serve.read");
        let start = Instant::now();
        let snap = self.snapshot();
        // Every read runs on the bytecode VM against the snapshot's
        // columnar index, whatever the annotation mode: the decision
        // depends only on the published accessible set.
        let decision = snap.query_compiled(path);
        self.metrics.read_latency.record(start.elapsed());
        if decision.granted() {
            self.metrics.reads_allowed.fetch_add(1, Relaxed);
        } else {
            self.metrics.reads_denied.fetch_add(1, Relaxed);
        }
        (decision, snap.epoch())
    }

    /// Answer a pre-parsed read request against the published snapshot.
    /// A typed shim over the same audited read path
    /// [`ServeEngine::serve`] uses.
    pub fn query(&self, path: &Path) -> Decision {
        self.read_observed(path).0
    }

    /// Access-controlled delete (§8): refused unless every designated
    /// node is accessible at the *current* backend state; applied
    /// updates re-annotate partially and publish a new epoch. A typed
    /// shim over the same guarded transaction [`ServeEngine::serve`]
    /// runs for [`Request::Delete`], returning the full
    /// [`UpdateOutcome`] (including the re-annotation plan).
    pub fn guarded_delete(&self, update: &Path) -> Result<GuardedUpdate> {
        self.guarded(&Update::Delete(update.clone()))
    }

    /// Access-controlled insert (§8): refused unless every designated
    /// parent is accessible. Typed shim over the [`Request::Insert`]
    /// transaction, like [`ServeEngine::guarded_delete`].
    pub fn guarded_insert(
        &self,
        parent: &Path,
        name: &str,
        text: Option<&str>,
    ) -> Result<GuardedUpdate> {
        self.guarded(&Update::Insert {
            parent: parent.clone(),
            name: name.to_string(),
            text: text.map(str::to_string),
        })
    }

    /// Run a closure against the live backend under the writer lock.
    /// For tests and maintenance tasks (sign-state audits); readers
    /// keep serving the published snapshot meanwhile. No snapshot is
    /// republished — mutate through the guarded update path instead.
    /// Errors when writer-lock recovery itself fails (quarantine).
    pub fn with_writer<R>(&self, f: impl FnOnce(&mut dyn Backend) -> R) -> Result<R> {
        let mut writer = self.lock_writer()?;
        Ok(f(writer.as_mut()))
    }

    /// Count an injected fault surfaced as a structured error.
    fn note_fault(&self, e: &Error) {
        if matches!(e, Error::FaultInjected { .. }) {
            self.metrics
                .faults_injected
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    /// Acquire the writer lock, recovering from poison. A poisoned
    /// writer lock means a previous holder panicked mid-mutation, so
    /// the state behind it is unverifiable: restore from the last-good
    /// checkpoint before handing it out (quarantining if even that
    /// fails).
    fn lock_writer(&self) -> Result<MutexGuard<'_, Box<dyn Backend + Send>>> {
        match self.writer.lock() {
            Ok(guard) => Ok(guard),
            Err(poisoned) => {
                let mut guard = poisoned.into_inner();
                self.writer.clear_poison();
                self.rollback(guard.as_mut(), "writer lock was poisoned")?;
                Ok(guard)
            }
        }
    }

    fn guarded(&self, update: &Update) -> Result<GuardedUpdate> {
        let _span = xac_obs::span("serve.update");
        let start = Instant::now();
        let result = self.guarded_transaction(update);
        self.metrics.update_latency.record(start.elapsed());
        result
    }

    /// The transactional critical section. Every call lands in exactly
    /// one of `updates_applied` / `updates_denied` / `update_errors` /
    /// `rejected_while_quarantined`, keeping the accounting identity.
    fn guarded_transaction(&self, update: &Update) -> Result<GuardedUpdate> {
        use std::sync::atomic::Ordering::Relaxed;
        if let Some(cause) = self.quarantine_cause() {
            self.metrics.rejected_while_quarantined.fetch_add(1, Relaxed);
            return Err(Error::Quarantined { last_good_epoch: self.epoch(), cause });
        }
        let mut writer = match self.lock_writer() {
            Ok(writer) => writer,
            Err(e) => {
                self.metrics.update_errors.fetch_add(1, Relaxed);
                return Err(e);
            }
        };
        // Everything faultable — the update (`System::guarded`, whose
        // failed partial re-annotation falls back to full, rung 2), the
        // checkpoint + snapshot staging and, last, the WAL commit — runs
        // under `catch_unwind`, so neither an injected nor an organic
        // panic can poison the lock or escape with the backend
        // half-mutated, and nothing can fail once the commit record is
        // durable. Publication (pure pointer swaps in `install`) happens
        // after, outside.
        let b = writer.as_mut();
        let staged = catch_unwind(AssertUnwindSafe(|| -> Result<TxnOutcome> {
            // Rung 2 is counted before full re-annotation runs, so a
            // fallback that then fails or panics is still counted.
            let mut on_fallback = |e: &Error| {
                self.note_fault(e);
                self.metrics.full_fallbacks.fetch_add(1, Relaxed);
                xac_obs::instant("serve.full_fallback");
            };
            match self.system.guarded_observed(b, update, &mut on_fallback)? {
                denied @ GuardedUpdate::Denied(_) => Ok(TxnOutcome::Denied(denied)),
                GuardedUpdate::Applied(outcome) => {
                    let diff =
                        if self.is_durable() { b.sign_changes()? } else { SignDiff::default() };
                    let checkpoint = Box::new(b.checkpoint()?);
                    let snapshot = Arc::new(b.snapshot()?);
                    if let Some(dur) = &self.durability {
                        let mut dur = unpoison(dur.lock());
                        debug_assert_eq!(
                            diff,
                            SignDiff::between(dur.committed_signs(), &b.sign_state()?),
                            "the drained sign changes are the committed map's diff"
                        );
                        dur.commit(&LoggedOp::from(update), &diff, snapshot.epoch())?;
                    }
                    Ok(TxnOutcome::Ready { outcome, checkpoint, snapshot })
                }
            }
        }));
        match staged {
            Ok(Ok(TxnOutcome::Denied(denied))) => {
                self.metrics.updates_denied.fetch_add(1, Relaxed);
                Ok(denied)
            }
            Ok(Ok(TxnOutcome::Ready { outcome, checkpoint, snapshot })) => {
                self.install(*checkpoint, snapshot);
                self.metrics.updates_applied.fetch_add(1, Relaxed);
                self.metrics.sign_writes.fetch_add(outcome.sign_writes as u64, Relaxed);
                Ok(GuardedUpdate::Applied(outcome))
            }
            Ok(Err(e)) => {
                // Rung 3: the update failed past what full
                // re-annotation could repair, or before its commit
                // record — roll the backend back to the state behind the
                // published snapshot.
                self.note_fault(&e);
                self.metrics.update_errors.fetch_add(1, Relaxed);
                // A refused insert changed nothing: no rollback.
                if !matches!(e, Error::UndeclaredElement(_) | Error::UndeclaredText(_)) {
                    self.rollback(writer.as_mut(), &format!("guarded update failed: {e}"))?;
                }
                Err(e)
            }
            Err(payload) => {
                let injected = injected_panic_point(&*payload);
                let cause = match &injected {
                    Some(point) => {
                        self.metrics.faults_injected.fetch_add(1, Relaxed);
                        format!("guarded update panicked: injected fault at `{point}`")
                    }
                    None => "guarded update panicked".to_string(),
                };
                self.metrics.update_errors.fetch_add(1, Relaxed);
                self.rollback(writer.as_mut(), &cause)?;
                // An injected panic keeps its classification (the CLI
                // maps `FaultInjected` to a distinct exit code); an
                // organic one is a system error.
                Err(match injected {
                    Some(point) => Error::FaultInjected { point },
                    None => Error::System(format!(
                        "{cause}; rolled back to last-good epoch {}",
                        self.epoch()
                    )),
                })
            }
        }
    }

    /// Publish a staged transaction: swap in the new snapshot and the
    /// matching last-good checkpoint. Pure pointer swaps — nothing here
    /// can fail halfway, which is why checkpoint + snapshot are staged
    /// *before* publication.
    fn install(&self, checkpoint: Checkpoint, snapshot: Arc<AccessSnapshot>) {
        use std::sync::atomic::Ordering::Relaxed;
        let _span = xac_obs::span("serve.publish");
        self.metrics.current_epoch.store(snapshot.epoch(), Relaxed);
        self.metrics.epochs_published.fetch_add(1, Relaxed);
        // The old snapshot may be the last owner of its epoch's index
        // chunks, name index and arena chunks: swap it out under the
        // lock, free it after the guard is gone, so readers never wait
        // on the release.
        let old = std::mem::replace(&mut *unpoison(self.published.write()), snapshot);
        drop(old);
        *unpoison(self.last_good.lock()) = checkpoint;
    }

    /// Rung 3: bring the backend byte-identical to the state behind the
    /// published snapshot by restoring the last-good checkpoint — the
    /// same rung on volatile and durable engines (a durable engine's
    /// checkpoint is its last committed state, and a failed commit's
    /// dead log tail is dropped by the next commit or reopen). If the
    /// restore itself fails or panics, escalate to rung 4 — quarantine:
    /// mark the engine read-only and return [`Error::Quarantined`].
    fn rollback(&self, b: &mut dyn Backend, cause: &str) -> Result<()> {
        use std::sync::atomic::Ordering::Relaxed;
        let _span = xac_obs::span("serve.rollback");
        let checkpoint = unpoison(self.last_good.lock()).clone();
        match catch_unwind(AssertUnwindSafe(|| b.restore(&checkpoint))) {
            Ok(Ok(())) => {
                self.metrics.rollbacks.fetch_add(1, Relaxed);
                Ok(())
            }
            Ok(Err(e)) => {
                self.note_fault(&e);
                Err(self.enter_quarantine(format!("{cause}; restore failed: {e}")))
            }
            Err(payload) => {
                let detail = match injected_panic_point(&*payload) {
                    Some(point) => {
                        self.metrics.faults_injected.fetch_add(1, Relaxed);
                        format!("restore panicked: injected fault at `{point}`")
                    }
                    None => "restore panicked".to_string(),
                };
                Err(self.enter_quarantine(format!("{cause}; {detail}")))
            }
        }
    }

    /// Rung 4: mark the engine read-only. Idempotent — the first cause
    /// wins and the counter moves once. Reads keep being served from
    /// the published snapshot.
    fn enter_quarantine(&self, cause: String) -> Error {
        let mut quarantine = unpoison(self.quarantine.lock());
        if quarantine.is_none() {
            *quarantine = Some(cause.clone());
            xac_obs::instant("serve.quarantine");
            self.metrics
                .quarantines
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        Error::Quarantined { last_good_epoch: self.epoch(), cause }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xac_policy::policy::hospital_policy;
    use xac_xml::Document;

    fn figure2() -> Document {
        Document::parse_str(
            "<hospital><dept><patients>\
             <patient><psn>033</psn><name>john doe</name>\
             <treatment><regular><med>enoxaparin</med><bill>700</bill></regular></treatment>\
             </patient>\
             <patient><psn>042</psn><name>jane doe</name>\
             <treatment><experimental><test>hypnosis</test><bill>1600</bill></experimental></treatment>\
             </patient>\
             <patient><psn>099</psn><name>joy smith</name></patient>\
             </patients><staffinfo/></dept></hospital>",
        )
        .unwrap()
    }

    fn system() -> System {
        System::builder(xac_core::hospital_schema_for_docs(), hospital_policy(), figure2())
            .build()
            .unwrap()
    }

    #[test]
    fn engine_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ServeEngine>();
    }

    /// Serve a query and return (granted, nodes, epoch).
    fn served(engine: &ServeEngine, query: &str) -> (bool, u64, u64) {
        match engine.serve(&Request::query(query)) {
            Response::Decision { granted, nodes, epoch } => (granted, nodes, epoch),
            other => panic!("expected a decision, got {other:?}"),
        }
    }

    #[test]
    fn serves_reads_on_every_kind() {
        let system = Arc::new(system());
        for kind in BackendKind::ALL {
            let engine = &ServeEngine::for_kind(Arc::clone(&system), kind).unwrap();
            assert!(served(engine, "//patient/name").0);
            assert!(!served(engine, "//patient").0);
            let err = engine.serve(&Request::query("//bad["));
            assert_eq!(err.error_kind(), Some(ErrorKind::Parse), "{err:?}");
            let m = engine.metrics();
            assert_eq!(m.reads_issued(), 3, "{}", engine.backend_name());
            assert_eq!(m.read_errors, 1);
            assert_eq!(m.epochs_published, 1);
        }
    }

    /// A relative path is a parse error at the text boundary on every
    /// backend and mode, for reads and updates alike: no snapshot, no
    /// writer work, no rollback.
    #[test]
    fn relative_paths_are_parse_errors_everywhere() {
        for mode in [AnnotateMode::PaperFaithful, AnnotateMode::Compiled] {
            let system = Arc::new(
                System::builder(xac_core::hospital_schema_for_docs(), hospital_policy(), figure2())
                    .annotate_mode(mode)
                    .build()
                    .unwrap(),
            );
            for kind in BackendKind::ALL {
                let engine = ServeEngine::for_kind(Arc::clone(&system), kind).unwrap();
                let epoch = engine.epoch();
                let mut reads = 0;
                for path in ["patient", "hospital/dept", ".//patient", "."] {
                    for req in [
                        Request::query(path),
                        Request::delete(path),
                        Request::insert(path, "psn", None),
                    ] {
                        reads += u64::from(matches!(req, Request::Query { .. }));
                        let kind_of = engine.serve(&req).error_kind();
                        assert_eq!(kind_of, Some(ErrorKind::Parse), "{mode}/{kind}: {req:?}");
                    }
                }
                let m = engine.metrics();
                assert_eq!(engine.epoch(), epoch, "{mode}/{kind}");
                assert_eq!((m.rollbacks, m.update_errors), (0, 0), "{mode}/{kind}");
                assert_eq!((m.read_errors, m.reads_issued()), (reads, reads), "{mode}/{kind}");
            }
        }
    }

    /// An insert of an element the schema does not declare, or of text
    /// under a type that holds none, is refused by `System` before it
    /// selects anything, with one typed error on every backend and
    /// mode: the update counts as an error, the epoch and the signs
    /// stay, and no checkpoint is restored.
    #[test]
    fn undeclared_inserts_are_refused_without_a_rollback() {
        let refusals = [
            ("martian", None, Error::UndeclaredElement("martian".into())),
            ("treatment", Some("x"), Error::UndeclaredText("treatment".into())),
        ];
        for mode in [AnnotateMode::PaperFaithful, AnnotateMode::Compiled] {
            let system = Arc::new(
                System::builder(xac_core::hospital_schema_for_docs(), hospital_policy(), figure2())
                    .annotate_mode(mode)
                    .build()
                    .unwrap(),
            );
            for kind in BackendKind::ALL {
                let engine = ServeEngine::for_kind(Arc::clone(&system), kind).unwrap();
                let writer = || engine.with_writer(|b| (b.epoch(), b.sign_state().unwrap()));
                let (published, before) = (engine.epoch(), writer().unwrap());
                let joy = xac_xpath::parse("//patient[psn = \"099\"]").unwrap();
                for (errors, (name, text, refused)) in (1..).zip(&refusals) {
                    let err = engine.guarded_insert(&joy, name, *text).unwrap_err();
                    assert_eq!(&err, refused, "{mode}/{kind}");
                    let m = engine.metrics();
                    assert_eq!((m.rollbacks, m.update_errors), (0, errors), "{mode}/{kind}");
                    assert_eq!(engine.epoch(), published, "{mode}/{kind}");
                    assert_eq!(writer().unwrap(), before, "{mode}/{kind}: epoch and signs");
                }
                assert!(engine.guarded_insert(&joy, "treatment", None).unwrap().applied());
            }
        }
    }

    #[test]
    fn serve_dispatches_updates_status_and_metrics() {
        let engine = ServeEngine::for_kind(Arc::new(system()), BackendKind::Native).unwrap();
        // Denied update: epoch pinned, denied node count carried.
        let denied = engine.serve(&Request::delete("//med"));
        assert_eq!(
            denied,
            Response::Update {
                applied: false,
                removed: 0,
                inserted: 0,
                sign_writes: 0,
                denied_nodes: 1,
                epoch: engine.epoch(),
            }
        );
        // Applied update: epoch advances, counts carried.
        let before = engine.epoch();
        match engine.serve(&Request::delete("//regular")) {
            Response::Update { applied, removed, epoch, sign_writes, .. } => {
                assert!(applied);
                assert_eq!(removed, 3, "regular + med + bill");
                assert_eq!(sign_writes, engine.metrics().sign_writes);
                assert!(epoch > before);
            }
            other => panic!("expected an update response, got {other:?}"),
        }
        // Malformed update path: a typed parse error, no update counter.
        let bad = engine.serve(&Request::delete("//bad["));
        assert_eq!(bad.error_kind(), Some(ErrorKind::Parse));
        match engine.serve(&Request::Status) {
            Response::Status { backend, epoch, accessible, quarantined } => {
                assert_eq!(backend, "native/xml");
                assert_eq!(epoch, engine.epoch());
                assert_eq!(accessible, engine.accessible_count() as u64);
                assert!(!quarantined);
            }
            other => panic!("expected status, got {other:?}"),
        }
        match engine.serve(&Request::Metrics) {
            Response::Metrics { rendered } => assert!(rendered.contains("updates: 2")),
            other => panic!("expected metrics, got {other:?}"),
        }
        let m = engine.metrics();
        assert_eq!(m.updates_applied, 1);
        assert_eq!(m.updates_denied, 1);
        assert_eq!(m.update_errors, 0);
    }

    #[test]
    fn serve_as_gates_by_role_without_touching_the_engine() {
        let engine = ServeEngine::for_kind(Arc::new(system()), BackendKind::Native).unwrap();
        let denied = engine.serve_as(Role::Reader, &Request::delete("//regular"));
        assert_eq!(denied.error_kind(), Some(ErrorKind::RoleDenied));
        let m = engine.metrics();
        assert_eq!(m.updates_issued(), 0, "role denial precedes admission");
        assert_eq!(engine.metrics().epochs_published, 1);
        // The same request as a writer goes through.
        match engine.serve_as(Role::Writer, &Request::delete("//regular")) {
            Response::Update { applied: true, .. } => {}
            other => panic!("writer should apply, got {other:?}"),
        }
        // Metrics are admin-only.
        let denied = engine.serve_as(Role::Writer, &Request::Metrics);
        assert_eq!(denied.error_kind(), Some(ErrorKind::RoleDenied));
        assert!(matches!(
            engine.serve_as(Role::Admin, &Request::Metrics),
            Response::Metrics { .. }
        ));
    }

    #[test]
    fn applied_update_publishes_new_epoch() {
        let engine =
            ServeEngine::for_kind(Arc::new(system()), BackendKind::Native).unwrap();
        let before = engine.epoch();
        assert!(!served(&engine, "//patient").0);
        let u = xac_xpath::parse("//regular").unwrap();
        let g = engine.guarded_delete(&u).unwrap();
        let outcome = match g {
            GuardedUpdate::Applied(o) => o,
            GuardedUpdate::Denied(d) => panic!("unexpectedly denied: {d:?}"),
        };
        assert!(engine.epoch() > before, "applied update advances the epoch");
        let m = engine.metrics();
        assert_eq!(m.updates_applied, 1);
        assert_eq!(m.epochs_published, 2);
        assert_eq!(m.current_epoch, engine.epoch());
        assert_eq!(m.sign_writes, outcome.sign_writes as u64);
    }

    #[test]
    fn denied_update_keeps_epoch_and_state() {
        for kind in BackendKind::ALL {
            let engine = ServeEngine::for_kind(Arc::new(system()), kind).unwrap();
            let before_epoch = engine.epoch();
            let before_signs = engine.with_writer(|b| b.sign_state().unwrap()).unwrap();
            // //med is inaccessible: guarded delete refused.
            let med = xac_xpath::parse("//med").unwrap();
            let g = engine.guarded_delete(&med).unwrap();
            assert!(!g.applied(), "{}", engine.backend_name());
            // Inserting under an inaccessible parent: refused too.
            let treatment = xac_xpath::parse("//treatment").unwrap();
            let g = engine.guarded_insert(&treatment, "regular", None).unwrap();
            assert!(!g.applied(), "{}", engine.backend_name());
            assert_eq!(engine.epoch(), before_epoch, "{}", engine.backend_name());
            assert_eq!(
                engine.with_writer(|b| b.sign_state().unwrap()).unwrap(),
                before_signs,
                "{}: denied updates must not change sign state",
                engine.backend_name()
            );
            let m = engine.metrics();
            assert_eq!(m.updates_denied, 2);
            assert_eq!(m.updates_applied, 0);
            assert_eq!(m.epochs_published, 1);
        }
    }

    #[test]
    fn backend_kind_parsing() {
        assert_eq!(BackendKind::parse("native").unwrap(), BackendKind::Native);
        assert_eq!(BackendKind::parse("row").unwrap(), BackendKind::Row);
        assert_eq!(BackendKind::parse("column").unwrap(), BackendKind::Column);
        assert!(BackendKind::parse("mongodb").is_err());
        for kind in BackendKind::ALL {
            assert_eq!(BackendKind::parse(kind.cli_name()).unwrap(), kind);
        }
    }

    #[test]
    fn unknown_backend_error_lists_all_kinds() {
        // Same `unknown X (valid Xs: …)` shape as AnnotateMode and Role.
        let err = BackendKind::parse("mongodb").unwrap_err();
        assert_eq!(
            err,
            xac_core::Error::UnknownName {
                what: "backend",
                input: "mongodb".to_string(),
                valid: "native, row, column".to_string(),
            }
        );
        let text = err.to_string();
        for name in BackendKind::VALID_NAMES {
            assert!(text.contains(name), "`{name}` missing from: {text}");
        }
    }

    #[test]
    fn backend_kind_display_round_trips_through_parse() {
        use std::str::FromStr;
        // Exhaustive: every canonical spelling parses back to its kind.
        for kind in BackendKind::ALL {
            assert_eq!(BackendKind::parse(&kind.to_string()).unwrap(), kind);
            assert_eq!(BackendKind::from_str(kind.cli_name()).unwrap(), kind);
        }
        // Property: random case/whitespace perturbations of a canonical
        // spelling only parse when they leave it unchanged.
        let mut rng = xac_xmlgen::SplitMix64::seed_from_u64(0xbac_c0de);
        for _ in 0..256 {
            let kind = BackendKind::ALL[(rng.next_u64() % 3) as usize];
            let mut s = kind.cli_name().to_string();
            match rng.next_u64() % 3 {
                0 => s.make_ascii_uppercase(),
                1 => s.push(' '),
                _ => {}
            }
            match BackendKind::from_str(&s) {
                Ok(parsed) => {
                    assert_eq!(s, kind.cli_name(), "only canonical spellings parse");
                    assert_eq!(parsed, kind);
                    assert_eq!(parsed.to_string(), s, "Display round-trips");
                }
                Err(err) => {
                    assert_ne!(s, kind.cli_name());
                    let text = err.to_string();
                    assert!(text.contains("valid backends"), "{text}");
                }
            }
        }
    }

    #[test]
    fn first_publish_is_idempotent_under_transient_snapshot_failure() {
        // One-shot before_snapshot fault: the first snapshot attempt
        // fails, the retry succeeds — and the initial epoch must be
        // counted exactly once.
        let plan = FaultPlan::parse("before_snapshot:error").unwrap();
        let engine =
            ServeEngine::for_kind_with_faults(Arc::new(system()), BackendKind::Native, plan)
                .unwrap();
        let m = engine.metrics();
        assert_eq!(m.epochs_published, 1, "retried first publish counted once");
        assert_eq!(m.faults_injected, 1);
        assert_eq!(m.current_epoch, engine.epoch());
        assert!(served(&engine, "//patient/name").0);
    }

    #[test]
    fn poisoned_writer_lock_is_recovered_not_propagated() {
        let engine =
            ServeEngine::for_kind(Arc::new(system()), BackendKind::Native).unwrap();
        let golden = engine.with_writer(|b| b.sign_state().unwrap()).unwrap();
        // Poison the writer lock with an organic panic.
        let poisoned = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _ = engine.with_writer(|_| panic!("organic failure"));
        }));
        assert!(poisoned.is_err());
        // The engine recovers by restoring the last-good checkpoint and
        // keeps working: reads, state audits, and guarded updates.
        assert!(served(&engine, "//patient/name").0);
        assert_eq!(engine.with_writer(|b| b.sign_state().unwrap()).unwrap(), golden);
        assert!(!engine.quarantined());
        let u = xac_xpath::parse("//regular").unwrap();
        assert!(engine.guarded_delete(&u).unwrap().applied());
        assert_eq!(engine.metrics().rollbacks, 1, "poison recovery rolled back once");
    }
}
