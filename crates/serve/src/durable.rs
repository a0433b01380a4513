//! The durability layer: crash-consistent guarded updates over
//! `xac-store` (DESIGN.md §4i).
//!
//! A [`Durability`] owns one write-ahead [`Wal`], which is the whole
//! durable state: a `Meta` record and a `Commit` at a fresh boot, then
//! one structural operation record and one `Commit` per applied
//! update. Signs are never logged: they are a function of the document
//! and the policy (Table 2), so a reopen re-derives them.
//! [`Durability::commit`] is the transaction's last faultable step:
//!
//! 1. truncate any dead tail left by an earlier failure
//!    ([`Wal::abort_to_last_commit`] — cleanup is lazy, so the on-disk
//!    state at a crash instant *is* the crash state);
//! 2. append the operation record and the `Commit` boundary, framed
//!    into one buffer and one `write`, then fsync — **the durability
//!    point** — and patch the in-memory committed sign map with the
//!    transaction's [`SignDiff`].
//!
//! The engine runs it after it has staged the rollback checkpoint and
//! the new snapshot, so a failure before step 2's fsync leaves the log
//! on the previous commit and the engine's rollback is the same
//! checkpoint restore the volatile engine runs. Nothing is written
//! after the publish. The engine gets the diff from
//! [`Backend::sign_changes`]; the committed map it patches is what the
//! benchmark's reopen check compares with the recovered sign state.
//!
//! The two storage fault points ([`FaultPoint::STORAGE`]) land on the
//! commit's seams: `wal_mid_record` tears the operation record,
//! `wal_before_commit` writes it without its `Commit`.
//!
//! [`Durability::recover`] — the only log replay — reloads the
//! document, replays the structural operations in order, runs one full
//! [`System::annotate`] in the backend's own mode, and floors the epoch
//! at the log's last one ([`Backend::advance_epoch`]). The reopening
//! system's policy decides every sign, so a reopen under a changed
//! policy serves the new policy.

use std::collections::BTreeMap;
use std::path::PathBuf;
use xac_core::{
    injected_panic_message, Backend, Error, FaultAction, FaultPlan, FaultPoint, Result, System,
    Update,
};
use xac_store::{PagerStats, StoreError, Wal, WalRecord, WalStats};

pub use xac_core::SignDiff;

/// Where and how the engine persists (CLI: `--data-dir`, `--wal`).
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding the log (created if absent).
    pub data_dir: PathBuf,
    /// Fsync on every commit (`--wal sync`, the default) or leave
    /// durability to the OS (`--wal nosync`).
    pub sync: bool,
}

impl DurabilityConfig {
    /// A config with the default knob (`sync`).
    pub fn new(data_dir: impl Into<PathBuf>) -> DurabilityConfig {
        DurabilityConfig { data_dir: data_dir.into(), sync: true }
    }

    /// The write-ahead log file.
    pub fn wal_path(&self) -> PathBuf {
        self.data_dir.join("xmlac.wal")
    }
}

/// Wrap an `xac-store` failure as the core's structured storage error.
pub(crate) fn storage_error(e: StoreError) -> Error {
    Error::Storage { source_kind: e.kind.name().to_string(), context: e.context }
}

/// True when the log at `config.wal_path()` holds at least one
/// committed transaction — the boot-vs-recover decision. The scan
/// writes nothing: a crash during the very first transaction reads as
/// "no history" and the fresh boot truncates its torn tail, while a log
/// with history is left for [`Durability::recover`] to accept or refuse
/// as it found it.
pub(crate) fn has_committed_history(config: &DurabilityConfig) -> Result<bool> {
    if !config.wal_path().exists() {
        return Ok(false);
    }
    let (_, records) = Wal::scan(&config.wal_path()).map_err(storage_error)?;
    Ok(!records.is_empty())
}

/// Partition a fault plan into (storage specs, everything else) — the
/// storage points are fired by [`Durability`] around its own WAL
/// writes, the rest arm the usual
/// [`FaultingBackend`](xac_core::FaultingBackend) decorator. Same shape
/// as the net layer's client/server plan split.
pub fn split_storage_plan(plan: &FaultPlan) -> (FaultPlan, FaultPlan) {
    let mut storage = FaultPlan::new();
    let mut rest = FaultPlan::new();
    for spec in plan.specs() {
        if spec.point.is_storage() {
            storage.push(spec.clone());
        } else {
            rest.push(spec.clone());
        }
    }
    (storage, rest)
}

/// A replayable structural operation, mirroring the WAL's `Delete` /
/// `Insert` records. Paths travel as their XPath spellings (the
/// [`Display`](std::fmt::Display) of a parsed path re-parses to an
/// equivalent path).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoggedOp {
    /// A guarded delete of every node the path designates.
    Delete {
        /// XPath spelling of the delete path.
        path: String,
    },
    /// A guarded insert under every node the parent path designates.
    Insert {
        /// XPath spelling of the parent path.
        parent: String,
        /// Element name inserted.
        name: String,
        /// Optional text content.
        text: Option<String>,
    },
}

impl LoggedOp {
    fn to_record(&self) -> WalRecord {
        match self {
            LoggedOp::Delete { path } => WalRecord::Delete { path: path.clone() },
            LoggedOp::Insert { parent, name, text } => WalRecord::Insert {
                parent: parent.clone(),
                name: name.clone(),
                text: text.clone(),
            },
        }
    }

    /// Re-apply this operation to a freshly loaded backend: the
    /// structural step of [`System::guarded`] (select, then
    /// [`Update::write`]), without guard or re-annotation. Replay is
    /// deterministic: the same operation sequence over the same document
    /// reproduces the same document and arena slots.
    fn replay(&self, b: &mut dyn Backend) -> Result<()> {
        let update = Update::try_from(self)?;
        let selection = b.select(update.target())?;
        update.write(b, &selection)?;
        Ok(())
    }
}

/// The WAL text form of a parsed update.
impl From<&Update> for LoggedOp {
    fn from(update: &Update) -> LoggedOp {
        match update {
            Update::Delete(path) => LoggedOp::Delete { path: path.to_string() },
            Update::Insert { parent, name, text } => LoggedOp::Insert {
                parent: parent.to_string(),
                name: name.clone(),
                text: text.clone(),
            },
        }
    }
}

/// Parse a logged operation back into an update; a path that is not
/// absolute XPath is an [`Error::XPath`].
impl TryFrom<&LoggedOp> for Update {
    type Error = Error;

    fn try_from(op: &LoggedOp) -> Result<Update> {
        Ok(match op {
            LoggedOp::Delete { path } => Update::Delete(xac_xpath::parse_absolute(path)?),
            LoggedOp::Insert { parent, name, text } => Update::Insert {
                parent: xac_xpath::parse_absolute(parent)?,
                name: name.clone(),
                text: text.clone(),
            },
        })
    }
}

/// The mark `Meta`'s backend tag ends with: the log holds operations
/// only, and a reopen re-derives the signs. Older logs carry sign
/// records (keyed by arena slot under a `@slot-ids` mark, or by
/// pre-order rank with no mark) and no operation mark;
/// [`Durability::recover`] refuses them, leaving the file as it was,
/// rather than replay a history it can no longer check.
const OP_LOG: &str = "@op-log";

/// What a reopen found; surfaced by
/// [`ServeEngine::recovery`](crate::ServeEngine::recovery) and printed
/// by the CLI on restart.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Backend tag from the log's `Meta` record, without its `OP_LOG`
    /// mark.
    pub backend: String,
    /// Annotate-mode tag from the log's `Meta` record (the mode that
    /// wrote the log; recovery annotates in the backend's own mode,
    /// which gives the same signs).
    pub mode: String,
    /// Structural operations replayed.
    pub ops_replayed: usize,
    /// Entries in the recovered sign state.
    pub sign_entries: usize,
    /// Epoch of the last committed transaction.
    pub last_epoch: u64,
    /// Torn/uncommitted bytes truncated from the log tail.
    pub wal_truncated_bytes: u64,
}

/// One WAL + the committed sign map the next transaction's diff is
/// checked against. Owned by the engine behind a mutex; every method
/// runs under the writer lock's serialization.
pub struct Durability {
    wal: Wal,
    /// Sign map as of the last committed transaction.
    committed_signs: BTreeMap<i64, char>,
    /// Epoch of the last committed transaction.
    last_epoch: u64,
    /// Armed storage fault points (see [`FaultPoint::STORAGE`]).
    plan: FaultPlan,
    sync: bool,
}

/// A refusal to touch the log at `config.wal_path()`.
fn corrupt(context: String) -> Error {
    Error::Storage { source_kind: "corrupt".to_string(), context }
}

impl Durability {
    /// Fresh boot: the backend was just loaded and fully annotated;
    /// log the first transaction (`Meta` + `Commit`, one write and one
    /// fsync). `signs` is the backend's [`Backend::sign_state`], which
    /// seeds the committed map; `epoch` is its epoch. Errors if the log
    /// already holds committed transactions — that state must go
    /// through [`Durability::recover`] instead.
    pub fn fresh(
        config: &DurabilityConfig,
        plan: FaultPlan,
        backend: &str,
        mode: &str,
        signs: &BTreeMap<i64, char>,
        epoch: u64,
    ) -> Result<Durability> {
        let (mut wal, records) = Wal::open(&config.wal_path()).map_err(storage_error)?;
        if !records.is_empty() {
            return Err(corrupt(format!(
                "refusing to overwrite populated wal {} ({} committed records); \
                 recover it or remove the data dir",
                config.wal_path().display(),
                records.len()
            )));
        }
        let meta = WalRecord::Meta { backend: format!("{backend}{OP_LOG}"), mode: mode.to_string() };
        wal.commit_batch([meta], epoch, config.sync).map_err(storage_error)?;
        Ok(Durability {
            wal,
            committed_signs: signs.clone(),
            last_epoch: epoch,
            plan,
            sync: config.sync,
        })
    }

    /// Reopen after a crash (or clean shutdown — same path): scan the
    /// committed records, check the `Meta` backend tag for the `OP_LOG`
    /// mark and against the backend being recovered (a refused log is
    /// left byte for byte as it was), truncate the torn tail, reload the
    /// document, replay the structural operations, annotate once, and
    /// floor the epoch at the log's last one. The committed map becomes
    /// the recovered sign state.
    pub fn recover(
        config: &DurabilityConfig,
        plan: FaultPlan,
        system: &System,
        b: &mut dyn Backend,
    ) -> Result<(Durability, RecoveryReport)> {
        let (mut wal, records) = Wal::scan(&config.wal_path()).map_err(storage_error)?;
        let mut meta: Option<(String, String)> = None;
        let mut ops = Vec::new();
        let mut last_epoch = 0u64;
        for record in records {
            match record {
                WalRecord::Meta { backend, mode } => {
                    meta.get_or_insert((backend, mode));
                }
                WalRecord::Delete { path } => ops.push(LoggedOp::Delete { path }),
                WalRecord::Insert { parent, name, text } => {
                    ops.push(LoggedOp::Insert { parent, name, text })
                }
                WalRecord::SignSet { .. } | WalRecord::SignClear { .. } => {}
                WalRecord::Commit { epoch } => last_epoch = epoch,
            }
        }
        let wal_path = config.wal_path();
        let Some((marked_tag, mode_tag)) = meta else {
            return Err(corrupt(format!(
                "wal {} holds no Meta record; cannot recover",
                wal_path.display()
            )));
        };
        let Some(backend_tag) = marked_tag.strip_suffix(OP_LOG).map(str::to_string) else {
            return Err(corrupt(format!(
                "wal {} (backend `{marked_tag}`) predates operation-only logs; \
                 cannot recover, remove the data dir",
                wal_path.display()
            )));
        };
        if backend_tag != b.name() {
            return Err(corrupt(format!(
                "wal written by backend `{backend_tag}` cannot recover backend `{}`",
                b.name()
            )));
        }
        wal.truncate_tail().map_err(storage_error)?;
        system.load(b)?;
        for op in &ops {
            op.replay(b)?;
        }
        system.annotate(b)?;
        b.advance_epoch(last_epoch);
        // The recovered state is the committed one: the next
        // transaction's `sign_changes` diffs against it.
        b.sign_changes()?;
        let committed_signs = b.sign_state()?;
        let report = RecoveryReport {
            backend: backend_tag,
            mode: mode_tag,
            ops_replayed: ops.len(),
            sign_entries: committed_signs.len(),
            last_epoch,
            wal_truncated_bytes: wal.stats().truncated_bytes,
        };
        let sync = config.sync;
        Ok((Durability { wal, committed_signs, last_epoch, plan, sync }, report))
    }

    /// Fire a pre-commit storage fault: error or panic, exactly like
    /// [`FaultingBackend`](xac_core::FaultingBackend)'s points, so the
    /// engine's ladder handles both the same way.
    fn fail(point: FaultPoint, action: FaultAction) -> Result<()> {
        xac_obs::instant(&format!("fault:{}", point.name()));
        match action {
            FaultAction::Error => Err(Error::FaultInjected { point: point.name().to_string() }),
            FaultAction::Panic => panic!("{}", injected_panic_message(point)),
        }
    }

    /// Commit one guarded transaction from the backend's full
    /// post-update [`Backend::sign_state`] `new_signs`: the diff against
    /// the committed map, then [`Durability::commit`]. The serving
    /// engine commits [`Backend::sign_changes`] directly instead.
    pub fn log_txn(
        &mut self,
        op: &LoggedOp,
        new_signs: &BTreeMap<i64, char>,
        epoch: u64,
    ) -> Result<SignDiff> {
        let diff = SignDiff::between(&self.committed_signs, new_signs);
        self.commit(op, &diff, epoch)?;
        Ok(diff)
    }

    /// The protocol in the [module docs](self). `diff` takes the
    /// committed sign map to the backend's post-update state (it patches
    /// the map and is not logged); `epoch` is the post-update epoch. On
    /// `Ok` the transaction is durable; on `Err` it is not, and the
    /// caller must roll the backend back to the previous commit.
    pub fn commit(&mut self, op: &LoggedOp, diff: &SignDiff, epoch: u64) -> Result<()> {
        // Lazy cleanup: a previous transaction that failed pre-commit
        // left its records as a dead tail. Dropping it here (not at
        // failure time) keeps the on-disk state at a crash instant
        // identical to what the crash left.
        self.wal.abort_to_last_commit().map_err(storage_error)?;
        let record = op.to_record();
        if let Some(action) = self.plan.fire_at(FaultPoint::WalMidRecord) {
            // Crash mid-append: half a frame, then the failure.
            self.wal.append_torn(&record).map_err(storage_error)?;
            Durability::fail(FaultPoint::WalMidRecord, action)?;
        }
        if let Some(action) = self.plan.fire_at(FaultPoint::WalBeforeCommit) {
            // The operation record written, no commit boundary: a
            // reopen must treat the transaction as an implicit abort.
            self.wal.append(&record).map_err(storage_error)?;
            Durability::fail(FaultPoint::WalBeforeCommit, action)?;
        }
        {
            // The durability point itself — the operation and commit
            // records in one write, then the fsync — gets its own span so
            // a trace shows how much of a guarded update was spent
            // waiting on stable storage.
            let _span = xac_obs::span("wal.commit");
            self.wal.commit_batch([record], epoch, self.sync).map_err(storage_error)?;
        }
        diff.apply_to(&mut self.committed_signs);
        self.last_epoch = epoch;
        Ok(())
    }

    /// Sign map as of the last committed transaction.
    pub fn committed_signs(&self) -> &BTreeMap<i64, char> {
        &self.committed_signs
    }

    /// Epoch of the last committed transaction.
    pub fn last_epoch(&self) -> u64 {
        self.last_epoch
    }

    /// The log's counters.
    pub fn wal_stats(&self) -> WalStats {
        self.wal.stats()
    }

    /// All-zero buffer-pool counters: there is no page store. Kept
    /// for the benchmark ledger's `store.pool_hit_ratio` (which reads
    /// 1.0) until the ledger drops it.
    pub fn pager_stats(&self) -> PagerStats {
        PagerStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_diff_between_maps() {
        let old: BTreeMap<i64, char> = [(1, '+'), (2, '-'), (3, '+')].into();
        let new: BTreeMap<i64, char> = [(1, '+'), (2, '+'), (4, '-')].into();
        let diff = SignDiff::between(&old, &new);
        assert_eq!(diff.set, vec![(2, '+'), (4, '-')]);
        assert_eq!(diff.clear, vec![3]);
        assert_eq!(diff.len(), 3);
        assert!(SignDiff::between(&new, &new).is_empty());
    }

    /// The lookup implementation the merge walk replaced, kept as the
    /// oracle.
    fn between_by_lookup(old: &BTreeMap<i64, char>, new: &BTreeMap<i64, char>) -> SignDiff {
        let mut diff = SignDiff::default();
        for (&id, &sign) in new {
            if old.get(&id) != Some(&sign) {
                diff.set.push((id, sign));
            }
        }
        for &id in old.keys() {
            if !new.contains_key(&id) {
                diff.clear.push(id);
            }
        }
        diff
    }

    #[test]
    fn merge_walk_matches_the_lookup_oracle_on_random_maps() {
        let mut state = 0x5eed_d1ffu64;
        let mut next = |bound: u64| xac_obs::splitmix64(&mut state) % bound;
        let mut random_map = |len: u64, ids: std::ops::Range<i64>| -> BTreeMap<i64, char> {
            (0..len)
                .map(|_| {
                    let id = ids.start + next((ids.end - ids.start) as u64) as i64;
                    (id, if next(2) == 0 { '+' } else { '-' })
                })
                .collect()
        };
        let mut pairs: Vec<(BTreeMap<i64, char>, BTreeMap<i64, char>)> = Vec::new();
        for _ in 0..50 {
            let a = random_map(40, 0..60);
            pairs.push((BTreeMap::new(), BTreeMap::new()));
            pairs.push((a.clone(), BTreeMap::new()));
            pairs.push((BTreeMap::new(), a.clone()));
            pairs.push((a.clone(), a.clone()));
            pairs.push((a.clone(), random_map(40, 100..160)));
            pairs.push((random_map(40, 100..160), a.clone()));
            let b = random_map(40, 0..60);
            pairs.push((a, b));
        }
        for (old, new) in &pairs {
            assert_eq!(SignDiff::between(old, new), between_by_lookup(old, new), "{old:?} -> {new:?}");
        }
        let overlapping = pairs.iter().filter(|(o, n)| {
            let d = SignDiff::between(o, n);
            !d.set.is_empty() && !d.clear.is_empty() && o.keys().any(|k| n.contains_key(k))
        });
        assert!(overlapping.count() >= 40, "the overlapping pairs exercise all three cases");
    }

    fn system() -> std::sync::Arc<System> {
        let policy = xac_policy::policy::hospital_policy();
        let doc = xac_xmlgen::figure2_document();
        let system = System::builder(xac_xmlgen::hospital_schema(), policy, doc)
            .annotate_mode(xac_core::AnnotateMode::Compiled)
            .build()
            .unwrap();
        std::sync::Arc::new(system)
    }

    fn data_dir(name: &str, kind: crate::BackendKind) -> DurabilityConfig {
        let dir = std::env::temp_dir().join(format!(
            "xac_durable_unit_{name}_{}_{}",
            kind.cli_name(),
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        DurabilityConfig::new(dir)
    }

    fn engine_signs(engine: &crate::ServeEngine) -> BTreeMap<i64, char> {
        engine.with_writer(|b| b.sign_state().unwrap()).unwrap()
    }

    fn committed(engine: &crate::ServeEngine) -> BTreeMap<i64, char> {
        engine.with_durability(|d| d.committed_signs().clone()).unwrap()
    }

    #[test]
    fn log_txn_commits_the_diff_from_the_committed_map() {
        let config = data_dir("log_txn", crate::BackendKind::Native);
        std::fs::create_dir_all(&config.data_dir).unwrap();
        let old: BTreeMap<i64, char> = [(1, '+'), (2, '-'), (3, '+')].into();
        let new: BTreeMap<i64, char> = [(1, '+'), (2, '+'), (4, '-')].into();
        let mut dur =
            Durability::fresh(&config, FaultPlan::new(), "native/xml", "compiled", &old, 1)
                .unwrap();
        let op = LoggedOp::Delete { path: "//regular".to_string() };
        let before = dur.wal_stats();
        let diff = dur.log_txn(&op, &new, 2).unwrap();
        assert_eq!(diff, SignDiff::between(&old, &new));
        assert_eq!(dur.committed_signs(), &new, "patched in place to the new map");
        let after = dur.wal_stats();
        assert_eq!(after.records_appended - before.records_appended, 2, "op and commit");
        assert_eq!(after.fsyncs - before.fsyncs, 1);
        drop(dur);
        let (_, records) = Wal::open(&config.wal_path()).unwrap();
        let meta = WalRecord::Meta {
            backend: format!("native/xml{OP_LOG}"),
            mode: "compiled".to_string(),
        };
        let logged = [meta, WalRecord::Commit { epoch: 1 }, op.to_record(), WalRecord::Commit { epoch: 2 }];
        assert_eq!(records, logged, "the log holds operations, never signs");
        let _ = std::fs::remove_dir_all(&config.data_dir);
    }

    /// Seeded guarded updates on a durable engine, with full
    /// re-annotations and snapshots run outside any transaction in
    /// between (as a policy reload runs them): after every step the
    /// committed map the diffs were patched into is the writer's sign
    /// state, and a reopen recovers it byte-identically.
    #[test]
    fn drained_diffs_keep_the_committed_map_equal_to_the_writer() {
        let deletes = ["//regular", "//experimental", "//patient[psn = \"042\"]/name", "//bill"];
        let inserts = [("//patient[psn = \"099\"]", "treatment"), ("//treatment", "regular")];
        for kind in crate::BackendKind::ALL {
            let config = data_dir("drained", kind);
            let system = system();
            let engine = crate::ServeEngine::durable(system.clone(), kind, &config).unwrap();
            let mut rng = xac_xmlgen::SplitMix64::seed_from_u64(0x10c_d1ff);
            for i in 0..24 {
                match rng.gen_range(0..3) {
                    0 => {
                        let path = deletes[rng.gen_range(0..deletes.len())];
                        engine.guarded_delete(&xac_xpath::parse(path).unwrap()).unwrap();
                    }
                    1 => {
                        let (parent, name) = inserts[rng.gen_range(0..inserts.len())];
                        let parent = xac_xpath::parse(parent).unwrap();
                        engine.guarded_insert(&parent, name, None).unwrap();
                    }
                    _ => {
                        engine.with_writer(|b| system.full_reannotate(b)).unwrap().unwrap();
                        engine.with_writer(|b| b.snapshot().map(drop)).unwrap().unwrap();
                    }
                }
                assert_eq!(committed(&engine), engine_signs(&engine), "{kind} step {i}");
            }
            assert!(engine.metrics().updates_applied >= 4, "{kind}: the walk commits");
            let signs = engine_signs(&engine);
            drop(engine);
            let reopened = crate::ServeEngine::durable(system, kind, &config).unwrap();
            assert_eq!(engine_signs(&reopened), signs, "{kind}: byte-identical reopen");
            assert_eq!(committed(&reopened), signs, "{kind}");
            let _ = std::fs::remove_dir_all(&config.data_dir);
        }
    }

    #[test]
    fn storage_plan_split_partitions_by_point() {
        let plan = FaultPlan::parse(
            "wal_before_commit:panic,after_delete,wal_mid_record,net_slow_client",
        )
        .unwrap();
        let (storage, rest) = split_storage_plan(&plan);
        assert_eq!(storage.specs().len(), 2);
        assert!(storage.specs().iter().all(|s| s.point.is_storage()));
        assert_eq!(rest.specs().len(), 2);
        assert!(rest.specs().iter().all(|s| !s.point.is_storage()));
    }
}
