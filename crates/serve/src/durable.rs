//! The durability layer: crash-consistent guarded updates over
//! `xac-store` (DESIGN.md §4i).
//!
//! A [`Durability`] pairs one write-ahead [`Wal`] with one
//! [`SignPageStore`] and composes them into the commit protocol the
//! engine runs for each guarded transaction. [`Durability::commit`] is
//! the transaction's last faultable step:
//!
//! 1. truncate any dead tail left by an earlier failure
//!    ([`Wal::abort_to_last_commit`] — cleanup is lazy, so the on-disk
//!    state at a crash instant *is* the crash state);
//! 2. write the structural operation record and one
//!    `SignSet`/`SignClear` record per entry of the transaction's
//!    [`SignDiff`] — framed into one buffer, one `write`;
//! 3. append the `Commit` boundary and fsync — **the durability
//!    point** — and patch the in-memory committed sign map with the
//!    diff.
//!
//! The engine runs it after it has staged the rollback checkpoint and
//! the new snapshot, so a failure before step 3 leaves the log on the
//! previous commit and the engine's rollback is the same checkpoint
//! restore the volatile engine runs. After publishing, the engine calls
//! [`Durability::write_behind`]:
//!
//! 4. write the diff's entries into the slotted pages and flush the
//!    dirty ones — O(diff). Its errors and panics are absorbed and
//!    counted (`xac_wal_post_commit_errors_total`): the commit is
//!    durable and a reopen repairs the pages from the log.
//!
//! The engine gets the diff from [`Backend::sign_changes`], so no step
//! touches the whole sign map. The four storage fault points
//! ([`FaultPoint::STORAGE`]) land exactly on those seams:
//! `wal_mid_record` and `wal_before_commit` pre-commit,
//! `page_torn_write` and `checkpoint_mid_flush` in the write-behind.
//!
//! The very first annotation is logged as the log's first transaction
//! (`Meta` + the full sign map + `Commit`), so recovery never re-runs
//! annotation: [`Durability::recover`] — the only log replay — reloads
//! the document, replays the structural operations in order, folds the
//! sign records into one map, and applies it wholesale via
//! [`Backend::apply_sign_state`].

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use xac_core::{
    injected_panic_message, Backend, Error, FaultAction, FaultPlan, FaultPoint, Result, System,
    Update,
};
use xac_store::{PagerStats, SignPageStore, StoreError, Wal, WalRecord, WalStats};

pub use xac_core::SignDiff;

/// Where and how the engine persists (CLI: `--data-dir`, `--wal`).
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding the log and page files (created if absent).
    pub data_dir: PathBuf,
    /// Fsync on every commit (`--wal sync`, the default) or leave
    /// durability to the OS (`--wal nosync`).
    pub sync: bool,
    /// Buffer-pool capacity of the page store, in pages.
    pub pool_pages: usize,
}

impl DurabilityConfig {
    /// A config with the default knobs (`sync`, 64-page pool).
    pub fn new(data_dir: impl Into<PathBuf>) -> DurabilityConfig {
        DurabilityConfig { data_dir: data_dir.into(), sync: true, pool_pages: 64 }
    }

    /// The write-ahead log file.
    pub fn wal_path(&self) -> PathBuf {
        self.data_dir.join("xmlac.wal")
    }

    /// The slotted-page sign-store file.
    pub fn pages_path(&self) -> PathBuf {
        self.data_dir.join("signs.pages")
    }
}

/// Wrap an `xac-store` failure as the core's structured storage error.
pub(crate) fn storage_error(e: StoreError) -> Error {
    Error::Storage { source_kind: e.kind.name().to_string(), context: e.context }
}

/// True when the log at `config.wal_path()` holds at least one
/// committed transaction — the boot-vs-recover decision. Opening the
/// log also truncates any torn tail, so a crash during the very first
/// (initial-annotation) transaction correctly reads as "no history"
/// and boots fresh.
pub(crate) fn has_committed_history(config: &DurabilityConfig) -> Result<bool> {
    if !config.wal_path().exists() {
        return Ok(false);
    }
    let (_, records) = Wal::open(&config.wal_path()).map_err(storage_error)?;
    Ok(!records.is_empty())
}

/// Partition a fault plan into (storage specs, everything else) — the
/// storage points are fired by [`Durability`] around its own WAL/page
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
    /// deterministic: both stores assign ids sequentially, so the same
    /// operation sequence over the same document reproduces the same
    /// id space the sign records refer to.
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

/// The mark `Meta`'s backend tag ends with: every backend keys its sign
/// records by arena slot. Logs written before relational universal ids
/// became slots keyed relational signs by pre-order rank and carry no
/// mark; [`Durability::recover`] refuses them rather than apply a rank's
/// sign to whatever element holds that slot now.
const SLOT_IDS: &str = "@slot-ids";

/// What a reopen found and repaired; surfaced by
/// [`ServeEngine::recovery`](crate::ServeEngine::recovery) and printed
/// by the CLI on restart.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Backend tag from the log's `Meta` record, without its
    /// `SLOT_IDS` mark.
    pub backend: String,
    /// Annotate-mode tag from the log's `Meta` record.
    pub mode: String,
    /// Structural operations replayed.
    pub ops_replayed: usize,
    /// Entries in the recovered sign map.
    pub sign_entries: usize,
    /// Epoch of the last committed transaction.
    pub last_epoch: u64,
    /// Torn/uncommitted bytes truncated from the log tail.
    pub wal_truncated_bytes: u64,
    /// Pages that failed their checksum and were rebuilt from the log.
    pub torn_pages_repaired: usize,
    /// Page entries changed while reconciling pages to the log's map.
    pub page_entries_repaired: usize,
}

/// One WAL + one page store + the committed sign map the next
/// transaction's diff is checked against. Owned by the engine behind a
/// mutex; every method runs under the writer lock's serialization.
pub struct Durability {
    wal: Wal,
    store: SignPageStore,
    /// Sign map as of the last committed transaction.
    committed_signs: BTreeMap<i64, char>,
    /// Epoch of the last committed transaction.
    last_epoch: u64,
    /// Armed storage fault points (see [`FaultPoint::STORAGE`]).
    plan: FaultPlan,
    sync: bool,
    /// Test hook: fail the next post-commit page write this way.
    #[cfg(test)]
    fail_next_page_write: Option<FaultAction>,
}

/// Post-commit page-write failures absorbed, process-wide.
fn post_commit_errors_total() -> &'static std::sync::Arc<xac_obs::Counter> {
    static C: std::sync::OnceLock<std::sync::Arc<xac_obs::Counter>> = std::sync::OnceLock::new();
    C.get_or_init(|| xac_obs::counter("xac_wal_post_commit_errors_total"))
}

impl Durability {
    /// Fresh boot: the backend was just loaded and fully annotated;
    /// log that state as the first transaction (`Meta` + the full sign
    /// map + `Commit`) and materialize it onto pages. Errors if the
    /// log already holds committed transactions — that state must go
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
            return Err(Error::Storage {
                source_kind: "corrupt".to_string(),
                context: format!(
                    "refusing to overwrite populated wal {} ({} committed records); \
                     recover it or remove the data dir",
                    config.wal_path().display(),
                    records.len()
                ),
            });
        }
        let backend = format!("{backend}{SLOT_IDS}");
        let meta = WalRecord::Meta { backend, mode: mode.to_string() };
        let sets = signs.iter().map(|(&id, &sign)| WalRecord::SignSet { id, sign });
        wal.append_batch(std::iter::once(meta).chain(sets)).map_err(storage_error)?;
        wal.commit(epoch, config.sync).map_err(storage_error)?;
        let mut store =
            SignPageStore::open(&config.pages_path(), config.pool_pages).map_err(storage_error)?;
        store.reconcile(signs).map_err(storage_error)?;
        store.flush().map_err(storage_error)?;
        Ok(Durability {
            wal,
            store,
            committed_signs: signs.clone(),
            last_epoch: epoch,
            plan,
            sync: config.sync,
            #[cfg(test)]
            fail_next_page_write: None,
        })
    }

    /// Reopen after a crash (or clean shutdown — same path): fold the
    /// committed records, check the `Meta` backend tag for the
    /// `SLOT_IDS` mark and against the backend being recovered,
    /// reload the document, replay the structural operations, apply the
    /// folded sign map wholesale, and repair the pages to it.
    pub fn recover(
        config: &DurabilityConfig,
        plan: FaultPlan,
        system: &System,
        b: &mut dyn Backend,
    ) -> Result<(Durability, RecoveryReport)> {
        let (wal, records) = Wal::open(&config.wal_path()).map_err(storage_error)?;
        let wal_truncated_bytes = wal.stats().truncated_bytes;
        let mut meta: Option<(String, String)> = None;
        let mut signs = BTreeMap::new();
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
                WalRecord::SignSet { id, sign } => {
                    signs.insert(id, sign);
                }
                WalRecord::SignClear { id } => {
                    signs.remove(&id);
                }
                WalRecord::Commit { epoch } => last_epoch = epoch,
            }
        }
        let Some((marked_tag, mode_tag)) = meta else {
            return Err(Error::Storage {
                source_kind: "corrupt".to_string(),
                context: format!(
                    "wal {} holds no Meta record; cannot recover",
                    config.wal_path().display()
                ),
            });
        };
        let Some(backend_tag) = marked_tag.strip_suffix(SLOT_IDS).map(str::to_string) else {
            return Err(Error::Storage {
                source_kind: "corrupt".to_string(),
                context: format!(
                    "wal {} (backend `{marked_tag}`) predates slot-keyed signs; \
                     cannot recover, remove the data dir",
                    config.wal_path().display()
                ),
            });
        };
        if backend_tag != b.name() {
            return Err(Error::Storage {
                source_kind: "corrupt".to_string(),
                context: format!(
                    "wal written by backend `{backend_tag}` cannot recover backend `{}`",
                    b.name()
                ),
            });
        }
        system.load(b)?;
        for op in &ops {
            op.replay(b)?;
        }
        b.apply_sign_state(&signs, last_epoch)?;
        let mut store =
            SignPageStore::open(&config.pages_path(), config.pool_pages).map_err(storage_error)?;
        let torn_pages_repaired = store.torn_pages().len();
        let page_entries_repaired = store.reconcile(&signs).map_err(storage_error)?;
        store.flush().map_err(storage_error)?;
        let report = RecoveryReport {
            backend: backend_tag,
            mode: mode_tag,
            ops_replayed: ops.len(),
            sign_entries: signs.len(),
            last_epoch,
            wal_truncated_bytes,
            torn_pages_repaired,
            page_entries_repaired,
        };
        Ok((
            Durability {
                wal,
                store,
                committed_signs: signs,
                last_epoch,
                plan,
                sync: config.sync,
                #[cfg(test)]
                fail_next_page_write: None,
            },
            report,
        ))
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
    /// the committed map, [`Durability::commit`], then
    /// [`Durability::write_behind`]. The serving engine commits
    /// [`Backend::sign_changes`] directly instead.
    pub fn log_txn(
        &mut self,
        op: &LoggedOp,
        new_signs: &BTreeMap<i64, char>,
        epoch: u64,
    ) -> Result<SignDiff> {
        let diff = SignDiff::between(&self.committed_signs, new_signs);
        self.commit(op, &diff, epoch)?;
        self.write_behind(&diff);
        Ok(diff)
    }

    /// Steps 1–3 of the protocol in the [module docs](self). `diff`
    /// takes the committed sign map to the backend's post-update state;
    /// `epoch` is its post-update epoch. On `Ok` the transaction is
    /// durable; on `Err` it is not, and the caller must roll the backend
    /// back to the previous commit. The pages are written by the
    /// following [`Durability::write_behind`].
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
        let sets = diff.set.iter().map(|&(id, sign)| WalRecord::SignSet { id, sign });
        let clears = diff.clear.iter().map(|&id| WalRecord::SignClear { id });
        self.wal
            .append_batch(std::iter::once(record).chain(sets).chain(clears))
            .map_err(storage_error)?;
        if let Some(action) = self.plan.fire_at(FaultPoint::WalBeforeCommit) {
            // Every record written, no commit boundary: a reopen must
            // treat the whole transaction as an implicit abort.
            Durability::fail(FaultPoint::WalBeforeCommit, action)?;
        }
        {
            // The durability point itself — the commit record + fsync —
            // gets its own span so a trace shows how much of a guarded
            // update was spent waiting on stable storage.
            let _span = xac_obs::span("wal.commit");
            self.wal.commit(epoch, self.sync).map_err(storage_error)?;
        }
        diff.apply_to(&mut self.committed_signs);
        self.last_epoch = epoch;
        Ok(())
    }

    /// Step 4, after the commit (and, in the engine, after the publish):
    /// write `diff` into the pages and flush them. Errors and panics are
    /// absorbed and counted, and post-commit fault actions are ignored
    /// (like the net layer's client points): failing here would answer
    /// "failed" for a durable update, and a client retry would apply it
    /// twice. The pages lag the log until the next reopen reconciles
    /// them.
    pub fn write_behind(&mut self, diff: &SignDiff) {
        let written = catch_unwind(AssertUnwindSafe(|| self.write_pages(diff)));
        if !matches!(written, Ok(Ok(()))) {
            xac_obs::instant("wal.post_commit_error");
            post_commit_errors_total().inc();
        }
    }

    fn write_pages(&mut self, diff: &SignDiff) -> std::result::Result<(), StoreError> {
        #[cfg(test)]
        match self.fail_next_page_write.take() {
            Some(FaultAction::Error) => {
                return Err(StoreError::new(
                    xac_store::StoreErrorKind::Io,
                    "injected post-commit page write failure",
                ))
            }
            Some(FaultAction::Panic) => panic!("injected post-commit page write panic"),
            None => {}
        }
        for &(id, sign) in &diff.set {
            self.store.put_sign(id, sign)?;
        }
        for &id in &diff.clear {
            self.store.clear_sign(id)?;
        }
        if self.plan.fire_at(FaultPoint::PageTornWrite).is_some() {
            xac_obs::instant("fault:page_torn_write");
            return self.store.tear_first_dirty_page().map(drop);
        }
        if self.plan.fire_at(FaultPoint::CheckpointMidFlush).is_some() {
            xac_obs::instant("fault:checkpoint_mid_flush");
            return self.store.flush_capped(1).map(drop);
        }
        self.store.flush().map(drop)
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

    /// The page store's buffer-pool counters.
    pub fn pager_stats(&self) -> PagerStats {
        self.store.pager_stats()
    }

    /// The durable page image's sign map (for audits; the pages lag the
    /// log only between a commit and its flush).
    pub fn page_sign_state(&self) -> BTreeMap<i64, char> {
        self.store.sign_state()
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

    /// An error or a panic in the write-behind page writes, both
    /// absorbed: the update is applied and published, and a reopen
    /// repairs the pages.
    #[test]
    fn a_page_write_failure_after_the_commit_does_not_fail_the_update() {
        let regular = xac_xpath::parse("//regular").unwrap();
        for kind in crate::BackendKind::ALL {
            for action in [FaultAction::Error, FaultAction::Panic] {
                let label = format!("{kind}/{}", action.name());
                let config = data_dir(&format!("post_commit_{}", action.name()), kind);
                let engine = crate::ServeEngine::durable(system(), kind, &config).unwrap();
                engine.with_durability(|d| d.fail_next_page_write = Some(action)).unwrap();
                let (errors, epoch) = (post_commit_errors_total().get(), engine.epoch());
                let update =
                    engine.guarded_delete(&regular).expect("a committed update succeeds");
                assert!(update.applied(), "{label}");
                assert!(engine.epoch() > epoch, "{label}: the committed state is published");
                assert!(post_commit_errors_total().get() > errors, "{label}: it is counted");
                let metrics = engine.metrics();
                assert_eq!((metrics.update_errors, metrics.rollbacks), (0, 0), "{label}");
                let signs = engine_signs(&engine);
                assert_eq!(committed(&engine), signs, "{label}");
                let pages = engine.with_durability(|d| d.page_sign_state()).unwrap();
                assert_ne!(pages, signs, "{label}: the pages lag the log");
                drop(engine);
                let reopened = crate::ServeEngine::durable(system(), kind, &config).unwrap();
                let report = reopened.recovery().unwrap();
                assert_eq!(report.ops_replayed, 1, "{label}: the update is durable, once");
                assert!(report.page_entries_repaired > 0, "{label}: reopen repairs the pages");
                assert_eq!(engine_signs(&reopened), signs, "{label}");
                assert_eq!(reopened.with_durability(|d| d.page_sign_state()).unwrap(), signs);
                let _ = std::fs::remove_dir_all(&config.data_dir);
            }
        }
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
        let before = dur.wal_stats().records_appended;
        let diff = dur.log_txn(&op, &new, 2).unwrap();
        assert_eq!(diff, SignDiff::between(&old, &new));
        assert_eq!(dur.committed_signs(), &new, "patched in place to the new map");
        assert_eq!(dur.page_sign_state(), new);
        let appended = dur.wal_stats().records_appended - before;
        assert_eq!(appended, 1 + 3 + 1, "op, three entries, commit");
        drop(dur);
        let (_, records) = Wal::open(&config.wal_path()).unwrap();
        let mut folded = BTreeMap::new();
        for record in records {
            match record {
                WalRecord::SignSet { id, sign } => drop(folded.insert(id, sign)),
                WalRecord::SignClear { id } => drop(folded.remove(&id)),
                _ => {}
            }
        }
        assert_eq!(folded, new, "the log folds to the committed map");
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
            "wal_before_commit:panic,after_delete,page_torn_write,net_slow_client",
        )
        .unwrap();
        let (storage, rest) = split_storage_plan(&plan);
        assert_eq!(storage.specs().len(), 2);
        assert!(storage.specs().iter().all(|s| s.point.is_storage()));
        assert_eq!(rest.specs().len(), 2);
        assert!(rest.specs().iter().all(|s| !s.point.is_storage()));
    }
}
