//! Kill-and-reopen crash-recovery acceptance suite (DESIGN.md §4i).
//!
//! The log holds operations only; a reopen reloads the document,
//! replays them and annotates once. The invariant: for every storage
//! fault point (`wal_mid_record`, `wal_before_commit`), at every
//! transaction position, on all three backends, killing the process at
//! the fault instant and reopening the data dir recovers a
//! `sign_state()` **byte-identical** to an uncrashed reference run that
//! lost exactly the crashed transaction, and the committed sign map the
//! engine patched equals it.
//!
//! The direct harness drives [`Durability`] itself so the on-disk bytes
//! at the fault instant are exactly what a crash leaves (cleanup is
//! lazy). The engine-level tests check the same seams through the
//! serving ladder: a WAL fault rolls back by restoring the last-good
//! checkpoint (the log is replayed only at reopen), quarantine does not
//! outlive a reopen, and recovery is idempotent. Further tests pin what
//! the log format promises: an older log is refused and left as it was,
//! a reopen under a changed policy serves the new policy, and a commit
//! appends the same bytes and one fsync whatever the document's size.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use xac_core::{Backend, Error, FaultAction, FaultPlan, FaultPoint, FaultSpec, System, Update};
use xac_policy::policy::hospital_policy;
use xac_serve::{
    BackendKind, Durability, DurabilityConfig, LoggedOp, Request, Response, ServeEngine,
    SignDiff,
};
use xac_store::{Wal, WalRecord};
use xac_xmlgen::{figure2_document, hospital_schema};

fn system() -> System {
    System::builder(hospital_schema(), hospital_policy(), figure2_document())
        .build()
        .unwrap()
}

/// Fresh scratch dir per scenario; stale state from a previous run is
/// removed so reopen tests never recover someone else's WAL.
fn data_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("xac_durability_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The committed transaction sequence: the three guaranteed-applied
/// guarded updates of the fault_recovery sweep sequence.
fn txns() -> Vec<LoggedOp> {
    vec![
        LoggedOp::Insert {
            parent: "//patient[psn = \"099\"]".to_string(),
            name: "treatment".to_string(),
            text: None,
        },
        LoggedOp::Delete { path: "//regular".to_string() },
        LoggedOp::Delete { path: "//patient[psn = \"042\"]/name".to_string() },
    ]
}

/// Apply one logged op through the system's guarded-update path (access
/// check + update + partial re-annotation), asserting it applies.
fn apply_txn(s: &System, b: &mut dyn Backend, op: &LoggedOp) {
    let update = Update::try_from(op).unwrap();
    assert!(s.guarded(b, &update).unwrap().applied(), "sequence ops must apply");
}

/// Drive one logged op through the engine's write path.
fn engine_txn(engine: &ServeEngine, op: &LoggedOp) -> xac_core::Result<bool> {
    let g = match op {
        LoggedOp::Delete { path } => engine.guarded_delete(&xac_xpath::parse(path).unwrap())?,
        LoggedOp::Insert { parent, name, text } => {
            engine.guarded_insert(&xac_xpath::parse(parent).unwrap(), name, text.as_deref())?
        }
    };
    Ok(g.applied())
}

fn engine_signs(engine: &ServeEngine) -> BTreeMap<i64, char> {
    engine.with_writer(|b| b.sign_state().unwrap()).unwrap()
}

/// Uncrashed reference: `states[i]` is the sign state after `i`
/// committed transactions (index 0 = the initial annotation).
fn reference_states(kind: BackendKind) -> Vec<BTreeMap<i64, char>> {
    let s = system();
    let mut b = kind.make(s.annotate_mode());
    s.load(b.as_mut()).unwrap();
    s.annotate(b.as_mut()).unwrap();
    let mut states = vec![b.sign_state().unwrap()];
    for op in txns() {
        apply_txn(&s, b.as_mut(), &op);
        states.push(b.sign_state().unwrap());
    }
    states
}

/// One kill-and-reopen cycle: crash at `point` while committing
/// transaction index `crash_at`, reopen, and return the recovered
/// backend's sign state (asserting the recovered committed map agrees
/// with it).
fn crash_and_recover(
    kind: BackendKind,
    point: FaultPoint,
    crash_at: usize,
    name: &str,
) -> BTreeMap<i64, char> {
    let dir = data_dir(name);
    std::fs::create_dir_all(&dir).unwrap();
    let config = DurabilityConfig::new(&dir);
    {
        let s = system();
        let mut b = kind.make(s.annotate_mode());
        s.load(b.as_mut()).unwrap();
        s.annotate(b.as_mut()).unwrap();
        let plan = FaultPlan::new()
            .with(FaultSpec::once(point, FaultAction::Error).skip(crash_at as u32));
        let mut dur = Durability::fresh(
            &config,
            plan,
            b.name(),
            s.annotate_mode().name(),
            &b.sign_state().unwrap(),
            b.epoch(),
        )
        .unwrap();
        // The logged boot state is the baseline; each transaction then
        // logs the drained changes, as the engine does.
        b.sign_changes().unwrap();
        for (i, op) in txns().iter().take(crash_at + 1).enumerate() {
            apply_txn(&s, b.as_mut(), op);
            let diff = b.sign_changes().unwrap();
            let signs = b.sign_state().unwrap();
            assert_eq!(diff, SignDiff::between(dur.committed_signs(), &signs), "{name}: txn {i}");
            match dur.commit(op, &diff, b.epoch()) {
                Ok(()) => assert!(i < crash_at, "{name}: the fault must fail txn {crash_at}"),
                Err(e) => {
                    assert_eq!(i, crash_at, "{name}: fault fired at the wrong txn");
                    assert!(
                        matches!(e, Error::FaultInjected { .. }),
                        "{name}: expected the injected fault, got {e}"
                    );
                }
            }
        }
        // Kill: drop with no cleanup. The dead WAL tail is left exactly
        // as the fault wrote it.
    }
    let s = system();
    let mut b = kind.make(s.annotate_mode());
    let (dur, report) =
        Durability::recover(&config, FaultPlan::new(), &s, b.as_mut()).unwrap();
    let recovered = b.sign_state().unwrap();
    assert_eq!(report.backend, b.name(), "{name}");
    assert_eq!(
        dur.committed_signs(),
        &recovered,
        "{name}: the committed map diverged from the recovered backend"
    );
    assert_eq!(report.sign_entries, recovered.len(), "{name}");
    assert_eq!(report.ops_replayed, crash_at, "{name}: the crashed txn is not replayed");
    assert!(report.wal_truncated_bytes > 0, "{name}: the dead tail is truncated");
    recovered
}

fn kill_and_reopen_sweep(kind: BackendKind) {
    let reference = reference_states(kind);
    for point in FaultPoint::STORAGE {
        // `reference[i]` follows `i` commits; the last has no txn to crash.
        for (crash_at, expected) in reference.iter().enumerate().take(txns().len()) {
            let name = format!("{}_{}_{crash_at}", kind.cli_name(), point.name());
            let recovered = crash_and_recover(kind, point, crash_at, &name);
            // Every storage point fires before the commit record: the
            // crash loses exactly the in-flight txn.
            assert_eq!(
                &recovered, expected,
                "{name}: recovered sign state diverged from the uncrashed \
                 reference after {crash_at} txns"
            );
        }
    }
}

#[test]
fn kill_and_reopen_sweep_native() {
    kill_and_reopen_sweep(BackendKind::Native);
}

#[test]
fn kill_and_reopen_sweep_row() {
    kill_and_reopen_sweep(BackendKind::Row);
}

#[test]
fn kill_and_reopen_sweep_column() {
    kill_and_reopen_sweep(BackendKind::Column);
}

/// Clean shutdown + reopen through the engine: recovery replays the ops,
/// annotates once, and serves the exact pre-shutdown state.
#[test]
fn durable_engine_reopens_byte_identical() {
    for kind in BackendKind::ALL {
        let dir = data_dir(&format!("engine_reopen_{}", kind.cli_name()));
        let config = DurabilityConfig::new(&dir);
        let (golden, epoch_before) = {
            let engine =
                ServeEngine::durable(Arc::new(system()), kind, &config).unwrap();
            assert!(engine.is_durable());
            assert!(engine.recovery().is_none(), "a fresh boot recovers nothing");
            let ops = txns();
            assert!(engine_txn(&engine, &ops[0]).unwrap());
            // Denied updates commit nothing and log nothing (the two
            // denied ops of the canonical sequence, at their usual
            // positions).
            let denied =
                engine.guarded_delete(&xac_xpath::parse("//med").unwrap()).unwrap();
            assert!(!denied.applied());
            assert!(engine_txn(&engine, &ops[1]).unwrap());
            let denied = engine
                .guarded_insert(&xac_xpath::parse("//treatment").unwrap(), "regular", None)
                .unwrap();
            assert!(!denied.applied());
            assert!(engine_txn(&engine, &ops[2]).unwrap());
            let (wal, _pager) = engine.storage_stats().unwrap();
            // The boot is txn 1 (`Meta` + `Commit`); then one operation
            // record and one commit per applied guarded update.
            assert_eq!(wal.commits, 4, "{kind}");
            assert_eq!(wal.records_appended, 2 + 3 * 2, "{kind}: no sign is logged");
            (engine_signs(&engine), engine.epoch())
        };
        let engine = ServeEngine::durable(Arc::new(system()), kind, &config).unwrap();
        let report = engine.recovery().expect("a reopen must recover");
        assert_eq!(report.ops_replayed, 3, "{kind}");
        assert_eq!(report.wal_truncated_bytes, 0, "clean shutdown leaves no tail");
        assert_eq!(report.sign_entries, golden.len(), "{kind}");
        assert_eq!(engine_signs(&engine), golden, "{kind}: reopened state diverged");
        assert!(engine.epoch() >= epoch_before, "epochs never regress across reopen");
        assert!(matches!(
            engine.serve(&Request::query("//patient/name")),
            Response::Decision { granted: true, .. }
        ));
    }
}

/// The ladder's rollback rung on a durable engine: a WAL fault fails the
/// transaction, the engine restores its last-good checkpoint (the log is
/// not replayed), and the retry succeeds. Both actions; a reopen agrees.
#[test]
fn wal_faults_roll_back_by_restoring_the_checkpoint() {
    let reference = reference_states(BackendKind::Native);
    for (point, action) in [
        ("wal_before_commit", "error"),
        ("wal_mid_record", "error"),
        ("wal_before_commit", "panic"),
        ("wal_mid_record", "panic"),
    ] {
        let label = format!("{point}:{action}");
        let dir = data_dir(&format!("ladder_{point}_{action}"));
        let config = DurabilityConfig::new(&dir);
        let plan = FaultPlan::parse(&label).unwrap();
        {
            let engine = ServeEngine::durable_with_faults(
                Arc::new(system()),
                BackendKind::Native,
                &config,
                plan,
            )
            .unwrap();
            let ops = txns();
            let err = engine_txn(&engine, &ops[0]).unwrap_err();
            // Injected errors and injected panics both keep their
            // classification through the ladder.
            assert!(matches!(err, Error::FaultInjected { .. }), "{label}: {err}");
            assert!(!engine.quarantined(), "{label}: the rollback rung must recover");
            let m = engine.metrics();
            assert_eq!(m.update_errors, 1, "{label}");
            assert_eq!(m.rollbacks, 1, "{label}: the restore rung ran");
            assert_eq!(
                engine_signs(&engine),
                reference[0],
                "{label}: rolled-back state must equal the initial annotation"
            );
            // The one-shot fault is spent: the retry applies and the
            // rest of the sequence lands.
            for op in &ops {
                assert!(engine_txn(&engine, op).unwrap(), "{label}");
            }
            assert_eq!(engine_signs(&engine), *reference.last().unwrap(), "{label}");
        }
        let engine =
            ServeEngine::durable(Arc::new(system()), BackendKind::Native, &config)
                .unwrap();
        assert_eq!(
            engine_signs(&engine),
            *reference.last().unwrap(),
            "{label}: reopen after the faulted run diverged"
        );
    }
}

/// A WAL written by one backend refuses to recover another — the
/// checkpoint backend-tag-mismatch matrix, ported to the durable path.
#[test]
fn recovery_rejects_backend_tag_mismatch() {
    let dir = data_dir("tag_mismatch");
    let config = DurabilityConfig::new(&dir);
    drop(ServeEngine::durable(Arc::new(system()), BackendKind::Native, &config).unwrap());
    let mode = system().annotate_mode();
    for wrong in [BackendKind::Row, BackendKind::Column] {
        let err = match ServeEngine::durable(Arc::new(system()), wrong, &config) {
            Err(e) => e,
            Ok(_) => panic!("{} must not recover a native wal", wrong.cli_name()),
        };
        match &err {
            Error::Storage { source_kind, context } => {
                assert_eq!(source_kind, "corrupt");
                assert!(context.contains("native/xml"), "{context}");
                assert!(context.contains(wrong.make(mode).name()), "{context}");
            }
            other => panic!("expected a storage error, got {other}"),
        }
    }
    // The matching backend still recovers.
    let engine =
        ServeEngine::durable(Arc::new(system()), BackendKind::Native, &config).unwrap();
    assert!(engine.recovery().is_some());
}

/// A log written before relational universal ids became arena slots
/// keyed relational signs by pre-order rank, and its `Meta` backend tag
/// carries no mark at all. Recovery refuses such a log (the CLI exits
/// 8) on every backend.
#[test]
fn recovery_refuses_a_log_without_the_slot_id_mark() {
    for kind in BackendKind::ALL {
        let dir = data_dir(&format!("unmarked_{}", kind.cli_name()));
        let config = DurabilityConfig::new(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let s = system();
        let (mut wal, _) = Wal::open(&config.wal_path()).unwrap();
        let meta = WalRecord::Meta {
            backend: kind.make(s.annotate_mode()).name().to_string(),
            mode: s.annotate_mode().name().to_string(),
        };
        wal.append_batch([meta, WalRecord::SignSet { id: 1, sign: '+' }]).unwrap();
        wal.commit(1, true).unwrap();
        drop(wal);
        let err = match ServeEngine::durable(Arc::new(s), kind, &config) {
            Err(e) => e,
            Ok(_) => panic!("{}: an unmarked wal must not recover", kind.cli_name()),
        };
        match &err {
            Error::Storage { source_kind, context } => {
                assert_eq!(source_kind, "corrupt");
                assert!(context.contains("predates operation-only logs"), "{context}");
            }
            other => panic!("expected a storage error, got {other}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Booting fresh over a populated WAL is refused rather than silently
/// truncating history.
#[test]
fn fresh_refuses_a_populated_wal() {
    let dir = data_dir("fresh_refuses");
    let config = DurabilityConfig::new(&dir);
    drop(ServeEngine::durable(Arc::new(system()), BackendKind::Row, &config).unwrap());
    let s = system();
    let mut b = BackendKind::Row.make(s.annotate_mode());
    s.load(b.as_mut()).unwrap();
    s.annotate(b.as_mut()).unwrap();
    let err = match Durability::fresh(
        &config,
        FaultPlan::new(),
        b.name(),
        s.annotate_mode().name(),
        &b.sign_state().unwrap(),
        b.epoch(),
    ) {
        Err(e) => e,
        Ok(_) => panic!("fresh must refuse a populated wal"),
    };
    assert!(
        matches!(&err, Error::Storage { source_kind, .. } if source_kind == "corrupt"),
        "{err}"
    );
}

/// Quarantine is an in-memory verdict; the durable state is the log. A
/// reopen after quarantine comes up clean, serving the last committed
/// transaction — the durable analogue of "restore while quarantined".
#[test]
fn quarantine_does_not_survive_reopen() {
    let dir = data_dir("quarantine");
    let config = DurabilityConfig::new(&dir);
    // Txn 1 (a delete) commits. Txn 2 trips the WAL fault; its rollback
    // trips `before_restore` — the restore fails and the ladder is out
    // of rungs.
    let plan = FaultPlan::parse("wal_before_commit:error+1,before_restore:error").unwrap();
    let golden = {
        let engine = ServeEngine::durable_with_faults(
            Arc::new(system()),
            BackendKind::Native,
            &config,
            plan,
        )
        .unwrap();
        let del = xac_xpath::parse("//regular").unwrap();
        assert!(engine.guarded_delete(&del).unwrap().applied());
        let golden = engine_signs(&engine);
        let parent = xac_xpath::parse("//patient[psn = \"099\"]").unwrap();
        let err = engine.guarded_insert(&parent, "treatment", None).unwrap_err();
        assert!(matches!(err, Error::Quarantined { .. }), "{err}");
        assert!(engine.quarantined());
        // Reads outlive the quarantine; writes are rejected.
        assert!(matches!(
            engine.serve(&Request::query("//patient/name")),
            Response::Decision { .. }
        ));
        let rejected = engine.guarded_delete(&del).unwrap_err();
        assert!(matches!(rejected, Error::Quarantined { .. }));
        assert_eq!(engine.metrics().quarantines, 1);
        golden
    };
    let engine =
        ServeEngine::durable(Arc::new(system()), BackendKind::Native, &config).unwrap();
    assert!(!engine.quarantined(), "quarantine must not persist across reopen");
    assert_eq!(engine.recovery().unwrap().ops_replayed, 1);
    assert_eq!(engine_signs(&engine), golden, "reopen serves the last committed state");
    // And the reopened engine accepts writes again.
    let parent = xac_xpath::parse("//patient[psn = \"099\"]").unwrap();
    assert!(engine.guarded_insert(&parent, "treatment", None).unwrap().applied());
}

/// Recovering the same data dir twice is idempotent — the
/// double-restore edge case on the WAL path.
#[test]
fn double_recover_is_idempotent() {
    let dir = data_dir("double_recover");
    let config = DurabilityConfig::new(&dir);
    {
        let engine =
            ServeEngine::durable(Arc::new(system()), BackendKind::Row, &config).unwrap();
        for op in txns() {
            assert!(engine_txn(&engine, &op).unwrap());
        }
    }
    let (first_signs, first_replayed) = {
        let engine =
            ServeEngine::durable(Arc::new(system()), BackendKind::Row, &config).unwrap();
        (engine_signs(&engine), engine.recovery().unwrap().ops_replayed)
    };
    let engine =
        ServeEngine::durable(Arc::new(system()), BackendKind::Row, &config).unwrap();
    assert_eq!(
        engine.recovery().unwrap().ops_replayed,
        first_replayed,
        "the second recover replays the same ops"
    );
    assert_eq!(
        engine_signs(&engine),
        first_signs,
        "the second recover reaches the same state"
    );
}

/// Every committed prefix is recoverable through the engine: dropping
/// the engine *is* the shutdown (there is no flush-on-exit hook), so
/// after any number of applied updates a reopen must land exactly on
/// that prefix of the reference run.
#[test]
fn every_committed_prefix_is_recoverable() {
    let dir = data_dir("prefix");
    let config = DurabilityConfig::new(&dir);
    let reference = reference_states(BackendKind::Native);
    let ops = txns();
    for (committed, expected) in reference.iter().enumerate().skip(1) {
        let _ = std::fs::remove_dir_all(&dir);
        {
            let engine =
                ServeEngine::durable(Arc::new(system()), BackendKind::Native, &config)
                    .unwrap();
            for op in ops.iter().take(committed) {
                assert!(engine_txn(&engine, op).unwrap());
            }
        }
        let engine =
            ServeEngine::durable(Arc::new(system()), BackendKind::Native, &config)
                .unwrap();
        assert_eq!(
            &engine_signs(&engine),
            expected,
            "a prefix of {committed} committed txns must recover exactly"
        );
        assert_eq!(engine.recovery().unwrap().ops_replayed, committed);
    }
}

/// The log a data directory held before signs were re-derived at
/// reopen: `Meta` under the `@slot-ids` mark, the boot's whole sign
/// state as `SignSet` records, `Commit`; then per update an operation
/// record, its sign diff and `Commit`. `first_txn_signs` sets the size
/// of the boot transaction; a real fresh boot logs one entry per signed
/// node, tens of thousands at benchmark scale.
fn write_sign_record_log(config: &DurabilityConfig, backend: &str, first_txn_signs: i64) {
    let (mut wal, _) = Wal::open(&config.wal_path()).unwrap();
    let meta = WalRecord::Meta {
        backend: format!("{backend}@slot-ids"),
        mode: "compiled".to_string(),
    };
    let signs = (0..first_txn_signs)
        .map(|id| WalRecord::SignSet { id, sign: if id % 3 == 0 { '-' } else { '+' } });
    wal.append_batch(std::iter::once(meta).chain(signs)).unwrap();
    wal.commit(1, true).unwrap();
    wal.append_batch([
        WalRecord::Delete { path: "//regular".to_string() },
        WalRecord::SignClear { id: 4 },
        WalRecord::SignSet { id: 5, sign: '-' },
    ])
    .unwrap();
    wal.commit(2, true).unwrap();
}

/// An old data directory is refused, never truncated or rebooted: its
/// sign records still decode, so the log reads as committed history,
/// and recovery refuses it by its `Meta` mark with a storage error (the
/// CLI's exit 8). The file is byte for byte what it was, including an
/// uncommitted tail, whether the boot transaction is small or as large
/// as a real fresh boot's.
#[test]
fn an_old_sign_record_log_is_refused_and_left_unchanged() {
    for (kind, first_txn_signs) in
        [(BackendKind::Native, 41_000), (BackendKind::Row, 12), (BackendKind::Column, 41_000)]
    {
        let dir = data_dir(&format!("old_log_{}_{first_txn_signs}", kind.cli_name()));
        std::fs::create_dir_all(&dir).unwrap();
        let config = DurabilityConfig::new(&dir);
        let s = system();
        write_sign_record_log(&config, kind.make(s.annotate_mode()).name(), first_txn_signs);
        // A crash inside a third transaction: its frames stay on disk.
        let (mut wal, _) = Wal::scan(&config.wal_path()).unwrap();
        wal.append(&WalRecord::Delete { path: "//bill".to_string() }).unwrap();
        wal.append_torn(&WalRecord::SignSet { id: 9, sign: '+' }).unwrap();
        drop(wal);
        let before = std::fs::read(config.wal_path()).unwrap();
        for _ in 0..2 {
            let err = match ServeEngine::durable(Arc::new(system()), kind, &config) {
                Err(e) => e,
                Ok(_) => panic!("{kind}: an old log must not recover or boot fresh"),
            };
            match &err {
                Error::Storage { source_kind, context } => {
                    assert_eq!(source_kind, "corrupt", "{kind}");
                    assert!(context.contains("predates operation-only logs"), "{context}");
                }
                other => panic!("{kind}: expected a storage error, got {other}"),
            }
            assert_eq!(
                std::fs::read(config.wal_path()).unwrap(),
                before,
                "{kind}: a refused log is left byte for byte"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Signs are a function of the document and the policy, so a reopen
/// under a changed policy serves the new policy: the recovered
/// accessible set is Table 2 over the committed document under the
/// reopening system's policy, not the signs the old policy wrote.
#[test]
fn a_reopen_under_a_changed_policy_serves_the_new_policy() {
    let mut flipped = hospital_policy();
    let r2 = flipped.rules.iter_mut().find(|r| r.id == "R2").unwrap();
    assert_eq!(r2.effect, xac_policy::Effect::Allow);
    r2.effect = xac_policy::Effect::Deny;
    // The committed document: the canonical transactions applied to the
    // base tree in order, which allocates the same arena slots a replay
    // does.
    let mut doc = figure2_document();
    for op in txns() {
        match Update::try_from(&op).unwrap() {
            Update::Delete(path) => {
                for n in xac_xpath::eval(&doc, &path) {
                    if doc.is_alive(n) {
                        doc.remove_subtree(n).unwrap();
                    }
                }
            }
            Update::Insert { parent, name, text } => {
                assert!(text.is_none());
                for p in xac_xpath::eval(&doc, &parent) {
                    doc.add_element(p, &name);
                }
            }
        }
    }
    // `System::reference_accessible`'s evaluator: the committed
    // document no longer validates, so no `System` can be built on it.
    let table2 = |policy: &xac_policy::Policy| -> std::collections::BTreeSet<i64> {
        xac_policy::accessible_nodes(&doc, policy)
            .into_iter()
            .map(xac_shrex::shred::id_of)
            .collect()
    };
    let (old, new) = (table2(&hospital_policy()), table2(&flipped));
    assert_ne!(old, new, "the flipped rule changes the accessible set");
    for kind in BackendKind::ALL {
        let dir = data_dir(&format!("changed_policy_{}", kind.cli_name()));
        let config = DurabilityConfig::new(&dir);
        let served = |engine: &ServeEngine| -> std::collections::BTreeSet<i64> {
            let snap = engine.snapshot();
            let (doc, accessible) = (snap.store().doc(), snap.accessible());
            let live = doc.all_elements().filter(|n| accessible.contains(n));
            live.map(xac_shrex::shred::id_of).collect()
        };
        {
            let engine = ServeEngine::durable(Arc::new(system()), kind, &config).unwrap();
            for op in txns() {
                assert!(engine_txn(&engine, &op).unwrap(), "{kind}");
            }
            assert_eq!(served(&engine), old, "{kind}: the old policy before the reopen");
        }
        let s = System::builder(hospital_schema(), flipped.clone(), figure2_document())
            .build()
            .unwrap();
        let engine = ServeEngine::durable(Arc::new(s), kind, &config).unwrap();
        assert_eq!(engine.recovery().unwrap().ops_replayed, txns().len(), "{kind}");
        assert_eq!(served(&engine), new, "{kind}: the reopen serves the new policy");
        assert_eq!(engine.accessible_count(), new.len(), "{kind}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A commit costs the same whatever the document's size: one single
/// element insert, at xmark f = 0.02 and f = 0.2, appends the same WAL
/// bytes (one operation record and one `Commit`) with exactly one
/// fsync, though the larger document has ten times the signs.
#[test]
fn a_commit_appends_the_same_bytes_and_one_fsync_at_any_document_size() {
    let policy = xac_policy::Policy::parse(
        "default allow\nconflict deny-overrides\nR1 deny //person\nR2 allow //person/name\n",
    )
    .unwrap();
    let parent = xac_xpath::parse("/site/regions").unwrap();
    let mut costs = Vec::new();
    for factor in [0.02, 0.2] {
        let doc = xac_xmlgen::xmark_document(xac_xmlgen::XmarkConfig::with_factor(factor));
        let s = System::builder(xac_xmlgen::xmark_schema(), policy.clone(), doc)
            .annotate_mode(xac_core::AnnotateMode::Compiled)
            .build()
            .unwrap();
        let dir = data_dir(&format!("commit_cost_{factor}"));
        let config = DurabilityConfig::new(&dir);
        let engine = ServeEngine::durable(Arc::new(s), BackendKind::Native, &config).unwrap();
        let signs = engine_signs(&engine).len();
        let (before, _) = engine.storage_stats().unwrap();
        let update = engine.guarded_insert(&parent, "africa", None).unwrap();
        assert!(update.applied(), "f={factor}: the insert is granted");
        let (after, _) = engine.storage_stats().unwrap();
        assert_eq!(after.fsyncs - before.fsyncs, 1, "f={factor}: one fsync per commit");
        assert_eq!(after.commits - before.commits, 1, "f={factor}");
        assert_eq!(after.records_appended - before.records_appended, 2, "f={factor}");
        costs.push((after.bytes_appended - before.bytes_appended, signs));
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }
    let [(small_bytes, small_signs), (large_bytes, large_signs)] = costs[..] else {
        unreachable!()
    };
    assert!(large_signs > 5 * small_signs, "{small_signs} vs {large_signs} signs");
    assert_eq!(small_bytes, large_bytes, "the commit's bytes do not grow with the document");
    assert!(small_bytes < 100, "one op record and a commit: {small_bytes} B");
}
