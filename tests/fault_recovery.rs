//! Fault-recovery acceptance sweep: every fault point × every backend ×
//! volatile and durable engines, errors and panics, against the serving
//! engine's degradation ladder.
//!
//! For each scenario the writer drives the same guarded-update sequence
//! as `serve_concurrency.rs` with a one-shot fault armed, retrying an
//! operation once when it errors. The invariants:
//!
//! 1. after recovery the backend's `sign_state()` is byte-identical to
//!    a no-fault single-threaded replay of the same sequence;
//! 2. the published epoch never goes backwards, and readers during the
//!    faulted run only observe states some committed epoch of the
//!    replay also had — never a half-applied one;
//! 3. the metrics accounting identity holds: every guarded call lands
//!    in exactly one of applied / denied / errors / rejected;
//! 4. an injected panic leaves the engine serving reads (quarantined at
//!    worst), never poisoned;
//! 5. on a durable engine, after every operation the WAL's last epoch is
//!    the published epoch and its committed sign map is the writer's —
//!    a failed update committed nothing, an applied one committed
//!    exactly once — and a reopen recovers the no-fault replay's state.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use xac_core::{Error, FaultPlan, GuardedUpdate, System, Update};
use xac_serve::{BackendKind, DurabilityConfig, Request, Response, ServeEngine};
use xac_policy::policy::hospital_policy;
use xac_xmlgen::{figure2_document, hospital_schema};

fn system() -> System {
    System::builder(hospital_schema(), hospital_policy(), figure2_document())
        .build()
        .unwrap()
}

/// The guarded sequence: three applied, two denied (same as the
/// serve_concurrency acceptance test).
enum Op {
    Delete(&'static str, bool),
    Insert(&'static str, &'static str, bool),
}

fn write_sequence() -> Vec<Op> {
    vec![
        Op::Insert("//patient[psn = \"099\"]", "treatment", true),
        Op::Delete("//med", false),
        Op::Delete("//regular", true),
        Op::Insert("//treatment", "regular", false),
        Op::Delete("//patient[psn = \"042\"]/name", true),
    ]
}

fn apply_op(engine: &ServeEngine, op: &Op) -> xac_core::Result<GuardedUpdate> {
    match op {
        Op::Delete(expr, _) => engine.guarded_delete(&xac_xpath::parse(expr).unwrap()),
        Op::Insert(parent, name, _) => {
            engine.guarded_insert(&xac_xpath::parse(parent).unwrap(), name, None)
        }
    }
}

fn expected(op: &Op) -> bool {
    match op {
        Op::Delete(_, a) | Op::Insert(_, _, a) => *a,
    }
}

/// No-fault single-threaded replay: final sign state plus the
/// accessible count at every committed state (the only states readers
/// may ever observe).
fn replay(kind: BackendKind) -> (BTreeMap<i64, char>, BTreeSet<usize>) {
    let s = system();
    let mut b = kind.make(s.annotate_mode());
    s.load(b.as_mut()).unwrap();
    s.annotate(b.as_mut()).unwrap();
    let mut counts = BTreeSet::new();
    counts.insert(b.snapshot().unwrap().accessible_count());
    for op in write_sequence() {
        let update = match op {
            Op::Delete(expr, _) => Update::Delete(xac_xpath::parse(expr).unwrap()),
            Op::Insert(parent, name, _) => Update::Insert {
                parent: xac_xpath::parse(parent).unwrap(),
                name: name.to_string(),
                text: None,
            },
        };
        let g = s.guarded(b.as_mut(), &update).unwrap();
        assert_eq!(g.applied(), expected(&op), "no-fault replay on {}", b.name());
        if g.applied() {
            counts.insert(b.snapshot().unwrap().accessible_count());
        }
    }
    (b.sign_state().unwrap(), counts)
}

/// The one-shot plan exercising a fault point during serving. `+1`
/// skips spare the arrival `ServeEngine::new` makes at startup;
/// `before_annotate` only fires on the full-re-annotation fallback, so
/// its scenario arms a `mid_reannotate` error to force that rung first.
fn plan_for(point: &str, action: &str) -> FaultPlan {
    let spec = match point {
        "before_annotate" => format!("mid_reannotate@1:error,before_annotate:{action}+1"),
        "mid_reannotate" => format!("mid_reannotate@1:{action}"),
        "before_snapshot" | "before_checkpoint" => format!("{point}:{action}+1"),
        _ => format!("{point}:{action}"),
    };
    FaultPlan::parse(&spec).unwrap()
}

/// A fresh data dir for one durable scenario.
fn fresh_data_dir(name: &str) -> DurabilityConfig {
    let dir = std::env::temp_dir()
        .join(format!("xac_fault_recovery_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    DurabilityConfig::new(dir)
}

/// A faulted engine: volatile, or durable over a fresh `config` dir.
fn faulted_engine(
    kind: BackendKind,
    config: Option<&DurabilityConfig>,
    plan: FaultPlan,
) -> ServeEngine {
    let system = Arc::new(system());
    match config {
        Some(config) => ServeEngine::durable_with_faults(system, kind, config, plan),
        None => ServeEngine::for_kind_with_faults(system, kind, plan),
    }
    .unwrap()
}

fn writer_signs(engine: &ServeEngine) -> BTreeMap<i64, char> {
    engine.with_writer(|b| b.sign_state().unwrap()).unwrap()
}

/// On a durable engine, the WAL, the writer and the published snapshot
/// sit on one committed state: the log's last epoch is the published
/// one and its committed map is the writer's sign state.
fn assert_one_committed_state(engine: &ServeEngine, label: &str) {
    let Some((last_epoch, committed)) =
        engine.with_durability(|d| (d.last_epoch(), d.committed_signs().clone()))
    else {
        return;
    };
    assert_eq!(last_epoch, engine.epoch(), "{label}: the log and the published epoch differ");
    assert_eq!(committed, writer_signs(engine), "{label}: the log and the writer differ");
}

/// Drive the sequence against a faulted engine, retrying each errored
/// operation once (the plans are one-shot, so the retry must succeed).
/// Returns how many operations surfaced an error.
fn drive(engine: &ServeEngine, label: &str) -> u64 {
    let mut errors = 0u64;
    for (i, op) in write_sequence().iter().enumerate() {
        match apply_op(engine, op) {
            Ok(g) => assert_eq!(g.applied(), expected(op), "{label}: op {i}"),
            Err(e) => {
                assert!(
                    !matches!(e, Error::Quarantined { .. }),
                    "{label}: sweep plans must never quarantine, got: {e}"
                );
                errors += 1;
                assert_one_committed_state(engine, &format!("{label}: op {i} failed"));
                let g = apply_op(engine, op).unwrap_or_else(|e2| {
                    panic!("{label}: retry after one-shot fault failed: {e2} (first: {e})")
                });
                assert_eq!(g.applied(), expected(op), "{label}: op {i} retried");
            }
        }
        assert_one_committed_state(engine, &format!("{label}: op {i}"));
    }
    errors
}

/// Points swept with a plain one-shot spec at both actions, on volatile
/// and durable engines. `before_restore` is exercised by the quarantine
/// tests instead — a restore fault by construction defeats the rollback
/// rung.
const SWEPT_POINTS: [&str; 10] = [
    "before_annotate",
    "before_delete",
    "after_delete",
    "before_insert",
    "after_insert",
    "before_reannotate",
    "mid_reannotate",
    "after_reannotate",
    "before_snapshot",
    "before_checkpoint",
];

/// The pre-commit storage points, swept on durable engines only: each
/// fails the transaction before its commit record. (The post-commit
/// page points are absorbed; `tests/durability_recovery.rs` covers
/// them.)
const SWEPT_WAL_POINTS: [&str; 2] = ["wal_mid_record", "wal_before_commit"];

/// Raises the reader's stop flag when dropped, unwinding included.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

fn sweep(kind: BackendKind) {
    let (golden_signs, valid_counts) = replay(kind);
    let volatile = SWEPT_POINTS.iter().map(|&point| (point, false));
    let durable = SWEPT_POINTS.iter().chain(&SWEPT_WAL_POINTS).map(|&point| (point, true));
    for (point, is_durable) in volatile.chain(durable) {
        for action in ["error", "panic"] {
            let engine_kind = if is_durable { "durable" } else { "volatile" };
            let label = format!("{}/{engine_kind}/{point}:{action}", kind.cli_name());
            let config = is_durable
                .then(|| fresh_data_dir(&format!("{}_{point}_{action}", kind.cli_name())));
            let engine =
                Arc::new(faulted_engine(kind, config.as_ref(), plan_for(point, action)));
            // A reader races the faulted writer: it may only ever see
            // committed states, with a monotone epoch.
            let stop = AtomicBool::new(false);
            let start = Barrier::new(2);
            let errors = std::thread::scope(|scope| {
                let reader_engine = Arc::clone(&engine);
                let reader_counts = &valid_counts;
                let (stop, start) = (&stop, &start);
                let reader = scope.spawn(move || {
                    start.wait();
                    let mut last_epoch = 0u64;
                    let mut observed = 0usize;
                    // At least one read even if the writer already won
                    // the race to finish.
                    loop {
                        let snap = reader_engine.snapshot();
                        assert!(snap.epoch() >= last_epoch, "epoch went backwards");
                        last_epoch = snap.epoch();
                        assert!(
                            reader_counts.contains(&snap.accessible_count()),
                            "reader observed uncommitted state: {} accessible at epoch {}",
                            snap.accessible_count(),
                            snap.epoch()
                        );
                        observed += 1;
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                    }
                    observed
                });
                start.wait();
                // Stop the reader even when `drive` panics, so a failed
                // assertion fails the test instead of hanging the scope.
                let stop_reader = StopOnDrop(stop);
                let errors = drive(&engine, &label);
                drop(stop_reader);
                assert!(reader.join().unwrap() > 0);
                errors
            });
            assert!(!engine.quarantined(), "{label}: must recover, not quarantine");
            assert_eq!(
                writer_signs(&engine),
                golden_signs,
                "{label}: post-recovery sign state diverged from no-fault replay"
            );
            let m = engine.metrics();
            assert_eq!(m.updates_applied, 3, "{label}");
            assert_eq!(m.updates_denied, 2, "{label}");
            assert_eq!(m.update_errors, errors, "{label}");
            assert_eq!(m.rejected_while_quarantined, 0, "{label}");
            assert_eq!(m.updates_issued(), 5 + errors, "{label}: accounting identity");
            assert_eq!(m.update_latency.count, m.updates_issued(), "{label}");
            assert!(m.faults_injected >= 1, "{label}: the armed fault must fire");
            assert_eq!(m.quarantines, 0, "{label}");
            // Errors that surfaced were rolled back; absorbed ones fell
            // back to full re-annotation instead.
            assert!(
                m.rollbacks + m.full_fallbacks >= errors.max(1),
                "{label}: every fault must land on a ladder rung \
                 (rollbacks {} + fallbacks {})",
                m.rollbacks,
                m.full_fallbacks
            );
            if let Some(config) = config {
                drop(engine);
                let reopened = ServeEngine::durable(Arc::new(system()), kind, &config).unwrap();
                assert_eq!(
                    writer_signs(&reopened),
                    golden_signs,
                    "{label}: the reopen diverged from the no-fault replay"
                );
                drop(reopened);
                let _ = std::fs::remove_dir_all(&config.data_dir);
            }
        }
    }
}

#[test]
fn fault_sweep_native() {
    sweep(BackendKind::Native);
}

#[test]
fn fault_sweep_row() {
    sweep(BackendKind::Row);
}

#[test]
fn fault_sweep_column() {
    sweep(BackendKind::Column);
}

/// A full-re-annotation fallback that itself fails or panics is still
/// counted as a fallback, with its absorbed partial fault, before the
/// update rolls back.
#[test]
fn a_failed_fallback_is_counted() {
    for kind in BackendKind::ALL {
        for action in ["error", "panic"] {
            let label = format!("{}:{action}", kind.cli_name());
            let engine = faulted_engine(kind, None, plan_for("before_annotate", action));
            let err = apply_op(&engine, &write_sequence()[0]).unwrap_err();
            let before_annotate = Error::FaultInjected { point: "before_annotate".into() };
            assert_eq!(err, before_annotate, "{label}");
            let m = engine.metrics();
            assert_eq!(m.full_fallbacks, 1, "{label}");
            assert_eq!(m.faults_injected, 2, "{label}: the partial and the full fault");
            assert_eq!((m.update_errors, m.rollbacks, m.updates_applied), (1, 1, 0), "{label}");
        }
    }
}

/// `before_restore` defeats the rollback rung: the engine must end in
/// read-only quarantine — still serving reads at the last-good epoch,
/// rejecting writes with the structured error. A durable engine's
/// reopen comes back on the last committed state.
fn quarantine_scenario(kind: BackendKind, durable: bool, restore_action: &str) {
    let plan =
        FaultPlan::parse(&format!("after_delete:error,before_restore:{restore_action}")).unwrap();
    let engine_kind = if durable { "durable" } else { "volatile" };
    let label = format!("{}/{engine_kind}:{restore_action}", kind.cli_name());
    let config = durable
        .then(|| fresh_data_dir(&format!("quarantine_{}_{restore_action}", kind.cli_name())));
    let engine = faulted_engine(kind, config.as_ref(), plan);
    // Op 1 applies cleanly and publishes.
    let g = apply_op(&engine, &write_sequence()[0]).unwrap();
    assert!(g.applied());
    let last_good_epoch = engine.epoch();
    let accessible = engine.accessible_count();
    let last_good_signs = writer_signs(&engine);
    // Op 3 (the first real delete) trips `after_delete`; the rollback
    // trips `before_restore`; the ladder is out of rungs.
    let err = apply_op(&engine, &write_sequence()[2]).unwrap_err();
    match &err {
        Error::Quarantined { last_good_epoch: e, cause } => {
            assert_eq!(*e, last_good_epoch, "{label}");
            assert!(cause.contains("before_restore") || cause.contains("restore"), "{label}: {cause}");
        }
        other => panic!("{label}: expected Quarantined, got {other}"),
    }
    assert!(engine.quarantined(), "{label}");
    assert!(engine.quarantine_cause().is_some(), "{label}");
    // Reads survive, frozen at the last-good epoch.
    assert_eq!(engine.epoch(), last_good_epoch, "{label}");
    assert_eq!(engine.accessible_count(), accessible, "{label}");
    assert!(
        matches!(
            engine.serve(&Request::query("//patient/name")),
            Response::Decision { granted: true, .. }
        ),
        "{label}"
    );
    // Writes are rejected with the structured error, and counted.
    let rejected = apply_op(&engine, &write_sequence()[4]).unwrap_err();
    assert!(matches!(rejected, Error::Quarantined { .. }), "{label}: {rejected}");
    let m = engine.metrics();
    assert_eq!(m.quarantines, 1, "{label}");
    assert_eq!(m.rejected_while_quarantined, 1, "{label}");
    assert_eq!(m.updates_applied, 1, "{label}");
    assert_eq!(m.update_errors, 1, "{label}");
    assert_eq!(m.updates_issued(), 3, "{label}: accounting identity");
    assert_eq!(m.rollbacks, 0, "{label}: the restore never completed");
    assert!(m.faults_injected >= 2, "{label}: both armed faults fired");
    assert_eq!(m.current_epoch, last_good_epoch, "{label}");
    if let Some(config) = config {
        let wal_epoch = engine.with_durability(|d| d.last_epoch()).unwrap();
        assert_eq!(wal_epoch, last_good_epoch, "{label}: the failed update committed nothing");
        drop(engine);
        let reopened = ServeEngine::durable(Arc::new(system()), kind, &config).unwrap();
        assert!(!reopened.quarantined(), "{label}");
        assert_eq!(writer_signs(&reopened), last_good_signs, "{label}: reopen");
        drop(reopened);
        let _ = std::fs::remove_dir_all(&config.data_dir);
    }
}

#[test]
fn quarantine_when_restore_fails() {
    for kind in BackendKind::ALL {
        for durable in [false, true] {
            quarantine_scenario(kind, durable, "error");
            quarantine_scenario(kind, durable, "panic");
        }
    }
}

/// A panic seeded mid-update must leave the engine functional (rolled
/// back), and the recovery must be replayable: the same seed twice
/// produces byte-identical outcomes.
#[test]
fn seeded_plans_are_replayable() {
    let run = |seed: u64| {
        let plan = xac_serve::seeded_fault_plan(seed, 4);
        let engine =
            ServeEngine::for_kind_with_faults(Arc::new(system()), BackendKind::Row, plan)
                .unwrap();
        for op in write_sequence() {
            // Retry until the one-shot specs at this point are spent.
            for _ in 0..6 {
                match apply_op(&engine, &op) {
                    Ok(g) => {
                        assert_eq!(g.applied(), expected(&op));
                        break;
                    }
                    Err(e) => assert!(!matches!(e, Error::Quarantined { .. }), "{e}"),
                }
            }
        }
        let signs = engine.with_writer(|b| b.sign_state().unwrap()).unwrap();
        let m = engine.metrics();
        (signs, m.faults_injected, m.rollbacks, m.full_fallbacks, m.updates_issued())
    };
    let (golden, _) = (replay(BackendKind::Row).0, ());
    for seed in [7u64, 1234] {
        let a = run(seed);
        let b = run(seed);
        assert_eq!(a, b, "seed {seed}: replay must be byte-identical");
        assert_eq!(a.0, golden, "seed {seed}: recovery must reach the no-fault state");
    }
}
