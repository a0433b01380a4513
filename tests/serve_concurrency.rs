//! Acceptance test for the serving engine: concurrent readers against a
//! writer applying guarded updates.
//!
//! The invariants checked:
//!
//! 1. every read observes a *consistent* epoch — its (epoch,
//!    accessible-count, decision) triple matches the state a
//!    single-threaded `System` replay of the same update sequence had at
//!    that exact epoch, and epochs observed by one thread never go
//!    backwards;
//! 2. the final sign state is byte-identical to the single-threaded
//!    replay's;
//! 3. the metrics account for every request issued:
//!    `allowed + denied + errors == issued` on both paths.

use std::collections::BTreeMap;
use std::sync::{Arc, Barrier};
use xac_core::{Backend, System, Update};
use xac_policy::policy::hospital_policy;
use xac_serve::{BackendKind, Request, Response, ServeEngine};
use xac_xmlgen::{figure2_document, hospital_schema};
use xac_xpath::Path;

const READERS: usize = 4;
const READS_PER_READER: usize = 250;

fn system() -> System {
    System::builder(hospital_schema(), hospital_policy(), figure2_document())
        .build()
        .unwrap()
}

/// The guarded update sequence the writer applies: three that write
/// access allows (insert under the treatment-less patient, delete the
/// accessible regular treatment, delete an accessible name) and two the
/// access check must refuse (delete the inaccessible med, insert under
/// an inaccessible treatment).
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

const READ_QUERIES: [&str; 4] = ["//patient/name", "//patient", "//psn", "//regular"];

fn read_paths() -> Vec<Path> {
    READ_QUERIES.iter().map(|q| xac_xpath::parse(q).unwrap()).collect()
}

/// State the replay had at one epoch: accessible count plus the decision
/// for each read path.
#[derive(Debug, Clone, PartialEq, Eq)]
struct EpochState {
    accessible: usize,
    granted: Vec<bool>,
}

fn observe(b: &mut dyn Backend, paths: &[Path]) -> (u64, EpochState) {
    let snap = b.snapshot().unwrap();
    let state = EpochState {
        accessible: snap.accessible_count(),
        granted: paths.iter().map(|p| snap.query(p).granted()).collect(),
    };
    (snap.epoch(), state)
}

/// Run the update sequence on a fresh single-threaded `System` + backend
/// of the same kind; return the per-epoch states and the final sign
/// state. Backend epochs are a deterministic mutation counter, so the
/// replay's epochs are exactly the ones the engine publishes.
fn single_threaded_replay(
    kind: BackendKind,
    paths: &[Path],
) -> (BTreeMap<u64, EpochState>, BTreeMap<i64, char>, usize) {
    let s = system();
    let mut b = kind.make(s.annotate_mode());
    s.load(b.as_mut()).unwrap();
    s.annotate(b.as_mut()).unwrap();
    let mut epochs = BTreeMap::new();
    let (e0, st0) = observe(b.as_mut(), paths);
    epochs.insert(e0, st0);
    let mut applied = 0;
    for op in write_sequence() {
        let g = match op {
            Op::Delete(expr, _) => {
                s.guarded(b.as_mut(), &Update::Delete(xac_xpath::parse(expr).unwrap())).unwrap()
            }
            Op::Insert(parent, name, _) => {
                let parent = xac_xpath::parse(parent).unwrap();
                let insert = Update::Insert { parent, name: name.to_string(), text: None };
                s.guarded(b.as_mut(), &insert).unwrap()
            }
        };
        let expect = match op {
            Op::Delete(_, a) | Op::Insert(_, _, a) => a,
        };
        assert_eq!(g.applied(), expect, "replay on {}", b.name());
        if g.applied() {
            applied += 1;
            let (e, st) = observe(b.as_mut(), paths);
            epochs.insert(e, st);
        }
    }
    (epochs, b.sign_state().unwrap(), applied)
}

fn concurrent_serve(kind: BackendKind) {
    let paths = read_paths();
    let (epoch_states, expected_signs, applied) = single_threaded_replay(kind, &paths);
    assert_eq!(applied, 3, "the sequence must contain 3 applied updates");

    let engine = Arc::new(ServeEngine::for_kind(Arc::new(system()), kind).unwrap());
    let start = Barrier::new(READERS + 1);
    // (path index, epoch observed, granted, accessible count) per read.
    let mut observations: Vec<(usize, u64, bool, usize)> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for reader in 0..READERS {
            let engine = Arc::clone(&engine);
            let paths = &paths;
            let start = &start;
            handles.push(scope.spawn(move || {
                start.wait();
                let mut seen = Vec::with_capacity(READS_PER_READER);
                let mut last_epoch = 0;
                for i in 0..READS_PER_READER {
                    let idx = (i + reader) % paths.len();
                    // The unified request path: decision and epoch come
                    // from one response, so they belong to one snapshot
                    // by construction, and the engine's metrics count
                    // the read.
                    let (granted, epoch) =
                        match engine.serve(&Request::query(READ_QUERIES[idx])) {
                            Response::Decision { granted, epoch, .. } => (granted, epoch),
                            other => panic!("query answered with {other:?}"),
                        };
                    let snap = engine.snapshot();
                    assert!(
                        epoch >= last_epoch,
                        "epoch went backwards: {epoch} after {last_epoch}"
                    );
                    last_epoch = epoch;
                    // The separately-fetched snapshot is itself consistent.
                    let count = snap.accessible_count();
                    seen.push((idx, epoch, granted, count));
                    let _ = snap;
                }
                seen
            }));
        }
        start.wait();
        // The writer: same guarded sequence, against the live engine.
        for op in write_sequence() {
            let g = match op {
                Op::Delete(expr, _) => {
                    engine.guarded_delete(&xac_xpath::parse(expr).unwrap()).unwrap()
                }
                Op::Insert(parent, name, _) => {
                    let parent = xac_xpath::parse(parent).unwrap();
                    engine.guarded_insert(&parent, name, None).unwrap()
                }
            };
            let expect = match op {
                Op::Delete(_, a) | Op::Insert(_, _, a) => a,
            };
            assert_eq!(g.applied(), expect, "engine on {}", engine.backend_name());
        }
        for h in handles {
            observations.extend(h.join().unwrap());
        }
    });

    // 1. Every read observed an epoch the single-threaded replay also
    //    reached, with the exact decision the replay had at that epoch.
    for (idx, epoch, granted, _count) in &observations {
        let state = epoch_states.get(epoch).unwrap_or_else(|| {
            panic!("{}: read observed unpublished epoch {epoch}", engine.backend_name())
        });
        assert_eq!(
            *granted, state.granted[*idx],
            "{}: inconsistent decision for path {idx} at epoch {epoch}",
            engine.backend_name()
        );
    }
    // The separately-fetched snapshots must match some published state
    // too (they may be newer than the read's epoch, never torn).
    let valid_counts: Vec<usize> = epoch_states.values().map(|s| s.accessible).collect();
    for (_, _, _, count) in &observations {
        assert!(
            valid_counts.contains(count),
            "{}: snapshot accessible count {count} matches no published epoch",
            engine.backend_name()
        );
    }

    // 2. Final sign state is byte-identical to the replay's.
    let final_signs = engine.with_writer(|b| b.sign_state().unwrap()).unwrap();
    assert_eq!(
        final_signs,
        expected_signs,
        "{}: concurrent sign state diverged from single-threaded replay",
        engine.backend_name()
    );
    let last_epoch = *epoch_states.keys().last().unwrap();
    assert_eq!(engine.epoch(), last_epoch, "{}", engine.backend_name());

    // 3. Metrics account for every request issued.
    let m = engine.metrics();
    assert_eq!(
        m.reads_issued(),
        (READERS * READS_PER_READER) as u64,
        "{}: reads_allowed + reads_denied + read_errors must equal reads issued",
        engine.backend_name()
    );
    assert_eq!(m.read_errors, 0);
    assert_eq!(m.updates_applied, 3, "{}", engine.backend_name());
    assert_eq!(m.updates_denied, 2, "{}", engine.backend_name());
    assert_eq!(m.update_errors, 0);
    assert_eq!(m.updates_issued(), 5);
    // Initial publication + one per applied update.
    assert_eq!(m.epochs_published, 4, "{}", engine.backend_name());
    assert_eq!(m.current_epoch, last_epoch);
    assert_eq!(m.read_latency.count, m.reads_issued());
    assert_eq!(m.update_latency.count, m.updates_issued());
    assert_eq!(m.full_fallbacks, 0);
}

#[test]
fn concurrent_serving_native() {
    concurrent_serve(BackendKind::Native);
}

#[test]
fn concurrent_serving_row() {
    concurrent_serve(BackendKind::Row);
}

#[test]
fn concurrent_serving_column() {
    concurrent_serve(BackendKind::Column);
}

/// `reset_annotations` invalidates the epoch: a snapshot taken before is
/// stale (its epoch differs from the backend's) and the backend's sign
/// state actually changed.
#[test]
fn reset_annotations_invalidates_epoch() {
    let s = system();
    for kind in BackendKind::ALL {
        let mut b = kind.make(s.annotate_mode());
        s.load(b.as_mut()).unwrap();
        s.annotate(b.as_mut()).unwrap();
        let before = b.snapshot().unwrap();
        b.reset_annotations().unwrap();
        assert!(
            b.epoch() > before.epoch(),
            "{}: reset_annotations must advance the epoch",
            b.name()
        );
        // The stale snapshot still answers from its own frozen state.
        assert_eq!(before.accessible_count(), before.accessible().len());
    }
}
