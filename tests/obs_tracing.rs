//! Acceptance tests for the `xac-obs` tracing layer under the serving
//! engine:
//!
//! 1. spans emitted by four racing readers and a concurrent writer nest
//!    correctly *per thread* — within one thread spans either disjoint
//!    or strictly contain each other (stack discipline), and a contained
//!    span always carries a greater depth;
//! 2. fault-injection events show up in the trace as instants named
//!    after the fired fault point;
//! 3. the bounded ring buffer drops oldest-first without reordering the
//!    survivors;
//! 4. an applied update builds no columnar document index: it patches
//!    the one built at the first publication, which the published
//!    snapshot shares with the reads that follow;
//! 5. a compiled guarded update selects its target once and never runs
//!    the requester's `query_nodes_allowed`.
//!
//! The trace buffer and the enabled flag are process-global, so every
//! test that touches them holds `TRACE_LOCK` and resets the state first.

use std::sync::{Arc, Barrier, Mutex};
use xac_core::{AnnotateMode, FaultPlan, System};
use xac_obs::trace;
use xac_obs::{TraceBuffer, TraceEvent, TraceKind};
use xac_policy::policy::hospital_policy;
use xac_serve::{BackendKind, ServeEngine};
use xac_xmlgen::{figure2_document, hospital_schema};

static TRACE_LOCK: Mutex<()> = Mutex::new(());

fn system() -> Arc<System> {
    Arc::new(
        System::builder(hospital_schema(), hospital_policy(), figure2_document())
            .build()
            .unwrap(),
    )
}

fn lock() -> std::sync::MutexGuard<'static, ()> {
    TRACE_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// Spans only, grouped by the thread that recorded them.
fn spans_by_tid(events: &[TraceEvent]) -> std::collections::BTreeMap<u64, Vec<&TraceEvent>> {
    let mut by_tid: std::collections::BTreeMap<u64, Vec<&TraceEvent>> = Default::default();
    for e in events.iter().filter(|e| e.kind == TraceKind::Span) {
        by_tid.entry(e.tid).or_default().push(e);
    }
    by_tid
}

#[test]
fn spans_nest_per_thread_under_concurrency() {
    let _g = lock();
    trace::reset();
    trace::set_enabled(true);

    let engine = Arc::new(ServeEngine::for_kind(system(), BackendKind::Native).unwrap());
    const READERS: usize = 4;
    const READS: usize = 50;
    let paths: Vec<_> = ["//patient/name", "//patient", "//psn", "//regular"]
        .iter()
        .map(|q| xac_xpath::parse(q).unwrap())
        .collect();
    let gate = Barrier::new(READERS + 1);
    std::thread::scope(|scope| {
        for reader in 0..READERS {
            let engine = Arc::clone(&engine);
            let paths = &paths;
            let gate = &gate;
            scope.spawn(move || {
                gate.wait();
                for i in 0..READS {
                    engine.query(&paths[(i + reader) % paths.len()]);
                }
            });
        }
        gate.wait();
        engine
            .guarded_delete(&xac_xpath::parse("//regular").unwrap())
            .unwrap();
        engine
            .guarded_delete(&xac_xpath::parse("//patient[psn = \"042\"]/name").unwrap())
            .unwrap();
    });

    trace::set_enabled(false);
    let events = trace::take_events();
    assert_eq!(trace::dropped_events(), 0, "buffer must not overflow here");

    let names: std::collections::BTreeSet<&str> =
        events.iter().map(|e| e.name.as_str()).collect();
    assert!(
        names.len() >= 6,
        "expected >= 6 distinct span names, got {names:?}"
    );
    assert!(names.contains("serve.read"), "reader spans missing: {names:?}");
    assert!(names.contains("serve.update"), "writer spans missing: {names:?}");

    let by_tid = spans_by_tid(&events);
    assert!(
        by_tid.len() > READERS,
        "expected spans from {} threads, got {}",
        READERS + 1,
        by_tid.len()
    );
    for (tid, mut spans) in by_tid {
        spans.sort_by_key(|e| (e.start_ns, std::cmp::Reverse(e.start_ns + e.dur_ns)));
        for i in 0..spans.len() {
            let a = spans[i];
            let a_end = a.start_ns + a.dur_ns;
            for b in &spans[i + 1..] {
                if b.start_ns >= a_end {
                    continue; // disjoint
                }
                let b_end = b.start_ns + b.dur_ns;
                // b starts inside a: stack discipline demands it also
                // *ends* inside a and sits strictly deeper.
                assert!(
                    b_end <= a_end,
                    "tid {tid}: span {} [{}, {}) partially overlaps {} [{}, {})",
                    b.name,
                    b.start_ns,
                    b_end,
                    a.name,
                    a.start_ns,
                    a_end
                );
                if b.start_ns > a.start_ns || b_end < a_end {
                    assert!(
                        b.depth > a.depth,
                        "tid {tid}: nested span {} (depth {}) not deeper than {} (depth {})",
                        b.name,
                        b.depth,
                        a.name,
                        a.depth
                    );
                }
            }
        }
    }
}

#[test]
fn fault_events_appear_at_named_point() {
    let _g = lock();
    trace::reset();
    trace::set_enabled(true);

    let plan = FaultPlan::parse("mid_reannotate@1:error").unwrap();
    let engine =
        ServeEngine::for_kind_with_faults(system(), BackendKind::Native, plan).unwrap();
    // Drive the acceptance write sequence until the one-shot
    // mid-reannotate error trips inside some repair (the first whose
    // plan writes a sign); retry an errored op once, as the recovery
    // tests do. The injection must land in the trace either way.
    let ops: [(&str, Option<&str>); 5] = [
        ("//patient[psn = \"099\"]", Some("treatment")),
        ("//med", None),
        ("//regular", None),
        ("//treatment", Some("regular")),
        ("//patient[psn = \"042\"]/name", None),
    ];
    for (expr, insert_name) in ops {
        let path = xac_xpath::parse(expr).unwrap();
        let run = || match insert_name {
            Some(name) => engine.guarded_insert(&path, name, None),
            None => engine.guarded_delete(&path),
        };
        if run().is_err() {
            run().unwrap();
        }
    }

    trace::set_enabled(false);
    let events = trace::take_events();
    let fault_instants: Vec<_> = events
        .iter()
        .filter(|e| e.kind == TraceKind::Instant && e.name == "fault:mid_reannotate")
        .collect();
    assert_eq!(
        fault_instants.len(),
        1,
        "expected exactly one fault instant, got {:?}",
        events
            .iter()
            .filter(|e| e.kind == TraceKind::Instant)
            .map(|e| e.name.as_str())
            .collect::<Vec<_>>()
    );
    assert_eq!(engine.metrics().faults_injected, 1);
}

/// No index build inside a structural update: the engine builds the
/// columnar document index once, at its first publication; an applied
/// guarded delete or insert patches it, and the published snapshot
/// shares the patched index with the reads that follow.
#[test]
fn applied_updates_patch_the_doc_index_shared_with_reads() {
    let _g = lock();
    let names = xac_xpath::parse("//patient/name").unwrap();
    for mode in [AnnotateMode::Compiled, AnnotateMode::PaperFaithful] {
        let system = Arc::new(
            System::builder(hospital_schema(), hospital_policy(), figure2_document())
                .annotate_mode(mode)
                .build()
                .unwrap(),
        );
        let regular = xac_xpath::parse("//regular").unwrap();
        let accessible_patient = xac_xpath::parse("//patient[psn = \"099\"]").unwrap();
        for kind in BackendKind::ALL {
            let engine = ServeEngine::for_kind(Arc::clone(&system), kind).unwrap();
            trace::reset();
            trace::set_enabled(true);
            let deleted = engine.guarded_delete(&regular).unwrap();
            let inserted =
                engine.guarded_insert(&accessible_patient, "treatment", None).unwrap();
            engine.query(&names);
            engine.query(&names);
            trace::set_enabled(false);
            assert!(deleted.applied() && inserted.applied(), "{mode:?}/{kind:?}");
            let stats = trace::span_stats();
            let count = |name: &str| stats.iter().find(|s| s.name == name).map_or(0, |s| s.count);
            assert_eq!(count("vm.index"), 0, "{mode:?}/{kind:?}: vm.index spans");
            assert!(count("serve.update") >= 2, "{mode:?}/{kind:?}: both updates traced");
        }
    }
    trace::reset();
}

/// A compiled guarded update evaluates its target path exactly once —
/// the one `backend.select` the guard and the write share — and never
/// enters `query_nodes_allowed` (`backend.query`), applied or denied,
/// delete or insert, on every backend.
#[test]
fn a_compiled_guarded_update_selects_its_target_once() {
    let _g = lock();
    let system = Arc::new(
        System::builder(hospital_schema(), hospital_policy(), figure2_document())
            .annotate_mode(AnnotateMode::Compiled)
            .build()
            .unwrap(),
    );
    // (target, inserted child, applied): a denied delete, an applied
    // delete and an applied insert.
    let updates = [
        ("//med", None, false),
        ("//regular", None, true),
        ("//patient[psn = \"099\"]", Some("treatment"), true),
    ];
    for kind in BackendKind::ALL {
        let engine = ServeEngine::for_kind(Arc::clone(&system), kind).unwrap();
        for (target, insert, applied) in updates {
            let path = xac_xpath::parse(target).unwrap();
            trace::reset();
            trace::set_enabled(true);
            let outcome = match insert {
                Some(name) => engine.guarded_insert(&path, name, None),
                None => engine.guarded_delete(&path),
            };
            trace::set_enabled(false);
            let label = format!("{kind:?}: {target} (insert {insert:?})");
            assert_eq!(outcome.unwrap().applied(), applied, "{label}");
            let stats = trace::span_stats();
            let count = |name: &str| stats.iter().find(|s| s.name == name).map_or(0, |s| s.count);
            assert_eq!(count("backend.select"), 1, "{label}: one selection");
            assert_eq!(count("backend.query"), 0, "{label}: no requester query");
        }
        // The requester's read path is what `backend.query` marks.
        trace::reset();
        trace::set_enabled(true);
        engine.with_writer(|b| system.request(b, "//patient/name").unwrap()).unwrap();
        trace::set_enabled(false);
        let stats = trace::span_stats();
        assert!(stats.iter().any(|s| s.name == "backend.query"), "{kind:?}: requester span");
    }
    trace::reset();
}

#[test]
fn ring_buffer_drops_oldest_first_without_reordering_survivors() {
    // Exercises the public TraceBuffer directly — no global state.
    let buf = TraceBuffer::with_capacity(8);
    for i in 0..20 {
        buf.push(TraceEvent {
            name: format!("e{i}"),
            kind: TraceKind::Span,
            tid: 1,
            depth: 0,
            start_ns: i,
            dur_ns: 0,
            seq: 0,
            trace_id: 0,
        });
    }
    assert_eq!(buf.dropped(), 12);
    let survivors = buf.drain();
    let names: Vec<&str> = survivors.iter().map(|e| e.name.as_str()).collect();
    let expected: Vec<String> = (12..20).map(|i| format!("e{i}")).collect();
    assert_eq!(names, expected, "oldest must go first, survivors in order");
    let seqs: Vec<u64> = survivors.iter().map(|e| e.seq).collect();
    assert!(
        seqs.windows(2).all(|w| w[1] == w[0] + 1),
        "survivor sequence numbers must stay contiguous: {seqs:?}"
    );
}

#[test]
fn ring_buffer_accounts_exactly_under_racing_writers() {
    // Four threads race 100 pushes each into a 64-slot ring. However
    // the interleaving lands, the ring must conserve events exactly:
    // survivors + dropped == pushed, eviction is oldest-first (the
    // survivors are precisely the last `capacity` sequence numbers,
    // contiguous), and nothing is duplicated.
    const WRITERS: usize = 4;
    const PUSHES: u64 = 100;
    const CAP: usize = 64;
    let buf = TraceBuffer::with_capacity(CAP);
    let gate = Barrier::new(WRITERS);
    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let buf = &buf;
            let gate = &gate;
            scope.spawn(move || {
                gate.wait();
                for i in 0..PUSHES {
                    buf.push(TraceEvent {
                        name: format!("w{w}e{i}"),
                        kind: TraceKind::Span,
                        tid: w as u64,
                        depth: 0,
                        start_ns: i,
                        dur_ns: 0,
                        seq: 0,
                        trace_id: 0,
                    });
                }
            });
        }
    });
    let total = WRITERS as u64 * PUSHES;
    assert_eq!(buf.dropped(), total - CAP as u64, "exact drop accounting");
    let survivors = buf.drain();
    assert_eq!(survivors.len(), CAP);
    let seqs: Vec<u64> = survivors.iter().map(|e| e.seq).collect();
    let expected: Vec<u64> = (total - CAP as u64..total).collect();
    assert_eq!(seqs, expected, "survivors are the newest CAP events, oldest first");
    // Per-writer events retain their own program order.
    for w in 0..WRITERS as u64 {
        let starts: Vec<u64> = survivors
            .iter()
            .filter(|e| e.tid == w)
            .map(|e| e.start_ns)
            .collect();
        assert!(
            starts.windows(2).all(|p| p[0] < p[1]),
            "writer {w} events out of order: {starts:?}"
        );
    }
}
