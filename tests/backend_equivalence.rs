//! The three storage backends must enforce identical semantics: same
//! accessible node sets (cross-checked against the Table 2 reference
//! evaluation), same request decisions, on generated documents and
//! policies of varying coverage.

use std::collections::BTreeSet;
use xac_core::{AnnotateMode, Backend, NativeXmlBackend, RelationalBackend, System, Update};
use xac_xmlgen::{
    coverage_policy_dataset, hospital_document, hospital_schema, query_workload,
    xmark_document, xmark_schema, XmarkConfig,
};

fn backends() -> Vec<Box<dyn Backend>> {
    vec![
        Box::new(RelationalBackend::row()),
        Box::new(RelationalBackend::column()),
        Box::new(NativeXmlBackend::new()),
    ]
}

/// The backend's own accessible set as universal ids (each node's arena
/// slot), read from its published snapshot's bitset, after checking it
/// equals the Table 2 reference's.
fn accessible_ids(s: &System, b: &mut dyn Backend) -> BTreeSet<i64> {
    let snapshot = b.snapshot().unwrap();
    let ids: BTreeSet<i64> = snapshot.accessible().ones().into_iter().map(i64::from).collect();
    let reference: BTreeSet<i64> =
        s.reference_accessible().into_iter().map(xac_shrex::shred::id_of).collect();
    assert_eq!(ids, reference, "{}: accessible set vs Table 2", b.name());
    assert_eq!(b.accessible_count().unwrap(), ids.len(), "{}", b.name());
    ids
}

#[test]
fn xmark_coverage_policies_agree() {
    let doc = xmark_document(XmarkConfig::with_factor(0.005));
    let dataset = coverage_policy_dataset(&doc, &[0.25, 0.5, 0.7], 21);
    for (target, policy) in dataset {
        let s = System::builder(xmark_schema(), policy, doc.clone()).build().unwrap();
        let mut expected: Option<BTreeSet<i64>> = None;
        for mut b in backends() {
            s.load(b.as_mut()).unwrap();
            s.annotate(b.as_mut()).unwrap();
            let ids = accessible_ids(&s, b.as_mut());
            match &expected {
                None => expected = Some(ids),
                Some(e) => assert_eq!(
                    &ids, e,
                    "backend {} disagrees at coverage {target}",
                    b.name()
                ),
            }
        }
    }
}

#[test]
fn relational_accessible_set_matches_reference_exactly() {
    let doc = xmark_document(XmarkConfig::with_factor(0.003));
    let (_, policy) = coverage_policy_dataset(&doc, &[0.5], 4).pop().unwrap();
    let s = System::builder(xmark_schema(), policy, doc).build().unwrap();
    let reference: BTreeSet<i64> = s
        .reference_accessible()
        .into_iter()
        .map(xac_shrex::shred::id_of)
        .collect();
    for kind in [xac_reldb::StorageKind::Row, xac_reldb::StorageKind::Column] {
        let mut b = RelationalBackend::new(kind);
        s.load(&mut b).unwrap();
        s.annotate(&mut b).unwrap();
        assert_eq!(b.accessible_ids().unwrap(), reference, "{kind:?}");
    }
}

#[test]
fn request_decisions_agree_across_backends() {
    let doc = xmark_document(XmarkConfig::with_factor(0.003));
    let (_, policy) = coverage_policy_dataset(&doc, &[0.45], 8).pop().unwrap();
    let s = System::builder(xmark_schema(), policy, doc).build().unwrap();
    let queries = query_workload(&xmark_schema(), 40, 17);

    let mut decisions: Vec<Vec<(usize, bool)>> = Vec::new();
    for mut b in backends() {
        s.load(b.as_mut()).unwrap();
        s.annotate(b.as_mut()).unwrap();
        let ds: Vec<(usize, bool)> = queries
            .iter()
            .map(|q| {
                let d = s.request_path(b.as_mut(), q).unwrap();
                (d.node_count(), d.granted())
            })
            .collect();
        decisions.push(ds);
    }
    assert_eq!(decisions[0], decisions[1], "row vs column");
    assert_eq!(decisions[0], decisions[2], "relational vs native");
    // The workload must be discriminating: some granted, some denied.
    let granted = decisions[0].iter().filter(|(_, g)| *g).count();
    assert!(granted > 0, "no query granted");
    assert!(granted < queries.len(), "no query denied");
}

#[test]
fn hospital_documents_agree_across_seeds() {
    let policy = xac_policy::policy::hospital_policy();
    for seed in [1, 2, 3] {
        let doc = hospital_document(2, 40, seed);
        let s = System::builder(hospital_schema(), policy.clone(), doc).build().unwrap();
        let expected = s.reference_accessible().len();
        for mut b in backends() {
            s.load(b.as_mut()).unwrap();
            s.annotate(b.as_mut()).unwrap();
            assert_eq!(
                b.accessible_count().unwrap(),
                expected,
                "{} seed {seed}",
                b.name()
            );
        }
    }
}

/// Annotate one system in both relational write modes; assert identical
/// write counts and byte-identical sign state, and return the shared
/// accessible set for cross-backend checks.
fn annotate_both_modes(
    s: &System,
    kind: xac_reldb::StorageKind,
) -> (BTreeSet<i64>, usize) {
    let mut results = Vec::new();
    for mode in [AnnotateMode::PaperFaithful, AnnotateMode::Compiled] {
        let mut b = RelationalBackend::with_mode(kind, mode);
        s.load(&mut b).unwrap();
        let writes = s.annotate(&mut b).unwrap();
        results.push((writes, b.sign_map().unwrap(), b.accessible_ids().unwrap()));
    }
    let (paper, compiled) = (&results[0], &results[1]);
    assert_eq!(paper.0, compiled.0, "write counts diverge on {kind:?}");
    assert_eq!(paper.1, compiled.1, "sign state diverges on {kind:?}");
    assert_eq!(paper.2, compiled.2, "accessible sets diverge on {kind:?}");
    (paper.2.clone(), paper.0)
}

#[test]
fn annotate_modes_identical_signs_on_hospital_and_xmark() {
    let systems = [
        System::builder(
            hospital_schema(),
            xac_policy::policy::hospital_policy(),
            hospital_document(2, 60, 3),
        ).build()
        .unwrap(),
        {
            let doc = xmark_document(XmarkConfig::with_factor(0.001));
            let (_, policy) = coverage_policy_dataset(&doc, &[0.5], 7).pop().unwrap();
            System::builder(xmark_schema(), policy, doc).build().unwrap()
        },
    ];
    for s in &systems {
        let mut native = NativeXmlBackend::new();
        s.load(&mut native).unwrap();
        s.annotate(&mut native).unwrap();
        let native_count = native.accessible_count().unwrap();
        for kind in [xac_reldb::StorageKind::Row, xac_reldb::StorageKind::Column] {
            let (accessible, _) = annotate_both_modes(s, kind);
            assert_eq!(accessible.len(), native_count, "native vs {kind:?}");
        }
    }
}

/// Both modes must also agree through the update path (delete +
/// re-annotation), where the compiled partition map has to stay in sync
/// with the mutated document.
#[test]
fn annotate_modes_identical_signs_after_updates() {
    let doc = xmark_document(XmarkConfig::with_factor(0.001));
    let (_, policy) = coverage_policy_dataset(&doc, &[0.4], 11).pop().unwrap();
    let s = System::builder(xmark_schema(), policy, doc).build().unwrap();
    let u = xac_xpath::parse("//bidder").unwrap();
    let mut states = Vec::new();
    for mode in [AnnotateMode::PaperFaithful, AnnotateMode::Compiled] {
        let mut b = RelationalBackend::with_mode(xac_reldb::StorageKind::Row, mode);
        s.load(&mut b).unwrap();
        s.annotate(&mut b).unwrap();
        s.apply(&mut b, &Update::Delete(u.clone())).unwrap();
        let parent = xac_xpath::parse("//open_auction").unwrap();
        let insert = Update::Insert { parent, name: "bidder".to_string(), text: None };
        s.apply(&mut b, &insert).unwrap();
        states.push(b.sign_map().unwrap());
    }
    assert_eq!(states[0], states[1], "sign state diverges after update + insert");
}

/// The acceptance bar for the compiled mode's sign-write path: at factor
/// 0.01 on the row backend, writing the accessible set must be at least
/// 5x faster through [`RelationalBackend::write_signs`] in compiled mode
/// than with the paper's per-tuple UPDATE loop — with identical sign
/// outcomes (asserted above and re-asserted here).
#[test]
fn compiled_sign_writes_beat_paper_faithful_by_5x_on_row() {
    let doc = xmark_document(XmarkConfig::with_factor(0.01));
    let (_, policy) = coverage_policy_dataset(&doc, &[0.5], 1).pop().unwrap();
    let s = System::builder(xmark_schema(), policy, doc).build().unwrap();
    let (accessible, _) = annotate_both_modes(&s, xac_reldb::StorageKind::Row);

    // Median-of-5 passes per mode over the same target set, interleaving
    // excluded: each backend re-writes its own already-annotated state.
    let median = |mode: AnnotateMode| -> std::time::Duration {
        let mut b = RelationalBackend::with_mode(xac_reldb::StorageKind::Row, mode);
        s.load(&mut b).unwrap();
        s.annotate(&mut b).unwrap();
        let mut samples: Vec<std::time::Duration> = (0..5)
            .map(|_| xac_core::time(|| b.write_signs(&accessible, '+').unwrap()).1)
            .collect();
        samples.sort();
        samples[2]
    };
    let paper = median(AnnotateMode::PaperFaithful);
    let compiled = median(AnnotateMode::Compiled);
    let speedup = paper.as_secs_f64() / compiled.as_secs_f64().max(1e-12);
    assert!(
        speedup >= 5.0,
        "compiled write path only {speedup:.1}x faster ({compiled:?} vs {paper:?})"
    );
}

#[test]
fn all_four_policy_semantics_agree() {
    let doc = hospital_document(1, 30, 5);
    for ds in ["deny", "allow"] {
        for cr in ["deny-overrides", "allow-overrides"] {
            let policy = xac_policy::Policy::parse(&format!(
                "default {ds}\nconflict {cr}\n\
                 R1 allow //patient\nR3 deny //patient[treatment]\n\
                 R6 allow //regular\nR5 deny //patient[.//experimental]\n"
            ))
            .unwrap();
            let s = System::builder(hospital_schema(), policy, doc.clone()).build().unwrap();
            let expected = s.reference_accessible().len();
            for mut b in backends() {
                s.load(b.as_mut()).unwrap();
                s.annotate(b.as_mut()).unwrap();
                assert_eq!(
                    b.accessible_count().unwrap(),
                    expected,
                    "{} ds={ds} cr={cr}",
                    b.name()
                );
            }
        }
    }
}
