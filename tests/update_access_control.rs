//! The §8 future-work extension implemented here: insert updates with
//! re-annotation, and access-controlled (guarded) updates with
//! all-or-nothing write semantics — tested across all backends.

use xac_core::{
    AnnotateMode, Backend, GuardedUpdate, NativeXmlBackend, RelationalBackend, System, Update,
};
use xac_reldb::StorageKind;
use xac_policy::policy::hospital_policy;
use xac_xmlgen::{figure2_document, hospital_document, hospital_schema};

fn backends() -> Vec<Box<dyn Backend>> {
    vec![
        Box::new(RelationalBackend::row()),
        Box::new(RelationalBackend::column()),
        Box::new(NativeXmlBackend::new()),
    ]
}

fn system() -> System {
    System::builder(hospital_schema(), hospital_policy(), figure2_document()).build().unwrap()
}

/// The insert of one childless `name` element under every `parent` node.
fn insert(parent: &xac_xpath::Path, name: &str) -> Update {
    Update::Insert { parent: parent.clone(), name: name.to_string(), text: None }
}

/// Inserting a treatment under the accessible (treatment-less) patient
/// must flip that patient to denied after re-annotation (R3 applies).
#[test]
fn insert_triggers_reannotation() {
    let s = system();
    let parent = xac_xpath::parse("//patient[psn = \"099\"]").unwrap();
    for mut b in backends() {
        s.load(b.as_mut()).unwrap();
        s.annotate(b.as_mut()).unwrap();
        assert!(s.request(b.as_mut(), "//patient[psn = \"099\"]").unwrap().granted());

        let outcome = s.apply(b.as_mut(), &insert(&parent, "treatment")).unwrap();
        assert_eq!(outcome.inserted_elements, 1, "{}", b.name());
        assert!(outcome.plan.triggered_ids().contains(&"R3"), "{}", b.name());

        assert!(
            !s.request(b.as_mut(), "//patient[psn = \"099\"]").unwrap().granted(),
            "{}: patient must be denied once treated",
            b.name()
        );
    }
}

/// Insert + partial re-annotation must equal full re-annotation.
#[test]
fn insert_consistency_with_full_annotation() {
    let doc = hospital_document(2, 30, 77);
    let s = System::builder(hospital_schema(), hospital_policy(), doc).build().unwrap();
    let parent = xac_xpath::parse("//patient").unwrap();
    for mut b in backends() {
        s.load(b.as_mut()).unwrap();
        s.annotate(b.as_mut()).unwrap();
        // NOTE: patients already having a treatment would become invalid
        // under the schema, but the stores do not re-validate; the policy
        // semantics still apply uniformly, which is what we check.
        s.apply(b.as_mut(), &insert(&parent, "treatment")).unwrap();
        let partial = b.accessible_count().unwrap();

        s.load(b.as_mut()).unwrap();
        s.annotate(b.as_mut()).unwrap();
        b.insert(&parent, "treatment", None).unwrap();
        s.full_reannotate(b.as_mut()).unwrap();
        let full = b.accessible_count().unwrap();

        assert_eq!(partial, full, "{}", b.name());
    }
}

/// Inserted leaf values participate in value predicates.
#[test]
fn inserted_text_is_queryable() {
    let s = system();
    for mut b in backends() {
        s.load(b.as_mut()).unwrap();
        s.annotate(b.as_mut()).unwrap();
        let parent = xac_xpath::parse("//regular").unwrap();
        // The figure-2 regular treatment gains a second med element.
        let n = b.insert(&parent, "med", Some("celecoxib")).unwrap();
        assert_eq!(n, 1, "{}", b.name());
        let (count, _) = b
            .query_nodes_allowed(&xac_xpath::parse("//regular[med = \"celecoxib\"]").unwrap())
            .unwrap();
        assert_eq!(count, 1, "{}", b.name());
    }
}

/// Guarded deletes: denied for inaccessible targets, applied (with
/// re-annotation) for accessible ones.
#[test]
fn guarded_delete_enforces_write_access() {
    let s = system();
    for mut b in backends() {
        s.load(b.as_mut()).unwrap();
        s.annotate(b.as_mut()).unwrap();

        // //med is inaccessible (default deny): the delete is refused and
        // nothing changes.
        let med = xac_xpath::parse("//med").unwrap();
        let before = b.accessible_count().unwrap();
        let g = s.guarded(b.as_mut(), &Update::Delete(med.clone())).unwrap();
        assert!(!g.applied(), "{}", b.name());
        assert_eq!(b.accessible_count().unwrap(), before, "{}", b.name());
        let (n, _) = b.query_nodes_allowed(&med).unwrap();
        assert_eq!(n, 1, "{}: med must still exist", b.name());

        // //regular is accessible (R6): the delete goes through.
        let regular = xac_xpath::parse("//regular").unwrap();
        let g = s.guarded(b.as_mut(), &Update::Delete(regular.clone())).unwrap();
        match g {
            GuardedUpdate::Applied(outcome) => {
                assert!(outcome.removed_elements >= 3, "{}", b.name());
            }
            GuardedUpdate::Denied(d) => panic!("{}: denied {d:?}", b.name()),
        }
        let (n, _) = b.query_nodes_allowed(&regular).unwrap();
        assert_eq!(n, 0, "{}: regular must be gone", b.name());
    }
}

/// Guarded inserts: extending an inaccessible parent is refused.
#[test]
fn guarded_insert_enforces_write_access() {
    let s = system();
    for mut b in backends() {
        s.load(b.as_mut()).unwrap();
        s.annotate(b.as_mut()).unwrap();

        // treatment elements are inaccessible: no inserting below them.
        let denied_parent = xac_xpath::parse("//treatment").unwrap();
        let g = s.guarded(b.as_mut(), &insert(&denied_parent, "regular")).unwrap();
        assert!(!g.applied(), "{}", b.name());

        // The accessible patient can receive children.
        let allowed_parent = xac_xpath::parse("//patient[psn = \"099\"]").unwrap();
        let g = s
            .guarded(b.as_mut(), &insert(&allowed_parent, "treatment"))
            .unwrap();
        assert!(g.applied(), "{}", b.name());
    }
}

/// Unknown element types are rejected by the relational backend (no
/// table to put them in) — error, not silent data loss.
#[test]
fn relational_insert_of_unmapped_element_errors() {
    let s = system();
    let mut b = RelationalBackend::row();
    s.load(&mut b).unwrap();
    let parent = xac_xpath::parse("//patient").unwrap();
    assert!(b.insert(&parent, "martian", None).is_err());
}

/// An insert of an element the schema does not declare, or of text
/// under a type that holds none (its table has no `v` column), is
/// refused by `System` before it selects anything, with one typed error
/// on every backend in both modes — guarded or not — and the backend
/// keeps its epoch, signs and document.
#[test]
fn undeclared_insert_is_refused_alike_on_every_backend_and_mode() {
    let parent = xac_xpath::parse("//patient[psn = \"099\"]").unwrap();
    let patients = xac_xpath::parse("//patients").unwrap();
    let text = Update::Insert { parent: patients, name: "patient".into(), text: Some("x".into()) };
    let refusals = [
        (insert(&parent, "martian"), xac_core::Error::UndeclaredElement("martian".into())),
        (text, xac_core::Error::UndeclaredText("patient".into())),
    ];
    for mode in [AnnotateMode::PaperFaithful, AnnotateMode::Compiled] {
        let s = System::builder(hospital_schema(), hospital_policy(), figure2_document())
            .annotate_mode(mode)
            .build()
            .unwrap();
        let backends: [Box<dyn Backend>; 3] = [
            Box::new(RelationalBackend::with_mode(StorageKind::Row, mode)),
            Box::new(RelationalBackend::with_mode(StorageKind::Column, mode)),
            Box::new(NativeXmlBackend::with_mode(mode)),
        ];
        for mut b in backends {
            s.load(b.as_mut()).unwrap();
            s.annotate(b.as_mut()).unwrap();
            let (epoch, signs) = (b.epoch(), b.sign_state().unwrap());
            let xml = b.snapshot().unwrap().store().doc().to_xml();
            let who = format!("{} ({mode})", b.name());
            for (update, refused) in &refusals {
                assert_eq!(&s.guarded(b.as_mut(), update).unwrap_err(), refused, "{who}");
                assert_eq!(&s.apply(b.as_mut(), update).unwrap_err(), refused, "{who}");
            }
            assert_eq!((b.epoch(), b.sign_state().unwrap()), (epoch, signs), "{who}");
            assert_eq!(b.snapshot().unwrap().store().doc().to_xml(), xml, "{who}");
        }
    }
}

/// A denied guarded update is a true no-op: the backend's sign state is
/// byte-identical and its epoch unchanged on every backend — readers
/// snapshotting the store can tell nothing happened.
#[test]
fn denied_update_leaves_sign_state_and_epoch_unchanged() {
    let s = system();
    let med = xac_xpath::parse("//med").unwrap();
    let treatment = xac_xpath::parse("//treatment").unwrap();
    for mut b in backends() {
        s.load(b.as_mut()).unwrap();
        s.annotate(b.as_mut()).unwrap();
        let epoch = b.epoch();
        let signs = b.sign_state().unwrap();

        let g = s.guarded(b.as_mut(), &Update::Delete(med.clone())).unwrap();
        assert!(!g.applied(), "{}", b.name());
        let g = s.guarded(b.as_mut(), &insert(&treatment, "regular")).unwrap();
        assert!(!g.applied(), "{}", b.name());

        assert_eq!(b.epoch(), epoch, "{}: denied updates must not bump the epoch", b.name());
        assert_eq!(
            b.sign_state().unwrap(),
            signs,
            "{}: denied updates must not change sign state",
            b.name()
        );
    }
}

/// `reset_annotations` invalidates snapshots: the epoch advances, so a
/// serving layer knows its published snapshot is stale.
#[test]
fn reset_annotations_advances_epoch() {
    let s = system();
    for mut b in backends() {
        s.load(b.as_mut()).unwrap();
        s.annotate(b.as_mut()).unwrap();
        let annotated = b.epoch();
        b.reset_annotations().unwrap();
        assert!(b.epoch() > annotated, "{}", b.name());
        // Re-annotating advances it again — epochs never repeat.
        s.annotate(b.as_mut()).unwrap();
        assert!(b.epoch() > annotated + 1, "{}", b.name());
    }
}
