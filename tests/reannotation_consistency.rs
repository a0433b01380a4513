//! The central correctness property of the re-annotation optimization:
//! after any delete update, Trigger-planned partial re-annotation must
//! leave every backend in exactly the state a full from-scratch
//! annotation would produce.

use std::collections::BTreeSet;
use xac_core::{Backend, NativeXmlBackend, RelationalBackend, System, Update};
use xac_xmlgen::{
    coverage_policy, delete_updates, hospital_document, hospital_schema, xmark_document,
    xmark_schema, XmarkConfig,
};

fn backends() -> Vec<Box<dyn Backend>> {
    vec![
        Box::new(RelationalBackend::row()),
        Box::new(RelationalBackend::column()),
        Box::new(NativeXmlBackend::new()),
    ]
}

/// For one system and one update, check partial == full on a backend.
fn check_update(s: &System, b: &mut dyn Backend, u: &xac_xpath::Path) {
    // Partial path.
    s.load(b).unwrap();
    s.annotate(b).unwrap();
    s.apply(b, &Update::Delete(u.clone())).unwrap();
    let partial = b.accessible_count().unwrap();

    // Full re-annotation baseline on an identically-updated copy.
    s.load(b).unwrap();
    s.annotate(b).unwrap();
    b.delete(u).unwrap();
    s.full_reannotate(b).unwrap();
    let full = b.accessible_count().unwrap();

    assert_eq!(partial, full, "{}: partial != full after `{u}`", b.name());
}

#[test]
fn hospital_updates_converge_on_all_backends() {
    let doc = hospital_document(2, 60, 11);
    let s = System::builder(hospital_schema(), xac_policy::policy::hospital_policy(), doc).build().unwrap();
    let updates = [
        "//patient/treatment",
        "//treatment",
        "//treatment[experimental]",
        "//regular",
        "//experimental",
        "//patient[treatment]",
        "//regular/med",
        "//staffinfo/staff",
    ];
    for u in updates {
        let path = xac_xpath::parse(u).unwrap();
        for mut b in backends() {
            check_update(&s, b.as_mut(), &path);
        }
    }
}

#[test]
fn xmark_generated_updates_converge_natively() {
    // The native backend is cheap enough to sweep a larger update corpus.
    let doc = xmark_document(XmarkConfig::with_factor(0.004));
    let policy = coverage_policy(&doc, 0.5, 23);
    let s = System::builder(xmark_schema(), policy, doc).build().unwrap();
    let mut b = NativeXmlBackend::new();
    for u in delete_updates(&xmark_schema(), 30, 31) {
        check_update(&s, &mut b, &u);
    }
}

#[test]
fn xmark_generated_updates_converge_relationally() {
    let doc = xmark_document(XmarkConfig::with_factor(0.002));
    let policy = coverage_policy(&doc, 0.4, 29);
    let s = System::builder(xmark_schema(), policy, doc).build().unwrap();
    for mut b in backends() {
        for u in delete_updates(&xmark_schema(), 8, 37) {
            check_update(&s, b.as_mut(), &u);
        }
    }
}

/// Set-level (not just count-level) convergence on the relational store.
#[test]
fn partial_and_full_accessible_sets_identical() {
    let doc = hospital_document(2, 40, 19);
    let s = System::builder(hospital_schema(), xac_policy::policy::hospital_policy(), doc).build().unwrap();
    let u = xac_xpath::parse("//treatment[experimental]").unwrap();

    let mut b = RelationalBackend::column();
    s.load(&mut b).unwrap();
    s.annotate(&mut b).unwrap();
    s.apply(&mut b, &Update::Delete(u.clone())).unwrap();
    let partial: BTreeSet<i64> = b.accessible_ids().unwrap();

    s.load(&mut b).unwrap();
    s.annotate(&mut b).unwrap();
    b.delete(&u).unwrap();
    s.full_reannotate(&mut b).unwrap();
    let full: BTreeSet<i64> = b.accessible_ids().unwrap();

    assert_eq!(partial, full);
}

/// Sequential updates: consistency must hold when updates accumulate
/// without reloading in between.
#[test]
fn sequential_updates_stay_consistent() {
    let doc = hospital_document(2, 50, 3);
    let s = System::builder(hospital_schema(), xac_policy::policy::hospital_policy(), doc).build().unwrap();
    let sequence = ["//experimental", "//regular/bill", "//treatment"];

    let mut partial = NativeXmlBackend::new();
    s.load(&mut partial).unwrap();
    s.annotate(&mut partial).unwrap();

    let mut baseline = NativeXmlBackend::new();
    s.load(&mut baseline).unwrap();
    s.annotate(&mut baseline).unwrap();

    for u in sequence {
        let path = xac_xpath::parse(u).unwrap();
        s.apply(&mut partial, &Update::Delete(path.clone())).unwrap();
        baseline.delete(&path).unwrap();
        s.full_reannotate(&mut baseline).unwrap();
        assert_eq!(
            partial.accessible_count().unwrap(),
            baseline.accessible_count().unwrap(),
            "diverged after `{u}`"
        );
    }
}

/// The repair must converge under *all four* `(ds, cr)` semantics, not
/// just the common deny/deny-overrides case the paper benchmarks.
#[test]
fn all_four_semantics_converge() {
    let doc = hospital_document(1, 40, 47);
    let rules = "R1 allow //patient\nR3 deny //patient[treatment]\n\
                 R6 allow //regular\nR5 deny //patient[.//experimental]\n";
    let updates = ["//patient/treatment", "//experimental", "//regular/med"];
    for ds in ["deny", "allow"] {
        for cr in ["deny-overrides", "allow-overrides"] {
            let policy = xac_policy::Policy::parse(&format!(
                "default {ds}\nconflict {cr}\n{rules}"
            ))
            .unwrap();
            let s = System::builder(hospital_schema(), policy, doc.clone()).build().unwrap();
            let mut b = NativeXmlBackend::new();
            for u in updates {
                let path = xac_xpath::parse(u).unwrap();
                s.load(&mut b).unwrap();
                s.annotate(&mut b).unwrap();
                s.apply(&mut b, &Update::Delete(path.clone())).unwrap();
                let partial = b.accessible_count().unwrap();

                s.load(&mut b).unwrap();
                s.annotate(&mut b).unwrap();
                b.delete(&path).unwrap();
                s.full_reannotate(&mut b).unwrap();
                let full = b.accessible_count().unwrap();
                assert_eq!(partial, full, "ds={ds} cr={cr} update={u}");
            }
        }
    }
}

/// The optimization must actually be an optimization: partial writes far
/// fewer signs than a full pass for a localized update.
#[test]
fn partial_writes_fewer_signs() {
    let doc = xmark_document(XmarkConfig::with_factor(0.01));
    let policy = coverage_policy(&doc, 0.6, 41);
    let s = System::builder(xmark_schema(), policy, doc).build().unwrap();
    let mut b = NativeXmlBackend::new();

    // A localized update: delete mail threads.
    let u = xac_xpath::parse("//mailbox/mail").unwrap();
    s.load(&mut b).unwrap();
    let full_writes = s.annotate(&mut b).unwrap();
    let outcome = s.apply(&mut b, &Update::Delete(u.clone())).unwrap();
    if !outcome.plan.is_empty() {
        assert!(
            outcome.sign_writes < full_writes,
            "partial {} !< full {full_writes}",
            outcome.sign_writes
        );
    }
}
