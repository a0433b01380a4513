//! Footprint re-annotation, the compiled engine's pass after a
//! structural write: after every seeded insert or delete, on every
//! backend, the signs it leaves are byte-identical to a full compiled
//! annotation of the same document (and grant Table 2's accessible
//! set), and its sign writes are exactly the update's net sign change.
//!
//! The policies cover a qualifier on an ancestor of the update point
//! (the hospital policy's `//patient[treatment]`), value qualifiers
//! with inserts that carry text, a qualifier on a wildcard step (the
//! whole-document footprint), and deletes of subtrees that hold
//! qualifier targets. One test replays the benchmark workloads' shape
//! (one child inserted under every `//<region>/item`, then deleted); the
//! last drives the serving engine's degradation ladder with a fault
//! inside the pass.

use std::collections::BTreeMap;
use xac_core::{AnnotateMode, Backend, System, Update};
use xac_policy::Policy;
use xac_serve::BackendKind;
use xac_xml::NodeId;
use xac_xmlgen::{
    coverage_policy, figure2_document, hospital_document, hospital_schema, xmark_document,
    xmark_schema, SplitMix64, XmarkConfig,
};

const DELETES: [&str; 8] = [
    "//patient/treatment",
    "//regular",
    "//med",
    "//experimental",
    "//treatment[regular]",
    "//patient[psn = \"099\"]",
    "//staffinfo/staff",
    "//bill",
];

const INSERTS: [(&str, &str, Option<&str>); 10] = [
    ("//patient", "treatment", None),
    ("//treatment", "regular", None),
    ("//treatment", "experimental", None),
    ("//regular", "med", Some("x")),
    ("//regular", "bill", Some("2000")),
    ("//experimental", "bill", Some("10")),
    ("//patient", "name", Some("v 1")),
    ("//patients", "patient", None),
    ("//patient", "psn", Some("099")),
    ("//experimental", "test", Some("t")),
];

fn hospital_system(policy: Policy, seed: u64) -> System {
    System::builder(hospital_schema(), policy, hospital_document(2, 4, seed))
        .annotate_mode(AnnotateMode::Compiled)
        .build()
        .unwrap()
}

fn seeded_update(rng: &mut SplitMix64) -> Update {
    if rng.gen_bool(0.4) {
        return Update::Delete(xac_xpath::parse(DELETES[rng.gen_range(0..DELETES.len())]).unwrap());
    }
    let (parent, name, text) = INSERTS[rng.gen_range(0..INSERTS.len())];
    Update::Insert {
        parent: xac_xpath::parse(parent).unwrap(),
        name: name.to_string(),
        text: text.map(str::to_string),
    }
}

/// The signs a full compiled annotation leaves on `b`'s document: a
/// fresh backend restores `b`'s checkpoint and re-annotates from
/// scratch.
fn full_annotation(s: &System, kind: BackendKind, b: &mut dyn Backend) -> BTreeMap<i64, char> {
    let mut fresh = kind.make(AnnotateMode::Compiled);
    fresh.restore(&b.checkpoint().unwrap()).unwrap();
    s.full_reannotate(fresh.as_mut()).unwrap();
    fresh.sign_state().unwrap()
}

/// Apply `update` to `b` and check the footprint pass against a full
/// annotation, Table 2 and the net sign change; returns its sign writes.
fn check(s: &System, kind: BackendKind, b: &mut dyn Backend, update: &Update, at: &str) -> usize {
    let default = if s.policy().default_semantics == xac_policy::DefaultSemantics::Allow {
        '+'
    } else {
        '-'
    };
    b.sign_changes().unwrap();
    let width = b.snapshot().unwrap().store().doc().arena_len();
    let outcome = s.apply(b, update).unwrap();
    let snap = b.snapshot().unwrap();
    let doc = snap.store().doc();
    // The net change: changed signs of surviving elements, and new
    // elements' signs other than the default a relational row starts at.
    let diff = b.sign_changes().unwrap();
    let live = |id: i64| doc.is_alive(NodeId::from_index(id as usize));
    let set = diff.set.iter().filter(|&&(id, sign)| (id as usize) < width || sign != default);
    let net = set.count() + diff.clear.iter().filter(|&&id| live(id)).count();
    assert_eq!(outcome.sign_writes, net, "{at}: writes vs net change of {update:?}");
    assert_eq!(
        b.sign_state().unwrap(),
        full_annotation(s, kind, b),
        "{at}: footprint vs full annotation after {update:?}"
    );
    let table2 = xac_policy::accessible_nodes(doc, s.policy()).len();
    assert_eq!(snap.accessible_count(), table2, "{at}: Table 2 after {update:?}");
    outcome.sign_writes
}

/// Drive `steps` seeded updates against every backend. A second
/// compiled backend follows in lockstep through the paper's scope pass
/// (`reannotator::apply`), as the benchmark's side replay does: it writes
/// only the signs it changes too, so both count the same writes.
fn run(s: &System, steps: usize, seed: u64, label: &str) {
    for kind in BackendKind::ALL {
        let mut b = kind.make(AnnotateMode::Compiled);
        let mut side = kind.make(AnnotateMode::Compiled);
        for x in [&mut b, &mut side] {
            s.load(x.as_mut()).unwrap();
            s.annotate(x.as_mut()).unwrap();
        }
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut written = 0;
        for step in 0..steps {
            let update = seeded_update(&mut rng);
            let at = format!("{label}/{kind:?} step {step}");
            let writes = check(s, kind, b.as_mut(), &update, &at);
            let plan = s.plan_update(&update.trigger_path());
            let selection = side.select(update.target()).unwrap();
            update.write(side.as_mut(), &selection).unwrap();
            let side_writes = xac_core::reannotator::apply(side.as_mut(), &plan).unwrap();
            assert_eq!(side_writes, writes, "{at}: scope pass vs footprint pass writes");
            assert_eq!(side.sign_state().unwrap(), b.sign_state().unwrap(), "{at}: signs");
            written += writes;
        }
        assert!(written > 0, "{label}/{kind:?}: the updates change signs");
    }
}

#[test]
fn a_qualifier_above_the_update_point_widens_the_footprint() {
    for seed in [3, 17] {
        let s = hospital_system(xac_policy::policy::hospital_policy(), seed);
        let labels = s.analysis().qualifier_labels().expect("named qualifier steps");
        assert!(labels.iter().any(|l| l == "patient"), "{labels:?}");
        run(&s, 30, seed, &format!("hospital(seed={seed})"));
    }
}

/// Qualifiers two and three levels above the update points, whose
/// signs land on other nodes of the qualified subtree.
#[test]
fn qualifiers_above_the_update_point_resign_their_subtrees() {
    let policy = Policy::parse(
        "default deny\nconflict deny-overrides\n\
         D1 allow //patient[.//med]/name\nD2 allow //dept[.//experimental]//bill\n\
         D3 deny //patient[treatment/regular]//bill\nD4 allow //patient[psn = \"099\"]//test\n\
         D5 allow //treatment[regular]/experimental\n",
    )
    .unwrap();
    for seed in [9, 23] {
        run(&hospital_system(policy.clone(), seed), 30, seed, &format!("descendants(seed={seed})"));
    }
}

#[test]
fn value_qualifiers_follow_inserted_text() {
    let policy = Policy::parse(
        "default deny\nconflict deny-overrides\n\
         V1 allow //patient\nV2 allow //name\nV3 deny //name[. = \"v 1\"]\n\
         V4 allow //bill[. > 1000]\nV5 deny //patient[psn = \"099\"]\n\
         V6 allow //regular[med = \"x\"]\nV7 allow //test\n",
    )
    .unwrap();
    run(&hospital_system(policy, 5), 30, 5, "values");
}

#[test]
fn a_wildcard_qualifier_falls_back_to_the_whole_document() {
    let policy = Policy::parse(
        "default allow\nconflict allow-overrides\n\
         W1 deny //treatment/*[med = \"x\"]\nW2 deny //*[experimental]\nW3 allow //name\n",
    )
    .unwrap();
    let s = hospital_system(policy, 7);
    assert_eq!(s.analysis().qualifier_labels(), None);
    run(&s, 30, 7, "wildcard");
}

#[test]
fn region_item_insert_delete_pairs_write_the_net_change() {
    let doc = xmark_document(XmarkConfig::with_factor(0.005));
    let policy = coverage_policy(&doc, 0.5, 1);
    let children: Vec<String> = policy
        .positives()
        .filter_map(|r| r.resource.to_string().strip_prefix("//").map(str::to_string))
        .filter(|n| n.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'))
        .take(3)
        .collect();
    let s = System::builder(xmark_schema(), policy, doc)
        .annotate_mode(AnnotateMode::Compiled)
        .build()
        .unwrap();
    for kind in BackendKind::ALL {
        let mut b = kind.make(AnnotateMode::Compiled);
        s.load(b.as_mut()).unwrap();
        s.annotate(b.as_mut()).unwrap();
        for region in xac_xmlgen::xmark::REGIONS {
            for child in &children {
                let parent = format!("//{region}/item");
                let insert = Update::Insert {
                    parent: xac_xpath::parse(&parent).unwrap(),
                    name: child.clone(),
                    text: None,
                };
                let path = xac_xpath::parse(&format!("{parent}/{child}")).unwrap();
                let delete = Update::Delete(path);
                let label = format!("{kind:?} {parent}/{child}");
                check(&s, kind, b.as_mut(), &insert, &label);
                check(&s, kind, b.as_mut(), &delete, &label);
            }
        }
    }
}

/// The serving engine's ladder on the compiled pass: a `mid_reannotate`
/// fault fired inside the footprint pass falls back to full
/// re-annotation; with the fallback's annotate failing too, the engine
/// rolls back and the retried delete converges. Both end where a
/// no-fault engine ends.
#[test]
fn the_engine_ladder_catches_a_fault_inside_the_footprint_pass() {
    use std::sync::Arc;
    use xac_core::FaultPlan;
    use xac_serve::ServeEngine;
    let policy = xac_policy::policy::hospital_policy();
    let system = System::builder(hospital_schema(), policy, figure2_document())
        .annotate_mode(AnnotateMode::Compiled)
        .build()
        .unwrap();
    let system = Arc::new(system);
    let regular = xac_xpath::parse("//regular").unwrap();
    let signs = |e: &ServeEngine| e.with_writer(|b| b.sign_state().unwrap()).unwrap();
    for kind in BackendKind::ALL {
        let clean = ServeEngine::for_kind(Arc::clone(&system), kind).unwrap();
        assert!(clean.guarded_delete(&regular).unwrap().applied());
        let expected = signs(&clean);

        let plan = FaultPlan::parse("mid_reannotate:error").unwrap();
        let e = ServeEngine::for_kind_with_faults(Arc::clone(&system), kind, plan).unwrap();
        assert!(e.guarded_delete(&regular).unwrap().applied(), "{kind:?}");
        let m = e.metrics();
        assert_eq!((m.faults_injected, m.full_fallbacks), (1, 1), "{kind:?}: fallback");
        assert_eq!(signs(&e), expected, "{kind:?}: after the fallback");

        let plan = FaultPlan::parse("mid_reannotate:error,before_annotate:error+1").unwrap();
        let e = ServeEngine::for_kind_with_faults(Arc::clone(&system), kind, plan).unwrap();
        assert!(e.guarded_delete(&regular).is_err(), "{kind:?}: the fallback fails too");
        assert_eq!(e.metrics().rollbacks, 1, "{kind:?}");
        assert!(e.guarded_delete(&regular).unwrap().applied(), "{kind:?}: retry");
        assert_eq!(signs(&e), expected, "{kind:?}: after the rollback and retry");
    }
}
