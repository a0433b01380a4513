//! Property-based cross-checks over the static-analysis core: containment
//! soundness against evaluation, parser round-trips, index-accelerated
//! evaluation, and the XPath→SQL translation — all on randomized inputs.
//!
//! Randomness comes from the seeded in-repo [`xac_xmlgen::SplitMix64`]
//! stream, so every run explores the same cases and failures reproduce.

use xac_xml::Document;
use xac_xmlgen::SplitMix64;
use xac_xpath::{contained_in, eval, parse, Axis, NodeTest, Path, Qualifier, Step};

// ---------------------------------------------------------------------
// Random trees over a small alphabet
// ---------------------------------------------------------------------

const LABELS: &[&str] = &["a", "b", "c", "d"];
const VALUES: &[&str] = &["1", "2", "x"];

fn label(rng: &mut SplitMix64) -> &'static str {
    LABELS[rng.gen_range(0..LABELS.len())]
}

fn value(rng: &mut SplitMix64) -> &'static str {
    VALUES[rng.gen_range(0..VALUES.len())]
}

fn attach_random(doc: &mut Document, parent: xac_xml::NodeId, rng: &mut SplitMix64, depth: usize) {
    let n = doc.add_element(parent, label(rng));
    if depth == 0 || rng.gen_bool(0.4) {
        if rng.gen_bool(0.5) {
            doc.add_text(n, value(rng));
        }
    } else {
        for _ in 0..rng.gen_range(0..4usize) {
            attach_random(doc, n, rng, depth - 1);
        }
    }
}

fn random_document(rng: &mut SplitMix64) -> Document {
    let mut doc = Document::new(label(rng));
    let root = doc.root();
    for _ in 0..rng.gen_range(0..4usize) {
        attach_random(&mut doc, root, rng, 2);
    }
    doc
}

// ---------------------------------------------------------------------
// Random paths in the fragment
// ---------------------------------------------------------------------

fn random_qualifier(rng: &mut SplitMix64) -> Qualifier {
    if rng.gen_bool(0.5) {
        Qualifier::Exists(Path::relative(vec![Step::child(label(rng))]))
    } else {
        Qualifier::Cmp(
            Path::relative(vec![Step::child(label(rng))]),
            xac_xpath::CmpOp::Eq,
            value(rng).to_string(),
        )
    }
}

fn random_step(rng: &mut SplitMix64) -> Step {
    let axis = if rng.gen_bool(0.5) { Axis::Child } else { Axis::Descendant };
    let test = if rng.gen_bool(0.75) {
        NodeTest::Name(label(rng).to_string())
    } else {
        NodeTest::Wildcard
    };
    let predicates = (0..rng.gen_range(0..2usize)).map(|_| random_qualifier(rng)).collect();
    Step { axis, test, predicates }
}

fn random_path(rng: &mut SplitMix64) -> Path {
    let steps = (0..rng.gen_range(1..4usize)).map(|_| random_step(rng)).collect();
    Path::absolute(steps)
}

/// Drop every predicate (a strict generalization of the path).
fn strip_predicates(p: &Path) -> Path {
    Path::absolute(
        p.steps
            .iter()
            .map(|s| Step::new(s.axis, s.test.clone()))
            .collect(),
    )
}

/// Turn every child axis into descendant (another generalization).
fn loosen_axes(p: &Path) -> Path {
    Path::absolute(
        p.steps
            .iter()
            .map(|s| Step {
                axis: Axis::Descendant,
                test: s.test.clone(),
                predicates: s.predicates.clone(),
            })
            .collect(),
    )
}

fn is_subset(a: &[xac_xml::NodeId], b: &[xac_xml::NodeId]) -> bool {
    let set: std::collections::BTreeSet<_> = b.iter().collect();
    a.iter().all(|n| set.contains(n))
}

/// Soundness: whenever the homomorphism test claims `p ⊑ q`, the
/// result sets obey it on arbitrary trees.
#[test]
fn containment_claim_implies_subset() {
    let mut rng = SplitMix64::seed_from_u64(0x11);
    for _ in 0..96 {
        let p = random_path(&mut rng);
        let q = random_path(&mut rng);
        if contained_in(&p, &q) {
            let doc = random_document(&mut rng);
            assert!(
                is_subset(&eval(&doc, &p), &eval(&doc, &q)),
                "checker claimed {p} ⊑ {q} but results differ"
            );
        }
    }
}

/// Derived generalizations must be recognized as containing the
/// original (a completeness check on the subclass that matters).
#[test]
fn derived_generalizations_contain() {
    let mut rng = SplitMix64::seed_from_u64(0x12);
    for _ in 0..96 {
        let p = random_path(&mut rng);
        assert!(contained_in(&p, &p), "reflexivity on {p}");
        assert!(contained_in(&p, &strip_predicates(&p)), "{p} vs stripped");
        assert!(contained_in(&p, &loosen_axes(&p)), "{p} vs loosened");
    }
}

/// Display output re-parses to the identical AST.
#[test]
fn display_parse_round_trip() {
    let mut rng = SplitMix64::seed_from_u64(0x13);
    for _ in 0..96 {
        let p = random_path(&mut rng);
        let printed = p.to_string();
        let reparsed = parse(&printed).unwrap_or_else(|e| panic!("{printed}: {e}"));
        assert_eq!(p, reparsed);
    }
}

/// Evaluation returns deduplicated, document-ordered results, and
/// generalizations select supersets on real trees.
#[test]
fn eval_invariants() {
    let mut rng = SplitMix64::seed_from_u64(0x14);
    for _ in 0..96 {
        let p = random_path(&mut rng);
        let doc = random_document(&mut rng);
        let r = eval(&doc, &p);
        assert!(r.windows(2).all(|w| w[0] < w[1]), "sorted + unique for {p}");
        let stripped = eval(&doc, &strip_predicates(&p));
        assert!(is_subset(&r, &stripped), "{p} vs stripped");
        let loosened = eval(&doc, &loosen_axes(&p));
        assert!(is_subset(&r, &loosened), "{p} vs loosened");
    }
}

/// The name-indexed evaluation of the native store agrees with the
/// reference evaluation.
#[test]
fn indexed_eval_matches_reference() {
    let mut rng = SplitMix64::seed_from_u64(0x15);
    for _ in 0..96 {
        let p = random_path(&mut rng);
        let doc = random_document(&mut rng);
        let sdoc = xac_xmlstore::StoredDocument::new(doc.clone());
        assert_eq!(sdoc.eval(&p), eval(&doc, &p), "indexed eval differs for {p}");
    }
}

/// XPath→SQL translation agrees with tree evaluation on generated
/// hospital documents, for workload queries drawn from the schema.
#[test]
fn sql_translation_matches_eval() {
    let mut rng = SplitMix64::seed_from_u64(0x16);
    for _ in 0..24 {
        let seed = rng.gen_range(0..500u64);
        let qseed = rng.gen_range(0..500u64);
        let schema = xac_xmlgen::hospital_schema();
        let doc = xac_xmlgen::hospital_document(1, 12, seed);
        let mapping = xac_shrex::Mapping::derive(&schema).unwrap();
        let sql_text = xac_shrex::shred_to_sql(&doc, &mapping, '-').unwrap();
        let mut db = xac_reldb::Database::new(xac_reldb::StorageKind::Row);
        db.execute_script(&mapping.ddl()).unwrap();
        db.execute_script(&sql_text).unwrap();

        for q in xac_xmlgen::query_workload(&schema, 6, qseed) {
            let expected: std::collections::BTreeSet<i64> = eval(&doc, &q)
                .into_iter()
                .map(xac_shrex::shred::id_of)
                .collect();
            let sql = xac_shrex::translate(&q, &schema).unwrap();
            let got = db.query(&sql).unwrap().column_as_int_set(0);
            assert_eq!(got, expected, "mismatch for {q} (seed {seed})");
        }
    }
}
