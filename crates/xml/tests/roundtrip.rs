//! Property test: serialize → parse is the identity on the tree model
//! (both compact and pretty forms), for randomized documents including
//! attributes, text values and characters needing escapes.
//!
//! Seeded hand-rolled generation (no external crates): each case index
//! deterministically derives one document, so failures reproduce.

use xac_xml::Document;

/// Seeded splitmix64 stream over the shared [`xac_obs::splitmix64`] step.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        xac_obs::splitmix64(&mut self.0)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }
}

fn random_name(rng: &mut Rng) -> String {
    const FIRST: &[char] = &['a', 'b', 'c', 'x', 'y', 'z'];
    const REST: &[char] = &['a', 'z', '0', '9', '_', '-'];
    let mut s = String::new();
    s.push(FIRST[rng.below(FIRST.len())]);
    for _ in 0..rng.below(7) {
        s.push(REST[rng.below(REST.len())]);
    }
    s
}

fn random_text(rng: &mut Rng) -> String {
    // Include every character the serializer must escape; avoid
    // leading/trailing whitespace (the parser trims insignificant space).
    const TEXTS: &[&str] = &[
        "hello",
        "a & b",
        "x<y>z",
        "quote\"apos'",
        "700",
        "héllo→unicode",
    ];
    TEXTS[rng.below(TEXTS.len())].to_string()
}

/// Grow a random subtree under `parent`: leaves carry optional text, inner
/// nodes up to 3 children, both optionally attributed — depth-bounded.
fn attach_random(doc: &mut Document, parent: xac_xml::NodeId, rng: &mut Rng, depth: usize) {
    let n = doc.add_element(parent, random_name(rng));
    if rng.chance(40) {
        doc.set_attribute(n, random_name(rng), random_text(rng));
    }
    if depth == 0 || rng.chance(40) {
        if rng.chance(60) {
            doc.add_text(n, random_text(rng));
        }
    } else {
        for _ in 0..rng.below(4) {
            attach_random(doc, n, rng, depth - 1);
        }
    }
}

fn random_document(rng: &mut Rng) -> Document {
    let mut doc = Document::new(random_name(rng));
    let root = doc.root();
    if rng.chance(40) {
        doc.set_attribute(root, random_name(rng), random_text(rng));
    }
    if rng.chance(30) {
        doc.add_text(root, random_text(rng));
    } else {
        for _ in 0..rng.below(4) {
            attach_random(&mut doc, root, rng, 2);
        }
    }
    doc
}

/// Structural equality that survives re-parsing (NodeIds differ).
fn same_structure(a: &Document, b: &Document) -> bool {
    fn eq(a: &Document, an: xac_xml::NodeId, b: &Document, bn: xac_xml::NodeId) -> bool {
        if a.kind(an) != b.kind(bn) {
            return false;
        }
        if a.attributes(an) != b.attributes(bn) {
            return false;
        }
        let ak: Vec<_> = a.children(an).collect();
        let bk: Vec<_> = b.children(bn).collect();
        ak.len() == bk.len() && ak.iter().zip(&bk).all(|(&x, &y)| eq(a, x, b, y))
    }
    eq(a, a.root(), b, b.root())
}

#[test]
fn compact_round_trip() {
    let mut rng = Rng(0xD1);
    for case in 0..128 {
        let doc = random_document(&mut rng);
        let xml = doc.to_xml();
        let re = Document::parse_str(&xml)
            .unwrap_or_else(|e| panic!("case {case}: reparse failed: {e}\n{xml}"));
        assert!(same_structure(&doc, &re), "case {case}: structure changed:\n{xml}");
        assert_eq!(re.to_xml(), xml, "case {case}: serialization not a fixpoint");
    }
}

#[test]
fn pretty_round_trip() {
    let mut rng = Rng(0xD2);
    for case in 0..128 {
        let doc = random_document(&mut rng);
        let pretty = doc.to_pretty_xml();
        let re = Document::parse_str(&pretty)
            .unwrap_or_else(|e| panic!("case {case}: reparse failed: {e}\n{pretty}"));
        assert!(same_structure(&doc, &re), "case {case}: structure changed:\n{pretty}");
    }
}

#[test]
fn element_counts_preserved() {
    let mut rng = Rng(0xD3);
    for case in 0..128 {
        let doc = random_document(&mut rng);
        let re = Document::parse_str(&doc.to_xml()).unwrap();
        assert_eq!(doc.element_count(), re.element_count(), "case {case}");
        assert_eq!(doc.len(), re.len(), "case {case}");
        assert_eq!(doc.height(), re.height(), "case {case}");
    }
}
