//! The plain-record arena against whole generated documents: parse →
//! serialize is byte-identical, text (multibyte and empty) reads back
//! from the per-chunk buffers, and delete + compact keeps the
//! serialization and every XPath answer.

use xac_xml::{Document, NodeId};
use xac_xmlgen::{hospital_document, xmark_document, XmarkConfig};

fn generated() -> Vec<(&'static str, Document)> {
    vec![
        ("hospital", hospital_document(8, 60, 7)),
        ("xmark f=0.02", xmark_document(XmarkConfig::with_factor(0.02))),
    ]
}

#[test]
fn parse_then_serialize_is_byte_identical() {
    for (what, doc) in generated() {
        let xml = doc.to_xml();
        let parsed = Document::parse_str(&xml).unwrap();
        assert_eq!(parsed.to_xml(), xml, "{what}");
        assert_eq!(parsed.arena_len(), doc.arena_len(), "{what}: one record per node");
        assert!(parsed.arena_len() > 2 * xac_xml::CHUNK, "{what}: several chunks");
        let pretty = Document::parse_str(&doc.to_pretty_xml()).unwrap();
        assert_eq!(pretty.to_xml(), xml, "{what}: pretty form");
    }
    let literal = "<a><b>naïve ✓ 東京</b><c>&lt;x&gt; &amp; ü</c><d/><e>ascii</e></a>";
    assert_eq!(Document::parse_str(literal).unwrap().to_xml(), literal);
}

/// Multibyte and empty text values, spread over several chunks, read
/// back byte for byte; an empty text node serializes as an empty
/// element body.
#[test]
fn multibyte_and_empty_texts_read_back_from_their_chunks() {
    let mut doc = Document::new("r");
    let mut texts = Vec::new();
    for i in 0..1500 {
        let e = doc.add_element(doc.root(), "e");
        let value = match i % 3 {
            0 => String::new(),
            1 => format!("東京 {i} ✓"),
            _ => format!("v{i}"),
        };
        texts.push((doc.add_text(e, value.clone()), value));
    }
    for (node, value) in &texts {
        assert_eq!(doc.text_value(*node), Some(value.as_str()));
    }
    let first = doc.children(doc.root()).next().unwrap();
    assert_eq!(doc.text_of(first), "");
    let xml = doc.to_xml();
    assert!(xml.starts_with("<r><e></e><e>東京 1 ✓</e><e>v2</e>"), "{}", &xml[..40]);
    // The parser drops empty text, so the reparse is the fixpoint.
    let reparsed = Document::parse_str(&xml).unwrap().to_xml();
    assert_eq!(reparsed, xml.replace("<e></e>", "<e/>"));
}

#[test]
fn delete_then_compact_keeps_serialization_and_xpath_answers() {
    let queries = ["//item", "//item/name", "//person[name]", "/site/regions//item[quantity > 5]", "//*"];
    for (what, mut doc) in generated() {
        let victims: Vec<NodeId> = doc
            .all_elements()
            .filter(|&n| doc.depth(n) == 3)
            .step_by(3)
            .collect();
        assert!(!victims.is_empty(), "{what}");
        for &n in &victims {
            doc.remove_subtree(n).unwrap();
        }
        let added = doc.add_element(doc.root(), "appended");
        doc.add_text(added, "after the deletes");
        let xml = doc.to_xml();
        let before: Vec<Vec<NodeId>> = queries
            .iter()
            .map(|q| xac_xpath::eval(&doc, &xac_xpath::parse(q).unwrap()))
            .collect();
        let (len, elements) = (doc.len(), doc.element_count());
        let remap = doc.compact();
        assert_eq!(doc.to_xml(), xml, "{what}");
        assert_eq!((doc.arena_len(), doc.len(), doc.element_count()), (len, len, elements));
        for (q, old) in queries.iter().zip(before) {
            let moved: Vec<NodeId> = old.iter().map(|n| remap[n.index()].unwrap()).collect();
            let after = xac_xpath::eval(&doc, &xac_xpath::parse(q).unwrap());
            assert_eq!(after, moved, "{what}: {q}");
        }
    }
}
