//! Set-semantics evaluation of the fragment over [`xac_xml::Document`]
//! trees: `[[p]](T)` returns the set of nodes selected by `p`, in document
//! order (paper §2.2; semantics follow Wadler \[25\] / Gottlob et al. \[12\]
//! restricted to the fragment).
//!
//! Node tests match *element* nodes only — text nodes are values from `D`
//! and are reached through comparisons, never selected.

use crate::ast::{Axis, Path, Qualifier, Step};
use std::collections::BTreeSet;
use xac_xml::{Document, NodeId};

/// Evaluate an absolute path on the document. Returns selected element
/// nodes in document order (arena order).
pub fn eval(doc: &Document, path: &Path) -> Vec<NodeId> {
    assert!(path.absolute, "eval requires an absolute path, got `{path}`");
    // The virtual context "above" the root: a child step selects the root
    // itself, a descendant step selects every element.
    match path.steps.split_first() {
        Some((first, rest)) => eval_steps(doc, apply_first_step(doc, first), rest),
        None => Vec::new(),
    }
}

/// Evaluate a relative path from a context node. The self path returns the
/// context node itself.
pub fn eval_from(doc: &Document, context: NodeId, path: &Path) -> Vec<NodeId> {
    assert!(!path.absolute, "eval_from requires a relative path, got `{path}`");
    eval_steps(doc, BTreeSet::from([context]), &path.steps)
}

/// Apply `steps` in turn from the context set `current`: the selected
/// element nodes in document order.
pub fn eval_steps(doc: &Document, mut current: BTreeSet<NodeId>, steps: &[Step]) -> Vec<NodeId> {
    for step in steps {
        if current.is_empty() {
            break;
        }
        current = apply_step(doc, &current, step);
    }
    current.into_iter().collect()
}

fn apply_first_step(doc: &Document, step: &Step) -> BTreeSet<NodeId> {
    let mut out = BTreeSet::new();
    match step.axis {
        Axis::Child => {
            // Children of the virtual root = the document root.
            let root = doc.root();
            if node_matches(doc, root, step) {
                out.insert(root);
            }
        }
        Axis::Descendant => {
            // Descendants of the virtual root = every node.
            for n in doc.subtree(doc.root()) {
                if node_matches(doc, n, step) {
                    out.insert(n);
                }
            }
        }
    }
    out
}

fn apply_step(doc: &Document, current: &BTreeSet<NodeId>, step: &Step) -> BTreeSet<NodeId> {
    let mut out = BTreeSet::new();
    match step.axis {
        Axis::Child => {
            for &ctx in current {
                for c in doc.children(ctx) {
                    if node_matches(doc, c, step) {
                        out.insert(c);
                    }
                }
            }
        }
        Axis::Descendant => {
            // When contexts nest, descendants overlap; the set dedups.
            for &ctx in current {
                for d in doc.descendants(ctx) {
                    if node_matches(doc, d, step) {
                        out.insert(d);
                    }
                }
            }
        }
    }
    out
}

fn node_matches(doc: &Document, node: NodeId, step: &Step) -> bool {
    let Some(name) = doc.name(node) else {
        return false; // text nodes are never selected by a node test
    };
    if !step.test.matches(name) {
        return false;
    }
    step.predicates.iter().all(|q| qualifier_holds(doc, node, q))
}

/// Evaluate a qualifier at a context node.
pub fn qualifier_holds(doc: &Document, context: NodeId, q: &Qualifier) -> bool {
    match q {
        Qualifier::Exists(p) => {
            if p.is_self() {
                return true;
            }
            !eval_from(doc, context, p).is_empty()
        }
        Qualifier::Cmp(p, op, d) => {
            if p.is_self() {
                return op.compare(&string_value(doc, context), d);
            }
            eval_from(doc, context, p)
                .into_iter()
                .any(|n| op.compare(&string_value(doc, n), d))
        }
        Qualifier::And(qs) => qs.iter().all(|q| qualifier_holds(doc, context, q)),
    }
}

/// The string value used in comparisons: the concatenation of the
/// element's direct text children (leaf elements carry their datum there).
fn string_value(doc: &Document, node: NodeId) -> String {
    doc.text_of(node)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use xac_xml::Document;

    /// The partial hospital document of the paper's Figure 2.
    pub(crate) fn figure2() -> Document {
        Document::parse_str(
            "<hospital><dept><patients>\
             <patient><psn>033</psn><name>john doe</name>\
             <treatment><regular><med>enoxaparin</med><bill>700</bill></regular></treatment>\
             </patient>\
             <patient><psn>042</psn><name>jane doe</name>\
             <treatment><experimental><test>regression hypnosis</test><bill>1600</bill></experimental></treatment>\
             </patient>\
             <patient><psn>099</psn><name>joy smith</name></patient>\
             </patients><staffinfo/></dept></hospital>",
        )
        .unwrap()
    }

    fn names(doc: &Document, ids: &[NodeId]) -> Vec<String> {
        ids.iter().map(|&n| doc.name(n).unwrap().to_string()).collect()
    }

    fn run(doc: &Document, src: &str) -> Vec<NodeId> {
        eval(doc, &parse(src).unwrap())
    }

    #[test]
    fn descendant_from_root() {
        let doc = figure2();
        assert_eq!(run(&doc, "//patient").len(), 3);
        assert_eq!(run(&doc, "//hospital").len(), 1, "// includes the root");
        assert_eq!(run(&doc, "//bill").len(), 2);
    }

    #[test]
    fn child_chains() {
        let doc = figure2();
        assert_eq!(run(&doc, "/hospital").len(), 1);
        assert_eq!(run(&doc, "/hospital/dept/patients/patient").len(), 3);
        assert_eq!(run(&doc, "/dept").len(), 0, "root is hospital, not dept");
        assert_eq!(run(&doc, "/hospital/patient").len(), 0, "child, not descendant");
    }

    #[test]
    fn wildcard_matches_elements_only() {
        let doc = figure2();
        // Children of patient: psn, name, treatment (text nodes excluded).
        assert_eq!(run(&doc, "//patient/*").len(), 8);
        let all = run(&doc, "//*");
        assert_eq!(all.len(), doc.element_count());
    }

    #[test]
    fn existence_predicates() {
        let doc = figure2();
        assert_eq!(run(&doc, "//patient[treatment]").len(), 2);
        assert_eq!(run(&doc, "//patient[treatment]/name").len(), 2);
        assert_eq!(run(&doc, "//patient[.//experimental]").len(), 1);
        assert_eq!(run(&doc, "//patient[psn and treatment]").len(), 2);
        assert_eq!(run(&doc, "//patient[bogus]").len(), 0);
    }

    #[test]
    fn value_predicates() {
        let doc = figure2();
        assert_eq!(run(&doc, "//regular[med = \"celecoxib\"]").len(), 0);
        assert_eq!(run(&doc, "//regular[med = \"enoxaparin\"]").len(), 1);
        assert_eq!(run(&doc, "//regular[bill > 1000]").len(), 0);
        assert_eq!(run(&doc, "//experimental[bill > 1000]").len(), 1);
        assert_eq!(run(&doc, "//patient[.//bill > 1000]").len(), 1);
        assert_eq!(run(&doc, "//bill[. > 1000]").len(), 1);
        assert_eq!(run(&doc, "//patient[name = \"joy smith\"]").len(), 1);
    }

    #[test]
    fn nested_predicates() {
        let doc = figure2();
        assert_eq!(run(&doc, "//patient[treatment[regular]]").len(), 1);
        assert_eq!(run(&doc, "//patient[treatment[regular[med = \"enoxaparin\"]]]").len(), 1);
        assert_eq!(run(&doc, "//dept[patients[patient[treatment]]]").len(), 1);
    }

    #[test]
    fn results_in_document_order_and_deduplicated() {
        let doc = Document::parse_str("<a><b><b><c/></b></b></a>").unwrap();
        let r = run(&doc, "//b//c");
        // c is a descendant of both b elements but must appear once.
        assert_eq!(r.len(), 1);
        let bs = run(&doc, "//b");
        assert_eq!(names(&doc, &bs), vec!["b", "b"]);
        assert!(bs[0] < bs[1], "document order");
    }

    #[test]
    fn relative_eval_from_context() {
        let doc = figure2();
        let patients = run(&doc, "//patient");
        let rel = parse("treatment/regular").unwrap();
        let hits: Vec<usize> = patients
            .iter()
            .map(|&p| eval_from(&doc, p, &rel).len())
            .collect();
        assert_eq!(hits, vec![1, 0, 0]);
        let relder = parse(".//bill").unwrap();
        let hits: Vec<usize> =
            patients.iter().map(|&p| eval_from(&doc, p, &relder).len()).collect();
        assert_eq!(hits, vec![1, 1, 0]);
    }

    #[test]
    fn empty_document_edge_cases() {
        let doc = Document::parse_str("<a/>").unwrap();
        assert_eq!(run(&doc, "//a").len(), 1);
        assert_eq!(run(&doc, "/a").len(), 1);
        assert_eq!(run(&doc, "//b").len(), 0);
        assert_eq!(run(&doc, "/a/b").len(), 0);
        assert_eq!(run(&doc, "//a[b]").len(), 0);
    }
}
