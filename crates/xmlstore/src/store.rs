//! The document store and per-document operations.

use crate::index::NameIndex;
use crate::xquery::NodeSetExpr;
use crate::{Error, Result};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, OnceLock};
use xac_obs::metrics::Counter;
use xac_xml::{Document, NodeId};
use xac_xpath::{Axis, Path};

/// Sign attributes written through `annotate_expr`, process-wide.
fn sign_writes_total() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| xac_obs::counter("xac_xmlstore_sign_writes_total"))
}

/// The attribute carrying accessibility annotations (paper §5.2: "we
/// choose to store accessibility annotations for XML elements in the form
/// of the XML attribute `sign`").
pub const SIGN_ATTR: &str = "sign";

/// A named collection of XML documents.
#[derive(Debug, Default)]
pub struct XmlStore {
    docs: BTreeMap<String, StoredDocument>,
}

impl XmlStore {
    /// Empty store.
    pub fn new() -> XmlStore {
        XmlStore::default()
    }

    /// Parse and load a document under a name.
    pub fn load_xml(&mut self, name: &str, xml: &str) -> Result<()> {
        let doc = Document::parse_str(xml)?;
        self.insert_document(name, doc)
    }

    /// Load an already-parsed document under a name.
    pub fn insert_document(&mut self, name: &str, doc: Document) -> Result<()> {
        if self.docs.contains_key(name) {
            return Err(Error::Store(format!("document `{name}` already loaded")));
        }
        self.docs.insert(name.to_string(), StoredDocument::new(doc));
        Ok(())
    }

    /// Drop a document; true when it existed.
    pub fn remove_document(&mut self, name: &str) -> bool {
        self.docs.remove(name).is_some()
    }

    /// Shared access to a stored document.
    pub fn get(&self, name: &str) -> Option<&StoredDocument> {
        self.docs.get(name)
    }

    /// Mutable access to a stored document.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut StoredDocument> {
        self.docs.get_mut(name)
    }

    /// Loaded document names.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.docs.keys().map(String::as_str)
    }

    /// Number of loaded documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// True when no documents are loaded.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }
}

/// A document plus its structural index.
#[derive(Debug, Clone)]
pub struct StoredDocument {
    doc: Document,
    index: NameIndex,
}

impl StoredDocument {
    /// Wrap a document, building its index.
    pub fn new(doc: Document) -> StoredDocument {
        let index = NameIndex::build(&doc);
        StoredDocument { doc, index }
    }

    /// The underlying document.
    pub fn doc(&self) -> &Document {
        &self.doc
    }

    /// The element-name index.
    pub fn index(&self) -> &NameIndex {
        &self.index
    }

    /// Evaluate an absolute path, using the name index to seed leading
    /// `//name` steps instead of sweeping the tree.
    pub fn eval(&self, path: &Path) -> Vec<NodeId> {
        assert!(path.absolute, "store evaluation takes absolute paths");
        let Some(first) = path.steps.first() else {
            return Vec::new();
        };
        // Index fast path: a leading descendant step with a concrete name.
        if first.axis == Axis::Descendant {
            if let xac_xpath::ast::NodeTest::Name(n) = &first.test {
                let mut current: BTreeSet<NodeId> = self
                    .index
                    .lookup(&self.doc, n)
                    .filter(|&node| {
                        first
                            .predicates
                            .iter()
                            .all(|q| xac_xpath::eval::qualifier_holds(&self.doc, node, q))
                    })
                    .collect();
                for step in &path.steps[1..] {
                    current = apply_step(&self.doc, &current, step);
                    if current.is_empty() {
                        break;
                    }
                }
                return current.into_iter().collect();
            }
        }
        xac_xpath::eval(&self.doc, path)
    }

    /// Evaluate a node-set expression (the XQuery-lite algebra).
    pub fn eval_expr(&self, expr: &NodeSetExpr) -> BTreeSet<NodeId> {
        match expr {
            NodeSetExpr::Path(p) => self.eval(p).into_iter().collect(),
            NodeSetExpr::Union(a, b) => {
                let mut l = self.eval_expr(a);
                l.extend(self.eval_expr(b));
                l
            }
            NodeSetExpr::Except(a, b) => {
                let l = self.eval_expr(a);
                let r = self.eval_expr(b);
                l.difference(&r).copied().collect()
            }
        }
    }

    /// The paper's `xmlac:annotate()` on one node: insert the `sign`
    /// attribute if absent, replace its value otherwise.
    pub fn annotate(&mut self, node: NodeId, sign: char) {
        self.doc.set_attribute(node, SIGN_ATTR, sign.to_string());
    }

    /// Annotate every node selected by an expression; returns how many
    /// nodes were touched.
    pub fn annotate_expr(&mut self, expr: &NodeSetExpr, sign: char) -> usize {
        let _span = xac_obs::span("backend.write_signs");
        let nodes = self.eval_expr(expr);
        for &n in &nodes {
            self.annotate(n, sign);
        }
        sign_writes_total().add(nodes.len() as u64);
        nodes.len()
    }

    /// Fused sign write over a precomputed node set (the VM's element-
    /// arena sink): same span, counter and final store state as
    /// [`Self::annotate_expr`] on an expression selecting these nodes,
    /// without re-evaluating anything.
    pub fn annotate_nodes(&mut self, nodes: &[NodeId], sign: char) -> usize {
        let _span = xac_obs::span("backend.write_signs");
        for &n in nodes {
            self.annotate(n, sign);
        }
        sign_writes_total().add(nodes.len() as u64);
        nodes.len()
    }

    /// The sign of a node, if annotated.
    pub fn sign_of(&self, node: NodeId) -> Option<char> {
        self.doc.attribute(node, SIGN_ATTR).and_then(|s| s.chars().next())
    }

    /// Remove the sign attribute from the given nodes; returns how many
    /// actually carried one.
    pub fn clear_signs<I: IntoIterator<Item = NodeId>>(&mut self, nodes: I) -> usize {
        let mut cleared = 0;
        for n in nodes {
            if self.doc.remove_attribute(n, SIGN_ATTR).is_some() {
                cleared += 1;
            }
        }
        cleared
    }

    /// Remove every sign attribute in the document.
    pub fn clear_all_signs(&mut self) -> usize {
        let nodes: Vec<NodeId> = self.doc.all_elements().collect();
        self.clear_signs(nodes)
    }

    /// Overwrite the sign state wholesale with `signs`, keyed by
    /// `NodeId::index() as i64` (the native `sign_state` encoding used
    /// by the serving durability layer's WAL). Every existing sign is
    /// cleared, then exactly the mapped nodes are re-annotated; nodes
    /// whose index is not in the map end up unannotated (default sign).
    /// Returns the number of sign writes (clears + annotations).
    pub fn apply_sign_map(&mut self, signs: &std::collections::BTreeMap<i64, char>) -> usize {
        let mut writes = self.clear_all_signs();
        let mut plus: Vec<NodeId> = Vec::new();
        let mut minus: Vec<NodeId> = Vec::new();
        let nodes: Vec<NodeId> = self.doc.all_elements().collect();
        for n in nodes {
            match signs.get(&(n.index() as i64)) {
                Some('+') => plus.push(n),
                Some(_) => minus.push(n),
                None => {}
            }
        }
        writes += self.annotate_nodes(&plus, '+');
        writes += self.annotate_nodes(&minus, '-');
        writes
    }

    /// Count of nodes annotated with each sign `(plus, minus)`.
    pub fn sign_counts(&self) -> (usize, usize) {
        let mut plus = 0;
        let mut minus = 0;
        for n in self.doc.all_elements() {
            match self.doc.attribute(n, SIGN_ATTR) {
                Some("+") => plus += 1,
                Some("-") => minus += 1,
                _ => {}
            }
        }
        (plus, minus)
    }

    /// Delete the subtrees of every node matched by `path`; returns the
    /// number of nodes removed (the matched nodes plus their descendants).
    /// The name index keeps stale entries (filtered lazily); call
    /// [`StoredDocument::reindex`] after bulk deletions.
    pub fn delete_matching(&mut self, path: &Path) -> Result<usize> {
        let targets = self.eval(path);
        let mut removed = 0;
        for node in targets {
            // A target inside an already-removed subtree is gone.
            if self.doc.is_alive(node) {
                removed += self.remove_subtree(node)?;
            }
        }
        Ok(removed)
    }

    /// Remove one live node and its subtree; returns the number of nodes
    /// removed. The name index keeps the stale entries (filtered lazily).
    pub fn remove_subtree(&mut self, node: NodeId) -> Result<usize> {
        Ok(self.doc.remove_subtree(node)?)
    }

    /// Insert a new element under `parent`, keeping the index current.
    pub fn insert_element(&mut self, parent: NodeId, name: &str) -> NodeId {
        let node = self.doc.add_element(parent, name);
        self.index.insert(name, node);
        node
    }

    /// Insert a text child (no index entry — text nodes are values).
    pub fn insert_text(&mut self, parent: NodeId, value: &str) -> NodeId {
        self.doc.add_text(parent, value)
    }

    /// Rebuild the name index (after bulk structural updates).
    pub fn reindex(&mut self) {
        self.index.rebuild(&self.doc);
    }
}

/// One non-leading location step (shared with the index fast path).
fn apply_step(
    doc: &Document,
    current: &BTreeSet<NodeId>,
    step: &xac_xpath::Step,
) -> BTreeSet<NodeId> {
    let mut out = BTreeSet::new();
    let candidates: Box<dyn Iterator<Item = NodeId>> = match step.axis {
        Axis::Child => Box::new(current.iter().flat_map(|&c| doc.children(c))),
        Axis::Descendant => Box::new(current.iter().flat_map(|&c| doc.descendants(c))),
    };
    for node in candidates {
        let Some(name) = doc.name(node) else { continue };
        if !step.test.matches(name) {
            continue;
        }
        if step
            .predicates
            .iter()
            .all(|q| xac_xpath::eval::qualifier_holds(doc, node, q))
        {
            out.insert(node);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xac_xpath::parse;

    fn hospital() -> StoredDocument {
        StoredDocument::new(
            Document::parse_str(
                "<hospital><dept><patients>\
                 <patient><psn>033</psn><name>john doe</name>\
                 <treatment><regular><med>enoxaparin</med><bill>700</bill></regular></treatment>\
                 </patient>\
                 <patient><psn>099</psn><name>joy smith</name></patient>\
                 </patients><staffinfo/></dept></hospital>",
            )
            .unwrap(),
        )
    }

    #[test]
    fn indexed_eval_matches_reference() {
        let sdoc = hospital();
        for q in [
            "//patient",
            "//patient[treatment]",
            "//patient/name",
            "//patient[treatment]/name",
            "//regular[bill > 500]",
            "/hospital/dept",
            "//*",
        ] {
            let p = parse(q).unwrap();
            assert_eq!(
                sdoc.eval(&p),
                xac_xpath::eval(sdoc.doc(), &p),
                "indexed evaluation differs for `{q}`"
            );
        }
    }

    #[test]
    fn annotate_expr_and_counts() {
        let mut sdoc = hospital();
        let expr = NodeSetExpr::Except(
            Box::new(NodeSetExpr::path("//patient").unwrap()),
            Box::new(NodeSetExpr::path("//patient[treatment]").unwrap()),
        );
        let n = sdoc.annotate_expr(&expr, '+');
        assert_eq!(n, 1, "only the treatment-less patient");
        assert_eq!(sdoc.sign_counts(), (1, 0));
        // Re-annotating replaces (upsert semantics).
        let n = sdoc.annotate_expr(&expr, '-');
        assert_eq!(n, 1);
        assert_eq!(sdoc.sign_counts(), (0, 1));
    }

    #[test]
    fn clear_signs() {
        let mut sdoc = hospital();
        sdoc.annotate_expr(&NodeSetExpr::path("//patient").unwrap(), '+');
        assert_eq!(sdoc.sign_counts().0, 2);
        let cleared = sdoc.clear_all_signs();
        assert_eq!(cleared, 2);
        assert_eq!(sdoc.sign_counts(), (0, 0));
    }

    #[test]
    fn delete_matching_removes_subtrees() {
        let mut sdoc = hospital();
        let before = sdoc.doc().element_count();
        let removed = sdoc.delete_matching(&parse("//treatment").unwrap()).unwrap();
        assert_eq!(removed, 6, "4 elements (treatment, regular, med, bill) + 2 text values");
        assert_eq!(sdoc.doc().element_count(), before - 4);
        assert!(sdoc.eval(&parse("//regular").unwrap()).is_empty());
        // Patients remain.
        assert_eq!(sdoc.eval(&parse("//patient").unwrap()).len(), 2);
    }

    #[test]
    fn delete_with_nested_matches() {
        let mut sdoc = StoredDocument::new(
            Document::parse_str("<a><b><b/></b></a>").unwrap(),
        );
        // Both b elements match; the outer removal swallows the inner.
        let removed = sdoc.delete_matching(&parse("//b").unwrap()).unwrap();
        assert_eq!(removed, 2);
        assert_eq!(sdoc.doc().element_count(), 1);
    }

    #[test]
    fn store_namespacing() {
        let mut store = XmlStore::new();
        store.load_xml("one", "<a/>").unwrap();
        store.load_xml("two", "<b/>").unwrap();
        assert_eq!(store.len(), 2);
        assert!(store.load_xml("one", "<c/>").is_err(), "duplicate name");
        assert!(store.get("one").is_some());
        assert!(store.remove_document("one"));
        assert!(!store.remove_document("one"));
        assert_eq!(store.names().collect::<Vec<_>>(), vec!["two"]);
    }

    #[test]
    fn insert_element_updates_index() {
        let mut sdoc = StoredDocument::new(Document::parse_str("<a/>").unwrap());
        let root = sdoc.doc().root();
        let b = sdoc.insert_element(root, "b");
        sdoc.insert_text(b, "42");
        assert_eq!(sdoc.eval(&parse("//b").unwrap()), vec![b]);
        assert_eq!(sdoc.eval(&parse("//b[. = 42]").unwrap()), vec![b]);
    }
}
