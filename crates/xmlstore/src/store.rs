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
/// of the XML attribute `sign`"). A [`StoredDocument`] backs this logical
/// attribute with a byte column; input documents that carry it have it
/// moved there on load.
pub const SIGN_ATTR: &str = "sign";

/// Sign-column value of an element without a `sign` attribute.
pub const NO_SIGN: u8 = 0;

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

/// A document plus its structural index and its sign column.
///
/// The `sign` attribute of each element lives in `signs`, one byte per
/// arena slot ([`NO_SIGN`], `b'+'` or `b'-'`), not among the node's
/// attributes: a sign write is a byte store that touches no arena chunk,
/// so re-annotating thousands of nodes leaves a copy-on-write clone of
/// the document shared. This is how MonetDB/XQuery stores attributes too —
/// in a table of their own beside the node table.
#[derive(Debug, Clone)]
pub struct StoredDocument {
    doc: Document,
    index: NameIndex,
    /// Per-slot sign, `doc.arena_len()` long.
    signs: Vec<u8>,
}

impl StoredDocument {
    /// Wrap a document, building its index. Any `sign` attributes of the
    /// input move into the sign column (a non-`+` value reads as `-`) and
    /// are stripped from the tree, so the column is the only copy.
    pub fn new(mut doc: Document) -> StoredDocument {
        let index = NameIndex::build(&doc);
        let mut signs = vec![NO_SIGN; doc.arena_len()];
        let signed: Vec<NodeId> =
            doc.all_elements().filter(|&n| doc.attribute(n, SIGN_ATTR).is_some()).collect();
        for n in signed {
            let value = doc.remove_attribute(n, SIGN_ATTR).unwrap_or_default();
            if let Some(sign) = value.chars().next() {
                signs[n.index()] = sign_byte(sign);
            }
        }
        StoredDocument { doc, index, signs }
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
    /// attribute if absent, replace its value otherwise. A sign other
    /// than `+` is stored as `-`.
    pub fn annotate(&mut self, node: NodeId, sign: char) {
        self.signs[node.index()] = sign_byte(sign);
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
        match self.signs.get(node.index()) {
            Some(&b) if b != NO_SIGN => Some(b as char),
            _ => None,
        }
    }

    /// The sign column itself: one byte per arena slot, `0` for no
    /// sign, else `b'+'` or `b'-'`.
    pub fn sign_column(&self) -> &[u8] {
        &self.signs
    }

    /// Every annotated node with its sign, in arena order. Detached
    /// nodes carry no sign (removal clears it).
    pub fn signed_nodes(&self) -> impl Iterator<Item = (NodeId, char)> + '_ {
        self.signs
            .iter()
            .enumerate()
            .filter(|(_, &b)| b != NO_SIGN)
            .map(|(slot, &b)| (NodeId::from_index(slot), b as char))
    }

    /// Remove the sign attribute from the given nodes; returns how many
    /// actually carried one.
    pub fn clear_signs<I: IntoIterator<Item = NodeId>>(&mut self, nodes: I) -> usize {
        let mut cleared = 0;
        for n in nodes {
            let sign = &mut self.signs[n.index()];
            if *sign != NO_SIGN {
                *sign = NO_SIGN;
                cleared += 1;
            }
        }
        cleared
    }

    /// Set the sign of every live element to `sign`, with no counter:
    /// a store that keeps an explicit sign per element (the relational
    /// backends' copy of their tables' sign cells) fills its column so
    /// after a load.
    pub fn sign_every_element(&mut self, sign: char) {
        let byte = sign_byte(sign);
        for n in self.doc.all_elements() {
            self.signs[n.index()] = byte;
        }
    }

    /// Overwrite every sign present with `sign`, with no counter: the
    /// reset of a store that keeps an explicit sign per element, in one
    /// pass over the column rather than the arena.
    pub fn overwrite_signs(&mut self, sign: char) {
        let byte = sign_byte(sign);
        for b in &mut self.signs {
            *b = if *b == NO_SIGN { NO_SIGN } else { byte };
        }
    }

    /// Remove every sign attribute in the document.
    pub fn clear_all_signs(&mut self) -> usize {
        let cleared = count_bytes(&self.signs, |b| b != NO_SIGN);
        self.signs.fill(NO_SIGN);
        cleared
    }

    /// Count of nodes annotated with each sign `(plus, minus)`.
    pub fn sign_counts(&self) -> (usize, usize) {
        let plus = count_bytes(&self.signs, |b| b == b'+');
        let minus = count_bytes(&self.signs, |b| b == b'-');
        (plus, minus)
    }

    /// Delete the subtrees of `nodes` (an [`StoredDocument::eval`]
    /// answer), clearing their signs; returns the roots of the detached
    /// subtrees (the nodes not inside another one's subtree), in the
    /// given order. The name index keeps stale entries (filtered
    /// lazily); call [`StoredDocument::reindex`] after bulk deletions.
    pub fn delete_nodes(&mut self, nodes: &[NodeId]) -> Result<Vec<NodeId>> {
        let mut roots = Vec::new();
        for &node in nodes {
            // A target inside an already-removed subtree is gone.
            if self.doc.is_alive(node) {
                for n in self.doc.subtree(node) {
                    self.signs[n.index()] = NO_SIGN;
                }
                self.doc.remove_subtree(node)?;
                roots.push(node);
            }
        }
        Ok(roots)
    }

    /// Insert a new element under `parent`, keeping the index current.
    pub fn insert_element(&mut self, parent: NodeId, name: &str) -> NodeId {
        let node = self.doc.add_element(parent, name);
        self.index.insert(&self.doc, node);
        self.signs.push(NO_SIGN);
        node
    }

    /// Insert a text child (no index entry — text nodes are values).
    pub fn insert_text(&mut self, parent: NodeId, value: &str) -> NodeId {
        let node = self.doc.add_text(parent, value);
        self.signs.push(NO_SIGN);
        node
    }

    /// Rebuild the name index (after bulk structural updates).
    pub fn reindex(&mut self) {
        self.index.rebuild(&self.doc);
    }
}

/// How many bytes of `column` satisfy `pred`, tallied per run of 255
/// bytes in a byte-wide counter. That vectorizes byte-wide; a `usize`
/// tally per byte (`filter().count()`) runs about eight times slower,
/// which made counting the sign column most of a native reset.
fn count_bytes(column: &[u8], pred: impl Fn(u8) -> bool) -> usize {
    let run = |bytes: &[u8]| bytes.iter().fold(0u8, |n, &b| n + u8::from(pred(b)));
    column.chunks(255).map(|bytes| usize::from(run(bytes))).sum()
}

/// The sign-column byte for an annotation: a sign other than `+` is
/// stored as `-`.
pub fn sign_byte(sign: char) -> u8 {
    if sign == '+' {
        b'+'
    } else {
        b'-'
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
    fn byte_counts_run_past_a_byte_wide_tally() {
        assert_eq!(count_bytes(&[b'+'; 1000], |b| b == b'+'), 1000);
        let column: Vec<u8> =
            (0..1000).map(|i| [NO_SIGN, b'+', b'-', b'+', b'+'][i % 5]).collect();
        assert_eq!(count_bytes(&column, |b| b != NO_SIGN), 800);
        assert_eq!(count_bytes(&column, |b| b == b'-'), 200);
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
        let nodes = sdoc.doc().len();
        let roots = sdoc.delete_nodes(&sdoc.eval(&parse("//treatment").unwrap())).unwrap();
        assert_eq!(roots.len(), 1, "one treatment subtree");
        assert_eq!(
            sdoc.doc().len(),
            nodes - 6,
            "4 elements (treatment, regular, med, bill) + 2 text values"
        );
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
        let roots = sdoc.delete_nodes(&sdoc.eval(&parse("//b").unwrap())).unwrap();
        assert_eq!(roots.len(), 1, "only the outer b is a detached root");
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

    #[test]
    fn parsed_sign_attributes_move_into_the_column() {
        let xml = "<a sign=\"+\"><b sign=\"-\"/><b sign=\"+\"><c/></b><d sign=\"\"/></a>";
        let parsed = Document::parse_str(xml).unwrap();
        let expected: Vec<Option<char>> = parsed
            .all_elements()
            .map(|n| parsed.attribute(n, SIGN_ATTR).and_then(|v| v.chars().next()))
            .collect();
        let sdoc = StoredDocument::new(parsed);
        let read: Vec<Option<char>> =
            sdoc.doc().all_elements().map(|n| sdoc.sign_of(n)).collect();
        assert_eq!(read, expected);
        assert_eq!(read, vec![Some('+'), Some('-'), Some('+'), None, None]);
        assert_eq!(sdoc.sign_counts(), (2, 1));
        assert!(
            sdoc.doc().all_elements().all(|n| sdoc.doc().attribute(n, SIGN_ATTR).is_none()),
            "the column is the only copy"
        );
        assert_eq!(sdoc.doc().to_xml(), "<a><b/><b><c/></b><d/></a>");
    }

    #[test]
    fn clone_keeps_its_signs_and_structure_under_writes() {
        let mut sdoc = hospital();
        sdoc.annotate_expr(&NodeSetExpr::path("//patient").unwrap(), '+');
        let clone = sdoc.clone();
        let xml = clone.doc().to_xml();
        let signs: Vec<(NodeId, char)> = clone.signed_nodes().collect();

        sdoc.annotate_expr(&NodeSetExpr::path("//name").unwrap(), '-');
        sdoc.clear_signs(clone.eval(&parse("//patient").unwrap()));
        let psn = sdoc.eval(&parse("//psn").unwrap())[0];
        sdoc.annotate(psn, '+');
        sdoc.delete_nodes(&sdoc.eval(&parse("//treatment").unwrap())).unwrap();
        let root = sdoc.doc().root();
        let added = sdoc.insert_element(root, "extra");
        sdoc.annotate(added, '+');
        assert_eq!(sdoc.sign_counts(), (2, 2));

        assert_eq!(clone.doc().to_xml(), xml, "structure unchanged");
        assert_eq!(clone.signed_nodes().collect::<Vec<_>>(), signs, "signs unchanged");
        assert_eq!(clone.sign_counts(), (2, 0));
        assert_eq!(clone.sign_of(added), None, "the clone has no such slot");
    }

    #[test]
    fn removal_clears_the_removed_signs() {
        let mut sdoc = hospital();
        sdoc.annotate_expr(&NodeSetExpr::path("//*").unwrap(), '-');
        let all = sdoc.sign_counts().1;
        sdoc.delete_nodes(&sdoc.eval(&parse("//treatment").unwrap())).unwrap();
        assert_eq!(sdoc.sign_counts(), (0, all - 4), "treatment, regular, med, bill");
        assert_eq!(
            sdoc.signed_nodes().count(),
            sdoc.doc().all_elements().filter(|&n| sdoc.sign_of(n).is_some()).count()
        );
    }
}
