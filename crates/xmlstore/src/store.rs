//! The stored document and its operations.

use crate::xquery::NodeSetExpr;
use crate::Result;
use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};
use xac_obs::metrics::Counter;
use xac_xml::{locate, Chunks, Document, NodeId, CHUNK};
use xac_xpath::{Axis, NodeTest, Path};

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

/// The signs of [`CHUNK`] consecutive arena slots: [`NO_SIGN`], `b'+'`
/// or `b'-'` each.
#[derive(Debug, Clone)]
pub struct SignChunk(pub [u8; CHUNK]);

impl Default for SignChunk {
    fn default() -> SignChunk {
        SignChunk([NO_SIGN; CHUNK])
    }
}

/// A sign column: one byte per arena slot, in copy-on-write chunks.
pub type SignColumn = Chunks<SignChunk>;

/// A document plus its sign column.
///
/// The `sign` attribute of each element lives in `signs`, one byte per
/// arena slot ([`NO_SIGN`], `b'+'` or `b'-'`), not among the node's
/// attributes: a sign write is a byte store that touches no arena chunk,
/// so re-annotating thousands of nodes leaves a copy-on-write clone of
/// the document shared. This is how MonetDB/XQuery stores attributes too —
/// in a table of their own beside the node table. The column is chunked
/// like the arena, so a write after a clone copies only the sign chunks
/// it touches.
#[derive(Debug, Clone)]
pub struct StoredDocument {
    doc: Document,
    /// Per-slot sign, covering `doc.arena_len()` slots.
    signs: SignColumn,
}

impl StoredDocument {
    /// Wrap a document. Any `sign` attributes of the input move into the
    /// sign column (a non-`+` value reads as `-`) and are stripped from
    /// the tree, so the column is the only copy.
    pub fn new(doc: Document) -> StoredDocument {
        let signed: Vec<NodeId> =
            doc.all_elements().filter(|&n| doc.attribute(n, SIGN_ATTR).is_some()).collect();
        let mut sdoc = StoredDocument { doc, signs: Chunks::default() };
        sdoc.signs.cover(sdoc.doc.arena_len());
        for n in signed {
            let value = sdoc.doc.remove_attribute(n, SIGN_ATTR).unwrap_or_default();
            if let Some(sign) = value.chars().next() {
                sdoc.annotate(n, sign);
            }
        }
        sdoc
    }

    /// The underlying document.
    pub fn doc(&self) -> &Document {
        &self.doc
    }

    /// Evaluate an absolute path. A leading `//name` step is seeded from
    /// the document's list of the elements so named, filtered by the
    /// step's predicates, instead of sweeping the tree; the reference
    /// evaluator runs the rest.
    pub fn eval(&self, path: &Path) -> Vec<NodeId> {
        assert!(path.absolute, "store evaluation takes absolute paths");
        let doc = &self.doc;
        match path.steps.split_first() {
            Some((first, rest)) if first.axis == Axis::Descendant => {
                let NodeTest::Name(name) = &first.test else {
                    return xac_xpath::eval(doc, path);
                };
                let named = doc.name_id_of(name).map_or(&[][..], |id| doc.elements_named(id));
                let holds = |node: &NodeId| {
                    first.predicates.iter().all(|q| xac_xpath::eval::qualifier_holds(doc, *node, q))
                };
                let seed = named.iter().map(|&s| NodeId::from_index(s as usize)).filter(holds);
                xac_xpath::eval_steps(doc, seed.collect(), rest)
            }
            _ => xac_xpath::eval(doc, path),
        }
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
        let (chunk, o) = self.signs.at_mut(node.index());
        chunk.0[o] = sign_byte(sign);
    }

    /// Set the sign of every node of `nodes`, with no counter: one copy
    /// check per run of nodes in one chunk.
    pub fn set_signs(&mut self, nodes: &[NodeId], sign: char) {
        let byte = sign_byte(sign);
        self.signs.write_runs(nodes, |n| n.index(), |chunk, run| {
            run.iter().for_each(|n| chunk.0[locate(n.index()).1] = byte)
        });
    }

    /// Clear the sign of every node of `nodes` like [`Self::set_signs`];
    /// returns how many carried one.
    fn unsign(&mut self, nodes: &[NodeId]) -> usize {
        let mut cleared = 0;
        self.signs.write_runs(nodes, |n| n.index(), |chunk, run| {
            for n in run {
                let b = &mut chunk.0[locate(n.index()).1];
                cleared += usize::from(*b != NO_SIGN);
                *b = NO_SIGN;
            }
        });
        cleared
    }

    /// Annotate every node selected by an expression; returns how many
    /// nodes were touched.
    pub fn annotate_expr(&mut self, expr: &NodeSetExpr, sign: char) -> usize {
        let _span = xac_obs::span("backend.write_signs");
        let nodes: Vec<NodeId> = self.eval_expr(expr).into_iter().collect();
        self.set_signs(&nodes, sign);
        sign_writes_total().add(nodes.len() as u64);
        nodes.len()
    }

    /// Fused sign write over a precomputed node set (the VM's element-
    /// arena sink): same span, counter and final store state as
    /// [`Self::annotate_expr`] on an expression selecting these nodes,
    /// without re-evaluating anything.
    pub fn annotate_nodes(&mut self, nodes: &[NodeId], sign: char) -> usize {
        let _span = xac_obs::span("backend.write_signs");
        self.set_signs(nodes, sign);
        sign_writes_total().add(nodes.len() as u64);
        nodes.len()
    }

    /// The sign of a node, if annotated.
    pub fn sign_of(&self, node: NodeId) -> Option<char> {
        let (c, o) = locate(node.index());
        match self.signs.get(c).map(|chunk| chunk.0[o]) {
            Some(b) if b != NO_SIGN => Some(b as char),
            _ => None,
        }
    }

    /// The sign column itself: one byte per arena slot, `0` for no
    /// sign, else `b'+'` or `b'-'`, in chunks a clone shares until a
    /// write copies them.
    pub fn sign_column(&self) -> &SignColumn {
        &self.signs
    }

    /// Every annotated node with its sign, in arena order. Detached
    /// nodes carry no sign (removal clears it).
    pub fn signed_nodes(&self) -> impl Iterator<Item = (NodeId, char)> + '_ {
        self.signs
            .iter()
            .flat_map(|chunk| chunk.0.iter())
            .enumerate()
            .filter(|(_, &b)| b != NO_SIGN)
            .map(|(slot, &b)| (NodeId::from_index(slot), b as char))
    }

    /// Remove the sign attribute from the given nodes; returns how many
    /// actually carried one.
    pub fn clear_signs<I: IntoIterator<Item = NodeId>>(&mut self, nodes: I) -> usize {
        let nodes: Vec<NodeId> = nodes.into_iter().collect();
        self.unsign(&nodes)
    }

    /// Set the sign of every live element to `sign`, with no counter:
    /// a store that keeps an explicit sign per element (the relational
    /// backends' copy of their tables' sign cells) fills its column so
    /// after a load.
    pub fn sign_every_element(&mut self, sign: char) {
        let elements: Vec<NodeId> = self.doc.all_elements().collect();
        self.set_signs(&elements, sign);
    }

    /// Overwrite every sign present with `sign`, with no counter: the
    /// reset of a store that keeps an explicit sign per element, in one
    /// pass over the column rather than the arena.
    pub fn overwrite_signs(&mut self, sign: char) {
        let byte = sign_byte(sign);
        for chunk in self.signs.iter_mut() {
            for b in &mut chunk.0 {
                *b = if *b == NO_SIGN { NO_SIGN } else { byte };
            }
        }
    }

    /// Remove every sign attribute in the document. Copies only the
    /// chunks that hold a sign.
    pub fn clear_all_signs(&mut self) -> usize {
        let mut cleared = 0;
        for c in 0..self.signs.len() {
            let signed = count_bytes(&self.signs.get(c).expect("a chunk").0, |b| b != NO_SIGN);
            if signed > 0 {
                self.signs.chunk_mut(c).0.fill(NO_SIGN);
                cleared += signed;
            }
        }
        cleared
    }

    /// Count of nodes annotated with `sign`: one byte-wide pass.
    pub fn sign_count(&self, sign: char) -> usize {
        let byte = sign_byte(sign);
        self.signs.iter().map(|chunk| count_bytes(&chunk.0, |b| b == byte)).sum()
    }

    /// Delete the subtrees of `nodes` (an [`StoredDocument::eval`]
    /// answer) in one [`Document::remove_subtrees`] call, clearing their
    /// signs; returns the roots of the detached subtrees (the nodes not
    /// inside another one's subtree), in the given order.
    pub fn delete_nodes(&mut self, nodes: &[NodeId]) -> Result<Vec<NodeId>> {
        let roots = self.doc.remove_subtrees(nodes)?;
        // A detached subtree keeps its links, so it can still be walked.
        let removed: Vec<NodeId> = roots.iter().flat_map(|&r| self.doc.subtree(r)).collect();
        self.unsign(&removed);
        Ok(roots)
    }

    /// Insert a new element under `parent`.
    pub fn insert_element(&mut self, parent: NodeId, name: &str) -> NodeId {
        let node = self.doc.add_element(parent, name);
        self.signs.cover(self.doc.arena_len());
        node
    }

    /// Insert a text child.
    pub fn insert_text(&mut self, parent: NodeId, value: &str) -> NodeId {
        let node = self.doc.add_text(parent, value);
        self.signs.cover(self.doc.arena_len());
        node
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
        assert_eq!((sdoc.sign_count('+'), sdoc.sign_count('-')), (1, 0));
        // Re-annotating replaces (upsert semantics).
        let n = sdoc.annotate_expr(&expr, '-');
        assert_eq!(n, 1);
        assert_eq!((sdoc.sign_count('+'), sdoc.sign_count('-')), (0, 1));
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
        assert_eq!(sdoc.sign_count('+'), 2);
        let cleared = sdoc.clear_all_signs();
        assert_eq!(cleared, 2);
        assert_eq!((sdoc.sign_count('+'), sdoc.sign_count('-')), (0, 0));
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
        assert_eq!((sdoc.sign_count('+'), sdoc.sign_count('-')), (2, 1));
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
        assert_eq!((sdoc.sign_count('+'), sdoc.sign_count('-')), (2, 2));

        assert_eq!(clone.doc().to_xml(), xml, "structure unchanged");
        assert_eq!(clone.signed_nodes().collect::<Vec<_>>(), signs, "signs unchanged");
        assert_eq!((clone.sign_count('+'), clone.sign_count('-')), (2, 0));
        assert_eq!(clone.sign_of(added), None, "the clone has no such slot");
    }

    #[test]
    fn removal_clears_the_removed_signs() {
        let mut sdoc = hospital();
        sdoc.annotate_expr(&NodeSetExpr::path("//*").unwrap(), '-');
        let all = sdoc.sign_count('-');
        sdoc.delete_nodes(&sdoc.eval(&parse("//treatment").unwrap())).unwrap();
        let counts = (sdoc.sign_count('+'), sdoc.sign_count('-'));
        assert_eq!(counts, (0, all - 4), "treatment, regular, med, bill");
        assert_eq!(
            sdoc.signed_nodes().count(),
            sdoc.doc().all_elements().filter(|&n| sdoc.sign_of(n).is_some()).count()
        );
    }
}
