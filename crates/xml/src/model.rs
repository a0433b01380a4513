//! Arena-based XML tree model.
//!
//! A [`Document`] owns every node in a flat arena addressed by dense
//! [`NodeId`]s. This gives O(1) navigation in every direction and
//! cache-friendly whole-document scans — the access patterns that dominate
//! annotation workloads, where the system repeatedly sweeps all nodes of a
//! document to apply or clear accessibility labels.
//!
//! The arena is stored in fixed-size chunks of [`CHUNK`] nodes, each behind
//! an [`Arc`]. Cloning a document therefore copies one pointer per chunk,
//! and the first write to a chunk that a clone still shares copies that
//! chunk alone ([`Arc::make_mut`]): an epoch that publishes a clone and
//! then updates a few subtrees pays for the chunks it touches, not for the
//! document.
//!
//! Nodes are never physically removed from the arena; deletion marks the
//! subtree as *detached* so that outstanding [`NodeId`]s can be detected as
//! stale instead of silently aliasing new nodes. Documents subject to heavy
//! update churn can be compacted with [`Document::compact`].

use crate::error::{Error, Result};
use std::fmt;
use std::sync::Arc;

/// Nodes per arena chunk, the unit a copy-on-write clone shares and copies.
pub const CHUNK: usize = 1024;

/// Identifier of a node inside one [`Document`] arena.
///
/// Ids are dense indexes and are only meaningful together with the document
/// that produced them. Ids are stable across mutations (deletion detaches a
/// node but does not reuse its slot until [`Document::compact`] runs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

impl NodeId {
    /// Arena slot of this node.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The id of arena slot `index` — the inverse of [`Self::index`], for
    /// side tables keyed by slot. Check the result with
    /// [`Document::is_alive`] before trusting it.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        debug_assert!(index <= u32::MAX as usize, "document too large");
        NodeId(index as u32)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// The label of a node: an element name from `Σ` or a data value from `D`
/// (paper §2.1, `λ_T : V_T → Σ ∪ D`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// An element node with its tag name.
    Element(String),
    /// A text (character-data) node with its value.
    Text(String),
}

/// One node of the arena.
#[derive(Debug, Clone)]
pub struct Node {
    kind: NodeKind,
    parent: Option<NodeId>,
    children: Vec<NodeId>,
    /// Attributes in document order.
    attributes: Vec<(String, String)>,
    /// False once the node has been detached by [`Document::remove_subtree`].
    alive: bool,
}

impl Node {
    /// The node's label kind.
    pub fn kind(&self) -> &NodeKind {
        &self.kind
    }

    /// The element name, or `None` for text nodes.
    pub fn name(&self) -> Option<&str> {
        match &self.kind {
            NodeKind::Element(n) => Some(n),
            NodeKind::Text(_) => None,
        }
    }

    /// Parent slot (`None` for the root).
    pub fn parent(&self) -> Option<NodeId> {
        self.parent
    }

    /// Children in document order.
    pub fn children(&self) -> &[NodeId] {
        &self.children
    }
}

/// A rooted, labelled XML tree.
#[derive(Debug, Clone)]
pub struct Document {
    /// The arena: slot `i` is `chunks[i / CHUNK][i % CHUNK]`, and every
    /// chunk but the last is full.
    chunks: Vec<Arc<Vec<Node>>>,
    root: NodeId,
    alive_count: usize,
    /// Live element nodes, maintained by every mutation.
    element_count: usize,
}

impl Document {
    /// Create a document consisting only of a root element named `root_name`.
    pub fn new(root_name: impl Into<String>) -> Self {
        let root = Node {
            kind: NodeKind::Element(root_name.into()),
            parent: None,
            children: Vec::new(),
            attributes: Vec::new(),
            alive: true,
        };
        let mut chunk = Vec::with_capacity(CHUNK);
        chunk.push(root);
        Document {
            chunks: vec![Arc::new(chunk)],
            root: NodeId::from_index(0),
            alive_count: 1,
            element_count: 1,
        }
    }

    /// The root element.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of live nodes (elements + text nodes).
    #[inline]
    pub fn len(&self) -> usize {
        self.alive_count
    }

    /// True if the document contains only detached nodes (never the case for
    /// documents built through the public API, which always keep a root).
    pub fn is_empty(&self) -> bool {
        self.alive_count == 0
    }

    /// Total arena slots, including detached nodes. Useful to size
    /// side-tables indexed by [`NodeId::index`].
    #[inline]
    pub fn arena_len(&self) -> usize {
        self.chunks.len().saturating_sub(1) * CHUNK + self.chunks.last().map_or(0, |c| c.len())
    }

    /// The arena entry of `id`.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        let i = id.index();
        &self.chunks[i / CHUNK][i % CHUNK]
    }

    /// Write access to one node, copying its chunk first if a clone
    /// still shares it.
    #[inline]
    fn node_mut(&mut self, id: NodeId) -> &mut Node {
        let i = id.index();
        &mut Arc::make_mut(&mut self.chunks[i / CHUNK])[i % CHUNK]
    }

    /// Whether `id` refers to a live (attached) node of this document.
    pub fn is_alive(&self, id: NodeId) -> bool {
        let i = id.index();
        self.chunks
            .get(i / CHUNK)
            .and_then(|c| c.get(i % CHUNK))
            .is_some_and(|n| n.alive)
    }

    /// Append a new element named `name` as the last child of `parent`.
    pub fn add_element(&mut self, parent: NodeId, name: impl Into<String>) -> NodeId {
        self.add_node(parent, NodeKind::Element(name.into()))
    }

    /// Append a new text node with `value` as the last child of `parent`.
    pub fn add_text(&mut self, parent: NodeId, value: impl Into<String>) -> NodeId {
        self.add_node(parent, NodeKind::Text(value.into()))
    }

    fn add_node(&mut self, parent: NodeId, kind: NodeKind) -> NodeId {
        assert!(self.is_alive(parent), "parent {parent} is not a live node");
        let id = NodeId::from_index(self.arena_len());
        if matches!(kind, NodeKind::Element(_)) {
            self.element_count += 1;
        }
        let node = Node {
            kind,
            parent: Some(parent),
            children: Vec::new(),
            attributes: Vec::new(),
            alive: true,
        };
        match self.chunks.last_mut() {
            Some(last) if last.len() < CHUNK => Arc::make_mut(last).push(node),
            _ => {
                let mut chunk = Vec::with_capacity(CHUNK);
                chunk.push(node);
                self.chunks.push(Arc::new(chunk));
            }
        }
        self.node_mut(parent).children.push(id);
        self.alive_count += 1;
        id
    }

    /// The element name, or `None` for text nodes.
    pub fn name(&self, id: NodeId) -> Option<&str> {
        self.node(id).name()
    }

    /// The text value, or `None` for element nodes.
    pub fn text_value(&self, id: NodeId) -> Option<&str> {
        match &self.node(id).kind {
            NodeKind::Element(_) => None,
            NodeKind::Text(v) => Some(v),
        }
    }

    /// The label `λ_T(n)`: element name for elements, value for text nodes.
    pub fn label(&self, id: NodeId) -> &str {
        match &self.node(id).kind {
            NodeKind::Element(n) => n,
            NodeKind::Text(v) => v,
        }
    }

    /// Node kind accessor.
    pub fn kind(&self, id: NodeId) -> &NodeKind {
        &self.node(id).kind
    }

    /// True for element nodes.
    pub fn is_element(&self, id: NodeId) -> bool {
        matches!(self.node(id).kind, NodeKind::Element(_))
    }

    /// True for text nodes.
    pub fn is_text(&self, id: NodeId) -> bool {
        matches!(self.node(id).kind, NodeKind::Text(_))
    }

    /// Parent of `id` (`None` for the root).
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.node(id).parent
    }

    /// Children of `id` in document order.
    pub fn children(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.node(id).children.iter().copied()
    }

    /// Child *elements* of `id` in document order (skips text nodes).
    pub fn child_elements(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.children(id).filter(move |&c| self.is_element(c))
    }

    /// First child element named `name`, if any.
    pub fn first_child_named(&self, id: NodeId, name: &str) -> Option<NodeId> {
        self.children(id).find(|&c| self.name(c) == Some(name))
    }

    /// Concatenated text content of the element's *direct* text children.
    pub fn text_of(&self, id: NodeId) -> String {
        let mut out = String::new();
        for c in self.children(id) {
            if let Some(t) = self.text_value(c) {
                out.push_str(t);
            }
        }
        out
    }

    /// Pre-order iterator over the subtree rooted at `id`, **including** `id`.
    pub fn subtree(&self, id: NodeId) -> Subtree<'_> {
        Subtree { doc: self, stack: vec![id] }
    }

    /// Pre-order iterator over the strict descendants of `id`.
    pub fn descendants(&self, id: NodeId) -> Subtree<'_> {
        let mut stack: Vec<NodeId> = self.node(id).children.clone();
        stack.reverse();
        Subtree { doc: self, stack }
    }

    /// Every arena slot with its node, dead ones included: one sweep over
    /// the chunk slices, no per-node chunk lookup.
    fn slots(&self) -> impl Iterator<Item = (NodeId, &Node)> + '_ {
        self.chunks
            .iter()
            .flat_map(|c| c.iter())
            .enumerate()
            .map(|(i, n)| (NodeId::from_index(i), n))
    }

    /// All live nodes in arena order (document order for documents that were
    /// only appended to).
    pub fn all_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.slots().filter(|(_, n)| n.alive).map(|(id, _)| id)
    }

    /// All live *element* nodes, in arena order.
    pub fn all_elements(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.element_nodes().map(|(id, _)| id)
    }

    /// All live element nodes with their arena entries, in arena order —
    /// the sweep whole-document indexes are built from.
    pub fn element_nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> + '_ {
        self.slots()
            .filter(|(_, n)| n.alive && matches!(n.kind, NodeKind::Element(_)))
    }

    /// Number of nodes in the subtree rooted at `id` (including `id`).
    pub fn subtree_size(&self, id: NodeId) -> usize {
        self.subtree(id).count()
    }

    /// Depth of `id` (root has depth 0).
    pub fn depth(&self, id: NodeId) -> usize {
        let mut d = 0;
        let mut cur = id;
        while let Some(p) = self.parent(cur) {
            d += 1;
            cur = p;
        }
        d
    }

    /// Height of the tree (a single-node document has height 0).
    pub fn height(&self) -> usize {
        let mut max = 0;
        let mut stack = vec![(self.root, 0usize)];
        while let Some((n, d)) = stack.pop() {
            max = max.max(d);
            for c in self.children(n) {
                stack.push((c, d + 1));
            }
        }
        max
    }

    /// True if `ancestor` is a proper ancestor of `id`.
    pub fn is_ancestor(&self, ancestor: NodeId, id: NodeId) -> bool {
        let mut cur = self.parent(id);
        while let Some(p) = cur {
            if p == ancestor {
                return true;
            }
            cur = self.parent(p);
        }
        false
    }

    /// Attribute value, if present.
    pub fn attribute(&self, id: NodeId, name: &str) -> Option<&str> {
        self.node(id)
            .attributes
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// All attributes of the node in document order.
    pub fn attributes(&self, id: NodeId) -> &[(String, String)] {
        &self.node(id).attributes
    }

    /// Insert or replace an attribute (upsert). The native store keeps its
    /// `sign` annotations in a byte column beside the arena instead, with
    /// the same upsert semantics (`xac_xmlstore::StoredDocument::annotate`).
    pub fn set_attribute(&mut self, id: NodeId, name: impl Into<String>, value: impl Into<String>) {
        let name = name.into();
        let value = value.into();
        let node = self.node_mut(id);
        if let Some(slot) = node.attributes.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = value;
        } else {
            node.attributes.push((name, value));
        }
    }

    /// Remove an attribute; returns its previous value.
    pub fn remove_attribute(&mut self, id: NodeId, name: &str) -> Option<String> {
        let node = self.node_mut(id);
        let pos = node.attributes.iter().position(|(n, _)| n == name)?;
        Some(node.attributes.remove(pos).1)
    }

    /// Detach the subtree rooted at `id` from the document. The root cannot
    /// be removed. Returns the number of nodes detached.
    pub fn remove_subtree(&mut self, id: NodeId) -> Result<usize> {
        if id == self.root {
            return Err(Error::InvalidNode("cannot remove the document root".into()));
        }
        if !self.is_alive(id) {
            return Err(Error::InvalidNode(format!("node {id} is not attached")));
        }
        let parent = self.node(id).parent.expect("non-root nodes have parents");
        let kids = &mut self.node_mut(parent).children;
        let pos = kids.iter().position(|&c| c == id).expect("child listed under parent");
        kids.remove(pos);

        let mut removed = 0;
        let mut elements = 0;
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            let node = self.node_mut(n);
            if !node.alive {
                continue;
            }
            node.alive = false;
            removed += 1;
            if matches!(node.kind, NodeKind::Element(_)) {
                elements += 1;
            }
            stack.extend(node.children.iter().copied());
        }
        self.alive_count -= removed;
        self.element_count -= elements;
        Ok(removed)
    }

    /// Rebuild the arena, dropping detached nodes. Returns a remapping table
    /// from old [`NodeId`] index to new [`NodeId`] (`None` for dropped
    /// slots). All previously handed-out ids are invalidated.
    pub fn compact(&mut self) -> Vec<Option<NodeId>> {
        let mut remap: Vec<Option<NodeId>> = vec![None; self.arena_len()];
        let mut new_nodes: Vec<Node> = Vec::with_capacity(self.alive_count);
        // Walk in pre-order from the root so document order is preserved.
        let mut stack = vec![self.root];
        let mut order: Vec<NodeId> = Vec::with_capacity(self.alive_count);
        while let Some(n) = stack.pop() {
            order.push(n);
            let kids = &self.node(n).children;
            for &c in kids.iter().rev() {
                stack.push(c);
            }
        }
        for &old in &order {
            remap[old.index()] = Some(NodeId::from_index(new_nodes.len()));
            new_nodes.push(self.node(old).clone());
        }
        for node in &mut new_nodes {
            node.parent = node.parent.and_then(|p| remap[p.index()]);
            node.children = node
                .children
                .iter()
                .filter_map(|c| remap[c.index()])
                .collect();
        }
        self.root = remap[self.root.index()].expect("root survives compaction");
        self.alive_count = new_nodes.len();
        self.element_count =
            new_nodes.iter().filter(|n| matches!(n.kind, NodeKind::Element(_))).count();
        let mut chunks = Vec::with_capacity(new_nodes.len().div_ceil(CHUNK));
        let mut nodes = new_nodes.into_iter().peekable();
        while nodes.peek().is_some() {
            let mut chunk = Vec::with_capacity(CHUNK);
            chunk.extend(nodes.by_ref().take(CHUNK));
            chunks.push(Arc::new(chunk));
        }
        self.chunks = chunks;
        remap
    }

    /// Count of live element nodes (the unit the paper's coverage metric is
    /// expressed in). O(1): every mutation keeps the count.
    pub fn element_count(&self) -> usize {
        self.element_count
    }

    /// Whether chunk `chunk` is the same allocation in both documents.
    #[cfg(test)]
    fn shares_chunk(&self, other: &Document, chunk: usize) -> bool {
        Arc::ptr_eq(&self.chunks[chunk], &other.chunks[chunk])
    }
}

/// Pre-order subtree iterator. See [`Document::subtree`].
pub struct Subtree<'a> {
    doc: &'a Document,
    stack: Vec<NodeId>,
}

impl Iterator for Subtree<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.stack.pop()?;
        let kids = &self.doc.node(id).children;
        for &c in kids.iter().rev() {
            self.stack.push(c);
        }
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Document, NodeId, NodeId, NodeId) {
        let mut d = Document::new("a");
        let b = d.add_element(d.root(), "b");
        let c = d.add_element(d.root(), "c");
        let t = d.add_text(b, "hello");
        (d, b, c, t)
    }

    #[test]
    fn build_and_navigate() {
        let (d, b, c, t) = sample();
        assert_eq!(d.len(), 4);
        assert_eq!(d.name(d.root()), Some("a"));
        assert_eq!(d.parent(b), Some(d.root()));
        assert_eq!(d.parent(d.root()), None);
        assert_eq!(d.children(d.root()).collect::<Vec<_>>(), vec![b, c]);
        assert_eq!(d.text_value(t), Some("hello"));
        assert_eq!(d.label(t), "hello");
        assert_eq!(d.label(b), "b");
        assert!(d.is_element(b) && d.is_text(t));
    }

    #[test]
    fn subtree_preorder() {
        let (d, b, c, t) = sample();
        let order: Vec<NodeId> = d.subtree(d.root()).collect();
        assert_eq!(order, vec![d.root(), b, t, c]);
        let desc: Vec<NodeId> = d.descendants(d.root()).collect();
        assert_eq!(desc, vec![b, t, c]);
        assert_eq!(d.subtree_size(b), 2);
    }

    #[test]
    fn text_of_concatenates_direct_text() {
        let mut d = Document::new("a");
        let b = d.add_element(d.root(), "b");
        d.add_text(b, "x");
        d.add_element(b, "skip");
        d.add_text(b, "y");
        assert_eq!(d.text_of(b), "xy");
        assert_eq!(d.text_of(d.root()), "");
    }

    #[test]
    fn attributes_upsert_semantics() {
        let (mut d, b, _, _) = sample();
        assert_eq!(d.attribute(b, "sign"), None);
        d.set_attribute(b, "sign", "+");
        assert_eq!(d.attribute(b, "sign"), Some("+"));
        d.set_attribute(b, "sign", "-");
        assert_eq!(d.attribute(b, "sign"), Some("-"));
        assert_eq!(d.attributes(b).len(), 1);
        assert_eq!(d.remove_attribute(b, "sign"), Some("-".to_string()));
        assert_eq!(d.attribute(b, "sign"), None);
        assert_eq!(d.remove_attribute(b, "sign"), None);
    }

    #[test]
    fn remove_subtree_detaches_recursively() {
        let (mut d, b, c, t) = sample();
        let removed = d.remove_subtree(b).unwrap();
        assert_eq!(removed, 2);
        assert_eq!(d.len(), 2);
        assert!(!d.is_alive(b));
        assert!(!d.is_alive(t));
        assert!(d.is_alive(c));
        assert_eq!(d.children(d.root()).collect::<Vec<_>>(), vec![c]);
        assert!(d.remove_subtree(b).is_err(), "double removal is an error");
    }

    #[test]
    fn cannot_remove_root() {
        let (mut d, ..) = sample();
        assert!(d.remove_subtree(d.root()).is_err());
    }

    #[test]
    fn compact_preserves_structure() {
        let (mut d, b, c, _) = sample();
        let extra = d.add_element(c, "e");
        d.remove_subtree(b).unwrap();
        let remap = d.compact();
        assert_eq!(d.len(), 3);
        assert_eq!(d.arena_len(), 3);
        assert!(remap[b.index()].is_none());
        let new_c = remap[c.index()].unwrap();
        let new_e = remap[extra.index()].unwrap();
        assert_eq!(d.name(new_c), Some("c"));
        assert_eq!(d.parent(new_e), Some(new_c));
        assert_eq!(d.name(d.root()), Some("a"));
    }

    #[test]
    fn depth_height_ancestor() {
        let (mut d, b, c, t) = sample();
        let e = d.add_element(c, "e");
        assert_eq!(d.depth(d.root()), 0);
        assert_eq!(d.depth(t), 2);
        assert_eq!(d.height(), 2);
        assert!(d.is_ancestor(d.root(), t));
        assert!(d.is_ancestor(b, t));
        assert!(!d.is_ancestor(b, e));
        assert!(!d.is_ancestor(t, b));
    }

    #[test]
    fn element_count_excludes_text() {
        let (d, ..) = sample();
        assert_eq!(d.element_count(), 3);
        assert_eq!(d.len(), 4);
    }

    /// A document of `n` elements, each holding one text node, spread
    /// over several arena chunks.
    fn wide(n: usize) -> Document {
        let mut d = Document::new("r");
        for i in 0..n {
            let e = d.add_element(d.root(), if i % 3 == 0 { "a" } else { "b" });
            d.add_text(e, format!("v{i}"));
        }
        d
    }

    #[test]
    fn element_counter_tracks_every_mutation() {
        let mut d = wide(40);
        let check = |d: &Document, step: &str| {
            assert_eq!(d.element_count(), d.all_elements().count(), "{step}");
            assert_eq!(d.len(), d.all_nodes().count(), "{step}");
        };
        check(&d, "parse-free build");
        let kids: Vec<NodeId> = d.children(d.root()).collect();
        let inner = d.add_element(kids[3], "c");
        check(&d, "add_element");
        d.add_text(inner, "t");
        check(&d, "add_text");
        d.remove_subtree(kids[3]).unwrap();
        check(&d, "remove_subtree with nested element");
        d.remove_subtree(kids[5]).unwrap();
        check(&d, "remove_subtree");
        assert!(d.remove_subtree(kids[5]).is_err());
        check(&d, "failed removal");
        d.compact();
        check(&d, "compact");
        let parsed = Document::parse_str("<a><b>x<c/>y</b><d/></a>").unwrap();
        check(&parsed, "parse");
    }

    #[test]
    fn clones_share_untouched_chunks_and_keep_their_value() {
        let mut d = Document::parse_str(&wide(3 * CHUNK).to_xml()).unwrap();
        let chunks = d.arena_len().div_ceil(CHUNK);
        assert!(chunks >= 6, "the fixture spans several chunks");
        let clone = d.clone();
        let before = clone.to_xml();
        let shared = |d: &Document| (0..chunks).filter(|&c| d.shares_chunk(&clone, c)).count();
        assert_eq!(shared(&d), chunks, "a clone copies no chunk");

        // Slot 10 sits in chunk 0, slot 2 * CHUNK + 1 in chunk 2.
        let early = NodeId::from_index(9);
        let mid = NodeId::from_index(2 * CHUNK + 1);
        assert!(d.is_element(early) && d.is_element(mid));
        d.set_attribute(early, "sign", "+");
        assert!(!d.shares_chunk(&clone, 0) && shared(&d) == chunks - 1, "set_attribute");
        d.remove_attribute(early, "sign");
        assert_eq!(shared(&d), chunks - 1, "remove_attribute touches the same chunk");
        // The root lives in chunk 0 too, so appending copies only the
        // last chunk.
        let added = d.add_element(d.root(), "z");
        d.add_text(added, "new");
        assert!(!d.shares_chunk(&clone, chunks - 1), "append copies the last chunk");
        assert_eq!(shared(&d), chunks - 2, "add_element/add_text");
        d.remove_subtree(mid).unwrap();
        assert!(!d.shares_chunk(&clone, 2), "remove_subtree copies its chunk");
        assert_eq!(shared(&d), chunks - 3, "remove_subtree");
        assert_eq!(clone.to_xml(), before, "the clone is unchanged by every write");
        d.compact();
        assert_eq!(clone.to_xml(), before, "and by compaction");
        assert!(clone.is_alive(mid) && clone.attribute(early, "sign").is_none());
    }
}
