//! Arena-based XML tree model.
//!
//! A [`Document`] owns every node in a flat arena addressed by dense
//! [`NodeId`]s. This gives O(1) navigation in every direction and
//! cache-friendly whole-document scans — the access patterns that dominate
//! annotation workloads, where the system repeatedly sweeps all nodes of a
//! document to apply or clear accessibility labels.
//!
//! The arena is plain data, laid out like MonetDB/XQuery's node table: a
//! node is a fixed-size `Copy` record (flags, a label, and `u32` parent,
//! first-child, last-child and next-sibling links). An element's label is
//! its name's id in the document's interned name table; a text node's is
//! the span of its value in its chunk's text buffer. Attributes, absent
//! from the generated documents, live in a document-level side map.
//!
//! The arena is stored in fixed-size chunks of [`CHUNK`] records plus
//! their text, each chunk behind an [`Arc`]. Cloning a document therefore
//! copies one pointer per chunk, and the first write to a chunk that a
//! clone still shares copies that chunk alone ([`Arc::make_mut`]) — two
//! flat buffers, no per-node allocation. The name table and the attribute
//! map are shared the same way and copied only when a new name appears or
//! an attribute is written.
//!
//! Nodes are never physically removed from the arena; deletion marks the
//! subtree as *detached* so that outstanding [`NodeId`]s can be detected as
//! stale instead of silently aliasing new nodes. Documents subject to heavy
//! update churn can be compacted with [`Document::compact`].

use crate::error::{Error, Result};
use std::collections::{BTreeMap, HashMap};
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
/// (paper §2.1, `λ_T : V_T → Σ ∪ D`), borrowed from the document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind<'a> {
    /// An element node with its tag name.
    Element(&'a str),
    /// A text (character-data) node with its value.
    Text(&'a str),
}

/// "No node": the missing parent, child or sibling link.
const NIL: u32 = u32::MAX;
const ELEMENT: u8 = 1;
const ALIVE: u8 = 2;

/// One arena record: plain data, so a chunk copy is a `memcpy`.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// Element: interned name id. Text: start of the value in its
    /// chunk's text buffer.
    label: u32,
    /// Text: byte length of the value. Element: 0.
    len: u32,
    parent: u32,
    first_child: u32,
    last_child: u32,
    next_sibling: u32,
    flags: u8,
}

impl Node {
    fn is_element(&self) -> bool {
        self.flags & ELEMENT != 0
    }

    fn is_alive(&self) -> bool {
        self.flags & ALIVE != 0
    }
}

fn link(slot: u32) -> Option<NodeId> {
    (slot != NIL).then_some(NodeId(slot))
}

/// [`CHUNK`] consecutive arena records and the bytes of their text
/// values.
#[derive(Debug, Clone)]
struct Chunk {
    nodes: Vec<Node>,
    text: String,
}

/// A document's interned element names: id → name and name → id. Ids
/// are dense, stable for the document's lifetime (compaction included)
/// and shared by its clones, so side structures built over a document
/// key by them and share the table ([`Document::name_table`]).
#[derive(Debug, Clone, Default)]
pub struct NameTable {
    names: Vec<Box<str>>,
    ids: HashMap<Box<str>, u32>,
}

impl NameTable {
    /// The id of `name`, if it is interned.
    pub fn id_of(&self, name: &str) -> Option<u32> {
        self.ids.get(name).copied()
    }

    /// The name with id `id`.
    pub fn name(&self, id: u32) -> &str {
        &self.names[id as usize]
    }

    /// Number of interned names (one past the largest id).
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when no name is interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// Attributes by node, in document order per node.
type Attributes = BTreeMap<NodeId, Vec<(String, String)>>;

/// A rooted, labelled XML tree.
#[derive(Debug, Clone)]
pub struct Document {
    /// The arena: slot `i` is `chunks[i / CHUNK].nodes[i % CHUNK]`, and
    /// every chunk but the last is full.
    chunks: Vec<Arc<Chunk>>,
    names: Arc<NameTable>,
    attributes: Arc<Attributes>,
    root: NodeId,
    alive_count: usize,
    /// Live element nodes, maintained by every mutation.
    element_count: usize,
}

impl Document {
    /// Create a document consisting only of a root element named `root_name`.
    pub fn new(root_name: impl Into<String>) -> Self {
        Document::with_root(&root_name.into(), Arc::default())
    }

    /// A one-element document over an existing name table.
    fn with_root(root_name: &str, names: Arc<NameTable>) -> Self {
        let mut doc = Document {
            chunks: Vec::new(),
            names,
            attributes: Arc::default(),
            root: NodeId(0),
            alive_count: 0,
            element_count: 0,
        };
        let label = doc.intern_name(root_name);
        doc.push(NIL, label, "");
        doc
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
        self.chunks.len().saturating_sub(1) * CHUNK
            + self.chunks.last().map_or(0, |c| c.nodes.len())
    }

    /// The arena record of `id`.
    #[inline]
    fn node(&self, id: NodeId) -> &Node {
        let i = id.index();
        &self.chunks[i / CHUNK].nodes[i % CHUNK]
    }

    /// Write access to one record, copying its chunk first if a clone
    /// still shares it.
    #[inline]
    fn node_mut(&mut self, id: NodeId) -> &mut Node {
        let i = id.index();
        &mut Arc::make_mut(&mut self.chunks[i / CHUNK]).nodes[i % CHUNK]
    }

    /// Whether `id` refers to a live (attached) node of this document.
    pub fn is_alive(&self, id: NodeId) -> bool {
        let i = id.index();
        self.chunks
            .get(i / CHUNK)
            .and_then(|c| c.nodes.get(i % CHUNK))
            .is_some_and(Node::is_alive)
    }

    /// The id of element name `name`, interning it if it is new. The
    /// name table is copied only then.
    pub fn intern_name(&mut self, name: &str) -> u32 {
        if let Some(id) = self.name_id_of(name) {
            return id;
        }
        let names = Arc::make_mut(&mut self.names);
        let id = u32::try_from(names.names.len()).expect("under 2^32 element names");
        names.names.push(name.into());
        names.ids.insert(name.into(), id);
        id
    }

    /// The interned id of element name `name`, if the document has
    /// interned it (see [`NameTable`]).
    pub fn name_id_of(&self, name: &str) -> Option<u32> {
        self.names.id_of(name)
    }

    /// The document's name table, shared with its clones until a new
    /// name is interned.
    pub fn name_table(&self) -> &Arc<NameTable> {
        &self.names
    }

    /// The interned name id of element `id` (`None` for text nodes).
    #[inline]
    pub fn name_id(&self, id: NodeId) -> Option<u32> {
        let node = self.node(id);
        node.is_element().then_some(node.label)
    }

    /// The name with interned id `name_id`.
    pub fn name_of_id(&self, name_id: u32) -> &str {
        self.names.name(name_id)
    }

    /// Number of interned element names (one past the largest id).
    pub fn name_id_count(&self) -> usize {
        self.names.len()
    }

    /// Append a new element named `name` as the last child of `parent`.
    pub fn add_element(&mut self, parent: NodeId, name: impl Into<String>) -> NodeId {
        self.add_element_named(parent, &name.into())
    }

    /// [`Self::add_element`] without taking ownership of the name.
    pub(crate) fn add_element_named(&mut self, parent: NodeId, name: &str) -> NodeId {
        assert!(self.is_alive(parent), "parent {parent} is not a live node");
        let label = self.intern_name(name);
        self.push(parent.0, label, "")
    }

    /// Append a new text node with `value` as the last child of `parent`.
    pub fn add_text(&mut self, parent: NodeId, value: impl Into<String>) -> NodeId {
        self.add_text_value(parent, &value.into())
    }

    /// [`Self::add_text`] without taking ownership of the value.
    pub(crate) fn add_text_value(&mut self, parent: NodeId, value: &str) -> NodeId {
        assert!(self.is_alive(parent), "parent {parent} is not a live node");
        self.push(parent.0, NIL, value)
    }

    /// Append a record at the next slot: an element named by interned id
    /// `label`, or (with `label == NIL`) a text node holding `text`; then
    /// link it as `parent`'s last child. Copies the tail chunk, the
    /// parent's and the previous last child's if a clone shares them.
    fn push(&mut self, parent: u32, label: u32, text: &str) -> NodeId {
        let id = NodeId::from_index(self.arena_len());
        if self.chunks.last().is_none_or(|c| c.nodes.len() == CHUNK) {
            let nodes = Vec::with_capacity(CHUNK);
            self.chunks.push(Arc::new(Chunk { nodes, text: String::new() }));
        }
        let chunk = Arc::make_mut(self.chunks.last_mut().expect("a tail chunk"));
        let mut node = Node {
            label,
            len: 0,
            parent,
            first_child: NIL,
            last_child: NIL,
            next_sibling: NIL,
            flags: ALIVE | ELEMENT,
        };
        if label == NIL {
            node.label = u32::try_from(chunk.text.len()).expect("chunk text under 4 GiB");
            node.len = u32::try_from(text.len()).expect("text under 4 GiB");
            node.flags = ALIVE;
            chunk.text.push_str(text);
        } else {
            self.element_count += 1;
        }
        chunk.nodes.push(node);
        self.alive_count += 1;
        if let Some(parent) = link(parent) {
            match link(self.node(parent).last_child) {
                Some(last) => self.node_mut(last).next_sibling = id.0,
                None => self.node_mut(parent).first_child = id.0,
            }
            self.node_mut(parent).last_child = id.0;
        }
        id
    }

    /// The element name, or `None` for text nodes.
    pub fn name(&self, id: NodeId) -> Option<&str> {
        self.name_id(id).map(|n| self.name_of_id(n))
    }

    /// The text value, or `None` for element nodes.
    pub fn text_value(&self, id: NodeId) -> Option<&str> {
        let i = id.index();
        let chunk = &self.chunks[i / CHUNK];
        let node = &chunk.nodes[i % CHUNK];
        let start = node.label as usize;
        (!node.is_element()).then(|| &chunk.text[start..start + node.len as usize])
    }

    /// The label `λ_T(n)`: element name for elements, value for text nodes.
    pub fn label(&self, id: NodeId) -> &str {
        match self.kind(id) {
            NodeKind::Element(s) | NodeKind::Text(s) => s,
        }
    }

    /// Node kind accessor.
    pub fn kind(&self, id: NodeId) -> NodeKind<'_> {
        match self.text_value(id) {
            Some(t) => NodeKind::Text(t),
            None => NodeKind::Element(self.name_of_id(self.node(id).label)),
        }
    }

    /// True for element nodes.
    pub fn is_element(&self, id: NodeId) -> bool {
        self.node(id).is_element()
    }

    /// True for text nodes.
    pub fn is_text(&self, id: NodeId) -> bool {
        !self.is_element(id)
    }

    /// Parent of `id` (`None` for the root).
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        link(self.node(id).parent)
    }

    /// Children of `id` in document order.
    pub fn children(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let mut next = link(self.node(id).first_child);
        std::iter::from_fn(move || {
            let id = next?;
            next = link(self.node(id).next_sibling);
            Some(id)
        })
    }

    /// Child *elements* of `id` in document order (skips text nodes).
    pub fn child_elements(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.children(id).filter(move |&c| self.is_element(c))
    }

    /// First child element named `name`, if any.
    pub fn first_child_named(&self, id: NodeId, name: &str) -> Option<NodeId> {
        let name = self.name_id_of(name)?;
        self.children(id).find(|&c| self.name_id(c) == Some(name))
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
        Subtree { doc: self, root: id, next: Some(id) }
    }

    /// Pre-order iterator over the strict descendants of `id`.
    pub fn descendants(&self, id: NodeId) -> Subtree<'_> {
        Subtree { doc: self, root: id, next: link(self.node(id).first_child) }
    }

    /// The node after `id` in a pre-order walk of the subtree of `root`:
    /// its first child, else the next sibling of the nearest of `id` and
    /// its ancestors below `root` that has one.
    fn preorder_next(&self, root: NodeId, id: NodeId) -> Option<NodeId> {
        let mut node = self.node(id);
        if let Some(child) = link(node.first_child) {
            return Some(child);
        }
        let mut cur = id;
        while cur != root {
            if let Some(sibling) = link(node.next_sibling) {
                return Some(sibling);
            }
            cur = NodeId(node.parent);
            node = self.node(cur);
        }
        None
    }

    /// Every arena slot with its record, dead ones included: one sweep
    /// over the chunk slices, no per-node chunk lookup.
    fn slots(&self) -> impl Iterator<Item = (NodeId, &Node)> + '_ {
        self.chunks
            .iter()
            .flat_map(|c| c.nodes.iter())
            .enumerate()
            .map(|(i, n)| (NodeId::from_index(i), n))
    }

    /// All live nodes in arena order (document order for documents that were
    /// only appended to).
    pub fn all_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.slots().filter(|(_, n)| n.is_alive()).map(|(id, _)| id)
    }

    /// All live *element* nodes, in arena order.
    pub fn all_elements(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.slots()
            .filter(|(_, n)| n.flags == ALIVE | ELEMENT)
            .map(|(id, _)| id)
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
        self.attributes(id).iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// All attributes of the node in document order.
    pub fn attributes(&self, id: NodeId) -> &[(String, String)] {
        self.attributes.get(&id).map_or(&[], Vec::as_slice)
    }

    /// Insert or replace an attribute (upsert). Copies the document's
    /// attribute map if a clone shares it. The native store keeps its
    /// `sign` annotations in a byte column beside the arena instead, with
    /// the same upsert semantics (`xac_xmlstore::StoredDocument::annotate`).
    pub fn set_attribute(&mut self, id: NodeId, name: impl Into<String>, value: impl Into<String>) {
        let name = name.into();
        let value = value.into();
        let attributes = Arc::make_mut(&mut self.attributes).entry(id).or_default();
        if let Some(slot) = attributes.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = value;
        } else {
            attributes.push((name, value));
        }
    }

    /// Remove an attribute; returns its previous value. Copies nothing
    /// when the node has no such attribute.
    pub fn remove_attribute(&mut self, id: NodeId, name: &str) -> Option<String> {
        let pos = self.attributes(id).iter().position(|(n, _)| n == name)?;
        let map = Arc::make_mut(&mut self.attributes);
        let attributes = map.get_mut(&id).expect("the node has attributes");
        let (_, value) = attributes.remove(pos);
        if attributes.is_empty() {
            map.remove(&id);
        }
        Some(value)
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
        let parent = self.parent(id).expect("non-root nodes have parents");
        let next = self.node(id).next_sibling;
        let prev = self.children(parent).take_while(|&c| c != id).last();
        match prev {
            Some(prev) => self.node_mut(prev).next_sibling = next,
            None => self.node_mut(parent).first_child = next,
        }
        if self.node(parent).last_child == id.0 {
            self.node_mut(parent).last_child = prev.map_or(NIL, |p| p.0);
        }

        // The detached subtree keeps its links, so the walk can read
        // them while it clears the flags.
        let mut removed = 0;
        let mut elements = 0;
        let mut cur = Some(id);
        while let Some(n) = cur {
            cur = self.preorder_next(id, n);
            let node = self.node_mut(n);
            if node.is_alive() {
                node.flags &= !ALIVE;
                removed += 1;
                elements += usize::from(node.is_element());
            }
        }
        self.alive_count -= removed;
        self.element_count -= elements;
        Ok(removed)
    }

    /// Rebuild the arena, dropping detached nodes. Returns a remapping table
    /// from old [`NodeId`] index to new [`NodeId`] (`None` for dropped
    /// slots). All previously handed-out ids are invalidated; name ids
    /// stay.
    pub fn compact(&mut self) -> Vec<Option<NodeId>> {
        let mut remap: Vec<Option<NodeId>> = vec![None; self.arena_len()];
        let root_name = self.name(self.root).expect("the root is an element");
        let mut out = Document::with_root(root_name, Arc::clone(&self.names));
        // Pre-order from the root, so document order is preserved and
        // every parent is placed before its children.
        remap[self.root.index()] = Some(out.root);
        for old in self.descendants(self.root) {
            let parent = remap[self.node(old).parent as usize].expect("parent placed first");
            let node = self.node(old);
            let new = match self.text_value(old) {
                Some(text) => out.push(parent.0, NIL, text),
                None => out.push(parent.0, node.label, ""),
            };
            remap[old.index()] = Some(new);
        }
        let mut attributes = Attributes::new();
        for (id, attrs) in self.attributes.iter() {
            if let Some(new) = remap[id.index()] {
                attributes.insert(new, attrs.clone());
            }
        }
        out.attributes = Arc::new(attributes);
        *self = out;
        remap
    }

    /// Count of live element nodes (the unit the paper's coverage metric is
    /// expressed in). O(1): every mutation keeps the count.
    pub fn element_count(&self) -> usize {
        self.element_count
    }

    /// Whether the arena chunk holding slot `id` is one allocation in
    /// both documents: the probe copy-on-write tests use.
    pub fn shares_chunk_of(&self, other: &Document, id: NodeId) -> bool {
        let c = id.index() / CHUNK;
        match (self.chunks.get(c), other.chunks.get(c)) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// Pre-order subtree iterator over the sibling links. See
/// [`Document::subtree`].
pub struct Subtree<'a> {
    doc: &'a Document,
    root: NodeId,
    next: Option<NodeId>,
}

impl Iterator for Subtree<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.next?;
        self.next = self.doc.preorder_next(self.root, id);
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

    /// How many of the first `chunks` arena chunks `d` shares with `other`.
    fn shared(d: &Document, other: &Document, chunks: usize) -> usize {
        (0..chunks).filter(|&c| d.shares_chunk_of(other, NodeId::from_index(c * CHUNK))).count()
    }

    #[test]
    fn clones_share_untouched_chunks_and_keep_their_value() {
        let mut d = Document::parse_str(&wide(3 * CHUNK).to_xml()).unwrap();
        let chunks = d.arena_len().div_ceil(CHUNK);
        assert!(chunks >= 6, "the fixture spans several chunks");
        let clone = d.clone();
        let before = clone.to_xml();
        let chunk = |c: usize| NodeId::from_index(c * CHUNK);
        assert_eq!(shared(&d, &clone, chunks), chunks, "a clone copies no chunk");

        // Slot 9 sits in chunk 0; slot 2 * CHUNK + 1 in chunk 2, and its
        // previous sibling in chunk 1.
        let early = NodeId::from_index(9);
        let mid = NodeId::from_index(2 * CHUNK + 1);
        assert!(d.is_element(early) && d.is_element(mid));
        d.set_attribute(early, "sign", "+");
        assert_eq!(shared(&d, &clone, chunks), chunks, "attributes live beside the arena");
        d.remove_attribute(early, "sign");
        assert_eq!(shared(&d, &clone, chunks), chunks, "remove_attribute");
        // Appending under the root links the new element from the root
        // (chunk 0) and from the root's last child, and writes the tail.
        let last = d.children(d.root()).last().unwrap();
        let added = d.add_element(d.root(), "z");
        d.add_text(added, "new");
        let mut copied: std::collections::BTreeSet<usize> =
            [0, last.index() / CHUNK, added.index() / CHUNK].into();
        let unshared = |d: &Document| {
            (0..chunks).filter(|&c| !d.shares_chunk_of(&clone, chunk(c))).collect::<std::collections::BTreeSet<_>>()
        };
        assert_eq!(unshared(&d), copied, "add_element/add_text");
        d.remove_subtree(mid).unwrap();
        copied.extend([1, 2]);
        assert_eq!(unshared(&d), copied, "remove_subtree copies its chunk and its previous sibling's");
        assert_eq!(clone.to_xml(), before, "the clone is unchanged by every write");
        d.compact();
        assert_eq!(clone.to_xml(), before, "and by compaction");
        assert!(clone.is_alive(mid) && clone.attribute(early, "sign").is_none());
    }

    /// A write whose node, parent and previous sibling share one chunk
    /// copies exactly that chunk: every other chunk of the clone stays
    /// the same allocation, and the copy carries its own text.
    #[test]
    fn one_node_write_copies_exactly_its_chunk() {
        let mut d = Document::new("r");
        for g in 0..400 {
            let group = d.add_element(d.root(), "g");
            for i in 0..4 {
                let e = d.add_element(group, "e");
                d.add_text(e, format!("v{g}.{i} ✓"));
            }
        }
        let chunks = d.arena_len().div_ceil(CHUNK);
        assert!(chunks >= 4, "the fixture spans several chunks");
        let same_chunk = |a: NodeId, b: NodeId| a.index() / CHUNK == b.index() / CHUNK;
        // The last child of a group inside chunk 2: its parent, previous
        // sibling and text share its chunk.
        let target = d
            .all_elements()
            .filter(|&e| e.index() / CHUNK == 2 && d.name(e) == Some("e"))
            .find(|&e| {
                let parent = d.parent(e).unwrap();
                let kids: Vec<NodeId> = d.children(parent).collect();
                kids.len() > 1
                    && *kids.last().unwrap() == e
                    && kids.iter().chain([&parent]).all(|&k| same_chunk(k, e))
                    && d.subtree(e).all(|n| same_chunk(n, e))
            })
            .expect("a fixture group inside chunk 2");
        let text = d.text_of(target);
        let clone = d.clone();
        d.remove_subtree(target).unwrap();
        for c in 0..chunks {
            let at = NodeId::from_index(c * CHUNK);
            assert_eq!(d.shares_chunk_of(&clone, at), c != 2, "chunk {c}");
        }
        assert!(!d.is_alive(target) && clone.is_alive(target));
        assert_eq!(clone.text_of(target), text, "the clone keeps the chunk's text");
        assert_eq!(d.text_of(target), text, "the copy carries its own text");
    }
}
