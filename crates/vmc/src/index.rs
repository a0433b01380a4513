//! Columnar document index: the VM's execution substrate.
//!
//! [`DocIndex`] flattens a [`Document`] arena into dense columns —
//! per-slot name id, parent slot, string value — plus per-element-type
//! node lists and a CSR child adjacency. Scans and steps then run over
//! contiguous `u32` arrays instead of chasing arena nodes, and masks are
//! bitsets over arena slots, whose ascending order *is* the document
//! (arena) order the interpreter produces.
//!
//! Value postings answer `[c = "v"]` and `[. = "v"]` in O(log n +
//! hits): one `key << 32 | slot` word per live element, sorted, where
//! the 32-bit key hashes the element's name id with its canonical value
//! ([`value_key`]). A probe returns candidates only; the VM re-checks
//! each with `CmpOp::compare`, so a hash collision costs a candidate,
//! never a wrong answer.
//!
//! The index depends only on document *structure and text*; sign writes
//! do not invalidate it, so backends cache one index per document and
//! patch it across structural updates ([`DocIndex::append`] after an
//! insert, [`DocIndex::remove_subtrees`] after a delete) instead of
//! rebuilding it. Every column is a flat vector, so copying an index a
//! snapshot still shares is a handful of `memcpy`s.

use std::collections::HashMap;
use xac_obs::{fnv1a, FNV_OFFSET};
use xac_xml::{Document, Node, NodeId};

/// Sentinel for "no name" (text node or dead slot) and "no parent".
pub(crate) const NONE: u32 = u32::MAX;

/// Dense columnar view of one document.
#[derive(Debug, Clone)]
pub struct DocIndex {
    /// Arena capacity (bitset width).
    n: usize,
    /// Arena slot of the document root.
    root: u32,
    /// Per-slot interned name id (`NONE` for text nodes and dead slots).
    name_id: Vec<u32>,
    /// Per-slot parent arena slot (`NONE` for the root and dead slots).
    parent: Vec<u32>,
    /// Interned element-name lookup. A name keeps its id after its last
    /// element is deleted (with an empty slot list).
    lookup: HashMap<String, u32>,
    /// Live element slots per name id, ascending (document order).
    by_name: Vec<Vec<u32>>,
    /// All live element slots, ascending.
    elements: Vec<u32>,
    /// CSR adjacency over *element* children: children of slot `s` are
    /// `child_list[child_start[s]..child_start[s + 1]]`.
    child_start: Vec<u32>,
    child_list: Vec<u32>,
    /// Every element's string value (concatenated direct text children),
    /// back to back.
    text: String,
    /// Per-slot `(start, end)` of its value in `text`; empty for text
    /// nodes and dead slots. A deleted slot's bytes stay in `text`, just
    /// as its node stays in the arena until the document is compacted.
    text_span: Vec<(u32, u32)>,
    /// One `value_key(name, value) << 32 | slot` word per live element,
    /// sorted — by key, then by slot. Flat, like every other column, so
    /// that copying a shared index stays a `memcpy`; packed into one
    /// word, so that it costs 8 bytes per element.
    postings: Vec<u64>,
}

/// Posting key of an element with name id `name` and string value
/// `value`, canonical under `CmpOp::compare`'s `=`: a value whose
/// trimmed form parses as a number keys by the number's bits (`-0`
/// folded into `0`), any other value by its raw, untrimmed bytes. Two
/// values that compare equal therefore share a key. The key is the high
/// half of the FNV-1a hash: a collision only adds a candidate.
pub(crate) fn value_key(name: u32, value: &str) -> u32 {
    let h = fnv1a(FNV_OFFSET, &name.to_le_bytes());
    let h = match value.trim().parse::<f64>() {
        Ok(x) => {
            let x = if x == 0.0 { 0.0 } else { x };
            fnv1a(fnv1a(h, b"#"), &x.to_bits().to_le_bytes())
        }
        Err(_) => fnv1a(fnv1a(h, b"$"), value.as_bytes()),
    };
    (h >> 32) as u32
}

impl DocIndex {
    /// Build the index in one sweep over the arena's chunks plus one
    /// counting pass for the child lists.
    pub fn build(doc: &Document) -> DocIndex {
        let _span = xac_obs::span("vm.index");
        let n = doc.arena_len();
        let mut index = DocIndex {
            n,
            root: doc.root().index() as u32,
            name_id: vec![NONE; n],
            parent: vec![NONE; n],
            lookup: HashMap::new(),
            by_name: Vec::new(),
            elements: Vec::new(),
            child_start: Vec::new(),
            child_list: Vec::new(),
            text: String::new(),
            text_span: vec![(0, 0); n],
            postings: Vec::with_capacity(doc.element_count()),
        };
        for (id, node) in doc.element_nodes() {
            index.add_element(doc, id, node);
        }
        index.postings.sort_unstable();
        index.rebuild_children();
        index
    }

    /// Patch the index after elements were appended to `doc` (slots at
    /// or past the indexed width): new slots are the largest in the
    /// arena, so they extend the element and per-name lists in order. A
    /// text node appended under an already-indexed element refreshes
    /// that element's value and moves its posting. New postings join as
    /// an unsorted tail that is then merged in.
    pub fn append(&mut self, doc: &Document) {
        let old = self.n;
        let n = doc.arena_len();
        if n == old {
            return;
        }
        self.n = n;
        self.name_id.resize(n, NONE);
        self.parent.resize(n, NONE);
        self.text_span.resize(n, (0, 0));
        let mut sorted = self.postings.len();
        // Every new live element gets a posting: grow once, exactly.
        let new_elements = doc.element_count().saturating_sub(self.elements.len());
        self.postings.reserve_exact(new_elements);
        let mut revalued: Vec<u32> = Vec::new();
        for slot in old..n {
            let id = NodeId::from_index(slot);
            if !doc.is_alive(id) {
                continue;
            }
            if doc.is_element(id) {
                let node = doc.node(id);
                self.add_element(doc, id, node);
            } else if let Some(p) = doc.parent(id) {
                let p = p.index() as u32;
                if (p as usize) < old && self.name_id[p as usize] != NONE {
                    revalued.push(p);
                }
            }
        }
        // Text under p1, p2, p1 revalues p1 once: sort before dedup.
        revalued.sort_unstable();
        revalued.dedup();
        for p in revalued {
            let old = self.posting(p);
            if let Ok(at) = self.postings[..sorted].binary_search(&old) {
                self.postings.remove(at);
                sorted -= 1;
            }
            let node = doc.node(NodeId::from_index(p as usize));
            self.text_span[p as usize] = self.push_value(doc, node);
            self.postings.push(self.posting(p));
        }
        self.merge_tail(sorted);
        self.rebuild_children();
    }

    /// Patch the index after the subtrees rooted at the element `roots`
    /// were detached from the document: their slots leave every list and
    /// their columns are cleared. The walk follows the index's own child
    /// lists, so it needs no document.
    pub fn remove_subtrees(&mut self, roots: &[NodeId]) {
        let mut stack: Vec<u32> = roots.iter().map(|r| r.index() as u32).collect();
        let mut touched = vec![false; self.by_name.len()];
        while let Some(slot) = stack.pop() {
            let s = slot as usize;
            if s >= self.n || self.name_id[s] == NONE {
                continue;
            }
            stack.extend_from_slice(self.children_of(slot));
            touched[self.name_id[s] as usize] = true;
            self.name_id[s] = NONE;
            self.parent[s] = NONE;
            self.text_span[s] = (0, 0);
        }
        let name_id = &self.name_id;
        let live = |s: &u32| name_id[*s as usize] != NONE;
        self.elements.retain(live);
        self.postings.retain(|&e| live(&(e as u32)));
        for (slots, _) in self.by_name.iter_mut().zip(&touched).filter(|(_, &t)| t) {
            slots.retain(live);
        }
        self.rebuild_children();
    }

    /// Index one live element: name, parent, value, and its place at the
    /// end of the element and per-name lists.
    fn add_element(&mut self, doc: &Document, id: NodeId, node: &Node) {
        let slot = id.index();
        let name = node.name().expect("element has a name");
        let name = match self.lookup.get(name) {
            Some(&name) => name,
            None => {
                let next = self.by_name.len() as u32;
                self.lookup.insert(name.to_string(), next);
                self.by_name.push(Vec::new());
                next
            }
        };
        self.name_id[slot] = name;
        self.parent[slot] = node.parent().map_or(NONE, |p| p.index() as u32);
        self.text_span[slot] = self.push_value(doc, node);
        self.elements.push(slot as u32);
        self.by_name[name as usize].push(slot as u32);
        self.postings.push(self.posting(slot as u32));
    }

    /// Fold the unsorted tail `postings[sorted..]` into the sorted
    /// prefix: sort the tail, then merge from the back, in place.
    fn merge_tail(&mut self, sorted: usize) {
        let mut tail = self.postings.split_off(sorted);
        tail.sort_unstable();
        let (mut i, mut j) = (sorted, tail.len());
        self.postings.resize(sorted + j, 0);
        while j > 0 {
            let w = i + j - 1;
            if i > 0 && self.postings[i - 1] > tail[j - 1] {
                self.postings[w] = self.postings[i - 1];
                i -= 1;
            } else {
                self.postings[w] = tail[j - 1];
                j -= 1;
            }
        }
    }

    /// Posting of a live slot under its current name and value.
    fn posting(&self, slot: u32) -> u64 {
        let key = value_key(self.name_id_at(slot), self.value_of(slot));
        u64::from(key) << 32 | u64::from(slot)
    }

    /// Append `node`'s string value to the text buffer; returns its span.
    fn push_value(&mut self, doc: &Document, node: &Node) -> (u32, u32) {
        let start = self.text.len();
        for &c in node.children() {
            if let Some(t) = doc.text_value(c) {
                self.text.push_str(t);
            }
        }
        let end = u32::try_from(self.text.len()).expect("index text under 4 GiB");
        (start as u32, end)
    }

    /// Recompute the CSR child lists from the parent column in one
    /// counting pass. Siblings come out in ascending slot order, which is
    /// document order: a node is always appended as its parent's last
    /// child, at the largest slot yet.
    fn rebuild_children(&mut self) {
        let n = self.n;
        self.child_start.clear();
        self.child_start.resize(n + 1, 0);
        for &s in &self.elements {
            let p = self.parent[s as usize];
            if p != NONE {
                self.child_start[p as usize + 1] += 1;
            }
        }
        for i in 0..n {
            self.child_start[i + 1] += self.child_start[i];
        }
        self.child_list.clear();
        self.child_list.resize(self.child_start[n] as usize, 0);
        // Fill with `child_start[p]` as parent p's cursor, which leaves
        // it at p's end (= p + 1's start); shifting by one restores it.
        for &s in &self.elements {
            let p = self.parent[s as usize];
            if p != NONE {
                let at = &mut self.child_start[p as usize];
                self.child_list[*at as usize] = s;
                *at += 1;
            }
        }
        self.child_start.copy_within(0..n, 1);
        self.child_start[0] = 0;
    }

    /// Bitset width (arena capacity).
    pub fn width(&self) -> usize {
        self.n
    }

    /// Number of live elements.
    pub fn element_count(&self) -> usize {
        self.elements.len()
    }

    /// Arena slot of the root.
    pub(crate) fn root_slot(&self) -> u32 {
        self.root
    }

    /// Interned name id for `name`, if any element carries it.
    pub(crate) fn name_of(&self, name: &str) -> Option<u32> {
        self.lookup.get(name).copied()
    }

    pub(crate) fn name_id_at(&self, slot: u32) -> u32 {
        self.name_id[slot as usize]
    }

    pub(crate) fn parent_of(&self, slot: u32) -> u32 {
        self.parent[slot as usize]
    }

    /// Live element slots of one name id, ascending.
    pub(crate) fn slots_of(&self, name: u32) -> &[u32] {
        &self.by_name[name as usize]
    }

    /// All live element slots, ascending: the index's liveness column.
    pub fn all_slots(&self) -> &[u32] {
        &self.elements
    }

    /// Element children of a slot, in document order.
    pub(crate) fn children_of(&self, slot: u32) -> &[u32] {
        let s = self.child_start[slot as usize] as usize;
        let e = self.child_start[slot as usize + 1] as usize;
        &self.child_list[s..e]
    }

    /// String value of a slot (concatenated direct text children).
    pub(crate) fn value_of(&self, slot: u32) -> &str {
        let (s, e) = self.text_span[slot as usize];
        &self.text[s as usize..e as usize]
    }

    /// Arena handle for a slot known to hold a live element.
    pub(crate) fn node_at(&self, slot: u32) -> NodeId {
        NodeId::from_index(slot as usize)
    }

    /// Slots named `name` whose value shares `value`'s posting key,
    /// ascending: a superset of the elements whose value equals `value`
    /// (hash collisions, NaN), so callers re-check every hit.
    pub(crate) fn probe(&self, name: u32, value: &str) -> impl Iterator<Item = u32> + '_ {
        let key = u64::from(value_key(name, value));
        let lo = self.postings.partition_point(|&e| e >> 32 < key);
        let hi = lo + self.postings[lo..].partition_point(|&e| e >> 32 == key);
        self.postings[lo..hi]
            .iter()
            .map(|&e| e as u32)
            .filter(move |&s| self.name_id[s as usize] == name)
    }

    /// True when the postings hold exactly one correct entry per live
    /// element, in order.
    fn postings_valid(&self) -> bool {
        self.postings.len() == self.elements.len()
            && self.postings.is_sorted_by(|a, b| a < b)
            && self
                .elements
                .iter()
                .all(|&s| self.postings.binary_search(&self.posting(s)).is_ok())
    }
}

/// Content equality: the same width and root, the same live elements
/// with the same names, parents, element children and values, the same
/// slots per name, and on both sides exactly one correct posting per
/// element. Name ids, and so posting keys, and the text buffer's layout
/// may differ — a patched index keeps ids and bytes a fresh build would
/// not.
impl PartialEq for DocIndex {
    fn eq(&self, other: &DocIndex) -> bool {
        let (names, other_names) = (self.names(), other.names());
        fn by_name(ix: &DocIndex) -> std::collections::BTreeMap<&str, &[u32]> {
            ix.lookup
                .iter()
                .map(|(name, &id)| (name.as_str(), ix.slots_of(id)))
                .filter(|(_, slots)| !slots.is_empty())
                .collect()
        }
        self.n == other.n
            && self.root == other.root
            && self.elements == other.elements
            && by_name(self) == by_name(other)
            && self.postings_valid()
            && other.postings_valid()
            && self.elements.iter().all(|&s| {
                names[self.name_id_at(s) as usize] == other_names[other.name_id_at(s) as usize]
                    && self.parent_of(s) == other.parent_of(s)
                    && self.children_of(s) == other.children_of(s)
                    && self.value_of(s) == other.value_of(s)
            })
    }
}

impl DocIndex {
    /// Element names by id.
    fn names(&self) -> Vec<&str> {
        let mut names = vec![""; self.by_name.len()];
        for (name, &id) in &self.lookup {
            names[id as usize] = name;
        }
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> Document {
        Document::parse_str(
            "<a><b>x<c>1</c>y</b><c>2</c><d><c/><b>z</b></d></a>",
        )
        .unwrap()
    }

    #[test]
    fn build_columns_describe_the_document() {
        let d = doc();
        let ix = DocIndex::build(&d);
        assert_eq!(ix.width(), d.arena_len());
        assert_eq!(ix.element_count(), d.element_count());
        let root = d.root().index() as u32;
        let kids: Vec<u32> =
            d.child_elements(d.root()).map(|c| c.index() as u32).collect();
        assert_eq!(ix.children_of(root), &kids[..]);
        for e in d.all_elements() {
            let s = e.index() as u32;
            assert_eq!(ix.value_of(s), d.text_of(e), "value of {e}");
            assert_eq!(Some(ix.names()[ix.name_id_at(s) as usize]), d.name(e));
            assert_eq!(ix.parent_of(s), d.parent(e).map_or(NONE, |p| p.index() as u32));
        }
        let c = ix.name_of("c").unwrap();
        assert_eq!(ix.slots_of(c).len(), 3);
    }

    #[test]
    fn patches_match_a_fresh_build() {
        let mut d = doc();
        let mut ix = DocIndex::build(&d);
        // Delete a subtree with a nested element, then a leaf.
        let b = d.first_child_named(d.root(), "b").unwrap();
        d.remove_subtree(b).unwrap();
        ix.remove_subtrees(&[b]);
        assert_eq!(ix, DocIndex::build(&d), "after delete");
        // Insert under an old element, with a brand-new name and text.
        let dd = d.first_child_named(d.root(), "d").unwrap();
        let e = d.add_element(dd, "e");
        d.add_text(e, "new");
        ix.append(&d);
        assert_eq!(ix, DocIndex::build(&d), "after insert");
        // A text node appended to an indexed element changes its value.
        d.add_text(dd, "tail");
        ix.append(&d);
        assert_eq!(ix.value_of(dd.index() as u32), "tail");
        assert_eq!(ix, DocIndex::build(&d), "after text append");
        // Deleting every `c` keeps the name's id with no slots.
        let cs: Vec<NodeId> = d.all_elements().filter(|&n| d.name(n) == Some("c")).collect();
        for &c in &cs {
            d.remove_subtree(c).unwrap();
        }
        ix.remove_subtrees(&cs);
        assert_eq!(ix, DocIndex::build(&d), "after deleting a whole name");
        assert!(ix.slots_of(ix.name_of("c").unwrap()).is_empty());
    }

    #[test]
    fn interleaved_text_appends_revalue_each_element_once() {
        let mut d = doc();
        let mut ix = DocIndex::build(&d);
        let root = d.root();
        let b = d.first_child_named(root, "b").unwrap();
        let c = d.first_child_named(root, "c").unwrap();
        // One batch: text under b, c, b, and a new element in between.
        d.add_text(b, "1");
        d.add_text(c, "0");
        let e = d.add_element(root, "e");
        d.add_text(e, "2");
        d.add_text(b, "3");
        ix.append(&d);
        assert_eq!(ix.value_of(b.index() as u32), "xy13");
        assert_eq!(ix.postings.len(), ix.element_count(), "one posting per element");
        assert_eq!(ix, DocIndex::build(&d));
        let found: Vec<u32> = ix.probe(ix.name_of("c").unwrap(), "20").collect();
        assert_eq!(found, vec![c.index() as u32]);
    }

    #[test]
    fn equal_values_share_a_posting_key() {
        for (a, b) in [("7", " 7 "), ("07", "7.0"), ("1e1", "10"), ("-0", "0"), ("inf", "Infinity")] {
            assert_eq!(value_key(3, a), value_key(3, b), "{a:?} = {b:?}");
        }
        for (a, b) in [("x", " x"), ("7", "8"), ("", " ")] {
            assert_ne!(value_key(3, a), value_key(3, b), "{a:?} != {b:?}");
        }
        assert_ne!(value_key(3, "7"), value_key(4, "7"), "the name is part of the key");
    }

    #[test]
    fn content_equality_sees_a_stale_index() {
        let mut d = doc();
        let ix = DocIndex::build(&d);
        let b = d.first_child_named(d.root(), "b").unwrap();
        d.remove_subtree(b).unwrap();
        assert_ne!(ix, DocIndex::build(&d));
        let mut grown = d.clone();
        let root = grown.root();
        grown.add_element(root, "z");
        assert_ne!(DocIndex::build(&d), DocIndex::build(&grown));
    }
}
