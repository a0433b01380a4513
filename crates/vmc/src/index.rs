//! Columnar document index: the VM's execution substrate.
//!
//! [`DocIndex`] lays a [`Document`] arena out as columns — per-slot name
//! id, parent slot, string value — plus per-element-type node lists and
//! CSR child adjacency. Scans and steps then run over contiguous `u32`
//! arrays instead of chasing arena nodes, and masks are bitsets over
//! arena slots, whose ascending order *is* the document (arena) order
//! the interpreter produces.
//!
//! Value postings answer `[c = "v"]` and `[. = "v"]` in O(log n +
//! hits): one `key << 32 | slot` word per live element in its name's
//! sorted list, where the 32-bit key hashes the name id with the
//! element's canonical value ([`value_key`]). A probe returns candidates
//! only; the VM re-checks each with `CmpOp::compare`, so a hash
//! collision costs a candidate, never a wrong answer.
//!
//! The index depends only on document *structure and text*; sign writes
//! do not invalidate it, so backends cache one index per document and
//! patch it across structural updates ([`DocIndex::append`] after an
//! insert, [`DocIndex::remove_subtrees`] after a delete) instead of
//! rebuilding it. A snapshot shares the index with the writer, so the
//! index is copy-on-write in pieces: the per-slot columns sit in [`Arc`]
//! chunks of [`CHUNK`] slots, aligned with the arena's own chunks, and
//! each name's slot list and postings sit behind their own [`Arc`].
//! Copying a shared index copies one pointer per chunk and per name; a
//! patch then copies only the chunks and name lists it changes.

use crate::bitset::Bitset;
use std::sync::Arc;
use xac_obs::{fnv1a, FNV_OFFSET};
use xac_xml::{Document, NameTable, NodeId, CHUNK};

/// Sentinel for "no name" (text node or dead slot) and "no parent".
pub(crate) const NONE: u32 = u32::MAX;

/// Slot `s` lives at offset `s & MASK` of chunk `s >> SHIFT`.
const SHIFT: u32 = CHUNK.trailing_zeros();
const MASK: usize = CHUNK - 1;
const _: () = assert!(CHUNK.is_power_of_two());

/// Columnar view of one document, copy-on-write per chunk and per name.
#[derive(Debug, Clone)]
pub struct DocIndex {
    /// Arena capacity (bitset width).
    n: usize,
    /// Arena slot of the document root.
    root: u32,
    /// Number of live elements.
    element_count: usize,
    /// Chunk `c` covers slots `c * CHUNK .. (c + 1) * CHUNK`; slots at or
    /// past `n` in the last chunk are empty.
    chunks: Vec<Arc<Chunk>>,
    /// The document's interned element names, shared with it: the index
    /// keys everything by the document's own name ids.
    name_table: Arc<NameTable>,
    /// Slot list and value postings per name id; a name without live
    /// elements has an empty list.
    names: Vec<Arc<NameList>>,
}

/// The columns of [`CHUNK`] consecutive arena slots, indexed by the
/// slot's offset in the chunk. Fixed-size arrays, so that a masked
/// offset needs no bounds check.
#[derive(Debug, Clone)]
struct Chunk {
    /// Interned name id (`NONE` for text nodes and dead slots).
    name_id: [u32; CHUNK],
    /// Parent arena slot (`NONE` for the root and dead slots).
    parent: [u32; CHUNK],
    /// `(start, end)` of the slot's string value (its concatenated
    /// direct text children) in `text`; empty for text nodes and dead
    /// slots. A deleted or revalued slot's old bytes stay in `text`.
    span: [(u32, u32); CHUNK],
    text: String,
    /// Live element slots of this chunk, ascending.
    elements: Vec<u32>,
    /// CSR adjacency over the *element* children of this chunk's slots:
    /// the children of the slot at offset `o` are
    /// `child_list[child_start[o]..child_start[o + 1]]`, ascending.
    child_start: [u32; CHUNK + 1],
    child_list: Vec<u32>,
}

/// One element name's live slots and value postings.
#[derive(Debug, Clone, Default)]
struct NameList {
    /// Live element slots, ascending (document order).
    slots: Vec<u32>,
    /// One `value_key(name, value) << 32 | slot` word per slot, sorted —
    /// by key, then by slot; 8 bytes per element.
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

fn posting(name: u32, value: &str, slot: u32) -> u64 {
    u64::from(value_key(name, value)) << 32 | u64::from(slot)
}

/// Fold the unsorted tail `postings[sorted..]` into the sorted prefix:
/// sort the tail, then merge from the back, in place.
fn merge_tail(postings: &mut Vec<u64>, sorted: usize) {
    let mut tail = postings.split_off(sorted);
    tail.sort_unstable();
    let (mut i, mut j) = (sorted, tail.len());
    postings.resize(sorted + j, 0);
    while j > 0 {
        let w = i + j - 1;
        if i > 0 && postings[i - 1] > tail[j - 1] {
            postings[w] = postings[i - 1];
            i -= 1;
        } else {
            postings[w] = tail[j - 1];
            j -= 1;
        }
    }
}

impl Chunk {
    fn empty() -> Chunk {
        Chunk {
            name_id: [NONE; CHUNK],
            parent: [NONE; CHUNK],
            span: [(0, 0); CHUNK],
            text: String::new(),
            elements: Vec::new(),
            child_start: [0; CHUNK + 1],
            child_list: Vec::new(),
        }
    }

    /// Index the live element at `slot` under name id `name`, at the end
    /// of this chunk's element list; returns its value.
    fn set_element(&mut self, doc: &Document, slot: usize, name: u32) -> &str {
        let o = slot & MASK;
        let node = NodeId::from_index(slot);
        self.name_id[o] = name;
        self.parent[o] = doc.parent(node).map_or(NONE, |p| p.index() as u32);
        self.span[o] = self.push_value(doc, node);
        self.elements.push(slot as u32);
        self.value(o)
    }

    fn value(&self, o: usize) -> &str {
        let (s, e) = self.span[o & MASK];
        &self.text[s as usize..e as usize]
    }

    /// Append `node`'s string value to the text buffer; returns its span.
    fn push_value(&mut self, doc: &Document, node: NodeId) -> (u32, u32) {
        let start = self.text.len();
        for c in doc.children(node) {
            if let Some(t) = doc.text_value(c) {
                self.text.push_str(t);
            }
        }
        let end = u32::try_from(self.text.len()).expect("chunk text under 4 GiB");
        (start as u32, end)
    }

    /// Rewrite the child lists: drop the children `gone` accepts, then
    /// append the `(offset, child)` pairs of `added` — sorted, and each
    /// child past every child its parent already has — to their
    /// parent's list. Siblings stay in ascending slot order, which is
    /// document order: a node is always appended as its parent's last
    /// child, at the largest slot yet.
    fn patch_children(&mut self, gone: impl Fn(u32) -> bool, added: &[(usize, u32)]) {
        let start = self.child_start;
        let list = std::mem::take(&mut self.child_list);
        self.child_list.reserve(list.len() + added.len());
        let mut added = added.iter().peekable();
        for o in 0..CHUNK {
            self.child_start[o] = self.child_list.len() as u32;
            let kids = &list[start[o] as usize..start[o + 1] as usize];
            self.child_list.extend(kids.iter().copied().filter(|&c| !gone(c)));
            while let Some(&(_, c)) = added.next_if(|(at, _)| *at == o) {
                self.child_list.push(c);
            }
        }
        self.child_start[CHUNK] = self.child_list.len() as u32;
    }
}

/// Fill every chunk's child lists from the parent columns in one
/// counting pass. Children are visited in ascending slot order, so each
/// list comes out ascending.
fn build_children(chunks: &mut [&mut Chunk]) {
    let each_edge = |chunks: &mut [&mut Chunk], visit: &mut dyn FnMut(&mut Chunk, usize, u32)| {
        for c in 0..chunks.len() {
            for i in 0..chunks[c].elements.len() {
                let s = chunks[c].elements[i];
                let p = chunks[c].parent[s as usize & MASK];
                if p != NONE {
                    visit(chunks[(p >> SHIFT) as usize], p as usize & MASK, s);
                }
            }
        }
    };
    each_edge(chunks, &mut |chunk, o, _| chunk.child_start[o + 1] += 1);
    for chunk in chunks.iter_mut() {
        for o in 0..CHUNK {
            chunk.child_start[o + 1] += chunk.child_start[o];
        }
        chunk.child_list = vec![0; chunk.child_start[CHUNK] as usize];
    }
    // Fill with `child_start[o]` as offset o's cursor, which leaves it at
    // o's end (= o + 1's start); shifting by one restores it.
    each_edge(chunks, &mut |chunk, o, s| {
        let at = &mut chunk.child_start[o];
        chunk.child_list[*at as usize] = s;
        *at += 1;
    });
    for chunk in chunks.iter_mut() {
        chunk.child_start.copy_within(0..CHUNK, 1);
        chunk.child_start[0] = 0;
    }
}

impl DocIndex {
    /// Build the index in one sweep over the arena's chunks plus one
    /// counting pass for the child lists.
    pub fn build(doc: &Document) -> DocIndex {
        let _span = xac_obs::span("vm.index");
        let n = doc.arena_len();
        // Allocated in place once: a chunk is too large to move cheaply.
        let mut chunks: Vec<Arc<Chunk>> =
            (0..n.div_ceil(CHUNK)).map(|_| Arc::new(Chunk::empty())).collect();
        let mut columns: Vec<&mut Chunk> =
            chunks.iter_mut().map(|c| Arc::get_mut(c).expect("fresh chunk")).collect();
        let mut names: Vec<NameList> = vec![NameList::default(); doc.name_id_count()];
        let mut element_count = 0;
        for id in doc.all_elements() {
            element_count += 1;
            let slot = id.index();
            let name = doc.name_id(id).expect("element has a name id");
            let value = columns[slot >> SHIFT].set_element(doc, slot, name);
            let list = &mut names[name as usize];
            list.slots.push(slot as u32);
            list.postings.push(posting(name, value, slot as u32));
        }
        for list in &mut names {
            list.postings.sort_unstable();
        }
        build_children(&mut columns);
        DocIndex {
            n,
            root: doc.root().index() as u32,
            element_count,
            chunks,
            name_table: Arc::clone(doc.name_table()),
            names: names.into_iter().map(Arc::new).collect(),
        }
    }

    /// Patch the index after elements were appended to `doc` (slots at
    /// or past the indexed width): new slots are the largest in the
    /// arena, so they extend the element and per-name lists in order. A
    /// text node appended under an already-indexed element refreshes
    /// that element's value and moves its posting. New postings join
    /// their name's list as an unsorted tail that is then merged in.
    /// Copies only the tail chunks, the chunks of the new elements'
    /// parents and of the revalued elements, and the touched names'
    /// lists.
    pub fn append(&mut self, doc: &Document) {
        let old = self.n;
        let n = doc.arena_len();
        if n == old {
            return;
        }
        self.n = n;
        while self.chunks.len() * CHUNK < n {
            self.chunks.push(Arc::new(Chunk::empty()));
        }
        // Names interned since the last patch get empty lists.
        self.name_table = Arc::clone(doc.name_table());
        self.names.resize_with(self.name_table.len(), Arc::default);
        // Per touched name id: its postings' sorted prefix length.
        let mut sorted: Vec<Option<usize>> = vec![None; self.names.len()];
        let mut added: Vec<(u32, u32)> = Vec::new();
        let mut revalued: Vec<u32> = Vec::new();
        for slot in old..n {
            let id = NodeId::from_index(slot);
            if !doc.is_alive(id) {
                continue;
            }
            if let Some(name) = doc.name_id(id) {
                let chunk = Arc::make_mut(&mut self.chunks[slot >> SHIFT]);
                let value = chunk.set_element(doc, slot, name);
                let key = posting(name, value, slot as u32);
                let list = self.list_mut(name, &mut sorted);
                list.slots.push(slot as u32);
                list.postings.push(key);
                self.element_count += 1;
                if let Some(p) = doc.parent(id) {
                    added.push((p.index() as u32, slot as u32));
                }
            } else if let Some(p) = doc.parent(id) {
                let p = p.index() as u32;
                if (p as usize) < old && self.name_id_at(p) != NONE {
                    revalued.push(p);
                }
            }
        }
        // Text under p1, p2, p1 revalues p1 once: sort before dedup.
        revalued.sort_unstable();
        revalued.dedup();
        for p in revalued {
            let name = self.name_id_at(p);
            let stale = posting(name, self.value_of(p), p);
            let chunk = Arc::make_mut(&mut self.chunks[(p >> SHIFT) as usize]);
            let o = p as usize & MASK;
            chunk.span[o] = chunk.push_value(doc, NodeId::from_index(p as usize));
            let fresh = posting(name, chunk.value(o), p);
            let list = self.list_mut(name, &mut sorted);
            let prefix = sorted[name as usize].as_mut().expect("list_mut recorded it");
            if let Ok(at) = list.postings[..*prefix].binary_search(&stale) {
                list.postings.remove(at);
                *prefix -= 1;
            }
            list.postings.push(fresh);
        }
        for (name, prefix) in sorted.iter().enumerate() {
            if let Some(prefix) = *prefix {
                merge_tail(&mut Arc::make_mut(&mut self.names[name]).postings, prefix);
            }
        }
        // New children join their parents' lists, chunk by chunk.
        added.sort_unstable();
        for group in added.chunk_by(|a, b| a.0 >> SHIFT == b.0 >> SHIFT) {
            let pairs: Vec<(usize, u32)> =
                group.iter().map(|&(p, c)| (p as usize & MASK, c)).collect();
            Arc::make_mut(&mut self.chunks[(group[0].0 >> SHIFT) as usize])
                .patch_children(|_| false, &pairs);
        }
    }

    /// Name `name`'s list, unshared, recording its sorted postings prefix
    /// on first touch.
    fn list_mut(&mut self, name: u32, sorted: &mut [Option<usize>]) -> &mut NameList {
        let list = Arc::make_mut(&mut self.names[name as usize]);
        sorted[name as usize].get_or_insert(list.postings.len());
        list
    }

    /// Patch the index after the subtrees rooted at the element `roots`
    /// were detached from the document: their slots leave every list and
    /// their columns are cleared. The walk follows the index's own child
    /// lists, so it needs no document. Copies only the chunks of the
    /// removed slots and of the roots' parents, and the removed names'
    /// lists.
    pub fn remove_subtrees(&mut self, roots: &[NodeId]) {
        let mut dirty: Vec<u32> = Vec::new();
        for r in roots.iter().map(|r| r.index() as u32) {
            if (r as usize) < self.n && self.parent_of(r) != NONE {
                dirty.push(self.parent_of(r) >> SHIFT);
            }
        }
        let removed = self.subtree_slots(roots);
        let mut gone = Bitset::new(self.n);
        removed.iter().for_each(|&s| gone.set(s));
        let gone = |s: u32| gone.test(s);
        let mut touched: Vec<u32> = removed.iter().map(|&s| self.name_id_at(s)).collect();
        touched.sort_unstable();
        touched.dedup();
        dirty.extend(removed.iter().map(|&s| s >> SHIFT));
        dirty.sort_unstable();
        dirty.dedup();
        for c in dirty {
            let chunk = Arc::make_mut(&mut self.chunks[c as usize]);
            let lo = removed.partition_point(|&s| s >> SHIFT < c);
            let hi = removed.partition_point(|&s| s >> SHIFT <= c);
            for &s in &removed[lo..hi] {
                let o = s as usize & MASK;
                chunk.name_id[o] = NONE;
                chunk.parent[o] = NONE;
                chunk.span[o] = (0, 0);
            }
            chunk.elements.retain(|&s| !gone(s));
            chunk.patch_children(gone, &[]);
        }
        for name in touched {
            let list = Arc::make_mut(&mut self.names[name as usize]);
            list.slots.retain(|&s| !gone(s));
            list.postings.retain(|&e| !gone(e as u32));
        }
        self.element_count -= removed.len();
    }

    /// The live element slots in the subtrees of `roots`, ascending and
    /// each listed once (a root nested under another is walked twice).
    /// The walk follows the index's own child lists.
    pub fn subtree_slots(&self, roots: &[NodeId]) -> Vec<u32> {
        let mut slots: Vec<u32> = Vec::new();
        let mut stack: Vec<u32> = roots.iter().map(|r| r.index() as u32).collect();
        while let Some(slot) = stack.pop() {
            if (slot as usize) < self.n && self.name_id_at(slot) != NONE {
                slots.push(slot);
                stack.extend_from_slice(self.children_of(slot));
            }
        }
        slots.sort_unstable();
        slots.dedup();
        slots
    }

    /// The footprint of structural writes at the `touched` elements
    /// (insert parents, deleted roots' parents and inserted elements):
    /// for each live one, the subtree of its highest ancestor-or-self
    /// named in `labels`, else the element alone; every live element
    /// when `labels` is `None`. Returned ascending with its domain for
    /// [`crate::execute`], the footprint and its ancestors, which the
    /// whole document does not need.
    pub fn footprint(
        &self,
        touched: &[NodeId],
        labels: Option<&[String]>,
    ) -> (Vec<u32>, Option<Vec<u32>>) {
        let Some(labels) = labels else {
            return (self.element_runs().flatten().copied().collect(), None);
        };
        let labelled: Vec<u32> = labels.iter().filter_map(|l| self.name_of(l)).collect();
        let up = |s: u32| {
            std::iter::successors(Some(s), |&s| Some(self.parent_of(s)).filter(|&p| p != NONE))
        };
        let (mut footprint, mut roots) = (Vec::new(), Vec::new());
        for s in touched.iter().map(|n| n.index()).filter(|&s| self.element_name(s).is_some()) {
            match up(s as u32).filter(|&a| labelled.contains(&self.name_id_at(a))).last() {
                Some(top) => roots.push(NodeId::from_index(top as usize)),
                None => footprint.push(s as u32),
            }
        }
        // Every ancestor of a subtree's slot is in it or above its root.
        let tops = roots.iter().map(|r| r.index() as u32).chain(footprint.iter().copied());
        let mut domain: Vec<u32> = tops.flat_map(up).collect();
        footprint.extend(self.subtree_slots(&roots));
        footprint.sort_unstable();
        footprint.dedup();
        domain.extend_from_slice(&footprint);
        domain.sort_unstable();
        domain.dedup();
        (footprint, Some(domain))
    }

    /// The name id of the live element at `slot`; `None` for a text
    /// node, a dead slot or a slot past the width.
    pub fn element_name(&self, slot: usize) -> Option<u32> {
        let name = if slot < self.n { self.name_id_at(slot as u32) } else { NONE };
        (name != NONE).then_some(name)
    }

    /// Bitset width (arena capacity).
    pub fn width(&self) -> usize {
        self.n
    }

    /// Number of live elements.
    pub fn element_count(&self) -> usize {
        self.element_count
    }

    /// Arena slot of the root.
    pub(crate) fn root_slot(&self) -> u32 {
        self.root
    }

    /// The document's name id for `name`, if it is interned.
    pub fn name_of(&self, name: &str) -> Option<u32> {
        self.name_table.id_of(name)
    }

    fn chunk(&self, slot: u32) -> &Chunk {
        &self.chunks[(slot >> SHIFT) as usize]
    }

    pub(crate) fn name_id_at(&self, slot: u32) -> u32 {
        self.chunk(slot).name_id[slot as usize & MASK]
    }

    pub(crate) fn parent_of(&self, slot: u32) -> u32 {
        self.chunk(slot).parent[slot as usize & MASK]
    }

    /// Live element slots of one name id, ascending.
    pub(crate) fn slots_of(&self, name: u32) -> &[u32] {
        &self.names[name as usize].slots
    }

    /// All live element slots, ascending, as one run per chunk: the
    /// index's liveness column.
    pub fn element_runs(&self) -> impl Iterator<Item = &[u32]> + '_ {
        self.chunks.iter().map(|c| c.elements.as_slice())
    }

    /// Call `f(slot, parent)` for every live element, ascending; the
    /// parent is read from the element's own chunk.
    pub(crate) fn for_each_element_parent(&self, mut f: impl FnMut(u32, u32)) {
        for chunk in &self.chunks {
            for &s in &chunk.elements {
                f(s, chunk.parent[s as usize & MASK]);
            }
        }
    }

    /// Element children of a slot, in document order.
    pub(crate) fn children_of(&self, slot: u32) -> &[u32] {
        let chunk = self.chunk(slot);
        let o = slot as usize & MASK;
        &chunk.child_list[chunk.child_start[o] as usize..chunk.child_start[o + 1] as usize]
    }

    /// String value of a slot (concatenated direct text children).
    pub(crate) fn value_of(&self, slot: u32) -> &str {
        self.chunk(slot).value(slot as usize)
    }

    /// Arena handle for a slot known to hold a live element.
    pub(crate) fn node_at(&self, slot: u32) -> NodeId {
        NodeId::from_index(slot as usize)
    }

    /// Slots named `name` whose value shares `value`'s posting key,
    /// ascending: a superset of the elements whose value equals `value`
    /// (hash collisions, NaN), so callers re-check every hit.
    pub(crate) fn probe(&self, name: u32, value: &str) -> impl Iterator<Item = u32> + '_ {
        let postings = &self.names[name as usize].postings;
        let key = u64::from(value_key(name, value));
        let lo = postings.partition_point(|&e| e >> 32 < key);
        let hi = lo + postings[lo..].partition_point(|&e| e >> 32 == key);
        postings[lo..hi].iter().map(|&e| e as u32)
    }

    /// True when every name's postings hold exactly one correct entry per
    /// slot of that name, in order, and the name lists and the chunks'
    /// element lists both count every live element.
    fn lists_valid(&self) -> bool {
        let runs: usize = self.element_runs().map(<[u32]>::len).sum();
        let listed: usize = self.names.iter().map(|l| l.slots.len()).sum();
        runs == self.element_count
            && listed == self.element_count
            && self.names.iter().enumerate().all(|(name, list)| {
                list.postings.len() == list.slots.len()
                    && list.postings.is_sorted_by(|a, b| a < b)
                    && list.slots.iter().all(|&s| {
                        self.name_id_at(s) == name as u32
                            && list
                                .postings
                                .binary_search(&posting(name as u32, self.value_of(s), s))
                                .is_ok()
                    })
            })
    }
}

/// Content equality: the same width and root, the same live elements
/// with the same names, parents, element children and values, the same
/// slots per name, and on both sides exactly one correct posting per
/// element. Name ids, and so posting keys, may differ between
/// documents, and the text buffers' layout may differ too — a patched
/// index keeps bytes a fresh build would not.
impl PartialEq for DocIndex {
    fn eq(&self, other: &DocIndex) -> bool {
        let (names, other_names) = (&self.name_table, &other.name_table);
        fn by_name(ix: &DocIndex) -> std::collections::BTreeMap<&str, &[u32]> {
            (0..ix.names.len() as u32)
                .map(|id| (ix.name_table.name(id), ix.slots_of(id)))
                .filter(|(_, slots)| !slots.is_empty())
                .collect()
        }
        let elements = |ix: &DocIndex| ix.element_runs().flatten().copied().collect::<Vec<u32>>();
        let live = elements(self);
        self.n == other.n
            && self.root == other.root
            && live == elements(other)
            && by_name(self) == by_name(other)
            && self.lists_valid()
            && other.lists_valid()
            && live.iter().all(|&s| {
                names.name(self.name_id_at(s)) == other_names.name(other.name_id_at(s))
                    && self.parent_of(s) == other.parent_of(s)
                    && self.children_of(s) == other.children_of(s)
                    && self.value_of(s) == other.value_of(s)
            })
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
            assert_eq!(ix.name_id_at(s), d.name_id(e).unwrap());
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
        let postings: usize = ix.names.iter().map(|l| l.postings.len()).sum();
        assert_eq!(postings, ix.element_count(), "one posting per element");
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

    /// Chunks and name lists of `ix` not shared with `base` (a chunk or
    /// name past `base`'s counts is new, so not shared).
    fn copied(ix: &DocIndex, base: &DocIndex) -> (usize, usize) {
        fn unshared<T>(ours: &[Arc<T>], theirs: &[Arc<T>]) -> usize {
            let shared =
                |(i, a): &(usize, &Arc<T>)| theirs.get(*i).is_some_and(|b| Arc::ptr_eq(a, b));
            ours.iter().enumerate().filter(|e| !shared(e)).count()
        }
        (unshared(&ix.chunks, &base.chunks), unshared(&ix.names, &base.names))
    }

    #[test]
    fn a_structural_write_copies_only_the_chunks_and_lists_it_touches() {
        let mut d = xac_xmlgen::xmark_document(xac_xmlgen::XmarkConfig::with_factor(0.1));
        let pristine = d.clone();
        // The writer shares the published index, as a snapshot does.
        let published = Arc::new(DocIndex::build(&d));
        let mut ix = Arc::clone(&published);
        let parents = xac_xpath::eval(&d, &xac_xpath::parse("//namerica/item").unwrap());
        assert!(parents.len() > 10, "f=0.1 has namerica items");
        let width = d.arena_len();
        let kids: Vec<NodeId> = parents.iter().map(|&p| d.add_element(p, "mailbox")).collect();
        Arc::make_mut(&mut ix).append(&d);
        assert_eq!(*ix, DocIndex::build(&d), "after the insert");
        assert_eq!(*published, DocIndex::build(&pristine), "the snapshot's index is unchanged");

        // A write may copy the chunks of the parents it changes and the
        // tail chunks the new slots land in, and the one name it adds.
        let mut bound: Vec<usize> = parents.iter().map(|p| p.index() >> SHIFT).collect();
        bound.extend((width - 1) >> SHIFT..=(d.arena_len() - 1) >> SHIFT);
        bound.sort_unstable();
        bound.dedup();
        let chunks = ix.chunks.len();
        let bound = bound.len();
        assert!(bound * 4 < chunks, "{bound} of {chunks} chunks is not a local write");
        let (copied_chunks, copied_names) = copied(&ix, &published);
        assert!(copied_chunks <= bound, "insert copied {copied_chunks} chunks, bound {bound}");
        assert_eq!(copied_names, 1, "the insert copies `mailbox` alone");
        assert!(Arc::ptr_eq(&ix.name_table, &published.name_table), "no new name, no table copy");

        // Publish again, then delete the inserted children: the same
        // chunks and the same name are all the delete may copy.
        let inserted = d.clone();
        let published = Arc::clone(&ix);
        for &k in &kids {
            d.remove_subtree(k).unwrap();
        }
        Arc::make_mut(&mut ix).remove_subtrees(&kids);
        assert_eq!(*ix, DocIndex::build(&d), "after the delete");
        assert_eq!(*published, DocIndex::build(&inserted), "the snapshot's index is unchanged");
        let (copied_chunks, copied_names) = copied(&ix, &published);
        assert!(copied_chunks <= bound, "delete copied {copied_chunks} chunks, bound {bound}");
        assert_eq!(copied_names, 1, "the delete copies `mailbox` alone");
    }
}
