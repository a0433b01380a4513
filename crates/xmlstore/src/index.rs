//! Element-name index: interned element-name id → node ids, in arena order (document
//! order for a parsed document; inserted elements append).
//!
//! This is the structural index a native XML database maintains so that
//! `//name` queries need not sweep the whole tree. Deleted nodes are
//! filtered lazily on lookup; [`NameIndex::rebuild`] compacts the buckets
//! after heavy update churn.
//!
//! Each bucket sits behind its own [`Arc`], so cloning the index (as a
//! copied [`crate::StoredDocument`] does) copies one pointer per name,
//! and an insert into a shared clone copies only the bucket it touches.

use std::sync::Arc;
use xac_xml::{Document, NodeId};

/// An element-name index over one document.
#[derive(Debug, Clone, Default)]
pub struct NameIndex {
    /// Bucket per interned name id of the document (a name interned
    /// after the build has none until an element of it is inserted).
    buckets: Vec<Arc<Vec<NodeId>>>,
}

impl NameIndex {
    /// Build the index for a document in one sweep over its arena.
    pub fn build(doc: &Document) -> NameIndex {
        let mut buckets: Vec<Vec<NodeId>> = vec![Vec::new(); doc.name_id_count()];
        for id in doc.all_elements() {
            let name = doc.name_id(id).expect("element has a name id");
            buckets[name as usize].push(id);
        }
        NameIndex { buckets: buckets.into_iter().map(Arc::new).collect() }
    }

    /// Live nodes named `name`, in arena order.
    pub fn lookup<'d>(
        &'d self,
        doc: &'d Document,
        name: &str,
    ) -> impl Iterator<Item = NodeId> + 'd {
        doc.name_id_of(name)
            .and_then(|id| self.buckets.get(id as usize))
            .map_or(&[][..], |ids| ids.as_slice())
            .iter()
            .copied()
            .filter(move |&n| doc.is_alive(n))
    }

    /// Register element `node`, newly inserted into `doc`.
    pub fn insert(&mut self, doc: &Document, node: NodeId) {
        let name = doc.name_id(node).expect("an element has a name id") as usize;
        if self.buckets.len() <= name {
            self.buckets.resize_with(name + 1, Default::default);
        }
        Arc::make_mut(&mut self.buckets[name]).push(node);
    }

    /// Distinct element names indexed.
    pub fn name_count(&self) -> usize {
        self.buckets.iter().filter(|ids| !ids.is_empty()).count()
    }

    /// Rebuild from scratch (drops stale entries for deleted nodes).
    pub fn rebuild(&mut self, doc: &Document) {
        *self = NameIndex::build(doc);
    }

    /// Total bucket entries, including stale ones (observability hook used
    /// to decide when to rebuild).
    pub fn entry_count(&self) -> usize {
        self.buckets.iter().map(|ids| ids.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xac_xml::Document;

    #[test]
    fn build_and_lookup() {
        let doc = Document::parse_str("<a><b/><c><b>x</b></c></a>").unwrap();
        let idx = NameIndex::build(&doc);
        assert_eq!(idx.lookup(&doc, "b").count(), 2);
        assert_eq!(idx.lookup(&doc, "a").count(), 1);
        assert_eq!(idx.lookup(&doc, "zz").count(), 0);
        assert_eq!(idx.name_count(), 3);
    }

    #[test]
    fn deleted_nodes_filtered() {
        let mut doc = Document::parse_str("<a><b/><c><b/></c></a>").unwrap();
        let idx = NameIndex::build(&doc);
        let c = doc.first_child_named(doc.root(), "c").unwrap();
        doc.remove_subtree(c).unwrap();
        assert_eq!(idx.lookup(&doc, "b").count(), 1, "b under c is gone");
        assert_eq!(idx.entry_count(), 4, "stale entries remain until rebuild");
        let mut idx = idx;
        idx.rebuild(&doc);
        assert_eq!(idx.entry_count(), 2);
    }

    #[test]
    fn insert_tracks_new_nodes() {
        let mut doc = Document::parse_str("<a/>").unwrap();
        let mut idx = NameIndex::build(&doc);
        let b = doc.add_element(doc.root(), "b");
        idx.insert(&doc, b);
        assert_eq!(idx.lookup(&doc, "b").collect::<Vec<_>>(), vec![b]);
    }

    #[test]
    fn document_order_preserved() {
        let doc = Document::parse_str("<a><b/><b/><b/></a>").unwrap();
        let idx = NameIndex::build(&doc);
        let ids: Vec<NodeId> = idx.lookup(&doc, "b").collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn an_insert_into_a_clone_copies_only_its_bucket() {
        let mut doc = Document::parse_str("<a><b/><c/><c/></a>").unwrap();
        let idx = NameIndex::build(&doc);
        let mut copy = idx.clone();
        let b = doc.add_element(doc.root(), "b");
        copy.insert(&doc, b);
        for (id, bucket) in idx.buckets.iter().enumerate() {
            let name = doc.name_of_id(id as u32);
            assert_eq!(Arc::ptr_eq(bucket, &copy.buckets[id]), name != "b", "bucket {name}");
        }
        assert_eq!(idx.lookup(&doc, "b").count(), 1, "the original is unchanged");
        assert_eq!(copy.lookup(&doc, "b").count(), 2);
        assert_eq!(idx.lookup(&doc, "c").collect::<Vec<_>>(), copy.lookup(&doc, "c").collect::<Vec<_>>());
    }
}
