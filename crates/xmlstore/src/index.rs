//! Element-name index: element name → node ids, in arena order (document
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

use std::collections::HashMap;
use std::sync::Arc;
use xac_xml::{Document, NodeId};

/// An element-name index over one document.
#[derive(Debug, Clone, Default)]
pub struct NameIndex {
    buckets: HashMap<String, Arc<Vec<NodeId>>>,
}

impl NameIndex {
    /// Build the index for a document in one sweep over its arena.
    pub fn build(doc: &Document) -> NameIndex {
        let mut buckets: HashMap<String, Vec<NodeId>> = HashMap::new();
        for (id, node) in doc.element_nodes() {
            let name = node.name().expect("element has a name");
            match buckets.get_mut(name) {
                Some(bucket) => bucket.push(id),
                None => {
                    buckets.insert(name.to_string(), vec![id]);
                }
            }
        }
        let buckets = buckets.into_iter().map(|(name, ids)| (name, Arc::new(ids))).collect();
        NameIndex { buckets }
    }

    /// Live nodes named `name`, in arena order.
    pub fn lookup<'d>(
        &'d self,
        doc: &'d Document,
        name: &str,
    ) -> impl Iterator<Item = NodeId> + 'd {
        self.buckets
            .get(name)
            .map(|ids| ids.as_slice())
            .unwrap_or(&[])
            .iter()
            .copied()
            .filter(move |&n| doc.is_alive(n))
    }

    /// Register a newly inserted element.
    pub fn insert(&mut self, name: &str, node: NodeId) {
        match self.buckets.get_mut(name) {
            Some(bucket) => Arc::make_mut(bucket).push(node),
            None => {
                self.buckets.insert(name.to_string(), Arc::new(vec![node]));
            }
        }
    }

    /// Distinct element names indexed.
    pub fn name_count(&self) -> usize {
        self.buckets.len()
    }

    /// Rebuild from scratch (drops stale entries for deleted nodes).
    pub fn rebuild(&mut self, doc: &Document) {
        *self = NameIndex::build(doc);
    }

    /// Total bucket entries, including stale ones (observability hook used
    /// to decide when to rebuild).
    pub fn entry_count(&self) -> usize {
        self.buckets.values().map(|ids| ids.len()).sum()
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
        idx.insert("b", b);
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
        copy.insert("b", b);
        for (name, bucket) in &idx.buckets {
            assert_eq!(Arc::ptr_eq(bucket, &copy.buckets[name]), name != "b", "bucket {name}");
        }
        assert_eq!(idx.lookup(&doc, "b").count(), 1, "the original is unchanged");
        assert_eq!(copy.lookup(&doc, "b").count(), 2);
        assert_eq!(idx.lookup(&doc, "c").collect::<Vec<_>>(), copy.lookup(&doc, "c").collect::<Vec<_>>());
    }
}
