//! Epoch-stamped accessibility snapshots.
//!
//! PR 1 cached the relational accessible-id set *inside* the backend,
//! invalidated on every sign write. This module lifts that idea into a
//! first-class, **immutable** artifact a backend can publish: the
//! document tree (behind the native store's element-name index) plus
//! the set of accessible nodes, stamped with the backend's annotation
//! epoch. Because a snapshot never changes after construction, any
//! number of threads can answer requests against it through `&self`
//! with no locking at all — the basis of the `xac-serve` engine, where
//! readers keep serving an old epoch while the writer re-annotates and
//! publishes the next one.

use crate::requester::Decision;
use std::sync::Arc;
use xac_vmc::{Bitset, DocIndex};
use xac_xml::NodeId;
use xac_xmlstore::StoredDocument;
use xac_xpath::Path;

/// One published accessibility state: everything needed to answer
/// read-only requests (`query_compiled`, `accessible_count`) without
/// touching the backend that produced it.
///
/// Construction is the backend's job ([`crate::Backend::snapshot`]);
/// the snapshot itself is plain immutable data and therefore
/// `Send + Sync` for free.
#[derive(Debug, Clone)]
pub struct AccessSnapshot {
    epoch: u64,
    backend: &'static str,
    /// The writer's document, shared until its next write copies it.
    store: Arc<StoredDocument>,
    /// The accessible element slots of `store`'s arena.
    accessible: Bitset,
    /// The writer's columnar index of this document. Sign writes leave
    /// an index valid and structural writes patch it, so a snapshot
    /// shares the writer's index until the writer's next insert or
    /// delete copies it.
    index: Arc<DocIndex>,
}

impl AccessSnapshot {
    /// Assemble a snapshot (backends call this; see
    /// [`crate::Backend::snapshot`]). `store` is the writer's shared
    /// document, `accessible` holds the accessible arena slots of it,
    /// and `index` must describe it.
    pub fn new(
        epoch: u64,
        backend: &'static str,
        store: Arc<StoredDocument>,
        accessible: Bitset,
        index: Arc<DocIndex>,
    ) -> AccessSnapshot {
        AccessSnapshot { epoch, backend, store, accessible, index }
    }

    /// The backend annotation epoch this snapshot was taken at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Name of the backend that produced the snapshot.
    pub fn backend(&self) -> &'static str {
        self.backend
    }

    /// The interpreted reference for [`Self::query_compiled`]: the
    /// paper's all-or-nothing semantics (§4) over the tree-walking
    /// evaluator, exactly like [`crate::requester::request`] against a
    /// live backend. `path` must be absolute. The equivalence suites
    /// compare the two entry points; serving reads use the compiled one.
    pub fn query(&self, path: &Path) -> Decision {
        self.decide(&self.store.eval(path))
    }

    /// Answer a user request: the path runs as VM bytecode over the
    /// snapshot's columnar index. Decisions are identical to
    /// [`Self::query`] — the VM selects the same node set in the same
    /// order. A path the VM cannot compile (a relative one) is denied.
    pub fn query_compiled(&self, path: &Path) -> Decision {
        match xac_vmc::cached_path_program(path) {
            Ok(program) => self.decide(&xac_vmc::execute_select(&program, &self.index)),
            Err(_) => Decision::Denied { nodes: 0 },
        }
    }

    fn decide(&self, nodes: &[NodeId]) -> Decision {
        if nodes.iter().all(|n| self.accessible.contains(n)) {
            Decision::Granted { nodes: nodes.len() }
        } else {
            Decision::Denied { nodes: nodes.len() }
        }
    }

    /// Number of accessible nodes at this epoch.
    pub fn accessible_count(&self) -> usize {
        self.accessible.len()
    }

    /// Number of element nodes in the snapshot document.
    pub fn element_count(&self) -> usize {
        self.store.doc().element_count()
    }

    /// The accessible node set, a bitset over the snapshot document's
    /// arena slots.
    pub fn accessible(&self) -> &Bitset {
        &self.accessible
    }

    /// The snapshot document behind its element-name index.
    pub fn store(&self) -> &StoredDocument {
        &self.store
    }

    /// The columnar index reads run on: the writer's index as of this
    /// epoch, built at load and patched by every structural write since.
    pub fn index(&self) -> &DocIndex {
        &self.index
    }
}

#[cfg(test)]
mod tests {
    use crate::backend::{Backend, NativeXmlBackend, RelationalBackend};
    use crate::document::PreparedDocument;
    use xac_policy::policy::hospital_policy;
    use xac_policy::AnnotationQuery;
    use xac_xml::Document;

    fn prepared() -> PreparedDocument {
        let schema = crate::hospital_schema_for_docs();
        let doc = Document::parse_str(
            "<hospital><dept><patients>\
             <patient><psn>1</psn><name>a</name>\
             <treatment><regular><med>m</med><bill>1</bill></regular></treatment></patient>\
             <patient><psn>2</psn><name>b</name></patient>\
             </patients><staffinfo/></dept></hospital>",
        )
        .unwrap();
        PreparedDocument::prepare(&schema, doc, '-').unwrap()
    }

    #[test]
    fn snapshot_agrees_with_live_backend_on_all_backends() {
        let p = prepared();
        let q = AnnotationQuery::from_policy(&hospital_policy());
        let backends: Vec<Box<dyn Backend>> = vec![
            Box::new(RelationalBackend::row()),
            Box::new(RelationalBackend::column()),
            Box::new(NativeXmlBackend::new()),
        ];
        for mut b in backends {
            b.load(&p).unwrap();
            b.annotate(&q).unwrap();
            let snap = b.snapshot().unwrap();
            assert_eq!(snap.backend(), b.name());
            assert_eq!(snap.epoch(), b.epoch());
            assert_eq!(snap.accessible_count(), b.accessible_count().unwrap(), "{}", b.name());
            for query in ["//patient/name", "//patient", "//regular", "//med", "//none"] {
                let path = xac_xpath::parse(query).unwrap();
                let (nodes, allowed) = b.query_nodes_allowed(&path).unwrap();
                let d = snap.query(&path);
                assert_eq!(d.node_count(), nodes, "{}: {query}", b.name());
                assert_eq!(d.granted(), allowed, "{}: {query}", b.name());
            }
        }
    }

    #[test]
    fn snapshot_is_immutable_under_backend_mutation() {
        let p = prepared();
        let q = AnnotationQuery::from_policy(&hospital_policy());
        let mut b = NativeXmlBackend::new();
        b.load(&p).unwrap();
        b.annotate(&q).unwrap();
        let snap = b.snapshot().unwrap();
        let before = snap.accessible_count();
        b.reset_annotations().unwrap();
        assert_eq!(b.accessible_count().unwrap(), 0);
        assert_eq!(snap.accessible_count(), before, "published snapshot unaffected");
        assert!(b.epoch() > snap.epoch(), "backend moved to a later epoch");
    }

    #[test]
    fn snapshot_errors_when_unloaded() {
        assert!(NativeXmlBackend::new().snapshot().is_err());
        assert!(RelationalBackend::row().snapshot().is_err());
    }

    #[test]
    fn compiled_read_path_matches_interpreted_decisions() {
        let p = prepared();
        let q = AnnotationQuery::from_policy(&hospital_policy());
        let mut b = NativeXmlBackend::new();
        b.load(&p).unwrap();
        b.annotate(&q).unwrap();
        let snap = b.snapshot().unwrap();
        for query in [
            "//patient/name",
            "//patient",
            "//regular",
            "//med",
            "//none",
            "/hospital/dept",
            "//patient[psn = \"2\"]/name",
            "//patient[treatment]",
        ] {
            let path = xac_xpath::parse(query).unwrap();
            let interpreted = snap.query(&path);
            let compiled = snap.query_compiled(&path);
            assert_eq!(compiled.node_count(), interpreted.node_count(), "{query}");
            assert_eq!(compiled.granted(), interpreted.granted(), "{query}");
        }
        // A path the VM cannot compile is denied, not interpreted.
        let relative = xac_xpath::parse("patient").unwrap();
        assert_eq!(snap.query_compiled(&relative), crate::Decision::Denied { nodes: 0 });
    }
}
