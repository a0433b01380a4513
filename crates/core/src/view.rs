//! Security views over annotated documents.
//!
//! The paper contrasts its materialized annotations with *security views*
//! [Fan et al. '04; Kuper et al. '09]: a view "contains just the
//! information a user is allowed to read". With annotations materialized,
//! deriving such a view is a single pruning pass — this module provides
//! it as a read-side product, in two flavours:
//!
//! * [`ViewMode::Prune`] — an inaccessible node hides its whole subtree
//!   (hierarchical confinement: nothing below a denied node leaks);
//! * [`ViewMode::Promote`] — accessible descendants of an inaccessible
//!   node are re-attached to their nearest accessible ancestor (the
//!   classic security-view construction, preserving every accessible
//!   node at the cost of flattening denied regions).
//!
//! Both flavours keep the document root unconditionally (a document needs
//! a root; its label is schema information, not data).

use crate::error::Result;
use std::collections::BTreeSet;
use xac_policy::AnnotationQuery;
use xac_xml::{Document, NodeId, Schema};

/// Compute the accessible node set by running the compiled
/// annotation-query program over a columnar index of `doc` — the
/// read-side twin of [`AnnotateMode::Compiled`](crate::AnnotateMode)
/// annotation. The program marks the nodes whose sign differs from the
/// policy default, so the accessible set is the marked set itself (mark
/// `'+'`) or its complement over the elements (mark `'-'`).
pub fn compiled_accessible(
    doc: &Document,
    query: &AnnotationQuery,
    schema: Option<&Schema>,
) -> Result<BTreeSet<NodeId>> {
    let program = xac_vmc::cached_query_program(query, schema)?;
    let index = xac_vmc::DocIndex::build(doc);
    let marked: BTreeSet<NodeId> =
        xac_vmc::execute_select(&program, &index).into_iter().collect();
    Ok(if query.mark.sign() == '+' {
        marked
    } else {
        doc.all_elements().filter(|n| !marked.contains(n)).collect()
    })
}

/// How inaccessible interior nodes are handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewMode {
    /// Denied node ⇒ denied subtree.
    Prune,
    /// Accessible descendants re-attach to the nearest accessible
    /// ancestor.
    Promote,
}

/// Build the security view of `doc` for the accessible node set.
pub fn security_view(
    doc: &Document,
    accessible: &BTreeSet<NodeId>,
    mode: ViewMode,
) -> Document {
    let root_name = doc.name(doc.root()).expect("root is an element").to_string();
    let mut view = Document::new(root_name);
    let view_root = view.root();
    for (k, v) in doc.attributes(doc.root()) {
        view.set_attribute(view_root, k.clone(), v.clone());
    }
    copy_children(doc, doc.root(), &mut view, view_root, accessible, mode);
    view
}

fn copy_children(
    doc: &Document,
    src: NodeId,
    view: &mut Document,
    dst: NodeId,
    accessible: &BTreeSet<NodeId>,
    mode: ViewMode,
) {
    for child in doc.children(src) {
        if let Some(text) = doc.text_value(child) {
            // Text is the value of its parent: it travels with the parent
            // node's accessibility (we only reach here when `dst` was
            // admitted).
            view.add_text(dst, text.to_string());
            continue;
        }
        if accessible.contains(&child) {
            let name = doc.name(child).expect("element").to_string();
            let copy = view.add_element(dst, name);
            for (k, v) in doc.attributes(child) {
                view.set_attribute(copy, k.clone(), v.clone());
            }
            copy_children(doc, child, view, copy, accessible, mode);
        } else {
            match mode {
                ViewMode::Prune => {}
                ViewMode::Promote => {
                    // Skip the node, hoist its accessible descendants.
                    copy_element_children_only(doc, child, view, dst, accessible);
                }
            }
        }
    }
}

/// Promote-mode helper: walk an inaccessible region, attaching accessible
/// elements (with their subtree views) to `dst`; the region's text values
/// are dropped with their denied parents.
fn copy_element_children_only(
    doc: &Document,
    src: NodeId,
    view: &mut Document,
    dst: NodeId,
    accessible: &BTreeSet<NodeId>,
) {
    for child in doc.children(src) {
        if doc.is_text(child) {
            continue;
        }
        if accessible.contains(&child) {
            let name = doc.name(child).expect("element").to_string();
            let copy = view.add_element(dst, name);
            for (k, v) in doc.attributes(child) {
                view.set_attribute(copy, k.clone(), v.clone());
            }
            copy_children(doc, child, view, copy, accessible, ViewMode::Promote);
        } else {
            copy_element_children_only(doc, child, view, dst, accessible);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xac_policy::policy::hospital_policy;

    fn figure2() -> Document {
        Document::parse_str(
            "<hospital><dept><patients>\
             <patient><psn>033</psn><name>john doe</name>\
             <treatment><regular><med>enoxaparin</med><bill>700</bill></regular></treatment>\
             </patient>\
             <patient><psn>099</psn><name>joy smith</name></patient>\
             </patients><staffinfo/></dept></hospital>",
        )
        .unwrap()
    }

    fn accessible(doc: &Document) -> BTreeSet<NodeId> {
        xac_policy::accessible_nodes(doc, &hospital_policy())
    }

    #[test]
    fn prune_mode_hides_denied_regions_entirely() {
        let doc = figure2();
        let view = security_view(&doc, &accessible(&doc), ViewMode::Prune);
        // dept is denied (default), so everything below disappears; only
        // the root remains.
        assert_eq!(view.element_count(), 1);
        assert_eq!(view.name(view.root()), Some("hospital"));
    }

    #[test]
    fn promote_mode_surfaces_all_accessible_nodes() {
        let doc = figure2();
        let acc = accessible(&doc);
        let view = security_view(&doc, &acc, ViewMode::Promote);
        // Root + every accessible node (names ×2, patient 099, regular).
        assert_eq!(view.element_count(), 1 + acc.len());
        let xml = view.to_xml();
        // The accessible patient keeps its accessible child name; the
        // denied patient's name is promoted to the root level.
        assert!(xml.contains("<name>john doe</name>"), "{xml}");
        assert!(xml.contains("<patient><name>joy smith</name></patient>"), "{xml}");
        assert!(xml.contains("<regular/>"), "regular kept, denied med/bill dropped: {xml}");
        // Denied data never leaks.
        assert!(!xml.contains("psn"), "{xml}");
        assert!(!xml.contains("enoxaparin"), "{xml}");
        assert!(!xml.contains("700"), "{xml}");
    }

    #[test]
    fn promote_preserves_relative_order() {
        let mut doc = Document::parse_str("<r><x/><y/><x/></r>").unwrap();
        let _ = &mut doc;
        let acc: BTreeSet<NodeId> = doc
            .all_elements()
            .filter(|&n| doc.name(n) == Some("x"))
            .collect();
        let view = security_view(&doc, &acc, ViewMode::Promote);
        assert_eq!(view.to_xml(), "<r><x/><x/></r>");
    }

    #[test]
    fn fully_accessible_document_is_identity() {
        let doc = figure2();
        let all: BTreeSet<NodeId> = doc.all_elements().collect();
        for mode in [ViewMode::Prune, ViewMode::Promote] {
            let view = security_view(&doc, &all, mode);
            assert_eq!(view.to_xml(), doc.to_xml(), "{mode:?}");
        }
    }

    #[test]
    fn empty_accessible_set_leaves_bare_root() {
        let doc = figure2();
        let none = BTreeSet::new();
        for mode in [ViewMode::Prune, ViewMode::Promote] {
            let view = security_view(&doc, &none, mode);
            assert_eq!(view.element_count(), 1, "{mode:?}");
            assert_eq!(view.len(), 1, "no text leaks either");
        }
    }
}
