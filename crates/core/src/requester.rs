//! The requester module of Figure 3: all-or-nothing query answering.
//!
//! "We follow an all-or-nothing semantics for query answering: if all the
//! nodes requested by the XPath expression are accessible … then we
//! return the requested nodes. Otherwise, we deny access to the user
//! request." (§4)

use crate::backend::Backend;
use crate::error::Result;
use xac_xpath::Path;

/// The outcome of a user request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Every requested node is accessible; the result may be returned.
    Granted { nodes: usize },
    /// At least one requested node is inaccessible; the request is denied.
    Denied { nodes: usize },
}

impl Decision {
    /// True when access was granted.
    pub fn granted(&self) -> bool {
        matches!(self, Decision::Granted { .. })
    }

    /// Number of nodes the query selected (regardless of outcome).
    pub fn node_count(&self) -> usize {
        match self {
            Decision::Granted { nodes } | Decision::Denied { nodes } => *nodes,
        }
    }
}

/// Evaluate a user request against an annotated backend.
pub fn request(backend: &mut dyn Backend, path: &Path) -> Result<Decision> {
    let (nodes, allowed) = backend.query_nodes_allowed(path)?;
    Ok(if allowed { Decision::Granted { nodes } } else { Decision::Denied { nodes } })
}

/// Parse and evaluate a user request. A relative path is a parse error.
pub fn request_str(backend: &mut dyn Backend, query: &str) -> Result<Decision> {
    let path = xac_xpath::parse_absolute(query)?;
    request(backend, &path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::NativeXmlBackend;
    use crate::document::PreparedDocument;
    use xac_policy::policy::hospital_policy;
    use xac_xml::Document;

    fn annotated_backend() -> NativeXmlBackend {
        let schema = crate::hospital_schema_for_docs();
        let doc = Document::parse_str(
            "<hospital><dept><patients>\
             <patient><psn>1</psn><name>a</name>\
             <treatment><regular><med>m</med><bill>1</bill></regular></treatment></patient>\
             <patient><psn>2</psn><name>b</name></patient>\
             </patients><staffinfo/></dept></hospital>",
        )
        .unwrap();
        let p = PreparedDocument::prepare(&schema, doc, '-').unwrap();
        let mut b = NativeXmlBackend::new();
        b.load(&p).unwrap();
        crate::annotator::annotate(&mut b, &hospital_policy()).unwrap();
        b
    }

    #[test]
    fn all_or_nothing_semantics() {
        let mut b = annotated_backend();
        // Names are all accessible (R2).
        let d = request_str(&mut b, "//patient/name").unwrap();
        assert_eq!(d, Decision::Granted { nodes: 2 });
        // One of the two patients is denied (R3): whole request denied.
        let d = request_str(&mut b, "//patient").unwrap();
        assert_eq!(d, Decision::Denied { nodes: 2 });
        assert!(!d.granted());
        // Narrowing to the accessible patient grants.
        let d = request_str(&mut b, "//patient[psn = 2]").unwrap();
        assert_eq!(d, Decision::Granted { nodes: 1 });
        // The regular treatment is accessible (R6) but its med is not.
        assert!(request_str(&mut b, "//regular").unwrap().granted());
        assert!(!request_str(&mut b, "//med").unwrap().granted());
    }

    #[test]
    fn empty_result_is_vacuously_granted() {
        let mut b = annotated_backend();
        let d = request_str(&mut b, "//nonexistent").unwrap();
        assert_eq!(d, Decision::Granted { nodes: 0 });
    }

    #[test]
    fn malformed_query_errors() {
        let mut b = annotated_backend();
        assert!(request_str(&mut b, "//bad[").is_err());
        for relative in ["patient", ".//patient", "."] {
            assert!(matches!(request_str(&mut b, relative), Err(crate::Error::XPath(_))));
        }
    }
}
