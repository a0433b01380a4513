//! # xac-xmlstore
//!
//! The native XML store substrate of the **xmlac** system — the role
//! MonetDB/XQuery plays in the paper. It stores parsed documents by name,
//! keeps an element-name index per document, evaluates the paper's XPath
//! fragment (accelerated through the index), exposes the XQuery-lite
//! node-set algebra the annotation query needs (`union` / `except`), and
//! implements the paper's `xmlac:annotate()` update function: accessibility
//! is materialized as a `sign` attribute on elements, inserted when absent
//! and replaced when present. The attribute is backed by a per-slot byte
//! column beside the node arena, the way MonetDB/XQuery keeps attributes
//! in a table of their own.
//!
//! ```
//! use xac_xmlstore::{XmlStore, NodeSetExpr, SIGN_ATTR};
//!
//! let mut store = XmlStore::new();
//! store.load_xml("demo", "<a><b/><b><c/></b></a>").unwrap();
//! let sdoc = store.get_mut("demo").unwrap();
//! let expr = NodeSetExpr::path("//b[c]").unwrap();
//! let n = sdoc.annotate_expr(&expr, '+');
//! assert_eq!(n, 1);
//! ```

pub mod cam;
pub mod index;
pub mod store;
pub mod xquery;

pub use cam::Cam;
pub use index::NameIndex;
pub use store::{sign_byte, StoredDocument, XmlStore, NO_SIGN, SIGN_ATTR};
pub use xquery::NodeSetExpr;

/// Errors from the store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Document name already in use or unknown.
    Store(String),
    /// Underlying XML failure.
    Xml(String),
    /// Malformed query expression.
    Query(String),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Store(m) => write!(f, "store error: {m}"),
            Error::Xml(m) => write!(f, "xml error: {m}"),
            Error::Query(m) => write!(f, "query error: {m}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<xac_xml::Error> for Error {
    fn from(e: xac_xml::Error) -> Self {
        Error::Xml(e.to_string())
    }
}

impl From<xac_xpath::Error> for Error {
    fn from(e: xac_xpath::Error) -> Self {
        Error::Query(e.to_string())
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, Error>;
