//! # xac-shrex
//!
//! A ShreX-style [Du, Amer-Yahia, Freire, VLDB'04] XML-to-relational
//! mapping layer, reproducing the paper's §5.2 storage scheme:
//!
//! * every element type `E` of the (non-recursive) schema maps to a table
//!   `E(id, pid[, v], s)` — `id` a database-wide *universal identifier*,
//!   which is the element's arena slot ([`shred::id_of`]), `pid` the
//!   parent node's id, `v` the text value for leaf types, and `s` the
//!   accessibility sign column;
//! * documents *shred* into one tuple per element
//!   ([`shred::shred_document`]), or into the SQL `INSERT` text whose
//!   execution the paper measures as loading time
//!   ([`shred::shred_to_sql`]);
//! * XPath expressions in the fragment translate to SQL
//!   ([`xpath2sql::translate`]): child steps become `pid = id` joins,
//!   descendant steps are expanded through the schema into unions of join
//!   chains, existence predicates become extra joins and value predicates
//!   become conditions on `v` — producing exactly the `SELECT pat1.id FROM
//!   patients pats1, patient pat1 WHERE …` queries of §5.2.

pub mod mapping;
pub mod shred;
pub mod xpath2sql;

pub use mapping::{Mapping, SIGN_COLUMN, VALUE_COLUMN};
pub use shred::{shred_document, shred_to_sql, ShreddedRow};
pub use xpath2sql::translate;

/// Errors from mapping, shredding or translation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The schema cannot be mapped (recursive, unknown root, …).
    Mapping(String),
    /// The document does not fit the mapped schema.
    Shred(String),
    /// The XPath expression cannot be translated.
    Translate(String),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Mapping(m) => write!(f, "mapping error: {m}"),
            Error::Shred(m) => write!(f, "shredding error: {m}"),
            Error::Translate(m) => write!(f, "translation error: {m}"),
        }
    }
}

impl std::error::Error for Error {}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, Error>;
