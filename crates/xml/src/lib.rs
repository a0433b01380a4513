//! # xac-xml
//!
//! The XML substrate of the **xmlac** system: an arena-based tree model for
//! XML documents, a small parser and serializer, and a DTD-style schema
//! graph with the content models used by the paper
//! *"Controlling Access to XML Documents over XML Native and Relational
//! Databases"* (Koromilas et al., SDM 2009).
//!
//! The paper (§2.1) models XML documents as rooted, unordered trees
//! `T = (V_T, E_T, R_T, λ_T)` whose labels come from `Σ ∪ D`: element names
//! from a finite alphabet `Σ` and data values from a domain `D`. This crate
//! realises that model with:
//!
//! * [`Document`] — an arena of plain node records addressed by dense [`NodeId`]s,
//!   stored in copy-on-write [`Chunks`] of [`CHUNK`] nodes, supporting O(1)
//!   parent/child navigation, subtree iteration, in-place mutation
//!   (insert/delete), O(chunks) clones, and per-element attributes;
//! * [`Chunks`] — the copy-on-write chunk layout every per-slot structure
//!   shares: the arena, the VM's columnar index and the native sign column;
//! * [`parse`]/[`Document::parse_str`] — a parser for the XML subset the
//!   system manipulates (elements, attributes, character data, comments);
//! * [`serialize`] — a serializer that round-trips parsed documents;
//! * [`schema`] — the node-and-edge-labelled schema graphs of the paper's
//!   Figure 1 (sequence/choice content, `*`/`+`/`?` occurrence indicators),
//!   plus schema analyses needed elsewhere in the system: recursion
//!   detection, reachable label paths, and label paths between two element
//!   types (used for the descendant-axis expansion of §5.3).
//!
//! ```
//! use xac_xml::Document;
//!
//! let doc = Document::parse_str("<a><b>hi</b><b/></a>").unwrap();
//! let root = doc.root();
//! assert_eq!(doc.name(root), Some("a"));
//! assert_eq!(doc.children(root).count(), 2);
//! ```

pub mod chunks;
pub mod dtd;
pub mod error;
pub mod model;
pub mod parse;
pub mod schema;
pub mod serialize;

pub use chunks::{locate, Chunks, CHUNK};
pub use dtd::parse_dtd;
pub use error::{Error, Result};
pub use model::{Document, NameTable, NodeId, NodeKind};
pub use schema::{ContentModel, ElementType, Occurs, Particle, Schema};
