//! # xac-xpath
//!
//! The XPath machinery of the **xmlac** system, implementing the fragment
//! of §2.2 of *"Controlling Access to XML Documents over XML Native and
//! Relational Databases"* (Koromilas et al., SDM 2009):
//!
//! ```text
//! Paths       p ::= axis::ntst | p[q] | p/p
//! Qualifiers  q ::= p | q and q | p = d
//! Axes     axis ::= child | descendant
//! Node test ntst ::= l | *
//! ```
//!
//! (extended, like the paper's own rules, with the comparison operators
//! `!=`, `<`, `<=`, `>`, `>=` that appear in rule R8 of the motivating
//! example).
//!
//! The crate provides:
//!
//! * [`ast`] — the abstract syntax ([`Path`], [`Step`], [`Qualifier`]) with
//!   a round-tripping `Display` implementation in abbreviated syntax;
//! * [`parser`] — a hand-written recursive-descent parser;
//! * [`eval`] — set-semantics evaluation `[[p]](T)` over [`xac_xml::Document`]
//!   trees;
//! * [`pattern`] — the tree-pattern view of a path used by static analysis;
//! * [`containment`] — the canonical-homomorphism containment test of
//!   Miklau & Suciu (`p ⊑ q`), sound for the full fragment and exact on
//!   XP{/,//,[]}, plus equivalence and a sound disjointness test;
//! * [`expand`] — the §5.3 rule expansion: predicate hoisting plus the
//!   schema-guided rewrite of descendant axes inside predicates into
//!   finite sets of child paths;
//! * [`oracle`] — a hash-consing, memoizing façade over the containment
//!   tests, so static analysis runs each homomorphism check at most once
//!   per ordered path pair.
//!
//! ```
//! use xac_xpath::{parse, eval};
//! use xac_xml::Document;
//!
//! let doc = Document::parse_str("<a><b><c/></b><b/></a>").unwrap();
//! let p = parse("//b[c]").unwrap();
//! assert_eq!(eval(&doc, &p).len(), 1);
//!
//! let broad = parse("//b").unwrap();
//! assert!(p.contained_in(&broad));
//! ```

pub mod ast;
pub mod containment;
pub mod error;
pub mod eval;
pub mod expand;
pub mod oracle;
pub mod parser;
pub mod pattern;
pub mod specialize;

pub use ast::{Axis, CmpOp, NodeTest, Path, Qualifier, Step};
pub use containment::{contained_in, disjoint, equivalent};
pub use error::{Error, Result};
pub use eval::{eval, eval_from, eval_steps};
pub use expand::expand;
pub use oracle::{ContainmentOracle, OracleStats};
pub use parser::{parse, parse_absolute};
pub use pattern::TreePattern;
pub use specialize::{contained_in_with_schema, disjoint_with_schema, schema_variants};

impl Path {
    /// `self ⊑ other`: every tree maps `self`'s result set inside `other`'s.
    pub fn contained_in(&self, other: &Path) -> bool {
        containment::contained_in(self, other)
    }

    /// `self ≡ other`: containment in both directions.
    pub fn equivalent_to(&self, other: &Path) -> bool {
        containment::equivalent(self, other)
    }
}
