//! Unified error type for the system layer.

use std::fmt;

/// Errors surfaced by the system and its backends.
///
/// The enum is `#[non_exhaustive]`: downstream crates (the serving
/// engine, the CLI) match on the variants they can act on and must keep
/// a wildcard arm, so new structured variants can be added without a
/// breaking release.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// XML substrate failure.
    Xml(String),
    /// XPath parsing/analysis failure.
    XPath(String),
    /// Policy failure.
    Policy(String),
    /// Relational substrate failure.
    Relational(String),
    /// Shredding/translation failure.
    Shrex(String),
    /// Native store failure.
    Store(String),
    /// An operation needed a loaded document but the backend has none.
    /// `backend` is the backend's [`crate::Backend::name`].
    BackendNotLoaded {
        /// Name of the backend that was driven while empty.
        backend: &'static str,
    },
    /// An annotation write mode string did not name a known mode.
    /// Carries the rejected input; valid spellings are listed by
    /// [`crate::AnnotateMode::VALID_NAMES`].
    UnknownAnnotateMode(String),
    /// A name-typed input (`what` = "backend", "role", …) did not match
    /// any valid spelling. The shared shape behind every CLI/wire name
    /// parse — same message format as [`Error::UnknownAnnotateMode`],
    /// generic over what was being named so higher layers (`BackendKind`,
    /// the serving `Role`) report errors identically.
    UnknownName {
        /// What kind of thing was being named (singular noun).
        what: &'static str,
        /// The rejected input.
        input: String,
        /// Comma-separated valid spellings.
        valid: String,
    },
    /// A deterministic fault fired at a named fault point (injected by
    /// [`crate::FaultingBackend`] from a [`crate::FaultPlan`]). Never
    /// produced in production configurations — only under test/bench
    /// fault plans — but structured so recovery code can tell an
    /// injected failure from an organic one.
    FaultInjected {
        /// The fault point that fired, e.g. `after_delete`.
        point: String,
    },
    /// The serving engine exhausted its degradation ladder and entered
    /// read-only quarantine: reads keep being served from the last
    /// published snapshot, writes are rejected with this error.
    Quarantined {
        /// Epoch of the snapshot still being served.
        last_good_epoch: u64,
        /// What drove the engine into quarantine.
        cause: String,
    },
    /// Durable-storage (pager/WAL) failure. Produced by the `xac-serve`
    /// durability layer wrapping `xac-store` errors, so pager and WAL
    /// I/O failures flow through the degradation ladder as structured
    /// errors instead of panics, and the CLI can give them a stable
    /// exit code.
    Storage {
        /// The storage failure class (`io` or `corrupt` —
        /// `xac_store::StoreErrorKind` spellings).
        source_kind: String,
        /// What was being attempted, with paths/offsets where useful.
        context: String,
    },
    /// An insert named an element type the schema does not declare;
    /// [`crate::System`] refuses it before selecting anything.
    UndeclaredElement(String),
    /// An insert carried text for an element type whose content model
    /// holds none (its table has no `v` column); [`crate::System`]
    /// refuses it before selecting anything.
    UndeclaredText(String),
    /// System-level misuse not covered by a structured variant.
    System(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Xml(m) => write!(f, "xml error: {m}"),
            Error::XPath(m) => write!(f, "xpath error: {m}"),
            Error::Policy(m) => write!(f, "policy error: {m}"),
            Error::Relational(m) => write!(f, "relational error: {m}"),
            Error::Shrex(m) => write!(f, "shrex error: {m}"),
            Error::Store(m) => write!(f, "store error: {m}"),
            Error::BackendNotLoaded { backend } => {
                write!(f, "system error: backend `{backend}` has no document loaded")
            }
            Error::UnknownAnnotateMode(input) => write!(
                f,
                "system error: unknown annotate mode `{input}` (valid modes: {})",
                crate::backend::AnnotateMode::VALID_NAMES.join(", ")
            ),
            Error::UnknownName { what, input, valid } => {
                write!(f, "system error: unknown {what} `{input}` (valid {what}s: {valid})")
            }
            Error::FaultInjected { point } => {
                write!(f, "fault injected at `{point}`")
            }
            Error::Quarantined { last_good_epoch, cause } => write!(
                f,
                "engine quarantined (read-only, serving last-good epoch \
                 {last_good_epoch}): {cause}"
            ),
            Error::Storage { source_kind, context } => {
                write!(f, "storage {source_kind} error: {context}")
            }
            Error::UndeclaredElement(name) => {
                write!(f, "update error: the schema declares no element `{name}` to insert")
            }
            Error::UndeclaredText(name) => {
                write!(f, "update error: the schema declares no text in element `{name}`")
            }
            Error::System(m) => write!(f, "system error: {m}"),
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
        Error::XPath(e.to_string())
    }
}

impl From<xac_vmc::CompileError> for Error {
    fn from(e: xac_vmc::CompileError) -> Self {
        Error::XPath(e.to_string())
    }
}

impl From<xac_policy::Error> for Error {
    fn from(e: xac_policy::Error) -> Self {
        Error::Policy(e.to_string())
    }
}

impl From<xac_reldb::Error> for Error {
    fn from(e: xac_reldb::Error) -> Self {
        Error::Relational(e.to_string())
    }
}

impl From<xac_shrex::Error> for Error {
    fn from(e: xac_shrex::Error) -> Self {
        Error::Shrex(e.to_string())
    }
}

impl From<xac_xmlstore::Error> for Error {
    fn from(e: xac_xmlstore::Error) -> Self {
        Error::Store(e.to_string())
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, Error>;
