//! Typed storage failures. Everything the WAL can hit is
//! classified into a small closed set of kinds so the layers above
//! (xac-core's `Error::Storage`, the serve ladder, the CLI exit code)
//! can act on the class without parsing message text.

use std::fmt;

/// The failure classes the storage layer distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreErrorKind {
    /// An OS-level I/O failure (open, read, write, fsync, truncate).
    Io,
    /// Structurally invalid on-disk state (an undecodable record, a
    /// log that predates the current format, a mismatched backend tag).
    Corrupt,
}

impl StoreErrorKind {
    /// The canonical spelling, carried into `Error::Storage`'s
    /// `source_kind` so diagnostics stay greppable across layers.
    pub fn name(self) -> &'static str {
        match self {
            StoreErrorKind::Io => "io",
            StoreErrorKind::Corrupt => "corrupt",
        }
    }
}

impl fmt::Display for StoreErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One storage failure: a kind plus human-readable context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreError {
    /// The failure class.
    pub kind: StoreErrorKind,
    /// What was being attempted, with paths/offsets where useful.
    pub context: String,
}

impl StoreError {
    /// Build an error of `kind`.
    pub fn new(kind: StoreErrorKind, context: impl Into<String>) -> StoreError {
        StoreError { kind, context: context.into() }
    }

    /// Wrap an OS error with what was being attempted.
    pub fn io(context: impl fmt::Display, e: std::io::Error) -> StoreError {
        StoreError::new(StoreErrorKind::Io, format!("{context}: {e}"))
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "storage {} error: {}", self.kind, self.context)
    }
}

impl std::error::Error for StoreError {}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, StoreError>;
