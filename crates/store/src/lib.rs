//! # xac-store — durable storage primitives
//!
//! The dependency-free storage engine under the serving stack
//! (DESIGN.md §4i): a CRC-framed append-only write-ahead log with
//! torn-tail detection ([`wal`]). The log is the whole durable state: it
//! holds the structural operations the engine committed, and a reopen
//! re-derives every sign from the replayed document and the policy.
//!
//! The crate knows nothing about XML, policies, or backends: it moves
//! opaque path strings and epochs. `xac-serve`'s durability layer
//! composes the log into the guarded-update commit protocol (one
//! operation record and its `Commit` in one write, then one fsync) and
//! the kill-and-reopen recovery path.
//!
//! Like every crate in the workspace it uses no external dependencies
//! (DESIGN.md §6); the CRC and the log framing are implemented from
//! scratch. Counters are published as `xac_wal_*` obs metrics.

pub mod crc;
pub mod error;
pub mod wal;

pub use crc::crc32;
pub use error::{Result, StoreError, StoreErrorKind};
pub use wal::{Wal, WalRecord, WalStats};

/// Buffer-pool counters, kept for the serving engine's
/// `storage_stats()`/`pager_stats()` surface that the benchmark's ledger
/// still reads (`store.pool_hit_ratio`). There is no page file or buffer
/// pool any more, so every reading is all-zero: vestigial until the
/// ledger drops the metric.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PagerStats {
    /// Frame lookups answered from the buffer pool.
    pub hits: u64,
    /// Frame lookups that had to read the file.
    pub misses: u64,
}

impl PagerStats {
    /// Buffer-pool hit rate in [0, 1]; 1.0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}
