//! # xac-store — durable storage primitives
//!
//! The dependency-free storage engine under the serving stack
//! (DESIGN.md §4i): a 4 KB slotted-page file format ([`page`]), a
//! buffer-pooled file pager with LRU eviction, pin counts, dirty
//! tracking and per-page CRC-32 checksums ([`pager`]), a CRC-framed
//! append-only write-ahead log with torn-tail detection ([`wal`]), and
//! the [`SignPageStore`] putting the materialized sign state — the
//! relational tables' sign columns and the native store's element-arena
//! sign attributes alike — on durable pages ([`sign_store`]).
//!
//! The crate knows nothing about XML, policies, or backends: it moves
//! ids, signs and opaque path strings. `xac-serve`'s durability layer
//! composes these pieces into the guarded-update commit protocol
//! (WAL-append → commit record → in-place page writes) and the
//! kill-and-reopen recovery path.
//!
//! Like every crate in the workspace it uses no external dependencies
//! (DESIGN.md §6); the CRC, the page format and the log framing are
//! implemented from scratch. Counters are published as `xac_wal_*` /
//! `xac_pager_*` obs metrics.

pub mod crc;
pub mod error;
pub mod page;
pub mod pager;
pub mod sign_store;
pub mod wal;

pub use crc::crc32;
pub use error::{Result, StoreError, StoreErrorKind};
pub use page::{Page, PAGE_SIZE};
pub use pager::{Pager, PagerStats};
pub use sign_store::SignPageStore;
pub use wal::{Wal, WalRecord, WalStats};

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// The crate-level crash story in one test: a committed transaction
    /// survives a torn page, because the WAL re-derives the map and
    /// `reconcile` repairs the pages.
    #[test]
    fn wal_plus_pages_recover_a_torn_write() {
        let dir = std::env::temp_dir().join(format!("xac_store_e2e_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let wal_path = dir.join("e2e.wal");
        let pages_path = dir.join("e2e.pages");
        let _ = std::fs::remove_file(&wal_path);
        let _ = std::fs::remove_file(&pages_path);

        let golden: BTreeMap<i64, char> =
            (0..300i64).map(|id| (id, if id % 5 == 0 { '-' } else { '+' })).collect();
        {
            let (mut wal, _) = Wal::open(&wal_path).unwrap();
            wal.append(&WalRecord::Meta { backend: "native/xml".into(), mode: "paper".into() })
                .unwrap();
            for (&id, &sign) in &golden {
                wal.append(&WalRecord::SignSet { id, sign }).unwrap();
            }
            wal.commit(1, true).unwrap();
            let mut store = SignPageStore::open(&pages_path, 8).unwrap();
            store.reconcile(&golden).unwrap();
            store.flush().unwrap();
            // Crash mid-write: one page torn on disk.
            store.put_sign(10, '-').unwrap();
            store.tear_first_dirty_page().unwrap().unwrap();
        }
        // Reopen: WAL says `golden`; pages have a hole; reconcile fixes.
        let (_, records) = Wal::open(&wal_path).unwrap();
        let mut replayed = BTreeMap::new();
        for r in &records {
            match r {
                WalRecord::SignSet { id, sign } => {
                    replayed.insert(*id, *sign);
                }
                WalRecord::SignClear { id } => {
                    replayed.remove(id);
                }
                _ => {}
            }
        }
        assert_eq!(replayed, golden);
        let mut store = SignPageStore::open(&pages_path, 8).unwrap();
        assert!(!store.torn_pages().is_empty());
        store.reconcile(&replayed).unwrap();
        store.flush().unwrap();
        assert_eq!(store.sign_state(), golden);
    }
}
