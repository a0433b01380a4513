//! The durable sign map: the materialized `sign` column/attribute —
//! the state the paper's whole method revolves around — persisted on
//! slotted pages by [`SignPageStore`]. The relational sign columns and
//! the native element arena's sign attributes persist through it alike.
//!
//! Each entry is a fixed 9-byte cell `[id i64 LE][sign u8]`. An
//! in-memory directory (id → (page, slot)) and mirror map are rebuilt
//! by scanning the pages on open; the pages are the durable copy, the
//! WAL is the source of truth when they disagree (a torn page is reset
//! and rebuilt via [`SignPageStore::reconcile`]).

use crate::error::{Result, StoreError, StoreErrorKind};
use crate::pager::{Pager, PagerStats};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;

const CELL_SIZE: usize = 9;

fn encode_cell(id: i64, sign: char) -> [u8; CELL_SIZE] {
    let mut cell = [0u8; CELL_SIZE];
    cell[..8].copy_from_slice(&id.to_le_bytes());
    cell[8] = sign as u8;
    cell
}

fn decode_cell(cell: &[u8]) -> Result<(i64, char)> {
    if cell.len() != CELL_SIZE {
        return Err(StoreError::new(
            StoreErrorKind::Corrupt,
            format!("sign cell has {} bytes, expected {CELL_SIZE}", cell.len()),
        ));
    }
    let id = i64::from_le_bytes(cell[..8].try_into().unwrap());
    Ok((id, cell[8] as char))
}

/// A durable id → sign map over a [`Pager`], flushed at dirty-page
/// granularity. See the module docs.
pub struct SignPageStore {
    pager: Pager,
    /// id → (page, slot) for every live entry.
    directory: HashMap<i64, (u32, u16)>,
    /// In-memory mirror of the durable map (pages remain the durable
    /// copy; this makes `sign_state` allocation-cheap).
    mirror: BTreeMap<i64, char>,
    /// Pages with room for at least one more cell, newest last.
    open_pages: Vec<u32>,
    /// Pages whose checksum failed on open — reset to empty, their
    /// entries lost until `reconcile` repairs them from the WAL.
    torn_pages: Vec<u32>,
}

impl SignPageStore {
    /// Open (creating if absent) the page file, scan every page to
    /// rebuild the directory, and reset any page that fails its
    /// checksum (recording it in [`SignPageStore::torn_pages`]).
    pub fn open(path: &Path, pool_pages: usize) -> Result<SignPageStore> {
        let mut pager = Pager::open(path, pool_pages)?;
        let mut directory = HashMap::new();
        let mut mirror = BTreeMap::new();
        let mut open_pages = Vec::new();
        let mut torn_pages = Vec::new();
        for no in 0..pager.page_count() {
            match pager.page(no) {
                Ok(page) => {
                    for (slot, cell) in page.live_cells() {
                        let (id, sign) = decode_cell(cell)?;
                        directory.insert(id, (no, slot));
                        mirror.insert(id, sign);
                    }
                    if page.free_space() >= CELL_SIZE {
                        open_pages.push(no);
                    }
                }
                Err(e) if e.kind == StoreErrorKind::Checksum => {
                    pager.reset_page(no)?;
                    open_pages.push(no);
                    torn_pages.push(no);
                }
                Err(e) => return Err(e),
            }
        }
        Ok(SignPageStore { pager, directory, mirror, open_pages, torn_pages })
    }

    /// Pages whose checksum failed on open (already reset to empty).
    /// Non-empty means the caller must [`SignPageStore::reconcile`] against
    /// the WAL-replayed map before trusting reads.
    pub fn torn_pages(&self) -> &[u32] {
        &self.torn_pages
    }

    /// The underlying pager's counters.
    pub fn pager_stats(&self) -> PagerStats {
        self.pager.stats()
    }

    /// Number of dirty (unflushed) pages.
    pub fn dirty_pages(&self) -> usize {
        self.pager.dirty_count()
    }

    /// Fault-injection hook: tear the on-disk image of the first dirty
    /// page, as a crash mid-page-write would. Returns the torn page
    /// number, or `None` when nothing is dirty.
    pub fn tear_first_dirty_page(&mut self) -> Result<Option<u32>> {
        match self.pager.dirty_pages().first().copied() {
            Some(no) => {
                self.pager.tear_page(no)?;
                Ok(Some(no))
            }
            None => Ok(None),
        }
    }

    /// Fault-injection hook: flush at most `cap` dirty pages then stop
    /// (no fsync) — a crash partway through the checkpoint flush.
    pub fn flush_capped(&mut self, cap: usize) -> Result<usize> {
        self.pager.flush_dirty_capped(Some(cap))
    }

    /// Set (insert or overwrite) the sign for `id`.
    pub fn put_sign(&mut self, id: i64, sign: char) -> Result<()> {
        let cell = encode_cell(id, sign);
        if let Some(&(page_no, slot)) = self.directory.get(&id) {
            let page = self.pager.page_mut(page_no)?;
            if !page.update_cell(slot, &cell) {
                return Err(StoreError::new(
                    StoreErrorKind::Corrupt,
                    format!("sign directory points id {id} at a dead slot"),
                ));
            }
        } else {
            let page_no = self.page_with_room()?;
            let page = self.pager.page_mut(page_no)?;
            let slot = page.insert_cell(&cell).ok_or_else(|| {
                StoreError::new(StoreErrorKind::Corrupt, "page reported room it did not have")
            })?;
            self.directory.insert(id, (page_no, slot));
        }
        self.mirror.insert(id, sign);
        Ok(())
    }

    /// Remove the sign for `id` (no-op when absent).
    pub fn clear_sign(&mut self, id: i64) -> Result<()> {
        if let Some((page_no, slot)) = self.directory.remove(&id) {
            self.pager.page_mut(page_no)?.delete_cell(slot);
            if !self.open_pages.contains(&page_no) {
                self.open_pages.push(page_no);
            }
            self.mirror.remove(&id);
        }
        Ok(())
    }

    /// Write back dirty pages and fsync; returns pages written. Cost is
    /// O(dirty pages).
    pub fn flush(&mut self) -> Result<usize> {
        self.pager.flush_dirty()
    }

    /// The full map, in id order.
    pub fn sign_state(&self) -> BTreeMap<i64, char> {
        self.mirror.clone()
    }

    /// Make the store byte-equal to `target`, putting/clearing only
    /// differences; returns entries changed. The recovery path: after
    /// WAL replay decides the true map, the pages are repaired to it.
    pub fn reconcile(&mut self, target: &BTreeMap<i64, char>) -> Result<usize> {
        let current = self.sign_state();
        let mut changed = 0usize;
        for (&id, &sign) in target {
            if current.get(&id) != Some(&sign) {
                self.put_sign(id, sign)?;
                changed += 1;
            }
        }
        for &id in current.keys() {
            if !target.contains_key(&id) {
                self.clear_sign(id)?;
                changed += 1;
            }
        }
        Ok(changed)
    }

    fn page_with_room(&mut self) -> Result<u32> {
        while let Some(&no) = self.open_pages.last() {
            if self.pager.page(no)?.free_space() >= CELL_SIZE {
                return Ok(no);
            }
            self.open_pages.pop();
        }
        let no = self.pager.allocate()?;
        self.open_pages.push(no);
        Ok(no)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("xac_store_signs_{name}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("signs.pages");
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn put_get_clear_flush_reopen() {
        let path = tmp("basic");
        {
            let mut store = SignPageStore::open(&path, 8).unwrap();
            for id in 0..600i64 {
                store.put_sign(id, if id % 3 == 0 { '+' } else { '-' }).unwrap();
            }
            store.clear_sign(17).unwrap();
            store.put_sign(5, '-').unwrap(); // overwrite in place
            assert_eq!(store.sign_state().len(), 599);
            assert!(store.flush().unwrap() > 0);
        }
        let store = SignPageStore::open(&path, 8).unwrap();
        assert!(store.torn_pages().is_empty());
        let state = store.sign_state();
        assert_eq!(state.len(), 599);
        assert_eq!(state.get(&0), Some(&'+'));
        assert_eq!(state.get(&5), Some(&'-'));
        assert_eq!(state.get(&17), None);
        assert_eq!(state.get(&3), Some(&'+'));
    }

    #[test]
    fn flush_cost_is_dirty_pages_not_total_pages() {
        let path = tmp("dirty");
        let mut store = SignPageStore::open(&path, 64).unwrap();
        // ~600 entries at 9+4 bytes each spread over several pages.
        for id in 0..600i64 {
            store.put_sign(id, '+').unwrap();
        }
        let initial = store.flush().unwrap();
        assert!(initial >= 2, "expected several pages, wrote {initial}");
        // A small update touches one page.
        store.put_sign(3, '-').unwrap();
        assert_eq!(store.dirty_pages(), 1);
        assert_eq!(store.flush().unwrap(), 1);
        assert_eq!(store.flush().unwrap(), 0, "clean store flushes nothing");
    }

    #[test]
    fn torn_page_is_reset_and_reconciled() {
        let path = tmp("torn");
        let golden: BTreeMap<i64, char> =
            (0..400i64).map(|id| (id, if id % 2 == 0 { '+' } else { '-' })).collect();
        {
            let mut store = SignPageStore::open(&path, 8).unwrap();
            store.reconcile(&golden).unwrap();
            store.flush().unwrap();
            store.put_sign(0, '-').unwrap(); // dirty one page…
            store.tear_first_dirty_page().unwrap().expect("a dirty page to tear");
        }
        let mut store = SignPageStore::open(&path, 8).unwrap();
        assert_eq!(store.torn_pages().len(), 1, "the torn page was detected");
        assert!(store.sign_state().len() < golden.len(), "torn page's entries are gone pre-repair");
        let repaired = store.reconcile(&golden).unwrap();
        assert!(repaired > 0);
        store.flush().unwrap();
        drop(store);
        let store = SignPageStore::open(&path, 8).unwrap();
        assert!(store.torn_pages().is_empty());
        assert_eq!(store.sign_state(), golden, "byte-identical after repair");
    }

    #[test]
    fn reconcile_is_a_noop_on_equal_state() {
        let path = tmp("noop");
        let mut store = SignPageStore::open(&path, 8).unwrap();
        let target: BTreeMap<i64, char> = (0..50i64).map(|id| (id, '+')).collect();
        assert_eq!(store.reconcile(&target).unwrap(), 50);
        store.flush().unwrap();
        assert_eq!(store.reconcile(&target).unwrap(), 0);
        assert_eq!(store.dirty_pages(), 0, "no-op reconcile dirties nothing");
    }
}
