//! The 4 KB slotted page.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       4     checksum   CRC-32 over bytes 4..4096 (sealed on flush)
//! 4       4     page_no
//! 8       2     nslots     slot-directory length
//! 10      2     free_start low end of the cell area (cells grow down)
//! 12      4*n   slot dir   per slot: [offset u16][len u16]; len 0 = tombstone
//! ...           free space
//! ..4096        cells      written downward from the page end
//! ```
//!
//! A slot, once allocated, keeps its index for the page's lifetime —
//! deletion tombstones it (len 0) and the slot can be re-filled by a
//! later same-size insert, so (page_no, slot) pairs stay stable keys
//! for the in-memory directory above.

use crate::crc::crc32;
use crate::error::{Result, StoreError, StoreErrorKind};

/// Page size in bytes. Everything on disk is a whole number of these.
pub const PAGE_SIZE: usize = 4096;

/// Byte offset where the slot directory starts.
const HEADER_SIZE: usize = 12;
/// Bytes per slot-directory entry.
const SLOT_SIZE: usize = 4;

/// One 4 KB slotted page, manipulated in memory and sealed (checksummed)
/// when flushed.
#[derive(Clone)]
pub struct Page {
    data: Box<[u8; PAGE_SIZE]>,
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Page")
            .field("page_no", &self.page_no())
            .field("nslots", &self.nslots())
            .field("free_space", &self.free_space())
            .finish()
    }
}

impl Page {
    /// A fresh empty page numbered `page_no`.
    pub fn new(page_no: u32) -> Page {
        let mut page = Page { data: Box::new([0u8; PAGE_SIZE]) };
        page.data[4..8].copy_from_slice(&page_no.to_le_bytes());
        page.set_nslots(0);
        page.set_free_start(PAGE_SIZE as u16);
        page
    }

    /// Adopt a raw on-disk image, verifying its checksum.
    pub fn from_bytes(bytes: [u8; PAGE_SIZE]) -> Result<Page> {
        let page = Page { data: Box::new(bytes) };
        let stored = u32::from_le_bytes(page.data[0..4].try_into().unwrap());
        let actual = crc32(&page.data[4..]);
        if stored != actual {
            return Err(StoreError::new(
                StoreErrorKind::Checksum,
                format!(
                    "page {} checksum mismatch (stored {stored:#010x}, computed {actual:#010x})",
                    page.page_no()
                ),
            ));
        }
        Ok(page)
    }

    /// Recompute and store the checksum, returning the sealed bytes.
    pub fn sealed(&mut self) -> &[u8; PAGE_SIZE] {
        let crc = crc32(&self.data[4..]);
        self.data[0..4].copy_from_slice(&crc.to_le_bytes());
        &self.data
    }

    /// The page's number (its offset in the file divided by
    /// [`PAGE_SIZE`]).
    pub fn page_no(&self) -> u32 {
        u32::from_le_bytes(self.data[4..8].try_into().unwrap())
    }

    /// Number of slot-directory entries (live and tombstoned).
    pub fn nslots(&self) -> u16 {
        u16::from_le_bytes(self.data[8..10].try_into().unwrap())
    }

    fn set_nslots(&mut self, n: u16) {
        self.data[8..10].copy_from_slice(&n.to_le_bytes());
    }

    fn free_start(&self) -> u16 {
        u16::from_le_bytes(self.data[10..12].try_into().unwrap())
    }

    fn set_free_start(&mut self, v: u16) {
        self.data[10..12].copy_from_slice(&v.to_le_bytes());
    }

    fn slot_entry(&self, slot: u16) -> Option<(u16, u16)> {
        if slot >= self.nslots() {
            return None;
        }
        let at = HEADER_SIZE + slot as usize * SLOT_SIZE;
        let offset = u16::from_le_bytes(self.data[at..at + 2].try_into().unwrap());
        let len = u16::from_le_bytes(self.data[at + 2..at + 4].try_into().unwrap());
        Some((offset, len))
    }

    fn set_slot_entry(&mut self, slot: u16, offset: u16, len: u16) {
        let at = HEADER_SIZE + slot as usize * SLOT_SIZE;
        self.data[at..at + 2].copy_from_slice(&offset.to_le_bytes());
        self.data[at + 2..at + 4].copy_from_slice(&len.to_le_bytes());
    }

    /// Bytes available for one more cell of any size (accounting for
    /// its slot-directory entry).
    pub fn free_space(&self) -> usize {
        let dir_end = HEADER_SIZE + self.nslots() as usize * SLOT_SIZE;
        (self.free_start() as usize).saturating_sub(dir_end + SLOT_SIZE)
    }

    /// Insert a cell, preferring a tombstoned slot whose old cell fits
    /// `bytes` exactly, else appending a new slot. Returns the slot
    /// index, or `None` when the page is full.
    pub fn insert_cell(&mut self, bytes: &[u8]) -> Option<u16> {
        assert!(!bytes.is_empty() && bytes.len() <= PAGE_SIZE / 4, "cell size out of range");
        // Re-fill a tombstone: the tombstone keeps its original cell
        // offset in `offset` with len 0; reuse only on exact size match
        // so neighbouring cells are never overwritten. The first
        // tombstone seen sorts the live cell starts once; each tombstone
        // then finds the next live start above it by binary search.
        let mut live: Option<Vec<u16>> = None;
        for slot in 0..self.nslots() {
            if let Some((offset, 0)) = self.slot_entry(slot) {
                let live = live.get_or_insert_with(|| self.live_cell_starts());
                let above = live.partition_point(|&o| o <= offset);
                let next_live_start = live.get(above).map_or(PAGE_SIZE, |&o| o as usize);
                let end = offset as usize + bytes.len();
                if offset != 0 && end <= next_live_start {
                    self.data[offset as usize..end].copy_from_slice(bytes);
                    self.set_slot_entry(slot, offset, bytes.len() as u16);
                    return Some(slot);
                }
            }
        }
        if self.free_space() < bytes.len() {
            return None;
        }
        let offset = self.free_start() as usize - bytes.len();
        self.data[offset..offset + bytes.len()].copy_from_slice(bytes);
        let slot = self.nslots();
        self.set_nslots(slot + 1);
        self.set_slot_entry(slot, offset as u16, bytes.len() as u16);
        self.set_free_start(offset as u16);
        Some(slot)
    }

    /// The start offsets of the live cells, ascending.
    fn live_cell_starts(&self) -> Vec<u16> {
        let mut starts: Vec<u16> = (0..self.nslots())
            .filter_map(|s| self.slot_entry(s))
            .filter(|&(_, len)| len > 0)
            .map(|(o, _)| o)
            .collect();
        starts.sort_unstable();
        starts
    }

    /// The cell at `slot`; `None` for out-of-range or tombstoned slots.
    pub fn cell(&self, slot: u16) -> Option<&[u8]> {
        match self.slot_entry(slot) {
            Some((offset, len)) if len > 0 => {
                Some(&self.data[offset as usize..offset as usize + len as usize])
            }
            _ => None,
        }
    }

    /// Overwrite the cell at `slot` in place. Only same-length updates
    /// are supported (the sign records above are fixed-size); returns
    /// false on length mismatch or tombstone.
    pub fn update_cell(&mut self, slot: u16, bytes: &[u8]) -> bool {
        match self.slot_entry(slot) {
            Some((offset, len)) if len as usize == bytes.len() && len > 0 => {
                self.data[offset as usize..offset as usize + len as usize].copy_from_slice(bytes);
                true
            }
            _ => false,
        }
    }

    /// Tombstone the cell at `slot` (idempotent).
    pub fn delete_cell(&mut self, slot: u16) {
        if let Some((offset, len)) = self.slot_entry(slot) {
            if len > 0 {
                self.data[offset as usize..offset as usize + len as usize].fill(0);
                self.set_slot_entry(slot, offset, 0);
            }
        }
    }

    /// Iterate live (slot, cell) pairs.
    pub fn live_cells(&self) -> impl Iterator<Item = (u16, &[u8])> {
        (0..self.nslots()).filter_map(|s| self.cell(s).map(|c| (s, c)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_read_delete_round_trip() {
        let mut p = Page::new(7);
        assert_eq!(p.page_no(), 7);
        let a = p.insert_cell(b"alpha").unwrap();
        let b = p.insert_cell(b"beta").unwrap();
        assert_ne!(a, b);
        assert_eq!(p.cell(a).unwrap(), b"alpha");
        assert_eq!(p.cell(b).unwrap(), b"beta");
        p.delete_cell(a);
        assert!(p.cell(a).is_none());
        assert_eq!(p.cell(b).unwrap(), b"beta");
        // Same-size insert re-fills the tombstone.
        let c = p.insert_cell(b"gamma").unwrap();
        assert_eq!(c, a);
        assert_eq!(p.cell(c).unwrap(), b"gamma");
    }

    #[test]
    fn update_in_place_requires_same_length() {
        let mut p = Page::new(0);
        let s = p.insert_cell(&[1, 2, 3, 4]).unwrap();
        assert!(p.update_cell(s, &[9, 9, 9, 9]));
        assert_eq!(p.cell(s).unwrap(), &[9, 9, 9, 9]);
        assert!(!p.update_cell(s, &[1, 2]));
        p.delete_cell(s);
        assert!(!p.update_cell(s, &[9, 9, 9, 9]));
    }

    #[test]
    fn fills_up_and_refuses_gracefully() {
        let mut p = Page::new(1);
        let cell = [0xABu8; 16];
        let mut inserted = 0usize;
        while p.insert_cell(&cell).is_some() {
            inserted += 1;
        }
        // 4096 - 12 header bytes, 16 + 4 per cell.
        assert_eq!(inserted, (PAGE_SIZE - HEADER_SIZE) / (16 + SLOT_SIZE));
        assert!(p.free_space() < 16 + SLOT_SIZE);
    }

    #[test]
    fn seal_verify_round_trip_and_corruption_detection() {
        let mut p = Page::new(3);
        p.insert_cell(b"payload").unwrap();
        let bytes = *p.sealed();
        let reread = Page::from_bytes(bytes).unwrap();
        assert_eq!(reread.cell(0).unwrap(), b"payload");
        let mut torn = bytes;
        torn[PAGE_SIZE - 3] ^= 0x40;
        let err = Page::from_bytes(torn).unwrap_err();
        assert_eq!(err.kind, StoreErrorKind::Checksum);
    }

    /// The slot choice `insert_cell` made before it sorted the live cell
    /// starts once: a full slot scan per tombstone it tries.
    fn insert_cell_by_rescan(p: &mut Page, bytes: &[u8]) -> Option<u16> {
        let live_cells_above = |p: &Page, offset: u16| {
            (0..p.nslots())
                .filter_map(|s| p.slot_entry(s))
                .filter(|&(o, len)| len > 0 && o > offset)
                .map(|(o, _)| o as usize)
                .min()
        };
        for slot in 0..p.nslots() {
            if let Some((offset, 0)) = p.slot_entry(slot) {
                let end = offset as usize + bytes.len();
                let next_live_start = live_cells_above(p, offset).unwrap_or(PAGE_SIZE);
                if offset != 0 && end <= next_live_start {
                    p.data[offset as usize..end].copy_from_slice(bytes);
                    p.set_slot_entry(slot, offset, bytes.len() as u16);
                    return Some(slot);
                }
            }
        }
        if p.free_space() < bytes.len() {
            return None;
        }
        let offset = p.free_start() as usize - bytes.len();
        p.data[offset..offset + bytes.len()].copy_from_slice(bytes);
        let slot = p.nslots();
        p.set_nslots(slot + 1);
        p.set_slot_entry(slot, offset as u16, bytes.len() as u16);
        p.set_free_start(offset as u16);
        Some(slot)
    }

    #[test]
    fn insert_cell_picks_the_slot_the_rescan_picked() {
        for seed in 0..40u64 {
            let mut state = seed;
            let mut next = |n: u64| xac_obs::splitmix64(&mut state) % n;
            let (mut fast, mut oracle) = (Page::new(9), Page::new(9));
            for step in 0..600 {
                // Mostly puts of a few sizes (so tombstones of every size
                // exist), one clear in three.
                if next(3) == 0 && fast.nslots() > 0 {
                    let slot = next(u64::from(fast.nslots())) as u16;
                    fast.delete_cell(slot);
                    oracle.delete_cell(slot);
                } else {
                    let len = [4usize, 8, 13, 24][next(4) as usize];
                    let cell = vec![(step % 251) as u8 + 1; len];
                    let got = fast.insert_cell(&cell);
                    assert_eq!(got, insert_cell_by_rescan(&mut oracle, &cell), "seed {seed} step {step}");
                }
                assert!(fast.data[..] == oracle.data[..], "seed {seed} step {step}: page bytes differ");
            }
        }
    }
}
