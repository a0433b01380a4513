//! Copy-on-write chunks: the one layout of every per-slot structure —
//! the document arena, the VM's columnar index and the native sign
//! column. Chunk `c` holds the data of slots `c * CHUNK .. (c + 1) *
//! CHUNK` behind its own [`Arc`]: a clone copies one pointer per chunk,
//! and a write copies only the chunk it lands in, and only while a clone
//! shares it ([`Arc::make_mut`]). A fresh chunk is allocated in place
//! (`Arc::default`), never built on the stack and moved.

use std::sync::Arc;

/// Slots per chunk, the unit a copy-on-write clone shares and copies.
pub const CHUNK: usize = 1024;

const _: () = assert!(CHUNK.is_power_of_two());

/// The chunk holding slot `slot`, and the slot's offset in it.
#[inline]
pub fn locate(slot: usize) -> (usize, usize) {
    (slot >> CHUNK.trailing_zeros(), slot & (CHUNK - 1))
}

/// Per-slot data in copy-on-write chunks; `C::default()` is a chunk of
/// empty slots.
#[derive(Debug, Clone, Default)]
pub struct Chunks<C>(Vec<Arc<C>>);

impl<C: Clone + Default> Chunks<C> {
    /// Number of chunks.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when there is no chunk.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Chunk `c`, if there is one.
    #[inline]
    pub fn get(&self, c: usize) -> Option<&C> {
        self.0.get(c).map(|c| &**c)
    }

    /// The chunk holding the covered slot `slot`, and its offset.
    #[inline]
    pub fn at(&self, slot: usize) -> (&C, usize) {
        let (c, o) = locate(slot);
        (&self.0[c], o)
    }

    /// Chunk `c` for a write, copied first if a clone shares it.
    #[inline]
    pub fn chunk_mut(&mut self, c: usize) -> &mut C {
        Arc::make_mut(&mut self.0[c])
    }

    /// [`Self::at`] for a write.
    #[inline]
    pub fn at_mut(&mut self, slot: usize) -> (&mut C, usize) {
        let (c, o) = locate(slot);
        (self.chunk_mut(c), o)
    }

    /// Append fresh chunks until slots `0..slots` are covered.
    pub fn cover(&mut self, slots: usize) {
        while self.0.len() * CHUNK < slots {
            self.0.push(Arc::default());
        }
    }

    /// The chunks in slot order.
    pub fn iter(&self) -> impl Iterator<Item = &C> + '_ {
        self.0.iter().map(|c| &**c)
    }

    /// Every chunk for a write, in slot order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut C> + '_ {
        self.0.iter_mut().map(Arc::make_mut)
    }

    /// Call `write(chunk, run)` once per run of consecutive `items`
    /// whose slots (`slot_of`) share a chunk: one copy check per run.
    pub fn write_runs<T>(
        &mut self,
        items: &[T],
        slot_of: impl Fn(&T) -> usize,
        mut write: impl FnMut(&mut C, &[T]),
    ) {
        for run in items.chunk_by(|a, b| slot_of(a) ^ slot_of(b) < CHUNK) {
            write(self.chunk_mut(locate(slot_of(&run[0])).0), run);
        }
    }

    /// Whether chunk `c` is one allocation in both.
    pub fn shares(&self, other: &Chunks<C>, c: usize) -> bool {
        matches!((self.0.get(c), other.0.get(c)), (Some(a), Some(b)) if Arc::ptr_eq(a, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Bytes([u8; CHUNK]);

    impl Default for Bytes {
        fn default() -> Self {
            Bytes([0; CHUNK])
        }
    }

    #[test]
    fn a_write_copies_only_its_chunk() {
        let mut column: Chunks<Bytes> = Chunks::default();
        column.cover(3 * CHUNK + 1);
        assert_eq!(column.len(), 4, "a partial chunk is a chunk");
        let clone = column.clone();
        assert!((0..4).all(|c| column.shares(&clone, c)), "a clone copies no chunk");

        // Slots 5, 6 and CHUNK + 2, then 7 again: three runs, two chunks.
        let slots = [5, 6, CHUNK + 2, 7];
        column.write_runs(&slots, |&s| s, |chunk, run| {
            for &s in run {
                chunk.0[locate(s).1] = 1;
            }
        });
        let copied: Vec<usize> = (0..4).filter(|&c| !column.shares(&clone, c)).collect();
        assert_eq!(copied, [0, 1]);
        assert_eq!(clone.at(5).0 .0[5], 0, "the clone keeps its value");
        assert_eq!(column.at(CHUNK + 2), (column.get(1).unwrap(), 2));
        assert_eq!(column.at(CHUNK + 2).0 .0[2], 1);
        assert!(!column.shares(&Chunks::default(), 0), "a missing chunk is not shared");
    }
}
