//! A dense bitset over arena slots: the VM's dense registers, and the
//! per-epoch "accessible" set a published snapshot decides against.
//!
//! Ascending bit order is arena order, which is document order for the
//! nodes of one document.

use xac_xml::NodeId;

/// A fixed-width dense bitset. Positions are arena slots.
#[derive(Debug, Clone)]
pub struct Bitset {
    words: Vec<u64>,
}

impl Bitset {
    /// An empty set over positions `0..width`.
    pub fn new(width: usize) -> Bitset {
        Bitset { words: vec![0; width.div_ceil(64)] }
    }

    /// A set from its words: position `p` is bit `p % 64` of word
    /// `p / 64`, so the width is `64 * words.len()`.
    pub fn from_words(words: Vec<u64>) -> Bitset {
        Bitset { words }
    }

    /// Add a position; it must be below the width.
    #[inline]
    pub fn set(&mut self, pos: u32) {
        self.words[pos as usize / 64] |= 1u64 << (pos % 64);
    }

    /// Remove a position; it must be below the width.
    #[inline]
    pub fn unset(&mut self, pos: u32) {
        self.words[pos as usize / 64] &= !(1u64 << (pos % 64));
    }

    /// Membership of a position; a position beyond the width is absent.
    #[inline]
    pub fn test(&self, pos: u32) -> bool {
        self.bit(pos as usize)
    }

    /// Membership of an arena node; a slot beyond the width is absent.
    #[inline]
    pub fn contains(&self, node: &NodeId) -> bool {
        self.bit(node.index())
    }

    #[inline]
    fn bit(&self, pos: usize) -> bool {
        self.words.get(pos / 64).is_some_and(|w| w & (1u64 << (pos % 64)) != 0)
    }

    /// Number of positions in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when no position is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Remove every position.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// In-place union with a set of the same width.
    pub fn union(&mut self, other: &Bitset) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place difference with a set of the same width.
    pub fn diff(&mut self, other: &Bitset) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Ascending positions of set bits.
    pub fn ones(&self) -> Vec<u32> {
        let mut out = Vec::new();
        self.for_each_one(|p| out.push(p));
        out
    }

    /// Call `f` on every set position, ascending.
    pub fn for_each_one(&self, mut f: impl FnMut(u32)) {
        for (wi, &w) in self.words.iter().enumerate() {
            let mut bits = w;
            while bits != 0 {
                f((wi as u32) * 64 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_ops_and_counts() {
        let mut a = Bitset::new(130);
        assert!(a.is_empty());
        for p in [0, 63, 64, 129] {
            a.set(p);
        }
        assert_eq!(a.len(), 4);
        assert_eq!(a.ones(), vec![0, 63, 64, 129]);
        let mut b = Bitset::new(130);
        b.set(64);
        b.set(1);
        let mut u = a.clone();
        u.union(&b);
        assert_eq!(u.ones(), vec![0, 1, 63, 64, 129]);
        a.diff(&b);
        assert_eq!(a.ones(), vec![0, 63, 129]);
        a.unset(63);
        assert!(!a.test(63) && a.test(129));
        a.clear();
        assert!(a.is_empty());
        assert_eq!(a.len(), 0);
    }

    #[test]
    fn node_membership_past_the_width_is_absent() {
        let doc = xac_xml::Document::parse_str("<a><b/><c/></a>").unwrap();
        let nodes: Vec<NodeId> = doc.all_elements().collect();
        let mut s = Bitset::new(2);
        s.set(nodes[1].index() as u32);
        assert!(s.contains(&nodes[1]));
        assert!(!s.contains(&nodes[0]));
        assert!(!s.contains(&nodes[2]), "slot 2 lies beyond a width of 2");
        assert!(!s.test(1000));
    }
}
