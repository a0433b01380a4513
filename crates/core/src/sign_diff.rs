//! Sign-state differences: the unit a durable transaction commits.
//!
//! A [`SignDiff`] is the net change between two [`Backend::sign_state`]
//! maps. The serving engine's durable commit does not build those maps:
//! each backend's tree keeps a byte column of its signs (one byte per
//! arena slot, which is also the relational stores' universal id;
//! [`NO_SIGN`] for no entry, else `b'+'` or `b'-'`) and a
//! [`SignBaseline`] copy of that column as of the last drain. [`Backend::sign_changes`] diffs the two a word at
//! a time and decodes only the bytes that differ, so a commit costs
//! O(changed signs) plus one pass over the column's words.
//!
//! [`Backend::sign_state`]: crate::Backend::sign_state
//! [`Backend::sign_changes`]: crate::Backend::sign_changes

use std::collections::BTreeMap;
use xac_vmc::Bitset;
use xac_xmlstore::NO_SIGN;

/// The sign-map difference one transaction commits.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SignDiff {
    /// Ids whose sign is new or changed, ascending.
    pub set: Vec<(i64, char)>,
    /// Ids no longer present (their element was removed, or its sign
    /// cleared), ascending.
    pub clear: Vec<i64>,
}

impl SignDiff {
    /// The difference taking `old` to `new`, in one merge walk over the
    /// two ordered maps; both lists come out in ascending id order.
    pub fn between(old: &BTreeMap<i64, char>, new: &BTreeMap<i64, char>) -> SignDiff {
        let mut diff = SignDiff::default();
        let mut old = old.iter().peekable();
        for (&id, &sign) in new {
            while let Some((&gone, _)) = old.next_if(|&(&o, _)| o < id) {
                diff.clear.push(gone);
            }
            match old.next_if(|&(&o, _)| o == id) {
                Some((_, &kept)) if kept == sign => {}
                _ => diff.set.push((id, sign)),
            }
        }
        diff.clear.extend(old.map(|(&gone, _)| gone));
        diff
    }

    /// Patch `map` in place so that it becomes the state this diff
    /// leads to: O(diff · log n).
    pub fn apply_to(&self, map: &mut BTreeMap<i64, char>) {
        for &(id, sign) in &self.set {
            map.insert(id, sign);
        }
        for id in &self.clear {
            map.remove(id);
        }
    }

    /// Number of entries the diff touches.
    pub fn len(&self) -> usize {
        self.set.len() + self.clear.len()
    }

    /// True when the transaction changed no signs.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty() && self.clear.is_empty()
    }
}

/// A sign column as of the last [`SignBaseline::drain`]: the state the
/// last durable commit (or load, restore, wholesale sign apply) left.
#[derive(Debug, Clone, Default)]
pub(crate) struct SignBaseline {
    bytes: Vec<u8>,
}

impl SignBaseline {
    /// Forget every pending change: the baseline becomes `column`.
    pub(crate) fn reset(&mut self, column: &[u8]) {
        self.bytes.clear();
        self.bytes.extend_from_slice(column);
    }

    /// The changes from the baseline to `column`, in the
    /// [`crate::Backend::sign_state`] encoding (position = id, a
    /// [`NO_SIGN`] byte = no entry); the baseline then becomes
    /// `column`. Equal 8-byte words are skipped with one compare each;
    /// only the bytes of differing words are decoded and copied.
    pub(crate) fn drain(&mut self, column: &[u8]) -> SignDiff {
        let mut diff = SignDiff::default();
        let n = column.len();
        if self.bytes.len() < n {
            self.bytes.resize(n, NO_SIGN);
        }
        let (old, gone) = self.bytes.split_at_mut(n);
        let mut old_words = old.chunks_exact_mut(8);
        let mut new_words = column.chunks_exact(8);
        for (at, (o, c)) in (0..).step_by(8).zip(old_words.by_ref().zip(new_words.by_ref())) {
            let word = |b: &[u8]| u64::from_ne_bytes(b.try_into().expect("8-byte chunk"));
            if word(o) != word(c) {
                patch(o, c, at, &mut diff);
            }
        }
        patch(old_words.into_remainder(), new_words.remainder(), n - n % 8, &mut diff);
        // A column that shrank (a reload of a smaller document) clears
        // every signed position past its end.
        for (id, &b) in (n..).zip(gone.iter()) {
            if b != NO_SIGN {
                diff.clear.push(id as i64);
            }
        }
        self.bytes.truncate(n);
        diff
    }
}

/// Decode the differing bytes of one word into `diff` and copy them
/// into the baseline.
fn patch(old: &mut [u8], new: &[u8], at: usize, diff: &mut SignDiff) {
    for (id, (o, &c)) in (at..).zip(old.iter_mut().zip(new)) {
        if *o != c {
            if c == NO_SIGN {
                diff.clear.push(id as i64);
            } else {
                diff.set.push((id as i64, c as char));
            }
            *o = c;
        }
    }
}

/// The positions of `column` holding `want`, as a bitset of `width`
/// positions: one pass that packs 64 column bytes into each word, eight
/// at a time. In `x = bytes ^ want`, a byte is zero exactly where the
/// column holds `want`; `!(((x & LOW7) + LOW7) | x) & HIGH` sets the
/// high bit of exactly those bytes (the add cannot carry across bytes),
/// and the multiply gathers the eight high bits into the top byte, the
/// column's first byte lowest.
pub(crate) fn positions_of(column: &[u8], width: usize, want: u8) -> Bitset {
    const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    const GATHER: u64 = 0x0002_0408_1020_4081;
    let spread = u64::from_le_bytes([want; 8]);
    let mut words = vec![0u64; width.div_ceil(64)];
    for (word, block) in words.iter_mut().zip(column.chunks(64)) {
        let mut eights = block.chunks_exact(8);
        for (k, eight) in eights.by_ref().enumerate() {
            let x = u64::from_le_bytes(eight.try_into().expect("8-byte chunk")) ^ spread;
            let zero = !(((x & LOW7) + LOW7) | x) & !LOW7;
            *word |= (zero.wrapping_mul(GATHER) >> 56) << (8 * k);
        }
        let tail = block.len() - eights.remainder().len();
        for (i, &b) in (tail..).zip(eights.remainder()) {
            *word |= u64::from(b == want) << i;
        }
    }
    Bitset::from_words(words)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sign map a column encodes.
    fn map_of(column: &[u8]) -> BTreeMap<i64, char> {
        (0..)
            .zip(column)
            .filter(|(_, &b)| b != NO_SIGN)
            .map(|(id, &b)| (id, b as char))
            .collect()
    }

    #[test]
    fn drain_matches_the_map_diff_on_random_columns() {
        let mut state = 0xd1ff_c0deu64;
        let mut next = |bound: u64| xac_obs::splitmix64(&mut state) % bound;
        let mut baseline = SignBaseline::default();
        let mut column: Vec<u8> = Vec::new();
        let mut reference = BTreeMap::new();
        for round in 0..200 {
            // Grow, shrink or keep the length; then flip a few bytes.
            match next(5) {
                0 => column.resize(column.len() + next(40) as usize, NO_SIGN),
                1 => column.truncate(column.len().saturating_sub(next(20) as usize)),
                _ => {}
            }
            let flips = if round % 7 == 0 { column.len() } else { next(6) as usize };
            for _ in 0..flips.min(column.len()) {
                let at = next(column.len() as u64) as usize;
                column[at] = [NO_SIGN, b'+', b'-'][next(3) as usize];
            }
            let diff = baseline.drain(&column);
            let now = map_of(&column);
            assert_eq!(diff, SignDiff::between(&reference, &now), "round {round}");
            diff.apply_to(&mut reference);
            assert_eq!(reference, now, "round {round}: the patched map is the new state");
            assert!(baseline.drain(&column).is_empty(), "round {round}: a drain advances");
        }
    }

    #[test]
    fn positions_of_packs_each_byte_into_its_bit() {
        let mut state = 0xb175_e7edu64;
        for len in [0usize, 1, 7, 8, 63, 64, 65, 150, 1000] {
            let column: Vec<u8> = (0..len)
                .map(|_| [NO_SIGN, b'+', b'-', b'+' | 0x80, 0xff][xac_obs::splitmix64(&mut state) as usize % 5])
                .collect();
            for want in [b'+', b'-'] {
                let bits = positions_of(&column, len + 10, want);
                let expected: Vec<u32> = (0..).zip(&column).filter(|(_, &b)| b == want).map(|(i, _)| i).collect();
                assert_eq!(bits.ones(), expected, "len {len}, want {}", want as char);
                assert!(!bits.test((len + 9) as u32), "nothing past the column");
            }
        }
    }
}
