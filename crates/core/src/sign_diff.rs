//! Sign-state differences: the unit a durable transaction commits.
//!
//! A [`SignDiff`] is the net change between two [`Backend::sign_state`]
//! maps. The serving engine's durable commit does not build those maps:
//! each backend's tree keeps a byte column of its signs (one byte per
//! arena slot, which is also the relational stores' universal id;
//! [`NO_SIGN`] for no entry, else `b'+'` or `b'-'`) in copy-on-write
//! chunks, and a baseline: a clone of that column's chunk pointers as
//! of the last drain. A write copies the chunk it lands in, so a chunk
//! the column still shares with the baseline is unchanged:
//! [`Backend::sign_changes`] compares one pointer per chunk and decodes
//! only the chunks the column no longer shares ([`column_diff`]), and a
//! commit costs O(touched chunks).
//!
//! [`Backend::sign_state`]: crate::Backend::sign_state
//! [`Backend::sign_changes`]: crate::Backend::sign_changes

use std::collections::BTreeMap;
use xac_xml::CHUNK;
use xac_xmlstore::{SignChunk, SignColumn, NO_SIGN};

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

/// The changes from the sign column `old` to `new`, in the
/// [`crate::Backend::sign_state`] encoding (position = id, a
/// [`NO_SIGN`] byte = no entry). Chunks both share are skipped on one
/// pointer compare; a chunk either side lacks reads as unsigned.
pub(crate) fn column_diff(old: &SignColumn, new: &SignColumn) -> SignDiff {
    let mut diff = SignDiff::default();
    let blank = SignChunk::default();
    for c in (0..new.len().max(old.len())).filter(|&c| !new.shares(old, c)) {
        let (o, n) = (old.get(c).unwrap_or(&blank), new.get(c).unwrap_or(&blank));
        for (id, (&o, &n)) in (c * CHUNK..).zip(o.0.iter().zip(&n.0)) {
            match n {
                _ if o == n => {}
                NO_SIGN => diff.clear.push(id as i64),
                _ => diff.set.push((id as i64, n as char)),
            }
        }
    }
    diff
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

    /// Random columns of up to eight chunks: each round grows the column
    /// by a whole chunk, reloads it one or two chunks shorter, or keeps
    /// it, then writes a few bytes (now and then every byte, or a byte's
    /// own value back) — `bytes` mirrors it. Every drain is the map
    /// diff, and a baseline that shares every chunk drains nothing.
    #[test]
    fn drain_matches_the_map_diff_on_random_columns() {
        let mut state = 0xd1ff_c0deu64;
        let mut next = |bound: u64| xac_obs::splitmix64(&mut state) % bound;
        let mut baseline = SignColumn::default();
        let mut column = SignColumn::default();
        let mut bytes: Vec<u8> = Vec::new();
        let mut reference = BTreeMap::new();
        for round in 0..300 {
            match next(5) {
                0 if bytes.len() < 8 * CHUNK => {
                    bytes.resize(bytes.len() + CHUNK, NO_SIGN);
                    column.cover(bytes.len());
                }
                1 => {
                    // A reload of a smaller document: a fresh column.
                    bytes.truncate(bytes.len().saturating_sub((1 + next(2) as usize) * CHUNK));
                    let slots: Vec<usize> = (0..bytes.len()).collect();
                    column = SignColumn::default();
                    column.cover(bytes.len());
                    column.write_runs(&slots, |&s| s, |chunk, run| {
                        run.iter().for_each(|&s| chunk.0[xac_xml::locate(s).1] = bytes[s])
                    });
                }
                _ => {}
            }
            let flips = if round % 7 == 0 { bytes.len() } else { next(6) as usize };
            for _ in 0..flips.min(bytes.len()) {
                let at = next(bytes.len() as u64) as usize;
                let b = if next(4) == 0 { bytes[at] } else { [NO_SIGN, b'+', b'-'][next(3) as usize] };
                bytes[at] = b;
                let (chunk, o) = column.at_mut(at);
                chunk.0[o] = b;
            }
            let diff = column_diff(&baseline, &column);
            let now = map_of(&bytes);
            assert_eq!(diff, SignDiff::between(&reference, &now), "round {round}");
            diff.apply_to(&mut reference);
            assert_eq!(reference, now, "round {round}: the patched map is the new state");
            baseline = column.clone();
            assert!(column_diff(&baseline, &column).is_empty(), "round {round}: all shared");
        }
    }
}
