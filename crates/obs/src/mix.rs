//! The workspace's two stable bit-mixing primitives, defined once here
//! because this is the one dependency-free crate every other crate
//! already reaches:
//!
//! - [`fnv1a`] — the hash behind every persisted or cached fingerprint
//!   (VM program-cache keys, analysis-graph region keys). Unlike `std`'s
//!   randomized hasher it gives the same value in every run.
//! - [`splitmix64`] — one step of the seeded generator behind trace-id
//!   minting, the workload generators (`xac_xmlgen::SplitMix64`) and the
//!   property tests.

/// FNV-1a 64-bit offset basis: the hash of the empty input.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The splitmix64 increment (2^64 / φ, the "golden gamma").
pub(crate) const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// FNV-1a over `bytes`, chained from `hash` so multi-field fingerprints
/// compose without an intermediate buffer. Start a fresh fingerprint
/// from [`FNV_OFFSET`].
#[inline]
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// One splitmix64 step (Steele, Lea & Flood, *Fast Splittable
/// Pseudorandom Number Generators*, OOPSLA 2014): advance `state` by
/// [`GOLDEN_GAMMA`] and return the mixed output.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GOLDEN_GAMMA);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_known_answers() {
        // Reference vectors of the published FNV-1a 64-bit test suite.
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        // Chaining is concatenation.
        assert_eq!(fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"), fnv1a(FNV_OFFSET, b"foobar"));
    }
}
