//! CRC-32 (IEEE 802.3 polynomial), table-driven, built from scratch —
//! the workspace carries no external crates (DESIGN.md §6). Frames the
//! WAL records, so a torn or bit-rotted write is detected on reopen
//! rather than silently replayed.

/// The reflected IEEE polynomial (0x04C11DB7 bit-reversed).
const POLY: u32 = 0xEDB8_8320;

/// The byte-indexed remainder table, computed at compile time.
const TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 of `bytes` (init `0xFFFF_FFFF`, final xor, reflected — the
/// standard zlib/Ethernet parameterization).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    crc ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_known_vectors() {
        // Canonical check value for the IEEE parameterization.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut data = b"guarded update sign diff".to_vec();
        let clean = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc32(&data), clean, "flip at {byte}:{bit} undetected");
                data[byte] ^= 1 << bit;
            }
        }
    }
}
