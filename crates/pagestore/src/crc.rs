//! CRC-32 for everything this workspace checksums: WAL record frames, the
//! log's restart-anchor sidecar and page images.

/// Slice-by-8 lookup tables for [`crc32`]: `CRC_TABLES[0]` is the classic
/// byte table of the reflected ISO-HDLC polynomial, and `CRC_TABLES[k][b]` is
/// the CRC of byte `b` followed by `k` zero bytes, which lets eight input
/// bytes fold into the running value with eight independent lookups.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (ISO-HDLC polynomial, table-driven, eight bytes per step) of
/// `data`. Detects torn or partially written log records at the recovery
/// boundary and, folded over a page with [`crc32_fold`], corrupt pages.
pub fn crc32(data: &[u8]) -> u32 {
    !crc32_fold(!0, data)
}

/// Fold `data` into a running CRC-32 state: start from `!0`, fold the pieces
/// in order, invert the result. `crc32(ab) == !crc32_fold(crc32_fold(!0, a), b)`.
pub fn crc32_fold(state: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = state;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][c[4] as usize]
            ^ t[2][c[5] as usize]
            ^ t[1][c[6] as usize]
            ^ t[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vector_and_sensitivity() {
        // Standard test vector: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        let a = crc32(b"face");
        let b = crc32(b"face!");
        let c = crc32(b"facf");
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn crc32_matches_the_bitwise_definition_at_every_length() {
        // The bit-at-a-time definition every stored CRC was computed with.
        fn bitwise(data: &[u8]) -> u32 {
            let mut crc: u32 = 0xFFFF_FFFF;
            for &b in data {
                crc ^= b as u32;
                for _ in 0..8 {
                    crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
                }
            }
            !crc
        }
        let data: Vec<u8> = (0..300u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        // Every length covers every remainder of the eight-byte step.
        for len in 0..=data.len() {
            assert_eq!(crc32(&data[..len]), bitwise(&data[..len]), "len {len}");
            // Folding in two pieces, split anywhere, is folding the whole.
            let (a, b) = data.split_at(len);
            assert_eq!(!crc32_fold(crc32_fold(!0, a), b), crc32(&data));
        }
    }
}
