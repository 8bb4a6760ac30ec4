//! CRC-32 for everything this workspace checksums: WAL record frames, the
//! log's restart-anchor sidecar and page images.
//!
//! One polynomial, two ways to fold it. Every stored value is the reflected
//! ISO-HDLC CRC-32 (`0xEDB8_8320`, the zlib/PNG one); [`crc32_fold`] picks
//! how to compute it per call:
//!
//! * **carry-less multiply** — on x86-64 CPUs that report `pclmulqdq` and
//!   `sse4.1`, inputs of at least [`CLMUL_MIN_LEN`] bytes fold 64 bytes per
//!   step with `PCLMULQDQ` (Intel's fold-by-4 with a Barrett reduction at the
//!   end). A 4 KiB page image takes this path; so does any WAL frame with two
//!   128-byte images in it.
//! * **slice-by-8 tables** — every other CPU, every shorter input, and the
//!   last `len % 16` bytes of a long one. The tables are also the reference
//!   the tests hold the multiply path to.
//!
//! Both produce the same 32 bits for the same bytes, so which one ran is never
//! recorded anywhere and files move freely between machines.

/// Inputs shorter than this always take the table path: below it the
/// multiply path's fixed set-up and reduction cost more than they save.
pub const CLMUL_MIN_LEN: usize = 128;

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

/// CRC-32 (reflected ISO-HDLC polynomial) of `data`. Detects torn or
/// partially written log records at the recovery boundary and, folded over a
/// page with [`crc32_fold`], corrupt pages.
pub fn crc32(data: &[u8]) -> u32 {
    !crc32_fold(!0, data)
}

/// Fold `data` into a running CRC-32 state: start from `!0`, fold the pieces
/// in order, invert the result. `crc32(ab) == !crc32_fold(crc32_fold(!0, a), b)`.
pub fn crc32_fold(state: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= CLMUL_MIN_LEN
        && std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("sse4.1")
    {
        let (blocks, tail) = data.split_at(data.len() & !15);
        // SAFETY: `pclmulqdq` and `sse4.1` were detected on this CPU just
        // above, which is all `fold_clmul`'s `#[target_feature]` asks of its
        // caller.
        let state = unsafe { clmul::fold_clmul(state, blocks) };
        return fold_tables(state, tail);
    }
    fold_tables(state, data)
}

/// The table path of [`crc32_fold`]: eight bytes per step, then byte by byte.
fn fold_tables(state: u32, data: &[u8]) -> u32 {
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

#[cfg(target_arch = "x86_64")]
mod clmul {
    //! The `PCLMULQDQ` path: "Fast CRC Computation for Generic Polynomials
    //! Using PCLMULQDQ Instruction" (Gopal et al., Intel 2009), bit-reflected
    //! variant. The constants are `x^n mod P` for the fold distances, bit
    //! reflected and shifted left by one, as that paper tabulates them for
    //! this polynomial.

    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi64x, _mm_setr_epi32, _mm_srli_si128, _mm_xor_si128,
    };

    /// Fold 512 bits ahead: `x^(4*128+32) mod P`, `x^(4*128-32) mod P`.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    /// Fold 128 bits ahead: `x^(128+32) mod P`, `x^(128-32) mod P`.
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    /// 96 → 64 bits: `x^64 mod P`.
    const K5: i64 = 0x1_63cd_6124;
    /// Barrett reduction: the polynomial `P'` and `µ = x^64 div P`.
    const POLY: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    /// `a` carried `k`'s fold distance forward, ready to absorb `next`:
    /// `a.lo·k.lo ⊕ a.hi·k.hi ⊕ next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(a: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(a, k);
        let hi = _mm_clmulepi64_si128::<0x11>(a, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// One unaligned 128-bit load.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load(block: &[u8; 16]) -> __m128i {
        // SAFETY: the reference guarantees 16 readable bytes at `block`, and
        // `_mm_loadu_si128` has no alignment requirement.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// Fold `data` into the raw CRC state `state` (see
    /// [`super::crc32_fold`]); the table path's exact result.
    ///
    /// # Panics
    /// Panics unless `data` is four or more whole 16-byte blocks.
    ///
    /// # Safety
    /// The CPU must support `pclmulqdq` and `sse4.1`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) unsafe fn fold_clmul(state: u32, data: &[u8]) -> u32 {
        let (blocks, ragged) = data.as_chunks::<16>();
        assert!(
            blocks.len() >= 4 && ragged.is_empty(),
            "fold_clmul takes whole 16-byte blocks, four or more"
        );
        let (head, rest) = blocks.split_at(4);
        let mut x0 = _mm_xor_si128(load(&head[0]), _mm_cvtsi32_si128(state as i32));
        let mut x1 = load(&head[1]);
        let mut x2 = load(&head[2]);
        let mut x3 = load(&head[3]);

        // Four independent 128-bit lanes, each folded 512 bits ahead.
        let k1k2 = _mm_set_epi64x(K2, K1);
        let mut wide = rest.chunks_exact(4);
        for c in &mut wide {
            x0 = fold(x0, k1k2, load(&c[0]));
            x1 = fold(x1, k1k2, load(&c[1]));
            x2 = fold(x2, k1k2, load(&c[2]));
            x3 = fold(x3, k1k2, load(&c[3]));
        }

        // Four lanes into one, then the remaining 16-byte blocks.
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold(x0, k3k4, x1);
        x = fold(x, k3k4, x2);
        x = fold(x, k3k4, x3);
        for block in wide.remainder() {
            x = fold(x, k3k4, load(block));
        }

        // 128 → 96 → 64 bits.
        let mask32 = _mm_setr_epi32(!0, 0, !0, 0);
        let x = _mm_xor_si128(
            _mm_srli_si128::<8>(x),
            _mm_clmulepi64_si128::<0x10>(x, k3k4),
        );
        let x = _mm_xor_si128(
            _mm_srli_si128::<4>(x),
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, mask32), _mm_set_epi64x(0, K5)),
        );

        // Barrett reduction, 64 → 32 bits.
        let poly_mu = _mm_set_epi64x(MU, POLY);
        let t = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, mask32), poly_mu);
        let t = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t, mask32), poly_mu);
        _mm_extract_epi32::<1>(_mm_xor_si128(x, t)) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bit-at-a-time definition every stored CRC was computed with.
    fn fold_bitwise(state: u32, data: &[u8]) -> u32 {
        let mut crc = state;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            }
        }
        crc
    }

    fn noise(len: usize) -> Vec<u8> {
        (0..len as u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect()
    }

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
        // A long input with a published value: 4 KiB of zeros (zlib).
        assert_eq!(crc32(&[0u8; 4096]), 0xC71C_0011);
    }

    /// Both paths against the definition: every length across the multiply
    /// path's threshold and every block remainder, the page-sized lengths the
    /// engine checksums, every start alignment, three start states.
    #[test]
    fn both_paths_match_the_bitwise_definition() {
        let data = noise(8_191 + 16);
        let lengths = (0..=300).chain([4_072, 4_076, 4_096, 8_191]);
        for len in lengths {
            for offset in 0..16 {
                let piece = &data[offset..offset + len];
                for state in [!0u32, 0, 0x1234_5678] {
                    let expected = fold_bitwise(state, piece);
                    assert_eq!(
                        fold_tables(state, piece),
                        expected,
                        "tables: len {len} offset {offset} state {state:#x}"
                    );
                    assert_eq!(
                        crc32_fold(state, piece),
                        expected,
                        "dispatch: len {len} offset {offset} state {state:#x}"
                    );
                }
            }
        }
    }

    /// Folding in two pieces, split anywhere, is folding the whole — with the
    /// pieces landing on either side of the multiply path's threshold.
    #[test]
    fn folding_is_associative_across_the_threshold() {
        let data = noise(3 * CLMUL_MIN_LEN);
        let whole = crc32(&data);
        assert_eq!(whole, !fold_bitwise(!0, &data));
        for split in 0..=data.len() {
            let (a, b) = data.split_at(split);
            assert_eq!(!crc32_fold(crc32_fold(!0, a), b), whole, "split {split}");
        }
    }
}
