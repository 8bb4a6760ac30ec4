//! A small multiplicative hasher for maps keyed by ids the engine itself
//! hands out.
//!
//! **Only for keys this program generates** — [`crate::PageId`]s (allocated
//! by a page store) and flash slot indices (assigned by a cache policy). The
//! standard library's SipHash defends a map against keys crafted to collide;
//! these keys come from counters inside the engine, so that defence buys
//! nothing and costs a keyed hash on every buffer lookup, directory probe and
//! in-transit check. Maps keyed by anything that arrives from outside the
//! process (user keys, file names, network input) keep the default hasher.
//!
//! The mix is one multiply by the 64-bit golden-ratio constant per word
//! written (the same constant [`crate::stripe_of`] routes with) and a fold of
//! the high half onto the low one at the end, because `HashMap` indexes
//! buckets with the low bits and a multiply only mixes upwards.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// 2^64 / φ: the multiplier of Fibonacci hashing, shared with
/// [`crate::stripe_of`].
pub(crate) const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// The hasher state; see the module docs for when it may be used.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl IdHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(32) ^ word).wrapping_mul(GOLDEN);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }

    fn write(&mut self, bytes: &[u8]) {
        let (words, rest) = bytes.as_chunks::<8>();
        for w in words {
            self.mix(u64::from_le_bytes(*w));
        }
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

/// `BuildHasher` for [`IdHasher`]: stateless, so every map hashes alike.
pub type IdBuildHasher = BuildHasherDefault<IdHasher>;

/// A `HashMap` over engine-generated ids (see the module docs).
pub type IdHashMap<K, V> = HashMap<K, V, IdBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PageId;
    use std::collections::HashSet;
    use std::hash::BuildHasher;

    #[test]
    fn dense_ids_spread_over_low_and_high_bits() {
        // `HashMap` takes its bucket from the low bits and its 7-bit tag from
        // the top ones; sequential page numbers of one file and sequential
        // slot indices must spread over both.
        let build = IdBuildHasher::default();
        let page_hashes: Vec<u64> = (0..4096u32)
            .map(|n| build.hash_one(PageId::new(3, n)))
            .collect();
        let slot_hashes: Vec<u64> = (0..4096usize).map(|s| build.hash_one(s)).collect();
        for hashes in [page_hashes, slot_hashes] {
            let low: HashSet<u64> = hashes.iter().map(|h| h & 0xFFF).collect();
            let high: HashSet<u64> = hashes.iter().map(|h| h >> 57).collect();
            // 4096 keys into 4096 buckets: a uniform hash fills ~63 %.
            assert!(low.len() > 2_000, "{} distinct low-bit buckets", low.len());
            assert_eq!(high.len(), 128, "every 7-bit tag appears");
        }
        // File and page number both count, and so does the ragged tail of a
        // key that arrives as bytes.
        assert_ne!(
            build.hash_one(PageId::new(1, 2)),
            build.hash_one(PageId::new(2, 1))
        );
        assert_ne!(
            build.hash_one(&b"abcdefghi"[..]),
            build.hash_one(&b"abcdefghj"[..])
        );
    }
}
