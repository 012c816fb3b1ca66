//! An FxHash-style multiplicative hasher.
//!
//! Transaction write sets and ownership-record lookups hash small integer
//! keys (word addresses) millions of times per run; SipHash would dominate
//! the profile. This is the same algorithm rustc uses (`rustc-hash`),
//! re-implemented here because the workspace is restricted to a small set of
//! offline dependencies.

use core::hash::{BuildHasherDefault, Hasher};
use std::collections::HashMap;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast, low-quality hasher suitable for word addresses and small keys.
///
/// Not HashDoS-resistant; do not expose to untrusted key distributions.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// Hashes a single `u64` — used for ownership-record striping where building
/// a full `Hasher` per lookup would be wasteful.
#[inline]
pub fn hash_u64(x: u64) -> u64 {
    // Same finalizer SplitMix64 uses; excellent avalanche for sequential
    // addresses, which is exactly the orec-table access pattern.
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<u32, u64> = FxHashMap::default();
        for i in 0..1000u32 {
            m.insert(i, u64::from(i) * 3);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u32 {
            assert_eq!(m[&i], u64::from(i) * 3);
        }
    }

    #[test]
    fn hasher_is_deterministic() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write_u64(42);
        b.write_u64(42);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn hash_u64_spreads_sequential_keys() {
        // Sequential addresses striped over 1024 buckets should hit a large
        // fraction of buckets, not collapse onto a few.
        let mut seen = [false; 1024];
        for i in 0..1024u64 {
            seen[(hash_u64(i) % 1024) as usize] = true;
        }
        let hit = seen.iter().filter(|&&s| s).count();
        assert!(hit > 600, "only {hit} distinct buckets");
    }

    #[test]
    fn byte_writes_match_partial_chunks() {
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(a.finish(), b.finish());
        let mut c = FxHasher::default();
        c.write(&[1, 2, 3, 4, 5, 6, 7, 8, 10]);
        assert_ne!(a.finish(), c.finish());
    }
}
