//! A small, fast, non-cryptographic hasher (the FxHash algorithm used by
//! rustc), plus `HashMap`/`HashSet` aliases built on it.
//!
//! The repository's indexes are hash-heavy with short keys (interned symbols,
//! 32-bit oids), exactly the regime where SipHash's HashDoS protection costs
//! the most and buys nothing: all keys are internally generated, never
//! attacker controlled. Implemented in-repo because the reproduction is
//! dependency-minimal.
//!
//! A table indexes by the hash's *low* bits, and FxHash's product carries
//! the late input bytes only into the high ones: without a final mix, the
//! 8-byte names `art10000` … `art99999` (one word, a shared 4-byte prefix)
//! fall into at most 288 values of the low 37 bits, and a map of 90,000 of
//! them into a few hundred buckets. So [`FxHasher::finish`] rotates the
//! product's high bits down, as rustc-hash 2 does, and every bucket index
//! depends on every input byte. By 20 bits, not rustc-hash's 26: that
//! amount suits its add-then-multiply word step, and with this one's
//! rotate-xor-multiply it leaves those 90,000 names 42,577 buckets of
//! 2^17, where 20 leaves 64,835 (a random hash: 65,140).
//!
//! The page file's and the log's checksums are not this hash: they are
//! [`checksum`], FxHash's words **without** that rotation, frozen because
//! every stored page and frame validates against it.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant from the Firefox/rustc FxHash implementation.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The FxHash hasher state.
#[derive(Default, Clone)]
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
    /// The product rotated so that its high bits, which every input byte
    /// reaches, land in the low bits a table masks.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(20)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(word));
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

/// The on-disk checksum of pages and log frames: FxHash over the word
/// `seed` and then whatever `feed` writes, returned without
/// [`FxHasher::finish`]'s rotation. Frozen: the table hash may change, this
/// may not, or every existing store fails validation.
pub(crate) fn checksum(seed: u64, feed: impl FnOnce(&mut FxHasher)) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(seed);
    feed(&mut h);
    h.hash
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using [`FxHasher`].
pub type FxHashSet<K> = std::collections::HashSet<K, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_one<T: Hash>(value: T) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    #[test]
    fn deterministic_across_hasher_instances() {
        assert_eq!(hash_one(42u64), hash_one(42u64));
        assert_eq!(hash_one("strudel"), hash_one("strudel"));
    }

    #[test]
    fn distinguishes_nearby_keys() {
        assert_ne!(hash_one(1u64), hash_one(2u64));
        assert_ne!(hash_one("a"), hash_one("b"));
        assert_ne!(hash_one((1u32, 2u32)), hash_one((2u32, 1u32)));
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<&str, i32> = FxHashMap::default();
        for (i, k) in ["year", "title", "author", "abstract"].iter().enumerate() {
            m.insert(k, i as i32);
        }
        assert_eq!(m["author"], 2);
        assert_eq!(m.len(), 4);
    }

    /// The table hash's bucket index sees every byte: 90,000 one-word names
    /// with a shared prefix, masked to 2^17 buckets, spread over at least
    /// half as many distinct buckets as there are names. Without the final
    /// rotation they share 32.
    #[test]
    fn shared_prefix_keys_spread_over_the_low_bits() {
        let buckets: FxHashSet<u64> = (10_000..100_000)
            .map(|i| hash_one(format!("art{i}").as_str()) & ((1 << 17) - 1))
            .collect();
        assert!(
            buckets.len() >= 45_000,
            "{} distinct buckets",
            buckets.len()
        );
    }

    /// The checksum is today's and stays so: a value pinned on fixed input.
    #[test]
    fn checksum_is_frozen() {
        let sum = checksum(0x5354_5255_4447_4531, |h| {
            h.write(b"STRUWAL2");
            h.write_u8(2);
            h.write_u64(97);
        });
        assert_eq!(sum, 0xa448_3192_747e_6e21);
    }

    #[test]
    fn unaligned_byte_tails_hash_differently() {
        // Exercise the chunk remainder path.
        assert_ne!(
            hash_one(b"123456789".as_slice()),
            hash_one(b"123456788".as_slice())
        );
        assert_ne!(
            hash_one(b"12345678".as_slice()),
            hash_one(b"123456789".as_slice())
        );
    }
}
