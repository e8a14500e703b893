//! The crate's one hasher for maps and sets keyed by integers the graph
//! code assigns itself (occurrences, timestamps, statement ids, page ids):
//! one rotate, xor and multiply per key word instead of a SipHash round.
//! The keys are dense ids and counters, never values a client picks, so
//! SipHash's resistance to chosen collisions buys nothing.
//!
//! Users: the slicing walk's memo and the shortcut closures' scratch
//! sets ([`crate::compact`]), the builder's dynamic-edge maps and per-frame
//! use-use memo (keyed by occurrences), and the paged cache's shard maps
//! ([`crate::paged`]).
//!
//! Not a user: the builders' memory shadow map. Its [`Cell`] keys are
//! addresses the traced program computes, so a program (and so a client
//! that loads one) chooses them; that map keeps std's SipHash.
//!
//! [`Cell`]: dynslice_runtime::Cell

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The odd multiplier (2⁶⁴ / φ) that spreads consecutive keys.
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// Multiply-rotate hasher. Each key word is folded in as
/// `h = (rotl(h, 5) ^ word) * K`; `finish` folds the well-mixed high bits
/// down onto the low bits the table picks buckets with, so keys that differ
/// only by a stride (shard `i` of `n` holds pages `i, i + n, …`) still
/// spread.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct FastHasher(u64);

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// A `HashMap` under [`FastHasher`].
pub(crate) type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// A `HashSet` under [`FastHasher`].
pub(crate) type FastSet<T> = HashSet<T, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(v: T) -> u64 {
        BuildHasherDefault::<FastHasher>::default().hash_one(v)
    }

    /// Strided page ids (one cache shard's keys) land in distinct low-bit
    /// buckets: the fold brings the multiply's high bits down.
    #[test]
    fn strided_keys_spread_over_low_bits() {
        let buckets: FastSet<u64> = (0..64u32).map(|i| hash(i * 8) & 63).collect();
        assert!(buckets.len() > 32, "only {} of 64 buckets used", buckets.len());
    }

    /// `(occurrence, timestamp)` keys that swap components hash apart.
    #[test]
    fn tuple_components_are_ordered() {
        assert_ne!(hash((1u32, 2u64)), hash((2u32, 1u64)));
        assert_eq!(hash((7u32, 9u64)), hash((7u32, 9u64)));
    }
}
