//! A fixed, cheap hasher for the engine's integer-keyed maps.
//!
//! std's default `RandomState` runs SipHash-1-3 under a per-process random
//! key: DoS-resistant, but several times the cost of the lookups it guards,
//! and every DES event pays at least one insert and one remove. The keys
//! here are small integers the simulation itself generates (event ids,
//! `(client, seq, direction)` triples), so a multiply-rotate word hash is
//! enough.
//!
//! Rule: a map or set built on [`FixedState`] is only ever looked up by key,
//! never iterated. Its iteration order depends on the hash, so an iterating
//! caller would tie results to this function; lookups cannot. Maps whose
//! order feeds results stay `BTreeMap`.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Odd 64-bit multiplier (the golden-ratio constant used by FxHash).
const K: u64 = 0x517c_c1b7_2722_0a95;

/// Multiply-rotate hasher: each word is folded in as
/// `h = (h.rotate_left(5) ^ word) · K`.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct MulRotHasher {
    hash: u64,
}

impl MulRotHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for MulRotHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// The `BuildHasher` for [`MulRotHasher`]: no key, so no per-process state.
pub(crate) type FixedState = BuildHasherDefault<MulRotHasher>;

/// A `HashMap` on the fixed hasher (look up by key only; never iterate).
pub(crate) type FixedMap<K, V> = HashMap<K, V, FixedState>;

/// A `HashSet` on the fixed hasher (look up by key only; never iterate).
pub(crate) type FixedSet<T> = HashSet<T, FixedState>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: &T) -> u64 {
        FixedState::default().hash_one(value)
    }

    #[test]
    fn hash_has_no_per_process_key() {
        // Only the key feeds the hash: one word hashes to word · K.
        assert_eq!(hash_of(&42u64), 42u64.wrapping_mul(K));
    }

    #[test]
    fn direction_flag_and_field_order_matter() {
        assert_ne!(hash_of(&(1u16, 2u16, true)), hash_of(&(1u16, 2u16, false)));
        assert_ne!(hash_of(&(1u16, 2u16, true)), hash_of(&(2u16, 1u16, true)));
    }

    #[test]
    fn sequential_ids_spread_over_buckets() {
        // Low bits pick the bucket: consecutive ids must not collide there.
        let mut low: Vec<u64> = (0..1024u64).map(|id| hash_of(&id) & 1023).collect();
        low.sort_unstable();
        low.dedup();
        assert_eq!(low.len(), 1024);
    }
}
