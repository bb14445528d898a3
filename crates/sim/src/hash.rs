//! A fixed-key hasher for the simulator's per-packet maps.
//!
//! The hot maps of the protocol layers (in-flight memory tokens, capture
//! contexts, transfer states, engine slots) are keyed by small integers
//! that the simulation itself allocates, so they need neither DoS
//! resistance nor a per-process random seed. [`FastMap`] swaps std's
//! SipHash for one add and one multiply per word, then one rotate.
//! Nothing may depend on a map's iteration order; the fixed key only makes
//! that order reproducible, which the simulation never relies on.
//!
//! # Example
//!
//! ```
//! use sabre_sim::FastMap;
//!
//! let mut m: FastMap<u64, &str> = FastMap::default();
//! m.insert(7, "seven");
//! assert_eq!(m.get(&7), Some(&"seven"));
//! ```

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed by [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// A `HashSet` hashed by [`FastHasher`].
pub type FastSet<K> = HashSet<K, BuildHasherDefault<FastHasher>>;

/// Odd multiplier with well-spread bits (the FxHash family's 64-bit key).
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// A multiply-rotate hasher: each word is added to the state, which is
/// then multiplied by a fixed odd constant. The multiply pushes entropy
/// towards the high bits, so [`Hasher::finish`] rotates them down to where
/// the table takes its bucket index.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher(u64);

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = self.0.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
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
        self.add(i.into());
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i.into());
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(key: T) -> u64 {
        BuildHasherDefault::<FastHasher>::default().hash_one(key)
    }

    #[test]
    fn hashes_are_pinned() {
        // Any change to the mixing shows up here. The values are not
        // load-bearing for results (no map is iterated in an
        // order-dependent way), but a silent change would move every
        // table's layout and host cost.
        assert_eq!(hash_of(0u8), 0);
        assert_eq!(hash_of(1u8), K.rotate_left(26));
        assert_eq!(hash_of(7u8), 0x9d12_ca91_8e61_d971);
        assert_eq!(hash_of(0xdead_beefu32), 0xd060_f6d3_ac1a_89db);
        assert_eq!(hash_of(u64::MAX), 0x5746_7558_ec3b_2a14);
        assert_eq!(hash_of(0x0123_4567_89ab_cdefu64), 0x2c8e_98ff_aeb7_f9df);
    }

    #[test]
    fn narrow_writes_match_the_word_they_widen_to() {
        assert_eq!(hash_of(42u8), hash_of(42u64));
        assert_eq!(hash_of(42u32), hash_of(42u64));
        let mut bytes = FastHasher::default();
        bytes.write(&42u64.to_le_bytes());
        assert_eq!(bytes.finish(), hash_of(42u64));
    }

    #[test]
    fn round_trips_keys_with_colliding_low_bits() {
        // Keys that differ only above bit 32 share every low bit — the
        // pattern that would pile into one bucket without the final
        // rotate.
        let keys: Vec<u64> = (0..4096u64).map(|i| (i << 32) | 0x5a5a).collect();
        let mut m: FastMap<u64, u64> = FastMap::default();
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(m.insert(k, i as u64), None);
        }
        assert_eq!(m.len(), keys.len());
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(m.get(&k), Some(&(i as u64)));
        }
        for &k in keys.iter().step_by(2) {
            assert!(m.remove(&k).is_some());
        }
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(m.contains_key(&k), i % 2 == 1, "key {k:#x}");
        }
        let set: FastSet<u32> = (0..1024u32).map(|i| i << 20).collect();
        assert_eq!(set.len(), 1024);
        assert!(set.contains(&(5 << 20)) && !set.contains(&5));
    }
}
