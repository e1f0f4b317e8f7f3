//! One fast, deterministic hasher for the simulation path's maps.
//!
//! Every hashed map in the simulator is keyed by an integer: a sector,
//! block, group or page index, a tenant id. std's default SipHash costs
//! more than the rest of such a lookup, and its per-process random keys
//! buy nothing here: the keys come from traces the program generates,
//! not from outside input, and no map is iterated into an output without
//! being summed or sorted first. [`FastHasher`] runs each written word through
//! a splitmix64 finaliser instead, so both the low bits hashbrown buckets
//! on and the high bits it tags with depend on every key bit.
//!
//! [`FastHashMap`] and [`FastHashSet`] are plain aliases of the std
//! types: call sites keep the std API and build maps with `default()`.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A splitmix64-finalised hasher for integer keys.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher(u64);

/// The splitmix64 output function: a bijective full-avalanche mix.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Hasher for FastHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = mix(self.0 ^ n);
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(n.into());
    }
}

/// A std `HashMap` hashed by [`FastHasher`].
pub type FastHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// A std `HashSet` hashed by [`FastHasher`].
pub type FastHashSet<K> = HashSet<K, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: T) -> u64 {
        BuildHasherDefault::<FastHasher>::default().hash_one(v)
    }

    #[test]
    fn equal_keys_hash_equal_and_widths_agree() {
        assert_eq!(hash_of(7u64), hash_of(7u64));
        assert_eq!(hash_of(7u32), hash_of(7u64));
        assert_ne!(hash_of(7u64), hash_of(8u64));
    }

    #[test]
    fn sequential_keys_spread_over_low_and_high_bits() {
        // Dense sector indices must not collide in hashbrown's bucket
        // bits (low) or its tag bits (top 7).
        let n = 4096u64;
        let low: FastHashSet<u64> = (0..n).map(|k| hash_of(k) & (n - 1)).collect();
        let high: FastHashSet<u64> = (0..n).map(|k| hash_of(k) >> 57).collect();
        assert!(low.len() as u64 > n / 2, "low bits: {} distinct", low.len());
        assert_eq!(high.len(), 128, "every tag value is reachable");
    }
}
