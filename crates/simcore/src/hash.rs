//! The workspace's one integer hasher.
//!
//! Keys the simulator hands out itself — task ids, page indices of a
//! sparse memory or block store — are small integers that differ in their
//! low bits, so one multiply spreads them over a table's buckets and
//! control bytes. SipHash's flooding resistance buys nothing for keys no
//! outsider chooses, and costs most of a lookup.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// One-multiply hasher for integer keys the program itself generates.
#[derive(Default)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = (self.0 ^ key).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` hashed with [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consecutive_keys_spread_over_low_and_high_bits() {
        let hash = |k: u64| {
            let mut h = IntHasher::default();
            h.write_u64(k);
            h.finish()
        };
        // hashbrown takes the bucket from the low bits and the control
        // byte from the top seven: both must vary over neighbouring keys.
        let low: std::collections::BTreeSet<u64> = (0..64).map(|k| hash(k) & 63).collect();
        let high: std::collections::BTreeSet<u64> = (0..64).map(|k| hash(k) >> 57).collect();
        assert_eq!(low.len(), 64);
        assert!(high.len() > 32, "{}", high.len());
    }
}
