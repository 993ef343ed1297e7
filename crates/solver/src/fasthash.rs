//! The hasher for keys the program makes itself.
//!
//! std's `HashMap` defaults to SipHash-1-3, which resists collision
//! flooding by attacker-chosen keys at the price of a dozen rounds per
//! word. Most maps of the solver and both guided searches are keyed by
//! values no input can choose: arena handles ([`ExprRef`], [`VarId`]),
//! structural [`Node`]s over them, branch ids, and FNV-128 digests of
//! literal vectors. For those, [`FastHasher`] does one rotate, xor and
//! multiply per word.
//!
//! A key that can carry a value from a bug report (a constant, a file
//! name, a crash class) keeps SipHash: the arena interns constants in
//! their own `i64`-keyed map for that reason.
//!
//! [`ExprRef`]: crate::ExprRef
//! [`VarId`]: crate::VarId
//! [`Node`]: crate::Node

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// An odd 64-bit multiplier with well-spread bits: ⌊2^64 / π⌋ + 1.
const MULTIPLIER: u64 = 0x517c_c1b7_2722_0a95;

/// A multiply–rotate hasher for internal keys.
///
/// Each word is mixed as `h = (h.rotate_left(5) ^ word) * MULTIPLIER`.
/// A product's low bits depend only on its operands' low bits, so a key
/// whose entropy sits in its high half (`k << 32`, a `Node::Const` of a
/// shifted value) would leave the low bits of `h` constant. hashbrown
/// picks buckets from the low bits, so [`finish`](Hasher::finish) folds
/// the high half into the low one.
#[derive(Debug, Default, Clone, Copy)]
pub struct FastHasher(u64);

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(MULTIPLIER);
    }
}

impl Hasher for FastHasher {
    /// Bytes one word each: no internal key hashes a byte string, and
    /// `bool` and `u8` fields arrive here one byte at a time.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.add(v as u64);
        self.add((v >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// Builds [`FastHasher`]s (stateless, so every map hashes alike).
pub type FastState = BuildHasherDefault<FastHasher>;

/// A `HashMap` over internal keys.
pub type FastMap<K, V> = HashMap<K, V, FastState>;

/// A `HashSet` over internal keys.
pub type FastSet<K> = HashSet<K, FastState>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::Node;
    use crate::cache::Fnv128;
    use std::hash::{BuildHasher, Hash};

    /// The fullest of 1024 buckets (the low 10 bits of the hash) that
    /// `keys` land in.
    fn fullest_bucket<T: Hash>(keys: impl Iterator<Item = T>) -> usize {
        let mut buckets = vec![0usize; 1024];
        for k in keys {
            buckets[(FastState::default().hash_one(k) & 1023) as usize] += 1;
        }
        buckets.into_iter().max().expect("1024 buckets")
    }

    #[test]
    fn low_bits_spread_every_key_shape() {
        let n = 4096u64;
        let shapes = [
            ("k", fullest_bucket(0..n)),
            ("k << 32", fullest_bucket((0..n).map(|k| k << 32))),
            (
                "Node::Const(k << 32)",
                fullest_bucket((0..n).map(|k| Node::Const((k << 32) as i64))),
            ),
            (
                "FNV-128 digest",
                fullest_bucket((0..n).map(|k| {
                    let mut h = Fnv128::new();
                    h.mix(u128::from(k));
                    h.value()
                })),
            ),
        ];
        for (shape, fullest) in shapes {
            assert!(
                fullest <= 16,
                "{shape}: {fullest} of 4096 keys share one of 1024 buckets"
            );
        }
    }
}
