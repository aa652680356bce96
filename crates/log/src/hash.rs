//! The crate's one hasher for maps keyed by names from a log: a
//! word-at-a-time multiply-fold hash, keyed per map.
//!
//! The interners behind every read (`validate::EventTable`'s case and
//! activity names) and `CaseAssembler`'s open-case index look up a
//! short name per event. [`FoldHasher`] reads a name eight bytes at a
//! time and folds each word into its state with one 64×64→128-bit
//! multiply, where std's SipHash-1-3 runs its rounds per word and three
//! more to finish. The names come from the log, so every map draws its
//! own key from [`RandomState`]: a crafted log cannot aim collisions at
//! a key it does not know. The XES reader's START/END balance hashes
//! the same way, keyed by a (case id, activity id) pair packed into one
//! `u64`, which is one word to fold.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher, RandomState};

/// A `HashMap` hashed by [`FoldHasher`] under its own random key.
pub(crate) type FoldMap<K, V> = HashMap<K, V, FoldState>;

/// Builds the [`FoldHasher`]s of one map, all under the map's key.
#[derive(Debug)]
pub(crate) struct FoldState {
    key: u64,
}

impl Default for FoldState {
    /// A fresh random key: every `RandomState::new` differs from the
    /// one before it, so no two maps share a key.
    fn default() -> Self {
        FoldState {
            key: RandomState::new().hash_one(0u64),
        }
    }
}

impl BuildHasher for FoldState {
    type Hasher = FoldHasher;

    fn build_hasher(&self) -> FoldHasher {
        FoldHasher { state: self.key }
    }
}

/// The fold's multiplier: 2^64 divided by the golden ratio, made odd.
const MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

/// Multiply-fold hasher: see the module docs.
pub(crate) struct FoldHasher {
    state: u64,
}

impl FoldHasher {
    /// Folds `word` into the state: the two halves of the 128-bit
    /// product of `state ^ word` and the multiplier, xored.
    #[inline]
    fn fold(&mut self, word: u64) {
        let product = u128::from(self.state ^ word) * u128::from(MULTIPLIER);
        self.state = (product >> 64) as u64 ^ product as u64;
    }
}

/// The little-endian `u64` in the first eight bytes of `bytes`.
#[inline]
pub(crate) fn word64(bytes: &[u8]) -> u64 {
    let mut word = [0; 8];
    word.copy_from_slice(&bytes[..8]);
    u64::from_le_bytes(word)
}

/// The little-endian `u32` in the first four bytes of `bytes`.
#[inline]
fn word32(bytes: &[u8]) -> u64 {
    let mut word = [0; 4];
    word.copy_from_slice(&bytes[..4]);
    u64::from(u32::from_le_bytes(word))
}

impl Hasher for FoldHasher {
    /// Adds the length, then folds whole words, then one last word read
    /// to end at the last byte (it may overlap the words before it).
    /// Given the length, the words cover every byte, so two slices of
    /// one length that differ fold different words.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let len = bytes.len();
        self.state = self.state.wrapping_add(len as u64);
        let last = match len {
            0 => 0,
            1..=3 => {
                u64::from(bytes[0])
                    | u64::from(bytes[len / 2]) << 8
                    | u64::from(bytes[len - 1]) << 16
            }
            4..=8 => word32(bytes) | word32(&bytes[len - 4..]) << 32,
            _ => {
                let mut rest = bytes;
                while rest.len() > 8 {
                    let (word, tail) = rest.split_at(8);
                    self.fold(word64(word));
                    rest = tail;
                }
                word64(&bytes[len - 8..])
            }
        };
        self.fold(last);
    }

    /// One fold: `str`'s `Hash` ends every name with `write_u8(0xff)`.
    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.fold(u64::from(n));
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Slices of up to 24 bytes over a zero byte and `b` hash apart
    /// under one key, zero padding and overlapping words included: the
    /// words cover every byte, and the length tells `a` from `a\0`.
    #[test]
    fn short_slices_hash_apart() {
        let state = FoldState::default();
        let mut hashes = std::collections::HashSet::new();
        let mut slices = 0;
        for len in 0..=24usize {
            for bits in 0u32..(1 << len.min(12)) {
                let bytes: Vec<u8> = (0..len)
                    .map(|i| if bits >> (i % 12) & 1 == 1 { b'b' } else { 0 })
                    .collect();
                let mut hasher = state.build_hasher();
                hasher.write(&bytes);
                hashes.insert(hasher.finish());
                slices += 1;
            }
        }
        assert_eq!(hashes.len(), slices);
    }

    /// Two maps get two keys, so one name hashes differently in each.
    #[test]
    fn every_map_draws_its_own_key() {
        let (a, b) = (FoldState::default(), FoldState::default());
        assert_ne!(a.key, b.key);
        assert_ne!(a.hash_one("walk-1"), b.hash_one("walk-1"));
    }
}
