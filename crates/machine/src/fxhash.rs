//! A fast, deterministic hasher for the engine's hot maps.
//!
//! The engine keeps a few `HashMap`s whose keys are sparse by nature
//! (the target's per-block serialization times, spin watchers,
//! mailboxes); what every memory operation consults — address map,
//! region traffic, value store — is array-indexed instead (DESIGN.md
//! §12). The standard
//! `RandomState`/SipHash pays DoS-resistance costs that are pointless for
//! simulator-internal keys, and its per-process random seed makes map
//! iteration order vary between runs. This module provides the classic
//! Fx multiply-rotate hash instead: a handful of instructions per key,
//! and fully deterministic — iteration order depends only on the inserted
//! keys (call sites that expose ordering still sort explicitly).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-rotate string/word hasher (the rustc "FxHash" construction).
#[derive(Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A `HashMap` using [`FxHasher`].
pub(crate) type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write_u64(0xDEAD_BEEF);
        b.write_u64(0xDEAD_BEEF);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn distinguishes_nearby_keys() {
        let h = |n: u64| {
            let mut h = FxHasher::default();
            h.write_u64(n);
            h.finish()
        };
        assert_ne!(h(0), h(1));
        assert_ne!(h(1), h(64));
        // Block numbers differing only in high bits still spread.
        assert_ne!(h(1 << 40) >> 52, h(2 << 40) >> 52);
    }

    #[test]
    fn map_behaves_like_std() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for k in 0..1000 {
            m.insert(k * 7, k);
        }
        assert_eq!(m.len(), 1000);
        for k in 0..1000 {
            assert_eq!(m.get(&(k * 7)), Some(&k));
        }
        assert!(!m.contains_key(&3));
    }

    #[test]
    fn str_and_tuple_keys_work() {
        let mut m: FxHashMap<&'static str, u32> = FxHashMap::default();
        m.insert("barrier", 1);
        m.insert("matrix", 2);
        assert_eq!(m["barrier"], 1);
        let mut t: FxHashMap<(usize, u64), u32> = FxHashMap::default();
        t.insert((3, 99), 7);
        assert_eq!(t[&(3, 99)], 7);
    }
}
