//! The simulated shared-memory value store.

use crate::addr::WORD_BYTES;
use crate::Addr;

/// Word-granular storage for simulated shared memory values.
///
/// The machine models price *time*; the store holds *data*. Values commit
/// at an operation's completion time (the engine applies mutations when it
/// processes the completion event), so overlapping atomic operations
/// serialize in commit order. Unwritten words read as zero.
///
/// The store is the allocated address space as one dense vector indexed
/// by word ([`crate::SetupCtx`] extends it with every allocation). The
/// engine refuses an unallocated address before any request commits, so
/// every read and write is an array access; a word outside the space is a
/// broken invariant and panics naming the address.
///
/// Floating-point values are stored as `u64` bit patterns; see
/// [`ValueStore::read_f64`] / [`ValueStore::write_f64`].
#[derive(Debug, Clone, Default)]
pub struct ValueStore {
    /// Word `i` of the allocated address space.
    dense: Vec<u64>,
}

impl ValueStore {
    /// Creates an empty store (all words zero).
    pub fn new() -> Self {
        ValueStore::default()
    }

    /// Extends the store to the first `bytes` bytes of the address space,
    /// keeping every value written so far.
    pub(crate) fn cover(&mut self, bytes: u64) {
        let words = bytes / WORD_BYTES;
        let len = usize::try_from(words).expect("allocated space fits host memory");
        self.dense.resize(len, 0);
    }

    /// The dense index of the word at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the address is not word-aligned or not allocated.
    #[inline]
    fn index(&self, addr: Addr) -> usize {
        assert!(addr.is_word_aligned(), "unaligned access at {addr}");
        match usize::try_from(addr.word_index()) {
            Ok(i) if i < self.dense.len() => i,
            _ => panic!("address {addr} outside the allocated space"),
        }
    }

    /// Reads the word at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the address is not word-aligned or not allocated.
    #[inline]
    pub fn read_word(&self, addr: Addr) -> u64 {
        self.dense[self.index(addr)]
    }

    /// Writes the word at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the address is not word-aligned or not allocated.
    #[inline]
    pub fn write_word(&mut self, addr: Addr, value: u64) {
        let i = self.index(addr);
        self.dense[i] = value;
    }

    /// Reads the word at `addr` as an `f64` bit pattern.
    pub fn read_f64(&self, addr: Addr) -> f64 {
        f64::from_bits(self.read_word(addr))
    }

    /// Writes an `f64` as its bit pattern at `addr`.
    pub fn write_f64(&mut self, addr: Addr, value: f64) {
        self.write_word(addr, value.to_bits());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_words_read_zero() {
        let mut s = ValueStore::new();
        s.cover(64);
        assert_eq!(s.dense.len(), 8);
        for a in [0, 8, 56] {
            assert_eq!(s.read_word(Addr(a)), 0, "{a:#x}");
        }
    }

    #[test]
    fn write_read_roundtrip() {
        let mut s = ValueStore::new();
        s.cover(32);
        s.write_word(Addr(16), 42);
        assert_eq!(s.read_word(Addr(16)), 42);
        assert_eq!(s.read_word(Addr(24)), 0);
    }

    #[test]
    fn initial_values_reach_the_final_store() {
        use crate::{Engine, MachineKind, SetupCtx};
        let mut setup = SetupCtx::new(2);
        let ints = setup.alloc_init(1, &[10, 20, 30]);
        let reals = setup.alloc_init_f64(0, &[0.5]);
        let report = Engine::new(
            MachineKind::Pram,
            &spasm_topology::Topology::full(2),
            setup,
            vec![Box::new(|_, _| {}), Box::new(|_, _| {})],
        )
        .run()
        .expect("idle run");
        assert_eq!(report.final_store.read_word(ints.offset_words(2)), 30);
        assert_eq!(report.final_store.read_f64(reals), 0.5);
        assert_eq!(report.final_store.read_word(reals.offset_words(1)), 0);
    }

    #[test]
    fn f64_roundtrip() {
        let mut s = ValueStore::new();
        s.cover(32);
        s.write_f64(Addr(8), -1234.5e-6);
        assert_eq!(s.read_f64(Addr(8)), -1234.5e-6);
        // NaN bit patterns survive too.
        s.write_f64(Addr(16), f64::NAN);
        assert!(s.read_f64(Addr(16)).is_nan());
    }

    #[test]
    #[should_panic(expected = "address 0x20 outside the allocated space")]
    fn a_word_outside_the_allocated_space_panics() {
        let mut s = ValueStore::new();
        s.cover(32);
        s.write_word(Addr(32), 1);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_read_panics() {
        ValueStore::new().read_word(Addr(3));
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_write_panics() {
        ValueStore::new().write_word(Addr(9), 1);
    }
}
