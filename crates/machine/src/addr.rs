//! Simulated shared-memory addressing and NUMA placement.

use std::fmt;

/// Bytes per simulated data word (one `u64`).
pub const WORD_BYTES: u64 = 8;

/// Bytes per cache block: 32 (4 words), per the paper's §5.
pub const BLOCK_BYTES: u64 = 32;

/// A byte address in the simulated globally-shared address space.
///
/// All memory operations are word-granular; addresses handed to the engine
/// must be word-aligned. Helper methods navigate words and blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(pub u64);

impl Addr {
    /// The address `words` words past `self`.
    #[inline]
    pub fn offset_words(self, words: u64) -> Addr {
        Addr(self.0 + words * WORD_BYTES)
    }

    /// The block number containing this address.
    #[inline]
    pub fn block(self) -> u64 {
        self.0 / BLOCK_BYTES
    }

    /// The word index (global) of this address.
    #[inline]
    pub fn word_index(self) -> u64 {
        self.0 / WORD_BYTES
    }

    /// Whether the address is word-aligned.
    #[inline]
    pub fn is_word_aligned(self) -> bool {
        self.0.is_multiple_of(WORD_BYTES)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

/// A lookup of an address that no allocation covers.
///
/// Surfaced by the engine as [`crate::RunError::UnallocatedAddress`]; an
/// application that fabricates a pointer gets a typed error for the whole
/// run, not a process abort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnallocatedAddress(pub Addr);

impl fmt::Display for UnallocatedAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "address {} not allocated", self.0)
    }
}

impl std::error::Error for UnallocatedAddress {}

/// An allocation's placement: what the engine resolves a request's
/// address to, once, before any model prices it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Region {
    /// The node whose memory holds the region.
    pub(crate) home: usize,
    /// Index into [`AddressMap::labels`].
    pub(crate) label: Option<usize>,
}

/// The NUMA placement map: which node's memory is home to each address.
///
/// The paper's target gives each node "a sufficiently large piece of the
/// globally shared memory such that the data-set assigned to each processor
/// fits entirely in its portion" — placement is explicit, by allocation.
/// Allocations are block-aligned so distinct allocations never share a
/// cache block (no accidental false sharing between data structures; false
/// sharing *within* an allocation is of course still possible and is part
/// of what the paper's FFT spatial-locality discussion is about).
///
/// That alignment is also what makes a lookup one array index: every
/// block belongs to exactly one region (padding included), so the map
/// keeps one region number per allocated block and never searches.
#[derive(Debug, Clone, Default)]
pub struct AddressMap {
    regions: Vec<Region>,
    /// Block number → index into `regions`, for every allocated block.
    block_region: Vec<u32>,
    /// Distinct label texts in first-allocation order; a label's index
    /// here is its id.
    labels: Vec<&'static str>,
    next: u64,
    p: usize,
}

impl AddressMap {
    /// Creates an empty map for `p` nodes.
    pub fn new(p: usize) -> Self {
        assert!(p > 0, "need at least one node");
        AddressMap {
            p,
            ..AddressMap::default()
        }
    }

    /// Allocates `words` words homed at `home`. Returns the base address.
    ///
    /// # Panics
    ///
    /// Panics if `home` is out of range or `words` is zero.
    pub fn alloc(&mut self, home: usize, words: u64) -> Addr {
        self.alloc_labeled(home, words, None)
    }

    /// Allocates `words` words homed at `home`, attributing the region's
    /// traffic to `label` in SPASM-style per-structure profiles. Labels
    /// are compared by text: two allocations labeled `"x"` share one
    /// profile row wherever their string constants live.
    ///
    /// # Panics
    ///
    /// Panics if `home` is out of range, `words` is zero, or the
    /// allocation does not fit the address space.
    pub fn alloc_labeled(&mut self, home: usize, words: u64, label: Option<&'static str>) -> Addr {
        assert!(home < self.p, "home node {home} out of range");
        assert!(words > 0, "zero-length allocation");
        let start = self.next;
        let end = words
            .checked_mul(WORD_BYTES)
            .and_then(|bytes| start.checked_add(bytes))
            // Round the next allocation up to a block boundary.
            .and_then(|end| end.checked_next_multiple_of(BLOCK_BYTES));
        let blocks = end.and_then(|end| usize::try_from(end / BLOCK_BYTES).ok());
        let region = u32::try_from(self.regions.len());
        let (Some(end), Some(blocks), Ok(region)) = (end, blocks, region) else {
            panic!("allocation of {words} words at node {home} overflows the address space");
        };
        let label = label.map(|text| {
            self.labels
                .iter()
                .position(|&known| known == text)
                .unwrap_or_else(|| {
                    self.labels.push(text);
                    self.labels.len() - 1
                })
        });
        self.regions.push(Region { home, label });
        self.block_region.resize(blocks, region);
        self.next = end;
        Addr(start)
    }

    /// The region containing `addr`: the one lookup the engine makes per
    /// access, which both validates the address and places it.
    ///
    /// # Errors
    ///
    /// [`UnallocatedAddress`] if no allocation covers `addr` — surfaced by
    /// the engine as [`crate::RunError::UnallocatedAddress`].
    #[inline]
    pub(crate) fn region(&self, addr: Addr) -> Result<Region, UnallocatedAddress> {
        usize::try_from(addr.block())
            .ok()
            .and_then(|block| self.block_region.get(block))
            .map(|&region| self.regions[region as usize])
            .ok_or(UnallocatedAddress(addr))
    }

    /// The home node of `block`, a block some cache already holds. Every
    /// cached block was brought in by an access the engine validated, so
    /// this cannot miss.
    ///
    /// # Panics
    ///
    /// Panics if `block` is not allocated — a broken invariant.
    #[inline]
    pub(crate) fn home_of_block(&self, block: u64) -> usize {
        match self.region(Addr(block * BLOCK_BYTES)) {
            Ok(region) => region.home,
            Err(e) => panic!("cached block {block}: {e}"),
        }
    }

    /// Number of allocated blocks: block ids run densely from zero.
    pub(crate) fn blocks(&self) -> usize {
        self.block_region.len()
    }

    /// Every distinct label allocated so far, indexed by label id.
    pub(crate) fn labels(&self) -> &[&'static str] {
        &self.labels
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.p
    }

    /// Total bytes allocated (including block-alignment padding).
    pub fn allocated_bytes(&self) -> u64 {
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_and_block_math() {
        let a = Addr(64);
        assert_eq!(a.offset_words(3), Addr(88));
        assert_eq!(a.block(), 2);
        assert_eq!(Addr(95).block(), 2);
        assert_eq!(Addr(96).block(), 3);
        assert_eq!(a.word_index(), 8);
        assert!(a.is_word_aligned());
        assert!(!Addr(65).is_word_aligned());
    }

    #[test]
    fn allocations_are_block_aligned_and_disjoint() {
        let mut m = AddressMap::new(4);
        let a = m.alloc(0, 1); // 8 bytes -> padded to 32
        let b = m.alloc(1, 5); // 40 bytes -> padded to 64
        let c = m.alloc(2, 4);
        assert_eq!(a, Addr(0));
        assert_eq!(b, Addr(32));
        assert_eq!(c, Addr(96));
        assert_ne!(a.block(), b.block());
        assert_ne!(b.offset_words(4).block(), c.block());
    }

    #[test]
    fn home_lookup() {
        let mut m = AddressMap::new(4);
        let a = m.alloc(3, 4);
        let b = m.alloc(1, 100);
        let home = |addr| m.region(addr).map(|r| r.home);
        assert_eq!(home(a), Ok(3));
        assert_eq!(home(a.offset_words(3)), Ok(3));
        assert_eq!(home(b), Ok(1));
        assert_eq!(home(b.offset_words(99)), Ok(1));
    }

    #[test]
    fn unallocated_address_is_a_typed_error() {
        let mut m = AddressMap::new(2);
        m.alloc(0, 1);
        assert!(matches!(
            m.region(Addr(1000)),
            Err(UnallocatedAddress(Addr(1000)))
        ));
        assert!(UnallocatedAddress(Addr(1000))
            .to_string()
            .contains("not allocated"));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_home_panics() {
        AddressMap::new(2).alloc(2, 1);
    }

    #[test]
    #[should_panic(expected = "allocation of 2305843009213693952 words at node 1 overflows")]
    fn allocation_size_overflow_panics() {
        AddressMap::new(2).alloc(1, 1 << 61);
    }

    #[test]
    #[should_panic(expected = "overflows the address space")]
    fn allocation_end_overflow_panics() {
        let mut m = AddressMap::new(1);
        m.alloc(0, 1);
        // 2^64 - 8 bytes: the size fits a u64, the end address does not.
        m.alloc(0, u64::MAX / WORD_BYTES);
    }

    #[test]
    fn labels_are_interned_by_text() {
        let (a, b) = twins();
        let mut m = AddressMap::new(1);
        let first = m.alloc_labeled(0, 1, Some(a));
        m.alloc_labeled(0, 1, Some("other"));
        let second = m.alloc_labeled(0, 1, Some(b));
        assert_eq!(m.labels(), ["twin", "other"]);
        assert_eq!(m.region(first).unwrap().label, Some(0));
        assert_eq!(m.region(second).unwrap().label, Some(0));
    }

    /// Two labels with equal text at different addresses.
    fn twins() -> (&'static str, &'static str) {
        let (a, b) = "twintwin".split_at(4);
        assert!(a == b && !std::ptr::eq(a, b));
        (a, b)
    }

    /// The lookup the block table replaced, kept as its oracle: a binary
    /// search over the `[start, end)` intervals of the allocations made.
    #[derive(Default)]
    struct SearchedMap {
        regions: Vec<(u64, u64, usize, Option<&'static str>)>,
    }

    impl SearchedMap {
        fn region_of(&self, addr: Addr) -> Option<&(u64, u64, usize, Option<&'static str>)> {
            let i = self.regions.partition_point(|r| r.1 <= addr.0);
            self.regions
                .get(i)
                .filter(|r| r.0 <= addr.0 && addr.0 < r.1)
        }
    }

    #[test]
    fn block_table_agrees_with_the_binary_search() {
        use spasm_testkit::{check, gens, prop_assert_eq};
        let (twin_a, twin_b) = twins();
        let labels = [None, Some("a"), Some("b"), Some(twin_a), Some(twin_b)];
        let allocs = gens::vecs(
            gens::tuple3(gens::usizes(0..4), gens::u64s(1..101), gens::usizes(0..5)),
            1..40,
        );
        check("block table == binary search", &allocs, |allocs| {
            let mut map = AddressMap::new(4);
            let mut oracle = SearchedMap::default();
            let mut probes = Vec::new();
            for &(home, words, label) in allocs {
                let start = map.alloc_labeled(home, words, labels[label]).0;
                let used = start + words * WORD_BYTES;
                let end = used.div_ceil(BLOCK_BYTES) * BLOCK_BYTES;
                oracle.regions.push((start, end, home, labels[label]));
                // First byte, last word, every padding byte.
                probes.extend([start, used - WORD_BYTES]);
                probes.extend(used..end);
                prop_assert_eq!(map.allocated_bytes(), end);
            }
            probes.extend([map.allocated_bytes(), map.allocated_bytes() + BLOCK_BYTES]);
            for addr in probes.into_iter().map(Addr) {
                let found = map
                    .region(addr)
                    .map(|r| (r.home, r.label.map(|id| map.labels()[id])));
                let expected = oracle.region_of(addr).map(|r| (r.2, r.3));
                prop_assert_eq!(found, expected.ok_or(UnallocatedAddress(addr)));
            }
            Ok(())
        });
    }

    #[test]
    fn allocated_bytes_reports_padding() {
        let mut m = AddressMap::new(1);
        m.alloc(0, 1);
        assert_eq!(m.allocated_bytes(), 32);
    }
}
