//! Fully-mapped directory state.

use std::fmt;

use crate::{fnv_word, FNV_OFFSET};

/// A set of node ids below 64, one bit per node: a directory presence
/// set as a `Copy` value, so naming nodes (an [`Outcome`]'s invalidated
/// sharers, say) allocates nothing. Renders with `{:?}` as the ascending
/// list of its ids, exactly as a `Vec<usize>` of them would.
///
/// [`Outcome`]: crate::Outcome
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeSet(u64);

impl NodeSet {
    /// The members in ascending id order. Iterates by clearing the lowest
    /// set bit, so the cost is one step per member rather than one per
    /// possible node.
    #[inline]
    pub fn iter(self) -> impl Iterator<Item = usize> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let node = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            Some(node)
        })
    }

    /// True when the set has no member.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of members.
    #[inline]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether `node` is a member.
    #[inline]
    pub fn contains(self, node: usize) -> bool {
        node < 64 && self.0 & (1 << node) != 0
    }

    /// Adds `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is 64 or more.
    #[inline]
    pub fn insert(&mut self, node: usize) {
        assert!(node < 64, "directory presence set supports up to 64 nodes");
        self.0 |= 1 << node;
    }

    /// The set without `node`.
    #[inline]
    pub fn without(self, node: usize) -> NodeSet {
        NodeSet(self.0 & !1u64.checked_shl(node as u32).unwrap_or(0))
    }
}

impl fmt::Debug for NodeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// One block's directory entry: a full-map presence set plus the Berkeley
/// owner (the cache responsible for supplying data and writing back).
///
/// The presence set is a bit set over node ids, which bounds the system at
/// 64 processors — comfortably above the paper's 32-processor sweeps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DirEntry {
    sharers: NodeSet,
    owner: Option<usize>,
}

impl DirEntry {
    /// Nodes currently holding the block (including the owner), in
    /// ascending id order.
    #[inline]
    pub fn sharers(&self) -> impl Iterator<Item = usize> {
        self.sharers.iter()
    }

    /// The presence set itself.
    #[inline]
    pub fn sharer_bits(&self) -> NodeSet {
        self.sharers
    }

    /// Whether `node` holds a copy.
    pub fn is_sharer(&self, node: usize) -> bool {
        self.sharers.contains(node)
    }

    /// Number of nodes holding the block.
    pub fn sharer_count(&self) -> u32 {
        self.sharers.len() as u32
    }

    /// The owning cache, if any cache owns the block.
    #[inline]
    pub fn owner(&self) -> Option<usize> {
        self.owner
    }

    /// Marks `node` as holding a copy.
    #[inline]
    pub fn add_sharer(&mut self, node: usize) {
        self.sharers.insert(node);
    }

    /// Clears `node`'s presence (and ownership if it was the owner).
    #[inline]
    pub fn remove_sharer(&mut self, node: usize) {
        self.sharers = self.sharers.without(node);
        if self.owner == Some(node) {
            self.owner = None;
        }
    }

    /// Transfers ownership to `node` (which must be a sharer).
    #[inline]
    pub fn set_owner(&mut self, node: Option<usize>) {
        if let Some(n) = node {
            assert!(self.is_sharer(n), "owner must hold the block");
        }
        self.owner = node;
    }

    /// True when no cache holds the block (memory is the only copy).
    pub fn is_uncached(&self) -> bool {
        self.sharers.is_empty()
    }
}

/// The directory: block number → [`DirEntry`].
///
/// Physically the directory is distributed across homes; which node is the
/// home of a block is an addressing question the machine layer answers, so
/// this type is just the (sparse) state map.
///
/// The map is a purpose-built open-addressing table rather than a general
/// `HashMap`: directory entries are touched on every miss and upgrade, and
/// **never removed** (a block whose last copy is evicted keeps an empty
/// entry — `is_uncached` — exactly as the `HashMap` version did). That
/// insert-only discipline permits plain linear probing with no tombstones,
/// and block numbers hash with a single Fibonacci multiply instead of
/// SipHash.
///
/// Equality compares the physical table (slot layout included), so it
/// only holds between directories with identical insertion histories.
/// For a layout-independent comparison use [`Directory::state_hash`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Directory {
    /// Power-of-two slot array; `None` is an empty slot.
    slots: Vec<Option<(u64, DirEntry)>>,
    /// Occupied slot count.
    items: usize,
    /// `64 - log2(slots.len())`: shift applied to the hashed key.
    shift: u32,
}

const DIR_INITIAL_SLOTS: usize = 64;

impl Default for Directory {
    fn default() -> Self {
        Directory {
            slots: vec![None; DIR_INITIAL_SLOTS],
            items: 0,
            shift: 64 - DIR_INITIAL_SLOTS.trailing_zeros(),
        }
    }
}

impl Directory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        Directory::default()
    }

    /// Fibonacci-hash home slot for `block`.
    #[inline]
    fn slot_of(&self, block: u64) -> usize {
        (block.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// Index of the slot holding `block`, or of the empty slot where it
    /// would be inserted. With no deletions the probe chain from the home
    /// slot to the first empty slot is authoritative.
    #[inline]
    fn probe(&self, block: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = self.slot_of(block);
        loop {
            match &self.slots[i] {
                Some((k, _)) if *k != block => i = (i + 1) & mask,
                _ => return i,
            }
        }
    }

    fn grow(&mut self) {
        let new_len = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![None; new_len]);
        self.shift = 64 - new_len.trailing_zeros();
        for slot in old.into_iter().flatten() {
            let i = self.probe(slot.0);
            self.slots[i] = Some(slot);
        }
    }

    /// The entry for `block`, creating an empty one on first touch.
    #[inline]
    pub fn entry(&mut self, block: u64) -> &mut DirEntry {
        // Keep the load factor under ~70% so probe chains stay short.
        if self.items * 10 >= self.slots.len() * 7 {
            self.grow();
        }
        let i = self.probe(block);
        if self.slots[i].is_none() {
            self.slots[i] = Some((block, DirEntry::default()));
            self.items += 1;
        }
        &mut self.slots[i]
            .as_mut()
            .expect("probe returned occupied or inserted slot")
            .1
    }

    /// Read-only view of the entry for `block`, if it was ever touched.
    pub fn get(&self, block: u64) -> Option<&DirEntry> {
        self.slots[self.probe(block)].as_ref().map(|(_, e)| e)
    }

    /// Number of blocks with directory state.
    pub fn len(&self) -> usize {
        self.items
    }

    /// True when no block has directory state.
    pub fn is_empty(&self) -> bool {
        self.items == 0
    }

    /// All blocks with directory state, in no particular order
    /// (invariant checkers scan this; sort before comparing).
    pub fn blocks(&self) -> impl Iterator<Item = u64> + '_ {
        self.slots.iter().flatten().map(|&(k, _)| k)
    }

    /// A 64-bit digest of the directory's *logical* state: per-entry
    /// hashes combined commutatively, so the digest is independent of
    /// slot layout and table capacity (entries land in different slots
    /// after a [`Directory::grow`], but the hash is unchanged).
    pub fn state_hash(&self) -> u64 {
        let mut acc = 0u64;
        for &(block, entry) in self.slots.iter().flatten() {
            let mut h = FNV_OFFSET;
            fnv_word(&mut h, block);
            fnv_word(&mut h, entry.sharers.0);
            fnv_word(&mut h, entry.owner.map_or(u64::MAX, |o| o as u64));
            // Commutative fold: wrapping add is order-insensitive.
            acc = acc.wrapping_add(h);
        }
        let mut out = FNV_OFFSET;
        fnv_word(&mut out, self.items as u64);
        fnv_word(&mut out, acc);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_entry_is_uncached() {
        let mut d = Directory::new();
        assert!(d.entry(7).is_uncached());
        assert_eq!(d.entry(7).owner(), None);
    }

    #[test]
    fn sharers_roundtrip() {
        let mut e = DirEntry::default();
        e.add_sharer(3);
        e.add_sharer(5);
        assert!(e.is_sharer(3));
        assert!(!e.is_sharer(4));
        assert_eq!(e.sharers().collect::<Vec<_>>(), vec![3, 5]);
        assert_eq!(e.sharer_count(), 2);
        e.remove_sharer(3);
        assert!(!e.is_sharer(3));
    }

    #[test]
    fn node_set_renders_like_a_vec() {
        let mut s = NodeSet::default();
        assert_eq!(format!("{s:?}"), "[]");
        for n in [63, 2, 1] {
            s.insert(n);
        }
        assert_eq!(format!("{s:?}"), format!("{:?}", vec![1usize, 2, 63]));
        assert_eq!(format!("{:?}", s.without(2)), "[1, 63]");
        assert_eq!(s.without(64), s);
    }

    #[test]
    fn owner_cleared_when_removed() {
        let mut e = DirEntry::default();
        e.add_sharer(2);
        e.set_owner(Some(2));
        assert_eq!(e.owner(), Some(2));
        e.remove_sharer(2);
        assert_eq!(e.owner(), None);
        assert!(e.is_uncached());
    }

    #[test]
    #[should_panic(expected = "owner must hold")]
    fn owner_must_be_sharer() {
        let mut e = DirEntry::default();
        e.set_owner(Some(1));
    }

    #[test]
    #[should_panic(expected = "up to 64 nodes")]
    fn presence_set_bound() {
        let mut e = DirEntry::default();
        e.add_sharer(64);
    }

    #[test]
    fn directory_len_tracks_touched_blocks() {
        let mut d = Directory::new();
        assert!(d.is_empty());
        d.entry(1).add_sharer(0);
        d.entry(2).add_sharer(0);
        d.entry(1).add_sharer(1);
        assert_eq!(d.len(), 2);
        assert!(d.get(3).is_none());
        assert!(d.get(1).unwrap().is_sharer(1));
    }
}
