//! Fully-mapped directory state.

use std::fmt;

/// A set of node ids below 64, one bit per node: a directory presence
/// set as a `Copy` value, so naming nodes (an [`Outcome`]'s invalidated
/// sharers, say) allocates nothing. Renders with `{:?}` as the ascending
/// list of its ids, exactly as a `Vec<usize>` of them would.
///
/// [`Outcome`]: crate::Outcome
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeSet(u64);

// Every node of the largest topology has a presence bit.
const _: () = assert!(spasm_topology::MAX_NODES <= u64::BITS as usize);

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
/// The presence set is a [`NodeSet`], which holds every node of a
/// topology of up to [`spasm_topology::MAX_NODES`] processors.
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
}

/// The directory: one [`DirEntry`] per block, indexed by block id.
///
/// Physically the directory is distributed across homes; which node is the
/// home of a block is an addressing question the machine layer answers, so
/// this type is just the state. The table grows on first touch to the
/// highest block seen; a block below that mark that no access touched
/// reads as the empty, uncached entry.
#[derive(Debug, Clone, Default)]
pub struct Directory {
    entries: Vec<DirEntry>,
}

impl Directory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        Directory::default()
    }

    /// The entry for `block`, growing the table to cover it.
    #[inline]
    pub fn entry(&mut self, block: u64) -> &mut DirEntry {
        let i = block as usize;
        if i >= self.entries.len() {
            self.entries.resize(i + 1, DirEntry::default());
        }
        &mut self.entries[i]
    }

    /// Read-only view of the entry for `block`; `None` above the highest
    /// block the table has grown to.
    pub fn get(&self, block: u64) -> Option<&DirEntry> {
        self.entries.get(block as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_entry_is_uncached() {
        let mut d = Directory::new();
        assert!(d.entry(7).sharer_bits().is_empty());
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
        assert_eq!(e.sharer_bits().len(), 2);
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
        assert!(e.sharer_bits().is_empty());
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
}
