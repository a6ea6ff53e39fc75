//! The Berkeley-protocol coherence state machine.

use crate::{BState, Cache, CacheConfig, Directory, NodeSet};

/// The two access kinds the protocol distinguishes. Atomic read-modify-write
/// operations are writes for coherence purposes (they need exclusivity).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store or atomic read-modify-write.
    Write,
}

/// Who supplies the data on a miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Supplier {
    /// The home node's memory holds the freshest copy.
    Memory,
    /// The owning cache supplies (Berkeley: memory may be stale).
    Owner(usize),
}

/// A displaced owned block that must be written back to its home memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Writeback {
    /// The victim block.
    pub block: u64,
    /// The evicting node.
    pub from: usize,
}

/// Which invalidation-based protocol the controller runs.
///
/// The paper fixes the Berkeley protocol but argues (citing Wood et al.,
/// ISCA 1993) that results are "not very sensitive to different cache
/// coherence protocols"; the second protocol lets the reproduction test
/// that claim directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ProtocolKind {
    /// Berkeley: owned blocks are supplied cache-to-cache; memory may be
    /// stale; the owner keeps ownership across reads (Dirty → SharedDirty).
    #[default]
    Berkeley,
    /// Write-back-on-read ("memory-clean"): a read of a dirty block makes
    /// the owner supply the requester *and* write the block back to its
    /// home; ownership is relinquished (owner downgrades to Valid), so
    /// later read misses are served by memory.
    WriteBackOnRead,
}

/// What one access did to the coherence state.
///
/// The machine models translate an `Outcome` into time and messages. The
/// target machine prices the request/forward/invalidate/ack/data messages;
/// the CLogP "ideal cache" prices only true data transfers (`Miss` fetches
/// and writebacks) and performs `UpgradeHit` invalidations for free.
/// It is `Copy`: the invalidated nodes are a [`NodeSet`], so no access
/// allocates to report what it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Data present with sufficient rights; no directory involvement.
    Hit,
    /// A write found the block present but not exclusive: other copies
    /// were invalidated, no data transfer is needed.
    UpgradeHit {
        /// Nodes whose copies were invalidated (may be empty).
        invalidated: NodeSet,
    },
    /// The block was not resident and was fetched.
    Miss {
        /// Where the data comes from.
        supplier: Supplier,
        /// Nodes invalidated (write misses only; empty for reads).
        invalidated: NodeSet,
        /// Owned victim displaced by the fill, if any.
        writeback: Option<Writeback>,
        /// Under [`ProtocolKind::WriteBackOnRead`], the supplying owner's
        /// simultaneous write-back of the block to its home.
        downgrade_writeback: Option<Writeback>,
    },
}

/// The coherence state machine shared by the target and CLogP machines:
/// one [`Cache`] per node plus a fully-mapped [`Directory`].
///
/// All state transitions are performed synchronously in simulator event
/// order; timing is entirely the caller's concern. This mirrors SPASM's
/// structure, where protocol state is exact and only *costs* differ between
/// machine characterizations.
#[derive(Debug, Clone)]
pub struct CoherenceController {
    caches: Vec<Cache>,
    dir: Directory,
    protocol: ProtocolKind,
}

impl CoherenceController {
    /// Creates a Berkeley-protocol controller for `p` nodes with per-node
    /// caches of the given geometry.
    pub fn new(p: usize, config: CacheConfig) -> Self {
        Self::with_protocol(p, config, ProtocolKind::Berkeley)
    }

    /// Creates a controller running the given protocol.
    pub fn with_protocol(p: usize, config: CacheConfig, protocol: ProtocolKind) -> Self {
        CoherenceController {
            caches: (0..p).map(|_| Cache::new(config)).collect(),
            dir: Directory::new(),
            protocol,
        }
    }

    /// The protocol in force.
    pub fn protocol(&self) -> ProtocolKind {
        self.protocol
    }

    /// Performs `kind` access by `node` to `block`, mutating cache and
    /// directory state, and reports what happened.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[inline]
    pub fn access(&mut self, node: usize, block: u64, kind: AccessKind) -> Outcome {
        let resident = self.caches[node].lookup(block);
        match (kind, resident) {
            (AccessKind::Read, Some(_)) => Outcome::Hit,
            (AccessKind::Write, Some(BState::Dirty)) => Outcome::Hit,
            (AccessKind::Write, Some(_)) => {
                let invalidated = self.invalidate_others(node, block);
                self.caches[node].set_state(block, BState::Dirty);
                let entry = self.dir.entry(block);
                entry.set_owner(Some(node));
                Outcome::UpgradeHit { invalidated }
            }
            (_, None) => self.miss(node, block, kind),
        }
    }

    #[inline]
    fn miss(&mut self, node: usize, block: u64, kind: AccessKind) -> Outcome {
        let entry = *self.dir.entry(block);
        let supplier = match entry.owner() {
            Some(owner) => Supplier::Owner(owner),
            None => Supplier::Memory,
        };

        let mut downgrade_writeback = None;
        let (invalidated, fill_state) = match kind {
            AccessKind::Read => {
                if let Some(owner) = entry.owner() {
                    match self.protocol {
                        ProtocolKind::Berkeley => {
                            // The owner keeps ownership; Dirty degrades to
                            // SharedDirty and keeps supplying.
                            if self.caches[owner].peek(block) == Some(BState::Dirty) {
                                self.caches[owner].set_state(block, BState::SharedDirty);
                            }
                        }
                        ProtocolKind::WriteBackOnRead => {
                            // The owner supplies, writes back, and keeps an
                            // unowned clean copy; memory is fresh again.
                            self.caches[owner].set_state(block, BState::Valid);
                            self.dir.entry(block).set_owner(None);
                            downgrade_writeback = Some(Writeback { block, from: owner });
                        }
                    }
                }
                (NodeSet::default(), BState::Valid)
            }
            AccessKind::Write => {
                let invalidated = self.invalidate_others(node, block);
                (invalidated, BState::Dirty)
            }
        };

        let writeback = self.fill(node, block, fill_state);
        let entry = self.dir.entry(block);
        entry.add_sharer(node);
        if kind == AccessKind::Write {
            entry.set_owner(Some(node));
        }
        Outcome::Miss {
            supplier,
            invalidated,
            writeback,
            downgrade_writeback,
        }
    }

    /// Invalidates every copy of `block` except `node`'s, updating both
    /// caches and directory. Returns the invalidated nodes.
    #[inline]
    fn invalidate_others(&mut self, node: usize, block: u64) -> NodeSet {
        let entry = self.dir.entry(block);
        let victims = entry.sharer_bits().without(node);
        for s in victims.iter() {
            let was = self.caches[s].invalidate(block);
            debug_assert!(was.is_some(), "directory said {s} held block {block}");
            entry.remove_sharer(s);
        }
        victims
    }

    /// Inserts `block` into `node`'s cache, handling the victim's
    /// directory bookkeeping. An owned victim produces a writeback; a
    /// clean victim is dropped silently (the directory clears its sharer
    /// bit at no cost: a free replacement hint).
    #[inline]
    fn fill(&mut self, node: usize, block: u64, state: BState) -> Option<Writeback> {
        let evicted = self.caches[node].insert(block, state)?;
        self.dir.entry(evicted.block).remove_sharer(node);
        if evicted.state.is_owned() {
            Some(Writeback {
                block: evicted.block,
                from: node,
            })
        } else {
            None
        }
    }

    /// Per-node cache statistics.
    pub fn cache_stats(&self, node: usize) -> crate::CacheStats {
        self.caches[node].stats()
    }

    /// Read-only view of a node's cache (tests, invariant checks).
    pub fn cache(&self, node: usize) -> &Cache {
        &self.caches[node]
    }

    /// Read-only view of the directory (tests, invariant checks).
    pub fn directory(&self) -> &Directory {
        &self.dir
    }

    /// Mutable view of a node's cache.
    ///
    /// Exists so fault-negative tests can corrupt protocol state directly
    /// (e.g. conjure a second `Dirty` copy) and prove a checker notices.
    /// The controller itself never needs it.
    pub fn cache_mut(&mut self, node: usize) -> &mut Cache {
        &mut self.caches[node]
    }

    /// Mutable view of the directory, for the same corruption tests as
    /// [`CoherenceController::cache_mut`].
    pub fn directory_mut(&mut self) -> &mut Directory {
        &mut self.dir
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.caches.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cc(p: usize) -> CoherenceController {
        // Small cache so eviction paths are exercisable: 4 sets x 2 ways.
        CoherenceController::new(
            p,
            CacheConfig {
                size_bytes: 256,
                assoc: 2,
                block_bytes: 32,
            },
        )
    }

    #[test]
    fn cold_read_miss_memory_supplies() {
        let mut c = cc(2);
        match c.access(0, 10, AccessKind::Read) {
            Outcome::Miss {
                supplier: Supplier::Memory,
                invalidated,
                writeback: None,
                ..
            } => assert!(invalidated.is_empty()),
            o => panic!("{o:?}"),
        }
        assert_eq!(c.cache(0).peek(10), Some(BState::Valid));
        assert!(c.directory().get(10).unwrap().is_sharer(0));
    }

    #[test]
    fn read_after_read_hits() {
        let mut c = cc(1);
        c.access(0, 10, AccessKind::Read);
        assert_eq!(c.access(0, 10, AccessKind::Read), Outcome::Hit);
    }

    #[test]
    fn write_miss_takes_ownership() {
        let mut c = cc(2);
        match c.access(1, 10, AccessKind::Write) {
            Outcome::Miss {
                supplier: Supplier::Memory,
                ..
            } => {}
            o => panic!("{o:?}"),
        }
        assert_eq!(c.cache(1).peek(10), Some(BState::Dirty));
        assert_eq!(c.directory().get(10).unwrap().owner(), Some(1));
    }

    #[test]
    fn write_hit_on_dirty_is_free() {
        let mut c = cc(1);
        c.access(0, 10, AccessKind::Write);
        assert_eq!(c.access(0, 10, AccessKind::Write), Outcome::Hit);
    }

    #[test]
    fn write_to_shared_block_upgrades_and_invalidates() {
        let mut c = cc(3);
        c.access(0, 10, AccessKind::Read);
        c.access(1, 10, AccessKind::Read);
        c.access(2, 10, AccessKind::Read);
        match c.access(0, 10, AccessKind::Write) {
            Outcome::UpgradeHit { invalidated } => {
                assert_eq!(invalidated.iter().collect::<Vec<_>>(), vec![1, 2])
            }
            o => panic!("{o:?}"),
        }
        assert_eq!(c.cache(0).peek(10), Some(BState::Dirty));
        assert_eq!(c.cache(1).peek(10), None);
        assert_eq!(c.cache(2).peek(10), None);
        let e = c.directory().get(10).unwrap();
        assert_eq!(e.owner(), Some(0));
        assert_eq!(e.sharer_count(), 1);
    }

    #[test]
    fn read_of_dirty_block_forwards_from_owner_and_downgrades() {
        let mut c = cc(2);
        c.access(0, 10, AccessKind::Write);
        match c.access(1, 10, AccessKind::Read) {
            Outcome::Miss {
                supplier: Supplier::Owner(0),
                ..
            } => {}
            o => panic!("{o:?}"),
        }
        // Berkeley: owner keeps ownership as SharedDirty; reader gets Valid.
        assert_eq!(c.cache(0).peek(10), Some(BState::SharedDirty));
        assert_eq!(c.cache(1).peek(10), Some(BState::Valid));
        assert_eq!(c.directory().get(10).unwrap().owner(), Some(0));
    }

    #[test]
    fn shared_dirty_owner_still_supplies_later_reads() {
        let mut c = cc(3);
        c.access(0, 10, AccessKind::Write);
        c.access(1, 10, AccessKind::Read);
        match c.access(2, 10, AccessKind::Read) {
            Outcome::Miss {
                supplier: Supplier::Owner(0),
                ..
            } => {}
            o => panic!("{o:?}"),
        }
    }

    #[test]
    fn write_miss_invalidates_owner_and_sharers() {
        let mut c = cc(3);
        c.access(0, 10, AccessKind::Write); // 0 Dirty owner
        c.access(1, 10, AccessKind::Read); // 0 SharedDirty, 1 Valid
        match c.access(2, 10, AccessKind::Write) {
            Outcome::Miss {
                supplier: Supplier::Owner(0),
                invalidated,
                ..
            } => {
                assert_eq!(invalidated.iter().collect::<Vec<_>>(), vec![0, 1])
            }
            o => panic!("{o:?}"),
        }
        assert_eq!(c.cache(0).peek(10), None);
        assert_eq!(c.cache(1).peek(10), None);
        assert_eq!(c.cache(2).peek(10), Some(BState::Dirty));
        assert_eq!(c.directory().get(10).unwrap().owner(), Some(2));
    }

    #[test]
    fn paper_example_write_then_read_costs_one_transfer() {
        // §3.2's example: a block Valid in two caches; a write invalidates
        // (free on CLogP), and the other processor's next read misses on
        // both machines.
        let mut c = cc(2);
        c.access(0, 10, AccessKind::Read);
        c.access(1, 10, AccessKind::Read);
        assert!(matches!(
            c.access(0, 10, AccessKind::Write),
            Outcome::UpgradeHit { .. }
        ));
        // Reader must re-fetch: a true communication event.
        assert!(matches!(
            c.access(1, 10, AccessKind::Read),
            Outcome::Miss {
                supplier: Supplier::Owner(0),
                ..
            }
        ));
    }

    #[test]
    fn eviction_of_dirty_block_writes_back() {
        let mut c = cc(1);
        // Set count = 4, so blocks 0, 4, 8 share set 0.
        c.access(0, 0, AccessKind::Write);
        c.access(0, 4, AccessKind::Read);
        match c.access(0, 8, AccessKind::Read) {
            Outcome::Miss {
                writeback: Some(Writeback { block: 0, from: 0 }),
                ..
            } => {}
            o => panic!("{o:?}"),
        }
        // Directory no longer thinks node 0 holds block 0.
        assert!(c.directory().get(0).unwrap().is_uncached());
        assert_eq!(c.directory().get(0).unwrap().owner(), None);
    }

    #[test]
    fn eviction_of_clean_block_is_silent() {
        let mut c = cc(1);
        c.access(0, 0, AccessKind::Read);
        c.access(0, 4, AccessKind::Read);
        match c.access(0, 8, AccessKind::Read) {
            Outcome::Miss {
                writeback: None, ..
            } => {}
            o => panic!("{o:?}"),
        }
    }

    #[test]
    fn read_after_writeback_comes_from_memory() {
        let mut c = cc(2);
        c.access(0, 0, AccessKind::Write);
        c.access(0, 4, AccessKind::Read);
        c.access(0, 8, AccessKind::Read); // evicts block 0 with writeback
        match c.access(1, 0, AccessKind::Read) {
            Outcome::Miss {
                supplier: Supplier::Memory,
                ..
            } => {}
            o => panic!("{o:?}"),
        }
    }

    #[test]
    fn upgrade_with_no_other_sharers() {
        let mut c = cc(2);
        c.access(0, 10, AccessKind::Read);
        match c.access(0, 10, AccessKind::Write) {
            Outcome::UpgradeHit { invalidated } => assert!(invalidated.is_empty()),
            o => panic!("{o:?}"),
        }
    }

    #[test]
    fn shared_dirty_owner_write_is_upgrade() {
        let mut c = cc(2);
        c.access(0, 10, AccessKind::Write); // Dirty@0
        c.access(1, 10, AccessKind::Read); // SharedDirty@0, Valid@1
        match c.access(0, 10, AccessKind::Write) {
            Outcome::UpgradeHit { invalidated } => {
                assert_eq!(invalidated.iter().collect::<Vec<_>>(), vec![1])
            }
            o => panic!("{o:?}"),
        }
        assert_eq!(c.cache(0).peek(10), Some(BState::Dirty));
    }

    #[test]
    fn write_back_on_read_relinquishes_ownership() {
        let mut c = CoherenceController::with_protocol(
            3,
            CacheConfig {
                size_bytes: 256,
                assoc: 2,
                block_bytes: 32,
            },
            ProtocolKind::WriteBackOnRead,
        );
        c.access(0, 10, AccessKind::Write); // 0 Dirty owner
        match c.access(1, 10, AccessKind::Read) {
            Outcome::Miss {
                supplier: Supplier::Owner(0),
                downgrade_writeback: Some(Writeback { block: 10, from: 0 }),
                ..
            } => {}
            o => panic!("{o:?}"),
        }
        // Owner downgraded to an unowned clean copy; memory is fresh.
        assert_eq!(c.cache(0).peek(10), Some(BState::Valid));
        assert_eq!(c.directory().get(10).unwrap().owner(), None);
        // The next read is served by memory, not cache-to-cache.
        match c.access(2, 10, AccessKind::Read) {
            Outcome::Miss {
                supplier: Supplier::Memory,
                downgrade_writeback: None,
                ..
            } => {}
            o => panic!("{o:?}"),
        }
    }

    #[test]
    fn berkeley_never_produces_downgrade_writebacks() {
        let mut c = cc(2);
        c.access(0, 10, AccessKind::Write);
        match c.access(1, 10, AccessKind::Read) {
            Outcome::Miss {
                downgrade_writeback: None,
                ..
            } => {}
            o => panic!("{o:?}"),
        }
        assert_eq!(c.protocol(), ProtocolKind::Berkeley);
    }

    #[test]
    fn protocols_agree_on_residency() {
        // Same access stream, both protocols: the *set of cached blocks*
        // per node matches (states/ownership may differ).
        let config = CacheConfig {
            size_bytes: 256,
            assoc: 2,
            block_bytes: 32,
        };
        let mut a = CoherenceController::with_protocol(3, config, ProtocolKind::Berkeley);
        let mut b = CoherenceController::with_protocol(3, config, ProtocolKind::WriteBackOnRead);
        let stream = [
            (0, 10, AccessKind::Write),
            (1, 10, AccessKind::Read),
            (2, 10, AccessKind::Read),
            (1, 10, AccessKind::Write),
            (0, 12, AccessKind::Read),
            (2, 10, AccessKind::Read),
        ];
        for (node, block, kind) in stream {
            a.access(node, block, kind);
            b.access(node, block, kind);
        }
        for node in 0..3 {
            for block in [10u64, 12] {
                assert_eq!(
                    a.cache(node).peek(block).is_some(),
                    b.cache(node).peek(block).is_some(),
                    "residency differs at node {node}, block {block}"
                );
            }
        }
    }
}
