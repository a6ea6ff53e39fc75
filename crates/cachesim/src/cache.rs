//! Set-associative cache array with LRU replacement.

use crate::BState;

/// Geometry of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Block (line) size in bytes.
    pub block_bytes: usize,
}

impl CacheConfig {
    /// The paper's §5 configuration: 64 KB, 2-way, 32-byte blocks.
    pub const fn paper() -> Self {
        CacheConfig {
            size_bytes: 64 * 1024,
            assoc: 2,
            block_bytes: 32,
        }
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sizes, non-power-of-two
    /// set count, or capacity not divisible by `assoc × block`).
    pub fn sets(&self) -> usize {
        assert!(self.size_bytes > 0 && self.assoc > 0 && self.block_bytes > 0);
        let per_way = self.size_bytes / (self.assoc * self.block_bytes);
        assert!(
            per_way * self.assoc * self.block_bytes == self.size_bytes,
            "capacity must divide evenly into ways x blocks"
        );
        assert!(
            per_way.is_power_of_two(),
            "set count must be a power of two"
        );
        per_way
    }
}

/// A line evicted to make room for an insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// Block number of the victim.
    pub block: u64,
    /// State the victim held; owners must be written back.
    pub state: BState,
}

/// Hit/miss/eviction counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found the block.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Valid lines displaced by insertions.
    pub evictions: u64,
    /// Lines removed by external invalidation.
    pub invalidations: u64,
}

/// A set-associative cache indexed by block number.
///
/// The cache stores *states only* — simulated data values live in the
/// machine's value store, so the cache answers "is this block resident and
/// with what rights", which is all the timing models need.
///
/// Lines are kept split by access pattern: a flat tag array (`blocks`)
/// indexed by `set * assoc + way` that the hit/miss scan walks, and a
/// parallel `meta` array holding the LRU stamp and coherence state that
/// are only touched once a way is chosen. The scan therefore stays within
/// one or two cache lines of host memory instead of striding over full
/// line records, and the hit bookkeeping costs a single indexed access.
///
/// Equality compares every field — tags, metadata, LRU stamps, hint,
/// clock, statistics — so `a == b` means the two caches are behaviorally
/// indistinguishable for all future access sequences.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cache {
    /// Block number per way slot (`set * assoc + way`); valid for ways
    /// below the set's `lens` entry.
    blocks: Vec<u64>,
    /// LRU stamp and state per way slot, parallel to `blocks`.
    meta: Vec<Meta>,
    /// Occupied ways per set.
    lens: Vec<u32>,
    /// Most-recently-stamped way *slot* per set (`NO_MRU` when unknown).
    /// A pure hint: a repeat hit on this slot skips the clock bump and
    /// the stamp store, which preserves the *relative* order of every
    /// stamp — the only thing victim selection reads — so eviction
    /// behaviour is bit-identical to stamping every hit. Invariant: a
    /// non-sentinel hint always points at an occupied way (sets only
    /// shrink via `invalidate`, which drops the hint).
    mru: Vec<u32>,
    set_mask: u64,
    assoc: usize,
    clock: u64,
    stats: CacheStats,
}

/// Per-way bookkeeping touched only after the tag scan picks a slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Meta {
    stamp: u64,
    state: BState,
}

/// Sentinel for [`Cache::mru`]: no valid hint for this set.
const NO_MRU: u32 = u32::MAX;

impl Cache {
    /// Creates an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        let slots = sets * config.assoc;
        Cache {
            blocks: vec![0; slots],
            meta: vec![
                Meta {
                    stamp: 0,
                    state: BState::Valid
                };
                slots
            ],
            lens: vec![0; sets],
            mru: vec![NO_MRU; sets],
            set_mask: (sets - 1) as u64,
            assoc: config.assoc,
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    #[inline]
    fn set_of(&self, block: u64) -> usize {
        (block & self.set_mask) as usize
    }

    /// Index of `block`'s way slot within its set, if resident.
    #[inline]
    fn find(&self, block: u64) -> Option<usize> {
        let set = self.set_of(block);
        let base = set * self.assoc;
        let used = self.lens[set] as usize;
        self.blocks[base..base + used]
            .iter()
            .position(|&b| b == block)
            .map(|way| base + way)
    }

    /// Looks up `block`, refreshing its LRU position. Counts a hit or miss.
    #[inline]
    pub fn lookup(&mut self, block: u64) -> Option<BState> {
        let set = self.set_of(block);
        // Fast path: a repeat hit on the set's most-recently-stamped way.
        // The line already holds the set's newest stamp, so re-stamping it
        // (and spending a clock tick) cannot change any victim choice —
        // skip both.
        let hint = self.mru[set] as usize;
        if hint != NO_MRU as usize && self.blocks[hint] == block {
            self.stats.hits += 1;
            return Some(self.meta[hint].state);
        }
        self.clock += 1;
        if let Some(slot) = self.find(block) {
            let m = &mut self.meta[slot];
            m.stamp = self.clock;
            self.mru[set] = slot as u32;
            self.stats.hits += 1;
            return Some(m.state);
        }
        self.stats.misses += 1;
        None
    }

    /// Looks up `block` without touching LRU or statistics.
    #[inline]
    pub fn peek(&self, block: u64) -> Option<BState> {
        self.find(block).map(|slot| self.meta[slot].state)
    }

    /// Changes the state of a resident block.
    ///
    /// # Panics
    ///
    /// Panics if the block is not resident — a protocol logic error.
    #[inline]
    pub fn set_state(&mut self, block: u64, state: BState) {
        let slot = self
            .find(block)
            .unwrap_or_else(|| panic!("set_state on non-resident block {block}"));
        self.meta[slot].state = state;
    }

    /// Inserts `block` with `state`, evicting the LRU line if the set is
    /// full. Returns the victim, whose owners must be written back.
    ///
    /// # Panics
    ///
    /// Panics if the block is already resident (use [`Cache::set_state`]).
    #[inline]
    pub fn insert(&mut self, block: u64, state: BState) -> Option<Evicted> {
        self.clock += 1;
        let clock = self.clock;
        let set = self.set_of(block);
        let base = set * self.assoc;
        let used = self.lens[set] as usize;
        assert!(
            !self.blocks[base..base + used].contains(&block),
            "insert of already-resident block {block}"
        );
        let slot = if used < self.assoc {
            self.lens[set] += 1;
            base + used
        } else {
            // Evict the least recently used line (first minimum stamp).
            let victim = self.meta[base..base + used]
                .iter()
                .enumerate()
                .min_by_key(|&(_, m)| m.stamp)
                .map(|(way, _)| base + way)
                .expect("full set is non-empty");
            let evicted = Evicted {
                block: self.blocks[victim],
                state: self.meta[victim].state,
            };
            self.blocks[victim] = block;
            self.meta[victim] = Meta {
                stamp: clock,
                state,
            };
            self.mru[set] = victim as u32;
            self.stats.evictions += 1;
            return Some(evicted);
        };
        self.blocks[slot] = block;
        self.meta[slot] = Meta {
            stamp: clock,
            state,
        };
        self.mru[set] = slot as u32;
        None
    }

    /// Removes `block` (external invalidation). Returns the state it held.
    #[inline]
    pub fn invalidate(&mut self, block: u64) -> Option<BState> {
        let slot = self.find(block)?;
        let state = self.meta[slot].state;
        // Swap-remove within the set: the last occupied way fills the gap.
        let set = self.set_of(block);
        let last = set * self.assoc + (self.lens[set] as usize - 1);
        self.blocks[slot] = self.blocks[last];
        self.meta[slot] = self.meta[last];
        self.lens[set] -= 1;
        // The swap-remove may have moved the most-recent line into `slot`;
        // rather than track that, drop the hint — the next hit re-stamps.
        self.mru[set] = NO_MRU;
        self.stats.invalidations += 1;
        Some(state)
    }

    /// Hit/miss/eviction counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways x 32B blocks = 128 B.
        Cache::new(CacheConfig {
            size_bytes: 128,
            assoc: 2,
            block_bytes: 32,
        })
    }

    #[test]
    fn paper_config_geometry() {
        assert_eq!(CacheConfig::paper().sets(), 1024);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_rejected() {
        CacheConfig {
            size_bytes: 96,
            assoc: 1,
            block_bytes: 32,
        }
        .sets();
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert_eq!(c.lookup(4), None);
        c.insert(4, BState::Valid);
        assert_eq!(c.lookup(4), Some(BState::Valid));
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = tiny();
        // Blocks 0, 2, 4 all map to set 0 (even blocks).
        c.insert(0, BState::Valid);
        c.insert(2, BState::Dirty);
        c.lookup(0); // 0 now more recent than 2
        let ev = c.insert(4, BState::Valid).expect("eviction");
        assert_eq!(ev.block, 2);
        assert_eq!(ev.state, BState::Dirty);
        assert_eq!(c.peek(0), Some(BState::Valid));
        assert_eq!(c.peek(2), None);
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = tiny();
        c.insert(0, BState::Valid); // set 0
        c.insert(1, BState::Valid); // set 1
        c.insert(2, BState::Valid); // set 0
        c.insert(3, BState::Valid); // set 1
        assert!(c.insert(5, BState::Valid).is_some()); // set 1 full
        assert!([0, 2, 3, 5].iter().all(|&b| c.peek(b).is_some()));
    }

    #[test]
    fn set_state_transitions() {
        let mut c = tiny();
        c.insert(8, BState::Valid);
        c.set_state(8, BState::Dirty);
        assert_eq!(c.peek(8), Some(BState::Dirty));
    }

    #[test]
    #[should_panic(expected = "non-resident")]
    fn set_state_missing_panics() {
        tiny().set_state(9, BState::Valid);
    }

    #[test]
    #[should_panic(expected = "already-resident")]
    fn double_insert_panics() {
        let mut c = tiny();
        c.insert(8, BState::Valid);
        c.insert(8, BState::Valid);
    }

    #[test]
    fn invalidate_removes_and_counts() {
        let mut c = tiny();
        c.insert(8, BState::SharedDirty);
        assert_eq!(c.invalidate(8), Some(BState::SharedDirty));
        assert_eq!(c.invalidate(8), None);
        assert_eq!(c.stats().invalidations, 1);
        assert_eq!(c.peek(8), None);
    }

    #[test]
    fn peek_does_not_affect_lru() {
        let mut c = tiny();
        c.insert(0, BState::Valid);
        c.insert(2, BState::Valid);
        c.peek(0); // must NOT refresh 0
        let ev = c.insert(4, BState::Valid).unwrap();
        assert_eq!(ev.block, 0); // 0 was still LRU
    }

    #[test]
    fn owned_states() {
        assert!(!BState::Valid.is_owned());
        assert!(BState::SharedDirty.is_owned());
        assert!(BState::Dirty.is_owned());
    }
}
