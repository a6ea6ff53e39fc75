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
/// Each set is its `assoc` way slots (`set * assoc + way`) in recency
/// order: the most recently used way first, empty ways (block id
/// `u64::MAX`) last. A hit moves its way to the front, a fill enters at
/// the front and evicts a full set's last way, and an invalidation closes
/// the gap, so the victim is the least recently used line
/// (`tests/cache_diff.rs` holds that against a stamped reference LRU).
/// The order is the whole replacement state: equal caches behave alike
/// for every future access sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cache {
    /// Block number per way slot, each set most recent first.
    blocks: Vec<u64>,
    /// Coherence state per way slot, parallel to `blocks` (`Valid` in an
    /// empty way).
    states: Vec<BState>,
    set_mask: u64,
    assoc: usize,
    stats: CacheStats,
}

/// The block id of an empty way; [`Cache::insert`] refuses it.
const EMPTY: u64 = u64::MAX;

impl Cache {
    /// Creates an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        let slots = sets * config.assoc;
        Cache {
            blocks: vec![EMPTY; slots],
            states: vec![BState::Valid; slots],
            set_mask: (sets - 1) as u64,
            assoc: config.assoc,
            stats: CacheStats::default(),
        }
    }

    /// First way slot of `block`'s set.
    #[inline]
    fn base_of(&self, block: u64) -> usize {
        (block & self.set_mask) as usize * self.assoc
    }

    /// Index of `block`'s way slot, if resident.
    #[inline]
    fn find(&self, block: u64) -> Option<usize> {
        let base = self.base_of(block);
        let way = self.blocks[base..base + self.assoc]
            .iter()
            .position(|&b| b == block)?;
        (block != EMPTY).then_some(base + way)
    }

    /// Moves the way at `slot` to the front of its set (`base`), keeping
    /// the order of the ways it passes.
    #[inline]
    fn move_to_front(&mut self, base: usize, slot: usize) {
        for i in (base..slot).rev() {
            self.blocks.swap(i, i + 1);
            self.states.swap(i, i + 1);
        }
    }

    /// Looks up `block`, making it its set's most recent. Counts a hit or
    /// miss.
    #[inline]
    pub fn lookup(&mut self, block: u64) -> Option<BState> {
        let Some(slot) = self.find(block) else {
            self.stats.misses += 1;
            return None;
        };
        self.stats.hits += 1;
        let base = self.base_of(block);
        self.move_to_front(base, slot);
        Some(self.states[base])
    }

    /// Looks up `block` without touching recency or statistics.
    #[inline]
    pub fn peek(&self, block: u64) -> Option<BState> {
        self.find(block).map(|slot| self.states[slot])
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
        self.states[slot] = state;
    }

    /// Inserts `block` with `state` as its set's most recent, evicting the
    /// least recent line if the set is full. Returns the victim, whose
    /// owners must be written back.
    ///
    /// # Panics
    ///
    /// Panics if the block is already resident (use [`Cache::set_state`])
    /// or is the empty-way id `u64::MAX`.
    #[inline]
    pub fn insert(&mut self, block: u64, state: BState) -> Option<Evicted> {
        assert!(block != EMPTY, "insert of the empty-way block id {block}");
        assert!(
            self.find(block).is_none(),
            "insert of already-resident block {block}"
        );
        let base = self.base_of(block);
        let last = base + self.assoc - 1;
        let evicted = (self.blocks[last] != EMPTY).then(|| Evicted {
            block: self.blocks[last],
            state: self.states[last],
        });
        self.stats.evictions += u64::from(evicted.is_some());
        self.blocks[last] = block;
        self.states[last] = state;
        self.move_to_front(base, last);
        evicted
    }

    /// Removes `block` (external invalidation). Returns the state it held.
    #[inline]
    pub fn invalidate(&mut self, block: u64) -> Option<BState> {
        let slot = self.find(block)?;
        let state = self.states[slot];
        let last = self.base_of(block) + self.assoc - 1;
        for i in slot..last {
            self.blocks.swap(i, i + 1);
            self.states.swap(i, i + 1);
        }
        self.blocks[last] = EMPTY;
        self.states[last] = BState::Valid;
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
    #[should_panic(expected = "empty-way block id")]
    fn insert_of_the_empty_way_id_panics() {
        tiny().insert(u64::MAX, BState::Valid);
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
