//! Differential cache property suite: `Cache` must be observationally
//! identical to the `StampLru` oracle below — every `lookup`, `peek`,
//! `insert` (its `Evicted` victim included) and `invalidate` result, and
//! the `stats()` counters after every operation — over generated
//! operation sequences on 1-, 2-, 4- and 8-way geometries and the
//! paper's own.

use spasm_cache::{BState, Cache, CacheConfig, CacheStats, Evicted};
use spasm_testkit::{check, gens, prop_assert_eq};

/// The reference implementation: LRU by timestamp. Every lookup hit and
/// every fill takes a fresh stamp from one clock, and a full set evicts
/// its first line with the minimum stamp. Lines sit in a set in
/// insertion order, and an invalidation removes its line and keeps the
/// others in order.
struct StampLru {
    sets: Vec<Vec<Line>>,
    assoc: usize,
    clock: u64,
    stats: CacheStats,
}

#[derive(Clone, Copy)]
struct Line {
    block: u64,
    state: BState,
    stamp: u64,
}

impl StampLru {
    fn new(config: CacheConfig) -> Self {
        let sets = config.size_bytes / (config.assoc * config.block_bytes);
        StampLru {
            sets: vec![Vec::new(); sets],
            assoc: config.assoc,
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    fn set(&mut self, block: u64) -> &mut Vec<Line> {
        let n = self.sets.len() as u64;
        &mut self.sets[(block % n) as usize]
    }

    fn line(&mut self, block: u64) -> Option<&mut Line> {
        self.set(block).iter_mut().find(|l| l.block == block)
    }

    fn lookup(&mut self, block: u64) -> Option<BState> {
        self.clock += 1;
        let clock = self.clock;
        match self.line(block) {
            Some(line) => {
                line.stamp = clock;
                let state = line.state;
                self.stats.hits += 1;
                Some(state)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    fn peek(&mut self, block: u64) -> Option<BState> {
        self.line(block).map(|l| l.state)
    }

    fn set_state(&mut self, block: u64, state: BState) {
        self.line(block).expect("resident").state = state;
    }

    fn insert(&mut self, block: u64, state: BState) -> Option<Evicted> {
        self.clock += 1;
        let line = Line {
            block,
            state,
            stamp: self.clock,
        };
        let assoc = self.assoc;
        let set = self.set(block);
        if set.len() < assoc {
            set.push(line);
            return None;
        }
        let mut victim = 0;
        for (way, l) in set.iter().enumerate() {
            if l.stamp < set[victim].stamp {
                victim = way;
            }
        }
        let old = std::mem::replace(&mut set[victim], line);
        self.stats.evictions += 1;
        Some(Evicted {
            block: old.block,
            state: old.state,
        })
    }

    fn invalidate(&mut self, block: u64) -> Option<BState> {
        let set = self.set(block);
        let way = set.iter().position(|l| l.block == block)?;
        let state = set.remove(way).state;
        self.stats.invalidations += 1;
        Some(state)
    }
}

const STATES: [BState; 3] = [BState::Valid, BState::SharedDirty, BState::Dirty];

/// The block `tag * sets + set` over at most three sets, so each set
/// sees up to three more blocks than it has ways. Tag `assoc + 3` stands
/// for `u64::MAX`, the block id that is never resident.
fn block_of(sets: u64, assoc: u64, set: u64, tag: u64) -> u64 {
    let tag = tag % (assoc + 4);
    if tag == assoc + 3 {
        u64::MAX
    } else {
        tag * sets + set % sets.min(3)
    }
}

/// Runs the script through both caches in lock step, comparing every
/// return value and the statistics after each step. An op `(sel, set,
/// tag, state)` is a lookup, a peek, a write or an invalidation of
/// [`block_of`]`(set, tag)` by `sel`. A write sets the state of a
/// resident block, inserts an absent one and looks up `u64::MAX`, so no
/// op is a call that a cache refuses by panicking.
fn run_diff(config: CacheConfig, ops: &[(u64, u64, u64, u64)]) -> Result<(), String> {
    let mut cache = Cache::new(config);
    let mut oracle = StampLru::new(config);
    let (sets, assoc) = (config.sets() as u64, config.assoc as u64);
    for (step, &(sel, set, tag, state)) in ops.iter().enumerate() {
        let block = block_of(sets, assoc, set, tag);
        let state = STATES[state as usize % 3];
        let resident = oracle.peek(block).is_some();
        match sel % 6 {
            0 | 1 => {
                let (a, b) = (cache.lookup(block), oracle.lookup(block));
                prop_assert_eq!(a, b, "step {step}: lookup({block}) {a:?} vs {b:?}");
            }
            2 => {
                let (a, b) = (cache.peek(block), oracle.peek(block));
                prop_assert_eq!(a, b, "step {step}: peek({block}) {a:?} vs {b:?}");
            }
            3 | 4 if resident => {
                cache.set_state(block, state);
                oracle.set_state(block, state);
            }
            3 | 4 if block == u64::MAX => {
                let (a, b) = (cache.lookup(block), oracle.lookup(block));
                prop_assert_eq!(a, b, "step {step}: lookup({block}) {a:?} vs {b:?}");
            }
            3 | 4 => {
                let (a, b) = (cache.insert(block, state), oracle.insert(block, state));
                prop_assert_eq!(a, b, "step {step}: insert({block}) evicted {a:?} vs {b:?}");
            }
            _ => {
                let (a, b) = (cache.invalidate(block), oracle.invalidate(block));
                prop_assert_eq!(a, b, "step {step}: invalidate({block}) {a:?} vs {b:?}");
            }
        }
        let (a, b) = (cache.stats(), oracle.stats);
        prop_assert_eq!(a, b, "step {step}: stats {a:?} vs {b:?}");
    }
    Ok(())
}

fn check_geometry(name: &str, config: CacheConfig) {
    let ops = gens::vecs(
        gens::tuple4(
            gens::u64s(0..6),
            gens::u64s(0..3),
            gens::u64s(0..64),
            gens::u64s(0..3),
        ),
        1..300,
    );
    check(name, &ops, |ops| run_diff(config, ops));
}

fn geometry(sets: usize, assoc: usize) -> CacheConfig {
    CacheConfig {
        size_bytes: sets * assoc * 32,
        assoc,
        block_bytes: 32,
    }
}

#[test]
fn direct_mapped_agrees() {
    check_geometry("cache_diff/1way", geometry(4, 1));
}

#[test]
fn two_way_agrees() {
    check_geometry("cache_diff/2way", geometry(4, 2));
}

#[test]
fn four_way_agrees() {
    check_geometry("cache_diff/4way", geometry(2, 4));
}

#[test]
fn eight_way_fully_associative_agrees() {
    check_geometry("cache_diff/8way", geometry(1, 8));
}

#[test]
fn paper_geometry_agrees() {
    check_geometry("cache_diff/paper", CacheConfig::paper());
}
