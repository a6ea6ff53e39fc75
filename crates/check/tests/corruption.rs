//! Generated hostile input for the coherence checker: a healthy access
//! stream runs with the checker watching, then one generated corruption
//! of cache or directory state must make the end-of-run sweep report the
//! invariant that corruption breaks by construction (spasm-testkit).

use spasm_cache::{AccessKind, BState, CacheConfig, CoherenceController, ProtocolKind};
use spasm_check::CoherenceChecker;
use spasm_desim::SimTime;
use spasm_testkit::{check, gens, Gen};

/// Every access and corruption lies below this block id.
const BLOCKS: u64 = 16;

/// 4 sets x 2 ways: evictions happen.
const CONFIG: CacheConfig = CacheConfig {
    size_bytes: 256,
    assoc: 2,
    block_bytes: 32,
};

/// The blocks below `BLOCKS` that share `block`'s set.
fn set_of(block: u64) -> impl Iterator<Item = u64> {
    let sets = CONFIG.sets() as u64;
    (block % sets..BLOCKS).step_by(sets as usize)
}

/// The corruption menu, each with the invariant it breaks.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Corruption {
    /// A line the directory does not list appears in a free way.
    Conjure,
    /// A held line vanishes; its sharer bit stays.
    DropKeepBit,
    /// A second holder gets an owned state beside an existing owned copy.
    SecondOwner,
    /// The directory owner points at a sharer holding no owned copy.
    FalseOwner,
}

impl Corruption {
    fn invariant(self) -> &'static str {
        match self {
            Corruption::SecondOwner => "single-writer",
            _ => "directory-agreement",
        }
    }
}

/// A controller with the checker watching every access.
struct Watched {
    cc: CoherenceController,
    chk: CoherenceChecker,
    accesses: u64,
}

impl Watched {
    /// One healthy access; the checker must pass it.
    fn access(&mut self, node: usize, block: u64, kind: AccessKind) -> Result<(), String> {
        let outcome = self.cc.access(node, block, kind);
        let at = SimTime::from_ns(self.accesses * 30);
        self.accesses += 1;
        self.chk
            .after_access(&self.cc, at, node, block, kind, &outcome)
            .map_err(|v| format!("healthy access flagged: {v}"))
    }

    fn state(&self, node: usize, block: u64) -> Option<BState> {
        self.cc.cache(node).peek(block)
    }

    /// Whether `block`'s set at `node` has an empty way (every resident
    /// block lies below `BLOCKS`, so counting those counts the set).
    fn free_way(&self, node: usize, block: u64) -> bool {
        let resident = set_of(block)
            .filter(|&b| self.state(node, b).is_some())
            .count();
        resident < CONFIG.assoc
    }

    /// Empties a way of `block`'s set at `node` with healthy accesses: a
    /// write elsewhere invalidates one of the set's lines there.
    fn make_room(&mut self, node: usize, block: u64) -> Result<(), String> {
        let p = self.cc.nodes();
        while !self.free_way(node, block) {
            let line = set_of(block)
                .find(|&b| self.state(node, b).is_some())
                .expect("a full set holds a line");
            self.access((node + 1) % p, line, AccessKind::Write)?;
        }
        Ok(())
    }

    /// Evicts `block` from `node` with healthy reads of the other blocks
    /// of its set.
    fn evict(&mut self, node: usize, block: u64) -> Result<(), String> {
        for other in set_of(block) {
            if self.state(node, block).is_none() {
                break;
            }
            if other != block {
                self.access(node, other, AccessKind::Read)?;
            }
        }
        Ok(())
    }

    /// Every `(node, block)` pair, in a fixed order.
    fn pairs(&self) -> impl Iterator<Item = (usize, u64)> {
        let p = self.cc.nodes();
        (0..BLOCKS).flat_map(move |b| (0..p).map(move |n| (n, b)))
    }

    /// The generated pair satisfying `want`, after `setup` if none does.
    fn pick(
        &mut self,
        pick: u64,
        want: impl Fn(&Self, usize, u64) -> bool,
        setup: impl FnOnce(&mut Self) -> Result<(), String>,
    ) -> Result<(usize, u64), String> {
        let mut found: Vec<_> = self.pairs().filter(|&(n, b)| want(self, n, b)).collect();
        if found.is_empty() {
            setup(self)?;
            found = self.pairs().filter(|&(n, b)| want(self, n, b)).collect();
        }
        found
            .get(pick as usize % found.len().max(1))
            .copied()
            .ok_or_else(|| "setup made no candidate".to_string())
    }

    /// The first block from `from` up (wrapping) that `node` does not
    /// hold; a cache holds fewer lines than there are blocks.
    fn unheld(&self, node: usize, from: u64) -> u64 {
        (0..BLOCKS)
            .map(|i| (from + i) % BLOCKS)
            .find(|&b| self.state(node, b).is_none())
            .expect("a cache holds fewer lines than there are blocks")
    }

    /// The node holding an owned copy of `block`, if any.
    fn owner(&self, block: u64) -> Option<usize> {
        (0..self.cc.nodes()).find(|&n| self.state(n, block).is_some_and(BState::is_owned))
    }

    /// The node holding `block` Dirty, if any.
    fn dirty(&self, block: u64) -> Option<usize> {
        (0..self.cc.nodes()).find(|&n| self.state(n, block) == Some(BState::Dirty))
    }

    /// Applies `corruption`, choosing its target by `pick` among the
    /// states where it breaks only its own invariant's structure.
    fn corrupt(&mut self, corruption: Corruption, pick: u64) -> Result<(), String> {
        let p = self.cc.nodes();
        let (node, block) = ((pick % p as u64) as usize, (pick >> 8) % BLOCKS);
        let owned = if pick & (1 << 40) == 0 {
            BState::Dirty
        } else {
            BState::SharedDirty
        };
        match corruption {
            Corruption::Conjure => {
                let (n, b) = self.pick(
                    pick >> 16,
                    // Beside a Dirty copy, a new line would break
                    // single-writer first.
                    |w, n, b| w.state(n, b).is_none() && w.free_way(n, b) && w.dirty(b).is_none(),
                    |w| {
                        let b = w.unheld(node, block);
                        w.make_room(node, b)?;
                        match w.dirty(b) {
                            Some(o) => w.evict(o, b),
                            None => Ok(()),
                        }
                    },
                )?;
                assert!(self.cc.cache_mut(n).insert(b, BState::Valid).is_none());
            }
            Corruption::DropKeepBit => {
                let (n, b) = self.pick(
                    pick >> 16,
                    |w, n, b| w.state(n, b).is_some(),
                    |w| w.access(node, block, AccessKind::Read),
                )?;
                self.cc.cache_mut(n).invalidate(b);
            }
            Corruption::SecondOwner => {
                let second = |w: &Self, n: usize, b: u64| {
                    w.owner(b).is_some_and(|o| o != n)
                        && (w.state(n, b).is_some() || w.free_way(n, b))
                };
                let (n, b) = self.pick(pick >> 16, second, |w| {
                    let o = (node + 1) % p;
                    if w.state(node, block).is_none() {
                        w.make_room(node, block)?;
                    }
                    w.access(o, block, AccessKind::Write)
                })?;
                if self.state(n, b).is_some() {
                    self.cc.cache_mut(n).set_state(b, owned);
                } else {
                    assert!(self.cc.cache_mut(n).insert(b, owned).is_none());
                }
            }
            Corruption::FalseOwner => {
                let (n, b) = self.pick(
                    pick >> 16,
                    |w, n, b| w.state(n, b) == Some(BState::Valid),
                    |w| {
                        let b = w.unheld(node, block);
                        w.access(node, b, AccessKind::Read)
                    },
                )?;
                self.cc.directory_mut().entry(b).set_owner(Some(n));
            }
        }
        Ok(())
    }
}

/// (nodes, write-back-on-read, raw (node, block, write) stream,
/// (corruption, pick)).
type Case = (usize, bool, Vec<(usize, u64, bool)>, (Corruption, u64));

fn cases() -> Gen<Case> {
    gens::tuple4(
        gens::usizes(2..65),
        gens::bools(),
        gens::vecs(
            gens::tuple3(gens::usizes(0..64), gens::u64s(0..BLOCKS), gens::bools()),
            0..120,
        ),
        gens::tuple2(
            gens::choice(vec![
                Corruption::Conjure,
                Corruption::DropKeepBit,
                Corruption::SecondOwner,
                Corruption::FalseOwner,
            ]),
            gens::u64s(0..u64::MAX),
        ),
    )
}

#[test]
fn every_generated_corruption_is_reported_as_the_invariant_it_breaks() {
    check(
        "every_generated_corruption_is_reported_as_the_invariant_it_breaks",
        &cases(),
        |(p, wbor, stream, (corruption, pick))| {
            let protocol = if *wbor {
                ProtocolKind::WriteBackOnRead
            } else {
                ProtocolKind::Berkeley
            };
            let mut w = Watched {
                cc: CoherenceController::with_protocol(*p, CONFIG, protocol),
                chk: CoherenceChecker::new(*p, BLOCKS as usize, protocol),
                accesses: 0,
            };
            for &(node, block, write) in stream {
                let kind = if write {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                w.access(node % p, block, kind)?;
            }
            w.chk
                .verify_all(&w.cc)
                .map_err(|v| format!("healthy state flagged: {v}"))?;
            w.corrupt(*corruption, *pick)?;
            match w.chk.verify_all(&w.cc) {
                Ok(()) => Err(format!("{corruption:?} went unreported")),
                Err(v) if v.invariant == corruption.invariant() => Ok(()),
                Err(v) => Err(format!(
                    "{corruption:?} should break {}, reported {v}",
                    corruption.invariant()
                )),
            }
        },
    );
}
