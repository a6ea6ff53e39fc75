//! The CLogP machine: LogP plus an ideal coherent cache.

use spasm_cache::{AccessKind, CoherenceController, Outcome, ProtocolKind};
use spasm_check::{CheckViolation, CoherenceChecker};
use spasm_desim::SimTime;
use spasm_topology::Topology;

use crate::{AddressMap, Buckets, CYCLE_NS, MEM_NS};

use super::{AbstractNet, Cost, MachineConfig, ModelSummary};

/// The paper's §3.2 machine: the LogP machine "augmented with an
/// abstraction for a cache at each processing node. A network access is
/// thus incurred only when the memory request cannot be satisfied by the
/// cache or local memory. The caches are maintained coherent … but the
/// overhead for maintaining the coherence is not modeled."
///
/// Concretely: the **same** Berkeley state machine as the target runs under
/// every access, but
///
/// * upgrades (invalidations, ownership changes) are free — states flip
///   globally at zero cost and zero traffic;
/// * only true data movement is priced: a miss to a remotely-homed block is
///   one abstract round trip (request + data), a miss to a locally-homed
///   block is a memory access, and an owned victim's writeback is one
///   fire-and-forget message;
/// * hits cost a cycle.
///
/// This "represents the minimum number of network messages that any
/// invalidation-based coherence protocol may hope to achieve."
#[derive(Debug)]
pub struct CLogPModel {
    net: AbstractNet,
    coherence: CoherenceController,
    /// Coherence-invariant observer (only under an enabled `CheckMode`).
    checker: Option<CoherenceChecker>,
}

impl CLogPModel {
    /// Builds the machine over `topo` for the blocks `amap` allocated.
    pub fn new(topo: &Topology, amap: &AddressMap, config: MachineConfig) -> Self {
        CLogPModel {
            net: AbstractNet::new(topo, &config),
            // The ideal cache always runs Berkeley transitions, whatever
            // protocol the target is configured with.
            coherence: CoherenceController::new(topo.nodes(), config.cache),
            checker: config.check.enabled().then(|| {
                CoherenceChecker::new(topo.nodes(), amap.blocks(), ProtocolKind::Berkeley)
            }),
        }
    }

    /// Prices one access to `block`, homed at `home`.
    ///
    /// # Errors
    ///
    /// The violation, when checking is on and an invariant breaks.
    pub fn access(
        &mut self,
        at: SimTime,
        proc: usize,
        block: u64,
        home: usize,
        amap: &AddressMap,
        kind: AccessKind,
    ) -> Result<Cost, CheckViolation> {
        let mut buckets = Buckets::default();
        let cycle = SimTime::from_ns(CYCLE_NS);
        let outcome = self.coherence.access(proc, block, kind);
        if let Some(chk) = &mut self.checker {
            chk.after_access(&self.coherence, at, proc, block, kind, &outcome)?;
        }
        let finish = match outcome {
            // Present with sufficient rights, or upgradable for free:
            // coherence actions cost nothing on this machine.
            Outcome::Hit | Outcome::UpgradeHit { .. } => {
                buckets.mem += cycle;
                at + cycle
            }
            Outcome::Miss { writeback, .. } => {
                // True data movement: fetch the block.
                let finish = if home == proc {
                    buckets.mem += SimTime::from_ns(MEM_NS);
                    at + SimTime::from_ns(MEM_NS)
                } else {
                    self.net.round_trip(at, proc, home, &mut buckets)?
                };
                // An owned victim is written back (fire and forget).
                if let Some(wb) = writeback {
                    let wb_home = amap.home_of_block(wb.block);
                    self.net.message(at, proc, wb_home, &mut buckets)?;
                }
                finish
            }
        };
        Ok(Cost { finish, buckets })
    }

    /// End-of-run invariant sweep: a full coherence-state consistency
    /// scan (nothing when checking is off).
    ///
    /// # Errors
    ///
    /// The first violated coherence invariant.
    pub fn final_check(&mut self) -> Result<(), CheckViolation> {
        match &mut self.checker {
            Some(chk) => chk.verify_all(&self.coherence),
            None => Ok(()),
        }
    }

    /// Mutable access to the abstract network (explicit messaging).
    pub(crate) fn net_mut(&mut self) -> &mut AbstractNet {
        &mut self.net
    }

    /// Run-report counters.
    pub fn summary(&self, p: usize) -> ModelSummary {
        let mut s = ModelSummary::default();
        for n in 0..p {
            let cs = self.coherence.cache_stats(n);
            s.cache_hits += cs.hits;
            s.cache_misses += cs.misses;
            s.invalidations += cs.invalidations;
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Addr;

    /// Prices an access to `addr` as the engine does: resolved to its
    /// home first.
    fn priced(
        m: &mut CLogPModel,
        amap: &AddressMap,
        at: SimTime,
        proc: usize,
        addr: Addr,
        kind: AccessKind,
    ) -> Cost {
        let home = amap.region(addr).unwrap().home;
        m.access(at, proc, addr.block(), home, amap, kind).unwrap()
    }

    fn setup() -> (CLogPModel, AddressMap) {
        let topo = Topology::full(4);
        let mut amap = AddressMap::new(4);
        for home in 0..4 {
            amap.alloc(home, 64);
        }
        (
            CLogPModel::new(&topo, &amap, MachineConfig::default()),
            amap,
        )
    }

    #[test]
    fn first_remote_read_pays_then_hits() {
        let (mut m, amap) = setup();
        let remote = Addr(512); // homed at 1
        let c1 = priced(&mut m, &amap, SimTime::ZERO, 0, remote, AccessKind::Read);
        assert_eq!(c1.buckets.msgs, 2);
        let c2 = priced(&mut m, &amap, c1.finish, 0, remote, AccessKind::Read);
        assert_eq!(c2.buckets.msgs, 0);
        assert_eq!(c2.finish, c1.finish + SimTime::from_ns(CYCLE_NS));
    }

    #[test]
    fn spatial_locality_one_fetch_per_block() {
        // Four consecutive words share a 32-byte block: one round trip
        // total, versus four on the LogP machine (the paper's FFT 4x).
        let (mut m, amap) = setup();
        let base = Addr(512);
        let mut t = SimTime::ZERO;
        let mut msgs = 0;
        for w in 0..4 {
            let c = priced(&mut m, &amap, t, 0, base.offset_words(w), AccessKind::Read);
            msgs += c.buckets.msgs;
            t = c.finish;
        }
        assert_eq!(msgs, 2); // one request + one data reply
    }

    #[test]
    fn upgrade_is_free_paper_example() {
        // §3.2: block valid in two caches; a write generates an
        // invalidation on the target but NO network access here; the other
        // processor's next read misses on both machines.
        let (mut m, amap) = setup();
        let a = Addr(512); // homed at node 1; procs 0 and 2 are remote
        priced(&mut m, &amap, SimTime::ZERO, 0, a, AccessKind::Read);
        priced(&mut m, &amap, SimTime::ZERO, 2, a, AccessKind::Read);
        let w = priced(&mut m, &amap, SimTime::ZERO, 0, a, AccessKind::Write);
        assert_eq!(w.buckets.msgs, 0, "upgrade must be free");
        let r = priced(&mut m, &amap, SimTime::ZERO, 2, a, AccessKind::Read);
        assert_eq!(r.buckets.msgs, 2, "re-read is a true communication");
    }

    #[test]
    fn local_miss_costs_memory_not_network() {
        let (mut m, amap) = setup();
        let local = Addr(0);
        let c = priced(&mut m, &amap, SimTime::ZERO, 0, local, AccessKind::Read);
        assert_eq!(c.buckets.msgs, 0);
        assert_eq!(c.finish, SimTime::from_ns(MEM_NS));
    }

    #[test]
    fn dirty_eviction_writes_back_one_message() {
        let topo = Topology::full(2);
        let mut amap = AddressMap::new(2);
        amap.alloc(0, 4096); // lots of words at node 0
        let config = MachineConfig {
            cache: spasm_cache::CacheConfig {
                size_bytes: 64, // 1 set x 2 ways: tiny, evicts fast
                assoc: 2,
                block_bytes: 32,
            },
            ..MachineConfig::default()
        };
        let mut m = CLogPModel::new(&topo, &amap, config);
        // Node 1 dirties block 0, then reads blocks 1 and 2 evicting it.
        let w = priced(&mut m, &amap, SimTime::ZERO, 1, Addr(0), AccessKind::Write);
        assert_eq!(w.buckets.msgs, 2);
        let r1 = priced(&mut m, &amap, w.finish, 1, Addr(32), AccessKind::Read);
        assert_eq!(r1.buckets.msgs, 2);
        let r2 = priced(&mut m, &amap, r1.finish, 1, Addr(64), AccessKind::Read);
        // fetch round trip (2) + writeback of dirty block 0 (1)
        assert_eq!(r2.buckets.msgs, 3);
    }
}
