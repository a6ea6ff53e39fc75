//! The CC-NUMA target machine: full protocol, link-level network.

use spasm_cache::{AccessKind, CoherenceController, NodeSet, Outcome, Supplier};
use spasm_check::{network_conformance, CheckViolation, CoherenceChecker};
use spasm_desim::SimTime;
use spasm_net::{Delivery, Network};
use spasm_topology::{NodeId, Topology};

use crate::{AddressMap, Buckets, CTRL_BYTES, CYCLE_NS, DATA_BYTES, MEM_NS};

use super::{Cost, MachineConfig, ModelSummary};

/// The machine the abstractions are measured against (§5): every coherence
/// action is a real message on the circuit-switched network, and the home
/// node's memory module serializes block fills and writebacks.
///
/// Transaction shapes (all messages priced by the link-level network):
///
/// * **read/write hit** — one cycle, no traffic;
/// * **upgrade** (write to a present, non-exclusive block) — 8 B request to
///   the home; the home sends 8 B invalidations to every other holder *in
///   parallel*; each replies with an 8 B ack; an 8 B grant returns to the
///   requester;
/// * **read miss** — 8 B request; data supplied either by the home memory
///   (300 ns module access, 32 B data message) or, Berkeley-style, by the
///   owning cache (8 B forward + 32 B cache-to-cache transfer);
/// * **write miss** — read-miss data path plus the upgrade invalidation
///   fan-out; completion is the later of data arrival and grant arrival;
/// * **replacement of an owned block** — a fire-and-forget 32 B writeback
///   to the home (charged to the evicting processor's traffic, but not
///   blocking it).
///
/// Overlapping transactions on the same block serialize at the home
/// (`dir_wait` bucket) — this is what makes hot synchronization words
/// expensive on the target, as in the paper's IS experience.
#[derive(Debug)]
pub struct TargetModel {
    net: Network,
    coherence: CoherenceController,
    /// Home node → when its memory module finishes its last fill or
    /// writeback.
    memory_free: Vec<SimTime>,
    /// Block id → when the home finishes its last transaction on it.
    block_free: Vec<SimTime>,
    /// Coherence-invariant observer (only under an enabled `CheckMode`,
    /// which also turns on the per-message network-conformance check).
    checker: Option<CoherenceChecker>,
}

impl TargetModel {
    /// Builds the machine over `topo` with the configured cache geometry,
    /// coherence protocol and invariant-checking mode, for the blocks
    /// `amap` allocated.
    pub fn new(topo: &Topology, amap: &AddressMap, config: MachineConfig) -> Self {
        let p = topo.nodes();
        TargetModel {
            net: Network::new(*topo),
            coherence: CoherenceController::with_protocol(p, config.cache, config.protocol),
            memory_free: vec![SimTime::ZERO; p],
            block_free: vec![SimTime::ZERO; amap.blocks()],
            checker: config
                .check
                .enabled()
                .then(|| CoherenceChecker::new(p, amap.blocks(), config.protocol)),
        }
    }

    /// Sends one message. Every endpoint is a node the engine checked or
    /// the address map or directory named, so routing cannot fail.
    fn send(
        &mut self,
        at: SimTime,
        src: usize,
        dst: usize,
        bytes: u64,
        buckets: &mut Buckets,
    ) -> Result<Delivery, CheckViolation> {
        let d = self.net.send(at, NodeId(src), NodeId(dst), bytes);
        if src != dst {
            buckets.latency += d.latency;
            buckets.contention += d.contention;
            buckets.msgs += 1;
            buckets.bytes += bytes;
            if self.checker.is_some() {
                network_conformance(at, src, dst, &d)?;
            }
        }
        Ok(d)
    }

    /// Serializes transactions per block at the home directory. `block`
    /// is one the engine validated, so it indexes `block_free`.
    fn block_start(&self, block: u64, arrive: SimTime, buckets: &mut Buckets) -> SimTime {
        let start = arrive.max(self.block_free[block as usize]);
        buckets.dir_wait += start - arrive;
        start
    }

    /// Serves one module access at `home`'s memory, first come first
    /// served: returns when it finishes and how long it queued.
    fn memory_access(&mut self, home: usize, arrive: SimTime) -> (SimTime, SimTime) {
        let start = arrive.max(self.memory_free[home]);
        self.memory_free[home] = start + SimTime::from_ns(MEM_NS);
        (self.memory_free[home], start - arrive)
    }

    /// Invalidation fan-out from `home`: returns the time all acks are in.
    fn invalidate(
        &mut self,
        t0: SimTime,
        home: usize,
        victims: NodeSet,
        buckets: &mut Buckets,
    ) -> Result<SimTime, CheckViolation> {
        let cycle = SimTime::from_ns(CYCLE_NS);
        let mut all_acked = t0;
        for s in victims.iter() {
            let inv = self.send(t0, home, s, CTRL_BYTES, buckets)?;
            let ack = self.send(inv.arrive + cycle, s, home, CTRL_BYTES, buckets)?;
            all_acked = all_acked.max(ack.arrive);
        }
        Ok(all_acked)
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
            Outcome::Hit => {
                buckets.mem += cycle;
                at + cycle
            }
            Outcome::UpgradeHit { invalidated } => {
                let req = self.send(at, proc, home, CTRL_BYTES, &mut buckets)?;
                let t0 = self.block_start(block, req.arrive, &mut buckets);
                let all_acked = self.invalidate(t0, home, invalidated, &mut buckets)?;
                let grant = self.send(all_acked, home, proc, CTRL_BYTES, &mut buckets)?;
                let finish = grant.arrive.max(at + cycle);
                self.block_free[block as usize] = finish;
                finish
            }
            Outcome::Miss {
                supplier,
                invalidated,
                writeback,
                downgrade_writeback,
            } => {
                let req = self.send(at, proc, home, CTRL_BYTES, &mut buckets)?;
                let t0 = self.block_start(block, req.arrive, &mut buckets);

                // Data path.
                let data_arrive = match supplier {
                    Supplier::Memory => {
                        let (done, waited) = self.memory_access(home, t0);
                        buckets.mem += SimTime::from_ns(MEM_NS);
                        buckets.dir_wait += waited;
                        self.send(done, home, proc, DATA_BYTES, &mut buckets)?
                            .arrive
                    }
                    Supplier::Owner(owner) => {
                        let fwd = self.send(t0, home, owner, CTRL_BYTES, &mut buckets)?;
                        self.send(fwd.arrive + cycle, owner, proc, DATA_BYTES, &mut buckets)?
                            .arrive
                    }
                };

                // Invalidation path (write misses with extant copies).
                let mut finish = data_arrive;
                if !invalidated.is_empty() {
                    let all_acked = self.invalidate(t0, home, invalidated, &mut buckets)?;
                    let grant = self.send(all_acked, home, proc, CTRL_BYTES, &mut buckets)?;
                    finish = finish.max(grant.arrive);
                }
                let finish = finish.max(at + cycle);
                self.block_free[block as usize] = finish;

                // Writeback of an owned victim: fire and forget.
                if let Some(wb) = writeback {
                    let wb_home = amap.home_of_block(wb.block);
                    let w = self.send(at, proc, wb_home, DATA_BYTES, &mut buckets)?;
                    self.memory_access(wb_home, w.arrive);
                }
                // WriteBackOnRead: the supplying owner also writes the
                // block back to its home (fire and forget).
                if let Some(wb) = downgrade_writeback {
                    let w = self.send(t0, wb.from, home, DATA_BYTES, &mut buckets)?;
                    self.memory_access(home, w.arrive);
                }
                finish
            }
        };
        Ok(Cost { finish, buckets })
    }

    /// Prices one explicit message: a single circuit-switched transfer.
    /// The sender drives its network interface for the whole transmission
    /// (circuit switching), so it is free only at arrival time.
    ///
    /// # Errors
    ///
    /// The violation, when checking is on and the delivery breaks the
    /// network's own timing.
    pub fn msg_send(
        &mut self,
        at: SimTime,
        src: usize,
        dst: usize,
        bytes: u64,
    ) -> Result<super::MsgCost, CheckViolation> {
        let mut buckets = Buckets::default();
        let cycle = SimTime::from_ns(CYCLE_NS);
        let d = self.send(at, src, dst, bytes, &mut buckets)?;
        Ok(super::MsgCost {
            sender_free: d.arrive.max(at + cycle),
            delivered: d.arrive.max(at + cycle),
            buckets,
        })
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

    /// Run-report counters.
    pub fn summary(&self, p: usize) -> ModelSummary {
        let mut s = ModelSummary {
            bisection_crossings: self.net.stats().bisection_crossings,
            ..ModelSummary::default()
        };
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
        m: &mut TargetModel,
        amap: &AddressMap,
        at: SimTime,
        proc: usize,
        addr: Addr,
        kind: AccessKind,
    ) -> Cost {
        let home = amap.region(addr).unwrap().home;
        m.access(at, proc, addr.block(), home, amap, kind).unwrap()
    }

    fn setup(p: usize) -> (TargetModel, AddressMap) {
        let mut amap = AddressMap::new(p);
        for home in 0..p {
            amap.alloc(home, 64);
        }
        (
            TargetModel::new(&Topology::full(p), &amap, MachineConfig::default()),
            amap,
        )
    }

    #[test]
    fn read_miss_from_memory_costs_req_mem_data() {
        let (mut m, amap) = setup(2);
        let remote = Addr(512); // homed at 1
        let c = priced(&mut m, &amap, SimTime::ZERO, 0, remote, AccessKind::Read);
        // 8B request (400ns) + 300ns memory + 32B data (1600ns) = 2300ns.
        assert_eq!(c.finish, SimTime::from_ns(2300));
        assert_eq!(c.buckets.msgs, 2);
        assert_eq!(c.buckets.latency, SimTime::from_ns(2000));
        assert_eq!(c.buckets.mem, SimTime::from_ns(300));
    }

    #[test]
    fn hit_costs_one_cycle() {
        let (mut m, amap) = setup(2);
        let remote = Addr(512);
        let c1 = priced(&mut m, &amap, SimTime::ZERO, 0, remote, AccessKind::Read);
        let c2 = priced(&mut m, &amap, c1.finish, 0, remote, AccessKind::Read);
        assert_eq!(c2.finish, c1.finish + SimTime::from_ns(CYCLE_NS));
        assert_eq!(c2.buckets.msgs, 0);
    }

    #[test]
    fn local_cold_miss_costs_memory_only() {
        let (mut m, amap) = setup(2);
        let c = priced(&mut m, &amap, SimTime::ZERO, 0, Addr(0), AccessKind::Read);
        // Request and data are zero-hop; only the 300ns module access.
        assert_eq!(c.finish, SimTime::from_ns(300));
        assert_eq!(c.buckets.msgs, 0);
    }

    #[test]
    fn upgrade_pays_invalidation_round_trips() {
        let (mut m, amap) = setup(4);
        let a = Addr(512); // homed at 1
        priced(&mut m, &amap, SimTime::ZERO, 0, a, AccessKind::Read);
        priced(&mut m, &amap, SimTime::ZERO, 2, a, AccessKind::Read);
        priced(&mut m, &amap, SimTime::ZERO, 3, a, AccessKind::Read);
        let w = priced(
            &mut m,
            &amap,
            SimTime::from_us(100),
            0,
            a,
            AccessKind::Write,
        );
        // req + 2 invals + 2 acks + grant = 6 control messages.
        assert_eq!(w.buckets.msgs, 6);
        // req(400) -> inval(400) -> +cycle ack(400) -> grant(400) ≈ 1630ns
        assert!(w.finish >= SimTime::from_us(100) + SimTime::from_ns(1600));
    }

    #[test]
    fn dirty_read_forwards_from_owner() {
        let (mut m, amap) = setup(4);
        let a = Addr(512); // homed at 1
                           // Node 2 writes (miss, becomes owner), then node 3 reads.
        priced(&mut m, &amap, SimTime::ZERO, 2, a, AccessKind::Write);
        let r = priced(&mut m, &amap, SimTime::from_us(100), 3, a, AccessKind::Read);
        // req(3->1) + fwd(1->2) + data(2->3): 400+400+1600 (+cycle).
        assert_eq!(r.buckets.msgs, 3);
        assert_eq!(r.buckets.bytes, 8 + 8 + 32);
    }

    #[test]
    fn same_block_transactions_serialize_at_home() {
        let (mut m, amap) = setup(4);
        let a = Addr(512);
        let c1 = priced(&mut m, &amap, SimTime::ZERO, 0, a, AccessKind::Read);
        // Overlapping read of the same block from another node waits.
        let c2 = priced(&mut m, &amap, SimTime::ZERO, 2, a, AccessKind::Read);
        assert!(c2.buckets.dir_wait > SimTime::ZERO);
        assert!(c2.finish > c1.finish);
    }

    #[test]
    fn distinct_blocks_queue_at_their_home_memory() {
        let (mut m, amap) = setup(4);
        // Two blocks homed at node 2, read-missed at t = 0 by nodes 0 and
        // 1: the requests and replies use disjoint links, so the only
        // wait is the second fill queueing behind the first at the module.
        let (a, b) = (Addr(1024), Addr(1056));
        let c1 = priced(&mut m, &amap, SimTime::ZERO, 0, a, AccessKind::Read);
        let c2 = priced(&mut m, &amap, SimTime::ZERO, 1, b, AccessKind::Read);
        assert_eq!(c1.buckets.dir_wait, SimTime::ZERO);
        assert_eq!(c2.buckets.dir_wait, SimTime::from_ns(MEM_NS));
        assert_eq!(c2.finish, c1.finish + SimTime::from_ns(MEM_NS));
    }

    #[test]
    fn write_miss_completion_covers_data_and_grant() {
        let (mut m, amap) = setup(4);
        let a = Addr(512);
        priced(&mut m, &amap, SimTime::ZERO, 2, a, AccessKind::Read);
        priced(&mut m, &amap, SimTime::ZERO, 3, a, AccessKind::Read);
        let w = priced(
            &mut m,
            &amap,
            SimTime::from_us(100),
            0,
            a,
            AccessKind::Write,
        );
        // req + data(from mem) + 2 invals + 2 acks + grant = 7 messages.
        assert_eq!(w.buckets.msgs, 7);
    }

    #[test]
    fn writeback_counts_traffic_but_does_not_block() {
        let mut amap = AddressMap::new(2);
        amap.alloc(0, 4096);
        let config = MachineConfig {
            cache: spasm_cache::CacheConfig {
                size_bytes: 64,
                assoc: 2,
                block_bytes: 32,
            },
            ..MachineConfig::default()
        };
        let mut m = TargetModel::new(&Topology::full(2), &amap, config);
        let w = priced(&mut m, &amap, SimTime::ZERO, 1, Addr(0), AccessKind::Write);
        let r1 = priced(&mut m, &amap, w.finish, 1, Addr(32), AccessKind::Read);
        // Third access evicts the dirty block 0 -> 32B writeback message.
        let r2 = priced(&mut m, &amap, r1.finish, 1, Addr(64), AccessKind::Read);
        assert_eq!(r2.buckets.msgs, 3); // req + data + writeback
        assert_eq!(r2.buckets.bytes, 8 + 32 + 32);
        // Completion = req + mem + data; the writeback does not extend it.
        assert_eq!(r2.finish - r1.finish, SimTime::from_ns(2300));
    }

    #[test]
    fn control_messages_are_short() {
        // The target's 8B control messages are where LogP's fixed 32B L is
        // pessimistic (paper §6.1).
        let (mut m, amap) = setup(2);
        let a = Addr(512);
        let r = priced(&mut m, &amap, SimTime::ZERO, 0, a, AccessKind::Read);
        // 8B request costs 400ns, not 1600ns.
        assert_eq!(r.buckets.latency, SimTime::from_ns(400 + 1600));
    }
}
