//! # spasm-net — link-level circuit-switched wormhole network simulator
//!
//! Models the paper's target interconnect (§5): serial (1-bit-wide)
//! unidirectional links with a bandwidth of 20 MBytes/sec, circuit-switched
//! messages with wormhole routing, negligible switching delay, and message
//! sizes up to 32 bytes.
//!
//! ## Timing model
//!
//! A message from `src` to `dst` of `bytes` bytes:
//!
//! 1. takes the topology's deterministic route (see `spasm-topology`);
//! 2. **establishes a circuit**: it waits until every link on its path is
//!    simultaneously free (links are granted in global request order —
//!    FCFS — which is deterministic because requests arrive in simulation
//!    event order);
//! 3. holds all path links for the transmission time
//!    `bytes × 50 ns` (20 MB/s serial links; switching delay ignored, so
//!    the hop count does not add to the contention-free time — exactly why
//!    the paper finds "negligible difference in latency overhead across
//!    network platforms");
//! 4. is delivered at circuit-establishment + transmission time.
//!
//! The time split follows SPASM's overhead separation: the contention-free
//! transmission time is charged to the **latency** overhead; the time spent
//! waiting for links is charged to the **contention** overhead.
//!
//! # Example
//!
//! ```
//! use spasm_desim::SimTime;
//! use spasm_net::{Network, LINK_NS_PER_BYTE};
//! use spasm_topology::{NodeId, Topology};
//!
//! let mut net = Network::new(Topology::mesh(4));
//! let d = net.send(SimTime::ZERO, NodeId(0), NodeId(3), 32);
//! assert_eq!(d.latency, SimTime::from_ns(32 * LINK_NS_PER_BYTE));
//! assert_eq!(d.contention, SimTime::ZERO);
//!
//! // A second, overlapping message sharing a link waits for the circuit.
//! let d2 = net.send(SimTime::ZERO, NodeId(0), NodeId(3), 32);
//! assert_eq!(d2.contention, d.latency);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use spasm_desim::SimTime;
use spasm_topology::{LinkId, NodeId, Topology, TopologyError};

/// Serial link transmission cost: 20 MBytes/sec → 50 ns per byte.
pub const LINK_NS_PER_BYTE: u64 = 50;

/// Timing outcome of one message delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// When the circuit was established and transmission began.
    pub depart: SimTime,
    /// When the last byte arrived at the destination.
    pub arrive: SimTime,
    /// Contention-free transmission time (charged as latency overhead).
    pub latency: SimTime,
    /// Time spent waiting for links (charged as contention overhead).
    pub contention: SimTime,
    /// Number of links traversed.
    pub hops: usize,
}

/// Aggregate statistics for a [`Network`]. Per-message traffic
/// (latency, contention, hops) is each [`Delivery`]'s, for the caller
/// to charge; the network counts only what needs its geometry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetworkStats {
    /// Messages whose endpoints lie on opposite sides of the canonical
    /// bisection — the numerator of the communication-locality fraction
    /// the paper's §7 wants a better g estimate to use.
    pub bisection_crossings: u64,
}

/// A circuit-switched wormhole network over a [`Topology`].
///
/// The network keeps one `free_at` horizon per unidirectional link and
/// grants circuits in request order. Requests must therefore be issued in
/// non-decreasing knowledge order (the natural order in which a
/// discrete-event simulator discovers sends); the request *times* may be
/// arbitrary.
#[derive(Debug, Clone)]
pub struct Network {
    topo: Topology,
    free_at: Vec<SimTime>,
    stats: NetworkStats,
    /// Scratch route buffer reused across sends (avoids a per-message
    /// allocation on the simulator hot path).
    route_buf: Vec<LinkId>,
}

impl Network {
    /// Creates an idle network over `topo`.
    pub fn new(topo: Topology) -> Self {
        Network {
            topo,
            free_at: vec![SimTime::ZERO; topo.link_count()],
            stats: NetworkStats::default(),
            route_buf: Vec::new(),
        }
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Sends a `bytes`-byte message from `src` to `dst` at time `at`.
    ///
    /// Returns the [`Delivery`] describing circuit establishment, arrival,
    /// and the latency/contention split. A message to self (`src == dst`)
    /// is delivered instantly with zero cost — local traffic never enters
    /// the network.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero for a remote message (messages carry at
    /// least a header) or a node id is out of range.
    /// [`Network::try_send`] is the fallible form.
    pub fn send(&mut self, at: SimTime, src: NodeId, dst: NodeId, bytes: u64) -> Delivery {
        assert!(bytes > 0, "remote message must carry at least one byte");
        self.try_send(at, src, dst, bytes)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`Network::send`]: returns a typed
    /// [`TopologyError`] for out-of-range node ids instead of panicking.
    /// A zero-byte remote message is treated as a one-byte header.
    ///
    /// # Errors
    ///
    /// [`TopologyError::NodeOutOfRange`] when an endpoint, of a
    /// self-message too, is not a node of the topology.
    pub fn try_send(
        &mut self,
        at: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
    ) -> Result<Delivery, TopologyError> {
        self.topo.try_route_into(src, dst, &mut self.route_buf)?;
        if src == dst {
            return Ok(Delivery {
                depart: at,
                arrive: at,
                latency: SimTime::ZERO,
                contention: SimTime::ZERO,
                hops: 0,
            });
        }
        let bytes = bytes.max(1); // messages carry at least a header
        let transmission = SimTime::from_ns(bytes * LINK_NS_PER_BYTE);

        // Circuit establishment: all links simultaneously free.
        let mut depart = at;
        for link in &self.route_buf {
            depart = depart.max(self.free_at[link.0]);
        }
        let arrive = depart + transmission;
        for link in &self.route_buf {
            self.free_at[link.0] = arrive;
        }

        if self.topo.crosses_bisection(src, dst) {
            self.stats.bisection_crossings += 1;
        }

        Ok(Delivery {
            depart,
            arrive,
            latency: transmission,
            contention: depart - at,
            hops: self.route_buf.len(),
        })
    }

    /// Traffic statistics accumulated so far.
    pub fn stats(&self) -> NetworkStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(n: u64) -> SimTime {
        SimTime::from_ns(n)
    }

    #[test]
    fn uncontended_message_costs_transmission_only() {
        let mut net = Network::new(Topology::hypercube(8));
        let d = net.send(ns(100), NodeId(0), NodeId(7), 32);
        assert_eq!(d.depart, ns(100));
        assert_eq!(d.latency, ns(1600));
        assert_eq!(d.arrive, ns(1700));
        assert_eq!(d.contention, SimTime::ZERO);
        assert_eq!(d.hops, 3);
    }

    #[test]
    fn transmission_time_independent_of_hops() {
        // Switching delay is ignored, so 1 hop and 6 hops cost the same.
        let mut full = Network::new(Topology::full(16));
        let mut mesh = Network::new(Topology::mesh(16));
        let df = full.send(SimTime::ZERO, NodeId(0), NodeId(15), 32);
        let dm = mesh.send(SimTime::ZERO, NodeId(0), NodeId(15), 32);
        assert_eq!(df.latency, dm.latency);
        assert_eq!(df.arrive, dm.arrive);
        assert!(dm.hops > df.hops);
    }

    #[test]
    fn overlapping_messages_on_shared_link_serialize() {
        let mut net = Network::new(Topology::mesh(4)); // 2x2
        let d1 = net.send(SimTime::ZERO, NodeId(0), NodeId(1), 32);
        let d2 = net.send(SimTime::ZERO, NodeId(0), NodeId(1), 32);
        assert_eq!(d1.contention, SimTime::ZERO);
        assert_eq!(d2.depart, d1.arrive);
        assert_eq!(d2.contention, ns(1600));
    }

    #[test]
    fn full_network_has_no_cross_pair_contention() {
        let mut net = Network::new(Topology::full(4));
        let d1 = net.send(SimTime::ZERO, NodeId(0), NodeId(1), 32);
        let d2 = net.send(SimTime::ZERO, NodeId(2), NodeId(1), 32);
        let d3 = net.send(SimTime::ZERO, NodeId(3), NodeId(1), 32);
        // Dedicated per-pair links: three senders to one destination do not
        // contend at the wire level.
        for d in [d1, d2, d3] {
            assert_eq!(d.contention, SimTime::ZERO);
        }
    }

    #[test]
    fn mesh_messages_crossing_shared_links_contend() {
        // 2x4 mesh: 0->3 and 1->3 share the 1->2->3 row links.
        let mut net = Network::new(Topology::mesh(8));
        let d1 = net.send(SimTime::ZERO, NodeId(0), NodeId(3), 32);
        let d2 = net.send(SimTime::ZERO, NodeId(1), NodeId(3), 32);
        assert_eq!(d1.contention, SimTime::ZERO);
        assert!(d2.contention > SimTime::ZERO);
    }

    #[test]
    fn disjoint_paths_do_not_contend() {
        let mut net = Network::new(Topology::mesh(16)); // 4x4
                                                        // Row 0 eastward and row 3 eastward are disjoint.
        let d1 = net.send(SimTime::ZERO, NodeId(0), NodeId(3), 32);
        let d2 = net.send(SimTime::ZERO, NodeId(12), NodeId(15), 32);
        assert_eq!(d1.contention, SimTime::ZERO);
        assert_eq!(d2.contention, SimTime::ZERO);
    }

    #[test]
    fn local_messages_are_free() {
        let mut net = Network::new(Topology::full(4));
        let d = net.send(ns(7), NodeId(2), NodeId(2), 32);
        assert_eq!(d.arrive, ns(7));
        assert_eq!(d.hops, 0);
        assert_eq!(d.latency + d.contention, SimTime::ZERO);
    }

    #[test]
    fn short_control_messages_cost_proportionally_less() {
        let mut net = Network::new(Topology::full(4));
        let d8 = net.send(SimTime::ZERO, NodeId(0), NodeId(1), 8);
        assert_eq!(d8.latency, ns(400));
        let d32 = net.send(SimTime::ZERO, NodeId(0), NodeId(2), 32);
        assert_eq!(d32.latency, ns(1600));
    }

    #[test]
    fn circuit_holds_whole_path() {
        // Message A 0->3 in a 1x... use 2x4 mesh (row 0: 0,1,2,3).
        let mut net = Network::new(Topology::mesh(8));
        let a = net.send(SimTime::ZERO, NodeId(0), NodeId(3), 32);
        // Message B 2->3 overlaps A's tail link and must wait for the
        // whole circuit even though it uses only the last link.
        let b = net.send(SimTime::ZERO, NodeId(2), NodeId(3), 32);
        assert_eq!(b.depart, a.arrive);
    }

    #[test]
    #[should_panic(expected = "at least one byte")]
    fn zero_byte_remote_message_rejected() {
        Network::new(Topology::full(2)).send(SimTime::ZERO, NodeId(0), NodeId(1), 0);
    }

    #[test]
    fn try_send_rejects_out_of_range_nodes() {
        let mut net = Network::new(Topology::full(4));
        let err = net
            .try_send(SimTime::ZERO, NodeId(0), NodeId(4), 32)
            .unwrap_err();
        assert_eq!(err, TopologyError::NodeOutOfRange { node: 4, p: 4 });
        // A self-message is free, but its node must still exist.
        let err = net
            .try_send(SimTime::ZERO, NodeId(7), NodeId(7), 8)
            .unwrap_err();
        assert_eq!(err, TopologyError::NodeOutOfRange { node: 7, p: 4 });
        // A failed send must leave the network state untouched.
        let d = net.send(SimTime::ZERO, NodeId(0), NodeId(1), 8);
        assert_eq!(d.contention, SimTime::ZERO);
    }

    #[test]
    fn later_request_after_idle_gap_is_uncontended() {
        let mut net = Network::new(Topology::mesh(4));
        let d1 = net.send(SimTime::ZERO, NodeId(0), NodeId(1), 32);
        let d2 = net.send(d1.arrive + ns(10), NodeId(0), NodeId(1), 32);
        assert_eq!(d2.contention, SimTime::ZERO);
    }
}
