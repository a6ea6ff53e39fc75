//! # spasm-logp — the LogP network abstraction
//!
//! Implements the LogP model of Culler et al. (PPoPP 1993) as used by the
//! paper to *abstract the interconnection network* inside an
//! execution-driven simulator (§3.1):
//!
//! * **L** — the latency: the maximum time spent in the network by a message
//!   from a source to any destination. The paper fixes `L = 1.6 µs`,
//!   assuming 32-byte messages on 20 MB/s serial links, *independent of
//!   topology* — the deliberate pessimism/optimism of this choice is one of
//!   the paper's findings (R1 in DESIGN.md).
//! * **g** — the gap: the minimum interval between consecutive message
//!   transmissions/receptions at a node, computed from the per-processor
//!   *bisection bandwidth* of the abstracted topology exactly as in the
//!   paper: full `3.2/p µs`, hypercube `1.6 µs`, mesh `0.8·px µs` (`px` =
//!   number of columns).
//! * **P** — the number of processors, which is the topology's node count.
//!
//! The [`GapTracker`] enforces `g` at each node. The paper's §7 observes
//! that LogP's definition — no simultaneous sends *and* receives from one
//! node — is a source of pessimism, and reports an experiment where the gap
//! is enforced only between *identical* communication events; that variant
//! is [`GapPolicy::PerEventType`] and is evaluated as ablation A1.
//!
//! # Example
//!
//! ```
//! use spasm_logp::{GapPolicy, GapTracker, LogPParams};
//! use spasm_topology::Topology;
//! use spasm_desim::SimTime;
//!
//! let params = LogPParams::for_topology(&Topology::hypercube(16));
//! assert_eq!(params.l, SimTime::from_ns(1600));
//! assert_eq!(params.g, SimTime::from_ns(1600));
//!
//! let mut gaps = GapTracker::new(16, params.g, GapPolicy::Unified);
//! let first = gaps.acquire(0, spasm_logp::NetEvent::Send, SimTime::ZERO);
//! assert_eq!(first.start, SimTime::ZERO);
//! let second = gaps.acquire(0, spasm_logp::NetEvent::Send, SimTime::ZERO);
//! assert_eq!(second.start, SimTime::from_ns(1600)); // g-spaced
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use spasm_desim::SimTime;
use spasm_topology::{Topology, TopologyKind};

/// The LogP parameters a topology determines, in simulation time units.
/// `o` is zero on a shared-memory platform, where the hardware pays the
/// message overhead, and `P` is the topology's node count, so neither is
/// a field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogPParams {
    /// Network latency per message (paper: 1.6 µs for 32-byte messages).
    pub l: SimTime,
    /// Per-node communication gap derived from bisection bandwidth.
    pub g: SimTime,
}

/// The paper's fixed L: one 32-byte message at 50 ns/byte.
pub const L_NS: u64 = 1_600;

impl LogPParams {
    /// Derives the parameters for a topology, using the paper's §5 rules.
    ///
    /// `L` is always 1.6 µs. `g` comes from the cross-section (bisection)
    /// bandwidth available per processor:
    ///
    /// * full: `3.2/p µs`
    /// * hypercube: `1.6 µs`
    /// * mesh: `0.8 · px µs`, where `px` is the number of columns
    ///
    /// For `p == 1` the gap is zero (no network at all).
    pub fn for_topology(topo: &Topology) -> Self {
        let p = topo.nodes();
        let g_ns = if p == 1 {
            0
        } else {
            match topo.kind() {
                TopologyKind::Full => 3_200 / p as u64,
                TopologyKind::Hypercube => 1_600,
                TopologyKind::Mesh2D => {
                    let (_, cols) = topo.mesh_geometry();
                    800 * cols as u64
                }
            }
        };
        LogPParams {
            l: SimTime::from_ns(L_NS),
            g: SimTime::from_ns(g_ns),
        }
    }

    /// A variant with `g` scaled by `factor` — used by the "better estimate
    /// of g" ablation the paper's §7 calls for (incorporating application
    /// communication locality would lower the effective g).
    pub fn with_g_scaled(self, factor: f64) -> Self {
        assert!(factor.is_finite() && factor >= 0.0, "factor must be >= 0");
        let g = SimTime::from_ns((self.g.as_ns() as f64 * factor).round() as u64);
        LogPParams { g, ..self }
    }
}

/// Which network events the per-node gap separates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum GapPolicy {
    /// The LogP definition: any two network events at a node (a send and a
    /// receive included) must be ≥ g apart. This is the model the paper
    /// evaluates in the main results.
    #[default]
    Unified,
    /// The paper's §7 experiment: the gap applies only between events of
    /// the same kind (send–send, receive–receive); a send and a receive may
    /// proceed concurrently. Lessens the pessimism considerably.
    PerEventType,
}

/// A network event kind at a node, for [`GapPolicy::PerEventType`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetEvent {
    /// Message transmission from this node.
    Send,
    /// Message reception at this node.
    Recv,
}

/// A granted slot at a node's network interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GapGrant {
    /// When the event may proceed (≥ the request time).
    pub start: SimTime,
    /// Time the event waited for the gap (charged as contention).
    pub waited: SimTime,
}

/// Per-node enforcement of the LogP gap parameter.
#[derive(Debug, Clone)]
pub struct GapTracker {
    g: SimTime,
    policy: GapPolicy,
    /// Next allowed event time, per node: [unified] or [send, recv].
    next_send: Vec<SimTime>,
    next_recv: Vec<SimTime>,
}

impl GapTracker {
    /// Creates a tracker for `p` nodes with gap `g` under `policy`.
    pub fn new(p: usize, g: SimTime, policy: GapPolicy) -> Self {
        GapTracker {
            g,
            policy,
            next_send: vec![SimTime::ZERO; p],
            next_recv: vec![SimTime::ZERO; p],
        }
    }

    /// Acquires a network-interface slot for `kind` at `node`, at or after
    /// `at`. Subsequent events are pushed `g` later according to policy.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn acquire(&mut self, node: usize, kind: NetEvent, at: SimTime) -> GapGrant {
        let start = match (self.policy, kind) {
            (GapPolicy::Unified, _) => {
                let s = at.max(self.next_send[node]).max(self.next_recv[node]);
                self.next_send[node] = s + self.g;
                self.next_recv[node] = s + self.g;
                s
            }
            (GapPolicy::PerEventType, NetEvent::Send) => {
                let s = at.max(self.next_send[node]);
                self.next_send[node] = s + self.g;
                s
            }
            (GapPolicy::PerEventType, NetEvent::Recv) => {
                let s = at.max(self.next_recv[node]);
                self.next_recv[node] = s + self.g;
                s
            }
        };
        GapGrant {
            start,
            waited: start - at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(n: u64) -> SimTime {
        SimTime::from_ns(n)
    }

    #[test]
    fn paper_g_values() {
        // full: 3.2/p us
        let t = Topology::full(16);
        assert_eq!(LogPParams::for_topology(&t).g, ns(200));
        let t = Topology::full(32);
        assert_eq!(LogPParams::for_topology(&t).g, ns(100));
        // cube: 1.6 us independent of p
        for p in [2, 8, 32] {
            let t = Topology::hypercube(p);
            assert_eq!(LogPParams::for_topology(&t).g, ns(1600));
        }
        // mesh: 0.8 * px us
        let t = Topology::mesh(16); // 4x4
        assert_eq!(LogPParams::for_topology(&t).g, ns(3200));
        let t = Topology::mesh(32); // 4x8
        assert_eq!(LogPParams::for_topology(&t).g, ns(6400));
    }

    #[test]
    fn l_is_topology_independent() {
        for t in [Topology::full(8), Topology::hypercube(8), Topology::mesh(8)] {
            assert_eq!(LogPParams::for_topology(&t).l, ns(1600));
        }
    }

    #[test]
    fn single_node_has_zero_gap() {
        let t = Topology::full(1);
        let p = LogPParams::for_topology(&t);
        assert_eq!(p.g, SimTime::ZERO);
    }

    #[test]
    fn unified_gap_spaces_all_events() {
        let mut g = GapTracker::new(2, ns(100), GapPolicy::Unified);
        let a = g.acquire(0, NetEvent::Send, ns(0));
        let b = g.acquire(0, NetEvent::Recv, ns(0));
        let c = g.acquire(0, NetEvent::Send, ns(0));
        assert_eq!(a.start, ns(0));
        assert_eq!(b.start, ns(100)); // recv also pushed by the send
        assert_eq!(c.start, ns(200));
        assert_eq!(a.waited + b.waited + c.waited, ns(300));
    }

    #[test]
    fn per_event_type_gap_allows_concurrent_send_recv() {
        let mut g = GapTracker::new(1, ns(100), GapPolicy::PerEventType);
        let a = g.acquire(0, NetEvent::Send, ns(0));
        let b = g.acquire(0, NetEvent::Recv, ns(0));
        assert_eq!(a.start, ns(0));
        assert_eq!(b.start, ns(0)); // not delayed by the send
        let c = g.acquire(0, NetEvent::Send, ns(0));
        assert_eq!(c.start, ns(100));
    }

    #[test]
    fn nodes_are_independent() {
        let mut g = GapTracker::new(2, ns(100), GapPolicy::Unified);
        g.acquire(0, NetEvent::Send, ns(0));
        let b = g.acquire(1, NetEvent::Send, ns(0));
        assert_eq!(b.start, ns(0));
    }

    #[test]
    fn gap_after_idle_period_costs_nothing() {
        let mut g = GapTracker::new(1, ns(100), GapPolicy::Unified);
        g.acquire(0, NetEvent::Send, ns(0));
        let b = g.acquire(0, NetEvent::Send, ns(500));
        assert_eq!(b.start, ns(500));
        assert_eq!(b.waited, SimTime::ZERO);
    }

    #[test]
    fn g_scaling() {
        let t = Topology::mesh(16);
        let p = LogPParams::for_topology(&t).with_g_scaled(0.5);
        assert_eq!(p.g, ns(1600));
        let p0 = LogPParams::for_topology(&t).with_g_scaled(0.0);
        assert_eq!(p0.g, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "factor must be >= 0")]
    fn negative_g_scale_rejected() {
        let t = Topology::full(2);
        let _ = LogPParams::for_topology(&t).with_g_scaled(-1.0);
    }

    #[test]
    fn zero_gap_tracker_never_waits() {
        let mut g = GapTracker::new(1, SimTime::ZERO, GapPolicy::Unified);
        for _ in 0..5 {
            let grant = g.acquire(0, NetEvent::Send, ns(42));
            assert_eq!(grant.start, ns(42));
            assert_eq!(grant.waited, SimTime::ZERO);
        }
    }

    #[test]
    fn full_gap_shrinks_with_p() {
        let g8 = LogPParams::for_topology(&Topology::full(8)).g;
        let g32 = LogPParams::for_topology(&Topology::full(32)).g;
        assert!(g32 < g8);
    }

    #[test]
    fn mesh_gap_grows_with_p() {
        let g4 = LogPParams::for_topology(&Topology::mesh(4)).g;
        let g64 = LogPParams::for_topology(&Topology::mesh(64)).g;
        assert!(g64 > g4);
    }
}
