//! The LogP-abstracted network shared by the LogP and CLogP machines.

use spasm_check::{CheckViolation, NetChecker};
use spasm_desim::SimTime;
use spasm_logp::{GapTracker, LogPParams, NetEvent};
use spasm_topology::Topology;

use crate::{Buckets, DATA_BYTES};

use super::{MachineConfig, MsgCost};

/// Message timing under the LogP abstraction.
///
/// A message from `src` to `dst`:
///
/// 1. waits for the sender's network interface per the gap policy
///    (waiting charged as **contention**);
/// 2. spends `L` in the network (charged as **latency** — L is fixed at
///    the 32-byte transmission time regardless of the actual payload,
///    which is the pessimism the paper discusses);
/// 3. waits for the receiver's interface per the gap policy (contention).
///
/// Local messages (`src == dst`) are free and never touch the interface.
#[derive(Debug)]
pub struct AbstractNet {
    params: LogPParams,
    gaps: GapTracker,
    /// Conformance checker (only under an enabled `CheckMode`).
    checker: Option<NetChecker>,
}

impl AbstractNet {
    /// Builds the abstraction for `topo` with the configured gap policy
    /// and g scaling.
    pub fn new(topo: &Topology, config: &MachineConfig) -> Self {
        let params = LogPParams::for_topology(topo).with_g_scaled(config.g_scale);
        AbstractNet {
            params,
            gaps: GapTracker::new(topo.nodes(), params.g, config.gap_policy),
            checker: config
                .check
                .enabled()
                .then(|| NetChecker::new(topo.nodes(), params.l, params.g, config.gap_policy)),
        }
    }

    /// Delivers one abstract message and charges `buckets`; returns
    /// `(sender_slot, delivered)`, where the sender's network interface
    /// slot began is the point an asynchronous LogP sender is free to
    /// continue.
    ///
    /// # Errors
    ///
    /// The checker's violation, when checking is on and the grant breaks
    /// the LogP rules.
    pub fn message(
        &mut self,
        at: SimTime,
        src: usize,
        dst: usize,
        buckets: &mut Buckets,
    ) -> Result<(SimTime, SimTime), CheckViolation> {
        if src == dst {
            return Ok((at, at));
        }
        let send = self.gaps.acquire(src, NetEvent::Send, at);
        buckets.contention += send.waited;
        let arrive = send.start + self.params.l;
        buckets.latency += self.params.l;
        let recv = self.gaps.acquire(dst, NetEvent::Recv, arrive);
        buckets.contention += recv.waited;
        buckets.msgs += 1;
        buckets.bytes += DATA_BYTES;
        if let Some(chk) = &mut self.checker {
            chk.observe_message(at, src, dst, send.start, arrive, recv.start)?;
        }
        Ok((send.start, recv.start))
    }

    /// Prices one explicit message: the send is asynchronous, so the
    /// sender is free once its interface slot is granted (and a cycle
    /// on at the earliest).
    ///
    /// # Errors
    ///
    /// As [`AbstractNet::message`].
    pub fn msg_send(
        &mut self,
        at: SimTime,
        src: usize,
        dst: usize,
    ) -> Result<MsgCost, CheckViolation> {
        let mut buckets = Buckets::default();
        let (slot, delivered) = self.message(at, src, dst, &mut buckets)?;
        Ok(MsgCost {
            sender_free: slot.max(at + SimTime::from_ns(crate::CYCLE_NS)),
            delivered,
            buckets,
        })
    }

    /// A request/response pair `src → dst → src`; returns completion time.
    ///
    /// # Errors
    ///
    /// As [`AbstractNet::message`].
    pub fn round_trip(
        &mut self,
        at: SimTime,
        src: usize,
        dst: usize,
        buckets: &mut Buckets,
    ) -> Result<SimTime, CheckViolation> {
        let (_, there) = self.message(at, src, dst, buckets)?;
        Ok(self.message(there, dst, src, buckets)?.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spasm_logp::GapPolicy;

    fn net(p: usize) -> AbstractNet {
        AbstractNet::new(&Topology::hypercube(p), &MachineConfig::default())
    }

    #[test]
    fn single_message_costs_l() {
        let mut n = net(4);
        let mut b = Buckets::default();
        let (_, t) = n.message(SimTime::ZERO, 0, 1, &mut b).unwrap();
        assert_eq!(t, SimTime::from_ns(1600));
        assert_eq!(b.latency, SimTime::from_ns(1600));
        assert_eq!(b.contention, SimTime::ZERO);
        assert_eq!(b.msgs, 1);
    }

    #[test]
    fn round_trip_costs_two_l() {
        let mut n = net(4);
        let mut b = Buckets::default();
        let t = n.round_trip(SimTime::ZERO, 0, 3, &mut b).unwrap();
        // cube g = L, so the reply's send at node 3 is gated by its recv:
        // recv at 1600 -> send allowed at 3200 -> deliver 4800, recv gap
        // at node 0 allows 3200... recv at 0 happens at 4800 (>= gap).
        assert_eq!(b.msgs, 2);
        assert_eq!(b.latency, SimTime::from_ns(3200));
        assert!(t >= SimTime::from_ns(3200));
    }

    #[test]
    fn back_to_back_sends_pay_gap() {
        let mut n = net(4); // g = 1600 on the cube
        let mut b = Buckets::default();
        n.message(SimTime::ZERO, 0, 1, &mut b).unwrap();
        let before = b.contention;
        n.message(SimTime::ZERO, 0, 2, &mut b).unwrap();
        assert!(b.contention > before, "second send must wait out g");
    }

    #[test]
    fn local_messages_free() {
        let mut n = net(4);
        let mut b = Buckets::default();
        let (_, t) = n.message(SimTime::from_ns(5), 2, 2, &mut b).unwrap();
        assert_eq!(t, SimTime::from_ns(5));
        assert_eq!(b.msgs, 0);
    }

    #[test]
    fn per_event_type_policy_relaxes_send_after_recv() {
        let topo = Topology::hypercube(4);
        let unified = MachineConfig::default();
        let per_type = MachineConfig {
            gap_policy: GapPolicy::PerEventType,
            ..MachineConfig::default()
        };
        let mut b1 = Buckets::default();
        let mut n1 = AbstractNet::new(&topo, &unified);
        let t1 = n1.round_trip(SimTime::ZERO, 0, 1, &mut b1).unwrap();
        let mut b2 = Buckets::default();
        let mut n2 = AbstractNet::new(&topo, &per_type);
        let t2 = n2.round_trip(SimTime::ZERO, 0, 1, &mut b2).unwrap();
        assert!(t2 < t1, "per-event-type gap must be faster ({t2} vs {t1})");
        assert!(b2.contention < b1.contention);
    }
}
