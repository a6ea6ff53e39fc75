//! Network checks: an independent re-derivation of the LogP network
//! rules, and the target network's per-message conformance.

use std::fmt;

use spasm_desim::SimTime;
use spasm_logp::{GapPolicy, NetEvent};
use spasm_net::Delivery;

use crate::{CheckViolation, EventRing};

/// Checks every message the abstract LogP network grants against an
/// independent re-derivation of the model's own rules:
///
/// * **per-node gap** — consecutive network events at a node are spaced
///   exactly `g` apart under the configured [`GapPolicy`] (an earlier
///   start violates the gap; a later one means the network charged
///   contention the model does not call for);
/// * **latency** — a message arrives exactly `L` after its granted send
///   slot (the LogP network is contention-free once the gap is paid, so
///   `< L` and `> L` are both violations).
///
/// The checker keeps its own next-free slot per node, updated from the
/// *observed* grants so one violation does not cascade into spurious
/// follow-ons.
///
/// Loopback (`src == dst`) messages bypass the network and must not be
/// observed.
#[derive(Debug)]
pub struct NetChecker {
    l: SimTime,
    g: SimTime,
    policy: GapPolicy,
    next_send: Vec<SimTime>,
    next_recv: Vec<SimTime>,
    ring: EventRing<Msg>,
}

/// One ring entry, rendered only into a violation: a message requested
/// at `.0` from `.1` to `.2`, granted its send slot at `.3`, arriving at
/// `.4` and received at `.5`.
#[derive(Debug, Clone, Copy)]
struct Msg(SimTime, usize, usize, SimTime, SimTime, SimTime);

impl fmt::Display for Msg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Msg(at, src, dst, send, arrive, recv) = self;
        write!(
            f,
            "t={at} msg {src}->{dst}: send@{send} arrive@{arrive} recv@{recv}"
        )
    }
}

impl NetChecker {
    /// A checker for a `p`-node network with latency `l`, gap `g`, under
    /// `policy`.
    pub fn new(p: usize, l: SimTime, g: SimTime, policy: GapPolicy) -> Self {
        NetChecker {
            l,
            g,
            policy,
            next_send: vec![SimTime::ZERO; p],
            next_recv: vec![SimTime::ZERO; p],
            ring: EventRing::new(),
        }
    }

    /// Observes one granted message: requested at `at` from `src` to
    /// `dst`, the network granted the send slot at `send_start`, arrival
    /// at `arrive`, and the receive slot at `recv_start`.
    ///
    /// # Errors
    ///
    /// `message-gap` when a send or receive slot is not where the gap
    /// rules put it; `network-latency` when the message does not arrive
    /// exactly `L` after its send slot.
    pub fn observe_message(
        &mut self,
        at: SimTime,
        src: usize,
        dst: usize,
        send_start: SimTime,
        arrive: SimTime,
        recv_start: SimTime,
    ) -> Result<(), CheckViolation> {
        self.ring
            .record(Msg(at, src, dst, send_start, arrive, recv_start));
        let expected_send = at.max(self.slot(src, NetEvent::Send));
        let expected_arrive = send_start + self.l;
        let expected_recv = arrive.max(self.slot(dst, NetEvent::Recv));
        // Advance the mirror from the observed grants first, so a single
        // deviation is reported once rather than echoed by every later
        // message at the same node.
        self.advance(src, NetEvent::Send, send_start);
        self.advance(dst, NetEvent::Recv, recv_start);
        if send_start != expected_send {
            return Err(self.violation(
                "message-gap",
                format!(
                    "send {src}->{dst} requested at {at} started at {send_start}, gap rules (g={}) give {expected_send}",
                    self.g
                ),
            ));
        }
        if arrive != expected_arrive {
            return Err(self.violation(
                "network-latency",
                format!(
                    "message {src}->{dst} sent at {send_start} arrived at {arrive}, expected exactly L={} later ({expected_arrive})",
                    self.l
                ),
            ));
        }
        if recv_start != expected_recv {
            return Err(self.violation(
                "message-gap",
                format!(
                    "receive of {src}->{dst} arriving at {arrive} started at {recv_start}, gap rules (g={}) give {expected_recv}",
                    self.g
                ),
            ));
        }
        Ok(())
    }

    fn slot(&self, node: usize, kind: NetEvent) -> SimTime {
        match (self.policy, kind) {
            (GapPolicy::Unified, _) => self.next_send[node].max(self.next_recv[node]),
            (GapPolicy::PerEventType, NetEvent::Send) => self.next_send[node],
            (GapPolicy::PerEventType, NetEvent::Recv) => self.next_recv[node],
        }
    }

    fn advance(&mut self, node: usize, kind: NetEvent, start: SimTime) {
        let next = start + self.g;
        match (self.policy, kind) {
            (GapPolicy::Unified, _) => {
                self.next_send[node] = next;
                self.next_recv[node] = next;
            }
            (GapPolicy::PerEventType, NetEvent::Send) => self.next_send[node] = next,
            (GapPolicy::PerEventType, NetEvent::Recv) => self.next_recv[node] = next,
        }
    }

    fn violation(&self, invariant: &'static str, message: String) -> CheckViolation {
        CheckViolation::new(invariant, message, &self.ring)
    }
}

/// Checks one remote message `src -> dst` injected at `at` on the
/// target's circuit-switched network: it waits out its link contention,
/// departs, and arrives exactly its transmission time later, having
/// crossed at least one link.
///
/// # Errors
///
/// `network-conformance` naming the first of the three that fails.
pub fn network_conformance(
    at: SimTime,
    src: usize,
    dst: usize,
    d: &Delivery,
) -> Result<(), CheckViolation> {
    let message = if d.depart != at + d.contention {
        format!(
            "message {src}->{dst} injected at {at} with contention {} departed at {}",
            d.contention, d.depart
        )
    } else if d.arrive != d.depart + d.latency {
        format!(
            "message {src}->{dst} departed at {} with latency {} arrived at {}",
            d.depart, d.latency, d.arrive
        )
    } else if d.hops == 0 {
        format!("remote message {src}->{dst} crossed zero links")
    } else {
        return Ok(());
    };
    Err(CheckViolation {
        invariant: "network-conformance",
        message,
        recent: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spasm_logp::GapTracker;

    fn ns(n: u64) -> SimTime {
        SimTime::from_ns(n)
    }

    /// Feeds the checker what a real GapTracker + fixed L would grant.
    fn grant(
        gaps: &mut GapTracker,
        l: SimTime,
        at: SimTime,
        src: usize,
        dst: usize,
    ) -> (SimTime, SimTime, SimTime) {
        let send = gaps.acquire(src, NetEvent::Send, at).start;
        let arrive = send + l;
        let recv = gaps.acquire(dst, NetEvent::Recv, arrive).start;
        (send, arrive, recv)
    }

    #[test]
    fn real_gap_tracker_grants_are_clean_under_both_policies() {
        for policy in [GapPolicy::Unified, GapPolicy::PerEventType] {
            let (l, g) = (ns(1600), ns(200));
            let mut gaps = GapTracker::new(4, g, policy);
            let mut chk = NetChecker::new(4, l, g, policy);
            // Bursts from one node, crossing traffic, an idle stretch.
            let msgs = [
                (ns(0), 0, 1),
                (ns(0), 0, 2),
                (ns(50), 2, 0),
                (ns(100), 0, 1),
                (ns(9000), 1, 3),
                (ns(9000), 3, 1),
            ];
            for (at, src, dst) in msgs {
                let (s, a, r) = grant(&mut gaps, l, at, src, dst);
                chk.observe_message(at, src, dst, s, a, r)
                    .unwrap_or_else(|v| panic!("policy {policy:?}: {v}"));
            }
        }
    }

    #[test]
    fn send_before_the_gap_elapses_is_caught() {
        let (l, g) = (ns(1600), ns(200));
        let mut chk = NetChecker::new(2, l, g, GapPolicy::Unified);
        chk.observe_message(ns(0), 0, 1, ns(0), ns(1600), ns(1600))
            .unwrap();
        // Second send from node 0 at t=0 must wait until 200; claim 100.
        let v = chk
            .observe_message(ns(0), 0, 1, ns(100), ns(1700), ns(1800))
            .unwrap_err();
        assert_eq!(v.invariant, "message-gap");
        assert!(v.message.contains("started at 100ns"), "{v}");
        assert_eq!(
            v.recent,
            [
                "t=0ns msg 0->1: send@0ns arrive@1.600us recv@1.600us",
                "t=0ns msg 0->1: send@100ns arrive@1.700us recv@1.800us",
            ]
        );
    }

    #[test]
    fn wrong_latency_is_caught() {
        let (l, g) = (ns(1600), ns(200));
        let mut chk = NetChecker::new(2, l, g, GapPolicy::Unified);
        let v = chk
            .observe_message(ns(0), 0, 1, ns(0), ns(1500), ns(1500))
            .unwrap_err();
        assert_eq!(v.invariant, "network-latency");
    }

    #[test]
    fn receiver_gap_is_enforced() {
        let (l, g) = (ns(1600), ns(1000));
        let mut chk = NetChecker::new(3, l, g, GapPolicy::Unified);
        // Two messages converge on node 2; the second reception must be
        // pushed to 2600, but the feed claims it starts on arrival.
        chk.observe_message(ns(0), 0, 2, ns(0), ns(1600), ns(1600))
            .unwrap();
        let v = chk
            .observe_message(ns(0), 1, 2, ns(0), ns(1600), ns(1600))
            .unwrap_err();
        assert_eq!(v.invariant, "message-gap");
        assert!(v.message.contains("receive"), "{v}");
    }

    #[test]
    fn per_event_type_allows_what_unified_forbids() {
        let (l, g) = (ns(1600), ns(500));
        // Node 1 receives at 1600 and sends at 1700: legal only when the
        // gap applies per event type.
        let feed = |chk: &mut NetChecker| {
            chk.observe_message(ns(0), 0, 1, ns(0), ns(1600), ns(1600))?;
            chk.observe_message(ns(1700), 1, 0, ns(1700), ns(3300), ns(3300))
        };
        let mut strict = NetChecker::new(2, l, g, GapPolicy::Unified);
        assert_eq!(feed(&mut strict).unwrap_err().invariant, "message-gap");
        let mut relaxed = NetChecker::new(2, l, g, GapPolicy::PerEventType);
        feed(&mut relaxed).unwrap();
    }

    #[test]
    fn a_deviation_is_not_echoed_by_later_messages() {
        let (l, g) = (ns(1600), ns(200));
        let mut chk = NetChecker::new(2, l, g, GapPolicy::Unified);
        chk.observe_message(ns(0), 0, 1, ns(0), ns(1600), ns(1600))
            .unwrap();
        // Granted late: the gap rules give 200, the network said 500.
        let v = chk
            .observe_message(ns(0), 0, 1, ns(500), ns(2100), ns(2100))
            .unwrap_err();
        assert_eq!(v.invariant, "message-gap");
        // The mirror follows the observed grant, so the next send one
        // gap after it is clean.
        chk.observe_message(ns(0), 0, 1, ns(700), ns(2300), ns(2300))
            .unwrap();
    }

    /// A remote delivery as the wormhole network prices it: 300 ns of
    /// link contention, 400 ns of transmission over two links.
    fn delivery(at: SimTime) -> Delivery {
        Delivery {
            depart: at + ns(300),
            arrive: at + ns(700),
            latency: ns(400),
            contention: ns(300),
            hops: 2,
        }
    }

    #[test]
    fn a_conforming_delivery_is_clean() {
        network_conformance(ns(1000), 0, 3, &delivery(ns(1000))).unwrap();
    }

    #[test]
    fn departing_off_the_contention_is_a_conformance_violation() {
        let d = Delivery {
            depart: ns(1200),
            ..delivery(ns(1000))
        };
        let v = network_conformance(ns(1000), 0, 3, &d).unwrap_err();
        assert_eq!(v.invariant, "network-conformance");
        assert_eq!(
            v.message,
            "message 0->3 injected at 1.000us with contention 300ns departed at 1.200us"
        );
        assert!(v.recent.is_empty());
    }

    #[test]
    fn arriving_off_the_latency_is_a_conformance_violation() {
        let d = Delivery {
            arrive: ns(1600),
            ..delivery(ns(1000))
        };
        let v = network_conformance(ns(1000), 0, 3, &d).unwrap_err();
        assert_eq!(v.invariant, "network-conformance");
        assert_eq!(
            v.message,
            "message 0->3 departed at 1.300us with latency 400ns arrived at 1.600us"
        );
    }

    #[test]
    fn a_remote_message_over_zero_links_is_a_conformance_violation() {
        let d = Delivery {
            hops: 0,
            ..delivery(ns(1000))
        };
        let v = network_conformance(ns(1000), 2, 5, &d).unwrap_err();
        assert_eq!(v.invariant, "network-conformance");
        assert_eq!(v.message, "remote message 2->5 crossed zero links");
    }
}
