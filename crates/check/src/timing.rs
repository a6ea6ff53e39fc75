//! Engine-level timing and message-conservation checks.

use std::fmt;

use spasm_desim::SimTime;

use crate::{CheckMode, CheckViolation, EventRing};

/// Watches the engine's event loop:
///
/// * **event-time monotonicity** — popped event times never decrease;
/// * **message conservation** — every `Deliver` the engine processes was
///   scheduled by a send (matched by destination, tag, and time), and at
///   end of run every scheduled delivery has been processed;
/// * **event accounting** — the drained queue popped every event pushed;
/// * **model conformance** (strict mode only) — the time the engine
///   actually schedules a dispatch, access completion, or delivery at is
///   exactly the time the machine model priced. Fault injection perturbs
///   scheduled times *after* pricing, so under [`CheckMode::Strict`]
///   each injected species surfaces as its own violation: a stall as
///   `dispatch-conformance`, a delayed access as `access-conformance`,
///   a delayed or duplicated message as `delivery-conformance` /
///   `message-conservation`.
///
/// Under [`CheckMode::On`] the perturbed (post-injection) times are
/// taken as the schedule, so a faulted run is checked for internal
/// consistency — conservation and monotonicity still hold — without
/// reporting the injection itself.
///
/// `E` is the engine's own event type: the ring keeps the most recent
/// events as values and renders them (`t=<time> <event:?>`) only into a
/// violation, so observing an event allocates nothing.
#[derive(Debug)]
pub struct EngineChecker<E> {
    strict: bool,
    last: SimTime,
    /// Per destination node, the `(tag, time)` of each scheduled but not
    /// yet processed delivery, in scheduling order.
    expected: Vec<Vec<(u64, SimTime)>>,
    sends: u64,
    scheduled: u64,
    delivered: u64,
    ring: EventRing<Stamped<E>>,
}

/// One ring entry: an event and the time it was popped at.
#[derive(Debug, Clone, Copy)]
struct Stamped<E>(SimTime, E);

impl<E: fmt::Debug> fmt::Display for Stamped<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={} {:?}", self.0, self.1)
    }
}

impl<E: Copy + fmt::Debug> EngineChecker<E> {
    /// A checker for one run of `p` nodes under `mode` (which must be
    /// enabled).
    pub fn new(mode: CheckMode, p: usize) -> Self {
        EngineChecker {
            strict: mode.strict(),
            last: SimTime::ZERO,
            expected: vec![Vec::new(); p],
            sends: 0,
            scheduled: 0,
            delivered: 0,
            ring: EventRing::new(),
        }
    }

    /// Observes one popped event at time `t`, keeping `event` for the
    /// ring buffer.
    ///
    /// # Errors
    ///
    /// `event-monotonicity` if `t` precedes the previous event.
    ///
    /// Inlined, as the queue's `pop` is: the ring slot is written from
    /// the engine's registers instead of reloaded from a just-spilled
    /// event (DESIGN.md §12).
    #[inline]
    pub fn on_event(&mut self, t: SimTime, event: E) -> Result<(), CheckViolation> {
        self.ring.record(Stamped(t, event));
        if t < self.last {
            return Err(self.violation(
                "event-monotonicity",
                format!("event at {t} popped after an event at {}", self.last),
            ));
        }
        self.last = t;
        Ok(())
    }

    /// Observes a processor's next request being scheduled: the body asked
    /// to proceed at `requested` (= now) and the engine scheduled the
    /// dispatch at `scheduled` (≠ only under an injected stall).
    ///
    /// # Errors
    ///
    /// `dispatch-conformance` in strict mode when the times differ.
    pub fn on_dispatch(
        &mut self,
        proc: usize,
        requested: SimTime,
        scheduled: SimTime,
    ) -> Result<(), CheckViolation> {
        if self.strict && scheduled != requested {
            return Err(self.violation(
                "dispatch-conformance",
                format!(
                    "processor {proc} requested dispatch at {requested} but was scheduled at {scheduled}"
                ),
            ));
        }
        Ok(())
    }

    /// Observes a priced memory access: the model said it completes at
    /// `model_finish`; the engine will commit it at `scheduled` (≠ only
    /// under an injected delay).
    ///
    /// # Errors
    ///
    /// `access-conformance` in strict mode when the times differ.
    pub fn on_access(
        &mut self,
        proc: usize,
        model_finish: SimTime,
        scheduled: SimTime,
    ) -> Result<(), CheckViolation> {
        if self.strict && scheduled != model_finish {
            return Err(self.violation(
                "access-conformance",
                format!(
                    "processor {proc}'s access was priced to finish at {model_finish} but was scheduled at {scheduled}"
                ),
            ));
        }
        Ok(())
    }

    /// Observes a send: the model priced delivery at `model_delivered`;
    /// the engine schedules `copies` deliveries at `scheduled`.
    ///
    /// # Errors
    ///
    /// In strict mode, `message-conservation` when `copies != 1` and
    /// `delivery-conformance` when the scheduled time deviates from the
    /// priced one.
    pub fn on_send(
        &mut self,
        dst: usize,
        tag: u64,
        model_delivered: SimTime,
        scheduled: SimTime,
        copies: u64,
    ) -> Result<(), CheckViolation> {
        self.sends += 1;
        self.scheduled += copies;
        for _ in 0..copies {
            self.expected[dst].push((tag, scheduled));
        }
        if self.strict && copies != 1 {
            return Err(self.violation(
                "message-conservation",
                format!("one send to node {dst} (tag {tag}) scheduled {copies} deliveries"),
            ));
        }
        if self.strict && scheduled != model_delivered {
            return Err(self.violation(
                "delivery-conformance",
                format!(
                    "message to node {dst} (tag {tag}) was priced to arrive at {model_delivered} but was scheduled at {scheduled}"
                ),
            ));
        }
        Ok(())
    }

    /// Observes a `Deliver` event being processed at `at`, matching it
    /// against a scheduled delivery for the same destination and tag.
    ///
    /// Deliveries to one `(dst, tag)` pair may be processed out of
    /// scheduling order (the event queue orders by time, sends by issue),
    /// so the match is by `(tag, time)` anywhere in the destination's
    /// pending list, not FIFO.
    ///
    /// # Errors
    ///
    /// `message-conservation` when no scheduled delivery matches.
    pub fn on_deliver(&mut self, dst: usize, tag: u64, at: SimTime) -> Result<(), CheckViolation> {
        let pending = &mut self.expected[dst];
        if let Some(i) = pending.iter().position(|&d| d == (tag, at)) {
            pending.remove(i);
        } else {
            return Err(self.violation(
                "message-conservation",
                format!("delivery to node {dst} (tag {tag}) at {at} matches no scheduled send"),
            ));
        }
        self.delivered += 1;
        Ok(())
    }

    /// End-of-run ledger: every scheduled delivery was processed, sends
    /// plus the injector's duplicates account for every scheduled
    /// delivery, and the drained event queue `popped` every event it
    /// `pushed`.
    ///
    /// # Errors
    ///
    /// `message-conservation` on any delivery imbalance, then
    /// `event-accounting` on a queue imbalance.
    pub fn on_run_end(
        &mut self,
        injected_duplicates: u64,
        popped: u64,
        pushed: u64,
    ) -> Result<(), CheckViolation> {
        let mut keys: Vec<(usize, u64)> = self
            .expected
            .iter()
            .enumerate()
            .flat_map(|(dst, pending)| pending.iter().map(move |&(tag, _)| (dst, tag)))
            .collect();
        if !keys.is_empty() {
            let undelivered = keys.len();
            keys.sort_unstable();
            keys.dedup();
            return Err(self.violation(
                "message-conservation",
                format!("{undelivered} scheduled deliveries never processed (dst, tag): {keys:?}"),
            ));
        }
        if self.delivered != self.scheduled || self.scheduled != self.sends + injected_duplicates {
            return Err(self.violation(
                "message-conservation",
                format!(
                    "ledger imbalance: {} sends + {injected_duplicates} injected duplicates, {} scheduled, {} delivered",
                    self.sends, self.scheduled, self.delivered
                ),
            ));
        }
        if popped != pushed {
            return Err(self.violation(
                "event-accounting",
                format!("drained queue popped {popped} of {pushed} pushed events"),
            ));
        }
        Ok(())
    }

    fn violation(&self, invariant: &'static str, message: String) -> CheckViolation {
        CheckViolation::new(invariant, message, &self.ring)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(n: u64) -> SimTime {
        SimTime::from_ns(n)
    }

    /// Most tests observe no event, so the entry type is named here
    /// instead of inferred.
    fn checker(mode: CheckMode) -> EngineChecker<&'static str> {
        EngineChecker::new(mode, 4)
    }

    #[test]
    fn clean_send_deliver_cycle_balances() {
        let mut c = checker(CheckMode::Strict);
        c.on_event(ns(0), "dispatch send").unwrap();
        c.on_send(1, 7, ns(1600), ns(1600), 1).unwrap();
        c.on_event(ns(1600), "deliver").unwrap();
        c.on_deliver(1, 7, ns(1600)).unwrap();
        c.on_run_end(0, 0, 0).unwrap();
    }

    #[test]
    fn time_going_backwards_is_caught() {
        let mut c = checker(CheckMode::On);
        c.on_event(ns(100), "a").unwrap();
        let v = c.on_event(ns(50), "b").unwrap_err();
        assert_eq!(v.invariant, "event-monotonicity");
        assert_eq!(v.recent, ["t=100ns \"a\"", "t=50ns \"b\""]);
    }

    #[test]
    fn duplicate_is_a_conservation_violation_in_strict_mode() {
        let mut c = checker(CheckMode::Strict);
        let v = c.on_send(2, 0, ns(100), ns(100), 2).unwrap_err();
        assert_eq!(v.invariant, "message-conservation");
    }

    #[test]
    fn duplicate_is_tolerated_and_balanced_in_lenient_mode() {
        let mut c = checker(CheckMode::On);
        c.on_send(2, 0, ns(100), ns(100), 2).unwrap();
        c.on_deliver(2, 0, ns(100)).unwrap();
        c.on_deliver(2, 0, ns(100)).unwrap();
        c.on_run_end(1, 0, 0).unwrap();
    }

    #[test]
    fn delayed_message_is_a_delivery_conformance_violation_in_strict_mode() {
        let mut c = checker(CheckMode::Strict);
        let v = c.on_send(1, 0, ns(100), ns(250), 1).unwrap_err();
        assert_eq!(v.invariant, "delivery-conformance");
        // Lenient mode takes the perturbed schedule as truth.
        let mut c = checker(CheckMode::On);
        c.on_send(1, 0, ns(100), ns(250), 1).unwrap();
        c.on_deliver(1, 0, ns(250)).unwrap();
        c.on_run_end(0, 0, 0).unwrap();
    }

    #[test]
    fn stall_and_access_delay_are_strict_violations() {
        let mut c = checker(CheckMode::Strict);
        let v = c.on_dispatch(3, ns(10), ns(40)).unwrap_err();
        assert_eq!(v.invariant, "dispatch-conformance");
        let v = c.on_access(3, ns(300), ns(900)).unwrap_err();
        assert_eq!(v.invariant, "access-conformance");
        let mut c = checker(CheckMode::On);
        c.on_dispatch(3, ns(10), ns(40)).unwrap();
        c.on_access(3, ns(300), ns(900)).unwrap();
    }

    #[test]
    fn unmatched_delivery_is_caught() {
        let mut c = checker(CheckMode::On);
        let v = c.on_deliver(0, 9, ns(10)).unwrap_err();
        assert_eq!(v.invariant, "message-conservation");
        assert!(v.message.contains("matches no scheduled send"), "{v}");
    }

    #[test]
    fn out_of_order_deliveries_on_one_tag_still_match() {
        // Send A scheduled late, send B scheduled early: the queue pops B
        // first. Matching is by time, not FIFO.
        let mut c = checker(CheckMode::Strict);
        c.on_send(0, 5, ns(400), ns(400), 1).unwrap();
        c.on_send(0, 5, ns(200), ns(200), 1).unwrap();
        c.on_deliver(0, 5, ns(200)).unwrap();
        c.on_deliver(0, 5, ns(400)).unwrap();
        c.on_run_end(0, 0, 0).unwrap();
    }

    #[test]
    fn duplicate_count_disagreement_is_a_ledger_imbalance() {
        // The injector says one duplicate happened; the checker saw one
        // send schedule one delivery. The end-of-run ledger must refuse.
        let mut c = checker(CheckMode::On);
        c.on_send(1, 7, ns(100), ns(100), 1).unwrap();
        c.on_deliver(1, 7, ns(100)).unwrap();
        let v = c.on_run_end(1, 0, 0).unwrap_err();
        assert_eq!(v.invariant, "message-conservation");
        assert!(v.message.contains("ledger imbalance"), "{v}");
    }

    #[test]
    fn lost_message_is_caught_at_run_end() {
        let mut c = checker(CheckMode::On);
        c.on_send(2, 9, ns(100), ns(100), 1).unwrap();
        c.on_send(1, 7, ns(100), ns(100), 1).unwrap();
        c.on_send(2, 9, ns(200), ns(200), 1).unwrap();
        let v = c.on_run_end(0, 0, 0).unwrap_err();
        assert_eq!(v.invariant, "message-conservation");
        // Pending pairs are listed once each, sorted.
        assert_eq!(
            v.message,
            "3 scheduled deliveries never processed (dst, tag): [(1, 7), (2, 9)]"
        );
    }

    #[test]
    fn a_queue_that_drains_short_is_an_accounting_violation() {
        let mut c = checker(CheckMode::On);
        c.on_event(ns(0), "a").unwrap();
        c.on_run_end(0, 3, 3).unwrap();
        let v = c.on_run_end(0, 2, 3).unwrap_err();
        assert_eq!(v.invariant, "event-accounting");
        assert_eq!(v.message, "drained queue popped 2 of 3 pushed events");
        assert_eq!(v.recent, ["t=0ns \"a\""]);
    }
}
