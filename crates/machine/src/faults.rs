//! Deterministic fault injection and run budgets.
//!
//! A [`FaultPlan`] describes *adversity* to inject into a simulation:
//! message delays, duplications, and losses on the network path (a lost
//! message vanishes in flight and a retransmitted copy arrives after a
//! timeout), per-node stall windows (a node that briefly stops
//! dispatching, as if its OS took an interrupt), and forced
//! coherence-controller retries (a directory that NACKs and makes the
//! requester re-arbitrate). All decisions are drawn
//! from one in-tree [`SplitMix64`] stream seeded by the plan, and the
//! engine processes events in a deterministic order, so a given
//! `(experiment, plan)` pair always injects the *same* faults at the same
//! points — failures reproduce bit-identically.
//!
//! A [`RunBudget`] bounds a run in simulated time and/or event count so
//! that livelock (e.g. a polling spin loop whose flag never flips) becomes
//! a typed [`crate::RunError::BudgetExceeded`] instead of an endless loop.

use spasm_desim::SimTime;
use spasm_prng::{Rng, SplitMix64};

/// Upper bounds on a single simulation run.
///
/// `None` means unlimited. The engine checks the budget each time it pops
/// an event; exceeding either bound aborts the run with
/// [`crate::RunError::BudgetExceeded`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunBudget {
    /// Maximum number of simulator events to process.
    pub max_events: Option<u64>,
    /// Maximum simulated time to reach.
    pub max_sim_time: Option<SimTime>,
}

impl RunBudget {
    /// No bounds: the run may take as long as it needs.
    pub const UNLIMITED: RunBudget = RunBudget {
        max_events: None,
        max_sim_time: None,
    };

    /// A budget bounded by event count only.
    pub fn events(max: u64) -> Self {
        RunBudget {
            max_events: Some(max),
            max_sim_time: None,
        }
    }

    /// A budget bounded by simulated time only.
    pub fn sim_time(max: SimTime) -> Self {
        RunBudget {
            max_events: None,
            max_sim_time: Some(max),
        }
    }

    /// Whether either bound is set.
    pub fn is_bounded(&self) -> bool {
        self.max_events.is_some() || self.max_sim_time.is_some()
    }
}

/// A deterministic, seeded plan of faults to inject into a run.
///
/// Probabilities are in `[0, 1]`; a plan with all probabilities zero
/// injects nothing (see [`FaultPlan::is_active`]). Magnitudes are in
/// nanoseconds of simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed for the fault decision stream. Two runs with the same seed
    /// (and the same workload) inject identical faults.
    pub seed: u64,
    /// Probability that a network message is delayed in flight.
    pub delay_prob: f64,
    /// Maximum extra in-flight delay, drawn uniformly from `[1, max]` ns.
    pub max_delay_ns: u64,
    /// Probability that an explicit message is duplicated (the copy
    /// arrives after the original; receivers must tolerate it).
    pub dup_prob: f64,
    /// Probability that a delivery is dropped in flight. A dropped
    /// message is retransmitted [`Self::retransmit_ns`] later; after
    /// [`Self::max_retransmits`] drops the next copy always arrives, so
    /// delivery is guaranteed by the bound rather than the dice.
    pub loss_prob: f64,
    /// Delay before a dropped message's retransmitted copy arrives.
    pub retransmit_ns: u64,
    /// Maximum drops per message before the loss roll is bypassed.
    pub max_retransmits: u32,
    /// Probability that a processor stalls before its next operation.
    pub stall_prob: f64,
    /// Stall window length in nanoseconds.
    pub stall_ns: u64,
    /// Probability that a coherence/memory transaction is NACKed and
    /// retried (each retry re-pays the transaction's network time).
    pub retry_prob: f64,
    /// Maximum forced retries per transaction.
    pub max_retries: u32,
}

impl FaultPlan {
    /// A quiet plan: seeded but injecting nothing. Useful as a base for
    /// struct-update syntax.
    pub fn quiet(seed: u64) -> Self {
        FaultPlan {
            seed,
            delay_prob: 0.0,
            max_delay_ns: 0,
            dup_prob: 0.0,
            loss_prob: 0.0,
            retransmit_ns: 0,
            max_retransmits: 0,
            stall_prob: 0.0,
            stall_ns: 0,
            retry_prob: 0.0,
            max_retries: 0,
        }
    }

    /// An adversarial plan exercising every fault class at once: 10%
    /// message delay (up to 2 µs), 5% duplication, 2% loss (3 µs
    /// retransmission timeout, at most 2 drops per message), 2% stalls
    /// of 5 µs, and 10% single retries.
    pub fn adversarial(seed: u64) -> Self {
        FaultPlan {
            seed,
            delay_prob: 0.10,
            max_delay_ns: 2_000,
            dup_prob: 0.05,
            loss_prob: 0.02,
            retransmit_ns: 3_000,
            max_retransmits: 2,
            stall_prob: 0.02,
            stall_ns: 5_000,
            retry_prob: 0.10,
            max_retries: 1,
        }
    }

    /// A randomized plan for chaos campaigns: every knob is drawn
    /// deterministically from the seed (decorrelated via SplitMix64),
    /// spanning near-quiet corners up to beyond-adversarial
    /// intensities. Two calls with the same seed build the identical
    /// plan, so a chaos trial's reference run and its crash-recovery
    /// replays inject the same faults.
    pub fn chaos(seed: u64) -> Self {
        let mut s = seed ^ 0xc0a5_c0de_0b5e_55edu64;
        let mut d = [0u64; 10];
        for slot in &mut d {
            *slot = spasm_prng::splitmix64(&mut s);
        }
        // Probabilities are drawn on a per-mille lattice so plans are
        // exactly reproducible in decimal logs.
        let prob = |raw: u64, ceiling_permille: u64| (raw % (ceiling_permille + 1)) as f64 / 1000.0;
        FaultPlan {
            seed,
            delay_prob: prob(d[0], 150),
            max_delay_ns: 500 + d[1] % 3_000,
            dup_prob: prob(d[2], 100),
            loss_prob: prob(d[3], 50),
            retransmit_ns: 1_000 + d[4] % 4_000,
            max_retransmits: 1 + (d[5] % 3) as u32,
            stall_prob: prob(d[6], 50),
            stall_ns: 1_000 + d[7] % 8_000,
            retry_prob: prob(d[8], 150),
            max_retries: 1 + (d[9] % 2) as u32,
        }
    }

    /// Whether any fault class has a non-zero probability.
    pub fn is_active(&self) -> bool {
        self.delay_prob > 0.0
            || self.dup_prob > 0.0
            || self.loss_prob > 0.0
            || self.stall_prob > 0.0
            || self.retry_prob > 0.0
    }
}

/// Counts of faults actually injected during a run (for reporting).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Messages delayed in flight.
    pub delayed: u64,
    /// Messages duplicated.
    pub duplicated: u64,
    /// Deliveries dropped in flight and retransmitted.
    pub retransmits: u64,
    /// Processor stall windows inserted.
    pub stalls: u64,
    /// Coherence/memory transactions forced to retry.
    pub retries: u64,
}

impl FaultCounters {
    /// Total faults of all classes.
    pub fn total(&self) -> u64 {
        self.delayed + self.duplicated + self.retransmits + self.stalls + self.retries
    }
}

/// The engine-side fault roller: owns the decision stream and counters.
#[derive(Debug)]
pub(crate) struct FaultInjector {
    plan: FaultPlan,
    rng: SplitMix64,
    pub(crate) counters: FaultCounters,
}

impl FaultInjector {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            rng: SplitMix64::new(plan.seed),
            counters: FaultCounters::default(),
        }
    }

    fn roll(&mut self, prob: f64) -> bool {
        prob > 0.0 && self.rng.gen_f64() < prob
    }

    /// Extra in-flight delay for a network message, if one is injected.
    pub(crate) fn message_delay(&mut self) -> Option<SimTime> {
        if self.roll(self.plan.delay_prob) && self.plan.max_delay_ns > 0 {
            self.counters.delayed += 1;
            let ns = 1 + self.rng.gen_u64_below(self.plan.max_delay_ns);
            Some(SimTime::from_ns(ns))
        } else {
            None
        }
    }

    /// Whether to duplicate an explicit message delivery.
    pub(crate) fn duplicate(&mut self) -> bool {
        let dup = self.roll(self.plan.dup_prob);
        if dup {
            self.counters.duplicated += 1;
        }
        dup
    }

    /// Whether to drop a delivery that has already been dropped `drops`
    /// times, and if so how long until the retransmitted copy arrives.
    ///
    /// The retransmission bound is checked *before* the dice roll, so
    /// the attempt after the last permitted drop consumes no stream
    /// draw and always delivers — a message can be late, never lost.
    pub(crate) fn message_loss(&mut self, drops: u32) -> Option<SimTime> {
        if self.plan.retransmit_ns == 0 || drops >= self.plan.max_retransmits {
            return None;
        }
        if self.roll(self.plan.loss_prob) {
            self.counters.retransmits += 1;
            Some(SimTime::from_ns(self.plan.retransmit_ns))
        } else {
            None
        }
    }

    /// Stall window to insert before a processor's next operation.
    pub(crate) fn stall(&mut self) -> Option<SimTime> {
        if self.roll(self.plan.stall_prob) && self.plan.stall_ns > 0 {
            self.counters.stalls += 1;
            Some(SimTime::from_ns(self.plan.stall_ns))
        } else {
            None
        }
    }

    /// Number of forced retries for a network-touching transaction.
    pub(crate) fn coherence_retries(&mut self) -> u32 {
        if self.plan.max_retries == 0 || !self.roll(self.plan.retry_prob) {
            return 0;
        }
        let n = 1 + (self.rng.gen_u64_below(u64::from(self.plan.max_retries)) as u32);
        self.counters.retries += u64::from(n);
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_plan_injects_nothing() {
        let mut inj = FaultInjector::new(FaultPlan::quiet(7));
        for _ in 0..1000 {
            assert!(inj.message_delay().is_none());
            assert!(!inj.duplicate());
            assert!(inj.message_loss(0).is_none());
            assert!(inj.stall().is_none());
            assert_eq!(inj.coherence_retries(), 0);
        }
        assert_eq!(inj.counters.total(), 0);
        assert!(!FaultPlan::quiet(7).is_active());
    }

    #[test]
    fn adversarial_plan_injects_every_class() {
        let mut inj = FaultInjector::new(FaultPlan::adversarial(42));
        for _ in 0..10_000 {
            inj.message_delay();
            inj.duplicate();
            inj.message_loss(0);
            inj.stall();
            inj.coherence_retries();
        }
        let c = inj.counters;
        assert!(c.delayed > 0, "no delays in 10k rolls");
        assert!(c.duplicated > 0, "no dups in 10k rolls");
        assert!(c.retransmits > 0, "no losses in 10k rolls");
        assert!(c.stalls > 0, "no stalls in 10k rolls");
        assert!(c.retries > 0, "no retries in 10k rolls");
    }

    #[test]
    fn loss_is_bounded_by_max_retransmits() {
        let plan = FaultPlan {
            loss_prob: 1.0,
            retransmit_ns: 500,
            max_retransmits: 2,
            ..FaultPlan::quiet(8)
        };
        let mut inj = FaultInjector::new(plan);
        // Certain loss still delivers: the roll is bypassed once a
        // message has burned its retransmission budget.
        assert_eq!(inj.message_loss(0), Some(SimTime::from_ns(500)));
        assert_eq!(inj.message_loss(1), Some(SimTime::from_ns(500)));
        assert_eq!(inj.message_loss(2), None);
        assert_eq!(inj.counters.retransmits, 2);
    }

    #[test]
    fn same_seed_same_decisions() {
        let decisions = |seed| {
            let mut inj = FaultInjector::new(FaultPlan::adversarial(seed));
            (0..256)
                .map(|_| (inj.message_delay(), inj.duplicate(), inj.stall()))
                .collect::<Vec<_>>()
        };
        assert_eq!(decisions(9), decisions(9));
        assert_ne!(decisions(9), decisions(10));
    }

    #[test]
    fn delays_are_bounded_and_positive() {
        let plan = FaultPlan {
            delay_prob: 1.0,
            max_delay_ns: 10,
            ..FaultPlan::quiet(3)
        };
        let mut inj = FaultInjector::new(plan);
        for _ in 0..1000 {
            let d = inj.message_delay().unwrap();
            assert!(d >= SimTime::from_ns(1) && d <= SimTime::from_ns(10));
        }
    }

    #[test]
    fn chaos_plans_are_deterministic_bounded_and_seed_sensitive() {
        let a = FaultPlan::chaos(7);
        let b = FaultPlan::chaos(7);
        assert_eq!(a, b);
        assert_ne!(a, FaultPlan::chaos(8));
        for seed in 0..64 {
            let p = FaultPlan::chaos(seed);
            assert!(p.delay_prob <= 0.15 && p.loss_prob <= 0.05, "{p:?}");
            assert!(p.max_retransmits >= 1 && p.max_retries >= 1, "{p:?}");
            assert!(p.max_delay_ns >= 500 && p.retransmit_ns >= 1_000, "{p:?}");
        }
    }

    #[test]
    fn budget_constructors() {
        assert!(!RunBudget::UNLIMITED.is_bounded());
        assert!(RunBudget::events(10).is_bounded());
        assert!(RunBudget::sim_time(SimTime::from_us(5)).is_bounded());
        assert_eq!(RunBudget::default(), RunBudget::UNLIMITED);
    }
}
